"""One benchmark operation in a fresh interpreter.

Usage: python3 bench/worker.py MODE SPEC_JSON RESULT_PATH

MODE is one of
  setup  import qubit_bandit and resolve the workload's configuration,
         timing both; report that time and the BLAS thread count;
  call   make the workload's library call once, timed after import;
  cli    run the CLI in-process with every layer traced.

run.py starts this with src/ on PYTHONPATH and reads RESULT_PATH back.
"""

from __future__ import annotations

import ctypes
import json
import sys
import time
from pathlib import Path


def blas_threads() -> int | None:
    """Threads OpenBLAS will use in this process, asked of the library itself."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def coop_config(spec: dict):
    from qubit_bandit.harness import ExperimentConfig, Scenario

    return ExperimentConfig(
        scenario=Scenario.COOP_PAIR,
        p1=spec["p1"],
        p2=spec["p2"],
        c=spec["c"],
        initial_p0=spec["p0"],
        horizon=spec["horizon"],
        trials=spec["trials"],
        seed=spec["seed"],
    )


def metrics_data(metrics) -> dict:
    return {
        "summary": metrics.to_dict(),
        "finals": [t.final_p0 for t in metrics.per_trial],
        "totals": [t.total_reward for t in metrics.per_trial],
        "curve": metrics.mean_step_reward.tolist(),
    }


def setup(spec: dict) -> dict:
    start = time.perf_counter()
    import qubit_bandit  # noqa: F401

    if spec["kind"] == "cli":
        from qubit_bandit.cli import parse_args

        parse_args(spec["argv"])
    elif spec["kind"] == "coop":
        coop_config(spec).validate()
    elapsed = time.perf_counter() - start
    return {"setup_s": elapsed, "blas_threads": blas_threads()}


def call(spec: dict) -> dict:
    from qubit_bandit import harness, oracle

    tracer = None
    if spec.get("trace"):
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    result: dict = {}
    if spec["kind"] == "coop":
        config = coop_config(spec)
        order = range(config.trials - 1, -1, -1) if spec.get("reverse") else None
        start = time.perf_counter()
        _, metrics = harness.run_experiment(config, record_trajectories=False, trial_order=order)
        result["seconds"] = time.perf_counter() - start
        result["data"] = metrics_data(metrics)
    else:
        args = (spec["p0"], spec["p1"], spec["p2"], spec["c"])
        if tracer is not None:
            oracle.evolve_distribution(*args, 0)
        start = time.perf_counter()
        dist = oracle.evolve_distribution(*args, spec["horizon"])
        result["seconds"] = time.perf_counter() - start
        result["data"] = {"outcomes": dist.outcomes}
    if tracer is not None:
        result["trace"] = tracer.report()
    return result


def traced_cli(spec: dict) -> dict:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracer import Tracer
    from qubit_bandit import cli

    tracer = Tracer()
    tracer.install()
    code = cli.main(spec["argv"])
    return {"exit_code": code, "trace": tracer.report()}


def main() -> int:
    mode, spec, out = sys.argv[1], json.loads(sys.argv[2]), Path(sys.argv[3])
    result = {"setup": setup, "call": call, "cli": traced_cli}[mode](spec)
    out.write_text(json.dumps(result))
    return result.get("exit_code", 0)


if __name__ == "__main__":
    sys.exit(main())
