"""The qubit-bandit benchmark: one workload per invocation, outputs checked.

Usage (from the repository root):

    python3 bench/run.py --workload cli-single-csv --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

With --trace 0 it reports the end-to-end metrics (rounds_per_s, peak_rss_mb,
setup_s); with --trace 1 the per-layer metrics of a traced run. Either way
it checks every output against the independent references in reference.py
and prints, as its last line, one JSON object with the keys correct,
attempted, failed and metrics. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKER = BENCH / "worker.py"
LAUNCHER = BENCH / "launch.py"

SETUP_SAMPLES = 11  # fresh interpreters per run; setup_s is their median
MIN_ROUNDS = 3  # operations (pairs, when traced) every run makes at least
OP_TIMEOUT_S = 150

WORKLOADS = ("cli-single-csv", "cli-ghz-json-drift", "mc-coop-short", "exact-chain")
END_TO_END_UNITS = {"rounds_per_s": "rounds/s", "peak_rss_mb": "MB", "setup_s": "s"}
LAYER_UNITS = {
    "quantum.streams": "count",
    "quantum.stream_new_us": "us/construction",
    "quantum.draws_per_round": "count",
    "quantum.draw_ns": "ns/draw",
    "bandit.pulls_per_round": "count",
    "bandit.drift_step_us": "us/call",
    "policies.step_us": "us/call",
    "harness.trials": "count",
    "harness.self_us_per_round": "us",
    "harness.self_us_per_trial": "us",
    "harness.rss_growth_mb": "MB",
    "cli.parse_ms": "ms",
    "cli.build_us_per_row": "us",
    "cli.emit_us_per_row": "us",
    "cli.bytes_per_row": "bytes",
    "cli.rss_growth_mb": "MB",
    "oracle.lattice_states": "count",
    "oracle.lattice_s": "s",
    "oracle.propagate_s": "s",
    "oracle.rss_growth_mb": "MB",
    "trace.overhead_s": "s",
}


def workload_spec(name: str, seed: int) -> dict:
    """The inputs of one workload; seed is the program's root seed."""
    if name == "cli-single-csv":
        return dict(kind="cli", scenario="single", format="csv", c=0.01, p1=0.8, p2=0.2,
                    horizon=25_000, trials=4, seed=seed)
    if name == "cli-ghz-json-drift":
        return dict(kind="cli", scenario="ghz", format="json", n=5, constants=[0.08, 0.04, 0.02],
                    p1=0.7, p2=0.3, drift_step=0.002, horizon=6_000, trials=4, seed=seed)
    if name == "mc-coop-short":
        return dict(kind="coop", scenario="coop", c=0.1, p1=0.7, p2=0.4, p0=0.5, horizon=10, trials=15_000,
                    seed=seed, order_check=2_000)
    if name == "exact-chain":
        # the start state varies with the seed; the lattice stays near 1,500 states
        p0 = round(random.Random(seed).uniform(0.3, 0.7), 6)
        return dict(kind="chain", p0=p0, p1=0.8, p2=0.2, c=0.002, horizon=1_000)
    raise ValueError(f"unknown workload {name!r}")


def cli_argv(spec: dict, output: Path) -> list[str]:
    argv = [spec["scenario"]]
    if spec["scenario"] == "ghz":
        argv += ["--n", str(spec["n"]), "--constants", ",".join(map(str, spec["constants"]))]
    else:
        argv += ["--c", str(spec["c"])]
    argv += ["--p1", str(spec["p1"]), "--p2", str(spec["p2"])]
    if spec.get("drift_step"):
        argv += ["--drift-step", str(spec["drift_step"])]
    argv += ["--horizon", str(spec["horizon"]), "--trials", str(spec["trials"]),
             "--seed", str(spec["seed"]), "--format", spec["format"], "--output", str(output)]
    return argv


def rounds_per_op(spec: dict) -> int:
    """Rounds one operation completes: trials x horizon, or the chain's horizon."""
    return spec["horizon"] * spec.get("trials", 1)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(spec: dict) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # only the exact chain may use BLAS threads; everything else runs single-threaded
    threads = str(nproc()) if spec["kind"] == "chain" else "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env.pop("QUBIT_BANDIT_OUTPUT_DIR", None)
    return env


def run_child(cmd: list[str], env: dict, log: Path) -> tuple[float, float, int]:
    """Run one command to its end through launch.py.

    Returns (wall seconds, the command's peak RSS in MB, its exit code); the
    exit code is negative when the launcher itself failed.
    """
    report = log.with_suffix(".launch.json")
    with open(log, "wb") as err:
        # a session of its own, so that an interrupt can stop launcher and command together
        proc = subprocess.Popen(
            [sys.executable, str(LAUNCHER), str(report), str(OP_TIMEOUT_S), "--", *cmd],
            env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err, start_new_session=True)
        try:
            proc.wait(timeout=OP_TIMEOUT_S + 30)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if proc.returncode != 0 or not report.is_file():
        return math.nan, math.nan, -1
    result = json.loads(report.read_text())
    report.unlink()
    return result["seconds"], result["peak_rss_mb"], result["exit_code"]


class Run:
    """One benchmark run of one workload: operations, checks, metrics."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool) -> None:
        self.name, self.seed, self.seconds, self.trace = name, seed, seconds, trace
        self.spec = workload_spec(name, seed)
        self.env = child_env(self.spec)
        self.dir = WORK / f"{name}-{seed}-{os.getpid()}"
        self.errors: list[str] = []  # wrong outputs: the run is not correct
        self.failures: list[str] = []  # operations that did not complete
        self.attempted = 0
        self.failed = 0
        self.blas_threads = None
        self.lattice_states = 0
        self.first_output: bytes | None = None

    def log(self, tag: str) -> Path:
        return self.dir / f"{tag}.log"

    def worker(self, mode: str, spec: dict, tag: str) -> tuple[float, float, dict | None]:
        out = self.dir / f"{tag}.result.json"
        cmd = [sys.executable, str(WORKER), mode, json.dumps(spec), str(out)]
        seconds, rss, code = run_child(cmd, self.env, self.log(tag))
        if code != 0 or not out.is_file():
            self.failures.append(f"{tag}: worker exited {code}: {self.log(tag).read_text()[-400:]}")
            return seconds, rss, None
        result = json.loads(out.read_text())
        out.unlink()
        return seconds, rss, result

    def setup_times(self) -> list[float]:
        times = []
        spec = self.spec
        if spec["kind"] == "cli":
            spec = dict(spec, argv=cli_argv(spec, self.dir / f"setup.{spec['format']}"))
        # the first one warms file and bytecode caches; traced runs report no setup_s
        for i in range(1 if self.trace else SETUP_SAMPLES + 1):
            _, _, result = self.worker("setup", spec, f"setup-{i}")
            if result is None:
                continue
            self.blas_threads = result["blas_threads"]
            if i > 0:
                times.append(result["setup_s"])
        return times

    def operation(self, index: int, traced: bool) -> dict | None:
        """One timed operation; returns its seconds, peak RSS and output, or None on failure."""
        self.attempted += 1
        tag = f"{'traced' if traced else 'op'}-{index}"
        if self.spec["kind"] == "cli":
            output = self.dir / f"{tag}.{self.spec['format']}"
            argv = cli_argv(self.spec, output)
            if traced:
                seconds, rss, result = self.worker("cli", {"argv": argv}, tag)
                ok = result is not None
            else:
                cmd = [sys.executable, "-m", "qubit_bandit.cli", *argv]
                seconds, rss, code = run_child(cmd, self.env, self.log(tag))
                ok, result = code == 0, {}
                if not ok:
                    self.failures.append(f"{tag}: cli exited {code}: {self.log(tag).read_text()[-400:]}")
            if not ok or not output.is_file():
                self.failed += 1
                return None
            raw = output.read_bytes()
            output.unlink()
            if self.first_output is None:
                self.first_output = raw  # kept whole for the reference check
            return {"seconds": seconds, "rss": rss, "output": hashlib.sha256(raw).hexdigest(),
                    "size": len(raw), "trace": result.get("trace")}
        _, rss, result = self.worker("call", dict(self.spec, trace=traced), tag)
        if result is None:
            self.failed += 1
            return None
        return {"seconds": result["seconds"], "rss": rss, "output": result["data"],
                "trace": result.get("trace")}

    def operations(self) -> tuple[list[dict], list[dict]]:
        """Run whole rounds of operations until the run's time is up."""
        untraced, traced = [], []
        deadline = time.perf_counter() + self.seconds
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
            op = self.operation(rounds, traced=False)
            if op is not None:
                untraced.append(op)
            if self.trace:
                op = self.operation(rounds, traced=True)
                if op is not None:
                    traced.append(op)
            rounds += 1
        return untraced, traced

    # --- correctness ------------------------------------------------------

    def check(self, ops: list[dict]) -> None:
        if not ops:
            self.errors.append("no operation succeeded")
            return
        kind = self.spec["kind"]
        if any(op["output"] != ops[0]["output"] for op in ops):
            self.errors.append("same-seed operations gave different outputs")
        if kind == "cli":
            raw = self.first_output
            self.expect(reference.check_cli_output(self.spec, raw),
                        reference.check_cli_output(
                            self.spec, reference.corrupted_copy(self.spec, raw)))
            return
        data = ops[0]["output"]
        if kind == "coop":
            spec = self.spec
            dist, reward = reference.coop_exact(spec["p0"], spec["p1"], spec["p2"], spec["c"],
                                                spec["horizon"])
            corrupted = [data["finals"][0] + spec["c"] / 2] + data["finals"][1:]
            self.expect(reference.check_coop_sample(dist, reward, data["finals"], data["totals"]),
                        reference.check_coop_sample(dist, reward, corrupted, data["totals"]))
            # trial execution order must not change any aggregate, and a trial's
            # result must not depend on how many trials run beside it
            small = dict(spec, trials=spec["order_check"])
            _, _, in_order = self.worker("call", small, "in-order")
            _, _, reversed_ = self.worker("call", dict(small, reverse=True), "reversed")
            if in_order is None or reversed_ is None:
                self.errors.append("the trial-order check could not run")
            else:
                if in_order["data"] != reversed_["data"]:
                    self.errors.append("reversed trial order changed the aggregates")
                if in_order["data"]["finals"] != data["finals"][: small["trials"]]:
                    self.errors.append("a trial's result depends on the trial count")
        else:
            self.lattice_states, chain = reference.single_chain(
                self.spec["p0"], self.spec["p1"], self.spec["p2"], self.spec["c"],
                self.spec["horizon"])
            outcomes = data["outcomes"]
            corrupted = [[s, p + 1e-6 * (-1) ** i] for i, (s, p) in enumerate(outcomes[:2])]
            self.expect(reference.check_chain(chain, outcomes),
                        reference.check_chain(chain, corrupted + outcomes[2:]))

    def expect(self, errors: list[str], corrupted_errors: list[str]) -> None:
        """Record the check's findings; the corrupted copy must be rejected."""
        self.errors.extend(errors)
        if not corrupted_errors:
            self.errors.append("self-test: the check accepted a corrupted output")

    def check_traced(self, untraced: list[dict], traced: list[dict]) -> None:
        """Tracing must not change outputs, and the draw contract must hold exactly."""
        if not traced:
            self.errors.append("no traced operation succeeded")
            return
        if untraced and any(op["output"] != untraced[0]["output"] for op in traced):
            self.errors.append("traced output differs from untraced output")
        if self.spec["kind"] == "chain":
            return
        per_op = [self.layer_metrics(op) for op in traced]
        for metric, want in (("quantum.draws_per_round", reference.draws_per_round(self.spec)),
                             ("bandit.pulls_per_round", reference.pulls_per_round(self.spec))):
            seen = sorted({layers[metric] for layers in per_op})
            if seen != [want]:
                self.errors.append(f"{metric} is {seen}, the contract says {want}")

    # --- metrics ----------------------------------------------------------

    def end_to_end(self, ops: list[dict], setup: list[float]) -> dict:
        rounds = rounds_per_op(self.spec)
        return {
            "rounds_per_s": statistics.median(rounds / op["seconds"] for op in ops),
            "peak_rss_mb": statistics.median(op["rss"] for op in ops),
            "setup_s": statistics.median(setup),
        }

    def layer_metrics(self, op: dict) -> dict:
        trace = op["trace"]
        stats = trace["stats"]

        def calls(name):
            return stats.get(name, [0])[0]

        def busy(name):
            return stats[name][1] if name in stats else 0

        def own(name):
            return stats[name][1] - stats[name][2] if name in stats else 0

        def growth(*names):
            return sum(stats[n][3] for n in names if n in stats)

        def per(numerator, denominator, scale=1.0):
            return numerator / denominator / scale if denominator else 0.0

        sim = self.spec["kind"] != "chain"
        rounds = rounds_per_op(self.spec) if sim else 0
        rows = rounds if self.spec["kind"] == "cli" else 0
        draws = calls("quantum.uniform") + trace["block_draws"]
        trials = calls("quantum.stream_new")
        evolve = [s for s in trace["spans"] if s["name"] == "oracle.evolve_distribution"]
        lattice_ns = evolve[0]["end_ns"] - evolve[0]["start_ns"] if evolve else 0
        full_ns = evolve[-1]["end_ns"] - evolve[-1]["start_ns"] if evolve else 0
        return {
            "quantum.streams": trials,
            "quantum.stream_new_us": per(busy("quantum.stream_new"), trials, 1e3),
            "quantum.draws_per_round": per(draws, rounds),
            "quantum.draw_ns": per(busy("quantum.uniform") + busy("quantum.uniforms"), draws),
            "bandit.pulls_per_round": per(calls("bandit.pull"), rounds),
            "bandit.drift_step_us": per(busy("bandit.drift_step"), calls("bandit.drift_step"), 1e3),
            "policies.step_us": per(own("policies.step"), calls("policies.step"), 1e3),
            "harness.trials": trials,
            "harness.self_us_per_round": per(own("harness.run_experiment"), rounds, 1e3),
            "harness.self_us_per_trial": per(own("harness.run_experiment"), trials, 1e3),
            "harness.rss_growth_mb": growth("harness.run_experiment"),
            "cli.parse_ms": busy("cli.parse_args") / 1e6,
            "cli.build_us_per_row": per(busy("cli.build_recordset"), rows, 1e3),
            "cli.emit_us_per_row": per(busy("cli.emit"), rows, 1e3),
            "cli.bytes_per_row": per(op.get("size", 0), rows),
            "cli.rss_growth_mb": growth("cli.parse_args", "cli.build_recordset", "cli.emit"),
            "oracle.lattice_states": self.lattice_states,
            "oracle.lattice_s": lattice_ns / 1e9,
            "oracle.propagate_s": (full_ns - lattice_ns) / 1e9,
            "oracle.rss_growth_mb": growth("oracle.evolve_distribution"),
        }

    def per_layer(self, untraced: list[dict], traced: list[dict]) -> dict:
        per_op = [self.layer_metrics(op) for op in traced]
        metrics = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
        metrics["trace.overhead_s"] = statistics.median(op["seconds"] for op in traced) - \
            statistics.median(op["seconds"] for op in untraced)
        return metrics

    def execute(self) -> dict:
        self.dir.mkdir(parents=True, exist_ok=True)
        try:
            setup = self.setup_times()
            if not self.trace and not setup:
                self.errors.append("no set-up measurement succeeded")
            untraced, traced = self.operations()
            self.check(untraced)
            if self.trace:
                self.check_traced(untraced, traced)
            metrics: dict = {}
            if not self.errors:
                if self.trace:
                    metrics = self.per_layer(untraced, traced)
                    self.write_spans(traced)
                else:
                    metrics = self.end_to_end(untraced, setup)
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)
        units = LAYER_UNITS if self.trace else END_TO_END_UNITS
        return {
            "correct": not self.errors,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }

    def write_spans(self, traced: list[dict]) -> None:
        path = WORK / f"trace-{self.name}-seed{self.seed}.json"
        record = {"environment": environment(self.blas_threads),
                  "operations": [op["trace"] for op in traced]}
        path.write_text(json.dumps(record))


def git_commit() -> str | None:
    """The checked-out commit, read from .git inside the repository only."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(blas_threads: int | None) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu_model(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "commit": git_commit(),
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(name, seed, seconds, trace)
    result = run.execute()
    env = environment(run.blas_threads)
    print(f"workload {name} seed {seed}: {result['attempted']} operations attempted, "
          f"{result['failed']} failed, outputs {'correct' if result['correct'] else 'WRONG'}")
    for failure in run.failures:
        print(f"  failed: {failure}", file=sys.stderr)
    for error in run.errors:
        print(f"  error: {error}", file=sys.stderr)
    print(f"  environment: {json.dumps(env)}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qubit_bandit" / "__init__.py").is_file():
        print(f"error: no qubit_bandit package under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_one(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
