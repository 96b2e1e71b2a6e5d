"""Byte-for-byte checks of CLI output against committed golden files.

The files under tests/golden/ were written by the CLI before its emitter
was rewritten to stream rows; any change to an emitted byte fails here.
Each learning case runs in both formats. Horizons stay in the tens of
rounds so the files stay small. The qrng subcommand's bit file and its
stdout battery lines have a golden file each. The JSON emitter is also checked against json.dumps of
the head dict plus per-row dicts.
"""

import io
import json
from pathlib import Path

import pytest

from qubit_bandit.cli import _round12, build_recordset, emit, main
from qubit_bandit.harness import ExperimentConfig, Scenario, run_experiment

GOLDEN = Path(__file__).parent / "golden"

_SINGLE = ["single", "--c", "0.05", "--p1", "0.7", "--p2", "0.4", "--seed", "11"]
_COOP = ["coop", "--c", "0.1", "--p1", "0.7", "--p2", "0.3", "--seed", "12"]
_GHZ = ["ghz", "--n", "5", "--constants", "0.08,0.04,0.02", "--p1", "0.7", "--p2", "0.3"]
_DUO = ["duo-conflict", "--p1", "0.6", "--p2", "0.3", "--p-first", "0.4", "--seed", "14"]
_RUN = ["--horizon", "30", "--trials", "2"]
_DRIFT = ["--drift-step", "0.01"]

CASES = {
    "single": _SINGLE + _RUN,
    "single-drift": _SINGLE + _RUN + _DRIFT,
    "coop": _COOP + _RUN,
    "coop-drift": _COOP + _RUN + _DRIFT,
    "ghz": _GHZ + _RUN + ["--seed", "13"],
    "ghz-drift": _GHZ + _RUN + _DRIFT + ["--seed", "13"],
    "duo-conflict": _DUO + _RUN,
    "duo-conflict-drift": _DUO + _RUN + _DRIFT,
    # c = 0.5 from p0 = 0.5 hits both clamps: CSV writes 0 and 1, JSON 0.0 and 1.0
    "clamps": ["single", "--c", "0.5", "--horizon", "20", "--trials", "2", "--seed", "3"],
    # numbers below 1e-4 take the exponent form in both formats
    "small-c": ["single", "--c", "1e-05", "--p1", "0.8", "--p2", "0.2", "--horizon", "10"],
    # the first row keeps the sign of -0.0; later rows carry a positive zero
    "signed-zero": ["single", "--c", "0.1", "--p0", "-0.0", "--horizon", "10", "--seed", "5"],
}

FORMATS = ("csv", "json")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden_bytes(case, fmt, tmp_path):
    out = tmp_path / f"{case}.{fmt}"
    assert main(CASES[case] + ["--format", fmt, "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{case}.{fmt}").read_bytes()


@pytest.mark.parametrize("fmt", FORMATS)
def test_stdout_output_matches_golden_bytes(fmt, capsys):
    assert main(CASES["ghz-drift"] + ["--format", fmt]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"ghz-drift.{fmt}").read_bytes()


def test_qrng_output_and_battery_match_golden_bytes(tmp_path, capsys):
    # 1,001 bits: enough for both battery tests, with a trailing odd bit
    out = tmp_path / "qrng.txt"
    assert main(["qrng", "--count", "1001", "--p0", "0.3", "--seed", "5", "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "qrng.txt").read_bytes()
    assert capsys.readouterr().out.encode() == (GOLDEN / "qrng-battery.txt").read_bytes()


def _reference_payload(head, trajectories):
    """The emitted JSON document as a dict, built the way json.dumps would see it."""
    steps = [
        {
            "trial": trajectory.trial,
            "step": r.step,
            "p0_before": _round12(r.p0_before),
            "measured_bit": r.measured_bit,
            "chosen_machine": list(r.machines),
            "reward": list(r.rewards),
            "update_direction": "none" if r.update_direction is None else r.update_direction.value,
            "update_magnitude": _round12(r.update_magnitude),
            "p0_after": _round12(r.p0_after),
        }
        for trajectory in trajectories
        for r in trajectory.records
    ]
    return {**head, "steps": steps}


# at horizon 4,097 emit formats each trial as two blocks, the second from step 4,096
@pytest.mark.parametrize(
    "scenario,trials,horizon",
    [
        (Scenario.SINGLE_AGENT, 3, 4),
        (Scenario.DUO_CONFLICT, 2, 4),
        (Scenario.SINGLE_AGENT, 2, 4_097),
    ],
    ids=["single", "duo", "single-two-blocks"],
)
def test_json_rows_equal_json_dumps_of_the_row_dicts(scenario, trials, horizon):
    config = ExperimentConfig(scenario=scenario, c=0.3, horizon=horizon, trials=trials, seed=2)
    trajectories, metrics = run_experiment(config)
    buffer = io.StringIO()
    emit(config, "json", buffer)
    payload = _reference_payload(build_recordset(config, metrics), trajectories)
    assert buffer.getvalue() == json.dumps(payload, indent=2) + "\n"
