"""Tests for the command-line front end: parsing, emission, exit codes."""

import io
import json
import tracemalloc

import numpy as np
import pytest

from qubit_bandit import cli, harness
from qubit_bandit.cli import (
    _CSV_HEADER,
    _ROWS_PER_WRITE,
    OUTPUT_DIR_ENV,
    config_from_metadata,
    config_to_dict,
    emit,
    main,
    parse_args,
    read_csv_metadata,
)
from qubit_bandit.harness import ConfigError, ExperimentConfig, Scenario, run_experiment

# config floats whose 12-digit text reads back as a different float
_LONG_DECIMALS = [
    "single",
    "--c",
    "0.0123456789012345",
    "--p1",
    "0.712345678901234",
    "--p0",
    "0.30000000000000004",
    "--horizon",
    "3",
    "--seed",
    "2",
]


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _with_file(tmp_path, argv, file_text):
    """argv plus --config naming a file that holds file_text (None: no file)."""
    if file_text is None:
        return argv
    path = tmp_path / "run.cfg"
    path.write_text(file_text)
    return argv + ["--config", str(path)]


# ---------------------------------------------------------------------------
# argument parsing


def test_parse_single_with_defaults():
    config = parse_args(["single", "--c", "0.1"])[0]
    assert config.scenario is Scenario.SINGLE_AGENT
    assert config.c == 0.1
    assert config.p1 == 0.5 and config.p2 == 0.5
    assert config.horizon == 1000
    assert config.trials == 1
    assert config.seed == 0
    assert config.drift_step == 0.0


def test_parse_ghz_constants_list():
    config = parse_args(["ghz", "--n", "5", "--constants", "0.1, 0.05, 0.01"])[0]
    assert config.scenario is Scenario.GHZ
    assert config.n_users == 5
    assert config.constants == (0.1, 0.05, 0.01)


def test_parse_duo_bias_flag():
    config = parse_args(["duo-conflict", "--p-first", "0.75"])[0]
    assert config.p_first == 0.75


def test_parse_reports_missing_required_values():
    with pytest.raises(ConfigError, match="^c: required"):
        parse_args(["single"])
    with pytest.raises(ConfigError, match="^count: required"):
        parse_args(["qrng"])
    with pytest.raises(ConfigError, match="^constants: required"):
        parse_args(["ghz", "--n", "3"])


def test_parse_rejects_malformed_constants():
    with pytest.raises(ConfigError, match="constants"):
        parse_args(["ghz", "--n", "3", "--constants", "0.1,abc"])
    with pytest.raises(ConfigError, match="^constants:"):
        parse_args(["ghz", "--n", "5", "--constants", "0.1,0.05"])


def test_parse_validates_through_experiment_config():
    with pytest.raises(ConfigError, match="^p1:"):
        parse_args(["single", "--c", "0.1", "--p1", "1.5"])


def test_parse_emit_options():
    _, options = parse_args(["single", "--c", "0.1", "--format", "json", "--output", "x.json"])
    assert options.format == "json"
    assert options.output == "x.json"
    _, options = parse_args(["single", "--c", "0.1"])
    assert options.format == "csv"
    assert options.output is None


# ---------------------------------------------------------------------------
# config files


def test_config_file_supplies_values_and_flags_win(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# a comment line\n"
        "p1 = 0.9\n"
        "p2=0.1\n"
        "\n"
        "horizon=50  # trailing comment\n"
        "drift-step=0.01\n"
        "c=0.2\n"
    )
    config = parse_args(["single", "--config", str(path), "--p1", "0.7"])[0]
    assert config.p1 == 0.7  # flag beats file
    assert config.p2 == 0.1  # file beats default
    assert config.horizon == 50
    assert config.drift_step == 0.01
    assert config.c == 0.2
    assert config.trials == 1  # untouched default


def test_config_file_can_satisfy_required_keys(tmp_path):
    path = tmp_path / "ghz.cfg"
    path.write_text("n=3\nconstants=0.1,0.05\n")
    config = parse_args(["ghz", "--config", str(path)])[0]
    assert config.n_users == 3
    assert config.constants == (0.1, 0.05)


def test_config_file_unknown_key_is_an_error(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("warp_speed=9\n")
    with pytest.raises(ConfigError, match="unknown key 'warp_speed'"):
        parse_args(["single", "--c", "0.1", "--config", str(path)])


def test_config_file_malformed_line_is_an_error(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("just some words\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_args(["single", "--c", "0.1", "--config", str(path)])


def test_config_file_missing_is_an_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        parse_args(["single", "--c", "0.1", "--config", str(tmp_path / "absent.cfg")])


def test_config_file_that_is_not_text_is_one_error_line(capsys, tmp_path):
    path = tmp_path / "bad.conf"
    path.write_bytes(b"\xff\xfehorizon=5\n")
    code, out, err = _run(capsys, ["single", "--c", "0.1", "--config", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: config: cannot read {path}: ")
    assert err.count("\n") == 1


def test_config_file_bad_value_type_is_an_error(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("horizon=soon\n")
    with pytest.raises(ConfigError, match="invalid value for 'horizon'"):
        parse_args(["single", "--c", "0.1", "--config", str(path)])


# one value per config key, none of them a default
_EVERY_KEY = {
    "p1": "0.7",
    "p2": "0.3",
    "p0": "0.4",
    "horizon": "7",
    "count": "9",
    "trials": "2",
    "seed": "11",
    "drift_step": "0.01",
    "window": "0.5",
    "c": "0.05",
    "p_first": "0.6",
    "n": "3",
    "constants": "0.1,0.05",
    "format": "json",
    "output": "out.json",
}
_BANDIT_KEYS = ["p1", "p2", "p0", "horizon", "trials", "seed", "drift_step", "window"]
_COMMAND_KEYS = {
    "qrng": ["p0", "count", "seed", "output"],
    "single": _BANDIT_KEYS + ["c", "format", "output"],
    "duo-conflict": _BANDIT_KEYS + ["p_first", "format", "output"],
    "coop": _BANDIT_KEYS + ["c", "format", "output"],
    "ghz": _BANDIT_KEYS + ["n", "constants", "format", "output"],
}


@pytest.mark.parametrize("spelling", ["_", "-"], ids=["underscores", "dashes"])
@pytest.mark.parametrize("command", list(_COMMAND_KEYS))
def test_config_file_takes_every_flag(tmp_path, command, spelling):
    argv = [command]
    for key in _COMMAND_KEYS[command]:
        argv += ["--" + key.replace("_", "-"), _EVERY_KEY[key]]
    # the file also holds the keys only other subcommands take; they are ignored
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{k.replace('_', spelling)} = {v}\n" for k, v in _EVERY_KEY.items()))
    assert parse_args([command, "--config", str(path)]) == parse_args(argv)


# ---------------------------------------------------------------------------
# exit codes and error lines


def test_main_success_exit_code(capsys):
    code, out, err = _run(capsys, ["single", "--c", "0.1", "--horizon", "5"])
    assert code == 0
    assert err == ""
    assert out.startswith("# tool=qubit-bandit")


def test_main_parse_errors_exit_2_with_single_line(capsys):
    code, out, err = _run(capsys, ["single"])
    assert code == 2
    assert out == ""
    assert err.endswith("\n") and err.count("\n") == 1
    assert err.startswith("error: c: required")


@pytest.mark.parametrize(
    "argv",
    [
        ["single", "--c", "inf"],
        ["single", "--c", "nan"],
        ["coop", "--c", "inf"],
        ["ghz", "--n", "5", "--constants", "inf,0.04,0.02"],
        ["single", "--c", "2"],
        ["coop", "--c", "1.5"],
        ["ghz", "--n", "3", "--constants", "3,2"],
    ],
    ids=[
        "single-c-inf",
        "single-c-nan",
        "coop-c-inf",
        "ghz-constants-inf",
        "single-c-2",
        "coop-c-1.5",
        "ghz-constants-3-2",
    ],
)
def test_main_rejects_non_finite_increments(capsys, argv):
    code, out, err = _run(capsys, argv + ["--horizon", "3"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: c") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,file_text,line",
    [
        (["qrng"], None, "count: required for 'qrng'"),
        (["single"], None, "c: required for 'single'"),
        (["coop"], None, "c: required for 'coop'"),
        (["ghz", "--constants", "0.1"], None, "n: required for 'ghz'"),
        (["ghz", "--n", "3"], None, "constants: required for 'ghz'"),
        (
            ["single", "--c", "0.1", "--format", "xml"],
            None,
            "argument --format: invalid choice: 'xml' (choose from 'csv', 'json')",
        ),
        (["single", "--c", "0.1"], "format=xml\n", "format: must be 'csv' or 'json', got 'xml'"),
        # window resolves before c, so its bad value is reported first
        (["single"], "window=wide\n", "config: invalid value for 'window': 'wide'"),
        # constants parse before format is checked
        (
            ["ghz", "--n", "3"],
            "constants=abc\nformat=xml\n",
            "constants: expected comma-separated floats, got 'abc'",
        ),
        # flags parse before the file is read
        (
            ["single", "--c", "0.1", "--horizon", "abc"],
            "p1=high\n",
            "argument --horizon: invalid int value: 'abc'",
        ),
        (["single", "--c", "0.1"], "config=other.cfg\n", "config: unknown key 'config'"),
        (["single", "--c", "0.1"], "warp_speed=9\n", "config: unknown key 'warp_speed'"),
        (
            ["ghz", "--n", "1", "--constants", "0.1"],
            None,
            "n: must be an integer >= 2, got 1",
        ),
        (["qrng", "--count", "0"], None, "count: must be an integer >= 1, got 0"),
        (["single", "--c", "0.1", "--p0", "nan"], None, "p0: must be in [0, 1], got nan"),
        (["single", "--c", "0.1"], "p0=nan\n", "p0: must be in [0, 1], got nan"),
        # no flag is matched by a prefix: duo-conflict has no c flag, so --c
        # must not read as --config
        (
            ["duo-conflict", "--c", "0.1", "--horizon", "2"],
            None,
            "unrecognized arguments: --c 0.1",
        ),
        (
            ["single", "--c", "0.1", "--hor", "2", "--dri", "0.1", "--se", "3"],
            None,
            "unrecognized arguments: --hor 2 --dri 0.1 --se 3",
        ),
        (["qrng", "--p", "0.3"], None, "unrecognized arguments: --p 0.3"),
        # an empty item is refused, not dropped
        (
            ["ghz", "--n", "3", "--constants", "0.1,,0.05"],
            None,
            "constants: expected comma-separated floats, got '0.1,,0.05'",
        ),
        (
            ["ghz", "--n", "3"],
            "constants=0.1,0.05,\n",
            "constants: expected comma-separated floats, got '0.1,0.05,'",
        ),
        # a key may appear once, whichever spelling it takes
        (["single"], "c=0.1\nc=0.2\n", "config: line 2: duplicate key 'c'"),
        (
            ["single", "--c", "0.1"],
            "drift-step=0.1\n\ndrift_step=0.2\n",
            "config: line 3: duplicate key 'drift_step'",
        ),
    ],
    ids=[
        "qrng-missing-count",
        "single-missing-c",
        "coop-missing-c",
        "ghz-missing-n",
        "ghz-missing-constants",
        "format-flag-xml",
        "format-file-xml",
        "bad-file-value-and-missing-c",
        "bad-constants-and-bad-format",
        "bad-flag-value-and-bad-file-value",
        "config-key-in-file",
        "unknown-key",
        "ghz-n-1",
        "qrng-count-0",
        "p0-nan-flag",
        "p0-nan-file",
        "abbreviated-flag-on-duo",
        "abbreviated-flags-on-single",
        "abbreviated-flag-on-qrng",
        "empty-constant-flag",
        "empty-constant-file",
        "duplicate-key",
        "duplicate-key-both-spellings",
    ],
)
def test_main_error_lines(capsys, tmp_path, argv, file_text, line):
    assert _run(capsys, _with_file(tmp_path, argv, file_text)) == (2, "", f"error: {line}\n")


def test_main_unknown_flag_exits_2(capsys):
    code, _, err = _run(capsys, ["single", "--c", "0.1", "--warp", "9"])
    assert code == 2
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_main_unknown_command_exits_2(capsys):
    code, _, err = _run(capsys, ["teleport"])
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv,file_text",
    [
        (["single", "--c", "0.1", "--horizon", "5", "--output", ""], None),
        (["single", "--c", "0.1", "--horizon", "5"], "output =\n"),
        (["qrng", "--count", "8", "--output", ""], None),
    ],
    ids=["flag", "file", "qrng"],
)
def test_main_refuses_an_empty_output_before_running(capsys, tmp_path, argv, file_text):
    expected = (2, "", "error: output: expected a file path, got ''\n")
    assert _run(capsys, _with_file(tmp_path, argv, file_text)) == expected


def test_main_runtime_failure_exits_1(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, _, err = _run(
        capsys,
        ["single", "--c", "0.1", "--horizon", "5", "--output", str(blocker / "out.csv")],
    )
    assert code == 1
    assert err.startswith("error:")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [["single", "--c", "0.05", "--horizon", "50"], ["qrng", "--count", "50"]],
    ids=["single", "qrng"],
)
def test_main_refuses_a_directory_output_before_playing(capsys, tmp_path, monkeypatch, argv):
    built = []  # one entry per stream constructed

    class CountingStream(harness.RandomStream):
        def __init__(self, *args, **kwargs):
            built.append(None)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(harness, "RandomStream", CountingStream)
    monkeypatch.setattr(cli, "RandomStream", CountingStream)
    code, out, err = _run(capsys, argv + ["--output", str(tmp_path)])
    assert (code, out, len(built)) == (1, "", 0)
    assert err.startswith("error:")
    assert err.count("\n") == 1
    # the same run to a file plays its one stream
    assert _run(capsys, argv + ["--output", str(tmp_path / "out")])[0] == 0
    assert len(built) == 1


def _traced_peak(argv):
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_main_peak_memory_is_bounded_by_one_trial(tmp_path, fmt):
    argv = ["single", "--c", "0.01", "--p1", "0.8", "--p2", "0.2", "--seed", "3"]
    argv += ["--format", fmt, "--output", str(tmp_path / f"out.{fmt}")]
    main(argv + ["--horizon", "5"])  # fills the update-table memo outside the measurement
    one = _traced_peak(argv + ["--horizon", "20000", "--trials", "1"])
    eight = _traced_peak(argv + ["--horizon", "20000", "--trials", "8"])
    assert eight <= 1.3 * one


# ---------------------------------------------------------------------------
# csv output


def test_csv_output_shape(capsys):
    code, out, _ = _run(
        capsys,
        ["single", "--c", "0.1", "--horizon", "5", "--trials", "2", "--seed", "7"],
    )
    assert code == 0
    lines = out.splitlines()
    meta = [l for l in lines if l.startswith("#")]
    data = [l for l in lines if not l.startswith("#")]
    assert "# tool=qubit-bandit" in meta
    assert "# scenario=single" in meta
    assert "# seed=7" in meta
    assert any(l.startswith("# version=") for l in meta)
    assert any(l.startswith("# metric:n_trials=2") for l in meta)

    assert data[0] == _CSV_HEADER
    rows = data[1:]
    assert len(rows) == 10  # 2 trials x 5 steps, trial-major
    for row in rows:
        assert len(row.split(",")) == 9
    first = rows[0].split(",")
    assert first[0] == "0" and first[1] == "0"
    assert first[2] == "0.5"
    assert first[6] in ("toward0", "toward1")
    trials_seen = [row.split(",")[0] for row in rows]
    assert trials_seen == ["0"] * 5 + ["1"] * 5


def test_csv_multi_user_fields_are_pipe_joined(capsys):
    _, out, _ = _run(capsys, ["duo-conflict", "--horizon", "3", "--seed", "1"])
    row = [l for l in out.splitlines() if not l.startswith("#")][1].split(",")
    machines, rewards = row[4], row[5]
    assert sorted(machines.split("|")) == ["0", "1"]
    assert set(rewards.split("|")) <= {"0", "1"}
    assert row[6] == "none"


def test_csv_reruns_are_byte_identical(capsys, tmp_path):
    argv = ["coop", "--c", "0.05", "--horizon", "20", "--trials", "3", "--seed", "11"]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second

    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--output", str(out_a)]) == 0
    assert main(argv + ["--output", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    capsys.readouterr()


def test_csv_metadata_replays_the_exact_run(capsys):
    argv = [
        "ghz",
        "--n",
        "3",
        "--constants",
        "0.1,0.05",
        "--horizon",
        "4",
        "--trials",
        "2",
        "--seed",
        "13",
    ]
    _, out, _ = _run(capsys, argv)
    replayed = config_from_metadata(read_csv_metadata(out.splitlines()))
    assert replayed == parse_args(argv)[0]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ["single", "--c", "0.05", "--p1", "0.7", "--p2", "0.4"],
        ["duo-conflict", "--p-first", "0.3", "--p1", "0.6", "--p0", "0.45"],
        ["coop", "--c", "0.1", "--p2", "0.35"],
        ["ghz", "--n", "5", "--constants", "0.08,0.04,0.02"],
    ],
    ids=["single", "duo-conflict", "coop", "ghz"],
)
def test_metadata_replays_every_scenario_with_drift(capsys, argv, fmt):
    argv = argv + ["--horizon", "6", "--trials", "2", "--seed", "5"]
    argv += ["--drift-step", "0.02", "--window", "0.5"]
    code, out, _ = _run(capsys, argv + ["--format", fmt])
    assert code == 0
    if fmt == "csv":
        metadata = read_csv_metadata(out.splitlines())
    else:
        metadata = json.loads(out)["metadata"]["config"]
    assert config_from_metadata(metadata) == parse_args(argv)[0]


def test_csv_metadata_replays_long_decimals_exactly(capsys):
    _, out, _ = _run(capsys, _LONG_DECIMALS)
    assert "# c=0.0123456789012345" in out.splitlines()
    replayed = config_from_metadata(read_csv_metadata(out.splitlines()))
    assert replayed == parse_args(_LONG_DECIMALS)[0]


def test_numpy_config_values_emit_the_same_bytes():
    plain = ExperimentConfig(
        scenario=Scenario.SINGLE_AGENT, p1=0.8, p2=0.2, c=0.25, horizon=200, trials=2, seed=4
    )
    numpy_valued = ExperimentConfig(
        scenario=Scenario.SINGLE_AGENT,
        p1=np.float64(0.8),
        p2=0.2,
        c=np.float32(0.25),
        horizon=np.int64(200),
        trials=np.int64(2),
        seed=np.int64(4),
    )
    for fmt in ("csv", "json"):
        texts = []
        for config in (plain, numpy_valued):
            buffer = io.StringIO()
            emit(config, fmt, buffer)
            texts.append(buffer.getvalue())
        assert texts[0] == texts[1]


def test_csv_numbers_use_twelve_significant_digits(capsys):
    _, out, _ = _run(
        capsys,
        ["single", "--c", "0.123456789012345", "--p0", "0.1", "--horizon", "1", "--seed", "0"],
    )
    row = [l for l in out.splitlines() if not l.startswith("#")][1].split(",")
    assert row[7] == "0.123456789012"
    assert row[8] in ("0.223456789012", "0")  # shifted up or clamped down to 0


# ---------------------------------------------------------------------------
# json output


def test_json_output_round_trips(capsys):
    argv = [
        "single",
        "--c",
        "0.1",
        "--horizon",
        "5",
        "--trials",
        "2",
        "--seed",
        "7",
        "--format",
        "json",
    ]
    _, out, _ = _run(capsys, argv)
    payload = json.loads(out)
    assert payload["metadata"]["tool"] == "qubit-bandit"
    assert payload["metrics"]["n_trials"] == 2
    assert len(payload["steps"]) == 10
    step = payload["steps"][0]
    assert step["chosen_machine"] in ([0], [1])
    assert step["update_direction"] in ("toward0", "toward1")

    replayed = config_from_metadata(payload["metadata"]["config"])
    assert replayed == parse_args(argv[: -2])[0]

    _, long_out, _ = _run(capsys, _LONG_DECIMALS + ["--format", "json"])
    long_config = json.loads(long_out)["metadata"]["config"]
    assert config_from_metadata(long_config) == parse_args(_LONG_DECIMALS)[0]

    _, again, _ = _run(capsys, argv)
    assert out == again


@pytest.mark.parametrize("key,value", [("horizon", True), ("constants", [True, 0.25])])
def test_json_metadata_bools_fail_validation(key, value):
    ghz = ExperimentConfig(scenario=Scenario.GHZ, n_users=3, constants=(0.5, 0.25), horizon=3)
    metadata = json.loads(json.dumps(config_to_dict(ghz)))
    metadata[key] = value
    with pytest.raises(ConfigError, match=rf"^{key}:"):
        config_from_metadata(metadata).validate()


@pytest.mark.parametrize("constants", [0.1, 5, True])
def test_constants_that_are_not_a_sequence_name_their_field(constants):
    with pytest.raises(ConfigError, match="^constants: "):
        ExperimentConfig(scenario=Scenario.GHZ, n_users=3, constants=constants).validate()
    ghz = ExperimentConfig(scenario=Scenario.GHZ, n_users=3, constants=(0.5, 0.25), horizon=3)
    metadata = json.loads(json.dumps(config_to_dict(ghz)))
    metadata["constants"] = constants
    with pytest.raises(ConfigError, match="^constants: "):
        config_from_metadata(metadata).validate()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "settings_,field,bad,good",
    [
        (dict(scenario=Scenario.SINGLE_AGENT, c=0.1), "n_users", True, 3),
        (dict(scenario=Scenario.SINGLE_AGENT, c=0.1), "constants", ("abc",), (0.3, 0.1)),
        (dict(scenario=Scenario.GHZ, n_users=3, constants=(0.1, 0.05)), "c", "abc", 0.2),
        (dict(scenario=Scenario.DUO_CONFLICT), "c", True, 0.5),
    ],
    ids=["single-n_users", "single-constants", "ghz-c", "duo-c"],
)
def test_a_field_the_scenario_does_not_use_validates_and_replays(settings_, field, bad, good, fmt):
    # junk there would pass validate() and then fail the run's own replay
    with pytest.raises(ConfigError, match=f"^{field}: "):
        ExperimentConfig(horizon=3, **settings_, **{field: bad}).validate()
    config = ExperimentConfig(horizon=3, trials=2, **settings_, **{field: good})
    buffer = io.StringIO()
    emit(config, fmt, buffer)
    if fmt == "csv":
        metadata = read_csv_metadata(buffer.getvalue().splitlines())
    else:
        metadata = json.loads(buffer.getvalue())["metadata"]["config"]
    assert config_from_metadata(metadata) == config


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("key", ["scenario", "constants", "p1", "seed", "window"])
def test_metadata_missing_a_field_names_it(capsys, key, fmt):
    argv = ["single", "--c", "0.1", "--horizon", "2", "--format", fmt]
    _, out, _ = _run(capsys, argv)
    if fmt == "csv":
        metadata = read_csv_metadata(out.splitlines())
    else:
        metadata = json.loads(out)["metadata"]["config"]
    del metadata[key]
    with pytest.raises(ConfigError, match=f"^{key}: missing from the metadata$"):
        config_from_metadata(metadata)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "key,text,native",
    [("scenario", "bogus", "bogus"), ("p1", "abc", "abc"), ("horizon", "1.5", 1.5)],
    ids=["scenario", "p1", "horizon"],
)
def test_metadata_with_a_bad_value_names_its_field(capsys, key, text, native, fmt):
    # a CSV value is text, cast per field; a JSON value is as the file holds it
    argv = ["single", "--c", "0.1", "--horizon", "2", "--format", fmt]
    _, out, _ = _run(capsys, argv)
    if fmt == "csv":
        metadata = read_csv_metadata(out.splitlines())
        metadata[key] = text
    else:
        metadata = json.loads(out)["metadata"]["config"]
        metadata[key] = native
    with pytest.raises(ConfigError, match=f"^{key}: "):
        config_from_metadata(metadata).validate()


def test_json_and_csv_agree_on_metrics(capsys):
    argv = ["single", "--c", "0.1", "--horizon", "10", "--seed", "3"]
    _, csv_text, _ = _run(capsys, argv)
    _, json_text, _ = _run(capsys, argv + ["--format", "json"])
    payload = json.loads(json_text)
    metric_lines = {
        line[len("# metric:") :].split("=", 1)[0]: line.split("=", 1)[1]
        for line in csv_text.splitlines()
        if line.startswith("# metric:")
    }
    assert metric_lines["mean_regret"] == f"{payload['metrics']['mean_regret']:.12g}"
    assert int(metric_lines["n_trials"]) == payload["metrics"]["n_trials"]


def test_emit_rejects_unknown_format():
    config = parse_args(["single", "--c", "0.1"])[0]
    with pytest.raises(ValueError):
        emit(config, "xml", io.StringIO())


def test_config_to_dict_masks_unused_fields():
    config = parse_args(["single", "--c", "0.1"])[0]
    as_dict = config_to_dict(config)
    assert as_dict["constants"] is None
    assert as_dict["n_users"] is None
    assert as_dict["scenario"] == "single"


class _WriteLog:
    """A text handle that keeps each write separately."""

    def __init__(self) -> None:
        self.writes: list[str] = []

    def write(self, text: str) -> None:
        self.writes.append(text)


@pytest.mark.parametrize("fmt,row_mark", [("csv", "\n"), ("json", '"trial": ')])
def test_emit_writes_rows_in_bounded_slices(fmt, row_mark):
    config = ExperimentConfig(
        scenario=Scenario.GHZ, n_users=3, constants=(0.1, 0.05), horizon=3000, trials=2, seed=4
    )
    trajectories, metrics = run_experiment(config)
    formatter = cli._TEXTS[fmt]()
    slices = [chunk for t in trajectories for chunk in formatter.rows(t)]
    # rows in each slice
    rows = [text.count(row_mark) for text in slices]
    assert sum(rows) == 6000
    assert max(rows) <= _ROWS_PER_WRITE
    # each trial fills every slice but its last
    assert rows.count(_ROWS_PER_WRITE) == 2 * (3000 // _ROWS_PER_WRITE)
    # emit's output is the head, the slices in order, and the tail
    log = _WriteLog()
    emit(config, fmt, log)
    text = "".join(log.writes)
    head = formatter.head(cli.build_recordset(config, metrics))
    assert text == head + "".join(slices) + formatter.tail()
    # the slices join into every round, in order, with its rewards
    if fmt == "json":
        got = [(s["trial"], s["step"], s["reward"]) for s in json.loads(text)["steps"]]
    else:
        fields = [line.split(",") for line in text.splitlines()[-6000:]]
        got = [(int(f[0]), int(f[1]), [int(r) for r in f[5].split("|")]) for f in fields]
    assert got == [(t.trial, r.step, list(r.rewards)) for t in trajectories for r in t.records]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "config,message",
    [
        (ExperimentConfig(scenario=Scenario.SINGLE_AGENT), "c: required for scenario 'single'"),
        (
            ExperimentConfig(scenario=Scenario.QRNG),
            "scenario: qrng plays no machine; sample_bits draws its bits",
        ),
    ],
    ids=["single-without-c", "qrng"],
)
def test_emit_refuses_a_bad_config_before_writing(config, message, fmt):
    log = _WriteLog()
    with pytest.raises(ConfigError, match=f"^{message}$"):
        emit(config, fmt, log)
    assert log.writes == []


@pytest.mark.parametrize("to_file", [True, False], ids=["output", "stdout"])
def test_main_stages_rows_beside_the_output(capsys, tmp_path, monkeypatch, to_file):
    dirs = []
    temporary_file = cli.tempfile.TemporaryFile

    def spy(*args, **kwargs):
        dirs.append(kwargs.get("dir"))
        return temporary_file(*args, **kwargs)

    monkeypatch.setattr(cli.tempfile, "TemporaryFile", spy)
    argv = ["single", "--c", "0.1", "--horizon", "5", "--trials", "2"]
    if to_file:
        argv += ["--output", str(tmp_path / "sub" / "out.csv")]
    assert _run(capsys, argv)[0] == 0
    assert dirs == [tmp_path / "sub" if to_file else None]


# ---------------------------------------------------------------------------
# qrng subcommand


def test_qrng_emits_bits_and_battery(capsys):
    code, out, err = _run(capsys, ["qrng", "--count", "2000", "--seed", "3"])
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    bits = lines[0]
    assert len(bits) == 2000
    assert set(bits) <= {"0", "1"}
    assert lines[1].startswith("# bits=2000 zeros=")
    assert any(l.startswith("# frequency statistic=") and l.endswith("result=pass") for l in lines)
    assert any(l.startswith("# chi_square_pairs statistic=") for l in lines)


def test_qrng_reruns_are_identical(capsys):
    _, first, _ = _run(capsys, ["qrng", "--count", "500", "--seed", "9"])
    _, second, _ = _run(capsys, ["qrng", "--count", "500", "--seed", "9"])
    assert first == second


def test_qrng_biased_source_fails_the_frequency_test(capsys):
    _, out, _ = _run(capsys, ["qrng", "--count", "2000", "--p0", "0.9", "--seed", "3"])
    freq_line = next(l for l in out.splitlines() if l.startswith("# frequency"))
    assert freq_line.endswith("result=fail")


def test_qrng_short_streams_skip_tests_but_still_emit_bits(capsys):
    _, out, _ = _run(capsys, ["qrng", "--count", "500", "--seed", "4"])
    lines = out.splitlines()
    assert len(lines[0]) == 500
    assert any(l.startswith("# frequency") for l in lines)
    assert any("sequence too short" in l for l in lines)  # pairs test needs 1000

    _, out, _ = _run(capsys, ["qrng", "--count", "50", "--seed", "4"])
    skips = [l for l in out.splitlines() if "sequence too short" in l]
    assert len(skips) == 2


def test_qrng_writes_bits_to_file_battery_to_stdout(capsys, tmp_path):
    target = tmp_path / "bits.txt"
    code, out, _ = _run(capsys, ["qrng", "--count", "300", "--seed", "5", "--output", str(target)])
    assert code == 0
    assert target.read_text().strip() == _bits_only(capsys, ["qrng", "--count", "300", "--seed", "5"])
    assert out.splitlines()[0].startswith("# bits=300")


def _bits_only(capsys, argv):
    main(argv)
    return capsys.readouterr().out.splitlines()[0]


# ---------------------------------------------------------------------------
# output destinations


def test_relative_output_resolves_under_env_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
    code = main(["single", "--c", "0.1", "--horizon", "5", "--output", "runs/out.csv"])
    capsys.readouterr()
    assert code == 0
    target = tmp_path / "runs" / "out.csv"
    assert target.exists()
    assert target.read_text().startswith("# tool=qubit-bandit")


def test_absolute_output_ignores_env_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "elsewhere"))
    target = tmp_path / "direct.csv"
    code = main(["single", "--c", "0.1", "--horizon", "5", "--output", str(target)])
    capsys.readouterr()
    assert code == 0
    assert target.exists()
    assert not (tmp_path / "elsewhere").exists()


def test_output_without_env_dir_is_cwd_relative(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    code = main(["single", "--c", "0.1", "--horizon", "5", "--output", "local.csv"])
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "local.csv").exists()
