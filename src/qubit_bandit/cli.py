"""Command-line front end.

One binary, five subcommands: qrng (raw bits plus a statistics battery),
single, duo-conflict, coop, and ghz (full experiment runs emitted as CSV or
JSON). Flags override config-file values; every emitted file carries enough
metadata to replay the run exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass
from itertools import islice
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from ._version import __version__
from .harness import (
    ConfigError,
    ExperimentConfig,
    Metrics,
    Scenario,
    Trajectory,
    chi_square_pairs_test,
    frequency_test,
    run_experiment,
)
from .quantum import Direction, RandomStream, sample_bits

__all__ = [
    "OUTPUT_DIR_ENV",
    "EmitOptions",
    "OutputRecordSet",
    "parse_config",
    "parse_args",
    "config_to_dict",
    "config_from_metadata",
    "read_csv_metadata",
    "build_recordset",
    "emit",
    "main",
]

OUTPUT_DIR_ENV = "QUBIT_BANDIT_OUTPUT_DIR"

_CSV_HEADER = (
    "trial,step,p0_before,measured_bit,chosen_machine,reward,"
    "update_direction,update_magnitude,p0_after"
)

# rows per write after the header: bounds the text emit holds at once
_ROWS_PER_WRITE = 512

# how config-file values parse, keyed by normalized flag name
_FILE_TYPES = {
    "p1": float,
    "p2": float,
    "p0": float,
    "p_first": float,
    "drift_step": float,
    "window": float,
    "c": float,
    "horizon": int,
    "trials": int,
    "seed": int,
    "n": int,
    "count": int,
    "constants": str,
    "format": str,
    "output": str,
}


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so errors stay single-line."""

    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        raise ConfigError(message)


@dataclass(frozen=True)
class EmitOptions:
    format: str
    output: str | None


@dataclass(frozen=True)
class OutputRecordSet:
    """Everything one run emits: replayable metadata, the trajectories whose
    rounds become the rows, summary metrics."""

    metadata: dict
    trajectories: tuple[Trajectory, ...]
    metrics: dict | None


def _round12(value: float) -> float:
    """Round to 12 significant digits, the precision every emitted number gets."""
    return float(f"{value:.12g}")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="qubit-bandit",
        description="Measurement-driven binary decisions on two-armed banks.",
    )
    subparsers = parser.add_subparsers(dest="command", metavar="command", required=True)

    def add_common(sub: argparse.ArgumentParser, bandit: bool) -> None:
        sub.add_argument("--seed", type=int, default=None, help="root seed (default 0)")
        sub.add_argument(
            "--config", default=None, help="key=value config file; flags take precedence"
        )
        sub.add_argument(
            "--output",
            default=None,
            help=f"output path (default stdout); relative paths resolve under ${OUTPUT_DIR_ENV} when set",
        )
        if bandit:
            sub.add_argument(
                "--p1", type=float, default=None, help="machine 0 reward probability (default 0.5)"
            )
            sub.add_argument(
                "--p2", type=float, default=None, help="machine 1 reward probability (default 0.5)"
            )
            sub.add_argument(
                "--p0",
                type=float,
                default=None,
                help="initial zero-outcome probability (default 0.5)",
            )
            sub.add_argument(
                "--horizon", type=int, default=None, help="rounds per trial (default 1000)"
            )
            sub.add_argument("--trials", type=int, default=None, help="trial count (default 1)")
            sub.add_argument(
                "--drift-step",
                dest="drift_step",
                type=float,
                default=None,
                help="bounded-random-walk drift step per round (default 0, drift off)",
            )
            sub.add_argument(
                "--window",
                type=float,
                default=None,
                help="final-fraction window for convergence metrics (default 0.2)",
            )
            sub.add_argument(
                "--format",
                choices=("csv", "json"),
                default=None,
                help="output format (default csv)",
            )

    qrng = subparsers.add_parser("qrng", help="emit raw bits plus a statistics battery")
    qrng.add_argument("--count", type=int, default=None, help="number of bits (required)")
    qrng.add_argument(
        "--p0", type=float, default=None, help="zero-outcome probability (default 0.5)"
    )
    add_common(qrng, bandit=False)

    single = subparsers.add_parser("single", help="one learner on two machines")
    single.add_argument("--c", type=float, default=None, help="update increment (required)")
    add_common(single, bandit=True)

    duo = subparsers.add_parser(
        "duo-conflict", help="two users, one machine pair, collision-free assignment"
    )
    duo.add_argument(
        "--p-first",
        dest="p_first",
        type=float,
        default=None,
        help="bias of user U toward machine 0 (default 0.5)",
    )
    add_common(duo, bandit=True)

    coop = subparsers.add_parser("coop", help="two users learning jointly on replicated pairs")
    coop.add_argument("--c", type=float, default=None, help="update increment (required)")
    add_common(coop, bandit=True)

    ghz = subparsers.add_parser("ghz", help="n users with majority updates on replicated pairs")
    ghz.add_argument("--n", type=int, default=None, help="number of users (required)")
    ghz.add_argument(
        "--constants",
        default=None,
        help="comma-separated strictly decreasing increments, ceil(n/2) of them (required)",
    )
    add_common(ghz, bandit=True)
    return parser


def _load_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config: line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _FILE_TYPES:
            raise ConfigError(f"config: unknown key '{key}'")
        values[key] = value.strip()
    return values


def _parse_file_value(key: str, raw: str):
    caster = _FILE_TYPES[key]
    try:
        return caster(raw)
    except ValueError as exc:
        raise ConfigError(f"config: invalid value for '{key}': {raw!r}") from exc


def _parse_constants(value: str) -> tuple[float, ...]:
    parts = [p.strip() for p in value.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"constants: expected comma-separated floats, got {value!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"constants: expected comma-separated floats, got {value!r}") from exc


def parse_args(argv: Sequence[str] | None = None) -> tuple[ExperimentConfig, EmitOptions]:
    """Resolve flags and config file into a validated run; unset fields keep their defaults."""
    namespace = _build_parser().parse_args(argv)
    file_values = _load_config_file(namespace.config) if namespace.config else {}

    def resolve(key: str, default=None, required: bool = False):
        value = getattr(namespace, key, None)
        if value is None and key in file_values:
            value = _parse_file_value(key, file_values[key])
        if value is None:
            value = default
        if value is None and required:
            raise ConfigError(f"{key}: required for '{namespace.command}'")
        return value

    command = namespace.command
    if command == "qrng":
        kwargs = dict(
            initial_p0=resolve("p0"), horizon=resolve("count", required=True), seed=resolve("seed")
        )
        fmt = "bits"
    else:
        kwargs = dict(
            p1=resolve("p1"),
            p2=resolve("p2"),
            initial_p0=resolve("p0"),
            horizon=resolve("horizon"),
            trials=resolve("trials"),
            seed=resolve("seed"),
            drift_step=resolve("drift_step"),
            window=resolve("window"),
        )
        if command in ("single", "coop"):
            kwargs["c"] = resolve("c", required=True)
        if command == "duo-conflict":
            kwargs["p_first"] = resolve("p_first")
        if command == "ghz":
            kwargs["n_users"] = resolve("n", required=True)
            kwargs["constants"] = _parse_constants(resolve("constants", required=True))
        fmt = resolve("format", "csv")
        if fmt not in ("csv", "json"):
            raise ConfigError(f"format: must be 'csv' or 'json', got {fmt!r}")
    options = EmitOptions(format=fmt, output=resolve("output"))
    given = {key: value for key, value in kwargs.items() if value is not None}
    config = ExperimentConfig(Scenario(command), **given)
    config.validate()
    return config, options


def parse_config(argv: Sequence[str] | None = None) -> ExperimentConfig:
    """Flag-and-file parsing only; the run configuration without emit options."""
    return parse_args(argv)[0]


def config_to_dict(config: ExperimentConfig) -> dict:
    """JSON-ready view of a configuration.

    Floats keep their exact value: json.dumps writes the shortest text that
    reads back as the same float, which is the 12-digit text whenever that
    reads back exactly.
    """
    return {**asdict(config), "scenario": config.scenario.value}


def _meta_value(raw, caster):
    """A CSV string cast to its field's type; a native JSON value as it is, so
    ExperimentConfig checks its type (a JSON true is not a horizon)."""
    if not isinstance(raw, str):
        return raw
    raw = raw.strip()
    return None if raw in ("", "none") else caster(raw)


def config_from_metadata(metadata: dict) -> ExperimentConfig:
    """Rebuild the exact run configuration from an emitted metadata block.

    Accepts either the JSON form (native types) or the CSV form (strings).
    """
    constants = metadata.get("constants")
    if isinstance(constants, str):
        constants = None if constants.strip() in ("", "none") else _parse_constants(constants)
    elif constants is not None:
        constants = tuple(constants)
    return ExperimentConfig(
        scenario=Scenario(str(metadata["scenario"])),
        p1=_meta_value(metadata["p1"], float),
        p2=_meta_value(metadata["p2"], float),
        c=_meta_value(metadata.get("c"), float),
        constants=constants,
        n_users=_meta_value(metadata.get("n_users"), int),
        initial_p0=_meta_value(metadata["initial_p0"], float),
        p_first=_meta_value(metadata["p_first"], float),
        horizon=_meta_value(metadata["horizon"], int),
        trials=_meta_value(metadata["trials"], int),
        seed=_meta_value(metadata["seed"], int),
        drift_step=_meta_value(metadata["drift_step"], float),
        window=_meta_value(metadata["window"], float),
    )


def read_csv_metadata(lines) -> dict[str, str]:
    """Pull the config key=value block back out of an emitted CSV."""
    if isinstance(lines, (str, Path)):
        lines = Path(lines).read_text().splitlines()
    metadata: dict[str, str] = {}
    for line in lines:
        if not line.startswith("#"):
            break
        body = line[1:].strip()
        if body.startswith("metric:") or "=" not in body:
            continue
        key, _, value = body.partition("=")
        key = key.strip()
        if key in ("tool", "version"):
            continue
        metadata[key] = value.strip()
    return metadata


def build_recordset(
    config: ExperimentConfig,
    trajectories: Sequence[Trajectory],
    metrics: Metrics | None,
) -> OutputRecordSet:
    """Gather a run's emitted form: metadata, trajectories in trial order, rounded metrics."""
    metadata = {"tool": "qubit-bandit", "version": __version__, "config": config_to_dict(config)}
    metrics_dict = None
    if metrics is not None:
        metrics_dict = {
            key: (_round12(value) if isinstance(value, float) else value)
            for key, value in metrics.to_dict().items()
        }
    return OutputRecordSet(metadata, tuple(trajectories), metrics_dict)


def _float_str(value: float) -> str:
    """12 significant digits when that text reads back as value, else repr."""
    text = f"{value:.12g}"
    return text if float(text) == value else repr(value)


def _meta_str(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, float):
        return _float_str(value)
    if isinstance(value, (list, tuple)):
        return ",".join(_float_str(float(v)) for v in value)
    return str(value)


class _Texts(dict):
    """Value -> emitted text, filled on first use by one emit call.

    Zeros are formatted every time and never stored: 0.0 and -0.0 are one
    dict key, but their texts differ.
    """

    def __init__(self, render) -> None:
        super().__init__()
        self._render = render

    def __missing__(self, value):
        text = self._render(value)
        if value:
            self[value] = text
        return text


_DIRECTION_TEXT = {None: "none", **{d: d.value for d in Direction}}


def _slices(rows):
    """rows, a lazy iterable of row texts, in lists of at most _ROWS_PER_WRITE."""
    while texts := list(islice(rows, _ROWS_PER_WRITE)):
        yield texts


def _csv_chunks(recordset: OutputRecordSet):
    lines = [f"# tool={recordset.metadata['tool']}", f"# version={recordset.metadata['version']}"]
    lines += [f"# {key}={_meta_str(value)}" for key, value in recordset.metadata["config"].items()]
    if recordset.metrics is not None:
        lines += [f"# metric:{key}={_meta_str(value)}" for key, value in recordset.metrics.items()]
    lines.append(_CSV_HEADER)
    yield "\n".join(lines) + "\n"
    # f"{x:.12g}" is the text _meta_str gives _round12(x): 12 digits round-trip
    num = _Texts(lambda x: f"{x:.12g}")
    joined = _Texts(lambda values: "|".join(map(str, values)))
    # an update pair is stored whole: its magnitude is a positive constant or
    # the 0.0 of no update, never -0.0
    update = _Texts(lambda u: f"{_DIRECTION_TEXT[u[0]]},{num[u[1]]}")
    for trajectory in recordset.trajectories:
        trial = trajectory.trial
        # measured_bit and chosen_machine fields, by bit
        played = [f"{bit},{joined[trajectory.machines[bit]]}" for bit in (0, 1)]
        rows = (
            f"{trial},{step},{num[before]},{played[bit]},{joined[rewards]},"
            f"{update[change]},{num[after]}\n"
            for step, before, after, bit, rewards, change in trajectory.rounds()
        )
        for texts in _slices(rows):
            yield "".join(texts)


def _json_list(values) -> str:
    """A list of ints as json.dumps(indent=2) lays it out inside a step row."""
    if not values:
        return "[]"
    return "[\n        " + ",\n        ".join(map(str, values)) + "\n      ]"


def _json_chunks(recordset: OutputRecordSet):
    head = json.dumps(
        {"metadata": recordset.metadata, "metrics": recordset.metrics, "steps": []}, indent=2
    )
    # head ends with '"steps": []\n}'; rows go between the brackets
    yield head[: -len("]\n}")]
    num = _Texts(lambda x: repr(_round12(x)))
    lists = _Texts(_json_list)
    update = _Texts(
        lambda u: f'"update_direction": "{_DIRECTION_TEXT[u[0]]}",\n'
        f'      "update_magnitude": {num[u[1]]}'
    )
    rows_written = False
    for trajectory in recordset.trajectories:
        trial = trajectory.trial
        # measured_bit and chosen_machine fields, by bit
        played = [
            f'"measured_bit": {bit},\n      "chosen_machine": {lists[trajectory.machines[bit]]}'
            for bit in (0, 1)
        ]
        rows = (
            f"""    {{
      "trial": {trial},
      "step": {step},
      "p0_before": {num[before]},
      {played[bit]},
      "reward": {lists[rewards]},
      {update[change]},
      "p0_after": {num[after]}
    }}"""
            for step, before, after, bit, rewards, change in trajectory.rounds()
        )
        for texts in _slices(rows):
            yield (",\n" if rows_written else "\n") + ",\n".join(texts)
            rows_written = True
    yield "\n  ]\n}\n" if rows_written else "]\n}\n"


def emit(recordset: OutputRecordSet, fmt: str, destination: Path | IO[str] | None = None) -> None:
    """Write csv or json to a path, a file-like object, or stdout (None).

    The header goes out first, then each trial's rows in slices of at most
    _ROWS_PER_WRITE, formatted straight from the trajectory columns, so no
    write holds more than one slice of rows.
    """
    chunks = {"csv": _csv_chunks, "json": _json_chunks}.get(fmt)
    if chunks is None:
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    if destination is not None and not hasattr(destination, "write"):
        with open(destination, "w") as handle:
            emit(recordset, fmt, handle)
        return
    handle = sys.stdout if destination is None else destination
    for chunk in chunks(recordset):
        handle.write(chunk)


def _resolve_output(output: str | None) -> Path | None:
    if output is None:
        return None
    path = Path(output)
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _battery_lines(bits: np.ndarray) -> list[str]:
    n = int(bits.size)
    zeros = int(np.count_nonzero(bits == 0))
    lines = [f"# bits={n} zeros={zeros} ones={n - zeros} zero_fraction={zeros / n:.12g}"]
    for test in (frequency_test, chi_square_pairs_test):
        try:
            result = test(bits)
        except ValueError as exc:
            lines.append(f"# {exc}")
        else:
            verdict = "pass" if result.passed else "fail"
            lines.append(
                f"# {result.name} statistic={result.statistic:.6g} "
                f"threshold={result.threshold:.6g} result={verdict}"
            )
    return lines


def _run_qrng(config: ExperimentConfig, options: EmitOptions) -> None:
    stream = RandomStream(config.seed, stream=0)
    bits = sample_bits(config.initial_p0, config.horizon, stream)
    text = "".join(map(str, bits.tolist()))
    destination = _resolve_output(options.output)
    if destination is None:
        print(text)
    else:
        destination.write_text(text + "\n")
    for line in _battery_lines(bits):
        print(line)


def main(argv: Sequence[str] | None = None) -> int:
    """Console entry point. Exit 0 on success, 2 on bad arguments, 1 on run failure."""
    try:
        config, options = parse_args(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if config.scenario is Scenario.QRNG:
            _run_qrng(config, options)
        else:
            trajectories, metrics = run_experiment(config)
            recordset = build_recordset(config, trajectories, metrics)
            emit(recordset, options.format, _resolve_output(options.output))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
