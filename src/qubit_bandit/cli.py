"""Command-line front end.

One binary, five subcommands: qrng (raw bits from sample_bits plus a
statistics battery), single, duo-conflict, coop, and ghz (learning runs,
which emit plays and writes as CSV or JSON; it is their one writer). Flags
override config-file values; every emitted file carries enough metadata to
replay the run exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from itertools import islice
from pathlib import Path
from typing import IO, Iterator, Sequence

import numpy as np

from ._version import __version__
from .harness import (
    _FLOAT_FIELDS,
    _INT_FIELDS,
    ConfigError,
    ExperimentConfig,
    Metrics,
    Scenario,
    Trajectory,
    _Summary,
    _naming,
    _trials,
    chi_square_pairs_test,
    frequency_test,
)

# bench/tracer.py wraps run_experiment under this name, so it stays
# importable here although emit plays trials through _trials
from .harness import run_experiment  # noqa: F401
from .quantum import Direction, RandomStream, sample_bits

__all__ = [
    "OUTPUT_DIR_ENV",
    "EmitOptions",
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

# ExperimentConfig's numeric fields by type; constants has its own parser
_FIELD_TYPES = {**dict.fromkeys(_FLOAT_FIELDS, float), **dict.fromkeys(_INT_FIELDS, int)}

# flag -> (ExperimentConfig field, help); every flag but config is also a
# config-file key
_FLAGS = {
    "p1": ("p1", "machine 0 reward probability (default 0.5)"),
    "p2": ("p2", "machine 1 reward probability (default 0.5)"),
    "p0": ("initial_p0", "zero-outcome probability: qrng's bias, a learner's start (default 0.5)"),
    "horizon": ("horizon", "rounds per trial (default 1000)"),
    "count": ("horizon", "number of bits (required)"),
    "trials": ("trials", "trial count (default 1)"),
    "seed": ("seed", "root seed (default 0)"),
    "drift_step": (
        "drift_step",
        "bounded-random-walk drift step per round (default 0, drift off)",
    ),
    "window": ("window", "final-fraction window for convergence metrics (default 0.2)"),
    "c": ("c", "update increment (required)"),
    "p_first": ("p_first", "bias of user U toward machine 0 (default 0.5)"),
    "n": ("n_users", "number of users (required)"),
    "constants": (
        "constants",
        "comma-separated strictly decreasing increments, ceil(n/2) of them (required)",
    ),
    "format": (None, "output format (default csv)"),
    "output": (
        None,
        f"output path (default stdout); relative paths resolve under ${OUTPUT_DIR_ENV} when set",
    ),
    "config": (None, "key=value config file; flags take precedence"),
}

_FLAG_TYPES = {flag: _FIELD_TYPES.get(field, str) for flag, (field, _) in _FLAGS.items()}

_FORMATS = ("csv", "json")

# in resolution order, which fixes the first error a multi-fault input reports
_BANDIT_FLAGS = ("p1", "p2", "p0", "horizon", "trials", "seed", "drift_step", "window")

# subcommand -> (help, flags besides config, required flags)
_COMMANDS = {
    "qrng": (
        "emit raw bits plus a statistics battery",
        ("p0", "count", "seed", "output"),
        {"count"},
    ),
    "single": ("one learner on two machines", (*_BANDIT_FLAGS, "c", "format", "output"), {"c"}),
    "duo-conflict": (
        "two users, one machine pair, collision-free assignment",
        (*_BANDIT_FLAGS, "p_first", "format", "output"),
        set(),
    ),
    "coop": (
        "two users learning jointly on replicated pairs",
        (*_BANDIT_FLAGS, "c", "format", "output"),
        {"c"},
    ),
    "ghz": (
        "n users with majority updates on replicated pairs",
        (*_BANDIT_FLAGS, "n", "constants", "format", "output"),
        {"n", "constants"},
    ),
}


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so errors stay single-line."""

    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        raise ConfigError(message)


@dataclass(frozen=True)
class EmitOptions:
    format: str
    output: str | None


def _round12(value: float) -> float:
    """Round to 12 significant digits, the precision every emitted number gets."""
    return float(f"{value:.12g}")


def _build_parser() -> _Parser:
    # no abbreviations: --c would read as --config where no c flag exists
    parser = _Parser(
        prog="qubit-bandit",
        description="Measurement-driven binary decisions on two-armed banks.",
        allow_abbrev=False,
    )
    subparsers = parser.add_subparsers(dest="command", metavar="command", required=True)
    for command, (help_text, flags, _) in _COMMANDS.items():
        sub = subparsers.add_parser(command, help=help_text, allow_abbrev=False)
        for flag in (*flags, "config"):
            sub.add_argument(
                "--" + flag.replace("_", "-"),
                type=_FLAG_TYPES[flag],
                choices=_FORMATS if flag == "format" else None,
                help=_FLAGS[flag][1],
            )
    return parser


def _load_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
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
        if key not in _FLAGS or key == "config":
            raise ConfigError(f"config: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"config: line {lineno}: duplicate key '{key}'")
        values[key] = value.strip()
    return values


def _parse_file_value(key: str, raw: str):
    try:
        return _FLAG_TYPES[key](raw)
    except ValueError as exc:
        raise ConfigError(f"config: invalid value for '{key}': {raw!r}") from exc


def _parse_constants(value: str) -> tuple[float, ...]:
    # float() refuses an empty item, so "0.1,,0.05" and "0.1," are errors
    try:
        return tuple(float(p) for p in value.split(","))
    except ValueError as exc:
        raise ConfigError(f"constants: expected comma-separated floats, got {value!r}") from exc


def parse_args(argv: Sequence[str] | None = None) -> tuple[ExperimentConfig, EmitOptions]:
    """Resolve flags and config file into a validated run; unset fields keep their defaults."""
    namespace = _build_parser().parse_args(argv)
    command = namespace.command
    _, flags, required = _COMMANDS[command]
    file_values = _load_config_file(namespace.config) if namespace.config else {}
    values = {}
    for flag in flags:
        value = getattr(namespace, flag)
        if value is None and flag in file_values:
            value = _parse_file_value(flag, file_values[flag])
        if value is not None:
            values[flag] = value
        elif flag in required:
            raise ConfigError(f"{flag}: required for '{command}'")
    if "constants" in values:
        values["constants"] = _parse_constants(values["constants"])
    if values.get("format", "csv") not in _FORMATS:
        raise ConfigError(f"format: must be 'csv' or 'json', got {values['format']!r}")
    if values.get("output") == "":
        raise ConfigError("output: expected a file path, got ''")
    fields = {_FLAGS[flag][0]: value for flag, value in values.items() if _FLAGS[flag][0]}
    try:
        config = ExperimentConfig(Scenario(command), **fields)
        config.validate()
    except ConfigError as exc:
        # name the flag the user typed (config-file keys are flags too)
        field, _, rest = str(exc).partition(": ")
        flag = next((f for f in flags if _FLAGS[f][0] == field), field)
        raise ConfigError(f"{flag}: {rest}") from exc
    fmt = values.get("format", "csv" if "format" in flags else "bits")
    return config, EmitOptions(format=fmt, output=values.get("output"))


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
    for name in ("scenario", "constants", *_FIELD_TYPES):
        if name not in metadata:
            raise ConfigError(f"{name}: missing from the metadata")
    with _naming("scenario"):
        scenario = Scenario(str(metadata["scenario"]))
    values = {}
    for name, cast in _FIELD_TYPES.items():
        with _naming(name):
            values[name] = _meta_value(metadata[name], cast)
    constants = _meta_value(metadata["constants"], _parse_constants)
    return ExperimentConfig(scenario=scenario, constants=constants, **values)


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


def build_recordset(config: ExperimentConfig, metrics: Metrics) -> dict:
    """A run's emitted head: {"metadata": replayable metadata, "metrics": rounded metrics}."""
    metadata = {"tool": "qubit-bandit", "version": __version__, "config": config_to_dict(config)}
    metrics_dict = {
        key: (_round12(value) if isinstance(value, float) else value)
        for key, value in metrics.to_dict().items()
    }
    return {"metadata": metadata, "metrics": metrics_dict}


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


class _CsvText:
    """One run's CSV text in three parts: head(build_recordset's dict), then
    rows(trajectory) for each trial in order, then tail(). Number texts are
    kept for the run."""

    def __init__(self) -> None:
        # f"{x:.12g}" is the text _meta_str gives _round12(x): 12 digits round-trip
        self.num = num = _Texts(lambda x: f"{x:.12g}")
        self.joined = _Texts(lambda values: "|".join(map(str, values)))

    @staticmethod
    def head(head: dict) -> str:
        metadata = head["metadata"]
        lines = [f"# tool={metadata['tool']}", f"# version={metadata['version']}"]
        lines += [f"# {key}={_meta_str(value)}" for key, value in metadata["config"].items()]
        lines += [f"# metric:{key}={_meta_str(value)}" for key, value in head["metrics"].items()]
        lines.append(_CSV_HEADER)
        return "\n".join(lines) + "\n"

    def rows(self, trajectory: Trajectory) -> Iterator[str]:
        """The trajectory's rows, at most _ROWS_PER_WRITE to a string."""
        num, joined = self.num, self.joined
        trial = trajectory.trial
        # measured_bit and chosen_machine fields, by bit
        played = [f"{bit},{joined[trajectory.machines[bit]]}" for bit in (0, 1)]
        # update_direction and update_magnitude fields, by bit and reward count
        updates = [[f"{_DIRECTION_TEXT[d]},{num[m]}" for d, m in by_r] for by_r in trajectory.moves]
        rows = (
            f"{trial},{step},{num[before]},{played[bit]},{joined[rewards]},"
            f"{updates[bit][r]},{num[after]}\n"
            for step, before, after, bit, rewards, r in trajectory.rounds()
        )
        for texts in _slices(rows):
            yield "".join(texts)

    def tail(self) -> str:
        return ""


def _json_list(values) -> str:
    """A non-empty list of ints as json.dumps(indent=2) lays it out inside a step row."""
    return "[\n        " + ",\n        ".join(map(str, values)) + "\n      ]"


class _JsonText:
    """One run's JSON text in three parts, as _CsvText; rows go between the
    brackets of "steps", so a slice's separator depends on whether any row
    came before."""

    def __init__(self) -> None:
        self.num = _Texts(lambda x: repr(_round12(x)))
        self.lists = _Texts(_json_list)
        self.rows_written = False

    @staticmethod
    def head(head: dict) -> str:
        # the text ends with '"steps": []\n}'; rows go between the brackets
        return json.dumps({**head, "steps": []}, indent=2)[: -len("]\n}")]

    def rows(self, trajectory: Trajectory) -> Iterator[str]:
        """The trajectory's rows, at most _ROWS_PER_WRITE to a string."""
        num, lists = self.num, self.lists
        trial = trajectory.trial
        # measured_bit and chosen_machine fields, by bit
        played = [
            f'"measured_bit": {bit},\n      "chosen_machine": {lists[trajectory.machines[bit]]}'
            for bit in (0, 1)
        ]
        # update_direction and update_magnitude fields, by bit and reward count
        updates = [
            [f'"update_direction": "{_DIRECTION_TEXT[d]}",\n      "update_magnitude": {num[m]}'
             for d, m in by_r]
            for by_r in trajectory.moves
        ]
        rows = (
            f"""    {{
      "trial": {trial},
      "step": {step},
      "p0_before": {num[before]},
      {played[bit]},
      "reward": {lists[rewards]},
      {updates[bit][r]},
      "p0_after": {num[after]}
    }}"""
            for step, before, after, bit, rewards, r in trajectory.rounds()
        )
        for texts in _slices(rows):
            yield (",\n" if self.rows_written else "\n") + ",\n".join(texts)
            self.rows_written = True

    def tail(self) -> str:
        return "\n  ]\n}\n"


_TEXTS = {"csv": _CsvText, "json": _JsonText}


def emit(config: ExperimentConfig, fmt: str, handle: IO[str], spill_dir: Path | None = None) -> None:
    """Play a learning run and write it to handle as csv or json.

    One trial is held at a time. Each trial's rows are formatted, in
    slices of at most _ROWS_PER_WRITE, as soon as it is played, and staged
    in an unnamed temporary file in spill_dir (None: the system's temp
    directory), since the head needs every trial's metrics first. Then the
    head, the staged rows and the tail go to handle. A bad format or config
    raises before anything is written.
    """
    if fmt not in _TEXTS:
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    config.validate()
    text = _TEXTS[fmt]()
    summary = _Summary(config)
    with tempfile.TemporaryFile("w+", dir=spill_dir) as staged:
        for trajectory in _trials(config, range(config.trials)):
            summary.add(trajectory)
            staged.writelines(text.rows(trajectory))
            del trajectory  # released before the next trial is played
        handle.write(text.head(build_recordset(config, summary.metrics())))
        staged.seek(0)
        shutil.copyfileobj(staged, handle)
    handle.write(text.tail())


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


def _run_qrng(config: ExperimentConfig, handle: IO[str]) -> None:
    """The bit string to handle, then the battery report to stdout."""
    bits = sample_bits(config.initial_p0, config.horizon, RandomStream(config.seed, stream=0))
    handle.write("".join(map(str, bits.tolist())) + "\n")
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
        destination = _resolve_output(options.output)
        # opened, and truncated, before the run, so a path that cannot be
        # written fails before any trial is played
        with open(destination, "w") if destination else nullcontext(sys.stdout) as handle:
            if config.scenario is Scenario.QRNG:
                _run_qrng(config, handle)
            else:
                spill_dir = destination.parent if destination else None
                emit(config, options.format, handle, spill_dir)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
