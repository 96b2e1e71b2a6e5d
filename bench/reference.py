"""Independent references the benchmark checks the program's outputs against.

Nothing here imports qubit_bandit. The replay re-implements the draw
contract from the package's documentation (one numpy PCG64 stream per
trial seeded with SeedSequence([seed, trial]); per round the measurement,
then one pull per user, then the two drift signs, arm 0 first) and the
update rules as the paper states them. The exact references propagate the
clamped lattice chains with their own lattice builders.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

CSV_HEADER = (
    "trial,step,p0_before,measured_bit,chosen_machine,reward,"
    "update_direction,update_magnitude,p0_after"
)
METRIC_KEYS = (
    "n_trials",
    "horizon",
    "n_users",
    "best_p",
    "window",
    "mean_total_reward",
    "mean_regret",
    "total_conflicts",
    "final_p0_mean",
    "final_p0_std",
    "mean_best_arm_fraction",
)
# tolerance for summary metrics recomputed from 12-digit rows
METRIC_TOL = 1e-9


def g12(value: float) -> str:
    return f"{value:.12g}"


def r12(value: float) -> float:
    return float(g12(value))


def draws_per_round(spec: dict) -> int:
    """The draw contract: measurement plus one pull per user, plus 2 with drift."""
    users = {"single": 1, "coop": 2, "ghz": spec.get("n", 0)}[spec["scenario"]]
    return 1 + users + (2 if spec.get("drift_step", 0.0) > 0.0 else 0)


def pulls_per_round(spec: dict) -> int:
    return draws_per_round(spec) - 1 - (2 if spec.get("drift_step", 0.0) > 0.0 else 0)


def replay_trial(spec: dict, trial: int):
    """Yield (step, p0_before, bit, rewards, direction, magnitude, p0_after) for one trial."""
    scenario = spec["scenario"]
    horizon = spec["horizon"]
    drift = spec.get("drift_step", 0.0)
    per_round = draws_per_round(spec)
    users = per_round - 1 - (2 if drift > 0.0 else 0)
    stream = np.random.Generator(np.random.PCG64(np.random.SeedSequence([spec["seed"], trial])))
    draws = iter(stream.random(per_round * horizon).tolist())
    arms = [spec["p1"], spec["p2"]]
    p0 = spec.get("p0", 0.5)
    for step in range(horizon):
        bit = 0 if next(draws) < p0 else 1
        rewards = tuple(1 if next(draws) < arms[bit] else 0 for _ in range(users))
        rewarded = sum(rewards)
        if scenario == "single":
            decision = (bool(rewarded), spec["c"])
        elif scenario == "coop":
            # a split (one reward of two) leaves the state untouched
            decision = None if rewarded == 1 else (rewarded == 2, spec["c"])
        else:
            # strict majority decides; the constant is graded by the dissent count
            dissent = min(rewarded, users - rewarded)
            decision = (
                None
                if 2 * rewarded == users
                else (rewarded > users - rewarded, spec["constants"][dissent])
            )
        if decision is None:
            direction, magnitude, after = "none", 0.0, p0
        else:
            majority_rewarded, magnitude = decision
            toward_zero = (bit == 0) == majority_rewarded
            direction = "toward0" if toward_zero else "toward1"
            after = min(p0 + magnitude, 1.0) if toward_zero else max(p0 - magnitude, 0.0)
        yield step, p0, bit, rewards, direction, magnitude, after
        p0 = after
        if drift > 0.0:
            for arm in (0, 1):
                delta = drift if next(draws) < 0.5 else -drift
                arms[arm] = min(max(arms[arm] + delta, 0.0), 1.0)


def expected_csv_rows(spec: dict):
    for trial in range(spec["trials"]):
        for step, before, bit, rewards, direction, magnitude, after in replay_trial(spec, trial):
            machines = "|".join([str(bit)] * len(rewards))
            yield (
                f"{trial},{step},{g12(before)},{bit},{machines},"
                f"{'|'.join(map(str, rewards))},{direction},{g12(magnitude)},{g12(after)}"
            )


def expected_json_rows(spec: dict):
    for trial in range(spec["trials"]):
        for step, before, bit, rewards, direction, magnitude, after in replay_trial(spec, trial):
            yield {
                "trial": trial,
                "step": step,
                "p0_before": r12(before),
                "measured_bit": bit,
                "chosen_machine": [bit] * len(rewards),
                "reward": list(rewards),
                "update_direction": direction,
                "update_magnitude": r12(magnitude),
                "p0_after": r12(after),
            }


def metrics_from_rows(spec: dict, rows: list[tuple[int, int, int, int, float]]) -> dict:
    """Summary metrics recomputed from emitted rows.

    rows holds (trial, first chosen machine, users, round reward, p0_after)
    in emitted order.
    """
    trials, horizon = spec["trials"], spec["horizon"]
    users = rows[0][2]
    totals = [0] * trials
    finals = [0.0] * trials
    hits = [0] * trials
    drift_on = spec.get("drift_step", 0.0) > 0.0
    best_arm = 0 if spec["p1"] >= spec["p2"] else 1
    window_steps = max(1, int(horizon * spec.get("window", 0.2)))
    for index, (trial, machine, n_users, reward, after) in enumerate(rows):
        totals[trial] += reward
        finals[trial] = after
        if index % horizon >= horizon - window_steps and machine == best_arm:
            hits[trial] += n_users
    best_p = None if drift_on else max(spec["p1"], spec["p2"])
    mean_final = sum(finals) / trials
    return {
        "n_trials": trials,
        "horizon": horizon,
        "n_users": users,
        "best_p": best_p,
        "window": spec.get("window", 0.2),
        "mean_total_reward": sum(totals) / trials,
        "mean_regret": None
        if drift_on
        else sum(best_p * horizon - t / users for t in totals) / trials,
        "total_conflicts": 0,
        "final_p0_mean": mean_final,
        "final_p0_std": math.sqrt(sum((f - mean_final) ** 2 for f in finals) / trials),
        "mean_best_arm_fraction": None
        if drift_on
        else sum(h / (window_steps * users) for h in hits) / trials,
    }


def _metric_errors(expected: dict, emitted: dict) -> list[str]:
    errors = []
    for key in METRIC_KEYS:
        want, got = expected[key], emitted.get(key, "missing")
        if want is None:
            if got is not None:
                errors.append(f"metric {key}: expected none, got {got!r}")
        elif not isinstance(got, (int, float)) or abs(got - want) > METRIC_TOL * max(1.0, abs(want)):
            errors.append(f"metric {key}: expected {want!r}, got {got!r}")
    return errors


def _config_errors(spec: dict, config: dict) -> list[str]:
    keys = ("seed", "horizon", "trials", "p1", "p2", "drift_step")
    return [
        f"config {key}: expected {spec.get(key, 0.0)!r}, got {config.get(key)!r}"
        for key in keys
        if config.get(key) != spec.get(key, 0.0)
    ]


def check_csv(spec: dict, text: str) -> list[str]:
    """Compare an emitted CSV with the replay; returns the mismatches found."""
    lines = text.splitlines()
    config: dict = {}
    metrics: dict = {}
    index = 0
    while index < len(lines) and lines[index].startswith("#"):
        key, _, value = lines[index][1:].strip().partition("=")
        target = metrics if key.startswith("metric:") else config
        key = key.removeprefix("metric:")
        target[key] = None if value == "none" else (float(value) if _is_number(value) else value)
        index += 1
    if index >= len(lines) or lines[index] != CSV_HEADER:
        return ["csv header line missing or changed"]
    data = lines[index + 1 :]
    errors = _config_errors(spec, config)
    expected_count = spec["trials"] * spec["horizon"]
    if len(data) != expected_count:
        return errors + [f"expected {expected_count} rows, got {len(data)}"]
    for number, (got, want) in enumerate(zip(data, expected_csv_rows(spec))):
        if got != want:
            errors.append(f"row {number}: expected {want!r}, got {got!r}")
            break
    rows = []
    for line in data:
        fields = line.split(",")
        rewards = fields[5].split("|")
        rows.append(
            (int(fields[0]), int(fields[4].split("|")[0]), len(rewards),
             sum(map(int, rewards)), float(fields[8]))
        )
    return errors + _metric_errors(metrics_from_rows(spec, rows), metrics)


def check_json(spec: dict, payload: dict) -> list[str]:
    """Compare an emitted JSON document with the replay; returns the mismatches found."""
    errors = _config_errors(spec, payload["metadata"]["config"])
    steps = payload["steps"]
    expected_count = spec["trials"] * spec["horizon"]
    if len(steps) != expected_count:
        return errors + [f"expected {expected_count} rows, got {len(steps)}"]
    for number, (got, want) in enumerate(zip(steps, expected_json_rows(spec))):
        if got != want:
            errors.append(f"row {number}: expected {want!r}, got {got!r}")
            break
    rows = [
        (s["trial"], s["chosen_machine"][0], len(s["reward"]), sum(s["reward"]), s["p0_after"])
        for s in steps
    ]
    return errors + _metric_errors(metrics_from_rows(spec, rows), payload["metrics"])


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def check_cli_output(spec: dict, raw: bytes) -> list[str]:
    text = raw.decode()
    if spec["format"] == "csv":
        return check_csv(spec, text)
    return check_json(spec, json.loads(text))


def corrupted_copy(spec: dict, raw: bytes) -> bytes:
    """The output with one reward flipped, in the middle data row."""
    if spec["format"] == "csv":
        lines = raw.decode().split("\n")
        row = len(lines) - 1 - (spec["trials"] * spec["horizon"]) // 2
        fields = lines[row].split(",")
        rewards = fields[5].split("|")
        rewards[0] = "0" if rewards[0] == "1" else "1"
        fields[5] = "|".join(rewards)
        lines[row] = ",".join(fields)
        return "\n".join(lines).encode()
    payload = json.loads(raw)
    step = payload["steps"][len(payload["steps"]) // 2]
    step["reward"][0] = 1 - step["reward"][0]
    return json.dumps(payload).encode()


# --- exact chains ----------------------------------------------------------


def _clamp(value: Fraction) -> Fraction:
    return min(max(value, Fraction(0)), Fraction(1))


def coop_exact(p0: float, p1: float, p2: float, c: float, horizon: int):
    """Exact distribution of the cooperative state after horizon rounds.

    Inputs are taken at their exact binary values. Per round the measured
    branch picks machine 0 (probability p0) or 1; both users rewarded move
    toward the measured outcome, neither rewarded moves away, a split stays.
    Returns ({state: probability}, expected total reward over both users).
    """
    p1, p2, c = Fraction(p1), Fraction(p2), Fraction(c)
    dist = {Fraction(p0): Fraction(1)}
    expected_reward = Fraction(0)
    for _ in range(horizon):
        nxt: dict[Fraction, Fraction] = {}
        for state, mass in dist.items():
            expected_reward += mass * 2 * (state * p1 + (1 - state) * p2)
            up, down = _clamp(state + c), _clamp(state - c)
            for branch, q, toward, away in ((state, p1, up, down), (1 - state, p2, down, up)):
                for target, prob in ((toward, q * q), (state, 2 * q * (1 - q)), (away, (1 - q) ** 2)):
                    if prob:
                        nxt[target] = nxt.get(target, Fraction(0)) + mass * branch * prob
        dist = nxt
    return dist, expected_reward


def check_coop_sample(
    dist: dict, expected_reward: Fraction, finals: list[float], totals: list[int]
) -> list[str]:
    """z-test per-trial final states and mean total reward against the exact chain."""
    errors = []
    states = sorted(dist)
    support = np.array([float(s) for s in states])
    probs = np.array([float(dist[s]) for s in states])
    # rationally distinct states can sit within an ulp; compare at 1e-9 resolution
    cluster = np.concatenate(([0], np.cumsum(np.diff(support) > 1e-9)))
    n_clusters = int(cluster[-1]) + 1
    cluster_prob = np.bincount(cluster, weights=probs, minlength=n_clusters)
    finals_arr = np.array(finals)
    nearest = np.abs(finals_arr[:, None] - support[None, :]).argmin(axis=1)
    off = float(np.abs(finals_arr - support[nearest]).max())
    if off > 1e-9:
        errors.append(f"final state {off:.3g} away from the exact lattice")
    counts = np.bincount(cluster[nearest], minlength=n_clusters)
    n = finals_arr.size
    se = np.maximum(np.sqrt(cluster_prob * (1.0 - cluster_prob) / n), 1e-12)
    worst = float(np.max(np.abs(counts / n - cluster_prob) / se))
    if not worst < 5.0:
        errors.append(f"final-state frequencies: worst |z| {worst:.2f} >= 5")
    totals_arr = np.array(totals, dtype=float)
    z = (totals_arr.mean() - float(expected_reward)) / (totals_arr.std(ddof=1) / math.sqrt(n))
    if not abs(z) < 5.0:
        errors.append(f"mean total reward: |z| {abs(z):.2f} >= 5")
    return errors


def single_lattice(p0: float, c: float) -> list[Fraction]:
    """Every state single-agent play can reach from p0, as exact rationals."""
    c = Fraction(c)
    start = Fraction(p0)
    seen = {start}
    frontier = [start]
    while frontier:
        state = frontier.pop()
        for nxt in (_clamp(state + c), _clamp(state - c)):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return sorted(seen)


def single_chain(p0: float, p1: float, p2: float, c: float, horizon: int):
    """Exact single-agent distribution after horizon rounds, by successor table.

    Costs O(states * horizon). Returns (lattice size, {float state: mass}).
    """
    states = single_lattice(p0, c)
    index = {s: i for i, s in enumerate(states)}
    cf = Fraction(c)
    up = np.array([index[_clamp(s + cf)] for s in states])
    down = np.array([index[_clamp(s - cf)] for s in states])
    values = np.array([float(s) for s in states])
    # toward zero after machine 0 rewarded or machine 1 unrewarded
    p_up = values * p1 + (1.0 - values) * (1.0 - p2)
    mass = np.zeros(len(states))
    mass[index[Fraction(p0)]] = 1.0
    size = len(states)
    for _ in range(horizon):
        mass = np.bincount(up, mass * p_up, size) + np.bincount(down, mass * (1.0 - p_up), size)
    merged: dict[float, float] = {}
    for value, m in zip(values.tolist(), mass.tolist()):
        merged[value] = merged.get(value, 0.0) + m
    return size, merged


def check_chain(reference: dict[float, float], outcomes: list[list[float]]) -> list[str]:
    errors = []
    program = {state: prob for state, prob in outcomes}
    for name, dist in (("reference", reference), ("program", program)):
        total = sum(dist.values())
        if abs(total - 1.0) > 1e-9:
            errors.append(f"{name} masses sum to {total!r}")
    keys = set(reference) | set(program)
    tv = 0.5 * sum(abs(reference.get(k, 0.0) - program.get(k, 0.0)) for k in keys)
    if not tv <= 1e-9:
        errors.append(f"total variation {tv:.3g} > 1e-9 against the reference chain")
    return errors
