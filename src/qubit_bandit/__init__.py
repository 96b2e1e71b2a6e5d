"""Measurement-driven binary decisions for two-armed bandits.

A qubit (or an entangled register) makes the machine choice; rewards nudge
the state by fixed increments. The package provides the state and
measurement layer, Bernoulli machine environments, the decision policies,
exact enumeration oracles, a seeded Monte Carlo harness, and a CLI.
"""

from ._version import __version__
from .quantum import (
    Correlation,
    Direction,
    EntangledPair,
    GhzState,
    Qubit,
    RandomStream,
    angle_to_p0,
    measure_ghz,
    measure_pair,
    measure_qubit,
    p0_to_angle,
    sample_bit,
    sample_bits,
    shift_probability,
)
from .bandit import (
    BernoulliArm,
    DriftMode,
    DriftModel,
    ReplicatedBandit,
    TwoArmBandit,
    drift_step,
    pull,
    pull_pair,
)
from .policies import (
    GhzConstants,
    StepRecord,
    UpdateConfig,
    coop_pair_step,
    duo_conflict_assign,
    ghz_step,
    majority_update_rule,
    play_trial,
    single_agent_step,
)
from .oracle import (
    AsymptoticReport,
    DriftCurve,
    TransitionDistribution,
    asymptotic_claim_report,
    drift_curve,
    enumerate_coop_step,
    enumerate_ghz_step,
    enumerate_single_step,
    evolve_distribution,
    expected_drift,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    Metrics,
    RandomnessTestResult,
    Scenario,
    Trajectory,
    TrialMetrics,
    chi_square_pairs_test,
    frequency_test,
    run_experiment,
)

__all__ = [
    "__version__",
    # states and measurement
    "Correlation",
    "Direction",
    "Qubit",
    "EntangledPair",
    "GhzState",
    "RandomStream",
    "measure_qubit",
    "measure_pair",
    "measure_ghz",
    "sample_bit",
    "sample_bits",
    "shift_probability",
    "angle_to_p0",
    "p0_to_angle",
    # environments
    "BernoulliArm",
    "DriftMode",
    "DriftModel",
    "TwoArmBandit",
    "ReplicatedBandit",
    "pull",
    "pull_pair",
    "drift_step",
    # policies
    "UpdateConfig",
    "GhzConstants",
    "StepRecord",
    "single_agent_step",
    "duo_conflict_assign",
    "coop_pair_step",
    "majority_update_rule",
    "ghz_step",
    "play_trial",
    # oracles
    "TransitionDistribution",
    "DriftCurve",
    "AsymptoticReport",
    "enumerate_single_step",
    "enumerate_coop_step",
    "enumerate_ghz_step",
    "expected_drift",
    "drift_curve",
    "evolve_distribution",
    "asymptotic_claim_report",
    # harness
    "Scenario",
    "ConfigError",
    "ExperimentConfig",
    "Trajectory",
    "TrialMetrics",
    "Metrics",
    "RandomnessTestResult",
    "run_experiment",
    "frequency_test",
    "chi_square_pairs_test",
]
