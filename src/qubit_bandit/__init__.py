"""Measurement-driven binary decisions for two-armed bandits.

A qubit (or an entangled register) makes the machine choice; rewards nudge
the state by fixed increments. The package provides the state and
measurement layer, Bernoulli machine environments, the decision policies,
exact enumeration oracles, a seeded Monte Carlo harness, and a CLI.
"""

import importlib

from ._version import __version__
from . import bandit, harness, policies, quantum
from .quantum import *  # noqa: F401,F403
from .bandit import *  # noqa: F401,F403
from .policies import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403

# oracle loads on first use, since a run never does: its own import takes
# about 4 ms (python -X importtime, 2-CPU Xeon); these are its public names,
# oracle.__all__
_ORACLE_NAMES = (
    "TransitionDistribution",
    "AsymptoticReport",
    "enumerate_single_step",
    "enumerate_coop_step",
    "enumerate_ghz_step",
    "expected_drift",
    "evolve_distribution",
    "asymptotic_claim_report",
)

# states and measurement, environments, policies, oracles, harness
__all__ = [
    "__version__",
    *quantum.__all__,
    *bandit.__all__,
    *policies.__all__,
    *_ORACLE_NAMES,
    *harness.__all__,
]


def __getattr__(name: str):
    if name == "oracle" or name in _ORACLE_NAMES:
        oracle = importlib.import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
