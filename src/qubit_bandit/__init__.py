"""Measurement-driven binary decisions for two-armed bandits.

A qubit (or an entangled register) makes the machine choice; rewards nudge
the state by fixed increments. The package provides the state and
measurement layer, Bernoulli machine environments, the decision policies,
exact enumeration oracles, a seeded Monte Carlo harness, and a CLI.
"""

from ._version import __version__
from . import bandit, harness, oracle, policies, quantum
from .quantum import *  # noqa: F401,F403
from .bandit import *  # noqa: F401,F403
from .policies import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403

# states and measurement, environments, policies, oracles, harness
__all__ = [
    "__version__",
    *quantum.__all__,
    *bandit.__all__,
    *policies.__all__,
    *oracle.__all__,
    *harness.__all__,
]
