"""The package's public names: one list, built from the modules' own."""

import qubit_bandit
from qubit_bandit import bandit, harness, oracle, policies, quantum


def test_public_names_are_the_union_of_the_module_lists():
    names = qubit_bandit.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(qubit_bandit, name) is not None
    modules = (quantum, bandit, policies, oracle, harness)
    assert set(names) == {"__version__"}.union(*(m.__all__ for m in modules))
