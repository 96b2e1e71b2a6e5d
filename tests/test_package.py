"""The package's public names and what importing the package loads."""

import os
import subprocess
import sys

import qubit_bandit
from qubit_bandit import bandit, harness, oracle, policies, quantum


def test_public_names_are_the_union_of_the_module_lists():
    names = qubit_bandit.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(qubit_bandit, name) is not None
    modules = (quantum, bandit, policies, oracle, harness)
    assert set(names) == {"__version__"}.union(*(m.__all__ for m in modules))


def test_importing_the_package_does_not_load_numpy_random():
    # numpy.random costs start-up time and memory; only a stream needs it
    src = os.path.dirname(os.path.dirname(qubit_bandit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = "import sys, qubit_bandit; print('numpy.random' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"
