"""The package's public names, its imports and what importing it loads."""

import ast
import os
import pathlib
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


def _unused_imports(path: pathlib.Path) -> list[str]:
    """Module-level imported names that path never reads and does not export.

    Imports marked "# noqa: F401" are kept on purpose and are skipped.
    """
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {
        node.value
        for statement in tree.body
        if isinstance(statement, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in statement.targets)
        for node in ast.walk(statement.value)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    unused = []
    for statement in tree.body:
        if not isinstance(statement, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(statement, ast.ImportFrom) and statement.module == "__future__":
            continue
        span = lines[statement.lineno - 1 : statement.end_lineno]
        if any("# noqa: F401" in line for line in span):
            continue
        for alias in statement.names:
            # "import a.b" binds a
            name = alias.asname or alias.name.partition(".")[0]
            if name != "*" and name not in read and name not in exported:
                unused.append(f"{path.name}:{statement.lineno}: {name}")
    return unused


def test_modules_import_no_unused_names():
    package = pathlib.Path(qubit_bandit.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) >= 8
    assert [name for path in modules for name in _unused_imports(path)] == []


def test_unused_import_check_finds_an_unused_name(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import math\n"
        "import os.path\n"
        "from json import dumps, loads\n"
        "from sys import argv  # noqa: F401\n"
        "__all__ = ['loads']\n"
        "print(os.sep)\n"
    )
    assert _unused_imports(module) == ["module.py:1: math", "module.py:3: dumps"]


def _fresh_python(code: str) -> str:
    """Run code in a new interpreter that imports this package; return its stdout."""
    src = os.path.dirname(os.path.dirname(qubit_bandit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout.strip()


def test_importing_the_package_does_not_load_numpy_random():
    # numpy.random costs start-up time and memory, and nothing here uses it
    code = "import sys, qubit_bandit; print('numpy.random' in sys.modules)"
    assert _fresh_python(code) == "False"


def test_runs_do_not_load_numpy_random(tmp_path):
    # streams compute NumPy's PCG64 draws themselves, handed a bulk first
    # block or built alone
    output = str(tmp_path / "single.csv")
    argv = ["single", "--c", "0.1", "--horizon", "300", "--output", output]
    code = "\n".join(
        [
            "import sys",
            "from qubit_bandit import cli, oracle, quantum",
            "from qubit_bandit.harness import ExperimentConfig, Scenario, run_experiment",
            f"assert cli.main({argv!r}) == 0",
            "config = ExperimentConfig(Scenario.COOP_PAIR, p1=0.7, p2=0.3, c=0.1, trials=3)",
            "run_experiment(config)",
            "oracle.asymptotic_claim_report(0.7, 0.3, 0.1, horizon=200, trials=4)",
            "quantum.RandomStream(5, 2**32 + 7).uniforms(5000)",
            "print('numpy.random' in sys.modules)",
        ]
    )
    assert _fresh_python(code) == "False"
    assert os.path.getsize(output) > 0
