"""The package's public names, its imports and what importing it loads."""

import ast
import os
import pathlib
import subprocess
import sys

import qubit_bandit
from qubit_bandit import bandit, cli, harness, oracle, policies, quantum


def test_public_names_are_the_union_of_the_module_lists():
    names = qubit_bandit.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(qubit_bandit, name) is not None
    modules = (quantum, bandit, policies, oracle, harness)
    assert set(names) == {"__version__"}.union(*(m.__all__ for m in modules))


def test_cli_public_names_resolve_and_are_unique():
    # cli stays out of the package's names, so nothing else checks its list
    names = cli.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(cli, name), name


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


def _dead_private_names(paths: list[pathlib.Path]) -> list[str]:
    """Module-level _names (dunders aside) defined in paths that no module of
    paths reads: as a loaded name, an attribute or an imported name."""
    trees = {path: ast.parse(path.read_text()) for path in paths}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    dead = []
    for path, tree in trees.items():
        for statement in tree.body:
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                names = [statement.name]
            elif isinstance(statement, ast.Assign):
                targets = [n for t in statement.targets for n in ast.walk(t)]
                names = [n.id for n in targets if isinstance(n, ast.Name)]
            elif isinstance(statement, ast.AnnAssign):
                names = [statement.target.id]
            else:
                continue
            for name in names:
                private = name.startswith("_") and not name.endswith("__")
                if private and name not in read:
                    dead.append(f"{path.name}:{statement.lineno}: {name}")
    return dead


def test_modules_define_no_dead_private_names():
    package = pathlib.Path(qubit_bandit.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) >= 8
    assert _dead_private_names(modules) == []


def test_dead_private_name_check_finds_an_unread_name(tmp_path):
    first, second = tmp_path / "first.py", tmp_path / "second.py"
    first.write_text(
        "_LOADED = 1\n"
        "_READ_AS_ATTRIBUTE, _DEAD = 2, 3\n"
        "_IMPORTED: int = 4\n"
        "__dunder__ = 5\n"
        "def _dead_function():\n"
        "    return _LOADED\n"
        "class _DeadClass:\n"
        "    pass\n"
    )
    second.write_text(
        "import first\n"
        "from first import _IMPORTED\n"
        "_UNREAD = first._READ_AS_ATTRIBUTE + _IMPORTED\n"
    )
    assert _dead_private_names([first, second]) == [
        "first.py:2: _DEAD",
        "first.py:5: _dead_function",
        "first.py:7: _DeadClass",
        "second.py:3: _UNREAD",
    ]


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


def test_the_exact_chain_does_not_load_fractions():
    # the lattice takes its integers from float.as_integer_ratio, so fractions
    # (and the decimal module it pulls in) stays out of the oracle's memory
    code = "\n".join(
        [
            "import sys",
            "from qubit_bandit import oracle",
            "oracle.evolve_distribution(0.5, 0.8, 0.2, 0.1, 20)",
            "oracle.asymptotic_claim_report(0.7, 0.3, 0.1, horizon=200, trials=4)",
            "print('fractions' in sys.modules)",
        ]
    )
    assert _fresh_python(code) == "False"


def test_the_benchmark_tracer_sees_the_draw_contract(tmp_path):
    # the check bench/run.py --trace 1 makes, on small runs: the tracer
    # patches the names the run path looks up, and counts draws (scalar
    # calls plus block sizes) and pulls per round, and one stream per trial
    bench = pathlib.Path(__file__).resolve().parent.parent / "bench"
    output = str(tmp_path / "single.csv")
    argv = ["single", "--c", "0.1", "--horizon", "30", "--trials", "3", "--output", output]
    code = "\n".join(
        [
            "import sys",
            f"sys.path.insert(0, {str(bench)!r})",
            "from tracer import Tracer",
            "from qubit_bandit import cli, harness",
            "tracer = Tracer()",
            "tracer.install()",
            "def counts():",
            "    stats = tracer.report()['stats']",
            "    calls = lambda name: stats.get(name, [0])[0]",
            "    draws = calls('quantum.uniform') + tracer.block_draws",
            "    return draws, calls('bandit.pull'), calls('quantum.stream_new')",
            "config = harness.ExperimentConfig(",
            "    harness.Scenario.COOP_PAIR, p1=0.7, p2=0.4, c=0.1, horizon=10, trials=20",
            ")",
            "harness.run_experiment(config, record_trajectories=False)",
            "coop = counts()",
            f"assert cli.main({argv!r}) == 0",
            "print(*coop, *(after - before for after, before in zip(counts(), coop)))",
        ]
    )
    coop_draws, coop_pulls, coop_streams, draws, pulls, streams = map(
        int, _fresh_python(code).split()
    )
    assert (coop_draws, coop_pulls, coop_streams) == (3 * 200, 2 * 200, 20)
    assert (draws, pulls, streams) == (2 * 90, 1 * 90, 3)
