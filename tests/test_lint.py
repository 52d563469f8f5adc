"""Static checks of the package source with the standard library's ``ast``:
every imported name is used, every module-level private name is used
somewhere in the package, ``qhc.__all__`` is exactly what
``qhc/__init__.py`` imports, and every function the benchmark tracer wraps
exists.  Deleting a function must delete its imports and its export too,
and a helper whose last caller goes must go with it.  One more check runs a
fresh interpreter: importing ``qhc.cli`` leaves out standard-library modules
qhc does not need."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qhc

PACKAGE = Path(qhc.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def exported_names(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [ast.literal_eval(e) for e in node.value.elts]
    return []


def test_package_has_modules():
    assert {p.name for p in MODULES} >= {"__init__.py", "boolfn.py", "cli.py", "util.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= set(exported_names(tree))
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each ``_name`` (not a dunder) that a module-level def, class or
    assignment binds, with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in nodes if isinstance(t, ast.Name)]
        else:
            continue
        names.update((n, node.lineno) for n in targets if n[0] == "_" and n[:2] != "__")
    return names


def test_every_private_helper_is_used():
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in MODULES}
    nodes = [n for tree in trees.values() for n in ast.walk(tree)]
    used = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    used |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    orphans = {f"{module}:{line}": name for module, tree in trees.items()
               for name, line in private_definitions(tree).items() if name not in used}
    assert not orphans, f"private names nothing in the package uses: {orphans}"


def test_all_is_exactly_what_init_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = exported_names(tree)
    assert len(exported) == len(set(exported)), "__all__ lists a name twice"
    assert set(exported) == set(imported_names(tree)) == set(qhc.__all__)
    for name in qhc.__all__:
        assert getattr(qhc, name) is not None


# Modules qhc does without; each import costs every command's start-up.
# numpy.random is needed only by key searches and sampled runs.  Older numpy
# releases (1.24 among them) load it with numpy itself, so what ``import
# numpy`` loads is not counted.
UNLOADED = ("fractions", "decimal", "numpy.random")


def test_cli_import_leaves_modules_unloaded():
    probe = (f"import sys, numpy; base = set(sys.modules); import qhc.cli; "
             f"print(*(m for m in {UNLOADED!r} if m in set(sys.modules) - base))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.split() == [], f"importing qhc.cli loads {done.stdout.split()}"


TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# Traced names the program no longer has, whose metrics read zero until the
# tracer follows the code (ROADMAP item 2): no other target may go missing.
KNOWN_MISSING = {"qhc.qhash.build_hash", "qhc.protocol.ErrorProfile.iter_rows",
                 "qhc.protocol.run_smp"}


def traced_targets() -> list[tuple[str, str]]:
    """(module, dotted name) of each entry of the tracer's ``TARGETS``, read
    from its source as data: the tracer is never imported."""
    tree = ast.parse(TRACER.read_text(), str(TRACER))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [(ast.literal_eval(e.elts[1]), ast.literal_eval(e.elts[2]))
                    for e in node.value.elts]
    raise AssertionError(f"{TRACER} has no TARGETS list")


def resolves(module: str, dotted: str) -> bool:
    owner = importlib.import_module(module)
    for part in dotted.split("."):
        owner = getattr(owner, part, None)
    return owner is not None


def test_traced_functions_exist():
    targets = traced_targets()
    assert len(targets) > 10
    missing = {f"{m}.{d}" for m, d in targets if not resolves(m, d)}
    assert missing <= KNOWN_MISSING, f"the tracer wraps names qhc no longer has: {missing - KNOWN_MISSING}"
