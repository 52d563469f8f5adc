"""Static checks of the package source with the standard library's ``ast``:
every imported name is used, ``qhc.__all__`` is exactly what
``qhc/__init__.py`` imports, and every function the benchmark tracer wraps
exists.  Deleting a function must delete its imports and its export too."""

import ast
import importlib
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


def test_all_is_exactly_what_init_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = exported_names(tree)
    assert len(exported) == len(set(exported)), "__all__ lists a name twice"
    assert set(exported) == set(imported_names(tree)) == set(qhc.__all__)
    for name in qhc.__all__:
        assert getattr(qhc, name) is not None


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
