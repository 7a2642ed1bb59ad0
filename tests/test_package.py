import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Module-level def, class and assignment names, with their node."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        found.update((name, node) for name in names)
    return found


def _loads(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names that tree reads: Name loads, attributes and import aliases, outside skip."""
    used = set()
    for node in ast.iter_child_nodes(tree):
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
        used |= _loads(node, skip)
    return used


def unused_public_names(root: Path) -> list[str]:
    """module.name for every public module-level name in root's package
    modules that no other code in them reads and that neither bench/*.py
    nor README.md mentions.  __init__ is left out: a re-export is no use."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted((root / "src" / "multiderange").glob("*.py"))
             if path.name != "__init__.py"}
    text = "\n".join(p.read_text() for p in [*(root / "bench").glob("*.py"), root / "README.md"])
    unused = []
    for module, tree in trees.items():
        elsewhere = set().union(*(_loads(t) for t in trees.values() if t is not tree))
        for name, node in _definitions(tree).items():
            if name.startswith("_"):
                continue
            if name not in elsewhere | _loads(tree, node) and not re.search(rf"\b{name}\b", text):
                unused.append(f"{module}.{name}")
    return unused


def test_every_public_name_in_src_has_a_user():
    # code that only tests call does not belong in the package
    assert unused_public_names(ROOT) == []


# Deleted names that must not be defined in src again, in any module: the
# guard above would let one back in as soon as the README mentions it.
TOMBSTONES = [
    "recurrence.specialize_alpha",  # only tests called it
    "oracle.cycle_count",  # only tests called it
    "oracle.NotABijection",  # cycle_count's error
    "polys.ALPHA_ONE",  # only tests read it
    "enumerator._mul_cut",  # a second product kernel beside polys.add_product
    "cli.ShapeParseError",  # a second exit-2 error family beside ValueError
    "selftest.sweep_suite",  # the four suites are one table in run_all
    "selftest.cycle_identity_suite",
    "selftest.deck_suite",
    "selftest.recurrence_suite",
]


def test_deleted_names_stay_deleted():
    deleted = {t.rpartition(".")[2] for t in TOMBSTONES}
    back = [f"{path.stem}.{name}"
            for path in sorted((ROOT / "src" / "multiderange").glob("*.py"))
            for name in _definitions(ast.parse(path.read_text())) if name in deleted]
    assert back == []
