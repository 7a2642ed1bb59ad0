import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Public module-level def, class and assignment names, with their node."""
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
        found.update((name, node) for name in names if not name.startswith("_"))
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
            if name not in elsewhere | _loads(tree, node) and not re.search(rf"\b{name}\b", text):
                unused.append(f"{module}.{name}")
    return unused


def test_every_public_name_in_src_has_a_user():
    # code that only tests call does not belong in the package
    assert unused_public_names(ROOT) == []
