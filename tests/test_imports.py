"""Every imported name is read somewhere in the module that imports it.

That src code has a caller is checked at run time, in
``test_reachability.py``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(path: Path) -> list[str]:
    """Names a module binds by import but never reads, as 'file:line name'."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # "import a.b" binds "a"
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{bound[name]} {name}"
            for name in sorted(set(bound) - read)]


def test_no_unused_imports():
    unused = []
    for folder in (ROOT / "src" / "banter", ROOT / "tests"):
        for path in sorted(folder.rglob("*.py")):
            unused += unused_imports(path)
    assert unused == [], "imported but never read:\n" + "\n".join(unused)
