"""Every imported name is read somewhere in the module that imports it, and
every name src defines is named by other src code."""

import ast
from collections import Counter
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


# names kept for callers outside src; this list should only shrink
SRC_CALLERS_ELSEWHERE = {
    # read by perfbench's checks (c) and (d) until they read `scores`
    "DialogPrediction.probabilities",
}


def definitions(tree: ast.Module):
    """Top-level functions and classes, and @property methods of classes,
    as (qualified name, bare name, node)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and any(
                        isinstance(d, ast.Name) and d.id == "property"
                        for d in item.decorator_list):
                    yield f"{node.name}.{item.name}", item.name, item


def names_read(node: ast.AST) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_src_name_has_a_src_caller():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "banter").rglob("*.py"))}
    read = sum((names_read(tree) for tree in trees.values()), Counter())
    uncalled = [f"{path.relative_to(ROOT)}:{node.lineno} {qualified}"
                for path, tree in trees.items()
                for qualified, name, node in definitions(tree)
                if read[name] == names_read(node)[name]
                and qualified not in SRC_CALLERS_ELSEWHERE]
    assert uncalled == [], ("defined in src but named nowhere else in "
                            "src:\n" + "\n".join(uncalled))
