"""Every public top-level function or class of the package has a reader:
other code in src/, the benchmark harness in perfbench/, or the README's
library-API paragraph, which names the functions kept for library users.
A public name with none of these is dead code."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "expander_forge"


def _public_definitions(tree: ast.Module) -> list[ast.AST]:
    return [
        node for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def _names_read(tree: ast.AST, skip: frozenset = frozenset()) -> set[str]:
    """Names and attributes read anywhere in tree, outside the nodes in
    skip."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _perfbench_reads() -> set[str]:
    """What perfbench/*.py imports, reads, or names in a string, as its
    tracer does the functions it wraps."""
    found = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        found |= _names_read(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                found.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.add(node.value)
    return found


def _readme_library_api() -> set[str]:
    """The names in backquotes of the README paragraph that starts with
    "Library API", a dotted name read as its last part."""
    paragraphs = (ROOT / "README.md").read_text().split("\n\n")
    (paragraph,) = [p for p in paragraphs if p.startswith("Library API")]
    return {name.rsplit(".", 1)[-1] for name in re.findall(r"`([\w.]+)`", paragraph)}


def test_every_public_function_has_a_reader():
    trees = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    definitions = {
        node: path.stem for path, tree in trees.items() for node in _public_definitions(tree)
    }
    assert len(definitions) > 50
    src_reads = set()
    for tree in trees.values():
        src_reads |= _names_read(tree, frozenset(definitions))
    for node in definitions:  # a definition does not read itself
        src_reads |= _names_read(node) - {node.name}
    readers = src_reads | _perfbench_reads() | _readme_library_api()
    unread = sorted(f"{mod}.{node.name}" for node, mod in definitions.items()
                    if node.name not in readers)
    assert unread == []


def test_library_api_paragraph_names_only_public_definitions():
    defined = {
        node.name
        for path in PACKAGE.glob("*.py")
        for node in _public_definitions(ast.parse(path.read_text()))
    }
    assert _readme_library_api() <= defined
