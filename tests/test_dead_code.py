"""Every top-level function and class in ``html_parser_ray/`` and the
driver module has a caller: its name is read somewhere in the repo's
Python (a call, an attribute, an import, or a name passed as a string).
Tests count as callers."""

import ast
import pathlib

REPO = pathlib.Path(__file__).resolve().parent.parent
# the driver's contract: called by name from outside the repo
DRIVER_CONTRACT = {"entry", "queries", "oracle_sql"}


def _sources():
    for path in sorted(REPO.rglob("*.py")):
        if not any(part.startswith(".") for part in path.parts):
            yield path.relative_to(REPO), ast.parse(path.read_text())


def test_every_top_level_definition_has_a_caller():
    defined: dict[str, str] = {}
    used: set[str] = set()
    for rel, tree in _sources():
        if rel.parts[0] == "html_parser_ray" or rel.name == "__ray_entry__.py":
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    defined[node.name] = str(rel)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                used.add(node.value)
    dead = {name: where for name, where in defined.items()
            if name not in used and name not in DRIVER_CONTRACT}
    assert dead == {}
