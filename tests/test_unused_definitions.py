"""Every function, class and method that src/mcplab defines is reached
from the package or from the benchmark, so that no API lives on only for
the tests.  Tests keep their oracles in their own modules.

The match is by name, so a use of a name anywhere counts for every
definition of that name: a local variable `at` would hide a method `at`."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# model_to_dict writes the --model JSON schema that README points users to;
# it is API for that file format although no program path calls it.
EXEMPT = {"model_to_dict"}
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node, inside, defs, uses):
    """Collect the definitions under node into defs and every name it
    uses into uses, leaving out a definition's uses of its own name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, DEFINITIONS):
            defs.append(child.name)
            _names(child, inside | {child.name}, defs, uses)
            continue
        if isinstance(child, ast.Name):
            name = child.id
        elif isinstance(child, ast.Attribute):
            name = child.attr
        elif isinstance(child, ast.alias):
            name = child.name
        else:
            name = None
        if name is not None and name not in inside:
            uses.add(name)
        _names(child, inside, defs, uses)


def unused_definitions(package, others):
    """Names defined in the package's modules that no module of the
    package (outside the definition itself) or of others names."""
    defs, uses = [], set()
    for path in sorted(package.glob("*.py")):
        _names(ast.parse(path.read_text()), frozenset(), defs, uses)
    for path in sorted(others.glob("*.py")):
        _names(ast.parse(path.read_text()), frozenset(), [], uses)
    return sorted(
        name for name in set(defs)
        if name not in uses and name not in EXEMPT
        and not (name.startswith("__") and name.endswith("__"))
    )


def test_every_package_definition_is_reached_outside_the_tests():
    assert unused_definitions(ROOT / "src" / "mcplab", ROOT / "bench") == []
