"""Source scans: no code in the package that only the tests reach."""

import ast
from pathlib import Path

import polyident

SRC = Path(polyident.__file__).parent

#: decorators that register the function they decorate, so that it runs
#: without being named again
REGISTERING = {"identity"}

#: module-level names no package code reaches, each with its reason
ALLOWED_UNREACHED = {
    # the reference the tests pin racah's running products to; it leaves the
    # package once the benchmark's per-layer trace (benchmarks/tracing.py)
    # stops naming exact.poch_quotient
    "exact.poch_quotient": "named by the benchmark trace",
    "exact._linear_factors": "poch_quotient's helper",
}


def _names(nodes) -> set[str]:
    """Every name the nodes load: bare names and attribute names."""
    found = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
    return found


def _registered(node) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id in REGISTERING for d in node.decorator_list)


def package_graph(src: Path):
    """(definitions, roots) of the modules in ``src``: each module-level
    function and class, by "module.name", with the names its own code
    loads; and the names that module-level code loads outside any
    definition, import and ``__all__``, with the handlers a decorator
    registers."""
    definitions: dict[str, set[str]] = {}
    roots: set[str] = set()
    for path in sorted(src.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions[f"{module}.{node.name}"] = _names([node])
                if _registered(node):
                    roots.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            elif (isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                continue
            else:
                roots |= _names([node])
    return definitions, roots


def unreached(src: Path) -> set[str]:
    """The module-level definitions in ``src`` that no code there reaches
    from module-level code, the entry points included, by name."""
    definitions, roots = package_graph(src)
    by_name: dict[str, list[str]] = {}
    for qualified in definitions:
        by_name.setdefault(qualified.split(".", 1)[1], []).append(qualified)
    reached: set[str] = set()
    frontier = [q for name in roots for q in by_name.get(name, ())]
    while frontier:
        qualified = frontier.pop()
        if qualified in reached:
            continue
        reached.add(qualified)
        frontier.extend(q for name in definitions[qualified] for q in by_name.get(name, ()))
    return set(definitions) - reached


class TestNoTestOnlyCode:
    def test_every_definition_is_reached_from_package_code(self):
        # a function or class that only the tests call belongs in tests/
        assert unreached(SRC) == set(ALLOWED_UNREACHED)

    def test_the_scan_finds_test_only_code(self, tmp_path):
        # the scan's own oracle, on a two-module package: a registered
        # handler, a dispatch table, an export and a test-only chain
        (tmp_path / "core.py").write_text(
            "from .table import identity\n"
            "__all__ = ['only_tests', 'used']\n"
            "def used():\n    return _helper()\n"
            "def _helper():\n    return 1\n"
            "def only_tests():\n    return _only_tests_helper()\n"
            "def _only_tests_helper():\n    return 2\n"
            "@identity('x')\ndef _handler():\n    return _in_handler()\n"
            "def _in_handler():\n    return 3\n"
            "class Unused:\n    def method(self):\n        return used()\n"
        )
        (tmp_path / "table.py").write_text(
            "from .core import used\n"
            "def identity(name):\n    return lambda fn: fn\n"
            "TABLE = {'used': used}\n"
        )
        assert unreached(tmp_path) == {"core.only_tests", "core._only_tests_helper",
                                       "core.Unused"}
