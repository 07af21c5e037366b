"""The package's public surface holds only code that the package, the demos or the benchmark run."""

from __future__ import annotations

import ast
from pathlib import Path

import bonusmalus

PACKAGE = Path(bonusmalus.__file__).parent
REPO = PACKAGE.parents[1]


def referenced_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name ``tree`` reads, attribute or imports, leaving out the subtree ``skip``."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        stack.extend(ast.iter_child_nodes(node))
    return names


def module_functions(tree: ast.Module) -> list[ast.FunctionDef]:
    return [node for node in tree.body if isinstance(node, ast.FunctionDef)]


def class_members(tree: ast.Module) -> list[ast.FunctionDef]:
    """Methods and properties of the module's public classes."""
    return [
        member
        for node in tree.body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
        for member in node.body
        if isinstance(member, ast.FunctionDef)
    ]


def definitions_without_a_caller(package: Path, callers: list[Path], definitions) -> list[str]:
    """Public ``definitions`` of ``package``'s modules that nothing outside their own body names.

    A definition counts as used when its own module names it outside its
    ``def``, or another module of the package does (``__init__.py``, which
    only re-exports, does not count), or one of the ``callers`` does.
    """
    modules = {
        path.stem: ast.parse(path.read_text())
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
    }
    outside = set().union(*(referenced_names(ast.parse(path.read_text())) for path in callers))
    used_by = {name: referenced_names(tree) for name, tree in modules.items()}
    unused = []
    for name, tree in modules.items():
        others = set().union(outside, *(used for other, used in used_by.items() if other != name))
        for node in definitions(tree):
            if not node.name.startswith("_"):
                if node.name not in others | referenced_names(tree, skip=node):
                    unused.append(f"{name}.{node.name}")
    return unused


CALLERS = sorted((REPO / "demos").glob("*.py")) + sorted((REPO / "perfbench").rglob("*.py"))


class TestPublicSurface:
    def test_every_public_function_has_a_production_caller(self):
        # A public function that only the package namespace or the tests
        # reach is verification code, which belongs in tests/.
        assert CALLERS
        assert definitions_without_a_caller(PACKAGE, CALLERS, module_functions) == []

    def test_every_public_method_has_a_production_caller(self):
        # The same holds for what a public class offers: a method or
        # property that only the tests read belongs in tests/.
        assert definitions_without_a_caller(PACKAGE, CALLERS, class_members) == []


class TestTableRoute:
    def test_only_the_relativity_layer_runs_field_passes_and_picks_families(self):
        # The table verbs, the scans and the oracle check read their tables
        # from ``relativity._tables``, which alone drives the field passes and
        # picks a table's family by the rule's type.
        used = {path.stem: referenced_names(ast.parse(path.read_text())) for path in PACKAGE.glob("*.py")}
        assert sorted(stem for stem, names in used.items() if "_fields_for" in names) == ["relativity"]
        builders = {f"optimal_relativity_{kind}" for kind in ("frequency", "dependent", "severity")}
        for stem in ("cli", "hmse", "verify"):
            assert used[stem].isdisjoint(builders), stem
