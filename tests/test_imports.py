"""Every name a package module imports is used there or re-exported by it, the
package exports exactly the names its modules declare in `__all__`, only
`model` imports json, every public numeric parameter takes only an int or
a Fraction, and every public count parameter only an int."""

import ast
import importlib
import inspect
import re
from decimal import Decimal
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

import pytest

import mopareto

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mopareto"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with the line that binds it."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    return bound


def _exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = _exported_names(tree)
    return sorted(
        (name, line)
        for name, line in _imported_names(tree).items()
        if name not in used and name not in exported
    )


def test_the_package_modules_are_found():
    assert {p.stem for p in MODULES} >= {"cli", "constructors", "dominance", "oracles"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def imports_json(source: str) -> bool:
    """Does the source import json, or anything from it?"""
    return any(
        (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "json" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json")
        for node in ast.walk(ast.parse(source))
    )


def test_only_model_reads_or_writes_json():
    assert {path.stem for path in MODULES if imports_json(path.read_text())} == {"model"}


def test_the_json_check_sees_every_form_of_import():
    for source in ("import json", "import json.decoder as d", "from json import dumps",
                   "from json.encoder import encode_basestring_ascii", "def f():\n    import json"):
        assert imports_json(source), source
    assert not imports_json("import jsonschema\nfrom .json_io import x\nimport csv")


def test_the_check_sees_plain_aliased_and_reexported_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from fractions import Fraction\n"
        "from typing import Callable\n"
        "from .model import Instance\n"
        "__all__ = ['Instance']\n"
        "def f(x: Callable) -> None:\n"
        "    return os.getcwd()\n"
    )
    assert unused_imports(source) == [("Fraction", 4), ("j", 3)]


def test_the_package_exports_exactly_its_modules_all():
    modules = [importlib.import_module(f"mopareto.{path.stem}") for path in MODULES]
    declared = [(module, name) for module in modules for name in getattr(module, "__all__", ())]
    exported = {
        name
        for name, value in vars(mopareto).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported == {name for _, name in declared}
    # a name two modules declare (GapQuery) is one object, so import order cannot shadow it
    assert all(getattr(mopareto, name) is getattr(module, name) for module, name in declared)


def solution_f_readers(source: str) -> set[str]:
    """Qualified names of the functions (methods as Class.name) that read an
    attribute `.f`, which in the package is only a Solution's objective vector."""
    readers = set()

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Attribute) and child.attr == "f":
                readers.add(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), ())
    return readers


# Every other path compares the instance's cached integer image (Instance._rows).
SOLUTION_F_READERS = {
    # file I/O
    "model.save_instance",
    # Instance validation and the image itself
    "model.Instance.__post_init__",
    "model.Instance._image",
    # the generators
    "generators.gen_duplicated",
    # the Fraction references
    "dominance.r_dominates",
    "dominance.exact_components",
    "oracles.valid_gap_answer",
    "oracles.consistent_gap_answer",
    # a cell's majority digraph, called with Solutions
    "domsets.tournament_view",
    # the gap construction's prune of the oracle's Solutions, which come with no instance
    "constructors.construct_via_gap",
}


def test_only_the_pinned_functions_read_a_solutions_values():
    readers = {
        f"{path.stem}.{name}" for path in MODULES for name in solution_f_readers(path.read_text())
    }
    assert readers == SOLUTION_F_READERS


def test_the_reader_check_sees_methods_lambdas_and_nested_functions():
    source = (
        "class A:\n"
        "    def m(self, s):\n"
        "        return s.f\n"
        "    def n(self, s):\n"
        "        return s.g\n"
        "def outer(items):\n"
        "    def inner(s):\n"
        "        return s.id\n"
        "    return min(items, key=lambda s: s.f)\n"
        "def deep(s):\n"
        "    def inner(t):\n"
        "        return t.f[0]\n"
        "    return inner(s)\n"
    )
    assert solution_f_readers(source) == {"A.m", "outer", "deep.inner"}


F = Fraction
BIOBJECTIVE = mopareto.gen_random(6, 2, seed=1)
FIVE_OBJECTIVES = mopareto.gen_random(4, 5, seed=1)

# Each public callable with a parameter named eps, delta, anchor, b, value or target,
# and a call that puts a value in that parameter, every other argument valid.  A new entry
# point with such a parameter joins this list, and so the exact-number rule.
NUMERIC_PARAMETERS = {
    "RelationSpec": {"eps": lambda v: mopareto.RelationSpec(mopareto.RelationKind.EPSILON, v)},
    "GapQuery": {
        "b": lambda v: mopareto.GapQuery(b=(F(1), v), delta=F(1, 2)),
        "delta": lambda v: mopareto.GapQuery(b=(F(1),), delta=v),
    },
    "half_step_delta": {"eps": lambda v: mopareto.half_step_delta(v)},
    "cell_coord": {
        "value": lambda v: mopareto.cell_coord(v, F(1, 2), F(1)),
        "anchor": lambda v: mopareto.cell_coord(F(2), v, F(1)),
        "eps": lambda v: mopareto.cell_coord(F(2), F(1), v),
    },
    "bucket": {"eps": lambda v: mopareto.bucket(BIOBJECTIVE, v)},
    "ratio_steps_to_reach": {
        "target": lambda v: mopareto.ratio_steps_to_reach(v, F(1)),
        "eps": lambda v: mopareto.ratio_steps_to_reach(F(2), v),
    },
    "weakly_efficient_lift": {
        "eps": lambda v: mopareto.weakly_efficient_lift(BIOBJECTIVE, BIOBJECTIVE.ids, v)
    },
    "construct_via_gap": {"eps": lambda v: mopareto.construct_via_gap(lambda q: None, v, 0, 1)},
    "greedy_biobjective_min": {"eps": lambda v: mopareto.greedy_biobjective_min(BIOBJECTIVE, v)},
    "dual_restrict_2approx": {"eps": lambda v: mopareto.dual_restrict_2approx(BIOBJECTIVE, v)},
    "gen_prop_dominated": {"eps": lambda v: mopareto.gen_prop_dominated(v)},
    "gen_prop_one_exact": {"delta": lambda v: mopareto.gen_prop_one_exact(v, 2)},
    "gen_quasi2_gap": {"eps": lambda v: mopareto.gen_quasi2_gap(v, 2)},
}
RESULT_RECORDS = {"GridBucketing": {"eps"}}  # built by the library, not taken from a caller
NOT_NUMBERS = {"RelationKind"}  # the Enum's `value` is a kind name, not a number


def public_numeric_parameters() -> dict[str, set[str]]:
    """Each public callable's parameters named eps, delta, anchor, b, value or target,
    when it has any."""
    found = {}
    for name, value in vars(mopareto).items():
        if name.startswith("_") or inspect.ismodule(value) or not callable(value):
            continue
        if name in NOT_NUMBERS:
            continue
        try:  # exception classes and type aliases have no signature, and no such parameter
            parameters = inspect.signature(value).parameters
        except (TypeError, ValueError):
            continue
        if named := {"eps", "delta", "anchor", "b", "value", "target"} & set(parameters):
            found[name] = named
    return found


def test_the_numeric_parameters_are_pinned():
    pinned = {name: set(calls) for name, calls in NUMERIC_PARAMETERS.items()}
    assert public_numeric_parameters() == pinned | RESULT_RECORDS


each_pinned_call = pytest.mark.parametrize(
    "call", [c for calls in NUMERIC_PARAMETERS.values() for c in calls.values()],
    ids=[f"{name}-{param}" for name, calls in NUMERIC_PARAMETERS.items() for param in calls],
)


class Three(IntEnum):  # an int subclass: exact type decides, so no number here
    THREE = 3


@pytest.mark.parametrize(
    "value",
    [0.5, Decimal("0.5"), float("nan"), Decimal("NaN"), float("inf"), True, Three.THREE],
    ids=repr,
)
@each_pinned_call
def test_each_numeric_parameter_refuses_a_number_that_is_not_exact(call, value):
    with pytest.raises(ValueError, match=" must be an int or a Fraction, got "):
        call(value)


@each_pinned_call
def test_each_pinned_call_accepts_an_exact_value(call):
    call(F(1, 2))
    call(1)


# Each public callable with a count parameter (n, p, l, k, seed, value_range, value_bound,
# node_limit), and a call that puts a value in that parameter, every other argument valid.
INTEGER_PARAMETERS = {
    "Instance": {"p": lambda v: mopareto.Instance(p=v, solutions=())},
    "RelationSpec": {"k": lambda v: mopareto.RelationSpec(mopareto.RelationKind.QUASI_K, F(1), v)},
    # p = 5, so that the accepted k = 3 meets 2k - 1 <= p
    "tournament_view": {"k": lambda v: mopareto.tournament_view(FIVE_OBJECTIVES.solutions, v)},
    "construct_via_gap": {
        "p": lambda v: mopareto.construct_via_gap(lambda q: None, F(1), 0, v),
        "value_bound": lambda v: mopareto.construct_via_gap(lambda q: None, F(1), v, 1),
    },
    "adversarial_pair": {"l": lambda v: mopareto.adversarial_pair(v)},
    "exact_min_dominating_set": {
        "node_limit": lambda v: mopareto.exact_min_dominating_set(
            mopareto.DominationDigraph(nodes=("a",), rows=(1,)), v
        ),
    },
    "gen_prop_one_exact": {"n": lambda v: mopareto.gen_prop_one_exact(F(1), v)},
    "gen_quasi2_gap": {"n": lambda v: mopareto.gen_quasi2_gap(F(1), v)},
    "gen_duplicated": {"p": lambda v: mopareto.gen_duplicated(BIOBJECTIVE, v, "one_exact_quasi2")},
    "gen_antichain": {"n": lambda v: mopareto.gen_antichain(v)},
    "gen_random": {
        "n": lambda v: mopareto.gen_random(v, 2, 1),
        "p": lambda v: mopareto.gen_random(3, v, 1),
        "seed": lambda v: mopareto.gen_random(3, 2, v),
        "value_range": lambda v: mopareto.gen_random(3, 2, 1, v),
    },
}
INTEGER_RECORDS = {"AdversarialPair": {"l"}}  # built by adversarial_pair, which checks l


def public_integer_parameters() -> dict[str, set[str]]:
    """Each public callable's parameters named n, p, l, k, seed, value_range, value_bound or
    node_limit."""
    found = {}
    for name, value in vars(mopareto).items():
        if name.startswith("_") or inspect.ismodule(value) or not callable(value):
            continue
        try:
            parameters = inspect.signature(value).parameters
        except (TypeError, ValueError):
            continue
        counts = {"n", "p", "l", "k", "seed", "value_range", "value_bound", "node_limit"}
        if named := counts & set(parameters):
            found[name] = named
    return found


def test_the_integer_parameters_are_pinned():
    pinned = {name: set(calls) for name, calls in INTEGER_PARAMETERS.items()}
    assert public_integer_parameters() == pinned | INTEGER_RECORDS


each_integer_call = pytest.mark.parametrize(
    "param, call",
    [(param, c) for calls in INTEGER_PARAMETERS.values() for param, c in calls.items()],
    ids=[f"{name}-{param}" for name, calls in INTEGER_PARAMETERS.items() for param in calls],
)


@pytest.mark.parametrize(
    "value", [1.5, 3.0, F(3), F(5, 2), Decimal(3), "3", None, True, Three.THREE], ids=repr
)
@each_integer_call
def test_each_integer_parameter_refuses_a_value_that_is_no_int(param, call, value):
    message = rf"^{param} must be an int, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        call(value)


@each_integer_call
def test_each_integer_call_accepts_an_int(param, call):
    call(3)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: mopareto.Instance(p=0, solutions=()), "an instance needs at least one objective"),
        (lambda: mopareto.construct_via_gap(lambda q: None, F(1), 0, 0), "p must be at least 1"),
        (lambda: mopareto.construct_via_gap(lambda q: None, F(1), -1, 1),
         "value_bound must be nonnegative"),
        (lambda: mopareto.adversarial_pair(0), "l must be a positive integer"),
        (lambda: mopareto.gen_prop_one_exact(F(1), 0), "n must be at least 1"),
        (lambda: mopareto.gen_quasi2_gap(F(1), 0), "n must be at least 1"),
        (lambda: mopareto.gen_duplicated(BIOBJECTIVE, 2, "one_exact_quasi2"),
         "target objective count must be at least 3"),
        (lambda: mopareto.gen_antichain(0), "n must be at least 1"),
        (lambda: mopareto.gen_random(0, 2, 1), "n and p must be at least 1"),
        (lambda: mopareto.gen_random(3, 0, 1), "n and p must be at least 1"),
        (lambda: mopareto.gen_random(3, 2, 1, 0), "value_range must be at least 1"),
    ],
)
def test_an_int_out_of_range_keeps_its_message(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
