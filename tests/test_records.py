"""The record contract: the package's value classes behave as the frozen
dataclasses they replace, without importing dataclasses.

``expr.Record`` gives the 23 records their fields, a generated
``__init__``, ``==``, hash, repr and frozenness.  ``dataclasses.fields``
still works on them, because perfbench's tracer reads expression nodes
through it.
"""

import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mpf

import quadrules
from quadrules.analysis import Reference, TableRow
from quadrules.associate import (COMPANION_PAIRS, AssociateWeights,
                                 AssumptionVerdict, Bracket, CompanionPair)
from quadrules.expr import (Add, Cos, DifferentiationError, Div, Expression,
                            Mul, Neg, Num, PiConst, Pow, Record, Sin, Sqrt,
                            Sub, Var, _Infix, _Unary, differentiate, parse)
from quadrules.integrand import Integrand, builtin_integrand
from quadrules.rules import RULES, Interval, RuleSpec

from oracles import reference_repr

X = Var()

# one instance of each record class, with its repr as the dataclasses
# printed it
RECORDS = [
    (Num(2), "Num(value=2)"),
    (Num("-0.5"), "Num(value='-0.5')"),
    (PiConst(), "PiConst()"),
    (X, "Var()"),
    (_Infix(X, Num(1)), "_Infix(left=Var(), right=Num(value=1))"),
    (Add(X, Num(1)), "Add(left=Var(), right=Num(value=1))"),
    (Sub(X, PiConst()), "Sub(left=Var(), right=PiConst())"),
    (Mul(Num(3), X), "Mul(left=Num(value=3), right=Var())"),
    (Div(Num(1), X), "Div(left=Num(value=1), right=Var())"),
    (Pow(X, Num(2)), "Pow(base=Var(), exponent=Num(value=2))"),
    (_Unary(X), "_Unary(arg=Var())"),
    (Neg(X), "Neg(arg=Var())"),
    (Sin(X), "Sin(arg=Var())"),
    (Cos(X), "Cos(arg=Var())"),
    (Sqrt(Add(X, Num(1))), "Sqrt(arg=Add(left=Var(), right=Num(value=1)))"),
    (RULES["S"], "RuleSpec(name='S', degree=3, error_sign='negative', "
                 "error_denominator=2880)"),
    (Interval(0, "1/2"), "Interval(a=Num(value=0), "
                         "b=Div(left=Num(value=1), right=Num(value=2)))"),
    (COMPANION_PAIRS[0],
     "CompanionPair(positive=RuleSpec(name='L', degree=0, "
     "error_sign='positive', error_denominator=2), negative=RuleSpec("
     "name='R', degree=0, error_sign='negative', error_denominator=2))"),
    (AssociateWeights(1, 2), "AssociateWeights(c1=1, c2=2)"),
    (Bracket(mpf(1), mpf("2.5")), "Bracket(lo=mpf('1.0'), hi=mpf('2.5'))"),
    (AssumptionVerdict("sign_change", (mpf(0), mpf(1))),
     "AssumptionVerdict(kind='sign_change', "
     "subinterval=(mpf('0.0'), mpf('1.0')))"),
    (Reference(PiConst()), "Reference(expression=PiConst())"),
    (TableRow(1, "L", {}, {}), "TableRow(panels=1, order='L', errors={}, "
                               "assumptions={}, note=None)"),
    (Integrand(Mul(Num(2), X), Interval(0, 1), PiConst(), "twice"),
     "Integrand(expression=Mul(left=Num(value=2), right=Var()), "
     "interval=Interval(a=Num(value=0), b=Num(value=1)), "
     "reference=PiConst(), name='twice')"),
]
NODES = [r for r, _ in RECORDS[:15]]


def _package_records():
    """Every Record subclass defined in a quadrules module."""
    for info in pkgutil.iter_modules(quadrules.__path__):
        importlib.import_module(f"quadrules.{info.name}")
    found, stack = set(), [Record]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if sub.__module__.startswith("quadrules."):
                found.add(sub)
    return found


def test_importing_the_cli_loads_neither_dataclasses_nor_serializers():
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    code = ("import sys, quadrules.cli\n"
            "print(*sorted({'dataclasses', 'inspect', 'json', 'csv'}"
            " & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


def test_every_record_class_is_pinned():
    classes = {type(r) for r, _ in RECORDS}
    assert len(classes) == 23
    assert len({type(n) for n in NODES}) == 14


@pytest.mark.parametrize("node", NODES, ids=lambda n: type(n).__name__)
def test_dataclass_fields_of_a_node_are_its_match_args(node):
    names = [f.name for f in dataclasses.fields(node)]
    assert names == list(type(node).__match_args__)
    assert [f.name for f in dataclasses.fields(type(node))] == names


@pytest.mark.parametrize("record, text", RECORDS,
                         ids=[type(r).__name__ for r, _ in RECORDS])
def test_repr_is_the_dataclass_text(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("depth", [2000, 20000])
def test_repr_of_a_deep_tree_does_not_recurse(depth):
    tree = parse("sin(" * depth + "x" + ")" * depth)
    assert repr(tree) == "Sin(arg=" * depth + "Var()" + ")" * depth


def _trees():
    atoms = st.one_of(st.integers(-9, 9).map(Num),
                      st.sampled_from(("2.5", "-0.5")).map(Num),
                      st.just(X), st.just(PiConst()))

    def extend(children):
        return st.one_of(
            st.builds(lambda t, a, b: t(a, b),
                      st.sampled_from((Add, Sub, Mul, Div, Pow)),
                      children, children),
            st.builds(lambda t, a: t(a), st.sampled_from((Neg, Sin, Cos,
                                                          Sqrt)), children))

    return st.recursive(atoms, extend, max_leaves=25)


@settings(max_examples=200, deadline=None)
@given(_trees())
def test_repr_equals_the_recursive_text(tree):
    # f' shares subtrees, which print once per occurrence; an integrand
    # holds records beside plain fields
    records = [tree, Integrand(tree, Interval(0, 1), PiConst(), "f")]
    try:
        records.append(differentiate(tree))
    except DifferentiationError:
        pass
    for record in records:
        assert repr(record) == reference_repr(record)


def test_every_package_record_class_is_sampled_and_frozen():
    classes = _package_records()
    assert classes == {type(r) for r, _ in RECORDS} | {Expression}
    for record, _ in RECORDS:
        for name in type(record).__match_args__ + ("anything",):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
    with pytest.raises(TypeError):  # there is no mutable mode
        type("Mutable", (Record,), {}, frozen=False)


@pytest.mark.parametrize("record", [r for r, _ in RECORDS],
                         ids=[type(r).__name__ for r, _ in RECORDS])
def test_records_hash_by_their_fields(record):
    if isinstance(record, TableRow):  # its fields hold dicts
        with pytest.raises(TypeError):
            hash(record)
    else:
        fields = [getattr(record, name) for name in record.__match_args__]
        assert hash(record) == hash(type(record)(*fields))


def test_every_constructor_is_generated_from_the_fields():
    # parameters are the fields in order, and a default is the class
    # attribute of its field's name
    for cls in _package_records():
        params = list(inspect.signature(cls).parameters.values())
        assert [p.name for p in params] == list(cls.__match_args__)
        for p in params:
            assert p.kind is p.POSITIONAL_OR_KEYWORD
            assert p.default is getattr(cls, p.name, p.empty), \
                (cls.__name__, p.name)
        assert cls.__init__.__code__.co_filename == "<generated>"
    assert inspect.signature(TableRow).parameters["note"].default is None
    assert list(inspect.signature(Integrand).parameters) == \
        ["expression", "interval", "reference", "name"]


def test_only_the_base_compares_and_hashes():
    # one walk for every record: no subclass brings its own == or hash
    for cls in _package_records():
        assert not {"__eq__", "__hash__"} & set(vars(cls)), cls.__name__
    assert {"__eq__", "__hash__"} <= set(vars(Record))


def test_equality_is_same_class_and_equal_fields():
    assert Add(X, Num(1)) == Add(Var(), Num(1))
    assert hash(Add(X, Num(1))) == hash(Add(Var(), Num(1)))
    assert Add(X, Num(1)) != Sub(X, Num(1))
    assert Add(X, Num(1)) != Add(X, Num(2))
    assert Num(1) != 1 and PiConst() != Var()
    assert RuleSpec("S", 3, "negative", 2880) == RULES["S"]
    assert Interval(0, 1) == Interval(Num(0), "1")
    assert builtin_integrand("asin6") == builtin_integrand("asin6")
    assert builtin_integrand("asin6") != builtin_integrand("atan2")


def test_the_generic_constructor_takes_positions_names_and_defaults():
    assert AssumptionVerdict("unknown").subinterval is None
    assert AssociateWeights(c2=3, c1=2) == AssociateWeights(2, 3)
    row = TableRow(2, "LR", {"L": 1}, {}, note="aborted")
    assert (row.errors, row.assumptions, row.note) == ({"L": 1}, {}, "aborted")
    assert TableRow(1, "L", {}, {}).note is None
    with pytest.raises(TypeError, match="missing 1 required positional "
                                        "argument: 'assumptions'"):
        TableRow(1, "L", {})
    for args, kwargs in [((1,), {}), ((1, 2, 3), {}), ((1,), {"c1": 2}),
                         ((1, 2), {"c3": 3})]:
        with pytest.raises(TypeError):
            AssociateWeights(*args, **kwargs)


def test_post_init_checks_still_fire():
    s, t, m = RULES["S"], RULES["T"], RULES["M"]
    with pytest.raises(ValueError, match="share a degree"):
        CompanionPair(m, s)
    with pytest.raises(ValueError, match="one positive and one negative"):
        CompanionPair(t, m)
    with pytest.raises(ValueError, match="positive integers"):
        AssociateWeights(0, 1)
    with pytest.raises(ValueError, match="coprime"):
        AssociateWeights(2, 4)
    with pytest.raises(ValueError, match="lo <= hi"):
        Bracket(mpf(2), mpf(1))
