"""Query expressions: evaluation, validation, wire and text forms."""

import json

import pytest
from hypothesis import given, strategies as st

from samforge.errors import MalformedQuery
from samforge.query import (
    And,
    Atom,
    Not,
    Or,
    eval_query,
    expr_from_wire,
    expr_to_wire,
    parse_expr,
    validate_expr,
)
from samforge.records import FileRecord


RECORD = FileRecord(
    file_name="bphy0412_fs0007_0042.raw",
    size_bytes=2048,
    crc32=0,
    data_tier="raw",
    event_type="phy",
    program_version=4,
    calibration_set=12,
    parameters={"skim": "gold"},
)


@pytest.mark.parametrize("atom,expected", [
    (Atom("event_type", "=", "phy"), True),
    (Atom("event_type", "!=", "phy"), False),
    (Atom("data_tier", "in", ("prd", "ntp")), False),
    (Atom("program_version", "<", 10), True),
    (Atom("program_version", ">=", 10), False),
    (Atom("program_version", "<=", 4), True),
    (Atom("calibration_set", ">", 11), True),
    (Atom("param.skim", "=", "gold"), True),
    (Atom("param.skim", "in", ("gold", "silver")), True),
    # a missing parameter matches nothing, whatever the operator
    (Atom("param.absent", "=", "x"), False),
    (Atom("param.absent", "!=", "x"), False),
])
def test_atom_evaluation(atom, expected):
    validate_expr(atom)
    assert eval_query(atom, RECORD) is expected


def test_evaluating_an_unknown_operator_raises():
    with pytest.raises(MalformedQuery):
        eval_query(Atom("event_type", "~", "phy"), RECORD)


@pytest.mark.parametrize("bad", [
    Atom("no_such_key", "=", "x"),
    Atom("event_type", "~", "x"),
    Atom("event_type", "=", 3),
    Atom("program_version", "=", "four"),
    Atom("program_version", "=", True),
    Atom("param.", "=", "x"),
    Atom("event_type", "in", ()),
    Atom("event_type", "in", "phy"),
    And(()),
    Or(()),
    "not an expression",
])
def test_validate_rejects(bad):
    with pytest.raises(MalformedQuery):
        validate_expr(bad)


# Each base atom's truth against RECORD is established by hand above; the
# property checks only the combinators against Python's own and/or/not.
_TRUTHS = {
    Atom("event_type", "=", "phy"): True,
    Atom("event_type", "=", "min"): False,
    Atom("program_version", "<", 10): True,
    Atom("program_version", ">", 10): False,
    Atom("param.skim", "in", ("gold", "silver")): True,
    Atom("param.absent", "=", "x"): False,
}

_exprs = st.recursive(
    st.sampled_from(sorted(_TRUTHS, key=repr)),
    lambda children: st.one_of(
        st.lists(children, min_size=1, max_size=3).map(lambda xs: And(tuple(xs))),
        st.lists(children, min_size=1, max_size=3).map(lambda xs: Or(tuple(xs))),
        children.map(Not),
    ),
    max_leaves=8,
)


def _expected(expr):
    if isinstance(expr, Atom):
        return _TRUTHS[expr]
    if isinstance(expr, And):
        return all(_expected(e) for e in expr.items)
    if isinstance(expr, Or):
        return any(_expected(e) for e in expr.items)
    return not _expected(expr.item)


@given(_exprs)
def test_combinators_match_boolean_semantics(expr):
    validate_expr(expr)
    assert eval_query(expr, RECORD) is _expected(expr)


@given(_exprs)
def test_wire_round_trip(expr):
    wire = json.loads(json.dumps(expr_to_wire(expr)))
    assert expr_from_wire(wire) == expr


@pytest.mark.parametrize("bad_wire", [
    {},
    {"atom": {"key": "event_type", "op": "="}},
    {"and": "x"},
    {"xor": []},
    {"atom": {"key": "nope", "op": "=", "value": "x"}},
    [],
])
def test_wire_decode_rejects(bad_wire):
    with pytest.raises(MalformedQuery):
        expr_from_wire(bad_wire)


def test_parse_simple_conjunction():
    expr = parse_expr("event_type = phy AND data_tier = raw")
    assert expr == And((Atom("event_type", "=", "phy"), Atom("data_tier", "=", "raw")))


def test_parse_precedence_and_binds_tighter():
    expr = parse_expr("event_type = phy or event_type = min and data_tier = raw")
    assert expr == Or((
        Atom("event_type", "=", "phy"),
        And((Atom("event_type", "=", "min"), Atom("data_tier", "=", "raw"))),
    ))


def test_parse_parentheses_and_not():
    expr = parse_expr("not (event_type = phy or data_tier = raw)")
    assert expr == Not(Or((Atom("event_type", "=", "phy"), Atom("data_tier", "=", "raw"))))


def test_parse_in_list_and_quotes():
    assert parse_expr("param.skim in [gold, silver]") == \
        Atom("param.skim", "in", ("gold", "silver"))
    assert parse_expr("param.note = 'two words'") == Atom("param.note", "=", "two words")


def test_parse_integer_keys_get_integers():
    assert parse_expr("program_version >= 04") == Atom("program_version", ">=", 4)


@pytest.mark.parametrize("text", [
    "",
    "event_type ~ phy",
    "bogus = 1",
    "program_version = four",
    "event_type =",
    "(event_type = phy",
    "event_type = phy extra",
    "param.skim in []",
    "param.skim in [gold silver]",
])
def test_parse_rejects(text):
    with pytest.raises(MalformedQuery):
        parse_expr(text)


def test_parsed_equals_constructed_everywhere_it_matters():
    text = "(event_type in [phy, min] and program_version < 10) or not data_tier = ntp"
    expr = parse_expr(text)
    assert eval_query(expr, RECORD) is True
    assert expr_from_wire(expr_to_wire(expr)) == expr
