"""Metadata query expressions: boolean trees over file-record atoms.

Atoms compare a whitelisted key against a value (``event_type = phy``,
``param.skim in [gold, silver]``); AND/OR/NOT combine them.  Evaluation is
total over any record: an atom on a parameter the record lacks is false,
never an error, so heterogeneous catalogs resolve cleanly.

Integer keys compare numerically; string keys and parameters compare
lexicographically.  Expressions travel on the wire as plain dicts
(:func:`expr_to_wire` / :func:`expr_from_wire`) and have a small text
syntax for humans (:func:`parse_expr`).
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Union

from .errors import MalformedQuery

INT_KEYS = ("program_version", "calibration_set")
STR_KEYS = ("event_type", "data_tier")
PARAM_PREFIX = "param."
# each operator: what it computes of (the record's value, the atom's value)
_COMPARE = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "in": lambda actual, values: actual in values,
}
OPS = tuple(_COMPARE)


@dataclass(frozen=True)
class Atom:
    key: str
    op: str
    value: object


@dataclass(frozen=True)
class And:
    items: tuple


@dataclass(frozen=True)
class Or:
    items: tuple


@dataclass(frozen=True)
class Not:
    item: "Expr"


Expr = Union[Atom, And, Or, Not]


def validate_expr(expr: Expr) -> None:
    """Check keys, operators and value types; raise MalformedQuery if bad."""
    if isinstance(expr, Atom):
        _validate_atom(expr)
    elif isinstance(expr, (And, Or)):
        if not expr.items:
            raise MalformedQuery("AND/OR needs at least one operand")
        for item in expr.items:
            validate_expr(item)
    elif isinstance(expr, Not):
        validate_expr(expr.item)
    else:
        raise MalformedQuery(f"not an expression: {expr!r}")


def _validate_atom(atom: Atom) -> None:
    if atom.op not in OPS:
        raise MalformedQuery(f"unknown operator {atom.op!r}")
    if atom.key in INT_KEYS:
        scalar = int
    elif atom.key in STR_KEYS or atom.key.startswith(PARAM_PREFIX):
        scalar = str
        if atom.key.startswith(PARAM_PREFIX) and not atom.key[len(PARAM_PREFIX):]:
            raise MalformedQuery("empty parameter name")
    else:
        raise MalformedQuery(f"unknown key {atom.key!r}")
    if atom.op == "in":
        if not isinstance(atom.value, (list, tuple)) or not atom.value:
            raise MalformedQuery("'in' needs a non-empty list value")
        values = atom.value
    else:
        values = [atom.value]
    for v in values:
        if not isinstance(v, scalar) or isinstance(v, bool):
            raise MalformedQuery(
                f"value {v!r} has wrong type for key {atom.key!r} (want {scalar.__name__})"
            )


def eval_query(expr: Expr, record) -> bool:
    """Standard boolean semantics; deterministic and total."""
    if isinstance(expr, Atom):
        return _eval_atom(expr, record)
    if isinstance(expr, And):
        return all(eval_query(e, record) for e in expr.items)
    if isinstance(expr, Or):
        return any(eval_query(e, record) for e in expr.items)
    if isinstance(expr, Not):
        return not eval_query(expr.item, record)
    raise TypeError(f"not an expression: {expr!r}")


def _eval_atom(atom: Atom, record) -> bool:
    if atom.key.startswith(PARAM_PREFIX):
        actual = record.parameters.get(atom.key[len(PARAM_PREFIX):])
        if actual is None:
            return False  # missing parameter: atom is false, never an error
    else:
        actual = getattr(record, atom.key)
    compare = _COMPARE.get(atom.op)
    if compare is None:
        raise MalformedQuery(f"unknown operator {atom.op!r}")
    return compare(actual, atom.value)


# -- wire form -------------------------------------------------------------

def expr_to_wire(expr: Expr) -> dict:
    if isinstance(expr, Atom):
        value = list(expr.value) if isinstance(expr.value, tuple) else expr.value
        return {"atom": {"key": expr.key, "op": expr.op, "value": value}}
    if isinstance(expr, And):
        return {"and": [expr_to_wire(e) for e in expr.items]}
    if isinstance(expr, Or):
        return {"or": [expr_to_wire(e) for e in expr.items]}
    if isinstance(expr, Not):
        return {"not": expr_to_wire(expr.item)}
    raise TypeError(f"not an expression: {expr!r}")


def expr_from_wire(obj) -> Expr:
    """Decode and validate a wire dict; raises MalformedQuery on any defect."""
    expr = _decode(obj)
    validate_expr(expr)
    return expr


def _decode(obj) -> Expr:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise MalformedQuery(f"expression node must be a 1-key dict, got {obj!r}")
    kind, body = next(iter(obj.items()))
    if kind == "atom":
        if not isinstance(body, dict):
            raise MalformedQuery("atom body must be a dict")
        try:
            value = body["value"]
            if isinstance(value, list):
                value = tuple(value)
            return Atom(key=body["key"], op=body["op"], value=value)
        except KeyError as e:
            raise MalformedQuery(f"atom missing field {e}") from None
    if kind in ("and", "or"):
        if not isinstance(body, list):
            raise MalformedQuery(f"{kind} body must be a list")
        items = tuple(_decode(x) for x in body)
        return And(items) if kind == "and" else Or(items)
    if kind == "not":
        return Not(_decode(body))
    raise MalformedQuery(f"unknown node kind {kind!r}")


# -- text form -------------------------------------------------------------
#
#   expr   := or
#   or     := and (OR and)*
#   and    := unary (AND unary)*
#   unary  := NOT unary | '(' expr ')' | KEY OP value
#   value  := scalar | '[' scalar (',' scalar)* ']'
#
# Scalars are integers for integer keys, bare words or 'quoted strings'
# otherwise.  AND/OR/NOT are case-insensitive keywords.

_TOKEN = re.compile(
    r"\s*(?:(?P<lpar>\()|(?P<rpar>\))|(?P<lbrack>\[)|(?P<rbrack>\])|(?P<comma>,)"
    r"|(?P<op><=|>=|!=|=|<|>)|(?P<quoted>'[^']*')|(?P<word>[A-Za-z0-9_.\-]+))"
)


def parse_expr(text: str) -> Expr:
    """Parse the human query syntax; raises MalformedQuery on any defect."""
    tokens = _tokenize(text)
    parser = _Parser(tokens)
    expr = parser.parse_or()
    if parser.peek() is not None:
        raise MalformedQuery(f"trailing input at {parser.peek()[1]!r}")
    validate_expr(expr)
    return expr


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise MalformedQuery(f"cannot tokenize at {text[pos:pos+10]!r}")
            break
        pos = m.end()
        for kind, value in m.groupdict().items():
            if value is not None:
                tokens.append((kind, value))
                break
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise MalformedQuery("unexpected end of expression")
        self.i += 1
        return tok

    def parse_or(self) -> Expr:
        items = [self.parse_and()]
        while self._keyword("or"):
            items.append(self.parse_and())
        return items[0] if len(items) == 1 else Or(tuple(items))

    def parse_and(self) -> Expr:
        items = [self.parse_unary()]
        while self._keyword("and"):
            items.append(self.parse_unary())
        return items[0] if len(items) == 1 else And(tuple(items))

    def parse_unary(self) -> Expr:
        tok = self.peek()
        if tok is None:
            raise MalformedQuery("unexpected end of expression")
        if tok[0] == "word" and tok[1].lower() == "not":
            self.next()
            return Not(self.parse_unary())
        if tok[0] == "lpar":
            self.next()
            expr = self.parse_or()
            if self.next()[0] != "rpar":
                raise MalformedQuery("expected ')'")
            return expr
        return self.parse_atom()

    def parse_atom(self) -> Atom:
        kind, key = self.next()
        if kind != "word":
            raise MalformedQuery(f"expected a key, got {key!r}")
        kind, op = self.next()
        if kind == "word" and op.lower() == "in":
            op = "in"
        elif kind != "op":
            raise MalformedQuery(f"expected an operator after {key!r}, got {op!r}")
        numeric = key in INT_KEYS
        if op == "in":
            if self.next()[0] != "lbrack":
                raise MalformedQuery("'in' expects a [list]")
            values = [self._scalar(numeric)]
            while True:
                tok = self.next()
                if tok[0] == "rbrack":
                    break
                if tok[0] != "comma":
                    raise MalformedQuery("expected ',' or ']' in list")
                values.append(self._scalar(numeric))
            return Atom(key, "in", tuple(values))
        return Atom(key, op, self._scalar(numeric))

    def _scalar(self, numeric: bool):
        kind, text = self.next()
        if kind == "quoted":
            if numeric:
                raise MalformedQuery(f"integer key cannot compare to string {text}")
            return text[1:-1]
        if kind != "word":
            raise MalformedQuery(f"expected a value, got {text!r}")
        if numeric:
            try:
                return int(text)
            except ValueError:
                raise MalformedQuery(f"integer key needs an integer, got {text!r}") from None
        return text

    def _keyword(self, word: str) -> bool:
        tok = self.peek()
        if tok and tok[0] == "word" and tok[1].lower() == word:
            self.i += 1
            return True
        return False
