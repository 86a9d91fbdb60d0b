"""Variable exponent functions on the half-line (0, oo).

An exponent is a function p with values in [1, oo) together with its limit
values p(0) and p_inf. Every exponent is an ExponentFunction holding one
expression tree (a constant, a parsed DSL expression or a piecewise table),
evaluated on one path. Exponents enter every norm computation pointwise, so
evaluation is vectorized over numpy arrays. The module also samples the
log-Holder constants at the two ends of the half-line, which are all the
key-estimate checks need:

    c_origin   = sup_x |p(x) - p(0)|   * ln(e + 1/x)
    c_infinity = sup_x |p(x) - p_inf|  * ln(e + x)

All logarithms are natural logarithms.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    ExponentSyntaxError,
    InvalidExponentError,
)

__all__ = ["ExponentFunction"]


# ---------------------------------------------------------------------------
# Expression DSL
#
# expr   := term (("+" | "-") term)*
# term   := factor (("*" | "/") factor)*
# factor := NUMBER | "t" | "e" | "(" expr ")"
#         | ("log" | "exp" | "min" | "max") "(" expr ("," expr)? ")"
#
# NUMBER is a plain decimal literal; scientific notation is not part of the
# grammar because "e" is the Euler constant. log takes one argument (natural
# log) or two (log base b as second argument). min and max take two. The
# parser never makes the ("table", arg, breakpoints, values) node of a
# piecewise exponent; only ExponentFunction.piecewise does.
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d*)?|\.\d+)|(?P<name>[A-Za-z_]+)|(?P<op>[+\-*/(),]))"
)

_FUNCTIONS = {"log", "exp", "min", "max"}


def _tokenize(source):
    tokens = []
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            bad_pos = len(source) - len(stripped)
            raise ExponentSyntaxError(f"unexpected character {stripped[0]!r}", bad_pos)
        if match.group("number") is not None:
            tokens.append(("number", float(match.group("number")), match.start("number")))
        elif match.group("name") is not None:
            tokens.append(("name", match.group("name"), match.start("name")))
        else:
            tokens.append(("op", match.group("op"), match.start("op")))
        pos = match.end()
    tokens.append(("end", None, len(source)))
    return tokens


class _Parser:
    def __init__(self, source):
        self.tokens = _tokenize(source)
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect_op(self, symbol):
        kind, value, pos = self.peek()
        if kind != "op" or value != symbol:
            raise ExponentSyntaxError(f"expected {symbol!r}", pos)
        return self.advance()

    def parse(self):
        tree = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ExponentSyntaxError(f"unexpected token {value!r}", pos)
        return tree

    def expr(self):
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                node = (value, node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                node = (value, node, self.factor())
            else:
                return node

    def factor(self):
        kind, value, pos = self.advance()
        if kind == "number":
            return ("num", value)
        if kind == "name":
            if value == "t":
                return ("t",)
            if value == "e":
                return ("num", math.e)
            if value in _FUNCTIONS:
                self.expect_op("(")
                first = self.expr()
                second = None
                k, v, _ = self.peek()
                if k == "op" and v == ",":
                    self.advance()
                    second = self.expr()
                self.expect_op(")")
                return self._apply(value, first, second, pos)
            raise ExponentSyntaxError(f"unknown name {value!r}", pos)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExponentSyntaxError("expected a number, t, e, function or parenthesis", pos)

    @staticmethod
    def _apply(name, first, second, pos):
        if name in ("min", "max"):
            if second is None:
                raise ExponentSyntaxError(f"{name} requires two arguments", pos)
            return (name, first, second)
        if name == "exp":
            if second is not None:
                raise ExponentSyntaxError("exp takes a single argument", pos)
            return ("exp", first)
        if second is None:
            return ("log", first)
        return ("logb", first, second)


def parse_expression(source):
    """Parse DSL source into an expression tree, raising on malformed input."""
    return _Parser(source).parse()


def evaluate_expression(tree, t):
    """Evaluate an expression tree at t (scalar or array), in double precision."""
    t = np.asarray(t, dtype=float)
    with np.errstate(all="ignore"):
        return _eval(tree, t)


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "/": operator.truediv, "min": np.minimum, "max": np.maximum,
        "log": np.log, "exp": np.exp, "logb": lambda a, b: np.log(a) / np.log(b)}


def _eval(tree, t):
    head = tree[0]
    if head == "num":
        return np.full_like(t, tree[1])
    if head == "t":
        return t.copy()
    if head == "table":
        return np.asarray(tree[3])[np.searchsorted(tree[2], _eval(tree[1], t),
                                                   side="right")]
    if head not in _OPS:
        raise ConfigError(f"unknown expression node {head!r}")
    if len(tree) == 2:
        return _OPS[head](_eval(tree[1], t))
    return _OPS[head](_eval(tree[1], t), _eval(tree[2], t))


# ---------------------------------------------------------------------------
# Exponent functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentFunction:
    """A variable exponent p: (0, oo) -> [1, oo) with limits p(0) and p_inf.

    Every exponent is one expression tree: a constant c is ("num", c), an
    expression is its parsed tree and a piecewise table is a
    ("table", arg, breakpoints, values) node. Calling an exponent evaluates
    the tree, checks that the values are finite and >= 1 - 1e-12, and
    clamps them at 1. Instances are immutable, hashable and compare by
    limits and tree.
    """

    p_at_zero: float
    p_at_infinity: float
    tree: tuple = field(repr=False)
    _grid_values: dict = field(default_factory=dict, init=False, repr=False,
                               compare=False)

    @classmethod
    def constant(cls, value):
        value = float(value)
        if not math.isfinite(value) or value < 1.0:
            raise InvalidExponentError(f"constant exponent {value} is below 1")
        return cls(value, value, ("num", value))

    @classmethod
    def from_expression(cls, source, p_at_zero=None, p_at_infinity=None):
        """Build an exponent from DSL source.

        The limits p(0) and p_inf are the tree at t = 0 and t = inf in IEEE
        arithmetic (1/0 = inf, log(inf) = inf). Where that is NaN, an
        indeterminate form such as t/(1 + t) at inf, the limit must be given;
        elsewhere a given limit must agree with it to 1e-12 relative. A limit
        must be finite and >= 1 - 1e-12 and is clamped at 1, as exponent
        values are. Source that is a bare number is a constant exponent.
        """
        tree = parse_expression(source)
        ends = evaluate_expression(tree, np.array([0.0, np.inf])).tolist()
        return cls(_limit(ends[0], p_at_zero, "p_at_zero", "@0"),
                   _limit(ends[1], p_at_infinity, "p_at_infinity", "@inf"), tree)

    @classmethod
    def piecewise(cls, breakpoints, values):
        """Piecewise-constant table with left-closed, right-open cells.

        breakpoints b_1 < ... < b_k split (0, oo) into cells
        (0, b_1), [b_1, b_2), ..., [b_k, oo); values has length k + 1. The
        limits p(0) and p_inf are the values of the end cells.
        """
        breakpoints = np.asarray(breakpoints, dtype=float)
        values = np.asarray(values, dtype=float)
        if breakpoints.ndim != 1 or values.ndim != 1 or len(values) != len(breakpoints) + 1:
            raise ConfigError("piecewise table needs len(values) == len(breakpoints) + 1")
        if len(breakpoints) and (np.any(np.diff(breakpoints) <= 0) or breakpoints[0] <= 0):
            raise ConfigError("piecewise breakpoints must be positive and increasing")
        if np.any(values < 1.0) or not np.all(np.isfinite(values)):
            raise InvalidExponentError("piecewise exponent values must be finite and >= 1")
        return cls(float(values[0]), float(values[-1]),
                   ("table", ("t",), tuple(breakpoints.tolist()), tuple(values.tolist())))

    @property
    def is_constant(self):
        return self.tree[0] == "num"

    def reflected(self):
        """t -> p(1/t), whose limits are p_inf at 0 and p(0) at infinity."""
        return ExponentFunction(self.p_at_infinity, self.p_at_zero,
                                _reflect(self.tree))

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        scalar = t_arr.ndim == 0
        t_arr = np.atleast_1d(t_arr)
        if (t_arr <= 0.0).any() or not np.isfinite(t_arr).all():
            raise DomainError("exponent argument must be a finite positive real")
        out = _checked(evaluate_expression(self.tree, t_arr), "exponent value")
        return float(out[0]) if scalar else out

    def on_grid(self, grid):
        """The values at the nodes of a HaarGrid, as a read-only array.

        They are evaluated, and so validated, on the first call for a grid
        and kept for later calls with an equal grid.
        """
        values = self._grid_values.get(grid)
        if values is None:
            values = self(grid.nodes)
            values.flags.writeable = False
            self._grid_values[grid] = values
        return values


def _reflect(tree):
    """The tree with t replaced by 1/t, outside a table's number tuples."""
    head = tree[0]
    if head == "t":
        return ("/", ("num", 1.0), ("t",))
    if head == "num":
        return tree
    if head == "table":
        return (head, _reflect(tree[1]), *tree[2:])
    return (head, *map(_reflect, tree[1:]))


def _limit(end, given, name, annotation):
    """The limit at an end where the tree evaluates to end; see from_expression."""
    if math.isnan(end):
        if given is None:
            raise InvalidExponentError(
                f"{name} is indeterminate: the expression is NaN at this "
                f"end; pass {name}= ({annotation}= on the command line)")
        end = float(given)
    elif given is not None and not abs(float(given) - end) <= 1e-12 * abs(end):
        raise InvalidExponentError(f"given {name}={given} contradicts the "
                                   f"expression's limit {end!r}")
    return float(_checked(np.array([end]), f"the limit {name}")[0])


def _checked(values, name):
    """Exponent values or a limit, as an array: each must be finite and
    >= 1 - 1e-12, and is clamped at 1."""
    if not np.isfinite(values).all():
        raise InvalidExponentError(f"{name} is not finite")
    if (values < 1.0 - 1e-12).any():
        raise InvalidExponentError(f"{name} is below 1")
    return np.maximum(values, 1.0)


# ---------------------------------------------------------------------------
# Log-Holder constants at the ends
# ---------------------------------------------------------------------------


def _log_holder_endpoints(values, limit_at_zero, limit_at_infinity, nodes):
    """(c_origin, c_infinity) of function values sampled on nodes; O(n)."""
    c_origin = float(np.max(np.abs(values - limit_at_zero) * np.log(math.e + 1.0 / nodes)))
    c_infinity = float(np.max(np.abs(values - limit_at_infinity) * np.log(math.e + nodes)))
    return c_origin, c_infinity
