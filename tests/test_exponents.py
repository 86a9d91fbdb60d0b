import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varinterp import (
    DomainError,
    ExponentFunction,
    ExponentSyntaxError,
    HaarGrid,
    InvalidExponentError,
    KMethodParams,
    parse_exponent,
)
from varinterp.exponents import (
    _log_holder_endpoints,
    evaluate_expression,
    parse_expression,
)
from varinterp.varleb import DEFAULT_GRID


def test_constant_exponent():
    p = ExponentFunction.constant(2.5)
    assert p.is_constant
    assert p(1.0) == 2.5
    assert p.p_at_zero == 2.5 and p.p_at_infinity == 2.5
    assert np.array_equal(p(np.array([0.1, 1.0, 10.0])), [2.5, 2.5, 2.5])


def test_constant_must_be_at_least_one():
    with pytest.raises(InvalidExponentError):
        ExponentFunction.constant(0.5)


def test_log_perturbed_expression_values():
    p = ExponentFunction.from_expression("2 + 1/log(e + 1/t)")
    assert p(1.0) == pytest.approx(2.0 + 1.0 / math.log(math.e + 1.0), rel=1e-15)
    # probed limits: the probe points stand in for t -> 0 and t -> inf
    assert p.p_at_zero == pytest.approx(2.0 + 1.0 / math.log(math.e + 1e12))
    assert p.p_at_infinity == pytest.approx(2.0 + 1.0 / math.log(math.e + 1e-12))


def test_explicit_limits_override_probes():
    p = ExponentFunction.from_expression("2 + 1/log(e + 1/t)",
                                         p_at_zero=2.0, p_at_infinity=3.0)
    assert p.p_at_zero == 2.0
    assert p.p_at_infinity == 3.0


def test_bare_number_collapses_to_constant():
    p = ExponentFunction.from_expression("3.25")
    assert p.is_constant
    assert p(0.7) == 3.25


@pytest.mark.parametrize("source, column", [
    ("2 +", 3),
    ("2 ** 3", 3),
    ("log()", 4),
    ("(1 + t", 6),
    ("2 3", 2),
])
def test_syntax_errors_carry_position(source, column):
    with pytest.raises(ExponentSyntaxError) as err:
        parse_expression(source)
    assert err.value.position == column
    assert f"column {column}" in str(err.value)


def test_scientific_notation_is_not_a_number():
    # 'e' is Euler's constant in this grammar, so 1e3 reads as 1*e*3 at best
    # and must fail to parse as a single number
    with pytest.raises(ExponentSyntaxError):
        parse_expression("1e3")


def test_expression_operations():
    tree = parse_expression("min(t, 1/t)")
    out = evaluate_expression(tree, np.array([0.5, 1.0, 2.0]))
    assert np.allclose(out, [0.5, 1.0, 0.5])
    tree = parse_expression("max(2, exp(1))")
    assert evaluate_expression(tree, np.array([1.0]))[0] == pytest.approx(math.e)
    tree = parse_expression("log(8, 2)")
    assert evaluate_expression(tree, np.array([1.0]))[0] == pytest.approx(3.0)


def test_piecewise_cells_left_closed():
    p = ExponentFunction.piecewise([0.5, 2.0], [1.5, 3.0, 2.5])
    assert p(0.1) == 1.5
    assert p(0.5) == 3.0
    assert p(1.99) == 3.0
    assert p(2.0) == 2.5
    assert p.p_at_zero == 1.5 and p.p_at_infinity == 2.5


LOG_TYPE = "1.7 + 0.6/log(e + 1/t)"  # the suite's c + d/log(e + 1/t)

TWINS = [
    lambda: ExponentFunction.constant(2.5),
    lambda: ExponentFunction.from_expression(LOG_TYPE),
    lambda: ExponentFunction.from_expression(LOG_TYPE, p_at_zero=1.7,
                                             p_at_infinity=2.3),
    lambda: ExponentFunction.piecewise([0.5, 2.0], [1.5, 3.0, 2.5]),
    lambda: ExponentFunction.piecewise([0.5, 2.0], [1.5, 3.0, 2.5]).reflected(),
]


@pytest.mark.parametrize("make", TWINS)
def test_exponent_equals_and_hashes_like_its_twin(make):
    p, twin = make(), make()
    p.on_grid(DEFAULT_GRID)  # the grid cache takes no part in == or hash
    assert p == twin and hash(p) == hash(twin)
    assert KMethodParams(0.5, p, DEFAULT_GRID) == KMethodParams(0.5, twin, DEFAULT_GRID)
    assert hash(KMethodParams(0.5, p, DEFAULT_GRID)) == hash(
        KMethodParams(0.5, twin, DEFAULT_GRID))


def test_exponents_compare_by_value():
    table = ExponentFunction.piecewise([0.5, 2.0], [1.5, 3.0, 2.5])
    assert table != ExponentFunction.piecewise([0.5, 2.0], [1.5, 3.0, 2.6])
    assert table != ExponentFunction.piecewise([0.5, 3.0], [1.5, 3.0, 2.5])
    assert ExponentFunction.constant(2.5) != ExponentFunction.constant(3.0)
    assert ExponentFunction.from_expression("2.5") == ExponentFunction.constant(2.5)
    assert len({table, ExponentFunction.piecewise([0.5, 2.0], [1.5, 3.0, 2.5])}) == 1


REFLECT_CASES = [
    ExponentFunction.constant(2.5),
    ExponentFunction.from_expression(LOG_TYPE, p_at_zero=1.7, p_at_infinity=2.3),
    ExponentFunction.piecewise([0.5, 2.0], [1.5, 3.0, 2.5]),
]


@pytest.mark.parametrize("q", REFLECT_CASES)
def test_reflected_matches_the_closure_bit_for_bit(q):
    # pointwise reference: q at 1/t
    def q_reflected(ts):
        return np.asarray(q(1.0 / np.asarray(ts, dtype=float)), dtype=float)

    nodes = DEFAULT_GRID.nodes
    assert q.reflected().on_grid(DEFAULT_GRID).tobytes() == q_reflected(nodes).tobytes()


@pytest.mark.parametrize("q", REFLECT_CASES)
def test_reflected_limits(q):
    r = q.reflected()
    assert (r.p_at_zero, r.p_at_infinity) == (q.p_at_infinity, q.p_at_zero)
    assert r.is_constant == q.is_constant


def test_call_rejects_bad_arguments():
    p = ExponentFunction.constant(2.0)
    with pytest.raises(DomainError):
        p(0.0)
    with pytest.raises(DomainError):
        p(-1.0)
    with pytest.raises(DomainError):
        p(math.inf)


@pytest.mark.parametrize("limits", [
    {"p_at_zero": 0.95}, {"p_at_infinity": 0.5},
    {"p_at_zero": math.nan}, {"p_at_infinity": math.inf},
    {"p_at_zero": -math.inf},
])
def test_given_limits_checked_as_probed_ones(limits):
    with pytest.raises(InvalidExponentError):
        ExponentFunction.from_expression("2 + t", **limits)


def test_given_limit_clamped_at_one():
    p = ExponentFunction.from_expression("1 + t", p_at_zero=1.0 - 1e-13)
    assert p.p_at_zero == 1.0


def test_expression_below_one_rejected_at_call():
    p = ExponentFunction.from_expression("1 - min(t, 1/t)",
                                         p_at_zero=1.0, p_at_infinity=1.0)
    with pytest.raises(InvalidExponentError):
        p(1.0)


def test_parse_exponent_annotations():
    p = parse_exponent("2 + 1/log(e + 1/t) @0=2 @inf=3")
    assert p.p_at_zero == 2.0
    assert p.p_at_infinity == 3.0


def test_parse_exponent_rejects_contradicting_annotation():
    with pytest.raises(InvalidExponentError):
        parse_exponent("2 + 1/log(e + 1/t) @0=2.5")


def test_parse_exponent_plain():
    p = parse_exponent("2")
    assert p.is_constant and p(5.0) == 2.0


def test_log_holder_constant_of_forced_family():
    # p(x) = c + d/log(e + 1/x) satisfies |p(x) - c| log(e + 1/x) = d exactly
    d = 0.75
    p = ExponentFunction.from_expression(f"2 + {d}/log(e + 1/t)",
                                         p_at_zero=2.0, p_at_infinity=2.0 + d)
    grid = HaarGrid(8, 8)
    # the endpoint constants as the key-estimate checks compute them
    c0, cinf = _log_holder_endpoints(p(grid.nodes), p.p_at_zero,
                                     p.p_at_infinity, grid.nodes)
    assert c0 == pytest.approx(d, rel=1e-12)
    assert math.isfinite(cinf) and cinf >= 0.0


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1.0, max_value=8.0),
       st.floats(min_value=1e-6, max_value=1e6))
def test_constant_exponent_is_constant_everywhere(c, t):
    assert ExponentFunction.constant(c)(t) == c


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1e-8, max_value=1e8))
def test_min_family_never_below_base(t):
    p = ExponentFunction.from_expression("1.5 + 0.8*min(t, 1/t)",
                                         p_at_zero=1.5, p_at_infinity=1.5)
    val = float(p(t))
    assert 1.5 <= val <= 2.3 + 1e-12
