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
    # the limits are the tree at t = 0 and t = inf: 2 + 1/log(inf) and
    # 2 + 1/log(e), exactly
    assert (p.p_at_zero, p.p_at_infinity) == (2.0, 3.0)


def test_given_limits_agree_with_the_expression():
    p = ExponentFunction.from_expression("2 + 1/log(e + 1/t)",
                                         p_at_zero=2.0, p_at_infinity=3.0)
    assert (p.p_at_zero, p.p_at_infinity) == (2.0, 3.0)
    # within 1e-12 relative of the expression's limit, which is kept
    p = ExponentFunction.from_expression("2 + 1/log(e + 1/t)",
                                         p_at_zero=2.0 + 1e-12,
                                         p_at_infinity=3.0 - 2e-12)
    assert (p.p_at_zero, p.p_at_infinity) == (2.0, 3.0)


@pytest.mark.parametrize("source, limits", [
    ("2 + 1/log(e + 1/t)", (2.0, 3.0)),
    # nears 2 only linearly at both ends, so no finite sample point gives 2
    ("2 + min(t, 1/t)", (2.0, 2.0)),
    ("max(2, 3*min(t, 1/t))", (2.0, 2.0)),
    ("1 + exp(0 - t)", (2.0, 1.0)),
    ("2 + log(e, e + t)", (3.0, 2.0)),
])
def test_limits_are_the_tree_at_zero_and_infinity(source, limits):
    p = ExponentFunction.from_expression(source)
    assert (p.p_at_zero, p.p_at_infinity) == limits


@pytest.mark.parametrize("source, given, name", [
    ("1 + t", {}, "p_at_infinity"),
    ("1 + 1/t", {"p_at_zero": 2.0}, "p_at_zero"),
    ("2 + log(t)", {}, "p_at_zero"),
])
def test_unbounded_end_rejected(source, given, name):
    with pytest.raises(InvalidExponentError,
                       match=f"the limit {name} is not finite"):
        ExponentFunction.from_expression(source, **given)


def test_indeterminate_end_needs_its_limit():
    with pytest.raises(InvalidExponentError,
                       match=r"p_at_infinity is indeterminate.*@inf="):
        ExponentFunction.from_expression("2 + t/(1 + t)")
    with pytest.raises(InvalidExponentError,
                       match=r"p_at_zero is indeterminate.*@0="):
        ExponentFunction.from_expression("2 + (1/t)/(1 + 1/t)")
    p = ExponentFunction.from_expression("2 + t/(1 + t)", p_at_infinity=3.0)
    assert (p.p_at_zero, p.p_at_infinity) == (2.0, 3.0)


@pytest.mark.parametrize("source, given, name", [
    ("2", {"p_at_infinity": 3.5}, "p_at_infinity"),
    ("2", {"p_at_zero": 1.0}, "p_at_zero"),
    ("2 + 1/log(e + 1/t)", {"p_at_zero": 2.5}, "p_at_zero"),
    ("2 + 1/log(e + 1/t)", {"p_at_infinity": 3.0 + 1e-11}, "p_at_infinity"),
    ("2 + 1/log(e + 1/t)", {"p_at_infinity": math.nan}, "p_at_infinity"),
])
def test_given_limit_must_agree_with_the_expression(source, given, name):
    with pytest.raises(InvalidExponentError, match=f"given {name}="):
        ExponentFunction.from_expression(source, **given)


# every variable-exponent family built by the suite, the demos, README,
# perfbench and the tests, with the limits they were given by hand
HAND_GIVEN = [
    ("{c} + {d}/log(e + 1/t)", lambda c, d: (c, c + d)),
    ("{c} + {d}*min(t, 1/t)", lambda c, d: (c, c)),
    ("{c} + {d}*(t/(1 + t))", lambda c, d: (c, None)),
]


@pytest.mark.parametrize("family, limits", HAND_GIVEN,
                         ids=["log", "min", "ratio"])
def test_evaluated_limits_equal_the_hand_given_ones(family, limits):
    # the suite's draws of (c, d), and the fixed ones of the demos and tests
    rng = np.random.default_rng(2017)
    draws = [(float(rng.uniform(1.2, 4.0)), float(rng.uniform(0.3, 1.2)))
             for _ in range(500)]
    draws += [(2.0, 1.0), (1.5, 1.0), (1.8, 0.7), (1.5, 0.5), (1.7, 0.6),
              (2.0, 0.5), (1.5, 0.8), (2.0, 0.75)]
    for c, d in draws:
        source = family.format(c=c, d=d)
        p_zero, p_inf = limits(c, d)
        if p_inf is None:
            # t/(1 + t) is inf/inf at t = inf: the limit c + d is given
            with pytest.raises(InvalidExponentError, match="indeterminate"):
                ExponentFunction.from_expression(source)
            p_inf = c + d
            p = ExponentFunction.from_expression(source, p_at_infinity=p_inf)
        else:
            p = ExponentFunction.from_expression(source)
        assert (p.p_at_zero, p.p_at_infinity) == (p_zero, p_inf), source


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


# bounded, but 0 * NaN at t = 0 and NaN * 0 at t = inf: both limits are given
BOTH_INDETERMINATE = "2 + (t/(1 + t))*((1/t)/(1 + 1/t))"


@pytest.mark.parametrize("limits", [
    {"p_at_zero": 0.95}, {"p_at_infinity": 0.5},
    {"p_at_zero": math.nan}, {"p_at_infinity": math.inf},
    {"p_at_zero": -math.inf},
])
def test_given_limits_checked_as_probed_ones(limits):
    # checked as evaluated limits are: finite and >= 1 - 1e-12
    (name,) = limits
    with pytest.raises(InvalidExponentError, match=f"the limit {name} is"):
        ExponentFunction.from_expression(
            BOTH_INDETERMINATE, **{"p_at_zero": 2.0, "p_at_infinity": 2.0, **limits})


def test_given_limit_clamped_at_one():
    # 2 - t/(1 + t) tends to 1 at infinity, where it is inf/inf
    p = ExponentFunction.from_expression("2 - t/(1 + t)",
                                         p_at_infinity=1.0 - 1e-13)
    assert p.p_at_infinity == 1.0


def test_expression_below_one_rejected_at_call():
    p = ExponentFunction.from_expression("1 - min(t, 1/t)")
    assert (p.p_at_zero, p.p_at_infinity) == (1.0, 1.0)
    with pytest.raises(InvalidExponentError):
        p(1.0)


def test_parse_exponent_annotations():
    p = parse_exponent("2 + 1/log(e + 1/t) @0=2 @inf=3")
    assert p.p_at_zero == 2.0
    assert p.p_at_infinity == 3.0


def test_parse_exponent_rejects_contradicting_annotation():
    with pytest.raises(InvalidExponentError, match="given p_at_zero=2.5"):
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
