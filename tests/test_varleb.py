import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varinterp import (
    AtomFunction,
    ConfigError,
    DivergenceError,
    ExponentFunction,
    GridMismatchError,
    HaarGrid,
    SampledFunction,
    lambda_norm,
    lorentz_discrete_norm,
    luxemburg_norm,
    modular,
    modular_norm_sandwich,
    rearrangement,
    unit_ball_check,
)
from varinterp import varleb
from varinterp.varleb import weighted_power_norm


GRID = HaarGrid(16, 32)


def bump(grid, lo_frac=0.3, hi_frac=0.6, height=1.3):
    values = np.zeros(grid.node_count)
    lo = int(grid.node_count * lo_frac)
    hi = int(grid.node_count * hi_frac)
    values[lo:hi] = height
    return SampledFunction(grid, values)


def test_grid_geometry():
    grid = HaarGrid(16, 32)
    assert grid.node_count == 2 * 16 * 32
    assert grid.du == pytest.approx(math.log(2.0) / 32)
    assert grid.t_min == 2.0 ** -16
    assert grid.t_max == 2.0 ** 16
    # nodes sit midway inside their cells, symmetric about t = 1 in log scale
    assert grid.nodes[0] == pytest.approx(grid.t_min * math.exp(grid.du / 2))
    assert np.allclose(np.diff(grid.log_nodes), grid.du)
    mid = grid.log_nodes[:, None] + grid.log_nodes[::-1, None]
    assert np.max(np.abs(mid)) < 1e-12


def test_v_extension_is_node_superset():
    base = HaarGrid(8, 16)
    wide = HaarGrid(12, 16)
    inner = wide.log_nodes[(12 - 8) * 16: (12 + 8) * 16]
    assert np.allclose(inner, base.log_nodes, atol=1e-12)


def test_refined_grid():
    grid = HaarGrid(8, 16)
    assert grid.refined() == HaarGrid(8, 32)
    assert grid.refined().refined() == HaarGrid(8, 64)


@pytest.mark.parametrize("bad", [2.5, True, "8", 0, None])
def test_grid_fields_are_integers_of_at_least_one(bad):
    with pytest.raises(ConfigError, match="integers"):
        HaarGrid(bad, 4)
    with pytest.raises(ConfigError, match="integers"):
        HaarGrid(8, bad)


def test_grid_accepts_numpy_integers():
    grid = HaarGrid(np.int64(8), np.int32(4))
    assert grid == HaarGrid(8, 4)
    assert grid.nodes.tobytes() == HaarGrid(8, 4).nodes.tobytes()


def test_sampled_function_validation():
    grid = HaarGrid(4, 4)
    with pytest.raises(GridMismatchError):
        SampledFunction(grid, np.zeros(5))
    with pytest.raises(ValueError):
        SampledFunction(grid, np.full(grid.node_count, -1.0))
    with pytest.raises(ValueError):
        SampledFunction(grid, np.full(grid.node_count, math.nan))


def test_modular_closed_form_constant_exponent():
    # phi = h on an interval of logarithmic length L: rho = h^q * L
    grid = HaarGrid(8, 32)
    phi = bump(grid, 0.25, 0.75, height=1.3)
    L = grid.du * (int(grid.node_count * 0.75) - int(grid.node_count * 0.25))
    q = ExponentFunction.constant(2.0)
    assert modular(phi, q) == pytest.approx(1.3 ** 2 * L, rel=1e-12)


@pytest.mark.parametrize("qv", [1.0, 2.0, 3.7])
def test_luxemburg_matches_constant_exponent_closed_form(qv):
    phi = bump(GRID)
    q = ExponentFunction.constant(qv)
    norm = luxemburg_norm(phi, q)
    assert norm == pytest.approx(modular(phi, q) ** (1.0 / qv), rel=1e-10)


def test_luxemburg_variable_exponent_modular_is_one():
    phi = bump(GRID)
    q = ExponentFunction.from_expression("2 + 1/log(e + 1/t)",
                                         p_at_zero=2.0, p_at_infinity=3.0)
    norm = luxemburg_norm(phi, q)
    assert modular(phi.scaled(1.0 / norm), q) == pytest.approx(1.0, abs=1e-10)


def test_luxemburg_zero_function():
    q = ExponentFunction.constant(2.0)
    zero = SampledFunction(GRID, np.zeros(GRID.node_count))
    assert luxemburg_norm(zero, q) == 0.0


def test_luxemburg_power_of_two_scaling_exact():
    phi = bump(GRID)
    # a variable exponent takes Newton steps, a constant one stops at the
    # first evaluation
    for q in (ExponentFunction.from_expression("2 + 1/log(e + 1/t)",
                                               p_at_zero=2.0, p_at_infinity=3.0),
              ExponentFunction.constant(2.7)):
        norm = luxemburg_norm(phi, q)
        assert luxemburg_norm(phi.scaled(4.0), q) == 4.0 * norm
        assert luxemburg_norm(phi.scaled(0.25), q) == 0.25 * norm


def test_luxemburg_constant_exponent_ends():
    # 0.0 for a norm below 1e-300, DivergenceError for one above 1e300, with
    # a constant and a variable exponent
    phi = bump(GRID)
    for q in (ExponentFunction.constant(2.7),
              ExponentFunction.from_expression("2 + 1/log(e + 1/t)",
                                               p_at_zero=2.0, p_at_infinity=3.0)):
        assert 0.0 < luxemburg_norm(phi.scaled(1e-290), q) < 1e-289
        assert luxemburg_norm(phi.scaled(1e-301), q) == 0.0
        assert luxemburg_norm(phi.scaled(1e-320), q) == 0.0
        assert luxemburg_norm(phi.scaled(1e290), q) > 1e290
        with pytest.raises(DivergenceError):
            luxemburg_norm(phi.scaled(1e301), q)


def test_luxemburg_solver_independent_of_modular_shape():
    # the solver sees only bases, exponents and weights; a single term
    # rho(lam) = (c/lam)^q must return exactly c up to bracket width
    for c, q in ((3.0, 2.0), (0.01, 1.0), (250.0, 5.0)):
        got = weighted_power_norm(np.array([c]), np.array([q]), np.array([1.0]))
        assert got == pytest.approx(c, rel=1e-11)


def plain_bisection(rho):
    # double or halve from 1, then bisect to relative width 1e-12 and return
    # the upper end
    lam = 1.0
    if rho(lam) <= 1.0:
        while rho(lam * 0.5) <= 1.0:
            lam *= 0.5
        lo, hi = lam * 0.5, lam
    else:
        while rho(lam * 2.0) > 1.0:
            lam *= 2.0
        lo, hi = lam, lam * 2.0
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if rho(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


def test_luxemburg_solver_matches_plain_bisection_in_few_evaluations(monkeypatch):
    evaluations = []
    terms = varleb._modular_terms

    def counted(c, q, lam):
        evaluations.append(lam)
        return terms(c, q, lam)

    monkeypatch.setattr(varleb, "_modular_terms", counted)
    exponents = []
    solve = varleb.weighted_power_norm

    def recorded(bases, q, weights):
        exponents.append(q)
        return solve(bases, q, weights)

    monkeypatch.setattr(varleb, "weighted_power_norm", recorded)
    rng = np.random.default_rng(7)
    q_var = ExponentFunction.from_expression("1.5 + 1/log(e + 1/t)",
                                             p_at_zero=1.5, p_at_infinity=2.5)
    for trial in range(40):
        values = 10.0 ** rng.uniform(-3.0, 3.0, GRID.node_count)
        values[rng.uniform(size=GRID.node_count) < 0.5] = 0.0
        q = ExponentFunction.constant(1.0 + 3.0 * rng.uniform()) \
            if trial % 2 else q_var
        q_values = np.asarray(q(GRID.nodes), dtype=float)

        def rho(lam):
            return float(((values / lam) ** q_values).sum() * GRID.du)

        evaluations.clear()
        got = weighted_power_norm(values, q_values, GRID.du)
        if q.is_constant:
            # the sandwich rho^{1/q-}, rho^{1/q+} is a point at once
            assert len(evaluations) == 1
        else:
            assert 1 <= len(evaluations) <= 8
        assert got == pytest.approx(plain_bisection(rho), rel=1e-12)
        assert luxemburg_norm(SampledFunction(GRID, values), q) == got
        # a constant exponent reaches the solver as a scalar
        assert isinstance(exponents.pop(), float) == q.is_constant


def test_luxemburg_constant_exponent_past_underflow():
    # with q = 2000 every scaled power phi_i^q underflows at lam = 1, so the
    # solver first steps lam down: ||h 1_E|| = h * |E|^{1/q}
    phi = bump(GRID)
    length = GRID.du * np.count_nonzero(phi.values)
    got = luxemburg_norm(phi, ExponentFunction.constant(2000.0))
    assert got == pytest.approx(1.3 * length ** (1.0 / 2000.0), rel=1e-12)


def reference_norm(values, q, du):
    """The Luxemburg norm for a scalar or array exponent q by plain
    bisection on the raw modular, with the solver's ends: 0.0 once lam falls
    below 1e-300 and None (divergence) once it passes 1e300."""
    def rho(lam):
        with np.errstate(over="ignore"):
            return float(((values / lam) ** q).sum()) * du

    lam = 1.0
    if rho(lam) <= 1.0:
        while rho(lam * 0.5) <= 1.0:
            lam *= 0.5
            if lam * 0.5 < 1e-300:
                return 0.0
        lo, hi = lam * 0.5, lam
    else:
        while rho(lam * 2.0) > 1.0:
            lam *= 2.0
            if lam * 2.0 > 1e300:
                return None
        lo, hi = lam, lam * 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if rho(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


SMALL = HaarGrid(2, 8)

_magnitudes = st.one_of(
    st.floats(min_value=-300.0, max_value=300.0).map(lambda x: 10.0 ** x),
    st.floats(min_value=5e-324, max_value=2.2250738585072014e-308),
    st.just(0.0))


@settings(max_examples=300, deadline=None)
@given(st.lists(_magnitudes, min_size=SMALL.node_count,
                max_size=SMALL.node_count),
       st.floats(min_value=1.0, max_value=50.0),
       st.integers(min_value=0, max_value=SMALL.node_count))
def test_constant_exponent_closed_form_matches_bisection(values, qv, zeros):
    # a block of zeros of random length, then magnitudes from subnormal to
    # 1e300 in the rest
    values = np.array(values)
    values[:zeros] = 0.0
    phi = SampledFunction(SMALL, values)
    q = ExponentFunction.constant(qv)
    want = reference_norm(values, qv, SMALL.du)
    if want is None:
        with pytest.raises(DivergenceError):
            luxemburg_norm(phi, q)
    else:
        assert luxemburg_norm(phi, q) == pytest.approx(want, rel=1e-12)


def _min_max_exponent(a, c, shape):
    # a + c * min(t, 1/t), like 2 + 0.5*min(t, 1/t), or max(a, c * min(t, 1/t));
    # both tend to the rendered a at 0 and at infinity
    source = shape.format(a=f"{a:.6f}", c=f"{c:.6f}")
    return ExponentFunction.from_expression(source)


# variable exponents on SMALL (t in [1/4, 4]): piecewise tables with cell
# values in [1, 50], so contrast q+/q- up to 50, and min/max expressions
_variable_exponents = st.one_of(
    st.lists(st.floats(min_value=1.0, max_value=50.0), min_size=2,
             max_size=5).flatmap(
        lambda values: st.lists(
            st.floats(min_value=0.3, max_value=3.5), min_size=len(values) - 1,
            max_size=len(values) - 1, unique=True).map(
            lambda cuts: ExponentFunction.piecewise(np.sort(cuts), values))),
    st.builds(_min_max_exponent, st.floats(min_value=1.0, max_value=50.0),
              st.floats(min_value=0.0, max_value=50.0),
              st.sampled_from(["{a} + {c}*min(t, 1/t)",
                               "max({a}, {c}*min(t, 1/t))"])))


@settings(max_examples=300, deadline=None)
@given(st.lists(_magnitudes, min_size=SMALL.node_count,
                max_size=SMALL.node_count),
       _variable_exponents,
       st.integers(min_value=0, max_value=SMALL.node_count),
       st.integers(min_value=0, max_value=SMALL.node_count))
def test_variable_exponent_norm_matches_bisection(values, q, start, stop):
    # a block of zeros at a random place, magnitudes from subnormal to 1e300
    # elsewhere
    values = np.array(values)
    values[start:stop] = 0.0
    phi = SampledFunction(SMALL, values)
    want = reference_norm(values, q(SMALL.nodes), SMALL.du)
    if want is None:
        with pytest.raises(DivergenceError):
            luxemburg_norm(phi, q)
    else:
        assert luxemburg_norm(phi, q) == pytest.approx(want, rel=1e-12)


def reference_log_norm(bases, exponents, weights):
    """log of inf { lam : sum w_i (b_i / lam)^{q_i} <= 1 } by bisection on
    s = log lam, with log rho(e^s) by log-sum-exp of
    log w_i + q_i (log b_i - s), so no term leaves the float range."""
    keep = bases > 0.0
    log_b, q, log_w = np.log(bases[keep]), exponents[keep], np.log(weights[keep])

    def log_rho(s):
        z = log_w + q * (log_b - s)
        top = float(z.max())
        return top + math.log(math.fsum(np.exp(z - top)))

    lo, hi = -2000.0, 2000.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if log_rho(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def _contrast_problem(data):
    # exponents q- c^u with contrast c up to 200, bases 10^x for |x| <= 100
    # with zeros, and either weights from 1e-250 to 1e100 or a du-like
    # weight with one tiny Lorentz-stub-like weight on the last term
    m = data.draw(st.integers(min_value=1, max_value=30))
    draw_floats = lambda lo, hi: np.array(data.draw(st.lists(  # noqa: E731
        st.floats(min_value=lo, max_value=hi), min_size=m, max_size=m)))
    bases = 10.0 ** draw_floats(-100.0, 100.0)
    bases[draw_floats(0.0, 1.0) < 0.2] = 0.0
    bases[data.draw(st.integers(min_value=0, max_value=m - 1))] = 1.0
    q_minus = data.draw(st.floats(min_value=1.0, max_value=5.0))
    contrast = data.draw(st.floats(min_value=1.0, max_value=200.0))
    exponents = q_minus * contrast ** draw_floats(0.0, 1.0)
    if data.draw(st.booleans()):
        weights = 10.0 ** draw_floats(-250.0, 100.0)
    else:
        weights = np.full(m, data.draw(st.floats(min_value=0.01, max_value=1.0)))
        weights[-1] = 10.0 ** data.draw(st.floats(min_value=-300.0, max_value=-100.0))
    return bases, exponents, weights


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_high_contrast_norm_has_no_false_divergence(data):
    # every norm in [2^-996, 2^996] comes out, within 1e-11 of a log-space
    # bisection, in at most 10 modular evaluations; the reference's own
    # rounding in log rho grows with q_i |log(b_i / lam)| and reaches about
    # 1e-13 here
    bases, exponents, weights = _contrast_problem(data)
    want = reference_log_norm(bases, exponents, weights)
    evaluations = []
    terms = varleb._modular_terms

    def counted(c, q, lam):
        evaluations.append(lam)
        return terms(c, q, lam)

    varleb._modular_terms = counted
    try:
        if want > 996 * math.log(2.0) + 1e-9:
            with pytest.raises(DivergenceError):
                weighted_power_norm(bases, exponents, weights)
            return
        got = weighted_power_norm(bases, exponents, weights)
    finally:
        varleb._modular_terms = terms
    if want < -996 * math.log(2.0) - 1e-9:
        assert got == 0.0
    elif want > -996 * math.log(2.0) + 1e-9:
        assert abs(math.log(got) - want) <= 1e-11
        assert len(evaluations) <= 10


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.booleans())
def test_batched_rows_equal_single_rows_bit_for_bit(seed, constant):
    # rows with zeros, all-zero rows, magnitudes far apart, and rows that
    # leave the float range at the first evaluation
    rng = np.random.default_rng(seed)
    rows, m = int(rng.integers(1, 40)), int(rng.integers(1, 200))
    bases = 10.0 ** rng.uniform(-5.0, 5.0, (rows, m))
    bases[rng.uniform(size=(rows, m)) < 0.3] = 0.0
    bases[rng.uniform(size=rows) < 0.1] = 0.0
    exponents = float(rng.uniform(1.0, 50.0)) if constant \
        else rng.uniform(1.0, 1.0 + 50.0 * rng.uniform(), m)
    weights = 10.0 ** rng.uniform(-200.0, 2.0, m) if rng.uniform() < 0.5 \
        else float(rng.uniform(0.01, 1.0))
    got = weighted_power_norm(bases, exponents, weights)
    assert got.shape == (rows,)
    assert got.tolist() == [weighted_power_norm(b, exponents, weights)
                            for b in bases]


def ldexp_scaled_norm(row, exponents, weights):
    # the row times 2^-e by np.ldexp, where max row = m 2^e with
    # 1/2 <= m < 1, solved, and the norm times 2^e: the solver's own scaling
    # of a row with max in [1/2, 1) is the identity
    e = math.frexp(float(row.max()))[1]
    return math.ldexp(weighted_power_norm(np.ldexp(row, -e), exponents, weights), e)


@pytest.mark.parametrize("constant", [True, False])
def test_scaling_extremes_match_ldexp_scaling(constant):
    # rows whose max is below 2^-1024, where 2^-e is not a float; rows whose
    # max is near 2^1023, where 2^-e is subnormal; and rows whose other
    # entries scale into the subnormal range. A weight of 1e280 on every
    # column but the first keeps the first kind's norms representable and
    # makes the rounding of the subnormal scaled entries of the other two
    # kinds show in their norms; the norms of the rows scaled to a max in
    # [1/2, 1) stay inside [2^-996, 2^996]
    rng = np.random.default_rng(11)
    m = 48
    exponents = 1.0 if constant else rng.uniform(1.0, 1.05, m)
    weights = np.full(m, 1e280)
    weights[0] = 1e-60
    tiny = rng.uniform(0.0, 1.0, (3, m)) * 2.0 ** -1050
    huge = 10.0 ** rng.uniform(-20.0, -8.0, (3, m))
    huge[:, 0] = np.array([0.6, 0.9, 1.7]) * 2.0 ** 1023
    spread = 10.0 ** rng.uniform(-200.0, -190.0, (3, m))
    spread[:, 0] = rng.uniform(0.5, 1.0, 3) * 2.0 ** 400
    for rows in (np.vstack([tiny, huge, spread]), np.vstack([huge, spread])):
        got = weighted_power_norm(rows, exponents, weights)
        want = [ldexp_scaled_norm(row, exponents, weights) for row in rows]
        assert all(2.0 ** -996 < w < 2.0 ** 996 for w in want)
        assert got.tolist() == want
        assert got.tolist() == [weighted_power_norm(row, exponents, weights)
                                for row in rows]


@pytest.mark.parametrize("constant", [True, False])
def test_batch_keeps_norm_ends(constant):
    # a row whose norm is above 2^996 makes the batch raise; a row whose
    # norm is at or below 2^-996 comes back 0.0 beside nonzero rows. Norms
    # scale exactly with powers of two, so the rows sit on both sides of
    # each end
    rng = np.random.default_rng(5)
    m = 64
    exponents = 2.5 if constant else rng.uniform(2.0, 3.0, m)
    base = rng.uniform(0.5, 1.0, m)
    mantissa, e = math.frexp(weighted_power_norm(base, exponents, 0.1))
    assert mantissa > 0.5
    shifts = np.array([[0], [-995 - e], [-996 - e], [996 - e]])
    rows = np.ldexp(base, shifts)
    got = weighted_power_norm(rows, exponents, 0.1)
    assert got.tolist() == [math.ldexp(mantissa, e), math.ldexp(mantissa, -995),
                            0.0, math.ldexp(mantissa, 996)]
    assert got.tolist() == [weighted_power_norm(row, exponents, 0.1) for row in rows]
    over = np.vstack([rows, np.ldexp(base, 997 - e)])
    with pytest.raises(DivergenceError):
        weighted_power_norm(over, exponents, 0.1)
    with pytest.raises(DivergenceError):
        weighted_power_norm(over[-1], exponents, 0.1)


def count_evaluations(monkeypatch):
    evaluations = []
    terms = varleb._modular_terms

    def counted(c, q, lam):
        evaluations.append(lam)
        return terms(c, q, lam)

    monkeypatch.setattr(varleb, "_modular_terms", counted)
    return evaluations


@pytest.mark.parametrize("bases, exponents, weights", [
    # the weights sum past the float range: the norm is 1e309
    (np.ones(10), 1.0, 1e308),
    (np.ones(10), np.linspace(1.0, 3.0, 10), 1e308),
    # an infinite base makes every modular infinite
    (np.array([1.0, np.inf]), 2.0, 1.0),
    (np.array([1.0, np.inf]), np.array([1.0, 2.0]), 1.0),
])
def test_norm_past_float_range_is_divergence(monkeypatch, bases, exponents,
                                             weights):
    evaluations = count_evaluations(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match="exceeds"):
            weighted_power_norm(bases, exponents, weights)
    assert len(evaluations) <= 3


@pytest.mark.parametrize("constant", [True, False])
def test_infinite_base_in_a_batch_is_divergence(monkeypatch, constant):
    # beside finite rows, with and without a row holding nan
    rng = np.random.default_rng(3)
    exponents = 2.0 if constant else rng.uniform(1.0, 3.0, 6)
    rows = rng.uniform(0.0, 2.0, (4, 6))
    rows[2, 4] = np.inf
    evaluations = count_evaluations(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for batch in (rows, np.vstack([rows, np.full(6, np.nan)])):
            with pytest.raises(DivergenceError, match="exceeds"):
                weighted_power_norm(batch, exponents, 0.1)
    assert evaluations == []



@pytest.mark.parametrize("exponents", [1.0, np.array([1.0, 1.0, 1.0 + 1e-12])])
def test_underflowing_folded_bases_give_zero(monkeypatch, exponents):
    # every folded base b w^{1/q} underflows, so the scaled norm is below
    # 3 * 2^-1074 and the norm, 1.5e-323, below the lower end 2^-996
    evaluations = count_evaluations(monkeypatch)
    assert weighted_power_norm(np.ones(3), exponents, 5e-324) == 0.0
    assert len(evaluations) == 1
    # in a batch, beside a row that keeps its bits
    weights = np.array([5e-324, 5e-324, 1.0])
    rows = np.array([[1.0, 1.0, 0.0], [1.0, 2.0, 3.0]])
    alone = weighted_power_norm(rows[1], exponents, weights)
    assert weighted_power_norm(rows, exponents, weights).tolist() == [0.0, alone]
    # a row whose positive bases all weigh 0 has every term 0, so norm 0
    weights[:2] = 0.0
    rows[0] *= 2.0 ** 999
    assert weighted_power_norm(rows, exponents, weights).tolist() == [0.0, alone]
    # the same folded row scaled by 2^999 has a norm above the lower end,
    # 3 * 2^-75 for q = 1, which the log-space solve finds
    bases = np.full(3, 2.0 ** 999)
    got = weighted_power_norm(bases, exponents, 5e-324)
    want = reference_log_norm(bases, np.broadcast_to(exponents, 3), np.full(3, 5e-324))
    assert abs(math.log(got) - want) <= 1e-11


@pytest.mark.parametrize("bases, weight, norm", [
    # huge weights on tiny bases: the row scaled to a max in [1/2, 1) has a
    # norm past the float range
    (np.full(10, 1e-300), 1e308, 10 * 1e-300 * 1e308),
    # folded bases b w^{1/q} in the subnormal range
    (np.full(3, 1e300), 5e-324, 3 * 1e300 * 5e-324),
    # folded bases that all underflow
    (np.full(3, 2.0 ** 999), 5e-324, 3 * 2.0 ** -75),
])
def test_out_of_range_rows_give_their_norms(bases, weight, norm):
    # for q = 1 the norm is sum w_i b_i; for a variable exponent, the
    # log-space bisection. pytest.approx would pass any value near 1e-23
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = weighted_power_norm(bases, 1.0, weight)
        assert math.isclose(got, norm, rel_tol=1e-11, abs_tol=0.0)
        exponents = np.linspace(1.0, 1.5, len(bases))
        got = weighted_power_norm(bases, exponents, weight)
    want = reference_log_norm(bases, exponents, np.full(len(bases), weight))
    assert abs(math.log(got) - want) <= 1e-11


@pytest.mark.parametrize("constant", [True, False])
def test_out_of_range_rows_in_a_batch_equal_rows_alone(monkeypatch, constant):
    # a weight of 1e300 on column 0 and of 1e-300 on column 1 put a row's
    # modular above 2^960 where column 0 holds its max, below 2^-960 where
    # column 1 is its only nonzero entry, and inside where column 0 is 0.
    # Every row equals its norm alone, bit for bit, and the out-of-range
    # rows scale exactly by powers of two too
    rng = np.random.default_rng(17)
    m = 12
    exponents = 1.5 if constant else rng.uniform(1.0, 4.0, m)
    weights = 10.0 ** rng.uniform(-2.0, 2.0, m)
    weights[:2] = 1e300, 1e-300
    rows = 10.0 ** rng.uniform(-5.0, 5.0, (60, m))
    rows[rng.uniform(size=rows.shape) < 0.3] = 0.0
    rows[:10, 0] = 2.0 * rows[:10].max(axis=1)
    rows[10:20, 0] = rows[10:20, 2:] = 0.0
    rows[20:, 0] = 0.0
    alone = [weighted_power_norm(row, exponents, weights) for row in rows]
    solved = []
    log_space = varleb._log_space_norms

    def recorded(scaled, *args):
        solved.append(len(scaled))
        return log_space(scaled, *args)

    monkeypatch.setattr(varleb, "_log_space_norms", recorded)
    assert weighted_power_norm(rows, exponents, weights).tolist() == alone
    assert 0 < solved[0] < len(rows)
    for j in (-3, 5):
        assert weighted_power_norm(np.ldexp(rows, j), exponents, weights).tolist() \
            == [math.ldexp(a, j) for a in alone]



@pytest.mark.parametrize("exponents", [1.5, np.array(1.5)])
def test_constant_exponent_batch_finishes_after_one_modular(monkeypatch,
                                                            exponents):
    # in-range rows beside rows whose rho(1) leaves [2^-960, 2^960] (see the
    # test above): the modular terms are evaluated once for the whole batch,
    # and every row equals its norm alone, bit for bit
    rng = np.random.default_rng(31)
    m = 12
    weights = 10.0 ** rng.uniform(-2.0, 2.0, m)
    weights[:2] = 1e300, 1e-300
    rows = 10.0 ** rng.uniform(-5.0, 5.0, (40, m))
    rows[:8, 0] = 2.0 * rows[:8].max(axis=1)
    rows[8:16, 0] = rows[8:16, 2:] = 0.0
    rows[16:, 0] = 0.0
    alone = [weighted_power_norm(row, 1.5, weights) for row in rows]
    evaluations = count_evaluations(monkeypatch)
    assert weighted_power_norm(rows, exponents, weights).tolist() == alone
    assert evaluations == [1.0]
    evaluations.clear()
    in_range = weighted_power_norm(rows[16:], exponents, weights)
    assert in_range.tolist() == alone[16:]
    assert evaluations == [1.0]


@pytest.mark.parametrize("constant", [True, False])
def test_infinite_weights_end_at_once_without_warning(monkeypatch, constant):
    # a positive base under an infinite weight makes the norm infinite; a
    # zero base adds 0 whatever its weight
    rng = np.random.default_rng(41)
    m = 6
    exponents = 2.5 if constant else rng.uniform(1.0, 3.0, m)
    weights = 10.0 ** rng.uniform(-2.0, 0.0, m)
    weights[1] = np.inf
    rows = rng.uniform(0.1, 2.0, (5, m))
    rows[:, 1] = 0.0
    rows[2, 4:] = 0.0
    evaluations = count_evaluations(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = weighted_power_norm(rows, exponents, weights)
        assert len(evaluations) == 1
        assert got.tolist() == [weighted_power_norm(row, exponents, weights)
                                for row in rows]
        q = np.broadcast_to(exponents, m)
        for row, norm in zip(rows, got):
            want = reference_log_norm(row, q, weights)
            assert abs(math.log(norm) - want) <= 1e-11
        rows[3, 1] = 0.5
        evaluations.clear()
        with pytest.raises(DivergenceError, match="exceeds"):
            weighted_power_norm(rows, exponents, weights)
        assert len(evaluations) == 1
        with pytest.raises(DivergenceError, match="exceeds"):
            weighted_power_norm(np.ones(2), exponents if constant else 1.0,
                                np.inf)
        got = weighted_power_norm(np.array([0.0, 1.0]), 2.0,
                                  np.array([np.inf, 1.0]))
    assert math.isclose(got, 1.0, rel_tol=1e-15)


def _unit(data, m):
    return np.array(data.draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                                       min_size=m, max_size=m)))


def _spread_below(data, level, widest, m):
    # level times 10^{-width u_i}, u_i in [0, 1], width in [0, widest]:
    # entries all near the level, or spread over many decades
    width = data.draw(st.floats(min_value=0.0, max_value=widest))
    return level * 10.0 ** -(width * _unit(data, m))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_norm_ends_match_log_space_bisection(data):
    # bases from subnormal to 1e300 with zeros; weights from 1e-320 to 1e308
    # with subnormals, a scalar or spread below its level by up to 1e30 (far
    # wider, a base that scales to a subnormal may dominate a row in range,
    # which keeps its rounding); q constant or variable in [1, 50]. A norm
    # comes back within 1e-11 in log of the bisection, a raise if and only
    # if it is above 2^996, and 0.0 if and only if it is at or below 2^-996
    m = data.draw(st.integers(min_value=1, max_value=8))
    bases = _spread_below(data, data.draw(_magnitudes), 640.0, m)
    bases[np.array(data.draw(st.lists(st.booleans(), min_size=m, max_size=m)))] = 0.0
    level = data.draw(st.one_of(
        st.floats(min_value=-320.0, max_value=308.0).map(lambda x: 10.0 ** x),
        st.floats(min_value=5e-324, max_value=2.2250738585072014e-308)))
    weights = level if data.draw(st.booleans()) else \
        np.maximum(_spread_below(data, level, 30.0, m), 5e-324)
    # q near 1 in half the draws, where a weight w_i^{1/q_i} stays extreme
    qa, qb = sorted(data.draw(st.lists(st.one_of(
        st.floats(min_value=1.0, max_value=1.5),
        st.floats(min_value=1.0, max_value=50.0)), min_size=2, max_size=2)))
    exponents = qa if data.draw(st.booleans()) else qa + (qb - qa) * _unit(data, m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = weighted_power_norm(bases, exponents, weights)
        except DivergenceError:
            got = math.inf
    if not bases.any():
        assert got == 0.0
        return
    want = reference_log_norm(bases, np.broadcast_to(exponents, m),
                              np.broadcast_to(weights, m))
    end = 996 * math.log(2.0)
    if got == math.inf:
        assert want > end - 1e-11
    elif got == 0.0:
        assert want <= -end + 1e-11
    else:
        assert -end - 1e-11 < want <= end + 1e-11
        assert abs(math.log(got) - want) <= 1e-11


@pytest.mark.parametrize("bases, exponents, weights", [
    (np.array([np.nan, 1.0]), 2.0, 1.0),
    # a nan row beside a row with a norm, and beside an all-zero row
    (np.array([[1.0, 2.0], [np.nan, 1.0]]), 2.0, 1.0),
    (np.array([[0.0, 0.0], [1.0, np.nan]]), np.array([1.0, 2.0]), 1.0),
    (np.array([1.0, 1.0]), 2.0, np.array([np.nan, 1.0])),
    (np.array([1.0, 2.0]), np.array([np.nan, 2.0]), 1.0),
    (np.array([[0.0, 2.0], [1.0, 2.0]]), np.array([np.nan, 2.0]), 0.5),
])
def test_nan_input_is_config_error(bases, exponents, weights):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="nan"):
            weighted_power_norm(bases, exponents, weights)

# the two discrete norms as they were written before they shared a helper

def per_block_lambda_norm(a, th, q_zero, q_infinity):
    V = len(a) // 2
    v = np.arange(-V, V + 1)
    lower = v <= 0
    upper = ~lower
    with np.errstate(over="ignore"):
        s0 = float(np.sum(2.0 ** (-v[lower] * th * q_zero)
                          * a[lower] ** q_zero))
        s1 = float(np.sum(2.0 ** (-v[upper] * th * q_infinity)
                          * a[upper] ** q_infinity))
    assert math.isfinite(s0) and math.isfinite(s1)
    return s0 ** (1.0 / q_zero) + s1 ** (1.0 / q_infinity)


def per_block_lorentz_discrete_norm(f, p, q, V):
    v = np.arange(-V, V + 1)
    fstar = rearrangement(f).value_at(2.0 ** v.astype(float))
    q0, p0 = q.p_at_zero, p.p_at_zero
    qi, pi = q.p_at_infinity, p.p_at_infinity
    lower = v <= 0
    upper = ~lower
    with np.errstate(over="ignore"):
        s0 = float(np.sum(2.0 ** (v[lower] * q0 / p0) * fstar[lower] ** q0))
        s1 = float(np.sum(2.0 ** (v[upper] * qi / pi) * fstar[upper] ** qi))
    assert math.isfinite(s0) and math.isfinite(s1)
    return s0 ** (1.0 / q0) + s1 ** (1.0 / qi)


def _random_exponent_value(rng):
    # exactly 1, 2 or 3 in half the draws, else uniform in [1, 6]
    if rng.uniform() < 0.5:
        return float(rng.choice([1.0, 2.0, 3.0]))
    return float(rng.uniform(1.0, 6.0))


def test_discrete_norms_match_their_block_formulas_bit_for_bit():
    rng = np.random.default_rng(20)
    for _ in range(2000):
        V = int(rng.integers(1, 30))
        values = 10.0 ** rng.uniform(-3.0, 3.0, 2 * V + 1)
        values[rng.uniform(size=2 * V + 1) < 0.3] = 0.0
        params = (float(rng.uniform(0.01, 0.99)),
                  _random_exponent_value(rng), _random_exponent_value(rng))
        assert lambda_norm(values, *params) == per_block_lambda_norm(values, *params)

        # piecewise exponents with distinct limits at 0 and at infinity;
        # masses up to 2^10 leave f*(2^v) = 0 for the larger v
        p, q = (ExponentFunction.piecewise(
            [1.0], [_random_exponent_value(rng), _random_exponent_value(rng)])
            for _ in range(2))
        n = int(rng.integers(1, 7))
        f = AtomFunction(10.0 ** rng.uniform(-3.0, 3.0, n),
                         2.0 ** rng.uniform(-12.0, 10.0, n))
        assert lorentz_discrete_norm(f, p, q, V) == \
            per_block_lorentz_discrete_norm(f, p, q, V)


def test_discrete_norms_overflow_is_divergence_without_warning():
    # both raise with one message; tests/test_rearrange.py has the Lorentz
    # norm with both exponents 2
    q = ExponentFunction.constant(2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match="discrete modular overflowed"):
            lambda_norm(np.full(5, 1e200), 0.5, 2.0, 2.0)
        with pytest.raises(DivergenceError, match="discrete modular overflowed"):
            lambda_norm(np.array([0.0, 0.0, 1.0, 0.0, 1e200]), 0.5, 1.0, 2.0)
        with pytest.raises(DivergenceError, match="discrete modular overflowed"):
            lorentz_discrete_norm(AtomFunction([1e200], [64.0]),
                                  ExponentFunction.constant(1.0), q, 4)


def test_modular_norm_sandwich_brackets():
    phi = bump(GRID)
    q = ExponentFunction.from_expression("1.5 + 1/log(e + 1/t)",
                                         p_at_zero=1.5, p_at_infinity=2.5)
    rep = modular_norm_sandwich(phi, q)
    assert rep.passed
    assert rep.lower <= rep.norm <= rep.upper


def test_modular_norm_sandwich_past_float_range():
    # on 10 nodes, the raw modular of 1e-200 underflows to 0 and that of
    # 1e200 overflows; the bounds still bracket the norm
    q = ExponentFunction.constant(2.0)
    for height in (1e-200, 1e200):
        values = np.zeros(SMALL.node_count)
        values[:10] = height
        rep = modular_norm_sandwich(SampledFunction(SMALL, values), q)
        assert rep.passed
        for value in (rep.norm, rep.lower, rep.upper):
            assert value == pytest.approx(height * math.sqrt(10 * SMALL.du),
                                          rel=1e-12)


def test_unit_ball_consistency():
    phi = bump(GRID)
    q = ExponentFunction.constant(2.0)
    norm = luxemburg_norm(phi, q)
    inside = unit_ball_check(phi.scaled(0.8 / norm), q)
    outside = unit_ball_check(phi.scaled(1.25 / norm), q)
    assert inside.consistent and inside.modular_value <= 1.0 + 1e-8
    assert outside.consistent and outside.modular_value > 1.0


def test_two_sided_sequence_indexing():
    # entry i of 2V + 1 values is alpha_v for v = i - V: a single nonzero
    # entry at v contributes 2^{-v theta} alpha_v when q0 = q_inf = 1
    values = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
    for i, v in enumerate(range(-2, 3)):
        single = np.zeros(5)
        single[i] = values[i]
        assert lambda_norm(single, 0.5, 1.0, 1.0) == pytest.approx(
            2.0 ** (-0.5 * v) * values[i], rel=1e-15)
    with pytest.raises(ValueError):
        lambda_norm(np.array([1.0, 2.0]), 0.5, 1.0, 1.0)


def test_lambda_norm_hand_computed():
    # alpha = (2, 1, 2) on v in {-1, 0, 1}, theta = 1/2, q0 = 2, q_inf = 3:
    # lower block (2^1 * 4 + 1)^(1/2) = 3, upper block (2^-1.5 * 8)^(1/3) = sqrt 2
    val = lambda_norm(np.array([2.0, 1.0, 2.0]), 0.5, 2.0, 3.0)
    assert val == pytest.approx(3.0 + math.sqrt(2.0), rel=1e-14)


def test_lambda_norm_single_blocks():
    # only v = 0 term: value = alpha_0; only v = 1: 2^{-theta} alpha_1
    assert lambda_norm([0.0, 3.0, 0.0], 0.5, 2.0, 2.0) == pytest.approx(3.0)
    assert lambda_norm([0.0, 0.0, 3.0], 0.5, 2.0, 2.0) == pytest.approx(
        2.0 ** -0.5 * 3.0)


def test_lambda_norm_params_validated():
    # V comes from the length 2V + 1 of the values, v = -V..V in order
    alpha = [5.0, 4.0, 3.0, 2.0, 1.0]
    assert lambda_norm(alpha, 0.5, 1.0, 1.0) == pytest.approx(
        (5.0 * 2.0 + 4.0 * 2.0 ** 0.5 + 3.0) + (2.0 * 2.0 ** -0.5 + 1.0 * 0.5),
        rel=1e-15)
    for values in ([1.0, 2.0], [1.0], [], np.ones((3, 3))):
        with pytest.raises(GridMismatchError):
            lambda_norm(values, 0.5, 2.0, 2.0)
    for values in ([1.0, -1.0, 1.0], [1.0, math.nan, 1.0], [1.0, math.inf, 1.0]):
        with pytest.raises(ConfigError, match="finite and nonnegative"):
            lambda_norm(values, 0.5, 2.0, 2.0)
    for params in ((1.5, 2.0, 2.0), (0.0, 2.0, 2.0), (math.nan, 2.0, 2.0),
                   (0.5, 0.5, 2.0), (0.5, 2.0, 0.5), (0.5, math.inf, 2.0),
                   (0.5, 2.0, math.nan)):
        with pytest.raises(ConfigError):
            lambda_norm(alpha, *params)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.05, max_value=20.0))
def test_luxemburg_homogeneity(c):
    phi = bump(GRID)
    q = ExponentFunction.from_expression("2 + 1/log(e + 1/t)",
                                         p_at_zero=2.0, p_at_infinity=3.0)
    base = luxemburg_norm(phi, q)
    assert luxemburg_norm(phi.scaled(c), q) == pytest.approx(c * base, rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_luxemburg_triangle_inequality(seed):
    grid = HaarGrid(6, 8)
    rng = np.random.default_rng(seed)
    a = SampledFunction(grid, rng.uniform(0.0, 2.0, grid.node_count))
    b = SampledFunction(grid, rng.uniform(0.0, 2.0, grid.node_count))
    q = ExponentFunction.from_expression("1.5 + min(t, 1/t)",
                                         p_at_zero=1.5, p_at_infinity=1.5)
    both = SampledFunction(grid, a.values + b.values)
    assert luxemburg_norm(both, q) <= (luxemburg_norm(a, q)
                                       + luxemburg_norm(b, q)) * (1.0 + 1e-9)
