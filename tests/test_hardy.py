import math

import numpy as np
import pytest

from varinterp import (
    ConfigError,
    ExponentFunction,
    GridMismatchError,
    HaarGrid,
    SampledFunction,
    hardy_continuous_check,
    hardy_discrete_check,
    key_estimate_check,
)


Q2 = ExponentFunction.constant(2.0)


def impulse(V=24):
    values = np.zeros(2 * V + 1)
    values[V] = 1.0
    return values


def test_hardy_instance_validation():
    with pytest.raises(ConfigError):
        hardy_discrete_check(1.0, 2.0, impulse())
    with pytest.raises(ConfigError):
        hardy_discrete_check(0.0, 2.0, impulse())
    with pytest.raises(ConfigError):
        hardy_discrete_check(0.5, 0.0, impulse())
    # epsilon is eps_{-V}, ..., eps_V: finite, nonnegative, of length 2V + 1 >= 3
    for bad in (math.nan, math.inf, -math.inf, -1.0):
        eps = impulse()
        eps[3] = bad
        with pytest.raises(ConfigError, match="finite and nonnegative"):
            hardy_discrete_check(0.5, 2.0, eps)
    for eps in (np.ones(4), np.ones(1), np.ones((3, 3))):
        with pytest.raises(GridMismatchError):
            hardy_discrete_check(0.5, 2.0, eps)


def test_hardy_discrete_impulse_q1():
    # y_k = a^{|k|}; the l1 norm 1 + 2(a + ... + a^V) hits the cap up to the
    # truncated tail: 3 - 2^{1-V} at a = 1/2
    V = 24
    rep = hardy_discrete_check(0.5, 1.0, impulse(V))
    assert rep.constant == pytest.approx(3.0 - 2.0 ** (1 - V), rel=1e-14)
    assert rep.cap == pytest.approx(3.0)
    assert rep.within_cap


def test_hardy_discrete_impulse_q2():
    V, a = 24, 0.5
    rep = hardy_discrete_check(a, 2.0, impulse(V))
    expect = math.sqrt(1.0 + 2.0 * (a ** 2 / (1.0 - a ** 2)) * (1.0 - a ** (2 * V)))
    assert rep.constant == pytest.approx(expect, rel=1e-14)
    assert rep.within_cap


def test_hardy_discrete_impulse_qinf():
    rep = hardy_discrete_check(0.5, math.inf, impulse())
    assert rep.constant == pytest.approx(1.0)
    assert rep.within_cap


def test_hardy_discrete_sub_one_exponent_cap():
    # for q < 1 the cap is ((1+a^q)/(1-a^q))^{1/q}; the impulse nearly
    # saturates it
    a, q = 0.5, 0.7
    rep = hardy_discrete_check(a, q, impulse())
    cap = ((1.0 + a ** q) / (1.0 - a ** q)) ** (1.0 / q)
    assert rep.cap == pytest.approx(cap, rel=1e-12)
    assert rep.within_cap
    assert rep.constant == pytest.approx(cap, rel=1e-4)


def test_hardy_discrete_zero_sequence():
    V = 8
    rep = hardy_discrete_check(0.3, 2.0, np.zeros(2 * V + 1))
    assert rep.constant == 0.0
    assert rep.within_cap


def test_hardy_continuous_block_closed_form():
    # s = 1, q = 2, eps the indicator of (1, 4): with L = 2 ln 2,
    # ||eta||^2 = ||delta||^2 = (1 - e^-L)^2/2 + L - 2(1 - e^-L) + (1 - e^-2L)/2
    L = 2.0 * math.log(2.0)
    half = (1.0 - math.exp(-L)) ** 2 / 2.0
    mid = L - 2.0 * (1.0 - math.exp(-L)) + (1.0 - math.exp(-2.0 * L)) / 2.0
    expect = 2.0 * math.sqrt(half + mid) / math.sqrt(L)

    grid = HaarGrid(8, 16)

    def block(ts):
        ts = np.asarray(ts, dtype=float)
        return ((ts >= 1.0) & (ts < 4.0)).astype(float)

    rep = hardy_continuous_check(1.0, Q2, SampledFunction.from_callable(grid, block))
    assert rep.norm_eps == pytest.approx(math.sqrt(L), rel=1e-12)
    assert rep.constant == pytest.approx(expect, rel=2e-3)

    fine = hardy_continuous_check(
        1.0, Q2, SampledFunction.from_callable(grid.refined().refined(), block))
    assert abs(fine.constant - expect) < abs(rep.constant - expect) + 1e-6


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_hardy_continuous_stable_under_refinement(s):
    grid = HaarGrid(8, 16)

    def block(ts):
        ts = np.asarray(ts, dtype=float)
        return ((ts >= 0.5) & (ts < 2.0)) * 1.0 + ((ts >= 4.0) & (ts < 8.0)) * 0.5

    rep = hardy_continuous_check(s, Q2, SampledFunction.from_callable(grid, block))
    fine = hardy_continuous_check(
        s, Q2, SampledFunction.from_callable(grid.refined(), block))
    assert rep.constant > 0.0
    assert abs(fine.constant - rep.constant) <= 0.05 * rep.constant


def test_hardy_continuous_zero():
    grid = HaarGrid(6, 8)
    zero = SampledFunction(grid, np.zeros(grid.node_count))
    rep = hardy_continuous_check(1.0, Q2, zero)
    assert rep.constant == 0.0


def _key_setup(grid, interval, fill=None):
    nodes = grid.nodes
    mask = (nodes > interval[0]) & (nodes < interval[1])
    w = SampledFunction(grid, np.ones(grid.node_count))
    values = np.zeros(grid.node_count)
    if fill is not None:
        values[mask] = fill(int(np.sum(mask)))
    return w, SampledFunction(grid, values)


def test_key_estimate_constant_exponent_is_jensen():
    # constant p: gamma = 1 and the margin reduces to Jensen's inequality
    grid = HaarGrid(10, 16)
    p = ExponentFunction.constant(2.0)
    rng = np.random.default_rng(3)
    w, f = _key_setup(grid, (grid.t_min, 1.0), lambda n: rng.uniform(0.0, 1.0, n))
    rep = key_estimate_check(p, (grid.t_min, 1.0), w, f, 2.0, "local")
    assert rep.accepted and rep.passed
    assert rep.gamma == pytest.approx(1.0)
    assert rep.worst_margin >= -1e-12


def test_key_estimate_zero_function():
    grid = HaarGrid(8, 8)
    p = ExponentFunction.from_expression("1.5 + 0.5/log(e + 1/t)",
                                         p_at_zero=1.5, p_at_infinity=2.0)
    w, f = _key_setup(grid, (grid.t_min, 1.0))
    rep = key_estimate_check(p, (grid.t_min, 1.0), w, f, 1.5, "at_zero")
    assert rep.accepted and rep.passed


@pytest.mark.parametrize("variant", ["local", "at_zero", "at_infinity"])
def test_key_estimate_variants_hold(variant):
    grid = HaarGrid(12, 16)
    p = ExponentFunction.from_expression("1.7 + 0.6/log(e + 1/t)",
                                         p_at_zero=1.7, p_at_infinity=2.3)
    rng = np.random.default_rng(7)
    if variant == "at_infinity":
        interval = (4.0, grid.t_max)
    else:
        interval = (grid.t_min, 0.5)
    w, f = _key_setup(grid, interval, lambda n: rng.uniform(0.0, 1.0, n))
    rep = key_estimate_check(p, interval, w, f, 2.0, variant)
    assert rep.accepted
    assert rep.passed
    assert rep.worst_margin >= -1e-12
    assert 0.0 < rep.gamma <= 1.0


def test_key_estimate_rejects_oversized_function():
    grid = HaarGrid(8, 8)
    p = ExponentFunction.constant(2.0)
    w, f = _key_setup(grid, (grid.t_min, grid.t_max), lambda n: np.full(n, 50.0))
    rep = key_estimate_check(p, (grid.t_min, grid.t_max), w, f, 2.0, "local")
    assert not rep.accepted
    assert not rep.passed


def test_hardy_continuous_rejects_a_nan_s():
    # a nan s fails s > 0: a configuration error, not a divergence
    grid = HaarGrid(6, 8)
    eps = SampledFunction(grid, np.ones(grid.node_count))
    with pytest.raises(ConfigError, match="^s must be positive$"):
        hardy_continuous_check(math.nan, Q2, eps)


def test_key_estimate_rejects_a_nan_m():
    # a nan m fails m > 0, so no report carries a nan gamma
    grid = HaarGrid(6, 8)
    w, f = _key_setup(grid, (0.5, 2.0), lambda n: np.full(n, 0.5))
    with pytest.raises(ConfigError, match="^m must be positive$"):
        key_estimate_check(Q2, (0.5, 2.0), w, f, math.nan, "local")


def test_key_estimate_unknown_variant():
    grid = HaarGrid(6, 8)
    p = ExponentFunction.constant(2.0)
    w, f = _key_setup(grid, (grid.t_min, 1.0))
    with pytest.raises(ConfigError):
        key_estimate_check(p, (grid.t_min, 1.0), w, f, 2.0, "sideways")
