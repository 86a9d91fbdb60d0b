import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varinterp import (
    AtomFunction,
    DivergenceError,
    ExponentFunction,
    HaarGrid,
    distribution_function,
    lorentz_discrete_norm,
    lorentz_norm,
    rearrangement,
)
from varinterp.rearrange import _log_midpoints


GRID = HaarGrid(16, 32)
CHI = AtomFunction([1.0], [1.0])


def const(x):
    return ExponentFunction.constant(x)


def test_atom_function_validation():
    with pytest.raises(ValueError):
        AtomFunction([1.0, -2.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        AtomFunction([1.0], [0.0])
    with pytest.raises(ValueError):
        AtomFunction([1.0, 2.0], [1.0])


def test_rearrangement_profile_merges_and_sorts():
    f = AtomFunction([3.0, 1.0, 2.0], [0.5, 1.0, 0.25])
    prof = rearrangement(f)
    assert np.allclose(prof.breakpoints, [0.0, 0.5, 0.75, 1.75])
    assert np.array_equal(prof.levels, [3.0, 2.0, 1.0])
    assert prof.l1 == pytest.approx(f.total_l1, rel=1e-12)
    assert prof.total_mass == pytest.approx(1.75)


def test_rearrangement_merges_equal_values():
    f = AtomFunction([2.0, 2.0, 1.0], [0.25, 0.5, 1.0])
    prof = rearrangement(f)
    assert np.array_equal(prof.levels, [2.0, 1.0])
    assert np.allclose(prof.breakpoints, [0.0, 0.75, 1.75])


def test_rearrangement_drops_zero_values():
    f = AtomFunction([0.0, 2.0], [5.0, 0.5])
    prof = rearrangement(f)
    assert np.array_equal(prof.levels, [2.0])
    assert prof.total_mass == 0.5


def test_profile_right_continuity():
    f = AtomFunction([3.0, 1.0, 2.0], [0.5, 1.0, 0.25])
    prof = rearrangement(f)
    # at each interior breakpoint the value from the right applies
    assert prof.value_at(0.5) == 2.0
    assert prof.value_at(0.75) == 1.0
    assert prof.value_at(1.75) == 0.0
    assert prof.value_at(5.0) == 0.0
    # the single unit atom vanishes exactly at its mass
    assert rearrangement(CHI).value_at(1.0) == 0.0
    assert rearrangement(CHI).value_at(0.9999) == 1.0


def test_profile_integral():
    f = AtomFunction([3.0, 1.0], [0.5, 1.0])
    prof = rearrangement(f)
    assert prof.integral_to(0.25) == pytest.approx(0.75)
    assert prof.integral_to(0.5) == pytest.approx(1.5)
    assert prof.integral_to(1.0) == pytest.approx(2.0)
    assert prof.integral_to(10.0) == pytest.approx(prof.l1)
    assert prof.integral_to(0.0) == 0.0


def test_distribution_function():
    f = AtomFunction([3.0, 1.0], [0.5, 1.0])
    assert distribution_function(f, 0.0) == pytest.approx(1.5)
    assert distribution_function(f, 1.0) == pytest.approx(0.5)
    assert distribution_function(f, 2.9) == pytest.approx(0.5)
    assert distribution_function(f, 3.0) == 0.0


def test_lorentz_norm_indicator_closed_forms():
    # f* = chi_(0,1): ||f||_{p,q} = (p/q)^{1/q}
    for p, q in ((2.0, 2.0), (2.0, 3.0), (1.5, 2.0), (4.0, 1.0)):
        got = lorentz_norm(CHI, const(p), const(q), GRID)
        assert got == pytest.approx((p / q) ** (1.0 / q), rel=1e-4)


def test_lorentz_norm_atom_closed_form():
    f = AtomFunction([3.0, 1.0, 2.0], [0.5, 1.0, 0.25])
    prof = rearrangement(f)
    p, q = 2.5, 1.7
    total = 0.0
    for i, lev in enumerate(prof.levels):
        a, b = prof.breakpoints[i], prof.breakpoints[i + 1]
        total += lev ** q * (p / q) * (b ** (q / p) - a ** (q / p))
    assert lorentz_norm(f, const(p), const(q), GRID) == pytest.approx(
        total ** (1.0 / q), rel=1e-4)


def test_lorentz_norm_power_of_two_scaling_exact():
    f = AtomFunction([3.0, 1.0, 2.0], [0.5, 1.0, 0.25])
    q = ExponentFunction.from_expression("2 + 0.5*min(t, 1/t)",
                                         p_at_zero=2.0, p_at_infinity=2.0)
    base = lorentz_norm(f, const(2.0), q, GRID)
    assert lorentz_norm(f.scaled(4.0), const(2.0), q, GRID) == 4.0 * base
    assert lorentz_norm(f.scaled(0.25), const(2.0), q, GRID) == 0.25 * base


def test_lorentz_norm_ends():
    # like luxemburg_norm: 0.0 for a norm below 1e-300, DivergenceError for
    # one above 1e300, without a numpy warning
    f = AtomFunction([3.0, 1.0, 2.0], [0.5, 1.0, 0.25])
    q_var = ExponentFunction.from_expression("2 + 0.5*min(t, 1/t)",
                                             p_at_zero=2.0, p_at_infinity=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q in (const(2.0), q_var):
            assert 0.0 < lorentz_norm(f.scaled(1e-290), const(2.0), q, GRID) < 1e-289
            assert lorentz_norm(f.scaled(1e-301), const(2.0), q, GRID) == 0.0
            assert lorentz_norm(AtomFunction([1e-320], [1.0]), const(2.0), q,
                                GRID) == 0.0
            assert lorentz_norm(f.scaled(1e290), const(2.0), q, GRID) > 1e290
            with pytest.raises(DivergenceError):
                lorentz_norm(f.scaled(1e301), const(2.0), q, GRID)


def test_log_midpoints_match_a_linspace_per_cell():
    rng = np.random.default_rng(2)
    for _ in range(50):
        bounds = np.unique(10.0 ** rng.uniform(-6.0, 6.0, int(rng.integers(2, 40))))
        du = float(rng.uniform(0.01, 2.0))
        nodes, widths = [], []
        for a, b in zip(np.log(bounds[:-1]), np.log(bounds[1:])):
            edges = np.linspace(a, b, max(1, math.ceil((b - a) / du - 1e-9)) + 1)
            nodes.append(np.exp(0.5 * (edges[:-1] + edges[1:])))
            widths.append(np.diff(edges))
        t_nodes, t_widths = _log_midpoints(bounds, du)
        assert np.array_equal(t_nodes, np.concatenate(nodes))
        assert np.array_equal(t_widths, np.concatenate(widths))


def test_lorentz_discrete_indicator_value():
    # samples f*(2^v); the unit indicator vanishes at t = 1 by right
    # continuity, so only v <= -1 contribute: sum 2^v over v in [-V, -1]
    got = lorentz_discrete_norm(CHI, const(2.0), const(2.0), 16)
    assert got == pytest.approx(math.sqrt(1.0 - 2.0 ** -16), rel=1e-14)


def test_lorentz_discrete_overflow_is_divergence():
    # like lambda_norm: an overflowing modular is a divergence (CLI exit 3),
    # reported without a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError):
            lorentz_discrete_norm(AtomFunction([1e200], [1.0]),
                                  const(2.0), const(2.0), 4)


def test_lorentz_discrete_brackets_continuous():
    f = AtomFunction([3.0, 1.0, 2.0], [0.5, 1.0, 0.25])
    for p, q in ((2.0, 2.0), (1.5, 3.0)):
        dn = lorentz_discrete_norm(f, const(p), const(q), 16)
        cn = lorentz_norm(f, const(p), const(q), GRID)
        assert 1.0 / 8.0 <= dn / cn <= 8.0


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_rearrangement_is_equimeasurable(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    f = AtomFunction(10.0 ** rng.uniform(-1, 1, n), 10.0 ** rng.uniform(-2, 2, n))
    prof = rearrangement(f)
    widths = np.diff(prof.breakpoints)
    for lam in rng.uniform(0.0, float(f.sup_value) * 1.1, 8):
        mass_f = distribution_function(f, float(lam))
        mass_star = float(np.sum(widths[prof.levels > lam]))
        assert mass_f == pytest.approx(mass_star, rel=1e-12, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_rearrangement_preserves_l1(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    f = AtomFunction(10.0 ** rng.uniform(-1, 1, n), 10.0 ** rng.uniform(-2, 2, n))
    prof = rearrangement(f)
    assert prof.l1 == pytest.approx(f.total_l1, rel=1e-12)
    assert prof.integral_to(prof.total_mass) == pytest.approx(f.total_l1, rel=1e-12)
