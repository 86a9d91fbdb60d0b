import dataclasses
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varinterp import (
    AtomFunction,
    CapacityError,
    ConfigError,
    Couple,
    DomainError,
    ExponentFunction,
    HaarGrid,
    KMethodParams,
    NormSpec,
    decompose,
    j_functional,
    k_brute_force,
    k_functional,
    k_functional_many,
    k_truncation_oracle,
    kj_inequality_check,
    k_norm_continuous,
    operator_bound_check,
)
from varinterp import couples, interp
from varinterp.couples import _bracket_scan
from varinterp.interp import _KMethodCouple
from varinterp.rearrange import rearrangement


LL = Couple.l1_linf()


def test_weighted_seq_validation():
    with pytest.raises(ConfigError):
        Couple.weighted_seq([1.0, -1.0], [1.0, 1.0])
    with pytest.raises(ConfigError):
        Couple.weighted_seq([1.0], [1.0, 1.0])
    with pytest.raises(ConfigError, match="non-empty"):
        Couple.weighted_seq([], [])


def test_weighted_norms():
    c = Couple.weighted_seq([1.0, 2.0], [3.0, 0.5])
    f = np.array([1.0, -2.0])
    assert c.norm0(f) == pytest.approx(1.0 + 4.0)
    assert c.norm1(f) == pytest.approx(3.0 + 1.0)


def test_l1_linf_norms_on_atoms():
    f = AtomFunction([3.0], [2.0])
    assert LL.norm0(f) == pytest.approx(6.0)  # L1
    assert LL.norm1(f) == pytest.approx(3.0)  # Linf
    assert j_functional(LL, 1.0, f) == pytest.approx(6.0)


def test_sum_and_intersection_on_identical_couple():
    c = Couple.weighted_seq([1.0, 1.0], [1.0, 1.0])
    f = np.array([1.0, 1.0])
    assert k_functional(c, 1.0, f) == pytest.approx(2.0)
    assert j_functional(c, 1.0, f) == pytest.approx(2.0)


def test_k_functional_worked_examples():
    # step of height 3 on measure 2: integral of min over truncations
    f = AtomFunction([3.0], [2.0])
    assert k_functional(LL, 1.0, f) == pytest.approx(3.0)
    assert k_functional(LL, 2.0, f) == pytest.approx(6.0)
    assert k_functional(LL, 5.0, f) == pytest.approx(6.0)
    # two-coordinate weighted couple
    c = Couple.weighted_seq([1.0, 1.0], [1.0, 4.0])
    f = np.array([1.0, 1.0])
    assert k_functional(c, 2.0, f) == pytest.approx(2.0)
    assert k_functional(c, 0.1, f) == pytest.approx(0.5)


def test_k_functional_zero_and_domain():
    assert k_functional(LL, 3.0, AtomFunction([0.0], [1.0])) == 0.0
    c = Couple.weighted_seq([1.0], [1.0])
    assert k_functional(c, 0.5, np.array([0.0])) == 0.0
    with pytest.raises(DomainError):
        k_functional(c, 0.0, np.array([1.0]))
    with pytest.raises(DomainError):
        k_functional(c, -1.0, np.array([1.0]))


SCALAR_T_ENTRY_POINTS = {
    "k_functional": lambda c, f, t: k_functional(c, t, f),
    "j_functional": lambda c, f, t: j_functional(c, t, f),
    "decompose": lambda c, f, t: np.concatenate(decompose(c, t, f)),
    "k_brute_force": lambda c, f, t: k_brute_force(c, t, f),
    "kj_inequality_check": lambda c, f, t: dataclasses.astuple(
        kj_inequality_check(c, f, t, 4.0)),
    "k_truncation_oracle": lambda c, f, t: k_truncation_oracle(
        AtomFunction([3.0, 1.0], [2.0, 0.5]), t),
}


@pytest.mark.parametrize("entry", sorted(SCALAR_T_ENTRY_POINTS))
def test_scalar_t_accepts_numpy_scalars(entry):
    run = SCALAR_T_ENTRY_POINTS[entry]
    c = Couple.weighted_seq([1.0, 2.0], [3.0, 0.5])
    f = np.array([1.0, -1.0])
    expected = np.asarray(run(c, f, 2.0), dtype=float).tobytes()
    for t in (2, np.int64(2), np.int32(2), np.float32(2.0), np.float64(2.0)):
        assert np.asarray(run(c, f, t), dtype=float).tobytes() == expected
    for t in ("2", [2.0], None, math.nan, math.inf, 0, -1.0,
              np.float32(math.nan), np.float64(math.inf), np.int64(0),
              np.float32(-1.0)):
        with pytest.raises(DomainError):
            run(c, f, t)


def test_k_endpoint_limits():
    c = Couple.weighted_seq([1.0, 2.0], [3.0, 0.5])
    f = np.array([1.0, -1.0])
    assert k_functional(c, 1e-6, f) / 1e-6 == pytest.approx(c.norm1(f), rel=1e-9)
    assert k_functional(c, 1e6, f) == pytest.approx(c.norm0(f), rel=1e-9)


def test_k_brute_force_matches_weighted_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        c = Couple.weighted_seq(10.0 ** rng.uniform(-1, 1, n),
                                10.0 ** rng.uniform(-1, 1, n))
        f = rng.uniform(-2.0, 2.0, n)
        t = float(10.0 ** rng.uniform(-3, 3))
        closed = k_functional(c, t, f)
        brute = k_brute_force(c, t, f, rng=rng)
        assert brute == pytest.approx(closed, rel=1e-6, abs=1e-12)


def test_k_brute_force_capacity_cap():
    c = Couple.weighted_seq(np.ones(7), np.ones(7))
    with pytest.raises(CapacityError):
        k_brute_force(c, 1.0, np.ones(7))


def test_k_brute_force_details():
    c = Couple.weighted_seq([1.0, 1.0], [1.0, 4.0])
    res = k_brute_force(c, 2.0, np.array([1.0, 1.0]), return_details=True)
    assert res.value == pytest.approx(2.0, rel=1e-8)
    assert not res.cap_hit
    assert res.evaluations > 0
    g = res.minimizer
    assert c.norm0(g) + 2.0 * c.norm1(np.array([1.0, 1.0]) - g) == pytest.approx(
        res.value, rel=1e-9)


def test_truncation_oracle_matches_profile_formula():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        f = AtomFunction(10.0 ** rng.uniform(-1, 1, n),
                         10.0 ** rng.uniform(-2, 2, n))
        t = float(10.0 ** rng.uniform(-3, 3))
        from_profile = k_functional(LL, t, f)
        from_oracle, level = k_truncation_oracle(f, t)
        assert from_oracle == pytest.approx(from_profile, rel=1e-12, abs=1e-300)
        assert level >= 0.0


def test_decompose_reconstructs_and_achieves_k():
    c = Couple.weighted_seq([1.0, 2.0], [3.0, 0.5])
    f = np.array([1.0, -2.0])
    for t in (0.1, 1.0, 10.0):
        f0, f1 = decompose(c, t, f)
        assert np.allclose(f0 + f1, f)
        cost = c.norm0(f0) + t * c.norm1(f1)
        assert cost == pytest.approx(k_functional(c, t, f), rel=1e-12)
    a0, a1 = decompose(LL, 1.0, AtomFunction([3.0], [2.0]))
    assert LL.norm0(a0) + LL.norm1(a1) == pytest.approx(3.0)


def test_j_functional():
    c = Couple.weighted_seq([1.0, 1.0], [1.0, 1.0])
    assert j_functional(c, 3.0, np.array([1.0, 0.0])) == pytest.approx(3.0)
    f = AtomFunction([3.0], [2.0])
    assert j_functional(LL, 1.0, f) == pytest.approx(6.0)
    with pytest.raises(DomainError):
        j_functional(c, 0.0, np.array([1.0, 0.0]))


def test_k_is_concave_and_monotone_in_t():
    c = Couple.weighted_seq([1.0, 2.0, 0.5], [3.0, 0.5, 1.0])
    f = np.array([1.0, -1.0, 0.5])
    ts = np.geomspace(1e-3, 1e3, 61)
    ks = k_functional_many(c, ts, f)
    assert np.all(np.diff(ks) >= -1e-12)
    slopes = np.diff(ks) / np.diff(ts)
    assert np.all(np.diff(slopes) <= 1e-9)


def test_k_symmetry_identity_exact():
    c = Couple.weighted_seq([1.0, 2.0], [3.0, 0.5])
    f = np.array([1.0, -1.0])
    for t in (0.3, 1.0, 7.0):
        assert k_functional(c, t, f) == pytest.approx(
            t * k_functional(c.reversed(), 1.0 / t, f), rel=1e-12)


def test_kj_inequalities():
    c = Couple.weighted_seq([1.0, 1.0], [1.0, 4.0])
    f = np.array([1.0, 1.0])
    rep = kj_inequality_check(c, f, 1.0, 4.0)
    assert rep.passed and rep.worst_margin >= 0.0
    # s = t collapses every comparison to K <= K, J <= J, K <= J
    rep = kj_inequality_check(c, f, 2.0, 2.0)
    assert rep.passed
    assert rep.k_s == rep.k_t and rep.j_s == rep.j_t


def test_finite_generic_norm_specs():
    c = Couple.finite_generic(NormSpec(2.0, [1.0, 1.0, 1.0]),
                              NormSpec(math.inf, [1.0, 2.0, 1.0]))
    f = np.array([1.0, -0.5, 2.0])
    assert c.norm0(f) == pytest.approx(math.sqrt(1.0 + 0.25 + 4.0))
    assert c.norm1(f) == pytest.approx(max(1.0, 1.0, 2.0))
    kv = k_functional(c, 1.5, f)
    assert kv <= c.norm0(f) + 1e-12
    assert kv <= 1.5 * c.norm1(f) + 1e-12


@pytest.mark.parametrize("p", [math.nan, 0.5, -math.inf])
def test_norm_spec_rejects_an_exponent_below_one_or_nan(p):
    with pytest.raises(ConfigError, match="^norm exponent p must be >= 1$"):
        NormSpec(p, [1.0, 2.0])


def test_finite_generic_takes_two_norm_specs_of_one_dimension():
    spec = NormSpec(2.0, [1.0, 1.0])
    # a callable norm, even a NormSpec's own, has no weights to check
    for norm0, norm1 in ((spec, spec.__call__), (spec.__call__, spec),
                         (spec.__call__, spec.__call__)):
        with pytest.raises(ConfigError, match="^finite_generic needs two NormSpecs$"):
            Couple.finite_generic(norm0, norm1)
    with pytest.raises(ConfigError, match="share the dimension"):
        Couple.finite_generic(spec, NormSpec(1.0, [1.0, 2.0, 3.0]))
    # a couple of dimension 0 has no elements but the empty vector
    with pytest.raises(ConfigError, match="non-empty"):
        Couple.finite_generic(NormSpec(2.0, []), NormSpec(math.inf, []))
    assert Couple.finite_generic(spec, NormSpec(1.0, [1.0, 2.0])).dimension == 2


@pytest.mark.parametrize("couple", [
    Couple.weighted_seq([1.0, 2.0], [1.0, 0.5]),
    Couple.finite_generic(NormSpec(2.0, [1.0, 1.0]), NormSpec(1.0, [1.0, 2.0])),
    Couple.weighted_seq([1.0], [2.0]),
    Couple.finite_generic(NormSpec(2.0, [1.0]), NormSpec(math.inf, [2.0])),
], ids=["weighted_seq-2", "finite_generic-2", "weighted_seq-1", "finite_generic-1"])
def test_vector_couples_reject_vectors_of_another_dimension(couple):
    # a one-element couple would otherwise broadcast over the vector
    message = f"does not match the couple's dimension {couple.dimension}$"
    for bad in ([0.7, -1.3, 0.4], [[0.7, -1.3]], 0.7):
        with pytest.raises(ConfigError, match=message):
            k_functional(couple, 1.0, bad)
        with pytest.raises(ConfigError, match=message):
            k_functional_many(couple, [0.5, 2.0], bad)
        with pytest.raises(ConfigError, match=message):
            decompose(couple, 1.0, bad)
        with pytest.raises(ConfigError, match=message):
            k_brute_force(couple, 1.0, bad)
        with pytest.raises(ConfigError, match=message):
            j_functional(couple, 1.0, bad)
        with pytest.raises(ConfigError, match=message):
            couple.norm0(bad)
        with pytest.raises(ConfigError, match=message):
            couple.norm1(bad)


def test_l1_linf_rejects_elements_that_are_not_atom_functions():
    message = "^l1_linf elements are AtomFunction instances$"
    for bad in ([1.0, 2.0], np.array([1.0, 2.0])):
        with pytest.raises(ConfigError, match=message):
            j_functional(LL, 1.0, bad)
        with pytest.raises(ConfigError, match=message):
            LL.norm0(bad)
        with pytest.raises(ConfigError, match=message):
            LL.norm1(bad)
        with pytest.raises(ConfigError, match=message):
            k_functional(LL, 1.0, bad)
        with pytest.raises(ConfigError, match=message):
            decompose(LL, 1.0, bad)


def test_generic_couple_raises_when_brute_force_hits_its_cap(monkeypatch):
    real = couples.k_brute_force
    c = Couple.finite_generic(NormSpec(2.0, [1.0, 1.0]), NormSpec(1.0, [1.0, 2.0]))
    f = np.array([1.0, -0.5])
    k_functional_many(c, [0.5, 2.0], f)
    decompose(c, 2.0, f)

    def capped(couple, t, *args, **kwargs):
        return dataclasses.replace(real(couple, t, *args, **kwargs),
                                   cap_hit=t >= 2.0)

    monkeypatch.setattr(couples, "k_brute_force", capped)
    # the message names the first t, in ascending order, that hit the cap
    with pytest.raises(CapacityError, match=r"at t=2$"):
        k_functional_many(c, [8.0, 0.5, 2.0], f)
    with pytest.raises(CapacityError, match=r"at t=2$"):
        decompose(c, 2.0, f)


def test_generic_couple_runs_one_independent_search_per_t():
    c = Couple.finite_generic(NormSpec(2.0, [1.0, 3.0, 0.5]),
                              NormSpec(math.inf, [2.0, 1.0, 1.0]))
    f = np.array([1.0, -2.0, 0.5])
    # unsorted, with a repeated t
    ts = np.array([2.0, 0.3, 2.0, 7.5, 0.3, 1.0])
    searches = [k_brute_force(c, float(t), f, return_details=True) for t in ts]
    values = k_functional_many(c, ts, f)
    f0, f1 = c.decompose_many(ts, f)
    assert values.tobytes() == np.array([r.value for r in searches]).tobytes()
    assert f0.tobytes() == np.array([r.minimizer for r in searches]).tobytes()
    assert f1.tobytes() == (f - f0).tobytes()
    assert values[0] == values[2] and values[1] == values[4]


def test_vector_couples_reject_non_finite_vectors():
    vector_couples = [
        Couple.weighted_seq([1.0, 2.0], [1.0, 0.5]),
        Couple.finite_generic(NormSpec(2.0, [1.0, 1.0]), NormSpec(1.0, [1.0, 2.0])),
    ]
    for c in vector_couples:
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match="must be finite"):
                k_functional(c, 1.0, [bad, 1.0])
            with pytest.raises(ConfigError, match="must be finite"):
                k_functional_many(c, [0.5, 2.0], np.array([1.0, bad]))
            with pytest.raises(ConfigError, match="must be finite"):
                decompose(c, 1.0, [bad, 1.0])


def test_bracket_scan_matches_a_dense_scan():
    # smooth and kinked convex functions, 8 per call: the scan's minimum
    # must be within xatol of a dense scan's, and its value no worse than
    # the dense scan's beyond the change over that distance
    rng = np.random.default_rng(3)
    for i in range(100):
        a = float(rng.uniform(-5.0, 1.0))
        b = a + float(10.0 ** rng.uniform(-6.0, 1.0))
        centre = rng.uniform(a - 1.0, b + 1.0, 8)[:, None]
        curvature = (10.0 ** rng.uniform(-3.0, 3.0, 8))[:, None]
        kink = rng.uniform(a, b, 8)[:, None]
        # odd i: a kinked convex function, as from a sup or l1 norm
        slope = rng.uniform(0.0, 5.0, 8)[:, None] if i % 2 else 0.0
        xatol = (b - a) * float(10.0 ** rng.uniform(-9.0, -2.0))

        def func(x):
            return curvature * (x - centre) ** 2 + slope * np.abs(x - kink)

        x, fx, escaped = _bracket_scan(func, np.full(8, a), b - a, a, b, xatol)
        # a scan of the whole box has no inner end to escape through
        assert not escaped.any()
        dense = np.linspace(a, b, 200_001)
        values = func(dense[None, :])
        best = values.argmin(axis=1)
        spacing = dense[1] - dense[0]
        assert np.all(np.abs(x - dense[best]) <= xatol + spacing)
        if i % 2 == 0:
            assert np.all(np.abs(x - np.clip(centre[:, 0], a, b)) <= xatol)
        assert np.array_equal(fx, func(x[:, None])[:, 0])
        # the dense scan's best is within one spacing of the minimizer too
        lipschitz = 2.0 * curvature[:, 0] * (b - a + np.abs(centre[:, 0] - a)) \
            + (slope[:, 0] if i % 2 else 0.0)
        assert np.all(fx <= values.min(axis=1) + lipschitz * (xatol + spacing))


def test_warm_bracket_scan_escapes_exactly_through_inner_ends():
    # warm brackets left of, around and right of the minimizer over the
    # box, and flush with either end of it; a row escapes exactly when its
    # first round's best point is an end of the bracket inside the box,
    # and after a rescan of the whole box for those rows every row agrees
    # with a dense scan
    rng = np.random.default_rng(5)
    # bracket start relative to the minimizer, in bracket widths; the
    # last two rows are placed flush with lo and hi
    offsets = np.array([-3.0, -1.0, -0.5, -0.25, 0.0, 0.5])
    escapes = 0
    for i in range(100):
        a = float(rng.uniform(-5.0, 1.0))
        b = a + float(10.0 ** rng.uniform(-4.0, 1.0))
        centre = rng.uniform(a - 0.5, b + 0.5, 8)
        curvature = 10.0 ** rng.uniform(-3.0, 3.0, 8)
        kink = rng.uniform(a, b, 8)
        # odd i: a kinked convex function, as from a sup or l1 norm
        slope = rng.uniform(0.0, 5.0, 8) if i % 2 else np.zeros(8)
        xatol = (b - a) * float(10.0 ** rng.uniform(-9.0, -4.0))
        width = 128.0 * xatol

        def func(x, rows=slice(None)):
            return (curvature[rows, None] * (x - centre[rows, None]) ** 2
                    + slope[rows, None] * np.abs(x - kink[rows, None]))

        dense = np.linspace(a, b, 200_001)
        values = func(dense[None, :])
        best = values.argmin(axis=1)
        spacing = dense[1] - dense[0]
        minimizer = dense[best]
        starts = np.clip(minimizer[:6] + offsets * width, a, b - width)
        starts = np.concatenate([starts, [a, b - width]])

        x, fx, escaped = _bracket_scan(func, starts, width, a, b, xatol)
        first = starts[:, None] + width * np.arange(17) / 16.0
        at = func(first).argmin(axis=1)
        inner = ((at == 0) & (starts > a)) | ((at == 16) & (b - starts > width))
        assert np.array_equal(escaped, inner)
        # a bracket that ends short of the minimizer by more than the
        # dense scan's spacing must escape
        short = (starts + width < minimizer - 2 * spacing) \
            | (starts > minimizer + 2 * spacing)
        assert np.all(escaped[short])
        escapes += int(escaped.sum())

        out = np.flatnonzero(escaped)
        if len(out):
            x[out], fx[out], again = _bracket_scan(
                lambda xs: func(xs, out), np.full(len(out), a), b - a, a, b, xatol)
            assert not again.any()
        assert np.all(np.abs(x - minimizer) <= xatol + spacing)
        assert np.array_equal(fx, func(x[:, None])[:, 0])
        lipschitz = 2.0 * curvature * (b - a + np.abs(centre - a)) + slope
        assert np.all(fx <= values.min(axis=1) + lipschitz * (xatol + spacing))
    # both outcomes occur: the far brackets escape, the others do not
    assert 0 < escapes < 800


class CountedNorms(Couple):
    """Two NormSpecs as a plain vector couple that records the number of
    rows of every batch norm call."""

    def __init__(self, spec0, spec1):
        self.specs = (spec0, spec1)
        self.seen = ([], [])

    def norm0_many(self, G, f):
        self.seen[0].append(len(G))
        return self.specs[0](G)

    def norm1_many(self, G, f):
        self.seen[1].append(len(G))
        return self.specs[1](G)


def test_brute_force_counts_every_row_evaluated():
    # the starts run in lockstep, so the norms see many rows per call, and
    # the evaluation count is the number of rows
    c = CountedNorms(NormSpec(2.0, [1.0, 3.0, 0.5]), NormSpec(1.0, [2.0, 1.0, 1.0]))
    seen = c.seen
    res = k_brute_force(c, 0.7, np.array([1.0, -2.0, 0.5]), return_details=True)
    assert res.evaluations == sum(seen[0]) == sum(seen[1])
    assert len(seen[0]) < res.evaluations / 10
    # warm brackets after the first sweep took it from the 21,210 rows a
    # scan of the whole box in every sweep takes to 10,398; running each
    # distinct line search once takes it lower still, with the same value
    assert res.evaluations < 10_398
    assert res.value == 2.4023236891233175


class RepeatedRows:
    """A stand-in for a numpy Generator whose random starts are all one
    row."""

    def __init__(self, row):
        self.row = row

    def uniform(self, lo, hi, size):
        return np.tile(self.row, (size[0], 1))


def test_duplicate_starts_share_their_line_searches():
    c = Couple.finite_generic(NormSpec(2.0, [1.0, 3.0, 0.5]),
                              NormSpec(1.0, [2.0, 1.0, 1.0]))
    f = np.array([1.0, -2.0, 0.5])
    rng = RepeatedRows(np.array([0.3, -1.1, 0.2]))
    once = k_brute_force(c, 0.7, f, n_random_starts=1, rng=rng,
                         return_details=True)
    thrice = k_brute_force(c, 0.7, f, n_random_starts=3, rng=rng,
                           return_details=True)
    assert thrice.value == once.value
    assert thrice.minimizer.tobytes() == once.minimizer.tobytes()
    # the copies count only in the evaluation of the starts themselves
    assert once.evaluations < thrice.evaluations <= once.evaluations + 2



def pinned_problems():
    """(couple, t, f, keyword arguments) of six seeded brute-force K
    problems: weighted couples for n = 2..5, a generic couple of two
    NormSpecs and the reiteration check's derived couple."""
    for n in (2, 3, 4, 5):
        rng = np.random.default_rng(100 + n)
        w0, w1 = 10.0 ** rng.uniform(-1, 1, (2, n))
        yield (Couple.weighted_seq(w0, w1), float(10.0 ** rng.uniform(-1, 1)),
               rng.uniform(-2, 2, n), {})
    rng = np.random.default_rng(106)
    w0, w1 = 10.0 ** rng.uniform(-1, 1, (2, 3))
    yield (Couple.finite_generic(NormSpec(1.5, w0), NormSpec(math.inf, w1)),
           float(10.0 ** rng.uniform(-1, 1)), rng.uniform(-2, 2, 3), {})
    rng = np.random.default_rng(107)
    w0, w1 = 10.0 ** rng.uniform(-1, 1, (2, 3))
    # skip the draw of t above: K at t = 1 has an inner minimizer
    rng.uniform(-1, 1)
    yield (_KMethodCouple(Couple.weighted_seq(w0, w1), HaarGrid(4, 4), 1.7,
                          (0.3, 0.7)),
           1.0, rng.uniform(-2, 2, 3),
           dict(resolution=1e-6, n_random_starts=2))


# value, minimizer and evaluation count of each pinned problem, recorded
# before the derived couple solved both its norms in one call and before a
# sweep that moves nothing stopped its start; the derived problem's last
# minimizer coordinate was -0x1.0000000000000p-72 before its search stopped
# on the couple's dual bound, with the same value bits
PINNED = [
    ("0x1.78de3c2d9e4d1p+0",
     ["-0x1.27dc67cb4ee70p-3", "0x1.2bc2d14cc5000p-31"], 2442),
    ("0x1.07243a189ab01p-1",
     ["0x1.4ae61fbcbab0cp-1", "0x1.9c40f40ce3334p-1", "-0x1.12a91e8b39240p-34"],
     4703),
    ("0x1.76522c8ab4a5bp+2",
     ["0x1.a8b14a20bfb00p-33", "-0x1.bc2065fa843f6p+0", "0x1.39bb208beeb60p-3",
      "0x1.060378570d588p+0"], 6760),
    ("0x1.4a3df1918c2d2p+3",
     ["-0x1.0000000000000p-77", "-0x1.0000000000000p-77",
      "-0x1.e1c3694fc0be2p-1", "-0x1.6574f77116b67p-1",
      "-0x1.0000000000000p-77"], 8970),
    ("0x1.144c96ef18b7fp-1",
     ["-0x1.b7248c2174afep-17", "-0x1.2e30332b6931cp-1",
      "0x1.ceb681fed2600p-33"], 7865),
    ("0x1.377fad73b0a1dp+3",
     ["0x1.f553b8984ae27p+0", "-0x1.816485fd65162p-1", "0x0.0p+0"],
     4153),
]


def test_brute_force_keeps_its_pinned_bits():
    for (c, t, f, kwargs), (value, minimizer, evaluations) in zip(
            pinned_problems(), PINNED, strict=True):
        res = k_brute_force(c, t, f, return_details=True, **kwargs)
        assert res.value.hex() == value
        assert [x.hex() for x in res.minimizer] == minimizer
        assert res.evaluations <= evaluations
        assert not res.cap_hit
        if isinstance(c, _KMethodCouple):
            # the search stopped on its dual bound
            assert res.value - res.lower <= kwargs["resolution"] * res.value
        else:
            assert res.lower == -math.inf


@pytest.mark.parametrize("resolution", [math.nan, math.inf, 0.0, -1.0, 1.0])
def test_brute_force_rejects_a_resolution_outside_zero_one(resolution,
                                                           monkeypatch):
    # a nan resolution made the bracket scan's stop test never hold
    c = Couple.weighted_seq([1.0, 2.0], [3.0, 0.5])
    calls = []
    monkeypatch.setattr(c, "cost_many", lambda *args: calls.append(args))
    with pytest.raises(ConfigError, match=r"^resolution must be a number in \(0, 1\)$"):
        k_brute_force(c, 1.0, [1.0, -2.0], resolution=resolution)
    assert calls == []


def test_brute_force_rejects_non_finite_vectors():
    c = Couple.weighted_seq([1.0, 2.0], [1.0, 0.5])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError):
            k_brute_force(c, 1.0, [bad, 1.0])


def test_batch_norms_equal_scalar_norms_bit_for_bit():
    rng = np.random.default_rng(11)
    for n in (1, 2, 5, 6):
        G = rng.normal(size=(40, n)) * 10.0 ** rng.uniform(-3, 3, (40, 1))
        w0, w1 = 10.0 ** rng.uniform(-1, 1, (2, n))
        candidates = [Couple.weighted_seq(w0, w1)]
        candidates += [Couple.finite_generic(NormSpec(p, w0), NormSpec(p1, w1))
                     for p, p1 in ((1.0, 2.0), (2.0, math.inf), (math.inf, 1.0))]
        for c in candidates:
            for norm, many in ((c.norm0, c.norm0_many), (c.norm1, c.norm1_many)):
                scalar = [norm(g) for g in G]
                # brute-force K hands the norms column-major trial points
                for layout in (G, np.asfortranarray(G)):
                    rows = many(layout, G[0])
                    assert rows.shape == (40,)
                    assert scalar == rows.tolist()


def test_l1_linf_batch_norms_equal_scalar_norms_bit_for_bit():
    # G @ masses rounds differently from np.dot of a row in many rows
    rng = np.random.default_rng(13)
    for n in (0, 1, 2, 5, 6, 40):
        f = AtomFunction(np.ones(n), 10.0 ** rng.uniform(-2, 2, n))
        G = 10.0 ** rng.uniform(-3, 3, (300, n)) * (rng.random((300, n)) < 0.8)
        rows = [AtomFunction(g, f.masses) for g in G]
        assert LL.norm0_many(G, f).tolist() == [u.total_l1 for u in rows]
        assert LL.norm1_many(G, f).tolist() == [u.sup_value for u in rows]


def test_decompose_many_rows_equal_single_t_decompositions():
    rng = np.random.default_rng(14)
    ts = 2.0 ** rng.uniform(-8, 8, 30)
    w0, w1 = 10.0 ** rng.uniform(-1, 1, (2, 5))
    ws = Couple.weighted_seq(w0, w1)
    f = rng.uniform(-2.0, 2.0, 5)
    g = AtomFunction(10.0 ** rng.uniform(-1, 1, 6), 10.0 ** rng.uniform(-2, 2, 6))
    profile = rearrangement(g)
    cases = (
        (ws, f, f, lambda t: np.where(w0 < t * w1, f, 0.0)),
        (LL, g, g.values, lambda t: np.maximum(g.values - profile.value_at(t), 0.0)),
    )
    for c, element, values, closed in cases:
        f0, f1 = c.decompose_many(ts, element)
        assert f0.shape == f1.shape == (len(ts), len(values))
        assert np.array_equal(f1, values - f0)
        for t, row0, row1 in zip(ts, f0, f1):
            a0, a1 = decompose(c, float(t), element)
            if c is LL:
                a0, a1 = a0.values, a1.values
            assert np.array_equal(row0, a0) and np.array_equal(row1, a1)
            assert np.array_equal(row0, closed(t))
    # brute force: each t is its own search, so each row is the single-t
    # split, bit for bit, and costs K
    c = Couple.finite_generic(NormSpec(2.0, [1.0, 3.0, 0.5]),
                              NormSpec(1.0, [2.0, 1.0, 1.0]))
    f = np.array([1.0, -2.0, 0.5])
    ts = np.array([4.0, 0.25, 1.0, 0.05])
    f0, f1 = c.decompose_many(ts, f)
    costs = c.norm0_many(f0, f) + ts * c.norm1_many(f1, f)
    for t, row0, row1, cost in zip(ts, f0, f1, costs):
        a0, a1 = decompose(c, float(t), f)
        assert np.array_equal(row0, a0) and np.array_equal(row1, a1)
        assert cost == k_functional(c, float(t), f)


def test_generic_l1_couple_matches_weighted_closed_form():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        w0, w1 = 10.0 ** rng.uniform(-1, 1, (2, n))
        f = rng.uniform(-2.0, 2.0, n)
        t = float(10.0 ** rng.uniform(-2, 2))
        generic = Couple.finite_generic(NormSpec(1.0, w0), NormSpec(1.0, w1))
        closed = k_functional(Couple.weighted_seq(w0, w1), t, f)
        assert k_functional(generic, t, f) == pytest.approx(closed, rel=1e-9)


def test_brute_force_k_runs_without_scipy():
    script = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None
        import numpy as np
        from varinterp import Couple, NormSpec, k_functional, run_check
        assert run_check("k-oracle", trials=6).passed
        c = Couple.finite_generic(NormSpec(2.0, [1.0, 1.0]),
                                  NormSpec(1.0, [1.0, 2.0]))
        print(k_functional(c, 1.5, np.array([1.0, -0.5])))
    """)
    src = os.path.dirname(os.path.dirname(couples.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) > 0.0


def test_operator_exact_bounds_and_application():
    c = Couple.weighted_seq([1.0, 1.0], [1.0, 4.0])
    M = np.array([[0.5, 0.2], [-0.1, 0.8]])
    # the norm of a matrix on l1(w) is the largest weighted column sum
    assert c.operator_norms(M) == pytest.approx((1.0, 0.9))
    f = np.array([1.0, 1.0])
    grid = HaarGrid(12, 16)
    q = ExponentFunction.constant(2.0)
    rep = operator_bound_check(M.tolist(), c, 0.5, q, f.tolist(), grid)
    assert (rep.bound0, rep.bound1) == c.operator_norms(M)
    params = KMethodParams(0.5, q, grid)
    assert rep.lhs == k_norm_continuous(c, M @ f, params)
    assert rep.base_norm == k_norm_continuous(c, f, params)
    assert rep.rhs == 1.0 * rep.base_norm
    assert rep.passed


def test_operator_bound_check_identity():
    c = Couple.weighted_seq([1.0, 1.0], [1.0, 4.0])
    grid = HaarGrid(16, 32)
    q = ExponentFunction.constant(2.0)
    rep = operator_bound_check(np.eye(2), c, 0.5, q, np.array([1.0, 1.0]), grid)
    assert rep.passed
    assert rep.lhs == rep.rhs


@pytest.mark.parametrize("couple, matrix, f, match", [
    (Couple.weighted_seq([1.0, 1.0], [1.0, 4.0]), np.eye(3), [1.0, 1.0],
     "^operator dimension does not match the couple$"),
    (Couple.weighted_seq([1.0, 1.0], [1.0, 4.0]), np.ones((2, 3)), [1.0, 1.0],
     "^operator dimension does not match the couple$"),
    (Couple.weighted_seq([1.0, 1.0], [1.0, 4.0]), [[1.0, math.nan], [0.0, 1.0]],
     [1.0, 1.0], "^operator matrix must be finite$"),
    (Couple.weighted_seq([1.0, 1.0], [1.0, 4.0]), [[1.0, 0.0], [-math.inf, 1.0]],
     [1.0, 1.0], "^operator matrix must be finite$"),
    (Couple.weighted_seq([1.0, 1.0], [1.0, 4.0]), np.eye(2), [1.0, 1.0, 1.0],
     "couple's dimension 2$"),
    (Couple.finite_generic(NormSpec(2.0, [1.0, 1.0]), NormSpec(1.0, [1.0, 4.0])),
     np.eye(2), [1.0, 1.0], "^exact operator norms are implemented for weighted_seq$"),
])
def test_operator_bound_check_rejects_before_any_norm(couple, matrix, f, match,
                                                      monkeypatch):
    calls = []
    monkeypatch.setattr(interp, "k_norm_continuous",
                        lambda *args: calls.append(args))
    with pytest.raises(ConfigError, match=match):
        operator_bound_check(matrix, couple, 0.5, ExponentFunction.constant(2.0),
                             f, HaarGrid(4, 4))
    assert calls == []


def test_reverse_swaps_norms():
    f = np.array([1.0, -1.0])
    for c in (Couple.weighted_seq([1.0, 2.0], [3.0, 0.5]),
              Couple.finite_generic(NormSpec(2.0, [1.0, 2.0]),
                                    NormSpec(math.inf, [3.0, 0.5]))):
        r = c.reversed()
        assert type(r) is type(c)
        assert r.norm0(f) == c.norm1(f) and r.norm1(f) == c.norm0(f)
    with pytest.raises(ConfigError):
        LL.reversed()


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_k_homogeneity(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    c = Couple.weighted_seq(10.0 ** rng.uniform(-1, 1, n),
                            10.0 ** rng.uniform(-1, 1, n))
    f = rng.uniform(-2.0, 2.0, n)
    t = float(10.0 ** rng.uniform(-2, 2))
    scale = float(10.0 ** rng.uniform(-1, 1))
    assert k_functional(c, t, scale * f) == pytest.approx(
        scale * k_functional(c, t, f), rel=1e-12, abs=1e-300)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_kj_inequalities_random(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    c = Couple.weighted_seq(10.0 ** rng.uniform(-1, 1, n),
                            10.0 ** rng.uniform(-1, 1, n))
    f = rng.uniform(-2.0, 2.0, n)
    s, t = (float(10.0 ** rng.uniform(-2, 2)) for _ in range(2))
    assert kj_inequality_check(c, f, s, t).passed
