import dataclasses
import math

import numpy as np
import pytest

from varinterp import (
    AtomFunction,
    ConfigError,
    ConstructionError,
    Couple,
    ExponentFunction,
    HaarGrid,
    JRepresentation,
    KMethodParams,
    NormSpec,
    class_membership_check,
    construct_j_representation,
    density_check,
    embedding_checks,
    j_functional,
    k_brute_force,
    k_norm_continuous,
    k_norm_discrete,
    k_norm_sup,
    kj_equivalence_check,
    lambda_norm,
    lorentz_discrete_norm,
    lorentz_identification_check,
    reiteration_check,
)
from varinterp import couples, interp
from varinterp.interp import (
    prop_equal_limits,
    prop_exponent_monotone,
    prop_identical_couple,
    prop_reversal_symmetry,
    prop_theta_monotone,
)


GRID = HaarGrid(16, 32)
Q2 = ExponentFunction.constant(2.0)
LL = Couple.l1_linf()
CHI = AtomFunction([1.0], [1.0])
WS = Couple.weighted_seq([1.0, 2.0], [3.0, 0.5])
F2 = np.array([1.0, -1.0])
# a reiteration draw whose outer K has an inner minimizer at t = 1, so that
# the search runs there
WS3 = Couple.weighted_seq([1.0, 2.0, 1.0], [3.0, 0.5, 1.0])
F3 = np.array([1.0, -1.0, 0.5])


def params(theta=0.5, q=Q2, grid=GRID):
    return KMethodParams(theta, q, grid)


def test_k_method_params_validation():
    with pytest.raises(ConfigError):
        KMethodParams(0.0, Q2, GRID)
    with pytest.raises(ConfigError):
        KMethodParams(1.0, Q2, GRID)


def test_k_norm_continuous_indicator_spot_value():
    # K(t, chi) = min(t, 1), theta = 1/2, q = 2: the squared integrand is
    # t*1_{t<1} + 1/t*1_{t>1}, modular 2, norm sqrt(2)
    got = k_norm_continuous(LL, CHI, params())
    assert got == pytest.approx(math.sqrt(2.0), abs=1e-3)


def test_k_norm_continuous_zero():
    zero = AtomFunction([0.0], [1.0])
    assert k_norm_continuous(LL, zero, params()) == 0.0


def test_k_norm_discrete_indicator_exact():
    # alpha_v = min(2^v, 1): lower block sums 2^v over v in [-V, 0],
    # upper block sums 2^{-v} over v in [1, V], both under sqrt
    V = 16
    got = k_norm_discrete(LL, CHI, 0.5, 2.0, 2.0, V)
    expect = math.sqrt(2.0 - 2.0 ** -V) + math.sqrt(1.0 - 2.0 ** -V)
    assert got == pytest.approx(expect, rel=1e-14)


def test_k_norm_sup_indicator():
    # sup min(t,1)/sqrt(t) = 1 at t = 1; nodes sit du/2 away from t = 1 in
    # log scale, so the sampled sup is exp(-du/4)
    got = k_norm_sup(LL, CHI, 0.5, GRID)
    assert got == pytest.approx(math.exp(-GRID.du / 4.0), rel=1e-12)
    assert got == pytest.approx(1.0, abs=6e-3)
    # endpoint thetas recover the endpoint norms
    assert k_norm_sup(LL, CHI, 0.0, GRID) == pytest.approx(1.0)  # L1 mass
    assert k_norm_sup(LL, CHI, 1.0, GRID) == pytest.approx(1.0)  # sup height
    with pytest.raises(ConfigError):
        k_norm_sup(LL, CHI, 1.5, GRID)


def test_k_norm_homogeneity():
    base = k_norm_continuous(WS, F2, params())
    assert k_norm_continuous(WS, 10.0 * F2, params()) == pytest.approx(
        10.0 * base, rel=1e-8)
    assert k_norm_continuous(WS, 4.0 * F2, params()) == 4.0 * base
    based = k_norm_discrete(WS, F2, 0.5, 2.0, 2.0, 16)
    assert k_norm_discrete(WS, 0.1 * F2, 0.5, 2.0, 2.0, 16) == pytest.approx(
        0.1 * based, rel=1e-8)


def test_embedding_checks_pass_and_scale():
    rep = embedding_checks(WS, F2, params())
    assert rep.passed
    assert rep.growth_margin >= 0.0
    rep10 = embedding_checks(WS, 10.0 * F2, params())
    assert rep10.c_to_sum == pytest.approx(rep.c_to_sum, rel=1e-9)
    assert rep10.c_from_intersection == pytest.approx(rep.c_from_intersection,
                                                      rel=1e-9)


def test_j_representation_telescopes_and_bounds():
    jrep = construct_j_representation(WS, F2, 16)
    assert jrep.j_bound_ok and jrep.worst_ratio <= 3.03
    assert jrep.terms.shape == (33, 2)
    assert np.array_equal(jrep.terms.sum(axis=0), F2)

    jrep = construct_j_representation(LL, CHI, 12)
    assert jrep.j_bound_ok
    assert jrep.terms.shape == (25, 1)
    recon = sum(AtomFunction(u, CHI.masses).total_l1 for u in jrep.terms)
    assert recon == pytest.approx(CHI.total_l1, rel=1e-12)


def test_j_representation_rejects_a_decomposition_above_k(monkeypatch):
    # f0 = 0 costs t norm1(f), above K once t w1 > w0 in some coordinate
    c = Couple.weighted_seq([1.0, 2.0], [3.0, 0.5])

    def lazy(ts, f):
        return np.zeros((len(ts), len(f))), np.tile(f, (len(ts), 1))

    monkeypatch.setattr(c, "decompose_many", lazy)
    with pytest.raises(ConstructionError, match="costs"):
        construct_j_representation(c, F2, 4)


def test_j_representation_rejects_a_negative_part(monkeypatch):
    # f0 = eps at t = 1/4 costs 3 eps relatively more than K, within the
    # slack, but leaves the part u_{-2} = 0 - eps
    c = Couple.l1_linf()
    real = c.decompose_many

    def bumped(ts, f):
        f0, f1 = real(ts, f)
        row = int(np.flatnonzero(ts == 0.25)[0])
        f0[row] += 1e-4
        f1[row] -= 1e-4
        return f0, f1

    monkeypatch.setattr(c, "decompose_many", bumped)
    with pytest.raises(ConstructionError, match="negative"):
        construct_j_representation(c, CHI, 4)


def test_j_representation_single_transition():
    # with w1 huge, the optimal decomposition flips from g=0 to g=f in one
    # step, leaving a single dominant term
    c = Couple.weighted_seq([1.0, 1.0], [1e6, 1e6])
    f = np.array([1.0, 0.0])
    jrep = construct_j_representation(c, f, 8)
    norms = [c.norm0(u) for u in jrep.terms]
    assert sum(1 for x in norms if x > 1e-9) == 1


def test_j_norm_discrete_single_term():
    u0 = F2.copy()
    zero = np.zeros(2)
    V = 3
    terms = [zero] * V + [u0] + [zero] * V
    j_values = np.array([0.0] * V + [j_functional(WS, 1.0, u0)] + [0.0] * V)
    rep = JRepresentation(terms, np.zeros(2 * V + 1), j_values,
                          np.zeros(2 * V + 1), 0.0, True)
    got = lambda_norm(rep.j_values, 0.5, 2.0, 2.0)
    assert got == pytest.approx(j_functional(WS, 1.0, u0), rel=1e-14)


def test_kj_equivalence_check():
    rep = kj_equivalence_check(WS, F2, params(), V=GRID.V)
    assert rep.passed
    assert rep.worst_term_ratio <= 3.03
    assert rep.ratio_j_over_k > 0.0 and math.isfinite(rep.forward_constant)
    # ratio is scale invariant
    rep4 = kj_equivalence_check(WS, 4.0 * F2, params(), V=GRID.V)
    assert rep4.ratio_j_over_k == pytest.approx(rep.ratio_j_over_k, rel=1e-9)
    # the discrete K-norm comes from the representation's K values, which
    # are the K values k_norm_discrete computes, bit for bit
    qv = ExponentFunction.from_expression("1.5 + 1/log(e + 1/t)",
                                          p_at_zero=1.5, p_at_infinity=2.5)
    for couple, f, q, V in ((WS, F2, Q2, GRID.V), (WS, 4.0 * F2, qv, 9),
                            (LL, AtomFunction([3.0, 1.0], [0.5, 1.0]), qv, 12)):
        got = kj_equivalence_check(couple, f, params(0.3, q), V=V)
        assert got.k_discrete == k_norm_discrete(
            couple, f, 0.3, q.p_at_zero, q.p_at_infinity, V)


def test_density_residuals_shrink():
    rep = density_check(WS, F2, params())
    assert rep.passed
    assert rep.non_increasing
    assert rep.final_ratio <= 1e-3
    assert rep.truncations[-1] == GRID.V - 2
    rep = density_check(LL, AtomFunction([3.0, 1.0], [0.5, 1.0]), params())
    assert rep.passed


def test_prop_exponent_monotone():
    r4 = ExponentFunction.constant(4.0)
    rep = prop_exponent_monotone(WS, F2, 0.5, Q2, r4, GRID)
    assert rep.passed
    assert rep.values["ratio_r"] <= rep.values["ratio_sup"] * 10  # both finite
    with pytest.raises(ConfigError):
        prop_exponent_monotone(WS, F2, 0.5, r4, Q2, GRID)


def test_prop_reversal_symmetry_constant_q():
    rep = prop_reversal_symmetry(WS, F2, 0.3, Q2, GRID)
    assert rep.passed
    assert abs(rep.values["continuous_ratio"] - 1.0) <= 1e-9


def test_prop_reversal_symmetry_variable_q_equal_limits():
    qv = ExponentFunction.from_expression("2 + 0.5*min(t, 1/t)",
                                          p_at_zero=2.0, p_at_infinity=2.0)
    rep = prop_reversal_symmetry(WS, F2, 0.3, qv, GRID)
    assert rep.passed
    assert abs(rep.values["continuous_ratio"] - 1.0) <= 1e-9
    qbad = ExponentFunction.from_expression("2 + 1/log(e + 1/t)",
                                            p_at_zero=2.0, p_at_infinity=3.0)
    with pytest.raises(ConfigError):
        prop_reversal_symmetry(WS, F2, 0.3, qbad, GRID)


def test_prop_equal_limits_discrete_exact():
    qa = ExponentFunction.from_expression("1.8 + 0.7/log(e + 1/t)",
                                          p_at_zero=1.8, p_at_infinity=2.5)
    qb = ExponentFunction.from_expression("1.8 + 0.7*(t/(1 + t))",
                                          p_at_zero=1.8, p_at_infinity=2.5)
    rep = prop_equal_limits(WS, F2, 0.5, qa, qb, grid=GRID)
    assert rep.passed
    assert rep.values["discrete_a"] == rep.values["discrete_b"]
    # the continuous norms see the differing middles
    assert rep.values["continuous_a"] != rep.values["continuous_b"]


def test_prop_equal_limits_takes_evaluated_limits():
    # 2 + min(t, 1/t) tends to 2 at both ends linearly; its limits are
    # exactly 2.0, so it shares both limits with the constant 2
    q = ExponentFunction.from_expression("2 + min(t, 1/t)")
    rep = prop_equal_limits(WS, F2, 0.5, Q2, q, grid=GRID)
    assert rep.passed
    assert rep.values["discrete_a"] == rep.values["discrete_b"]


def test_prop_theta_monotone_ordered_couple():
    ordered = Couple.weighted_seq([1.0, 2.0], [2.0, 8.0])
    rep = prop_theta_monotone(ordered, F2, 0.3, 0.7, Q2, GRID)
    assert rep.passed
    assert rep.values["ratio"] > 0.0


def test_prop_identical_couple_closed_form():
    w = np.array([1.0, 3.0])
    grid = HaarGrid(8, 16)
    rep = prop_identical_couple(w, np.array([2.0, -1.0]), 0.5, Q2, grid)
    assert rep.passed
    expect = math.sqrt(2.0 * (1.0 - 2.0 ** -8))
    assert rep.values["expected_ratio"] == pytest.approx(expect, rel=1e-14)
    assert rep.values["ratio"] == pytest.approx(expect, rel=2e-3)
    # the ratio does not depend on f
    rep2 = prop_identical_couple(w, np.array([0.3, 0.9]), 0.5, Q2, grid)
    assert rep2.values["ratio"] == pytest.approx(rep.values["ratio"], rel=1e-9)


def test_reiteration_smoke(monkeypatch):
    exponents = set()
    solve = interp.weighted_power_norm

    def recorded(bases, q, weights):
        exponents.add(type(q))
        return solve(bases, q, weights)

    monkeypatch.setattr(interp, "weighted_power_norm", recorded)
    c = Couple.weighted_seq([1.0, 2.0], [3.0, 0.5])
    rep = reiteration_check(c, F2, 0.25, 0.75, 0.5, Q2,
                            inner_grid=HaarGrid(8, 4), outer_V=6,
                            base_grid=HaarGrid(12, 16), refine=False,
                            resolution=1e-6)
    # the derived norms take the constant exponent as a scalar
    assert exponents == {float}
    assert rep.passed
    assert rep.theta == pytest.approx(0.5)
    assert math.isfinite(rep.constant) and rep.constant >= 1.0


def test_reiteration_fails_when_brute_force_hits_its_cap(monkeypatch):
    real = couples.k_brute_force
    c = Couple.weighted_seq([1.0, 2.0], [3.0, 0.5])
    searches = []

    def run():
        return reiteration_check(c, F2, 0.25, 0.75, 0.5, Q2,
                                 inner_grid=HaarGrid(2, 2), outer_V=1,
                                 base_grid=HaarGrid(4, 4), refine=False,
                                 resolution=1e-4)

    def capped(*args, **kwargs):
        searches.append(args[1])
        return dataclasses.replace(real(*args, **kwargs), cap_hit=True)

    assert run().passed
    monkeypatch.setattr(couples, "k_brute_force", capped)
    assert not run().passed
    # the duality bound leaves t = 1 open, so the search runs there
    assert searches == [1.0]


def test_reiteration_fails_when_brute_force_ends_below_the_duality_bound(
        monkeypatch):
    real = couples.k_brute_force

    def run():
        return reiteration_check(WS3, F3, 0.25, 0.75, 0.5, Q2,
                                 inner_grid=HaarGrid(4, 4), outer_V=4,
                                 base_grid=HaarGrid(8, 8), refine=False,
                                 resolution=1e-6)

    def low(*args, **kwargs):
        result = real(*args, **kwargs)
        return dataclasses.replace(result, value=0.99 * result.value)

    def below_own(*args, **kwargs):
        # above the corner bound at t = 1, below the search's own
        result = real(*args, **kwargs)
        return dataclasses.replace(result, value=result.lower * (1.0 - 1e-8))

    assert run().passed
    monkeypatch.setattr(couples, "k_brute_force", low)
    assert not run().passed
    monkeypatch.setattr(couples, "k_brute_force", below_own)
    assert not run().passed


class KernelNorms(Couple):
    """The derived couple's two norms, each a Luxemburg norm of |G| @
    kernel, as a plain vector couple: one solve per norm and the default
    cost_many, apart from _KMethodCouple's joint solve."""

    def __init__(self, kernels, q_values, du):
        self.kernels, self.q_values, self.du = kernels, q_values, du

    def norm0_many(self, G, f):
        return interp.weighted_power_norm(np.abs(G) @ self.kernels[0],
                                          self.q_values, self.du)

    def norm1_many(self, G, f):
        return interp.weighted_power_norm(np.abs(G) @ self.kernels[1],
                                          self.q_values, self.du)


def reiteration_by_per_t_loop(calls, couple, f, theta0, theta1, eta, q, *,
                              inner_grid, outer_V, base_grid, resolution):
    """(outer_norm, constant, refined_constant) of reiteration_check, with
    its outer K computed at each t as the best corner g = S f where the
    derived couple's duality bound closes within resolution, and by one
    k_brute_force call, with the derived couple's dual_lower, elsewhere;
    calls records each call's t and result."""
    theta = (1.0 - eta) * theta0 + eta * theta1

    def outer_norm_on(grid_in):
        ts = grid_in.nodes
        cost = couple.k_weights(ts)
        q_values = q.p_at_zero if q.is_constant else q.on_grid(grid_in)

        # t_j^{-theta} K(t_j, g) for every row g of G is |G| @ kernel
        derived = KernelNorms([(cost * ts[:, None] ** -theta_i).T
                               for theta_i in (theta0, theta1)],
                              q_values, grid_in.du)
        outer_ts = 2.0 ** np.arange(-outer_V, outer_V + 1)
        bounds = interp._KMethodCouple(couple, grid_in, q_values,
                                       (theta0, theta1))
        lower = bounds.corner_bounds(outer_ts, f)[2]
        # the searches stop on the derived couple's dual bound, as there
        derived.dual_lower = bounds.dual_lower
        # every corner g = S f, one batch of rows
        corners = np.array([[f[k] if s >> k & 1 else 0.0 for k in range(len(f))]
                            for s in range(2 ** len(f))])
        norms0 = derived.norm0_many(corners, f)
        norms1 = derived.norm1_many(f - corners, f)
        alpha = np.empty(len(outer_ts))
        for idx, t in enumerate(outer_ts):
            upper = np.min(norms0 + t * norms1)
            if upper - lower[idx] <= resolution * upper:
                alpha[idx] = upper
                continue
            res = k_brute_force(derived, float(t), f, resolution=resolution,
                                n_random_starts=1, return_details=True)
            calls.append((float(t), res))
            alpha[idx] = res.value
        return lambda_norm(alpha, eta, q.p_at_zero, q.p_at_infinity)

    outer = outer_norm_on(inner_grid)
    base = k_norm_continuous(couple, f, KMethodParams(theta, q, base_grid))
    ratio = outer / base
    ratio2 = outer_norm_on(inner_grid.refined()) / base
    return outer, max(ratio, 1.0 / ratio), max(ratio2, 1.0 / ratio2)


@pytest.mark.parametrize("q", [
    Q2, ExponentFunction.from_expression("2 + 1/log(e + 1/t)",
                                         p_at_zero=2.0, p_at_infinity=3.0)])
def test_reiteration_matches_a_per_t_brute_force_loop_bit_for_bit(q, monkeypatch):
    real = couples.k_brute_force
    merged, reference = [], []

    def recorded(couple, t, *args, **kwargs):
        result = real(couple, t, *args, **kwargs)
        merged.append((t, result))
        return result

    monkeypatch.setattr(couples, "k_brute_force", recorded)
    kwargs = dict(inner_grid=HaarGrid(4, 4), outer_V=4,
                  base_grid=HaarGrid(8, 8), resolution=1e-6)
    rep = reiteration_check(WS3, F3, 0.25, 0.75, 0.5, q, **kwargs)
    assert rep.passed
    assert (rep.outer_norm, rep.constant, rep.refined_constant) == \
        reiteration_by_per_t_loop(reference, WS3, F3, 0.25, 0.75, 0.5, q,
                                  **kwargs)
    # the same searches in the same order, at the t the duality bound
    # leaves open, t = 1 on each inner grid of 2 * 9 t: each t's value,
    # minimizer and evaluation count
    assert [t for t, _ in merged] == [t for t, _ in reference] == [1.0, 1.0]
    for (t, res), (t_ref, res_ref) in zip(merged, reference):
        assert t == t_ref
        assert (res.value, res.evaluations, res.cap_hit) == \
            (res_ref.value, res_ref.evaluations, res_ref.cap_hit)
        assert res.minimizer.tolist() == res_ref.minimizer.tolist()


# the outer K's values at t = 2^-3..2^3 in two reiteration draws (a
# constant and a variable exponent), recorded before the derived couple
# solved both its norms in one call, before a sweep that moves nothing
# stopped its start and before certified corners skipped the search; the
# search at t = 1 of the second draw stops on its dual bound
REITERATION_ALPHAS = [
    ["0x1.d5831cdfd6aa4p-4", "0x1.d5831cdfd6aa4p-3", "0x1.d5831cdfd6aa4p-2",
     "0x1.d3bfa1101cb02p-1", "0x1.8935b1a9f7876p+0", "0x1.8935b1a9f7876p+0",
     "0x1.8935b1a9f7876p+0"],
    ["0x1.8c69d24dede07p-3", "0x1.8c69d24dede07p-2", "0x1.8b06d415e07f8p-1",
     "0x1.3d9c746eac5e5p+0", "0x1.b4cb801a4fff5p+0", "0x1.b5b17a0b9edfep+0",
     "0x1.b5b17a0b9edfep+0"],
]
# that search's value when it ran until it stalled
STALLED_ALPHA = "0x1.3d9c746ea9201p+0"


def test_reiteration_outer_k_keeps_its_pinned_bits(monkeypatch):
    certified = float.fromhex(REITERATION_ALPHAS[1][3])
    stalled = float.fromhex(STALLED_ALPHA)
    assert stalled <= certified <= stalled * (1.0 + 1e-6)
    seen = []
    real = interp._KMethodCouple.outer_k

    def recorded(self, ts, f, resolution):
        result = real(self, ts, f, resolution)
        seen.append([v.hex() for v in result[0]])
        return result

    monkeypatch.setattr(interp._KMethodCouple, "outer_k", recorded)
    for draw, alphas in enumerate(REITERATION_ALPHAS):
        rng = np.random.default_rng([29, draw])
        w0, w1 = 10.0 ** rng.uniform(-1, 1, (2, 3))
        f = rng.uniform(-2, 2, 3)
        q = (ExponentFunction.constant(float(rng.uniform(1.5, 3.0)))
             if draw == 0 else ExponentFunction.from_expression(
                 "2 + 1/log(e + 1/t)", p_at_zero=2.0, p_at_infinity=3.0))
        seen.clear()
        rep = reiteration_check(Couple.weighted_seq(w0, w1), f,
                                float(rng.uniform(0.2, 0.35)),
                                float(rng.uniform(0.65, 0.8)), 0.5, q,
                                inner_grid=HaarGrid(4, 4), outer_V=3,
                                base_grid=HaarGrid(6, 8), refine=False,
                                resolution=1e-6)
        assert rep.passed
        assert seen == [alphas]


@pytest.mark.parametrize("q", [
    1.7, ExponentFunction.from_expression("2 + 1/log(e + 1/t)",
                                          p_at_zero=2.0, p_at_infinity=3.0)])
def test_derived_cost_many_equals_its_two_norms_bit_for_bit(q, monkeypatch):
    rng = np.random.default_rng(13)
    grid = HaarGrid(4, 4)
    c = Couple.weighted_seq(10.0 ** rng.uniform(-1, 1, 3),
                            10.0 ** rng.uniform(-1, 1, 3))
    q_values = q if isinstance(q, float) else q.on_grid(grid)
    derived = interp._KMethodCouple(c, grid, q_values, (0.3, 0.7))
    f = rng.uniform(-2, 2, 3)
    calls = []
    solve = interp.weighted_power_norm

    def counted(bases, exponents, weights):
        calls.append(len(bases))
        return solve(bases, exponents, weights)

    monkeypatch.setattr(interp, "weighted_power_norm", counted)
    for rows in (1, 2, 17, 85):
        G = rng.uniform(-2, 2, (rows, 3))
        G[rows // 2] = 0.0
        # brute-force K hands the objective column-major trial points
        for layout in (G, np.asfortranarray(G)):
            for t in (0.3, 2.0):
                calls.clear()
                cost = derived.cost_many(layout, f, t)
                assert calls == [2 * rows]
                want = (derived.norm0_many(layout, f)
                        + t * derived.norm1_many(f - layout, f))
                assert cost.tobytes() == want.tobytes()


QV = ExponentFunction.from_expression("2 + 1/log(e + 1/t)",
                                     p_at_zero=2.0, p_at_infinity=3.0)


def random_derived(rng, n, variable, grid=HaarGrid(4, 4)):
    """A reiteration draw's derived couple and an f with a zero entry
    whenever n > 1."""
    couple = Couple.weighted_seq(*(10.0 ** rng.uniform(-1, 1, (2, n))))
    q_values = QV.on_grid(grid) if variable else float(rng.uniform(1.5, 3.0))
    thetas = (float(rng.uniform(0.2, 0.35)), float(rng.uniform(0.65, 0.8)))
    f = rng.uniform(-2, 2, n)
    if n > 1:
        f[rng.integers(n)] = 0.0
    return interp._KMethodCouple(couple, grid, q_values, thetas), f


@pytest.mark.parametrize("f", [
    np.array([0.7]), np.array([1.0, 0.0, -0.5]),
    np.array([0.3, -1.2, 0.0, 2.0]), np.zeros(2)])
def test_duality_bound_is_the_weighted_closed_form_at_q_one(f):
    # at q = 1 the derived norms are weighted l1 norms, with the weights
    # du kernel_i.sum(1), and the bound is their closed-form K
    rng = np.random.default_rng(31)
    grid = HaarGrid(4, 4)
    c = Couple.weighted_seq(*(10.0 ** rng.uniform(-1, 1, (2, len(f)))))
    derived = interp._KMethodCouple(c, grid, 1.0, (0.3, 0.7))
    ts = 2.0 ** np.arange(-8, 9)
    lower = derived.corner_bounds(ts, f)[2]
    k0, k1 = derived.kernels
    closed = Couple.weighted_seq(grid.du * k0.sum(axis=1),
                                 grid.du * k1.sum(axis=1)).k_many(ts, f)
    np.testing.assert_allclose(lower, closed, rtol=1e-13, atol=0.0)


def without_bound(derived):
    """derived's two norms as a couple with no dual bound, whose searches
    cannot stop on the bound they are to check."""
    return KernelNorms(derived.kernels, derived.q_values, derived.du)


def test_duality_bound_never_exceeds_a_dense_search():
    rng = np.random.default_rng(32)
    for trial in range(50):
        derived, f = random_derived(rng, 1 + trial % 4, trial % 2 == 1)
        t = float(2.0 ** rng.uniform(-4, 4))
        lower = derived.corner_bounds(np.array([t]), f)[2]
        dense = k_brute_force(without_bound(derived), t, f, resolution=1e-10,
                              n_random_starts=16)
        assert lower[0] <= dense * (1.0 + 1e-12)


def test_certified_stop_lies_within_resolution():
    # a search on the derived couple either takes the path of the same
    # search without the bound, bit for bit, or stops earlier on a lower
    # bound within resolution of its value
    rng = np.random.default_rng(33)
    stops = set()
    for trial in range(32):
        derived, f = random_derived(rng, 1 + trial % 4, trial // 4 % 2 == 1)
        resolution = (1e-4, 1e-6)[trial // 8 % 2]
        # the first of 16 t that the corners leave open, as outer_k would
        # search it, or the first t if the corners close at all 16
        ts = 2.0 ** rng.uniform(-4, 4, 16)
        upper, _, lower = derived.corner_bounds(ts, f)
        t = float(ts[np.argmax(upper - lower > resolution * upper)])
        plain = without_bound(derived)
        res, free = [k_brute_force(c, t, f, resolution=resolution,
                                   n_random_starts=1, return_details=True)
                     for c in (derived, plain)]
        dense = k_brute_force(plain, t, f, resolution=1e-10,
                              n_random_starts=16)
        assert free.lower == -math.inf
        # where the bound is tight, at a corner minimizer, it may lie an
        # ulp above the value: the bound is exact only up to rounding
        assert res.lower <= res.value * (1.0 + 1e-12)
        assert res.lower <= dense * (1.0 + 1e-12)
        if res.evaluations == free.evaluations:
            stops.add("stall")
            assert (res.value, res.minimizer.tolist()) == \
                (free.value, free.minimizer.tolist())
        else:
            stops.add("certified")
            assert res.evaluations < free.evaluations
            assert res.value - res.lower <= resolution * res.value
    assert stops == {"stall", "certified"}


def test_certified_corners_return_the_search_values():
    # a t certified at g = 0 or g = f has the bits of the search, which
    # starts there; one certified at a mixed corner lies within resolution
    rng = np.random.default_rng(40)
    ts = 2.0 ** np.arange(-6, 7)
    resolution = 1e-6
    kinds = set()
    for trial in range(6):
        derived, f = random_derived(rng, 3, trial % 2 == 1)
        upper, corners, lower = derived.corner_bounds(ts, f)
        values, minimizers, flags = derived.outer_k(ts, f, resolution)
        assert not flags.any()
        for j in np.flatnonzero(upper - lower <= resolution * upper):
            assert values[j] == upper[j]
            assert minimizers[j].tolist() == corners[j].tolist()
            v = k_brute_force(derived, float(ts[j]), f,
                              resolution=resolution, n_random_starts=1)
            if np.all(corners[j] == 0.0) or np.all(corners[j] == f):
                kinds.add("full")
                assert values[j] == v
            else:
                kinds.add("mixed")
                assert v * (1.0 - resolution) <= values[j] <= v
    assert kinds == {"full", "mixed"}


def test_inner_minimizers_are_searched(monkeypatch):
    real = couples.k_brute_force
    searched = []

    def recorded(couple, t, *args, **kwargs):
        searched.append(t)
        return real(couple, t, *args, **kwargs)

    derived = interp._KMethodCouple(WS3, HaarGrid(4, 4), 2.0, (0.25, 0.75))
    ts = 2.0 ** np.arange(-4, 5)
    resolution = 1e-6
    upper, _, lower = derived.corner_bounds(ts, F3)
    inner = []
    for t, corner in zip(ts, upper):
        dense = real(without_bound(derived), float(t), F3, resolution=1e-10,
                     n_random_starts=16, return_details=True)
        # a minimizer off every corner, whose value the corners miss
        off = np.minimum(np.abs(dense.minimizer), np.abs(F3 - dense.minimizer))
        if dense.value < corner * (1.0 - resolution) and off.max() > 1e-3:
            inner.append(float(t))
    monkeypatch.setattr(couples, "k_brute_force", recorded)
    derived.outer_k(ts, F3, resolution)
    assert inner and set(inner) <= set(searched)
    open_ts = ts[upper - lower > resolution * upper]
    assert searched == open_ts.tolist()


def test_reiteration_validation():
    grids = dict(inner_grid=HaarGrid(4, 4), outer_V=4)
    with pytest.raises(ConfigError):
        reiteration_check(WS, F2, 0.75, 0.25, 0.5, Q2, **grids)
    with pytest.raises(ConfigError):
        reiteration_check(WS, F2, 0.25, 0.75, 0.0, Q2, **grids)
    # the derived norms need K linear in |g|, as on a weighted couple
    generic = Couple.finite_generic(NormSpec(1.0, [1.0, 2.0]),
                                    NormSpec(1.0, [3.0, 0.5]))
    with pytest.raises(ConfigError):
        reiteration_check(generic, F2, 0.25, 0.75, 0.5, Q2, **grids)


@pytest.mark.parametrize("resolution", [math.nan, math.inf, 0.0, -1.0, 1.0])
def test_reiteration_rejects_a_resolution_outside_zero_one(resolution,
                                                          monkeypatch):
    # a nan resolution skipped every search and passed the corner values
    calls = []
    monkeypatch.setattr(interp._KMethodCouple, "outer_k",
                        lambda *args: calls.append(args))
    monkeypatch.setattr(interp, "k_norm_continuous",
                        lambda *args: calls.append(args))
    with pytest.raises(ConfigError, match="resolution"):
        reiteration_check(WS3, F3, 0.25, 0.75, 0.5, Q2,
                          inner_grid=HaarGrid(4, 4), outer_V=4,
                          base_grid=HaarGrid(8, 8), refine=False,
                          resolution=resolution)
    assert calls == []


def test_reiteration_rejects_non_finite_vectors_before_any_search(monkeypatch):
    calls = []
    monkeypatch.setattr(interp._KMethodCouple, "outer_k",
                        lambda *args: calls.append(args))
    for bad in (math.inf, math.nan):
        with pytest.raises(ConfigError,
                           match="^a vector of a vector couple must be finite$"):
            reiteration_check(WS, [bad, 1.0], 0.25, 0.75, 0.5, Q2,
                              inner_grid=HaarGrid(4, 4), outer_V=4)
    assert calls == []


def test_reiteration_rejects_vectors_of_another_dimension_before_any_search(
        monkeypatch):
    calls = []
    monkeypatch.setattr(interp._KMethodCouple, "outer_k",
                        lambda *args: calls.append(args))
    with pytest.raises(ConfigError, match="couple's dimension 2$"):
        reiteration_check(WS, [1.0, 2.0, 0.5], 0.25, 0.75, 0.5, Q2,
                          inner_grid=HaarGrid(4, 4), outer_V=4)
    assert calls == []


def test_reiteration_rejects_outer_v_below_one_before_any_search(monkeypatch):
    calls = []
    monkeypatch.setattr(interp._KMethodCouple, "outer_k",
                        lambda *args: calls.append(args))
    monkeypatch.setattr(couples, "k_brute_force",
                        lambda *args, **kwargs: calls.append(args))
    c = Couple.weighted_seq([1.0, 2.0], [3.0, 0.5])
    with pytest.raises(ConfigError, match="outer_V"):
        reiteration_check(c, F2, 0.25, 0.75, 0.5, Q2,
                          inner_grid=HaarGrid(4, 4), outer_V=0)
    assert calls == []


# every entry point over a dyadic range t = 2^v, v = -V..V, by V
DYADIC_ENTRY_POINTS = {
    "k_norm_discrete": lambda V: k_norm_discrete(WS, F2, 0.5, 2.0, 2.0, V),
    "construct_j_representation":
        lambda V: construct_j_representation(WS, F2, V).worst_ratio,
    "density_check":
        lambda V: density_check(WS, F2, params(grid=HaarGrid(V, 4))).final_ratio,
    "reiteration_check": lambda V: reiteration_check(
        WS3, F3, 0.25, 0.75, 0.5, Q2, inner_grid=HaarGrid(4, 4), outer_V=V,
        base_grid=HaarGrid(8, 8), refine=False).outer_norm,
    "lorentz_discrete_norm": lambda V: lorentz_discrete_norm(CHI, Q2, Q2, V),
}


@pytest.mark.parametrize("entry", sorted(DYADIC_ENTRY_POINTS))
@pytest.mark.parametrize("V", [0, 2.5, True, math.nan, "3"])
def test_dyadic_range_needs_an_integer_v_before_any_work(entry, V, monkeypatch):
    # a float V would give a range over half-integer points, True V = 1
    calls = []
    monkeypatch.setattr(interp._KMethodCouple, "outer_k",
                        lambda *args: calls.append(args))
    monkeypatch.setattr(interp, "k_functional_many",
                        lambda *args: calls.append(args))
    with pytest.raises(ConfigError, match="V"):
        DYADIC_ENTRY_POINTS[entry](V)
    assert calls == []


@pytest.mark.parametrize("entry", sorted(DYADIC_ENTRY_POINTS))
def test_dyadic_range_takes_a_numpy_integer(entry):
    assert DYADIC_ENTRY_POINTS[entry](np.int64(3)) == DYADIC_ENTRY_POINTS[entry](3)


def test_derived_couple_has_one_search_path():
    # K of the derived couple comes from outer_k alone: it is a plain
    # Couple, with no k_many, decompose_many or reversed of its own
    derived = interp._KMethodCouple(WS3, HaarGrid(4, 4), 2.0, (0.25, 0.75))
    assert not isinstance(derived, couples.GenericCouple)
    for name in ("k_many", "decompose_many", "reversed", "brute_force_many"):
        assert not hasattr(derived, name)


def test_lorentz_identification_indicator():
    rep = lorentz_identification_check(CHI, 0.5, Q2, GRID)
    assert rep.passed
    assert rep.p == pytest.approx(2.0)
    assert rep.ratio == pytest.approx(math.sqrt(2.0), abs=2e-3)
    # exact scale invariance for power-of-two scalings
    rep4 = lorentz_identification_check(CHI.scaled(4.0), 0.5, Q2, GRID)
    assert rep4.ratio == rep.ratio


def test_lorentz_identification_needs_equal_limits():
    q = ExponentFunction.from_expression("2 + 1/log(e + 1/t)",
                                         p_at_zero=2.0, p_at_infinity=3.0)
    with pytest.raises(ConfigError):
        lorentz_identification_check(CHI, 0.5, q, GRID)


def test_class_membership():
    rep = class_membership_check(WS, F2, params())
    assert rep.passed
    assert rep.k_class_constant > 0.0 and rep.j_class_constant > 0.0
    rep = class_membership_check(LL, AtomFunction([2.0], [0.5]), params())
    assert rep.passed
