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
    lorentz_identification_check,
    proposition_checks,
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
    rep = kj_equivalence_check(WS, F2, params())
    assert rep.passed
    assert rep.worst_term_ratio <= 3.03
    assert rep.ratio_j_over_k > 0.0 and math.isfinite(rep.forward_constant)
    # ratio is scale invariant
    rep4 = kj_equivalence_check(WS, 4.0 * F2, params())
    assert rep4.ratio_j_over_k == pytest.approx(rep.ratio_j_over_k, rel=1e-9)
    # the discrete K-norm comes from the representation's K values, which
    # are the K values k_norm_discrete computes, bit for bit
    qv = ExponentFunction.from_expression("1.5 + 1/log(e + 1/t)",
                                          p_at_zero=1.5, p_at_infinity=2.5)
    for couple, f, q, V in ((WS, F2, Q2, None), (WS, 4.0 * F2, qv, 9),
                            (LL, AtomFunction([3.0, 1.0], [0.5, 1.0]), qv, 12)):
        got = kj_equivalence_check(couple, f, params(0.3, q), V=V)
        assert got.k_discrete == k_norm_discrete(
            couple, f, 0.3, q.p_at_zero, q.p_at_infinity, V or GRID.V)


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


def test_proposition_checks_umbrella():
    reports = proposition_checks(WS, F2)
    assert "exponent_monotone" in reports and "reversal_symmetry" in reports
    assert all(rep.passed for rep in reports.values())
    ident = Couple.weighted_seq([1.0, 3.0], [1.0, 3.0])
    reports = proposition_checks(ident, F2)
    assert "identical_couple" in reports and "theta_monotone" in reports
    assert all(rep.passed for rep in reports.values())


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

    def run():
        return reiteration_check(c, F2, 0.25, 0.75, 0.5, Q2,
                                 inner_grid=HaarGrid(2, 2), outer_V=1,
                                 base_grid=HaarGrid(4, 4), refine=False,
                                 resolution=1e-4)

    def capped(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), cap_hit=True)

    assert run().passed
    monkeypatch.setattr(couples, "k_brute_force", capped)
    assert not run().passed


def reiteration_by_per_t_loop(calls, couple, f, theta0, theta1, eta, q, *,
                              inner_grid, outer_V, base_grid, resolution):
    """(outer_norm, constant, refined_constant) of reiteration_check, with
    its outer K computed by one k_brute_force call per t, each t after the
    first warm-started at the last minimizer; calls records each call's t
    and result."""
    theta = (1.0 - eta) * theta0 + eta * theta1

    def outer_norm_on(grid_in):
        ts = grid_in.nodes
        cost = couple.k_weights(ts)

        def make_norm(theta_i, q_i):
            # t_j^{-theta} K(t_j, g) for every row g of G is |G| @ kernel
            kernel = (cost * ts[:, None] ** -theta_i).T
            q_values = q_i.p_at_zero if q_i.is_constant else q_i.on_grid(grid_in)

            def nrm(G):
                return interp.weighted_power_norm(np.abs(G) @ kernel, q_values,
                                                  grid_in.du)
            return nrm

        derived = Couple.finite_generic(make_norm(theta0, q), make_norm(theta1, q))
        js = np.arange(-outer_V, outer_V + 1)
        alpha = np.empty(len(js))
        warm = None
        for idx, j in enumerate(js):
            res = k_brute_force(derived, float(2.0 ** j), f,
                                resolution=resolution, n_random_starts=1,
                                extra_starts=() if warm is None else (warm,),
                                return_details=True)
            calls.append((float(2.0 ** j), res))
            alpha[idx] = res.value
            warm = res.minimizer
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
    c = Couple.weighted_seq([1.0, 2.0], [3.0, 0.5])
    kwargs = dict(inner_grid=HaarGrid(4, 4), outer_V=4,
                  base_grid=HaarGrid(8, 8), resolution=1e-6)
    rep = reiteration_check(c, F2, 0.25, 0.75, 0.5, q, **kwargs)
    assert rep.passed
    assert (rep.outer_norm, rep.constant, rep.refined_constant) == \
        reiteration_by_per_t_loop(reference, c, F2, 0.25, 0.75, 0.5, q, **kwargs)
    # the same searches in the same order: each t's value, minimizer and
    # evaluation count, which the starts and the warm start decide
    assert len(merged) == len(reference) == 2 * 9
    for (t, res), (t_ref, res_ref) in zip(merged, reference):
        assert t == t_ref
        assert (res.value, res.evaluations, res.cap_hit) == \
            (res_ref.value, res_ref.evaluations, res_ref.cap_hit)
        assert res.minimizer.tolist() == res_ref.minimizer.tolist()



# brute_force_many's values at t = 2^-3..2^3 in two reiteration draws (a
# constant and a variable exponent), recorded before the derived couple
# solved both its norms in one call and before a sweep that moves nothing
# stopped its start
REITERATION_ALPHAS = [
    ["0x1.d5831cdfd6aa4p-4", "0x1.d5831cdfd6aa4p-3", "0x1.d5831cdfd6aa4p-2",
     "0x1.d3bfa1101cb02p-1", "0x1.8935b1a9f7876p+0", "0x1.8935b1a9f7876p+0",
     "0x1.8935b1a9f7876p+0"],
    ["0x1.8c69d24dede07p-3", "0x1.8c69d24dede07p-2", "0x1.8b06d415e07f8p-1",
     "0x1.3d9c746ea9201p+0", "0x1.b4cb801a4fff5p+0", "0x1.b5b17a0b9edfep+0",
     "0x1.b5b17a0b9edfep+0"],
]


def test_reiteration_outer_k_keeps_its_pinned_bits(monkeypatch):
    seen = []
    real = couples.GenericCouple.brute_force_many

    def recorded(self, ts, f, **kwargs):
        result = real(self, ts, f, **kwargs)
        seen.append([v.hex() for v in result[0]])
        return result

    monkeypatch.setattr(couples.GenericCouple, "brute_force_many", recorded)
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


def test_reiteration_validation():
    with pytest.raises(ConfigError):
        reiteration_check(WS, F2, 0.75, 0.25, 0.5, Q2)
    with pytest.raises(ConfigError):
        reiteration_check(WS, F2, 0.25, 0.75, 0.0, Q2)
    # the derived norms need K linear in |g|, as on a weighted couple
    generic = Couple.finite_generic(NormSpec(1.0, [1.0, 2.0]),
                                    NormSpec(1.0, [3.0, 0.5]))
    with pytest.raises(ConfigError):
        reiteration_check(generic, F2, 0.25, 0.75, 0.5, Q2)


def test_reiteration_rejects_outer_v_below_one_before_any_search(monkeypatch):
    calls = []
    monkeypatch.setattr(couples.GenericCouple, "brute_force_many",
                        lambda *args, **kwargs: calls.append(args))
    c = Couple.weighted_seq([1.0, 2.0], [3.0, 0.5])
    with pytest.raises(ConfigError, match="outer_V"):
        reiteration_check(c, F2, 0.25, 0.75, 0.5, Q2,
                          inner_grid=HaarGrid(4, 4), outer_V=0)
    assert calls == []


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
