"""Real interpolation norms with variable exponents, and their checks.

The continuous K-method norm of f in a couple (A0, A1) is

    ||f||_{th, q(.)} = || t^{-th} K(t, f) ||_{L^{q(.)}((0, oo), dt/t)}

discretized on a HaarGrid. The discrete variant replaces the integral by
the two-sided weighted sum over K(2^v, f), v = -V..V, with the exponent
q(0) on v <= 0 and q_inf on v >= 1; the J-method variant does the same
with J(2^v, u_v) for a representation f = sum u_v built from near-optimal
K-decompositions by telescoping.

The remaining entry points are numerical checks: each returns a small
report dataclass with the computed constants and a `passed` flag. The flag
applies that check's own thresholds, which its docstring names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import couples
from .couples import (Couple, apply_operator, j_functional, k_functional,
                      k_functional_many)
from .errors import CapacityError, ConfigError, ConstructionError
from .exponents import ExponentFunction
from .rearrange import lorentz_norm
from .varleb import (
    DEFAULT_GRID,
    HaarGrid,
    SampledFunction,
    lambda_norm,
    luxemburg_norm,
    weighted_power_norm,
)

__all__ = [
    "KMethodParams",
    "k_norm_continuous",
    "k_norm_discrete",
    "k_norm_sup",
    "embedding_checks",
    "EmbeddingReport",
    "operator_bound_check",
    "OperatorBoundReport",
    "JRepresentation",
    "construct_j_representation",
    "kj_equivalence_check",
    "KJEquivalenceReport",
    "density_check",
    "DensityReport",
    "prop_exponent_monotone",
    "prop_reversal_symmetry",
    "prop_equal_limits",
    "prop_theta_monotone",
    "prop_identical_couple",
    "reiteration_check",
    "ReiterationReport",
    "lorentz_identification_check",
    "LorentzIdentificationReport",
    "class_membership_check",
    "ClassMembershipReport",
]


@dataclass(frozen=True)
class KMethodParams:
    """Interpolation parameters: theta in (0, 1), exponent q, sampling grid."""

    theta: float
    q: ExponentFunction
    grid: HaarGrid

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ConfigError("theta must lie in (0, 1)")


def k_norm_continuous(couple, f, params):
    """The K-method norm, via the Luxemburg norm of t^{-theta} K(t, f)."""
    ts = params.grid.nodes
    kvals = k_functional_many(couple, ts, f)
    phi = SampledFunction(params.grid, ts ** (-params.theta) * kvals)
    return luxemburg_norm(phi, params.q)


def k_norm_discrete(couple, f, theta, q_zero, q_infinity, V):
    """Two-sided dyadic K-method norm with limit exponents only."""
    ts = 2.0 ** np.arange(-V, V + 1).astype(float)
    return lambda_norm(k_functional_many(couple, ts, f), theta, q_zero,
                       q_infinity)


def k_norm_sup(couple, f, theta, grid):
    """sup_t t^{-theta} K(t, f) over the grid; theta may be 0 or 1 here."""
    if not 0.0 <= theta <= 1.0:
        raise ConfigError("theta must lie in [0, 1] for the sup norm")
    ts = np.concatenate([[grid.t_min], grid.nodes, [grid.t_max]])
    kvals = k_functional_many(couple, ts, f)
    return float(np.max(ts ** (-theta) * kvals))


@dataclass(frozen=True)
class EmbeddingReport:
    k_norm: float
    gamma: float
    growth_margin: float
    sup_ratio: float
    c_from_intersection: float
    c_to_sum: float
    passed: bool


def embedding_checks(couple, f, params):
    """Pointwise growth bound and the embedding chain constants.

    Verifies K(s, f) <= 1.01 * gamma * s^theta * ||f|| at 20 log-spaced probes
    with gamma = ((1 - theta) q+)^{1/q+}, and records the constants of
    A0 cap A1 -> (A0, A1)_{th,q} -> A0 + A1, namely ||f|| / J(1, f) and
    K(1, f) / ||f||, which must be finite.
    """
    knorm = k_norm_continuous(couple, f, params)
    theta = params.theta
    q_plus = float(np.max(params.q.on_grid(params.grid)))
    gamma = ((1.0 - theta) * q_plus) ** (1.0 / q_plus)
    ss = np.geomspace(params.grid.t_min, params.grid.t_max, 20)
    kvals = k_functional_many(couple, ss, f)
    ratios = kvals / ss ** theta
    sup_ratio = float(np.max(ratios))
    if knorm == 0.0:
        growth_margin = 0.0 if sup_ratio == 0.0 else -math.inf
        c_int = 0.0
        c_sum = 0.0
    else:
        growth_margin = (1.01 * gamma * knorm - sup_ratio) / (gamma * knorm)
        j_one = j_functional(couple, 1.0, f)
        c_int = knorm / j_one if j_one > 0 else 0.0
        c_sum = k_functional(couple, 1.0, f) / knorm
    passed = growth_margin >= 0.0 and math.isfinite(c_int) and math.isfinite(c_sum)
    return EmbeddingReport(knorm, gamma, growth_margin, sup_ratio,
                           c_int, c_sum, passed)


@dataclass(frozen=True)
class OperatorBoundReport:
    lhs: float
    rhs: float
    bound0: float
    bound1: float
    base_norm: float
    passed: bool


def operator_bound_check(op, couple, theta, q, f, grid):
    """Interpolated bound ||Tf|| <= max(M0, M1) ||f|| in the K-method norm.

    The pointwise inequality K(t, Tf) <= max(M0, M1) K(t, f) holds at every
    grid node, and the Luxemburg norm respects pointwise domination, so the
    check passes, with relative slack 1e-6, whenever the attached bounds
    are genuine.
    """
    params = KMethodParams(theta, q, grid)
    tf = apply_operator(op, f)
    lhs = k_norm_continuous(couple, tf, params)
    base = k_norm_continuous(couple, f, params)
    cap = max(op.bound0, op.bound1)
    rhs = cap * base
    passed = lhs <= rhs * (1.0 + 1e-6) + 1e-300
    return OperatorBoundReport(lhs, rhs, op.bound0, op.bound1, base, passed)


# ---------------------------------------------------------------------------
# J-method representations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JRepresentation:
    """A finite J-method representation f = sum_{v=-V}^{V} u_v.

    terms is the (2V+1, n) array of the values of u_{-V}, ..., u_V: vectors
    for a vector couple, values on the atoms of f for (L1, Linf).
    """

    terms: np.ndarray
    k_values: np.ndarray
    j_values: np.ndarray
    ratios: np.ndarray
    worst_ratio: float
    j_bound_ok: bool


def construct_j_representation(couple, f, V):
    """Build f = sum u_v by telescoping near-optimal K-decompositions.

    With f = f0_v + f1_v the decomposition at t = 2^v, the terms are
    u_{-V} = f0_{-V+1}, u_v = f0_{v+1} - f0_v, and u_V = f1_V = f - f0_V,
    which sum to f exactly. For exact decompositions J(2^v, u_v) <= 3 K(2^v, f);
    the report records the worst observed ratio against the cap 3.03.
    """
    if V < 1:
        raise ConfigError("V must be >= 1")
    ts = 2.0 ** np.arange(-V, V + 1).astype(float)
    k_values = np.asarray(k_functional_many(couple, ts, f), dtype=float)

    f0, f1 = couple.decompose_many(ts[1:], f)
    costs = couple.norm0_many(f0, f) + ts[1:] * couple.norm1_many(f1, f)
    over = costs > k_values[1:] * (1.0 + 1e-3) + 1e-12
    if over.any():
        j = int(np.argmax(over))
        raise ConstructionError(
            f"decomposition at t=2^{j - V + 1} costs {costs[j]:.6g} "
            f"> K={k_values[j + 1]:.6g}")

    terms = np.vstack([f0[:1], np.diff(f0, axis=0), f1[-1:]])
    # (L1, Linf) elements are nonnegative, and in floating point the
    # differences of nested truncations are too, exactly
    if not couple.is_vector_couple and np.any(terms < 0.0):
        raise ConstructionError("telescoping produced a negative part")

    j_values = np.maximum(couple.norm0_many(terms, f),
                          ts * couple.norm1_many(terms, f))
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = np.where(k_values > 0, j_values / np.maximum(k_values, 1e-300), 0.0)
    worst = float(np.max(ratios)) if len(ratios) else 0.0
    return JRepresentation(terms, k_values, j_values, ratios, worst,
                           bool(worst <= 3.03))


@dataclass(frozen=True)
class KJEquivalenceReport:
    k_discrete: float
    j_discrete: float
    k_continuous: float
    ratio_j_over_k: float
    forward_constant: float
    worst_term_ratio: float
    passed: bool


def kj_equivalence_check(couple, f, params, *, V):
    """Compare the discrete J- and K-method norms on the same element.

    The J-norm of the telescoped representation dominates the K-norm up to
    the termwise factor 3, checked against the cap 3.03; the forward
    direction (continuous K-norm against the discrete J-norm) is recorded
    as forward_constant. The discrete K-norm reads the K values the
    representation was built from.
    """
    theta = params.theta
    q0 = params.q.p_at_zero
    qi = params.q.p_at_infinity
    rep = construct_j_representation(couple, f, V)
    kd = lambda_norm(rep.k_values, theta, q0, qi)
    jd = lambda_norm(rep.j_values, theta, q0, qi)
    kc = k_norm_continuous(couple, f, params)
    ratio = jd / kd if kd > 0 else 0.0
    forward = kc / jd if jd > 0 else 0.0
    passed = rep.j_bound_ok and (kd == 0.0 or
                                 (math.isfinite(ratio) and math.isfinite(forward)))
    return KJEquivalenceReport(kd, jd, kc, ratio, forward, rep.worst_ratio, passed)


@dataclass(frozen=True)
class DensityReport:
    truncations: list
    residual_ratios: list
    non_increasing: bool
    final_ratio: float
    passed: bool


def density_check(couple, f, params):
    """Norm convergence of the truncated J-representation to f.

    The representation runs over |v| <= V, the grid's V. The residual after
    keeping terms |v| <= N, for N = 2, 4, ... and V - 2, is the sum of the
    tail terms; its K-method norm relative to ||f|| must not grow in N
    (by more than 1e-12) and must end at most 1e-3.
    """
    V = params.grid.V
    truncations = sorted(set(list(range(2, V - 1, 2)) + [V - 2]))
    rep = construct_j_representation(couple, f, V)
    knorm = k_norm_continuous(couple, f, params)
    abs_v = np.abs(np.arange(-V, V + 1))
    ratios = []
    for n_keep in truncations:
        tail = abs_v > n_keep
        if not tail.any():
            ratios.append(0.0)
            continue
        residual = couple.element(rep.terms[tail].sum(axis=0), f)
        rk = k_norm_continuous(couple, residual, params)
        ratios.append(rk / knorm if knorm > 0 else 0.0)
    diffs = np.diff(ratios)
    non_increasing = bool(np.all(diffs <= 1e-12))
    final_ratio = ratios[-1]
    passed = non_increasing and final_ratio <= 1e-3
    return DensityReport(list(truncations), ratios, non_increasing,
                         final_ratio, passed)


# ---------------------------------------------------------------------------
# Structural propositions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropositionReport:
    values: dict
    passed: bool


def prop_exponent_monotone(couple, f, theta, q, r, grid):
    """Raising the integrability exponent pointwise shrinks the norm scale.

    Requires q <= r on the grid. Records ||f||_r / ||f||_q and the sup-norm
    ratio; both must be finite for nonzero f.
    """
    if np.any(q.on_grid(grid) > r.on_grid(grid) + 1e-12):
        raise ConfigError("prop_exponent_monotone needs q <= r on the grid")
    norm_q = k_norm_continuous(couple, f, KMethodParams(theta, q, grid))
    norm_r = k_norm_continuous(couple, f, KMethodParams(theta, r, grid))
    sup_norm = k_norm_sup(couple, f, theta, grid)
    if norm_q == 0.0:
        ratio_r = ratio_sup = 0.0
    else:
        ratio_r = norm_r / norm_q
        ratio_sup = sup_norm / norm_q
    passed = math.isfinite(ratio_r) and math.isfinite(ratio_sup)
    return PropositionReport({"norm_q": norm_q, "norm_r": norm_r,
                              "sup_norm": sup_norm, "ratio_r": ratio_r,
                              "ratio_sup": ratio_sup}, passed)


def prop_reversal_symmetry(couple, f, theta, q, grid):
    """Swapping the couple, theta -> 1 - theta and t -> 1/t preserves norms.

    Requires q(0) = q_inf. On a symmetric grid the substitution u -> -u
    maps one modular onto the other exactly, so the continuous norms agree
    to solver tolerance, 1e-9. The discrete norms (|v| <= 8) swap blocks up
    to the v = 0 boundary term; their ratio is only kept in [0.25, 4].
    """
    if abs(q.p_at_zero - q.p_at_infinity) > 1e-12:
        raise ConfigError("reversal symmetry needs q(0) = q_inf")
    rev = couple.reversed()
    forward = k_norm_continuous(couple, f, KMethodParams(theta, q, grid))
    backward = k_norm_continuous(rev, f, KMethodParams(1.0 - theta, q.reflected(), grid))
    ratio = backward / forward if forward > 0 else 1.0

    q0 = q.p_at_zero
    qi = q.p_at_infinity
    kd_fwd = k_norm_discrete(couple, f, theta, q0, qi, 8)
    kd_rev = k_norm_discrete(rev, f, 1.0 - theta, qi, q0, 8)
    d_ratio = kd_rev / kd_fwd if kd_fwd > 0 else 1.0
    passed = abs(ratio - 1.0) <= 1e-9 and 0.25 <= d_ratio <= 4.0
    return PropositionReport({"continuous_forward": forward,
                              "continuous_backward": backward,
                              "continuous_ratio": ratio,
                              "discrete_ratio": d_ratio}, passed)


def prop_equal_limits(couple, f, theta, q_a, q_b, grid):
    """Discrete norms coincide whenever the exponents share both limits.

    The discrete norm (|v| <= 8) reads only q(0) and q_inf, so two
    exponents that agree there give identical values even when they differ
    in between; the (generally different) continuous norms on the grid are
    recorded alongside for contrast.
    """
    if abs(q_a.p_at_zero - q_b.p_at_zero) > 1e-12 or \
            abs(q_a.p_at_infinity - q_b.p_at_infinity) > 1e-12:
        raise ConfigError("prop_equal_limits needs matching limit exponents")
    d_a = k_norm_discrete(couple, f, theta, q_a.p_at_zero, q_a.p_at_infinity, 8)
    d_b = k_norm_discrete(couple, f, theta, q_b.p_at_zero, q_b.p_at_infinity, 8)
    c_a = k_norm_continuous(couple, f, KMethodParams(theta, q_a, grid))
    c_b = k_norm_continuous(couple, f, KMethodParams(theta, q_b, grid))
    values = {"discrete_a": d_a, "discrete_b": d_b,
              "continuous_a": c_a, "continuous_b": c_b,
              "continuous_ratio": c_b / c_a if c_a > 0 else 1.0}
    passed = d_a == d_b
    return PropositionReport(values, passed)


def prop_theta_monotone(couple, f, theta_small, theta_large, q, grid):
    """For an ordered couple (norm0 <= norm1), larger theta gives the
    smaller space: ||f||_{theta_small} stays within a bounded multiple of
    ||f||_{theta_large}. Also confirms K(t, f) is flat for t >= 1 (to 1e-9)."""
    if not theta_small <= theta_large:
        raise ConfigError("need theta_small <= theta_large")
    if not couple.ordered:
        raise ConfigError("prop_theta_monotone needs an ordered couple (norm0 <= norm1)")
    n_small = k_norm_continuous(couple, f, KMethodParams(theta_small, q, grid))
    n_large = k_norm_continuous(couple, f, KMethodParams(theta_large, q, grid))
    k_one = k_functional(couple, 1.0, f)
    k_top = k_functional(couple, grid.t_max, f)
    flat = abs(k_top - k_one) <= 1e-9 * max(k_one, 1e-300)
    ratio = n_small / n_large if n_large > 0 else 0.0
    passed = flat and math.isfinite(ratio)
    return PropositionReport({"norm_small_theta": n_small,
                              "norm_large_theta": n_large,
                              "ratio": ratio, "k_flat_above_one": flat}, passed)


def prop_identical_couple(weights, f, theta, q, grid):
    """Interpolating a space with itself returns the space.

    K(t, f) = min(1, t) ||f|| exactly, so the norm ratio equals
    || t^{-theta} min(1, t) ||_{q(.)} independently of f. For constant q
    the truncated modular has the closed form
    (1 - 2^{-V(1-th)q})/((1-th)q) + (1 - 2^{-V th q})/(th q), checked to
    quadrature accuracy (2e-3, relative).
    """
    couple = Couple.weighted_seq(weights, weights)
    base = couple.norm0(f)
    norm = k_norm_continuous(couple, f, KMethodParams(theta, q, grid))
    ratio = norm / base if base > 0 else 0.0
    values = {"base_norm": base, "k_method_norm": norm, "ratio": ratio}
    passed = base == 0.0 or (math.isfinite(ratio) and ratio > 0)
    if q.is_constant and base > 0:
        qc = q.p_at_zero
        V = grid.V
        m0 = (1.0 - 2.0 ** (-V * (1.0 - theta) * qc)) / ((1.0 - theta) * qc)
        m1 = (1.0 - 2.0 ** (-V * theta * qc)) / (theta * qc)
        expected = (m0 + m1) ** (1.0 / qc)
        values["expected_ratio"] = expected
        passed = passed and abs(ratio - expected) <= 2e-3 * expected
    return PropositionReport(values, passed)


# ---------------------------------------------------------------------------
# Reiteration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReiterationReport:
    theta: float
    base_norm: float
    outer_norm: float
    constant: float
    refined_constant: float | None
    drift: float | None
    passed: bool


class _KMethodCouple(Couple):
    """(X_0, X_1), X_i = (A0, A1)_{theta_i, q} normed on a grid, for a
    weighted sequence couple: t_j^{-theta_i} K(t_j, g) for each row g of G
    is |G| @ kernel_i. Both norms share q and du, so cost_many solves the
    rows of both in one call.

    Both norms N_i(g) are Luxemburg norms of |g| @ kernel_i with a positive
    kernel, so K(t, f) has two bounds in closed form (corner_bounds): the
    best corner g = S f, S a subset of the coordinates, bounds it from
    above, and K-J duality (Bergh-Lofstrom, section 3.7) from below.
    outer_k searches only the t whose bounds are further apart than the
    search's own resolution, relatively; every other t takes the best
    corner's value and the corner as its minimizer. outer_k is this
    couple's only K: it has no k_many, decompose_many or reversed.
    """

    def __init__(self, couple, grid, q_values, thetas):
        ts = grid.nodes
        cost = couple.k_weights(ts)
        self.kernels = [(cost * ts[:, None] ** -theta).T for theta in thetas]
        self.q_values, self.du = q_values, grid.du

    def norm0_many(self, G, f):
        return weighted_power_norm(np.abs(G) @ self.kernels[0],
                                   self.q_values, self.du)

    def norm1_many(self, G, f):
        return weighted_power_norm(np.abs(G) @ self.kernels[1],
                                   self.q_values, self.du)

    def cost_many(self, G, f, t):
        kernel0, kernel1 = self.kernels
        norms = weighted_power_norm(
            np.concatenate([np.abs(G) @ kernel0, np.abs(f - G) @ kernel1]),
            self.q_values, self.du)
        return norms[:len(G)] + t * norms[len(G):]

    def corner_bounds(self, ts, f):
        """(upper, corners, lower) at every t of ts, with
        lower(t) <= K(t, f) <= upper(t).

        upper(t) = min_S N0(S f) + t N1(f - S f) over the 2^n subsets S of
        the coordinates, reached at the corner S f, row j of corners. Its
        rows S |f| @ kernel_i are one matrix product of at least 2 rows, as
        in cost_many (a product of one row may differ in the last bit), so
        at g = 0 and g = f upper(t) has the bits of the search's starts.

        lower(t) comes from duality. The gradient phi of a Luxemburg norm N
        at b != 0, phi_j = q_j tau_j / b_j / (sum_i q_i tau_i / N) with
        tau_i = du (b_i / N)^{q_i}, lies in the dual unit ball, as does 0.
        On every split f = g + (f - g) it bounds N_i(g) from below by
        sum_k |g_k| (kernel_i phi)_k, and so K(t, f) by
        sum_k |f_k| min(a_k, t b_k), a = kernel0 phi0 and b = kernel1 phi1.
        lower(t) is the largest such sum over the gradients at every row
        S |f| @ kernel_i, phi0 and phi1 taken at any two rows.
        """
        n = len(f)
        keep = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1 == 1
        rows = np.where(keep, np.abs(f), 0.0)
        bases = [rows @ kernel for kernel in self.kernels]
        norms = [weighted_power_norm(b, self.q_values, self.du) for b in bases]
        # the complement of subset s is 2^n - 1 - s
        costs = norms[0] + ts[:, None] * norms[1][::-1]
        best = costs.argmin(axis=1)
        upper = costs[np.arange(len(ts)), best]
        corners = np.where(keep[best], f, 0.0)

        q = self.q_values
        duals = []
        for kernel, b, norm in zip(self.kernels, bases, norms):
            # phi with du cancelled and written without 1/b_j, which a zero
            # base would make 0/0; a row of norm 0 keeps phi = 0
            phi = np.zeros_like(b)
            live = norm > 0.0
            ratio = b[live] / norm[live, None]
            phi[live] = (q * ratio ** (q - 1.0)
                         / (q * ratio ** q).sum(axis=1, keepdims=True))
            duals.append(phi @ kernel.T)
        a, b = duals
        # sums[j, S, S'] = sum_k |f_k| min(a[S, k], t_j b[S', k])
        sums = (np.abs(f) * np.minimum(a[None, :, None, :],
                                       ts[:, None, None, None] * b[None, None])
                ).sum(axis=-1)
        lower = sums.max(axis=(1, 2))
        return upper, corners, lower

    def outer_k(self, ts, f, resolution):
        """(values, minimizers, flags): K(t, f) at every t of ts, searched
        by k_brute_force (one random start) only at the t with
        upper(t) - lower(t) > resolution upper(t) (see corner_bounds);
        every other t takes upper(t) and its corner. flags marks a search
        that hit its evaluation cap or ended below lower(t) (1 - 1e-9): the
        search or the bound is then wrong."""
        values, minimizers, lower = self.corner_bounds(ts, f)
        flags = np.zeros(len(ts), dtype=bool)
        for j in np.flatnonzero(values - lower > resolution * values):
            # looked up on couples at call time, as GenericCouple does, so
            # that a wrapper bound there sees every search
            res = couples.k_brute_force(self, float(ts[j]), f,
                                        resolution=resolution,
                                        n_random_starts=1, return_details=True)
            values[j], minimizers[j] = res.value, res.minimizer
            flags[j] = res.cap_hit or res.value < lower[j] * (1.0 - 1e-9)
        return values, minimizers, flags


def reiteration_check(couple, f, theta0, theta1, eta, q, *, inner_grid,
                      outer_V, base_grid=None, refine=True, resolution=1e-7):
    """Interpolate between two interpolation spaces of the same couple.

    Builds X_i = (A0, A1)_{theta_i, q} as a derived couple whose norms are
    the continuous K-method norms on an inner grid, evaluates the outer
    discrete norm of f in (X_0, X_1)_{eta, q} by the couple's K at
    t = 2^-outer_V, ..., 2^outer_V, and compares with the direct norm at
    theta = (1-eta) theta0 + eta theta1. The couple must be a weighted
    sequence couple and f a finite vector of its dimension (ConfigError
    otherwise): K is linear in |g| there, so the brute-force objective of a
    batch of g, both derived norms, is two matrix products and one batched
    Luxemburg solve, and K has a lower bound by duality. Where that bound
    lies within resolution (relatively) of the best corner g = S f, K is
    that corner's value; every other t is searched by brute force, one
    random start each (see _KMethodCouple.outer_k).
    Refining the inner grid may move the equivalence constant by at most
    0.1, relatively. A brute-force K that hits its evaluation cap, or that
    ends below the duality bound by more than 1e-9 relatively, fails.
    """
    if not couple.is_vector_couple:
        raise ConfigError("reiteration_check needs a finite-dimensional couple")
    f = couple.checked(f)
    if len(f) > 4:
        raise CapacityError("reiteration supports dimension <= 4")
    if not 0.0 < eta < 1.0 or not 0.0 < theta0 < theta1 < 1.0 or outer_V < 1:
        raise ConfigError("need 0 < theta0 < theta1 < 1, eta in (0, 1) "
                          "and outer_V >= 1")
    if base_grid is None:
        base_grid = DEFAULT_GRID
    theta = (1.0 - eta) * theta0 + eta * theta1

    def outer_norm_on(grid_in):
        q_values = q.p_at_zero if q.is_constant else q.on_grid(grid_in)
        derived = _KMethodCouple(couple, grid_in, q_values, (theta0, theta1))
        alpha, _, flags = derived.outer_k(
            2.0 ** np.arange(-outer_V, outer_V + 1), f, resolution)
        return (lambda_norm(alpha, eta, q.p_at_zero, q.p_at_infinity),
                bool(flags.any()))

    # the outer norm first: it raises ConfigError for a couple without
    # k_weights before the base norm is spent on it
    outer, flagged = outer_norm_on(inner_grid)
    base = k_norm_continuous(couple, f, KMethodParams(theta, q, base_grid))
    ratio = outer / base if base > 0 else 1.0
    constant = max(ratio, 1.0 / ratio) if ratio > 0 else math.inf

    refined_constant = None
    drift = None
    if refine:
        outer2, flagged_fine = outer_norm_on(inner_grid.refined())
        flagged |= flagged_fine
        ratio2 = outer2 / base if base > 0 else 1.0
        refined_constant = max(ratio2, 1.0 / ratio2) if ratio2 > 0 else math.inf
        drift = abs(refined_constant - constant) / constant
    passed = (math.isfinite(constant) and (drift is None or drift <= 0.1)
              and not flagged)
    return ReiterationReport(theta, base, outer, constant,
                             refined_constant, drift, passed)


# ---------------------------------------------------------------------------
# Lorentz identification and membership classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LorentzIdentificationReport:
    theta: float
    p: float
    k_method_norm: float
    lorentz_norm: float
    ratio: float
    passed: bool


def lorentz_identification_check(f, theta, q, grid):
    """(L1, Linf)_{theta, q(.)} matches the Lorentz space with p = 1/(1-theta).

    Needs q(0) = q_inf so that both descriptions use the same limit
    exponent. The ratio of the two norms is recorded; equivalence means it
    stays within fixed brackets independent of f (checked across a corpus
    by the suite driver, and for stability under refinement in tests).
    """
    if abs(q.p_at_zero - q.p_at_infinity) > 1e-12:
        raise ConfigError("identification needs q(0) = q_inf")
    couple = Couple.l1_linf()
    p_value = 1.0 / (1.0 - theta)
    knorm = k_norm_continuous(couple, f, KMethodParams(theta, q, grid))
    p_const = ExponentFunction.constant(p_value)
    lnorm = lorentz_norm(f, p_const, q, grid)
    ratio = knorm / lnorm if lnorm > 0 else (0.0 if knorm == 0 else math.inf)
    passed = knorm == 0.0 or (math.isfinite(ratio) and ratio > 0)
    return LorentzIdentificationReport(theta, p_value, knorm, lnorm, ratio, passed)


@dataclass(frozen=True)
class ClassMembershipReport:
    k_class_constant: float
    j_class_constant: float
    passed: bool


def class_membership_check(couple, f, params):
    """Constants placing the interpolation space in the class of order theta.

    With X the K-method space, c_K is the smallest C such that
    K(t, f) <= C t^theta ||f||_X at the probes, and c_J the smallest C such
    that ||f||_X <= C t^{-theta} J(t, f). Finite constants certify
    membership on the sampled range.
    """
    theta = params.theta
    knorm = k_norm_continuous(couple, f, params)
    if knorm == 0.0:
        return ClassMembershipReport(0.0, 0.0, True)
    ss = np.geomspace(params.grid.t_min, params.grid.t_max, 41)
    kvals = k_functional_many(couple, ss, f)
    c_k = float(np.max(kvals / ss ** theta)) / knorm
    jvals = np.maximum(couple.norm0(f), ss * couple.norm1(f))
    c_j = knorm * float(np.max(ss ** theta / jvals))
    passed = math.isfinite(c_k) and math.isfinite(c_j)
    return ClassMembershipReport(c_k, c_j, passed)
