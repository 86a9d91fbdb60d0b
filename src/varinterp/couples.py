"""Compatible couples of normed spaces and their K- and J-functionals.

Three couple kinds are supported:

* ``weighted_seq``: two weighted little-l1 norms on R^n. The K-functional
  splits per coordinate, K(t, f) = sum_k min(w0_k, t w1_k) |f_k|, with the
  minimizing decomposition read off from the same comparison.
* ``l1_linf``: (L^1, L^inf) over a nonatomic measure space, with elements
  given as atomic functions. K(t, f) is the integral of the decreasing
  rearrangement over (0, t); the optimal decomposition is truncation at
  height f*(t).
* ``finite_generic``: two arbitrary norms on R^n (n small). No closed form;
  K is computed by the brute-force minimizer below, which is also the
  independent oracle for the closed-form kinds.

Every norm here is absolute and monotone (|g| <= |h| coordinatewise implies
norm(g) <= norm(h)), which confines optimal decompositions to the box
between 0 and f and makes coordinate descent with line searches sound.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CapacityError, ConfigError, DomainError
from .rearrange import AtomFunction, rearrangement

__all__ = [
    "NormSpec",
    "Couple",
    "k_functional",
    "k_functional_many",
    "decompose",
    "k_truncation_oracle",
    "k_brute_force",
    "BruteForceResult",
    "j_functional",
    "kj_inequality_check",
    "KJInequalityReport",
    "LinearOperatorSpec",
    "apply_operator",
    "operator_bound_check",
    "OperatorBoundReport",
    "reverse",
]


@dataclass(frozen=True)
class NormSpec:
    """Weighted p-norm on R^n: (sum (w_k |x_k|)^p)^{1/p}, max at p = inf."""

    p: float
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", float(self.p))
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", weights)
        if self.p < 1.0:
            raise ConfigError("norm exponent p must be >= 1")
        if weights.ndim != 1 or np.any(weights <= 0) or not np.all(np.isfinite(weights)):
            raise ConfigError("norm weights must be positive finite")

    def norm(self, x):
        wx = self.weights * np.abs(np.asarray(x, dtype=float))
        if math.isinf(self.p):
            return float(np.max(wx)) if len(wx) else 0.0
        return float(np.sum(wx ** self.p) ** (1.0 / self.p))

    def to_json_dict(self):
        return {"p": "inf" if math.isinf(self.p) else self.p,
                "weights": self.weights.tolist()}

    @classmethod
    def from_json_dict(cls, data):
        p = data["p"]
        return cls(math.inf if p == "inf" else float(p),
                   np.asarray(data["weights"], dtype=float))


@dataclass(frozen=True)
class Couple:
    """A compatible couple (A0, A1); see module docstring for the kinds."""

    kind: str
    w0: np.ndarray | None = None
    w1: np.ndarray | None = None
    norm0_spec: NormSpec | None = None
    norm1_spec: NormSpec | None = None
    norm0_fn: Callable | None = None
    norm1_fn: Callable | None = None

    @classmethod
    def weighted_seq(cls, w0, w1):
        w0 = np.asarray(w0, dtype=float)
        w1 = np.asarray(w1, dtype=float)
        if w0.shape != w1.shape or w0.ndim != 1 or len(w0) == 0:
            raise ConfigError("weights must be 1-d arrays of equal positive length")
        if np.any(w0 <= 0) or np.any(w1 <= 0):
            raise ConfigError("weights must be positive")
        if not (np.all(np.isfinite(w0)) and np.all(np.isfinite(w1))):
            raise ConfigError("weights must be finite")
        return cls("weighted_seq", w0=w0, w1=w1)

    @classmethod
    def l1_linf(cls):
        return cls("l1_linf")

    @classmethod
    def finite_generic(cls, norm0, norm1):
        if isinstance(norm0, NormSpec) and isinstance(norm1, NormSpec):
            if norm0.weights.shape != norm1.weights.shape:
                raise ConfigError("norm specs must share the dimension")
            return cls("finite_generic", norm0_spec=norm0, norm1_spec=norm1)
        if callable(norm0) and callable(norm1):
            return cls("finite_generic", norm0_fn=norm0, norm1_fn=norm1)
        raise ConfigError("finite_generic needs two NormSpecs or two callables")

    @property
    def dimension(self):
        if self.kind == "weighted_seq":
            return len(self.w0)
        if self.kind == "finite_generic" and self.norm0_spec is not None:
            return len(self.norm0_spec.weights)
        return None

    @property
    def is_vector_couple(self):
        return self.kind in ("weighted_seq", "finite_generic")

    def norm0(self, f):
        if self.kind == "weighted_seq":
            # ndarray.sum is np.sum without its Python-level dispatch; the
            # brute-force K calls this in its innermost loop
            return float((self.w0 * np.abs(np.asarray(f, dtype=float))).sum())
        if self.kind == "l1_linf":
            return f.total_l1
        if self.norm0_spec is not None:
            return self.norm0_spec.norm(f)
        return float(self.norm0_fn(np.asarray(f, dtype=float)))

    def norm1(self, f):
        if self.kind == "weighted_seq":
            return float((self.w1 * np.abs(np.asarray(f, dtype=float))).sum())
        if self.kind == "l1_linf":
            return f.sup_value
        if self.norm1_spec is not None:
            return self.norm1_spec.norm(f)
        return float(self.norm1_fn(np.asarray(f, dtype=float)))

    def to_json(self):
        if self.kind == "weighted_seq":
            payload = {"kind": self.kind, "w0": self.w0.tolist(), "w1": self.w1.tolist()}
        elif self.kind == "l1_linf":
            payload = {"kind": self.kind}
        elif self.norm0_spec is not None:
            payload = {"kind": self.kind,
                       "norm0": self.norm0_spec.to_json_dict(),
                       "norm1": self.norm1_spec.to_json_dict()}
        else:
            raise ConfigError("couples with callable norms are not serializable")
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text):
        data = json.loads(text) if isinstance(text, str) else text
        try:
            kind = data["kind"]
            if kind == "weighted_seq":
                return cls.weighted_seq(data["w0"], data["w1"])
            if kind == "l1_linf":
                return cls.l1_linf()
            if kind == "finite_generic":
                return cls.finite_generic(NormSpec.from_json_dict(data["norm0"]),
                                          NormSpec.from_json_dict(data["norm1"]))
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed couple JSON: {exc}") from exc
        raise ConfigError(f"unknown couple kind {data.get('kind')!r}")


def reverse(couple):
    """The couple with the two norms swapped."""
    if couple.kind == "weighted_seq":
        return Couple.weighted_seq(couple.w1, couple.w0)
    if couple.kind == "finite_generic":
        if couple.norm0_spec is not None:
            return Couple.finite_generic(couple.norm1_spec, couple.norm0_spec)
        return Couple.finite_generic(couple.norm1_fn, couple.norm0_fn)
    raise ConfigError("the l1_linf couple has no finite reversed representation")


# ---------------------------------------------------------------------------
# K- and J-functionals
# ---------------------------------------------------------------------------


def _require_positive(t):
    if not (isinstance(t, (int, float)) and math.isfinite(t)) or t <= 0:
        raise DomainError("the functional parameter t must be a finite positive real")


def norm_sum(couple, f):
    """Norm of f in A0 + A1, which equals K(1, f)."""
    return k_functional(couple, 1.0, f)


def norm_intersection(couple, f):
    """Norm of f in A0 cap A1: max of the two norms, i.e. J(1, f)."""
    return max(couple.norm0(f), couple.norm1(f))


def k_functional(couple, t, f):
    """K(t, f) = inf over f = f0 + f1 of norm0(f0) + t norm1(f1)."""
    _require_positive(t)
    return float(k_functional_many(couple, np.array([t]), f)[0])


def k_functional_many(couple, ts, f):
    """K(t, f) for an array of t values, sharing work across them."""
    ts = np.asarray(ts, dtype=float)
    if np.any(ts <= 0) or not np.all(np.isfinite(ts)):
        raise DomainError("the functional parameter t must be a finite positive real")
    if couple.kind == "weighted_seq":
        cost = np.minimum(couple.w0[None, :], ts[:, None] * couple.w1[None, :])
        return cost @ np.abs(np.asarray(f, dtype=float))
    if couple.kind == "l1_linf":
        if not isinstance(f, AtomFunction):
            raise ConfigError("l1_linf elements are AtomFunction instances")
        return rearrangement(f).integral_to(ts)
    out = np.empty(len(ts))
    warm = None
    order = np.argsort(ts)
    for pos in order:
        result = k_brute_force(couple, float(ts[pos]), f,
                               extra_starts=() if warm is None else (warm,),
                               return_details=True)
        out[pos] = result.value
        warm = result.minimizer
    return out


def decompose(couple, t, f):
    """A near-optimal split f = f0 + f1 realizing K(t, f).

    For l1_linf the split truncates at height c = f*(t), the smallest
    optimal truncation level. For weighted_seq ties send the coordinate to
    the t-side, again the smallest-f0 choice.
    """
    _require_positive(t)
    if couple.kind == "weighted_seq":
        f = np.asarray(f, dtype=float)
        take0 = couple.w0 < t * couple.w1
        f0 = np.where(take0, f, 0.0)
        return f0, f - f0
    if couple.kind == "l1_linf":
        if not isinstance(f, AtomFunction):
            raise ConfigError("l1_linf elements are AtomFunction instances")
        c = rearrangement(f).value_at(t)
        f0 = AtomFunction(np.maximum(f.values - c, 0.0), f.masses)
        f1 = AtomFunction(np.minimum(f.values, c), f.masses)
        return f0, f1
    result = k_brute_force(couple, t, f, return_details=True)
    g = result.minimizer
    return g, np.asarray(f, dtype=float) - g


def k_truncation_oracle(f, t, extra_levels=None):
    """Independent K oracle for l1_linf by scanning truncation heights.

    The optimal cost c -> sum (v_i - c)_+ m_i + t c is piecewise linear in c
    with kinks only at atom values and 0, so scanning those candidates (plus
    any extra levels) is exact. Returns (k_value, best_level) with the
    smallest optimal level.
    """
    _require_positive(t)
    candidates = np.unique(np.concatenate([[0.0], f.values]))
    if extra_levels is not None:
        candidates = np.unique(np.concatenate([candidates,
                                               np.asarray(extra_levels, dtype=float)]))
    excess = np.maximum(f.values[None, :] - candidates[:, None], 0.0)
    costs = excess @ f.masses + t * candidates
    best = float(np.min(costs))
    at_best = candidates[costs <= best * (1.0 + 1e-12) + 1e-300]
    return best, float(at_best[0])


@dataclass(frozen=True)
class BruteForceResult:
    value: float
    minimizer: np.ndarray
    evaluations: int
    cap_hit: bool


def k_brute_force(couple, t, f, *, resolution=1e-8, max_evals=100_000,
                  n_random_starts=8, extra_starts=(), rng=None,
                  return_details=False):
    """Direct minimization of g -> norm0(g) + t norm1(f - g) over R^n.

    Multistart coordinate descent; each coordinate update is a bounded
    scalar minimization over the box [0 ^ f] (optimal for absolute monotone
    norms), padded slightly. Convexity makes each line search exact up to
    tolerance, while the restarts guard against stalling on kinks of
    nonsmooth norms. Stops a start when a full sweep improves by less than
    resolution (relatively); the evaluation budget is shared across starts
    and a breach is reported, not hidden.
    """
    from scipy.optimize import minimize_scalar

    _require_positive(t)
    if not couple.is_vector_couple:
        raise ConfigError("brute-force K needs a finite-dimensional couple")
    f = np.asarray(f, dtype=float)
    n = len(f)
    if n > 6:
        raise CapacityError(f"brute-force K supports dimension <= 6, got {n}")
    if rng is None:
        rng = np.random.default_rng(0)

    evals = 0

    def objective(g):
        nonlocal evals
        evals += 1
        return couple.norm0(g) + t * couple.norm1(f - g)

    if not np.any(f != 0.0):
        result = BruteForceResult(0.0, np.zeros(n), 1, False)
        return result if return_details else result.value

    scale = float(np.max(np.abs(f)))
    pad = 1e-3 * scale
    lo = np.minimum(0.0, f) - pad
    hi = np.maximum(0.0, f) + pad
    xatol = max(resolution * scale * 1e-1, 1e-14)

    starts = [f.copy(), np.zeros(n), 0.5 * f]
    starts.extend(np.asarray(s, dtype=float).copy() for s in extra_starts)
    for _ in range(n_random_starts):
        starts.append(rng.uniform(lo, hi))

    best_value = math.inf
    best_g = np.zeros(n)
    cap_hit = False
    for start in starts:
        g = np.clip(start, lo, hi)
        value = objective(g)
        stalls = 0
        for _sweep in range(80):
            if evals > max_evals:
                cap_hit = True
                break
            prev = value
            for k in range(n):
                def line(x, k=k):
                    g_try = g.copy()
                    g_try[k] = x
                    return objective(g_try)
                res = minimize_scalar(line, bounds=(float(lo[k]), float(hi[k])),
                                      method="bounded",
                                      options={"xatol": xatol})
                if res.fun <= value:
                    g[k] = float(res.x)
                    value = float(res.fun)
            if prev - value <= resolution * max(abs(value), 1e-300):
                stalls += 1
                if stalls >= 2:
                    break
            else:
                stalls = 0
        if value < best_value:
            best_value = value
            best_g = g.copy()
        if cap_hit:
            break

    result = BruteForceResult(best_value, best_g, evals, cap_hit)
    return result if return_details else result.value


def j_functional(couple, t, f):
    """J(t, f) = max(norm0(f), t norm1(f)) for f in the intersection."""
    _require_positive(t)
    return max(couple.norm0(f), t * couple.norm1(f))


@dataclass(frozen=True)
class KJInequalityReport:
    k_s: float
    k_t: float
    j_s: float
    j_t: float
    worst_margin: float
    passed: bool


def kj_inequality_check(couple, f, s, t, *, slack=1e-9):
    """Monotonicity and comparison inequalities between K and J at s and t.

    Checks, with relative slack: K(t) <= max(1, t/s) K(s) and the reverse
    ordering, the same for J, and K(t) <= min(1, t/s) J(s) in both
    orderings. worst_margin is the smallest normalized slack margin.
    """
    _require_positive(s)
    _require_positive(t)
    k_s = k_functional(couple, s, f)
    k_t = k_functional(couple, t, f)
    j_s = j_functional(couple, s, f)
    j_t = j_functional(couple, t, f)
    pairs = [
        (max(1.0, t / s) * k_s, k_t),
        (max(1.0, s / t) * k_t, k_s),
        (max(1.0, t / s) * j_s, j_t),
        (max(1.0, s / t) * j_t, j_s),
        (min(1.0, t / s) * j_s, k_t),
        (min(1.0, s / t) * j_t, k_s),
    ]
    margins = [(bound * (1.0 + slack) - value) / max(bound, 1e-300)
               for bound, value in pairs]
    worst = min(margins)
    return KJInequalityReport(k_s, k_t, j_s, j_t, worst, worst >= 0.0)


# ---------------------------------------------------------------------------
# Bounded linear operators on a couple
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearOperatorSpec:
    """A matrix acting on a vector couple with norm bounds on both spaces."""

    matrix: np.ndarray
    bound0: float
    bound1: float

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ConfigError("operator matrix must be square")
        if not np.all(np.isfinite(matrix)):
            raise ConfigError("operator matrix must be finite")
        if self.bound0 < 0 or self.bound1 < 0:
            raise ConfigError("operator bounds must be nonnegative")

    @classmethod
    def from_matrix(cls, matrix, couple):
        """Attach the exact operator norms for a weighted_seq couple.

        On l1(w) the operator norm of T is max_j sum_i w_i |T_ij| / w_j.
        """
        if couple.kind != "weighted_seq":
            raise ConfigError("exact operator norms are implemented for weighted_seq")
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != (len(couple.w0), len(couple.w0)):
            raise ConfigError("operator dimension does not match the couple")
        abs_t = np.abs(matrix)
        bound0 = float(np.max((couple.w0 @ abs_t) / couple.w0))
        bound1 = float(np.max((couple.w1 @ abs_t) / couple.w1))
        return cls(matrix, bound0, bound1)

    def to_json(self):
        return json.dumps({"matrix": self.matrix.tolist(),
                           "M0": self.bound0, "M1": self.bound1})

    @classmethod
    def from_json(cls, text):
        data = json.loads(text) if isinstance(text, str) else text
        try:
            return cls(np.asarray(data["matrix"], dtype=float),
                       float(data["M0"]), float(data["M1"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed operator JSON: {exc}") from exc


def apply_operator(op, f):
    f = np.asarray(f, dtype=float)
    if f.shape != (op.matrix.shape[1],):
        raise ConfigError("operator and vector dimensions do not match")
    return op.matrix @ f


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
    check passes with a small relative slack whenever the attached bounds
    are genuine.
    """
    from .interp import KMethodParams, k_norm_continuous

    params = KMethodParams(theta, q, grid)
    tf = apply_operator(op, f)
    lhs = k_norm_continuous(couple, tf, params)
    base = k_norm_continuous(couple, f, params)
    cap = max(op.bound0, op.bound1)
    rhs = cap * base
    passed = lhs <= rhs * (1.0 + 1e-6) + 1e-300
    return OperatorBoundReport(lhs, rhs, op.bound0, op.bound1, base, passed)
