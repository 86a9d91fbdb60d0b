"""Compatible couples of normed spaces and their K- and J-functionals.

`Couple` is the interface; three classes implement it, each built by the
`Couple` constructor named in parentheses:

* `WeightedSeqCouple` (``weighted_seq``): two weighted little-l1 norms on
  R^n. The K-functional splits per coordinate,
  K(t, f) = sum_k min(w0_k, t w1_k) |f_k|, with the minimizing
  decompositions at every t read off from one comparison mask.
* `L1LinfCouple` (``l1_linf``): (L^1, L^inf) over a nonatomic measure
  space, with elements given as atomic functions. K(t, f) is the integral
  of the decreasing rearrangement over (0, t) (Holmstedt); the optimal
  decompositions are truncations at the heights f*(t), all read off one
  rearrangement.
* `GenericCouple` (``finite_generic``): two weighted p-norms on R^n (n
  small), given as `NormSpec`s. No closed form; K is computed by the
  brute-force minimizer below, which is also the independent oracle for
  the closed forms of the other two classes: k_many and decompose_many run
  one independent search per t, at the minimizer's defaults.

Both vector couples are built from two `NormSpec`s of one shape; `NormSpec`
alone validates weights. Each couple's checked(f) alone decides whether f
is one of its elements, for the functionals below and its scalar norms.

Decompositions and batch norms work on value arrays: a row is a vector of
R^n, or the atom values of a function on the atoms of f. Every norm here
is absolute and monotone (|g| <= |h| coordinatewise implies
norm(g) <= norm(h)), which confines optimal decompositions to the box
between 0 and f, where the brute-force minimizer runs coordinate descent
with line searches. That descent can stop above the minimum: where an
l-inf maximum ties two coordinates, no move of one coordinate lowers the
cost, so a generic couple's K is an upper bound. With
finite_generic(NormSpec(inf, [1.1, 3.0]), NormSpec(2, [3.7, 1.7])),
f = [-0.3, -0.8] and t = 1 it is 1.50300000019, where a dense grid over
the box reaches 1.49300522. The minimizer runs all its starts in
lockstep: each round of a line search evaluates 17 points per distinct
search in one call of the couple's batch objective cost_many, and every
row evaluated counts against its evaluation cap.
Starts that agree, bit for bit, on the other coordinates and the bracket
share one search. After the first sweep a line search scans a narrow
bracket around each start's current value, and the whole box only for the
starts whose minimizer may lie outside that bracket. A sweep that moves none
of a start's coordinates stops that start, and a lower bound within
resolution of the best value (Couple.dual_lower) stops the search; only
reiteration's derived couple has one, as a weighted couple's would be the
closed form under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigError, DomainError
from .rearrange import AtomFunction, rearrangement

__all__ = [
    "NormSpec",
    "Couple",
    "WeightedSeqCouple",
    "L1LinfCouple",
    "GenericCouple",
    "k_functional",
    "k_functional_many",
    "decompose",
    "k_truncation_oracle",
    "k_brute_force",
    "BruteForceResult",
    "j_functional",
    "kj_inequality_check",
    "KJInequalityReport",
]


@dataclass(frozen=True)
class NormSpec:
    """Weighted p-norm on R^n: (sum (w_k |x_k|)^p)^{1/p}, max at p = inf.

    Calling a NormSpec on a (B, n) array returns the B norms of its rows.
    """

    p: float
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", float(self.p))
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", weights)
        if not self.p >= 1.0:
            raise ConfigError("norm exponent p must be >= 1")
        if (weights.ndim != 1 or not len(weights) or np.any(weights <= 0)
                or not np.all(np.isfinite(weights))):
            raise ConfigError("norm weights must be a non-empty 1-d array "
                              "of positive finite numbers")

    def __call__(self, x):
        wx = self.weights * np.abs(np.asarray(x, dtype=float))
        if math.isinf(self.p):
            return wx.max(axis=-1, initial=0.0)
        return (wx ** self.p).sum(axis=-1) ** (1.0 / self.p)


class Couple:
    """A compatible couple (A0, A1); see the module docstring for the classes.

    Every couple has checked(f), f as an element of the couple or
    ConfigError; norm0(f) and norm1(f), which check f; norm0_many(G, f) and
    norm1_many(G, f), the norms of the rows of a (B, n) value array G on
    the atoms of f (vector couples ignore f), each equal to the scalar norm
    of that row bit for bit; cost_many(G, f, t), brute-force K's objective,
    equal bit for bit to norm0_many(G, f) + t norm1_many(f - G, f) for a
    vector couple, maybe in fewer calls; k_many(ts, f), K(t, f) at an array
    of positive t; decompose_many(ts, f), the (m, n) value arrays (f0, f1)
    of near-optimal splits f = f0 + f1 realizing K(t_j, f) in row j, with
    f1 = f - f0; element(g, f), the element with values g on the atoms of
    f; and reversed(), the couple (A1, A0). The class attributes say what a
    caller may rely on: is_vector_couple (elements are vectors in R^n),
    dimension (n, for a weighted sequence or generic couple) and ordered
    (norm0 <= norm1 on every element).
    """

    is_vector_couple = True
    dimension = None
    ordered = False

    @staticmethod
    def weighted_seq(w0, w1):
        return WeightedSeqCouple(NormSpec(1.0, w0), NormSpec(1.0, w1))

    @staticmethod
    def l1_linf():
        return L1LinfCouple()

    @staticmethod
    def finite_generic(norm0, norm1):
        if not (isinstance(norm0, NormSpec) and isinstance(norm1, NormSpec)):
            raise ConfigError("finite_generic needs two NormSpecs")
        return GenericCouple(norm0, norm1)

    # the defaults serve vector couples, whose elements are value arrays
    def checked(self, f):
        """f as a float array; it must be finite and, if the couple has a
        dimension, of that length (ConfigError otherwise)."""
        f = np.asarray(f, dtype=float)
        if not np.isfinite(f).all():
            raise ConfigError("a vector of a vector couple must be finite")
        if self.dimension is not None and f.shape != (self.dimension,):
            raise ConfigError(f"a vector of shape {f.shape} does not match the "
                              f"couple's dimension {self.dimension}")
        return f

    def norm0(self, f):
        f = self.checked(f)[None, :]
        return float(self.norm0_many(f, f)[0])

    def norm1(self, f):
        f = self.checked(f)[None, :]
        return float(self.norm1_many(f, f)[0])

    def element(self, g, f):
        return g

    def cost_many(self, G, f, t):
        return self.norm0_many(G, f) + t * self.norm1_many(f - G, f)

    def dual_lower(self, t, f, G):
        """A lower bound for K(t, f) from the splits f = g + (f - g), g a
        row of G; -inf, no bound, unless a couple overrides it."""
        return -math.inf

    def operator_norms(self, matrix):
        """The exact norms (M0, M1) of a matrix on A0 and on A1; the matrix
        must be finite and square of the couple's dimension."""
        raise ConfigError("exact operator norms are implemented for weighted_seq")

    def k_weights(self, ts):
        """The (m, n) matrix C with K(t_j, f) = sum_k C_jk |f_k|."""
        raise ConfigError("K is linear in |f| only for weighted_seq")


class _NormSpecCouple(Couple):
    """A vector couple given by two NormSpecs of one shape, which it keeps
    as norms; it owns dimension and reversed()."""

    def __init__(self, norm0, norm1):
        if norm0.weights.shape != norm1.weights.shape:
            raise ConfigError("norm specs must share the dimension")
        self.norms = (norm0, norm1)
        self.dimension = len(norm0.weights)

    def reversed(self):
        return type(self)(*self.norms[::-1])


class WeightedSeqCouple(_NormSpecCouple):
    """(l1(w0), l1(w1)) on R^n: two NormSpecs with p = 1. The batch norms
    sum the weighted values directly, which on brute-force K's small
    batches is quicker than calling the NormSpecs."""

    def __init__(self, norm0, norm1):
        super().__init__(norm0, norm1)
        self.w0, self.w1 = norm0.weights, norm1.weights
        self.ordered = bool(np.all(self.w0 <= self.w1))

    def norm0_many(self, G, f):
        # ndarray.sum is np.sum without its Python-level dispatch; numpy adds
        # fewer than 8 terms in order, so with rows contiguous or not (n <= 6
        # in brute-force K) a row sum equals the sum of that row alone
        return (self.w0 * np.abs(G)).sum(axis=-1)

    def norm1_many(self, G, f):
        return (self.w1 * np.abs(G)).sum(axis=-1)

    def k_weights(self, ts):
        return np.minimum(self.w0[None, :], ts[:, None] * self.w1[None, :])

    def k_many(self, ts, f):
        return self.k_weights(ts) @ np.abs(np.asarray(f, dtype=float))

    def decompose_many(self, ts, f):
        """Ties send the coordinate to the t-side, the smallest-f0 choice."""
        f = np.asarray(f, dtype=float)
        f0 = np.where(self.w0 < ts[:, None] * self.w1, f, 0.0)
        return f0, f - f0

    def operator_norms(self, matrix):
        """On l1(w) the norm of T is max_j sum_i w_i |T_ij| / w_j."""
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != (self.dimension, self.dimension):
            raise ConfigError("operator dimension does not match the couple")
        if not np.isfinite(matrix).all():
            raise ConfigError("operator matrix must be finite")
        abs_t = np.abs(matrix)
        return (float(np.max((self.w0 @ abs_t) / self.w0)),
                float(np.max((self.w1 @ abs_t) / self.w1)))


class L1LinfCouple(Couple):
    """(L^1, L^inf) on a nonatomic measure space; elements are AtomFunctions."""

    is_vector_couple = False

    def checked(self, f):
        if not isinstance(f, AtomFunction):
            raise ConfigError("l1_linf elements are AtomFunction instances")
        return f

    def norm0(self, f):
        return self.checked(f).total_l1

    def norm1(self, f):
        return self.checked(f).sup_value

    def norm0_many(self, G, f):
        # a stack of (1, n) @ (n,) products takes each row's np.dot with the
        # masses, as total_l1 does; G @ masses may round differently
        return (G[:, None, :] @ f.masses)[:, 0]

    def norm1_many(self, G, f):
        return G.max(axis=1, initial=0.0)

    def element(self, g, f):
        return AtomFunction(g, f.masses)

    def k_many(self, ts, f):
        return rearrangement(f).integral_to(ts)

    def decompose_many(self, ts, f):
        """Truncations at the heights f*(t_j), the smallest optimal levels."""
        heights = rearrangement(f).value_at(ts)
        f0 = np.maximum(f.values - heights[:, None], 0.0)
        return f0, f.values - f0

    def reversed(self):
        raise ConfigError("the l1_linf couple has no finite reversed representation")


class GenericCouple(_NormSpecCouple):
    """Two NormSpecs on R^n of one dimension; K by brute force.

    k_many and decompose_many run one k_brute_force per t and raise
    CapacityError, naming the smallest such t, if any search hit its
    evaluation cap. Each K is the least cost its search found: an upper
    bound, too high where the search stalled (see the module docstring).
    """

    def norm0_many(self, G, f):
        return self.norms[0](G)

    def norm1_many(self, G, f):
        return self.norms[1](G)

    def _searched(self, ts, f):
        """(values, minimizers) of brute-force K at every t, in order."""
        f = np.asarray(f, dtype=float)
        results = [k_brute_force(self, float(t), f, return_details=True)
                   for t in ts]
        capped = [t for t, res in zip(ts, results) if res.cap_hit]
        if capped:
            raise CapacityError("brute-force K hit its evaluation cap "
                                f"at t={float(min(capped)):g}")
        minimizers = np.array([res.minimizer for res in results])
        return (np.array([res.value for res in results]),
                minimizers.reshape(len(ts), len(f)))

    def k_many(self, ts, f):
        return self._searched(ts, f)[0]

    def decompose_many(self, ts, f):
        f0 = self._searched(ts, f)[1]
        return f0, np.asarray(f, dtype=float) - f0


# ---------------------------------------------------------------------------
# K- and J-functionals
# ---------------------------------------------------------------------------


def _checked_t(t):
    """t as a float, if it is a finite positive real (a numpy scalar too)."""
    if isinstance(t, (int, float, np.integer, np.floating)):
        t = float(t)
        if math.isfinite(t) and t > 0:
            return t
    raise DomainError("the functional parameter t must be a finite positive real")


def k_functional(couple, t, f):
    """K(t, f) = inf over f = f0 + f1 of norm0(f0) + t norm1(f1)."""
    t = _checked_t(t)
    return float(k_functional_many(couple, np.array([t]), f)[0])


def k_functional_many(couple, ts, f):
    """K(t, f) for an array of t values, sharing work across them; f must
    pass couple.checked."""
    ts = np.asarray(ts, dtype=float)
    if (ts <= 0).any() or not np.isfinite(ts).all():
        raise DomainError("the functional parameter t must be a finite positive real")
    return couple.k_many(ts, couple.checked(f))


def decompose(couple, t, f):
    """A near-optimal split f = f0 + f1 realizing K(t, f), as elements."""
    t = _checked_t(t)
    f = couple.checked(f)
    f0, f1 = couple.decompose_many(np.array([t]), f)
    return couple.element(f0[0], f), couple.element(f1[0], f)


def k_truncation_oracle(f, t):
    """Independent K oracle for l1_linf by scanning truncation heights.

    The optimal cost c -> sum (v_i - c)_+ m_i + t c is piecewise linear in c
    with kinks only at atom values and 0, so scanning those candidates is
    exact. Returns (k_value, best_level) with the smallest optimal level.
    """
    t = _checked_t(t)
    candidates = np.unique(np.concatenate([[0.0], f.values]))
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
    lower: float


# points per round of the bracket scan: 16 intervals, so that the two
# neighbours of the best point span 1/8 of the bracket
_SCAN = np.arange(17) / 16.0
# by best point, the first point of the next bracket, kept inside the scan
_LEFT = np.clip(np.arange(17), 1, 15) - 1
# width of a warm bracket in units of xatol: its two rounds end at a
# spacing of at most xatol, as a scan of the whole box does
_WARM = 128.0


def _bracket_scan(line, starts, width, lo, hi, xatol):
    """Minimize convex functions on the brackets [s, s + width], one per
    start s, inside the box [lo, hi]; (x, value, escaped) arrays.

    line maps an (rows, 17) array of points to their values, row by row.
    Each round evaluates 17 evenly spaced points of every row's bracket in
    that one call; the next bracket is the two neighbours of the best
    point, 1/8 as wide. On a convex function the minimizer over the box
    lies between the neighbours of the first round's best point, unless
    that point is an end of the bracket strictly inside the box: such a
    row has escaped, and only over its bracket is its result a minimum.
    Otherwise, once the spacing is at most xatol, the best point is within
    xatol of the minimizer over the box. The number of rounds depends only
    on width and xatol, and a scan of the whole box (starts lo, width
    hi - lo) never escapes.
    """
    start = np.asarray(starts, dtype=float)
    pick = np.arange(len(start))
    escaped = None
    while True:
        xs = start[:, None] + width * _SCAN
        values = line(xs)
        best = values.argmin(axis=1)
        if escaped is None:
            escaped = (((best == 0) & (start > lo))
                       | ((best == 16) & (hi - start > width)))
        if width / 16.0 <= xatol:
            return xs[pick, best], values[pick, best], escaped
        start = xs[pick, _LEFT[best]]
        width /= 8.0


def k_brute_force(couple, t, f, *, resolution=1e-8, n_random_starts=8,
                  rng=None, return_details=False):
    """Direct minimization of g -> norm0(g) + t norm1(f - g) over R^n.

    Multistart coordinate descent over the box [0 ^ f] (optimal for
    absolute monotone norms), padded slightly. The starts run in lockstep:
    each coordinate update is a bracket scan (see _bracket_scan) of every
    active start at once, in calls of the couple's cost_many. The first
    sweep scans the whole box; later sweeps scan a bracket 128 xatol wide
    around each start's current coordinate, and rescan the whole box for
    the starts that escape it. A line search depends only on the start's
    other coordinates and its bracket, so starts that agree on both, bit
    for bit, share one search; since a batch norm of a row equals that
    row's norm alone, every start's path is the same as if it ran alone.
    Convexity makes each line search exact up to tolerance, but the
    restarts do not prevent a stall: where an l-inf maximum ties two
    coordinates, every start can stop above the minimum (see the module
    docstring), so the value is an upper bound for K. A start stops after
    two sweeps in a row that improve it by at most resolution (relatively),
    after a sweep that moves none of its coordinates, bit for bit, or after
    80 sweeps. After a warm sweep that stop is exact: the next sweep would
    repeat it, with the same brackets, points and values. After the cold
    first sweep it is not: every coordinate already beats its scan of the
    whole box, but the warm sweep skipped may still move the start
    slightly, and the value in its last bit. All starts stop at once when
    best - lower <= resolution best, lower the largest couple.dual_lower on
    the starts and after each sweep on the active starts; -inf, no bound,
    leaves every path and bit as it is. evaluations counts the objective's
    rows: every start once, then the trial points of each distinct search.
    The budget of 100,000 evaluations applies to that count, is shared by
    the starts, and a breach is reported as cap_hit, not hidden. resolution
    must lie in (0, 1) and f be a finite vector of the couple's dimension.
    """
    if not 0.0 < resolution < 1.0:
        raise ConfigError("resolution must be a number in (0, 1)")
    t = _checked_t(t)
    if not couple.is_vector_couple:
        raise ConfigError("brute-force K needs a finite-dimensional couple")
    f = couple.checked(f)
    n = len(f)
    if n > 6:
        raise CapacityError(f"brute-force K supports dimension <= 6, got {n}")
    if rng is None:
        rng = np.random.default_rng(0)

    if not np.any(f != 0.0):
        result = BruteForceResult(0.0, np.zeros(n), 1, False, -math.inf)
        return result if return_details else result.value

    scale = float(np.max(np.abs(f)))
    pad = 1e-3 * scale
    lo = np.minimum(0.0, f) - pad
    hi = np.maximum(0.0, f) + pad
    xatol = max(resolution * scale * 1e-1, 1e-14)
    warm = _WARM * xatol

    randoms = rng.uniform(lo, hi, (n_random_starts, n))
    g = np.clip(np.vstack([f, np.zeros(n), 0.5 * f, randoms]), lo, hi)

    evals = 0

    def objective(G):
        nonlocal evals
        evals += len(G)
        return couple.cost_many(G, f, t)

    def scan(rows, k, left, width):
        # rows that agree, bit for bit, on the other coordinates and the
        # bracket start share one search
        keys = g[rows]
        keys[:, k] = left
        buf, size = keys.tobytes(), keys[0].nbytes
        slots, distinct, search = {}, [], []
        for pos in range(len(keys)):
            key = buf[pos * size:(pos + 1) * size]
            if key not in slots:
                slots[key] = len(distinct)
                distinct.append(pos)
            search.append(slots[key])
        # column-major trial points: a row sum over n <= 6 coordinates is
        # then n column adds, in the same order as along a row
        trial = np.repeat(keys[distinct].T, len(_SCAN), axis=1)

        def line(xs):
            trial[k] = xs.ravel()
            return objective(trial.T).reshape(xs.shape)

        x, fx, escaped = _bracket_scan(line, left[distinct], width,
                                       lo[k], hi[k], xatol)
        return x[search], fx[search], escaped[search]

    value = objective(g)
    lower = couple.dual_lower(t, f, g)
    active = np.arange(len(g))
    stalls = np.zeros(len(g), dtype=int)
    cap_hit = False
    for sweep in range(80):
        if value.min() - lower <= resolution * value.min():
            break
        if evals > 100_000:
            cap_hit = True
            break
        prev = value[active]
        before = g[active]
        for k in range(n):
            box = hi[k] - lo[k]
            if sweep and warm < box:
                # a warm bracket centred on the current value, inside the box
                left = np.clip(g[active, k] - 0.5 * warm, lo[k], hi[k] - warm)
                x, fx, escaped = scan(active, k, left, warm)
                if escaped.any():
                    out = active[escaped]
                    x[escaped], fx[escaped], _ = scan(
                        out, k, np.full(len(out), lo[k]), box)
            else:
                x, fx, _ = scan(active, k, np.full(len(active), lo[k]), box)
            better = fx <= value[active]
            g[active[better], k] = x[better]
            value[active[better]] = fx[better]
        lower = max(lower, couple.dual_lower(t, f, g[active]))
        now = value[active]
        stalled = prev - now <= resolution * np.maximum(np.abs(now), 1e-300)
        stalls[active] = np.where(stalled, stalls[active] + 1, 0)
        # a sweep that moved no coordinate, bit for bit, is the second stall
        still = (g[active].view(np.int64) == before.view(np.int64)).all(axis=1)
        stalls[active[still]] = 2
        active = active[stalls[active] < 2]
        if not len(active):
            break

    best = int(np.argmin(value))
    result = BruteForceResult(float(value[best]), g[best].copy(), evals, cap_hit, lower)
    return result if return_details else result.value


def j_functional(couple, t, f):
    """J(t, f) = max(norm0(f), t norm1(f)) for f in the intersection; the
    norms check f."""
    t = _checked_t(t)
    return max(couple.norm0(f), t * couple.norm1(f))


@dataclass(frozen=True)
class KJInequalityReport:
    k_s: float
    k_t: float
    j_s: float
    j_t: float
    worst_margin: float
    passed: bool


def kj_inequality_check(couple, f, s, t):
    """Monotonicity and comparison inequalities between K and J at s and t.

    Checks, with relative slack 1e-9: K(t) <= max(1, t/s) K(s) and the reverse
    ordering, the same for J, and K(t) <= min(1, t/s) J(s) in both
    orderings. worst_margin is the smallest normalized slack margin.
    """
    s = _checked_t(s)
    t = _checked_t(t)
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
    margins = [(bound * (1.0 + 1e-9) - value) / max(bound, 1e-300)
               for bound, value in pairs]
    worst = min(margins)
    return KJInequalityReport(k_s, k_t, j_s, j_t, worst, worst >= 0.0)

