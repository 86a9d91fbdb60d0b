"""Variable-exponent Lebesgue norms on the multiplicative half-line.

Functions live on (0, oo) with the Haar measure dt/t and are represented by
samples on a dyadic log-uniform grid. The modular of a nonnegative sampled
function phi is the midpoint rule in u = ln t:

    rho(phi) = sum_i phi(t_i)^{q(t_i)} * du,        t_i = exp(u_i),

and the norm is the Luxemburg functional

    ||phi|| = inf { lam > 0 : rho(phi / lam) <= 1 }.

Every norm here, and the variable Lorentz norms of rearrange.py, has a
modular of the form rho(lam) = sum_i w_i (b_i / lam)^{q_i}; one solver,
weighted_power_norm, finds inf { lam : rho(lam) <= 1 } for all of them. It
takes Newton steps on log rho against log lam and stops once the modular
sandwich at its iterate is narrow; a row whose rho leaves [2^-960, 2^960]
takes the same steps in log space. It solves the B rows of a (B, m) array
of bases together, each stopping on its own and equal, bit for bit, to
its norm alone (a 1-D call is B = 1). A constant exponent's sandwich is
the point rho^{1/q}, so it finishes after the modular at lam = 1. Only
each row's root, stop test and step run in Python, with the C library's
pow; all else is on arrays.

The module also provides lambda_norm(values, theta, q0, qi), the discrete
two-sided weighted norm of a plain array alpha_{-V}, ..., alpha_V,

    ||alpha|| = (sum_{v<=0} 2^{-v th q0} alpha_v^{q0})^{1/q0}
              + (sum_{v>=1} 2^{-v th qi} alpha_v^{qi})^{1/qi}

used by the discrete interpolation functionals. It and the dyadic Lorentz
norm of rearrange.py are one two-block norm with different weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DivergenceError, GridMismatchError

__all__ = [
    "DEFAULT_GRID",
    "HaarGrid",
    "SampledFunction",
    "modular",
    "luxemburg_norm",
    "weighted_power_norm",
    "unit_ball_check",
    "modular_norm_sandwich",
    "lambda_norm",
    "UnitBallReport",
    "SandwichReport",
]

LN2 = math.log(2.0)


def _is_integer(value):
    """True for a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class HaarGrid:
    """Log-uniform midpoint grid on [2^-V, 2^V].

    The interval splits into 2 * V * samples_per_octave cells of log-width
    du = ln 2 / samples_per_octave; nodes sit at cell midpoints in u = ln t.
    Extending V with the same samples_per_octave keeps existing nodes, so
    V-refinement produces nested grids (density refinement does not).
    """

    V: int
    samples_per_octave: int

    def __post_init__(self):
        if not all(_is_integer(n) and n >= 1
                   for n in (self.V, self.samples_per_octave)):
            raise ConfigError(
                f"HaarGrid needs integers V, samples_per_octave >= 1: {self}")

    @property
    def du(self):
        return LN2 / self.samples_per_octave

    @property
    def node_count(self):
        return 2 * self.V * self.samples_per_octave

    @property
    def t_min(self):
        return 2.0 ** (-self.V)

    @property
    def t_max(self):
        return 2.0 ** self.V

    @cached_property
    def log_nodes(self):
        i = np.arange(self.node_count)
        u = -self.V * LN2 + (i + 0.5) * self.du
        u.flags.writeable = False
        return u

    @cached_property
    def nodes(self):
        t = np.exp(self.log_nodes)
        t.flags.writeable = False
        return t

    def refined(self):
        """The grid with twice the samples per octave on the same range."""
        return HaarGrid(self.V, 2 * self.samples_per_octave)


# the grid of the suite, the CLI and the reiteration check's direct norm
DEFAULT_GRID = HaarGrid(16, 32)


@dataclass(frozen=True)
class SampledFunction:
    """Nonnegative function sampled at the nodes of a HaarGrid."""

    grid: HaarGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.node_count,):
            raise GridMismatchError(
                f"expected {self.grid.node_count} samples, got {values.shape}")
        if not np.isfinite(values).all():
            raise ConfigError("samples must be finite")
        if (values < 0.0).any():
            raise ConfigError("samples must be nonnegative")

    @classmethod
    def from_callable(cls, grid, fn):
        return cls(grid, np.asarray(fn(grid.nodes), dtype=float))

    def scaled(self, c):
        if c < 0:
            raise ConfigError("scale factor must be nonnegative")
        return SampledFunction(self.grid, self.values * c)


def modular(phi, q):
    """Midpoint-rule modular rho(phi) = sum phi^q du over the grid."""
    q_values = q.on_grid(phi.grid)
    with np.errstate(over="ignore"):
        total = float(np.sum(np.power(phi.values, q_values)) * phi.grid.du)
    return total


# the norm's two ends: DivergenceError above 2^996, 0.0 at or below 2^-996
_NORM_MAX = 2.0 ** 996
_NORM_MIN = 2.0 ** -996
# where rho lies in [2^-960, 2^960] it is exact up to rounding, and no
# sum of q_i * term_i overflows
_RHO_MIN = 2.0 ** -960
_RHO_MAX = 2.0 ** 960
# a row stops once its modular sandwich [lo, hi] is narrower than this:
# hi - lo <= _STOP * lo, or log(hi / lo) <= _STOP in log space
_STOP = 1e-12


def _modular_terms(c, q, lam):
    """The terms (c_i / lam)^{q_i} of a modular, one row per row of c; lam
    is a column of scales, or the scalar 1.0 at the solver's first step."""
    return c ** q if np.isscalar(lam) else (c / lam) ** q


def weighted_power_norm(bases, exponents, weights):
    """inf { lam > 0 : sum_i w_i (b_i / lam)^{q_i} <= 1 }.

    Bases b_i >= 0, exponents q_i >= 1 and weights w_i > 0; exponents and
    weights may be scalars. Bases of shape (m,) give a float; bases of
    shape (B, m) give the B norms of the rows, which share the exponents and
    weights and each equal the norm of that row alone, bit for bit. Each
    row is scaled by 2^-e, where its max b = m 2^e with 1/2 <= m < 1, so the
    result scales exactly with b by powers of two, and each weight goes
    into its base as w_i^{1/q_i}, so a term overflows or underflows only
    where its value does.

    At every lam the modular sandwich puts the norm between lam rho^{1/q+}
    and lam rho^{1/q-}. Newton steps on the convex, decreasing
    g(s) = log rho(e^s) from lam = 1 multiply lam by rho^{1/qbar}, with
    qbar = sum q_i term_i / rho in [q-, q+], so they stay inside it. A row
    stops once its sandwich is narrower than 1e-12 relative and returns
    its upper end. For a constant exponent the sandwich is the point
    rho(1)^{1/q}, so every row finishes after the modular at lam = 1. A row
    whose rho leaves [2^-960, 2^960], at lam = 1 or at a later step, is
    solved by the same steps in log space instead.

    Raises DivergenceError for a norm above 2^996, as from an infinite
    base or a positive base with an infinite weight (a zero base adds 0
    whatever its weight), and ConfigError for a nan base, exponent or
    weight; returns 0.0 for a norm at or below 2^-996. A solve that has not
    converged after 100 steps also raises DivergenceError.
    """
    b = np.asarray(bases, dtype=float)
    rows = b.reshape(1, -1) if b.ndim < 2 else b
    tops = rows.max(axis=1) if rows.shape[1] else np.zeros(len(rows))
    bounds = tops.tolist()
    least = min(bounds, default=0.0)
    total = sum(bounds)
    if not total < math.inf and math.inf in bounds:
        raise DivergenceError("Luxemburg norm exceeds 1e300")
    if math.isnan(total):
        raise ConfigError("Luxemburg bases must not be nan")
    if least > 0.0:
        norms = _solve(rows, tops, least, exponents, weights)
    else:
        # all-zero rows come back 0.0 without a step
        live = tops > 0.0
        norms = np.zeros(len(rows))
        if live.any():
            norms[live] = weighted_power_norm(rows[live], exponents, weights)
    return float(norms[0]) if b.ndim < 2 else norms


@np.errstate(over="ignore", invalid="ignore")
def _solve(b, tops, least, exponents, weights):
    """weighted_power_norm of the rows of b, as an array; tops holds the
    row maxima and least, their minimum, is > 0.

    The exponents of the maxima, the scaling by 2^-e and back and the
    modular at lam = 1 are array operations over the rows. A constant
    exponent with every rho(1) in range finishes there, each norm being
    rho(1)^{1/q}; otherwise each row's stop test and step run from the
    terms at lam = 1 on. Both take pow on Python floats, which is the C
    library's (numpy's vectorized power differs from it in the last bit for
    a few percent of arguments), so a row's result does not depend on the
    rows that share the call. A row whose rho leaves the float range goes
    to _log_space_norms."""
    q = np.asarray(exponents, dtype=float)
    q_minus, q_plus = ((float(q.min()), float(q.max())) if q.ndim
                       else (float(q),) * 2)
    if q_minus == q_plus:
        # a scalar exponent takes numpy's fast paths, such as x * x for q = 2
        q = q_minus
    up, down = 1.0 / q_plus, 1.0 / q_minus
    mantissas, e = np.frexp(tops)
    # 2^-e is m / top exactly, and a float unless top < 2^-1024
    c = (b * (mantissas / tops)[:, None] if least >= 2.0 ** -1024
         else np.ldexp(b, -e[:, None])) * weights ** (1.0 / q)
    terms = _modular_terms(c, q, 1.0)
    rho = terms.sum(axis=1).tolist()
    # unlike max, sum is nan where any rho is; a sum past 2^960 of rho in
    # range only sends them to the loop below, which gives the same bits
    if up == down and _RHO_MIN <= min(rho) and sum(rho) <= _RHO_MAX:
        # the sandwich of a constant exponent is the point rho(1)^{1/q}
        norms = np.ldexp([r ** up for r in rho], e)
    else:
        his = [0.0] * len(c)
        rows = list(range(len(c)))
        out = []
        lam = [1.0] * len(c)
        for step in range(100):
            if step:
                terms = _modular_terms(c, q, np.array(lam)[:, None])
                rho = terms.sum(axis=1).tolist()
            newton = []
            for j, (r, l) in enumerate(zip(rho, lam)):
                if not _RHO_MIN <= r <= _RHO_MAX:
                    out.append(rows[j])
                    continue
                lo = l * r ** up
                hi = lo if up == down else l * r ** down
                if hi < lo:
                    lo, hi = hi, lo
                if hi - lo > _STOP * lo:
                    newton.append(j)
                    continue
                his[rows[j]] = hi
            if not newton:
                break
            moved = terms if len(newton) == len(rho) else terms[newton]
            slopes = (q * moved).sum(axis=1).tolist()
            for j, slope in zip(newton, slopes):
                lam[j] *= rho[j] ** (rho[j] / slope)
            if len(newton) < len(rows):
                c = c[newton]
                rows = [rows[j] for j in newton]
                lam = [lam[j] for j in newton]
        else:
            raise DivergenceError("Luxemburg solver did not converge")
        norms = np.ldexp(his, e)
        if out:
            norms[out] = _log_space_norms(np.ldexp(b[out], -e[out, None]),
                                          e[out], q, weights, up, down)
    ends = norms.tolist()
    if max(ends) > _NORM_MAX:
        raise DivergenceError("Luxemburg norm exceeds 1e300")
    if min(ends) <= _NORM_MIN:
        norms[norms <= _NORM_MIN] = 0.0
    return norms


def _log_space_norms(scaled, e, q, weights, up, down):
    """Norms 2^e N of rows whose modular leaves the float range, where
    scaled holds a row times 2^-e and N is its norm: Newton steps on
    g(s) = log rho(e^s) = log sum_i exp(q_i (z_i - s)), z_i = log b_i +
    (log w_i) / q_i, from s = max z, where every term is at most 1, so
    g >= 0 and no step passes the root of the convex g. A row stops once
    g (1/q- - 1/q+) <= 1e-12 with s + g / q-; N = 2^k e^{s - k ln 2} may
    pass the float range, so 2^{k+e} scales it back in one step."""
    with np.errstate(divide="ignore", invalid="ignore"):
        folded = np.log(weights) / q
        # a zero base adds nothing, whatever its weight
        z = np.where(scaled > 0.0, np.log(scaled) + folded, -np.inf)
    if np.isnan(folded).any():
        raise ConfigError("Luxemburg weights and exponents must not be nan")
    if (z == np.inf).any():  # a positive base with an infinite weight
        raise DivergenceError("Luxemburg norm exceeds 1e300")
    # a row whose positive bases all weigh 0 steps with z = 0, then gets 0.0
    dead = z.max(axis=1) == -np.inf
    z[dead] = 0.0
    s = z.max(axis=1)
    for _ in range(100):
        terms = np.exp(q * (z - s[:, None]))
        total = terms.sum(axis=1)
        g = np.log(total)
        # a stopped row keeps its s, and so its g, while the others step
        stop = g * (down - up) <= _STOP
        if stop.all():
            logs = s + g * down
            k = np.floor(logs / LN2)
            return np.where(dead, 0.0, np.ldexp(np.exp(logs - k * LN2),
                                                k.astype(int) + e))
        s = np.where(stop, s, s + g * total / (q * terms).sum(axis=1))
    raise DivergenceError("Luxemburg solver did not converge")


def luxemburg_norm(phi, q):
    """Luxemburg norm of a sampled function for exponent q.

    The modular at scale lam is sum du (phi_i / lam)^{q_i}, so this is
    weighted_power_norm of the samples, the exponent on the grid and du; a
    constant exponent goes in as a scalar. It raises DivergenceError for a
    norm above about 1e300 and returns 0.0 for one below about 1e-300.
    """
    exponent = q.p_at_zero if q.is_constant else q.on_grid(phi.grid)
    return weighted_power_norm(phi.values, exponent, phi.grid.du)


@dataclass(frozen=True)
class UnitBallReport:
    norm: float
    modular_value: float
    consistent: bool


def unit_ball_check(phi, q):
    """Norm <= 1 iff modular <= 1, up to solver tolerance."""
    norm = luxemburg_norm(phi, q)
    rho = modular(phi, q)
    tol = 1e-8
    consistent = (norm <= 1.0 + tol) == (rho <= 1.0 + tol)
    return UnitBallReport(norm, rho, consistent)


@dataclass(frozen=True)
class SandwichReport:
    modular_value: float
    norm: float
    lower: float
    upper: float
    q_minus: float
    q_plus: float
    passed: bool


def modular_norm_sandwich(phi, q):
    """Check min/max of rho^{1/q-}, rho^{1/q+} bracket the norm.

    The bounds are those of phi 2^-e, where max phi = m 2^e with
    1/2 <= m < 1, scaled back by 2^e, so that they hold where the modular
    of phi itself underflows or overflows.
    """
    rho = modular(phi, q)
    norm = luxemburg_norm(phi, q)
    q_values = q.on_grid(phi.grid)
    q_minus, q_plus = float(np.min(q_values)), float(np.max(q_values))
    e = math.frexp(float(phi.values.max()))[1]
    scaled = modular(SampledFunction(phi.grid, np.ldexp(phi.values, -e)), q)
    if scaled == 0.0:
        lower = upper = 0.0
    else:
        a = math.ldexp(scaled ** (1.0 / q_minus), e)
        b = math.ldexp(scaled ** (1.0 / q_plus), e)
        lower, upper = min(a, b), max(a, b)
    slack = 1e-6
    passed = lower <= norm * (1.0 + slack) and norm <= upper * (1.0 + slack) + 1e-300
    return SandwichReport(rho, norm, lower, upper, q_minus, q_plus, passed)


# ---------------------------------------------------------------------------
# Discrete two-sided sequences
# ---------------------------------------------------------------------------


def _two_sided(values):
    """values as a float array alpha_v, v = -V..V, of length 2V + 1 >= 3,
    finite and nonnegative."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or len(values) < 3 or len(values) % 2 == 0:
        raise GridMismatchError(
            f"expected 2V + 1 >= 3 entries for v = -V..V, got {values.shape}")
    if np.any(values < 0.0) or not np.all(np.isfinite(values)):
        raise ConfigError("sequence entries must be finite and nonnegative")
    return values


def _two_block_norm(v, log_weights, a, q0, qi):
    """(sum_{v<=0} 2^{c_v} a_v^{q0})^{1/q0} + (sum_{v>=1} 2^{c_v} a_v^{qi})^{1/qi}
    over two-sided indices v, with log_weights holding the c_v; raises
    DivergenceError where a block's sum overflows."""
    lower = v <= 0
    upper = ~lower
    with np.errstate(over="ignore"):
        s0 = float(np.sum(2.0 ** log_weights[lower] * a[lower] ** q0))
        s1 = float(np.sum(2.0 ** log_weights[upper] * a[upper] ** qi))
    if not (math.isfinite(s0) and math.isfinite(s1)):
        raise DivergenceError("discrete modular overflowed")
    return s0 ** (1.0 / q0) + s1 ** (1.0 / qi)


def lambda_norm(values, theta, q_zero, q_infinity):
    """Two-sided discrete norm with weights 2^{-v theta q} split at v = 0.

    values holds alpha_{-V}, ..., alpha_V, so V comes from its length
    2V + 1. Indices v <= 0 use exponent q_zero, indices v >= 1 use
    q_infinity; the result is the sum of the two block norms.
    """
    alpha = _two_sided(values)
    if not 0.0 < theta < 1.0:
        raise ConfigError("theta must lie in (0, 1)")
    if not (1.0 <= q_zero < math.inf and 1.0 <= q_infinity < math.inf):
        raise ConfigError("q_zero and q_infinity must be finite and >= 1")
    v = np.arange(len(alpha)) - len(alpha) // 2
    return _two_block_norm(v, np.where(v <= 0, -v * theta * q_zero,
                                       -v * theta * q_infinity),
                           alpha, q_zero, q_infinity)
