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
sandwich at its iterate is narrow, which for a constant exponent is at its
first evaluation, with rho^{1/q}. It also takes a (B, m) array of bases
and solves the B rows together, each row stopping on its own; a row's
norm is the same, bit for bit, as when it is solved alone, so a 1-D call
is the case B = 1.

The module also provides the discrete two-sided weighted norm

    ||alpha|| = (sum_{v<=0} 2^{-v th q0} alpha_v^{q0})^{1/q0}
              + (sum_{v>=1} 2^{-v th qi} alpha_v^{qi})^{1/qi}

used by the discrete interpolation functionals.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DivergenceError, DomainError, GridMismatchError
from .exponents import ExponentFunction, essential_bounds

__all__ = [
    "HaarGrid",
    "SampledFunction",
    "TwoSidedSequence",
    "LambdaNormParams",
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


@dataclass(frozen=True)
class HaarGrid:
    """Log-uniform midpoint grid on [2^-V, 2^V].

    The interval splits into 2 * V * samples_per_octave cells of log-width
    du = ln 2 / samples_per_octave; nodes sit at cell midpoints in u = ln t.
    Extending V with the same samples_per_octave keeps existing nodes, so
    V-refinement produces nested grids (density refinement does not).
    """

    V: int
    samples_per_octave: int = 32

    def __post_init__(self):
        if self.V < 1 or self.samples_per_octave < 1:
            raise ConfigError("HaarGrid needs V >= 1 and samples_per_octave >= 1")

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

    def refined(self, spo_factor=1, V=None):
        return HaarGrid(self.V if V is None else V,
                        self.samples_per_octave * spo_factor)

    def to_json(self):
        return json.dumps({"V": self.V, "samples_per_octave": self.samples_per_octave})

    @classmethod
    def from_json(cls, text):
        data = json.loads(text) if isinstance(text, str) else text
        try:
            return cls(int(data["V"]), int(data["samples_per_octave"]))
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed grid JSON: {exc}") from exc


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

    def to_json(self):
        return json.dumps({
            "grid": {"V": self.grid.V,
                     "samples_per_octave": self.grid.samples_per_octave},
            "values": self.values.tolist(),
        })

    @classmethod
    def from_json(cls, text):
        data = json.loads(text) if isinstance(text, str) else text
        try:
            grid = HaarGrid(int(data["grid"]["V"]),
                            int(data["grid"]["samples_per_octave"]))
            return cls(grid, np.asarray(data["values"], dtype=float))
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed sampled-function JSON: {exc}") from exc


def _exponent_values(q, grid):
    """q at the grid nodes. An ExponentFunction is evaluated once per grid
    and is valid by construction; a plain callable is evaluated and checked
    on every call."""
    if isinstance(q, ExponentFunction):
        return q.on_grid(grid)
    values = np.asarray(q(grid.nodes), dtype=float)
    if (values < 1.0).any() or not np.isfinite(values).all():
        raise ConfigError("exponent must be finite and >= 1 on the grid")
    return values


def modular(phi, q):
    """Midpoint-rule modular rho(phi) = sum phi^q du over the grid."""
    q_values = _exponent_values(q, phi.grid)
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


def _modular_terms(c, q, lam):
    """The terms (c_i / lam)^{q_i} of a modular, one row per row of c; lam
    is a column of scales, or the scalar 1.0 at the solver's first step."""
    if np.isscalar(lam):
        # each term is at most its weight w_i, so none overflows and the
        # error state (about 2.5 us to enter) is not needed
        return c ** q
    with np.errstate(over="ignore"):
        return (c / lam) ** q


def _log_step(c, q, lam):
    """Newton steps on g(s) = log rho(e^s) at lam, for rows whose modular
    leaves the float range: log rho by log-sum-exp of q_i log(c_i / lam)."""
    with np.errstate(divide="ignore"):
        z = q * np.log(c / lam[:, None])
    top = z.max(axis=1)
    ez = np.exp(z - top[:, None])
    total = ez.sum(axis=1)
    qbar = (q * ez).sum(axis=1) / total
    return lam * np.exp((top + np.log(total)) / qbar)


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
    its upper end; for a constant exponent that is rho(1)^{1/q}. Where rho
    leaves [2^-960, 2^960] the step takes log rho by log-sum-exp, so it is
    a Newton step there too.

    Raises DivergenceError for a norm above 2^996, or after 100 steps
    without convergence; returns 0.0 for a norm at or below 2^-996.
    """
    b = np.asarray(bases, dtype=float)
    rows = b.reshape(1, -1) if b.ndim < 2 else b
    norms = [0.0] * len(rows)
    tops = rows.max(axis=1).tolist() if rows.shape[1] else norms
    live = [i for i, top in enumerate(tops) if top > 0.0]
    if live:
        solved = _solve(rows if len(live) == len(rows) else rows[live],
                        [tops[i] for i in live], exponents, weights)
        for i, norm in zip(live, solved):
            norms[i] = norm
    return norms[0] if b.ndim < 2 else np.array(norms)


def _solve(b, tops, exponents, weights):
    """weighted_power_norm of the rows of b, whose maxima tops are > 0.

    The arrays hold the rows; the per-row steps run on Python floats, whose
    pow is the C library's (numpy's vectorized power differs from it in the
    last bit for a few percent of arguments), so a row's result does not
    depend on the rows that share the call."""
    q = np.asarray(exponents, dtype=float)
    q_minus, q_plus = float(q.min()), float(q.max())
    if q_minus == q_plus:
        # a scalar exponent takes numpy's fast paths, such as x * x for q = 2
        q = q_minus
    up, down = 1.0 / q_plus, 1.0 / q_minus
    e = [math.frexp(top)[1] for top in tops]
    c = np.ldexp(b, np.array([[-x] for x in e])) * weights ** (1.0 / q)
    norms = [0.0] * len(c)
    rows = list(range(len(c)))
    lam = [1.0] * len(c)
    for step in range(100):
        terms = _modular_terms(c, q, 1.0 if step == 0 else np.array(lam)[:, None])
        rho = terms.sum(axis=1).tolist()
        newton, out = [], []
        for j, (r, l) in enumerate(zip(rho, lam)):
            if not _RHO_MIN <= r <= _RHO_MAX:
                out.append(j)
                continue
            lo = l * r ** up
            hi = lo if up == down else l * r ** down
            if hi < lo:
                lo, hi = hi, lo
            if hi - lo > 1e-12 * lo:
                newton.append(j)
                continue
            try:
                norm = math.ldexp(hi, e[rows[j]])
            except OverflowError:
                norm = math.inf
            if norm > _NORM_MAX:
                raise DivergenceError("Luxemburg norm exceeds 1e300")
            norms[rows[j]] = norm if norm > _NORM_MIN else 0.0
        if newton:
            moved = terms if len(newton) == len(rho) else terms[newton]
            slopes = (q * moved).sum(axis=1).tolist()
            for j, slope in zip(newton, slopes):
                lam[j] *= rho[j] ** (rho[j] / slope)
        if out:
            stepped = _log_step(c[out], q, np.array([lam[j] for j in out]))
            for j, l in zip(out, stepped.tolist()):
                lam[j] = l
        keep = sorted(newton + out)
        if not keep:
            return norms
        if len(keep) < len(rows):
            c = c[keep]
            rows = [rows[j] for j in keep]
            lam = [lam[j] for j in keep]
    raise DivergenceError("Luxemburg solver did not converge")


def luxemburg_norm(phi, q):
    """Luxemburg norm of a sampled function for exponent q.

    The modular at scale lam is sum du (phi_i / lam)^{q_i}, so this is
    weighted_power_norm of the samples, the exponent on the grid and du. It
    raises DivergenceError for a norm above about 1e300 and returns 0.0 for
    one below about 1e-300.
    """
    return weighted_power_norm(phi.values, _exponent_values(q, phi.grid),
                               phi.grid.du)


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
    q_minus, q_plus = essential_bounds(q, phi.grid)
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


@dataclass(frozen=True)
class TwoSidedSequence:
    """Nonnegative sequence alpha_v indexed by v = -V .. V."""

    V: int
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if self.V < 1:
            raise ConfigError("TwoSidedSequence needs V >= 1")
        if values.shape != (2 * self.V + 1,):
            raise GridMismatchError(
                f"expected {2 * self.V + 1} entries for V={self.V}, got {values.shape}")
        if np.any(values < 0.0) or not np.all(np.isfinite(values)):
            raise ConfigError("sequence entries must be finite and nonnegative")

    @property
    def indices(self):
        return np.arange(-self.V, self.V + 1)

    def value_at(self, v):
        if not -self.V <= v <= self.V:
            raise DomainError(f"index {v} outside [-{self.V}, {self.V}]")
        return float(self.values[v + self.V])


@dataclass(frozen=True)
class LambdaNormParams:
    theta: float
    q_zero: float
    q_infinity: float

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ConfigError("theta must lie in (0, 1)")
        if self.q_zero < 1.0 or self.q_infinity < 1.0:
            raise ConfigError("q_zero and q_infinity must be >= 1")
        if not (math.isfinite(self.q_zero) and math.isfinite(self.q_infinity)):
            raise ConfigError("q_zero and q_infinity must be finite")


def lambda_norm(alpha, params):
    """Two-sided discrete norm with weights 2^{-v theta q} split at v = 0.

    Indices v <= 0 use exponent q_zero, indices v >= 1 use q_infinity; the
    result is the sum of the two block norms.
    """
    v = alpha.indices
    a = alpha.values
    th = params.theta
    lower = v <= 0
    upper = ~lower
    with np.errstate(over="ignore"):
        s0 = float(np.sum(2.0 ** (-v[lower] * th * params.q_zero)
                          * a[lower] ** params.q_zero))
        s1 = float(np.sum(2.0 ** (-v[upper] * th * params.q_infinity)
                          * a[upper] ** params.q_infinity))
    if not (math.isfinite(s0) and math.isfinite(s1)):
        raise DivergenceError("discrete modular overflowed")
    return s0 ** (1.0 / params.q_zero) + s1 ** (1.0 / params.q_infinity)
