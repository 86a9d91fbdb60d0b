"""Variable-exponent Lebesgue norms on the multiplicative half-line.

Functions live on (0, oo) with the Haar measure dt/t and are represented by
samples on a dyadic log-uniform grid. The modular of a nonnegative sampled
function phi is the midpoint rule in u = ln t:

    rho(phi) = sum_i phi(t_i)^{q(t_i)} * du,        t_i = exp(u_i),

and the norm is the Luxemburg functional

    ||phi|| = inf { lam > 0 : rho(phi / lam) <= 1 }.

Where the exponent takes one value q on the grid, rho(phi / lam) =
rho(phi) / lam^q, so the norm is rho(phi)^{1/q} and is computed directly.
Otherwise it is solved by bracketing and bisection, with the bracket
narrowed first. The same solver is reused by other modules through
luxemburg_from_modular, which accepts any decreasing modular callable.

The module also provides the discrete two-sided weighted norm

    ||alpha|| = (sum_{v<=0} 2^{-v th q0} alpha_v^{q0})^{1/q0}
              + (sum_{v>=1} 2^{-v th qi} alpha_v^{qi})^{1/qi}

used by the discrete interpolation functionals.
"""

from __future__ import annotations

import json
import math
import sys
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
    "luxemburg_from_modular",
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


def _narrow_bracket(rho, a, b, rho_a, rho_b, *, steps=8, width=2e-13):
    """Shrink a bracket rho(a) > 1 >= rho(b) of a decreasing modular.

    Takes secant steps on log rho against log lam through the last two
    evaluations; they are exact when rho is a power of lam (constant
    exponent) and converge fast when log rho is convex in log lam (variable
    exponent). A step outside the bracket becomes a bisection step, and a
    step shorter than `width` (relative) is lengthened to `width`, so once
    the secant has found the root the next evaluation lands on its other
    side. Stops once the bracket is narrower than `width` relative to b.
    """
    last = [(a, rho_a), (b, rho_b)]
    for _ in range(steps):
        if b - a <= width * b:
            break
        (x0, r0), (x1, r1) = last
        x = math.nan
        if 0.0 < min(r0, r1) and max(r0, r1) < math.inf and r0 != r1:
            g0, g1 = math.log(r0), math.log(r1)
            x = x1 * (x1 / x0) ** (-g1 / (g1 - g0))
            if abs(x - x1) < width * x1:
                x = x1 * (1.0 - width) if r1 <= 1.0 else x1 * (1.0 + width)
        if not a < x < b:
            x = 0.5 * (a + b)
        r = rho(x)
        if r <= 1.0:
            b = x
        else:
            a = x
        last = [(x1, r1), (x, r)]
    return a, b


def luxemburg_from_modular(rho):
    """Solve inf { lam : rho(lam) <= 1 } for a decreasing modular rho(lam).

    Brackets by doubling or halving from lam = 1, then bisects, at most 60
    steps. The returned value is the safe (upper) end of the final bracket,
    with relative width well below 1e-10. Before the bisection,
    _narrow_bracket finds a much narrower bracket [a, b] around the root in
    a few evaluations; a decreasing rho already decides every midpoint
    outside (a, b), so the bisection evaluates rho only inside it. Its path,
    and so the returned value, is that of the plain bisection whenever the
    computed rho is monotone.
    """
    lam = 1.0
    value = rho(lam)
    if math.isnan(value):
        raise DivergenceError("modular returned an invalid value")
    if value <= 1.0:
        lo = None
        for _ in range(1200):
            lam *= 0.5
            if lam < 1e-300:
                return 0.0
            prev, value = value, rho(lam)
            if value > 1.0:
                lo, hi, rho_lo, rho_hi = lam, lam * 2.0, value, prev
                break
        if lo is None:
            return 0.0
    else:
        hi = None
        for _ in range(1200):
            lam *= 2.0
            if lam > 1e300:
                raise DivergenceError("modular does not drop below 1 at any scale")
            prev, value = value, rho(lam)
            if value <= 1.0:
                lo, hi, rho_lo, rho_hi = lam * 0.5, lam, prev, value
                break
        if hi is None:
            raise DivergenceError("modular does not drop below 1 at any scale")
    a, b = _narrow_bracket(rho, lo, hi, rho_lo, rho_hi)
    for _ in range(60):
        if hi - lo <= 1e-12 * hi:
            break
        mid = 0.5 * (lo + hi)
        if mid >= b or (mid > a and rho(mid) <= 1.0):
            hi = mid
        else:
            lo = mid
    return hi


# luxemburg_from_modular doubles or halves lam from 1 and gives up past 1e300
# and below 1e-300, that is beyond the powers of two 2^996 and 2^-996; the
# closed form keeps the same two ends
_NORM_MAX = 2.0 ** 996
_NORM_MIN = 2.0 ** -996


def _constant_exponent_norm(values, q, du):
    """rho(phi)^{1/q} for a constant exponent q, or None if rho underflows.

    phi is first scaled by 2^-e, where max phi = m 2^e with 1/2 <= m < 1.
    That is exact, keeps every power phi_i^q <= 1, and makes the result
    scale exactly with phi by powers of two. The sum underflows only for q
    beyond about 1000.
    """
    e = math.frexp(float(values.max()))[1]
    total = float((np.ldexp(values, -e) ** q).sum() * du)
    if not total >= sys.float_info.min:
        return None
    try:
        norm = math.ldexp(total ** (1.0 / q), e)
    except OverflowError:
        norm = math.inf
    if norm > _NORM_MAX:
        raise DivergenceError("Luxemburg norm exceeds 1e300")
    return norm if norm > _NORM_MIN else 0.0


def luxemburg_norm(phi, q):
    """Luxemburg norm of a sampled function for exponent q.

    If q takes a single value on the grid the norm is rho(phi)^{1/q},
    computed in closed form; otherwise luxemburg_from_modular solves for
    it. Both raise DivergenceError for a norm above about 1e300 and return
    0.0 for one below about 1e-300.
    """
    values = phi.values
    if not (values > 0.0).any():
        return 0.0
    q_values = _exponent_values(q, phi.grid)
    du = phi.grid.du
    if (q_values == q_values[0]).all():
        norm = _constant_exponent_norm(values, float(q_values[0]), du)
        if norm is not None:
            return norm

    def rho(lam):
        return float(((values / lam) ** q_values).sum() * du)

    with np.errstate(over="ignore"):
        return luxemburg_from_modular(rho)


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
    """Check min/max of rho^{1/q-}, rho^{1/q+} bracket the norm."""
    rho = modular(phi, q)
    norm = luxemburg_norm(phi, q)
    q_minus, q_plus = essential_bounds(q, phi.grid)
    if rho == 0.0:
        lower = upper = 0.0
    else:
        a = rho ** (1.0 / q_minus)
        b = rho ** (1.0 / q_plus)
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
