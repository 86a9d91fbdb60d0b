"""Decreasing rearrangements of atomic functions and variable Lorentz norms.

An atomic function takes value v_i on a set of measure m_i (sets pairwise
disjoint, placement irrelevant for everything computed here). Its
distribution function and decreasing rearrangement

    m_f(lam) = sum_{v_i > lam} m_i,
    f*(t)    = sup { lam > 0 : m_f(lam) > t }        (right-continuous)

are exact piecewise-constant objects, which keeps every downstream quantity
an explicit finite computation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .varleb import _dyadic_indices, _two_block_norm, weighted_power_norm

__all__ = [
    "AtomFunction",
    "RearrangementProfile",
    "distribution_function",
    "rearrangement",
    "lorentz_norm",
    "lorentz_discrete_norm",
]


@dataclass(frozen=True)
class AtomFunction:
    """Nonnegative function given by atom values and their measures."""

    values: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        masses = np.asarray(self.masses, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "masses", masses)
        if values.shape != masses.shape or values.ndim != 1:
            raise ConfigError("values and masses must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(values)) and np.all(np.isfinite(masses))):
            raise ConfigError("atom values and masses must be finite")
        if np.any(values < 0.0):
            raise ConfigError("atom values must be nonnegative")
        if np.any(masses <= 0.0):
            raise ConfigError("atom masses must be positive")

    @property
    def total_l1(self):
        return float(np.dot(self.values, self.masses))

    @property
    def sup_value(self):
        return float(np.max(self.values)) if len(self.values) else 0.0

    def scaled(self, c):
        if c < 0:
            raise ConfigError("scale factor must be nonnegative")
        return AtomFunction(self.values * c, self.masses)


def distribution_function(f, lam):
    """Measure of { f > lam }; lam may be an array."""
    lam = np.asarray(lam, dtype=float)
    scalar = lam.ndim == 0
    lam = np.atleast_1d(lam)
    out = np.array([float(np.sum(f.masses[f.values > x])) for x in lam])
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class RearrangementProfile:
    """Piecewise-constant decreasing profile on [0, total_mass).

    breakpoints has length k + 1 starting at 0; levels has length k and is
    strictly decreasing. The profile takes levels[i] on
    [breakpoints[i], breakpoints[i+1]) and 0 beyond the last breakpoint,
    making it right-continuous everywhere.
    """

    breakpoints: np.ndarray
    levels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", np.asarray(self.breakpoints, dtype=float))
        object.__setattr__(self, "levels", np.asarray(self.levels, dtype=float))

    @property
    def total_mass(self):
        return float(self.breakpoints[-1]) if len(self.levels) else 0.0

    @property
    def l1(self):
        return float(np.dot(self.levels, np.diff(self.breakpoints)))

    def value_at(self, t):
        """Profile value f*(t) for t >= 0 (vectorized, right-continuous)."""
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        if np.any(t < 0.0):
            raise DomainError("rearrangement argument must be >= 0")
        out = np.zeros_like(t)
        if len(self.levels):
            idx = np.searchsorted(self.breakpoints, t, side="right") - 1
            inside = (idx >= 0) & (idx < len(self.levels))
            out[inside] = self.levels[idx[inside]]
        return float(out[0]) if scalar else out

    def integral_to(self, t):
        """Exact integral of the profile over (0, t); t may be an array."""
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        if np.any(t < 0.0):
            raise DomainError("integration endpoint must be >= 0")
        out = np.zeros_like(t)
        if len(self.levels):
            widths = np.diff(self.breakpoints)
            cum = np.concatenate([[0.0], np.cumsum(self.levels * widths)])
            idx = np.clip(np.searchsorted(self.breakpoints, t, side="right") - 1,
                          0, len(self.levels) - 1)
            out = cum[idx] + self.levels[idx] * np.clip(
                t - self.breakpoints[idx], 0.0, widths[idx])
            beyond = t >= self.breakpoints[-1]
            out[beyond] = cum[-1]
        return float(out[0]) if scalar else out


def rearrangement(f):
    """Decreasing rearrangement of an atomic function, exactly."""
    keep = f.values > 0.0
    values = f.values[keep]
    masses = f.masses[keep]
    if len(values) == 0:
        return RearrangementProfile(np.zeros(1), np.empty(0))
    levels, inverse = np.unique(values, return_inverse=True)
    merged = np.zeros(len(levels))
    np.add.at(merged, inverse, masses)
    levels = levels[::-1]
    merged = merged[::-1]
    breakpoints = np.concatenate([[0.0], np.cumsum(merged)])
    return RearrangementProfile(breakpoints, levels)


# ---------------------------------------------------------------------------
# Variable Lorentz norms
# ---------------------------------------------------------------------------


def _log_midpoints(bounds, du):
    """Midpoint nodes and log widths of the cells between adjacent bounds,
    each cut into the fewest equal pieces of log width at most du.

    The pieces are those of np.linspace(log lo, log hi, parts + 1) per cell,
    built for all cells at once with its float operations: edge k is
    k * ((log hi - log lo) / parts) + log lo, and the last edge is log hi.
    """
    lo = np.log(bounds[:-1])
    hi = np.log(bounds[1:])
    parts = np.maximum(1, np.ceil((hi - lo) / du - 1e-9)).astype(np.int64)
    cell = np.repeat(np.arange(len(parts)), parts)
    k = np.arange(len(cell)) - np.repeat(np.cumsum(parts) - parts, parts)
    step = ((hi - lo) / parts)[cell]
    left = k * step + lo[cell]
    right = np.where(k + 1 == parts[cell], hi[cell], (k + 1) * step + lo[cell])
    return np.exp(0.5 * (left + right)), right - left


def lorentz_norm(f, p, q, grid):
    """Variable Lorentz norm || t^{1/p(t) - 1/q(t)} f*(t) ||_{L^{q(.)}(dt)}.

    The Luxemburg inf over lam uses a modular assembled from the exact
    rearrangement profile: the quadrature partition is the union of grid
    cell boundaries and profile breakpoints (so f* is constant on every
    quadrature piece, with pieces subdivided to at most the grid's log
    width), plus a closed-form piece on (0, first boundary) where the
    integrand behaves like t^{q(0)/p(0) - 1}. With constant exponents the
    modular is then exact up to the midpoint rule on the power weight.
    """
    profile = rearrangement(f)
    if not len(profile.levels):
        return 0.0
    end = profile.total_mass

    cuts = np.concatenate([
        grid.t_min * 2.0 ** (np.arange(2 * grid.V * grid.samples_per_octave + 1)
                             / grid.samples_per_octave),
        profile.breakpoints[1:],
    ])
    cuts = np.unique(cuts[(cuts > 0.0) & (cuts < end)])
    bounds = np.concatenate([cuts, [end]])

    q_zero = q.p_at_zero
    p_zero = p.p_at_zero
    first = bounds[0]
    level_one = profile.levels[0]
    # closed form for int_0^first (t^{1/p0 - 1/q0} l1 / lam)^{q0} dt; keeping
    # the level inside the same power as lam makes scaling f by a power of
    # two scale the norm exactly
    stub_geom = first ** (q_zero / p_zero) * (p_zero / q_zero)

    t_nodes, widths = _log_midpoints(bounds, grid.du)
    levels = profile.value_at(t_nodes)
    p_vals = np.asarray(p(t_nodes), dtype=float)
    q_vals = np.asarray(q(t_nodes), dtype=float)
    base = t_nodes ** (1.0 / p_vals - 1.0 / q_vals) * levels
    return weighted_power_norm(np.append(base, level_one),
                               np.append(q_vals, q_zero),
                               np.append(t_nodes * widths, stub_geom))


def lorentz_discrete_norm(f, p, q, V):
    """Two-sided dyadic Lorentz norm from samples f*(2^v), v = -V .. V.

    The lower block (v <= 0) uses the limit exponents p(0), q(0) with
    weights 2^{v q(0)/p(0)}; the upper block (v >= 1) uses p_inf, q_inf with
    weights 2^{v q_inf/p_inf}. Blocks combine additively after taking roots.
    """
    v = _dyadic_indices(V)
    profile = rearrangement(f)
    fstar = profile.value_at(2.0 ** v.astype(float))
    q0, p0 = q.p_at_zero, p.p_at_zero
    qi, pi = q.p_at_infinity, p.p_at_infinity
    return _two_block_norm(v, np.where(v <= 0, v * q0 / p0, v * qi / pi),
                           fstar, q0, qi)
