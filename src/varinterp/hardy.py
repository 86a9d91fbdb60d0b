"""Hardy-type inequality checkers and the pointwise key estimate.

Three numerical checkers:

* discrete: delta_k = sum_j a^{|k-j|} eps_j satisfies
  ||delta||_q <= c ||eps||_q with c <= (1+a)/(1-a) for q >= 1;
* continuous: the averaging operators
  eta_t = t^s int_t^inf tau^{-s} eps dtau/tau and
  delta_t = t^{-s} int_0^t tau^s eps dtau/tau are bounded on L^{q(.)}(dt/t);
* key estimate: the pointwise inequality controlling a gamma-damped
  w-average of f by averages of f^{p} plus a decay term, with
  gamma = exp(-4 m c_log(1/p)).

Each checker returns a report with the measured constants; nothing is
asserted by raising, so callers decide the thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError
from .exponents import _log_holder_endpoints
from .varleb import SampledFunction, _two_sided, luxemburg_norm

__all__ = [
    "HardyInstance",
    "hardy_discrete_check",
    "HardyDiscreteReport",
    "hardy_continuous_check",
    "HardyContinuousReport",
    "key_estimate_check",
    "KeyEstimateReport",
]


@dataclass(frozen=True)
class HardyInstance:
    """Inputs of the discrete Hardy check: ratio a, exponent q > 0 (a
    number, possibly inf) and data epsilon, an array eps_{-V}, ..., eps_V of
    length 2V + 1 >= 3 with finite nonnegative entries."""

    a: float
    q: float
    epsilon: object

    def __post_init__(self):
        if not 0.0 < self.a < 1.0:
            raise ConfigError("the ratio a must lie in (0, 1)")
        if not self.q > 0.0:
            raise ConfigError("the exponent q must be positive")
        object.__setattr__(self, "epsilon", _two_sided(self.epsilon))


def _sequence_norm(x, q):
    x = np.abs(np.asarray(x, dtype=float))
    if math.isinf(q):
        return float(np.max(x)) if len(x) else 0.0
    return float(np.sum(x ** q) ** (1.0 / q))


@dataclass(frozen=True)
class HardyDiscreteReport:
    a: float
    q: float
    constant: float
    cap: float
    norm_eps: float
    norm_delta: float
    within_cap: bool


def hardy_discrete_check(instance):
    """Measure ||delta||_q / ||eps||_q for delta_k = sum_j a^{|k-j|} eps_j.

    Indices run over the truncated range of the sequence. For q >= 1 the
    constant is capped by (1+a)/(1-a); for 0 < q < 1 the q-subadditive
    analogue ((1+a^q)/(1-a^q))^{1/q} applies. within_cap compares against
    the applicable cap with a 1 percent margin.
    """
    a = instance.a
    q = float(instance.q)
    eps = instance.epsilon
    k = np.arange(len(eps))
    kernel = a ** np.abs(k[:, None] - k[None, :])
    delta = kernel @ eps
    norm_eps = _sequence_norm(eps, q)
    norm_delta = _sequence_norm(delta, q)
    constant = norm_delta / norm_eps if norm_eps > 0 else 0.0
    if q >= 1.0:
        cap = (1.0 + a) / (1.0 - a)
    else:
        cap = ((1.0 + a ** q) / (1.0 - a ** q)) ** (1.0 / q)
    within = constant <= cap * 1.01
    return HardyDiscreteReport(a, q, constant, cap, norm_eps, norm_delta, within)


@dataclass(frozen=True)
class HardyContinuousReport:
    s: float
    constant: float
    norm_eps: float
    norm_eta: float
    norm_delta: float


def hardy_continuous_check(s, q, epsilon):
    """Measure the constant of the two averaging operators on the grid.

    Inner integrals are cumulative midpoint sums in u = ln tau over the
    same grid, with the node's own cell contributing half its weight (the
    kernel is evaluated at the cell midpoint, where the running integral
    covers half the cell). Exact scaling in epsilon by construction.
    """
    if s <= 0:
        raise ConfigError("s must be positive")
    grid = epsilon.grid
    tau = grid.nodes
    du = grid.du
    values = epsilon.values

    up_terms = tau ** (-s) * values * du
    suffix = np.cumsum(up_terms[::-1])[::-1]
    eta = tau ** s * (suffix - 0.5 * up_terms)

    low_terms = tau ** s * values * du
    prefix = np.cumsum(low_terms)
    delta = tau ** (-s) * (prefix - 0.5 * low_terms)

    if not (np.all(np.isfinite(eta)) and np.all(np.isfinite(delta))):
        raise DivergenceError("Hardy kernel sums overflowed on the grid")

    norm_eps = luxemburg_norm(epsilon, q)
    norm_eta = luxemburg_norm(SampledFunction(grid, eta), q)
    norm_delta = luxemburg_norm(SampledFunction(grid, delta), q)
    constant = (norm_eta + norm_delta) / norm_eps if norm_eps > 0 else 0.0
    return HardyContinuousReport(s, constant, norm_eps, norm_eta, norm_delta)


@dataclass(frozen=True)
class KeyEstimateReport:
    variant: str
    accepted: bool
    gamma: float
    c_log_used: float
    w_measure: float
    worst_margin: float
    worst_node: float
    passed: bool


def key_estimate_check(p, interval, w, f, m, variant):
    """Pointwise key estimate on the nodes of Q = (a, b).

    The weight w and the function f are SampledFunctions on one grid, and
    w must be positive on Q. For every node x in Q, checks

        (gamma avg_w(|f|))^{p(x)} <= max(1, w(Q)^{1 - p(x)/p-}) avg_w(|f|^{p(y,0)})
                                     + omega(m, b) avg_w(g(x, .)),

    where avg_w is the w-average over Q against Lebesgue measure on the
    log grid (dy = y du), gamma = exp(-4 m c_log(1/p)) with the variant's
    log-Holder constant of 1/p, and (omega, p(y,0), g) per variant:

      local:       omega = min(b^m, 1), p(y,0) = p(y),
                   g = (e+1/x)^{-m} + (e+1/y)^{-m}
      at_zero:     omega = min(b^m, 1), p(y,0) = p(0),
                   g = (e+1/x)^{-m} when p(x) < p(0), else 0
      at_infinity: omega = 1, p(y,0) = p_inf,
                   g = (e+x)^{-m} when p(x) < p_inf, else 0

    Instances violating the normalization hypothesis (modular of f over Q
    at most 1, or sup |f| at most 1) are rejected via accepted=False rather
    than failed.
    """
    if variant not in ("local", "at_zero", "at_infinity"):
        raise ConfigError(f"unknown variant {variant!r}")
    a, b = float(interval[0]), float(interval[1])
    if not 0.0 < a < b < math.inf:
        raise ConfigError("Q must be an interval (a, b) with 0 < a < b < inf")
    if m <= 0:
        raise ConfigError("m must be positive")
    grid = f.grid
    nodes = grid.nodes
    mask = (nodes > a) & (nodes < b)
    if not np.any(mask):
        raise ConfigError("Q contains no grid nodes")
    y = nodes[mask]
    dy = y * grid.du
    f_y = f.values[mask]
    w_y = w.values[mask]
    if np.any(w_y <= 0):
        raise ConfigError("weight must be positive on Q")

    w_measure = float(np.sum(w_y * dy))
    p_y = np.asarray(p(y), dtype=float)
    p_zero = p.p_at_zero
    p_inf = p.p_at_infinity
    p_minus = float(np.min(p_y))

    f_modular = float(np.sum(f_y ** p_y * w_y * dy))
    accepted = f_modular <= 1.0 + 1e-12 or float(np.max(f_y)) <= 1.0 + 1e-12

    c_origin, c_infty = _log_holder_endpoints(
        1.0 / np.asarray(p(nodes), dtype=float), 1.0 / p_zero, 1.0 / p_inf, nodes)
    c_log = c_infty if variant == "at_infinity" else c_origin
    gamma = math.exp(-4.0 * m * c_log)

    avg_f = float(np.sum(f_y * w_y * dy)) / w_measure
    if variant == "local":
        p_ref = p_y
    elif variant == "at_zero":
        p_ref = p_zero
    else:
        p_ref = p_inf
    avg_f_pow = float(np.sum(f_y ** p_ref * w_y * dy)) / w_measure

    x = y
    p_x = p_y
    lhs = (gamma * avg_f) ** p_x
    first = np.maximum(1.0, w_measure ** (1.0 - p_x / p_minus)) * avg_f_pow
    if variant == "local":
        avg_g_y = float(np.sum((math.e + 1.0 / y) ** (-m) * w_y * dy)) / w_measure
        g_x = (math.e + 1.0 / x) ** (-m) + avg_g_y
        omega = min(b ** m, 1.0)
    elif variant == "at_zero":
        g_x = (math.e + 1.0 / x) ** (-m) * (p_x < p_zero)
        omega = min(b ** m, 1.0)
    else:
        g_x = (math.e + x) ** (-m) * (p_x < p_inf)
        omega = 1.0
    margins = first + omega * g_x - lhs
    worst = int(np.argmin(margins))
    worst_margin = float(margins[worst])
    passed = accepted and worst_margin >= -1e-12
    return KeyEstimateReport(variant, accepted, gamma, c_log, w_measure,
                             worst_margin, float(x[worst]), passed)
