"""Correctness checks of varinterp outputs against independent computations.

Each check is one operation with a status: "ok"; "wrong" when the program
returned a value that disagrees with the computation made here; "failed"
when the program raised or itself reported a failure. Expected values are
computed from the definitions, in plain Python where the program uses
NumPy, and never by calling the function under test a second way.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

REL_TOL = 1e-9
SPOT_CHECKS = 4  # random instances per kind in independent_checks


def _op(name, fn):
    try:
        return name, "ok" if fn() else "wrong"
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        return name, f"failed: {type(exc).__name__}: {exc}"


def _close(got, want, rel=REL_TOL):
    return math.isfinite(got) and abs(got - want) <= rel * abs(want)


def _own_luxemburg_constant_q(values, q, du):
    """(sum phi^q du)^{1/q}: the Luxemburg norm for a constant exponent."""
    return (math.fsum(float(v) ** q for v in values) * du) ** (1.0 / q)


def _own_weighted_k(w0, w1, t, f):
    return math.fsum(min(a, t * b) * abs(x) for a, b, x in zip(w0, w1, f))


def _own_holmstedt(values, masses, t):
    """K(t, f; L1, Linf) = integral of f* over (0, t), from sorted atoms."""
    total, left = [], t
    for v, m in sorted(zip(values, masses), key=lambda vm: -vm[0]):
        if left <= 0.0:
            break
        take = min(m, left)
        total.append(v * take)
        left -= take
    return math.fsum(total)


def _block(rng, n):
    values = np.zeros(n)
    width = int(rng.integers(n // 8, n // 2))
    start = int(rng.integers(0, n - width))
    values[start:start + width] = rng.uniform(0.1, 2.0, width)
    return values


def independent_checks(vi, rng):
    """Spot checks of norms and K-functionals on inputs drawn from rng.

    vi is the imported varinterp package. Returns a list of (name, status).
    """
    out = []
    grid = vi.HaarGrid(8, 8)
    du = math.log(2.0) / grid.samples_per_octave
    for _ in range(SPOT_CHECKS):
        values = _block(rng, grid.node_count)
        q = float(rng.uniform(1.2, 4.0))
        out.append(_op("luxemburg-constant-q", lambda: _close(
            vi.luxemburg_norm(vi.SampledFunction(grid, values),
                              vi.ExponentFunction.constant(q)),
            _own_luxemburg_constant_q(values, q, du))))

    for _ in range(SPOT_CHECKS):
        n = int(rng.integers(2, 6))
        w0 = 10.0 ** rng.uniform(-1.0, 1.0, n)
        w1 = 10.0 ** rng.uniform(-1.0, 1.0, n)
        f = rng.uniform(-2.0, 2.0, n)
        t = float(10.0 ** rng.uniform(-3.0, 3.0))
        out.append(_op("k-weighted-closed-form", lambda: _close(
            vi.k_functional(vi.Couple.weighted_seq(w0, w1), t, f),
            _own_weighted_k(w0, w1, t, f), 1e-12)))

    for _ in range(SPOT_CHECKS):
        n = int(rng.integers(1, 7))
        values = 10.0 ** rng.uniform(-1.0, 1.0, n)
        masses = 10.0 ** rng.uniform(-2.0, 2.0, n)
        t = float(10.0 ** rng.uniform(-2.0, 2.0))
        out.append(_op("k-l1-linf-holmstedt", lambda: _close(
            vi.k_functional(vi.Couple.l1_linf(), t,
                            vi.AtomFunction(values, masses)),
            _own_holmstedt(values, masses, t), 1e-12)))

    # C05: the unit indicator on (0, 1) has K-method norm sqrt(2) in
    # (L1, Linf)_{1/2, 2} and Lorentz norm 1 in L^{2,2}
    fine = vi.HaarGrid(16, 32)
    q2 = vi.ExponentFunction.constant(2.0)
    chi = vi.AtomFunction([1.0], [1.0])
    out.append(_op("indicator-k-norm", lambda: abs(
        vi.k_norm_continuous(vi.Couple.l1_linf(), chi,
                             vi.KMethodParams(0.5, q2, fine))
        - math.sqrt(2.0)) <= 1e-3))
    out.append(_op("indicator-lorentz-norm", lambda: abs(
        vi.lorentz_norm(chi, q2, q2, fine) - 1.0) <= 1e-3))

    # scaling by a power of two must scale both norms exactly
    shift = float(2.0 ** int(rng.integers(-6, 7)))
    q_var = vi.ExponentFunction.from_expression(
        "2 + 1/log(e + 1/t)", p_at_zero=2.0, p_at_infinity=3.0)
    phi = vi.SampledFunction(grid, _block(rng, grid.node_count))
    out.append(_op("luxemburg-power-of-two-scaling", lambda: (
        vi.luxemburg_norm(phi.scaled(shift), q_var)
        == shift * vi.luxemburg_norm(phi, q_var))))
    atoms = vi.AtomFunction(10.0 ** rng.uniform(-1.0, 1.0, 3),
                            10.0 ** rng.uniform(-1.0, 1.0, 3))
    q_eq = vi.ExponentFunction.from_expression(
        "2 + 0.5*min(t, 1/t)", p_at_zero=2.0, p_at_infinity=2.0)
    out.append(_op("lorentz-power-of-two-scaling", lambda: (
        vi.lorentz_norm(atoms.scaled(shift), q2, q_eq, grid)
        == shift * vi.lorentz_norm(atoms, q2, q_eq, grid))))
    return out


def reiteration_checks(instance, report):
    """The base norm of a reiteration report against this module's own
    constant-q norm of t^{-theta} K(t, f) on the base grid (V = 16, 32
    samples per octave), the report's constant against its definition, and
    the report's pass flag."""
    theta = ((1.0 - instance["eta"]) * instance["theta0"]
             + instance["eta"] * instance["theta1"])
    V, spo = 16, 32
    du = math.log(2.0) / spo
    u = [(-V + (i + 0.5) / spo) * math.log(2.0) for i in range(2 * V * spo)]
    phi = [math.exp(-theta * x)
           * _own_weighted_k(instance["w0"], instance["w1"], math.exp(x),
                             instance["f"]) for x in u]
    want = _own_luxemburg_constant_q(phi, instance["q"], du)
    ratio = report.outer_norm / report.base_norm
    return [
        ("reiteration-base-norm",
         "ok" if _close(report.base_norm, want) else "wrong"),
        ("reiteration-constant",
         "ok" if report.constant == max(ratio, 1.0 / ratio) else "wrong"),
        ("reiteration-pass",
         "ok" if report.passed else f"failed: constant {report.constant}"),
    ]


def suite_report_checks(out_dir, checks, trials):
    """Every requested check has a JSON report and a summary row with
    pass=true and as many instances as the config's trials."""
    out = []
    rows = {}
    summary = os.path.join(out_dir, "summary.csv")
    if os.path.exists(summary):
        with open(summary, newline="") as fh:
            rows = {row["check"]: row for row in csv.DictReader(fh)}
    for check_id in checks:
        path = os.path.join(out_dir, f"{check_id}.json")
        row = rows.get(check_id)
        if not os.path.exists(path) or row is None:
            out.append((f"report:{check_id}", "wrong"))
            continue
        with open(path) as fh:
            rep = json.load(fh)
        if rep.get("pass") is not True or row.get("pass") != "true":
            status = f"failed: constant {rep.get('constant')}"
        elif rep.get("instances") != trials or row.get("instances") != str(trials):
            status = "wrong"
        else:
            status = "ok"
        out.append((f"report:{check_id}", status))
    return out
