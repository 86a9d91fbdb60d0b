"""Release gate: thirteen numbered criteria with pinned tolerances.

Each test prints exactly one pass/fail line (visible with ``pytest -s``
or in the captured output of a failure). Tolerances and instance counts
are fixed here; loosening them is not a fix.
"""

import json
import math
import time

import numpy as np

from varinterp import (
    AtomFunction,
    Couple,
    ExponentFunction,
    HaarGrid,
    KMethodParams,
    instance_rng,
    k_norm_continuous,
    lorentz_norm,
    reiteration_check,
    run_check,
)
from varinterp.cli import main as cli_main


SEED = 42
GRID = HaarGrid(16, 32)
Q2 = ExponentFunction.constant(2.0)


def gate(n, label, ok):
    print(f"criterion {n:02d} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"criterion {n:02d} failed: {label}"


def test_c01_luxemburg_norm_oracles():
    start = time.perf_counter()
    rep = run_check("luxemburg-closed-form", seed=SEED, trials=400)
    elapsed = time.perf_counter() - start
    gate(1, f"luxemburg norm vs oracles: 200 constant q + 200 variable q, "
            f"worst deviation {rep.constant:.3g} (tol 1e-6), {elapsed:.1f}s "
            f"(cap 10s)",
         rep.passed and elapsed < 10.0)


def test_c02_modular_norm_sandwich():
    rep = run_check("modular-sandwich", seed=SEED, trials=200)
    gate(2, f"modular-norm sandwich on 200 instances, worst bracket ratio "
            f"{rep.constant:.9f} (slack 1e-6)",
         rep.passed)


def test_c03_k_functional_oracles():
    start = time.perf_counter()
    rep = run_check("k-oracle", seed=SEED, trials=300)
    elapsed = time.perf_counter() - start
    gate(3, f"K-functional oracle agreement: 200 weighted (n <= 5) + 100 "
            f"rearrangement-profile instances, worst rel err "
            f"{rep.constant:.3g} (tol 1e-6), {elapsed:.1f}s (cap 30s)",
         rep.passed and elapsed < 30.0)


def test_c04_discrete_vs_continuous_k_norm():
    rep = run_check("k-discrete-continuous", seed=SEED, trials=100)
    gate(4, f"discrete vs continuous K-norm: bracket C = {rep.constant:.4f}, "
            f"drift {rep.refinement_drift:.4f} under V 16->32, spo 32->64 "
            f"(cap 0.05), constant and log-perturbed q",
         rep.passed)


def test_c05_indicator_spot_values():
    k = k_norm_continuous(Couple.l1_linf(), AtomFunction([1.0], [1.0]),
                          KMethodParams(0.5, Q2, GRID))
    lz = lorentz_norm(AtomFunction([1.0], [1.0]),
                      ExponentFunction.constant(2.0), Q2, GRID)
    ok = abs(k - math.sqrt(2.0)) <= 1e-3 and abs(lz - 1.0) <= 1e-3
    gate(5, f"indicator spot values: K-method norm {k:.6f} vs sqrt(2) "
            f"(tol 1e-3), Lorentz norm {lz:.6f} vs 1 (tol 1e-3)",
         ok)


def test_c06_k_j_equivalence():
    rep = run_check("kj-equivalence", seed=SEED, trials=100)
    gate(6, f"K = J equivalence on 100 instances: every J(2^v, u_v) <= "
            f"3.03 K(2^v, f); norm ratio bracket C = {rep.constant:.4f}, "
            f"drift {rep.refinement_drift:.4f} under V 16->24 (cap 0.10)",
         rep.passed)


def test_c07_hardy_inequalities():
    disc = run_check("hardy-discrete", seed=SEED, trials=100)
    cont = run_check("hardy-continuous", seed=SEED, trials=60)
    gate(7, f"Hardy inequalities: discrete within 1.01x cap for "
            f"q in {{1, 2, inf}} and random q (worst ratio "
            f"{disc.constant:.4f}); continuous constant stable for "
            f"s in {{1/2, 1, 2}} (drift {cont.refinement_drift:.4f}, cap 0.10)",
         disc.passed and cont.passed)


def test_c08_key_estimate_margins():
    reps = [run_check(f"key-estimate-{v}", seed=SEED, trials=50)
            for v in ("local", "at-zero", "at-infinity")]
    worst = min(rep.constant for rep in reps)
    ok = all(rep.passed and rep.instances == 50 for rep in reps)
    gate(8, f"key estimate margins on 50 accepted instances per variant: "
            f"worst margin {worst:.3g} (floor -1e-12)",
         ok)


def test_c09_operator_interpolation():
    rep = run_check("operator-bound", seed=SEED, trials=50)
    gate(9, f"operator interpolation on 50 admissible operators: worst "
            f"||Tf|| / (max(M0, M1) ||f||) = {rep.constant:.6f} "
            f"(slack 1e-6)",
         rep.passed)


def test_c10_proposition_suite():
    ids = ("prop-exponent-monotone", "prop-reversal", "prop-theta-monotone",
           "prop-identical-couple")
    reps = {check: run_check(check, seed=SEED, trials=100) for check in ids}
    summary = ", ".join(f"{check.removeprefix('prop-')}={rep.constant:.4g}"
                        for check, rep in reps.items())
    gate(10, f"proposition suite, 100 instances each: {summary}",
         all(rep.passed for rep in reps.values()))


def test_c11_reiteration():
    start = time.perf_counter()
    reports = []
    for i, qv in enumerate((2.0, 1.7)):
        rng = instance_rng(SEED, "acceptance-reiteration", i)
        couple = Couple.weighted_seq(10.0 ** rng.uniform(-1.0, 1.0, 3),
                                     10.0 ** rng.uniform(-1.0, 1.0, 3))
        f = rng.normal(0.0, 1.0, 3)
        reports.append(reiteration_check(couple, f, 0.25, 0.75, 0.5,
                                         ExponentFunction.constant(qv),
                                         inner_grid=HaarGrid(12, 8),
                                         outer_V=10))
    elapsed = time.perf_counter() - start
    detail = ", ".join(f"C={rep.constant:.4f} drift={rep.drift:.2g}"
                       for rep in reports)
    gate(11, f"reiteration, dimension-3 couples, theta 1/4 and 3/4, "
             f"eta 1/2, constant q: {detail} (drift cap 0.10), "
             f"{elapsed:.1f}s (cap 120s)",
         all(rep.passed for rep in reports) and elapsed < 120.0)


def test_c12_lorentz_identification():
    rep = run_check("lorentz-identification", seed=SEED, trials=300)
    gate(12, f"Lorentz identification on 100 atom functions per theta in "
             f"{{0.25, 0.5, 0.75}}: bracket C = {rep.constant:.4f}, exact "
             f"scale invariance, refinement drift {rep.refinement_drift:.4f} "
             f"(cap 0.10)",
         rep.passed)


def test_c13_deterministic_reports(tmp_path):
    config = json.dumps({
        "seed": SEED,
        "trials": 5,
        "grid": {"V": 16, "samples_per_octave": 32},
        "checks": ["luxemburg-closed-form", "k-oracle", "rearrangement",
                   "hardy-discrete", "operator-bound", "key-estimate-local",
                   "lorentz-discrete"],
    })
    outs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        assert cli_main(["suite", "--config", config, "--out", str(out)]) == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    same_names = names == sorted(p.name for p in outs[1].iterdir())
    same_bytes = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
                     for n in names)
    gate(13, f"suite determinism: {len(names)} report files byte-identical "
             f"across repeated runs",
         same_names and same_bytes and len(names) == 8)
