"""
Interpolation space norms and their equivalences
================================================

The K-method norm of f in (A0, A1)_{theta, q(.)} is the L^{q(.)}(dt/t)
norm of t^{-theta} K(t, f). This script evaluates it three ways and runs
the structural checks that tie the variants together.
"""

import math

import numpy as np

from varinterp import (
    AtomFunction,
    Couple,
    ExponentFunction,
    HaarGrid,
    KMethodParams,
    construct_j_representation,
    k_norm_continuous,
    k_norm_discrete,
    k_norm_sup,
    kj_equivalence_check,
    lorentz_identification_check,
    reiteration_check,
)
from varinterp.interp import (
    prop_equal_limits,
    prop_exponent_monotone,
    prop_reversal_symmetry,
)

grid = HaarGrid(16, 32)
q2 = ExponentFunction.constant(2.0)
params = KMethodParams(0.5, q2, grid)

# For the unit indicator on (L1, Linf): K(t, chi) = min(t, 1), and at
# theta = 1/2, q = 2 the norm is sqrt(2) on the whole axis.
chi = AtomFunction([1.0], [1.0])
print(f"continuous K-norm of chi:  {k_norm_continuous(Couple.l1_linf(), chi, params):.6f}"
      f"  (exact: {math.sqrt(2):.6f})")

# The dyadic variant samples K at 2^v; the sup variant drops the integral.
print(f"discrete K-norm of chi:    "
      f"{k_norm_discrete(Couple.l1_linf(), chi, 0.5, 2.0, 2.0, 16):.6f}")
print(f"sup K-norm of chi:         {k_norm_sup(Couple.l1_linf(), chi, 0.5, grid):.6f}")

couple = Couple.weighted_seq([1.0, 2.0], [3.0, 0.5])
f = np.array([1.0, -1.0])

# A J-method representation splits f into pieces u_v living on dyadic
# scales; each piece must satisfy J(2^v, u_v) <= 3.03 K(2^v, f).
rep = construct_j_representation(couple, f, V=8)
print(f"J-representation: {sum(1 for u in rep.terms if np.any(u))} nonzero "
      f"terms, worst J/K ratio {rep.worst_ratio:.4f} (cap 3.03)")

# The two method norms are equivalent; the report compares them and keeps
# the ratio, which refinement should leave essentially unchanged.
eq = kj_equivalence_check(couple, f, params, V=16)
print(f"K vs J method: J-norm / K-norm = {eq.ratio_j_over_k:.6f} "
      f"(passed: {eq.passed})")

# Interpolating between two interpolation spaces of a couple lands back on
# a single interpolation space of the original couple.
reit = reiteration_check(couple, f, 0.25, 0.75, 0.5, q2,
                         inner_grid=HaarGrid(8, 4), outer_V=6,
                         base_grid=HaarGrid(12, 16), refine=False,
                         resolution=1e-6)
print(f"reiteration at theta = {reit.theta:g}: outer/base = "
      f"{reit.constant:.4f}")

# On (L1, Linf) the K-method norm is a variable Lorentz norm in disguise.
ident = lorentz_identification_check(chi, 0.5, q2, grid)
print(f"Lorentz identification: K-method {ident.k_method_norm:.6f}, "
      f"Lorentz {ident.lorentz_norm:.6f}, ratio {ident.ratio:.6f}")

# Structural one-liners: monotonicity in the exponent, symmetry under
# couple reversal, and equal discrete norms for exponents that share both
# limits. Each proposition checks its own hypotheses.
q_wobble = ExponentFunction.from_expression("2.0 + min(t, 1/t)")  # 2 at 0 and inf
reports = {
    "exponent_monotone": prop_exponent_monotone(
        couple, f, 0.5, q2, ExponentFunction.constant(3.0), grid),
    "reversal_symmetry": prop_reversal_symmetry(couple, f, 0.5, q2, grid),
    "equal_limits": prop_equal_limits(couple, f, 0.5, q2, q_wobble, grid),
}
for name, report in reports.items():
    print(f"  {name}: passed = {report.passed}")
