"""
K- and J-functionals on compatible couples
==========================================

K(t, f) is the infimum of ||f0||_0 + t ||f1||_1 over splittings f = f0 + f1;
J(t, f) is the maximum of the two norms. Three couple kinds are built in:
weighted l1 pairs (closed-form K), the (L1, Linf) couple acting on atom
functions, and small generic couples solved by brute force.
"""

import numpy as np

from varinterp import (
    AtomFunction,
    Couple,
    j_functional,
    k_brute_force,
    decompose,
    k_functional,
    k_truncation_oracle,
    operator_bound_check,
    ExponentFunction,
    HaarGrid,
)

# Weighted l1 couple: K(t, f) = sum_i min(w0_i, t w1_i) |f_i|.
couple = Couple.weighted_seq([1.0, 1.0], [1.0, 4.0])
f = np.array([1.0, 1.0])
for t in (0.1, 1.0, 2.0, 100.0):
    print(f"K({t:g}) = {k_functional(couple, t, f):.6f}, "
          f"J({t:g}) = {j_functional(couple, t, f):.6f}")

# The optimal splitting is recoverable.
f0, f1 = decompose(couple, 2.0, f)
print(f"optimal split at t = 2: f0 = {f0}, f1 = {f1}")

# A derivative-free coordinate search confirms the closed form. It is the
# oracle of record for any couple with n <= 6 coordinates.
result = k_brute_force(couple, 2.0, f, return_details=True)
print(f"brute force: {result.value:.9f} after {result.evaluations} evaluations")

# On (L1, Linf) the K-functional is the integral of the non-increasing
# rearrangement up to t; the truncation oracle scans the kinks instead.
g = AtomFunction([3.0], [2.0])
closed = k_functional(Couple.l1_linf(), 5.0, g)
oracle, level = k_truncation_oracle(g, 5.0)
print(f"l1/linf: closed {closed:.6f}, truncation oracle {oracle:.6f} "
      f"at cut level {level:.6f}")

# A linear map bounded on both endpoint spaces is bounded on every
# interpolation space with constant max(M0, M1).
T = np.array([[0.5, 0.2], [-0.1, 0.8]])
rep = operator_bound_check(T, couple, 0.5, ExponentFunction.constant(2.0),
                           f, HaarGrid(12, 16))
print(f"endpoint bounds: M0 = {rep.bound0:.6f}, M1 = {rep.bound1:.6f}")
print(f"||Tf|| = {rep.lhs:.6f} <= max(M0, M1) ||f|| = {rep.rhs:.6f} "
      f"(passed: {rep.passed})")
print(f"Tf = {T @ f}")
