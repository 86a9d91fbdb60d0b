"""
Rearrangements and variable Lorentz norms
=========================================
"""

import numpy as np

from varinterp import (
    AtomFunction,
    ExponentFunction,
    HaarGrid,
    lambda_norm,
    lorentz_norm,
    rearrangement,
)

# An atom function is a finite list of (value, mass) pairs: the simple
# function taking |value| on a set of the given measure. Its non-increasing
# rearrangement is a right-continuous step profile.
f = AtomFunction([1.0, 3.0, 2.0], [0.5, 0.5, 0.75])
profile = rearrangement(f)
print(f"levels      {profile.levels.tolist()}")
print(f"breakpoints {profile.breakpoints.tolist()}")
print(f"f*(0.6) = {profile.value_at(0.6):g}, integral to 1 = "
      f"{profile.integral_to(1.0):g}, total l1 = {profile.l1:g}")

grid = HaarGrid(16, 32)
q2 = ExponentFunction.constant(2.0)
p2 = ExponentFunction.constant(2.0)

# The Lorentz norm weighs the rearrangement by t^{1/p - 1/q} in L^{q(.)}(dt).
# For the indicator of a unit-measure set and p = q = 2 it equals 1.
chi = AtomFunction([1.0], [1.0])
print(f"Lorentz norm of a unit indicator: {lorentz_norm(chi, p2, q2, grid):.6f}")

# The dyadic counterpart weighs a two-sided sequence alpha_{-V}, ..., alpha_V,
# a plain array of length 2V + 1, by 2^{-v theta} with split exponents for
# the two half-axes; alpha = (2, 1, 2) on v in {-1, 0, 1} at theta = 1/2,
# q(0) = 2, q_inf = 3 gives 3 + sqrt(2) by hand.
value = lambda_norm(np.array([2.0, 1.0, 2.0]), 0.5, 2.0, 3.0)
print(f"dyadic lambda norm of (2, 1, 2): {value:.12f} "
      f"(by hand: {3 + 2 ** 0.5:.12f})")
