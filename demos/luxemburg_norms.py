"""
Variable-exponent norms on a logarithmic grid
=============================================

Functions live on (0, inf) with the measure dt/t, sampled at the midpoints
of dyadic log-scale cells. The norm of the space L^{q(.)} is the Luxemburg
norm: the smallest lambda such that the modular of f/lambda is at most 1.
"""

import numpy as np

from varinterp import (
    ExponentFunction,
    HaarGrid,
    SampledFunction,
    luxemburg_norm,
    modular,
    modular_norm_sandwich,
)

# A grid covering [2^-16, 2^16] with 32 sample nodes per octave. Nodes sit
# at cell midpoints, so refining the octave count never reuses a node.
grid = HaarGrid(16, 32)
print(f"grid: {grid.node_count} nodes on [{grid.t_min:.3g}, {grid.t_max:.3g}]")

# Exponents are written in a tiny expression language over t. Their limits
# at 0 and infinity (here 2 and 3) are the expression evaluated there.
q_const = ExponentFunction.constant(2.0)
q_var = ExponentFunction.from_expression("2 + 1/log(e + 1/t)")
print(f"variable exponent at t=1e-6, 1, 1e6: "
      f"{q_var(1e-6):.4f}, {q_var(1.0):.4f}, {q_var(1e6):.4f}")

# A bump supported on two octaves around t = 1.
f = SampledFunction.from_callable(
    grid, lambda t: np.where((t >= 0.5) & (t < 2.0), 1.5, 0.0))

# With a constant exponent the Luxemburg norm has a closed form: the
# modular to the power 1/q. luxemburg_norm's solver brackets the norm between
# the modular to the powers 1/q- and 1/q+, which for a constant exponent is
# that closed form at its first evaluation.
norm_const = luxemburg_norm(f, q_const)
closed = modular(f, q_const) ** 0.5
print(f"constant q = 2: norm {norm_const:.12f}, modular^(1/2) {closed:.12f}")

# With a variable exponent there is no closed form; luxemburg_norm takes
# Newton steps on the log of the modular until that bracket is narrow, and
# the defining property holds: the modular of f divided by its norm equals 1.
norm_var = luxemburg_norm(f, q_var)
at_norm = modular(f.scaled(1.0 / norm_var), q_var)
print(f"variable q: norm {norm_var:.12f}, modular at the norm {at_norm:.12f}")

# The modular and the norm control each other through min/max powers of
# the exponent; the sandwich report records both bounds.
rep = modular_norm_sandwich(f, q_var)
print(f"sandwich: {rep.lower:.6f} <= {rep.norm:.6f} <= {rep.upper:.6f} "
      f"(passed: {rep.passed})")
