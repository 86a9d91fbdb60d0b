"""Real interpolation with variable exponents.

Core objects: variable exponent functions on (0, infinity), a dyadic
log-scale grid, Luxemburg norms of sampled functions, K- and J-functionals
on compatible couples, K-method interpolation norms, rearrangements and
Lorentz norms, Hardy-type inequalities, and a randomized check suite with
a CLI front end.
"""

from .errors import (
    CapacityError,
    ConfigError,
    ConstructionError,
    DivergenceError,
    DomainError,
    ExponentSyntaxError,
    GridMismatchError,
    InvalidExponentError,
    VarInterpError,
)
from .exponents import ExponentFunction
from .varleb import (
    HaarGrid,
    SampledFunction,
    lambda_norm,
    luxemburg_norm,
    modular,
    modular_norm_sandwich,
    unit_ball_check,
)
from .rearrange import (
    AtomFunction,
    RearrangementProfile,
    distribution_function,
    lorentz_discrete_norm,
    lorentz_norm,
    rearrangement,
)
from .couples import (
    Couple,
    LinearOperatorSpec,
    NormSpec,
    apply_operator,
    decompose,
    j_functional,
    k_brute_force,
    k_functional,
    k_functional_many,
    k_truncation_oracle,
    kj_inequality_check,
)
from .interp import (
    JRepresentation,
    KMethodParams,
    class_membership_check,
    construct_j_representation,
    density_check,
    embedding_checks,
    k_norm_continuous,
    k_norm_discrete,
    k_norm_sup,
    kj_equivalence_check,
    lorentz_identification_check,
    operator_bound_check,
    reiteration_check,
)
from .hardy import (
    hardy_continuous_check,
    hardy_discrete_check,
    key_estimate_check,
)
from .suite import (
    CHECK_IDS,
    CheckReport,
    CheckSuiteConfig,
    instance_rng,
    run_check,
    run_check_suite,
)
from .cli import parse_exponent

__version__ = "0.1.0"

__all__ = [
    "AtomFunction",
    "CHECK_IDS",
    "CapacityError",
    "CheckReport",
    "CheckSuiteConfig",
    "ConfigError",
    "ConstructionError",
    "Couple",
    "DivergenceError",
    "DomainError",
    "ExponentFunction",
    "ExponentSyntaxError",
    "GridMismatchError",
    "HaarGrid",
    "InvalidExponentError",
    "JRepresentation",
    "KMethodParams",
    "LinearOperatorSpec",
    "NormSpec",
    "RearrangementProfile",
    "SampledFunction",
    "VarInterpError",
    "apply_operator",
    "class_membership_check",
    "construct_j_representation",
    "decompose",
    "density_check",
    "distribution_function",
    "embedding_checks",
    "hardy_continuous_check",
    "hardy_discrete_check",
    "instance_rng",
    "j_functional",
    "k_brute_force",
    "k_functional",
    "k_functional_many",
    "k_norm_continuous",
    "k_norm_discrete",
    "k_norm_sup",
    "k_truncation_oracle",
    "key_estimate_check",
    "kj_equivalence_check",
    "kj_inequality_check",
    "lambda_norm",
    "lorentz_discrete_norm",
    "lorentz_identification_check",
    "lorentz_norm",
    "luxemburg_norm",
    "modular",
    "modular_norm_sandwich",
    "operator_bound_check",
    "parse_exponent",
    "rearrangement",
    "reiteration_check",
    "run_check",
    "run_check_suite",
    "unit_ball_check",
]
