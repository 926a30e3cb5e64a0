"""Numerical Riesz bounds for finite exponential systems on arc unions of the
circle, with the adversarial-set and progression-block constructions."""

from . import constructions, errors, numtheory, spectral, torus
from .constructions import (
    BlockSpec,
    DeltaSchedule,
    LambdaBuild,
    ScanConfig,
    build_adversarial_set,
    build_lambda_thm2,
    build_lambda_thm3,
    good_n_search,
    select_shift,
    step_search_alpha,
    verify_build,
)
from .spectral import (
    GramMatrix,
    RieszReport,
    arithmetic_progression,
    dirichlet_tail_bound,
    dirichlet_tail_many,
    extreme_eigs,
    frequency_set,
    gram,
    rayleigh,
    riesz_report,
    uniform_rayleigh_ap_many,
)
from .torus import (
    IntervalSet,
    complement,
    contains,
    fourier_coeff_many,
    load_set,
    normalize,
    quadrature_coeff,
    save_set,
    scale_periodize,
)

__version__ = "0.1.0"
