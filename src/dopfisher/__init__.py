"""Relative Fisher information of the classical discrete orthogonal
polynomial families (Charlier, Meixner, Kravchuk, Hahn), computed by four
mutually cross-checking routes, plus limiting formulas and sweep tooling."""

from .asymptotics import (
    kravchuk_max_degree,
    kravchuk_max_degree_large_N,
    kravchuk_p_to_one,
    kravchuk_p_to_zero,
    meixner_gamma_to_infinity,
    meixner_gamma_to_zero,
    meixner_large_n,
    meixner_mu_to_one,
    meixner_mu_to_zero,
)
from .families import (
    Charlier,
    DegreeOutOfRange,
    Family,
    Hahn,
    Kravchuk,
    LatticeSupport,
    Meixner,
    NormValue,
    OutOfSupport,
    ParameterDomainError,
    TableOneData,
    make_family,
)
from .fisher import (  # the two Truncation* names only for bench/ (ROADMAP item 3)
    FisherReport,
    Method,
    TruncationCapExceeded,
    TruncationPolicy,
    fisher_closed,
    fisher_difference,
    fisher_direct,
    fisher_expansion,
    fisher_report,
    rakhmanov_density,
)
from .numerics import (
    DEFAULT_DPS,
    DenominatorPole,
    NonTerminatingSeries,
    PFQSpec,
    Scalar,
    pochhammer,
    terminating_pfq,
)
from .sweeps import SweepSpec, linear_grid, load_figures, run_figure, run_sweep
from .verify import SUITES, SuiteResult, run_suites

__version__ = "0.1.0"

__all__ = [
    "Charlier", "DEFAULT_DPS",
    "DegreeOutOfRange", "DenominatorPole", "Family", "FisherReport", "Hahn",
    "Kravchuk", "LatticeSupport", "Meixner", "Method", "NonTerminatingSeries",
    "NormValue", "OutOfSupport", "PFQSpec", "ParameterDomainError",
    "SUITES", "Scalar", "SuiteResult", "SweepSpec",
    "TableOneData", "fisher_closed",
    "fisher_difference", "fisher_direct", "fisher_expansion", "fisher_report",
    "kravchuk_max_degree", "kravchuk_max_degree_large_N", "kravchuk_p_to_one",
    "kravchuk_p_to_zero", "linear_grid", "load_figures", "make_family",
    "meixner_gamma_to_infinity", "meixner_gamma_to_zero", "meixner_large_n",
    "meixner_mu_to_one", "meixner_mu_to_zero", "pochhammer",
    "rakhmanov_density", "run_figure", "run_suites", "run_sweep",
    "terminating_pfq",
]
