"""Relative Fisher information of the classical discrete orthogonal
polynomial families (Charlier, Meixner, Kravchuk, Hahn), computed by four
mutually cross-checking routes, plus limiting formulas and sweep tooling.

Public names resolve lazily (PEP 562): the first use of one imports its home
module, so ``import dopfisher.cli`` never compiles the verify suites or the
limiting formulas, which no command but ``verify`` runs."""

from importlib import import_module

__version__ = "0.1.0"

#: every public name, by its home module
_EXPORTS = {
    "asymptotics": ("kravchuk_max_degree", "kravchuk_max_degree_large_N",
                    "kravchuk_p_to_one", "kravchuk_p_to_zero", "meixner_gamma_to_infinity",
                    "meixner_gamma_to_zero", "meixner_large_n", "meixner_mu_to_one",
                    "meixner_mu_to_zero"),
    "families": ("Charlier", "DegreeOutOfRange", "Family", "Hahn", "Kravchuk",
                 "LatticeSupport", "Meixner", "NormValue", "OutOfSupport",
                 "ParameterDomainError", "TableOneData", "make_family"),
    "fisher": ("FisherReport", "Method", "fisher_closed", "fisher_difference",
               "fisher_direct", "fisher_expansion", "fisher_report", "rakhmanov_density"),
    "numerics": ("DEFAULT_DPS", "DenominatorPole", "NonTerminatingSeries", "PFQSpec",
                 "Scalar", "pochhammer", "terminating_pfq"),
    "sweeps": ("SweepSpec", "linear_grid", "load_figures", "run_figure", "run_sweep"),
    "verify": ("SUITES", "SuiteResult", "run_suites"),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOMES)
# resolvable but not exported: only bench/ imports them (ROADMAP item 3)
_HOMES.update(TruncationCapExceeded="fisher", TruncationPolicy="fisher")


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = import_module("." + _HOMES[name], __name__)
    return globals().setdefault(name, getattr(home, name))   # the next lookup skips this hook


def __dir__():
    return sorted(globals().keys() | _HOMES.keys())
