"""Finite truncation and communication tradeoffs for optical SMP protocols.

The package models multimode optical message states sparsely in the photon
number basis, truncates them below a mean-photon cutoff with certified error
bounds, counts the dimension of the surviving subspace, and evaluates the
exact error of concrete simultaneous-message protocols before and after
truncation.

The names in ``__all__`` are exported lazily (PEP 562): ``optsmp.X`` and
``from optsmp import X`` import X's module on first use. ``import optsmp``
therefore loads no submodule, and the counting side (``combinatorics``,
``bounds``, ``errors``) never loads numpy.
"""

import importlib

__version__ = "0.1.0"

#: Module of each exported name, grouped by module.
_EXPORTS = {
    "bounds": (
        "ComplexityReference",
        "ReportPoint",
        "TradeoffRow",
        "build_report",
        "default_references",
        "qfp_report_points",
        "quantum_tradeoff_lhs",
    ),
    "combinatorics": (
        "LogRankBounds",
        "RankCount",
        "binary_entropy",
        "binomial_power_bound",
        "count_rank",
        "deterministic_cc_matrix",
        "entropy_bound",
        "entropy_profile",
        "equality_function",
        "iter_occupations",
        "log_rank_bounds",
        "markov_photon_cutoff",
    ),
    "errors": (
        "BasisMismatchError",
        "ConfigError",
        "DimensionCapError",
        "InputCapError",
        "ModeMismatchError",
        "NormalizationError",
        "OptSmpError",
        "PhotonCapError",
        "PremiseViolationError",
        "SupportCapError",
        "VacuousTruncationError",
    ),
    "fock": (
        "FockDiagonalState",
        "ProductPureState",
        "PureState",
        "coherent_state",
        "cutoff_for_tail",
        "fidelity",
        "mean_photon_number",
        "overlap",
        "photon_number_distribution",
        "poisson_tail",
        "tail_probability",
        "tensor",
        "total_photons",
        "trace_distance",
    ),
    "report": ("ErrorReport",),
    "smp": (
        "DiagonalMapReferee",
        "FoldCode",
        "InterferenceVacuumReferee",
        "SmpProtocol",
        "apply_beamsplitter",
        "beamsplitter_pair",
        "coherent_accept_probability",
        "coherent_fingerprint_protocol",
        "evaluate_error",
        "letter_per_input",
        "load_protocol",
        "trivial_classical_protocol",
    ),
    "truncation": (
        "check_gentle_measurement",
        "check_projector_closeness",
        "perturbed_error_bound",
        "project_below_cutoff",
        "transform_protocol",
    ),
    "verify": ("SUITES", "DenseBasis", "DenseOperator", "SuiteResult", "run_suites"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import an exported name's module on first access and keep the name."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
