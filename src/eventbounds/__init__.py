"""Sharp probability bounds for occurrence counts of n events.

Given the first few binomial moments of the number of occurring events
(optionally conditioned on a fixed d-tuple of events happening), this
package computes the best possible upper and lower bounds on
P(at least r events occur) and P(exactly r events occur), together with
machine-checkable certificates and sharpness witnesses.
"""

# Every export by source module.  Nothing is imported until first use
# (PEP 562), so importing one submodule, say ``eventbounds.engine``, loads
# only what that submodule needs.
_EXPORTS = {
    "bounds_l2": ("best_l2", "lower_l1", "lower_l2", "upper_u1", "upper_u2"),
    "bounds_l3": (
        "CoefficientVector", "lower_alpha", "lower_best_l3", "lower_beta",
        "lower_gamma", "lower_lb1", "lower_lb2", "lower_lb3", "lower_phi",
        "lower_theta", "optimal_m", "upper_alpha", "upper_best_l3", "upper_beta",
        "upper_delta", "upper_gamma", "upper_ub1", "upper_ub2", "upper_ub3",
    ),
    "certificates": (
        "SIDE_LOWER", "SIDE_UPPER", "SIDES", "TARGET_AT_LEAST", "TARGET_EXACTLY",
        "TARGETS", "BoundCertificate", "BoundRequest", "BoundTerm",
        "certificate_from_terms",
    ),
    "conditional": (
        "AggregatedBound", "BlockBound", "BlockMoments", "ConditionalMomentSet",
        "PartitionField", "block_system", "conditional_bound", "conditional_moments",
        "expectation_aggregate",
    ),
    "core": (
        "EventSystem", "IndexTuple", "OccurrenceDistribution", "binomial",
        "enumerate_index_tuples", "exact_at_least", "exact_joint", "exact_occurrence",
        "normalize",
    ),
    "dispatch": ("FORMULAS", "bound_for_system", "evaluate_request"),
    "engine": (
        "Feasibility", "SearchResult", "SharpnessWitness", "TargetVector",
        "bound_value", "check_feasibility", "jordan_exact", "search_index_sets",
        "sharpness_witness", "solve_coefficients", "target_vector", "witness_system",
    ),
    "errors": (
        "DegenerateConfigurationError", "DegenerateMeasureError", "EventBoundsError",
        "InfeasibleMomentsError", "InputFormatError", "NotApplicableError",
        "ResourceLimitError",
    ),
    "moments": (
        "DecompositionReport", "MomentMatrix", "MomentSet", "MomentVector", "ZVector",
        "moment_matrix", "moment_set", "moments_from_system", "verify_decomposition",
        "z_vector",
    ),
    "numerics": ("RATIONAL_BACKEND", "rational"),
    "verification": ("SuiteReport", "random_partition", "random_system", "run_all"),
}
_SOURCES = {name: module for module, names in _EXPORTS.items() for name in names}
# The submodules that ``import eventbounds`` used to load eagerly; they stay
# reachable as attributes.
_SUBMODULES = (*_EXPORTS, "families")

__version__ = "0.1.0"

__all__ = [
    "AggregatedBound",
    "BlockBound",
    "BlockMoments",
    "BoundCertificate",
    "BoundRequest",
    "BoundTerm",
    "CoefficientVector",
    "ConditionalMomentSet",
    "DecompositionReport",
    "DegenerateConfigurationError",
    "DegenerateMeasureError",
    "EventBoundsError",
    "EventSystem",
    "Feasibility",
    "FORMULAS",
    "IndexTuple",
    "InfeasibleMomentsError",
    "InputFormatError",
    "MomentMatrix",
    "MomentSet",
    "MomentVector",
    "NotApplicableError",
    "OccurrenceDistribution",
    "PartitionField",
    "RATIONAL_BACKEND",
    "ResourceLimitError",
    "SearchResult",
    "SharpnessWitness",
    "SIDE_LOWER",
    "SIDE_UPPER",
    "SIDES",
    "SuiteReport",
    "TARGET_AT_LEAST",
    "TARGET_EXACTLY",
    "TARGETS",
    "TargetVector",
    "ZVector",
    "best_l2",
    "binomial",
    "block_system",
    "bound_for_system",
    "bound_value",
    "certificate_from_terms",
    "check_feasibility",
    "conditional_bound",
    "conditional_moments",
    "enumerate_index_tuples",
    "evaluate_request",
    "exact_at_least",
    "exact_joint",
    "exact_occurrence",
    "expectation_aggregate",
    "jordan_exact",
    "lower_alpha",
    "lower_best_l3",
    "lower_beta",
    "lower_gamma",
    "lower_l1",
    "lower_l2",
    "lower_lb1",
    "lower_lb2",
    "lower_lb3",
    "lower_phi",
    "lower_theta",
    "moment_matrix",
    "moment_set",
    "moments_from_system",
    "normalize",
    "optimal_m",
    "random_partition",
    "random_system",
    "rational",
    "run_all",
    "search_index_sets",
    "sharpness_witness",
    "solve_coefficients",
    "target_vector",
    "upper_alpha",
    "upper_best_l3",
    "upper_beta",
    "upper_delta",
    "upper_gamma",
    "upper_u1",
    "upper_u2",
    "upper_ub1",
    "upper_ub2",
    "upper_ub3",
    "verify_decomposition",
    "witness_system",
    "z_vector",
]


def __getattr__(name: str) -> object:
    """Import an export, or one of ``_SUBMODULES``, on first access."""
    from importlib import import_module

    if name in _SOURCES:
        value = getattr(import_module(f".{_SOURCES[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    hidden = {"_EXPORTS", "_SOURCES", "_SUBMODULES", "__getattr__", "__dir__"}
    return sorted({*globals(), *__all__, *_SUBMODULES} - hidden)
