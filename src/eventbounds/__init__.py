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
    "certificates": (
        "SIDE_LOWER", "SIDE_UPPER", "SIDES", "TARGET_AT_LEAST", "TARGET_EXACTLY",
        "TARGETS", "BoundCertificate", "BoundRequest", "BoundTerm",
        "certificate_from_terms",
    ),
    "checker": ("check_certificate",),
    "conditional": (
        "AggregatedBound", "BlockBound", "PartitionField", "block_systems",
        "conditional_bound", "expectation_aggregate",
    ),
    "core": (
        "EventSystem", "IndexTuple", "OccurrenceDistribution", "binomial",
        "enumerate_index_tuples", "exact_joint", "exact_occurrence", "normalize",
    ),
    "dispatch": ("FORMULAS", "bound_for_system", "evaluate_request"),
    "engine": ("SharpnessWitness", "sharpness_witness", "target_vector", "witness_system"),
    "errors": (
        "DegenerateConfigurationError", "DegenerateMeasureError", "EventBoundsError",
        "InfeasibleMomentsError", "InputFormatError", "NotApplicableError",
        "ResourceLimitError",
    ),
    "moments": (
        "DecompositionReport", "MomentMatrix", "MomentSet", "MomentVector", "moment_matrix",
        "moment_set", "verify_decomposition",
    ),
    "numerics": ("RATIONAL_BACKEND", "rational"),
    "verification": ("SuiteReport", "random_partition", "random_system", "run_all"),
}
_SOURCES = {name: module for module, names in _EXPORTS.items() for name in names}
# The submodules that ``import eventbounds`` used to load eagerly; they stay
# reachable as attributes.
_SUBMODULES = (*_EXPORTS, "bounds_l2", "bounds_l3", "families")

__version__ = "0.1.0"

__all__ = sorted(_SOURCES)


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
