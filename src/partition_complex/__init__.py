"""Transfer graphs on integer partitions and their clique complexes.

The package builds the graph whose vertices are the partitions of n, with
edges given by admissible single-box transfers, then studies the clique
complex of that graph: triangle and clique classification, canonical
covers and their nerves, anchor intersection posets, exact integer
homology, and peak reduction of edge loops.  A verification layer checks
every structural claim against independent recomputations.

Importing the package loads none of its modules.  Each name below is
imported from its module on first access (PEP 562), so a caller loads only
the layers it uses.
"""

import importlib

# Module -> the names the package exports from it, each defined there.
_EXPORTS = {
    "cliques": (
        "CliqueClass",
        "CoverMember",
        "FVector",
        "NotACliqueError",
        "canonical_cover",
        "classify_clique",
        "enumerate_simplices",
        "fvector_by_corner_counting",
        "fvector_by_fiber_counting",
        "fvector_table",
        "maximal_simplices",
    ),
    "graph": (
        "PartitionGraph",
        "UnknownVertexError",
        "build_graph",
    ),
    "homology": (
        "ChainComplex",
        "EmptyComplexError",
        "HomologyReport",
        "build_chain_complex",
        "reduced_homology",
        "smith_normal_form",
    ),
    "loops": (
        "EdgeLoop",
        "InvalidLoopError",
        "ReductionTrace",
        "format_loop",
        "parse_loop",
        "random_closed_walk",
        "reduce_loop",
    ),
    "nerve": (
        "IntersectionPoset",
        "NerveComplex",
        "OrderComplex",
        "build_nerve",
        "build_poset",
        "max_chain_length",
        "nerve_fvector",
        "order_complex",
    ),
    "oracles": ("adjacency_by_conjugate", "partition_count"),
    "partitions": (
        "Corner",
        "InvalidPartitionError",
        "Partition",
        "TheoremViolationError",
        "addable_corners",
        "admissible_transfers",
        "as_partition",
        "conjugate",
        "enumerate_partitions",
        "format_partition",
        "height",
        "iter_partitions",
        "parse_partition",
        "removable_corners",
    ),
    "suite_names": ("BUDGETS", "SUITE_ORDER"),
    "verification": ("VerificationOutcome", "verify_single_n"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """An exported name, imported from its module and kept here."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
