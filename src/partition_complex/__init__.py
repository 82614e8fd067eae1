"""Transfer graphs on integer partitions and their clique complexes.

The package builds the graph whose vertices are the partitions of n, with
edges given by admissible single-box transfers, then studies the clique
complex of that graph: triangle and clique classification, canonical
covers and their nerves, anchor intersection posets, exact integer
homology, and peak reduction of edge loops.  A verification layer checks
every structural claim against independent recomputations.
"""

from .cliques import (
    CliqueClass,
    CoverMember,
    FVector,
    NotACliqueError,
    TheoremViolationError,
    canonical_cover,
    classify_clique,
    enumerate_simplices,
    format_facet_lines,
    fvector_by_corner_counting,
    fvector_by_fiber_counting,
    fvector_table,
    maximal_simplices,
)
from .graph import (
    PartitionGraph,
    UnknownVertexError,
    build_graph,
    format_dimacs,
    format_edge_list,
    format_legend,
)
from .homology import (
    ChainComplex,
    EmptyComplexError,
    HomologyReport,
    build_chain_complex,
    reduced_homology,
    smith_normal_form,
)
from .loops import (
    EdgeLoop,
    InvalidLoopError,
    ReductionTrace,
    format_loop,
    parse_loop,
    random_closed_walk,
    reduce_loop,
)
from .nerve import (
    IntersectionPoset,
    NerveComplex,
    OrderComplex,
    build_nerve,
    build_poset,
    max_chain_length,
    nerve_fvector,
    order_complex,
    poset_json_dict,
)
from .oracles import adjacency_by_conjugate, partition_count
from .partitions import (
    Corner,
    InadmissibleTransferError,
    InvalidCornerError,
    InvalidPartitionError,
    Partition,
    addable_corners,
    admissible_transfers,
    apply_transfer,
    as_partition,
    conjugate,
    enumerate_partitions,
    format_partition,
    height,
    iter_partitions,
    parse_partition,
    removable_corners,
)
from .verification import (
    BUDGETS,
    SUITE_ORDER,
    VerificationOutcome,
    run_verification,
    verify_single_n,
)

__version__ = "0.1.0"
