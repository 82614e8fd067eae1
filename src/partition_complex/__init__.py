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
    TriangleClass,
    canonical_cover,
    classify_clique,
    classify_triangle,
    enumerate_simplices,
    format_facet_lines,
    full_star_simplex,
    full_top_simplex,
    fvector_by_corner_counting,
    fvector_by_fiber_counting,
    fvector_table,
    maximal_simplices,
    star_fiber,
    top_fiber,
)
from .graph import (
    PartitionGraph,
    UnknownVertexError,
    adjacency_by_conjugate,
    are_adjacent,
    build_graph,
    edge_decompositions,
    format_dimacs,
    format_edge_list,
    format_legend,
    neighbors,
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
    LoopComplexity,
    ReductionTrace,
    complexity,
    format_loop,
    parse_loop,
    random_closed_walk,
    reduce_loop,
)
from .nerve import (
    IntersectionPoset,
    NerveComplex,
    OrderComplex,
    anchor_intersection,
    build_nerve,
    build_poset,
    closure,
    max_chain_length,
    nerve_fvector,
    order_complex,
    poset_json_dict,
)
from .oracles import partition_count
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
    is_admissible,
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
