"""The generic maximal-clique oracle, checked against plainer enumerations.

`maximal_cliques_reference` is the second route for the facets of the
clique complex, so it is itself checked here by routes that share nothing
with it: the maximal members of `all_cliques_reference` on transfer graphs,
and brute enumeration of vertex subsets on random graphs.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from partition_complex.graph import build_graph
from partition_complex.oracles import (
    all_cliques_reference,
    bron_kerbosch_pivot,
    maximal_cliques_reference,
)


def maximal_by_inclusion(cliques):
    """The cliques contained in no other clique of the list."""
    sets = [frozenset(clique) for clique in cliques]
    return sorted(tuple(sorted(c)) for c in sets if not any(c < other for other in sets))


def test_reference_facets_are_the_maximal_cliques():
    for n in range(1, 11):
        g = build_graph(n)
        assert maximal_cliques_reference(g) == maximal_by_inclusion(all_cliques_reference(g))


@st.composite
def random_graphs(draw):
    """Adjacency sets of a graph on at most 12 vertices."""
    k = draw(st.integers(min_value=0, max_value=12))
    pairs = list(itertools.combinations(range(k), 2))
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    adjacency = [set() for _ in range(k)]
    for (u, v), keep in zip(pairs, present):
        if keep:
            adjacency[u].add(v)
            adjacency[v].add(u)
    return [frozenset(nbrs) for nbrs in adjacency]


@settings(max_examples=200, deadline=None)
@given(random_graphs())
def test_bron_kerbosch_matches_subset_enumeration(adjacency):
    k = len(adjacency)
    cliques = [
        subset
        for size in range(1, k + 1)
        for subset in itertools.combinations(range(k), size)
        if all(v in adjacency[u] for u, v in itertools.combinations(subset, 2))
    ]
    assert bron_kerbosch_pivot(adjacency) == maximal_by_inclusion(cliques)
