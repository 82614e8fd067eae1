"""The generic clique oracles, checked against plainer enumerations.

`all_cliques_reference` and `maximal_cliques_reference` are the second
routes for the cliques and the facets of the clique complex, so they are
themselves checked here by routes that share nothing with them: inclusion
among the listed cliques on transfer graphs, and brute enumeration of vertex
subsets on random graphs.
"""

import itertools
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from partition_complex.graph import build_graph
from partition_complex.oracles import all_cliques_reference, maximal_cliques_reference


def maximal_by_inclusion(cliques):
    """The cliques contained in no other clique of the list."""
    sets = [frozenset(clique) for clique in cliques]
    return sorted(tuple(sorted(c)) for c in sets if not any(c < other for other in sets))


def test_reference_facets_are_the_maximal_cliques():
    for n in range(1, 11):
        g = build_graph(n)
        cliques = all_cliques_reference(g)
        assert maximal_cliques_reference(g, cliques) == maximal_by_inclusion(cliques)


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
def test_clique_oracles_match_subset_enumeration(adjacency):
    """The oracles read only the vertex count and the neighbour sets, so a
    stand-in with `vertices` and `moves` keyed by neighbour is a graph to them."""
    k = len(adjacency)
    g = SimpleNamespace(vertices=range(k), moves=[dict.fromkeys(nbrs) for nbrs in adjacency])
    cliques = [
        subset
        for size in range(1, k + 1)
        for subset in itertools.combinations(range(k), size)
        if all(v in adjacency[u] for u, v in itertools.combinations(subset, 2))
    ]
    assert all_cliques_reference(g) == cliques
    assert maximal_cliques_reference(g, cliques) == maximal_by_inclusion(cliques)
