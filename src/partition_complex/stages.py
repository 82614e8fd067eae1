"""The per-n stage chain: every object built on the partitions of one n.

The transfer graph G_n gives the canonical cover C_n; the cover gives the
nerve N_n and its intersection poset; the graph gives the facets of K_n,
and the facets its f-vector.  NContext chains these stages for one n, in
this one place: each is built on first access and kept.  `verify` runs its
suites on one, and `homology` and `export` read the graph, facets and
poset off one.

Each stage imports its builder from the builder's module when it first
runs, so a caller loads only the layers it reads, and a builder replaced
on its module (as the benchmark's span wrappers do) is the one called.
"""

from functools import cached_property
from typing import Optional


class NContext:
    """Shared per-n objects, built lazily and reused across suites."""

    def __init__(self, n: int, seed: Optional[int] = None):
        self.n = n
        self.seed = seed

    @cached_property
    def graph(self):
        from .graph import build_graph

        return build_graph(self.n)

    @cached_property
    def cover(self):
        from .cliques import canonical_cover

        return canonical_cover(self.graph)

    @cached_property
    def nerve(self):
        from .nerve import build_nerve

        return build_nerve(self.graph, self.cover)

    @cached_property
    def facets(self):
        from .cliques import maximal_simplices

        return maximal_simplices(self.graph)

    @cached_property
    def fvector(self):
        from .cliques import enumerate_simplices

        return enumerate_simplices(self.facets)

    @cached_property
    def nerve_fvector(self):
        from .nerve import nerve_fvector

        return nerve_fvector(self.poset)

    @cached_property
    def poset(self):
        from .nerve import build_poset

        return build_poset(self.nerve)

    @cached_property
    def all_cliques(self):
        from .oracles import all_cliques_reference

        return all_cliques_reference(self.graph)

    @cached_property
    def scans(self):
        """Each vertex's transfers by the corner-pair scan oracle, by id."""
        from .oracles import transfers_by_scan

        return [transfers_by_scan(lam) for lam in self.graph.vertices]
