"""The names of the verification suites, in canonical order, and their budgets.

This module imports nothing, so the command-line parser can list the suites
without loading them.  verification.py defines one suite per name and
refuses to load if its suites and these names differ.
"""

# Canonical suite order: a run reports its suites at each n in this order.
SUITE_ORDER = ("triangles", "cliques", "facets", "cover", "nerve", "anchors",
               "poset", "closure", "heights", "loops", "homology", "euler")

# default per-suite caps on n; beyond these a run records a skip unless told
# to ignore budgets.  Each suite alone at n = 20, in a fresh process with its
# per-n builds (graph, cover, nerve, poset) included, took in seconds, median
# of three on a 2-vCPU Xeon: triangles 0.06, cliques 0.11, facets 0.07,
# cover 0.13, nerve 0.31, anchors 0.09, poset 0.17, closure 0.28,
# heights 0.04, loops 0.06, homology 0.05, euler 0.04 (0.15 at its cap,
# n = 25).  The `homology` subcommand shares the homology cap: the suite
# alone took 1.6-1.8 s at n = 32 and 2.2-2.4 s at n = 33.
BUDGETS = {**dict.fromkeys(SUITE_ORDER, 20), "homology": 32, "euler": 25}
