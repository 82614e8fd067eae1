"""The names of the verification suites, in canonical order, and their budgets.

This module imports nothing, so the command-line parser can list the suites
without loading them.  verification.py defines one suite per name and
refuses to load if its suites and these names differ.
"""

# Canonical suite order: a run reports its suites at each n in this order.
SUITE_ORDER = ("triangles", "cliques", "facets", "cover", "nerve", "anchors",
               "poset", "closure", "heights", "loops", "homology", "euler")

# default per-suite caps on n; beyond these a run records a skip unless told
# to ignore budgets.  Each suite alone costs at most about 2 s at its cap on
# one 2-vCPU machine.  The `homology` subcommand shares the homology cap:
# the suite alone took 1.6-1.8 s at n = 32 and 2.2-2.4 s at n = 33.
BUDGETS = {**dict.fromkeys(SUITE_ORDER, 20), "homology": 32, "euler": 25}
