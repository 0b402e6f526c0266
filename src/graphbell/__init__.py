"""Exact counting of non-equivalent proper graph colorings.

The package computes, with exact integer and rational arithmetic only, how
many ways the vertex set of a graph partitions into stable sets (overall,
by class count, and on average), provides independent closed forms for the
classic families, and grid-verifies a catalog of strict inequalities
between these invariants.
"""

from .closed_forms import (
    FamilyAggregates,
    aggregates_for,
    complete_aggregates,
    cycle_aggregates,
    cycle_pk1_aggregates,
    empty_aggregates,
    h3_tail_aggregates,
    hnr_pk1_aggregates,
    lemma15_identity_check,
    tree_aggregates,
    tree_pk1_aggregates,
)
from .coloring_engine import (
    ProfileCache,
    SHARED_PROFILE_CACHE,
    StirlingProfile,
    avg_colors,
    bell_graph,
    brute_force_profile,
    profile,
    total_graph,
)
from .errors import DomainError, GraphBellError, ResourceError, UsageError
from .graph_core import (
    CanonicalKey,
    FamilyKind,
    FamilySpec,
    Graph,
    build,
    canonical_key,
    load_edge_list,
    parse_edge_list,
    random_graph,
)
from .inequality_verifier import (
    INEQUALITY_IDS,
    InequalityReport,
    check,
    prop7_sample_check,
    scan,
    summarize,
)
from .sequences import (
    BigSeqCache,
    avg_blocks,
    bell,
    shared_cache,
    stirling2,
    two_bell,
)

__version__ = "0.1.0"
