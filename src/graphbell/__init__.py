"""Exact counting of non-equivalent proper graph colorings.

The package computes, with exact integer and rational arithmetic only, how
many ways the vertex set of a graph partitions into stable sets (overall,
by class count, and on average), provides independent closed forms for the
classic families, and grid-verifies a catalog of strict inequalities
between these invariants.  It is imported from its modules, e.g.
``graphbell.coloring_engine``; the package holds only ``__version__``.
"""

__version__ = "0.1.0"
