"""Dulmage–Mendelsohn decomposition substrate.

The paper's volume-optimal s2D split (Section IV-A) rests on the coarse
DM decomposition of each off-diagonal block: the *horizontal* block
``H`` (more columns than rows) is the unique maximal sub-block whose
reassignment to the column owner turns column traffic into cheaper row
traffic.  Only the coarse decomposition is needed for that: the fine
(block-triangular) form of the square block plays no part in the split.
This package implements the chain from scratch:

- :mod:`repro.dm.matching` — Hopcroft–Karp maximum bipartite matching;
- :mod:`repro.dm.decomposition` — the coarse (horizontal/square/
  vertical) decomposition built from alternating-path reachability,
  plus König-theorem verification helpers;
- :mod:`repro.dm.batch` — the batched driver running the coarse
  decomposition over every block of a K×K block structure through
  shared pre-sorted buffers (the s2D hot path): one native
  ``repro_block_dm`` call labels the whole batch, with its own
  maximum matching — the labels do not depend on which maximum
  matching is used — and the result is one read-only
  :class:`~repro.dm.batch.BlockDMTable`.
"""

from repro.dm.batch import BlockDM, BlockDMTable, batched_block_dm
from repro.dm.decomposition import CoarseDM, coarse_dm, minimum_cover_size
from repro.dm.matching import hopcroft_karp, is_matching, matching_size

__all__ = [
    "BlockDM",
    "BlockDMTable",
    "batched_block_dm",
    "CoarseDM",
    "coarse_dm",
    "minimum_cover_size",
    "hopcroft_karp",
    "is_matching",
    "matching_size",
]
