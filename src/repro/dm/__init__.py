"""Dulmage–Mendelsohn decomposition substrate.

The paper's volume-optimal s2D split (Section IV-A) rests on the coarse
DM decomposition of each off-diagonal block: the *horizontal* block
``H`` (more columns than rows) is the unique maximal sub-block whose
reassignment to the column owner turns column traffic into cheaper row
traffic.  Only the coarse decomposition is needed for that: the fine
(block-triangular) form of the square block plays no part in the split.

- :mod:`repro.dm.decomposition` — the horizontal/square/vertical label
  constants and :class:`CoarseDM`, one block's decomposition;
- :mod:`repro.dm.batch` — the batched driver running the coarse
  decomposition over every block of a K×K block structure through
  shared pre-sorted buffers (the s2D hot path): one native
  ``repro_block_dm`` call labels the whole batch, with its own
  maximum matching — the labels do not depend on which maximum
  matching is used — and the result is one read-only
  :class:`~repro.dm.batch.BlockDMTable`.

The NumPy Hopcroft–Karp matching and per-block labelling the kernel is
checked against live in ``tests/dm_oracle.py``.
"""

from repro.dm.batch import BlockDM, BlockDMTable, batched_block_dm
from repro.dm.decomposition import CoarseDM

__all__ = [
    "BlockDM",
    "BlockDMTable",
    "batched_block_dm",
    "CoarseDM",
]
