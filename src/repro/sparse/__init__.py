"""Sparse-matrix substrate.

Thin, explicit utilities over :mod:`scipy.sparse` used throughout the
library:

- :mod:`repro.sparse.coo` — canonical COO triplet access and hygiene;
- :mod:`repro.sparse.blocks` — the K×K block structure a vector
  partition induces on a matrix (the central object of the paper's
  Section III);
- :mod:`repro.sparse.properties` — the matrix statistics reported in
  the paper's Tables I and IV;
- :mod:`repro.sparse.io_mm` — MatrixMarket coordinate I/O;
- :mod:`repro.sparse.permute` — permuted / block views for
  visualisation (Figure 1).
"""

from repro.sparse.blocks import BlockStructure
from repro.sparse.coo import canonical_coo, coo_triplets
from repro.sparse.io_mm import read_matrix_market, write_matrix_market
from repro.sparse.permute import block_permutation, spy_string
from repro.sparse.properties import MatrixProperties, matrix_properties

__all__ = [
    "BlockStructure",
    "canonical_coo",
    "coo_triplets",
    "read_matrix_market",
    "write_matrix_market",
    "block_permutation",
    "spy_string",
    "MatrixProperties",
    "matrix_properties",
]
