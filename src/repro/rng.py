"""Deterministic random-number handling.

Every stochastic component of the library (hypergraph coarsening tie
breaks, initial partition growing, workload generators) accepts a
``seed`` argument that is normalized through :func:`as_generator`, so a
whole experiment is reproducible from a single integer.
"""

from __future__ import annotations

import numpy as np

__all__ = ["as_generator", "spawn", "pcg64_words", "set_pcg64_words", "DEFAULT_SEED"]

DEFAULT_SEED = 20150525  # date of the PCO 2015 workshop


def as_generator(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Normalize ``seed`` into a :class:`numpy.random.Generator`.

    ``None`` maps to the library default seed (not to OS entropy): this
    library is a reproduction harness, so "unseeded" still means
    deterministic.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Derive ``n`` independent child generators from ``rng``.

    Used by recursive bisection so that the partition of one subproblem
    does not perturb the random stream of its sibling.
    """
    seeds = rng.integers(0, 2**63 - 1, size=n)
    return [np.random.default_rng(int(s)) for s in seeds]


_WORD = (1 << 64) - 1


def pcg64_words(rng: np.random.Generator) -> np.ndarray | None:
    """The state of a PCG64-backed ``rng`` as six ``uint64`` words —
    state and increment (high, low), ``has_uint32``, ``uinteger`` — the
    form the native partitioner drivers advance; ``None`` for any other
    bit generator."""
    bits = rng.bit_generator
    if type(bits) is not np.random.PCG64:
        return None
    st = bits.state
    state, inc = st["state"]["state"], st["state"]["inc"]
    return np.array(
        [state >> 64, state & _WORD, inc >> 64, inc & _WORD, st["has_uint32"],
         st["uinteger"]],
        dtype=np.uint64,
    )


def set_pcg64_words(rng: np.random.Generator, words: np.ndarray) -> None:
    """Put the state :func:`pcg64_words` describes back into ``rng``."""
    s_hi, s_lo, i_hi, i_lo, has, value = (int(w) for w in words)
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo},
        "has_uint32": has,
        "uinteger": value,
    }
