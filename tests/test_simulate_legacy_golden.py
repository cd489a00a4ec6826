"""Golden tests: vectorized executors vs the frozen seed executors.

The vectorized single-phase, two-phase and mesh-routed executors must
produce *bit-identical* ledgers (same phase order, same (src, dst)
pairs, same word counts), identical per-phase flops and the same ``y``
as the seed implementations did — on the generator suite, on real
partitioner output, on random admissible partitions, on a rectangular
matrix and on communication-heavy cyclic s2D partitions of an R-MAT
graph and a kNN mesh.

The seed executors are deleted; their outputs on every instance are
frozen in ``tests/fixtures/simulate_seed.npz``, written once by the
seed code and **not regenerable** (the code that wrote it is gone).
Every partition is rebuilt from the stored inputs, so a later change to
a generator, the partitioner or a random stream cannot move the
oracle.  Layout, per instance name ``I`` (listed in ``instances``):

- ``I/row``, ``I/col``, ``I/data``, ``I/shape`` — the canonical COO
  triplets of the matrix;
- ``I/nnz_part``, ``I/x_part``, ``I/y_part``, ``I/nparts`` — the s2D
  partition;
- ``I/x`` — the input vector; ``I/default_x`` is true when the seed
  run took the executors' default ``x`` (then ``I/x`` is that default
  and the executors are called without one);
- ``I/executors`` — which of ``single``, ``two`` and ``routed`` ran
  (``routed`` runs on ``make_s2d_bounded`` of the partition).

And per executor ``E`` of ``I``:

- ``I/E/ledger_phases`` — the ledger's phase names, in order;
  ``I/E/ledger/<i>`` is phase ``i``'s book as ``(src, dst, words)``
  rows;
- ``I/E/phases`` — the run's superstep names; ``I/E/flops/<j>`` is
  superstep ``j``'s per-processor flops (absent when it computes
  nothing);
- ``I/E/y`` — the seed ``y``, as an array, not a digest: today's
  ``y`` agrees to ``rtol=1e-12`` but on most runs not bit for bit.
"""

import pathlib

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import make_s2d_bounded
from repro.partition.types import SpMVPartition, VectorPartition
from repro.simulate import (
    Ledger,
    SpMVRun,
    run_s2d_bounded,
    run_single_phase,
    run_two_phase,
)
from repro.simulate.machine import PhaseCost

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "simulate_seed.npz"
SUITE = ["crystk02", "turon_m", "trdheim", "c-big", "ASIC_680k"]
CYCLIC = [f"{m}-k{k}" for m in ("rmat9", "mesh400") for k in (4, 8)]
EXECUTORS = {
    "single": run_single_phase,
    "two": run_two_phase,
    "routed": run_s2d_bounded,
}


@pytest.fixture(scope="module")
def seed():
    with np.load(FIXTURE) as f:
        return {name: f[name] for name in f.files}


def assert_runs_identical(run_new, run_old):
    assert run_new.ledger.phase_names == run_old.ledger.phase_names
    assert run_new.ledger.as_dict() == run_old.ledger.as_dict()
    assert run_new.ledger.total_volume() == run_old.ledger.total_volume()
    assert run_new.ledger.total_msgs() == run_old.ledger.total_msgs()
    assert np.allclose(run_new.y, run_old.y, rtol=1e-12, atol=1e-14)
    assert [ph.name for ph in run_new.phases] == [ph.name for ph in run_old.phases]
    for ph_new, ph_old in zip(run_new.phases, run_old.phases):
        if ph_old.flops is not None:
            assert np.array_equal(ph_new.flops, ph_old.flops)


def seed_run(seed, name, executor):
    """The frozen seed run of ``executor`` on instance ``name``."""
    pre = f"{name}/{executor}/"
    ledger = Ledger(int(seed[f"{name}/nparts"]))
    for i, phase in enumerate(seed[pre + "ledger_phases"].tolist()):
        src, dst, words = seed[pre + f"ledger/{i}"].T
        ledger.record_pairs(phase, src, dst, words)
    phases = [
        PhaseCost(phase, flops=seed.get(pre + f"flops/{j}"))
        for j, phase in enumerate(seed[pre + "phases"].tolist())
    ]
    nnz = int(seed[f"{name}/row"].size)
    return SpMVRun(y=seed[pre + "y"], ledger=ledger, phases=phases, nnz=nnz)


def check_instance(seed, name):
    """Rebuild instance ``name`` and pin every executor it ran."""
    a = sp.coo_matrix(
        (seed[f"{name}/data"], (seed[f"{name}/row"], seed[f"{name}/col"])),
        shape=tuple(seed[f"{name}/shape"].tolist()),
    )
    p = SpMVPartition(
        matrix=a,
        nnz_part=seed[f"{name}/nnz_part"],
        vectors=VectorPartition(
            x_part=seed[f"{name}/x_part"],
            y_part=seed[f"{name}/y_part"],
            nparts=int(seed[f"{name}/nparts"]),
        ),
        kind="s2D",
    )
    args = () if seed[f"{name}/default_x"] else (seed[f"{name}/x"],)
    executors = seed[f"{name}/executors"].tolist()
    for executor in executors:
        pp = make_s2d_bounded(p) if executor == "routed" else p
        run_new = EXECUTORS[executor](pp, *args)
        assert_runs_identical(run_new, seed_run(seed, name, executor))
    return executors


@pytest.mark.parametrize("matrix", SUITE)
def test_suite_golden_all_executors(seed, matrix):
    """Total volume / message counts pinned against the seed executors
    on the 5-matrix generator suite (random admissible s2D vectors,
    seeded by ``zlib.crc32`` of the matrix name)."""
    assert check_instance(seed, f"suite-{matrix}") == ["single", "two", "routed"]


@pytest.mark.parametrize("matrix", SUITE[:2])
def test_suite_golden_partitioned(seed, matrix):
    """Same pinning on real partitioner output: 1D rowwise under the
    single-phase executor and fine-grain 2D under the two-phase one
    (K = 4, ``PartitionConfig(seed=19, ninitial=2, fm_passes=2)``)."""
    assert check_instance(seed, f"1d-{matrix}") == ["single"]
    assert check_instance(seed, f"finegrain-{matrix}") == ["two"]


@pytest.mark.parametrize("s", [0, 1, 2, 3])
def test_random_partitions_golden(seed, s):
    """``sp.random(40, 40, density=0.15) + I`` with a random admissible
    s2D partition at K in [2, 7)."""
    assert check_instance(seed, f"random-{s}") == ["single", "two", "routed"]


def test_rectangular_golden(seed):
    """Rectangular matrices exercise distinct row/col key spaces."""
    assert check_instance(seed, "rect") == ["single", "two"]


@pytest.mark.parametrize("instance", CYCLIC)
def test_cyclic_golden(seed, instance):
    """Cyclic s2D partitions (``bench_runtime``'s quick instances): almost
    every off-diagonal nonzero reads a remote ``x`` and most partials
    travel, which stresses message assembly, delivery joins and folds."""
    assert check_instance(seed, f"cyclic-{instance}") == ["single", "two", "routed"]
