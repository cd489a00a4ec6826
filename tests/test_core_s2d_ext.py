"""The (A3) balance-repair extension of Algorithm 1."""

import numpy as np
import pytest

from repro.core import s2d_heuristic, s2d_heuristic_balanced
from repro.generators import banded_with_dense_rows, circuit_like
from repro.hypergraph import PartitionConfig
from repro.partition import partition_1d_rowwise
from tests.comm_oracle import per_processor, single_phase_words

CFG = PartitionConfig(seed=41, ninitial=2, fm_passes=2)


def test_balanced_is_admissible(medium_square):
    k = 8
    p1 = partition_1d_rowwise(medium_square, k, CFG)
    s = s2d_heuristic_balanced(medium_square, x_part=p1.vectors, nparts=k)
    s.validate_s2d()
    assert s.meta["method"] == "heuristic+A3"
    assert s.loads().sum() == medium_square.nnz


def test_balanced_never_worse_balance():
    a = banded_with_dense_rows(400, band=1, ndense=1, dense_fraction=0.5, seed=1)
    k = 16
    p1 = partition_1d_rowwise(a, k, CFG)
    plain = s2d_heuristic(a, x_part=p1.vectors, nparts=k)
    balanced = s2d_heuristic_balanced(a, x_part=p1.vectors, nparts=k)
    assert balanced.load_imbalance() <= plain.load_imbalance() + 1e-12


def test_balanced_repairs_dense_row_overload():
    """A full-ish row saddles its 1D owner; (A3) moves should shed it."""
    a = circuit_like(500, avg_degree=4, ndense=2, dense_fraction=0.5, seed=2)
    k = 16
    p1 = partition_1d_rowwise(a, k, CFG)
    plain = s2d_heuristic(a, x_part=p1.vectors, nparts=k)
    balanced = s2d_heuristic_balanced(a, x_part=p1.vectors, nparts=k)
    if plain.load_imbalance() > 0.05:
        assert balanced.load_imbalance() < plain.load_imbalance()
        assert len(balanced.meta["repair_moves"]) > 0


def test_balanced_no_moves_when_already_balanced(medium_square):
    k = 4
    p1 = partition_1d_rowwise(medium_square, k, CFG)
    balanced = s2d_heuristic_balanced(
        medium_square, x_part=p1.vectors, nparts=k, w_lim=float(medium_square.nnz)
    )
    assert balanced.meta["repair_moves"] == []
    plain = s2d_heuristic(
        medium_square, x_part=p1.vectors, nparts=k, w_lim=float(medium_square.nnz)
    )
    assert np.array_equal(balanced.nnz_part, plain.nnz_part)


def test_balanced_volume_still_simulatable():
    from repro.simulate import run_single_phase

    a = circuit_like(300, avg_degree=4, ndense=1, dense_fraction=0.5, seed=3)
    k = 8
    p1 = partition_1d_rowwise(a, k, CFG)
    s = s2d_heuristic_balanced(a, x_part=p1.vectors, nparts=k)
    run = run_single_phase(s)
    sent_v, _, sent_m, _ = per_processor(k, single_phase_words(s))
    assert np.array_equal(run.ledger.sent_volume(), sent_v)
    assert np.array_equal(run.ledger.sent_msgs(), sent_m)


@pytest.mark.parametrize("model", ["single", "two", "routed"])
def test_breakdown_api(medium_square, model):
    """Each breakdown row's total is its phase time exactly, and the
    rows sum to the run time, under all three execution models."""
    from repro.core import make_s2d_bounded
    from repro.partition import partition_2d_finegrain
    from repro.simulate import MachineModel, evaluate
    from repro.simulate.common import PHASES

    k = 8
    p1 = partition_1d_rowwise(medium_square, k, CFG)
    p = {
        "single": lambda: p1,
        "two": lambda: partition_2d_finegrain(medium_square, k, CFG),
        "routed": lambda: make_s2d_bounded(
            s2d_heuristic(medium_square, x_part=p1.vectors, nparts=k)
        ),
    }[model]()
    machine = MachineModel(alpha=10, beta=2, gamma=1)
    q = evaluate(p, machine=machine)
    bd = q.run.breakdown(machine)
    assert sum(e["total"] for e in bd) == q.time
    for e, ph in zip(bd, q.run.phases, strict=True):
        assert e["name"] == ph.name
        assert e["total"] == machine.phase_time(ph.flops, q.run.ledger, ph.comm_phase)
        assert e["total"] == e["compute"] + (e["bandwidth"] + e["latency"])
    comm = [e for e in bd if e["name"] in PHASES[model]]
    assert [e["name"] for e in comm] == list(PHASES[model])
    assert all(e["latency"] > 0 for e in comm)
