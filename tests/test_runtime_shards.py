"""Shard decomposition: the per-part program behind every compiled plan.

The contract under test, on every golden instance across all three
execution models (single-phase, two-phase, mesh-routed):
``shard_plan`` decomposes a compiled :class:`~repro.runtime.CommPlan`
into per-part :class:`~repro.runtime.PartPlan`s whose serial replay
(:func:`~repro.runtime.apply_shards_serial`) reproduces ``apply_y``
*bit-identically*, writes exactly the ledger's per-part words into the
message buffers, and owns each output row in exactly one part.
"""

import numpy as np

from repro.runtime import apply_shards_serial, compile_plan, shard_plan
from repro.runtime.shards import PHASES, _N_STEPS

from tests.test_runtime import partitioned_instances  # noqa: F401


def _ledger_words(plan) -> np.ndarray:
    """Predicted per-part words per phase, (K, nphases)."""
    return np.stack(
        [plan.ledger.sent_volume(ph) for ph in PHASES[plan.executor]], axis=1
    )


def test_shards_replay_bit_identical(partitioned_instances):  # noqa: F811
    rng = np.random.default_rng(31)
    for p, mode in partitioned_instances:
        plan = compile_plan(p)
        shards = shard_plan(p, plan)
        assert len(shards) == p.nparts
        assert sorted(s.part for s in shards) == list(range(p.nparts))
        assert all(s.mode == mode for s in shards)
        for _ in range(2):
            x = rng.standard_normal(p.matrix.shape[1])
            assert np.array_equal(apply_shards_serial(plan, shards, x), plan.apply_y(x))


def test_shards_measure_ledger_exactly(partitioned_instances):  # noqa: F811
    for p, _ in partitioned_instances:
        plan = compile_plan(p)
        shards = shard_plan(p, plan)
        stats = np.zeros((p.nparts, len(PHASES[plan.executor])), dtype=np.int64)
        apply_shards_serial(plan, shards, stats=stats)
        assert np.array_equal(stats, _ledger_words(plan))


def test_shards_own_rows_partition_y(partitioned_instances):  # noqa: F811
    for p, _ in partitioned_instances:
        plan = compile_plan(p)
        shards = shard_plan(p, plan)
        rows = np.concatenate([s.own_rows for s in shards])
        assert np.array_equal(np.sort(rows), np.arange(plan.nrows))


def test_phase_tables_cover_all_executors(partitioned_instances):  # noqa: F811
    seen = set()
    for p, mode in partitioned_instances:
        plan = compile_plan(p)
        assert plan.executor == mode
        assert mode in PHASES and mode in _N_STEPS
        assert len(PHASES[mode]) <= _N_STEPS[mode]
        seen.add(mode)
    assert seen == {"single", "two", "routed"}
