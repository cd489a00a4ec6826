"""Plan-IR checker: golden instances verify clean, seeded mutations are
all flagged, and the serialize/engine verification hooks fire.

The mutation corpus is the checker's own test oracle: every mutation
class is a realistic corruption (an index nudged out of range, one send
slot dropped, two parts' receives cross-wired, a tampered ledger entry)
applied to a deep copy of a *verified-clean* golden artifact, so a
mutation the checker misses is a hole in the invariant catalog, not a
test artifact.
"""

import copy

import numpy as np
import pytest

from repro.engine import PartitionEngine
from repro.errors import SerializationError, VerificationError
from repro.partition.serialize import load_plan, save_plan
from repro.runtime import compile_plan, shard_plan
from repro.simulate.machine import MachineModel
from repro.verify import check_plan, check_shards, verify_plan

from tests.test_runtime import CFG, partitioned_instances  # noqa: F401

pytestmark = pytest.mark.check


@pytest.fixture(scope="module")
def verified_artifacts(partitioned_instances):  # noqa: F811
    """(partition, plan, shards) per golden instance — compiled once."""
    out = []
    for p, mode in partitioned_instances:
        plan = compile_plan(p)
        assert plan.executor == mode
        out.append((p, plan, shard_plan(p, plan)))
    return out


def test_all_golden_instances_verify_clean(verified_artifacts):
    """All 7 pristine instances — covering all 3 execution models —
    pass both the plan-level and the shard-level checker."""
    executors = set()
    for _, plan, shards in verified_artifacts:
        report = verify_plan(plan, shards, raise_on_error=False)
        assert report.ok, report.summary()
        assert len(report.checks) >= 10
        executors.add(plan.executor)
    assert executors == {"single", "two", "routed"}
    assert len(verified_artifacts) == 7


def test_verify_plan_raises_on_violation(verified_artifacts):
    # Instance 1 (s2d on the mesh) has nonempty pre/fold pipelines.
    _, plan, shards = verified_artifacts[1]
    bad = copy.deepcopy(plan)
    bad.fold_rows[0] = bad.nrows + 7
    with pytest.raises(VerificationError, match="fold_rows"):
        verify_plan(bad)
    # raise_on_error=False returns the report instead.
    assert not verify_plan(bad, raise_on_error=False).ok


# ----------------------------------------------------------------------
# Mutation corpus
# ----------------------------------------------------------------------
#
# Each mutator takes deep-copied (plan, shards) and returns True when it
# could apply to this instance (feature present), mutating in place.

def _mut_pre_cols_oob(plan, shards):
    if plan.pre_cols.size == 0:
        return False
    plan.pre_cols[0] = plan.ncols
    return True


def _mut_main_rows_oob(plan, shards):
    if plan.main_rows is None or plan.main_rows.size == 0:
        return False
    plan.main_rows[-1] = plan.nrows + 2
    return True


def _mut_main_rows_shuffled(plan, shards):
    """The main section with its rows out of order (each nonzero kept
    whole), which the native row-segmented apply cannot sum."""
    if plan.main_rows is None or np.unique(plan.main_rows).size < 2:
        return False
    perm = np.random.default_rng(0).permutation(plan.main_rows.size)
    plan.main_rows = plan.main_rows[perm]
    plan.main_cols = plan.main_cols[perm]
    plan.main_vals = plan.main_vals[perm]
    return True


def _mut_fold_rows_oob(plan, shards):
    if plan.fold_rows.size == 0:
        return False
    plan.fold_rows[0] = -1
    return True


def _mut_group_take_permuted(plan, shards):
    g = plan.group1
    if g.mode != "hist" or g.take is None or g.take.size < 2:
        return False
    g.take[:] = g.take[::-1].copy()
    return True


def _mut_group_index_negative(plan, shards):
    g = plan.group1
    if g.mode == "empty" or g.index.size == 0:
        return False
    g.index[0] = -3
    return True


def _mut_group_length_shrunk(plan, shards):
    g = plan.group1
    if g.mode == "empty" or g.length < 2:
        return False
    g.length = int(g.length) - 1
    return True


def _mut_nnz_mismatch(plan, shards):
    plan.nnz = int(plan.nnz) + 1
    return True


def _mut_pre_vals_truncated(plan, shards):
    if plan.pre_vals.size == 0:
        return False
    plan.pre_vals = plan.pre_vals[:-1]
    return True


def _mut_send_slot_dropped(plan, shards):
    for s in shards:
        for spec in s.sends.values():
            if spec.x_slots.size:
                spec.x_slots = spec.x_slots[:-1]
                spec.x_cols = spec.x_cols[:-1]
                return True
            if spec.p_slots.size:
                spec.p_slots = spec.p_slots[:-1]
                spec.p_idx = spec.p_idx[:-1]
                return True
    return False


def _mut_send_slot_duplicated(plan, shards):
    for s in shards:
        for spec in s.sends.values():
            if spec.x_slots.size >= 2:
                spec.x_slots[0] = spec.x_slots[1]
                return True
            if spec.p_slots.size >= 2:
                spec.p_slots[0] = spec.p_slots[1]
                return True
    return False


def _mut_recvs_cross_wired(plan, shards):
    for ph in plan.ledger.phase_names:
        a = [s for s in shards if ph in s.recvs_x and s.recvs_x[ph].slots.size]
        if len(a) >= 2:
            a[0].recvs_x[ph], a[1].recvs_x[ph] = a[1].recvs_x[ph], a[0].recvs_x[ph]
            return True
    return False


def _mut_own_rows_overlap(plan, shards):
    a, b = shards[0], shards[1]
    if a.own_rows.size == 0 or b.own_rows.size == 0:
        return False
    b.own_rows[0] = a.own_rows[0]
    return True


def _mut_fold_gather_oob(plan, shards):
    for s in shards:
        if s.fold_gather.loc_idx.size:
            s.fold_gather.loc_idx[0] = 10**6
            return True
    return False


def _mut_ledger_words_tampered(plan, shards):
    for ph in plan.ledger.phase_names:
        book = plan.ledger._phases[ph]
        if book:
            pair = next(iter(book))
            book[pair] += 5
            plan.ledger._agg.pop(ph, None)
            return True
    return False


MUTATIONS = {
    "pre-cols-oob": _mut_pre_cols_oob,
    "main-rows-oob": _mut_main_rows_oob,
    "main-rows-shuffled": _mut_main_rows_shuffled,
    "fold-rows-oob": _mut_fold_rows_oob,
    "group-take-permuted": _mut_group_take_permuted,
    "group-index-negative": _mut_group_index_negative,
    "group-length-shrunk": _mut_group_length_shrunk,
    "nnz-mismatch": _mut_nnz_mismatch,
    "pre-vals-truncated": _mut_pre_vals_truncated,
    "send-slot-dropped": _mut_send_slot_dropped,
    "send-slot-duplicated": _mut_send_slot_duplicated,
    "recvs-cross-wired": _mut_recvs_cross_wired,
    "own-rows-overlap": _mut_own_rows_overlap,
    "fold-gather-oob": _mut_fold_gather_oob,
    "ledger-words-tampered": _mut_ledger_words_tampered,
}


def test_mutation_corpus_has_required_breadth():
    assert len(MUTATIONS) >= 12


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_every_mutation_class_is_flagged(name, verified_artifacts):
    """Every mutation class must apply to at least one golden instance
    and be flagged by the checker on every instance it applies to."""
    mutate = MUTATIONS[name]
    applied = 0
    for _, plan, shards in verified_artifacts:
        mplan = copy.deepcopy(plan)
        mshards = copy.deepcopy(shards)
        if not mutate(mplan, mshards):
            continue
        applied += 1
        report = verify_plan(mplan, mshards, raise_on_error=False)
        assert not report.ok, (
            f"mutation {name!r} on executor {plan.executor!r} "
            "was not flagged by the checker"
        )
    assert applied > 0, f"mutation {name!r} applied to no golden instance"


def test_mutated_plan_alone_is_flagged_without_shards(verified_artifacts):
    """check_plan (no shards) catches the plan-level classes on its own."""
    for _, plan, _ in verified_artifacts:
        bad = copy.deepcopy(plan)
        bad.fold_rows = np.append(bad.fold_rows, bad.nrows + 5)
        assert not check_plan(bad).ok


# ----------------------------------------------------------------------
# serialize hardening (satellite: load_plan verification-on-load)
# ----------------------------------------------------------------------


def test_load_plan_verifies_by_default(tmp_path, verified_artifacts):
    _, plan, _ = verified_artifacts[1]
    path = tmp_path / "plan.npz"
    save_plan(plan, path)
    loaded = load_plan(path)  # clean file passes with verify on
    assert np.array_equal(loaded.fold_rows, plan.fold_rows)

    bad = copy.deepcopy(plan)
    bad.fold_rows[0] = bad.nrows + 1
    bad_path = tmp_path / "bad.npz"
    save_plan(bad, bad_path)
    with pytest.raises(SerializationError, match="failed plan verification"):
        load_plan(bad_path)
    # Opt-out for trusted files loads the same bytes without the check.
    trusted = load_plan(bad_path, verify=False)
    assert trusted.fold_rows[0] == bad.nrows + 1


def test_load_plan_rejects_undecodable_file(tmp_path):
    path = tmp_path / "junk.npz"
    np.savez(path, not_a_header=np.arange(3))
    with pytest.raises(SerializationError, match="not a repro save file"):
        load_plan(path)


def test_load_plan_rejects_wrong_payload(tmp_path, verified_artifacts):
    from repro.partition.serialize import save_partition

    p, _, _ = verified_artifacts[0]
    path = tmp_path / "part.npz"
    save_partition(p, path)
    with pytest.raises(SerializationError, match="holds a 'partition'"):
        load_plan(path)


# ----------------------------------------------------------------------
# engine hook
# ----------------------------------------------------------------------


def test_engine_compiled_plan_verify_hook(verified_artifacts):
    p, _, _ = verified_artifacts[0]
    eng = PartitionEngine(p.matrix, seed=3, machine=MachineModel())
    plan = eng.plan("s2d-heuristic", 3, config=CFG)
    cplan = eng.compiled_plan(plan, verify=True)  # clean plan passes
    # The memo returns the same object; corrupting it makes the next
    # verify=True fetch raise while verify=False still returns it.
    cplan.nnz = int(cplan.nnz) + 1
    assert eng.compiled_plan(plan) is cplan
    with pytest.raises(VerificationError):
        eng.compiled_plan(plan, verify=True)


def test_check_shards_rejects_wrong_shard_count(verified_artifacts):
    _, plan, shards = verified_artifacts[0]
    report = check_shards(plan, shards[:-1])
    assert not report.ok
    assert any("one shard per part" in str(v) for v in report.violations)
