"""Plan-IR checker: golden instances verify clean, seeded mutations are
all flagged, and the serialize verification hook fires.

The mutation corpus is the checker's own test oracle: every mutation
class is a realistic corruption (an index nudged out of range, a
shuffled main section, a self-message in the ledger, a swapped
executor) applied to a deep copy of a *verified-clean* golden plan, so
a mutation the checker misses is a hole in the invariant catalog, not
a test artifact.
"""

import copy
import io

import numpy as np
import pytest

from repro.engine import PartitionEngine
from repro.errors import SerializationError, VerificationError
from repro.partition.serialize import load_plan, pack_assignment, pack_plan, save_plan
from repro.runtime import compile_plan
from repro.simulate.machine import MachineModel
from repro.verify import check_plan

from tests.test_runtime import (  # noqa: F401
    CFG,
    framed,
    partition_payload,
    partitioned_instances,
)

pytestmark = pytest.mark.check


@pytest.fixture(scope="module")
def verified_artifacts(partitioned_instances):  # noqa: F811
    """(partition, plan) per golden instance — compiled once."""
    out = []
    for p, mode in partitioned_instances:
        plan = compile_plan(p)
        assert plan.executor == mode
        out.append((p, plan))
    return out


# The plan-level checks that run on every plan, whatever its executor.
_ALWAYS_RUN = {
    "plan.executor-mode", "plan.shape", "plan.index-bounds", "group.structure",
    "plan.pipeline-sizes", "plan.nnz-reconcile", "plan.ledger", "plan.phases",
}


def test_all_golden_instances_verify_clean(verified_artifacts):
    """All 7 pristine instances — covering all 3 execution models —
    pass the plan-IR checker."""
    executors = set()
    for _, plan in verified_artifacts:
        report = check_plan(plan)
        assert report.ok, report.summary()
        ran = set(report.checks)
        assert ran >= _ALWAYS_RUN, sorted(_ALWAYS_RUN - ran)
        assert ("plan.main-order" in ran) == (plan.main_rows is not None)
        executors.add(plan.executor)
    assert executors == {"single", "two", "routed"}
    assert len(verified_artifacts) == 7


def test_verify_plan_raises_on_violation(verified_artifacts):
    # Instance 1 (s2d on the mesh) has nonempty pre/fold pipelines.
    _, plan = verified_artifacts[1]
    bad = copy.deepcopy(plan)
    bad.fold_rows[0] = bad.nrows + 7
    with pytest.raises(VerificationError, match="fold_rows"):
        check_plan(bad).raise_if_failed()
    # The report itself never raises.
    assert not check_plan(bad).ok


# ----------------------------------------------------------------------
# Mutation corpus
# ----------------------------------------------------------------------
#
# Each mutator takes a deep-copied plan and returns True when it could
# apply to this instance (feature present), mutating in place.

def _mut_pre_cols_oob(plan):
    if plan.pre_cols.size == 0:
        return False
    plan.pre_cols[0] = plan.ncols
    return True


def _mut_main_rows_oob(plan):
    if plan.main_rows is None or plan.main_rows.size == 0:
        return False
    plan.main_rows[-1] = plan.nrows + 2
    return True


def _mut_main_rows_shuffled(plan):
    """The main section with its rows out of order (each nonzero kept
    whole), which the native row-segmented apply cannot sum."""
    if plan.main_rows is None or np.unique(plan.main_rows).size < 2:
        return False
    perm = np.random.default_rng(0).permutation(plan.main_rows.size)
    plan.main_rows = plan.main_rows[perm]
    plan.main_cols = plan.main_cols[perm]
    plan.main_vals = plan.main_vals[perm]
    return True


def _mut_fold_rows_oob(plan):
    if plan.fold_rows.size == 0:
        return False
    plan.fold_rows[0] = -1
    return True


def _mut_group_take_permuted(plan):
    g = plan.group1
    if g.mode != "hist" or g.take is None or g.take.size < 2:
        return False
    g.take[:] = g.take[::-1].copy()
    return True


def _mut_group_index_negative(plan):
    g = plan.group1
    if g.mode == "empty" or g.index.size == 0:
        return False
    g.index[0] = -3
    return True


def _mut_group_length_shrunk(plan):
    g = plan.group1
    if g.mode == "empty" or g.length < 2:
        return False
    g.length = int(g.length) - 1
    return True


def _mut_nnz_mismatch(plan):
    plan.nnz = int(plan.nnz) + 1
    return True


def _mut_pre_vals_truncated(plan):
    if plan.pre_vals.size == 0:
        return False
    plan.pre_vals = plan.pre_vals[:-1]
    return True


def _mut_main_cols_oob(plan):
    if plan.main_cols is None or plan.main_cols.size == 0:
        return False
    plan.main_cols[0] = plan.ncols
    return True


def _mut_group2_index_oob(plan):
    g = plan.group2
    if g is None or g.mode == "empty" or g.index.size == 0:
        return False
    g.index[-1] = int(g.length)
    return True


def _rebook_first_message(plan, endpoint) -> bool:
    """Move the first message of the first non-empty ledger phase to
    the destination ``endpoint(src, nparts)``."""
    ledger = plan.ledger
    for ph in ledger.phase_names:
        book = ledger._phases[ph]
        if book:
            (src, dst), words = next(iter(book.items()))
            del book[(src, dst)]
            book[(src, endpoint(src, ledger.nparts))] = words
            ledger._agg.pop(ph, None)
            return True
    return False


def _mut_ledger_self_message(plan):
    return _rebook_first_message(plan, lambda src, k: src)


def _mut_ledger_endpoint_oob(plan):
    return _rebook_first_message(plan, lambda src, k: k)


def _mut_phase_flops_negative(plan):
    for ph in plan.phases:
        if ph.flops is not None and ph.flops.size:
            ph.flops[0] = -1
            return True
    return False


def _mut_executor_field_mismatch(plan):
    plan.executor = {"single": "two", "two": "single", "routed": "single"}[plan.executor]
    return True


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
    "main-cols-oob": _mut_main_cols_oob,
    "group2-index-oob": _mut_group2_index_oob,
    "ledger-self-message": _mut_ledger_self_message,
    "ledger-endpoint-oob": _mut_ledger_endpoint_oob,
    "phase-flops-negative": _mut_phase_flops_negative,
    "executor-field-mismatch": _mut_executor_field_mismatch,
}


def test_mutation_corpus_has_required_breadth():
    assert len(MUTATIONS) >= 12


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_every_mutation_class_is_flagged(name, verified_artifacts):
    """Every mutation class must apply to at least one golden instance
    and be flagged by the checker on every instance it applies to."""
    mutate = MUTATIONS[name]
    applied = 0
    for _, plan in verified_artifacts:
        mplan = copy.deepcopy(plan)
        if not mutate(mplan):
            continue
        applied += 1
        report = check_plan(mplan)
        assert not report.ok, (
            f"mutation {name!r} on executor {plan.executor!r} "
            "was not flagged by the checker"
        )
    assert applied > 0, f"mutation {name!r} applied to no golden instance"


def test_mutated_plan_alone_is_flagged_without_shards(verified_artifacts):
    """check_plan flags a fold row appended past the last row on
    every executor."""
    for _, plan in verified_artifacts:
        bad = copy.deepcopy(plan)
        bad.fold_rows = np.append(bad.fold_rows, bad.nrows + 5)
        assert not check_plan(bad).ok


# ----------------------------------------------------------------------
# serialize hardening (satellite: load_plan verification-on-load)
# ----------------------------------------------------------------------


def test_load_plan_verifies_by_default(tmp_path, verified_artifacts):
    _, plan = verified_artifacts[1]
    path = tmp_path / "plan.plan"
    save_plan(plan, path)
    loaded = load_plan(path)  # clean file passes with verify on
    assert np.array_equal(loaded.fold_rows, plan.fold_rows)

    bad = copy.deepcopy(plan)
    bad.fold_rows[0] = bad.nrows + 1
    bad_path = tmp_path / "bad.plan"
    save_plan(bad, bad_path)
    with pytest.raises(SerializationError, match="failed plan verification"):
        load_plan(bad_path)
    # Opt-out for trusted files loads the same bytes without the check.
    trusted = load_plan(bad_path, verify=False)
    assert trusted.fold_rows[0] == bad.nrows + 1


def test_load_plan_rejects_undecodable_file(tmp_path):
    path = tmp_path / "junk.plan"
    path.write_bytes((8).to_bytes(4, "little") + b"not json")
    with pytest.raises(SerializationError, match="not a repro save file"):
        load_plan(path)


def test_load_plan_rejects_wrong_payload(tmp_path, verified_artifacts):
    p, _ = verified_artifacts[0]
    path = tmp_path / "part.plan"
    path.write_bytes(partition_payload(p, version=2, payload="partition"))
    with pytest.raises(SerializationError, match="holds a 'partition'"):
        load_plan(path)


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_every_mutation_class_is_refused_on_load(name, verified_artifacts):
    """Every mutation class, written through save_plan, is refused by
    load_plan on every golden instance it applies to."""
    applied = 0
    for _, plan in verified_artifacts:
        mplan = copy.deepcopy(plan)
        if not MUTATIONS[name](mplan):
            continue
        applied += 1
        buf = io.BytesIO()
        save_plan(mplan, buf)
        with pytest.raises(SerializationError):
            load_plan(io.BytesIO(buf.getvalue()))
    assert applied > 0


def _unframed_payloads(plan, p) -> dict[str, bytes]:
    """Blobs that must not frame as a plan, by what is wrong with them."""
    blob = pack_plan(plan)
    hlen = int.from_bytes(blob[:4], "little")
    npz = io.BytesIO()
    np.savez_compressed(npz, header=np.frombuffer(b"{}", dtype=np.uint8))
    header = framed({"version": 2, "payload": "comm-plan",
                     "arrays": [["pre_cols", "<i8", [10**6]]]})
    return {
        "empty": b"",
        "truncated-length": blob[:3],
        "truncated-header": blob[: 4 + hlen // 2],
        "truncated-arrays": blob[:-8],
        "trailing-bytes": blob + bytes(8),
        "header-past-end": (10**6).to_bytes(4, "little") + blob[4:],
        "header-not-utf8": (4).to_bytes(4, "little") + b"\xff\xfe\xfd\xfc",
        "header-not-json": (8).to_bytes(4, "little") + b"{not js}",
        "header-not-object": framed([1, 2, 3]),
        "arrays-past-end": header,
        "bad-array-entry": framed({"version": 2, "payload": "comm-plan",
                                   "arrays": [["pre_cols", "object", [1]]]}),
        "assignment": pack_assignment(p),
        "unknown-version": framed({"version": 3, "payload": "comm-plan", "arrays": []}),
        "npz": npz.getvalue(),
    }


def test_load_plan_refuses_unframed_payloads_before_any_view(
    verified_artifacts, monkeypatch
):
    p, plan = verified_artifacts[2]  # routed: the most arrays
    payloads = _unframed_payloads(plan, p)
    views = []
    real = np.frombuffer
    monkeypatch.setattr(np, "frombuffer", lambda *a, **k: views.append(a) or real(*a, **k))
    for case, blob in payloads.items():
        with pytest.raises(SerializationError):
            load_plan(io.BytesIO(blob))
        assert views == [], case
    load_plan(io.BytesIO(pack_plan(plan)))
    assert views  # the spy sees the views of a good payload


# ----------------------------------------------------------------------
# engine
# ----------------------------------------------------------------------


def test_engine_compiled_plan_verify_hook(verified_artifacts):
    """The engine's memoized plan checks clean, and the checker sees a
    corruption of the memoized object on the next fetch."""
    p, _ = verified_artifacts[0]
    eng = PartitionEngine(p.matrix, seed=3, machine=MachineModel())
    plan = eng.plan("s2d-heuristic", 3, config=CFG)
    cplan = eng.compiled_plan(plan)
    check_plan(cplan).raise_if_failed()  # clean plan passes
    cplan.nnz = int(cplan.nnz) + 1
    assert eng.compiled_plan(plan) is cplan
    with pytest.raises(VerificationError, match="nnz"):
        check_plan(eng.compiled_plan(plan)).raise_if_failed()
