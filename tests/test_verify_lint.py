"""Project lint: every rule has a positive (violating snippet flagged)
and a negative (compliant snippet clean) test, and — the tier-1 gate —
``run_lint()`` over the shipped ``src/repro`` tree reports nothing.
"""

import textwrap

import pytest

from repro.verify import lint_paths, lint_source, run_lint
from repro.verify.lint import RULES

pytestmark = pytest.mark.check


def _rules(source, rel="engine/somewhere.py"):
    """Rule IDs flagged for a dedented snippet at a synthetic path."""
    return {v.rule for v in lint_source(textwrap.dedent(source), rel)}


# ---------------------------------------------------------------- REP001


def test_rep001_flags_accumulation_outside_kernel_layers():
    src = """
    import numpy as np

    def tally(idx, vals, n):
        np.add.at(out := np.zeros(n), idx, vals)
        return np.bincount(idx, minlength=n), out
    """
    assert "REP001" in _rules(src, "engine/engine.py")
    assert "REP001" in _rules(src, "sweep/driver.py")


def test_rep001_allows_accumulation_in_kernel_layers():
    src = """
    import numpy as np

    def tally(idx, vals, n):
        np.add.at(out := np.zeros(n), idx, vals)
        return np.bincount(idx, minlength=n), out
    """
    assert "REP001" not in _rules(src, "kernels/spmv.py")
    assert "REP001" not in _rules(src, "runtime/apply.py")


# ---------------------------------------------------------------- REP004


def test_rep004_flags_env_reads_outside_resolvers():
    assert "REP004" in _rules("import os\nV = os.getenv('REPRO_X')\n")
    assert "REP004" in _rules("import os\nV = os.environ.get('REPRO_X')\n")
    assert "REP004" in _rules("from os import environ\n")


def test_rep004_allows_env_reads_in_resolver_modules():
    src = "import os\nV = os.getenv('REPRO_X')\nW = os.environ.get('Y')\n"
    assert "REP004" not in _rules(src, "native/build.py")
    assert "REP004" not in _rules(src, "experiments/config.py")


# ---------------------------------------------------------------- REP005


def test_rep005_flags_mutable_defaults():
    assert "REP005" in _rules("def f(xs=[]):\n    return xs\n")
    assert "REP005" in _rules("def f(*, opts={'a': 1}):\n    return opts\n")
    assert "REP005" in _rules("def f(seen=set()):\n    return seen\n")
    assert "REP005" in _rules("def f(acc=list()):\n    return acc\n")


def test_rep005_allows_immutable_defaults():
    src = "def f(xs=(), name='x', n=0, opt=None, shape=(2, 3)):\n    return xs\n"
    assert "REP005" not in _rules(src)


# ---------------------------------------------------------------- REP006


def test_rep006_flags_bare_except():
    src = """
    def f():
        try:
            return 1
        except:
            return 2
    """
    assert "REP006" in _rules(src)


def test_rep006_allows_typed_except():
    src = """
    def f():
        try:
            return 1
        except (ValueError, BaseException):
            return 2
    """
    assert "REP006" not in _rules(src)


# ---------------------------------------------------------------- REP007


def test_rep007_flags_native_importing_runtime():
    assert "REP007" in _rules("import repro.runtime.plan\n", "native/ops.py")
    assert "REP007" in _rules(
        "from repro.engine import PartitionEngine\n", "native/build.py"
    )
    assert "REP007" in _rules(
        "from repro.hypergraph.refine import _context\n", "native/ops.py"
    )


def test_rep007_allows_runtime_importing_native():
    src = "from repro.native import get_kernels\nimport repro.runtime.plan\n"
    assert "REP007" not in _rules(src, "runtime/apply.py")
    # The rule binds the native layer only.
    assert "REP007" not in _rules("import repro.runtime\n", "engine/engine.py")


# ---------------------------------------------------------------- REP008


def test_rep008_flags_perf_counter_outside_obs():
    assert "REP008" in _rules(
        "import time\nt0 = time.perf_counter()\n", "engine/engine.py"
    )
    assert "REP008" in _rules(
        "from time import perf_counter\n", "runtime/plan.py"
    )


def test_rep008_allows_obs_and_other_time_calls():
    assert "REP008" not in _rules(
        "import time\nt0 = time.perf_counter()\n", "obs/trace.py"
    )
    # Other time functions are fine anywhere — the rule confines the
    # *clock*, not the module.
    assert "REP008" not in _rules(
        "import time\ntime.sleep(0.1)\nfrom time import sleep\n",
        "runtime/plan.py",
    )


# ---------------------------------------------------------------- REP009


def test_rep009_flags_os_kill_and_sigkill_outside_faults():
    assert "REP009" in _rules(
        "import os\nos.kill(pid, 9)\n", "runtime/plan.py"
    )
    assert "REP009" in _rules(
        "import signal\nSIG = signal.SIGKILL\n", "sweep/campaign.py"
    )
    assert "REP009" in _rules(
        "from os import kill\n", "engine/engine.py"
    )
    assert "REP009" in _rules(
        "from signal import SIGKILL\nx = SIGKILL\n", "sweep/orchestrator.py"
    )


def test_rep009_allows_faults_module_and_process_kill():
    src = "import os, signal\nos.kill(os.getpid(), signal.SIGKILL)\n"
    assert "REP009" not in _rules(src, "sweep/faults.py")
    # Coordinator-side reaping through the Process handle is the
    # sanctioned spelling everywhere.
    assert "REP009" not in _rules(
        "def reap(proc):\n    proc.kill()\n    proc.join()\n",
        "sweep/campaign.py",
    )


# ---------------------------------------------------------------- REP010


def test_rep010_flags_comparison_sorts_outside_kernels():
    assert "REP010" in _rules(
        "import numpy as np\no = np.lexsort((c, r))\n", "sparse/coo.py"
    )
    assert "REP010" in _rules(
        "import numpy as np\no = np.argsort(k, kind='stable')\n", "sparse/blocks.py"
    )
    assert "REP010" in _rules(
        "import numpy as np\no = np.argsort(k, kind='mergesort')\n", "dm/batch.py"
    )
    # The method form and a bare imported name count too.
    assert "REP010" in _rules("o = keys.argsort(kind='stable')\n", "hypergraph/models.py")
    assert "REP010" in _rules("from numpy import lexsort\no = lexsort((c, r))\n")


def test_rep010_no_longer_allows_runtime_compile():
    # The runtime sorts nothing, so no runtime module is on the allowlist.
    assert "REP010" in _rules(
        "import numpy as np\no = np.lexsort((k, d, s))\n", "runtime/compile.py"
    )


def test_rep010_allows_kernels_allowlist_and_unstable_sorts():
    src = "import numpy as np\no = np.lexsort((c, r))\np = np.argsort(k, kind='stable')\n"
    assert "REP010" not in _rules(src, "kernels/__init__.py")
    assert "REP010" not in _rules(src, "core/s2d.py")
    assert "REP010" in _rules(src, "hypergraph/bisect.py")
    # Non-stable sorts and the kernel itself are fine anywhere.
    assert "REP010" not in _rules(
        "import numpy as np\no = np.argsort(k)\np = np.argsort(k, kind='quicksort')\n"
        "q = stable_order(k, n)\n",
        "sparse/coo.py",
    )


# ---------------------------------------------------------------- REP000


def test_syntax_error_is_a_violation_not_a_crash():
    flagged = lint_source("def broken(:\n", "engine/bad.py")
    assert [v.rule for v in flagged] == ["REP000"]
    assert "syntax error" in flagged[0].message


# ------------------------------------------------------------- machinery


def test_every_rule_has_catalog_entry_and_both_polarities_covered():
    # REP002/REP003 are retired; their IDs stay reserved, not reused.
    assert set(RULES) == {f"REP00{i}" for i in (1, 4, 5, 6, 7, 8, 9)} | {"REP010"}
    for rule_id, (summary, rationale) in RULES.items():
        assert summary and rationale, rule_id


def test_violation_str_is_file_line_rule():
    v = lint_source("def f(xs=[]):\n    return xs\n", "engine/x.py")[0]
    assert str(v).startswith("engine/x.py:1: REP005")


def test_lint_paths_keys_allowlists_on_relative_path(tmp_path):
    pkg = tmp_path / "native"
    pkg.mkdir()
    mod = pkg / "build.py"
    mod.write_text("import os\nV = os.getenv('X')\n", encoding="utf-8")
    # Relative to tmp_path the file IS native/build.py → env read allowed.
    assert lint_paths([mod], tmp_path) == []
    # Against a different root it falls back to the bare name → flagged.
    flagged = lint_paths([mod], tmp_path / "elsewhere")
    assert [v.rule for v in flagged] == ["REP004"]


def test_shipped_source_tree_is_lint_clean():
    """The tier-1 gate: src/repro carries zero violations."""
    violations = run_lint()
    assert violations == [], "\n".join(str(v) for v in violations)
