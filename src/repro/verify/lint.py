"""Project lint: the repository's invariant boundaries as AST rules.

Several of the repo's correctness arguments are *policy* rather than
code — "accumulation primitives live only in kernel-bearing layers",
"every duration comes from one clock", "only the fault harness sends
signals".  Those hold today because the relevant PRs
were careful, but nothing stops a future change from violating them
silently.  This module encodes each policy as a rule over the stdlib
:mod:`ast` (no third-party lint framework) and runs the set over
``src/`` as a tier-1 test.

Rules
-----
``REP001`` **accumulation-boundary** — ``np.add.at`` / ``np.bincount``
    calls are confined to the kernel-bearing layers (``core``, ``dm``,
    ``hypergraph``, ``kernels``, ``native``, ``partition``,
    ``runtime``, ``simulate``, ``sparse``, ``verify``).  Orchestration
    layers (``engine``, ``sweep``, ``experiments``, ``generators``,
    the top-level modules) must route numeric accumulation through
    those layers, so every accumulate that can affect bit-identity is
    auditable in one place.
``REP002``, ``REP003`` — retired with the shared-memory SpMV worker
    pool they guarded (no barrier sync; finalized shared segments).
    The IDs stay reserved so the later rules keep theirs.
``REP004`` **env-via-resolvers** — ``os.environ`` / ``os.getenv``
    access is confined to the resolver modules (``native/build.py``,
    ``experiments/config.py``).  Scattered env reads make runs
    irreproducible in ways no config dump captures.
``REP005`` **no-mutable-default** — no mutable default arguments
    (list/dict/set displays or constructor calls): defaults evaluate
    once and alias across calls.
``REP006`` **no-bare-except** — no bare ``except:``; it swallows
    ``KeyboardInterrupt``/``SystemExit`` and hides worker teardown
    bugs.  (``except BaseException`` is allowed where intentional —
    a campaign worker reports every failure to its coordinator.)
``REP007`` **native-layering** — :mod:`repro.native` must not import
    ``repro.runtime`` / ``repro.engine`` / ``repro.sweep`` /
    ``repro.hypergraph``: the kernel backend is a leaf the runtime and
    the partitioner depend on, never the reverse (cycles there would
    break the pre-fork library-load contract).
``REP008`` **one-clock** — direct ``time.perf_counter`` reads are
    confined to :mod:`repro.obs`; everything else times through
    ``repro.obs.now()`` (or a ``span``), so every duration in ``src/``
    comes from one clock and is visible to the tracing layer.
``REP009`` **sigkill-confined** — ``os.kill`` calls and ``SIGKILL``
    references are confined to :mod:`repro.sweep.faults` (the fault
    injection harness).  Production code reaps children only through
    ``Process.kill()`` on the coordinator side — signalling arbitrary
    pids bypasses the reaper discipline and can hit a recycled pid.
``REP010`` **one-ordering** — ``np.lexsort`` and stable
    ``argsort`` calls (``kind="stable"`` or ``"mergesort"``, function
    or method form) are confined to :mod:`repro.kernels`, whose
    ``stable_order`` is the one ordering kernel: bounded integer ids
    sort there in linear time.  The allowlist names the sorts whose
    keys are not bounded non-negative ids: the negated sizes of
    ``core/s2d.py``.

Each violation carries its rule ID; suppressing one requires editing
the rule's allowlist here — visible in review — rather than a magic
comment.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

__all__ = ["LintViolation", "RULES", "lint_paths", "lint_source", "run_lint"]

#: rule id → (summary, rationale) — the catalog DESIGN.md renders.
#: REP002/REP003 are retired; their IDs are not reused.
RULES: dict[str, tuple[str, str]] = {
    "REP001": (
        "accumulation primitives confined to kernel-bearing layers",
        "every np.add.at/np.bincount that can affect bit-identity must be "
        "auditable in the numeric layers, not scattered in orchestration",
    ),
    "REP004": (
        "os.environ/os.getenv only in resolver modules",
        "scattered env reads make runs irreproducible invisibly",
    ),
    "REP005": (
        "no mutable default arguments",
        "defaults evaluate once and alias across calls",
    ),
    "REP006": (
        "no bare except",
        "swallows KeyboardInterrupt/SystemExit and hides teardown bugs",
    ),
    "REP007": (
        "repro.native must not import runtime/engine/sweep/hypergraph",
        "the kernel backend is a leaf; cycles break the pre-fork load contract",
    ),
    "REP008": (
        "time.perf_counter only in repro.obs",
        "all timings flow through obs.now()/span so one clock feeds both "
        "profiles and traces",
    ),
    "REP009": (
        "os.kill/SIGKILL only in sweep/faults.py",
        "production code reaps children via Process.kill(); raw signals "
        "bypass the reaper discipline and can hit a recycled pid",
    ),
    "REP010": (
        "np.lexsort/stable argsort only in repro.kernels (plus allowlist)",
        "bounded integer ids sort through kernels.stable_order in linear "
        "time; a comparison sort elsewhere is a slow second ordering path",
    ),
}

# First path segment (relative to the repro package) of the layers
# allowed to call accumulation primitives.
_ACCUM_LAYERS = frozenset(
    {"core", "dm", "hypergraph", "kernels", "native", "partition",
     "runtime", "simulate", "sparse", "verify"}
)
_ENV_MODULES = frozenset({"native/build.py", "experiments/config.py"})
_CLOCK_LAYER = "obs"
_NATIVE_FORBIDDEN = ("repro.runtime", "repro.engine", "repro.sweep", "repro.hypergraph")
_SIGKILL_MODULE = "sweep/faults.py"
_ORDERING_LAYER = "kernels"
# Sorts whose keys are not bounded non-negative ids (see REP010).
_ORDERING_MODULES = frozenset({"core/s2d.py"})
_STABLE_KINDS = frozenset({"stable", "mergesort"})
_MUTABLE_CTORS = frozenset({"list", "dict", "set", "defaultdict", "OrderedDict"})


@dataclass(frozen=True)
class LintViolation:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _Visitor(ast.NodeVisitor):
    def __init__(self, rel: str):
        self.rel = rel
        self.layer = rel.split("/", 1)[0] if "/" in rel else ""
        self.out: list[LintViolation] = []
        self.env_names: set[str] = set()  # names bound to os.environ/getenv
        self.sigkill_names: set[str] = set()  # SIGKILL imported directly

    def flag(self, rule: str, node: ast.AST, message: str) -> None:
        self.out.append(
            LintViolation(rule, self.rel, getattr(node, "lineno", 0), message)
        )

    # ------------------------------------------------------------- imports

    def visit_Import(self, node: ast.Import) -> None:
        if self.rel.startswith("native/"):
            for a in node.names:
                if a.name.startswith(_NATIVE_FORBIDDEN):
                    self.flag("REP007", node, f"native layer imports {a.name}")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        mod = node.module or ""
        if mod == "os":
            for a in node.names:
                if a.name in ("environ", "getenv") and not self._env_allowed():
                    self.flag("REP004", node, f"imports os.{a.name}")
                if a.name == "kill" and not self._sigkill_allowed():
                    self.flag("REP009", node, "imports os.kill")
        if mod == "signal" and not self._sigkill_allowed():
            for a in node.names:
                if a.name == "SIGKILL":
                    self.flag("REP009", node, "imports signal.SIGKILL")
                    self.sigkill_names.add(a.asname or a.name)
        if mod == "time" and self.layer != _CLOCK_LAYER:
            for a in node.names:
                if a.name == "perf_counter":
                    self.flag("REP008", node, "imports time.perf_counter")
        if self.rel.startswith("native/") and mod.startswith(_NATIVE_FORBIDDEN):
            self.flag("REP007", node, f"native layer imports from {mod}")
        self.generic_visit(node)

    # --------------------------------------------------------------- calls

    def visit_Call(self, node: ast.Call) -> None:
        name = _dotted(node.func)
        if name:
            self._check_accumulation(node, name)
            self._check_ordering(node, name)
            if name == "os.getenv" and not self._env_allowed():
                self.flag("REP004", node, f"environment read via {name}")
            if name == "os.kill" and not self._sigkill_allowed():
                self.flag(
                    "REP009",
                    node,
                    "os.kill outside sweep/faults.py "
                    "(reap children via Process.kill())",
                )
        self.generic_visit(node)

    def _check_accumulation(self, node: ast.Call, name: str) -> None:
        base = name.split(".", 1)[0]
        is_accum = (
            base in ("np", "numpy")
            and (name.endswith(".add.at") or name.endswith(".bincount"))
        ) or name in ("bincount",)
        if is_accum and self.layer not in _ACCUM_LAYERS:
            self.flag(
                "REP001",
                node,
                f"accumulation primitive {name} outside kernel-bearing layers",
            )

    def _check_ordering(self, node: ast.Call, name: str) -> None:
        if self.layer == _ORDERING_LAYER or self.rel in _ORDERING_MODULES:
            return
        last = name.rsplit(".", 1)[-1]
        if last == "lexsort":
            what = name
        elif last == "argsort" and any(
            kw.arg == "kind"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value in _STABLE_KINDS
            for kw in node.keywords
        ):
            what = f"stable {name}"
        else:
            return
        self.flag(
            "REP010", node, f"{what} outside repro.kernels (use stable_order)"
        )

    # ---------------------------------------------------------- attributes

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == "environ":
            name = _dotted(node)
            if name == "os.environ" and not self._env_allowed():
                self.flag("REP004", node, "direct os.environ access")
        if node.attr == "SIGKILL" and not self._sigkill_allowed():
            self.flag(
                "REP009",
                node,
                f"use of {_dotted(node) or node.attr} outside sweep/faults.py",
            )
        if node.attr == "perf_counter" and self.layer != _CLOCK_LAYER:
            if _dotted(node) == "time.perf_counter":
                self.flag(
                    "REP008",
                    node,
                    "direct time.perf_counter outside repro.obs "
                    "(use repro.obs.now())",
                )
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if node.id in self.sigkill_names and isinstance(node.ctx, ast.Load):
            self.flag("REP009", node, f"use of imported {node.id}")
        self.generic_visit(node)

    # ------------------------------------------------------------ defaults

    def _check_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for d in defaults:
            bad = isinstance(d, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                                 ast.DictComp, ast.SetComp))
            if isinstance(d, ast.Call):
                ctor = _dotted(d.func)
                bad = ctor is not None and ctor.split(".")[-1] in _MUTABLE_CTORS
            if bad:
                self.flag(
                    "REP005",
                    d,
                    f"mutable default argument in {node.name}()",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    # ------------------------------------------------------------- excepts

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.flag("REP006", node, "bare except")
        self.generic_visit(node)

    # -------------------------------------------------------------- helpers

    def _env_allowed(self) -> bool:
        return self.rel in _ENV_MODULES

    def _sigkill_allowed(self) -> bool:
        return self.rel == _SIGKILL_MODULE


def lint_source(source: str, rel: str) -> list[LintViolation]:
    """Lint one module's source.

    ``rel`` is the path relative to the ``repro`` package root with
    POSIX separators (e.g. ``"native/build.py"``); the allowlists key
    on it.  A syntax error is itself reported as a violation (rule
    ``REP000``) rather than raised — the linter must never crash on
    the tree it audits.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            LintViolation("REP000", rel, exc.lineno or 0, f"syntax error: {exc.msg}")
        ]
    v = _Visitor(rel)
    v.visit(tree)
    return sorted(v.out, key=lambda x: (x.path, x.line, x.rule))


def lint_paths(paths, root: Path) -> list[LintViolation]:
    """Lint explicit files; ``root`` is the ``repro`` package directory
    the allowlist-relative paths are computed against."""
    out: list[LintViolation] = []
    for p in paths:
        p = Path(p)
        try:
            rel = p.resolve().relative_to(Path(root).resolve()).as_posix()
        except ValueError:
            rel = p.name
        out.extend(lint_source(p.read_text(encoding="utf-8"), rel))
    return out


def run_lint(root: Path | str | None = None) -> list[LintViolation]:
    """Lint every ``*.py`` under the ``repro`` package (or ``root``)."""
    if root is None:
        root = Path(__file__).resolve().parent.parent
    root = Path(root)
    return lint_paths(sorted(root.rglob("*.py")), root)
