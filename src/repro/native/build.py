"""On-demand build cache and dispatch policy for the native C kernels.

The reproduction environment has no network and no numba/Cython, but it
does ship a C compiler — so the native backend compiles its own tiny
kernel library (``kernels.c``) on first use with the host ``cc`` into a
content-hash-named shared object under a build cache directory, and
loads it via :mod:`ctypes`.

Cache key anatomy (the ``.so`` file name)::

    kernels-<sha256(source ‖ cflags ‖ platform ‖ compiler path ‖ abi)[:16]>.so

Any change to the C source, the flags, the interpreter's platform or
the compiler selection produces a new name, so stale libraries are
never picked up; unused old entries are harmless files in the cache.
The cache directory is ``$REPRO_NATIVE_CACHE`` when set, else
``$XDG_CACHE_HOME/repro-native`` (``~/.cache/repro-native``).  Builds
write to a temp name in the cache dir and ``os.replace`` into place, so
concurrent processes race benignly.

Backend resolution (:func:`resolve_backend`) maps the user-facing
``backend`` kwarg plus the ``REPRO_NATIVE`` environment flag onto a
concrete kernel choice:

- ``backend="numpy"`` / ``"native"`` — explicit; ``"native"`` raises
  :class:`~repro.errors.ConfigError` when the library cannot be built;
- ``backend="auto"`` (and the default ``None`` with ``REPRO_NATIVE``
  unset or ``1``) — native when a compiler is available, else a
  *silent* fall back to the NumPy kernels with the reason recorded in
  :func:`native_status`;
- ``REPRO_NATIVE=0`` — the default becomes ``"numpy"`` (explicit
  kwargs still win).

Build state is process-global: one failed build attempt is remembered
(with its reason) instead of re-running the compiler on every apply.

Sanitizer variant: ``get_kernels(sanitize=True)`` (or the environment
flag ``REPRO_NATIVE_SANITIZE=1``, which flips the default so *every*
native consumer in the process — including forked pool workers — runs
the instrumented library) builds the same source with
``-fsanitize=address,undefined``.  The variant gets its own
content-hash cache key (the flags are hashed), its own build-state
slot, and a **subprocess load probe**: an ASan runtime linked into a
``dlopen``-ed library can abort the host interpreter outright on
unsupported toolchains, so the library is first loaded in a throwaway
``python -c`` child; a probe failure is recorded as the skip reason
(surfaced via :func:`native_status` and the ``sanitize``-marked tests)
instead of taking the test process down.  ``ASAN_OPTIONS`` gains
``verify_asan_link_order=0`` (the runtime arrives by ``dlopen``, not
``LD_PRELOAD``) and ``detect_leaks=0`` (CPython's arenas are not this
suite's bug surface) before either load.

``REPRO_NATIVE_DEBUG=1`` enables the ctypes pre-call bounds validator
in :mod:`repro.native.ops` — pure-Python index/size validation ahead
of every kernel call, the cheap cousin of the sanitizer build.  Both
env flags are read here and nowhere else (lint rule ``REP004``).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from repro import obs
from repro.errors import ConfigError, NativeBuildError

__all__ = [
    "BACKENDS",
    "CACHE_ENV",
    "DEBUG_ENV",
    "FLAG_ENV",
    "SANITIZE_ENV",
    "KernelLib",
    "cache_dir",
    "debug_bounds_enabled",
    "find_compiler",
    "get_kernels",
    "native_status",
    "resolve_backend",
    "sanitize_default",
    "set_default_backend",
]

CACHE_ENV = "REPRO_NATIVE_CACHE"
FLAG_ENV = "REPRO_NATIVE"
SANITIZE_ENV = "REPRO_NATIVE_SANITIZE"
DEBUG_ENV = "REPRO_NATIVE_DEBUG"
BACKENDS = ("auto", "numpy", "native")

ABI_VERSION = 10
CFLAGS = ("-std=c99", "-O3", "-fPIC", "-shared", "-ffp-contract=off", "-pthread")
# The sanitizer variant keeps -ffp-contract=off and the same loop code,
# so its outputs stay bit-identical; -O1 keeps ASan shadow checks fast
# to compile while preserving line-accurate UBSan reports.
SANITIZE_CFLAGS = (
    "-std=c99", "-O1", "-g", "-fno-omit-frame-pointer", "-fPIC", "-shared",
    "-ffp-contract=off", "-pthread", "-fsanitize=address,undefined",
)
_VARIANT_CFLAGS = {"std": CFLAGS, "sanitize": SANITIZE_CFLAGS}
_ASAN_OPTIONS = "verify_asan_link_order=0:detect_leaks=0"

_SOURCE = Path(__file__).with_name("kernels.c")

_INT = ctypes.c_int64
# Every entry takes bare pointers: ndpointer's from_param costs
# microseconds per array and a solve makes hundreds of applies.  ops.py
# checks dtype and contiguity itself before taking the address.
_PTR = ctypes.c_void_p
# name -> (argtypes, restype): the whole-call entries, the library's
# only exports besides repro_native_abi.
_SIGNATURES = {
    "repro_plan_apply": ([_INT] * 5 + [_PTR] * 11, None),
    "repro_block_dm": ([_INT] + [_PTR] * 10, None),
    "repro_s2d_flip": ([_INT] * 3 + [ctypes.c_double] + [_PTR] * 6, _INT),
    "repro_bisect": (
        [_INT] * 9 + [ctypes.c_double, ctypes.c_uint64] + [_PTR] * 10 + [_INT]
        + [_PTR] * 3,
        _INT,
    ),
    "repro_partition_kway": (
        [_INT] * 11 + [ctypes.c_double] * 2 + [ctypes.c_uint64] + [_PTR] * 8 + [_INT]
        + [_PTR] * 3 + [_INT],
        _INT,
    ),
}


class KernelLib:
    """The loaded kernel library: bound, signature-checked entry points.

    ``plan_apply``, ``partition_kway``, ``bisect``, ``block_dm`` and
    ``s2d_flip`` are raw ctypes functions taking addresses that
    :mod:`repro.native.ops` checks and extracts; callers own all
    allocation but the drivers' scratch.  See :mod:`repro.native.ops`
    for the array-level wrappers and :class:`repro.runtime.plan.CommPlan`
    for the plan apply.
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        dll = ctypes.CDLL(str(path))
        abi = dll.repro_native_abi
        abi.argtypes = []
        abi.restype = ctypes.c_int64
        got = int(abi())
        if got != ABI_VERSION:
            raise NativeBuildError(
                f"cached kernel library {path} has ABI {got}, expected {ABI_VERSION}"
            )
        for name, (argtypes, restype) in _SIGNATURES.items():
            fn = getattr(dll, name)
            fn.argtypes = argtypes
            fn.restype = restype
            setattr(self, name.removeprefix("repro_"), fn)
        self._dll = dll


def find_compiler() -> str | None:
    """Absolute path of the first usable C compiler, or None.

    Honours ``$CC`` first, then falls back to ``cc``/``gcc``/``clang``.
    """
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand:
            path = shutil.which(cand)
            if path:
                return path
    return None


def cache_dir() -> Path:
    """The build cache directory (not created until a build needs it)."""
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro-native"


def _build_key(compiler: str, cflags: tuple = CFLAGS) -> str:
    h = hashlib.sha256()
    h.update(_SOURCE.read_bytes())
    h.update(" ".join(cflags).encode())
    h.update(sys.platform.encode())
    h.update(compiler.encode())
    h.update(str(ABI_VERSION).encode())
    return h.hexdigest()[:16]


def _compile(compiler: str, out: Path, cflags: tuple = CFLAGS) -> None:
    out.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=out.parent, prefix=out.stem, suffix=".so.tmp")
    os.close(fd)
    cmd = [compiler, *cflags, "-o", tmp, str(_SOURCE)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    except (OSError, subprocess.TimeoutExpired) as exc:
        os.unlink(tmp)
        raise NativeBuildError(f"C compiler failed to run ({exc})") from exc
    if proc.returncode != 0:
        os.unlink(tmp)
        detail = (proc.stderr or proc.stdout or "").strip()
        raise NativeBuildError(
            f"C kernel compile failed (exit {proc.returncode}): {detail[:500]}"
        )
    os.replace(tmp, out)


# ----------------------------------------------------------------------
# Process-global build state (one slot per build variant)
# ----------------------------------------------------------------------


def _fresh_state() -> dict:
    return {
        v: {"lib": None, "attempted": False, "built": False, "reason": None}
        for v in _VARIANT_CFLAGS
    }


_state = _fresh_state()
_default_override: str | None = None


def _asan_preconfigured() -> bool:
    """Whether this interpreter was *started* with a usable ASAN_OPTIONS.

    The ASan runtime reads its options straight from
    ``/proc/self/environ`` during initialization, so a runtime
    ``os.environ`` write is invisible to it — only the exec-time
    environment counts.  Without ``verify_asan_link_order=0`` a
    ``dlopen``-ed ASan runtime aborts the whole process.
    """
    try:
        raw = Path("/proc/self/environ").read_bytes()
    except OSError:  # pragma: no cover - non-procfs platform
        return "verify_asan_link_order=0" in os.environ.get("ASAN_OPTIONS", "")
    for chunk in raw.split(b"\0"):
        if chunk.startswith(b"ASAN_OPTIONS="):
            return b"verify_asan_link_order=0" in chunk
    return False


def _probe_load(so: Path) -> None:
    """Try ``dlopen`` in a throwaway child before this process commits.

    A sanitizer runtime that cannot initialize under ``dlopen`` aborts
    the host; probing in a subprocess converts that abort into a
    recorded skip reason.
    """
    env = dict(os.environ, ASAN_OPTIONS=_ASAN_OPTIONS)
    code = f"import ctypes; ctypes.CDLL({str(so)!r})"
    try:
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=60, env=env,
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise NativeBuildError(f"load probe failed to run ({exc})") from exc
    if proc.returncode != 0:
        detail = (proc.stderr or proc.stdout or "").strip()
        raise NativeBuildError(
            f"sanitized library failed the load probe "
            f"(exit {proc.returncode}): {detail[:500]}"
        )


def _load(variant: str) -> KernelLib:
    compiler = find_compiler()
    if compiler is None:
        raise NativeBuildError(
            "no C compiler found on PATH (tried $CC, cc, gcc, clang)"
        )
    cflags = _VARIANT_CFLAGS[variant]
    so = cache_dir() / f"kernels-{_build_key(compiler, cflags)}.so"
    if not so.exists():
        with obs.span("native.build", variant=variant, compiler=compiler):
            _compile(compiler, so, cflags)
        _state[variant]["built"] = True
    else:
        obs.event("native.cache_hit", variant=variant, so=so.name)
    if variant == "sanitize":
        # The ASan/UBSan runtimes arrive via dlopen; probe in a child
        # (with ASAN_OPTIONS in its exec-time env) first, and refuse the
        # in-process load unless *this* interpreter was started with the
        # option — ASan reads /proc/self/environ at init, so setting it
        # now would not prevent the abort.
        os.environ["ASAN_OPTIONS"] = _ASAN_OPTIONS  # for exec'd children
        _probe_load(so)
        if not _asan_preconfigured():
            raise NativeBuildError(
                "sanitized library builds and probe-loads, but this "
                "interpreter was not started with "
                f"ASAN_OPTIONS={_ASAN_OPTIONS} — an in-process dlopen "
                "would abort; re-run under that environment (the "
                "sanitize test tier spawns such a child)"
            )
    try:
        return KernelLib(so)
    except (OSError, NativeBuildError):
        # A truncated or stale cache entry: evict, rebuild once.
        so.unlink(missing_ok=True)
        obs.event("native.cache_evict", variant=variant, so=so.name)
        with obs.span("native.build", variant=variant, compiler=compiler):
            _compile(compiler, so, cflags)
        _state[variant]["built"] = True
        return KernelLib(so)


def sanitize_default() -> bool:
    """Whether ``REPRO_NATIVE_SANITIZE=1`` makes the sanitized build the
    process default (the flag is read here and nowhere else)."""
    env = os.environ.get(SANITIZE_ENV)
    if env in (None, "", "0"):
        return False
    if env == "1":
        return True
    raise ConfigError(f"{SANITIZE_ENV} must be '0' or '1', got {env!r}")


def debug_bounds_enabled() -> bool:
    """Whether ``REPRO_NATIVE_DEBUG=1`` enables the ctypes pre-call
    bounds validator in :mod:`repro.native.ops`."""
    return os.environ.get(DEBUG_ENV) == "1"


def get_kernels(sanitize: bool | None = None) -> KernelLib | None:
    """The loaded kernel library, building it on first use.

    ``sanitize=True`` selects the ASan/UBSan build variant (its own
    cache entry and failure slot); ``None`` defers to the
    ``REPRO_NATIVE_SANITIZE`` flag.  Returns None when the requested
    variant cannot be built or loaded — the reason is recorded (see
    :func:`native_status`) and the failed attempt is cached, so
    repeated calls stay cheap.
    """
    variant = "sanitize" if (sanitize_default() if sanitize is None else sanitize) else "std"
    slot = _state[variant]
    if slot["lib"] is not None:
        return slot["lib"]
    if slot["attempted"]:
        return None
    slot["attempted"] = True
    try:
        slot["lib"] = _load(variant)
    except NativeBuildError as exc:
        slot["reason"] = str(exc)
        slot["lib"] = None
    return slot["lib"]


def _reset_native_state() -> None:
    """Forget the loaded libraries, any failure reasons, and the default
    override (test hook; the next use re-resolves from scratch)."""
    global _state, _default_override
    _state = _fresh_state()
    _default_override = None


def set_default_backend(backend: str | None) -> None:
    """Override what ``backend=None`` resolves to in this process.

    ``None`` restores the environment-driven default.  Used by the CLI
    to honour ``--backend`` across code paths that do not thread the
    kwarg explicitly.
    """
    if backend is not None and backend not in BACKENDS:
        raise ConfigError(
            f"unknown backend {backend!r}; expected one of {', '.join(BACKENDS)}"
        )
    global _default_override
    _default_override = backend


def _env_default() -> str:
    env = os.environ.get(FLAG_ENV)
    if env is None or env == "" or env == "1":
        return "auto"
    if env == "0":
        return "numpy"
    raise ConfigError(f"{FLAG_ENV} must be '0' or '1', got {env!r}")


def resolve_backend(backend: str | None = None) -> str:
    """Resolve a ``backend`` kwarg to a concrete ``"numpy"``/``"native"``.

    ``None`` defers to :func:`set_default_backend` and then the
    ``REPRO_NATIVE`` environment flag; ``"auto"`` picks native when the
    kernel library is available and silently falls back otherwise (the
    reason is recorded in :func:`native_status`).  An explicit
    ``"native"`` that cannot be satisfied raises
    :class:`~repro.errors.ConfigError`.
    """
    if backend is None:
        backend = _default_override or _env_default()
    if backend == "numpy":
        return "numpy"
    if backend == "native":
        if get_kernels() is None:
            variant = "sanitize" if sanitize_default() else "std"
            raise ConfigError(
                f"native backend unavailable: {_state[variant]['reason']}"
            )
        return "native"
    if backend == "auto":
        return "native" if get_kernels() is not None else "numpy"
    raise ConfigError(
        f"unknown backend {backend!r}; expected one of {', '.join(BACKENDS)}"
    )


def native_status() -> dict:
    """Everything a user needs to tell which backend actually runs.

    Forces one build attempt (so ``kernels_built`` is meaningful) and
    reports: the compiler found, the cache directory, the loaded ``.so``
    path, what the default ``backend=None`` resolves to, and — when the
    native path is unavailable — the recorded reason.
    """
    lib = get_kernels()
    variant = "sanitize" if sanitize_default() else "std"
    try:
        default = resolve_backend(None)
    except ConfigError as exc:  # explicit default "native" with no compiler
        default = f"error: {exc}"
    return {
        "available": lib is not None,
        "compiler": find_compiler(),
        "cache_dir": str(cache_dir()),
        "so_path": str(lib.path) if lib is not None else None,
        "built_this_process": _state[variant]["built"],
        "default_backend": default,
        "reason": _state[variant]["reason"],
        "variant": variant,
        "sanitize_attempted": _state["sanitize"]["attempted"],
        "sanitize_reason": _state["sanitize"]["reason"],
        "debug_bounds": debug_bounds_enabled(),
    }
