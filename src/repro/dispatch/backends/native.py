"""``native``: opt-in compiled C int8 GEMM backend (DESIGN.md section 13).

Select it explicitly (``--backend native``, ``"backend": "native"`` in a
campaign spec, or ``$REPRO_GEMM_BACKEND=native``); the default stays
``numpy-f64``, which is faster at the model zoo's GEMM shapes.

The kernel lives in ``csrc/gemm_int8.c`` — cache-blocked int8 x int8 ->
int64 with a packed-B panel layout — and reaches the process two ways:

- an optional ``setup.py build_ext`` artifact (``repro/_native_gemm*.so``,
  built with ``-Wall -Werror`` in CI), loaded via ``ctypes`` — the module
  is never imported, so it needs no ``PyInit`` symbol;
- a lazy runtime compile: the first use shells out to ``cc`` (or
  ``$CC`` / ``gcc`` / ``clang``) and caches the shared library under a
  per-version disk directory (``$REPRO_CACHE/native-gemm-<version>/``),
  keyed by a digest of the source, flags, compiler, and ABI so stale
  caches rebuild instead of loading.

Hosts without a compiler (and builds where anything above fails) leave
the backend *unavailable* — ``available()`` is False,
``why_unavailable()`` says why, and the registry's resolution degrades
to the exact default with a WARNING. Nothing ever computes a wrong
answer.

Execution: weight panels are packed once per buffer through the shared
:mod:`~repro.dispatch.backends.prepack` cache; activation-side operands
pack into scratch per call. ctypes releases the GIL for the kernel's
duration, so on multi-core hosts the row dimension is partitioned across
a thread pool.

The C kernel accumulates int8 products in int32 blocks of <= 2^15 terms
(bounded by 2^15 * 2^14 = 2^29 < 2^31) widened into int64 — bit-identical
to the numpy-f64 oracle on every input, held to it by the conformance
suite in ``tests/test_backends.py``. On AVX512-VNNI hosts the same source
compiles to a ``vpdpbusd`` micro-kernel (signed operands biased to
unsigned, corrected exactly via pack-time column sums) — still
bit-identical.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Optional

import numpy as np

from repro import __version__
from repro.dispatch.backends.base import GemmBackend
from repro.dispatch.backends.prepack import PREPACK
from repro.utils.logging import get_logger

logger = get_logger("dispatch.backends.native")

#: Must match REPRO_GEMM_I8_ABI in csrc/gemm_int8.c; a loaded library
#: reporting anything else is stale and gets rebuilt (or skipped).
ABI_VERSION = 1

#: Explicit shared-library override (tests, exotic deploys).
ENV_LIB = "REPRO_NATIVE_GEMM_LIB"
#: Compiler override; falls back to $CC, then cc/gcc/clang on $PATH.
ENV_CC = "REPRO_NATIVE_GEMM_CC"
#: Kill switch: pretend no kernel can be built (degrade-path testing).
ENV_DISABLE = "REPRO_NO_NATIVE_GEMM"

_BASE_FLAGS = ("-O3", "-std=c99", "-fPIC", "-shared")

#: Minimum rows per thread before partitioned execution beats one call.
_MIN_ROWS_PER_THREAD = 64

_REPO_ROOT = Path(__file__).resolve().parents[4]
SOURCE_PATH = _REPO_ROOT / "csrc" / "gemm_int8.c"


def _cache_root() -> Path:
    root = os.environ.get("REPRO_CACHE")
    return Path(root) if root else Path.home() / ".cache" / "repro"


def build_dir() -> Path:
    """Per-version disk directory for runtime-compiled kernels."""
    return _cache_root() / f"native-gemm-{__version__}"


def _find_compiler() -> Optional[str]:
    for candidate in (os.environ.get(ENV_CC), os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate:
            path = shutil.which(candidate)
            if path:
                return path
    return None


def _prebuilt_extension() -> Optional[Path]:
    """The ``setup.py build_ext --inplace`` artifact, when present."""
    package_dir = Path(__file__).resolve().parents[2]
    for path in sorted(package_dir.glob("_native_gemm*.so")):
        return path
    return None


def _source_digest(source: bytes, compiler: str) -> str:
    h = hashlib.sha256()
    h.update(source)
    h.update(repr((_BASE_FLAGS, compiler, ABI_VERSION, platform.machine())).encode())
    return h.hexdigest()[:16]


def compile_kernel(source_path: Path, out_path: Path, compiler: str) -> None:
    """Compile the kernel to ``out_path`` (atomic: tmp file + replace).

    ``-march=native`` is attempted first and dropped when the compiler
    rejects it (minimal toolchains, cross builds). Any remaining failure
    raises with the compiler's stderr tail.
    """
    out_path.parent.mkdir(parents=True, exist_ok=True)
    tmp = out_path.with_name(f"{out_path.name}.tmp.{os.getpid()}")
    last_stderr = ""
    try:
        for extra in (("-march=native",), ()):
            cmd = [compiler, *_BASE_FLAGS, *extra, "-o", str(tmp), str(source_path)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode == 0:
                os.replace(tmp, out_path)
                return
            last_stderr = (proc.stderr or proc.stdout or "").strip()
    finally:
        if tmp.exists():
            tmp.unlink()
    raise RuntimeError(
        f"{compiler} failed to build {source_path.name}: {last_stderr[-500:]}"
    )


class _Kernel:
    """ctypes bindings over one loaded shared library (ABI-checked)."""

    def __init__(self, path: Path, origin: str) -> None:
        self.path = path
        self.origin = origin
        lib = ctypes.CDLL(str(path))
        lib.repro_gemm_i8_abi.restype = ctypes.c_int64
        lib.repro_gemm_i8_abi.argtypes = []
        abi = int(lib.repro_gemm_i8_abi())
        if abi != ABI_VERSION:
            raise RuntimeError(f"{path.name}: kernel ABI {abi} != {ABI_VERSION}")
        lib.repro_gemm_i8_panel_width.restype = ctypes.c_int64
        lib.repro_gemm_i8_panel_width.argtypes = []
        lib.repro_gemm_i8_packed_bytes.restype = ctypes.c_int64
        lib.repro_gemm_i8_packed_bytes.argtypes = [ctypes.c_int64, ctypes.c_int64]
        lib.repro_gemm_i8_pack_b.restype = None
        lib.repro_gemm_i8_pack_b.argtypes = [
            ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
            ctypes.c_void_p,
        ]
        lib.repro_gemm_i8_packed.restype = None
        lib.repro_gemm_i8_packed.argtypes = [
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
            ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p,
            ctypes.c_int64,
        ]
        self._lib = lib
        self.panel_width = int(lib.repro_gemm_i8_panel_width())
        # Optional export (added with the VNNI path): 0 = portable C,
        # 1 = AVX512-VNNI. Absent in older builds of the same ABI.
        try:
            lib.repro_gemm_i8_isa.restype = ctypes.c_int64
            lib.repro_gemm_i8_isa.argtypes = []
            self.isa = int(lib.repro_gemm_i8_isa())
        except AttributeError:
            self.isa = 0
        self._gemm = lib.repro_gemm_i8_packed  # bound once: hot path

    def pack_b(self, b_q: np.ndarray) -> np.ndarray:
        """The packed panel mirror of a C-contiguous (k, n) int8 matrix."""
        k, n = b_q.shape
        packed = np.empty(
            int(self._lib.repro_gemm_i8_packed_bytes(k, n)), dtype=np.int8
        )
        self._lib.repro_gemm_i8_pack_b(
            b_q.ctypes.data, k, n, n, packed.ctypes.data
        )
        return packed

    def gemm_rows(
        self,
        a2d: np.ndarray,
        packed: np.ndarray,
        k: int,
        n: int,
        row0: int,
        row1: int,
        out: np.ndarray,
    ) -> None:
        self._gemm(
            a2d.ctypes.data, packed.ctypes.data, k, n, k, row0, row1,
            out.ctypes.data, n,
        )


class NativeBackend(GemmBackend):
    """Compiled C int8 kernel with prepacked weight panels."""

    name = "native"

    #: Rows each thread must get before the row dimension is partitioned.
    _min_rows_per_thread = _MIN_ROWS_PER_THREAD

    def __init__(self) -> None:
        self._kernel: Optional[_Kernel] = None
        self._checked = False
        self._error: Optional[str] = None
        self._n_threads = max(1, os.cpu_count() or 1)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_pid = 0

    # -------------------------------------------------------------- loading
    def _load(self) -> Optional[_Kernel]:
        if self._checked:
            return self._kernel
        self._checked = True
        if os.environ.get(ENV_DISABLE):
            self._error = f"disabled via ${ENV_DISABLE}"
            return None
        explicit = os.environ.get(ENV_LIB)
        if explicit:
            # An explicit selection is authoritative: a broken path is an
            # error to surface, not something to silently compile around.
            try:
                self._kernel = _Kernel(Path(explicit), origin="env")
            except Exception as exc:
                self._error = f"${ENV_LIB}={explicit!r} failed to load: {exc}"
            return self._kernel
        ext = _prebuilt_extension()
        if ext is not None:
            try:
                self._kernel = _Kernel(ext, origin="build_ext")
                return self._kernel
            except Exception as exc:  # stale ABI, wrong arch: fall through
                logger.warning("prebuilt %s unusable (%s); recompiling", ext.name, exc)
        if not SOURCE_PATH.exists():
            self._error = f"kernel source not found at {SOURCE_PATH}"
            return None
        compiler = _find_compiler()
        if compiler is None:
            self._error = "no C compiler found ($CC, cc, gcc, or clang)"
            return None
        source = SOURCE_PATH.read_bytes()
        lib_path = build_dir() / f"gemm_int8-{_source_digest(source, compiler)}.so"
        if lib_path.exists():
            try:
                self._kernel = _Kernel(lib_path, origin="cc-cache")
                return self._kernel
            except Exception as exc:
                logger.warning("cached %s unusable (%s); recompiling", lib_path.name, exc)
                lib_path.unlink(missing_ok=True)
        try:
            compile_kernel(SOURCE_PATH, lib_path, compiler)
            self._kernel = _Kernel(lib_path, origin="cc")
        except Exception as exc:
            self._error = str(exc)
            return None
        return self._kernel

    # -------------------------------------------------------------- probing
    def available(self) -> bool:
        return self._load() is not None

    def why_unavailable(self) -> Optional[str]:
        self._load()
        return self._error

    @property
    def threaded(self) -> bool:  # type: ignore[override]
        return self._n_threads > 1

    @property
    def fast(self) -> bool:
        """Whether the >= 3x ``backend_speedup`` claim applies: a compiled
        kernel plus a multi-core host for the row-parallel partition."""
        return self._load() is not None and self._n_threads > 1

    def kernel(self) -> str:
        kernel = self._load()
        if kernel is None:
            return "unavailable"
        isa = "+vnni" if kernel.isa == 1 else ""
        return f"c-int8{isa}[{kernel.origin}] x{self._n_threads}"

    def close(self) -> None:
        if self._pool is not None and self._pool_pid == os.getpid():
            self._pool.shutdown(wait=True)
        self._pool = None

    # -------------------------------------------------------------- compute
    def _thread_pool(self) -> ThreadPoolExecutor:
        # A forked campaign worker inherits the pool object but none of its
        # threads, so work submitted to it would wait forever: each process
        # builds its own pool.
        if self._pool is None or self._pool_pid != os.getpid():
            self._pool = ThreadPoolExecutor(
                max_workers=self._n_threads,
                thread_name_prefix="repro-native-gemm",
            )
            self._pool_pid = os.getpid()
        return self._pool

    def _packed_b(self, kernel: _Kernel, b_q: np.ndarray, cached: bool) -> np.ndarray:
        b_q = np.ascontiguousarray(b_q)
        if not cached:
            return kernel.pack_b(b_q)
        # The VNNI and portable builds pack panels in different layouts.
        layout = f"native-nr{kernel.panel_width}-isa{kernel.isa}"
        return PREPACK.packed(b_q, layout, kernel.pack_b)

    def _gemm_2d(
        self,
        kernel: _Kernel,
        a2d: np.ndarray,
        packed: np.ndarray,
        k: int,
        n: int,
        out: np.ndarray,
    ) -> None:
        rows = a2d.shape[0]
        if self._n_threads <= 1 or rows < 2 * self._min_rows_per_thread:
            kernel.gemm_rows(a2d, packed, k, n, 0, rows, out)
            return
        chunk = -(-rows // self._n_threads)
        bounds = [(lo, min(lo + chunk, rows)) for lo in range(0, rows, chunk)]
        list(
            self._thread_pool().map(
                lambda s: kernel.gemm_rows(a2d, packed, k, n, s[0], s[1], out),
                bounds,
            )
        )

    def product_int64(
        self,
        a_q: np.ndarray,
        b_q: np.ndarray,
        b_f64: np.ndarray | None = None,
    ) -> np.ndarray:
        kernel = self._load()
        if (
            kernel is None
            or a_q.dtype != np.int8
            or b_q.dtype != np.int8
            or a_q.ndim < 2
        ):
            return a_q.astype(np.int64) @ b_q.astype(np.int64)
        k = a_q.shape[-1]
        if b_q.ndim == 2:
            lead = a_q.shape[:-1]
            rows = int(np.prod(lead))  # explicit: -1 is ambiguous at k=0
            a2d = np.ascontiguousarray(a_q.reshape(rows, k))
            n = b_q.shape[-1]
            # b_f64 is the executor's cached-weight signal: only long-lived
            # weight buffers earn a prepack-cache entry (activations churn).
            packed = self._packed_b(kernel, b_q, cached=b_f64 is not None)
            out = np.empty((rows, n), dtype=np.int64)
            self._gemm_2d(kernel, a2d, packed, k, n, out)
            return out.reshape(lead + (n,))
        if a_q.shape[:-2] != b_q.shape[:-2]:
            # General broadcasting never occurs on the engine's call paths;
            # stay exact through the widening matmul rather than guess.
            return a_q.astype(np.int64) @ b_q.astype(np.int64)
        m, n = a_q.shape[-2], b_q.shape[-1]
        n_slices = int(np.prod(a_q.shape[:-2]))
        a3 = np.ascontiguousarray(a_q.reshape(n_slices, m, k))
        b3 = np.ascontiguousarray(b_q.reshape(n_slices, k, n))
        out = np.empty((n_slices, m, n), dtype=np.int64)
        for s in range(n_slices):
            packed = kernel.pack_b(b3[s])
            self._gemm_2d(kernel, a3[s], packed, k, n, out[s])
        return out.reshape(a_q.shape[:-2] + (m, n))
