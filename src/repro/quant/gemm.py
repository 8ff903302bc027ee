"""Integer GEMM kernels with hardware accumulator semantics.

The systolic array the paper targets accumulates INT8xINT8 products in 32-bit
registers. We therefore compute products exactly in int64 and *wrap* to int32
(two's-complement overflow), matching silicon. A saturating variant exists as
an ablation (see DESIGN.md section 6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1
_MOD = 2**32


def wrap_int32(x: np.ndarray) -> np.ndarray:
    """Two's-complement wraparound of an int64 array into int32 range."""
    return ((np.asarray(x, dtype=np.int64) - INT32_MIN) % _MOD + INT32_MIN).astype(
        np.int64
    )


def saturate_int32(x: np.ndarray) -> np.ndarray:
    """Clamp an int64 array into int32 range (ablation accumulator)."""
    return np.clip(np.asarray(x, dtype=np.int64), INT32_MIN, INT32_MAX)


@dataclass
class GemmOutput:
    """Result of an integer GEMM: int32-valued accumulators (stored as int64
    for safe downstream arithmetic) plus the float scale that dequantizes
    them (``real ~= acc * scale``, broadcasting per output column)."""

    acc: np.ndarray
    scale: np.ndarray


def gemm_int32(
    a_q: np.ndarray,
    b_q: np.ndarray,
    wraparound: bool = True,
    b_f64: np.ndarray | None = None,
    backend=None,
) -> np.ndarray:
    """``a_q @ b_q`` with INT32 accumulator semantics.

    A thin dispatcher over the backend registry (DESIGN.md section 11):
    the kernels live in :mod:`repro.dispatch.backends`, and every one of
    them is exact, so the choice only affects speed.

    Parameters
    ----------
    a_q, b_q:
        Integer matrices (int8 codes, any integer dtype accepted). Stacked
        operands with leading batch/head axes (``(..., m, k) @ (..., k, n)``
        or a shared 2-D ``b_q``) are computed as one batched GEMM; integer
        accumulation is exact, so every slice equals the corresponding 2-D
        call bit-for-bit.
    wraparound:
        True (default) emulates two's-complement 32-bit overflow; False
        saturates instead.
    b_f64:
        Optional pre-converted float64 mirror of ``b_q`` (weights cache one
        on :class:`~repro.models.quantized.QuantizedWeight`); skips the
        per-call conversion on the BLAS route. Values must equal ``b_q``.
    backend:
        A :class:`~repro.dispatch.backends.GemmBackend` instance or
        registered name; ``None`` means the ``numpy-f64`` oracle.

    Returns
    -------
    np.ndarray
        int64 array whose values all lie within int32 range.
    """
    # Imported lazily: the backends package imports this module for the
    # wrap/saturate semantics.
    from repro.dispatch.backends import DEFAULT_BACKEND, GemmBackend, get_backend

    if not isinstance(backend, GemmBackend):
        backend = get_backend(backend or DEFAULT_BACKEND)
    return backend.matmul_int32(a_q, b_q, wraparound=wraparound, b_f64=b_f64)
