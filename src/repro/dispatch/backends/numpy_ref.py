"""The NumPy reference backend: ``numpy-f64``, the exactness oracle.

Every other backend is differentially tested against it: int8 operands
ride float64 BLAS (bit-exact — every partial sum is bounded by
``k * 127^2``, far below 2^53), wider integer dtypes take NumPy's int64
matmul.
"""

from __future__ import annotations

import numpy as np

from repro.dispatch.backends.base import GemmBackend


class NumpyF64Backend(GemmBackend):
    """Float64-BLAS route for int8 codes (the default, and the oracle)."""

    name = "numpy-f64"

    def kernel(self) -> str:
        return "f64-blas"

    def product_int64(
        self,
        a_q: np.ndarray,
        b_q: np.ndarray,
        b_f64: np.ndarray | None = None,
    ) -> np.ndarray:
        if a_q.dtype == np.int8 and b_q.dtype == np.int8:
            bf = b_f64 if b_f64 is not None else b_q.astype(np.float64)
            return (a_q.astype(np.float64) @ bf).astype(np.int64)
        return a_q.astype(np.int64) @ b_q.astype(np.int64)

    def matmul_f64(
        self,
        a_q: np.ndarray,
        b_q: np.ndarray,
        b_f64: np.ndarray | None = None,
    ) -> np.ndarray:
        bf = b_f64 if b_f64 is not None else b_q.astype(np.float64)
        return a_q.astype(np.float64) @ bf
