"""The ``GemmBackend`` protocol (DESIGN.md section 11).

A backend is a strategy object for the one hot primitive of the engine:
the quantized integer GEMM. Every registered backend is exact: it produces
the *same bits* as the ``numpy-f64`` oracle for every call, which the
differential conformance suite in ``tests/test_backends.py`` enforces.
So no trial key, replay-trace key, or trace reuse depends on which
backend ran; the name is recorded as provenance only.

Subclasses implement :meth:`product_int64` — the mathematically exact
``a @ b`` in int64 — and inherit :meth:`matmul_int32`, which applies the
int32 accumulator semantics (`wrap_int32`/`saturate_int32`) in exactly
one place so no backend can drift on overflow behaviour. Backends that
can produce the exact product natively in float64 (for the executor's
materialization-bypass route) override :meth:`matmul_f64`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.quant.gemm import INT32_MAX, saturate_int32, wrap_int32


class GemmBackend:
    """Base class / protocol for pluggable integer-GEMM kernels.

    Class attributes (capability flags, fixed per backend):

    - ``name``: registry key, also recorded in trial/trace provenance.
    - ``threaded``: uses more than one thread for a single GEMM.
    """

    name: str = "?"
    threaded: bool = False

    # -------------------------------------------------------------- probing
    def available(self) -> bool:
        """Whether this backend can run in the current process."""
        return True

    def why_unavailable(self) -> Optional[str]:
        """Human-readable reason when :meth:`available` is False."""
        return None

    def kernel(self) -> str:
        """Short description of the kernel actually in use (diagnostics)."""
        return self.name

    def close(self) -> None:
        """Release process-level resources (thread pools, handles).

        Idempotent, and the backend must keep working after it — a
        closed pool is lazily recreated on the next call. The registry
        closes every registered backend at interpreter exit so forked or
        spawned campaign workers never leak kernel threads.
        """

    # -------------------------------------------------------------- compute
    def product_int64(
        self,
        a_q: np.ndarray,
        b_q: np.ndarray,
        b_f64: np.ndarray | None = None,
    ) -> np.ndarray:
        """Exact ``a_q @ b_q`` as int64 (no accumulator semantics applied).

        ``b_f64`` is an optional pre-converted float64 mirror of ``b_q``
        (weights cache one); backends routing through floating point may
        use it to skip a conversion, and must ignore it otherwise.
        """
        raise NotImplementedError

    def matmul_f64(
        self,
        a_q: np.ndarray,
        b_q: np.ndarray,
        b_f64: np.ndarray | None = None,
    ) -> np.ndarray:
        """Exact float64 product for the executor's bypass route.

        Only called for int8 operands whose accumulators provably fit in
        int32 (``k * 127^2 <= INT32_MAX``), so the default integer round
        trip is always correct; fast backends override it.
        """
        return self.product_int64(a_q, b_q, b_f64=b_f64).astype(np.float64)

    def matmul_int32(
        self,
        a_q: np.ndarray,
        b_q: np.ndarray,
        wraparound: bool = True,
        b_f64: np.ndarray | None = None,
    ) -> np.ndarray:
        """``a_q @ b_q`` with INT32 accumulator semantics.

        The overflow contract lives here, shared by every backend: int8
        operands with quantizer-range codes (``|code| <= 127``) whose
        accumulators cannot leave int32 range skip the wrap (it would be
        the identity); everything else goes through ``wrap_int32`` /
        ``saturate_int32`` exactly as the seed route did.
        """
        exact = self.product_int64(a_q, b_q, b_f64=b_f64)
        if (
            a_q.dtype == np.int8
            and b_q.dtype == np.int8
            and a_q.shape[-1] * 127 * 127 <= INT32_MAX
        ):
            return exact
        return wrap_int32(exact) if wraparound else saturate_int32(exact)
