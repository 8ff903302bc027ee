"""Checksum mathematics for ABFT on integer GEMM (paper Fig. 3).

For ``Y = W X`` (or, in the inference engine's row-major convention,
``Y = A B`` with activations ``A`` of shape ``(m, k)`` and weights ``B`` of
shape ``(k, n)``):

- the *input-side* checksum is ``e^T A B``: sum the rows of ``A`` first
  (a length-``k`` vector), then multiply by ``B`` — one extra GEMV;
- the *output-side* checksum is ``e^T Y``: sum the rows of the computed
  result.

Fault-free, the two agree (exactly, in integer arithmetic, including under
32-bit wraparound, since modular addition commutes with summation). Any
per-column discrepancy ``d_j = (e^T A B)_j - (e^T Y)_j`` equals the *sum of
injected errors in column j*, which is what the statistical unit buffers.
The matrix sum deviation is ``MSD = sum_j |d_j|``.

Checksum hardware is assumed fault-free, as in the paper (the checksum path
is tiny and can be margined or hardened cheaply).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.quant.gemm import wrap_int32


def input_checksum(a_q: np.ndarray, b_q: np.ndarray) -> np.ndarray:
    """Compute ``e^T A B`` with 32-bit wraparound semantics.

    Both operands may carry leading batch/head axes (``A`` of shape
    ``(..., m, k)``, ``B`` of shape ``(..., k, n)`` or a shared 2-D weight);
    the checksum row is computed per stacked matrix, so the result has shape
    ``(..., n)`` — the broadcast the batched inference engine relies on.
    """
    col_sums = wrap_int32(a_q.astype(np.int64).sum(axis=-2))
    return wrap_int32(np.einsum("...k,...kn->...n", col_sums, b_q.astype(np.int64)))


def column_checksum(y: np.ndarray) -> np.ndarray:
    """Compute the output checksum ``e^T Y`` with wraparound, shape ``(..., n)``."""
    return wrap_int32(np.asarray(y, dtype=np.int64).sum(axis=-2))


def _signed_wrap_diff(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Difference of two int32-valued arrays, wrapped back into int32 range.

    A 32-bit subtractor naturally produces the wrapped difference; we mirror
    that so a single bit-31 flip reads as magnitude 2^31 rather than an
    int64-sized value.
    """
    return wrap_int32(np.asarray(x, dtype=np.int64) - np.asarray(y, dtype=np.int64))


@dataclass
class ChecksumReport:
    """Error statistics extracted from one protected GEMM.

    Attributes
    ----------
    diffs:
        Per-column signed checksum discrepancies ``d_j``: shape ``(n,)`` for
        a plain GEMM, ``(..., n)`` for a batched/head-stacked GEMM (one
        checksum row per stacked matrix).
    msd:
        Matrix sum deviation ``sum_j |d_j|`` over every column of every
        stacked matrix (int).
    """

    diffs: np.ndarray
    msd: int

    @property
    def any_error(self) -> bool:
        return bool(np.any(self.diffs != 0))

    @property
    def max_magnitude(self) -> int:
        return int(np.max(np.abs(self.diffs))) if self.diffs.size else 0

    @property
    def nonzero_count(self) -> int:
        return int(np.count_nonzero(self.diffs))

    def count_if_above(self, threshold: float) -> int:
        """The statistical unit's ``countif``: columns with ``|d_j| > thr``."""
        return int(np.count_nonzero(np.abs(self.diffs) > threshold))


def checksum_report(
    a_q: np.ndarray, b_q: np.ndarray, y_observed: np.ndarray
) -> ChecksumReport:
    """Build the per-column discrepancy report for an observed GEMM output."""
    expected = input_checksum(a_q, b_q)
    observed = column_checksum(y_observed)
    diffs = _signed_wrap_diff(expected, observed)
    msd = int(np.abs(diffs).sum())
    return ChecksumReport(diffs=diffs, msd=msd)


def slice_inspections(diffs: np.ndarray, macs: int):
    """Split a discrepancy array into the protocol's per-slice inspections.

    The checksum row broadcasts over leading batch/head axes, but the
    recovery *decision* stays per 2-D matrix — the hardware recomputes one
    tile, not the whole logical batch — so leading axes flatten into
    ``n_slices`` independent inspections and the GEMM's MACs floor-divide
    across them. Yields ``(slice_index, report, slice_macs)``;
    ``slice_index`` is ``None`` for a plain 2-D GEMM. This is the single
    definition of the slicing protocol, shared by the dispatch pipeline's
    live protect instrument and its replayed bookkeeping
    (``repro.dispatch.pipeline.ProtectInstrument``, DESIGN.md section 8)
    so the two can never drift apart.
    """
    if diffs.ndim <= 1:
        yield None, ChecksumReport(diffs=diffs, msd=int(np.abs(diffs).sum())), macs
        return
    n_slices = int(np.prod(diffs.shape[:-1]))
    flat = diffs.reshape(n_slices, -1)
    slice_macs = macs // n_slices
    for s in range(n_slices):
        d = flat[s]
        yield s, ChecksumReport(diffs=d, msd=int(np.abs(d).sum())), slice_macs


def lane_of_slice(index: int, n_slices: int, n_lanes: int) -> int:
    """Owning lane of 2-D slice ``index`` in a lane-packed dispatch.

    Lane packing stacks K trials along the *leading* batch axis (DESIGN.md
    section 9), and :func:`slice_inspections` flattens leading axes in
    C order, so a packed call's slices form ``n_lanes`` contiguous runs of
    ``n_slices // n_lanes`` — slice ``index`` belongs to run
    ``index // run``. This is the single definition of lane ownership,
    shared by the protect instrument's inspection routing and the per-lane
    cost accounting, so the two can never disagree about which lane a
    recovery belongs to.
    """
    if n_lanes <= 0 or n_slices % n_lanes:
        raise ValueError(
            f"{n_slices} slices do not split into {n_lanes} equal lane runs"
        )
    return index // (n_slices // n_lanes)
