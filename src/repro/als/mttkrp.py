"""Matricized-tensor times Khatri-Rao product (MTTKRP) for sparse tensors.

The MTTKRP ``X_(m) (KR_{n != m} A(n))`` is the workhorse of ALS (Eq. 4) and of
the SliceNStitch row updates (Eqs. 9 and 12).  For a sparse tensor it reduces
to a sum over non-zeros of the entry value times the Hadamard product of the
other modes' factor rows.

The array math itself lives in :mod:`repro.kernels` — these functions build
the COO / slice arrays and dispatch to a kernel backend.  Every function
takes an optional ``kernels`` argument (a
:class:`~repro.kernels.KernelBackend`); the model classes pass their
configured backend, and the default is the numpy reference, which performs
bit-for-bit the operations these functions historically inlined.

:class:`MTTKRPSweep` serves the full-mode MTTKRPs of batch ALS sweeps
(``repro.als.als`` and the ALS baselines): the numpy reference's float
operations, with each factor's rows gathered once per solve instead of once
per other mode.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.exceptions import ShapeError
from repro.kernels.api import KernelBackend
from repro.kernels.numpy_backend import row_bins, scatter_rows
from repro.kernels.registry import numpy_backend
from repro.tensor.sparse import SparseTensor


def mttkrp(
    tensor: SparseTensor,
    factors: Sequence[np.ndarray],
    mode: int,
    kernels: KernelBackend | None = None,
) -> np.ndarray:
    """Return ``X_(mode) (KR_{n != mode} A(n))`` as an ``(N_mode, R)`` array."""
    if len(factors) != tensor.order:
        raise ShapeError(
            f"{len(factors)} factor matrices for an order-{tensor.order} tensor"
        )
    if not 0 <= mode < tensor.order:
        raise ShapeError(f"mode {mode} out of range for order {tensor.order}")
    indices, values = tensor.to_coo_arrays()
    return mttkrp_coo(
        indices, values, factors, mode, tensor.shape[mode], kernels=kernels
    )


def mttkrp_coo(
    indices: np.ndarray,
    values: np.ndarray,
    factors: Sequence[np.ndarray],
    mode: int,
    mode_size: int,
    kernels: KernelBackend | None = None,
) -> np.ndarray:
    """MTTKRP over prebuilt COO arrays (``(nnz, M)`` indices, ``(nnz,)`` values).

    Identical — operation for operation — to :func:`mttkrp` on the tensor
    those arrays came from, which gets them from the version-stamped
    ``SparseTensor.to_coo_arrays`` cache, so solving several modes against
    the same tensor state converts it once either way.
    """
    if kernels is None:
        kernels = numpy_backend()
    return kernels.mttkrp_coo(indices, values, factors, mode, mode_size)


class MTTKRPSweep:
    """The MTTKRPs of ALS sweeps over one unchanging tensor state.

    An ALS sweep (Eq. 4) solves mode ``0, 1, ..., M-1`` in turn, and every
    mode's MTTKRP multiplies the entry values by the other factors' rows at
    the same coordinates; between two modes only the rows of the factor
    just solved change.  This object takes the COO columns once, gathers
    each factor's rows once, right after that factor is solved
    (:meth:`commit`), and keeps the running prefix ``values * A(0)[i_0] *
    ... * A(n-1)[i_{n-1}]`` that the later modes of a sweep share.  Mode
    ``n``'s product is written into a buffer it already holds — the rows
    of mode ``n``, stale until the commit, or for mode 0 the prefix, which
    is free at the start of a sweep — and scattered by the numpy backend's
    :func:`~repro.kernels.numpy_backend.scatter_rows`.

    The prefix is the left part of the product the numpy ``mttkrp_coo``
    builds left to right, so each float operation is one it performs, in
    the same order (products may commute, never re-associate):
    :meth:`mttkrp` is bit-identical to ``mttkrp(tensor, factors, mode)`` on
    the committed factors, and :meth:`inner` to
    :meth:`KruskalTensor.inner_with_sparse
    <repro.tensor.kruskal.KruskalTensor.inner_with_sparse>`.  Mode 0's rows
    are gathered into the prefix buffer and scaled there, so the
    ``(nnz, R)`` arrays are M float buffers (the prefix and the rows of
    modes 1 to M-1) and each mode's scatter bins, all allocated here.

    Call :meth:`mttkrp` and :meth:`commit` for mode ``0, 1, ..., M-1`` in
    that order, for as many sweeps as wanted.  A committed factor must not
    change in place afterwards.
    """

    __slots__ = (
        "_shape",
        "_values",
        "_columns",
        "_bins",
        "_rows",
        "_prefix",
        "_first",
        "_next",
    )

    def __init__(self, tensor: SparseTensor, factors: Sequence[np.ndarray]) -> None:
        if len(factors) != tensor.order:
            raise ShapeError(
                f"{len(factors)} factor matrices for an order-{tensor.order} tensor"
            )
        indices, values = tensor.to_coo_arrays()
        rank = factors[0].shape[1]
        self._shape = tensor.shape
        self._values = values
        self._columns = np.ascontiguousarray(indices.T)
        self._bins = [row_bins(column, rank) for column in self._columns]
        # _rows[m] holds A(m)'s rows for m >= 1; _rows[0] is the prefix.
        self._rows = list(np.empty((tensor.order, values.size, rank)))
        self._prefix = self._rows[0]
        self._first = factors[0]
        self._next = 0
        for mode in range(1, tensor.order):
            self._gather(mode, factors[mode])

    def mttkrp(self, mode: int) -> np.ndarray:
        """``X_(mode) (KR_{n != mode} A(n))`` against the committed factors."""
        if mode != self._next:
            raise ShapeError(f"the sweep solves mode {self._next} next, not {mode}")
        head = self._values[:, None] if mode == 0 else self._prefix
        later = self._rows[mode + 1 :]
        if later:
            product = np.multiply(head, later[0], out=self._rows[mode])
            for rows in later[1:]:
                product *= rows
        else:
            product = self._prefix
            if mode == 0:  # an order-1 tensor: the values alone
                product[...] = head
        return scatter_rows(self._bins[mode], product, self._shape[mode])

    def commit(self, mode: int, factor: np.ndarray) -> None:
        """Adopt ``factor`` as the solution of ``mode`` and move to the next mode."""
        if mode != self._next:
            raise ShapeError(f"the sweep solves mode {self._next} next, not {mode}")
        rows = self._gather(mode, factor)
        self._next = (mode + 1) % len(self._rows)
        if mode == 0:
            self._first = factor
            if self._next:  # the prefix values * A(0)[i_0], in place
                rows *= self._values[:, None]
        elif self._next:
            self._prefix *= rows

    def inner(self) -> float:
        """``<X_hat, X>`` of the committed factors with unit weights, between sweeps."""
        if self._next != 0:
            raise ShapeError("the inner product is defined between sweeps")
        # The weights are ones and ``1.0 * x == x``: the product starts at
        # mode 0's rows, gathered again into the free prefix buffer.
        product = self._gather(0, self._first)
        for rows in self._rows[1:]:
            product *= rows
        return float(np.dot(product.sum(axis=1), self._values))

    def _gather(self, mode: int, factor: np.ndarray) -> np.ndarray:
        rows = self._rows[mode]
        if factor.shape != (self._shape[mode], rows.shape[1]):
            raise ShapeError(
                f"factor {mode} has shape {factor.shape}, expected "
                f"{(self._shape[mode], rows.shape[1])}"
            )
        # Every column index is in range, so "clip" changes nothing; it
        # only spares the buffered copy ``take`` makes for "raise".
        return np.take(factor, self._columns[mode], axis=0, out=rows, mode="clip")


def mttkrp_row(
    tensor: SparseTensor,
    factors: Sequence[np.ndarray],
    mode: int,
    index: int,
    kernels: KernelBackend | None = None,
) -> np.ndarray:
    """Single row ``X_(mode)(index, :) (KR_{n != mode} A(n))`` of the MTTKRP.

    Only the non-zeros whose ``mode``-th coordinate equals ``index`` are
    visited — this is the ``Omega(m)_{i_m}`` sum of Eqs. (12) and (21) —
    through the slice arrays the tensor builds in one pass.
    """
    if kernels is None:
        kernels = numpy_backend()
    index_array, value_array = tensor.mode_slice_arrays(mode, index)
    return kernels.mttkrp_rows(index_array, value_array, factors, mode)
