"""The always-available numpy reference implementation of the kernel API.

Every function here is the historical inline implementation moved
verbatim — the same numpy calls in the same order on the same
intermediates — from :mod:`repro.als.mttkrp` (``mttkrp_coo`` and the
``mttkrp_row`` hot path), the models' batched reconstruction gather, and
:meth:`repro.core.randomized.RandomizedCPD`'s ``_solve_regularized`` /
``_sampled_residual``.  That is a hard contract, not a style
choice: the golden-fitness, batched-equivalence, and checkpoint suites
pin bit-exact outputs, and they stay pinned precisely because selecting
the numpy backend performs the identical float operations the code
performed before the registry existed.  Change an operation here only
together with the goldens.

One operation differs on purpose: ``mttkrp_coo`` scatters its products
with one ``np.bincount`` over flat ``row * R + column`` bins instead of the
historical ``np.add.at``.  bincount adds each bin's terms in input order
starting from ``0.0``, exactly as ``np.add.at`` did, so the results are
bit-identical (pinned by ``tests/kernels/test_mttkrp_scatter.py``) at a
fraction of the cost.  That scatter, :func:`row_bins` and
:func:`scatter_rows`, is shared with ALS's gather-once sweep
(:class:`repro.als.mttkrp.MTTKRPSweep`), so batch ALS sums its MTTKRPs
exactly as ``mttkrp_coo`` does.

``solve_regularized`` calls the LAPACK ``dgesv`` gufuncs that
``np.linalg.solve`` wraps, without its per-call checks: its bits are
``np.linalg.solve``'s, and nothing here loads SciPy.

The only structural difference from the historical call sites is how row
overrides arrive: as the flat ``(modes, indices, rows)`` triple of
:func:`repro.kernels.api.flatten_mode_overrides` instead of per-mode dict
buckets.  The kernels scan the triple per mode in flat order, which —
because the flattener preserves dict insertion order — replays the exact
override sequence the bucketed loops applied.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
from numpy.linalg._umath_linalg import solve, solve1

from repro.kernels.api import KernelBackend


def mttkrp_coo(
    indices: np.ndarray,
    values: np.ndarray,
    factors: Sequence[np.ndarray],
    mode: int,
    mode_size: int,
) -> np.ndarray:
    """MTTKRP over COO arrays — the body of :func:`repro.als.mttkrp.mttkrp_coo`."""
    rank = factors[0].shape[1]
    if values.size == 0:
        return np.zeros((mode_size, rank), dtype=np.float64)
    product = np.broadcast_to(values[:, None], (values.size, rank)).copy()
    for other_mode, factor in enumerate(factors):
        if other_mode == mode:
            continue
        product *= factor[indices[:, other_mode], :]
    return scatter_rows(row_bins(indices[:, mode], rank), product, mode_size)


def row_bins(rows: np.ndarray, rank: int) -> np.ndarray:
    """Flat ``row * R + column`` bins of an ``(n, R)`` product's entries."""
    return ((rows * rank)[:, None] + np.arange(rank)).ravel()


def scatter_rows(bins: np.ndarray, product: np.ndarray, mode_size: int) -> np.ndarray:
    """Sum the rows of an ``(n, R)`` product into ``(mode_size, R)``.

    One ``np.bincount`` over the :func:`row_bins` of the rows' targets: the
    same in-order sums as ``np.add.at`` (see the module docstring).
    """
    rank = product.shape[1]
    return np.bincount(
        bins, weights=product.ravel(), minlength=mode_size * rank
    ).reshape(mode_size, rank)


def mttkrp_rows(
    indices: np.ndarray,
    values: np.ndarray,
    factors: Sequence[np.ndarray],
    mode: int,
) -> np.ndarray:
    """Row MTTKRP over one slice's arrays — the ``mttkrp_row`` hot path.

    ``indices`` / ``values`` are :meth:`SparseTensor.mode_slice_arrays`
    output (every entry's ``mode``-th coordinate is the slice index), so
    the scatter of :func:`mttkrp_coo` collapses to one row sum.
    """
    rank = factors[0].shape[1]
    if values.size == 0:
        return np.zeros(rank, dtype=np.float64)
    product = np.broadcast_to(values[:, None], (values.size, rank)).copy()
    for other_mode, factor in enumerate(factors):
        if other_mode == mode:
            continue
        product *= factor[indices[:, other_mode], :]
    return product.sum(axis=0)


def sampled_residual(
    samples: np.ndarray,
    observed: np.ndarray,
    factors: Sequence[np.ndarray],
    mode: int,
    prev_row: np.ndarray,
    override_modes: np.ndarray,
    override_indices: np.ndarray,
    override_rows: np.ndarray,
) -> np.ndarray:
    """Fused residual ``(x - x̃) @ (Hadamard of other current rows)``.

    The body of ``RandomizedCPD._sampled_residual`` with the
    override buckets flattened: overrides never carry ``mode`` itself (the
    flattener skips it), so a non-empty triple is exactly the historical
    ``relevant`` condition.
    """
    rank = factors[0].shape[1]
    if not samples.shape[0]:
        return np.zeros(rank, dtype=np.float64)
    product_current: np.ndarray | None = None
    product_previous: np.ndarray | None = None
    if override_modes.size == 0:
        # No other-mode row of this event has been updated yet (e.g. the
        # event's time rows, which run first): the live factors still
        # equal the start-of-event state, so one product chain serves
        # both roles.
        for other_mode, factor in enumerate(factors):
            if other_mode == mode:
                continue
            rows = factor[samples[:, other_mode], :]
            product_current = (
                rows if product_current is None else product_current * rows
            )
        product_previous = product_current
    else:
        for other_mode, factor in enumerate(factors):
            if other_mode == mode:
                continue
            column = samples[:, other_mode]
            rows = factor[column, :]
            rows_previous = rows
            copied = False
            for position in range(override_modes.shape[0]):
                if override_modes[position] != other_mode:
                    continue
                mask = column == override_indices[position]
                if mask.any():
                    if not copied:
                        rows_previous = rows.copy()
                        copied = True
                    rows_previous[mask] = override_rows[position]
            product_current = (
                rows if product_current is None else product_current * rows
            )
            product_previous = (
                rows_previous
                if product_previous is None
                else product_previous * rows_previous
            )
    reconstructed = product_previous @ prev_row
    residuals = observed - reconstructed  # the x̄_J values
    return residuals @ product_current


def reconstruct_coords(
    coordinates: np.ndarray | Sequence[Sequence[int]],
    factors: Sequence[np.ndarray],
    override_modes: np.ndarray,
    override_indices: np.ndarray,
    override_rows: np.ndarray,
) -> np.ndarray:
    """Batched reconstruction gather: the CP model value at each coordinate.

    Unlike :func:`sampled_residual`'s lazy copy, a mode with *any*
    overrides copies its gathered rows unconditionally (even when no mask
    matches) — exactly what the historical code did.
    """
    index_array = np.asarray(coordinates, dtype=np.int64)
    rank = factors[0].shape[1]
    product = np.ones((index_array.shape[0], rank), dtype=np.float64)
    has_overrides = override_modes.size > 0
    for mode, factor in enumerate(factors):
        rows = factor[index_array[:, mode], :]
        if has_overrides and np.any(override_modes == mode):
            rows = rows.copy()
            column = index_array[:, mode]
            for position in range(override_modes.shape[0]):
                if override_modes[position] != mode:
                    continue
                mask = column == override_indices[position]
                if mask.any():
                    rows[mask] = override_rows[position]
        product *= rows
    return product.sum(axis=1)


def solve_regularized(
    matrix: np.ndarray,
    rhs: np.ndarray,
    ridge_matrix: np.ndarray | None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """``rhs @ (matrix + ridge)^-1`` — the ``_solve_regularized`` body.

    ``rhs`` may be one row ``(R,)`` or a batch ``(B, R)`` solved against the
    one shared matrix.  Both go straight to the LAPACK ``dgesv`` gufunc that
    ``np.linalg.solve`` calls for that shape, skipping its per-call checks,
    so the results are bit-identical to it.  A singular system comes back
    non-finite and falls back to the Moore-Penrose pseudo-inverse, exactly
    like ``ContinuousCPD._pinv``.
    """
    if ridge_matrix is not None:
        if scratch is None:
            scratch = np.empty_like(matrix)
        regularized = np.add(matrix, ridge_matrix, out=scratch)
    else:
        regularized = matrix
    # np.linalg.solve's error state, except that a singular system returns
    # NaN instead of raising.
    with np.errstate(all="ignore"):
        if rhs.ndim == 2:
            solution = solve(regularized, rhs.T, signature="dd->d").T
        else:
            solution = solve1(regularized, rhs, signature="dd->d")
    if np.isfinite(solution).all():
        return solution
    return rhs @ np.linalg.pinv(regularized)


def load() -> KernelBackend:
    """Build the numpy reference backend (always available)."""
    return KernelBackend(
        name="numpy",
        mttkrp_coo=mttkrp_coo,
        mttkrp_rows=mttkrp_rows,
        sampled_residual=sampled_residual,
        reconstruct_coords=reconstruct_coords,
        solve_regularized=solve_regularized,
        description="pure-numpy reference (always available, bit-pinned)",
    )
