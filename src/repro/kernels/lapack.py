"""SciPy's direct LAPACK solvers, imported once per process on first need.

Importing ``scipy.linalg.lapack`` loads SciPy's own OpenBLAS and costs a
process more CPU and memory than importing numpy does.  Only the sampled
variants (SNS_RND's ``dposv`` solves, SNS+_RND's ``dtrtrs`` sweep) and the
relaxed batch update's least-squares modes (one stacked ``dposv`` per
categorical mode per batch, through ``solve_regularized``) call it, so
nothing imports it at module load: :func:`lapack_solvers` imports it on its
first call and caches the handles for the life of the process.
:class:`~repro.core.randomized.RandomizedCPD` calls it when a sampled model
is constructed (or rebuilt for a restore), so the import lands in that
model's set-up rather than in its first update; a relaxed SNS_MAT or
SNS_VEC model pays it in its first batch.  The per-call paths only read the
cached handles.

Without SciPy both handles are ``None`` and callers take their numpy
fallbacks (``np.linalg.solve``), which factorise differently and agree
with the LAPACK results only to round-off.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, NamedTuple


class LapackSolvers(NamedTuple):
    """The two LAPACK routines the sampled variants use (``None`` without SciPy)."""

    #: Cholesky solve of a symmetric positive-definite system.
    posv: Callable[..., Any] | None
    #: Triangular solve.
    trtrs: Callable[..., Any] | None


_lock = threading.Lock()
_solvers: LapackSolvers | None = None


def lapack_solvers() -> LapackSolvers:
    """The process's ``dposv`` / ``dtrtrs`` handles, importing SciPy on first call.

    Thread-safe: concurrent first calls (tenants starting on service worker
    threads) import once and all see the same handles.
    """
    solvers = _solvers
    if solvers is None:
        solvers = _resolve()
    return solvers


def _resolve() -> LapackSolvers:
    global _solvers
    with _lock:
        if _solvers is None:
            try:
                from scipy.linalg.lapack import dposv, dtrtrs
            except ImportError:
                dposv = dtrtrs = None
            _solvers = LapackSolvers(posv=dposv, trtrs=dtrtrs)
        return _solvers
