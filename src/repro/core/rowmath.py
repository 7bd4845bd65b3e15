"""Row-level update arithmetic shared by the exact and relaxed paths.

The clipped coordinate-descent sweep (lines 2-5 of Algorithm 5) is used by
``SNSVecPlus``, by ``SNSRndPlus``'s reference loop and by the relaxed batch
update (:mod:`repro.core.relaxed`), which sweeps each touched row once per
batch with a numerator it computes itself, so the loop is a pure function of
arrays that all callers share.  The float operations are unchanged from the seed
implementation, which keeps every golden and bit-exactness suite pinned.
"""

from __future__ import annotations

import numpy as np


def clipped_coordinate_descent(
    old_row: np.ndarray,
    numerator: np.ndarray,
    hadamard: np.ndarray,
    eta: float,
    lower: float,
    ridge: float,
) -> np.ndarray:
    """One clipped coordinate-descent sweep over a factor row (Algorithm 5).

    For each column ``k``:

    * ``c_k`` is the ``(k, k)`` entry of the Hadamard-of-Grams matrix
      (Eq. 20, first line), plus the ridge,
    * ``d_k = sum_{r != k} a_r * H_{r k}`` uses the *current* row, so
      entries updated earlier in this sweep immediately influence later
      ones (true coordinate descent),
    * the data term ``numerator[k]`` is precomputed by the caller because
      it does not depend on the row being updated,
    * the updated entry is clipped into ``[lower, eta]`` (``lower`` is
      ``0.0`` under the nonnegative constraint, ``-eta`` otherwise),
    * a non-positive ``c_k`` keeps the entry unchanged (the seed's "skip
      this entry" semantics).

    ``old_row`` is not mutated; the updated row is returned.
    """
    row = old_row.copy()
    for k in range(row.shape[0]):
        column = hadamard[:, k]
        c_k = column[k] + ridge
        if c_k <= 0.0:
            continue
        d_k = float(row @ column) - row[k] * column[k]
        updated = (numerator[k] - d_k) / c_k
        if updated > eta:
            updated = eta
        elif updated < lower:
            updated = lower
        row[k] = updated
    return row
