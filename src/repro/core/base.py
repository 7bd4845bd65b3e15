"""Shared infrastructure of the SliceNStitch algorithm family.

Every algorithm in :mod:`repro.core` follows the same life cycle:

1. ``initialize(window, factors)`` — adopt the current tensor window and a
   starting CP decomposition (in the paper and in our experiments, the result
   of batch ALS on the initial window), and build the Gram matrices
   ``Q(m) = A(m)'A(m)`` that all update rules rely on.
2. ``update(delta)`` — react to one window event.  The caller (normally
   :class:`repro.stream.processor.ContinuousStreamProcessor` via the
   experiment runner) applies the delta to the window *before* calling
   ``update``, so ``self.window.tensor`` always equals the paper's
   ``X + ΔX`` while ``delta`` carries ``ΔX`` itself.
3. ``update_batch(batch)`` — react to a coalesced
   :class:`~repro.stream.deltas.DeltaBatch` of events drained by the batched
   engine (``ContinuousStreamProcessor.run_batched``).  Here the model owns
   the window mutation: it applies each event's entry changes and then runs
   that event's update, so the result is bit-identical to the per-event path
   (unless ``SNSConfig.relaxed`` opts into the relaxed batch update of
   :mod:`repro.core.relaxed`).

Both entry points call the same per-event hook, :meth:`ContinuousCPD._update`,
with the event's entry changes and categorical indices; each variant
implements its update rule there, once.  The base class also centralises the
bookkeeping helpers shared by several variants: rank-one Gram updates
(Eq. 13 / Eqs. 24-25), pseudo-inverses of Hadamard-of-Gram matrices, and the
fitness computation used by the evaluation.
"""

from __future__ import annotations

import abc
import dataclasses
from collections.abc import Mapping, Sequence
from typing import Any

import numpy as np

from repro.core.relaxed import update_batch as relaxed_update_batch
from repro.exceptions import ConfigurationError, NotFittedError, RankError, ShapeError
from repro.kernels.registry import resolve_backend
from repro.stream.deltas import Delta, DeltaBatch
from repro.stream.window import TensorWindow
from repro.tensor.kruskal import KruskalTensor
from repro.tensor.products import hadamard_all
from repro.tensor.sparse import SparseTensor

Coordinate = tuple[int, ...]

#: One event's entry changes: ``((coordinate, value), ...)``, at most two.
Entries = tuple[tuple[Coordinate, float], ...]


@dataclasses.dataclass(frozen=True, slots=True)
class SNSConfig:
    """Hyper-parameters shared by the SliceNStitch algorithms (Table III).

    Attributes
    ----------
    rank:
        CP rank ``R``.
    theta:
        Sampling threshold ``θ`` used by the randomised variants
        (``SNSRnd`` / ``SNSRndPlus``); ignored by the others.
    eta:
        Clipping threshold ``η`` used by the stable variants
        (``SNSVecPlus`` / ``SNSRndPlus``); ignored by the others.
    regularization:
        Small Tikhonov term added before pseudo-inverting Hadamard-of-Gram
        matrices.  The paper's C++ implementation relies on exact
        pseudo-inverses; a tiny ridge keeps float64 pinv well-behaved without
        changing results materially.
    nonnegative:
        Extension beyond the paper: when True, the coordinate-descent variants
        (``SNSVecPlus`` / ``SNSRndPlus``) project every updated entry onto
        ``[0, η]`` instead of ``[-η, η]``, yielding a non-negative streaming
        CP decomposition (the constraint CP-stream supports offline; listed as
        future work for SliceNStitch).  Ignored by the other variants.
    seed:
        Seed for the sampling generator of the randomised variants.
    backend:
        Registered name of the kernels the hot path calls (see
        :mod:`repro.kernels`).  ``"auto"`` (the default) takes the process
        default of :func:`repro.kernels.set_default_backend`, else the numpy
        kernels.  This is the seam through which a caller substitutes
        instrumented kernels; it is not a model hyper-parameter, so a
        checkpoint restores on whatever ``"auto"`` resolves to.
    relaxed:
        ``False`` (the default) runs the exact paper algorithm on both
        engines.  ``True`` makes ``update_batch`` run the relaxed batch
        update (:mod:`repro.core.relaxed`): every row a batch touches is
        solved once, in block Gauss-Seidel order against the live factors,
        trading a fitness deviation (gated by
        ``benchmarks/bench_sharded.py``) for throughput.  Ignored by the
        per-event path.
    """

    rank: int
    theta: int = 20
    eta: float = 1000.0
    regularization: float = 1e-12
    nonnegative: bool = False
    seed: int | None = 0
    backend: str = "auto"
    relaxed: bool = False

    def __post_init__(self) -> None:
        if self.rank <= 0:
            raise RankError(f"rank must be positive, got {self.rank}")
        if self.theta <= 0:
            raise ConfigurationError(f"theta must be positive, got {self.theta}")
        if self.eta <= 0:
            raise ConfigurationError(f"eta must be positive, got {self.eta}")
        if self.regularization < 0:
            raise ConfigurationError(
                f"regularization must be >= 0, got {self.regularization}"
            )
        if not isinstance(self.backend, str) or not self.backend:
            raise ConfigurationError(
                f"backend must be a backend name or 'auto', got {self.backend!r}"
            )
        if not isinstance(self.relaxed, bool):
            raise ConfigurationError(
                f"relaxed must be True or False, got {self.relaxed!r}"
            )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SNSConfig":
        """Rebuild a config saved as a plain dict (e.g. in a checkpoint).

        Keys the saved dict lacks take their defaults: checkpoints written
        before a field existed were implicitly run with its default.
        Checkpoints written while there were two slice samplers carry a
        ``sampling`` key; ``"vectorized"`` is the sampler that remains and
        is dropped, any other value raises :class:`ConfigurationError`
        because that run cannot be continued exactly.  A string ``backend``
        is dropped too: checkpoints written while there were two kernel
        backends may name ``"numba"``, and a restored model runs on
        whatever ``"auto"`` resolves to.  Configs with a ``shards`` or
        ``staleness`` key go through :func:`migrate_relaxed`.
        """
        fields = dict(payload)
        if isinstance(fields.get("backend"), str):
            del fields["backend"]
        sampling = fields.pop("sampling", "vectorized")
        if sampling != "vectorized":
            raise ConfigurationError(
                f"saved config has sampling={sampling!r}; only the "
                "'vectorized' slice sampler exists, so this run cannot be "
                "restored"
            )
        migrate_relaxed(fields)
        return cls(**fields)


def migrate_relaxed(fields: dict[str, Any]) -> None:
    """Rewrite a config saved with ``shards``/``staleness`` keys to ``relaxed``.

    Configs written while the relaxed update solved against a factor
    snapshot carry an integer ``staleness`` (``None`` = exact), and older
    ones ``shards`` next to it, where ``staleness`` 0 meant the exact path
    whenever ``shards`` was in ``{None, 1}``.  After that rule, a
    ``staleness`` of ``None`` maps to the exact path and any integer to
    ``relaxed=True``.  More than one shard raises
    :class:`ConfigurationError`: that run's per-shard sample streams and
    summation order cannot be continued.  Edits ``fields`` in place; a dict
    with neither key is left alone.
    """
    if "shards" in fields:
        shards = fields.pop("shards")
        if shards not in (None, 1):
            raise ConfigurationError(
                f"saved config has shards={shards!r}; only single-shard runs "
                "can be continued"
            )
        if fields.get("staleness") == 0:
            fields["staleness"] = None
    if fields.pop("staleness", None) is not None:
        fields["relaxed"] = True


class ContinuousCPD(abc.ABC):
    """Base class for online CP decomposition in the continuous tensor model."""

    #: Registry name, set by subclasses (e.g. ``"sns_rnd_plus"``).
    name: str = "continuous_cpd"

    #: Relaxed-path row rule (see :mod:`repro.core.relaxed`): ``True`` on
    #: the clipped coordinate-descent variants (SNS+_VEC / SNS+_RND), which
    #: update rows with
    #: :func:`repro.core.rowmath.clipped_coordinate_descent`; ``False`` on
    #: the least-squares variants, which use the batched regularized solve.
    relaxed_clipped: bool = False

    def __init__(self, config: SNSConfig) -> None:
        self._config = config
        self._window: TensorWindow | None = None
        self._factors: list[np.ndarray] = []
        self._grams: list[np.ndarray] = []
        self._rng = np.random.default_rng(config.seed)
        self._n_updates = 0
        # rank x rank ridge term added by _pinv, built once instead of per call.
        self._ridge: np.ndarray | None = (
            config.regularization * np.eye(config.rank)
            if config.regularization > 0
            else None
        )
        # Scratch buffers for the rank-one Gram updates (hot path: reused
        # instead of allocating three temporaries per row update).
        self._gram_scratch_new = np.empty((config.rank, config.rank))
        self._gram_scratch_old = np.empty((config.rank, config.rank))
        # Hot-path array kernels (see repro.kernels.registry).
        self._kernels = resolve_backend(config.backend)

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def config(self) -> SNSConfig:
        """Hyper-parameters of this instance."""
        return self._config

    @property
    def rank(self) -> int:
        """CP rank ``R``."""
        return self._config.rank

    @property
    def window(self) -> TensorWindow:
        """The tensor window this model tracks."""
        self._require_initialized()
        return self._window  # type: ignore[return-value]

    @property
    def factors(self) -> list[np.ndarray]:
        """The live factor matrices (mutated in place by updates)."""
        self._require_initialized()
        return self._factors

    @property
    def grams(self) -> list[np.ndarray]:
        """The maintained Gram matrices ``A(m)'A(m)``."""
        self._require_initialized()
        return self._grams

    @property
    def n_updates(self) -> int:
        """Number of ``update`` calls processed so far."""
        return self._n_updates

    @property
    def order(self) -> int:
        """Tensor order ``M`` of the tracked window."""
        return self.window.order

    @property
    def time_mode(self) -> int:
        """Index of the time mode (the last mode)."""
        return self.window.order - 1

    @property
    def decomposition(self) -> KruskalTensor:
        """Current factorization as a :class:`KruskalTensor`."""
        self._require_initialized()
        return KruskalTensor([factor.copy() for factor in self._factors])

    @property
    def n_parameters(self) -> int:
        """Number of model parameters (factor-matrix entries, Fig. 1d)."""
        self._require_initialized()
        return int(sum(factor.size for factor in self._factors))

    def _require_initialized(self) -> None:
        if self._window is None:
            raise NotFittedError(
                f"{type(self).__name__} must be initialized before use"
            )

    # ------------------------------------------------------------------
    # Life cycle
    # ------------------------------------------------------------------
    def initialize(
        self,
        window: TensorWindow,
        factors: Sequence[np.ndarray] | KruskalTensor,
    ) -> None:
        """Adopt the current window and starting factor matrices.

        ``factors`` may be a plain sequence of matrices or a
        :class:`KruskalTensor`; weights of a Kruskal tensor are absorbed into
        the first factor so the streaming algorithms work with unweighted
        factors, as in the paper.
        """
        if isinstance(factors, KruskalTensor):
            factors = factors.absorb_weights().factors
        factors = [np.array(f, dtype=np.float64, copy=True) for f in factors]
        if len(factors) != window.order:
            raise ShapeError(
                f"{len(factors)} factor matrices for an order-{window.order} window"
            )
        for mode, factor in enumerate(factors):
            expected = (window.shape[mode], self._config.rank)
            if factor.shape != expected:
                raise ShapeError(
                    f"factor {mode} has shape {factor.shape}, expected {expected}"
                )
        self._window = window
        self._factors = factors
        self._grams = [factor.T @ factor for factor in factors]
        self._n_updates = 0
        self._post_initialize()
        if self._config.relaxed:
            self._prepare_relaxed()

    def _post_initialize(self) -> None:
        """Hook for subclasses that maintain extra state (e.g. prev-Grams)."""

    def _prepare_relaxed(self) -> None:
        """Hook run by :meth:`initialize` when ``config.relaxed`` is set.

        Variants whose exact state layout is incompatible with independent
        row solves normalise it here (``SNSMat`` absorbs its column weights
        ``λ`` into the first factor); the default is a no-op.  It never runs
        on restore: a checkpoint holds the state it already produced.
        """

    # ------------------------------------------------------------------
    # Checkpoint state protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """Full serializable run state of this model.

        Returns a nested dict of plain values and numpy arrays: the registry
        ``name``, the hyper-parameter ``config`` (as a plain dict), the
        ``n_updates`` counter, the numpy ``Generator`` bit-generator state
        (so the slice sampler resumes on the exact same draws), the factor
        and Gram matrices, and a variant-specific ``aux`` dict
        (:meth:`_aux_state`).  Together with the window this is everything
        needed to continue the run exactly; see
        :mod:`repro.stream.checkpoint` for the on-disk format.
        """
        self._require_initialized()
        return {
            "name": self.name,
            "config": dataclasses.asdict(self._config),
            "n_updates": int(self._n_updates),
            "rng_state": self._rng.bit_generator.state,
            "factors": [factor.copy() for factor in self._factors],
            "grams": [gram.copy() for gram in self._grams],
            "aux": self._aux_state(),
        }

    def load_state(self, window: TensorWindow, state: Mapping[str, Any]) -> None:
        """Adopt ``window`` and restore the run state saved by :meth:`state_dict`.

        ``window`` must already hold the tensor state the checkpoint was
        taken at (the checkpoint restore path rebuilds it first).  The model
        must have been constructed with the same hyper-parameters as the
        saved one; a mismatch in ``name`` or ``config`` raises
        :class:`~repro.exceptions.ConfigurationError` instead of silently
        resuming a different algorithm.  State saved by the snapshot-based
        relaxed update (``shard_*`` aux entries) raises it too: that run
        cannot be continued by the Gauss-Seidel update.
        """
        name = state.get("name")
        if name != self.name:
            raise ConfigurationError(
                f"cannot load state of algorithm {name!r} into {self.name!r}"
            )
        if state.get("config") is not None:
            saved_config = dataclasses.asdict(SNSConfig.from_dict(state["config"]))
            current_config = dataclasses.asdict(self._config)
            # The kernels are not a model hyper-parameter: a checkpoint
            # restores whatever kernels this instance was built with.
            saved_config.pop("backend")
            current_config.pop("backend")
            if saved_config != current_config:
                mismatched = sorted(
                    key
                    for key in current_config
                    if saved_config[key] != current_config[key]
                )
                raise ConfigurationError(
                    f"checkpointed config does not match this instance "
                    f"(differs in {mismatched})"
                )
        aux = state.get("aux") or {}
        snapshot_keys = sorted(key for key in aux if key.startswith("shard_"))
        if snapshot_keys:
            raise ConfigurationError(
                f"checkpointed state carries {snapshot_keys} from the "
                "snapshot-based relaxed update; this run cannot be restored"
            )
        factors = [
            np.array(factor, dtype=np.float64, copy=True)
            for factor in state["factors"]
        ]
        if len(factors) != window.order:
            raise ShapeError(
                f"{len(factors)} factor matrices for an order-{window.order} window"
            )
        rank = self._config.rank
        for mode, factor in enumerate(factors):
            expected = (window.shape[mode], rank)
            if factor.shape != expected:
                raise ShapeError(
                    f"factor {mode} has shape {factor.shape}, expected {expected}"
                )
        grams = [
            np.array(gram, dtype=np.float64, copy=True) for gram in state["grams"]
        ]
        if len(grams) != len(factors) or any(
            gram.shape != (rank, rank) for gram in grams
        ):
            raise ShapeError("Gram matrices do not match the factor layout")
        self._window = window
        self._factors = factors
        self._grams = grams
        self._n_updates = int(state.get("n_updates", 0))
        self._rng = np.random.default_rng(self._config.seed)
        rng_state = state.get("rng_state")
        if rng_state is not None:
            self._rng.bit_generator.state = rng_state
        self._post_restore()
        self._load_aux_state(aux)

    def _aux_state(self) -> dict[str, Any]:
        """Variant-specific extra state (arrays / lists of arrays)."""
        return {}

    def _load_aux_state(self, aux: Mapping[str, Any]) -> None:
        """Restore what :meth:`_aux_state` saved (after :meth:`_post_restore`)."""

    def _post_restore(self) -> None:
        """Rebuild derived buffers after :meth:`load_state`.

        Defaults to :meth:`_post_initialize`; subclasses whose
        ``_post_initialize`` *transforms* the adopted state rather than just
        deriving scratch from it (``SNSMat`` re-normalises the factors)
        override this to skip the transformation.
        """
        self._post_initialize()

    def update(self, delta: Delta) -> None:
        """Update the factor matrices in response to one window event."""
        self._require_initialized()
        self._update(delta.entries, delta.categorical_indices)
        self._n_updates += 1

    def update_batch(self, batch: DeltaBatch) -> None:
        """React to a whole :class:`DeltaBatch` of window events.

        Contract — note the difference from :meth:`update`: the caller must
        **not** have applied the batch to the window.  ``update_batch`` owns
        the window mutation so it can interleave it with factor updates and
        preserve exact per-event semantics: each event's update rule must
        observe the window as of *that* event, not the batch's final state.

        With ``config.relaxed`` set the batch goes to
        :func:`repro.core.relaxed.update_batch`, which applies it whole and
        solves each touched row once, in block Gauss-Seidel order.
        Otherwise the exact path walks the batch's raw entry groups (no
        per-event ``Delta`` objects), applies each event to the window and
        runs the same :meth:`_update` as :meth:`update` — bit for bit the
        per-event path.
        """
        self._require_initialized()
        if self._config.relaxed:
            relaxed_update_batch(self, batch)
            return
        window = self.window
        trusted = batch.trusted
        for record, _step, entries in batch.entry_groups():
            window.apply_entry_changes(entries, trusted=trusted)
            self._update(entries, record.indices)
            self._n_updates += 1

    @abc.abstractmethod
    def _update(self, entries: Entries, categorical_indices: tuple[int, ...]) -> None:
        """The variant's update rule for one event.

        ``entries`` are the event's entry changes ``ΔX`` (one or two), and
        ``categorical_indices`` its ``(i_1, ..., i_{M-1})``; the window
        already holds ``X + ΔX``.
        """

    # ------------------------------------------------------------------
    # Evaluation helpers
    # ------------------------------------------------------------------
    def fitness(self, tensor: SparseTensor | None = None) -> float:
        """Fitness of the current factorization against ``tensor`` (default: the window)."""
        target = self.window.tensor if tensor is None else tensor
        return self.decomposition.fitness(target)

    def reconstruction_at(self, coordinate: Sequence[int]) -> float:
        """Reconstructed value at one window coordinate."""
        self._require_initialized()
        product = np.ones(self.rank, dtype=np.float64)
        for factor, index in zip(self._factors, coordinate):
            product *= factor[int(index), :]
        return float(product.sum())

    # ------------------------------------------------------------------
    # Shared linear-algebra helpers
    # ------------------------------------------------------------------
    def _hadamard_of_grams(
        self, skip: int, grams: Sequence[np.ndarray] | None = None
    ) -> np.ndarray:
        """``*_{n != skip} A(n)'A(n)`` from the maintained Gram matrices."""
        source = self._grams if grams is None else grams
        selected = [g for mode, g in enumerate(source) if mode != skip]
        # Orders 2 and 3 (one or two remaining Grams) dominate the update hot
        # path; inline them past hadamard_all's generic reduce.  Same float
        # operations, so results are bit-identical.
        if len(selected) == 1:
            return selected[0]
        if len(selected) == 2:
            return selected[0] * selected[1]
        return hadamard_all(selected)

    def _pinv(self, matrix: np.ndarray) -> np.ndarray:
        """(Pseudo-)inverse with the configured ridge for numerical safety.

        The plain inverse is attempted first because it is several times
        faster for the small ``R x R`` matrices involved; singular matrices
        fall back to the Moore-Penrose pseudo-inverse, matching the paper's
        update rules.
        """
        if self._ridge is not None:
            matrix = matrix + self._ridge
        try:
            return np.linalg.inv(matrix)
        except np.linalg.LinAlgError:
            return np.linalg.pinv(matrix)

    def _other_rows_product(
        self, mode: int, coordinate: Sequence[int]
    ) -> np.ndarray:
        """Hadamard product of the other modes' factor rows at ``coordinate``."""
        product = np.ones(self.rank, dtype=np.float64)
        for other_mode, factor in enumerate(self._factors):
            if other_mode == mode:
                continue
            product *= factor[int(coordinate[other_mode]), :]
        return product

    def _update_gram(self, mode: int, old_row: np.ndarray, new_row: np.ndarray) -> None:
        """Rank-one Gram maintenance: Eq. (13) (equivalently Eqs. 24-25).

        Written with scratch buffers instead of ``np.outer`` temporaries; the
        float operations (two outer products, one subtraction, one in-place
        add) are the same, so the result is bit-identical.
        """
        scratch_new = self._gram_scratch_new
        scratch_old = self._gram_scratch_old
        np.multiply(new_row[:, None], new_row[None, :], out=scratch_new)
        np.multiply(old_row[:, None], old_row[None, :], out=scratch_old)
        np.subtract(scratch_new, scratch_old, out=scratch_new)
        self._grams[mode] += scratch_new

    def _affected_rows(
        self, entries: Entries, categorical_indices: tuple[int, ...]
    ) -> list[tuple[int, int]]:
        """Rows of factor matrices affected by one event: (mode, index) pairs.

        Ordered as in Algorithm 3: the affected time-mode rows first (the
        subtraction's unit before the addition's unit), then one row per
        categorical mode.
        """
        time_mode = self.time_mode
        rows: list[tuple[int, int]] = []
        for coordinate, _value in entries:
            row = (time_mode, coordinate[-1])
            if row not in rows:
                rows.append(row)
        rows.extend(enumerate(categorical_indices))
        return rows
