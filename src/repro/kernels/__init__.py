"""Pluggable compiled-kernel backends for the model hot path.

The per-event least-squares math of the SliceNStitch family — MTTKRP
rows, the fused sampled residual, the batched reconstruction gather, and
the ridge-regularized solves — lives behind the narrow five-kernel API of
:mod:`repro.kernels.api`.  Backends register in
:mod:`repro.kernels.registry`; the numpy reference
(:mod:`repro.kernels.numpy_backend`) is always available and bit-pinned
to the historical inline implementations, and the numba JIT backend
(:mod:`repro.kernels.numba_backend`) is selected automatically when
importable.

Selection: ``SNSConfig(backend=...)`` / ``StreamConfig(backend=...)`` per
model, the CLI ``--backend`` knob process-wide, or the
``REPRO_KERNEL_BACKEND`` environment variable; ``"auto"`` prefers numba
and degrades silently to numpy.
"""

from __future__ import annotations

from repro.kernels.api import (
    KERNEL_NAMES,
    KernelBackend,
    empty_overrides,
    flatten_mode_overrides,
)
# NOTE: registry.numpy_backend() is deliberately NOT re-exported here —
# importing the repro.kernels.numpy_backend submodule sets an attribute of
# the same name on this package, so a re-export would be silently replaced
# by the module object.  Use repro.kernels.registry.numpy_backend directly.
from repro.kernels.registry import (
    AUTO,
    ENV_VAR,
    KernelFallbackWarning,
    available_backends,
    default_backend_name,
    known_backends,
    load_backend,
    register_backend,
    resolve_backend,
    set_default_backend,
)


# importlib, not `from repro.kernels import ...`: the registry helpers
# re-exported above shadow the submodule attributes of the same names.
def _load_numpy() -> KernelBackend:
    import importlib

    return importlib.import_module("repro.kernels.numpy_backend").load()


def _load_numba() -> KernelBackend:
    import importlib

    return importlib.import_module("repro.kernels.numba_backend").load()


register_backend("numpy", _load_numpy)
register_backend("numba", _load_numba)

__all__ = [
    "AUTO",
    "ENV_VAR",
    "KERNEL_NAMES",
    "KernelBackend",
    "KernelFallbackWarning",
    "available_backends",
    "default_backend_name",
    "empty_overrides",
    "flatten_mode_overrides",
    "known_backends",
    "load_backend",
    "register_backend",
    "resolve_backend",
    "set_default_backend",
]
