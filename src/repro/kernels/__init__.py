"""The five array kernels of the model hot path.

The per-event least-squares math of the SliceNStitch family — MTTKRP
rows, the fused sampled residual, the batched reconstruction gather, and
the ridge-regularized solves — lives behind the narrow five-kernel API of
:mod:`repro.kernels.api`, implemented in numpy by
:mod:`repro.kernels.numpy_backend`.  :mod:`repro.kernels.registry` decides
which implementation a model calls: the numpy kernels unless a caller has
registered instrumented ones and named them through ``SNSConfig.backend``
or :func:`set_default_backend`.
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
    register_backend,
    resolve_backend,
    set_default_backend,
)

__all__ = [
    "KERNEL_NAMES",
    "KernelBackend",
    "empty_overrides",
    "flatten_mode_overrides",
    "register_backend",
    "resolve_backend",
    "set_default_backend",
]
