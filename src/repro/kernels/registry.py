"""Kernel registry: which five kernels a model's hot path calls.

:func:`resolve_backend` picks them when a model is built:

1. an explicit registered name (``SNSConfig.backend``);
2. else the process default installed by :func:`set_default_backend`;
3. else the numpy kernels of :mod:`repro.kernels.numpy_backend`.

``"auto"`` (``SNSConfig``'s default) and ``None`` mean "no explicit name".
The numpy kernels are the only implementation; the registry is the seam
through which a caller substitutes instrumented kernels (the benchmark's
traced runs wrap each one in a timer) without patching the models.  An
unknown name raises: a typo must not silently run other kernels.
"""

from __future__ import annotations

from typing import Callable

from repro.exceptions import ConfigurationError
from repro.kernels.api import KernelBackend, validate_backend
from repro.kernels.numpy_backend import load as _load_numpy

#: The name that defers to the process default.
AUTO = "auto"

_NUMPY = _load_numpy()
_backends: dict[str, KernelBackend] = {_NUMPY.name: _NUMPY}
_process_default: str | None = None


def register_backend(
    name: str, factory: Callable[[], KernelBackend], *, replace: bool = False
) -> None:
    """Register the backend ``factory()`` builds under ``name``."""
    if name == AUTO:
        raise ConfigurationError(f"{AUTO!r} is reserved and cannot be registered")
    if name in _backends and not replace:
        raise ConfigurationError(f"kernel backend {name!r} already registered")
    _backends[name] = validate_backend(factory())


def _lookup(name: str) -> KernelBackend:
    try:
        return _backends[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown kernel backend {name!r}; known: {', '.join(sorted(_backends))}"
        ) from None


def numpy_backend() -> KernelBackend:
    """The numpy kernels, whatever the process default is."""
    return _NUMPY


def set_default_backend(name: str | None) -> None:
    """Make ``"auto"`` resolve to ``name``; ``None`` restores the numpy kernels."""
    global _process_default
    if name is not None:
        _lookup(name)
    _process_default = name


def resolve_backend(name: str | None = None) -> KernelBackend:
    """The backend registered as ``name``, else the process default, else numpy."""
    if name is None or name == AUTO:
        name = _process_default
        if name is None:
            return _NUMPY
    return _lookup(name)
