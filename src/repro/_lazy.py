"""Package exports resolved on first access (PEP 562).

``import repro`` and ``import repro.service`` load no numpy: each package
maps its exported names to the modules that define them, and a module is
imported when one of its names is first read.  A serving process relies on
this to choose its BLAS thread count before numpy loads
(:func:`repro.service.cli.main`).
"""

from __future__ import annotations

import importlib
from collections.abc import Callable, Mapping
from typing import Any


def lazy_exports(
    namespace: dict[str, Any], exports: Mapping[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``__getattr__`` and ``__dir__`` for the package owning ``namespace``.

    ``exports`` maps each lazily exported name to the module it is imported
    from.  A resolved name is stored in ``namespace``, so later reads are
    ordinary attribute lookups and return the same object.
    """

    def __getattr__(name: str) -> Any:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
