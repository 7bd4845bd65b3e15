"""One type rule for every config, every ingested record and every saved file.

A value is checked against a declared type (a dataclass field's annotation,
or an entry of a :func:`~repro.stream.checkpoint.require_keys` table) by one
rule: a bool is no number; ``int`` takes any :class:`numbers.Integral` and
stores an ``int``; ``float`` takes any real number, finite in a config or a
record, and stores a ``float``; ``X | None`` admits None; ``tuple[X, ...]``
takes a list or a tuple and stores a tuple, ``list[X]`` a list; ``object``
and ``Any`` take anything, any other class its instances.  Anything else is
refused, never truncated: 2.7 is not the integer 2.

No numpy import (numpy registers its scalars with :mod:`numbers`), so the
service CLI still loads no numpy before it sets BLAS's thread count.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import types
import typing
from collections.abc import Mapping
from typing import Any

from repro.exceptions import ConfigurationError

#: What :func:`_conform` returns for a value that ``kind`` refuses.
_REFUSED = object()

#: How a refusal names a type, singular and plural.
_NAMES = {
    int: ("an integer", "integers"),
    float: ("a finite number", "finite numbers"),
    bool: ("true or false", "booleans"),
    str: ("a string", "strings"),
}


def _conform(value: Any, kind: Any, finite: bool) -> Any:
    """``value`` as stored under ``kind``, or ``_REFUSED``."""
    # ``type(value) is ...`` only skips the slower ABC check: every
    # ingested record passes through here.
    if kind is int:
        if type(value) is int or (
            isinstance(value, numbers.Integral) and not isinstance(value, bool)
        ):
            return int(value)
        return _REFUSED
    if kind is float:
        if (
            type(value) is float
            or (isinstance(value, numbers.Real) and not isinstance(value, bool))
        ) and (not finite or math.isfinite(value)):
            return float(value)
        return _REFUSED
    # Dunders, not typing.get_origin/get_args: this runs for every record.
    origin = getattr(kind, "__origin__", None)
    if origin is list or origin is tuple:
        item = kind.__args__[0]
        if not isinstance(value, list if origin is list else (list, tuple)):
            return _REFUSED
        if type(value) is origin and {*map(type, value)} <= {item} - {float}:
            return value  # already in stored form; a float needs its finite check
        items = [_conform(element, item, finite) for element in value]
        if _REFUSED in items:
            return _REFUSED
        return items if origin is list else tuple(items)
    if origin is typing.Union or isinstance(kind, types.UnionType):
        for option in kind.__args__:
            conformed = _conform(value, option, finite)
            if conformed is not _REFUSED:
                return conformed
        return _REFUSED
    return value if kind is Any or isinstance(value, kind) else _REFUSED


def matches(value: Any, kind: Any) -> bool:
    """Whether the JSON ``value`` has type ``kind``, non-finite numbers included.

    A saved file may hold them: a run checkpoint's fitness series records
    ``-inf`` for an empty window.
    """
    return _conform(value, kind, finite=False) is not _REFUSED


def _describe(kind: Any, plural: bool = False) -> str:
    """``kind`` as a refusal names it: ``a list of integers``."""
    origin = typing.get_origin(kind)
    if origin is list or origin is tuple:
        return f"a list of {_describe(typing.get_args(kind)[0], plural=True)}"
    if origin is types.UnionType or origin is typing.Union:
        options = typing.get_args(kind)
        return " or ".join(_describe(o) for o in options if o is not type(None))
    names = _NAMES.get(kind) or (f"a {kind.__name__}", f"{kind.__name__} values")
    return names[plural]


@functools.cache
def _field_kinds(cls: type) -> tuple[tuple[str, Any], ...]:
    """Each field of the dataclass ``cls`` with its resolved annotation."""
    hints = typing.get_type_hints(cls)
    return tuple((field.name, hints[field.name]) for field in dataclasses.fields(cls))


def check_fields(instance: Any) -> None:
    """Hold the dataclass ``instance`` to its own annotations.

    Each field is stored in its type's form (a numpy integer as ``int``, a
    list as a tuple); a refusal raises
    :class:`~repro.exceptions.ConfigurationError` naming the field:
    ``window_length must be an integer, got 2.5``.
    """
    for name, kind in _field_kinds(type(instance)):
        value = getattr(instance, name)
        stored = _conform(value, kind, finite=True)
        if stored is _REFUSED:
            raise ConfigurationError(f"{name} must be {_describe(kind)}, got {value!r}")
        if stored is not value:
            object.__setattr__(instance, name, stored)


def from_dict(cls: type, payload: Any, what: str) -> Any:
    """The config ``cls`` built from the JSON object ``payload``.

    Missing keys take their defaults.  A payload that is not an object, an
    unknown key (a typo must not leave a default nobody asked for) and a
    missing required one raise :class:`~repro.exceptions.ConfigurationError`
    naming the ``what``, never a ``TypeError``.
    """
    if not isinstance(payload, Mapping):
        raise ConfigurationError(
            f"a {what} must be a JSON object, got {type(payload).__name__}"
        )
    known = sorted(name for name, _ in _field_kinds(cls))
    unknown = sorted(set(payload) - set(known))
    if unknown:
        raise ConfigurationError(f"unknown {what} keys {unknown}; known keys: {known}")
    try:
        return cls(**payload)
    except TypeError as error:
        raise ConfigurationError(f"invalid {what}: {error}") from error
