"""The one wire format: a dataclass's lossless dict, derived from its fields.

Specs cross the process pool as dicts and results come back the same
way; ``--out-dir`` saves those dicts, ``repro report --from`` reloads
them, and every golden digest hashes them.  A class that inherits
:class:`Wire` gets ``to_dict()``/``from_dict()`` from its field
annotations, so a field is declared once and nowhere else:

======================================  ================================
annotation                              wire form
======================================  ================================
``int`` ``float``                       itself (coerced on load)
``bool`` ``str``                        itself (type-checked on load)
``X | None``                            ``null`` or X's form
``list[X]`` ``tuple[X, ...]``           a list of X's form
``dict[str, X]``                        a dict of X's form, in key order
``tuple[tuple[str, object], ...]``      a dict (the sorted override tuple)
a class with ``to_dict``/``from_dict``  that class's form
``object`` ``dict``                     plain JSON, copied all the way down
======================================  ================================

Loading is the only parser of outside input in the package, so it is
strict: a missing key takes the field's declared default; a missing
field without one, a key no field owns, a ``kind`` tag that is not the
class's, a payload that is not a dict and a value that does not convert
each raise :class:`~repro.errors.ConfigError` naming the class and the
field.  Nothing but a :class:`~repro.errors.ReproError` leaves
``from_dict``.

Three class attributes describe layout the saved payloads already have:
``_wire_kind`` (the ``"kind"`` tag a loader dispatches on, written and
checked), ``_wire_groups`` (fields nested one level down under a group
key) and ``_wire_extra`` (keys accepted and ignored on load).  They are
declarations beside the fields, not options; DESIGN.md "Wire format"
says why each exists.
"""

from __future__ import annotations

import dataclasses
import reprlib
import types
import typing
from functools import cache, partial
from typing import Callable, ClassVar

from repro.errors import ConfigError

#: What converting a malformed value raises; loaders turn these (and
#: nothing wider) into :class:`ConfigError`.
LOAD_ERRORS = (AttributeError, KeyError, TypeError, ValueError)

_OVERRIDES = tuple[tuple[str, object], ...]


def load_error(what: str, raw: object, error: Exception) -> ConfigError:
    """The :class:`ConfigError` for a value of ``what`` that did not load."""
    return ConfigError(f"{what}: cannot load {reprlib.repr(raw)}: {error!r}")


def _plain(value: object) -> object:
    """A copy of plain JSON data that shares no container with ``value``."""
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_plain(item) for item in value]
    return value


def _same(value: object) -> object:
    return value


def _expect(kind: type, value: object):
    if not isinstance(value, kind):
        raise TypeError(
            f"expected {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _converters(hint: object) -> tuple[Callable, Callable]:
    """``(to_wire, from_wire)`` for one field annotation."""
    if hint is int or hint is float:
        return _same, hint
    if hint is bool or hint is str:
        return _same, partial(_expect, hint)
    if hint is object or hint is dict:
        return _plain, _plain
    if hint == _OVERRIDES:
        return dict, lambda value: tuple(_expect(dict, value).items())
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (types.UnionType, typing.Union) and type(None) in args:
        (inner,) = (arg for arg in args if arg is not type(None))
        to_wire, from_wire = _converters(inner)
        return (
            lambda value: None if value is None else to_wire(value),
            lambda value: None if value is None else from_wire(value),
        )
    if origin in (list, tuple):
        to_wire, from_wire = _converters(args[0])
        return (
            lambda value: [to_wire(item) for item in value],
            lambda value: origin(from_wire(item) for item in _expect(list, value)),
        )
    if origin is dict:
        to_wire, from_wire = _converters(args[1])
        return (
            lambda value: {
                key: to_wire(item) for key, item in sorted(value.items())
            },
            lambda value: {
                key: from_wire(item)
                for key, item in _expect(dict, value).items()
            },
        )
    if hasattr(hint, "to_dict") and hasattr(hint, "from_dict"):
        return hint.to_dict, hint.from_dict
    raise TypeError(f"no wire form for annotation {hint!r}")


@cache
def _layout(cls: type) -> tuple[list[tuple], frozenset[str]]:
    """``cls`` in wire terms: its fields and every top-level key it owns.

    A field is ``(name, group, to_wire, from_wire, declared)``: the
    group key it nests under (``None`` at top level), its converters,
    and the ``dataclasses.Field`` that holds its default.
    """
    hints = typing.get_type_hints(cls)
    group_of = {
        name: group for group, names in cls._wire_groups.items() for name in names
    }
    fields = [
        (
            field.name,
            group_of.get(field.name),
            *_converters(hints[field.name]),
            field,
        )
        for field in dataclasses.fields(cls)
    ]
    keys = {group or name for name, group, *_ in fields}
    keys.update(cls._wire_extra)
    if cls._wire_kind is not None:
        keys.add("kind")
    return fields, frozenset(keys)


def encode(obj: "Wire") -> dict[str, object]:
    """The lossless, JSON-friendly dict of a :class:`Wire` instance."""
    cls = type(obj)
    payload: dict[str, object] = {}
    if cls._wire_kind is not None:
        payload["kind"] = cls._wire_kind
    for name, group, to_wire, _, _ in _layout(cls)[0]:
        target = payload if group is None else payload.setdefault(group, {})
        target[name] = to_wire(getattr(obj, name))
    return payload


def _owned(what: str, payload: object, keys) -> dict:
    """``payload``, checked to be a dict holding no key outside ``keys``."""
    if not isinstance(payload, dict):
        raise ConfigError(
            f"{what}: payload is not a dict: {reprlib.repr(payload)}"
        )
    unknown = [key for key in payload if key not in keys]
    if unknown:
        raise ConfigError(f"{what}: unknown keys {unknown}")
    return payload


def decode(cls: type, payload: object):
    """Build a ``cls`` from :func:`encode` output, or raise ``ConfigError``."""
    what = cls.__name__
    fields, keys = _layout(cls)
    payload = _owned(what, payload, keys)
    kind = payload.get("kind", cls._wire_kind)
    if kind != cls._wire_kind:
        raise ConfigError(f"{what}: kind {kind!r} is not {cls._wire_kind!r}")
    groups = {
        group: _owned(f"{what}.{group}", payload.get(group, {}), names)
        for group, names in cls._wire_groups.items()
    }
    values = {}
    where, raw = what, payload
    try:
        for name, group, _, from_wire, declared in fields:
            source = payload if group is None else groups[group]
            if name in source:
                where, raw = f"{what}.{name}", source[name]
                values[name] = from_wire(raw)
            elif declared.default is not dataclasses.MISSING:
                values[name] = declared.default
            elif declared.default_factory is not dataclasses.MISSING:
                values[name] = declared.default_factory()
            else:
                raise ConfigError(f"{what}.{name}: missing, and has no default")
        where, raw = what, payload
        return cls(**values)
    except LOAD_ERRORS as error:
        raise load_error(where, raw, error) from error


def project(source: object, cls: type):
    """A ``cls`` built from the fields it shares by name with ``source``."""
    names = {field.name for field in dataclasses.fields(source)}
    return cls(
        **{
            field.name: getattr(source, field.name)
            for field in dataclasses.fields(cls)
            if field.name in names
        }
    )


class Wire:
    """Mixin: ``to_dict``/``from_dict`` derived from the dataclass fields."""

    _wire_kind: ClassVar[str | None] = None
    _wire_groups: ClassVar[dict[str, tuple[str, ...]]] = {}
    _wire_extra: ClassVar[tuple[str, ...]] = ()

    def to_dict(self) -> dict[str, object]:
        """The complete state as a JSON-friendly dict (the transport form)."""
        return encode(self)

    @classmethod
    def from_dict(cls, payload: dict):
        """Rebuild from :meth:`to_dict` output; the round-trip is lossless."""
        return decode(cls, payload)
