"""Frozen dataclasses as JSON schemas.

A dataclass declares a JSON object: field names (or a field's `key`
metadata) are the keys, annotations the JSON types, defaults the defaults
and `__post_init__` the ranges. Understood annotations: `int`, `float`
(finite), `str`, `bool`, `Literal[...]` of strings, `tuple[X, ...]` and fixed-length
tuples (JSON lists), `Optional[X]`, a union of a dataclass and one other
type, a nested dataclass, a tagged union of records (the JSON object's
"kind" is the `kind` ClassVar of one), `Mapping[tuple[...], V]` (a list of
[*key, value] rows) and `Annotated[X, name]` (errors labelled `<label> <name>`).
bool is never a number. Errors are one-line InvalidParameterErrors naming the key.

A config section checks itself: its `__post_init__` calls `check_types`.
A record, a dataclass with a `label` ClassVar, does not, so that building
one costs nothing: `read` checks the JSON values before it builds one (a
key without a default is required), and `write` is its inverse.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from collections.abc import Mapping
from numbers import Integral, Real
from types import UnionType
from typing import Annotated, Callable, Literal, Union, get_args, get_origin, get_type_hints

from .errors import InvalidParameterError

Check = Callable[[object, str], object]


def _fail(label: str, what: str, value) -> None:
    shown = repr(value)  # cut, since a malformed corpus file may hold a whole corpus here
    shown = shown if len(shown) <= 200 else shown[:200] + " ..."
    raise InvalidParameterError(f"{label} {what}, got {shown}")


def parse(cls, value, label: str):
    """`value` as a `cls`: an instance passes, a mapping is read by key."""
    if isinstance(value, cls):
        return value
    if not isinstance(value, Mapping):
        _fail(f"{label} section", "must be a JSON object", value)
    keys = _keys(cls)
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise InvalidParameterError(f"unknown {label} keys {unknown}")
    return cls(**{keys[key]: item for key, item in value.items()})


def check_types(obj, label: str) -> Callable[[str, bool, str], None]:
    """Check every field of a dataclass against its annotation, storing the
    converted value (a tuple for a list, a dataclass for a mapping). Called
    first in `__post_init__`, so a dataclass built in code is checked too.
    Returns the range check of the same fields: `require(key, ok, what)`
    raises `<label> <key> <what>, got <value>` unless ok."""
    for name, key, check in _checks(type(obj)):
        value = getattr(obj, name)
        checked = check(value, f"{label} {key}" if label else key)
        if checked is not value:
            object.__setattr__(obj, name, checked)

    def require(key: str, ok: bool, what: str) -> None:
        if not ok:
            _fail(f"{label} {key}" if label else key, what, getattr(obj, _keys(type(obj))[key]))

    return require


def read(cls, value):
    """The `cls` record of a JSON value, its values checked and converted
    (a tuple for a list, a record for a mapping) before it is built."""
    label = cls.label
    if not isinstance(value, Mapping):
        _fail(label, "must be a JSON object", value)
    unknown = sorted(set(value) - set(_keys(cls)) - ({"kind"} if hasattr(cls, "kind") else set()))
    if unknown:
        raise InvalidParameterError(f"unknown {label} keys {unknown}")
    missing = [key for key in _required(cls) if key not in value]
    if missing:
        raise InvalidParameterError(f"missing {label} keys {missing}")
    return cls(**{n: check(value[k], f"{label} {k}") for n, k, check in _checks(cls) if k in value})


def write(value):
    """The JSON value that `read` reads back as `value`, at full precision."""
    if dataclasses.is_dataclass(value):
        tag = {"kind": value.kind} if hasattr(value, "kind") else {}
        return tag | {key: write(getattr(value, name)) for key, name in _keys(type(value)).items()}
    if isinstance(value, Mapping):
        return [[*key, write(item)] for key, item in sorted(value.items())]
    if isinstance(value, tuple):
        return [write(item) for item in value]
    return value


@functools.cache
def _keys(cls) -> dict[str, str]:
    return {f.metadata.get("key", f.name): f.name for f in dataclasses.fields(cls) if f.init}


@functools.cache
def _required(cls) -> tuple[str, ...]:
    return tuple(f.metadata.get("key", f.name) for f in dataclasses.fields(cls)
                 if f.init and f.default is f.default_factory is dataclasses.MISSING)


@functools.cache
def _checks(cls) -> tuple[tuple[str, str, Check], ...]:
    hints = get_type_hints(cls, include_extras=True)
    return tuple((name, key, _checker(hints[name])) for key, name in _keys(cls).items())


# Annotation -> the values it accepts, and the error that names them.
_SCALARS = {
    int: (Integral, "an integer"),
    float: (Real, "a finite number"),
    str: (str, "a string"),
    bool: (bool, "true or false"),
}


def _scalar(hint) -> Check:
    kind, what = _SCALARS[hint]

    def check(value, label):
        wrong = not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool)
        # NaN, the infinities and ints beyond the float range fail this.
        if wrong or (kind is Real and not abs(value) <= sys.float_info.max):
            _fail(label, f"must be {what}", value)
        return value

    return check


def _checker(hint) -> Check:
    origin, args = get_origin(hint), get_args(hint)
    if dataclasses.is_dataclass(hint):
        if hasattr(hint, "label"):
            return lambda value, label: read(hint, value)
        return lambda value, label: parse(hint, value, label)
    if origin is Annotated:
        check, name = _checker(args[0]), args[1]
        return lambda value, label: check(value, f"{label} {name}")
    if origin is Mapping:
        rows = _tuple((tuple[(*get_args(args[0]), args[1])], Ellipsis))
        return lambda value, label: {row[:-1]: row[-1] for row in rows(value, label)}
    if origin is Literal:
        what = f"must be one of {', '.join(map(repr, args))}"

        def choice(value, label):
            if not (isinstance(value, str) and value in args):
                _fail(label, what, value)
            return value

        return choice
    if origin is tuple:
        return _tuple(args)
    if origin in (Union, UnionType):
        return _tagged(args) if all(hasattr(a, "label") for a in args) else _union(args)
    return _scalar(hint)


def _tuple(args) -> Check:
    """A JSON list: `tuple[X, ...]` of any length, `tuple[X, Y, Z]` of three."""
    variadic = args[1:] == (Ellipsis,)
    items = [_checker(a) for a in args[: 1 if variadic else None]]
    what = "must be a list" if variadic else f"must be a list of {len(items)} values"

    def check(value, label):
        if not isinstance(value, (list, tuple)) or not (variadic or len(value) == len(items)):
            _fail(label, what, value)
        return tuple(c(v, label) for c, v in zip(items * len(value) if variadic else items, value))

    return check


def _union(args) -> Check:
    """None where the union allows it; a mapping goes to the dataclass
    member, anything else to the other member."""
    checks = {dataclasses.is_dataclass(a): _checker(a) for a in args if a is not type(None)}
    fallback = next(iter(checks.values()))

    def check(value, label):
        if value is None and type(None) in args:
            return None
        section = isinstance(value, Mapping) or dataclasses.is_dataclass(value)
        return checks.get(section, fallback)(value, label)

    return check


def _tagged(records) -> Check:
    """A union of records: the mapping's "kind" names the member."""
    by_kind = {r.kind: r for r in records}
    tag = _checker(Literal[tuple(by_kind)])

    def check(value, label):
        kind = value.get("kind") if isinstance(value, Mapping) else None
        return read(by_kind[tag(kind, f"{label} kind")], value)

    return check
