"""Exception types shared across the package, and the one way a config
error names the keys behind it."""

import contextlib
from typing import Iterable


class InvalidParameterError(ValueError):
    """A configuration or hyperparameter violates its stated precondition."""


class InvalidInputError(ValueError):
    """Runtime data (distributions, tokens, files) violates an input contract."""


def named(entries: Iterable[tuple[str, str, object]]) -> str:
    """'<section> k v, k v and <section2> k v': the (section, key, value)
    entries, each section written where it changes."""
    parts, shown = [], None
    for section, key, value in entries:
        parts.append(f"{key} {value!r}" if section == shown else f"{section} {key} {value!r}")
        shown = section
    *head, last = parts
    return f"{', '.join(head)} and {last}" if head else last


@contextlib.contextmanager
def naming(entries: Iterable[tuple[str, str, object]], tail: str = ""):
    """Re-raise a config error as `<named entries><tail>: <error>`. The
    entries are read only then, so a generator of them costs nothing until
    an error is raised."""
    try:
        yield
    except InvalidParameterError as exc:
        raise InvalidParameterError(f"{named(entries)}{tail}: {exc}") from None
