"""A config error names the keys behind it through one route,
`halc.errors.naming`: no other `except InvalidParameterError` handler in
halc raises a new InvalidParameterError, so a hand-written re-raise that
prefixes keys fails here. The handlers that catch one and raise none (the
decode config's overflow check, the CLI's exit-2 printer) pass.
"""

import ast
from pathlib import Path

import pytest

import halc
from halc.errors import InvalidParameterError, named, naming

SOURCES = sorted(Path(halc.__file__).parent.glob("*.py"))
ERROR = "InvalidParameterError"


def _catches(handler: ast.ExceptHandler) -> bool:
    caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(node, ast.Name) and node.id == ERROR for node in caught)


def _raises(handler: ast.ExceptHandler) -> bool:
    return any(
        isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and isinstance(node.exc.func, ast.Name)
        and node.exc.func.id == ERROR
        for node in ast.walk(handler)
    )


def rewrapping_handlers(source: str) -> list[tuple[str, int]]:
    """(function, line) of each handler of InvalidParameterError that
    raises a new one, outside the function `naming`."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) or func.name == "naming":
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.ExceptHandler) and node.type and _catches(node) and _raises(node):
                found.append((func.name, node.lineno))
    return sorted(set(found))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_naming_rewraps_a_config_error(path):
    assert rewrapping_handlers(path.read_text()) == []


def test_the_check_catches_a_hand_written_prefix():
    source = (
        "def build(spec):\n"
        "    try:\n"
        "        return make(spec)\n"
        "    except (KeyError, InvalidParameterError) as exc:\n"
        "        raise InvalidParameterError(f'corpus count {spec.count!r}: {exc}') from None\n"
        "def main():\n"
        "    try:\n"
        "        run()\n"
        "    except InvalidParameterError as exc:\n"
        "        print(exc)\n"
        "def naming(entries):\n"
        "    try:\n"
        "        yield\n"
        "    except InvalidParameterError as exc:\n"
        "        raise InvalidParameterError(str(exc)) from None\n"
    )
    assert rewrapping_handlers(source) == [("build", 4)]


def test_named_writes_each_section_where_it_changes():
    entries = [("oracle_study", "grid_scales", 1e-320), ("corpus", "image_width", 1000.0),
               ("corpus", "image_height", 1000.0)]
    assert named(entries) == (
        "oracle_study grid_scales 1e-320, corpus image_width 1000.0 and image_height 1000.0"
    )
    assert named([("decode", "n", 2)]) == "decode n 2"
    assert named(iter([("ablate", "inits", "center"), ("ablate", "beams", 3)])) == (
        "ablate inits 'center' and beams 3"
    )


def test_naming_prefixes_only_a_config_error():
    with pytest.raises(InvalidParameterError) as info:
        with naming([("corpus", "image_width", 5e-324)], " is too small"):
            raise InvalidParameterError("window has no size")
    assert str(info.value) == "corpus image_width 5e-324 is too small: window has no size"
    assert info.value.__cause__ is None and info.value.__suppress_context__
    with pytest.raises(KeyError):
        with naming([("corpus", "count", 2)]):
            raise KeyError("other")
