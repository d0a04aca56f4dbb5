"""Exception types shared across the toolkit, and the typed reader behind every
JSON spec decoder: finite JSON numbers only, and only the keys a kind allows.
"""

import json
import math


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ToolkitError):
    """An argument lies outside the domain of the requested function."""


class ZeroFunction(ToolkitError):
    """The operation is undefined for the identically-zero function."""


class NotInvertible(ToolkitError):
    """Monotone inversion failed: the function is flat or the target is out of range."""


class EmptyInput(ToolkitError):
    """A non-empty collection was required."""


class NegativePiece(ToolkitError):
    """A non-negative function was required."""


class TooManyLayers(ToolkitError):
    """The exhaustive search is capped; use a cheaper strategy instead."""


class IllegalSpec(ToolkitError):
    """A parameter object violates its validity constraints."""


class SpecParseError(ToolkitError):
    """A JSON specification could not be parsed into a valid object.

    path: the keys and list indices from the spec's root to the value at
    fault, filled in by spec_read and spec_list as the error unwinds; str()
    names it.
    """

    def __init__(self, message: str, *path):
        super().__init__(message)
        self.path = list(path)

    def __str__(self) -> str:
        where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in self.path)
        return f"{where.removeprefix('.')!r}: {self.args[0]}" if where else self.args[0]


class NonPositiveValue(ToolkitError):
    """A strictly positive sample was required."""


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, an attribute of a frozen record
    (`records.Record`)."""


# The deepest nesting of lists and objects that a spec may hold, and the most
# characters of a value that an error message quotes.  No spec kind nests past
# 4 levels; CPython 3.11's JSON reader and writer recurse past their limit near
# 1,000, and 3.13's not by 5,000, so these bounds, not the interpreter, decide.
SPEC_DEPTH = 100
SHOW_LENGTH = 200


def nests_deeper(value) -> bool:
    """Whether value holds lists or objects (or tuples) more than SPEC_DEPTH
    levels deep; one level at a time, with no recursion."""
    level = [value]
    for _ in range(SPEC_DEPTH + 1):
        level = [x for x in level if isinstance(x, (list, tuple, dict))]
        if not level:
            return False
        level = [item for x in level for item in (x.values() if isinstance(x, dict) else x)]
    return True


def _cut(text: str) -> str:
    """text, or its first SHOW_LENGTH characters, the last three "..."."""
    return text if len(text) <= SHOW_LENGTH else text[: SHOW_LENGTH - 3] + "..."


def _show(value) -> str:
    """value as JSON, _cut; one too deep for a spec is not rendered."""
    if nests_deeper(value):
        return "a value that nests too deeply to show"
    return _cut(json.dumps(value, default=repr))


def spec_read(obj, key, read, *args):
    """read(obj[key], *args), naming key in the path of a SpecParseError it raises."""
    try:
        return read(obj[key], *args)
    except SpecParseError as exc:
        exc.path.insert(0, key)
        raise


def spec_keys(obj, what: str, required, optional=()) -> dict:
    """obj, once a JSON object with every required key and no other but the optional ones."""
    if not isinstance(obj, dict):
        raise SpecParseError(f"{what} spec must be an object, got {_show(obj)}")
    for key in required:
        if key not in obj:
            raise SpecParseError(f"missing from the {what} spec", key)
    extra = set(obj).difference(required, optional)
    if extra:
        raise SpecParseError(f"unknown keys for the {what} spec: {_cut(str(sorted(extra)))}")
    return obj


def spec_kind(obj, what: str, tag: str, kinds: dict) -> str:
    """The kind obj[tag] names, once obj has the keys it allows: kinds maps
    each kind to (required keys, optional keys), the tag aside."""
    kind = spec_keys(obj, what, (tag,), obj)[tag]  # any key, until the kind is known
    if not isinstance(kind, str) or kind not in kinds:
        raise SpecParseError(f"unknown {what} {tag} {_show(kind)}", tag)
    required, optional = kinds[kind]
    spec_keys(obj, f"{kind} {what}", (tag, *required), optional)
    return kind


def spec_number(value) -> float:
    """A finite JSON number, as a float."""
    if type(value) is float and value - value == 0.0:  # the common case, decided at once
        return value
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SpecParseError(f"expected a number, got {_show(value)}")
    try:
        x = float(value)
    except OverflowError as exc:  # an int past the float range
        raise SpecParseError(str(exc)) from None
    if not math.isfinite(x):
        raise SpecParseError(f"must be finite, got {_show(x)}")
    return x


def spec_whole(value) -> int:
    """A JSON number without a fractional part, as an int."""
    if not spec_number(value).is_integer():
        raise SpecParseError(f"{value!r} is not a whole number")
    return int(value)


def spec_list(value, read, *args) -> list:
    """A JSON list, each item through read(item, *args)."""
    if not isinstance(value, (list, tuple)):
        raise SpecParseError(f"expected a list, got {_show(value)}")
    out = []
    try:
        for item in value:
            out.append(read(item, *args))
    except SpecParseError as exc:
        exc.path.insert(0, len(out))  # the index of the item at fault
        raise
    return out


def spec_pairs(value) -> tuple:
    """A JSON list of [x, y] number pairs, as a tuple of float pairs."""
    return tuple(map(tuple, spec_list(value, _pair)))


def _pair(value) -> list:
    pair = spec_list(value, spec_number)
    if len(pair) != 2:
        raise SpecParseError(f"expected an [x, y] pair, got {_show(value)}")
    return pair
