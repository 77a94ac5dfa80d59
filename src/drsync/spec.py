"""Declarative field rules: parse, check and dump configs from one statement.

Config dataclasses declare each field with :func:`field`: its rule, default
and, where the JSON layout differs, dotted JSON key.  :func:`parse` builds
one from a JSON-shaped dict and reports every problem at once
(``channel.loss_rate: must be in [0, 1], got 2.0``); :func:`check`, used as
``__post_init__``, validates a built one; :func:`dump` writes it back.  Rules
that relate fields live in a class's static ``_relations(values)``, which
gets :data:`INVALID` for a field that broke its own rule.

CSV readers share :func:`read_csv` and the cell converters ``int``,
``float`` and :func:`flag`; float cells go into constructors that reject
NaN and infinity.  Every CSV output goes through :func:`write_csv`.
"""

from __future__ import annotations

import csv
import dataclasses
import enum
import json
import sys
import types
from collections.abc import Callable, Iterable, Sequence
from typing import IO, Any, TypeVar

T = TypeVar("T")
_MISSING = dataclasses.MISSING


class ConfigError(ValueError):
    """Input rejected; ``problems`` lists every violated field or row."""

    what = "config"

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__(f"invalid {self.what}: " + "; ".join(self.problems))


class InputFileError(ConfigError):
    """A CSV input file rejected; each problem names the file and row."""

    what = "input file"


class _Invalid:
    """A field value that broke its own rule.

    Like NaN it compares false with everything, and any attribute of it is
    itself, so a relation stays silent about a field already reported.
    """

    def __getattr__(self, name: str) -> Any:
        return self

    def __lt__(self, other: object) -> bool:
        return False

    __le__ = __gt__ = __ge__ = __lt__


INVALID: Any = _Invalid()


class _Rule:
    """A rule whose JSON form is its Python form; ``problem`` checks a value."""

    def parse(self, raw: Any, path: str, problems: list[str]) -> Any:
        msg = self.problem(raw)
        if msg is None:
            return raw
        problems.append(f"{path}: {msg}")
        return INVALID

    def dump(self, v: Any) -> Any:
        return v


@dataclasses.dataclass(frozen=True)
class Int(_Rule):
    """An integer, not a bool, with an optional lower bound."""

    ge: int | None = None

    def problem(self, v: Any) -> str | None:
        if isinstance(v, bool) or not isinstance(v, int):
            return f"must be an integer, got {v!r}"
        return _bounds(v, self.ge, None, None)


@dataclasses.dataclass(frozen=True)
class Real(_Rule):
    """A finite number within bounds; JSON integers become floats."""

    ge: float | None = None
    gt: float | None = None
    le: float | None = None

    def problem(self, v: Any) -> str | None:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            return f"must be a number, got {v!r}"
        if not abs(v) <= sys.float_info.max:  # NaN, infinity, or an int too big
            return f"must be finite, got {v!r}"
        return _bounds(v, self.ge, self.gt, self.le)

    def parse(self, raw: Any, path: str, problems: list[str]) -> Any:
        v = super().parse(raw, path, problems)
        return v if v is INVALID else float(v)


def _bounds(v, ge, gt, le) -> str | None:
    if ge is not None and le is not None and not ge <= v <= le:
        return f"must be in [{ge}, {le}], got {v!r}"
    if ge is not None and v < ge:
        return f"must be >= {ge}, got {v!r}"
    if gt is not None and v <= gt:
        return f"must be > {gt}, got {v!r}"
    return None


@dataclasses.dataclass(frozen=True)
class Str(_Rule):
    """A non-empty string."""

    def problem(self, v: Any) -> str | None:
        if isinstance(v, str) and v:
            return None
        return f"must be a non-empty string, got {v!r}"


@dataclasses.dataclass(frozen=True)
class Choice(_Rule):
    """One of a tuple of strings, or a member of an Enum written as its value."""

    options: tuple[str, ...] | type[enum.Enum]

    def _values(self) -> list:
        if isinstance(self.options, tuple):
            return list(self.options)
        return [m.value for m in self.options]

    def problem(self, v: Any) -> str | None:
        is_enum = isinstance(self.options, type)
        ok = isinstance(v, self.options) if is_enum else v in self.options
        return None if ok else f"must be one of {self._values()}, got {v!r}"

    def parse(self, raw: Any, path: str, problems: list[str]) -> Any:
        if raw in self._values():
            return raw if isinstance(self.options, tuple) else self.options(raw)
        problems.append(f"{path}: must be one of {self._values()}, got {raw!r}")
        return INVALID

    def dump(self, v: Any) -> Any:
        return v.value if isinstance(v, enum.Enum) else v


@dataclasses.dataclass(frozen=True)
class Nested(_Rule):
    """A declared dataclass, written as a JSON object."""

    cls: type

    def problem(self, v: Any) -> str | None:
        # The sub-object checked its own fields when it was built.
        if isinstance(v, self.cls):
            return None
        return f"must be a {self.cls.__name__}, got {type(v).__name__}"

    def parse(self, raw: Any, path: str, problems: list[str]) -> Any:
        return _parse(self.cls, raw, path, problems)

    def dump(self, v: Any) -> Any:
        return dump(v)


def _items_problem(pairs: Iterable[tuple[_Rule, Any]]) -> str | None:
    for i, (rule, item) in enumerate(pairs):
        msg = rule.problem(item)
        if msg is not None:
            return f"[{i}] {msg}"
    return None


def _parse_items(
    pairs: Iterable[tuple[_Rule, Any]], path: str, problems: list[str]
) -> Any:
    items = tuple(
        rule.parse(raw, f"{path}[{i}]", problems) for i, (rule, raw) in enumerate(pairs)
    )
    return INVALID if INVALID in items else items


@dataclasses.dataclass(frozen=True)
class Pair(_Rule):
    """Two values, held as a tuple and written as an array.

    An ``ordered`` pair is a ``[low, high]`` range with low <= high.
    """

    first: _Rule
    second: _Rule
    ordered: bool = False

    def problem(self, v: Any) -> str | None:
        if not isinstance(v, (tuple, list)) or len(v) != 2:
            return f"must be a pair, got {v!r}"
        msg = _items_problem(zip((self.first, self.second), v))
        if msg is None and self.ordered and v[1] < v[0]:
            msg = f"must be [low, high] with low <= high, got {list(v)!r}"
        return msg

    def parse(self, raw: Any, path: str, problems: list[str]) -> Any:
        if not isinstance(raw, (tuple, list)) or len(raw) != 2:
            return super().parse(raw, path, problems)
        items = _parse_items(zip((self.first, self.second), raw), path, problems)
        return items if items is INVALID else super().parse(items, path, problems)

    def dump(self, v: Any) -> Any:
        return [self.first.dump(v[0]), self.second.dump(v[1])]


@dataclasses.dataclass(frozen=True)
class Seq(_Rule):
    """A non-empty sequence, held as a tuple and written as an array."""

    item: _Rule

    def problem(self, v: Any) -> str | None:
        if not isinstance(v, (tuple, list)) or not v:
            return f"must be a non-empty list, got {v!r}"
        return _items_problem((self.item, x) for x in v)

    def parse(self, raw: Any, path: str, problems: list[str]) -> Any:
        if not isinstance(raw, (tuple, list)) or not raw:
            return super().parse(raw, path, problems)
        return _parse_items(((self.item, x) for x in raw), path, problems)

    def dump(self, v: Any) -> Any:
        return [self.item.dump(x) for x in v]


def field(rule: _Rule, default: Any = _MISSING, key: str | None = None) -> Any:
    """A dataclass field with its rule, default and dotted JSON key.

    Without a default the field is required.  A ``None`` default makes it
    optional: ``None`` passes the rule and is left out of dumps.
    """
    return dataclasses.field(default=default, metadata={"rule": rule, "key": key})


def like(cls: type, name: str, default: Any = _MISSING, key: str | None = None) -> Any:
    """A field with the same rule as field ``name`` of ``cls``."""
    (rule,) = [f.metadata["rule"] for f in dataclasses.fields(cls) if f.name == name]
    return field(rule, default, key)


def _specs(cls_or_obj: Any) -> list[tuple[dataclasses.Field, _Rule, list[str]]]:
    """Each field with its rule and its JSON key split at the dots."""
    return [
        (f, f.metadata["rule"], (f.metadata["key"] or f.name).split("."))
        for f in dataclasses.fields(cls_or_obj)
    ]


def _relations(cls: type, values: dict[str, Any]) -> list[str]:
    relations = getattr(cls, "_relations", None)
    return [] if relations is None else relations(values)


def check(obj: Any) -> None:
    """Check every declared field of a built object, then its relations.

    Config classes use this as ``__post_init__``.  It raises one
    :class:`ConfigError` listing every problem.
    """
    problems: list[str] = []
    values: dict[str, Any] = {}
    for f, rule, key in _specs(obj):
        values[f.name] = value = getattr(obj, f.name)
        msg = None if value is None and f.default is None else rule.problem(value)
        if msg is not None:
            problems.append(f"{'.'.join(key)}: {msg}")
            values[f.name] = INVALID
    problems.extend(_relations(type(obj), values))
    if problems:
        raise ConfigError(problems)


def parse(cls: type[T], data: Any) -> T:
    """Build ``cls`` from a JSON-shaped dict; unknown keys are errors.

    Collects every problem before raising one :class:`ConfigError`.
    """
    problems: list[str] = []
    obj = _parse(cls, data, "", problems)
    if problems:
        raise ConfigError(problems)
    return obj


def _parse(cls: type, data: Any, path: str, problems: list[str]) -> Any:
    if not isinstance(data, dict):
        got = type(data).__name__
        problems.append(f"{path or 'top level'}: must be an object, got {got}")
        return INVALID
    start = len(problems)
    prefix = f"{path}." if path else ""
    specs = _specs(cls)
    known: dict = {}  # the JSON key tree: a field is None, a section a dict
    for _, _, key in specs:
        node = known
        for part in key[:-1]:
            node = node.setdefault(part, {})
        node[key[-1]] = None
    _unknown_keys(data, known, prefix, problems)

    values: dict[str, Any] = {}
    for f, rule, key in specs:
        raw = data
        for part in key:
            raw = raw.get(part, _MISSING) if isinstance(raw, dict) else _MISSING
        if raw is not _MISSING:
            values[f.name] = rule.parse(raw, prefix + ".".join(key), problems)
        elif f.default is not _MISSING:
            values[f.name] = f.default
        else:
            problems.append(f"{prefix}{'.'.join(key)}: missing required key")
            values[f.name] = INVALID
    problems.extend(prefix + p for p in _relations(cls, values))
    if len(problems) > start:
        # The parts, so that the parent's relations can read the good ones.
        return types.SimpleNamespace(**values)
    return cls(**values)


def _unknown_keys(data: dict, known: dict, prefix: str, problems: list[str]) -> None:
    for key, value in data.items():
        if key not in known:
            problems.append(f"{prefix}{key}: unknown key")
        elif known[key] is not None and not isinstance(value, dict):
            got = type(value).__name__
            problems.append(f"{prefix}{key}: must be an object, got {got}")
        elif known[key] is not None:
            _unknown_keys(value, known[key], f"{prefix}{key}.", problems)


def dump(obj: Any) -> dict:
    """The dict that :func:`parse` reads back as ``obj``."""
    out: dict = {}
    for f, rule, key in _specs(obj):
        value = getattr(obj, f.name)
        if value is not None:
            node = out
            for part in key[:-1]:
                node = node.setdefault(part, {})
            node[key[-1]] = rule.dump(value)
    return out


def load_json(path: str) -> Any:
    """The parsed JSON of a file; malformed JSON raises :class:`ConfigError`."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"{path}: not valid JSON ({exc})"]) from exc


def write_json(data: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


_FLAGS = {"true": True, "false": False}
# How a flag is written: the inverse of :func:`flag`.
FLAG_TEXT = {value: text for text, value in _FLAGS.items()}


def flag(cell: str) -> bool:
    """A CSV cell that must read ``true`` or ``false``."""
    try:
        return _FLAGS[cell]
    except KeyError:
        raise ValueError(f"must be true or false, got {cell!r}") from None


def read_csv(
    path: str, builders: dict[tuple[str, ...], Callable[[list[str]], T]]
) -> list[T]:
    """The rows of a CSV file, each built by the builder for the file's header.

    ``builders`` maps every accepted header to a function of one row's
    cells.  Blank lines are skipped.  A wrong header, a row of the wrong
    width, or a ``ValueError`` from the builder ends as an
    :class:`InputFileError` that names the file and row.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = tuple(next(reader, ()))
            if header not in builders:
                wanted = " or ".join(",".join(h) for h in builders)
                raise ValueError(f"header must be {wanted}, got {','.join(header)}")
            build, width = builders[header], len(header)
            out = []
            for row in reader:
                if len(row) == width:
                    out.append(build(row))
                elif row:
                    raise ValueError(f"expected {width} cells, got {len(row)}")
        except (ValueError, csv.Error) as exc:
            raise InputFileError([f"{path} row {reader.line_num}: {exc}"]) from exc
    return out


def write_csv(
    dest: str | IO[str], header: Sequence[str], rows: Iterable[Sequence[Any]]
) -> None:
    """Write a header and rows to a path or an open text file.

    ``None`` is written as an empty cell and a float as its ``repr``, so
    :func:`read_csv` reads back the same values; flags are written through
    :data:`FLAG_TEXT`.  Lines end in ``\\n``.
    """
    if not hasattr(dest, "write"):
        with open(dest, "w", newline="") as fh:
            write_csv(fh, header, rows)
        return
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
