"""Declarative field rules: parse, check and dump configs from one statement.

Config dataclasses declare each field with :func:`field`: its rule, default
and, where the JSON layout differs, dotted JSON key.  :func:`check`, their
``__post_init__``, is the one judge of a value and reports every problem at
once (``channel.loss_rate: must be in [0, 1], got 2.0``); :func:`parse`
reshapes a JSON-shaped dict and builds the class; :func:`dump` writes it
back.  Rules that relate fields live in a class's static
``_relations(values)``, which gets :data:`INVALID` for a field that broke
its own rule.

Every CSV input is read into columns by :func:`read_columns`: by numpy's
parser where that reads it as csv's reader would, and otherwise by csv's
reader, a block of checked rows at a time, whose errors name the row.
Every CSV output goes through :func:`write_csv`, which takes columns, not
rows, and formats a block of rows at a time; a string column is a
:class:`Table` of codes into a few texts, each quoted once by
``csv.writer``, and a column that many files write may be formatted once by
:func:`cells`.
"""

from __future__ import annotations

import csv
import dataclasses
import enum
import json
import os
import stat
import sys
import types
import warnings
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from typing import IO, Any, NamedTuple, TypeVar

import numpy as np

T = TypeVar("T")
_MISSING = dataclasses.MISSING
# Rows that write_csv formats, a Trace converts or read_columns stacks at once.
_ITER_ROWS = 4096
# The most characters read_columns reads at a time: half of csv's default
# field limit, which read no slower than the whole limit and holds half as
# much text, and as many lines, at a time.
_CHUNK_CHARS = 2**16


class ConfigError(ValueError):
    """Input rejected; ``problems`` lists every violated field or row."""

    what = "config"

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__(f"invalid {self.what}: " + "; ".join(self.problems))


class InputFileError(ConfigError):
    """A CSV input file rejected; each problem names the file and row."""

    what = "input file"


def _not_utf8(path: str, exc: UnicodeDecodeError) -> str:
    # The decoder reads the file in chunks, so where the bad byte sits (its
    # row, or its place in the file) is not known here.
    return f"{path}: not UTF-8 text ({exc.reason})"


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


class _Parts(types.SimpleNamespace):
    """The fields of a section that failed, for the parent's relations."""


class _Rule:
    """A rule: ``load`` reshapes a JSON value and judges nothing (a value it
    cannot reshape is returned as is); ``problem`` judges the result."""

    def load(self, raw: Any, path: str, problems: list[str]) -> Any:
        return raw

    def dump(self, v: Any) -> Any:
        return v


@dataclasses.dataclass(frozen=True)
class Int(_Rule):
    """An integer, not a bool, with optional bounds."""

    ge: int | None = None
    le: int | None = None

    def problem(self, v: Any) -> str | None:
        if isinstance(v, bool) or not isinstance(v, int):
            return f"must be an integer, got {v!r}"
        return _bounds(v, self.ge, None, self.le)


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

    def load(self, raw: Any, path: str, problems: list[str]) -> Any:
        fits = type(raw) is int and abs(raw) <= sys.float_info.max
        return float(raw) if fits else raw


def _bounds(v, ge, gt, le) -> str | None:
    if ge is not None and le is not None and not ge <= v <= le:
        return f"must be in [{ge}, {le}], got {v!r}"
    if ge is not None and v < ge:
        return f"must be >= {ge}, got {v!r}"
    if gt is not None and v <= gt:
        return f"must be > {gt}, got {v!r}"
    if le is not None and v > le:
        return f"must be <= {le}, got {v!r}"
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

    def load(self, raw: Any, path: str, problems: list[str]) -> Any:
        is_member = isinstance(self.options, type) and raw in self._values()
        return self.options(raw) if is_member else raw

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

    def load(self, raw: Any, path: str, problems: list[str]) -> Any:
        return _parse(self.cls, raw, path, problems)

    def dump(self, v: Any) -> Any:
        return dump(v)


def _at(path: str, msg: str) -> str:
    """``msg`` about the value at ``path``; an item's index joins the path."""
    return f"{path}{msg}" if msg.startswith("[") else f"{path}: {msg}"


def _items_problem(pairs: Iterable[tuple[_Rule, Any]]) -> str | None:
    for i, (rule, item) in enumerate(pairs):
        msg = rule.problem(item)
        if msg is not None:
            return _at(f"[{i}]", msg)
    return None


def _load_items(
    pairs: Iterable[tuple[_Rule, Any]], path: str, problems: list[str]
) -> tuple:
    return tuple(
        rule.load(raw, f"{path}[{i}]", problems) for i, (rule, raw) in enumerate(pairs)
    )


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

    def load(self, raw: Any, path: str, problems: list[str]) -> Any:
        if not isinstance(raw, (tuple, list)) or len(raw) != 2:
            return raw
        return _load_items(zip((self.first, self.second), raw), path, problems)

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

    def load(self, raw: Any, path: str, problems: list[str]) -> Any:
        if not isinstance(raw, (tuple, list)) or not raw:
            return raw
        return _load_items(((self.item, x) for x in raw), path, problems)

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


def _judge(cls: type, values: dict[str, Any]) -> list[str]:
    """The problems of the fields of ``cls`` in ``values``, then its relations.

    A field that breaks its rule is set to :data:`INVALID`; one already
    :data:`INVALID`, or a section that failed, is skipped.
    """
    problems = []
    for f, rule, key in _specs(cls):
        value = values[f.name]
        if value is INVALID or isinstance(value, _Parts):
            continue
        msg = None if value is None and f.default is None else rule.problem(value)
        if msg is not None:
            problems.append(_at(".".join(key), msg))
            values[f.name] = INVALID
    relations = getattr(cls, "_relations", None)
    return problems if relations is None else problems + relations(values)


def check(obj: Any) -> None:
    """Judge every declared field of a built object, then its relations.

    Config classes use this as ``__post_init__``.  Raises one
    :class:`ConfigError` listing every problem.
    """
    problems = _judge(type(obj), dict(vars(obj)))
    if problems:
        raise ConfigError(problems)


def parse(cls: type[T], data: Any) -> T:
    """Build ``cls``, and so :func:`check` it, from a JSON-shaped dict.

    Unknown keys are errors.  Raises one :class:`ConfigError` listing every
    problem.
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
            values[f.name] = rule.load(raw, prefix + ".".join(key), problems)
        elif f.default is not _MISSING:
            values[f.name] = f.default
        else:
            problems.append(f"{prefix}{'.'.join(key)}: missing required key")
            values[f.name] = INVALID
    if len(problems) == start:
        try:
            return cls(**values)
        except ConfigError:
            pass  # judged again below, to mark the fields that failed
    problems.extend(prefix + p for p in _judge(cls, values))
    return _Parts(**values)


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
    """The parsed JSON of a file; malformed JSON, an integer longer than
    Python converts or nesting deeper than it recurses raises
    :class:`ConfigError`."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:  # a ValueError, so it comes first
            raise ConfigError([_not_utf8(path, exc)]) from exc
        # Malformed JSON and too long a number raise ValueError; too deep
        # nesting raises RecursionError.
        except (ValueError, RecursionError) as exc:
            raise ConfigError([f"{path}: not valid JSON ({exc})"]) from exc


def write_json(data: dict, dest: str | IO[str]) -> None:
    """Write ``data`` as indented JSON with sorted keys and a final newline,
    to a path or an open text file."""
    if not hasattr(dest, "write"):
        with open(dest, "w") as fh:
            write_json(data, fh)
        return
    json.dump(data, dest, indent=2, sort_keys=True)
    dest.write("\n")


# The cells a flag may hold, matched exactly: a flag is its index here.
FLAG_TEXTS = ("false", "true")


def flag(cell: str) -> bool:
    """A CSV cell that must read ``true`` or ``false``."""
    try:
        return bool(FLAG_TEXTS.index(cell))
    except ValueError:
        raise ValueError(f"must be true or false, got {cell!r}") from None


def read_columns(
    path: str, layouts: dict, convert: Callable, finish: Callable[..., T]
) -> T:
    """``finish(*columns)``, the columns of a CSV file's data rows.

    ``layouts`` maps each accepted header to the numpy dtype of its rows and
    a builder that checks one row's cells, as csv reads them, and gives them
    as a tuple.  ``convert`` checks each block of rows, an array of the
    dtype, and turns it into columns (:func:`_gather`).  numpy's parser reads
    the file first (:func:`_parse_blocks`); where it declines, or ``finish``
    rejects its columns with a ``ValueError``, csv's reader reads the file
    (:func:`_read_blocks`), and each error ends as an :class:`InputFileError`
    that names the file, and the row where a row is at fault.
    """
    try:
        with warnings.catch_warnings():
            # numpy 1.23 reads an integer cell such as "1.7" through a float,
            # with a DeprecationWarning; as an error, it declines the file.
            warnings.simplefilter("error")
            # Blank lines and the end of the input; csv skips both too.
            warnings.filterwarnings("ignore", ".*contained no data", UserWarning)
            return finish(*_gather(path, _parse_blocks(path, layouts), convert))
    except (ValueError, KeyError, Warning):  # a UnicodeDecodeError too
        pass  # read again by rows, whose errors name the row
    columns = _gather(path, _read_blocks(path, layouts), convert)
    try:
        return finish(*columns)
    except ValueError as exc:
        raise InputFileError([f"{path}: {exc}"]) from exc


def _gather(path: str, blocks: Iterable[np.ndarray], convert: Callable) -> list:
    """The columns ``convert`` makes of ``blocks``, in arrays made as long as
    the most rows the file's size allows (a row takes a ``,`` or line end
    per field at least), grown where it is not known, as for a pipe, and cut
    to the rows written; ``object`` where a block's are, past int64."""
    columns, rows = [], 0
    for block in blocks:
        got = convert(block)
        if not columns:
            info = os.stat(path)
            most = (info.st_size + 1) // len(block.dtype) * stat.S_ISREG(info.st_mode)
            columns = [np.empty((most, *c.shape[1:]), c.dtype) for c in got]
        stop = rows + len(got[0])
        for j, values in enumerate(got):
            if values.dtype == object != columns[j].dtype:
                columns[j] = columns[j].astype(object)
            if stop > len(columns[j]):
                columns[j].resize((2 * stop, *values.shape[1:]), refcheck=False)
            columns[j][rows:stop] = values
        rows = stop
    # Give back the rows never written: left standing, malloc placed later
    # objects there, and repeated trace reads peaked 5 MiB higher.
    for column in columns:
        column.resize((rows, *column.shape[1:]), refcheck=False)
    return columns


# Characters on which numpy's parser and the row reader differ.  numpy's
# integer parser strips ``\x1c`` to ``\x1f`` around a number as whitespace,
# where ``int`` rejects them in an ASCII cell; it also reads some non-ASCII
# letters as digits (``"\u01fe"`` as 462 with glibc).  A fixed-width string
# field drops trailing NULs.  csv reads a ``"`` as a quote.  ``splitlines``
# ends a line at ``\v``, ``\f`` and ``\x1c`` to ``\x1e``, where the file's
# lines go on.
_DECLINED = '"\x00\x0b\x0c\x1c\x1d\x1e\x1f'


def _parse_blocks(path: str, layouts: dict) -> Iterator[np.ndarray]:
    """The blocks of :func:`read_columns`, parsed by numpy from the lines of
    ``_CHUNK_CHARS`` characters (csv's field limit, if lower) at a time, less
    the unfinished line carried over.  An ``object`` string field holds each
    cell as csv reads it; a ``U<n>`` one, its first ``n``.  A ``ValueError``
    or ``KeyError`` declines a file that might not read as csv reads it: one
    not regular, such as a pipe, which can be read only once; a header line
    not a key of ``layouts`` joined by commas; a chunk with non-ASCII text,
    a character of ``_DECLINED`` or a run of zeros too long for ``int``; and
    a line as long as a chunk, so that no line parsed passes csv's limit."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise ValueError("not a regular file")
    limit = min(_CHUNK_CHARS, csv.field_size_limit())
    # int reads no cell of more digits than its limit (0 for none), and one
    # that numpy reads as an int64 has at most 19 digits past its zeros.
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    declined = [*_DECLINED, "0" * (digits - 18)] if digits else _DECLINED
    with open(path, newline="") as fh:
        dtype, _ = layouts[tuple(fh.readline().rstrip("\r\n").split(","))]
        rest, end = "", False  # the unfinished line that ends the last chunk
        while not end:
            text = rest + fh.read(limit - len(rest))
            # A text file's read(n) is short only at the end of the file.
            end = len(text) < limit
            # A declined character in the rest declines the next chunk too.
            if not text.isascii() or any(c in text for c in declined):
                raise ValueError("text that csv may read otherwise")
            lines = text.splitlines(True)  # where the file's lines end
            del text  # each chunk's text and lines are freed early
            # The last line waits for the next chunk unless it ends in "\n":
            # it may be cut short, or its "\r" begin a "\r\n".
            rest = "" if end or lines[-1].endswith("\n") else lines.pop()
            if not (lines or end):
                raise ValueError("a line as long as a chunk")
            block = np.loadtxt(lines, dtype, delimiter=",", comments=None, ndmin=1)
            del lines
            yield block


def _read_blocks(path: str, layouts: dict) -> Iterator[np.ndarray]:
    """The blocks of :func:`read_columns`, read by csv's reader: each
    ``_ITER_ROWS`` rows that the layout's builder built, stacked by
    :func:`_stack`.  Blank lines are skipped."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = tuple(next(reader, ()))
            if header not in layouts:
                wanted = " or ".join(",".join(h) for h in layouts)
                raise ValueError(f"header must be {wanted}, got {','.join(header)}")
            (dtype, build), width, rows = layouts[header], len(header), []
            for row in reader:
                if len(row) == width:
                    rows.append(build(row))
                elif row:
                    raise ValueError(f"expected {width} cells, got {len(row)}")
                if len(rows) == _ITER_ROWS:
                    yield _stack(rows, dtype)
                    rows = []
            yield _stack(rows, dtype)
        except UnicodeDecodeError as exc:
            raise InputFileError([_not_utf8(path, exc)]) from exc
        except (ValueError, csv.Error) as exc:
            raise InputFileError([f"{path} row {reader.line_num}: {exc}"]) from exc


def _stack(rows: list[tuple], dtype: np.dtype, kinds: str = "U") -> np.ndarray:
    """``rows`` as an array of ``dtype``, whose text fields are ``object``,
    and its ints too where one is past int64, for ``finish`` to judge."""
    types = [object if dtype[n].kind in kinds else dtype[n] for n in dtype.names]
    try:
        return np.array(rows, list(zip(dtype.names, types)))
    except OverflowError:
        return _stack(rows, dtype, "Ui")


def text_field(texts: Sequence[str]) -> str:
    """The fixed-width numpy field for cells that must read one of ``texts``.

    It is one character wider than the longest text, so that a longer cell,
    cut to that width, matches none of them.
    """
    return f"U{max(map(len, texts)) + 1}"


def codes(cells: np.ndarray, texts: tuple[str, str]) -> np.ndarray:
    """Whether each cell reads ``texts[1]``; a cell that reads neither text
    raises ``ValueError``."""
    code = cells == texts[1]
    if not (code | (cells == texts[0])).all():
        raise ValueError(f"a cell is not one of {texts}")
    return code


class Table(NamedTuple):
    """A column of strings from a small set, for :func:`write_csv`: each
    row's index into ``texts``, as ints or bools."""

    codes: Sequence[Any] | np.ndarray
    texts: Sequence[str]


def flags(values: Sequence[bool] | np.ndarray) -> Table:
    """A column of flags, written ``true`` or ``false``."""
    return Table(values, FLAG_TEXTS)


def transpose(rows: Sequence[Sequence[Any]], width: int) -> list[tuple]:
    """The ``width`` columns of ``rows``, each a tuple."""
    return list(zip(*rows)) if rows else [()] * width


class _Lines(list):
    """A list that a ``csv.writer`` writes its lines into."""

    write = list.append


def _table_cells(texts: Sequence[str], end: str) -> np.ndarray:
    """Each text as ``csv.writer`` writes it among other cells, then ``end``.

    A trailing empty cell keeps a lone ``""`` from being quoted.
    """
    lines = _Lines()
    csv.writer(lines, lineterminator="\n").writerows((text, "") for text in texts)
    return np.array([line[:-2] + end for line in lines], object)  # less ",\n"


class Cells(NamedTuple):
    """A column that :func:`cells` formatted, for :func:`write_csv`: each
    row's text with ``end``, the ``,`` or line end after it."""

    texts: np.ndarray  # of str
    end: str


def cells(column: Any, end: str = ",") -> Cells:
    """The texts that :func:`write_csv` writes for ``column``, each with
    ``end`` after it, to be written in many files but formatted once."""
    if isinstance(column, Table):
        column = Table(column.codes, _table_cells(column.texts, end))
    return Cells(np.asarray(_cells(column, end, slice(None)), object), end)


def _length(column: Any) -> int:
    if isinstance(column, Cells):
        return len(column.texts)
    return len(column.codes if isinstance(column, Table) else column)


def _cells(column: Any, end: str, rows: slice) -> Sequence[str]:
    """The texts of ``rows`` of one column, each followed by ``end``; a
    :class:`Table`'s texts have been through :func:`_table_cells`."""
    if isinstance(column, Cells):
        return column.texts[rows]
    if isinstance(column, Table):
        return column.texts[np.asarray(column.codes[rows], np.intp)]
    block = column[rows]
    if isinstance(block, np.ndarray) and block.dtype.kind in "iu":
        # Each distinct int is formatted once.
        values, inverse = np.unique(block, return_inverse=True)
        return np.array([str(v) + end for v in values.tolist()], object)[inverse]
    # Floats are formatted one by one, never by value: -0.0 == 0.0.  As in
    # csv.writer, a value is its str, which for a float is its repr.
    if isinstance(block, np.ndarray):
        block = block.tolist()
    return [("" if v is None else str(v)) + end for v in block]


def _format_block(columns: Sequence[tuple[Any, str]], start: int, stop: int) -> str:
    """Rows ``start`` to ``stop`` of each ``(column, end)`` as CSV lines."""
    grid = np.empty((stop - start, len(columns)), object)
    rows = slice(start, stop)
    for j, (column, end) in enumerate(columns):
        grid[:, j] = _cells(column, end, rows)
    if len(columns) == 1:
        # csv.writer quotes a lone empty cell, so that its line is not blank.
        grid[grid[:, 0] == "\n", 0] = '""\n'
    return "".join(grid.ravel().tolist())


def write_csv(
    dest: str | IO[str],
    header: Sequence[str],
    columns: Sequence[Any],
    shared: Mapping[str, Cells] | None = None,
) -> None:
    """Write a header and columns of one length to a path or an open text
    file, the same bytes as ``csv.writer(dest, lineterminator="\\n")``
    writes for the rows.

    A column is a :class:`Table` of strings (flags are the table
    :func:`flags`), a numpy array of numbers, a sequence of numbers and
    ``None``, or the :class:`Cells` of one of these.  ``None`` is written
    as an empty cell and a number as its ``str``, which for a float is its
    ``repr``, so :func:`read_csv` reads back the same values.  Each block of
    ``_ITER_ROWS`` rows is formatted column by column, each cell with the
    ``,`` or line end after it, and written as one string.  An array's
    distinct ints are formatted once per block, and a table's texts once per
    file, by ``csv.writer`` itself.  A column that ``shared`` names is
    written from its cells there instead, formatted once for many files;
    they must be of the column's length and end, and are not checked
    against its values.
    """
    ends = [","] * (len(columns) - 1) + ["\n"]
    lengths = {_length(c) for c in columns}
    if shared:
        columns = [shared.get(name, c) for name, c in zip(header, columns)]
        lengths.update(_length(c) for c in columns)
    if len(lengths) > 1:
        raise ValueError(f"the columns must be of one length, got {sorted(lengths)}")
    for c, end in zip(columns, ends):
        if isinstance(c, Cells) and c.end != end:
            raise ValueError(f"cells that end in {c.end!r} where {end!r} is written")
    if not hasattr(dest, "write"):
        with open(dest, "w", newline="") as fh:
            write_csv(fh, header, columns)
        return
    csv.writer(dest, lineterminator="\n").writerow(header)
    columns = [
        (Table(c.codes, _table_cells(c.texts, end)) if isinstance(c, Table) else c, end)
        for c, end in zip(columns, ends)
    ]
    n = lengths.pop() if lengths else 0
    for start in range(0, n, _ITER_ROWS):
        dest.write(_format_block(columns, start, min(start + _ITER_ROWS, n)))
