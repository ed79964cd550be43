"""File formats declared once: CSV tables, JSON artifacts, dataclass dicts.

Every CSV table busflux writes for itself goes through ``write_table`` and
comes back through ``read_table``. A table is a header plus one converter
per column. ``read_table`` yields the converted rows one at a time: each
reader builds its own objects as rows arrive, so it holds one row of
cells at a time, never the whole table, and consumes the table before it
returns. Its own artifacts fail fast: a wrong header, a wrong field count,
a cell that does not convert, or a non-finite number raises a ParseError
naming the file and line. Floats are written as their shortest round-trip
``repr``, so a read-write cycle reproduces the bytes.
Every JSON document is written by ``write_json`` and read by
``load_json``, so text that is not JSON raises a ParseError naming the
file. Neither takes Python's ``NaN`` or ``Infinity``, which RFC 8259
leaves out of JSON: a non-finite number is refused where it is read and
never written. Every versioned artifact (a model file, ``meta.json``, a
manifest, ``truth.json``) is one dataclass, written by ``write_artifact``
under a top-level ``format_version`` and read by ``read_artifact``,
which refuses another version naming the file and the version it found.
Only the weather reader, which has read its text to tell JSON from CSV,
parses JSON itself. Every reader of an input file decodes it inside
``decoding``, so bytes that are not UTF-8, or gzip data that is cut short
or corrupt, raise a ParseError naming the file.

A timestamp is a naive UTC ``datetime``, whole seconds since ``EPOCH``
as an integer, and exactly `YYYY-MM-DD hh:mm:ss` as text; ``frames``
holds the vectorized numpy forms of this codec. ``whole_seconds`` turns a
``timedelta`` into integer seconds, rounded down.

``to_dict`` / ``from_dict`` convert config sections and JSON artifacts,
driven by their fields and type hints: a nested dataclass is an object, a
list or tuple a list, a ``timedelta`` field ``x`` the integer key
``x_seconds``, a ``date`` an ISO string, a ``datetime`` the one timestamp
text and ``bytes`` an even number of hex digits with no whitespace. A
numpy array field, hinted ``Annotated[np.ndarray, dtype, ndim]``, is
lists nested ``ndim`` deep of one length per level, of numbers (integers
for an integer dtype). A field marked ``LEFT_OUT`` is neither written nor
read. No bool is a number and a float is finite. An unknown key, a
missing one in an artifact, a wrong type or a failed cross-field check
(each class's ``__post_init__``) raises a ConfigError naming the dotted
key, or a ParseError naming file and key.

``sha1`` and ``sha256``, for device digests and manifests, are CPython's
built-in hashes (``_sha1``; ``_sha2`` from 3.12, ``_sha256`` before), the
lean modules that the stdlib's ``random`` also tries first for its
SHA-512. Their digests are OpenSSL's, but they load no libcrypto, whose
3.3 MB of resident pages every stage would otherwise carry only to hash;
the CLI stages that draw random numbers keep numpy.random from loading
it too. The OpenSSL-backed module is the fallback for an interpreter
built without them, and there every stage maps libcrypto.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import gzip
import json
import os
import reprlib
import typing
import zlib
from datetime import date, datetime, timedelta
from types import UnionType
from typing import Any, Callable, Iterable, Iterator, Sequence, Union

from .errors import ConfigError, ParseError

try:
    from _sha1 import sha1
except ImportError:
    from hashlib import sha1
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

PathLike = Union[str, os.PathLike]


def real(text: str) -> float:
    """Column converter for a finite float."""
    value = float(text)
    if value - value == 0.0:  # false for nan and ±inf; cheaper than math.isfinite
        return value
    raise ValueError(f"non-finite number {text!r}")


def nonnegative_real(text: str) -> float:
    """Column converter for a finite float count, 0 or more."""
    value = real(text)
    if value >= 0.0:
        return value
    raise ValueError(f"negative count {text!r}")


def nonnegative_int(text: str) -> int:
    """Column converter for an integer count, 0 or more."""
    value = int(text)
    if value >= 0:
        return value
    raise ValueError(f"negative count {text!r}")


def nonempty(text: str) -> str:
    """Column converter for a name, which may not be empty."""
    if text:
        return text
    raise ValueError("empty name")


EPOCH = datetime(1970, 1, 1)
_SECOND = timedelta(seconds=1)


def whole_seconds(span: timedelta) -> int:
    """``span`` in whole seconds, rounded down."""
    return span // _SECOND


def epoch_seconds(at: datetime) -> int:
    """Whole seconds from the UTC epoch to the naive UTC time ``at``."""
    if at.microsecond:
        raise ValueError(f"time has a fraction of a second: {at}")
    return whole_seconds(at - EPOCH)


def utc_datetime(seconds: int) -> datetime:
    """The naive UTC time ``seconds`` after the epoch."""
    return EPOCH + timedelta(seconds=seconds)


def parse_timestamp(text: str) -> datetime:
    """The naive UTC time that ``text`` names in the one timestamp shape of
    busflux's files, exactly `YYYY-MM-DD hh:mm:ss`."""
    # fromisoformat is much faster than strptime but accepts more shapes,
    # so pin the separators first.
    if len(text) != 19 or text[4] + text[7] + text[10] + text[13] + text[16] != "-- ::":
        raise ValueError(f"bad timestamp: {text!r}")
    return datetime.fromisoformat(text)


def format_timestamp(at: datetime) -> str:
    return at.isoformat(" ", "seconds")


def source_name(source) -> str:
    """How an error names ``source``: a path as itself, a stream by its
    ``name``, or "input stream" when it has none."""
    name = source if isinstance(source, (str, os.PathLike)) else getattr(source, "name", "")
    return str(name or "input stream")


@contextlib.contextmanager
def decoding(source) -> Iterator[None]:
    """Re-raise an error met while decoding ``source`` in the with-block,
    text that is not UTF-8 or gzip data that is cut short or corrupt, as a
    ParseError naming ``source``, a path or a stream."""
    try:
        yield
    except (UnicodeDecodeError, EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise ParseError(f"{source_name(source)}: cannot decode: {exc}") from None


def write_json(dest: PathLike, payload, compact: bool = False) -> None:
    """Write a JSON artifact: sorted keys, one-space indent, final newline.

    A compact artifact (a model file, mostly long number arrays) has no
    whitespace between tokens instead of one array element per line. The
    text is made before the file is opened, so a payload that is refused
    (a non-finite number) leaves no file behind.
    """
    if compact:
        # The C encoder runs only without an indent.
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
    else:
        text = json.dumps(payload, sort_keys=True, indent=1, allow_nan=False)
    with open(dest, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
        fh.write("\n")


def load_json(source: PathLike):
    """The JSON document in ``source``; text that is not JSON, Python's
    ``NaN``, ``Infinity`` and ``-Infinity`` included, or a number beyond
    the range of a double, such as ``1e309``, raises a ParseError naming
    it."""
    def refuse(token: str):
        raise ParseError(f"{source}: not valid JSON: {token} is not a JSON number")

    def finite(token: str) -> float:
        value = float(token)
        if value - value == 0.0:
            return value
        raise ParseError(f"{source}: not valid JSON: {token} overflows a double")

    with open(source, "r", encoding="utf-8") as fh, decoding(source):
        try:
            return json.load(fh, parse_constant=refuse, parse_float=finite)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{source}: not valid JSON: {exc}") from None


def write_artifact(dest: PathLike, obj, version: int, compact: bool = False) -> None:
    """Write the dataclass ``obj`` as an artifact of format ``version``."""
    write_json(dest, {"format_version": version, **to_dict(obj)}, compact)


def read_artifact(cls, source: PathLike, version: int):
    """The ``cls`` in the artifact ``source``, which must be a JSON object
    of format ``version``."""
    payload = load_json(source)
    if not isinstance(payload, dict):
        raise ParseError(f"{source}: expected a JSON object, got {reprlib.repr(payload)}")
    found = payload.pop("format_version", None)
    if type(found) is not int or found != version:
        raise ParseError(f"{source}: expected format version {version}, got {found!r}")
    return from_dict(cls, payload, source=source)


def write_table(dest: PathLike, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write header and rows as CSV with ``\\n`` line ends.

    Cells are written with ``str``, which for a float is its ``repr``;
    a cell holding a comma or a quote is quoted.
    """
    with open(dest, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_table(
    source: PathLike, header: Sequence[str], types: Sequence[Callable[[str], Any]]
) -> Iterator[list]:
    """Yield the rows of a table written by ``write_table``, each cell
    converted by its column's converter. Blank lines are skipped.

    Only the row being yielded is held, so a caller that builds its own
    objects row by row never holds the table as lists of cells. The file
    stays open until the iterator is exhausted or closed.
    """
    width = len(header)
    with open(source, "r", encoding="utf-8", newline="") as fh, decoding(source):
        reader = csv.reader(fh)
        got = next(reader, None)
        if got != list(header):
            raise ParseError(f"{source}: header must be {','.join(header)!r}, got {got!r}")
        for row in reader:
            if len(row) != width:
                if not row:
                    continue
                raise ParseError(
                    f"{source}:{reader.line_num}: expected {width} fields, got {len(row)}"
                )
            try:
                cells = [convert(cell) for convert, cell in zip(types, row)]
            except ValueError as exc:
                raise ParseError(f"{source}:{reader.line_num}: {exc}") from None
            yield cells


# Field metadata for a field that ``to_dict`` and ``from_dict`` leave out.
LEFT_OUT = {"left_out": True}


def to_dict(obj) -> dict:
    """A dataclass as a JSON-ready dict (see the module docstring)."""
    out = {}
    for f in dataclasses.fields(obj):
        if f.metadata.get("left_out"):
            continue
        value = getattr(obj, f.name)
        if isinstance(value, timedelta):
            out[f"{f.name}_seconds"] = whole_seconds(value)
        else:
            out[f.name] = _dump(value)
    return out


def _dump(value):
    if dataclasses.is_dataclass(value):
        return to_dict(value)
    if isinstance(value, datetime):  # a date too, so it goes first
        return format_timestamp(value)
    if isinstance(value, date):
        return value.isoformat()
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [_dump(v) for v in value]
    tolist = getattr(value, "tolist", None)  # a numpy array
    return value if tolist is None else tolist()


def from_dict(cls, data, base=None, *, source=None, key: str = ""):
    """``cls`` from the JSON object ``data`` (see the module docstring).

    With a ``base``, the fields that ``data`` names replace base's; without
    one, ``data`` names every field. Errors name the dotted key, which
    starts at ``key``, and ``source``, the file ``data`` came from, if given.
    """
    try:
        return _load(cls, data, base, key)
    except _Refused as exc:
        before, at, after = exc.args
        if source is None:
            raise ConfigError(f"{before}{f'config key {at!r}' if at else 'config root'}{after}")
        raise ParseError(f"{source}: {before}{f'key {at!r}' if at else 'the top level'}{after}")


class _Refused(Exception):
    """A value from_dict refuses: (text before its dotted key, the key, text after)."""


@functools.cache
def _fields(cls) -> dict:
    """The JSON key of each field of ``cls``: its name and type hint."""
    hints = typing.get_type_hints(cls, include_extras=True)
    return {f"{f.name}_seconds" if hints[f.name] is timedelta else f.name: (f.name, hints[f.name])
            for f in dataclasses.fields(cls) if not f.metadata.get("left_out")}


def _load(cls, data, base, key: str):
    if not isinstance(data, dict):
        raise _Refused("", key, f" needs a JSON object, got {reprlib.repr(data)}")
    prefix = f"{key}." if key else ""
    fields = _fields(cls)
    changes = {}
    for name, value in data.items():
        if name not in fields:
            raise _Refused("unknown ", prefix + name, "")
        attr, hint = fields[name]
        changes[attr] = _value(hint, value, getattr(base, attr, None), prefix + name)
    if base is None and len(changes) < len(fields):
        raise _Refused("missing ", prefix + min(fields.keys() - data.keys()), "")
    try:
        return cls(**changes) if base is None else dataclasses.replace(base, **changes)
    except (ConfigError, ValueError) as exc:
        raise _Refused("", key, f": {exc}") from None


def _value(hint, value, base, key: str):
    origin = typing.get_origin(hint)
    if origin is typing.Annotated:  # a numpy array: only reading one runs numpy
        import numpy as np

        dtype, ndim = hint.__metadata__
        numbers = {int} if np.dtype(dtype).kind in "iu" else {int, float}
        shape = _shape(value, ndim, numbers, key)
        try:
            return np.array(value, dtype=dtype).reshape(shape)
        except OverflowError:
            raise _Refused("", key, f" needs numbers that fit {dtype}") from None
    if origin in (Union, UnionType):
        if value is None:
            return None
        (hint,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        return _value(hint, value, base, key)
    if dataclasses.is_dataclass(hint):
        return _load(hint, value, base, key)
    if origin in (tuple, list):
        if not isinstance(value, list):
            raise _Refused("", key, f" needs a list, got {reprlib.repr(value)}")
        item = typing.get_args(hint)[0]
        items = [_value(item, v, None, f"{key}[{i}]") for i, v in enumerate(value)]
        return items if origin is list else tuple(items)
    if dict in (hint, origin):
        if not isinstance(value, dict):
            raise _Refused("", key, f" needs a JSON object, got {reprlib.repr(value)}")
        if hint is dict:  # any object, taken as it is
            return value
        item = typing.get_args(hint)[1]
        return {k: _value(item, v, None, f"{key}.{k}") for k, v in value.items()}
    if hint in (date, datetime) and isinstance(value, str):
        try:
            return parse_timestamp(value) if hint is datetime else date.fromisoformat(value)
        except ValueError:
            pass
    elif hint is bytes and isinstance(value, str) and len(value) % 2 == 0 and set(value) <= _HEX:
        return bytes.fromhex(value)  # fromhex alone would skip whitespace
    elif hint is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return real(value)
        except (ValueError, OverflowError):
            raise _Refused("", key, f" needs a finite number, got {reprlib.repr(value)}") from None
    elif hint in (int, timedelta) and isinstance(value, int) and not isinstance(value, bool):
        return timedelta(seconds=value) if hint is timedelta else value
    elif hint in (str, bool) and isinstance(value, hint):
        return value
    raise _Refused("", key, f" needs {_NAMES[hint]}, got {reprlib.repr(value)}")


def _shape(value, ndim: int, numbers: set, key: str) -> tuple:
    """The shape of ``value``, lists of leaves whose types ``numbers`` holds."""
    if type(value) is not list:
        raise _Refused("", key, f" needs a list, got {reprlib.repr(value)}")
    if ndim > 1:
        shapes = {_shape(v, ndim - 1, numbers, f"{key}[{i}]") for i, v in enumerate(value)}
        if len(shapes) > 1:
            raise _Refused("", key, " needs lists of one length")
        return (len(value), *(shapes.pop() if shapes else (0,) * (ndim - 1)))
    if not set(map(type, value)) <= numbers:
        i = next(i for i, v in enumerate(value) if type(v) not in numbers)
        noun = "an integer" if numbers == {int} else "a number"
        raise _Refused("", f"{key}[{i}]", f" needs {noun}, got {reprlib.repr(value[i])}")
    return (len(value),)


_NAMES = {
    int: "an integer",
    timedelta: "an integer number of seconds",
    float: "a number",
    str: "a string",
    bool: "true or false",
    date: "an ISO date",
    datetime: "a timestamp 'YYYY-MM-DD hh:mm:ss'",
    bytes: "an even number of hex digits",
}
_HEX = frozenset("0123456789abcdefABCDEF")
