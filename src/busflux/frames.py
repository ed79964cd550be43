"""Raw sensor frame ingestion: MAC semantics, anonymization, CSV parsing.

One captured Wi-Fi frame is a (bus stop, UTC timestamp, device, RSSI) row.
A raw MAC is its 48-bit integer (parse_mac, format_mac). Device identity
is a SHA-1 digest of the canonical MAC text; the randomization bit check
happens on the raw address *before* hashing, so nothing downstream ever
needs the original bits.

Parsed frames are columnar (FrameColumns): an int32 stop index into a
table of stop names, int64 UTC epoch seconds, an int32 device index into
a device table of two arrays, (k, 20) uint8 digest rows and int64 MACs
(-1 where the input gave no raw address), and int16 RSSI. The parser
streams its input, plain or gzipped, in chunks of whole lines and
appends accepted rows to array.array buffers, and each new device's
digest and MAC to a bytearray and an array.array, keyed by MAC field
text in one dict that dies with the parse. No per-frame Python object
outlives its chunk; the finished columns and device table are numpy
views of those buffers, not copies. A chunk of canonical rows, as
write_frame_csv writes them, is converted a column at a time: a shape
check and numpy's ISO-8601 parser for the timestamps, and one check per
distinct stop, MAC and RSSI text. From the first chunk that is not
canonical, csv.reader takes the rest a row at a time; that per-row path
is the one authority on quoting and on every malformed row's reason and
line. Both paths apply the same rule function per field. Timestamps follow
``schema``'s codec, of which ``_epoch_seconds_of`` and
``format_epoch_seconds`` are the vectorized numpy forms.

The generator builds its frames with the parser's column builder, so
FrameColumns is the one frame type from generator to cleaner.
sorted_frames orders them for a file with one stable lexsort, and
write_frame_csv writes them a block of rows at a time. FrameRecord is the
one-frame view for callers that want objects, with a DeviceId and an int
MAC or None: iterating FrameColumns yields them, and
FrameColumns.from_records builds columns from them.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import io
import os
import re
from array import array
from collections import Counter
from dataclasses import dataclass, field, replace
from datetime import datetime
from itertools import chain, repeat
from typing import IO, Iterable, Iterator, Union

from .errors import ParseError
from .lazy import numpy as np
from .schema import decoding, epoch_seconds, parse_timestamp, sha1, source_name, utc_datetime

FRAME_HEADER = "bus_stop,timestamp_utc,mac,rssi_dbm"
ANONYMIZED_FLAG = "#anonymized=true"
_GZIP_MAGIC = b"\x1f\x8b"

# Parse-time physical plausibility gate; the cleaning filter applies the
# narrower operational range.
RSSI_PLAUSIBLE_LO = -120
RSSI_PLAUSIBLE_HI = 0

_MAC_RE = re.compile(r"[0-9A-Fa-f]{2}(:[0-9A-Fa-f]{2}){5}")
_DIGEST_RE = re.compile(r"[0-9a-fA-F]{40}")
_RANDOMIZED_BITS = 0x03 << 40  # the I/G and U/L bits of a MAC's first octet

PathOrStream = Union[str, os.PathLike, IO[bytes]]


def parse_mac(text: str) -> int:
    """The 48-bit integer of a colon-separated MAC text, in either case."""
    if not _MAC_RE.fullmatch(text):
        raise ValueError(f"not a MAC address: {text!r}")
    return int(text.replace(":", ""), 16)


def format_mac(mac: int) -> str:
    """Uppercase colon-separated form of a 48-bit MAC, always 17 characters."""
    return mac.to_bytes(6, "big").hex(":").upper()


def is_randomized(mac: int) -> bool:
    """True when the address cannot identify a stable device.

    Locally administered addresses (the U/L bit, bit 1 of octet 0) are what
    MAC randomization emits, and group addresses (the I/G bit, bit 0) never
    name a single device; both are treated as noise.
    """
    return bool(mac & _RANDOMIZED_BITS)


@dataclass(frozen=True, slots=True)
class DeviceId:
    """SHA-1 digest of a canonical MAC text; the anonymous device identity."""

    digest: bytes

    def __post_init__(self):
        if len(self.digest) != 20:
            raise ValueError("device digest must be 20 bytes")

    @classmethod
    def from_hex(cls, text: str) -> "DeviceId":
        if not _DIGEST_RE.fullmatch(text):
            raise ValueError(f"not a 40-char hex digest: {text!r}")
        return cls(bytes.fromhex(text))

    @property
    def hex(self) -> str:
        return self.digest.hex()

    def __str__(self) -> str:
        return self.hex


def anonymize(mac: int) -> DeviceId:
    """SHA-1 over the canonical 17-char text form (unsalted, stable everywhere).
    ``schema.sha1`` is CPython's built-in SHA-1, which loads no OpenSSL."""
    return DeviceId(sha1(format_mac(mac).encode("ascii")).digest())


@dataclass(frozen=True, slots=True)
class FrameRecord:
    """One captured frame observation.

    ``mac``, the raw address as its 48-bit integer, is carried only when
    the input held one, and then ``device`` is ``anonymize(mac)``; files
    that arrive pre-anonymized leave it None, which disables the
    randomization filter downstream.
    """

    stop: str
    at: datetime
    device: DeviceId
    rssi: int
    mac: int | None = None


@dataclass(slots=True)
class ParseIssue:
    line: int
    reason: str
    raw: str


@dataclass(slots=True)
class ParseReport:
    """Per-file parse outcome; malformed rows are recorded, never silent."""

    rows_total: int = 0
    rows_ok: int = 0
    anonymized_input: bool = False
    issues: list[ParseIssue] = field(default_factory=list)

    @property
    def rows_bad(self) -> int:
        return len(self.issues)

    def issues_by_reason(self) -> dict[str, int]:
        return dict(Counter(issue.reason for issue in self.issues))


def device_ids(digests: np.ndarray) -> list[DeviceId]:
    """The DeviceId of each row of a digest array. Rows are sliced from
    one bytes object: numpy's S20 view of a row drops its trailing NULs."""
    blob = digests.tobytes()
    return [DeviceId(blob[at:at + 20]) for at in range(0, len(blob), 20)]


@dataclass(frozen=True, eq=False)
class FrameColumns:
    """Frames as four parallel arrays plus the two tables they index.

    ``stop`` (int32) indexes ``stops``, the stop names. ``device`` (int32)
    indexes the device table: entry i is the SHA-1 digest ``digests[i]``,
    a row of 20 uint8, and the raw address ``macs[i]`` as its 48-bit
    integer, -1 in digest form. ``t`` (int64) holds UTC epoch seconds and
    ``rssi`` (int16) dBm. An entry is one (digest, address) pair, so two
    entries share a digest only when one device came both as a raw MAC and
    as a digest. Tables are in first-seen order and hold exactly what the
    frames use, until clean() takes the survivors. Iterating yields
    FrameRecords; ``from_records`` goes back.
    """

    stops: tuple[str, ...]
    digests: np.ndarray
    macs: np.ndarray
    stop: np.ndarray
    t: np.ndarray
    device: np.ndarray
    rssi: np.ndarray

    @classmethod
    def from_records(cls, records: Iterable[FrameRecord]) -> "FrameColumns":
        columns = _ColumnBuilder()
        for r in records:
            text, mac = (r.device.hex, -1) if r.mac is None else (format_mac(r.mac), r.mac)
            columns.stop.append(columns.stop_code(r.stop))
            columns.t.append(epoch_seconds(r.at))
            columns.device.append(columns.device_code(text, r.device.digest, mac))
            columns.rssi.append(r.rssi)
        return columns.build()

    @property
    def randomized(self) -> np.ndarray:
        """Per table entry, whether its raw address has the U/L or I/G bit set."""
        return (self.macs >= 0) & (self.macs & _RANDOMIZED_BITS != 0)

    def used_macs(self) -> np.ndarray:
        """The ``macs`` of the table entries that some frame uses."""
        used = np.zeros(len(self.macs), dtype=bool)
        used[self.device] = True
        return self.macs[used]

    def __len__(self) -> int:
        return len(self.t)

    def __iter__(self) -> Iterator[FrameRecord]:
        stops, devices = self.stops, device_ids(self.digests)
        macs = [None if mac < 0 else mac for mac in self.macs.tolist()]
        for s, t, d, rssi in zip(self.stop.tolist(), self.t.tolist(), self.device.tolist(),
                                 self.rssi.tolist()):
            yield FrameRecord(stops[s], utc_datetime(t), devices[d], rssi, macs[d])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrameColumns):
            return NotImplemented
        return self.stops == other.stops and all(
            a.dtype == b.dtype and np.array_equal(a, b)
            for a, b in zip(self._arrays(), other._arrays())
        )

    def _arrays(self) -> tuple[np.ndarray, ...]:
        return self.digests, self.macs, self.stop, self.t, self.device, self.rssi


class _ColumnBuilder:
    """array.array buffers for the four frame columns, and the two tables:
    a bytearray of the entries' digests, end to end, and an array of their
    MACs. ``devices`` maps MAC field text to entry: each entry's canonical
    text, which names one (digest, MAC) pair, as format_mac or lowercase
    hex writes it, and any other spelling that the parser meets. The
    generator, which draws a new device for every trip, appends its
    entries with ``add_device`` and keys none."""

    def __init__(self):
        self.stops: dict[str, int] = {}
        self.devices: dict[str, int] = {}
        self.digests, self.macs = bytearray(), array("q")
        self.stop, self.t, self.device, self.rssi = array("i"), array("q"), array("i"), array("h")

    def stop_code(self, name: str) -> int:
        return self.stops.setdefault(name, len(self.stops))

    def device_code(self, text: str, digest: bytes, mac: int) -> int:
        code = self.devices.get(text)
        if code is None:
            code = self.devices[text] = self.add_device(digest, mac)
        return code

    def add_device(self, digest: bytes, mac: int) -> int:
        """Append a table entry, unkeyed, and return its index."""
        self.digests += digest
        self.macs.append(mac)
        return len(self.macs) - 1

    def build(self) -> FrameColumns:
        """The columns and tables, wrapping the buffers without a copy; the
        builder must not append after this."""
        return FrameColumns(
            stops=tuple(self.stops),
            digests=np.frombuffer(self.digests, dtype=np.uint8).reshape(-1, 20),
            macs=np.frombuffer(self.macs, dtype=np.int64),
            stop=np.frombuffer(self.stop, dtype=np.int32),
            t=np.frombuffer(self.t, dtype=np.int64),
            device=np.frombuffer(self.device, dtype=np.int32),
            rssi=np.frombuffer(self.rssi, dtype=np.int16),
        )


class _Prefixed(io.RawIOBase):
    """The bytes ``head`` and then the rest of ``stream``; closing it leaves
    ``stream`` open."""

    def __init__(self, head: bytes, stream: IO[bytes]):
        self._head, self._stream = head, stream

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int | None:  # type: ignore[override]
        if self._head:
            data, self._head = self._head[: len(buffer)], self._head[len(buffer) :]
        else:
            data = self._stream.read(len(buffer))
            if data is None:
                return None
        buffer[: len(data)] = data
        return len(data)


@contextlib.contextmanager
def _open_text(source: PathOrStream) -> Iterator[io.TextIOWrapper]:
    """Stream the UTF-8 text of a frame file, gunzipped when it starts with
    the gzip magic. A path is opened and closed here; a caller's binary
    stream is read from where it stands and left open."""
    with contextlib.ExitStack() as stack:
        if hasattr(source, "read"):
            raw: IO[bytes] = source  # type: ignore[assignment]
        else:
            raw = stack.enter_context(open(source, "rb", buffering=0))
        # A read may return fewer bytes than asked, so read the magic's
        # length in full and put it back in front of the stream.
        head = b""
        while len(head) < len(_GZIP_MAGIC) and (more := raw.read(len(_GZIP_MAGIC) - len(head))):
            head += more
        stream: IO[bytes] = io.BufferedReader(_Prefixed(head, raw))
        if head == _GZIP_MAGIC:
            stream = gzip.GzipFile(fileobj=stream, mode="rb")  # type: ignore[assignment]
        yield io.TextIOWrapper(stream, encoding="utf-8", newline="")  # type: ignore[arg-type]


# Characters read per chunk. Larger chunks amortise the per-chunk numpy
# calls but hold more field strings at once: 1 MiB chunks raised the peak
# RSS of `busflux clean` on 60 days of gzipped digest-form frames from 53
# to 60 MB. It also stays below csv's default field size limit, so that
# a line too long for a chunk, which goes to csv.reader, is the only kind
# that can hold a field over that limit.
_CHUNK_CHARS = 1 << 15

# Bytes, not arrays: numpy runs on first use, and this module is imported
# by stages that never parse frames. A timestamp minus this template is
# 0..9 at each digit and 0 at each separator; uint8 arithmetic wraps
# anything else above that.
_TS_TEMPLATE = b"0000-00-00 00:00:00"
_TS_MAX = bytes(9 if c == "0" else 0 for c in "0000-00-00 00:00:00")


def _epoch_seconds_of(texts: list[str]) -> np.ndarray | None:
    """The int64 epoch seconds of ``texts``, when every one is exactly
    `YYYY-MM-DD hh:mm:ss` in ASCII digits and names a real second; None
    otherwise, leaving the verdict to ``parse_timestamp``. The shape is
    checked here, and numpy's ISO-8601 parser checks the ranges, the leap
    days and counts the days."""
    joined = "".join(texts)
    if set(map(len, texts)) != {19} or not joined.isascii():
        return None
    template, highest = np.frombuffer(_TS_TEMPLATE, np.uint8), np.frombuffer(_TS_MAX, np.uint8)
    digits = np.frombuffer(joined.encode("ascii"), np.uint8).reshape(-1, 19) - template
    # numpy accepts the year 0, which datetime does not.
    if (digits.max(axis=0) > highest).any() or not digits[:, :4].any(axis=1).all():
        return None
    try:
        return np.array(texts, dtype="datetime64[s]").view(np.int64)
    except ValueError:
        return None


_RSSI_SPELLING = "non-canonical rssi"  # checked after the MAC and stop rules


def _rssi(text: str) -> tuple[int, str | None]:
    """The dBm value of an RSSI text, and the first RSSI rule it breaks:
    syntax, plausible range, then spelling."""
    try:
        rssi = int(text)
    except ValueError:
        return 0, "bad rssi"
    if not RSSI_PLAUSIBLE_LO <= rssi <= RSSI_PLAUSIBLE_HI:
        return rssi, "rssi out of plausible range"
    if str(rssi) != text:
        return rssi, _RSSI_SPELLING
    return rssi, None


def _stop_issue(stop: str) -> str | None:
    """The stop-code rule that ``stop`` breaks, if any."""
    if not stop:
        return "empty stop code"
    if stop != stop.strip():
        return "stop code padded with whitespace"
    return None


def _identity(mac_text: str, anonymized_input: bool) -> tuple[str, bytes, int] | None:
    """The (canonical text, digest, MAC or -1) a MAC field names, or None."""
    try:
        if len(mac_text) == 17 and not anonymized_input:
            mac = parse_mac(mac_text)
            return format_mac(mac), anonymize(mac).digest, mac
        return mac_text.lower(), DeviceId.from_hex(mac_text).digest, -1
    except ValueError:
        return None


def _read_header(text: IO[str], report: ParseReport, source: PathOrStream) -> int:
    """Consume the comment lines and the header; returns the lines read."""
    line_no = 0
    header = None
    for line in text:
        line_no += 1
        stripped = line.rstrip("\r\n")
        if stripped.startswith("#"):
            if stripped.strip().lower() == ANONYMIZED_FLAG:
                report.anonymized_input = True
            continue
        header = stripped
        break
    if header != FRAME_HEADER:
        raise ParseError(f"{source_name(source)}: frame CSV must start with header "
                         f"{FRAME_HEADER!r}, got {header!r}")
    return line_no


class _FrameParser:
    """Parse state shared by the chunk and the per-row path: the column
    buffers and tables, whose dicts hold the stop and MAC texts already
    validated, and the RSSI texts already read. A row's stop and device
    join the tables only once its row, or its whole chunk, has passed."""

    def __init__(self, report: ParseReport):
        self.report = report
        self.columns = _ColumnBuilder()
        self.rssi_values: dict[str, int] = {}

    def canonical_chunk(self, chunk: str) -> int:
        """Append the rows of ``chunk``, whole lines, when every line is a
        canonical row as write_frame_csv writes it; the row count, or 0
        with nothing touched."""
        # A quote or a CR changes how csv splits fields and rows, and csv
        # before Python 3.11 rejects a NUL.
        if '"' in chunk or "\r" in chunk or "\0" in chunk:
            return 0
        lines = (chunk[:-1] if chunk.endswith("\n") else chunk).split("\n")
        # Counted per line: a one-field line and a seven-field line also
        # hold six commas. A blank line holds none.
        if len(lines[-1]) > _CHUNK_CHARS or set(map(str.count, lines, repeat(","))) != {3}:
            return 0
        fields = ",".join(lines).split(",")
        stops, macs, rssis = fields[0::4], fields[2::4], fields[3::4]
        t = _epoch_seconds_of(fields[1::4])
        if t is None:
            return 0
        columns, devices, rssi_values = self.columns, self.columns.devices, self.rssi_values
        new_rssi = {r: _rssi(r) for r in dict.fromkeys(rssis) if r not in rssi_values}
        new_stops = [s for s in dict.fromkeys(stops) if s not in columns.stops]
        anonymized = self.report.anonymized_input
        new_devices = {
            m: _identity(m, anonymized) for m in dict.fromkeys(macs) if m not in devices
        }
        if (
            any(issue for _, issue in new_rssi.values())
            or None in new_devices.values()
            or any(map(_stop_issue, new_stops))
        ):
            return 0
        rssi_values.update((r, rssi) for r, (rssi, _) in new_rssi.items())
        for s in new_stops:
            columns.stop_code(s)
        for m, ident in new_devices.items():
            devices[m] = columns.device_code(*ident)
        columns.stop.extend(map(columns.stops.__getitem__, stops))
        columns.t.frombytes(t.tobytes())
        columns.device.extend(map(devices.__getitem__, macs))
        columns.rssi.extend(map(rssi_values.__getitem__, rssis))
        return len(lines)

    def rows(self, lines: Iterable[str], line_no: int) -> int:
        """Parse ``lines`` with csv.reader a row at a time, recording each
        bad row's issue; ``line_no`` is the line before the first. Returns
        the rows seen."""
        columns, issues = self.columns, self.report.issues
        stop_codes, devices, rssi_values = columns.stops, columns.devices, self.rssi_values
        add_stop, add_t = columns.stop.append, columns.t.append
        add_device, add_rssi = columns.device.append, columns.rssi.append
        rows_total = 0
        for row in csv.reader(lines):
            line_no += 1
            if not row:
                continue
            rows_total += 1
            if len(row) != 4:
                issues.append(ParseIssue(line_no, "wrong field count", ",".join(row)))
                continue
            stop, ts_text, mac_text, rssi_text = row
            try:
                t = epoch_seconds(parse_timestamp(ts_text))
            except ValueError:
                issues.append(ParseIssue(line_no, "bad timestamp", ts_text))
                continue
            rssi = rssi_values.get(rssi_text)
            rssi_issue = None
            if rssi is None:
                rssi, rssi_issue = _rssi(rssi_text)
                if rssi_issue and rssi_issue != _RSSI_SPELLING:
                    issues.append(ParseIssue(line_no, rssi_issue, rssi_text))
                    continue
            d = devices.get(mac_text)
            if d is None:
                ident = _identity(mac_text, self.report.anonymized_input)
                if ident is None:
                    issues.append(ParseIssue(line_no, "bad mac", mac_text))
                    continue
            # Stop code and RSSI spelling are checked last, so that a row
            # that also breaks an earlier rule is counted under that rule.
            s = stop_codes.get(stop)
            if s is None and (stop_issue := _stop_issue(stop)):
                issues.append(ParseIssue(line_no, stop_issue, stop))
                continue
            if rssi_issue:
                issues.append(ParseIssue(line_no, rssi_issue, rssi_text))
                continue
            rssi_values[rssi_text] = rssi
            if s is None:
                s = columns.stop_code(stop)
            if d is None:
                d = devices[mac_text] = columns.device_code(*ident)
            add_stop(s)
            add_t(t)
            add_device(d)
            add_rssi(rssi)
        return rows_total


def parse_frame_csv(source: PathOrStream) -> tuple[FrameColumns, ParseReport]:
    """Parse a frame CSV (optionally gzipped) into columns plus an error report.

    ``source`` is a path or a binary stream; either is read as a stream.
    Header must be exactly ``bus_stop,timestamp_utc,mac,rssi_dbm``; an
    optional leading ``#anonymized=true`` comment marks digest-form input.
    A missing or wrong header is fatal. Malformed rows are collected with
    their line numbers and skipped: a wrong field count, an empty stop code
    or one padded with whitespace, a timestamp that is not exactly
    ``YYYY-MM-DD hh:mm:ss``, an RSSI that is not an integer, lies outside
    [-120, 0] dBm or is not written as ``str(int)`` writes it (no sign,
    space, underscore or leading zero), and a MAC that is neither an
    address nor a 40-hex digest. A row that breaks several rules gets the
    reason of the first in this order: field count, timestamp, RSSI syntax
    and range, MAC, stop code, RSSI spelling.

    The body is read in chunks of whole lines. A chunk whose every line is
    canonical, as write_frame_csv writes it (no quote, CR, NUL or blank
    line, four fields, ASCII timestamps), is converted a column at a time,
    each distinct field text checked once by the same rule functions the
    per-row path calls. From the first chunk that is not, csv.reader
    parses the rest a row at a time; that path alone decides every issue,
    so both give the same result.
    """
    report = ParseReport()
    parser = _FrameParser(report)
    with _open_text(source) as text, decoding(source):
        line_no = _read_header(text, report, source)
        while chunk := text.read(_CHUNK_CHARS):
            if not chunk.endswith("\n"):
                chunk += text.readline()
            rows = parser.canonical_chunk(chunk)
            if not rows:
                # This chunk's lines, then the stream's, a line at a time.
                lines = chain(io.StringIO(chunk, newline=""), text)
                report.rows_total += parser.rows(lines, line_no)
                break
            line_no += rows
            report.rows_total += rows
    report.rows_ok = len(parser.columns.t)
    return parser.columns.build(), report


def format_epoch_seconds(seconds: np.ndarray) -> list[str]:
    """format_timestamp of the UTC time of each epoch second in
    ``seconds``, with no datetime per value."""
    texts = seconds.astype("datetime64[s]").astype("U19")
    # numpy writes ISO 8601's "T" between the date and the time.
    texts.view(np.uint32).reshape(-1, 19)[:, 10] = ord(" ")
    return texts.tolist()


def _digest_ranks(frames: FrameColumns) -> np.ndarray:
    """Per device-table entry, the rank of its digest bytes; equal digests share one."""
    # One 20-byte void item per row sorts as the bytes do; unique's
    # axis=0 sorts a row a column at a time and is several times slower.
    # return_inverse would add a permutation and a gathered copy of the
    # rows, which raised the clean stage's peak RSS by about 0.8 MB.
    rows = np.ascontiguousarray(frames.digests).view("V20").ravel()
    return np.searchsorted(np.unique(rows), rows).astype(np.int32)


def _stop_ranks(frames: FrameColumns) -> np.ndarray:
    """Per stop-table entry, the rank of its name."""
    order = sorted(range(len(frames.stops)), key=frames.stops.__getitem__)
    ranks = np.empty(len(order), dtype=np.int32)
    ranks[order] = np.arange(len(order))
    return ranks


def sorted_frames(frames: FrameColumns) -> FrameColumns:
    """The (stop, device, time) order that frame files are written in: a
    stable sort on stop name, digest and time, sharing the tables."""
    order = np.lexsort((frames.t, _digest_ranks(frames)[frames.device],
                        _stop_ranks(frames)[frames.stop]))
    return replace(frames, stop=frames.stop[order], t=frames.t[order],
                   device=frames.device[order], rssi=frames.rssi[order])


# Rows per block where a step works a block of rows at a time to bound
# its temporaries.
_BLOCK = 1 << 14


def write_frame_csv(
    frames: FrameColumns,
    dest: Union[str, os.PathLike],
    *,
    anonymize_output: bool = False,
) -> None:
    """Serialize frames to the frame CSV format, a block of rows at a time.

    Frames whose raw MAC is unavailable are always written in digest form.
    With ``anonymize_output`` (or any digest-form frame present) the file
    carries the ``#anonymized=true`` flag. Gzip is applied when the path
    ends in ``.gz``, with a fixed mtime so outputs stay byte-deterministic.
    """
    digest_form = anonymize_output or bool((frames.used_macs() < 0).any())
    hexes = frames.digests.tobytes().hex()
    texts = [hexes[40 * i:40 * i + 40] if digest_form or mac < 0 else format_mac(mac)
              for i, mac in enumerate(frames.macs.tolist())]
    stops = frames.stops
    # csv.writer fills one block's text at a time. No TextIOWrapper over
    # the GzipFile: its flush would emit a deflate sync point and change
    # the bytes, which do not otherwise depend on how the writes split.
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    path = os.fspath(dest)
    with contextlib.ExitStack() as stack:
        out: IO[bytes] = stack.enter_context(open(path, "wb"))
        if path.endswith(".gz"):
            # filename="" and mtime=0 keep the gzip header free of anything
            # path- or clock-dependent, so equal frames give equal bytes.
            out = stack.enter_context(gzip.GzipFile(filename="", fileobj=out, mode="wb", mtime=0))
        flag = ANONYMIZED_FLAG + "\n" if digest_form else ""
        out.write(f"{flag}{FRAME_HEADER}\n".encode("utf-8"))
        for at in range(0, len(frames), _BLOCK):
            block = slice(at, at + _BLOCK)
            writer.writerows(zip(
                map(stops.__getitem__, frames.stop[block].tolist()),
                format_epoch_seconds(frames.t[block]),
                map(texts.__getitem__, frames.device[block].tolist()),
                frames.rssi[block].tolist(),
            ))
            out.write(text.getvalue().encode("utf-8"))
            text.seek(0)
            text.truncate()
