"""Raw sensor frame ingestion: MAC semantics, anonymization, CSV parsing.

One captured Wi-Fi frame is a (bus stop, UTC timestamp, device, RSSI) row.
Device identity is a SHA-1 digest of the canonical MAC text; the
randomization bit check happens on the raw address *before* hashing, so
nothing downstream ever needs the original bits.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import io
import os
import re
from dataclasses import dataclass, field
from datetime import datetime
from typing import IO, Iterable, Sequence, Union

from .errors import ParseError

FRAME_HEADER = "bus_stop,timestamp_utc,mac,rssi_dbm"
ANONYMIZED_FLAG = "#anonymized=true"

# Parse-time physical plausibility gate; the cleaning filter applies the
# narrower operational range.
RSSI_PLAUSIBLE_LO = -120
RSSI_PLAUSIBLE_HI = 0

_MAC_RE = re.compile(r"^[0-9A-Fa-f]{2}(:[0-9A-Fa-f]{2}){5}$")
_DIGEST_RE = re.compile(r"^[0-9a-fA-F]{40}$")

PathOrStream = Union[str, os.PathLike, IO[bytes]]


@dataclass(frozen=True, slots=True)
class MacAddress:
    """A 48-bit IEEE 802 MAC address."""

    octets: bytes

    def __post_init__(self):
        if len(self.octets) != 6:
            raise ValueError(f"MAC address needs 6 octets, got {len(self.octets)}")

    @classmethod
    def from_text(cls, text: str) -> "MacAddress":
        if not _MAC_RE.match(text):
            raise ValueError(f"not a MAC address: {text!r}")
        return cls(bytes(int(part, 16) for part in text.split(":")))

    def canonical(self) -> str:
        """Uppercase colon-separated form, always 17 characters."""
        return ":".join(f"{b:02X}" for b in self.octets)

    @property
    def is_group(self) -> bool:
        """I/G bit (bit 0 of octet 0): multicast/group address."""
        return bool(self.octets[0] & 0x01)

    @property
    def is_locally_administered(self) -> bool:
        """U/L bit (bit 1 of octet 0): not a globally unique address."""
        return bool(self.octets[0] & 0x02)

    def __str__(self) -> str:
        return self.canonical()


def is_randomized(mac: MacAddress) -> bool:
    """True when the address cannot identify a stable device.

    Locally administered addresses are what MAC randomization emits, and
    group addresses never name a single device; both are treated as noise.
    Depends only on octet 0.
    """
    return bool(mac.octets[0] & 0x03)


@dataclass(frozen=True, slots=True)
class DeviceId:
    """SHA-1 digest of a canonical MAC text; the anonymous device identity."""

    digest: bytes

    def __post_init__(self):
        if len(self.digest) != 20:
            raise ValueError("device digest must be 20 bytes")

    @classmethod
    def from_hex(cls, text: str) -> "DeviceId":
        if not _DIGEST_RE.match(text):
            raise ValueError(f"not a 40-char hex digest: {text!r}")
        return cls(bytes.fromhex(text))

    @property
    def hex(self) -> str:
        return self.digest.hex()

    def __str__(self) -> str:
        return self.hex


def anonymize(mac: MacAddress) -> DeviceId:
    """SHA-1 over the canonical 17-char text form (unsalted, stable everywhere)."""
    return DeviceId(hashlib.sha1(mac.canonical().encode("ascii")).digest())


@dataclass(frozen=True, slots=True)
class FrameRecord:
    """One captured frame observation.

    ``mac`` is carried only when the input held a raw address; files that
    arrive pre-anonymized leave it None, which disables the randomization
    filter downstream.
    """

    stop: str
    at: datetime
    device: DeviceId
    rssi: int
    mac: MacAddress | None = None

    def sort_key(self):
        return (self.stop, self.device.digest, self.at)


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


def _open_maybe_gzip(source: PathOrStream) -> IO[bytes]:
    if hasattr(source, "read"):
        raw: IO[bytes] = source  # type: ignore[assignment]
    else:
        raw = open(source, "rb")
    head = raw.read(2)
    rest = raw.read()
    buf = io.BytesIO(head + rest)
    if raw is not source:
        raw.close()
    if head == b"\x1f\x8b":
        return gzip.GzipFile(fileobj=buf, mode="rb")  # type: ignore[return-value]
    return buf


def _parse_timestamp(text: str) -> datetime:
    # Exactly `YYYY-MM-DD hh:mm:ss`, UTC. fromisoformat is much faster than
    # strptime but accepts more shapes, so pin the separators first.
    if (
        len(text) != 19
        or text[4] != "-"
        or text[7] != "-"
        or text[10] != " "
        or text[13] != ":"
        or text[16] != ":"
    ):
        raise ValueError(f"bad timestamp: {text!r}")
    return datetime.fromisoformat(text)


def parse_frame_csv(source: PathOrStream) -> tuple[list[FrameRecord], ParseReport]:
    """Parse a frame CSV (optionally gzipped) into records plus an error report.

    Header must be exactly ``bus_stop,timestamp_utc,mac,rssi_dbm``; an
    optional leading ``#anonymized=true`` comment marks digest-form input.
    Malformed rows are collected with their line numbers and skipped; a
    missing or wrong header is fatal.
    """
    stream = _open_maybe_gzip(source)
    text = io.TextIOWrapper(stream, encoding="utf-8", newline="")

    report = ParseReport()
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
    if header is None or header != FRAME_HEADER:
        raise ParseError(
            f"frame CSV must start with header {FRAME_HEADER!r}, got {header!r}"
        )

    records: list[FrameRecord] = []
    ident_cache: dict[str, tuple[DeviceId, MacAddress | None]] = {}
    append = records.append

    for row in csv.reader(text):
        line_no += 1
        if not row:
            continue
        report.rows_total += 1
        if len(row) != 4:
            report.issues.append(ParseIssue(line_no, "wrong field count", ",".join(row)))
            continue
        stop, ts_text, mac_text, rssi_text = row
        try:
            at = _parse_timestamp(ts_text)
        except ValueError:
            report.issues.append(ParseIssue(line_no, "bad timestamp", ts_text))
            continue
        try:
            rssi = int(rssi_text)
        except ValueError:
            report.issues.append(ParseIssue(line_no, "bad rssi", rssi_text))
            continue
        if not RSSI_PLAUSIBLE_LO <= rssi <= RSSI_PLAUSIBLE_HI:
            report.issues.append(ParseIssue(line_no, "rssi out of plausible range", rssi_text))
            continue

        cached = ident_cache.get(mac_text)
        if cached is None:
            if len(mac_text) == 17 and not report.anonymized_input:
                try:
                    mac = MacAddress.from_text(mac_text)
                except ValueError:
                    report.issues.append(ParseIssue(line_no, "bad mac", mac_text))
                    continue
                cached = (anonymize(mac), mac)
            elif _DIGEST_RE.match(mac_text):
                cached = (DeviceId.from_hex(mac_text.lower()), None)
            else:
                report.issues.append(ParseIssue(line_no, "bad mac", mac_text))
                continue
            ident_cache[mac_text] = cached

        append(FrameRecord(stop=stop, at=at, device=cached[0], rssi=rssi, mac=cached[1]))
        report.rows_ok += 1

    return records, report


def format_timestamp(at: datetime) -> str:
    return at.isoformat(" ", "seconds")


def write_frame_csv(
    records: Iterable[FrameRecord],
    dest: Union[str, os.PathLike],
    *,
    anonymize_output: bool = False,
) -> None:
    """Serialize records back to the frame CSV format.

    Records whose raw MAC is unavailable are always written in digest form.
    With ``anonymize_output`` (or any digest-form record present) the file
    carries the ``#anonymized=true`` flag. Gzip is applied when the path
    ends in ``.gz``, with a fixed mtime so outputs stay byte-deterministic.
    """
    records = list(records)
    digest_form = anonymize_output or any(r.mac is None for r in records)

    buf = io.StringIO()
    if digest_form:
        buf.write(ANONYMIZED_FLAG + "\n")
    buf.write(FRAME_HEADER + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    for r in records:
        ident = r.device.hex if digest_form or r.mac is None else r.mac.canonical()
        writer.writerow((r.stop, format_timestamp(r.at), ident, r.rssi))

    data = buf.getvalue().encode("utf-8")
    path = os.fspath(dest)
    if path.endswith(".gz"):
        # filename="" and mtime=0 keep the gzip header free of anything
        # path- or clock-dependent, so equal records give equal bytes.
        with open(path, "wb") as fh:
            with gzip.GzipFile(filename="", fileobj=fh, mode="wb", mtime=0) as gz:
                gz.write(data)
    else:
        with open(path, "wb") as fh:
            fh.write(data)


def sorted_frames(frames: Sequence[FrameRecord]) -> list[FrameRecord]:
    """The mandated (stop, device, time) order used before segmentation."""
    return sorted(frames, key=FrameRecord.sort_key)
