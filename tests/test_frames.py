"""Frame ingestion: MAC parsing, randomization detection, anonymization,
and the CSV round-trip."""

from __future__ import annotations

import csv
import gzip
import hashlib
import io
import re
import struct
import tracemalloc
from dataclasses import replace
from datetime import datetime
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import busflux.frames as frames_module
from busflux.errors import ParseError
from busflux.frames import (
    ANONYMIZED_FLAG,
    FRAME_HEADER,
    DeviceId,
    FrameColumns,
    FrameRecord,
    _digest_ranks,
    _epoch_seconds_of,
    anonymize,
    device_ids,
    format_epoch_seconds,
    format_mac,
    is_randomized,
    parse_frame_csv,
    parse_mac,
    sorted_frames,
    write_frame_csv,
)
from busflux.schema import epoch_seconds, format_timestamp, parse_timestamp
from busflux.synth import default_scenario, generate
from conftest import digest_rows, frame, mac

# ── MAC parsing and canonical form ──────────────────────────────────────────


def test_mac_parses_either_case():
    for text in ("aa:bb:cc:dd:ee:ff", "AA:BB:CC:DD:EE:FF", "Aa:bB:cC:Dd:Ee:fF"):
        assert parse_mac(text) == 0xAABBCCDDEEFF
        assert format_mac(parse_mac(text)) == "AA:BB:CC:DD:EE:FF"


def test_mac_rejects_bad_text():
    for text in ("", "aa:bb:cc:dd:ee", "aa:bb:cc:dd:ee:ff:00", "zz:bb:cc:dd:ee:ff", "aa bb cc dd ee ff"):
        with pytest.raises(ValueError):
            parse_mac(text)


@pytest.mark.parametrize("text", ["00:B8:00:00:00:01\n", "ab" * 20 + "\n"])
def test_mac_and_digest_reject_a_trailing_newline(text):
    with pytest.raises(ValueError):
        parse_mac(text)
    with pytest.raises(ValueError):
        DeviceId.from_hex(text)


def test_mac_canonical_is_uppercase_colon_form():
    assert format_mac(mac("0a:1b:2c:3d:4e:5f")) == "0A:1B:2C:3D:4E:5F"
    assert format_mac(0) == "00:00:00:00:00:00"
    assert format_mac(2**48 - 1) == "FF:FF:FF:FF:FF:FF"


# ── Randomization detection ──────────────────────────────────────────────────


def test_locally_administered_bit_flags_randomized():
    assert is_randomized(mac("02:00:00:00:00:01"))  # U/L set
    assert not is_randomized(mac("00:B8:00:00:00:01"))


def test_group_bit_alone_flags_randomized():
    assert is_randomized(mac("01:00:00:00:00:01"))  # I/G set


def test_first_octet_truth_table():
    # Detection depends only on the two low bits of the first octet, for one
    # address and for the device table's vector, where -1 means no address.
    macs = []
    for head in range(256):
        m = head << 40 | 1
        assert is_randomized(m) == bool(head & 0x03)
        assert is_randomized(m | (2**40 - 1)) == bool(head & 0x03)
        macs += [m, m | (2**40 - 1)]
    table = _table([bytes(20)] * (len(macs) + 1), macs + [-1])
    assert table.randomized.tolist() == [is_randomized(m) for m in macs] + [False]


# ── Anonymization ────────────────────────────────────────────────────────────


def _sha1_reference(message: bytes) -> bytes:
    """Minimal SHA-1, straight from the FIPS 180 description, so the digest
    check does not share code with the implementation under test."""
    h = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0]
    ml = len(message) * 8
    message += b"\x80"
    message += b"\x00" * ((56 - len(message) % 64) % 64)
    message += struct.pack(">Q", ml)

    def rol(x, n):
        return ((x << n) | (x >> (32 - n))) & 0xFFFFFFFF

    for chunk_at in range(0, len(message), 64):
        w = list(struct.unpack(">16I", message[chunk_at : chunk_at + 64]))
        for i in range(16, 80):
            w.append(rol(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1))
        a, b, c, d, e = h
        for i in range(80):
            if i < 20:
                f, k = (b & c) | (~b & d), 0x5A827999
            elif i < 40:
                f, k = b ^ c ^ d, 0x6ED9EBA1
            elif i < 60:
                f, k = (b & c) | (b & d) | (c & d), 0x8F1BBCDC
            else:
                f, k = b ^ c ^ d, 0xCA62C1D6
            a, b, c, d, e = (rol(a, 5) + f + e + k + w[i]) & 0xFFFFFFFF, a, rol(b, 30), c, d
        h = [(x + y) & 0xFFFFFFFF for x, y in zip(h, (a, b, c, d, e))]
    return struct.pack(">5I", *h)


def test_anonymize_is_sha1_of_canonical_text():
    m = mac("aa:bb:cc:dd:ee:ff")
    expected = _sha1_reference(b"AA:BB:CC:DD:EE:FF")
    assert anonymize(m).digest == expected


def test_anonymize_all_zero_address_matches_reference():
    m = mac("00:00:00:00:00:00")
    assert anonymize(m).digest == _sha1_reference(b"00:00:00:00:00:00")


def test_anonymize_ignores_input_case():
    digests = {
        anonymize(mac(t)).digest
        for t in ("aa:bb:cc:dd:ee:ff", "AA:BB:CC:DD:EE:FF", "aA:Bb:Cc:dD:Ee:Ff")
    }
    assert len(digests) == 1


def test_anonymize_is_injective_on_distinct_macs():
    seen = set()
    for i in range(10_000):
        m = i
        seen.add(anonymize(m).digest)
    assert len(seen) == 10_000


@given(st.binary(min_size=6, max_size=6))
def test_anonymize_matches_reference_sha1(octets):
    m = int.from_bytes(octets, "big")
    text = ":".join(f"{b:02X}" for b in octets)
    assert anonymize(m).digest == _sha1_reference(text.encode("ascii"))


def test_device_id_hex_round_trip():
    d = anonymize(mac("aa:bb:cc:dd:ee:ff"))
    assert DeviceId.from_hex(d.hex) == d
    assert len(d.hex) == 40


@settings(max_examples=200)
@given(st.lists(st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59)),
                max_size=5))
def test_epoch_seconds_format_like_their_datetimes(times):
    times = [at.replace(microsecond=0) for at in times]
    seconds = np.array([epoch_seconds(at) for at in times], dtype=np.int64)
    assert format_epoch_seconds(seconds) == [format_timestamp(at) for at in times]


# ── CSV round-trip ───────────────────────────────────────────────────────────


cols = FrameColumns.from_records


def _sample_frames():
    return list(sorted_frames(cols([
        frame("stop-02", datetime(2017, 4, 5, 8, 0, 5), "00:B8:00:00:00:02", -55),
        frame("stop-01", datetime(2017, 4, 5, 8, 0, 0), "00:B8:00:00:00:01", -60),
        frame("stop-01", datetime(2017, 4, 5, 8, 1, 0), "02:00:00:00:00:03", -70),
    ])))


def test_frame_csv_round_trip(tmp_path):
    path = tmp_path / "frames.csv"
    records = _sample_frames()
    write_frame_csv(cols(records), path)
    back, report = parse_frame_csv(path)
    assert list(back) == records
    assert report.rows_total == report.rows_ok == 3
    assert not report.anonymized_input


def test_frame_csv_round_trips_a_stop_name_holding_a_comma(tmp_path):
    path = tmp_path / "frames.csv"
    records = [frame("Stop A,North", datetime(2017, 4, 5, 8, 0, 0), "00:B8:00:00:00:01", -60)]
    write_frame_csv(cols(records), path)
    back, report = parse_frame_csv(path)
    assert list(back) == records
    assert report.rows_total == report.rows_ok == 1


def test_frame_csv_gzip_round_trip_and_fixed_mtime(tmp_path):
    a, b = tmp_path / "a.csv.gz", tmp_path / "b.csv.gz"
    records = _sample_frames()
    write_frame_csv(cols(records), a)
    write_frame_csv(cols(records), b)
    assert a.read_bytes() == b.read_bytes()  # no timestamp in the gzip header
    back, _ = parse_frame_csv(a)
    assert list(back) == records


def test_anonymized_output_drops_raw_macs(tmp_path):
    path = tmp_path / "anon.csv"
    write_frame_csv(cols(_sample_frames()), path, anonymize_output=True)
    text = path.read_text()
    assert "00:B8" not in text and "02:00" not in text
    back, report = parse_frame_csv(path)
    assert report.anonymized_input
    assert all(f.mac is None for f in back)
    assert [f.device for f in back] == [f.device for f in _sample_frames()]


def test_anonymized_frames_still_round_trip(tmp_path):
    path = tmp_path / "anon2.csv"
    write_frame_csv(cols(_sample_frames()), path, anonymize_output=True)
    back, _ = parse_frame_csv(path)
    write_frame_csv(back, tmp_path / "again.csv")
    again, report = parse_frame_csv(tmp_path / "again.csv")
    assert again == back
    assert report.anonymized_input


def test_parse_collects_bad_rows_instead_of_failing(tmp_path):
    path = tmp_path / "dirty.csv"
    good = _sample_frames()
    write_frame_csv(cols(good), path)
    with open(path, "a") as fh:
        fh.write("stop-01,not-a-time,00:B8:00:00:00:09,-60\n")
        fh.write("stop-01,2017-04-05 08:00:00,xx,-60\n")
        fh.write("stop-01,2017-04-05 08:00:00,00:B8:00:00:00:09,loud\n")
        fh.write("stop-01,2017-04-05 08:00:00,00:B8:00:00:00:09,+5\n")
    back, report = parse_frame_csv(path)
    assert len(back) == 3
    assert report.rows_total == 7 and report.rows_ok == 3 and report.rows_bad == 4
    reasons = [i.reason for i in report.issues]
    assert reasons == [
        "bad timestamp",
        "bad mac",
        "bad rssi",
        "rssi out of plausible range",
    ]
    assert [i.line for i in report.issues] == [5, 6, 7, 8]


@pytest.mark.parametrize("anonymized", [False, True])
def test_a_quoted_mac_field_with_a_trailing_newline_is_a_bad_mac(tmp_path, anonymized):
    digest = "ab" * 20
    flag = ANONYMIZED_FLAG + "\n" if anonymized else ""
    path = tmp_path / "frames.csv"
    path.write_text(f'{flag}{FRAME_HEADER}\nstop-01,2017-04-05 08:00:00,"{digest}\n",-60\n')
    back, report = parse_frame_csv(path)
    assert (len(back), report.rows_total, report.rows_ok) == (0, 1, 0)
    assert [(i.reason, i.raw) for i in report.issues] == [("bad mac", digest + "\n")]


@pytest.mark.parametrize("text", ["", "a,b\n1,2\n", f"{ANONYMIZED_FLAG}\na,b\n"],
                         ids=["empty", "wrong", "flag then wrong"])
def test_a_wrong_header_names_the_file_or_the_stream(tmp_path, text):
    path = tmp_path / "frames.csv"
    path.write_text(text)
    message = "frame CSV must start with header "
    with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: {message}')}"):
        parse_frame_csv(path)
    with pytest.raises(ParseError, match=f"^input stream: {message}"):
        parse_frame_csv(_Unseekable(text.encode()))


def test_sorted_frames_groups_by_stop_then_device_then_time():
    records = list(reversed(_sample_frames()))
    # A tie on (stop, device, time) keeps its input order, a device's raw
    # and digest forms sort as one device, and stops sort by name, not by
    # when they were first seen.
    records += [
        replace(records[0], rssi=-41),
        replace(records[1], mac=None),
        frame("stop-00", datetime(2017, 4, 5, 9, 0, 0), "00:B8:00:00:00:04", -50),
    ]
    ordered = list(sorted_frames(cols(records)))
    assert ordered == sorted(records, key=lambda f: (f.stop, f.device.digest, f.at))
    # within one (stop, device) run the times are ascending
    for a, b in zip(ordered, ordered[1:]):
        if (a.stop, a.device) == (b.stop, b.device):
            assert a.at <= b.at


def test_timestamp_format_is_space_separated_utc(tmp_path):
    path = tmp_path / "ts.csv"
    write_frame_csv(cols([frame(at=datetime(2017, 4, 5, 8, 0, 0))]), path)
    body = path.read_text().splitlines()[1]
    assert body.split(",")[1] == "2017-04-05 08:00:00"
    back, _ = parse_frame_csv(path)
    assert next(iter(back)).at == datetime(2017, 4, 5, 8, 0, 0)


# The digest-form gzipped frame file of the scenario bench/test_bench.py
# uses, taken while the generator still built one record per frame.
SCENARIO_GZ_SHA256 = "c61c9835f445aee82e865a2f23b3f075ed9e19a52858dc92a1661415760150fb"


def test_generated_digest_form_gzip_matches_pinned_digest(tmp_path):
    frames, _, _ = generate(default_scenario(seed=4, days=2))
    path = tmp_path / "x.csv.gz"
    write_frame_csv(sorted_frames(frames), path, anonymize_output=True)
    assert len(frames) == 8588
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SCENARIO_GZ_SHA256


@pytest.mark.parametrize("name", ["frames.csv", "frames.csv.gz"])
def test_frame_file_bytes_do_not_depend_on_the_write_block(tmp_path, monkeypatch, name):
    frames, _, _ = generate(replace(default_scenario(seed=4), days=1))
    ordered = sorted_frames(frames)
    write_frame_csv(ordered, tmp_path / name)
    monkeypatch.setattr(frames_module, "_BLOCK", 7)
    write_frame_csv(ordered, tmp_path / f"small-{name}")
    assert (tmp_path / name).read_bytes() == (tmp_path / f"small-{name}").read_bytes()


@pytest.mark.parametrize("name, anonymized, data", [
    ("e.csv", False, b"bus_stop,timestamp_utc,mac,rssi_dbm\n"),
    ("e.csv", True, b"#anonymized=true\nbus_stop,timestamp_utc,mac,rssi_dbm\n"),
    ("e.csv.gz", False,
     b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x02\xffK*-\x8e/.\xc9/\xd0)\xc9\xccM-.I\xcc-\x88/-I"
     b"\xd6\xc9ML\xd6)*.\xce\x8cOI\xca\xe5\x02\x00\x07\x7fx\x81$\x00\x00\x00"),
    ("e.csv.gz", True,
     b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x02\xffSN\xcc\xcb\xcf\xab\xcc\xcd\xacJM\xb1-)*M\xe5J*-"
     b"\x8e/.\xc9/\xd0)\xc9\xccM-.I\xcc-\x88/-I\xd6\xc9ML\xd6)*.\xce\x8cOI\xca\xe5\x02\x00"
     b"\xce3\xbe\x925\x00\x00\x00"),
])
def test_a_scenario_without_demand_writes_a_header_only_file(tmp_path, name, anonymized, data):
    scenario = default_scenario(seed=4, days=2)
    frames, _, truth = generate(replace(scenario, demand=replace(scenario.demand, base_rate=0)))
    assert len(frames) == 0 and truth.signal_frames == 0
    path = tmp_path / name
    write_frame_csv(sorted_frames(frames), path, anonymize_output=anonymized)
    assert path.read_bytes() == data
    back, report = parse_frame_csv(path)
    assert len(back) == report.rows_total == 0
    assert report.anonymized_input == anonymized


@given(st.datetimes(min_value=datetime(1970, 1, 1), max_value=datetime(2242, 12, 31)))
def test_format_timestamp_equals_the_strftime_form(at):
    assert format_timestamp(at) == at.strftime("%Y-%m-%d %H:%M:%S")


# ── Strict fields at the parse boundary ──────────────────────────────────────


_AT = "2017-04-05 08:02:00"
_MAC = "00:B8:00:00:00:09"


@pytest.mark.parametrize(
    "row, reason",
    [
        (f",{_AT},{_MAC},-58", "empty stop code"),
        (f" stop-09 ,{_AT},{_MAC},-58", "stop code padded with whitespace"),
        (f"stop-09,{_AT},{_MAC}, -58", "non-canonical rssi"),
        (f"stop-09,{_AT},{_MAC},-5_8", "non-canonical rssi"),
        (f"stop-09,{_AT},{_MAC},+0", "non-canonical rssi"),
        # A row that also fails an older check keeps the older reason.
        (f" s ,garbage,{_MAC},-58", "bad timestamp"),
        (f",{_AT},{_MAC},x", "bad rssi"),
        (f" s ,{_AT},{_MAC},+5", "rssi out of plausible range"),
        (f",{_AT},xx,+0", "bad mac"),
        (f" s ,{_AT},{_MAC},+0", "stop code padded with whitespace"),
    ],
)
def test_parse_rejects_fields_that_only_look_valid(tmp_path, row, reason):
    path = tmp_path / "frames.csv"
    write_frame_csv(cols(_sample_frames()), path)
    with open(path, "a") as fh:
        fh.write("\n")  # a blank line counts as a line, not as a row
        fh.write(row + "\n")
    back, report = parse_frame_csv(path)
    assert list(back) == _sample_frames()
    # a rejected row adds nothing to the stop or device tables
    assert back.stops == ("stop-01", "stop-02") and len(back.digests) == 3
    assert report.rows_total == 4
    assert [(i.line, i.reason) for i in report.issues] == [(6, reason)]
    assert report.issues_by_reason() == {reason: 1}


def test_issues_by_reason_counts_every_bad_row(tmp_path):
    path = tmp_path / "dirty.csv"
    write_frame_csv(cols(_sample_frames()), path)
    with open(path, "a") as fh:
        fh.write("stop-01,2017-04-05 08:00:00,xx,-60\n")
        fh.write("stop-01,2017-04-05 08:00:00,yy,-60\n")
        fh.write("stop-01,2017-04-05 08:00:00,00:B8:00:00:00:09,-60,extra\n")
    _, report = parse_frame_csv(path)
    assert report.issues_by_reason() == {"bad mac": 2, "wrong field count": 1}


# ── Columns and records ──────────────────────────────────────────────────────


def test_columns_round_trip_through_records(tmp_path):
    path = tmp_path / "frames.csv"
    records = _sample_frames() + [replace(_sample_frames()[0], mac=None)]
    write_frame_csv(cols(records), path)  # a digest-form record makes the file digest-form
    columns, _ = parse_frame_csv(path)
    assert FrameColumns.from_records(columns) == columns
    mixed = FrameColumns.from_records(records)
    assert list(mixed) == records
    assert FrameColumns.from_records(list(mixed)) == mixed
    # a raw-MAC record and a digest-form record of one device are two entries
    assert len(mixed.digests) == 4 and len(set(device_ids(mixed.digests))) == 3
    assert sorted(zip(mixed.macs.tolist(), mixed.randomized.tolist())) == [
        (-1, False),
        (0x00B8_0000_0001, False),
        (0x00B8_0000_0002, False),
        (0x0200_0000_0003, True),
    ]


def test_one_device_dict_keys_each_entry_by_its_canonical_text():
    digest = anonymize(0x00B8_0000_0001).hex
    spellings = ["00:B8:00:00:00:01", "00:b8:00:00:00:01", "00:B8:00:00:00:02", digest.upper(),
                 digest]
    chunk = "".join(f"stop-01,2017-04-05 08:00:0{i},{m},-60\n" for i, m in enumerate(spellings))
    parser = frames_module._FrameParser(frames_module.ParseReport())
    assert parser.canonical_chunk(chunk) == 5
    # Each entry sits under its canonical text; another spelling points to it.
    assert parser.columns.devices == {"00:B8:00:00:00:01": 0, "00:b8:00:00:00:01": 0,
                                      "00:B8:00:00:00:02": 1, digest: 2, digest.upper(): 2}
    columns = parser.columns.build()
    assert columns.device.tolist() == [0, 0, 1, 2, 2]
    assert columns.macs.tolist() == [0x00B8_0000_0001, 0x00B8_0000_0002, -1]
    assert columns.digests[0].tobytes() == columns.digests[2].tobytes() == bytes.fromhex(digest)


def test_parse_transient_traced_memory_stays_under_its_bound(tmp_path):
    # numpy reports its buffers to tracemalloc. On this digest-form file
    # (55,567 frames, 3,457 devices) the parse's peak above what it keeps
    # was 1.16 MB with a dict from MAC text to entry beside one from digest
    # and MAC to entry, and 0.80 MB with the one dict keyed by MAC text.
    frames, _, _ = generate(replace(default_scenario(seed=13), days=16))
    path = tmp_path / "frames.csv"
    write_frame_csv(sorted_frames(frames), path, anonymize_output=True)
    del frames
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        columns, report = parse_frame_csv(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.rows_ok == len(columns) == 55_567 and len(columns.macs) == 3_457
    assert kept > before
    assert peak - kept < 980_000


def test_columns_have_the_documented_dtypes(tmp_path):
    path = tmp_path / "frames.csv"
    write_frame_csv(cols(_sample_frames()), path)
    columns, _ = parse_frame_csv(path)
    assert [a.dtype for a in (columns.stop, columns.t, columns.device, columns.rssi)] == [
        np.int32, np.int64, np.int32, np.int16]
    assert columns.stops == ("stop-01", "stop-02")
    assert columns.t.tolist() == [epoch_seconds(f.at) for f in _sample_frames()]


def test_iterated_frames_carry_a_device_id_and_an_int_or_no_mac(tmp_path):
    # What callers that walk frames read: f.device.hex, {f.device for f in
    # frames} and is_randomized(f.mac).
    records = _sample_frames() + [replace(_sample_frames()[0], mac=None)]
    path = tmp_path / "frames.csv"
    write_frame_csv(cols(_sample_frames()), path)
    for columns in (cols(records), parse_frame_csv(path)[0]):
        got = list(columns)
        assert all(type(f) is FrameRecord and type(f.device) is DeviceId for f in got)
        assert all(type(f.mac) is int or f.mac is None for f in got)
        assert [len(f.device.hex) for f in got] == [40] * len(got)
        assert {f.device for f in got} == {f.device for f in _sample_frames()}
    assert [type(f.mac) for f in cols(records)] == [int, int, int, type(None)]
    assert {format_mac(f.mac): is_randomized(f.mac) for f in cols(_sample_frames())} == {
        "00:B8:00:00:00:01": False, "00:B8:00:00:00:02": False, "02:00:00:00:00:03": True}


def _table(digests, macs):
    """FrameColumns with a device table and no frames."""
    none = np.zeros(0, dtype=np.int32)
    return FrameColumns(
        stops=(), digests=digest_rows(digests),
        macs=np.array(macs, dtype=np.int64), stop=none, t=np.zeros(0, dtype=np.int64),
        device=none, rssi=np.zeros(0, dtype=np.int16))


def _ranks_by_bytes(digests):
    order = sorted(set(digests))
    return [order.index(d) for d in digests]


_nul_edged = st.binary(max_size=19).flatmap(
    lambda b: st.sampled_from([b.ljust(20, b"\0"), b.rjust(20, b"\0")]))


@given(st.lists(st.binary(min_size=20, max_size=20) | _nul_edged, max_size=40))
def test_digest_ranks_follow_the_digest_bytes(digests):
    ranks = _digest_ranks(_table(digests, [-1] * len(digests)))
    assert ranks.dtype == np.int32
    assert ranks.tolist() == _ranks_by_bytes(digests)


def test_digest_ranks_follow_the_digest_bytes_on_many_random_rows():
    rng = np.random.default_rng(5)
    rows = rng.integers(0, 256, size=(3000, 20), dtype=np.uint8)
    rows[:500, -3:] = 0  # NUL-padded ends, which S20 items would drop
    rows[500:1000, :3] = 0
    rows[1000:1500] = rows[rng.integers(0, 1000, 500)]  # repeated digests
    digests = [row.tobytes() for row in rows]
    assert _digest_ranks(_table(digests, [-1] * 3000)).tolist() == _ranks_by_bytes(digests)


@pytest.mark.parametrize("corrupt", ["cut short", "bad deflate block", "bad crc", "not utf-8",
                                     "gzipped, not utf-8"])
def test_undecodable_input_is_a_parse_error_naming_it(tmp_path, corrupt):
    path = tmp_path / "frames.csv"
    write_frame_csv(cols(_sample_frames() * 200), path)
    data = path.read_bytes()
    packed = gzip.compress(data, mtime=0)  # a 10-byte header, then deflate
    data = {
        "cut short": packed[: len(packed) // 2],
        # block type 3 is reserved: zlib rejects the stream
        "bad deflate block": packed[:10] + b"\xff" + packed[11:],
        "bad crc": packed[:-8] + bytes([packed[-8] ^ 1]) + packed[-7:],
        "not utf-8": data + b"\xff",
        "gzipped, not utf-8": gzip.compress(data + b"\xff", mtime=0),
    }[corrupt]
    path.write_bytes(data)
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: cannot decode: "):
        parse_frame_csv(path)
    with pytest.raises(ParseError, match="^input stream: cannot decode: "):
        parse_frame_csv(_Unseekable(data))


def test_from_records_rejects_fractional_seconds():
    with pytest.raises(ValueError):
        FrameColumns.from_records([frame(at=datetime(2017, 4, 5, 8, 0, 0, 500))])


class _Unseekable(io.RawIOBase):
    """A read-only byte stream that can neither seek nor peek, and returns
    at most ``most`` bytes a read, as a pipe may."""

    def __init__(self, data: bytes, most: int | None = None):
        self._data = io.BytesIO(data)
        self._most = most

    def readable(self):
        return True

    def readinto(self, buffer):
        return self._data.readinto(memoryview(buffer)[: self._most])


@pytest.mark.parametrize("name", ["frames.csv", "frames.csv.gz"])
def test_paths_and_unseekable_streams_parse_alike(tmp_path, name):
    path = tmp_path / name
    records = _sample_frames() * 2
    write_frame_csv(cols(records), path)
    expected, expected_report = parse_frame_csv(tmp_path / name)
    assert list(expected) == records
    data = path.read_bytes()
    assert data.startswith(b"\x1f\x8b") == name.endswith(".gz")
    for stream in (
        _Unseekable(data),
        _Unseekable(data, most=1),
        io.BufferedReader(_Unseekable(data)),
        io.BufferedReader(_Unseekable(data, most=1)),  # peek(2) would give 1 byte
    ):
        assert not stream.seekable()
        back, report = parse_frame_csv(stream)
        assert back == expected and report == expected_report
        assert not stream.closed  # a caller's stream stays open


# ── Chunked canonical parse against the record-at-a-time reference ─────────


def _reference_timestamp(text):
    if len(text) != 19 or text[4] + text[7] + text[10] + text[13] + text[16] != "-- ::":
        return None
    try:
        return epoch_seconds(datetime.fromisoformat(text))
    except ValueError:
        return None


def reference_parse(data: bytes):
    """The csv.reader loop that the chunked parse must equal: one record at
    a time, every check in the documented order, tables in first-seen order
    of accepted rows. Returns the table and column lists and the report."""
    if data.startswith(b"\x1f\x8b"):
        data = gzip.decompress(data)
    lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
    anonymized, line_no = False, 0
    for line in lines:
        line_no += 1
        line = line.rstrip("\r\n")
        if line.startswith("#"):
            anonymized = anonymized or line.strip().lower() == "#anonymized=true"
            continue
        assert line == "bus_stop,timestamp_utc,mac,rssi_dbm"
        break
    stops, idents, rows, issues, rows_total = {}, {}, [], [], 0
    for row in csv.reader(lines):
        line_no += 1
        if not row:
            continue
        rows_total += 1
        if len(row) != 4:
            issues.append((line_no, "wrong field count", ",".join(row)))
            continue
        stop, ts, mac_text, rssi_text = row
        t = _reference_timestamp(ts)
        if t is None:
            issues.append((line_no, "bad timestamp", ts))
            continue
        try:
            rssi = int(rssi_text)
        except ValueError:
            issues.append((line_no, "bad rssi", rssi_text))
            continue
        if not -120 <= rssi <= 0:
            issues.append((line_no, "rssi out of plausible range", rssi_text))
            continue
        if len(mac_text) == 17 and not anonymized:
            try:
                ident = (anonymize(parse_mac(mac_text)).digest, parse_mac(mac_text))
            except ValueError:
                ident = None
        elif re.match(r"^[0-9a-fA-F]{40}$", mac_text):
            ident = (bytes.fromhex(mac_text), -1)
        else:
            ident = None
        if ident is None:
            issues.append((line_no, "bad mac", mac_text))
            continue
        if not stop:
            issues.append((line_no, "empty stop code", stop))
            continue
        if stop != stop.strip():
            issues.append((line_no, "stop code padded with whitespace", stop))
            continue
        if str(rssi) != rssi_text:
            issues.append((line_no, "non-canonical rssi", rssi_text))
            continue
        rows.append((stops.setdefault(stop, len(stops)), t,
                     idents.setdefault(ident, len(idents)), rssi))
    tables = (tuple(stops), tuple(d for d, _ in idents), tuple(m for _, m in idents))
    return tables, rows, (rows_total, len(rows), anonymized, issues)


def _as_reference(columns, report):
    tables = (columns.stops, tuple(d.digest for d in device_ids(columns.digests)),
              tuple(columns.macs.tolist()))
    rows = list(zip(columns.stop.tolist(), columns.t.tolist(), columns.device.tolist(),
                    columns.rssi.tolist()))
    issues = [(i.line, i.reason, i.raw) for i in report.issues]
    assert columns.randomized.tolist() == [m >= 0 and is_randomized(m) for m in columns.macs.tolist()]
    assert columns.digests.dtype == np.uint8 and columns.digests.shape == (len(columns.macs), 20)
    assert [a.dtype for a in (columns.stop, columns.t, columns.device, columns.rssi)] == [
        np.int32, np.int64, np.int32, np.int16]
    return tables, rows, (report.rows_total, report.rows_ok, report.anonymized_input, issues)


_MACS = ["00:B8:00:00:00:01", "00:b8:00:00:00:01", "02:00:00:00:00:03", "01:1A:2B:3C:4D:5E"]
_DIGESTS = [anonymize(mac(m)).hex for m in _MACS[1:]] + ["ABCDEF0123456789abcdef0123456789ABCDEF01"]
_CANONICAL_STOPS = ["stop-01", "stop-02", "Stop B", "Haltestelle Süd", "-58"]

_stamps = st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31)).map(
    format_timestamp)


def _canonical(identities):
    return st.tuples(
        st.sampled_from(_CANONICAL_STOPS), _stamps, st.sampled_from(identities),
        st.integers(-120, 0).map(str),
    ).map(",".join)


_MALFORMED_ROWS = [
    # each class of test_parse_rejects_fields_that_only_look_valid
    f",{_AT},{_MAC},-58",
    f" stop-09 ,{_AT},{_MAC},-58",
    f"stop-09,{_AT},{_MAC}, -58",
    f"stop-09,{_AT},{_MAC},-5_8",
    f"stop-09,{_AT},{_MAC},+0",
    f" s ,garbage,{_MAC},-58",
    f",{_AT},{_MAC},x",
    f" s ,{_AT},{_MAC},+5",
    f",{_AT},xx,+0",
    f" s ,{_AT},{_MAC},+0",
    # timestamps only the per-row path may judge
    f"stop-09,2017-04-05 24:00:00,{_MAC},-58",
    f"stop-09,2017-04-05 08:02:60,{_MAC},-58",
    f"stop-09,1900-02-29 08:02:00,{_MAC},-58",
    f"stop-09,0000-01-01 00:00:00,{_MAC},-58",
    f"stop-09,2017-04-0٥ 08:02:00,{_MAC},-58",
    # quoting, and the one-field line before a seven-field line
    f'"Stop A,North",{_AT},{_MAC},-58',
    f'"Stop\nC",{_AT},{_MAC},-58',
    f'"stop-01",{_AT},{_MAC},-58',
    f'stop-01,{_AT},"{_MAC}",-58',
    f"stop-01\n{_AT},{_MAC},-58,stop-02,{_AT},{_MAC},-58",
    f"stop-01,{_AT},{_MAC},-58,extra",
    # a blank line, a CRLF line end and a NUL
    "",
    f"stop-01,{_AT},{_MAC},-58\r",
    f"stop-01\0,{_AT},{_MAC},-58",
    f"stop\r-01,{_AT},{_MAC},-58",
]
_malformed = st.sampled_from(_MALFORMED_ROWS)


@st.composite
def _frame_files(draw):
    """A canonical run, so that the chunked path gets far, then a mix of
    canonical and malformed rows with LF or CRLF ends."""
    digest_form = draw(st.booleans())
    canonical = _canonical(_DIGESTS if digest_form else _MACS + _DIGESTS)
    head = draw(st.lists(canonical, min_size=6, max_size=30))
    mixed = _malformed | _canonical(_MACS + _DIGESTS)
    tail = [draw(_malformed)] + draw(st.lists(mixed, max_size=15))
    if digest_form:
        tail = [r.replace(_MAC, _DIGESTS[0]) for r in tail]
    ends = draw(st.lists(st.sampled_from(["\n", "\n", "\r\n"]), min_size=len(tail),
                         max_size=len(tail)))
    body = "".join(r + "\n" for r in head) + "".join(r + e for r, e in zip(tail, ends))
    if body and draw(st.booleans()):
        body = body.rstrip("\r\n")  # no newline at the end of the file
    flag = ANONYMIZED_FLAG + "\n" if digest_form else ""
    return (flag + FRAME_HEADER + "\n" + body).encode("utf-8")


def _outcome(parse, *args):
    """What a parse returns, or the csv error it raises (csv before Python
    3.11 rejects a NUL)."""
    try:
        return parse(*args)
    except csv.Error as exc:
        return str(exc)


def _assert_parses_as_the_reference(data, chunk_chars):
    expected = _outcome(reference_parse, data)
    with mock.patch.object(frames_module, "_CHUNK_CHARS", chunk_chars):
        for stream in (io.BytesIO(data), io.BytesIO(gzip.compress(data, mtime=0)),
                       _Unseekable(data, most=1)):
            assert _outcome(lambda: _as_reference(*parse_frame_csv(stream))) == expected


def test_a_field_over_the_csv_limit_is_left_to_csv():
    stop = "s" * (csv.field_size_limit() + 1)
    data = f"{FRAME_HEADER}\nstop-01,{_AT},{_MAC},-58\n{stop},{_AT},{_MAC},-58\n".encode()
    with pytest.raises(csv.Error, match="field larger than field limit"):
        parse_frame_csv(io.BytesIO(data))


@settings(max_examples=300, deadline=None)
@given(data=_frame_files(), chunk_chars=st.integers(1, 8) | st.integers(80, 240))
def test_chunked_parse_equals_the_record_at_a_time_reference(data, chunk_chars):
    _assert_parses_as_the_reference(data, chunk_chars)


@pytest.mark.parametrize("chunk_chars", [1, 100, 160, 1 << 15])
@pytest.mark.parametrize("row", _MALFORMED_ROWS)
def test_each_malformed_row_between_canonical_runs(row, chunk_chars):
    run = [f"stop-0{i % 3},2017-04-05 08:{i:02}:00,{_MACS[i % 4]},-{50 + i}" for i in range(8)]
    data = "\n".join([FRAME_HEADER, *run, row, *run, ""]).encode("utf-8")
    _assert_parses_as_the_reference(data, chunk_chars)


def test_a_hand_off_mid_file_keeps_line_numbers_and_tables(tmp_path):
    records = [
        frame(f"stop-{i % 3}", datetime(2017, 4, 5, 8, i), f"00:B8:00:00:00:{i:02X}")
        for i in range(40)
    ]
    path = tmp_path / "frames.csv"
    write_frame_csv(cols(records), path)
    with open(path, "a") as fh:
        fh.write('"stop-9",2017-04-05 09:00:00,00:B8:00:00:00:01,-60\n')
        fh.write("stop-1,2017-04-05 09:01:00,xx,-60\n")
    calls = []

    def counted(text):
        calls.append(text)
        return datetime.fromisoformat(text)

    with mock.patch.object(frames_module, "_CHUNK_CHARS", 200), \
            mock.patch.object(frames_module, "parse_timestamp", counted):
        columns, report = parse_frame_csv(path)
    assert 0 < len(calls) < 42  # the first chunks went column-wise
    assert list(columns)[:40] == records
    assert columns.stops == ("stop-0", "stop-1", "stop-2", "stop-9")
    assert (report.rows_total, report.rows_ok) == (42, 41)
    assert [(i.line, i.reason) for i in report.issues] == [(43, "bad mac")]


@pytest.mark.parametrize("anonymized", [False, True])
@pytest.mark.parametrize("name", ["frames.csv", "frames.csv.gz"])
def test_canonical_files_never_reach_the_per_row_path(tmp_path, monkeypatch, anonymized, name):
    frames, _, _ = generate(replace(default_scenario(seed=3), days=1))
    ordered = sorted_frames(frames)
    path = tmp_path / name
    write_frame_csv(ordered, path, anonymize_output=anonymized)
    records = list(ordered)

    def refuse(text):
        raise AssertionError(f"per-row parse of {text!r}")

    monkeypatch.setattr(frames_module, "parse_timestamp", refuse)
    columns, report = parse_frame_csv(path)
    assert report.rows_ok == report.rows_total == len(records) > 1000
    if anonymized:
        records = [replace(r, mac=None) for r in records]
    assert list(columns) == records


def _converted(text):
    seconds = _epoch_seconds_of([text])
    return None if seconds is None else int(seconds[0])


def _per_row(text):
    try:
        return epoch_seconds(parse_timestamp(text))
    except ValueError:
        return None


@pytest.mark.parametrize("text, accepted", [
    ("1900-02-29 00:00:00", False),
    ("2000-02-29 00:00:00", True),
    ("2016-02-29 23:59:59", True),
    ("2017-02-29 00:00:00", False),
    ("2017-02-28 00:00:00", True),
    ("2017-04-31 00:00:00", False),
    ("2017-13-01 00:00:00", False),
    ("2017-00-01 00:00:00", False),
    ("2017-01-00 00:00:00", False),
    ("0000-01-01 00:00:00", False),
    ("0001-01-01 00:00:00", True),
    ("9999-12-31 23:59:59", True),
    ("1969-12-31 23:59:59", True),
    ("2017-04-05 23:59:60", False),
    ("2017-04-05 23:60:00", False),
    ("2017-04-05T08:00:00", False),
    ("2017/04/05 08:00:00", False),
])
def test_timestamp_converter_equals_the_per_row_parse(text, accepted):
    assert _converted(text) == _per_row(text)
    assert (_converted(text) is not None) == accepted


@pytest.mark.parametrize("text", [
    "2017-04-05 24:00:00",
    "2017-04-0٥ 08:00:00",  # ARABIC-INDIC DIGIT FIVE
    "２017-04-05 08:00:00",  # FULLWIDTH DIGIT TWO
    "+017-04-05 08:00:00",
    "2017-04-05 08:00:0 ",
])
def test_timestamp_converter_leaves_the_rest_to_the_per_row_parse(text):
    assert len(text) == 19 and _converted(text) is None


_STAMP_CHARS = "0123456789-: T+٥"


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_STAMP_CHARS), min_size=19, max_size=19).map("".join)
       | _stamps)
def test_timestamp_converter_accepts_only_what_the_per_row_parse_accepts(text):
    converted = _converted(text)
    assert converted is None or converted == _per_row(text)
    if _per_row(text) is None or not text.isascii():
        assert converted is None


def test_timestamp_converter_rejects_a_batch_with_one_bad_or_misaligned_text():
    good = ["2017-04-05 08:00:00"] * 3
    assert _epoch_seconds_of(good).tolist() == [_per_row(good[0])] * 3
    assert _epoch_seconds_of([*good, "2017-02-29 00:00:00"]) is None
    # an 18- and a 20-character text joined would look like two good ones
    assert _epoch_seconds_of(["2017-04-05 08:00:0", "12017-04-05 08:00:00"]) is None
