"""Run manifests: file digests, relative labels, and fingerprints."""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import conftest
import pytest

from busflux.errors import ParseError
from busflux.manifest import (
    RunManifest,
    combined_digest_list,
    read_manifest,
    sha256_file,
    write_manifest,
)


def manifest(stage="clean", **kw):
    return RunManifest(tool_version="0.1.0", stage=stage, **kw)


# ── hashing and labels ───────────────────────────────────────────────────


def test_sha256_file_matches_hashlib(tmp_path):
    path = tmp_path / "data.bin"
    payload = bytes(range(256)) * 1000
    path.write_bytes(payload)
    assert sha256_file(path) == hashlib.sha256(payload).hexdigest()


def test_sha256_of_empty_file(tmp_path):
    path = tmp_path / "empty"
    path.write_bytes(b"")
    assert sha256_file(path) == hashlib.sha256(b"").hexdigest()


@pytest.mark.parametrize("blocked", [(), ("_sha2", "_sha256", "_sha1")])
def test_digests_equal_hashlib_with_or_without_the_built_in_hashes(tmp_path, blocked):
    """With the built-in modules, busflux hashes without loading OpenSSL;
    with none of them, as in an interpreter built without them, it falls
    back to hashlib. The 3.10/3.11 and the 3.12+ module names are both
    blocked, so either interpreter takes the fallback; a fresh interpreter
    imports both busflux modules after the block. Hashing runs no numpy,
    so not even a numpy that loads OpenSSL in ``import numpy`` loads it."""
    path = tmp_path / "data.bin"
    payload = bytes(range(256)) * 5000
    path.write_bytes(payload)
    code = ("import json, sys\n"
            "for name in json.loads(sys.argv[2]):\n"
            "    sys.modules[name] = None\n"
            "from busflux import frames, manifest\n"
            "print(manifest.sha256_file(sys.argv[1]))\n"
            "print(frames.anonymize(0x00B8000000FF).hex)\n"
            "print('_hashlib' in sys.modules)\n"
            "print(any(m == 'numpy' or m.startswith('numpy.') for m in sys.modules\n"
            "          if type(sys.modules[m]) is type(sys)))\n")
    result = subprocess.run([sys.executable, "-c", code, str(path), json.dumps(blocked)],
                            env=conftest.child_env(), capture_output=True, text=True,
                            timeout=60, check=True)
    assert result.stdout.split() == [
        hashlib.sha256(payload).hexdigest(),
        hashlib.sha1(b"00:B8:00:00:00:FF").hexdigest(),
        str(bool(blocked)),
        "False",
    ]


def test_labels_default_to_basenames(tmp_path):
    path = tmp_path / "deep" / "frames.csv"
    path.parent.mkdir()
    path.write_text("x\n")
    m = manifest()
    m.add_input(path)
    assert list(m.inputs) == ["frames.csv"]


def test_labels_are_relative_to_the_given_base(tmp_path):
    run_a = tmp_path / "run-a" / "out"
    run_b = tmp_path / "run-b" / "out"
    for d in (run_a, run_b):
        d.mkdir(parents=True)
        (d / "hourly.csv").write_text("same bytes\n")
    ma, mb = manifest(), manifest()
    ma.add_output(run_a / "hourly.csv", base=str(run_a))
    mb.add_output(run_b / "hourly.csv", base=str(run_b))
    # parallel run directories produce comparable manifests
    assert ma.outputs == mb.outputs == {"hourly.csv": sha256_file(run_a / "hourly.csv")}


def test_base_relative_labels_keep_subdirectories(tmp_path):
    base = tmp_path / "run"
    nested = base / "models" / "dnn.json"
    nested.parent.mkdir(parents=True)
    nested.write_text("{}\n")
    m = manifest()
    m.add_output(nested, base=str(base))
    assert list(m.outputs) == ["models/dnn.json"]


def test_missing_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        manifest().add_input(tmp_path / "absent.csv")


# ── fingerprints ─────────────────────────────────────────────────────────


def test_digest_list_is_sorted_by_label():
    m = manifest()
    m.outputs = {"b.csv": "2" * 64, "a.csv": "1" * 64}
    assert m.digest_list() == [("a.csv", "1" * 64), ("b.csv", "2" * 64)]


def test_combined_digest_list_spans_stages_sorted():
    m1 = manifest(stage="synth")
    m1.outputs = {"frames.csv": "a" * 64}
    m2 = manifest(stage="clean")
    m2.outputs = {"segments.csv": "b" * 64, "report.json": "c" * 64}
    combined = combined_digest_list([m1, m2])
    assert combined == sorted(
        [
            ("synth", "frames.csv", "a" * 64),
            ("clean", "report.json", "c" * 64),
            ("clean", "segments.csv", "b" * 64),
        ]
    )


def test_timings_do_not_enter_the_fingerprint():
    m1, m2 = manifest(), manifest()
    m1.outputs = m2.outputs = {"x.csv": "d" * 64}
    m1.timings = {"clean_s": 1.0}
    m2.timings = {"clean_s": 99.0}
    assert m1.digest_list() == m2.digest_list()
    assert combined_digest_list([m1]) == combined_digest_list([m2])


# ── persistence ──────────────────────────────────────────────────────────


def test_write_read_round_trip(tmp_path):
    m = manifest(seed=42, config={"cleaning": {"rssi_lo": -80}})
    data = tmp_path / "in.csv"
    data.write_text("1,2,3\n")
    m.add_input(data)
    out = tmp_path / "out.csv"
    out.write_text("4,5\n")
    m.add_output(out)
    m.timings["total_s"] = 0.25

    dest = tmp_path / "run.manifest.json"
    write_manifest(m, dest)
    back = read_manifest(dest)
    assert back == m


def test_written_manifest_is_deterministic_json(tmp_path):
    m = manifest(seed=1)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_manifest(m, a)
    write_manifest(m, b)
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["format_version"] == 1
    assert set(payload) == {
        "format_version",
        "tool_version",
        "stage",
        "seed",
        "config",
        "inputs",
        "outputs",
        "timings",
    }


def test_unsupported_version_is_rejected(tmp_path):
    dest = tmp_path / "m.json"
    write_manifest(manifest(), dest)
    payload = json.loads(dest.read_text())
    payload["format_version"] = 2
    dest.write_text(json.dumps(payload))
    with pytest.raises(ParseError):
        read_manifest(dest)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_no_artifact_is_written_with_a_non_finite_number(tmp_path, value):
    # JSON has no NaN or Infinity; Python's json writes them unless told not to.
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_manifest(manifest(timings={"clean": value}), tmp_path / "m.json")
    assert not (tmp_path / "m.json").exists()
