"""Run provenance: config snapshot, input/output digests, stage timings.

The digests of the declared outputs are the reproducibility contract —
rerunning a stage with identical inputs and seed must reproduce them byte
for byte. Timings are informational and excluded from any comparison.
The digests come from ``schema.sha256``, CPython's built-in SHA-256,
which loads no OpenSSL.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from typing import Iterable, Union

from .schema import read_json, sha256, to_dict, write_json

FORMAT_VERSION = 1


def sha256_file(path: Union[str, os.PathLike]) -> str:
    digest = sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass(slots=True)
class RunManifest:
    tool_version: str
    stage: str
    seed: int | None = None
    config: dict = field(default_factory=dict)
    inputs: dict[str, str] = field(default_factory=dict)
    outputs: dict[str, str] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)

    def add_input(self, path: Union[str, os.PathLike], *, base: str | None = None) -> None:
        self.inputs[_label(path, base)] = sha256_file(path)

    def add_output(self, path: Union[str, os.PathLike], *, base: str | None = None) -> None:
        self.outputs[_label(path, base)] = sha256_file(path)

    def digest_list(self) -> list[tuple[str, str]]:
        """Sorted (file label, sha256) pairs — the comparable fingerprint."""
        return sorted(self.outputs.items())


def _label(path: Union[str, os.PathLike], base: str | None) -> str:
    """File label used in the manifest: relative to the manifest's directory
    when possible, so parallel run directories produce comparable labels."""
    if base is None:
        return os.path.basename(os.fspath(path))
    try:
        return os.path.relpath(os.fspath(path), start=base)
    except ValueError:
        return os.path.basename(os.fspath(path))


def write_manifest(manifest: RunManifest, dest: Union[str, os.PathLike]) -> None:
    write_json(dest, {"format_version": FORMAT_VERSION, **to_dict(manifest)})


def read_manifest(source: Union[str, os.PathLike]) -> RunManifest:
    with read_json(source, FORMAT_VERSION) as payload:
        return RunManifest(**{f.name: payload[f.name] for f in fields(RunManifest)})


def combined_digest_list(manifests: Iterable[RunManifest]) -> list[tuple[str, str, str]]:
    """Digest fingerprint of a multi-stage run: (stage, label, sha256)."""
    out = []
    for m in manifests:
        out.extend((m.stage, label, digest) for label, digest in m.digest_list())
    return sorted(out)
