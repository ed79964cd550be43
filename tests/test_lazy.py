"""The lazy import that keeps numpy from running in stages that never use it."""

from __future__ import annotations

import json
import sys
from types import ModuleType

import pytest

from busflux.lazy import lazy_import


def test_a_missing_module_raises_at_import_time():
    with pytest.raises(ModuleNotFoundError) as exc:
        lazy_import("busflux_no_such_module")
    assert exc.value.name == "busflux_no_such_module"


def test_a_module_marked_absent_raises_as_import_does(monkeypatch):
    monkeypatch.setitem(sys.modules, "busflux_absent_module", None)
    with pytest.raises(ModuleNotFoundError):
        lazy_import("busflux_absent_module")


def test_an_imported_module_comes_back_as_the_same_object():
    assert lazy_import("json") is json
    assert type(lazy_import("json")) is ModuleType


def test_a_new_module_runs_on_its_first_attribute_access(tmp_path, monkeypatch):
    (tmp_path / "busflux_lazy_probe.py").write_text(
        "import pathlib\n"
        "pathlib.Path(__file__).with_suffix('.ran').touch()\n"
        "VALUE = 7\n")
    ran = tmp_path / "busflux_lazy_probe.ran"
    monkeypatch.syspath_prepend(tmp_path)
    try:
        module = lazy_import("busflux_lazy_probe")
        assert sys.modules["busflux_lazy_probe"] is module
        assert lazy_import("busflux_lazy_probe") is module
        assert not ran.exists()
        assert module.VALUE == 7
        assert ran.exists()
        assert type(module) is ModuleType
    finally:
        sys.modules.pop("busflux_lazy_probe", None)
