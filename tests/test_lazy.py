"""The lazy import that keeps numpy from running in stages that never use it,
and the stand-in that keeps a CLI stage from running modules it never calls."""

from __future__ import annotations

import json
import sys
from types import ModuleType

import pytest

from busflux.lazy import lazy_function, lazy_import


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


def test_a_stand_in_forwards_the_call_and_returns_the_result():
    assert lazy_function("operator", "sub")(7, 2) == 5
    # A keyword argument, and a result that is the target's own object.
    dumps = lazy_function("json", "dumps")
    assert dumps({"b": 1, "a": [2]}, sort_keys=True) == '{"a": [2], "b": 1}'
    assert lazy_function("sys", "getrecursionlimit")() == sys.getrecursionlimit()


def test_a_stand_in_carries_the_target_names():
    stand_in = lazy_function("json", "dumps")
    assert (stand_in.__module__, stand_in.__name__, stand_in.__qualname__) == (
        json.dumps.__module__, json.dumps.__name__, json.dumps.__qualname__)
    assert stand_in is not json.dumps


def test_a_stand_in_runs_its_module_on_the_first_call(tmp_path, monkeypatch):
    (tmp_path / "busflux_stand_in_probe.py").write_text(
        "import pathlib\n"
        "pathlib.Path(__file__).with_suffix('.ran').touch()\n"
        "def scale(x, *, by=1):\n"
        "    return [x] * by\n")
    ran = tmp_path / "busflux_stand_in_probe.ran"
    monkeypatch.syspath_prepend(tmp_path)
    try:
        scale = lazy_function("busflux_stand_in_probe", "scale")
        assert not ran.exists()
        assert "busflux_stand_in_probe" not in sys.modules
        assert scale(3, by=2) == [3, 3]
        assert ran.exists()
        assert scale.__module__ == "busflux_stand_in_probe"
    finally:
        sys.modules.pop("busflux_stand_in_probe", None)


def test_a_stand_in_for_a_missing_module_raises_when_made(monkeypatch):
    with pytest.raises(ModuleNotFoundError) as exc:
        lazy_function("busflux_no_such_module", "f")
    assert exc.value.name == "busflux_no_such_module"
    monkeypatch.setitem(sys.modules, "busflux_absent_module", None)
    with pytest.raises(ModuleNotFoundError):
        lazy_function("busflux_absent_module", "f")
