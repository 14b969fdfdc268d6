"""The shared C compiler loader (:mod:`repro._cc`)."""

import shutil

import pytest

from repro import _cc, faults

needs_compiler = pytest.mark.skipif(
    not any(shutil.which(c) for c in ("cc", "gcc", "clang")), reason="no C compiler"
)

SOURCE = "int answer(void) { return 42; }\n"


@pytest.fixture(autouse=True)
def fresh_loader(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CC", raising=False)
    monkeypatch.setattr(_cc, "_loaded", {})
    monkeypatch.setattr(_cc, "_failures", {})
    return tmp_path


@needs_compiler
def test_builds_into_ckernel_and_loads_once(fresh_loader):
    prepared = []
    lib = _cc.load("probe", SOURCE, prepared.append)
    assert lib is not None and lib.answer() == 42
    assert _cc.unavailable_reason("probe") is None
    assert [p.suffix for p in (fresh_loader / "ckernel").glob("probe-*.so")] == [".so"]
    assert _cc.load("probe", SOURCE, prepared.append) is lib
    assert len(prepared) == 1


@needs_compiler
def test_failures_are_remembered_by_name():
    assert _cc.load("broken", "this is not C", lambda lib: None) is None
    assert _cc.unavailable_reason("broken") == "compiler invocation failed"
    assert _cc.load("refused", SOURCE, lambda lib: "self-test failed") is None
    assert _cc.unavailable_reason("refused") == "self-test failed"


@needs_compiler
def test_veto_is_read_on_every_call():
    lib = _cc.load("probe", SOURCE, lambda lib: None)
    assert lib is not None
    with faults.deny_compiler():
        assert _cc.load("probe", SOURCE, lambda lib: None) is None
        assert _cc.unavailable_reason("probe") == "REPRO_NO_CC is set"
    assert _cc.load("probe", SOURCE, lambda lib: None) is lib


def test_no_compiler_on_path(monkeypatch):
    monkeypatch.setattr(_cc.shutil, "which", lambda name: None)
    assert _cc.load("probe", SOURCE, lambda lib: None) is None
    assert _cc.unavailable_reason("probe") == "no C compiler on PATH"
