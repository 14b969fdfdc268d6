"""Differential suite for the compiled trace-generation fast path.

The contract under test is *bit-identity*: for every registered profile
and multiple (length, seed) points, :func:`repro.workloads.fastgen.fast_run`
must reproduce ``Program.run`` exactly — same pcs, same outcomes, same
metadata-bearing name.  Plus the dispatch in
:func:`repro.workloads.generator.generate_trace`: the compiled path by
default, ``Program.run`` with one degraded health event when the
compiler is denied or the program is outside the fast path's envelope,
and the same trace either way — down to lengths 0, 1 and 2.
"""

import numpy as np
import pytest

from repro import faults, health
from repro.workloads import _cgen, fastgen
from repro.workloads.components import BiasedBehavior
from repro.workloads.generator import build_program, generate_trace
from repro.workloads.profiles import ALL_PROFILES, get_profile

#: (length, run seed) differential points — two per profile.  The run
#: seeds correspond to ``generate_trace`` seeds 0 and 3 (run seed =
#: 2 * seed + 1).
POINTS = [(20_000, 1), (50_000, 7)]


needs_cc = pytest.mark.skipif(
    not _cgen.available(), reason="the fast path needs the compiled event driver"
)


@pytest.fixture(autouse=True)
def _clean_health():
    health.clear()
    yield
    health.clear()


_scalar_cache = {}


def scalar_reference(name: str, length: int, run_seed: int):
    key = (name, length, run_seed)
    if key not in _scalar_cache:
        program = build_program(get_profile(name), seed=run_seed)
        _scalar_cache[key] = program.run(length=length, seed=run_seed)
    return _scalar_cache[key]


def assert_bit_identical(fast, reference):
    assert np.array_equal(fast.pcs, reference.pcs)
    assert np.array_equal(fast.outcomes, reference.outcomes)
    assert fast.name == reference.name


def tracegen_event():
    (event,) = health.events(component="tracegen")
    return event


@needs_cc
class TestDifferential:
    """fast_run == Program.run, every profile."""

    @pytest.mark.parametrize("length,run_seed", POINTS)
    @pytest.mark.parametrize("name", sorted(ALL_PROFILES))
    def test_compiled_engine(self, name, length, run_seed):
        program = build_program(get_profile(name), seed=run_seed)
        assert fastgen.supports(program)
        fast = fastgen.fast_run(program, length, seed=run_seed)
        assert_bit_identical(fast, scalar_reference(name, length, run_seed))

    @pytest.mark.parametrize("length,run_seed", POINTS)
    @pytest.mark.parametrize("name", sorted(ALL_PROFILES))
    def test_python_engine(self, name, length, run_seed):
        """Without a compiler generate_trace runs the pure-Python
        Program.run, and the trace equals the compiled fast path's."""
        profile = get_profile(name)
        seed = (run_seed - 1) // 2
        fast = fastgen.fast_run(build_program(profile, seed=seed), length, seed=run_seed)
        with faults.deny_compiler():
            slow = generate_trace(profile, length=length, seed=seed)
        assert_bit_identical(fast, slow)
        assert tracegen_event().actual == "Program.run"

    def test_plan_reuse_is_stable(self):
        # the per-program plan cache must not leak state between runs
        program = build_program(get_profile("gcc"), seed=1)
        first = fastgen.fast_run(program, 20_000, seed=1)
        second = fastgen.fast_run(program, 20_000, seed=1)
        assert_bit_identical(second, first)


class TestTinyLengths:
    @pytest.mark.parametrize("length", [0, 1, 2])
    @pytest.mark.parametrize("name", ["compress", "go"])
    def test_generate_trace_equals_program_run(self, name, length):
        """Lengths 0-2 through generate_trace, compiled and with the
        compiler denied, equal Program.run."""
        profile = get_profile(name)
        reference = build_program(profile, seed=0).run(length=length, seed=1)
        traces = []
        if _cgen.available():
            traces.append(generate_trace(profile, length=length, seed=0))
            assert tracegen_event().actual == "fastgen-c"
            health.clear()
        with faults.deny_compiler():
            traces.append(generate_trace(profile, length=length, seed=0))
        assert tracegen_event().actual == "Program.run"
        for trace in traces:
            assert len(trace) == length
            assert_bit_identical(trace, reference)


class TestEngineSelection:
    def test_engine_name_reports_compiler(self):
        """The tracegen event names the engine that ran, and why the
        compiled one did not."""
        generate_trace(get_profile("compress"), length=1_000, seed=0)
        compiled = "fastgen-c" if _cgen.available() else "Program.run"
        assert tracegen_event().actual == compiled
        health.clear()
        with faults.deny_compiler():
            assert "REPRO_NO_CC" in _cgen.unavailable_reason()
            generate_trace(get_profile("compress"), length=1_000, seed=0)
        event = tracegen_event()
        assert event.actual == "Program.run"
        assert "REPRO_NO_CC" in event.reason

    def test_unsupported_program_refused(self):
        class Tweaked(BiasedBehavior):
            """A subclass may override draw logic: must be refused."""

        program = build_program(get_profile("compress"), seed=0)
        site = program.regions[0].sites()[0]
        original = site.behavior
        try:
            site.behavior = Tweaked(p_taken=0.5)
            assert not fastgen.supports(program)
            with pytest.raises(fastgen.UnsupportedProgram):
                fastgen.fast_run(program, 1_000, seed=1)
        finally:
            site.behavior = original


class TestDispatch:
    """generate_trace: the compiled path, else Program.run."""

    def test_default_is_fast_and_identical_to_scalar(self):
        profile = get_profile("xlisp")
        fast = generate_trace(profile, length=20_000, seed=3)
        with faults.deny_compiler():
            slow = generate_trace(profile, length=20_000, seed=3)
        assert np.array_equal(fast.pcs, slow.pcs)
        assert np.array_equal(fast.outcomes, slow.outcomes)
        assert fast.metadata == slow.metadata

    @needs_cc
    def test_fast_mode_records_engine(self):
        generate_trace(get_profile("compress"), length=1_000, seed=0)
        event = tracegen_event()
        assert (event.expected, event.actual) == ("fastgen-c", "fastgen-c")
        assert not event.degraded

    def test_python_engine_counts_as_degraded(self):
        with faults.deny_compiler():
            generate_trace(get_profile("compress"), length=1_000, seed=0)
        event = tracegen_event()
        assert (event.expected, event.actual) == ("fastgen-c", "Program.run")
        assert event.severity == "degraded"

    def test_unsupported_falls_back_to_scalar(self, monkeypatch):
        with faults.deny_compiler():
            reference = generate_trace(get_profile("go"), length=2_000, seed=1)
        health.clear()
        monkeypatch.setattr(fastgen, "supports", lambda program: False)
        trace = generate_trace(get_profile("go"), length=2_000, seed=1)
        assert np.array_equal(trace.outcomes, reference.outcomes)
        event = tracegen_event()
        assert event.actual == "Program.run" and event.severity == "degraded"
        if _cgen.available():
            assert "envelope" in event.reason
