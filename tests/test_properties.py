"""Property-based tests (hypothesis) on core data structures and
predictor invariants, plus differential fuzzing of every registered
predictor against the dict-based oracle (:mod:`repro.verify`)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.counters import CounterTable, SaturatingCounter
from repro.core.history import GlobalHistoryRegister, global_history_stream
from repro.core.indexing import gshare_index, mask
from repro.core.interfaces import SimulationResult
from repro.core.registry import available_schemes, make_predictor, parse_spec
from repro.sim.engine import run, run_steps
from repro.traces.record import BranchTrace
from repro.verify import diff_spec
from tests.conftest import FUZZ_BUDGET

outcome_lists = st.lists(st.booleans(), min_size=0, max_size=300)


class TestCounterProperties:
    @given(outcomes=outcome_lists, bits=st.integers(1, 4), init=st.integers(0, 15))
    def test_state_always_in_range(self, outcomes, bits, init):
        c = SaturatingCounter(bits=bits, init=init % (1 << bits))
        for taken in outcomes:
            c.update(taken)
            assert 0 <= c.state <= (1 << bits) - 1

    @given(outcomes=outcome_lists)
    def test_monotone_training_saturates(self, outcomes):
        """After >=3 consecutive identical outcomes the prediction must
        match that outcome (2-bit counter saturation)."""
        c = SaturatingCounter()
        for taken in outcomes:
            c.update(taken)
        for _ in range(3):
            c.update(True)
        assert c.prediction is True

    @given(
        updates=st.lists(
            st.tuples(st.integers(0, 15), st.booleans()), min_size=0, max_size=200
        )
    )
    def test_table_matches_independent_counters(self, updates):
        table = CounterTable(4)
        reference = [SaturatingCounter() for _ in range(16)]
        for index, taken in updates:
            assert table.predict_and_update(index, taken) == reference[
                index
            ].predict_and_update(taken)
        assert table.states == [c.state for c in reference]


class TestHistoryProperties:
    @given(outcomes=outcome_lists, bits=st.integers(0, 20))
    def test_stream_matches_register(self, outcomes, bits):
        stream = global_history_stream(np.array(outcomes, dtype=bool), bits)
        ghr = GlobalHistoryRegister(bits)
        for t, taken in enumerate(outcomes):
            assert stream[t] == ghr.value
            ghr.push(taken)

    @given(outcomes=outcome_lists, bits=st.integers(0, 16))
    def test_register_value_bounded(self, outcomes, bits):
        ghr = GlobalHistoryRegister(bits)
        for taken in outcomes:
            ghr.push(taken)
            assert 0 <= ghr.value <= mask(bits)


class TestIndexProperties:
    @given(
        pc=st.integers(0, 1 << 30),
        hist=st.integers(0, 1 << 30),
        index_bits=st.integers(0, 20),
        extra=st.integers(0, 20),
    )
    def test_gshare_index_in_table_range(self, pc, hist, index_bits, extra):
        history_bits = max(0, index_bits - extra)
        index = gshare_index(pc, hist, index_bits, history_bits)
        assert 0 <= index < (1 << index_bits) or index_bits == 0 and index == 0

    @given(pc=st.integers(0, 1 << 20), index_bits=st.integers(1, 16))
    def test_gshare_index_is_history_bijective(self, pc, index_bits):
        """For a fixed pc, distinct full-width histories map to distinct
        indices (xor with a constant is a bijection)."""
        indices = {
            gshare_index(pc, h, index_bits, index_bits)
            for h in range(min(1 << index_bits, 256))
        }
        assert len(indices) == min(1 << index_bits, 256)


def traces(min_size=1, max_size=120):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_size, max_size))
        pcs = draw(
            st.lists(st.integers(0, 63), min_size=n, max_size=n)
        )
        outcomes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        return BranchTrace(
            pcs=np.array(pcs), outcomes=np.array(outcomes), name="hyp"
        )

    return build()


PROPERTY_SPECS = [
    "gshare:index=6,hist=6",
    "gshare:index=6,hist=2",
    "bimode:dir=5,hist=5,choice=5",
    "bimodal:index=5",
    "pag:hist=4,bht=4",
    "agree:index=6",
    "gskew:bank=5",
    "yags:choice=6,cache=4",
]


class TestPredictorProperties:
    @given(trace=traces())
    @settings(max_examples=25, deadline=None)
    def test_batch_step_equivalence_on_arbitrary_traces(self, trace):
        for spec in PROPERTY_SPECS:
            batch = run(make_predictor(spec), trace).predictions
            steps = run_steps(make_predictor(spec), trace).predictions
            assert np.array_equal(batch, steps), spec

    @given(trace=traces())
    @settings(max_examples=25, deadline=None)
    def test_constant_outcome_traces_converge(self, trace):
        """On an all-taken trace every adaptive predictor must stop
        mispredicting after the counters saturate (<= 2 misses/branch)."""
        constant = BranchTrace(
            pcs=trace.pcs, outcomes=np.ones(len(trace), dtype=bool), name="c"
        )
        for spec in ("gshare:index=6,hist=0", "bimodal:index=6"):
            result = run(make_predictor(spec), constant)
            num_static = constant.num_static
            assert result.num_mispredictions <= 2 * num_static, spec

    @given(trace=traces())
    @settings(max_examples=20, deadline=None)
    def test_misprediction_rate_bounds(self, trace):
        for spec in ("bimode:dir=5,hist=5,choice=5", "gskew:bank=5"):
            rate = run(make_predictor(spec), trace).misprediction_rate
            assert 0.0 <= rate <= 1.0


# One small configuration per registered scheme; the coverage test
# below fails when a new scheme registers without a differential entry.
DIFFERENTIAL_SPECS = [
    "bimode:dir=5,hist=3,choice=4",
    "bimode:dir=4,hist=4,choice=3,full_update=1,choice_hist=1",
    "gshare:index=6,hist=4",
    "bimodal:index=5",
    "gag:hist=5",
    "gas:hist=4,select=2",
    "gap:hist=4,addr=2",
    "gselect:hist=3,addr=3",
    "pag:hist=4,bht=4",
    "pas:hist=3,select=2,bht=4",
    "pap:hist=3,addr=2,bht=4",
    "perceptron:index=4,hist=6",
    "agree:index=6,hist=4,bias=6",
    "gskew:bank=5,hist=5",
    "gskew:bank=4,hist=4,update=total",
    "yags:choice=6,cache=4,hist=4,tag=4",
    "tournament:index=6,meta=5",
    "trimode:dir=5,hist=3,choice=4",
    "biasfilter:table=5,run=2,sub_index=6,sub_hist=4",
    "biasfilter:table=4,run=2,sub=bimodal,sub_index=5",
    "always-taken",
    "always-not-taken",
    "btfnt",
]


def _fuzz_tier(scheme: str) -> str:
    """Light tier for the stateless schemes (the statics, whose kernel
    needs no compiler), heavy for everything with a real automaton."""
    from repro.sim import kernels

    return "heavy" if kernels.KERNELS[scheme].compiled else "light"


LIGHT_DIFFERENTIAL_SPECS = [
    spec for spec in DIFFERENTIAL_SPECS if _fuzz_tier(parse_spec(spec)[0]) == "light"
]
HEAVY_DIFFERENTIAL_SPECS = [
    spec for spec in DIFFERENTIAL_SPECS if _fuzz_tier(parse_spec(spec)[0]) == "heavy"
]


class TestDifferentialFuzzing:
    """Random traces through oracle == step loop == batch simulate ==
    batched kernels (where the spec qualifies for one), for every
    registered predictor.  A failure message carries the first
    diverging branch index; hypothesis shrinks the trace around it."""

    def test_every_registered_scheme_is_fuzzed(self):
        fuzzed = {parse_spec(spec)[0] for spec in DIFFERENTIAL_SPECS}
        assert fuzzed == set(available_schemes())

    def test_every_scheme_lands_in_exactly_one_budget_tier(self):
        light = {parse_spec(s)[0] for s in LIGHT_DIFFERENTIAL_SPECS}
        heavy = {parse_spec(s)[0] for s in HEAVY_DIFFERENTIAL_SPECS}
        assert not light & heavy
        assert light | heavy == set(available_schemes())

    @given(trace=traces())
    @settings(deadline=None, **FUZZ_BUDGET["light"])
    def test_light_tier_engines_agree_on_arbitrary_traces(self, trace):
        for spec in LIGHT_DIFFERENTIAL_SPECS:
            report = diff_spec(spec, trace)
            assert report.agree, report.summary()

    @given(trace=traces())
    @settings(deadline=None, **FUZZ_BUDGET["heavy"])
    def test_kernel_ported_engines_agree_on_arbitrary_traces(self, trace):
        for spec in HEAVY_DIFFERENTIAL_SPECS:
            report = diff_spec(spec, trace)
            assert report.agree, report.summary()

    @given(trace=traces(min_size=0, max_size=40))
    @settings(max_examples=10, deadline=None)
    def test_agreement_holds_on_tiny_and_empty_traces(self, trace):
        for spec in ("bimode:dir=3,hist=2,choice=2", "yags:choice=4,cache=3"):
            report = diff_spec(spec, trace)
            assert report.agree, report.summary()


class TestSimulationResultProperties:
    @given(outcomes=st.lists(st.booleans(), min_size=0, max_size=100))
    def test_perfect_predictions_have_zero_rate(self, outcomes):
        arr = np.array(outcomes, dtype=bool)
        r = SimulationResult("p", "t", arr.copy(), arr)
        assert r.misprediction_rate == 0.0

    @given(outcomes=st.lists(st.booleans(), min_size=1, max_size=100))
    def test_inverted_predictions_have_rate_one(self, outcomes):
        arr = np.array(outcomes, dtype=bool)
        r = SimulationResult("p", "t", ~arr, arr)
        assert r.misprediction_rate == 1.0


class TestWarmStartProperties:
    @given(
        outcomes=st.lists(st.booleans(), min_size=1, max_size=150),
        bits=st.integers(1, 12),
        initial=st.integers(0, (1 << 12) - 1),
    )
    def test_history_stream_with_initial_matches_register(
        self, outcomes, bits, initial
    ):
        initial &= (1 << bits) - 1
        stream = global_history_stream(
            np.array(outcomes, dtype=bool), bits, initial=initial
        )
        ghr = GlobalHistoryRegister(bits, value=initial)
        for t, taken in enumerate(outcomes):
            assert stream[t] == ghr.value
            ghr.push(taken)

    @given(trace=traces(min_size=2), split=st.floats(0.1, 0.9))
    @settings(max_examples=20, deadline=None)
    def test_split_simulation_equals_full(self, trace, split):
        point = max(1, min(len(trace) - 1, int(len(trace) * split)))
        for spec in ("gshare:index=6,hist=6", "bimode:dir=5,hist=5,choice=5"):
            full = run(make_predictor(spec), trace).predictions
            p = make_predictor(spec)
            a = run(p, trace[:point]).predictions
            b = run(p, trace[point:], reset=False).predictions
            assert np.array_equal(np.concatenate([a, b]), full), spec


class TestCheckpointProperties:
    @given(trace=traces(min_size=1))
    @settings(max_examples=15, deadline=None)
    def test_state_roundtrip_is_identity(self, trace):
        import json

        from repro.core.checkpoint import predictor_state, restore_state

        for spec in ("gshare:index=6,hist=6", "yags:choice=6,cache=4"):
            p = make_predictor(spec)
            run(p, trace)
            snapshot = json.loads(json.dumps(predictor_state(p)))
            q = make_predictor(spec)
            restore_state(q, snapshot)
            assert predictor_state(q) == predictor_state(p), spec
