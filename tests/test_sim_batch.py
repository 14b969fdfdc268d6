"""Equivalence tests for the compiled gshare kernels.

The scalar step interface (:func:`repro.sim.engine.run_steps`) is the
semantic reference; every lane of the fused family pass
(:func:`gshare_family_rates`) and of the attribution pass
(:func:`gshare_lane_detailed`) must match it bit-for-bit — predictions
and rates — including degenerate histories and traces.
"""

import numpy as np
import pytest

from repro.predictors.gshare import GSharePredictor
from repro.sim import _cstep
from repro.sim.batch import (
    GShareLane,
    gshare_family_rates,
    gshare_lane_detailed,
    lane_for_spec,
)
from repro.sim.engine import run_steps
from tests.conftest import make_toy_trace, make_trace

needs_cc = pytest.mark.skipif(not _cstep.available(), reason="no C compiler")


def assert_lanes_match(lanes, trace):
    """Fused rates, attribution predictions and counter ids of every
    lane equal the scalar reference's."""
    rates = gshare_family_rates(lanes, trace)
    for lane, rate in zip(lanes, rates):
        scalar = GSharePredictor(lane.index_bits, lane.history_bits)
        ref = run_steps(scalar, trace)
        preds, ids = gshare_lane_detailed(lane, trace)
        np.testing.assert_array_equal(preds, ref.predictions, err_msg=lane.spec)
        assert rate == ref.misprediction_rate, lane.spec
        scalar.reset()
        np.testing.assert_array_equal(ids, scalar.simulate_detailed(trace).counter_ids)


class TestGShareLane:
    def test_spec_round_trip(self):
        lane = GShareLane(index_bits=10, history_bits=4)
        assert lane.spec == "gshare:index=10,hist=4"
        assert lane_for_spec(lane.spec) == lane

    def test_table_size(self):
        assert GShareLane(index_bits=5, history_bits=0).table_size == 32

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            GShareLane(index_bits=-1, history_bits=0)

    def test_rejects_history_longer_than_index(self):
        with pytest.raises(ValueError):
            GShareLane(index_bits=4, history_bits=5)


class TestLaneForSpec:
    def test_plain_gshare(self):
        assert lane_for_spec("gshare:index=8,hist=3") == GShareLane(8, 3)

    def test_hist_defaults_to_index(self):
        assert lane_for_spec("gshare:index=8") == GShareLane(8, 8)

    @pytest.mark.parametrize(
        "spec",
        [
            "bimodal:index=8",
            "bimode:dir=7,hist=7,choice=7",
            "gshare:index=8,hist=3,extra=1",
            "gshare:hist=3",
            "gshare:index=4,hist=9",
            "gshare:index=x",
            "not a spec",
        ],
    )
    def test_rejects_non_batchable(self, spec):
        assert lane_for_spec(spec) is None


@needs_cc
class TestPredictionEquivalence:
    def test_every_lane_matches_run_steps(self, toy_trace):
        """All (index_bits, history_bits) lanes up to index 6, in one
        family, against the scalar reference."""
        assert_lanes_match([GShareLane(i, h) for i in range(7) for h in range(i + 1)], toy_trace)

    def test_workload_trace(self, small_workload):
        assert_lanes_match([GShareLane(10, h) for h in (0, 3, 7, 10)], small_workload)

    def test_zero_history(self, toy_trace):
        """history_bits=0 degenerates to per-PC bimodal."""
        assert_lanes_match([GShareLane(index_bits=6, history_bits=0)], toy_trace)

    def test_single_counter(self):
        """index_bits=0: every branch hammers one counter."""
        trace = make_trace([4, 8, 12, 4] * 50, [True, False, False, True] * 50)
        assert_lanes_match([GShareLane(index_bits=0, history_bits=0)], trace)

    @pytest.mark.parametrize(
        "outcomes",
        [
            [True] * 64,
            [False] * 64,
            [True, False] * 32,
            [True] * 32 + [False] * 32,
        ],
        ids=["all-taken", "all-not-taken", "alternating", "flip-once"],
    )
    def test_adversarial_outcome_patterns(self, outcomes):
        trace = make_trace([64 + 4 * (i % 3) for i in range(64)], outcomes)
        assert_lanes_match([GShareLane(2, 0), GShareLane(2, 2), GShareLane(4, 1)], trace)


@needs_cc
class TestEdgeCases:
    def test_empty_trace(self):
        trace = make_trace([], [])
        preds, ids = gshare_lane_detailed(GShareLane(4, 2), trace)
        assert preds.shape == ids.shape == (0,)
        assert gshare_family_rates([GShareLane(4, 2)], trace) == [0.0]

    def test_length_one(self):
        assert_lanes_match([GShareLane(4, 2)], make_trace([64], [False]))

    def test_length_two(self):
        assert_lanes_match([GShareLane(3, 3)], make_trace([64, 64], [False, True]))

    def test_no_lanes(self, toy_trace):
        assert gshare_family_rates([], toy_trace) == []

    def test_rates_match_predictions(self):
        """The fused rate pass agrees with counting mispredictions from
        the attribution pass."""
        trace = make_toy_trace(length=3000, seed=11)
        lanes = [GShareLane(i, h) for i in (3, 5, 8) for h in (0, i // 2, i)]
        for lane, rate in zip(lanes, gshare_family_rates(lanes, trace)):
            preds, _ = gshare_lane_detailed(lane, trace)
            assert rate == int((preds != trace.outcomes).sum()) / len(trace)
