"""Equivalence suite for the bi-mode kernels.

Every bi-mode spec, run through the kernel registry under each engine
``REPRO_KERNEL`` selects — ``c``: the fused family pass
(:func:`bimode_family_rates`) and the attribution pass
(:func:`bimode_lane_detailed`); ``scalar``: the fallback — must be
bit-for-bit identical to the scalar
:class:`repro.core.bimode.BiModePredictor`: same per-branch
predictions, same counter ids, same integer miss counts — across
ablation knobs, degenerate table sizes, and degenerate traces.  The
paper's update rule itself is pinned down separately, as a truth
table, in ``tests/test_bimode_truth_table.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.registry import make_predictor
from repro.sim import _cstep, kernels
from repro.sim import batch_bimode as bb
from repro.sim.engine import run
from repro.traces.record import BranchTrace

from .conftest import make_toy_trace

SPECS = [
    "bimode:dir=6,hist=4,choice=5",
    "bimode:dir=8,hist=8,choice=8",
    "bimode:dir=3,hist=0,choice=2",
    "bimode:dir=5,hist=5,choice=3,full_update=1",
    "bimode:dir=6,hist=6,choice=4,choice_hist=1",
    "bimode:dir=7,hist=3,choice=6,full_update=1,choice_hist=1",
]

DEGENERATE_SPECS = [
    "bimode:dir=0,hist=0,choice=0",  # 1-entry banks and 1-entry choice
    "bimode:dir=4,hist=2,choice=0",  # 1-entry choice table only
    "bimode:dir=0,hist=0,choice=3",  # 1-entry banks only
]


def _lanes(specs):
    lanes = [bb.bimode_lane_for_spec(s) for s in specs]
    assert all(lane is not None for lane in lanes)
    return lanes


def _assert_matches_scalar(specs, trace):
    """Family rates, attribution predictions and counter ids of every
    spec equal the scalar predictor's."""
    rates = kernels.family_rates("bimode", specs, _lanes(specs), trace)
    rows = kernels.family_detailed("bimode", specs, _lanes(specs), trace)
    for spec, rate, (preds, ids, num) in zip(specs, rates, rows):
        expected = make_predictor(spec).simulate_detailed(trace)
        assert rate == run(make_predictor(spec), trace).misprediction_rate, spec
        diverging = np.flatnonzero(preds != expected.result.predictions)
        assert diverging.size == 0, f"{spec}: first divergence at {diverging[:1]}"
        assert np.array_equal(ids, expected.counter_ids), spec
        assert num == expected.num_counters, spec


@pytest.mark.parametrize("engine", ["c", "scalar"])
class TestBitExactness:
    @pytest.fixture(autouse=True)
    def _engine(self, engine, monkeypatch):
        if engine == "c" and not _cstep.available():
            pytest.skip("no C compiler")
        monkeypatch.setenv("REPRO_KERNEL", engine)

    def test_rates_match_scalar_engine(self, toy_trace):
        _assert_matches_scalar(SPECS, toy_trace)

    def test_predictions_match_scalar_predictor(self):
        _assert_matches_scalar(SPECS, make_toy_trace(length=1500, seed=11, num_branches=40))

    def test_degenerate_table_sizes(self):
        trace = make_toy_trace(length=800, seed=3, num_branches=12)
        _assert_matches_scalar(DEGENERATE_SPECS, trace)

    def test_empty_trace(self):
        empty = BranchTrace(
            pcs=np.empty(0, dtype=np.int64), outcomes=np.empty(0, dtype=bool)
        )
        assert kernels.family_rates("bimode", SPECS, _lanes(SPECS), empty) == [0.0] * len(SPECS)
        _assert_matches_scalar(SPECS, empty)

    def test_single_branch_trace(self):
        one = BranchTrace(
            pcs=np.array([24], dtype=np.int64), outcomes=np.array([True])
        )
        _assert_matches_scalar(SPECS, one)
        # power-on state predicts taken (taken bank starts weakly taken)
        for preds, _, _ in kernels.family_detailed("bimode", SPECS, _lanes(SPECS), one):
            assert preds.all()

    def test_matrix_rates_across_traces(self):
        """One family, several traces of different lengths: every cell
        is its own power-on run."""
        for trace in (
            make_toy_trace(length=900, seed=5),
            make_toy_trace(length=1300, seed=6, num_branches=48),
        ):
            _assert_matches_scalar(SPECS[:3], trace)


class TestLaneParsing:
    def test_round_trip_spec(self):
        for spec in SPECS + DEGENERATE_SPECS:
            lane = bb.bimode_lane_for_spec(spec)
            assert lane is not None
            assert bb.bimode_lane_for_spec(lane.spec) == lane

    def test_defaults_follow_dir_bits(self):
        lane = bb.bimode_lane_for_spec("bimode:dir=9")
        assert lane == bb.BiModeLane(dir_bits=9, hist_bits=9, choice_bits=9)

    @pytest.mark.parametrize(
        "spec",
        [
            "gshare:index=10,hist=10",  # not bi-mode
            "bimode:hist=4",  # dir missing
            "bimode:dir=4,hist=6",  # hist > dir
            "bimode:dir=-1",  # negative
            "bimode:dir=4,meta=3",  # unknown knob
            "not a spec",
        ],
    )
    def test_rejects_non_kernel_specs(self, spec):
        assert bb.bimode_lane_for_spec(spec) is None

    def test_lane_validation(self):
        with pytest.raises(ValueError):
            bb.BiModeLane(dir_bits=4, hist_bits=6, choice_bits=4)
        with pytest.raises(ValueError):
            bb.BiModeLane(dir_bits=-1, hist_bits=0, choice_bits=0)
