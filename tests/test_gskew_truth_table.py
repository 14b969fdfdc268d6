"""The e-gskew update rule, written out as a truth table.

Every single-branch step from every preloaded state — 4 x 4 x 4 bank
states x 2 outcomes x 2 update policies = 256 rows — with the expected
prediction and next state taken from the rule as the predictor's
documentation states it, not from any implementation: the three banks
vote by majority; under ``enhanced`` a correct prediction trains only
the banks that voted with the majority, while a misprediction trains
all three; under ``total`` all three banks always train.  The compiled
lane loop, the scalar predictor (step, batch and detailed loops) and the
dict oracle all answer to it.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.predictors.gskew import GSkewPredictor
from repro.sim import _cstep
from repro.traces.record import BranchTrace
from repro.verify.oracle import _OGSkew

POLICIES = ("enhanced", "total")
ROWS = list(
    itertools.product(POLICIES, range(4), range(4), range(4), (False, True))
)
PC = 0x40


def _train(state: int, taken: bool) -> int:
    return min(3, state + 1) if taken else max(0, state - 1)


def expected_step(policy, s0, s1, s2, outcome):
    """``(prediction, (bank0', bank1', bank2'))`` per the stated rule."""
    states = (s0, s1, s2)
    votes = [s >= 2 for s in states]
    majority = sum(votes) >= 2
    train_all = policy == "total" or majority != outcome
    return majority, tuple(
        _train(s, outcome) if train_all or vote == majority else s
        for s, vote in zip(states, votes)
    )


def _predictor(policy, states):
    # zero index bits: every bank is one counter, every index is 0
    p = GSkewPredictor(bank_index_bits=0, history_bits=0, update_policy=policy)
    for bank, state in zip(p.banks, states):
        bank.fill([state])
    return p


def _scalar(policy, s0, s1, s2, outcome, mode):
    p = _predictor(policy, (s0, s1, s2))
    trace = BranchTrace(pcs=np.array([PC], dtype=np.int64), outcomes=np.array([outcome]))
    if mode == "step":
        prediction = p.predict(PC)
        p.update(PC, outcome)
    elif mode == "simulate":
        prediction = bool(p.simulate(trace).predictions[0])
    else:
        prediction = bool(p.simulate_detailed(trace).result.predictions[0])
    return prediction, tuple(int(bank.states[0]) for bank in p.banks)


def _oracle(policy, s0, s1, s2, outcome):
    o = _OGSkew(GSkewPredictor(bank_index_bits=0, history_bits=0, update_policy=policy))
    for bank, state in zip(o.banks, (s0, s1, s2)):
        bank[0] = state
    prediction = o.predict(PC)
    o.update(PC, outcome)
    return prediction, tuple(bank[0] for bank in o.banks)


def _lane(policy, s0, s1, s2, outcome):
    banks = np.array([[s0], [s1], [s2]], dtype=np.int8)
    preds = _cstep.gskew_lane(
        np.array([PC], dtype=np.int64),
        np.array([outcome], dtype=np.uint8),
        0,
        0,
        policy == "enhanced",
        banks,
    )
    return bool(preds[0]), tuple(int(s) for s in banks[:, 0])


IMPLEMENTATIONS = {
    "scalar-step": lambda *row: _scalar(*row, mode="step"),
    "scalar-simulate": lambda *row: _scalar(*row, mode="simulate"),
    "scalar-detailed": lambda *row: _scalar(*row, mode="detailed"),
    "oracle": _oracle,
    "c-lane": _lane,
}


def test_partial_update_is_exercised():
    """Rows where enhanced and total disagree: a correct prediction
    leaves a dissenting bank untouched under enhanced only."""
    held = [
        r[1:]
        for r in ROWS
        if r[0] == "enhanced" and expected_step(*r) != expected_step("total", *r[1:])
    ]
    assert len(ROWS) == 256 and 0 < len(held) < 128


@pytest.mark.parametrize("impl", list(IMPLEMENTATIONS))
def test_update_rule_truth_table(impl):
    if impl.startswith("c-") and not _cstep.available():
        pytest.skip("no C compiler")
    step = IMPLEMENTATIONS[impl]
    wrong = [
        f"update={pol} banks={s0},{s1},{s2} outcome={o}: want {want}, got {got}"
        for pol, s0, s1, s2, o in ROWS
        for want, got in [(expected_step(pol, s0, s1, s2, o), step(pol, s0, s1, s2, o))]
        if (bool(got[0]), tuple(got[1])) != want
    ]
    assert not wrong, "\n".join(wrong)
