"""The bi-mode update rule of Section 2, written out as a truth table.

Every single-branch step from every preloaded state — 4 choice x 4
taken-bank x 4 not-taken-bank states x 2 outcomes = 128 rows — with the
expected prediction and next state taken from the paper's prose, not
from any implementation: the choice counter selects the bank, the
selected bank's counter predicts, only the selected bank trains
(partial update), and the choice counter trains unless it chose wrongly
while the selected bank was right.  The compiled pair loop, a one-lane
compiled family pass, the scalar predictor (step and batch loops) and
the dict oracle all answer to it.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.bimode import BiModePredictor
from repro.sim import _cstep
from repro.traces.record import BranchTrace
from repro.verify.oracle import _OBimode

ROWS = list(itertools.product(range(4), range(4), range(4), (False, True)))
PC = 0x40


def _train(state: int, taken: bool) -> int:
    return min(3, state + 1) if taken else max(0, state - 1)


def expected_step(choice, taken_bank, not_taken_bank, outcome):
    """``(prediction, (choice', taken_bank', not_taken_bank'))`` per the paper."""
    choose_taken = choice >= 2
    prediction = (taken_bank if choose_taken else not_taken_bank) >= 2
    if choose_taken:
        taken_bank = _train(taken_bank, outcome)
    else:
        not_taken_bank = _train(not_taken_bank, outcome)
    if not (choose_taken != outcome and prediction == outcome):
        choice = _train(choice, outcome)
    return prediction, (choice, taken_bank, not_taken_bank)


def _scalar(c, t, n, outcome, batch):
    p = BiModePredictor(direction_index_bits=0, history_bits=0, choice_index_bits=0)
    p.choice.fill([c])
    p.taken_bank.fill([t])
    p.not_taken_bank.fill([n])
    if batch:
        trace = BranchTrace(pcs=np.array([PC], dtype=np.int64), outcomes=np.array([outcome]))
        prediction = bool(p.simulate(trace).predictions[0])
    else:
        prediction = p.predict(PC)
        p.update(PC, outcome)
    return prediction, (p.choice.states[0], p.taken_bank.states[0], p.not_taken_bank.states[0])


def _oracle(c, t, n, outcome):
    o = _OBimode(BiModePredictor(direction_index_bits=0, history_bits=0, choice_index_bits=0))
    o.choice[0], o.tk[0], o.nt[0] = c, t, n
    prediction = o.predict(PC)
    o.update(PC, outcome)
    return prediction, (o.choice[0], o.tk[0], o.nt[0])


def _pair(c, t, n, outcome):
    nt, tk, choice = (np.array([s], dtype=np.int8) for s in (n, t, c))
    zero = np.zeros(1, dtype=np.int32)
    out = np.array([outcome], dtype=np.uint8)
    preds = _cstep.bimode_pair(zero, zero, out, nt, tk, choice, False)
    return bool(preds[0]), (int(choice[0]), int(tk[0]), int(nt[0]))


def _fused(c, t, n, outcome):
    tables = np.array([n, t, c], dtype=np.int8)  # [not-taken | taken | choice]
    zero, one, two = (np.array([v], dtype=np.int64) for v in (0, 1, 2))
    # all masks 0: one counter per table; partial update
    miss = _cstep.bimode_fused(
        np.array([PC], dtype=np.int64), np.array([outcome], dtype=np.uint8),
        zero, zero, zero, zero, np.zeros(1, dtype=np.uint8), zero, one, two, tables,
    )
    prediction = outcome if miss[0] == 0 else not outcome
    return prediction, (int(tables[2]), int(tables[1]), int(tables[0]))


IMPLEMENTATIONS = {
    "scalar-step": lambda *row: _scalar(*row, batch=False),
    "scalar-simulate": lambda *row: _scalar(*row, batch=True),
    "oracle": _oracle,
    "c-pair": _pair,
    "c-fused": _fused,
}


def test_partial_update_exception_is_exercised():
    """Rows where the choice counter could move but the rule holds it."""
    held = [r for r in ROWS if expected_step(*r)[1][0] == r[0] != _train(r[0], r[3])]
    assert len(ROWS) == 128 and 0 < len(held) < 128


@pytest.mark.parametrize("impl", list(IMPLEMENTATIONS))
def test_update_rule_truth_table(impl):
    if impl.startswith("c-") and not _cstep.available():
        pytest.skip("no C compiler")
    step = IMPLEMENTATIONS[impl]
    wrong = [
        f"choice={c} taken={t} not_taken={n} outcome={o}: want {want}, got {got}"
        for c, t, n, o in ROWS
        for want, got in [(expected_step(c, t, n, o), step(c, t, n, o))]
        if (bool(got[0]), tuple(got[1])) != want
    ]
    assert not wrong, "\n".join(wrong)
