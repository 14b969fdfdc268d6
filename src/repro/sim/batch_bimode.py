"""Compiled bi-mode kernels: the fused family pass and the attribution pass.

Why bi-mode cannot reuse a counter-major decomposition
------------------------------------------------------
gshare's per-counter access streams are known up front, because its
index streams depend only on resolved outcomes.  Bi-mode breaks this
with a feedback loop — which direction *bank* an access lands in
depends on the live choice-counter state, and whether the choice
counter trains depends on the selected bank's prediction (the
partial-update exception of Section 2.2).  The access-to-counter
mapping is itself a function of counter state, so the automaton is
genuinely sequential: ~10 integer operations per branch, run by a
compiled loop (:mod:`repro.sim._cstep`).

* :func:`bimode_family_rates` — the sweep kernel
  (:func:`repro.sim._cstep.bimode_fused`): every lane of a family in
  ONE pass over the raw trace, both index streams derived in-loop from
  one running 64-bit history register, reduced to per-lane
  misprediction counts.
* :func:`bimode_lane_detailed` — the Section-4 kernel
  (:func:`repro.sim._cstep.bimode_pair`): one lane over precomputed
  index streams, recording each access's prediction and selected bank.

Both need the compiled driver; :mod:`repro.sim.kernels` decides whether
it is available and otherwise runs the scalar
:class:`repro.core.bimode.BiModePredictor` instead.  Every path is
asserted bit-for-bit identical to the scalar predictor, to the dict
oracle (:mod:`repro.verify`) and to the paper's update rule written
out as a truth table (``tests/test_bimode_truth_table.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.counters import WEAKLY_NOT_TAKEN, WEAKLY_TAKEN
from repro.core.history import global_history_stream
from repro.core.indexing import gshare_index_stream, mask
from repro.core.registry import parse_spec
from repro.sim import _cstep
from repro.traces.record import BranchTrace

__all__ = [
    "BiModeLane",
    "bimode_lane_for_spec",
    "bimode_lane_detailed",
    "bimode_family_rates",
]


@dataclass(frozen=True)
class BiModeLane:
    """One bi-mode configuration inside a batch."""

    dir_bits: int
    hist_bits: int
    choice_bits: int
    full_update: bool = False
    choice_uses_history: bool = False

    def __post_init__(self) -> None:
        if self.dir_bits < 0:
            raise ValueError(f"dir_bits must be >= 0, got {self.dir_bits}")
        if not 0 <= self.hist_bits <= self.dir_bits:
            raise ValueError(
                f"hist_bits ({self.hist_bits}) must be in [0, {self.dir_bits}]"
            )
        if self.choice_bits < 0:
            raise ValueError(f"choice_bits must be >= 0, got {self.choice_bits}")

    @property
    def spec(self) -> str:
        """The registry spec string naming this configuration."""
        parts = [f"dir={self.dir_bits}", f"hist={self.hist_bits}", f"choice={self.choice_bits}"]
        if self.full_update:
            parts.append("full_update=1")
        if self.choice_uses_history:
            parts.append("choice_hist=1")
        return "bimode:" + ",".join(parts)

    @property
    def bank_size(self) -> int:
        """Counters per direction bank."""
        return 1 << self.dir_bits

    @property
    def choice_size(self) -> int:
        return 1 << self.choice_bits

    @property
    def choice_hist_bits(self) -> int:
        """History bits folded into the choice index (0 unless the
        ``choice_hist`` ablation is on)."""
        return min(self.hist_bits, self.choice_bits) if self.choice_uses_history else 0


def bimode_lane_for_spec(spec: str) -> Optional[BiModeLane]:
    """Parse a spec string into a lane, or ``None`` if it is not a
    bi-mode configuration the batch kernel can simulate."""
    try:
        scheme, kwargs = parse_spec(spec)
    except ValueError:
        return None
    allowed = {"dir", "hist", "choice", "full_update", "choice_hist"}
    if scheme != "bimode" or not set(kwargs) <= allowed or "dir" not in kwargs:
        return None
    try:
        dir_bits = int(kwargs["dir"])
        hist_bits = int(kwargs.get("hist", dir_bits))
        choice_bits = int(kwargs.get("choice", dir_bits))
        full_update = bool(int(kwargs.get("full_update", 0)))
        choice_hist = bool(int(kwargs.get("choice_hist", 0)))
    except ValueError:
        return None
    if dir_bits < 0 or choice_bits < 0 or not 0 <= hist_bits <= dir_bits:
        return None
    return BiModeLane(
        dir_bits=dir_bits,
        hist_bits=hist_bits,
        choice_bits=choice_bits,
        full_update=full_update,
        choice_uses_history=choice_hist,
    )


def bimode_lane_detailed(
    lane: BiModeLane,
    trace: BranchTrace,
    hist_cache: Optional[Dict[int, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-access ``(predictions, counter_ids)`` of one lane (Section 4).

    Counter ids follow the scalar convention of
    ``BiModePredictor.simulate_detailed``: the selected direction
    counter's index, with taken-bank accesses offset by ``bank_size``
    (so the id space has ``2 * bank_size`` counters).  ``hist_cache``
    (``{hist_bits: stream}``) shares history streams across the lanes
    of one family.
    """
    n = len(trace)
    if n == 0:
        return np.empty(0, dtype=bool), np.empty(0, dtype=np.int64)
    if hist_cache is None:
        hist_cache = {}
    if lane.hist_bits not in hist_cache:
        hist_cache[lane.hist_bits] = global_history_stream(trace.outcomes, lane.hist_bits)
    histories = hist_cache[lane.hist_bits]
    di = gshare_index_stream(
        trace.pcs, histories, lane.dir_bits, lane.hist_bits
    ).astype(np.int32)
    ci = gshare_index_stream(
        trace.pcs, histories, lane.choice_bits, lane.choice_hist_bits
    ).astype(np.int32)
    nt = np.full(lane.bank_size, WEAKLY_NOT_TAKEN, dtype=np.int8)
    tk = np.full(lane.bank_size, WEAKLY_TAKEN, dtype=np.int8)
    choice = np.full(lane.choice_size, WEAKLY_TAKEN, dtype=np.int8)
    banks = np.empty(n, dtype=np.uint8)
    preds = _cstep.bimode_pair(
        ci,
        di,
        np.ascontiguousarray(trace.outcomes).view(np.uint8),
        nt,
        tk,
        choice,
        lane.full_update,
        banks,
    )
    # Global counter id: taken-bank accesses live in the upper half.
    ids = di.astype(np.int64) + banks.astype(np.int64) * lane.bank_size
    return preds.view(bool), ids


def bimode_family_rates(
    lanes: Sequence[BiModeLane], trace: BranchTrace
) -> List[float]:
    """Misprediction rate of every lane via the fused single-pass driver.

    The compiled driver (:func:`repro.sim._cstep.bimode_fused`) keeps
    every lane's three tables in a shared arena, derives both index
    streams in-loop from one running 64-bit history register (each lane
    masks its own widths), and reduces to per-lane misprediction counts
    without materializing index streams or predictions.  Rates agree
    byte for byte with ``run(make_predictor(spec), trace)``.
    """
    lanes = list(lanes)
    n = len(trace)
    if n == 0:
        return [0.0] * len(lanes)
    P = len(lanes)
    dmask = np.array([mask(lane.dir_bits) for lane in lanes], dtype=np.int64)
    dhmask = np.array([mask(lane.hist_bits) for lane in lanes], dtype=np.int64)
    cmask = np.array([mask(lane.choice_bits) for lane in lanes], dtype=np.int64)
    chmask = np.array([mask(lane.choice_hist_bits) for lane in lanes], dtype=np.int64)
    full_update = np.array([lane.full_update for lane in lanes], dtype=np.uint8)
    nt_base = np.empty(P, dtype=np.int64)
    tk_base = np.empty(P, dtype=np.int64)
    choice_base = np.empty(P, dtype=np.int64)
    total = 0
    for j, lane in enumerate(lanes):
        nt_base[j] = total
        tk_base[j] = total + lane.bank_size
        choice_base[j] = total + 2 * lane.bank_size
        total += 2 * lane.bank_size + lane.choice_size
    # Every table powers on weakly taken except the not-taken banks.
    tables = np.full(total, WEAKLY_TAKEN, dtype=np.int8)
    for j, lane in enumerate(lanes):
        tables[nt_base[j] : tk_base[j]] = WEAKLY_NOT_TAKEN
    miss = _cstep.bimode_fused(
        np.ascontiguousarray(trace.pcs, dtype=np.int64),
        np.ascontiguousarray(trace.outcomes).view(np.uint8),
        dmask,
        dhmask,
        cmask,
        chmask,
        full_update,
        nt_base,
        tk_base,
        choice_base,
        tables,
    )
    return [int(m) / n for m in miss]
