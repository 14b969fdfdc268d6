"""Compiled gshare kernels: the fused family pass and the attribution pass.

The paper's ``gshare.best`` search (Section 3.1) simulates every history
length ``0..index_bits`` at each predictor size — a dozen-plus full
trace passes per (size, benchmark) cell through the scalar per-branch
loop.  This module collapses that family into one compiled pass.

Lane model
----------
Lane ``k`` is a ``(index_bits_k, history_bits_k)`` gshare sharing one
trace with every other lane.  All lanes observe the same global-history
contents (only the masked widths differ) and index with the same
``(pc & imask) ^ (h & hmask)`` form, so one 64-bit history register and
one pass over the raw ``(pc, outcome)`` stream serves the whole family;
each lane's PHT is its own slab of a shared counter arena.

* :func:`gshare_family_rates` — the sweep kernel
  (:func:`repro.sim._cstep.gshare_fused`): per-lane misprediction counts
  reduced in-loop, never materializing index streams or predictions.
* :func:`gshare_lane_detailed` — the Section-4 kernel
  (:func:`repro.sim._cstep.gshare_detailed`): one lane's per-access
  predictions plus the counter id each access read, which for gshare
  is the precomputed index stream itself.

Both need the compiled driver; :mod:`repro.sim.kernels` decides whether
it is available and otherwise runs the scalar
:class:`~repro.predictors.gshare.GSharePredictor` instead.  Results are
bit-for-bit identical to the scalar step interface
(:func:`repro.sim.engine.run_steps`); the equivalence suite asserts it
lane by lane.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.counters import WEAKLY_TAKEN
from repro.core.history import global_history_stream
from repro.core.indexing import gshare_index_stream
from repro.core.registry import parse_spec
from repro.sim import _cstep
from repro.traces.record import BranchTrace

__all__ = [
    "GShareLane",
    "lane_for_spec",
    "gshare_lane_detailed",
    "gshare_family_rates",
]


@dataclass(frozen=True)
class GShareLane:
    """One gshare configuration inside a batch."""

    index_bits: int
    history_bits: int

    def __post_init__(self) -> None:
        if self.index_bits < 0:
            raise ValueError(f"index_bits must be >= 0, got {self.index_bits}")
        if not 0 <= self.history_bits <= self.index_bits:
            raise ValueError(
                f"history_bits ({self.history_bits}) must be in [0, {self.index_bits}]"
            )

    @property
    def spec(self) -> str:
        """The registry spec string naming this configuration."""
        return f"gshare:index={self.index_bits},hist={self.history_bits}"

    @property
    def table_size(self) -> int:
        return 1 << self.index_bits


def lane_for_spec(spec: str) -> Optional[GShareLane]:
    """Parse a spec string into a lane, or ``None`` if it is not a plain
    gshare configuration the batch kernel can simulate."""
    try:
        scheme, kwargs = parse_spec(spec)
    except ValueError:
        return None
    if scheme != "gshare" or not set(kwargs) <= {"index", "hist"} or "index" not in kwargs:
        return None
    try:
        index_bits = int(kwargs["index"])
        history_bits = int(kwargs.get("hist", index_bits))
    except ValueError:
        return None
    if index_bits < 0 or not 0 <= history_bits <= index_bits:
        return None
    return GShareLane(index_bits=index_bits, history_bits=history_bits)


def gshare_lane_detailed(
    lane: GShareLane,
    trace: BranchTrace,
    hist_cache: Optional[Dict[int, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-access ``(predictions, counter_ids)`` of one lane (Section 4).

    The counter id of an access is its PHT index, so the attribution is
    the index stream the compiled loop walks.  Bit-for-bit what
    ``GSharePredictor.simulate_detailed`` records from power-on state.
    ``hist_cache`` (``{history_bits: stream}``) shares history streams
    across the lanes of one family.
    """
    if len(trace) == 0:
        return np.empty(0, dtype=bool), np.empty(0, dtype=np.int64)
    if hist_cache is None:
        hist_cache = {}
    if lane.history_bits not in hist_cache:
        hist_cache[lane.history_bits] = global_history_stream(
            trace.outcomes, lane.history_bits
        )
    keys = gshare_index_stream(
        trace.pcs, hist_cache[lane.history_bits], lane.index_bits, lane.history_bits
    ).astype(np.int32)
    table = np.full(lane.table_size, WEAKLY_TAKEN, dtype=np.int8)
    preds = _cstep.gshare_detailed(
        keys, np.ascontiguousarray(trace.outcomes).view(np.uint8), table
    )
    return preds.view(bool), keys.astype(np.int64)


def gshare_family_rates(
    lanes: Sequence[GShareLane], trace: BranchTrace
) -> List[float]:
    """Misprediction rate of every lane via the fused single-pass driver.

    The whole lane family advances in ONE pass over the trace: the
    compiled driver (:func:`repro.sim._cstep.gshare_fused`) keeps every
    lane's PHT in a shared arena and reduces to per-lane misprediction
    counts in-loop.  Rates are mispredictions / branches with the same
    integer counts as the scalar engine, so they agree byte for byte.
    """
    lanes = list(lanes)
    n = len(trace)
    if n == 0:
        return [0.0] * len(lanes)
    sizes = np.array([lane.table_size for lane in lanes], dtype=np.int64)
    base = np.zeros(len(lanes), dtype=np.int64)
    base[1:] = np.cumsum(sizes)[:-1]
    imask = sizes - 1
    hmask = np.array([(1 << lane.history_bits) - 1 for lane in lanes], dtype=np.int64)
    tables = np.full(int(sizes.sum()), WEAKLY_TAKEN, dtype=np.int8)
    miss = _cstep.gshare_fused(
        np.ascontiguousarray(trace.pcs, dtype=np.int64),
        np.ascontiguousarray(trace.outcomes).view(np.uint8),
        imask,
        hmask,
        base,
        tables,
    )
    return [int(m) / n for m in miss]
