"""Substream bias analysis (paper Section 4.1–4.2).

The paper's analytical lens: the index function divides the dynamic
branch stream into *substreams* ``s_ij`` — the outcomes of static branch
``i`` that arrive at prediction counter ``j``.  Each substream is
classified by its taken rate:

* **ST** — strongly taken: taken >= 90 % of the time;
* **SNT** — strongly not-taken: taken <= 10 %;
* **WB** — weakly biased: everything else.

Per counter ``c`` the *normalized count* of a substream is its length
divided by the total accesses to ``c`` (Table 3).  The more frequent of
the two strong classes at a counter is its **dominant** class; the other
is **non-dominant**.  A good index function makes the WB area small
(enough history) *and* the non-dominant area small (no destructive
aliasing) — the paper's Figures 5 and 6 visualize exactly these areas,
which :func:`counter_bias_table` computes from a detailed simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.interfaces import DetailedSimulation

__all__ = [
    "ST",
    "SNT",
    "WB",
    "CLASS_NAMES",
    "BIAS_THRESHOLD",
    "THRESHOLD_EPS",
    "classify_rate",
    "SubstreamAnalysis",
    "analyze_substreams",
    "pc_code_stream",
    "counter_bias_table",
    "normalized_counts",
]

#: Bias-class codes (array-friendly small ints).
SNT = 0
ST = 1
WB = 2
CLASS_NAMES = {SNT: "SNT", ST: "ST", WB: "WB"}

#: The paper's strong-bias boundary: taken >= 90 % (ST) or <= 10 % (SNT).
BIAS_THRESHOLD = 0.9

#: Tolerance on the strong-bias boundaries, shared by the scalar
#: classifier and the vectorized one in :func:`analyze_substreams` so a
#: rate landing exactly on 0.9 / 0.1 can never classify differently
#: between the two paths.
THRESHOLD_EPS = 1e-12


def classify_rate(taken_rate: float, threshold: float = BIAS_THRESHOLD) -> int:
    """Bias class of a substream with the given taken rate."""
    if not 0.0 <= taken_rate <= 1.0:
        raise ValueError(f"taken_rate must be in [0, 1], got {taken_rate}")
    if taken_rate >= threshold - THRESHOLD_EPS:
        return ST
    if taken_rate <= (1.0 - threshold) + THRESHOLD_EPS:
        return SNT
    return WB


@dataclass
class SubstreamAnalysis:
    """Substream decomposition of one detailed simulation.

    Streams are the distinct ``(static branch, counter)`` pairs observed;
    arrays below are parallel, one entry per stream.

    Attributes
    ----------
    stream_counter:
        Counter id of each stream.
    stream_pc:
        Static branch PC of each stream.
    stream_total / stream_taken / stream_mispredicted:
        Outcome counts of each stream.
    stream_class:
        Bias class (``SNT``/``ST``/``WB``) of each stream.
    access_stream:
        For every dynamic branch, the index of its stream (maps
        per-access data onto stream attributes).
    counter_dominant:
        Per counter id, the dominant strong class (``ST`` or ``SNT``);
        ``-1`` for counters never accessed.  Ties break toward the class
        with more streams, then toward ST.
    num_counters:
        Size of the counter id space.
    """

    stream_counter: np.ndarray
    stream_pc: np.ndarray
    stream_total: np.ndarray
    stream_taken: np.ndarray
    stream_mispredicted: np.ndarray
    stream_class: np.ndarray
    access_stream: np.ndarray
    counter_dominant: np.ndarray
    num_counters: int

    @property
    def num_streams(self) -> int:
        return len(self.stream_counter)

    def stream_role(self) -> np.ndarray:
        """Per stream: 0=dominant, 1=non-dominant, 2=WB (w.r.t. its counter)."""
        role = np.full(self.num_streams, 2, dtype=np.int8)
        strong = self.stream_class != WB
        dominant_of_counter = self.counter_dominant[self.stream_counter]
        role[strong & (self.stream_class == dominant_of_counter)] = 0
        role[strong & (self.stream_class != dominant_of_counter)] = 1
        return role

    def access_class(self) -> np.ndarray:
        """Bias class of every dynamic branch's substream."""
        return self.stream_class[self.access_stream]

    def access_role(self) -> np.ndarray:
        """Dominance role of every dynamic branch's substream."""
        return self.stream_role()[self.access_stream]


_reference_reported = False


def _reductions():
    """The compiled Section-4 reductions (:mod:`repro.sim._cstep`), or
    ``None`` without a compiler.

    Callers then run the :mod:`repro.analysis.reference` formulations,
    bit-identical by the equivalence suite; the first such fallback in a
    process records one degraded :mod:`repro.health` event.
    """
    global _reference_reported
    from repro.sim import _cstep

    if _cstep.available():
        return _cstep
    if not _reference_reported:
        from repro import health

        _reference_reported = True
        health.emit(
            "section4-reduction",
            "c",
            "reference",
            reason=_cstep.unavailable_reason() or "",
            severity="degraded",
        )
    return None


def pc_code_stream(pcs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(unique_pcs, dense_codes)`` of a PC stream.

    ``dense_codes[t]`` is the rank of ``pcs[t]`` among the sorted
    distinct PCs — the static-branch half of every substream key.  The
    pair depends only on the trace, so sweeps running many predictor
    configurations over one trace compute it once and pass it to
    :func:`analyze_substreams` for every cell.
    """
    unique_pcs, dense = np.unique(pcs, return_inverse=True)
    return unique_pcs, np.ascontiguousarray(dense, dtype=np.int32)


def analyze_substreams(
    detailed: DetailedSimulation,
    threshold: float = BIAS_THRESHOLD,
    pc_codes: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> SubstreamAnalysis:
    """Decompose a detailed simulation into classified substreams.

    Substream grouping and the per-stream counts come from one compiled
    pass (a two-pass stable counting sort by (PC, counter), see
    :func:`repro.sim._cstep.substream_group`); without a compiler the
    ``np.unique`` formulation of :mod:`repro.analysis.reference` runs
    instead.  The equivalence suite asserts the two bit-identical.
    ``pc_codes`` (from :func:`pc_code_stream`) skips the per-trace PC
    dictionary pass when the caller sweeps one trace.
    """
    if detailed.pcs is None:
        raise ValueError("detailed simulation lacks per-access PCs")
    if not 0.5 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0.5, 1.0], got {threshold}")
    counter_ids = detailed.counter_ids
    num_counters = detailed.num_counters
    n = len(counter_ids)

    if n == 0:
        return SubstreamAnalysis(
            stream_counter=np.empty(0, dtype=np.int64),
            stream_pc=np.asarray(detailed.pcs)[:0],
            stream_total=np.empty(0, dtype=np.int64),
            stream_taken=np.empty(0, dtype=np.int64),
            stream_mispredicted=np.empty(0, dtype=np.int64),
            stream_class=np.empty(0, dtype=np.int8),
            access_stream=np.empty(0, dtype=np.int64),
            counter_dominant=np.full(num_counters, -1, dtype=np.int8),
            num_counters=num_counters,
        )
    driver = _reductions()
    if driver is None:
        from repro.analysis.reference import analyze_substreams_reference

        return analyze_substreams_reference(detailed, threshold=threshold)

    if pc_codes is None:
        pc_codes = pc_code_stream(detailed.pcs)
    unique_pcs, pc_dense = pc_codes
    # Substreams come back numbered in ascending (counter, pc) order —
    # exactly the ordering np.unique over composite keys yields.
    (
        access_stream,
        stream_counter32,
        stream_pc_idx,
        stream_total,
        stream_taken,
        stream_mispredicted,
    ) = driver.substream_group(
        np.ascontiguousarray(counter_ids, dtype=np.int32),
        pc_dense,
        np.ascontiguousarray(detailed.result.outcomes, dtype=np.uint8),
        np.ascontiguousarray(detailed.result.mispredicted, dtype=np.uint8),
        num_counters,
        len(unique_pcs),
    )
    stream_counter = stream_counter32.astype(np.int64)
    stream_pc = unique_pcs[stream_pc_idx]
    num_streams = len(stream_counter)

    rates = stream_taken / stream_total
    stream_class = np.full(num_streams, WB, dtype=np.int8)
    stream_class[rates >= threshold - THRESHOLD_EPS] = ST
    stream_class[rates <= (1.0 - threshold) + THRESHOLD_EPS] = SNT

    # dominant strong class per counter, by summed dynamic counts
    st_weight = np.bincount(
        stream_counter,
        weights=np.where(stream_class == ST, stream_total, 0).astype(np.float64),
        minlength=num_counters,
    )
    snt_weight = np.bincount(
        stream_counter,
        weights=np.where(stream_class == SNT, stream_total, 0).astype(np.float64),
        minlength=num_counters,
    )
    accessed = np.bincount(stream_counter, minlength=num_counters) > 0
    counter_dominant = np.full(num_counters, -1, dtype=np.int8)
    counter_dominant[accessed] = np.where(
        st_weight[accessed] >= snt_weight[accessed], ST, SNT
    )

    return SubstreamAnalysis(
        stream_counter=stream_counter,
        stream_pc=stream_pc,
        stream_total=stream_total,
        stream_taken=stream_taken,
        stream_mispredicted=stream_mispredicted,
        stream_class=stream_class,
        access_stream=access_stream,
        counter_dominant=counter_dominant,
        num_counters=num_counters,
    )


def normalized_counts(analysis: SubstreamAnalysis, counter: int) -> dict:
    """Table-3 style normalized counts for one counter.

    Returns ``{pc: (normalized_count, class_name)}`` for every substream
    incident on ``counter``.

    >>> # the paper's Table 3: four branches sharing counter c
    >>> import numpy as np
    >>> from repro.core.interfaces import DetailedSimulation, SimulationResult
    >>> pcs = [0x001]*12 + [0x005]*20 + [0x100]*8 + [0x150]*10
    >>> taken = [True]*11 + [False]*1 + [True]*1 + [False]*19 \\
    ...     + [True]*3 + [False]*5 + [True]*1 + [False]*9
    >>> detailed = DetailedSimulation(
    ...     result=SimulationResult("p", "t", np.zeros(50, bool), np.array(taken)),
    ...     counter_ids=np.zeros(50, int), num_counters=1, pcs=np.array(pcs))
    >>> counts = normalized_counts(analyze_substreams(detailed), 0)
    >>> counts[0x001]
    (0.24, 'ST')
    >>> counts[0x005]
    (0.4, 'SNT')
    >>> counts[0x100]
    (0.16, 'WB')
    >>> counts[0x150]
    (0.2, 'SNT')
    """
    members = analysis.stream_counter == counter
    total = analysis.stream_total[members].sum()
    if total == 0:
        return {}
    return {
        int(pc): (float(n / total), CLASS_NAMES[int(cls)])
        for pc, n, cls in zip(
            analysis.stream_pc[members],
            analysis.stream_total[members],
            analysis.stream_class[members],
        )
    }


def counter_bias_table(analysis: SubstreamAnalysis, sort_by_wb: bool = True) -> np.ndarray:
    """Figure 5/6 data: per accessed counter, the normalized dynamic
    counts of its dominant, non-dominant and WB substream groups.

    Returns an array of shape ``(accessed_counters, 3)`` with columns
    ``[dominant, non_dominant, wb]`` summing to 1 per row, sorted (by
    default) by ascending WB share — the x-axis ordering of the paper's
    figures.
    """
    role = analysis.stream_role()
    num_counters = analysis.num_counters
    weights = analysis.stream_total.astype(np.float64)
    columns = []
    for r in (0, 1, 2):
        columns.append(
            np.bincount(
                analysis.stream_counter,
                weights=np.where(role == r, weights, 0.0),
                minlength=num_counters,
            )
        )
    table = np.stack(columns, axis=1)
    totals = table.sum(axis=1)
    accessed = totals > 0
    table = table[accessed] / totals[accessed, None]
    if sort_by_wb:
        order = np.argsort(table[:, 2], kind="stable")
        table = table[order]
    return table
