"""Predictor size sweeps and the gshare.best search (paper Section 3).

Figures 2–4 plot misprediction against predictor cost for three curves:

* ``gshare.1PHT`` — gshare with history length = index length;
* ``gshare.best`` — for each size, the (history length, address length)
  pair minimizing the misprediction rate *averaged over the whole
  benchmark suite* (Section 3.1: "the configuration that yields the
  best accuracy for the average of all the benchmarks studied");
* ``bi-mode`` — direction banks at half the gshare size plus an
  equal-size choice predictor (total cost 1.5x the next smaller
  gshare, Section 3.3).

:func:`paper_sweep` computes all three series for a suite of traces,
memoizing every (spec, trace) cell through the
:class:`~repro.sim.runner.ResultCache`.

The heavy lifting is fused: the sweep planner (:mod:`repro.sim.fused`)
groups the whole spec grid into families — every gshare cell of a sweep
(the 1PHT points and the whole ``gshare.best`` candidate family) is one
family, every bi-mode cell another — and each family advances in a
single compiled pass over each trace with per-spec in-loop reduction
(the scalar predictors stand in on a host without a C compiler).  The
(spec, benchmark) matrix can be split across worker processes with
``jobs`` / ``$REPRO_JOBS`` (:mod:`repro.sim.parallel`).  Every engine
returns bit-identical rates to the scalar reference (asserted by the
equivalence suites and :mod:`repro.verify`), so cached cells mix
freely with freshly computed ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.hardware import PAPER_SIZE_POINTS_KB, HardwareBudget
from repro.core.registry import make_predictor
from repro.sim.runner import ResultCache, evaluate_matrix
from repro.traces.record import BranchTrace

__all__ = [
    "SweepPoint",
    "SweepSeries",
    "gshare_1pht_spec",
    "gshare_spec",
    "bimode_spec",
    "best_gshare_at_size",
    "sweep_series",
    "paper_sweep",
]


@dataclass(frozen=True)
class SweepPoint:
    """One point on a misprediction-vs-size curve."""

    spec: str
    size_bytes: float
    per_benchmark: Dict[str, float]

    @property
    def size_kb(self) -> float:
        return self.size_bytes / 1024.0

    @property
    def average(self) -> float:
        """Arithmetic mean misprediction over the suite (the paper's
        `*-AVERAGE` curves)."""
        if not self.per_benchmark:
            return 0.0
        return sum(self.per_benchmark.values()) / len(self.per_benchmark)


@dataclass
class SweepSeries:
    """A labelled curve: points in ascending size order."""

    label: str
    points: List[SweepPoint] = field(default_factory=list)

    def sizes_kb(self) -> List[float]:
        return [p.size_kb for p in self.points]

    def averages(self) -> List[float]:
        return [p.average for p in self.points]

    def benchmark_rates(self, benchmark: str) -> List[float]:
        return [p.per_benchmark[benchmark] for p in self.points]


def gshare_spec(index_bits: int, history_bits: int) -> str:
    return f"gshare:index={index_bits},hist={history_bits}"


def gshare_1pht_spec(kbytes: float) -> str:
    """Single-PHT gshare consuming ``kbytes`` KB of counters."""
    index_bits = HardwareBudget(kbytes).index_bits
    return gshare_spec(index_bits, index_bits)


def bimode_spec(kbytes: float) -> str:
    """Bi-mode whose direction banks consume ``kbytes`` KB (choice adds 50 %)."""
    index_bits = HardwareBudget(kbytes).index_bits
    if index_bits < 1:
        raise ValueError(f"{kbytes} KB cannot be split into two direction banks")
    bank_bits = index_bits - 1
    return f"bimode:dir={bank_bits},hist={bank_bits},choice={bank_bits}"


def _rates_by_spec(
    specs: Sequence[str],
    traces: Mapping[str, BranchTrace],
    cache: Optional[ResultCache],
    jobs: Optional[int] = None,
    journal=None,
) -> Dict[str, Dict[str, float]]:
    """``result[spec][bench]`` for the whole spec set, batched per trace.

    Raises ``RuntimeError`` naming the quarantined cells if any cell
    failed: a curve averaged over part of the suite is never returned.
    """
    matrix = evaluate_matrix(specs, traces, cache=cache, jobs=jobs, journal=journal)
    if matrix.failures:
        raise RuntimeError(
            f"sweep quarantined {len(matrix.failures)} task(s); refusing a "
            "partial-suite average: "
            + "; ".join(str(cell) for cell in matrix.failures)
        )
    return matrix


def _argmin_spec(
    specs: Sequence[str], matrix: Mapping[str, Dict[str, float]]
) -> Tuple[str, Dict[str, float]]:
    """First spec minimizing the suite average (ties keep earlier specs,
    matching the historical search order)."""
    best_spec = None
    best_avg = float("inf")
    for spec in specs:
        rates = matrix[spec]
        avg = sum(rates.values()) / len(rates)
        if avg < best_avg:
            best_spec, best_avg = spec, avg
    assert best_spec is not None
    return best_spec, matrix[best_spec]


def _candidate_specs(
    kbytes: float, history_candidates: Optional[Sequence[int]]
) -> List[str]:
    """In-range gshare candidate specs for one size, in search order."""
    index_bits = HardwareBudget(kbytes).index_bits
    if history_candidates is None:
        history_candidates = range(index_bits + 1)
    return [
        gshare_spec(index_bits, h)
        for h in history_candidates
        if 0 <= h <= index_bits
    ]


def best_gshare_at_size(
    kbytes: float,
    traces: Dict[str, BranchTrace],
    cache: Optional[ResultCache] = None,
    history_candidates: Optional[Sequence[int]] = None,
    jobs: Optional[int] = None,
) -> Tuple[str, Dict[str, float]]:
    """Exhaustive history-length search for gshare at one size.

    Tries every history length in ``history_candidates`` (default: all
    of ``0..index_bits``) and returns the spec minimizing the suite
    average, with its per-benchmark rates.  All candidates are simulated
    in one fused gshare family pass per trace (see :mod:`repro.sim.batch`)
    rather than one full trace pass per history length.
    """
    if not traces:
        raise ValueError("need at least one trace")
    specs = _candidate_specs(kbytes, history_candidates)
    if not specs:
        raise ValueError(f"no in-range history candidates for {kbytes} KB")
    matrix = _rates_by_spec(specs, traces, cache, jobs=jobs)
    return _argmin_spec(specs, matrix)


def sweep_series(
    label: str,
    specs_by_size: Iterable[Tuple[str, Dict[str, float]]],
) -> SweepSeries:
    """Assemble a series from (spec, per-benchmark rates) pairs."""
    series = SweepSeries(label=label)
    for spec, rates in specs_by_size:
        size_bytes = make_predictor(spec).size_bytes()
        series.points.append(
            SweepPoint(spec=spec, size_bytes=size_bytes, per_benchmark=rates)
        )
    series.points.sort(key=lambda p: p.size_bytes)
    return series


def paper_sweep(
    traces: Dict[str, BranchTrace],
    kb_points: Sequence[float] = PAPER_SIZE_POINTS_KB,
    cache: Optional[ResultCache] = None,
    jobs: Optional[int] = None,
    journal=None,
) -> Dict[str, SweepSeries]:
    """The three curves of Figures 2–4 for one benchmark suite.

    Returns ``{"gshare.1PHT": ..., "gshare.best": ..., "bi-mode": ...}``.
    The bi-mode series uses direction banks sized to each KB point, so
    its actual cost (reported per point) is 1.5x the label size.

    All cells of all sizes are evaluated as one (spec, benchmark)
    matrix: gshare cells batch through the multi-lane kernel, and
    ``jobs`` (default: ``$REPRO_JOBS``) splits benchmarks across worker
    processes.  Rates are bit-identical to evaluating each cell with the
    scalar engine.  ``journal`` (a
    :class:`repro.sim.journal.SweepJournal`) makes the sweep resumable
    after a crash or interrupt: completed cells are appended as they
    finish and never re-simulated on the next run.
    """
    candidates = {kbytes: _candidate_specs(kbytes, None) for kbytes in kb_points}
    all_specs: List[str] = []
    for kbytes in kb_points:
        all_specs.append(gshare_1pht_spec(kbytes))
        all_specs.extend(candidates[kbytes])
        all_specs.append(bimode_spec(kbytes))
    matrix = _rates_by_spec(
        list(dict.fromkeys(all_specs)), traces, cache, jobs=jobs, journal=journal
    )

    one_pht = []
    best = []
    bimode = []
    for kbytes in kb_points:
        spec = gshare_1pht_spec(kbytes)
        one_pht.append((spec, matrix[spec]))
        best.append(_argmin_spec(candidates[kbytes], matrix))
        bspec = bimode_spec(kbytes)
        bimode.append((bspec, matrix[bspec]))
    return {
        "gshare.1PHT": sweep_series("gshare.1PHT", one_pht),
        "gshare.best": sweep_series("gshare.best", best),
        "bi-mode": sweep_series("bi-mode", bimode),
    }
