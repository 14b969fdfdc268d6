"""Reference Section-4 analysis — the naive sort-based implementations.

The production analysis path (:mod:`repro.analysis.bias`,
:mod:`repro.analysis.interference`, :mod:`repro.analysis.aliasing`)
groups accesses into substreams with compiled counting-sort reductions
(:mod:`repro.sim._cstep`).  This module keeps the original
``np.unique`` / ``np.lexsort`` formulations — one obviously-correct
transcription of the paper's definitions per aggregate — for three jobs:

* **no-compiler fallback**: without a C compiler (or under
  ``REPRO_NO_CC=1``) :func:`repro.analysis.bias.analyze_substreams` and
  :func:`repro.analysis.interference.count_class_changes` run
  :func:`analyze_substreams_reference` and
  :func:`count_class_changes_reference`;
* **differential oracle**: the equivalence tests and
  :mod:`repro.verify` assert the compiled paths reproduce these
  bit-for-bit on every golden trace;
* **timing baseline**: ``benchmarks/measure_sweep_speedup.py`` measures
  the detailed-kernel pipeline against ``scalar simulation + reference
  analysis``, which is exactly what the Section-4 benches executed
  before the batched pipeline existed.

Nothing here is exported through the package's public analysis API;
import it explicitly.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.aliasing import AliasingStats, sharing_decomposition
from repro.analysis.bias import (
    BIAS_THRESHOLD,
    SNT,
    ST,
    THRESHOLD_EPS,
    WB,
    SubstreamAnalysis,
    counter_bias_table,
)
from repro.analysis.interference import ClassChangeCounts
from repro.core.interfaces import DetailedSimulation

__all__ = [
    "analyze_substreams_reference",
    "count_class_changes_reference",
    "aliasing_stats_reference",
    "summarize_detailed_reference",
]


def analyze_substreams_reference(
    detailed: DetailedSimulation, threshold: float = BIAS_THRESHOLD
) -> SubstreamAnalysis:
    """Substream decomposition via ``np.unique`` over composite keys."""
    if detailed.pcs is None:
        raise ValueError("detailed simulation lacks per-access PCs")
    if not 0.5 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0.5, 1.0], got {threshold}")
    counter_ids = detailed.counter_ids
    outcomes = detailed.result.outcomes
    mispredicted = detailed.result.mispredicted

    unique_pcs, pc_dense = np.unique(detailed.pcs, return_inverse=True)
    num_pcs = len(unique_pcs)
    key = counter_ids * num_pcs + pc_dense
    unique_keys, access_stream = np.unique(key, return_inverse=True)

    stream_total = np.bincount(access_stream, minlength=len(unique_keys))
    stream_taken = np.bincount(
        access_stream, weights=outcomes.astype(np.float64), minlength=len(unique_keys)
    ).astype(np.int64)
    stream_mispredicted = np.bincount(
        access_stream,
        weights=mispredicted.astype(np.float64),
        minlength=len(unique_keys),
    ).astype(np.int64)
    stream_counter = (unique_keys // num_pcs).astype(np.int64)
    stream_pc = unique_pcs[(unique_keys % num_pcs).astype(np.int64)]

    rates = stream_taken / stream_total
    stream_class = np.full(len(unique_keys), WB, dtype=np.int8)
    stream_class[rates >= threshold - THRESHOLD_EPS] = ST
    stream_class[rates <= (1.0 - threshold) + THRESHOLD_EPS] = SNT

    # dominant strong class per counter, by summed dynamic counts
    num_counters = detailed.num_counters
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
    accessed = (
        np.bincount(
            stream_counter,
            weights=stream_total.astype(np.float64),
            minlength=num_counters,
        )
        > 0
    )
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


def count_class_changes_reference(
    detailed: DetailedSimulation, analysis: SubstreamAnalysis
) -> ClassChangeCounts:
    """Table-4 interference counting via ``np.lexsort``."""
    n = detailed.result.num_branches
    if n != len(analysis.access_stream):
        raise ValueError("analysis does not match the detailed simulation")
    if n < 2:
        return ClassChangeCounts(dominant=0, non_dominant=0, wb=0)

    counter_ids = detailed.counter_ids
    roles = analysis.access_role()
    # group accesses by counter, keeping time order within each group
    order = np.lexsort((np.arange(n), counter_ids))
    sorted_counters = counter_ids[order]
    sorted_roles = roles[order]
    same_counter = sorted_counters[1:] == sorted_counters[:-1]
    role_change = sorted_roles[1:] != sorted_roles[:-1]
    interrupted = sorted_roles[:-1][same_counter & role_change]
    counts = np.bincount(interrupted, minlength=3)
    return ClassChangeCounts(
        dominant=int(counts[0]), non_dominant=int(counts[1]), wb=int(counts[2])
    )


def aliasing_stats_reference(
    analysis: SubstreamAnalysis, min_minority: float = 0.05
) -> AliasingStats:
    """Aliasing summary recomputing branch sharing from scratch."""
    if not 0.0 <= min_minority <= 0.5:
        raise ValueError(f"min_minority must be in [0, 0.5], got {min_minority}")
    num_counters = analysis.num_counters
    streams_per_counter = np.bincount(analysis.stream_counter, minlength=num_counters)

    # distinct static branches per counter, derived independently of the
    # streams-are-unique-pairs invariant the fast path leans on
    pairs = np.stack([analysis.stream_counter, analysis.stream_pc], axis=1)
    unique_pairs = np.unique(pairs, axis=0)
    branches_per_counter = np.bincount(unique_pairs[:, 0], minlength=num_counters)

    accesses_per_counter = np.bincount(
        analysis.stream_counter,
        weights=analysis.stream_total.astype(np.float64),
        minlength=num_counters,
    )
    total_accesses = accesses_per_counter.sum()

    used = branches_per_counter > 0
    aliased = branches_per_counter > 1

    st_weight = np.bincount(
        analysis.stream_counter,
        weights=np.where(analysis.stream_class == ST, analysis.stream_total, 0).astype(
            np.float64
        ),
        minlength=num_counters,
    )
    snt_weight = np.bincount(
        analysis.stream_counter,
        weights=np.where(analysis.stream_class == SNT, analysis.stream_total, 0).astype(
            np.float64
        ),
        minlength=num_counters,
    )
    minority = np.minimum(st_weight, snt_weight)
    with np.errstate(invalid="ignore", divide="ignore"):
        minority_share = np.where(
            accesses_per_counter > 0, minority / np.maximum(accesses_per_counter, 1), 0.0
        )
    destructive = aliased & (minority > 0) & (minority_share >= min_minority)

    if total_accesses == 0:
        return AliasingStats(0, 0, 0, 0.0, 0.0, 0.0)
    return AliasingStats(
        counters_used=int(used.sum()),
        aliased_counters=int(aliased.sum()),
        destructive_counters=int(destructive.sum()),
        aliased_access_fraction=float(accesses_per_counter[aliased].sum() / total_accesses),
        destructive_access_fraction=float(
            accesses_per_counter[destructive].sum() / total_accesses
        ),
        mean_streams_per_counter=float(streams_per_counter[used].mean()),
    )


def summarize_detailed_reference(
    detailed: DetailedSimulation,
    threshold: float = BIAS_THRESHOLD,
    include_bias_table: bool = False,
) -> dict:
    """The full Section-4 summary computed through the reference paths.

    Returns the identical payload to
    :func:`repro.analysis.summary.summarize_detailed` — the equivalence
    suite asserts it — but every aggregate flows through the naive
    implementations above, making this the honest pre-optimization
    baseline for the detailed-kernel timing comparison.
    """
    from repro.analysis.summary import build_summary

    analysis = analyze_substreams_reference(detailed, threshold=threshold)
    return build_summary(
        detailed,
        analysis,
        table=counter_bias_table(analysis),
        alias=aliasing_stats_reference(analysis),
        sharing=sharing_decomposition(analysis),
        changes=count_class_changes_reference(detailed, analysis),
        include_bias_table=include_bias_table,
    )
