"""Bias-class interference counting (paper Section 4.2, Table 4).

The normalized-count analysis ignores *ordering*: a counter whose
dominant and non-dominant accesses are separated in time suffers less
than one where they interleave.  Table 4 therefore counts, per counter,
how often the access stream *changes* between substreams of different
dominance roles, accumulated over all counters.  Following the table's
caption ("the total number of changes of the dominant class due to
interference by the other two classes"), a change between consecutive
accesses of different roles is attributed to the role of the **earlier**
access — the run that got interrupted.

Fewer changes ⇒ the ST and SNT substreams are less intermingled ⇒ less
destructive interference; the paper shows bi-mode beats history-indexed
gshare on every column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.bias import SubstreamAnalysis, _reductions
from repro.core.interfaces import DetailedSimulation

__all__ = ["ClassChangeCounts", "count_class_changes"]


@dataclass(frozen=True)
class ClassChangeCounts:
    """Table-4 row: interruptions per dominance role."""

    dominant: int
    non_dominant: int
    wb: int

    @property
    def total(self) -> int:
        return self.dominant + self.non_dominant + self.wb

    def as_dict(self) -> dict:
        return {
            "dominant": self.dominant,
            "non_dominant": self.non_dominant,
            "wb": self.wb,
        }


def count_class_changes(
    detailed: DetailedSimulation, analysis: SubstreamAnalysis
) -> ClassChangeCounts:
    """Count role changes between consecutive accesses to each counter.

    ``analysis`` must come from the same ``detailed`` simulation (the
    per-access stream mapping is reused).  Runs one compiled pass
    (:func:`repro.sim._cstep.class_changes`), or the ``np.lexsort``
    formulation of :mod:`repro.analysis.reference` without a compiler.
    """
    n = detailed.result.num_branches
    if n != len(analysis.access_stream):
        raise ValueError("analysis does not match the detailed simulation")
    if n < 2:
        return ClassChangeCounts(dominant=0, non_dominant=0, wb=0)

    driver = _reductions()
    if driver is None:
        from repro.analysis.reference import count_class_changes_reference

        return count_class_changes_reference(detailed, analysis)
    # one time-ordered pass with a per-counter last-role array, each
    # change attributed to the earlier access's role
    counts = driver.class_changes(
        np.ascontiguousarray(detailed.counter_ids, dtype=np.int32),
        np.ascontiguousarray(analysis.access_stream, dtype=np.int64),
        np.ascontiguousarray(analysis.stream_role(), dtype=np.int8),
        analysis.num_counters,
    )
    return ClassChangeCounts(
        dominant=int(counts[0]), non_dominant=int(counts[1]), wb=int(counts[2])
    )
