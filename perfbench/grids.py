"""The spec grids and trace sets each workload sweeps.

The grids are spelled out here rather than imported from the
repository's scripts and tests, so the benchmark keeps measuring the
same cells when those files change.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.sweep import _candidate_specs, bimode_spec, gshare_1pht_spec
from repro.core.hardware import PAPER_SIZE_POINTS_KB
from repro.workloads.profiles import get_profile
from repro.workloads.suite import suite_names

#: Shortest trace a scaled-down run generates.
MIN_LENGTH = 5_000


def trace_length(name: str, scale: float = 1.0) -> int:
    """Branches of one benchmark trace: the profile's default length times ``scale``."""
    return max(MIN_LENGTH, int(get_profile(name).default_length * scale))


def paper_specs_at(kbytes: float) -> List[str]:
    """The Figure-2/3/4 specs of one size point: 1PHT, gshare.best candidates, bi-mode."""
    specs = [gshare_1pht_spec(kbytes)]
    specs.extend(_candidate_specs(kbytes, None))
    specs.append(bimode_spec(kbytes))
    return list(dict.fromkeys(specs))


def paper_specs() -> List[str]:
    """Every unique spec of the Figure-2/3/4 sweep, in sweep order (124)."""
    specs: List[str] = []
    for kbytes in PAPER_SIZE_POINTS_KB:
        specs.extend(paper_specs_at(kbytes))
    return list(dict.fromkeys(specs))


#: One spec per detailed (Section-4) kernel plus the fused gshare/bi-mode pair.
SECTION4_GRID = [
    "gshare:index=10,hist=10",
    "bimode:dir=9,hist=9,choice=8",
    "bimodal:index=10",
    "pag:hist=6,bht=6",
    "gselect:hist=5,addr=5",
    "agree:index=10,hist=8,bias=10",
    "gskew:bank=8,hist=8",
    "tournament:index=9,meta=9",
    "trimode:dir=8,hist=6,choice=7",
    "yags:choice=9,cache=7,hist=7,tag=6",
    "perceptron:index=7,hist=10",
    "biasfilter:table=9,run=2,sub_index=9,sub_hist=7",
    "btfnt",
]

#: Every ported (non-gshare, non-bimode) scheme, two or three geometries each.
PORTED_GRID = [
    "bimodal:index=6",
    "bimodal:index=9",
    "bimodal:index=6,bits=3",
    "gag:hist=6",
    "gag:hist=10",
    "gas:hist=5,select=3",
    "gas:hist=7,select=2",
    "gap:hist=5",
    "gap:hist=4,addr=6",
    "gselect:hist=4,addr=4",
    "gselect:hist=6,addr=3",
    "pag:hist=6,bht=6",
    "pag:hist=8,bht=4",
    "pas:hist=4,select=3,bht=5",
    "pas:hist=5,select=2,bht=6",
    "pap:hist=3,addr=3,bht=4",
    "pap:hist=4,addr=4,bht=5",
    "agree:index=8,hist=8",
    "agree:index=6,hist=4",
    "agree:index=8,hist=8,bias=6",
    "gskew:bank=7,hist=7",
    "gskew:bank=5,hist=5",
    "gskew:bank=7,hist=7,update=total",
    "gskew:bank=5,hist=3,update=total",
    "tournament:index=8,meta=8",
    "tournament:index=6,meta=5",
    "trimode:dir=7,hist=7,choice=7",
    "trimode:dir=5,hist=3,choice=5",
    "yags:choice=8,cache=6,hist=6,tag=6",
    "yags:choice=6,cache=5,hist=3,tag=4",
    "perceptron:index=6,hist=8",
    "perceptron:index=5,hist=12,w=8",
    "perceptron:index=4,hist=6,w=4",
    "biasfilter:table=8,run=2,sub_index=8,sub_hist=8",
    "biasfilter:table=6,run=3,sub_index=7,sub_hist=4",
    "biasfilter:table=7,run=2,sub=bimodal,sub_index=7",
    "always-taken",
    "always-not-taken",
    "btfnt",
]


def service_clients() -> Dict[str, List[str]]:
    """Trace sets of the two service clients: CINT95 plus half of IBS each."""
    cint = suite_names("cint95")
    ibs = suite_names("ibs")
    half = len(ibs) // 2
    return {"a": cint + ibs[:half], "b": cint + ibs[half:]}
