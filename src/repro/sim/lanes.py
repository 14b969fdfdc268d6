"""Lane kernels for the registry-ported predictor schemes.

The scheme-agnostic kernel registry (:mod:`repro.sim.kernels`) maps
every registered predictor spec onto its batch kernel.  This module
supplies the per-scheme kernels beyond the gshare/bi-mode family passes
of :mod:`repro.sim.batch` / :mod:`repro.sim.batch_bimode`.  Each kernel
takes ``(lane, trace, hist_cache)`` and returns per-access predictions
or ``(predictions, counter_ids)``; the registry runs it only when the
compiled driver (:mod:`repro.sim._cstep`) is available and otherwise
runs the scheme's scalar predictor.

* **counter-major schemes** — bimodal (any counter width), the whole
  two-level family (GAg/GAs/GAp/gselect and PAg/PAs/PAp), agree and the
  bimodal+gshare tournament.  None of these feed predictions back into
  their own index or training streams, so every per-access counter id
  and training delta is precomputable from ``(pcs, outcomes)`` alone
  and the remaining sequential work is one saturating-counter automaton
  per table, run by the shared compiled loop
  (:func:`repro.sim._cstep.counter_lane`).
* **sequential schemes** — gskew, tri-mode, YAGS and the perceptron.
  Their partial updates feed predictor state back into which table
  trains (or which bank an access lands in, or — for the perceptron —
  whether the threshold gate fires), so each gets a dedicated compiled
  per-pair loop in :mod:`repro.sim._cstep`.
* **bias filter** (over a gshare or bimodal sub-predictor) — the filter
  decomposes (see below) into the per-slot grouping machinery plus one
  counter automaton over the *unfiltered* subsequence.
* **static schemes** (always-taken / always-not-taken / btfnt) — pure
  vectorized one-shots with no automaton, so they need no compiler and
  run the same on every host.

Scheme-specific notes
---------------------
**Per-address histories (PAx).**  The branch-history table evolves from
outcomes only, so each register's contents are a pure function of the
earlier occurrences of the PCs mapping to it.  The kernel groups
accesses by BHT slot with the compiled stable counting sort
(:func:`repro.sim._cstep.stable_group_order`) and assembles each
access's history word from the previous ``hist_bits`` outcomes *within
its group* — fully vectorized, one pass per history bit.

**Agree.**  The biasing bit of a slot is invalid until the slot's first
dynamic occurrence *updates*, and that first update sets it to the
branch outcome.  At prediction time access ``i`` therefore sees bias
``False`` if no earlier access touched its slot (including at the first
occurrence itself), else the outcome of the slot's first occurrence.
The counters train toward ``bias == outcome`` — at a first occurrence
that is ``True`` by construction, matching ``AgreePredictor.update``
which sets the bias before computing agreement.

**Tournament.**  Both components are feedback-free (bimodal + gshare),
so their prediction streams come from two counter automata; the meta
table then trains with deltas in ``{-1, 0, +1}`` (0 when the components
agree), which the compiled counter loop supports.

**Bias filter.**  The filter automaton (direction bit + saturating run
counter per slot) evolves from ``(pcs, outcomes)`` alone — after every
update the direction bit equals the slot's last outcome, and the run
counter equals the length of the slot's current run of identical
outcomes, capped at ``2**run_bits - 1``.  Grouping accesses by filter
slot (the per-address-history machinery) therefore yields each
access's filtered/unfiltered classification and, for filtered
accesses, the prediction (the previous same-slot outcome) with no
sequential work.  The sub-predictor sees exactly the *unfiltered*
subsequence — its global history included, per the scalar design note
— so its attribution is one ordinary counter automaton over the
compressed ``(pcs, outcomes)`` arrays.  Supported sub-predictors:
gshare and bimodal (the configurations the benches sweep); any other
sub falls to the scalar family with an explicit planner veto.

Every kernel is asserted bit-identical to its scalar predictor and the
dict-based oracle by the registry-driven verification suite
(``tests/test_kernels.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.counters import WEAKLY_NOT_TAKEN, WEAKLY_TAKEN
from repro.core.history import global_history_stream
from repro.core.indexing import concat_index_stream, gshare_index_stream, mask
from repro.core.registry import parse_spec
from repro.sim import _cstep
from repro.sim.batch import GShareLane
from repro.sim.batch_bimode import BiModeLane
from repro.traces.record import BranchTrace

__all__ = [
    "BimodalLane",
    "TwoLevelLane",
    "AgreeLane",
    "GSkewLane",
    "TournamentLane",
    "TriModeLane",
    "YagsLane",
    "PerceptronLane",
    "BiasFilterLane",
    "StaticLane",
    "bimodal_lane_for_spec",
    "twolevel_lane_for_spec",
    "agree_lane_for_spec",
    "gskew_lane_for_spec",
    "tournament_lane_for_spec",
    "trimode_lane_for_spec",
    "yags_lane_for_spec",
    "perceptron_lane_for_spec",
    "biasfilter_lane_for_spec",
    "static_lane_for_spec",
    "gskew_predictions",
    "trimode_predictions",
    "yags_predictions",
    "perceptron_predictions",
    "biasfilter_predictions",
    "static_rates",
    "per_address_histories",
    "bimodal_detailed",
    "twolevel_detailed",
    "agree_detailed",
    "gskew_detailed",
    "tournament_detailed",
    "trimode_detailed",
    "yags_detailed",
    "perceptron_detailed",
    "biasfilter_detailed",
    "static_detailed",
    "detailed_num_counters",
]

#: CounterTable's geometry ceiling; larger specs are rejected by the
#: scalar constructors, so the lane parsers reject them too (the spec
#: then falls to the scalar family and raises the original error).
_MAX_TABLE_BITS = 24


# -- lane descriptions ------------------------------------------------------------


@dataclass(frozen=True)
class BimodalLane:
    """One bimodal configuration (any counter width)."""

    index_bits: int
    counter_bits: int = 2

    @property
    def threshold(self) -> int:
        return 1 << (self.counter_bits - 1)

    @property
    def max_state(self) -> int:
        return (1 << self.counter_bits) - 1


@dataclass(frozen=True)
class TwoLevelLane:
    """One two-level configuration; ``bht_bits is None`` for GAx."""

    scheme: str
    hist_bits: int
    select_bits: int
    bht_bits: Optional[int] = None


@dataclass(frozen=True)
class AgreeLane:
    index_bits: int
    hist_bits: int
    bias_bits: int


@dataclass(frozen=True)
class GSkewLane:
    bank_bits: int
    hist_bits: int
    enhanced: bool = True


@dataclass(frozen=True)
class TournamentLane:
    """The spec-form pairing: bimodal(index) + gshare(index, index)."""

    index_bits: int
    meta_bits: int


@dataclass(frozen=True)
class TriModeLane:
    dir_bits: int
    hist_bits: int
    choice_bits: int


@dataclass(frozen=True)
class YagsLane:
    choice_bits: int
    cache_bits: int
    hist_bits: int
    tag_bits: int


@dataclass(frozen=True)
class PerceptronLane:
    index_bits: int
    hist_bits: int
    weight_bits: int

    @property
    def theta(self) -> int:
        return int(1.93 * self.hist_bits + 14)

    @property
    def w_max(self) -> int:
        return (1 << (self.weight_bits - 1)) - 1

    @property
    def w_min(self) -> int:
        return -(1 << (self.weight_bits - 1))


@dataclass(frozen=True)
class BiasFilterLane:
    """Filter geometry plus the inlined sub-predictor configuration;
    ``sub_hist_bits`` is 0 for a bimodal sub."""

    filter_bits: int
    run_bits: int
    sub_scheme: str  # "gshare" | "bimodal"
    sub_index_bits: int
    sub_hist_bits: int

    @property
    def max_run(self) -> int:
        return (1 << self.run_bits) - 1


@dataclass(frozen=True)
class StaticLane:
    scheme: str  # "always-taken" | "always-not-taken" | "btfnt"


# -- spec parsing -----------------------------------------------------------------


def _parse_int_spec(
    spec: str, scheme: str, allowed: frozenset, required: frozenset
) -> Optional[Dict[str, int]]:
    """Parse an all-integer spec, or ``None`` if it is not a ``scheme``
    configuration with exactly the allowed knobs."""
    try:
        name, kwargs = parse_spec(spec)
    except ValueError:
        return None
    if name != scheme or not set(kwargs) <= allowed or not required <= set(kwargs):
        return None
    out: Dict[str, int] = {}
    for key, value in kwargs.items():
        try:
            out[key] = int(value)
        except ValueError:
            return None
    return out


def bimodal_lane_for_spec(spec: str) -> Optional[BimodalLane]:
    kw = _parse_int_spec(spec, "bimodal", frozenset({"index", "bits"}), frozenset({"index"}))
    if kw is None:
        return None
    index, bits = kw["index"], kw.get("bits", 2)
    if not 0 <= index <= _MAX_TABLE_BITS or not 1 <= bits <= 7:
        return None
    return BimodalLane(index_bits=index, counter_bits=bits)


#: Spec-knob layout of the two-level family: required keys, plus how the
#: select width is spelled (``None`` = fixed 0) and whether a BHT exists.
_TWOLEVEL_FORMS = {
    "gag": (frozenset({"hist"}), None, False),
    "gas": (frozenset({"hist", "select"}), "select", False),
    "gselect": (frozenset({"hist", "addr"}), "addr", False),
    "gap": (frozenset({"hist"}), "addr", False),
    "pag": (frozenset({"hist", "bht"}), None, True),
    "pas": (frozenset({"hist", "select", "bht"}), "select", True),
    "pap": (frozenset({"hist", "addr", "bht"}), "addr", True),
}


def twolevel_lane_for_spec(spec: str) -> Optional[TwoLevelLane]:
    scheme = spec.split(":", 1)[0].strip()
    form = _TWOLEVEL_FORMS.get(scheme)
    if form is None:
        return None
    required, select_key, per_address = form
    allowed = set(required)
    if select_key:
        allowed.add(select_key)
    kw = _parse_int_spec(spec, scheme, frozenset(allowed), required)
    if kw is None:
        return None
    hist = kw["hist"]
    if select_key is None:
        select = 0
    elif scheme == "gap":
        select = kw.get("addr", 8)
    else:
        select = kw[select_key]
    bht = kw["bht"] if per_address else None
    if hist < 0 or select < 0 or hist + select > _MAX_TABLE_BITS:
        return None
    if scheme in ("gas", "gselect", "pas", "pap") and select < 1:
        return None
    if per_address and not 0 <= bht <= _MAX_TABLE_BITS:
        return None
    return TwoLevelLane(scheme=scheme, hist_bits=hist, select_bits=select, bht_bits=bht)


def agree_lane_for_spec(spec: str) -> Optional[AgreeLane]:
    kw = _parse_int_spec(
        spec, "agree", frozenset({"index", "hist", "bias"}), frozenset({"index"})
    )
    if kw is None:
        return None
    index = kw["index"]
    hist = kw.get("hist", index)
    bias = kw.get("bias", index)
    if not 0 <= index <= _MAX_TABLE_BITS or not 0 <= hist <= index:
        return None
    if not 0 <= bias <= _MAX_TABLE_BITS:
        return None
    return AgreeLane(index_bits=index, hist_bits=hist, bias_bits=bias)


def gskew_lane_for_spec(spec: str) -> Optional[GSkewLane]:
    try:
        name, kwargs = parse_spec(spec)
    except ValueError:
        return None
    if name != "gskew" or not set(kwargs) <= {"bank", "hist", "update"}:
        return None
    if "bank" not in kwargs:
        return None
    policy = kwargs.get("update", "enhanced")
    if policy not in ("enhanced", "total"):
        return None
    try:
        bank = int(kwargs["bank"])
        hist = int(kwargs.get("hist", bank))
    except ValueError:
        return None
    if not 0 <= bank <= _MAX_TABLE_BITS or hist < 0:
        return None
    return GSkewLane(bank_bits=bank, hist_bits=hist, enhanced=policy == "enhanced")


def tournament_lane_for_spec(spec: str) -> Optional[TournamentLane]:
    kw = _parse_int_spec(
        spec, "tournament", frozenset({"index", "meta"}), frozenset({"index"})
    )
    if kw is None:
        return None
    index = kw["index"]
    meta = kw.get("meta", index)
    if not 0 <= index <= _MAX_TABLE_BITS or not 0 <= meta <= _MAX_TABLE_BITS:
        return None
    return TournamentLane(index_bits=index, meta_bits=meta)


def trimode_lane_for_spec(spec: str) -> Optional[TriModeLane]:
    kw = _parse_int_spec(
        spec, "trimode", frozenset({"dir", "hist", "choice"}), frozenset({"dir"})
    )
    if kw is None:
        return None
    dir_bits = kw["dir"]
    hist = kw.get("hist", dir_bits)
    choice = kw.get("choice", dir_bits)
    if not 0 <= dir_bits <= _MAX_TABLE_BITS or not 0 <= hist <= dir_bits:
        return None
    if not 0 <= choice <= _MAX_TABLE_BITS:
        return None
    return TriModeLane(dir_bits=dir_bits, hist_bits=hist, choice_bits=choice)


def yags_lane_for_spec(spec: str) -> Optional[YagsLane]:
    kw = _parse_int_spec(
        spec,
        "yags",
        frozenset({"choice", "cache", "hist", "tag"}),
        frozenset({"choice", "cache"}),
    )
    if kw is None:
        return None
    choice, cache = kw["choice"], kw["cache"]
    hist = kw.get("hist", cache)
    tag = kw.get("tag", 6)
    if not 0 <= choice <= _MAX_TABLE_BITS or not 0 <= cache <= _MAX_TABLE_BITS:
        return None
    if not 0 <= hist <= cache or not 1 <= tag <= 30:
        return None
    return YagsLane(choice_bits=choice, cache_bits=cache, hist_bits=hist, tag_bits=tag)


def perceptron_lane_for_spec(spec: str) -> Optional[PerceptronLane]:
    kw = _parse_int_spec(
        spec, "perceptron", frozenset({"index", "hist", "w"}), frozenset({"index"})
    )
    if kw is None:
        return None
    index = kw["index"]
    hist = kw.get("hist", 12)
    w = kw.get("w", 8)
    # hist caps at the GlobalHistoryRegister width; w at int32-safe
    # saturation (the int64 dot product then never overflows).
    if not 0 <= index <= _MAX_TABLE_BITS or not 0 <= hist <= 62 or not 2 <= w <= 30:
        return None
    return PerceptronLane(index_bits=index, hist_bits=hist, weight_bits=w)


#: Sub-predictor schemes the bias-filter kernel executes in-lane; any
#: other ``sub=`` value runs through the scalar family with an explicit
#: planner veto (see :func:`repro.sim.kernels.planner_vetoes`).
BIASFILTER_SUBS = ("gshare", "bimodal")


def biasfilter_lane_for_spec(spec: str) -> Optional[BiasFilterLane]:
    try:
        name, kwargs = parse_spec(spec)
    except ValueError:
        return None
    if name != "biasfilter" or not set(kwargs) <= {
        "table",
        "run",
        "sub",
        "sub_index",
        "sub_hist",
    }:
        return None
    if "sub_index" not in kwargs:
        return None
    sub = kwargs.get("sub", "gshare")
    if sub not in BIASFILTER_SUBS:
        return None
    if sub == "bimodal" and "sub_hist" in kwargs:
        return None
    try:
        table = int(kwargs.get("table", 12))
        run = int(kwargs.get("run", 3))
        sub_index = int(kwargs["sub_index"])
        sub_hist = int(kwargs.get("sub_hist", sub_index)) if sub == "gshare" else 0
    except ValueError:
        return None
    # run counters live in int8 in the compiled loop: run_bits <= 7
    if not 0 <= table <= _MAX_TABLE_BITS or not 1 <= run <= 7:
        return None
    if not 0 <= sub_index <= _MAX_TABLE_BITS or not 0 <= sub_hist <= sub_index:
        return None
    return BiasFilterLane(
        filter_bits=table,
        run_bits=run,
        sub_scheme=sub,
        sub_index_bits=sub_index,
        sub_hist_bits=sub_hist,
    )


_STATIC_SCHEMES = frozenset({"always-taken", "always-not-taken", "btfnt"})


def static_lane_for_spec(spec: str) -> Optional[StaticLane]:
    try:
        name, kwargs = parse_spec(spec)
    except ValueError:
        return None
    if name not in _STATIC_SCHEMES or kwargs:
        return None
    return StaticLane(scheme=name)


# -- shared stream helpers --------------------------------------------------------


def _hist(trace: BranchTrace, bits: int, cache: Optional[Dict[int, np.ndarray]]) -> np.ndarray:
    if cache is None:
        return global_history_stream(trace.outcomes, bits)
    if bits not in cache:
        cache[bits] = global_history_stream(trace.outcomes, bits)
    return cache[bits]


def per_address_histories(
    pcs: np.ndarray, outcomes: np.ndarray, bht_bits: int, hist_bits: int
) -> np.ndarray:
    """Each access's BHT register contents at prediction time.

    Bit ``j`` of access ``i``'s word is the outcome of the
    ``(j+1)``-th most recent *earlier* access mapping to the same BHT
    slot (``pc & mask(bht_bits)``) — exactly the shift-register state
    ``PerAddressHistoryTable.read`` returns, vectorized per history bit
    over the stable per-slot grouping.
    """
    n = len(pcs)
    hist = np.zeros(n, dtype=np.int64)
    if n == 0 or hist_bits == 0:
        return hist
    slots = (pcs & mask(bht_bits)).astype(np.int32)
    order = _cstep.stable_group_order(slots, 1 << bht_bits)
    grouped_slots = slots[order]
    grouped_out = outcomes[order].astype(np.int64)

    seg_start = np.empty(n, dtype=bool)
    seg_start[0] = True
    np.not_equal(grouped_slots[1:], grouped_slots[:-1], out=seg_start[1:])
    seg_first = np.flatnonzero(seg_start)
    seg_id = np.cumsum(seg_start, dtype=np.int64) - 1
    pos_in_seg = np.arange(n, dtype=np.int64) - seg_first[seg_id]

    grouped_hist = np.zeros(n, dtype=np.int64)
    for j in range(hist_bits):
        has_prior = np.flatnonzero(pos_in_seg >= j + 1)
        grouped_hist[has_prior] |= grouped_out[has_prior - (j + 1)] << j
    hist[order] = grouped_hist
    return hist


def _observed_states(
    keys: np.ndarray,
    deltas: np.ndarray,
    num_counters: int,
    init: int,
    max_state: int,
) -> np.ndarray:
    """The state each access observes, via the compiled counter loop —
    the shared automaton of every counter-major scheme.  ``deltas`` are
    int-like in ``{-1, 0, +1}``."""
    table = np.full(num_counters, init, dtype=np.int8)
    return _cstep.counter_lane(
        np.ascontiguousarray(keys, dtype=np.int64),
        np.ascontiguousarray(deltas, dtype=np.int8),
        table,
        max_state,
    )


def _train_deltas(outcomes: np.ndarray) -> np.ndarray:
    return np.where(outcomes, 1, -1).astype(np.int8)


# -- counter-major kernels --------------------------------------------------------


def bimodal_detailed(
    lane: BimodalLane,
    trace: BranchTrace,
    hist_cache: Optional[Dict[int, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(predictions, counter_ids)``: the accessed slot IS the id."""
    keys = (trace.pcs & mask(lane.index_bits)).astype(np.int64)
    pre = _observed_states(
        keys,
        _train_deltas(trace.outcomes),
        1 << lane.index_bits,
        lane.threshold,  # power-on init is weakly taken at any width
        lane.max_state,
    )
    return pre >= lane.threshold, keys


def twolevel_detailed(
    lane: TwoLevelLane,
    trace: BranchTrace,
    hist_cache: Optional[Dict[int, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(predictions, counter_ids)``: the accessed PHT slot IS the id."""
    if lane.bht_bits is None:
        histories = _hist(trace, lane.hist_bits, hist_cache)
    else:
        histories = per_address_histories(
            trace.pcs, trace.outcomes, lane.bht_bits, lane.hist_bits
        )
    keys = concat_index_stream(
        histories, lane.hist_bits, trace.pcs, lane.select_bits
    ).astype(np.int64)
    pre = _observed_states(
        keys,
        _train_deltas(trace.outcomes),
        1 << (lane.hist_bits + lane.select_bits),
        WEAKLY_TAKEN,
        3,
    )
    return pre >= 2, keys


def agree_detailed(
    lane: AgreeLane,
    trace: BranchTrace,
    hist_cache: Optional[Dict[int, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(predictions, counter_ids)``: the accessed agree-PHT slot IS
    the id (the biasing bits are not counters)."""
    n = len(trace)
    outcomes = trace.outcomes
    histories = _hist(trace, lane.hist_bits, hist_cache)
    keys = gshare_index_stream(
        trace.pcs, histories, lane.index_bits, lane.hist_bits
    ).astype(np.int64)

    # First dynamic occurrence of each biasing slot; every later access
    # sees that occurrence's outcome as its bias, earlier (and the first
    # occurrence itself) the power-on False of an invalid slot.
    slots = (trace.pcs & mask(lane.bias_bits)).astype(np.int64)
    first = np.full(1 << lane.bias_bits, n, dtype=np.int64)
    np.minimum.at(first, slots, np.arange(n, dtype=np.int64))
    first_of_slot = first[slots]  # <= own position for every access
    bias_after_update = outcomes[first_of_slot]
    bias_at_predict = np.where(
        first_of_slot < np.arange(n, dtype=np.int64), bias_after_update, False
    )

    agreed = bias_after_update == outcomes  # True at first occurrences
    pre = _observed_states(
        keys, _train_deltas(agreed), 1 << lane.index_bits, WEAKLY_TAKEN, 3
    )
    return (pre >= 2) == bias_at_predict, keys


def tournament_detailed(
    lane: TournamentLane,
    trace: BranchTrace,
    hist_cache: Optional[Dict[int, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(predictions, counter_ids)``: the *selected* component's
    counter, gshare (component b) ids offset by the bimodal's size."""
    outcomes = trace.outcomes
    deltas = _train_deltas(outcomes)
    a_keys = (trace.pcs & mask(lane.index_bits)).astype(np.int64)
    histories = _hist(trace, lane.index_bits, hist_cache)
    b_keys = gshare_index_stream(
        trace.pcs, histories, lane.index_bits, lane.index_bits
    ).astype(np.int64)
    size = 1 << lane.index_bits
    pred_a = _observed_states(a_keys, deltas, size, WEAKLY_TAKEN, 3) >= 2
    pred_b = _observed_states(b_keys, deltas, size, WEAKLY_TAKEN, 3) >= 2

    # Meta trains toward "trust b" only on component disagreement.
    meta_keys = (trace.pcs & mask(lane.meta_bits)).astype(np.int64)
    meta_deltas = np.where(
        pred_a == pred_b, 0, np.where(pred_b == outcomes, 1, -1)
    ).astype(np.int8)
    pre_meta = _observed_states(
        meta_keys, meta_deltas, 1 << lane.meta_bits, WEAKLY_TAKEN, 3
    )
    select_b = pre_meta >= 2
    return (
        np.where(select_b, pred_b, pred_a),
        np.where(select_b, size + b_keys, a_keys),
    )


# -- sequential (compiled-loop) kernels -------------------------------------------


def _gskew_run(
    lane: GSkewLane, trace: BranchTrace, cids: Optional[np.ndarray]
) -> np.ndarray:
    banks = np.full((3, 1 << lane.bank_bits), WEAKLY_TAKEN, dtype=np.int8)
    preds = _cstep.gskew_lane(
        np.ascontiguousarray(trace.pcs, dtype=np.int64),
        np.ascontiguousarray(trace.outcomes).view(np.uint8),
        lane.bank_bits,
        lane.hist_bits,
        lane.enhanced,
        banks,
        cids,
    )
    return preds.view(bool)


def gskew_detailed(
    lane: GSkewLane,
    trace: BranchTrace,
    hist_cache: Optional[Dict[int, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(predictions, counter_ids)``: the prediction is attributed to
    the first (lowest-numbered) bank voting with the majority, bank ``k``
    offset by ``k * bank_size``."""
    cids = np.empty(len(trace), dtype=np.int64)
    return _gskew_run(lane, trace, cids), cids


def gskew_predictions(
    lane: GSkewLane,
    trace: BranchTrace,
    hist_cache: Optional[Dict[int, np.ndarray]] = None,
) -> np.ndarray:
    return _gskew_run(lane, trace, None)


def _trimode_run(
    lane: TriModeLane,
    trace: BranchTrace,
    hist_cache: Optional[Dict[int, np.ndarray]],
    cids: Optional[np.ndarray],
) -> np.ndarray:
    histories = _hist(trace, lane.hist_bits, hist_cache)
    di = gshare_index_stream(
        trace.pcs, histories, lane.dir_bits, lane.hist_bits
    ).astype(np.int64)
    ci = (trace.pcs & mask(lane.choice_bits)).astype(np.int64)
    size = 1 << lane.dir_bits
    nt_bank = np.full(size, WEAKLY_NOT_TAKEN, dtype=np.int8)
    tk_bank = np.full(size, WEAKLY_TAKEN, dtype=np.int8)
    wk_bank = np.full(size, WEAKLY_TAKEN, dtype=np.int8)
    choice = np.full(1 << lane.choice_bits, WEAKLY_TAKEN, dtype=np.int8)
    preds = _cstep.trimode_lane(
        np.ascontiguousarray(ci),
        np.ascontiguousarray(di),
        np.ascontiguousarray(trace.outcomes).view(np.uint8),
        nt_bank,
        tk_bank,
        wk_bank,
        choice,
        cids,
    )
    return preds.view(bool)


def trimode_detailed(
    lane: TriModeLane,
    trace: BranchTrace,
    hist_cache: Optional[Dict[int, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(predictions, counter_ids)``: the selected direction counter,
    bank ``b`` (not-taken, taken, weak) offset by ``b * bank_size``."""
    cids = np.empty(len(trace), dtype=np.int64)
    return _trimode_run(lane, trace, hist_cache, cids), cids


def trimode_predictions(
    lane: TriModeLane,
    trace: BranchTrace,
    hist_cache: Optional[Dict[int, np.ndarray]] = None,
) -> np.ndarray:
    return _trimode_run(lane, trace, hist_cache, None)


def _yags_run(
    lane: YagsLane,
    trace: BranchTrace,
    hist_cache: Optional[Dict[int, np.ndarray]],
    cids: Optional[np.ndarray],
) -> np.ndarray:
    histories = _hist(trace, lane.hist_bits, hist_cache)
    ki = gshare_index_stream(
        trace.pcs, histories, lane.cache_bits, lane.hist_bits
    ).astype(np.int64)
    ci = (trace.pcs & mask(lane.choice_bits)).astype(np.int64)
    tags = ((trace.pcs >> lane.cache_bits) & mask(lane.tag_bits)).astype(np.int32)
    cache_size = 1 << lane.cache_bits
    choice = np.full(1 << lane.choice_bits, WEAKLY_TAKEN, dtype=np.int8)
    tk_tags = np.full(cache_size, -1, dtype=np.int32)
    tk_ctr = np.full(cache_size, WEAKLY_TAKEN, dtype=np.int8)
    nt_tags = np.full(cache_size, -1, dtype=np.int32)
    nt_ctr = np.full(cache_size, WEAKLY_NOT_TAKEN, dtype=np.int8)
    preds = _cstep.yags_lane(
        np.ascontiguousarray(ci),
        np.ascontiguousarray(ki),
        np.ascontiguousarray(tags),
        np.ascontiguousarray(trace.outcomes).view(np.uint8),
        choice,
        tk_tags,
        tk_ctr,
        nt_tags,
        nt_ctr,
        cids,
    )
    return preds.view(bool)


def yags_detailed(
    lane: YagsLane,
    trace: BranchTrace,
    hist_cache: Optional[Dict[int, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(predictions, counter_ids)``: choice table, then taken cache,
    then not-taken cache; a hit charges the hitting cache entry, a miss
    the choice counter that supplied the bias."""
    cids = np.empty(len(trace), dtype=np.int64)
    return _yags_run(lane, trace, hist_cache, cids), cids


def yags_predictions(
    lane: YagsLane,
    trace: BranchTrace,
    hist_cache: Optional[Dict[int, np.ndarray]] = None,
) -> np.ndarray:
    return _yags_run(lane, trace, hist_cache, None)


def perceptron_predictions(
    lane: PerceptronLane,
    trace: BranchTrace,
    hist_cache: Optional[Dict[int, np.ndarray]] = None,
) -> np.ndarray:
    weights = np.zeros((1 << lane.index_bits) * (lane.hist_bits + 1), dtype=np.int32)
    preds = _cstep.perceptron_lane(
        np.ascontiguousarray(trace.pcs, dtype=np.int64),
        np.ascontiguousarray(trace.outcomes).view(np.uint8),
        lane.index_bits,
        lane.hist_bits,
        lane.theta,
        lane.w_min,
        lane.w_max,
        weights,
    )
    return preds.view(bool)


def perceptron_detailed(
    lane: PerceptronLane,
    trace: BranchTrace,
    hist_cache: Optional[Dict[int, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(predictions, counter_ids)``: the accessed weight row is
    selected by address alone, so the ids are a pure vectorized hash;
    the predictions still need the sequential loop."""
    preds = perceptron_predictions(lane, trace, hist_cache)
    return preds, (trace.pcs & mask(lane.index_bits)).astype(np.int64)


def _biasfilter_classify(
    lane: BiasFilterLane, pcs: np.ndarray, outcomes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized filter automaton: ``(filtered, filtered_pred)`` per
    access, both in trace order (``filtered_pred`` valid where
    ``filtered``).

    Within each filter slot's stable grouping, the run counter an
    access observes is ``min(max_run, streak)`` where ``streak`` is the
    length of the run of identical outcomes ending at the previous
    same-slot access, and the direction bit it observes is that
    previous access's outcome.
    """
    n = len(pcs)
    slots = (pcs & mask(lane.filter_bits)).astype(np.int32)
    order = _cstep.stable_group_order(slots, 1 << lane.filter_bits)
    g_slot = slots[order]
    g_out = outcomes[order]

    seg_start = np.empty(n, dtype=bool)
    seg_start[0] = True
    np.not_equal(g_slot[1:], g_slot[:-1], out=seg_start[1:])
    # a run restarts at a segment start or an outcome flip
    boundary = seg_start.copy()
    boundary[1:] |= g_out[1:] != g_out[:-1]
    idx = np.arange(n, dtype=np.int64)
    last_boundary = np.maximum.accumulate(np.where(boundary, idx, -1))
    streak = idx - last_boundary + 1

    prev_streak = np.empty(n, dtype=np.int64)
    prev_streak[0] = 0
    prev_streak[1:] = streak[:-1]
    g_filtered = ~seg_start & (prev_streak >= lane.max_run)
    g_pred = np.empty(n, dtype=bool)
    g_pred[0] = False
    g_pred[1:] = g_out[:-1]  # valid wherever g_filtered (never at seg start)

    filtered = np.empty(n, dtype=bool)
    filtered[order] = g_filtered
    filtered_pred = np.empty(n, dtype=bool)
    filtered_pred[order] = g_pred
    return filtered, filtered_pred


def biasfilter_predictions(
    lane: BiasFilterLane,
    trace: BranchTrace,
    hist_cache: Optional[Dict[int, np.ndarray]] = None,
) -> np.ndarray:
    size = 1 << lane.filter_bits
    dirs = np.zeros(size, dtype=np.uint8)
    runs = np.zeros(size, dtype=np.int8)
    sub_table = np.full(1 << lane.sub_index_bits, WEAKLY_TAKEN, dtype=np.int8)
    preds = _cstep.biasfilter_lane(
        np.ascontiguousarray(trace.pcs, dtype=np.int64),
        np.ascontiguousarray(trace.outcomes).view(np.uint8),
        lane.filter_bits,
        lane.max_run,
        lane.sub_index_bits,
        lane.sub_hist_bits,
        dirs,
        runs,
        sub_table,
    )
    return preds.view(bool)


def biasfilter_detailed(
    lane: BiasFilterLane,
    trace: BranchTrace,
    hist_cache: Optional[Dict[int, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(predictions, counter_ids)``: filter slots first, then the
    sub-predictor's counters offset by the filter size.  The
    filtered/unfiltered classification and both id streams are
    feedback-free (the filter automaton evolves from ``(pcs, outcomes)``
    alone), so only the sub-predictor's counter automaton is sequential.
    """
    n = len(trace)
    preds = np.empty(n, dtype=bool)
    cids = np.empty(n, dtype=np.int64)
    if n == 0:
        return preds, cids
    pcs = trace.pcs
    outcomes = trace.outcomes
    filtered, filtered_pred = _biasfilter_classify(lane, pcs, outcomes)
    preds[filtered] = filtered_pred[filtered]
    cids[filtered] = (pcs[filtered] & mask(lane.filter_bits)).astype(np.int64)

    # unfiltered subsequence: ordinary gshare/bimodal counter automaton
    # over the compressed arrays (the sub's history skips filtered
    # branches, so the full-trace hist_cache does not apply), ids offset
    # past the filter slots
    unfiltered = np.flatnonzero(~filtered)
    sub_pcs = pcs[unfiltered]
    sub_out = outcomes[unfiltered]
    histories = global_history_stream(sub_out, lane.sub_hist_bits)
    keys = gshare_index_stream(
        sub_pcs, histories, lane.sub_index_bits, lane.sub_hist_bits
    ).astype(np.int64)
    pre = _observed_states(
        keys, _train_deltas(sub_out), 1 << lane.sub_index_bits, WEAKLY_TAKEN, 3
    )
    preds[unfiltered] = pre >= 2
    cids[unfiltered] = (1 << lane.filter_bits) + keys
    return preds, cids


def static_detailed(
    lane: StaticLane,
    trace: BranchTrace,
    hist_cache: Optional[Dict[int, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(predictions, counter_ids)``: btfnt attributes to its two
    virtual rules (0 = forward, 1 = backward); the fixed schemes have a
    single virtual counter.  The statics keep no state, so this
    vectorized one-shot is their only batch form and needs no compiler."""
    if lane.scheme == "btfnt":
        preds = (trace.pcs & 1).astype(bool)
        return preds, preds.astype(np.int64)
    preds = np.full(len(trace), lane.scheme == "always-taken", dtype=bool)
    return preds, np.zeros(len(trace), dtype=np.int64)


def static_rates(lanes: Sequence[StaticLane], trace: BranchTrace) -> List[float]:
    """Misprediction rates without materializing predictions: one numpy
    reduction per lane, bit-identical to ``count_nonzero(preds !=
    outcomes) / n`` (the counts are exact integers, so the division
    matches)."""
    n = len(trace)
    if n == 0:
        return [0.0] * len(lanes)

    def misses(scheme: str) -> int:
        if scheme == "btfnt":
            return int(np.count_nonzero((trace.pcs & 1).astype(bool) != trace.outcomes))
        taken = int(np.count_nonzero(trace.outcomes))
        return n - taken if scheme == "always-taken" else taken

    return [misses(lane.scheme) / n for lane in lanes]


def detailed_num_counters(lane) -> int:
    """Section-4 counter count of a lane — the ``num_counters`` of the
    :class:`~repro.core.interfaces.DetailedSimulation` the scalar
    predictor would build for the same configuration."""
    if isinstance(lane, GShareLane):
        return lane.table_size
    if isinstance(lane, BiModeLane):
        return 2 * lane.bank_size
    if isinstance(lane, BimodalLane):
        return 1 << lane.index_bits
    if isinstance(lane, TwoLevelLane):
        return 1 << (lane.hist_bits + lane.select_bits)
    if isinstance(lane, AgreeLane):
        return 1 << lane.index_bits
    if isinstance(lane, GSkewLane):
        return 3 << lane.bank_bits
    if isinstance(lane, TournamentLane):
        return 2 << lane.index_bits
    if isinstance(lane, TriModeLane):
        return 3 << lane.dir_bits
    if isinstance(lane, YagsLane):
        return (1 << lane.choice_bits) + (2 << lane.cache_bits)
    if isinstance(lane, PerceptronLane):
        return 1 << lane.index_bits
    if isinstance(lane, BiasFilterLane):
        return (1 << lane.filter_bits) + (1 << lane.sub_index_bits)
    if isinstance(lane, StaticLane):
        return 2 if lane.scheme == "btfnt" else 1
    raise TypeError(f"unknown lane type {type(lane).__name__}")
