"""Scheme-agnostic kernel registry: spec -> batch kernel or scalar fallback.

Every registered predictor scheme has exactly three implementations:

* its **batch kernel** — a compiled loop from :mod:`repro.sim._cstep`:
  the fused family passes of :mod:`repro.sim.batch` (gshare) and
  :mod:`repro.sim.batch_bimode` (bi-mode), and the per-lane loops of
  :mod:`repro.sim.lanes` for every other scheme.  The static schemes
  have no automaton; their vectorized one-shot is their batch kernel
  and runs on every host;
* its **scalar predictor** (:mod:`repro.predictors`, :mod:`repro.core`)
  — the reference implementation, and the fallback on a host without
  a C compiler;
* the **dict oracle** (:mod:`repro.verify.oracle`) — the independent
  check the equivalence suites and the benchmark gate compare against.

``kernel_for_spec(spec)`` resolves a spec to a *kernel kind* (its
scheme name, or ``"scalar"`` when no lane parser accepts its knobs)
plus a parsed lane description.  ``family_rates``,
``family_predictions`` and ``family_detailed`` evaluate one family of
lanes, choosing the engine with :func:`family_engine` and reporting
the choice through :mod:`repro.health` (component ``"<kind>-kernel"``).

Dispatch
--------
One knob, ``REPRO_KERNEL``, selects the engine for every scheme:

* ``auto`` (default) — the compiled kernels when a C compiler is
  available; otherwise every compiled family runs its scalar predictor,
  reported as one degraded health event per family naming the reason;
* ``c`` — the compiled kernels, or ``RuntimeError`` (no silent
  fallback);
* ``scalar`` — everything through the scalar engine (the fused planner
  routes every spec to the scalar family, with the pin as the reason).

``REPRO_NO_CC=1`` vetoes the compiler, which is how the no-compiler
platform is exercised.

The verification suite (``tests/test_kernels.py``) is generated from
:data:`KERNELS`, so a scheme that registers in ``core/registry.py``
without a kernel here — or without oracle and golden coverage — fails
CI by construction.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim import _cstep
from repro.sim import lanes as _lanes
from repro.sim.batch import gshare_family_rates, gshare_lane_detailed, lane_for_spec
from repro.sim.batch_bimode import (
    BiModeLane,
    bimode_family_rates,
    bimode_lane_detailed,
    bimode_lane_for_spec,
)
from repro.traces.record import BranchTrace

__all__ = [
    "SCALAR_ONLY",
    "BIASFILTER_SUBS",
    "KernelEntry",
    "KERNELS",
    "kernel_mode",
    "kernel_for_spec",
    "family_engine",
    "spec_for_predictor",
    "registered_schemes",
    "family_order",
    "family_rates",
    "family_predictions",
    "family_detailed",
    "planner_vetoes",
]

#: Schemes deliberately left on the scalar engine: empty since every
#: registered scheme gained a batch kernel.  A meta-test asserts it
#: stays empty, so a future scheme cannot quietly register without one.
SCALAR_ONLY = frozenset()

#: Sub-predictor schemes the bias-filter kernel executes in-lane; a
#: ``biasfilter:...,sub=<other>`` spec runs scalar with an explicit
#: planner veto (:func:`planner_vetoes`).
BIASFILTER_SUBS = _lanes.BIASFILTER_SUBS


@dataclass(frozen=True)
class KernelEntry:
    """One scheme's batch kernel: how to parse its specs and run its lanes."""

    scheme: str
    lane_for_spec: Callable[[str], Optional[object]]
    #: Section-4 attribution kernel ``(lane, trace, hist_cache) ->
    #: (predictions, counter_ids)``, bit-identical to the scalar
    #: ``simulate_detailed`` loop from power-on state.
    detailed: Callable[..., Tuple[np.ndarray, np.ndarray]]
    #: Prediction-only kernel with the same signature, for schemes whose
    #: loop skips the attribution work; default ``detailed(...)[0]``.
    predictions: Optional[Callable[..., np.ndarray]] = None
    #: Whole-family rate kernel ``(lanes, trace) -> [rate]`` for schemes
    #: that reduce to miss counts without materializing predictions (the
    #: fused gshare/bi-mode passes, the statics); must be bit-identical
    #: to the prediction path.
    rates: Optional[Callable[[Sequence[object], BranchTrace], List[float]]] = None
    #: ``"fused"`` for the single-pass family kernels, ``"lane"`` for
    #: per-lane kernels sharing a family's history streams.
    tier: str = "lane"
    #: False for the statics, whose vectorized one-shot needs no compiler.
    compiled: bool = True


#: Every scheme's kernel, in planner/display order (fused families first).
KERNELS: Dict[str, KernelEntry] = {
    "gshare": KernelEntry(
        "gshare",
        lane_for_spec,
        gshare_lane_detailed,
        rates=gshare_family_rates,
        tier="fused",
    ),
    "bimode": KernelEntry(
        "bimode",
        bimode_lane_for_spec,
        bimode_lane_detailed,
        rates=bimode_family_rates,
        tier="fused",
    ),
    "bimodal": KernelEntry("bimodal", _lanes.bimodal_lane_for_spec, _lanes.bimodal_detailed),
    **{
        scheme: KernelEntry(scheme, _lanes.twolevel_lane_for_spec, _lanes.twolevel_detailed)
        for scheme in ("gag", "gas", "gap", "gselect", "pag", "pas", "pap")
    },
    "agree": KernelEntry("agree", _lanes.agree_lane_for_spec, _lanes.agree_detailed),
    "gskew": KernelEntry(
        "gskew", _lanes.gskew_lane_for_spec, _lanes.gskew_detailed, _lanes.gskew_predictions
    ),
    "tournament": KernelEntry(
        "tournament", _lanes.tournament_lane_for_spec, _lanes.tournament_detailed
    ),
    "trimode": KernelEntry(
        "trimode",
        _lanes.trimode_lane_for_spec,
        _lanes.trimode_detailed,
        _lanes.trimode_predictions,
    ),
    "yags": KernelEntry(
        "yags", _lanes.yags_lane_for_spec, _lanes.yags_detailed, _lanes.yags_predictions
    ),
    "perceptron": KernelEntry(
        "perceptron",
        _lanes.perceptron_lane_for_spec,
        _lanes.perceptron_detailed,
        _lanes.perceptron_predictions,
    ),
    "biasfilter": KernelEntry(
        "biasfilter",
        _lanes.biasfilter_lane_for_spec,
        _lanes.biasfilter_detailed,
        _lanes.biasfilter_predictions,
    ),
    **{
        scheme: KernelEntry(
            scheme,
            _lanes.static_lane_for_spec,
            _lanes.static_detailed,
            rates=_lanes.static_rates,
            compiled=False,
        )
        for scheme in ("always-taken", "always-not-taken", "btfnt")
    },
}


def kernel_mode() -> str:
    """The ``REPRO_KERNEL`` knob: ``auto`` (default), ``c`` or ``scalar``."""
    mode = os.environ.get("REPRO_KERNEL", "auto").strip().lower() or "auto"
    if mode not in ("auto", "c", "scalar"):
        raise ValueError(f"REPRO_KERNEL must be auto/c/scalar, got {mode!r}")
    return mode


def family_order() -> Tuple[str, ...]:
    """Every family kind, in planner order (fused first, scalar last)."""
    return (*KERNELS, "scalar")


def kernel_for_spec(spec: str) -> Tuple[str, Optional[object]]:
    """Resolve a spec to ``(kind, lane)``; ``("scalar", None)`` when no
    lane kernel covers it.

    Resolution is structural only — ``REPRO_KERNEL`` changes which
    *engine* runs a family, not which family a spec belongs to (except
    ``scalar``, which the planner applies before ever asking).  A spec
    whose knobs a lane parser rejects (out-of-range geometry, unknown
    options) falls to scalar so the scalar constructor can raise its
    original, descriptive error.
    """
    entry = KERNELS.get(spec.split(":", 1)[0].strip())
    lane = entry.lane_for_spec(spec) if entry is not None else None
    if lane is None:
        return "scalar", None
    return entry.scheme, lane


def family_engine(kind: str) -> Tuple[str, str]:
    """``(engine, reason)`` for one family of ``kind``.

    ``engine`` is ``"c"`` (the compiled kernel), ``"vectorized"`` (the
    statics' one-shot, which needs no compiler) or ``"scalar"`` (the
    scalar predictor); ``reason`` says why the scalar engine was chosen.
    ``REPRO_KERNEL=c`` without a compiler raises ``RuntimeError``.
    """
    mode = kernel_mode()
    if mode == "scalar":
        return "scalar", "REPRO_KERNEL=scalar pin"
    if not KERNELS[kind].compiled:
        return "vectorized", ""
    if _cstep.available():
        return "c", ""
    if mode == "c":
        raise RuntimeError(
            "REPRO_KERNEL=c but no compiled driver is available "
            f"({_cstep.unavailable_reason() or 'no C compiler'})"
        )
    return "scalar", _cstep.unavailable_reason() or "compiled driver unavailable"


def _dispatch(kind: str, cells: int) -> str:
    """Resolve and health-report one family's engine."""
    from repro import health

    engine, reason = family_engine(kind)
    # Only a missing compiler is a degradation; the scalar pin asked
    # for exactly what it got.
    expected = "c" if engine == "scalar" and kernel_mode() != "scalar" else engine
    health.engine_used(f"{kind}-kernel", engine, expected=expected, cells=cells, reason=reason)
    return engine


def family_predictions(
    kind: str, specs: Sequence[str], lanes: Sequence[object], trace: BranchTrace
) -> List[np.ndarray]:
    """Per-branch predictions of every lane of one family.

    Rows are bit-for-bit what the scalar predictor would emit from
    power-on state; lanes of one family share precomputed history
    streams.
    """
    from repro.core.registry import make_predictor
    from repro.sim.engine import run

    if len(specs) != len(lanes):
        raise ValueError("specs and lanes must be parallel")
    if _dispatch(kind, len(specs)) == "scalar":
        return [
            np.asarray(run(make_predictor(spec), trace).predictions, dtype=bool)
            for spec in specs
        ]
    entry = KERNELS[kind]
    hist_cache: Dict[int, np.ndarray] = {}
    if entry.predictions is not None:
        return [entry.predictions(lane, trace, hist_cache) for lane in lanes]
    return [entry.detailed(lane, trace, hist_cache)[0] for lane in lanes]


def family_detailed(
    kind: str, specs: Sequence[str], lanes: Sequence[object], trace: BranchTrace
) -> List[Tuple[np.ndarray, np.ndarray, int]]:
    """Section-4 attribution of every lane of one family.

    Returns ``(predictions, counter_ids, num_counters)`` per lane,
    bit-for-bit what the scalar ``simulate_detailed`` loop would emit
    from power-on state.
    """
    from repro.core.registry import make_predictor

    if len(specs) != len(lanes):
        raise ValueError("specs and lanes must be parallel")
    if _dispatch(kind, len(specs)) == "scalar":
        out = []
        for spec in specs:
            detailed = make_predictor(spec).simulate_detailed(trace)
            out.append(
                (
                    np.asarray(detailed.result.predictions, dtype=bool),
                    detailed.counter_ids,
                    detailed.num_counters,
                )
            )
        return out
    entry = KERNELS[kind]
    hist_cache: Dict[int, np.ndarray] = {}
    return [
        (*entry.detailed(lane, trace, hist_cache), _lanes.detailed_num_counters(lane))
        for lane in lanes
    ]


def family_rates(
    kind: str, specs: Sequence[str], lanes: Sequence[object], trace: BranchTrace
) -> List[float]:
    """Misprediction rate of every lane of one family."""
    from repro.core.registry import make_predictor
    from repro.sim.engine import run

    n = len(trace)
    if n == 0:
        return [0.0 for _ in specs]
    entry = KERNELS[kind]
    if entry.rates is None:
        outcomes = trace.outcomes
        return [
            int(np.count_nonzero(preds != outcomes)) / n
            for preds in family_predictions(kind, specs, lanes, trace)
        ]
    if _dispatch(kind, len(specs)) == "scalar":
        return [run(make_predictor(spec), trace).misprediction_rate for spec in specs]
    return entry.rates(lanes, trace)


def spec_for_predictor(predictor: object) -> Optional[str]:
    """Reconstruct the canonical spec of a live predictor instance, or
    ``None`` when its configuration has no spec form.

    The detailed-kernel dispatcher receives a *predictor object*, not a
    spec (``engine.run_detailed``'s contract), and predictor ``name``
    strings are display labels, not parseable specs (the bias filter
    brackets its sub-predictor; agree renames its knobs).  Rebuilding
    the spec from the instance's attributes and round-tripping it
    through the lane parsers reuses their geometry validation, so a
    hand-constructed predictor outside a lane's supported range safely
    resolves to the scalar family.
    """
    from repro.core.bimode import BiModePredictor
    from repro.predictors.agree import AgreePredictor
    from repro.predictors.bimodal import BimodalPredictor
    from repro.predictors.filtered import BiasFilterPredictor
    from repro.predictors.gshare import GSharePredictor
    from repro.predictors.gskew import GSkewPredictor
    from repro.predictors.perceptron import PerceptronPredictor
    from repro.predictors.static_ import (
        AlwaysNotTakenPredictor,
        AlwaysTakenPredictor,
        BTFNTPredictor,
    )
    from repro.predictors.tournament import TournamentPredictor
    from repro.predictors.trimode import TriModePredictor
    from repro.predictors.twolevel import TwoLevelPredictor
    from repro.predictors.yags import YagsPredictor

    p = predictor
    if isinstance(p, GSharePredictor):
        return f"gshare:index={p.index_bits},hist={p.history_bits}"
    if isinstance(p, BiModePredictor):
        return BiModeLane(
            dir_bits=p.direction_index_bits,
            hist_bits=p.history_bits,
            choice_bits=p.choice_index_bits,
            full_update=p.full_update,
            choice_uses_history=p.choice_uses_history,
        ).spec
    if isinstance(p, BimodalPredictor):
        return f"bimodal:index={p.index_bits},bits={p.table.bits}"
    if isinstance(p, TwoLevelPredictor):
        scheme = type(p).scheme
        knobs = [f"hist={p.history_bits}"]
        if scheme in ("gas", "pas"):
            knobs.append(f"select={p.pht_select_bits}")
        elif scheme in ("gselect", "gap", "pap"):
            knobs.append(f"addr={p.pht_select_bits}")
        if p.per_address:
            knobs.append(f"bht={p.bht.index_bits}")
        return f"{scheme}:" + ",".join(knobs)
    if isinstance(p, AgreePredictor):
        return (
            f"agree:index={p.index_bits},hist={p.history_bits},"
            f"bias={p.bias_index_bits}"
        )
    if isinstance(p, GSkewPredictor):
        return (
            f"gskew:bank={p.bank_index_bits},hist={p.history_bits},"
            f"update={p.update_policy}"
        )
    if isinstance(p, TournamentPredictor):
        a, b = p.component_a, p.component_b
        # the lane models the registry pairing: bimodal + same-geometry
        # gshare at one shared index width
        if (
            isinstance(a, BimodalPredictor)
            and isinstance(b, GSharePredictor)
            and a.table.bits == 2
            and a.index_bits == b.index_bits == b.history_bits
        ):
            return f"tournament:index={a.index_bits},meta={p.meta_index_bits}"
        return None
    if isinstance(p, TriModePredictor):
        return (
            f"trimode:dir={p.direction_index_bits},hist={p.history_bits},"
            f"choice={p.choice_index_bits}"
        )
    if isinstance(p, YagsPredictor):
        return (
            f"yags:choice={p.choice_index_bits},cache={p.cache_index_bits},"
            f"hist={p.history_bits},tag={p.tag_bits}"
        )
    if isinstance(p, PerceptronPredictor):
        return (
            f"perceptron:index={p.index_bits},hist={p.history_bits},"
            f"w={p.weight_bits}"
        )
    if isinstance(p, BiasFilterPredictor):
        sub = p.sub_predictor
        head = f"biasfilter:table={p.filter_index_bits},run={p.run_bits}"
        if isinstance(sub, GSharePredictor):
            return (
                f"{head},sub=gshare,sub_index={sub.index_bits},"
                f"sub_hist={sub.history_bits}"
            )
        if isinstance(sub, BimodalPredictor) and sub.table.bits == 2:
            return f"{head},sub=bimodal,sub_index={sub.index_bits}"
        return None
    if isinstance(p, (AlwaysTakenPredictor, AlwaysNotTakenPredictor)):
        return type(p).scheme
    if isinstance(p, BTFNTPredictor):
        from repro.predictors.static_ import _default_backward_classifier

        # the lane hard-codes the workload convention; a custom
        # backward-classifier has no spec form
        if p._backward is _default_backward_classifier:
            return "btfnt"
        return None
    return None


def registered_schemes() -> Dict[str, str]:
    """Scheme name -> declared kernel tier, for every scheme this
    registry covers.

    The completeness meta-test asserts this spans
    :func:`repro.core.registry.available_schemes`; a newly registered
    scheme missing here fails that test by name.
    """
    tiers = {scheme: entry.tier for scheme, entry in KERNELS.items()}
    tiers.update((scheme, "scalar") for scheme in sorted(SCALAR_ONLY))
    return tiers


def planner_vetoes(specs: Sequence[str]) -> None:
    """Health-report the explicit kernel vetoes among scalar-routed
    ``specs``.

    The generic "unfusable scheme(s)" degradation names schemes the
    registry has never heard of; a bias filter over an unsupported
    sub-predictor is different — the scheme *is* ported, but the
    requested ``sub=`` has no kernel lane — so the veto is reported by
    name under ``biasfilter-kernel``.
    """
    from repro import health
    from repro.core.registry import parse_spec

    for spec in specs:
        if spec.split(":", 1)[0].strip() != "biasfilter":
            continue
        try:
            _, kwargs = parse_spec(spec)
        except ValueError:
            continue
        sub = kwargs.get("sub", "gshare")
        if sub not in BIASFILTER_SUBS:
            health.engine_used(
                "biasfilter-kernel",
                "scalar",
                expected="c",
                cells=1,
                reason=(
                    f"sub-predictor {sub!r} has no kernel lane "
                    f"(supported: {', '.join(BIASFILTER_SUBS)})"
                ),
            )
