"""Predictor factory and spec strings.

Experiments, benchmarks and the CLI refer to predictor configurations by
compact *spec strings* of the form ``scheme:key=value,key=value``, e.g.::

    bimode:dir=10,hist=10,choice=10
    gshare:index=12,hist=8
    gas:hist=6,select=4

:func:`make_predictor` builds a predictor from a spec (or from a scheme
name plus keyword arguments).  The registry doubles as the cache key
namespace: a spec string uniquely determines a predictor configuration,
so ``(spec, trace-id)`` identifies a simulation result.

Size-class helpers :func:`gshare_at_kb` and :func:`bimode_at_kb`
translate the paper's cost axis (KB of 2-bit counters, Figures 2–4)
into concrete geometries.
"""

from __future__ import annotations

import difflib
from typing import Callable, Dict, Iterable, List

from repro.core.bimode import BiModePredictor
from repro.core.hardware import HardwareBudget
from repro.core.interfaces import BranchPredictor
from repro.predictors.agree import AgreePredictor
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.filtered import BiasFilterPredictor
from repro.predictors.gshare import GSharePredictor
from repro.predictors.gskew import GSkewPredictor
from repro.predictors.static_ import (
    AlwaysNotTakenPredictor,
    AlwaysTakenPredictor,
    BTFNTPredictor,
)
from repro.predictors.tournament import TournamentPredictor
from repro.predictors.trimode import TriModePredictor
from repro.predictors.perceptron import PerceptronPredictor
from repro.predictors.twolevel import (
    GAgPredictor,
    GApPredictor,
    GAsPredictor,
    GSelectPredictor,
    PAgPredictor,
    PApPredictor,
    PAsPredictor,
)
from repro.predictors.yags import YagsPredictor

__all__ = [
    "available_schemes",
    "check_specs",
    "make_predictor",
    "parse_spec",
    "gshare_at_kb",
    "bimode_at_kb",
]


def _build_bimode(**kw) -> BiModePredictor:
    return BiModePredictor(
        direction_index_bits=int(kw.pop("dir")),
        history_bits=int(kw.pop("hist")) if "hist" in kw else None,
        choice_index_bits=int(kw.pop("choice")) if "choice" in kw else None,
        full_update=bool(int(kw.pop("full_update", 0))),
        choice_uses_history=bool(int(kw.pop("choice_hist", 0))),
        **kw,
    )


def _build_gshare(**kw) -> GSharePredictor:
    return GSharePredictor(
        index_bits=int(kw.pop("index")),
        history_bits=int(kw.pop("hist")) if "hist" in kw else None,
        **kw,
    )


def _build_bimodal(**kw) -> BimodalPredictor:
    return BimodalPredictor(
        index_bits=int(kw.pop("index")),
        counter_bits=int(kw.pop("bits", 2)),
        **kw,
    )


def _build_gag(**kw) -> GAgPredictor:
    return GAgPredictor(history_bits=int(kw.pop("hist")), **kw)


def _build_gas(**kw) -> GAsPredictor:
    return GAsPredictor(
        history_bits=int(kw.pop("hist")), pht_select_bits=int(kw.pop("select")), **kw
    )


def _build_gselect(**kw) -> GSelectPredictor:
    return GSelectPredictor(
        history_bits=int(kw.pop("hist")), pht_select_bits=int(kw.pop("addr")), **kw
    )


def _build_pag(**kw) -> PAgPredictor:
    return PAgPredictor(
        history_bits=int(kw.pop("hist")), bht_index_bits=int(kw.pop("bht")), **kw
    )


def _build_pas(**kw) -> PAsPredictor:
    return PAsPredictor(
        history_bits=int(kw.pop("hist")),
        pht_select_bits=int(kw.pop("select")),
        bht_index_bits=int(kw.pop("bht")),
        **kw,
    )


def _build_gap(**kw) -> GApPredictor:
    return GApPredictor(
        history_bits=int(kw.pop("hist")), address_bits=int(kw.pop("addr", 8)), **kw
    )


def _build_pap(**kw) -> PApPredictor:
    return PApPredictor(
        history_bits=int(kw.pop("hist")),
        address_bits=int(kw.pop("addr")),
        bht_index_bits=int(kw.pop("bht")),
        **kw,
    )


def _build_perceptron(**kw) -> PerceptronPredictor:
    return PerceptronPredictor(
        index_bits=int(kw.pop("index")),
        history_bits=int(kw.pop("hist", 12)),
        weight_bits=int(kw.pop("w", 8)),
        **kw,
    )


def _build_agree(**kw) -> AgreePredictor:
    return AgreePredictor(
        index_bits=int(kw.pop("index")),
        history_bits=int(kw.pop("hist")) if "hist" in kw else None,
        bias_index_bits=int(kw.pop("bias")) if "bias" in kw else None,
        **kw,
    )


def _build_gskew(**kw) -> GSkewPredictor:
    return GSkewPredictor(
        bank_index_bits=int(kw.pop("bank")),
        history_bits=int(kw.pop("hist")) if "hist" in kw else None,
        update_policy=kw.pop("update", "enhanced"),
        **kw,
    )


def _build_yags(**kw) -> YagsPredictor:
    return YagsPredictor(
        choice_index_bits=int(kw.pop("choice")),
        cache_index_bits=int(kw.pop("cache")),
        history_bits=int(kw.pop("hist")) if "hist" in kw else None,
        tag_bits=int(kw.pop("tag", 6)),
        **kw,
    )


def _build_biasfilter(**kw) -> BiasFilterPredictor:
    """Spec form wraps a sub-predictor selected by ``sub=`` (gshare by
    default): ``biasfilter:table=12,run=3,sub_index=12,sub_hist=12`` or
    ``biasfilter:table=12,run=3,sub=bimodal,sub_index=12``."""
    sub_scheme = kw.pop("sub", "gshare")
    if sub_scheme == "gshare":
        sub: BranchPredictor = GSharePredictor(
            index_bits=int(kw.pop("sub_index")),
            history_bits=int(kw.pop("sub_hist")) if "sub_hist" in kw else None,
        )
    elif sub_scheme == "bimodal":
        sub = BimodalPredictor(index_bits=int(kw.pop("sub_index")))
    elif sub_scheme == "bimode":
        sub = BiModePredictor(
            direction_index_bits=int(kw.pop("sub_index")),
            history_bits=int(kw.pop("sub_hist")) if "sub_hist" in kw else None,
        )
    else:
        raise ValueError(
            f"unknown biasfilter sub-predictor {sub_scheme!r} "
            "(supported: gshare, bimodal, bimode)"
        )
    return BiasFilterPredictor(
        sub_predictor=sub,
        filter_index_bits=int(kw.pop("table", 12)),
        run_bits=int(kw.pop("run", 3)),
        **kw,
    )


def _build_trimode(**kw) -> TriModePredictor:
    return TriModePredictor(
        direction_index_bits=int(kw.pop("dir")),
        history_bits=int(kw.pop("hist")) if "hist" in kw else None,
        choice_index_bits=int(kw.pop("choice")) if "choice" in kw else None,
        **kw,
    )


def _build_tournament(**kw) -> TournamentPredictor:
    """Spec form builds the McFarling bimodal + gshare pairing."""
    index = int(kw.pop("index"))
    meta = int(kw.pop("meta", index))
    return TournamentPredictor(
        component_a=BimodalPredictor(index_bits=index),
        component_b=GSharePredictor(index_bits=index),
        meta_index_bits=meta,
        **kw,
    )


_REGISTRY: Dict[str, Callable[..., BranchPredictor]] = {
    "bimode": _build_bimode,
    "gshare": _build_gshare,
    "bimodal": _build_bimodal,
    "gag": _build_gag,
    "gas": _build_gas,
    "gap": _build_gap,
    "gselect": _build_gselect,
    "pag": _build_pag,
    "pas": _build_pas,
    "pap": _build_pap,
    "perceptron": _build_perceptron,
    "agree": _build_agree,
    "gskew": _build_gskew,
    "yags": _build_yags,
    "tournament": _build_tournament,
    "trimode": _build_trimode,
    "biasfilter": _build_biasfilter,
    "always-taken": lambda **kw: AlwaysTakenPredictor(**kw),
    "always-not-taken": lambda **kw: AlwaysNotTakenPredictor(**kw),
    "btfnt": lambda **kw: BTFNTPredictor(**kw),
}


def available_schemes() -> list:
    """Sorted list of registered scheme names."""
    return sorted(_REGISTRY)


def parse_spec(spec: str):
    """Split ``"scheme:k=v,k=v"`` into ``(scheme, {k: v})`` (values as strings)."""
    scheme, _, argstr = spec.partition(":")
    scheme = scheme.strip()
    if not scheme:
        raise ValueError(f"empty scheme in spec {spec!r}")
    kwargs = {}
    if argstr.strip():
        for item in argstr.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise ValueError(f"malformed option {item!r} in spec {spec!r}")
            kwargs[key.strip()] = value.strip()
    return scheme, kwargs


def make_predictor(spec_or_scheme: str, **kwargs) -> BranchPredictor:
    """Build a predictor from a spec string or scheme name + kwargs.

    Any problem with the spec — unknown scheme, missing or unknown
    option, out-of-range geometry — raises :class:`ValueError` naming
    the offending spec string, so a bad spec buried in a sweep's
    configuration list is identifiable from the message alone.

    >>> make_predictor("gshare:index=10,hist=8").name
    'gshare:index=10,hist=8'
    >>> make_predictor("bimode", dir=9).bank_size
    512
    """
    if ":" in spec_or_scheme and not kwargs:
        spec = spec_or_scheme
        scheme, kwargs = parse_spec(spec_or_scheme)
    elif kwargs:
        scheme = spec_or_scheme
        spec = f"{scheme}:" + ",".join(f"{k}={v}" for k, v in kwargs.items())
    else:
        scheme = spec = spec_or_scheme
    builder = _REGISTRY.get(scheme)
    if builder is None:
        close = difflib.get_close_matches(scheme, available_schemes(), n=1)
        hint = f" (did you mean {close[0]!r}?)" if close else ""
        raise ValueError(
            f"unknown predictor scheme {scheme!r} in spec {spec!r}{hint}; "
            f"available: {available_schemes()}"
        )
    try:
        return builder(**kwargs)
    except KeyError as exc:
        raise ValueError(
            f"invalid spec {spec!r}: missing required option {exc.args[0]!r}"
        ) from exc
    except TypeError as exc:
        raise ValueError(f"invalid spec {spec!r}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"invalid spec {spec!r}: {exc}") from exc


def check_specs(specs: Iterable[str]) -> List[str]:
    """Validate a sweep's spec list before any cell runs.

    A bare ``str`` is rejected with :class:`TypeError` — iterating it
    would yield one-letter "specs".  Every distinct spec is then built
    once, so an invalid one raises :class:`ValueError` naming it (see
    :func:`make_predictor`) instead of failing, or being quarantined,
    mid-sweep.  Returns the specs as a list, order and duplicates kept.
    """
    if isinstance(specs, str):
        raise TypeError(
            f"specs must be an iterable of spec strings, not the str {specs!r}; "
            f"wrap a single spec in a list"
        )
    specs = list(specs)
    for spec in dict.fromkeys(specs):
        if not isinstance(spec, str):
            raise TypeError(f"spec must be a str, got {type(spec).__name__}: {spec!r}")
        make_predictor(spec)
    return specs


# -- paper size-axis helpers -----------------------------------------------------


def gshare_at_kb(kbytes: float, history_bits: int | None = None) -> GSharePredictor:
    """gshare consuming ``kbytes`` KB of 2-bit counters.

    ``history_bits=None`` gives the single-PHT configuration
    (gshare.1PHT); smaller values give the multi-PHT family.
    """
    index_bits = HardwareBudget(kbytes).index_bits
    return GSharePredictor(index_bits=index_bits, history_bits=history_bits)


def bimode_at_kb(
    kbytes: float, history_bits: int | None = None
) -> BiModePredictor:
    """Bi-mode whose *direction banks* consume ``kbytes`` KB of counters.

    Each bank gets half the budget; the choice predictor adds another
    half-budget table on top, reproducing the paper's "naturally 1.5x
    the next smaller gshare" cost (Section 3.3).  The returned
    predictor's true cost is ``1.5 * kbytes`` KB — report
    ``predictor.size_bytes()`` when plotting.
    """
    index_bits = HardwareBudget(kbytes).index_bits
    if index_bits < 1:
        raise ValueError(f"{kbytes} KB is too small to split into two banks")
    return BiModePredictor(
        direction_index_bits=index_bits - 1,
        history_bits=min(history_bits, index_bits - 1) if history_bits is not None else None,
    )
