"""Compiled trace-generation fast path, bit-identical to ``Program.run``.

``Program.run`` walks the region graph emitting one branch at a time:
every dynamic branch pays a Python method call, a history update and two
list appends, which caps generation at ~1 M branches/s and makes the
trace pipeline — not simulation — the wall for paper-length sweeps.

This module regenerates the *same* trace in two passes:

1. **Event pass** (compiled, :mod:`repro.workloads._cgen`): replay only
   the points where the shared ``random.Random`` stream is actually
   consumed.  The key observation is that draw *timing* is
   history-independent: behaviours draw at phase boundaries (bursty
   biased/correlated sites), on every execution (weak sites), at
   loop-visit starts, and once per region execution (the jump check) —
   and none of those schedules depend on branch outcomes, only on
   earlier draws.  So the pass walks the visit schedule, consumes draws
   in exactly the order ``Program.run`` would (body position order
   within an iteration, loop back-edge at the end of iteration 0, jump
   check after the visit), and records run-length encoded phase values
   per static site.  Each region keeps a persistent min-heap of pending
   phase boundaries keyed by ``(region iteration, body position)`` — the
   draw order within an iteration — so cost is O(draws log sites +
   visits), typically an order of magnitude fewer steps than branches.

2. **Assembly pass** (numpy): expand the visit schedule into the
   ``pcs`` array with gathers, expand the per-site phase runs into
   outcomes with one ``np.repeat``, compute pattern sites from the
   within-visit iteration index, and resolve correlated sites — the
   only history-*dependent* population.  Their non-correlated history
   sources are already final, so each correlated element folds those
   into a partial table index and a compiled in-order sweep settles the
   remaining correlated→correlated dependencies.

Bit-identity with ``Program.run`` holds because the event pass consumes
the Mersenne-Twister stream in the same order with the CPython draw
formulas, verified against the stdlib when the driver loads.  The
differential suite in ``tests/test_fastgen.py`` checks full-trace
equality for every registered profile.

:func:`repro.workloads.generator.generate_trace` runs ``Program.run``
instead, with a :mod:`repro.health` degradation event, when the
compiled driver is unavailable or the program is outside the fast
path's replay envelope — behaviour *subclasses* (which may override draw
logic), loops beyond 8191 iterations, or bursts beyond ~200, all refused
via :class:`UnsupportedProgram`.
"""

from __future__ import annotations

from random import Random
from types import SimpleNamespace
from typing import List

import numpy as np

from repro.traces.record import BranchTrace
from repro.workloads import _cgen
from repro.workloads.cfg import Program
from repro.workloads.components import (
    BiasedBehavior,
    CorrelatedBehavior,
    LoopBehavior,
    PatternBehavior,
)

__all__ = ["UnsupportedProgram", "supports", "fast_run"]


class UnsupportedProgram(ValueError):
    """The program uses behaviours the fast path cannot replay."""


# Site kinds for the assembly pass.
_K_RUN = 0  # outcome comes straight from the phase-run pool
_K_PATTERN = 1  # outcome = pattern[within-visit iteration % len]
_K_CORR = 2  # outcome = table[history bits] ^ flip

_PMAX = 6  # CorrelatedBehavior input cap
_PAD = 1 << 62  # position padding: source index underflows far below 0

# Packed event-record layouts (one int64 per event).  Runs:
# (site << 14) | (13-bit length << 1) | value; visits:
# (prior << 26) | (region << 13) | iterations.
_RUN_BITS = 13
_RUN_MAX = (1 << _RUN_BITS) - 1
_REGION_BITS = 13

#: log(1/2^-53) — the largest value ``-log(1 - random())`` can take —
#: bounds boundary run lengths at ~36.74 * burst_length.
_EXPO_CEIL = 36.75


class _Plan:
    """Per-program static tables for both passes."""

    __slots__ = (
        "num_sites",
        "template",
        "widths",
        "gbase",
        "kind",
        "pat_base",
        "pat_len",
        "pattern_pool",
        "corr_row",
        "corr_flip",
        "posmat",
        "tab_base",
        "table_pool",
        "cl",
    )


def _prepare(program: Program) -> _Plan:
    """Compile the program into flat numpy-friendly tables.

    Raises :class:`UnsupportedProgram` on any behaviour that is not one
    of the four concrete component classes (exact type match: a
    subclass may override draw logic we cannot replay) or whose
    parameters overflow the packed-record layout.
    """
    if len(program.regions) >= (1 << _REGION_BITS):
        raise UnsupportedProgram(f"{len(program.regions)} regions overflow the fast path")

    plan = _Plan()
    template: List[int] = []
    kind: List[int] = []
    pat_base: List[int] = []
    pat_len: List[int] = []
    pattern_pool: List[bool] = []
    corr_row: List[int] = []
    corr_flip: List[bool] = []
    posmat: List[List[int]] = []
    tab_base: List[int] = []
    table_pool: List[bool] = []
    widths: List[int] = []
    gbases: List[int] = []
    max_iter: List[int] = []

    # Flat C layout of the event driver, per region: the phase-boundary
    # sites in body order (b_*), the sites drawing on every execution
    # (p_*), and the loop back-edge (loop_*; g14 -1 when there is none).
    b_off, b_pos, b_g14, b_rate, b_lambd, b_base = [0], [], [], [], [], []
    p_off, p_pos, p_g142, p_p = [0], [], [], []
    loop_g14, loop_trip, loop_jit, loop_res = [], [], [], []

    def add_site(address, k, pbase=0, plen=0, crow=-1, cflip=False):
        template.append(address)
        kind.append(k)
        pat_base.append(pbase)
        pat_len.append(plen)
        corr_row.append(crow)
        corr_flip.append(cflip)

    def add_draws(pos, gid, burst, p, rate, base):
        """Register a site's draws: taken with probability ``p`` on every
        execution when ``burst`` is 1, else phase runs of mean length
        ``burst`` whose value deviates from ``base`` with probability
        ``rate``."""
        if burst == 1:
            p_pos.append(pos)
            p_g142.append((gid << 14) | 2)
            p_p.append(p)
            return
        if round(_EXPO_CEIL * burst) >= _RUN_MAX:
            raise UnsupportedProgram(
                f"burst_length {burst} overflows the packed run layout"
            )
        b_pos.append(pos)
        b_g14.append(gid << 14)
        b_rate.append(rate)
        b_lambd.append(1.0 / burst)
        b_base.append(base)

    gid = 0
    for region in program.regions:
        if region.max_iterations > _RUN_MAX:
            raise UnsupportedProgram(
                f"max_iterations {region.max_iterations} overflows the fast path"
            )
        gbases.append(gid)
        for pos, site in enumerate(region.body):
            beh = site.behavior
            cls = type(beh)
            if cls is BiasedBehavior:
                add_site(site.address, _K_RUN)
                p = beh.p_taken
                add_draws(pos, gid, beh.burst_length, p, min(p, 1.0 - p), p >= 0.5)
            elif cls is PatternBehavior:
                add_site(
                    site.address,
                    _K_PATTERN,
                    pbase=len(pattern_pool),
                    plen=len(beh.pattern),
                )
                pattern_pool.extend(beh.pattern)
            elif cls is CorrelatedBehavior:
                row = len(posmat)
                add_site(site.address, _K_CORR, crow=row, cflip=bool(beh.noise))
                posmat.append(
                    list(beh.positions) + [_PAD] * (_PMAX - len(beh.positions))
                )
                tab_base.append(len(table_pool))
                table_pool.extend(beh.table)
                if beh.noise:
                    add_draws(pos, gid, beh.burst_length, beh.noise, beh.noise, False)
            else:
                raise UnsupportedProgram(
                    f"body site behaviour {cls.__name__} has no fast-path replay"
                )
            gid += 1
        b_off.append(len(b_pos))
        p_off.append(len(p_pos))
        if region.loop is None:
            loop_g14.append(-1)
            loop_trip.append(0)
            loop_jit.append(0)
            loop_res.append(0.0)
        else:
            lb = region.loop.behavior
            if type(lb) is not LoopBehavior:
                raise UnsupportedProgram(
                    f"loop site behaviour {type(lb).__name__} has no fast-path replay"
                )
            add_site(region.loop.address, _K_RUN)
            loop_g14.append(gid << 14)
            loop_trip.append(lb.trip_count)
            loop_jit.append(lb.jitter)
            loop_res.append(lb.resample_prob)
            gid += 1
        widths.append(len(region.body) + (1 if region.loop is not None else 0))
        max_iter.append(region.max_iterations)

    plan.num_sites = gid
    plan.template = np.asarray(template, dtype=np.int64)
    plan.widths = np.asarray(widths, dtype=np.int64)
    plan.gbase = np.asarray(gbases, dtype=np.int64)
    plan.kind = np.asarray(kind, dtype=np.uint8)
    plan.pat_base = np.asarray(pat_base, dtype=np.int64)
    plan.pat_len = np.asarray(pat_len, dtype=np.int64)
    plan.pattern_pool = (
        np.asarray(pattern_pool, dtype=bool) if pattern_pool else np.zeros(1, dtype=bool)
    )
    plan.corr_row = np.asarray(corr_row, dtype=np.int64)
    plan.corr_flip = np.asarray(corr_flip, dtype=bool)
    plan.posmat = (
        np.asarray(posmat, dtype=np.int64)
        if posmat
        else np.zeros((1, _PMAX), dtype=np.int64)
    )
    plan.tab_base = np.asarray(tab_base or [0], dtype=np.int64)
    plan.table_pool = (
        np.asarray(table_pool, dtype=bool) if table_pool else np.zeros(1, dtype=bool)
    )

    s_off, s_ent = [0], []
    for entries in program.schedule:
        s_ent.extend(entries)
        s_off.append(len(s_ent))
    plan.cl = SimpleNamespace(
        width=np.asarray(widths, dtype=np.int32),
        max_iter=np.asarray(max_iter, dtype=np.int32),
        loop_g14=np.asarray(loop_g14, dtype=np.int64),
        loop_trip=np.asarray(loop_trip, dtype=np.int64),
        loop_jit=np.asarray(loop_jit, dtype=np.int32),
        loop_res=np.asarray(loop_res, dtype=np.float64),
        b_off=np.asarray(b_off, dtype=np.int64),
        b_pos=np.asarray(b_pos, dtype=np.int32),
        b_g14=np.asarray(b_g14, dtype=np.int64),
        b_rate=np.asarray(b_rate, dtype=np.float64),
        b_lambd=np.asarray(b_lambd, dtype=np.float64),
        b_base=np.asarray(b_base, dtype=np.uint8),
        p_off=np.asarray(p_off, dtype=np.int64),
        p_pos=np.asarray(p_pos, dtype=np.int32),
        p_g142=np.asarray(p_g142, dtype=np.int64),
        p_p=np.asarray(p_p, dtype=np.float64),
        s_off=np.asarray(s_off, dtype=np.int64),
        s_ent=np.asarray(s_ent, dtype=np.int32),
    )
    return plan


def _plan_of(program: Program) -> _Plan:
    # Plans are static per Program; cached on the instance so repeated
    # generation (sweeps, store materialization retries) compiles once.
    plan = getattr(program, "_fastgen_plan", None)
    if plan is None:
        plan = _prepare(program)
        try:
            program._fastgen_plan = plan
        except (AttributeError, TypeError):  # pragma: no cover - slots
            pass
    return plan


def supports(program: Program) -> bool:
    """Whether :func:`fast_run` can replay this program bit-exactly."""
    try:
        _plan_of(program)
    except UnsupportedProgram:
        return False
    return True


def fast_run(program: Program, length: int, seed: int = 0) -> BranchTrace:
    """Compiled, bit-identical equivalent of ``Program.run``.

    Needs the compiled event driver (:func:`repro.workloads._cgen.available`).
    """
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    if length >= 1 << 34:
        raise UnsupportedProgram(f"length {length} overflows the packed visit layout")
    plan = _plan_of(program)
    program.reset()  # mirror Program.run's behaviour-state side effect

    rng = Random(seed)
    chooser = np.random.default_rng(seed ^ 0x5EED)
    jump_arr = chooser.choice(
        len(program.regions), size=max(64, length // 16 + 16), p=program.weights
    )
    venc, renc = _cgen.events(plan.cl, rng, jump_arr, program.jump_prob, length)
    return _assemble(plan, program, venc, renc, length)


def _assemble(plan, program, venc, renc, length):
    """Pass 2: expand the visit/run event records into a trace (numpy)."""
    if not venc.size:
        return BranchTrace(
            pcs=np.empty(0, dtype=np.int64),
            outcomes=np.empty(0, dtype=bool),
            name=program.name,
            metadata=dict(program.metadata),
        )

    its_v = venc & _RUN_MAX
    regs_v = (venc >> _RUN_BITS) & ((1 << _REGION_BITS) - 1)
    priors_v = venc >> 26
    e_v = plan.widths[regs_v] * its_v
    starts_v = np.concatenate(([0], np.cumsum(e_v)))
    total = int(starts_v[-1])
    idt = np.int64 if total > 2**31 - 1 else np.int32

    w_i = np.repeat(plan.widths.astype(idt)[regs_v], e_v)
    k = np.arange(total, dtype=idt) - np.repeat(starts_v[:-1].astype(idt), e_v)
    q, pos = np.divmod(k, w_i)
    gi = np.repeat(plan.gbase.astype(idt)[regs_v], e_v) + pos
    exec_i = np.repeat(priors_v.astype(idt), e_v) + q
    del k, pos, w_i

    gi = gi[:length]
    q = q[:length]
    exec_i = exec_i[:length]
    pcs = plan.template[gi]

    # phase runs -> per-site outcome pools
    if renc.size:
        rg_a = renc >> 14
        rl_a = (renc >> 1) & _RUN_MAX
        rv_a = (renc & 1).astype(bool)
        order = np.argsort(rg_a.astype(np.int32), kind="stable")
        pool = np.repeat(rv_a[order], rl_a[order])
        site_tot = np.bincount(rg_a, weights=rl_a, minlength=plan.num_sites)
        pool_base = np.zeros(plan.num_sites, dtype=idt)
        np.cumsum(site_tot[:-1], out=site_tot[:-1])
        pool_base[1:] = site_tot[:-1].astype(idt)
    else:  # pragma: no cover - only patterns/noise-free correlations
        pool = np.zeros(1, dtype=bool)
        pool_base = np.zeros(plan.num_sites, dtype=idt)

    # gather run-pool values for every element (cheaper than a masked
    # scatter; pattern/correlated elements are overwritten below, their
    # bogus pool indices are clipped into range)
    pidx = pool_base[gi] + exec_i
    np.minimum(pidx, idt(pool.size - 1), out=pidx)
    out = pool[pidx]
    kin = plan.kind[gi]
    m_pat = kin == _K_PATTERN
    if m_pat.any():
        gp = gi[m_pat]
        out[m_pat] = plan.pattern_pool[plan.pat_base[gp] + q[m_pat] % plan.pat_len[gp]]

    ci = np.flatnonzero(kin == _K_CORR)
    if ci.size:
        _resolve_correlated(plan, out, ci, gi[ci], exec_i[ci], pool, pool_base)

    return BranchTrace(
        pcs=pcs,
        outcomes=out,
        name=program.name,
        metadata=dict(program.metadata),
    )


def _resolve_correlated(plan, out, ci, g_c, exec_c, pool, pool_base):
    """Fill correlated-site outcomes into ``out`` (in place).

    A correlated element reads history bits — outcomes of elements a
    few positions back — so correlated elements form dependency chains
    over the trace.  Every source that is not itself correlated already
    holds its final outcome: those bits are folded into a per-element
    partial table index, the correlated→correlated edges are listed,
    and the compiled sweep resolves the elements in trace order.
    """
    row = plan.corr_row[g_c]
    src = ci.astype(np.int64)[:, None] - 1 - plan.posmat[row]  # pads underflow < 0
    srcc = np.maximum(src, 0)  # pad-clipped gather indices
    valid = src >= 0
    has_flip = plan.corr_flip[g_c]
    fidx = np.where(has_flip, pool_base[g_c].astype(np.int64) + exec_c, 0)
    flips = np.where(has_flip, pool[fidx], False)
    bitw = 1 << np.arange(_PMAX, dtype=np.int64)

    corr_mask = np.zeros(out.size, dtype=bool)
    corr_mask[ci] = True
    unres = corr_mask[srcc] & valid
    bits = out[srcc] & valid & ~unres
    part = (bits * bitw).sum(axis=1) + plan.tab_base[row]
    ej, eb = np.nonzero(unres)
    ek = np.searchsorted(ci, src[ej, eb])
    vals = _cgen.corr_sweep(
        part, flips, ej, ek, np.left_shift(1, eb), plan.table_pool, ci.size
    )
    out[ci] = vals.view(bool)
