"""Compiled step drivers: the batch kernel of every stateful scheme.

Every predictor automaton here is ~10 integer operations per branch —
the fused gshare and bi-mode family passes, the per-lane loops of the
other schemes (:mod:`repro.sim.lanes`), and the Section-4 reductions —
so a tiny C loop runs it one to two orders of magnitude faster than any
Python-level stepping.  This module compiles those loops on first use with the
*system* C compiler — no build system, no installed extension, no new
dependency — and loads them through :mod:`ctypes`.

The driver is strictly optional:

* the shared object is built once into the repro cache directory
  (keyed by a hash of the C source, so edits rebuild automatically);
* any failure — no compiler on PATH, sandboxed ``cc``, unloadable
  object — is remembered and reported via :func:`available`, and the
  kernel registry (:mod:`repro.sim.kernels`) runs the scalar predictors
  instead, with bit-identical results (the Section-4 reductions fall
  back to their numpy formulations);
* ``REPRO_NO_CC=1`` disables the driver outright (used by tests to run
  the no-compiler platform, and as an escape hatch on platforms where
  invoking the compiler is unwanted).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

__all__ = [
    "available",
    "unavailable_reason",
    "bimode_pair",
    "gshare_detailed",
    "gshare_fused",
    "bimode_fused",
    "counter_lane",
    "gskew_lane",
    "trimode_lane",
    "yags_lane",
    "perceptron_lane",
    "biasfilter_lane",
    "substream_group",
    "class_changes",
]

_C_SOURCE = r"""
#include <stdint.h>

/* One (configuration, trace) bi-mode pair.  Index streams are
 * precomputed by the caller (they depend only on resolved outcomes);
 * this loop advances only the sequential counter state, mirroring
 * BiModePredictor.update exactly: partial update of the selected bank
 * (both banks under full_update), and the choice counter trains unless
 * it chose wrongly while the selected counter was nevertheless right.
 * When non-NULL, `banks` receives the per-access selected bank bit
 * (1 = taken bank), the attribution the Section-4 analysis needs. */
void bimode_pair(const int32_t *ci, const int32_t *di, const uint8_t *o,
                 int64_t n, int8_t *nt_bank, int8_t *tk_bank, int8_t *choice,
                 int full_update, uint8_t *preds, uint8_t *banks)
{
    for (int64_t t = 0; t < n; t++) {
        int32_t c = ci[t], d = di[t];
        uint8_t taken = o[t];
        int8_t cs = choice[c];
        int ct = cs >= 2;
        int8_t *bank = ct ? tk_bank : nt_bank;
        int8_t ds = bank[d];
        uint8_t fin = ds >= 2;
        preds[t] = fin;
        if (banks)
            banks[t] = (uint8_t)ct;
        bank[d] = taken ? (ds < 3 ? ds + 1 : 3) : (ds > 0 ? ds - 1 : 0);
        if (full_update) {
            int8_t *other = ct ? nt_bank : tk_bank;
            int8_t os = other[d];
            other[d] = taken ? (os < 3 ? os + 1 : 3) : (os > 0 ? os - 1 : 0);
        }
        if (!((ct != (int)taken) && (fin == taken)))
            choice[c] = taken ? (cs < 3 ? cs + 1 : 3) : (cs > 0 ? cs - 1 : 0);
    }
}

/* One gshare (configuration, trace) pair with per-access attribution.
 * The index stream is precomputed by the caller (it depends only on
 * resolved outcomes); the loop advances the saturating PHT exactly like
 * GSharePredictor._run and records each access's prediction.  The
 * accessed counter id IS the index stream, so nothing else needs
 * materializing for the Section-4 analysis. */
void gshare_detailed(const int32_t *keys, const uint8_t *o, int64_t n,
                     int8_t *table, uint8_t *preds)
{
    for (int64_t t = 0; t < n; t++) {
        int32_t j = keys[t];
        int8_t s = table[j];
        preds[t] = s >= 2;
        table[j] = o[t] ? (s < 3 ? s + 1 : 3) : (s > 0 ? s - 1 : 0);
    }
}

/* Fused gshare family: every lane of a spec family advances in ONE
 * pass over the raw trace.  All gshare lanes observe the same global
 * history contents (only the masked width differs), so a single 64-bit
 * register serves every lane — each lane masks off its own history and
 * PC bits (paper maximum is 17 bits, far below 64, so the unmasked
 * shift-in never loses a bit a lane could see).  Tables for all lanes
 * live concatenated in one int8 arena at per-lane base offsets; the
 * reduction to per-lane misprediction counts happens in-loop, so no
 * per-branch prediction stream is ever materialized. */
void gshare_fused(const int64_t *pcs, const uint8_t *o, int64_t n,
                  int64_t num_lanes, const int64_t *imask,
                  const int64_t *hmask, const int64_t *base,
                  int8_t *tables, int64_t *miss)
{
    uint64_t h = 0;
    for (int64_t t = 0; t < n; t++) {
        int64_t pc = pcs[t];
        uint8_t taken = o[t];
        for (int64_t k = 0; k < num_lanes; k++) {
            int64_t idx = (pc & imask[k]) ^ (int64_t)(h & (uint64_t)hmask[k]);
            int8_t *cell = tables + base[k] + idx;
            int8_t s = *cell;
            miss[k] += (int64_t)((s >= 2) != taken);
            *cell = taken ? (s < 3 ? s + 1 : 3) : (s > 0 ? s - 1 : 0);
        }
        h = (h << 1) | taken;
    }
}

/* Fused bi-mode family: the sequential choice/bank feedback loop of
 * bimode_pair, with every lane of the family advanced per branch.  The
 * direction index is gshare-style (PC xor masked history); the choice
 * index is PC-only when chmask is 0 and gshare-style otherwise, which
 * covers both choice_uses_history variants with one formula.  The
 * three tables of every lane share one int8 arena at per-lane base
 * offsets.  Update rules mirror BiModePredictor.update exactly:
 * partial update of the selected bank (both banks under full_update),
 * and the choice counter trains unless it chose wrongly while the
 * selected counter was nevertheless right. */
void bimode_fused(const int64_t *pcs, const uint8_t *o, int64_t n,
                  int64_t num_lanes, const int64_t *dmask,
                  const int64_t *dhmask, const int64_t *cmask,
                  const int64_t *chmask, const uint8_t *full_update,
                  const int64_t *nt_base, const int64_t *tk_base,
                  const int64_t *choice_base, int8_t *tables, int64_t *miss)
{
    uint64_t h = 0;
    for (int64_t t = 0; t < n; t++) {
        int64_t pc = pcs[t];
        uint8_t taken = o[t];
        for (int64_t k = 0; k < num_lanes; k++) {
            int64_t d = (pc & dmask[k]) ^ (int64_t)(h & (uint64_t)dhmask[k]);
            int64_t c = (pc & cmask[k]) ^ (int64_t)(h & (uint64_t)chmask[k]);
            int8_t *choice = tables + choice_base[k];
            int8_t cs = choice[c];
            int ct = cs >= 2;
            int8_t *bank = tables + (ct ? tk_base[k] : nt_base[k]);
            int8_t ds = bank[d];
            uint8_t fin = ds >= 2;
            miss[k] += (int64_t)(fin != taken);
            bank[d] = taken ? (ds < 3 ? ds + 1 : 3) : (ds > 0 ? ds - 1 : 0);
            if (full_update[k]) {
                int8_t *other = tables + (ct ? nt_base[k] : tk_base[k]);
                int8_t os = other[d];
                other[d] = taken ? (os < 3 ? os + 1 : 3) : (os > 0 ? os - 1 : 0);
            }
            if (!((ct != (int)taken) && (fin == taken)))
                choice[c] = taken ? (cs < 3 ? cs + 1 : 3) : (cs > 0 ? cs - 1 : 0);
        }
        h = (h << 1) | taken;
    }
}

/* One pass of a single saturating-counter table with precomputed keys:
 * the shared automaton of every feedback-free scheme in the kernel
 * registry (bimodal at any width, the two-level GAx/PAx family, agree
 * on its agreed-stream, gskew-total's banks, tournament components and
 * meta).  Each access records the state it OBSERVES (before its own
 * delta); prediction semantics stay with the numpy caller, which is
 * what lets one loop serve schemes with different read interpretations.
 * Deltas are in {-1, 0, +1}; 0 reads without training (e.g. the meta
 * table of a tournament when its components agree). */
void counter_lane(const int64_t *keys, const int8_t *delta, int64_t n,
                  int8_t *table, int8_t max_state, int8_t *states)
{
    for (int64_t t = 0; t < n; t++) {
        int64_t j = keys[t];
        int8_t s = table[j];
        states[t] = s;
        int8_t ns = (int8_t)(s + delta[t]);
        table[j] = ns < 0 ? 0 : (ns > max_state ? max_state : ns);
    }
}

/* One gskew (configuration, trace) pair: three banks indexed by the
 * rotation-XOR skewing functions of GSkewPredictor._indices, majority
 * vote, and either the total or the enhanced (e-gskew) update policy.
 * The enhanced policy's partial update feeds bank state back into which
 * banks train, so the whole automaton runs here; indices are computed
 * in-loop from the running 64-bit history register (masked per access
 * exactly like GlobalHistoryRegister.value). */
static int64_t rot_left(int64_t v, int64_t amount, int64_t bits, int64_t m)
{
    if (bits == 0)
        return 0;
    amount %= bits;
    v &= m;
    return ((v << amount) | (v >> (bits - amount))) & m;
}

void gskew_lane(const int64_t *pcs, const uint8_t *o, int64_t n,
                int64_t bank_bits, int64_t hmask, int enhanced,
                int8_t *b0, int8_t *b1, int8_t *b2, uint8_t *preds,
                int64_t *cids)
{
    int64_t m = bank_bits ? (((int64_t)1 << bank_bits) - 1) : 0;
    int64_t bank_size = (int64_t)1 << bank_bits;
    int64_t r1 = bank_bits / 2, r2 = (2 * bank_bits) / 3;
    uint64_t h = 0;
    for (int64_t t = 0; t < n; t++) {
        int64_t pc = pcs[t];
        uint8_t taken = o[t];
        int64_t pc_lo = pc & m;
        int64_t pc_hi = (pc >> bank_bits) & m;
        int64_t hist = bank_bits ? ((int64_t)(h & (uint64_t)hmask) & m) : 0;
        int64_t i0 = pc_lo ^ hist;
        int64_t i1 = rot_left(pc_lo, 1, bank_bits, m)
                     ^ rot_left(hist, r1, bank_bits, m) ^ pc_hi;
        int64_t i2 = rot_left(pc_lo, 2, bank_bits, m)
                     ^ rot_left(hist, r2, bank_bits, m)
                     ^ rot_left(pc_hi, 1, bank_bits, m);
        int8_t s0 = b0[i0], s1 = b1[i1], s2 = b2[i2];
        int v0 = s0 >= 2, v1 = s1 >= 2, v2 = s2 >= 2;
        int maj = (v0 + v1 + v2) >= 2;
        preds[t] = (uint8_t)maj;
        /* attribution: the first (lowest-numbered) bank voting with
         * the majority, bank k offset by k * bank_size */
        if (cids)
            cids[t] = (v0 == maj) ? i0
                      : ((v1 == maj) ? bank_size + i1 : 2 * bank_size + i2);
        int all = !enhanced || maj != (int)taken;
        if (all || v0 == maj)
            b0[i0] = taken ? (s0 < 3 ? s0 + 1 : 3) : (s0 > 0 ? s0 - 1 : 0);
        if (all || v1 == maj)
            b1[i1] = taken ? (s1 < 3 ? s1 + 1 : 3) : (s1 > 0 ? s1 - 1 : 0);
        if (all || v2 == maj)
            b2[i2] = taken ? (s2 < 3 ? s2 + 1 : 3) : (s2 > 0 ? s2 - 1 : 0);
        h = (h << 1) | taken;
    }
}

/* One tri-mode (configuration, trace) pair: bi-mode's bank feedback
 * with a third (weak) bank.  Choice/direction index streams are
 * precomputed by the caller (outcome-only, like bimode_pair); this loop
 * mirrors TriModePredictor._run exactly, including the generalized
 * partial-update exception on the choice table. */
void trimode_lane(const int64_t *ci, const int64_t *di, const uint8_t *o,
                  int64_t n, int64_t bank_size, int8_t *nt_bank,
                  int8_t *tk_bank, int8_t *wk_bank, int8_t *choice,
                  uint8_t *preds, int64_t *cids)
{
    for (int64_t t = 0; t < n; t++) {
        int64_t c = ci[t], d = di[t];
        uint8_t taken = o[t];
        int8_t cs = choice[c];
        int8_t *bank = (cs == 3) ? tk_bank : ((cs == 0) ? nt_bank : wk_bank);
        int8_t ds = bank[d];
        uint8_t fin = ds >= 2;
        preds[t] = fin;
        /* attribution: bank b (not-taken, taken, weak) occupies ids
         * [b * bank_size, (b + 1) * bank_size) */
        if (cids) {
            int64_t bank_id = (cs == 3) ? 1 : ((cs == 0) ? 0 : 2);
            cids[t] = bank_id * bank_size + d;
        }
        bank[d] = taken ? (ds < 3 ? ds + 1 : 3) : (ds > 0 ? ds - 1 : 0);
        int cls = cs >= 2;
        if (!((cls != (int)taken) && (fin == taken)))
            choice[c] = taken ? (cs < 3 ? cs + 1 : 3) : (cs > 0 ? cs - 1 : 0);
    }
}

/* One YAGS (configuration, trace) pair: bimodal choice bias plus two
 * tagged exception caches.  Choice index, cache index and partial-tag
 * streams are precomputed (outcome-only); the loop mirrors
 * YagsPredictor.update exactly — probe the cache OPPOSITE the bias,
 * train/allocate it when the outcome deviates from the bias or the
 * entry already hit, and skip the choice update when the bias was
 * wrong yet the override got it right. */
void yags_lane(const int64_t *ci, const int64_t *ki, const int32_t *tg,
               const uint8_t *o, int64_t n, int64_t choice_size,
               int64_t cache_size, int8_t *choice,
               int32_t *tk_tags, int8_t *tk_ctr,
               int32_t *nt_tags, int8_t *nt_ctr, uint8_t *preds,
               int64_t *cids)
{
    for (int64_t t = 0; t < n; t++) {
        int64_t c = ci[t], k = ki[t];
        int32_t tag = tg[t];
        uint8_t taken = o[t];
        int8_t cs = choice[c];
        int bias = cs >= 2;
        int32_t *tags = bias ? nt_tags : tk_tags;
        int8_t *ctr = bias ? nt_ctr : tk_ctr;
        int hit = tags[k] == tag;
        int8_t hs = ctr[k];
        int fin = hit ? (hs >= 2) : bias;
        preds[t] = (uint8_t)fin;
        /* attribution layout: choice table, taken cache, not-taken
         * cache; a hit charges the hitting cache entry, a miss the
         * choice counter that supplied the bias */
        if (cids)
            cids[t] = hit
                ? choice_size + (bias ? cache_size : 0) + k
                : c;
        if ((int)taken != bias || hit) {
            if (!hit) {
                tags[k] = tag;
                ctr[k] = taken ? 2 : 1;
            } else {
                ctr[k] = taken ? (hs < 3 ? hs + 1 : 3)
                               : (hs > 0 ? hs - 1 : 0);
            }
        }
        if (!((bias != (int)taken) && (fin == (int)taken)))
            choice[c] = taken ? (cs < 3 ? cs + 1 : 3) : (cs > 0 ? cs - 1 : 0);
    }
}

/* One perceptron (configuration, trace) pair: one signed int32 weight
 * row per PC hash, dot product against the running history register,
 * threshold-gated training — PerceptronPredictor.simulate exactly.
 * The dot product accumulates in int64 (worst case |y| <= 63 * 2^29,
 * beyond int32); weights saturate to [w_min, w_max] per update.  Like
 * gskew_lane the history register lives in-loop: only the low
 * `hist_bits` bits are ever read, so the unmasked shift-in matches the
 * scalar GlobalHistoryRegister bit-for-bit. */
void perceptron_lane(const int64_t *pcs, const uint8_t *o, int64_t n,
                     int64_t pc_mask, int64_t hist_bits, int64_t theta,
                     int64_t w_min, int64_t w_max,
                     int32_t *weights, uint8_t *preds)
{
    int64_t stride = hist_bits + 1;
    uint64_t h = 0;
    for (int64_t t = 0; t < n; t++) {
        uint8_t taken = o[t];
        int32_t *row = weights + (pcs[t] & pc_mask) * stride;
        int64_t y = row[0];
        for (int64_t j = 1; j <= hist_bits; j++) {
            if ((h >> (j - 1)) & 1)
                y += row[j];
            else
                y -= row[j];
        }
        uint8_t pred = y >= 0;
        preds[t] = pred;
        int64_t mag = y >= 0 ? y : -y;
        if (pred != taken || mag <= theta) {
            int64_t d = taken ? 1 : -1;
            int64_t v = row[0] + d;
            row[0] = (int32_t)(v > w_max ? w_max : (v < w_min ? w_min : v));
            for (int64_t j = 1; j <= hist_bits; j++) {
                v = row[j] + (((h >> (j - 1)) & 1) ? d : -d);
                row[j] = (int32_t)(v > w_max ? w_max : (v < w_min ? w_min : v));
            }
        }
        h = (h << 1) | taken;
    }
}

/* One bias-filter (configuration, trace) pair: the per-address
 * run-counter filter automaton of BiasFilterPredictor in front of an
 * inlined 2-bit-counter sub-predictor (gshare when sub_hmask != 0,
 * bimodal when it is 0 — the same index formula covers both).  A
 * filtered access is answered by the filter's direction bit and hidden
 * from the sub-predictor ENTIRELY: its table does not train and its
 * history register is not pushed, matching the scalar design note. */
void biasfilter_lane(const int64_t *pcs, const uint8_t *o, int64_t n,
                     int64_t fmask, int64_t max_run,
                     int64_t sub_imask, int64_t sub_hmask,
                     uint8_t *dirs, int8_t *runs, int8_t *sub_table,
                     uint8_t *preds)
{
    uint64_t h = 0;
    for (int64_t t = 0; t < n; t++) {
        int64_t pc = pcs[t];
        uint8_t taken = o[t];
        int64_t slot = pc & fmask;
        int8_t run = runs[slot];
        if (run >= max_run) {
            preds[t] = dirs[slot];
        } else {
            int64_t idx = (pc & sub_imask) ^ (int64_t)(h & (uint64_t)sub_hmask);
            int8_t s = sub_table[idx];
            preds[t] = s >= 2;
            sub_table[idx] = taken ? (s < 3 ? s + 1 : 3) : (s > 0 ? s - 1 : 0);
            h = (h << 1) | taken;
        }
        if (run == 0 || dirs[slot] != taken) {
            dirs[slot] = taken;
            runs[slot] = 1;
        } else if (run < max_run) {
            runs[slot] = (int8_t)(run + 1);
        }
    }
}

/* Substream grouping + reduction for the Section-4 analysis: a stable
 * two-pass counting sort of accesses by (counter, pc) followed by one
 * walk that numbers the substreams in ascending (counter, pc) order —
 * the ordering np.unique over composite keys yields — and accumulates
 * each substream's total/taken/mispredicted counts.  `bucket` must
 * hold max(C, P) + 1 slots; `tmp` and `order` hold n; the stream_*
 * outputs are written in [0, n) worst case, actual length returned.
 * Returns the number of substreams. */
int64_t substream_group(const int32_t *cid, const int32_t *pc,
                        const uint8_t *taken, const uint8_t *miss,
                        int64_t n, int32_t C, int32_t P,
                        int32_t *bucket, int32_t *tmp, int32_t *order,
                        int64_t *access_stream,
                        int32_t *stream_counter, int32_t *stream_pc,
                        int64_t *stream_total, int64_t *stream_taken,
                        int64_t *stream_miss)
{
    int64_t t, i;
    /* pass 1: stable counting sort by pc (minor key) */
    for (i = 0; i <= P; i++) bucket[i] = 0;
    for (t = 0; t < n; t++) bucket[pc[t] + 1]++;
    for (i = 0; i < P; i++) bucket[i + 1] += bucket[i];
    for (t = 0; t < n; t++) tmp[bucket[pc[t]]++] = (int32_t)t;
    /* pass 2: stable counting sort by counter (major key) */
    for (i = 0; i <= C; i++) bucket[i] = 0;
    for (t = 0; t < n; t++) bucket[cid[t] + 1]++;
    for (i = 0; i < C; i++) bucket[i + 1] += bucket[i];
    for (i = 0; i < n; i++) {
        int32_t a = tmp[i];
        order[bucket[cid[a]]++] = a;
    }
    /* pass 3: number substreams and reduce */
    int64_t s = -1;
    int32_t prev_c = -1, prev_p = -1;
    for (i = 0; i < n; i++) {
        int32_t a = order[i];
        int32_t c = cid[a], p = pc[a];
        if (s < 0 || c != prev_c || p != prev_p) {
            s++;
            stream_counter[s] = c;
            stream_pc[s] = p;
            stream_total[s] = 0;
            stream_taken[s] = 0;
            stream_miss[s] = 0;
            prev_c = c;
            prev_p = p;
        }
        stream_total[s]++;
        stream_taken[s] += taken[a];
        stream_miss[s] += miss[a];
        access_stream[a] = s;
    }
    return s + 1;
}

/* Table-4 interference counting in one pass: `last_role[c]` remembers
 * the dominance role of counter c's previous access (-1 = none yet);
 * a differing role counts one change against the *earlier* access's
 * role, matching the lexsort-based reference formulation exactly. */
void class_changes(const int32_t *cid, const int64_t *access_stream,
                   const int8_t *stream_role, int64_t n,
                   int8_t *last_role, int64_t *counts)
{
    for (int64_t t = 0; t < n; t++) {
        int32_t c = cid[t];
        int8_t r = stream_role[access_stream[t]];
        int8_t lr = last_role[c];
        if (lr >= 0 && lr != r)
            counts[lr]++;
        last_role[c] = r;
    }
}
"""

_lib: Optional[ctypes.CDLL] = None
_load_attempted = False
_failure: Optional[str] = None


def _source_digest() -> str:
    return hashlib.sha1(_C_SOURCE.encode()).hexdigest()[:16]


def _build_dir() -> Path:
    from repro.workloads.suite import default_cache_dir

    return default_cache_dir() / "ckernel"


def _compile(so_path: Path) -> bool:
    """Build the shared object atomically; False on any failure."""
    compiler = next(
        (c for c in ("cc", "gcc", "clang") if shutil.which(c)), None
    )
    if compiler is None:
        return False
    so_path.parent.mkdir(parents=True, exist_ok=True)
    src = so_path.with_suffix(".c")
    src.write_text(_C_SOURCE)
    with tempfile.NamedTemporaryFile(
        dir=so_path.parent, suffix=".so.tmp", delete=False
    ) as tmp:
        tmp_path = Path(tmp.name)
    try:
        proc = subprocess.run(
            [compiler, "-O2", "-shared", "-fPIC", "-o", str(tmp_path), str(src)],
            capture_output=True,
            timeout=120,
        )
        if proc.returncode != 0:
            return False
        os.replace(tmp_path, so_path)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        tmp_path.unlink(missing_ok=True)


def _load() -> Optional[ctypes.CDLL]:
    global _lib, _load_attempted, _failure
    if os.environ.get("REPRO_NO_CC", "").strip() not in ("", "0"):
        return None
    if _load_attempted:
        return _lib
    _load_attempted = True
    try:
        so_path = _build_dir() / f"step-{_source_digest()}.so"
        if not so_path.exists() and not _compile(so_path):
            _failure = (
                "no C compiler on PATH"
                if not any(shutil.which(c) for c in ("cc", "gcc", "clang"))
                else "compiler invocation failed"
            )
            return None
        lib = ctypes.CDLL(str(so_path))
        lib.bimode_pair.argtypes = [
            ctypes.c_void_p,  # ci
            ctypes.c_void_p,  # di
            ctypes.c_void_p,  # outcomes
            ctypes.c_int64,  # n
            ctypes.c_void_p,  # not-taken bank
            ctypes.c_void_p,  # taken bank
            ctypes.c_void_p,  # choice table
            ctypes.c_int,  # full_update
            ctypes.c_void_p,  # predictions out
            ctypes.c_void_p,  # selected-bank bits out (nullable)
        ]
        lib.bimode_pair.restype = None
        lib.gshare_detailed.argtypes = [
            ctypes.c_void_p,  # keys (index stream)
            ctypes.c_void_p,  # outcomes
            ctypes.c_int64,  # n
            ctypes.c_void_p,  # PHT
            ctypes.c_void_p,  # predictions out
        ]
        lib.gshare_detailed.restype = None
        lib.gshare_fused.argtypes = [
            ctypes.c_void_p,  # pcs
            ctypes.c_void_p,  # outcomes
            ctypes.c_int64,  # n
            ctypes.c_int64,  # num_lanes
            ctypes.c_void_p,  # imask
            ctypes.c_void_p,  # hmask
            ctypes.c_void_p,  # base
            ctypes.c_void_p,  # tables arena
            ctypes.c_void_p,  # miss out
        ]
        lib.gshare_fused.restype = None
        lib.bimode_fused.argtypes = [
            ctypes.c_void_p,  # pcs
            ctypes.c_void_p,  # outcomes
            ctypes.c_int64,  # n
            ctypes.c_int64,  # num_lanes
            ctypes.c_void_p,  # dmask
            ctypes.c_void_p,  # dhmask
            ctypes.c_void_p,  # cmask
            ctypes.c_void_p,  # chmask
            ctypes.c_void_p,  # full_update
            ctypes.c_void_p,  # nt_base
            ctypes.c_void_p,  # tk_base
            ctypes.c_void_p,  # choice_base
            ctypes.c_void_p,  # tables arena
            ctypes.c_void_p,  # miss out
        ]
        lib.bimode_fused.restype = None
        lib.counter_lane.argtypes = [
            ctypes.c_void_p,  # keys
            ctypes.c_void_p,  # deltas
            ctypes.c_int64,  # n
            ctypes.c_void_p,  # table
            ctypes.c_int8,  # max_state
            ctypes.c_void_p,  # observed states out
        ]
        lib.counter_lane.restype = None
        lib.gskew_lane.argtypes = [
            ctypes.c_void_p,  # pcs
            ctypes.c_void_p,  # outcomes
            ctypes.c_int64,  # n
            ctypes.c_int64,  # bank_bits
            ctypes.c_int64,  # hmask
            ctypes.c_int,  # enhanced
            ctypes.c_void_p,  # bank 0
            ctypes.c_void_p,  # bank 1
            ctypes.c_void_p,  # bank 2
            ctypes.c_void_p,  # predictions out
            ctypes.c_void_p,  # counter ids out (nullable)
        ]
        lib.gskew_lane.restype = None
        lib.trimode_lane.argtypes = [
            ctypes.c_void_p,  # ci
            ctypes.c_void_p,  # di
            ctypes.c_void_p,  # outcomes
            ctypes.c_int64,  # n
            ctypes.c_int64,  # bank_size
            ctypes.c_void_p,  # not-taken bank
            ctypes.c_void_p,  # taken bank
            ctypes.c_void_p,  # weak bank
            ctypes.c_void_p,  # choice table
            ctypes.c_void_p,  # predictions out
            ctypes.c_void_p,  # counter ids out (nullable)
        ]
        lib.trimode_lane.restype = None
        lib.yags_lane.argtypes = [
            ctypes.c_void_p,  # ci (choice index)
            ctypes.c_void_p,  # ki (cache index)
            ctypes.c_void_p,  # tg (partial tags)
            ctypes.c_void_p,  # outcomes
            ctypes.c_int64,  # n
            ctypes.c_int64,  # choice_size
            ctypes.c_int64,  # cache_size
            ctypes.c_void_p,  # choice table
            ctypes.c_void_p,  # taken-cache tags
            ctypes.c_void_p,  # taken-cache counters
            ctypes.c_void_p,  # not-taken-cache tags
            ctypes.c_void_p,  # not-taken-cache counters
            ctypes.c_void_p,  # predictions out
            ctypes.c_void_p,  # counter ids out (nullable)
        ]
        lib.yags_lane.restype = None
        lib.perceptron_lane.argtypes = [
            ctypes.c_void_p,  # pcs
            ctypes.c_void_p,  # outcomes
            ctypes.c_int64,  # n
            ctypes.c_int64,  # pc_mask
            ctypes.c_int64,  # hist_bits
            ctypes.c_int64,  # theta
            ctypes.c_int64,  # w_min
            ctypes.c_int64,  # w_max
            ctypes.c_void_p,  # weight arena
            ctypes.c_void_p,  # predictions out
        ]
        lib.perceptron_lane.restype = None
        lib.biasfilter_lane.argtypes = [
            ctypes.c_void_p,  # pcs
            ctypes.c_void_p,  # outcomes
            ctypes.c_int64,  # n
            ctypes.c_int64,  # fmask
            ctypes.c_int64,  # max_run
            ctypes.c_int64,  # sub_imask
            ctypes.c_int64,  # sub_hmask
            ctypes.c_void_p,  # filter direction bits
            ctypes.c_void_p,  # filter run counters
            ctypes.c_void_p,  # sub-predictor counter table
            ctypes.c_void_p,  # predictions out
        ]
        lib.biasfilter_lane.restype = None
        lib.substream_group.argtypes = [ctypes.c_void_p] * 4 + [
            ctypes.c_int64,
            ctypes.c_int32,
            ctypes.c_int32,
        ] + [ctypes.c_void_p] * 9
        lib.substream_group.restype = ctypes.c_int64
        lib.class_changes.argtypes = [ctypes.c_void_p] * 3 + [
            ctypes.c_int64
        ] + [ctypes.c_void_p] * 2
        lib.class_changes.restype = None
        _lib = lib
    except OSError as exc:
        _failure = f"shared object failed to load: {exc}"
        _lib = None
    return _lib


def available() -> bool:
    """Whether the compiled driver can be used in this environment."""
    return _load() is not None


def unavailable_reason() -> Optional[str]:
    """Why the compiled driver cannot run, or ``None`` if it can.

    Feeds the degradation events of the kernel dispatch chain
    (:mod:`repro.health`): a sweep report can then state *why* cells
    fell back from the compiled loop to numpy/Python stepping.
    """
    if os.environ.get("REPRO_NO_CC", "").strip() not in ("", "0"):
        return "REPRO_NO_CC is set"
    if _load() is not None:
        return None
    return _failure or "compiled driver unavailable"


def _ptr(array: np.ndarray) -> ctypes.c_void_p:
    return ctypes.c_void_p(array.ctypes.data)


def bimode_pair(
    ci: np.ndarray,
    di: np.ndarray,
    outcomes: np.ndarray,
    nt_bank: np.ndarray,
    tk_bank: np.ndarray,
    choice: np.ndarray,
    full_update: bool,
    banks: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Run one bi-mode pair through the compiled loop.

    ``ci``/``di`` are int32 index streams, ``outcomes`` uint8; the three
    table arrays are int8 and are updated in place.  Returns the uint8
    per-branch final predictions.  Pass a uint8 ``banks`` array of the
    same length to also record each access's selected bank bit (1 =
    taken bank).  Call only when :func:`available`.
    """
    lib = _load()
    if lib is None:  # pragma: no cover - callers gate on available()
        raise RuntimeError("compiled bi-mode driver is not available")
    n = len(outcomes)
    preds = np.empty(n, dtype=np.uint8)
    arrays = [
        (ci, np.int32),
        (di, np.int32),
        (outcomes, np.uint8),
        (nt_bank, np.int8),
        (tk_bank, np.int8),
        (choice, np.int8),
    ]
    if banks is not None:
        assert len(banks) == n
        arrays.append((banks, np.uint8))
    for arr, dtype in arrays:
        assert arr.dtype == dtype and arr.flags["C_CONTIGUOUS"]
    lib.bimode_pair(
        _ptr(ci),
        _ptr(di),
        _ptr(outcomes),
        ctypes.c_int64(n),
        _ptr(nt_bank),
        _ptr(tk_bank),
        _ptr(choice),
        ctypes.c_int(1 if full_update else 0),
        _ptr(preds),
        _ptr(banks) if banks is not None else None,
    )
    return preds


def gshare_detailed(
    keys: np.ndarray, outcomes: np.ndarray, table: np.ndarray
) -> np.ndarray:
    """Run one gshare pair through the compiled loop.

    ``keys`` is the int32 index stream, ``outcomes`` uint8; ``table`` is
    the int8 PHT, updated in place.  Returns the uint8 per-branch
    predictions (each access's counter id is ``keys`` itself).  Call
    only when :func:`available`.
    """
    lib = _load()
    if lib is None:  # pragma: no cover - callers gate on available()
        raise RuntimeError("compiled gshare driver is not available")
    n = len(outcomes)
    preds = np.empty(n, dtype=np.uint8)
    for arr, dtype in ((keys, np.int32), (outcomes, np.uint8), (table, np.int8)):
        assert arr.dtype == dtype and arr.flags["C_CONTIGUOUS"]
    lib.gshare_detailed(
        _ptr(keys), _ptr(outcomes), ctypes.c_int64(n), _ptr(table), _ptr(preds)
    )
    return preds


def gshare_fused(
    pcs: np.ndarray,
    outcomes: np.ndarray,
    imask: np.ndarray,
    hmask: np.ndarray,
    base: np.ndarray,
    tables: np.ndarray,
) -> np.ndarray:
    """Advance a whole gshare lane family in one pass over the trace.

    ``pcs`` is int64, ``outcomes`` uint8; ``imask``/``hmask``/``base``
    are int64 per-lane parameter vectors and ``tables`` the shared int8
    counter arena (updated in place).  Returns the int64 per-lane
    misprediction counts.  Call only when :func:`available`.
    """
    lib = _load()
    if lib is None:  # pragma: no cover - callers gate on available()
        raise RuntimeError("compiled fused gshare driver is not available")
    num_lanes = len(imask)
    miss = np.zeros(num_lanes, dtype=np.int64)
    for arr, dtype in (
        (pcs, np.int64),
        (outcomes, np.uint8),
        (imask, np.int64),
        (hmask, np.int64),
        (base, np.int64),
        (tables, np.int8),
    ):
        assert arr.dtype == dtype and arr.flags["C_CONTIGUOUS"]
    lib.gshare_fused(
        _ptr(pcs),
        _ptr(outcomes),
        ctypes.c_int64(len(outcomes)),
        ctypes.c_int64(num_lanes),
        _ptr(imask),
        _ptr(hmask),
        _ptr(base),
        _ptr(tables),
        _ptr(miss),
    )
    return miss


def bimode_fused(
    pcs: np.ndarray,
    outcomes: np.ndarray,
    dmask: np.ndarray,
    dhmask: np.ndarray,
    cmask: np.ndarray,
    chmask: np.ndarray,
    full_update: np.ndarray,
    nt_base: np.ndarray,
    tk_base: np.ndarray,
    choice_base: np.ndarray,
    tables: np.ndarray,
) -> np.ndarray:
    """Advance a whole bi-mode lane family in one pass over the trace.

    ``pcs`` is int64, ``outcomes`` and ``full_update`` uint8; the mask
    and base arguments are int64 per-lane parameter vectors and
    ``tables`` the shared int8 arena holding every lane's three tables
    (updated in place).  Returns the int64 per-lane misprediction
    counts.  Call only when :func:`available`.
    """
    lib = _load()
    if lib is None:  # pragma: no cover - callers gate on available()
        raise RuntimeError("compiled fused bi-mode driver is not available")
    num_lanes = len(dmask)
    miss = np.zeros(num_lanes, dtype=np.int64)
    for arr, dtype in (
        (pcs, np.int64),
        (outcomes, np.uint8),
        (dmask, np.int64),
        (dhmask, np.int64),
        (cmask, np.int64),
        (chmask, np.int64),
        (full_update, np.uint8),
        (nt_base, np.int64),
        (tk_base, np.int64),
        (choice_base, np.int64),
        (tables, np.int8),
    ):
        assert arr.dtype == dtype and arr.flags["C_CONTIGUOUS"]
    lib.bimode_fused(
        _ptr(pcs),
        _ptr(outcomes),
        ctypes.c_int64(len(outcomes)),
        ctypes.c_int64(num_lanes),
        _ptr(dmask),
        _ptr(dhmask),
        _ptr(cmask),
        _ptr(chmask),
        _ptr(full_update),
        _ptr(nt_base),
        _ptr(tk_base),
        _ptr(choice_base),
        _ptr(tables),
        _ptr(miss),
    )
    return miss


def counter_lane(
    keys: np.ndarray, deltas: np.ndarray, table: np.ndarray, max_state: int = 3
) -> np.ndarray:
    """Advance one saturating-counter table through the compiled loop.

    ``keys`` is the int64 counter-id stream, ``deltas`` the int8
    per-access movement in ``{-1, 0, +1}``; ``table`` is the int8
    counter table, updated in place.  Returns the int8 state each access
    *observed* (before its own delta) — prediction semantics belong to
    the caller.  Call only when :func:`available`.
    """
    lib = _load()
    if lib is None:  # pragma: no cover - callers gate on available()
        raise RuntimeError("compiled counter driver is not available")
    n = len(keys)
    states = np.empty(n, dtype=np.int8)
    for arr, dtype in ((keys, np.int64), (deltas, np.int8), (table, np.int8)):
        assert arr.dtype == dtype and arr.flags["C_CONTIGUOUS"]
    lib.counter_lane(
        _ptr(keys),
        _ptr(deltas),
        ctypes.c_int64(n),
        _ptr(table),
        ctypes.c_int8(max_state),
        _ptr(states),
    )
    return states


def gskew_lane(
    pcs: np.ndarray,
    outcomes: np.ndarray,
    bank_bits: int,
    hist_bits: int,
    enhanced: bool,
    banks: np.ndarray,
    cids: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Run one gskew pair through the compiled loop.

    ``pcs`` is int64, ``outcomes`` uint8; ``banks`` is the int8
    ``(3, 1 << bank_bits)`` bank-state array, updated in place.  Returns
    the uint8 per-branch majority predictions.  Pass an int64 ``cids``
    array of the same length to also record each access's attributed
    counter id (first majority-voting bank, offset by its bank number).
    Call only when :func:`available`.
    """
    lib = _load()
    if lib is None:  # pragma: no cover - callers gate on available()
        raise RuntimeError("compiled gskew driver is not available")
    n = len(outcomes)
    preds = np.empty(n, dtype=np.uint8)
    assert banks.shape[0] == 3 and banks.dtype == np.int8
    b0, b1, b2 = banks[0], banks[1], banks[2]
    arrays = [
        (pcs, np.int64),
        (outcomes, np.uint8),
        (b0, np.int8),
        (b1, np.int8),
        (b2, np.int8),
    ]
    if cids is not None:
        assert len(cids) == n
        arrays.append((cids, np.int64))
    for arr, dtype in arrays:
        assert arr.dtype == dtype and arr.flags["C_CONTIGUOUS"]
    lib.gskew_lane(
        _ptr(pcs),
        _ptr(outcomes),
        ctypes.c_int64(n),
        ctypes.c_int64(bank_bits),
        ctypes.c_int64((1 << hist_bits) - 1),
        ctypes.c_int(1 if enhanced else 0),
        _ptr(b0),
        _ptr(b1),
        _ptr(b2),
        _ptr(preds),
        _ptr(cids) if cids is not None else None,
    )
    return preds


def trimode_lane(
    ci: np.ndarray,
    di: np.ndarray,
    outcomes: np.ndarray,
    nt_bank: np.ndarray,
    tk_bank: np.ndarray,
    wk_bank: np.ndarray,
    choice: np.ndarray,
    cids: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Run one tri-mode pair through the compiled loop.

    ``ci``/``di`` are int64 index streams, ``outcomes`` uint8; the four
    table arrays are int8 and are updated in place.  Returns the uint8
    per-branch final predictions.  Pass an int64 ``cids`` array of the
    same length to also record each access's selected direction counter
    (bank b offset by ``b * bank_size``).  Call only when
    :func:`available`.
    """
    lib = _load()
    if lib is None:  # pragma: no cover - callers gate on available()
        raise RuntimeError("compiled tri-mode driver is not available")
    n = len(outcomes)
    preds = np.empty(n, dtype=np.uint8)
    arrays = [
        (ci, np.int64),
        (di, np.int64),
        (outcomes, np.uint8),
        (nt_bank, np.int8),
        (tk_bank, np.int8),
        (wk_bank, np.int8),
        (choice, np.int8),
    ]
    if cids is not None:
        assert len(cids) == n
        arrays.append((cids, np.int64))
    for arr, dtype in arrays:
        assert arr.dtype == dtype and arr.flags["C_CONTIGUOUS"]
    lib.trimode_lane(
        _ptr(ci),
        _ptr(di),
        _ptr(outcomes),
        ctypes.c_int64(n),
        ctypes.c_int64(len(nt_bank)),
        _ptr(nt_bank),
        _ptr(tk_bank),
        _ptr(wk_bank),
        _ptr(choice),
        _ptr(preds),
        _ptr(cids) if cids is not None else None,
    )
    return preds


def yags_lane(
    ci: np.ndarray,
    ki: np.ndarray,
    tags: np.ndarray,
    outcomes: np.ndarray,
    choice: np.ndarray,
    tk_tags: np.ndarray,
    tk_ctr: np.ndarray,
    nt_tags: np.ndarray,
    nt_ctr: np.ndarray,
    cids: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Run one YAGS pair through the compiled loop.

    ``ci``/``ki`` are int64 index streams, ``tags`` the int32 partial-tag
    stream, ``outcomes`` uint8; the choice table and both (tags,
    counters) cache pairs are updated in place (tag arrays int32,
    counters int8).  Returns the uint8 per-branch final predictions.
    Pass an int64 ``cids`` array of the same length to also record each
    access's attributed counter (choice table, then taken cache, then
    not-taken cache).  Call only when :func:`available`.
    """
    lib = _load()
    if lib is None:  # pragma: no cover - callers gate on available()
        raise RuntimeError("compiled YAGS driver is not available")
    n = len(outcomes)
    preds = np.empty(n, dtype=np.uint8)
    arrays = [
        (ci, np.int64),
        (ki, np.int64),
        (tags, np.int32),
        (outcomes, np.uint8),
        (choice, np.int8),
        (tk_tags, np.int32),
        (tk_ctr, np.int8),
        (nt_tags, np.int32),
        (nt_ctr, np.int8),
    ]
    if cids is not None:
        assert len(cids) == n
        arrays.append((cids, np.int64))
    for arr, dtype in arrays:
        assert arr.dtype == dtype and arr.flags["C_CONTIGUOUS"]
    lib.yags_lane(
        _ptr(ci),
        _ptr(ki),
        _ptr(tags),
        _ptr(outcomes),
        ctypes.c_int64(n),
        ctypes.c_int64(len(choice)),
        ctypes.c_int64(len(tk_ctr)),
        _ptr(choice),
        _ptr(tk_tags),
        _ptr(tk_ctr),
        _ptr(nt_tags),
        _ptr(nt_ctr),
        _ptr(preds),
        _ptr(cids) if cids is not None else None,
    )
    return preds


def perceptron_lane(
    pcs: np.ndarray,
    outcomes: np.ndarray,
    index_bits: int,
    hist_bits: int,
    theta: int,
    w_min: int,
    w_max: int,
    weights: np.ndarray,
) -> np.ndarray:
    """Run one perceptron pair through the compiled loop.

    ``pcs`` is int64, ``outcomes`` uint8; ``weights`` is the int32
    arena of ``(1 << index_bits) * (hist_bits + 1)`` weights laid out
    row-major ``[bias, w_1 .. w_hist]`` per perceptron, updated in
    place.  Returns the uint8 per-branch predictions.  Call only when
    :func:`available`.
    """
    lib = _load()
    if lib is None:  # pragma: no cover - callers gate on available()
        raise RuntimeError("compiled perceptron driver is not available")
    n = len(outcomes)
    preds = np.empty(n, dtype=np.uint8)
    assert len(weights) == (1 << index_bits) * (hist_bits + 1)
    for arr, dtype in ((pcs, np.int64), (outcomes, np.uint8), (weights, np.int32)):
        assert arr.dtype == dtype and arr.flags["C_CONTIGUOUS"]
    lib.perceptron_lane(
        _ptr(pcs),
        _ptr(outcomes),
        ctypes.c_int64(n),
        ctypes.c_int64((1 << index_bits) - 1),
        ctypes.c_int64(hist_bits),
        ctypes.c_int64(theta),
        ctypes.c_int64(w_min),
        ctypes.c_int64(w_max),
        _ptr(weights),
        _ptr(preds),
    )
    return preds


def biasfilter_lane(
    pcs: np.ndarray,
    outcomes: np.ndarray,
    filter_bits: int,
    max_run: int,
    sub_index_bits: int,
    sub_hist_bits: int,
    dirs: np.ndarray,
    runs: np.ndarray,
    sub_table: np.ndarray,
) -> np.ndarray:
    """Run one bias-filter pair through the compiled loop.

    ``pcs`` is int64, ``outcomes`` uint8; ``dirs`` (uint8) and ``runs``
    (int8) are the filter state, ``sub_table`` the int8 2-bit-counter
    table of the sub-predictor (gshare when ``sub_hist_bits > 0``, else
    bimodal), all updated in place.  Returns the uint8 per-branch
    predictions.  Call only when :func:`available`.
    """
    lib = _load()
    if lib is None:  # pragma: no cover - callers gate on available()
        raise RuntimeError("compiled bias-filter driver is not available")
    n = len(outcomes)
    preds = np.empty(n, dtype=np.uint8)
    for arr, dtype in (
        (pcs, np.int64),
        (outcomes, np.uint8),
        (dirs, np.uint8),
        (runs, np.int8),
        (sub_table, np.int8),
    ):
        assert arr.dtype == dtype and arr.flags["C_CONTIGUOUS"]
    lib.biasfilter_lane(
        _ptr(pcs),
        _ptr(outcomes),
        ctypes.c_int64(n),
        ctypes.c_int64((1 << filter_bits) - 1),
        ctypes.c_int64(max_run),
        ctypes.c_int64((1 << sub_index_bits) - 1),
        ctypes.c_int64((1 << sub_hist_bits) - 1),
        _ptr(dirs),
        _ptr(runs),
        _ptr(sub_table),
        _ptr(preds),
    )
    return preds


def substream_group(
    counter_ids: np.ndarray,
    pc_dense: np.ndarray,
    taken: np.ndarray,
    mispredicted: np.ndarray,
    num_counters: int,
    num_pcs: int,
):
    """Group accesses into (counter, pc) substreams through the C loop.

    ``counter_ids``/``pc_dense`` are int32, ``taken``/``mispredicted``
    uint8, all C-contiguous.  Returns ``(access_stream, stream_counter,
    stream_pc_idx, stream_total, stream_taken, stream_mispredicted)``
    with the substreams numbered in ascending (counter, pc) order; the
    stream arrays are trimmed to the substream count.  Call only when
    :func:`available`.
    """
    lib = _load()
    if lib is None:  # pragma: no cover - callers gate on available()
        raise RuntimeError("compiled substream driver is not available")
    n = len(counter_ids)
    for arr, dtype in (
        (counter_ids, np.int32),
        (pc_dense, np.int32),
        (taken, np.uint8),
        (mispredicted, np.uint8),
    ):
        assert arr.dtype == dtype and arr.flags["C_CONTIGUOUS"]
    bucket = np.empty(max(num_counters, num_pcs) + 1, dtype=np.int32)
    tmp = np.empty(n, dtype=np.int32)
    order = np.empty(n, dtype=np.int32)
    access_stream = np.empty(n, dtype=np.int64)
    stream_counter = np.empty(n, dtype=np.int32)
    stream_pc = np.empty(n, dtype=np.int32)
    stream_total = np.empty(n, dtype=np.int64)
    stream_taken = np.empty(n, dtype=np.int64)
    stream_miss = np.empty(n, dtype=np.int64)
    num_streams = lib.substream_group(
        _ptr(counter_ids),
        _ptr(pc_dense),
        _ptr(taken),
        _ptr(mispredicted),
        ctypes.c_int64(n),
        ctypes.c_int32(num_counters),
        ctypes.c_int32(num_pcs),
        _ptr(bucket),
        _ptr(tmp),
        _ptr(order),
        _ptr(access_stream),
        _ptr(stream_counter),
        _ptr(stream_pc),
        _ptr(stream_total),
        _ptr(stream_taken),
        _ptr(stream_miss),
    )
    s = int(num_streams)
    return (
        access_stream,
        stream_counter[:s].copy(),
        stream_pc[:s].copy(),
        stream_total[:s].copy(),
        stream_taken[:s].copy(),
        stream_miss[:s].copy(),
    )


def class_changes(
    counter_ids: np.ndarray,
    access_stream: np.ndarray,
    stream_role: np.ndarray,
    num_counters: int,
) -> np.ndarray:
    """Count Table-4 role changes through the compiled single pass.

    ``counter_ids`` int32, ``access_stream`` int64, ``stream_role``
    int8, all C-contiguous.  Returns the int64 ``[dominant,
    non_dominant, wb]`` change counts.  Call only when
    :func:`available`.
    """
    lib = _load()
    if lib is None:  # pragma: no cover - callers gate on available()
        raise RuntimeError("compiled class-change driver is not available")
    n = len(counter_ids)
    for arr, dtype in (
        (counter_ids, np.int32),
        (access_stream, np.int64),
        (stream_role, np.int8),
    ):
        assert arr.dtype == dtype and arr.flags["C_CONTIGUOUS"]
    last_role = np.full(num_counters, -1, dtype=np.int8)
    counts = np.zeros(3, dtype=np.int64)
    lib.class_changes(
        _ptr(counter_ids),
        _ptr(access_stream),
        _ptr(stream_role),
        ctypes.c_int64(n),
        _ptr(last_role),
        _ptr(counts),
    )
    return counts
