"""Compiled driver for the trace-generation event pass.

:mod:`repro.workloads.fastgen` reduces trace generation to a sparse
event replay (phase-boundary draws, loop draws, jump checks) plus numpy
assembly.  The replay is inherently sequential — every draw comes from
one shared Mersenne-Twister stream — so it runs here, in C, built and
loaded by :mod:`repro._cc` like the predictor kernels of
:mod:`repro.sim._cstep`.  The module also holds the in-order sweep that
resolves correlated sites (:func:`corr_sweep`).

Bit-identity with ``Program.run`` rests on three pillars:

* the Mersenne-Twister state is handed over from
  ``random.Random.getstate()`` — seeding semantics never leave CPython;
* the C side replicates the exact CPython derivations on that stream:
  ``random()`` as ``((a >> 5) * 2^26 + (b >> 6)) / 2^53``,
  ``randint`` via ``_randbelow_with_getrandbits`` rejection sampling,
  ``round`` via CPython's half-to-even correction formula, and
  ``expovariate`` as ``-log(1 - random()) / lambd`` against the same
  libm;
* a load-time self-test draws doubles, randints and expovariate run
  lengths from both implementations and refuses the driver on any
  mismatch, so a platform where the replication does not hold runs
  ``Program.run`` instead of corrupting traces.

Without the driver (no compiler, ``REPRO_NO_CC=1``, a failed self-test)
:func:`repro.workloads.generator.generate_trace` runs ``Program.run`` and
reports :func:`unavailable_reason` in its health event.
"""

from __future__ import annotations

import ctypes
from random import Random
from typing import Optional, Tuple

import numpy as np

from repro import _cc

__all__ = [
    "available",
    "unavailable_reason",
    "events",
    "corr_sweep",
]

_C_SOURCE = r"""
#include <stdint.h>
#include <math.h>
#include <string.h>

/* ---- CPython-compatible Mersenne Twister -------------------------- */

typedef struct { uint32_t mt[624]; int pos; } MT;

static uint32_t genrand(MT *s)
{
    if (s->pos >= 624) {
        uint32_t *mt = s->mt;
        for (int i = 0; i < 624; i++) {
            uint32_t y = (mt[i] & 0x80000000u) | (mt[(i + 1) % 624] & 0x7fffffffu);
            mt[i] = mt[(i + 397) % 624] ^ (y >> 1) ^ ((y & 1u) ? 0x9908b0dfu : 0u);
        }
        s->pos = 0;
    }
    uint32_t y = s->mt[s->pos++];
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680u;
    y ^= (y << 15) & 0xefc60000u;
    y ^= y >> 18;
    return y;
}

/* random_random(): 53-bit double, exactly CPython's formula */
static double mt_random(MT *s)
{
    uint32_t a = genrand(s) >> 5, b = genrand(s) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* Random._randbelow_with_getrandbits(n): k = n.bit_length();
 * draw getrandbits(k) (= genrand() >> (32-k) for k <= 32) until < n. */
static int64_t mt_randbelow(MT *s, int64_t n)
{
    int k = 0;
    for (int64_t m = n; m > 0; m >>= 1) k++;
    uint32_t r = genrand(s) >> (32 - k);
    while ((int64_t)r >= n) r = genrand(s) >> (32 - k);
    return (int64_t)r;
}

/* float.__round__ with no digits: CPython rounds half-to-even by
 * correcting C round()'s half-away-from-zero result. */
static double py_round(double x)
{
    double r = round(x);
    if (fabs(x - r) == 0.5)
        r = 2.0 * round(x / 2.0);
    return r;
}

/* ---- load-time self-test ------------------------------------------ */

void mt_selftest(const uint32_t *mt, int64_t pos,
                 double *outd, int64_t nd,
                 int64_t *outi, int64_t ni,
                 int64_t *outr, int64_t nrv)
{
    MT s;
    memcpy(s.mt, mt, sizeof(s.mt));
    s.pos = (int)pos;
    for (int64_t i = 0; i < nd; i++) outd[i] = mt_random(&s);
    for (int64_t i = 0; i < ni; i++) outi[i] = -3 + mt_randbelow(&s, 7);
    for (int64_t i = 0; i < nrv; i++) {
        double u = mt_random(&s);
        outr[i] = (int64_t)py_round(-log(1.0 - u) / (1.0 / 12.0));
    }
}

/* ---- event replay -------------------------------------------------- */

/* Replace the heap root's time with nt (same site, same position) and
 * restore the (t, pos) min-heap invariant. */
static void heap_sift(int64_t *ht, int32_t *hp, int32_t *hs, int64_t n, int64_t nt)
{
    int64_t t0 = nt;
    int32_t p0 = hp[0], s0 = hs[0];
    int64_t i = 0;
    for (;;) {
        int64_t l = 2 * i + 1;
        if (l >= n) break;
        int64_t c = l, r = l + 1;
        if (r < n && (ht[r] < ht[l] || (ht[r] == ht[l] && hp[r] < hp[l]))) c = r;
        if (ht[c] < t0 || (ht[c] == t0 && hp[c] < p0)) {
            ht[i] = ht[c]; hp[i] = hp[c]; hs[i] = hs[c];
            i = c;
        } else break;
    }
    ht[i] = t0; hp[i] = p0; hs[i] = s0;
}

#define APP_RUN(v) do { if (nr >= runs_cap) return -1; runs[nr++] = (v); } while (0)

#define FIRE(T) do { \
    int32_t si = hs[0]; \
    int dev = mt_random(&s) < b_rate[si]; \
    double u = mt_random(&s); \
    int64_t run = (int64_t)py_round(-log(1.0 - u) / b_lambd[si]); \
    if (run == 0) run = 1; \
    APP_RUN(b_g14[si] | (run << 1) | (int64_t)(b_base[si] ^ dev)); \
    heap_sift(ht, hp, hs, hn, (T) + run); \
} while (0)

int64_t fastgen_events(
    const uint32_t *mt_init, int64_t mt_pos,
    int64_t R,
    const int32_t *width, const int32_t *max_iter,
    const int64_t *loop_g14, const int64_t *loop_trip, const int32_t *loop_jit,
    const double *loop_res,
    const int64_t *b_off, const int32_t *b_pos, const int64_t *b_g14,
    const double *b_rate, const double *b_lambd, const uint8_t *b_base,
    const int64_t *p_off, const int32_t *p_pos, const int64_t *p_g142,
    const double *p_p,
    const int64_t *s_off, const int32_t *s_ent,
    const int32_t *jt, int64_t njump, double jump_prob,
    int64_t length,
    int64_t *heap_t, int32_t *heap_pos, int32_t *heap_site,
    int64_t *prior, int64_t *lrem, int64_t *ltrip, int64_t *pointers,
    int64_t *runs, int64_t runs_cap,
    int64_t *visits, int64_t visits_cap,
    int64_t *counts)
{
    MT s;
    memcpy(s.mt, mt_init, sizeof(s.mt));
    s.pos = (int)mt_pos;

    for (int64_t r = 0; r < R; r++) {
        prior[r] = 0; lrem[r] = -1; ltrip[r] = -1; pointers[r] = 0;
        for (int64_t i = b_off[r]; i < b_off[r + 1]; i++) {
            heap_t[i] = 0;              /* in position order: a valid heap */
            heap_pos[i] = b_pos[i];
            heap_site[i] = (int32_t)i;
        }
    }

    int64_t nr = 0, nv = 0, emitted = 0, jpos = 1;
    int32_t cur = jt[0];
    while (emitted < length) {
        int64_t pr = prior[cur];
        int64_t hb = b_off[cur];
        int64_t hn = b_off[cur + 1] - hb;
        int64_t *ht = heap_t + hb;
        int32_t *hp = heap_pos + hb;
        int32_t *hs = heap_site + hb;
        int64_t pb = p_off[cur], pe = p_off[cur + 1];

        /* iteration 0: body sites in position order */
        if (pe > pb) {
            for (int64_t pi = pb; pi < pe; pi++) {
                int32_t pp = p_pos[pi];
                while (hn && ht[0] == pr && hp[0] < pp) FIRE(pr);
                APP_RUN(p_g142[pi] | (int64_t)(mt_random(&s) < p_p[pi]));
            }
        }
        while (hn && ht[0] == pr) FIRE(pr);

        /* loop back-edge decides the iteration count */
        int64_t it;
        int64_t lg = loop_g14[cur];
        if (lg < 0) it = 1;
        else {
            int64_t rem = lrem[cur];
            if (rem < 0) {
                int64_t trip = ltrip[cur];
                int32_t jit = loop_jit[cur];
                if (trip < 0 || (jit && mt_random(&s) < loop_res[cur])) {
                    if (jit) {
                        trip = loop_trip[cur] - jit + mt_randbelow(&s, 2 * (int64_t)jit + 1);
                        if (trip < 1) trip = 1;
                    } else trip = loop_trip[cur];
                    ltrip[cur] = trip;
                }
                rem = trip;
            }
            int64_t mi = max_iter[cur];
            if (rem <= mi) {
                it = rem; lrem[cur] = -1;
                if (it > 1) APP_RUN(lg | ((it - 1) << 1) | 1);
                APP_RUN(lg | 2);
            } else {
                it = mi; lrem[cur] = rem - mi;
                APP_RUN(lg | (mi << 1) | 1);
            }
        }

        /* iterations 1..it-1 */
        int64_t end;
        if (it > 1) {
            end = pr + it;
            if (pe > pb) {
                for (int64_t t = pr + 1; t < end; t++) {
                    if (hn && ht[0] == t) {
                        for (int64_t pi = pb; pi < pe; pi++) {
                            int32_t pp = p_pos[pi];
                            while (hn && ht[0] == t && hp[0] < pp) FIRE(t);
                            APP_RUN(p_g142[pi] | (int64_t)(mt_random(&s) < p_p[pi]));
                        }
                        while (hn && ht[0] == t) FIRE(t);
                    } else {
                        for (int64_t pi = pb; pi < pe; pi++)
                            APP_RUN(p_g142[pi] | (int64_t)(mt_random(&s) < p_p[pi]));
                    }
                }
            } else {
                while (hn && ht[0] < end) { int64_t t = ht[0]; FIRE(t); }
            }
        } else end = pr + 1;

        if (nv >= visits_cap) return -2;
        visits[nv++] = (pr << 26) | ((int64_t)cur << 13) | it;
        prior[cur] = end;
        emitted += (int64_t)width[cur] * it;
        if (emitted >= length) break;

        /* dispatch: random Zipf jump, else the deterministic schedule */
        if (jump_prob != 0.0 && mt_random(&s) < jump_prob) {
            if (jpos >= njump) jpos = 0;
            cur = jt[jpos++];
            continue;
        }
        int64_t so = s_off[cur];
        int64_t n_ent = s_off[cur + 1] - so;
        int64_t p = pointers[cur];
        pointers[cur] = (p + 1 < n_ent) ? p + 1 : 0;
        cur = s_ent[so + p];
    }
    counts[0] = nr;
    counts[1] = nv;
    return 0;
}

/* ---- correlated-site chain sweep ----------------------------------- */

/* Resolve correlated elements in trace order.  part[] already folds
 * the resolved-source history bits and the table base; edges
 * (ej, ek, ew) list the corr->corr dependencies, grouped by target j
 * in ascending order with ek[e] < j. */
void corr_sweep(const int64_t *part, const uint8_t *flip,
                const int64_t *ej, const int64_t *ek, const int64_t *ew,
                int64_t ne, const uint8_t *table, uint8_t *vals, int64_t m)
{
    int64_t e = 0;
    for (int64_t j = 0; j < m; j++) {
        int64_t acc = part[j];
        while (e < ne && ej[e] == j) {
            if (vals[ek[e]]) acc += ew[e];
            e++;
        }
        vals[j] = table[acc] ^ flip[j];
    }
}
"""


def _mt_state(rng: Random) -> Tuple[np.ndarray, int]:
    """Extract (624 MT words, cursor) from a ``random.Random``."""
    state = rng.getstate()[1]
    return np.asarray(state[:624], dtype=np.uint32), int(state[624])


def _selftest(lib: ctypes.CDLL) -> bool:
    """Draw from both implementations and require exact agreement."""
    rng = Random(0xC0FFEE)
    words, pos = _mt_state(rng)
    nd, ni, nrv = 512, 256, 256
    outd = np.empty(nd, dtype=np.float64)
    outi = np.empty(ni, dtype=np.int64)
    outr = np.empty(nrv, dtype=np.int64)
    lib.mt_selftest(
        words.ctypes.data_as(ctypes.c_void_p),
        ctypes.c_int64(pos),
        outd.ctypes.data_as(ctypes.c_void_p),
        ctypes.c_int64(nd),
        outi.ctypes.data_as(ctypes.c_void_p),
        ctypes.c_int64(ni),
        outr.ctypes.data_as(ctypes.c_void_p),
        ctypes.c_int64(nrv),
    )
    if any(outd[i] != rng.random() for i in range(nd)):
        return False
    if any(outi[i] != rng.randint(-3, 3) for i in range(ni)):
        return False
    lambd = 1.0 / 12.0
    return all(outr[i] == round(rng.expovariate(lambd)) for i in range(nrv))


def _prepare(lib: ctypes.CDLL) -> Optional[str]:
    lib.fastgen_events.restype = ctypes.c_int64
    lib.corr_sweep.restype = None
    lib.mt_selftest.restype = None
    if not _selftest(lib):  # pragma: no cover - platform-dependent
        return "MT19937 replication self-test failed"
    return None


def _load() -> Optional[ctypes.CDLL]:
    return _cc.load("fastgen", _C_SOURCE, _prepare)


def available() -> bool:
    """Whether the compiled event-pass driver can be used."""
    return _load() is not None


def unavailable_reason() -> Optional[str]:
    """Why the compiled driver cannot run, or ``None`` if it can."""
    _load()
    return _cc.unavailable_reason("fastgen")


def _ptr(array: np.ndarray) -> ctypes.c_void_p:
    return ctypes.c_void_p(array.ctypes.data)


def events(
    cl,
    rng: Random,
    jump_targets: np.ndarray,
    jump_prob: float,
    length: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Run the event pass in C; returns the ``(visits, runs)`` records.

    ``cl`` is the flat C layout built by ``fastgen._prepare``; ``rng``
    is the *fresh* ``random.Random`` whose stream the replay consumes
    (its state is copied out, the object itself is not advanced — the
    caller must not reuse it either way).  Call only when
    :func:`available`.
    """
    lib = _load()
    if lib is None:
        raise RuntimeError(f"compiled event driver unavailable: {unavailable_reason()}")
    words, pos = _mt_state(rng)
    R = int(cl.width.size)
    nb = int(cl.b_pos.size)
    heap_t = np.empty(nb, dtype=np.int64)
    heap_pos = np.empty(nb, dtype=np.int32)
    heap_site = np.empty(nb, dtype=np.int32)
    prior = np.empty(R, dtype=np.int64)
    lrem = np.empty(R, dtype=np.int64)
    ltrip = np.empty(R, dtype=np.int64)
    pointers = np.empty(R, dtype=np.int64)
    jt = np.ascontiguousarray(jump_targets, dtype=np.int32)
    counts = np.zeros(2, dtype=np.int64)

    runs_cap = length // 2 + 65536 + 8 * nb
    visits_cap = length // 8 + 4096
    for _ in range(4):
        runs = np.empty(runs_cap, dtype=np.int64)
        visits = np.empty(visits_cap, dtype=np.int64)
        rc = lib.fastgen_events(
            _ptr(words),
            ctypes.c_int64(pos),
            ctypes.c_int64(R),
            _ptr(cl.width),
            _ptr(cl.max_iter),
            _ptr(cl.loop_g14),
            _ptr(cl.loop_trip),
            _ptr(cl.loop_jit),
            _ptr(cl.loop_res),
            _ptr(cl.b_off),
            _ptr(cl.b_pos),
            _ptr(cl.b_g14),
            _ptr(cl.b_rate),
            _ptr(cl.b_lambd),
            _ptr(cl.b_base),
            _ptr(cl.p_off),
            _ptr(cl.p_pos),
            _ptr(cl.p_g142),
            _ptr(cl.p_p),
            _ptr(cl.s_off),
            _ptr(cl.s_ent),
            _ptr(jt),
            ctypes.c_int64(len(jt)),
            ctypes.c_double(jump_prob),
            ctypes.c_int64(length),
            _ptr(heap_t),
            _ptr(heap_pos),
            _ptr(heap_site),
            _ptr(prior),
            _ptr(lrem),
            _ptr(ltrip),
            _ptr(pointers),
            _ptr(runs),
            ctypes.c_int64(runs_cap),
            _ptr(visits),
            ctypes.c_int64(visits_cap),
            _ptr(counts),
        )
        if rc == 0:
            return visits[: counts[1]].copy(), runs[: counts[0]].copy()
        if rc == -1:
            runs_cap = runs_cap * 4 + length
        elif rc == -2:
            visits_cap = visits_cap * 4 + length
        else:  # pragma: no cover - unknown return code
            raise RuntimeError(f"fastgen_events returned {rc}")
    raise RuntimeError("fastgen_events kept overflowing its buffers")  # pragma: no cover


def corr_sweep(
    part: np.ndarray,
    flips: np.ndarray,
    ej: np.ndarray,
    ek: np.ndarray,
    ew: np.ndarray,
    table: np.ndarray,
    m: int,
) -> np.ndarray:
    """Resolve ``m`` correlated elements in C; returns their uint8 values.
    Call only when :func:`available`."""
    lib = _load()
    if lib is None:
        raise RuntimeError(f"compiled event driver unavailable: {unavailable_reason()}")
    # The C loop walks raw pointers with unit stride; np.nonzero on a 2-D
    # mask hands back strided views, so force contiguity before crossing.
    part = np.ascontiguousarray(part, dtype=np.int64)
    flips = np.ascontiguousarray(flips, dtype=np.uint8)
    ej = np.ascontiguousarray(ej, dtype=np.int64)
    ek = np.ascontiguousarray(ek, dtype=np.int64)
    ew = np.ascontiguousarray(ew, dtype=np.int64)
    table = np.ascontiguousarray(table, dtype=np.uint8)
    vals = np.empty(m, dtype=np.uint8)
    lib.corr_sweep(
        _ptr(part),
        _ptr(flips),
        _ptr(ej),
        _ptr(ek),
        _ptr(ew),
        ctypes.c_int64(len(ej)),
        _ptr(table),
        _ptr(vals),
        ctypes.c_int64(m),
    )
    return vals
