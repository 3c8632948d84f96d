"""Compiled bit-parallel simulation kernel (packed ``uint64`` lanes).

The interpreted simulator (the test oracle,
``tests/simulator_oracle.py``) walks the gate list in Python, one
big-int per net.  This module compiles a
:class:`~repro.hdl.netlist.Circuit` once into flat program tables and
evaluates *all* machines of a campaign pass in packed 64-bit words:

* :func:`compile_circuit` — levelize the netlist (ASAP levels), renumber
  the nets so that the outputs of every ``(level, opcode)`` group are a
  contiguous row range, and lay the program out as three flat ``int64``
  tables (levels, groups, operand-major gather rows).  Combinational
  loops are rejected with :class:`CompileError` carrying the stable
  diagnostic code ``E120`` instead of a raw traceback.
* :class:`Program` — a compiled circuit with one packed workload.
* :func:`decompile` — reconstruct an equivalent :class:`Circuit` from a
  compiled program.  The round-trip preserves ``structural_hash``.
* :class:`CompiledSimulator` — a drop-in replacement for the interpreted
  simulator (same public API, every fault overlay, bit-identical
  results).  Net values live in a ``(rows, W)`` ``uint64`` array where
  ``W = ceil(machines / 64)``; machine *k* is bit ``k % 64`` of word
  ``k // 64`` and machine 0 stays the golden reference, exactly like the
  interpreted big-int layout.

Every per-cycle step runs in one small C library (``_SWEEP_C``, bound
with :mod:`ctypes`): the inputs, the eval preamble, the level sweep with
its forced-net overlay and glitches, the bridge re-sweep, toggle maps,
a pass's observation and the clock edge.  :meth:`CompiledSimulator.run`
runs whole stretches of a packed stimulus table in one C call and
returns to Python only to record a cycle with new lanes, to drain a
replay's :class:`Activity` buffers or to arm a cycle's scheduled flips
and glitches; ``step_eval``/``step_commit`` run the same C code one
cycle at a time.  The library is compiled with the host's ``cc`` on
the first :class:`CompiledSimulator` of a process and cached under
``${XDG_CACHE_HOME:-~/.cache}/repro``, keyed on the SHA-256 of the
source, the compiler's version and the flags; without a working
compiler that first simulator raises :class:`CompileError` ``E121``.

This is the only simulator of the production code: it runs the
injection passes, the operational-profile replay at one lane, SET
derating, VCD traces and the subsystems' ``simulator()`` helpers.
Bridging faults re-run the program once per cycle with the bridged
victims forced, and memory coupling faults flip their victims as each
aggressor bit is written, both reproducing the interpreted simulator
bit for bit (that simulator stays as the differential oracle of
both).  A netlist the renumbering cannot represent (a multi-driven
net) is rejected with a :class:`~repro.hdl.netlist.NetlistError`.
"""

from __future__ import annotations

import copy
import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ..diagnostics.core import Diagnostic, DiagnosticError
from .netlist import (
    Circuit,
    NetlistError,
    OP_ARITY,
    OP_CONST0,
    OP_CONST1,
)
from .simulator import (
    BRIDGE_AND,
    BRIDGE_DOMINANT,
    BRIDGE_OR,
    SimulatorBase,
    _out_of_range,
)

_U64 = np.uint64
_WORD_BITS = 64

#: diagnostic code raised for combinational loops at compile time
LOOP_CODE = "E120"
#: diagnostic code raised when the C level sweep cannot be built
KERNEL_CODE = "E121"

#: a stimulus table's code for a row its port leaves alone this cycle
_KEEP = 2
#: entries per activity buffer on top of one cycle's most
_ACTIVITY_ROWS = 4096
#: the C kernel's bridge modes, by index
_BRIDGE_MODES = (BRIDGE_DOMINANT, BRIDGE_AND, BRIDGE_OR)


class CompileError(DiagnosticError, NetlistError):
    """The circuit cannot be compiled (coded diagnostic, e.g. E120)."""

    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic)
        self.code = diagnostic.code


# ----------------------------------------------------------------------
# the C kernel: the comment above each entry point says what it does
# ----------------------------------------------------------------------
_SWEEP_C = r"""
#include <stdint.h>
#include <string.h>
typedef uint64_t u64;
typedef int64_t i64;
typedef uint8_t u8;

#define UNARY(E) for (k = 0; k < n; k++, d += W) { \
        const u64 *a = v + in[k] * W; \
        for (w = 0; w < W; w++) d[w] = (E); } break;
#define BINARY(E) for (k = 0; k < n; k++, d += W) { \
        const u64 *a = v + in[k] * W, *b = v + in[n + k] * W; \
        for (w = 0; w < W; w++) d[w] = (E); } break;

/* One stacked memory group (_MemGroup, bound as _MemTable). */
typedef struct {
    i64 members, depth, width, abits;
    const i64 *addr_rows;           /* (G, A) */
    const i64 *weight;              /* (A,): 2**a % depth */
    const i64 *we_rows;             /* (G,) */
    const i64 *wdata_rows;          /* (G, width) */
    const i64 *rdata_rows;          /* (G, width) */
    u64 *store;                     /* (G, depth, W, width) */
    u64 *rdata;                     /* (G, width, W) */
    i64 nstuck;
    const i64 *stuck;               /* (S, 3): member, word, bit */
    const u64 *stuck_nc, *stuck_set; /* (S, W): ~clear, set */
    const i64 *coff;                /* (G * depth + 1) or NULL */
    const i64 *cpl;                 /* (C, 3): agg bit, vic word, vic bit */
    const u64 *cmask;               /* (C, W) */
} memgroup;

/* A fault-free replay's lane-0 record (Activity, bound as
   _ActivityTable). */
typedef struct {
    i64 *first_change, *first_one;  /* per net row, -1 until it happens */
    i64 *wait, nwait;               /* the rows waiting for either */
    u8 *last;                       /* per net row: last cycle's bit */
    u8 *prev_q;                     /* per flop: its bit after last edge */
    i64 nmem, abits, abytes;
    const i64 *ports;               /* (M, 3 + abits): we row, read row,
                                       read flip, address rows */
    i64 cap, ntog, nacc;
    i64 *tog;                       /* (cap, 2): cycle, flop */
    i64 *acc;                       /* (cap, 3): cycle, memory, write */
    u8 *addr;                       /* (cap, abytes), little-endian */
} activity;

/* One simulator (CompiledSimulator, bound as _SimTable): the (rows, W)
   value array v, the all-machines words f and pointers to every table;
   a pointer is NULL, or a count 0, where a feature is unused. */
typedef struct {
    u64 *v; i64 W; const u64 *f; i64 nnets;
    i64 depth; const i64 *levels, *groups, *gather;
    const i64 *ooff, *orows; const u64 *onc, *oset;  /* forced nets */
    const i64 *goff, *grows; const u64 *gmask; u64 *graw; /* glitches */
    i64 nflops; const i64 *flop_rows;   /* (4, F): d, en, rst, q */
    const u64 *init; u64 *state;
    i64 nconst0, nconst1; const i64 *const0, *const1;
    i64 ngroups; const memgroup *mem; u64 *scratch;
    i64 nbridges; const i64 *bridges;   /* (B, 4): agg, vic, mode, entry */
    const u64 *bmask;
    const i64 *boff, *brows; const u64 *bnc; u64 *bset; const u64 *bbase;
    u8 *seen0, *seen1;
    i64 ninputs; const i64 *input_rows; const u8 *stim;
    i64 npoints, diag_lo, diag_hi; const i64 *off, *cells;
    u64 *seen, *fresh; i64 *hit, nhit;
    activity *act;
} sim;

static void overlay(u64 *v, i64 W, i64 lo, i64 hi, const i64 *rows,
                    const u64 *nc, const u64 *set)
{
    for (i64 e = lo; e < hi; e++) {
        u64 *d = v + rows[e] * W;
        for (i64 w = 0; w < W; w++)
            d[w] = (d[w] & nc[e * W + w]) | set[e * W + w];
    }
}

/* One sweep of the program: every level's gate groups, each level
   followed by its bucket of the overlay (v & ~clear) | set and of the
   cycle's glitch XORs; bucket 0 runs before level 0.  The inverting
   ops and BUF combine with f (NOT a = a ^ f, BUF a = a & f), so padding
   lanes past the last machine keep the numpy sweep's bits.  Op numbers
   are netlist.OP_*. */
static void sweep(const sim *s, const i64 *ooff, const i64 *orows,
                  const u64 *onc, const u64 *oset)
{
    u64 *v = s->v;
    const u64 *f = s->f;
    const i64 W = s->W;
    i64 k, w;
    for (i64 lv = 0;; lv++) {
        overlay(v, W, ooff[lv], ooff[lv + 1], orows, onc, oset);
        if (s->goff)
            for (i64 e = s->goff[lv]; e < s->goff[lv + 1]; e++)
                for (w = 0; w < W; w++)
                    v[s->grows[e] * W + w] ^= s->gmask[e * W + w];
        if (lv == s->depth)
            return;
        for (i64 g = s->levels[lv]; g < s->levels[lv + 1]; g++) {
            const i64 *grp = s->groups + 4 * g, n = grp[1];
            const i64 *in = s->gather + grp[3];
            u64 *d = v + grp[2] * W;
            switch (grp[0]) {
            case 2: UNARY(a[w] & f[w])                      /* BUF */
            case 3: UNARY(a[w] ^ f[w])                      /* NOT */
            case 4: BINARY(a[w] & b[w])                     /* AND */
            case 5: BINARY(a[w] | b[w])                     /* OR */
            case 6: BINARY(a[w] ^ b[w])                     /* XOR */
            case 7: BINARY((a[w] & b[w]) ^ f[w])            /* NAND */
            case 8: BINARY((a[w] | b[w]) ^ f[w])            /* NOR */
            case 9: BINARY((a[w] ^ b[w]) ^ f[w])            /* XNOR */
            case 10:                                        /* MUX */
                for (k = 0; k < n; k++, d += W) {
                    const u64 *a = v + in[k] * W, *b = v + in[n + k] * W,
                              *c = v + in[2 * n + k] * W;
                    for (w = 0; w < W; w++)
                        d[w] = (a[w] & b[w]) | (~a[w] & c[w]);
                }
                break;
            }
        }
    }
}

/* Write the input rows from one row of codes: 0 or 1 drives the row to
   that value in every machine, 2 leaves it alone (its port is not
   driven this cycle). */
void drive(const sim *s, const u8 *code)
{
    for (i64 i = 0; i < s->ninputs; i++)
        if (code[i] < 2) {
            u64 *d = s->v + s->input_rows[i] * s->W;
            for (i64 w = 0; w < s->W; w++)
                d[w] = code[i] ? s->f[w] : 0;
        }
}

/* Toggle maps: a net row seen 1 in any lane, seen 0 in any lane. */
static void toggles(const sim *s)
{
    if (!s->seen0)
        return;
    for (i64 r = 0; r < s->nnets; r++) {
        const u64 *d = s->v + r * s->W;
        u64 one = 0, zero = 0;
        for (i64 w = 0; w < s->W; w++) {
            one |= d[w];
            zero |= d[w] ^ s->f[w];
        }
        s->seen1[r] |= one != 0;
        s->seen0[r] |= zero != 0;
    }
}

/* The preamble (flop q rows, read-data rows, the constant rows an
   overlay may have clobbered), a sweep with the forced-net overlay and,
   with bridges, a second sweep: each bridge's value (dominant a, AND
   a & v, OR a | v, read from the first sweep so bridges never chain)
   folds into its victim's overlay entry in arming order, and the
   program re-runs from the unglitched sources. */
void eval_comb(const sim *s)
{
    u64 *v = s->v;
    const i64 W = s->W, F = s->nflops, row = W * sizeof(u64);
    const i64 *q = s->flop_rows + 3 * F;
    for (i64 i = 0; i < F; i++)
        memcpy(v + q[i] * W, s->state + i * W, row);
    for (const memgroup *g = s->mem; g < s->mem + s->ngroups; g++)
        for (i64 j = 0; j < g->members * g->width; j++)
            memcpy(v + g->rdata_rows[j] * W, g->rdata + j * W, row);
    for (i64 i = 0; i < s->nconst0; i++)
        memset(v + s->const0[i] * W, 0, row);
    for (i64 i = 0; i < s->nconst1; i++)
        memcpy(v + s->const1[i] * W, s->f, row);
    const i64 nraw = s->nbridges && s->goff ? s->goff[1] : 0;
    for (i64 e = 0; e < nraw; e++)
        memcpy(s->graw + e * W, v + s->grows[e] * W, row);
    sweep(s, s->ooff, s->orows, s->onc, s->oset);
    toggles(s);
    if (!s->nbridges)
        return;
    for (i64 k = 0; k < s->nbridges; k++) {
        const i64 at = s->bridges[4 * k + 3] * W;
        memcpy(s->bset + at, s->bbase + at, row);
    }
    for (i64 k = 0; k < s->nbridges; k++) {
        const i64 *b = s->bridges + 4 * k;
        const u64 *a = v + b[0] * W, *x = v + b[1] * W,
                  *m = s->bmask + k * W;
        u64 *d = s->bset + b[3] * W;
        for (i64 w = 0; w < W; w++) {
            const u64 val = b[2] == 1 ? a[w] & x[w]
                          : b[2] == 2 ? a[w] | x[w] : a[w];
            d[w] = (d[w] & ~m[w]) | (val & m[w]);
        }
    }
    for (i64 e = 0; e < nraw; e++)
        memcpy(v + s->grows[e] * W, s->graw + e * W, row);
    sweep(s, s->boff, s->brows, s->bnc, s->bset);
    toggles(s);
}

/* Write word a of member m in the lanes of mask[0:w1-w0] (words w0 to
   w1), bit by bit; a bit's transition flips the victims of the
   couplings whose aggressor is that cell, before the next bit. */
static void mem_write(const memgroup *g, const u64 *v, i64 W, i64 m,
                      i64 a, i64 w0, i64 w1, const u64 *mask)
{
    const i64 width = g->width, stride = W * width;
    u64 *member = g->store + m * g->depth * stride;
    u64 *word = member + a * stride;
    const i64 *wd = g->wdata_rows + m * width;
    i64 e = 0, end = 0;
    if (g->coff) {
        e = g->coff[m * g->depth + a];
        end = g->coff[m * g->depth + a + 1];
    }
    for (i64 b = 0; b < width; b++) {
        const u64 *src = v + wd[b] * W;
        i64 e1 = e;
        while (e1 < end && g->cpl[3 * e1] == b)
            e1++;
        for (i64 w = w0; w < w1; w++) {
            u64 *cell = word + w * width + b;
            u64 t = (*cell ^ src[w]) & mask[w - w0];
            *cell ^= t;
            if (t)
                for (i64 c = e; c < e1; c++) {
                    const i64 *cp = g->cpl + 3 * c;
                    member[cp[1] * stride + w * width + cp[2]] ^=
                        t & g->cmask[c * W + w];
                }
        }
        e = e1;
    }
}

static i64 lane_address(const memgroup *g, const u64 *v, i64 W,
                        const i64 *rows, i64 w, int s)
{
    i64 a = 0;
    for (i64 i = 0; i < g->abits; i++)
        if ((v[rows[i] * W + w] >> s) & 1) {
            a += g->weight[i];
            if (a >= g->depth)
                a -= g->depth;
        }
    return a;
}

/* The flop commit in place, then every stacked memory group in the
   interpreted simulator's order.  Per member, the lanes whose address
   agrees with machine 0's read and write the golden word word-parallel;
   every other lane runs the per-lane loop.  A write goes bit by bit,
   each bit followed by the couplings whose aggressor is that cell;
   stuck cells land after the writes, and patch the read data only on a
   member where no lane diverged.  An address is the sum of its set
   bits' weights 2**a % depth, reduced as it goes, so any address width
   is exact. */
void clock_edge(const sim *s)
{
    const u64 *v = s->v, *f = s->f;
    const i64 W = s->W, F = s->nflops;
    const i64 *d = s->flop_rows, *en = d + F, *rst = en + F;
    for (i64 i = 0; i < F; i++) {
        const u64 *dv = v + d[i] * W, *ev = v + en[i] * W,
                  *rv = v + rst[i] * W, *iv = s->init + i * W;
        u64 *q = s->state + i * W;
        for (i64 w = 0; w < W; w++) {
            u64 nxt = (dv[w] & ev[w]) | (q[w] & ~ev[w]);
            q[w] = (iv[w] & rv[w]) | (nxt & ~rv[w]);
        }
    }
    u64 *mism = s->scratch, *uw = s->scratch + W;
    for (const memgroup *g = s->mem; g < s->mem + s->ngroups; g++) {
        const i64 width = g->width, stride = W * width;
        i64 st = 0;
        for (i64 m = 0; m < g->members; m++) {
            const i64 *rows = g->addr_rows + m * g->abits;
            const u64 *we = v + g->we_rows[m] * W;
            u64 *rd = g->rdata + m * width * W, any = 0, writes = 0;
            i64 a0 = lane_address(g, v, W, rows, 0, 0);
            const u64 *word = g->store + (m * g->depth + a0) * stride;
            for (i64 w = 0; w < W; w++) {
                u64 x = 0;              /* lanes off machine 0's address */
                for (i64 i = 0; i < g->abits; i++) {
                    const u64 *row = v + rows[i] * W;
                    x |= row[w] ^ (-(row[0] & 1) & f[w]);
                }
                mism[w] = x;
                any |= x;
                uw[w] = we[w] & ~x;
                writes |= uw[w];
                for (i64 b = 0; b < width; b++)
                    rd[b * W + w] = word[w * width + b] & ~x;
            }
            if (writes)
                mem_write(g, v, W, m, a0, 0, W, uw);
            for (i64 w = 0; w < W; w++)
                for (u64 lanes = mism[w]; lanes; lanes &= lanes - 1) {
                    int k = __builtin_ctzll(lanes);
                    u64 lane = (u64)1 << k;
                    i64 a = lane_address(g, v, W, rows, w, k);
                    const u64 *cells = g->store
                        + (m * g->depth + a) * stride + w * width;
                    for (i64 b = 0; b < width; b++)
                        rd[b * W + w] |= cells[b] & lane;
                    if (we[w] & lane)
                        mem_write(g, v, W, m, a, w, w + 1, &lane);
                }
            for (; st < g->nstuck && g->stuck[3 * st] == m; st++) {
                const i64 *sc = g->stuck + 3 * st;
                const u64 *nc = g->stuck_nc + st * W,
                          *set = g->stuck_set + st * W;
                u64 *cell = g->store + (m * g->depth + sc[1]) * stride
                    + sc[2];
                for (i64 w = 0; w < W; w++)
                    cell[w * width] = (cell[w * width] & nc[w]) | set[w];
                if (!any && sc[1] == a0)
                    for (i64 w = 0; w < W; w++)
                        rd[sc[2] * W + w] =
                            (rd[sc[2] * W + w] & nc[w]) | set[w];
            }
        }
    }
}

/* One cycle of a campaign pass's monitors (see compiled_pass.py): a
   table of probe points, each a list of cells into the value array,
   the flop state or a memory store.  Point p owns the cells
   off[p] to off[p + 1], rows (address, lane stride, bits): bit b of
   lane word w is the u64 at address + (w * stride + b) * 8.  Per lane
   word, the point's diff is the OR over its cells' bits of x ^ g,
   where g = -(the bit's lane-0 value), or of x & ~g on a DIAG point
   (diag_lo <= p < diag_hi).  Its lanes in f & ~seen[p] are ORed into
   seen[p] and written to fresh[p]; a point with none left is
   skipped.  Returns how many points got new lanes, listed in hit. */
static i64 observe(const sim *s)
{
    const i64 W = s->W;
    const u64 *f = s->f;
    i64 nhit = 0;
    for (i64 p = 0; p < s->npoints; p++) {
        u64 *sp = s->seen + p * W, *x = s->fresh + p * W, open = 0,
            any = 0;
        for (i64 w = 0; w < W; w++)
            open |= f[w] & ~sp[w];
        if (!open)
            continue;
        const int diag = p >= s->diag_lo && p < s->diag_hi;
        for (i64 w = 0; w < W; w++)
            x[w] = 0;
        for (const i64 *c = s->cells + 3 * s->off[p];
             c < s->cells + 3 * s->off[p + 1]; c += 3) {
            const u64 *v = (const u64 *)(uintptr_t)c[0];
            for (i64 b = 0; b < c[2]; b++) {
                const u64 g = -(v[b] & 1);
                if (diag && g)
                    continue;           /* x & ~g is 0 on every lane */
                for (i64 w = 0; w < W; w++)
                    x[w] |= v[w * c[1] + b] ^ g;
            }
        }
        for (i64 w = 0; w < W; w++) {
            x[w] &= f[w] & ~sp[w];
            sp[w] |= x[w];
            any |= x[w];
        }
        if (any)
            s->hit[nhit++] = p;
    }
    return nhit;
}

/* Cycle c's evaluated lane 0: first events per net row (a change
   counts from cycle 1), then the memories' port traffic: a write, or
   a read (the strobe row, or not writing when flip is 1). */
static void record(activity *a, const sim *s, i64 c)
{
    const u64 *v = s->v;
    const i64 W = s->W;
    i64 kept = 0;
    for (i64 k = 0; k < a->nwait; k++) {
        const i64 r = a->wait[k];
        const u8 bit = v[r * W] & 1;
        if (c && bit != a->last[r] && a->first_change[r] < 0)
            a->first_change[r] = c;
        if (bit && a->first_one[r] < 0)
            a->first_one[r] = c;
        a->last[r] = bit;
        if (a->first_change[r] < 0 || a->first_one[r] < 0)
            a->wait[kept++] = r;
    }
    a->nwait = kept;
    for (i64 m = 0; m < a->nmem; m++) {
        const i64 *p = a->ports + (3 + a->abits) * m, *rows = p + 3;
        const u64 write = v[p[0] * W] & 1;
        if (!write && !((v[p[1] * W] & 1) ^ p[2]))
            continue;
        i64 *e = a->acc + 3 * a->nacc;
        u8 *addr = a->addr + a->abytes * a->nacc++;
        e[0] = c;
        e[1] = m;
        e[2] = write;
        memset(addr, 0, a->abytes);
        for (i64 b = 0; b < a->abits; b++)
            addr[b >> 3] |= (u8)((v[rows[b] * W] & 1) << (b & 7));
    }
}

/* Cycle c's committed flops: a toggle against the previous cycle's. */
static void record_flops(activity *a, const sim *s, i64 c)
{
    for (i64 i = 0; i < s->nflops; i++) {
        const u8 q = s->state[i * s->W] & 1;
        if (c && q != a->prev_q[i]) {
            a->tog[2 * a->ntog] = c;
            a->tog[2 * a->ntog++ + 1] = i;
        }
        a->prev_q[i] = q;
    }
}

/* Cycles [lo, hi) of the stimulus table: drive, eval_comb, the
   activity record, observe, clock_edge.  Returns the next cycle to run:
   hi, or earlier right after a cycle whose observation found new lanes
   (nhit) or after which the activity buffers may not hold another. */
i64 run(sim *s, i64 lo, i64 hi)
{
    activity *a = s->act;
    s->nhit = 0;
    for (i64 c = lo; c < hi; c++) {
        drive(s, s->stim + c * s->ninputs);
        eval_comb(s);
        if (a)
            record(a, s, c);
        if (s->npoints)
            s->nhit = observe(s);
        clock_edge(s);
        if (a) {
            record_flops(a, s, c);
            if (a->ntog + s->nflops > a->cap || a->nacc + a->nmem > a->cap)
                return c + 1;
        }
        if (s->nhit)
            return c + 1;
    }
    return hi;
}
"""

_CC_FLAGS = ("-O2", "-shared", "-fPIC")
_PTR = ctypes.c_void_p
_I64 = ctypes.c_int64


def _table(fields: str) -> type[ctypes.Structure]:
    """A ctypes view of one of ``_SWEEP_C``'s structs, whose fields are
    all 8 bytes: a pointer is bound as its address (0 for NULL)."""
    return type("_Table", (ctypes.Structure,),
                {"_fields_": [(name, _I64) for name in fields.split()]})


#: ``memgroup``: one stacked memory group
_MemTable = _table("""members depth width abits addr_rows weight we_rows
    wdata_rows rdata_rows store rdata nstuck stuck stuck_nc stuck_set
    coff cpl cmask""")
#: ``activity``: a fault-free replay's lane-0 record
_ActivityTable = _table("""first_change first_one wait nwait last prev_q
    nmem abits abytes ports cap ntog nacc tog acc addr""")
#: ``sim``: one simulator
_SimTable = _table("""v W f nnets depth levels groups gather ooff orows
    onc oset goff grows gmask graw nflops flop_rows init state nconst0
    nconst1 const0 const1 ngroups mem scratch nbridges bridges bmask boff
    brows bnc bset bbase seen0 seen1 ninputs input_rows stim npoints
    diag_lo diag_hi off cells seen fresh hit nhit act""")


def _kernel_error(reason: str) -> CompileError:
    return CompileError(Diagnostic(
        code=KERNEL_CODE,
        message=f"the compiled kernel's C library could not be "
                f"built: {reason}"))


def _kernel_cache_dir() -> Path:
    """``${XDG_CACHE_HOME:-~/.cache}/repro``, private to this user."""
    base = os.environ.get("XDG_CACHE_HOME") or \
        os.path.join(os.path.expanduser("~"), ".cache")
    path = Path(base) / "repro"
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        info = path.stat()
        if info.st_uid != os.getuid():
            raise _kernel_error(f"the cache directory {path} belongs to "
                                f"another user")
        if info.st_mode & 0o077:
            path.chmod(0o700)
    except OSError as err:
        raise _kernel_error(f"the cache directory {path} is not "
                            f"usable: {err}") from err
    return path


def _run_cc(args: list[str]) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(args, capture_output=True, text=True,
                              timeout=300)
    except (OSError, subprocess.SubprocessError) as err:
        raise _kernel_error(f"running {args[0]} failed: {err}") from err


@functools.cache
def _sweep_library() -> ctypes.CDLL:
    """The C kernel, built into the user's cache on first use.

    The library's file name is keyed on the SHA-256 of the C source,
    the compiler's ``--version`` and the flags; a build writes a temp
    file in the cache directory and renames it into place, so
    concurrent builders each load a complete library."""
    cc = shutil.which("cc")
    if cc is None:
        raise _kernel_error("no C compiler named `cc` on PATH")
    version = _run_cc([cc, "--version"])
    if version.returncode:
        raise _kernel_error(f"`{cc} --version` exited with "
                            f"{version.returncode}")
    key = hashlib.sha256("\0".join(
        (_SWEEP_C, version.stdout, *_CC_FLAGS)).encode()).hexdigest()
    cache = _kernel_cache_dir()
    path = cache / f"sweep-{key}.so"
    if not path.exists():
        fd, source = tempfile.mkstemp(dir=cache, prefix=".sweep-",
                                      suffix=".c")
        built = source[:-2] + ".so"
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(_SWEEP_C)
            result = _run_cc([cc, *_CC_FLAGS, "-o", built, source])
            if result.returncode:
                raise _kernel_error(
                    f"`cc` exited with {result.returncode}: "
                    f"{result.stderr.strip()[-2000:]}")
            os.replace(built, path)
        finally:
            for leftover in (source, built):
                if os.path.exists(leftover):
                    os.unlink(leftover)
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as err:
        raise _kernel_error(f"loading {path} failed: {err}; delete it "
                            f"to rebuild") from err
    for name in ("drive", "eval_comb", "clock_edge"):
        getattr(lib, name).restype = None
    lib.drive.argtypes = (_PTR, _PTR)
    lib.eval_comb.argtypes = lib.clock_edge.argtypes = (_PTR,)
    lib.run.argtypes = (_PTR, _I64, _I64)
    lib.run.restype = _I64
    return lib


class CompiledCircuit:
    """A levelized, renumbered straight-line program for one circuit.

    Immutable and shareable: any number of :class:`CompiledSimulator`
    instances (with different machine counts) can run the same program.
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        n = circuit.num_nets
        self.num_nets = n
        # two sentinel rows give flops without en/rst a constant input
        self.zero_row = n
        self.one_row = n + 1
        self.num_rows = n + 2

        # the single-driver rule the renumbering relies on
        circuit.driver_map()
        gate_level = self._levelize(circuit)
        self.depth = (max(gate_level) + 1) if gate_level else 0

        # renumber: sources (inputs, flop q, rdata, consts, undriven
        # nets) first in original order, then gate outputs grouped by
        # (level, opcode) so every group's outputs are one contiguous
        # row range and per-group scatter is a plain slice store.
        logic = bytearray(n)
        for gate in circuit.gates:
            if gate.op not in (OP_CONST0, OP_CONST1):
                logic[gate.out] = 1
        perm = np.full(n, -1, dtype=np.intp)
        next_row = 0
        for net in range(n):
            if not logic[net]:
                perm[net] = next_row
                next_row += 1
        self.num_source_rows = next_row

        by_level_op: dict[tuple[int, int], list[int]] = {}
        for gi, gate in enumerate(circuit.gates):
            if gate.op in (OP_CONST0, OP_CONST1):
                continue
            by_level_op.setdefault((gate_level[gi], gate.op),
                                   []).append(gi)

        # the flat program tables the C sweep reads: level k runs
        # groups level_groups[k]:level_groups[k+1] of the (G, 4) group
        # table (op, count, first output row, gather offset); a
        # group's gather block is operand-major, every gate's first
        # input row, then every second, then every third
        level_groups = [0]
        groups: list[tuple[int, int, int, int]] = []
        gather: list[int] = []
        for lvl in range(self.depth):
            for op in sorted(op for (lv, op) in by_level_op
                             if lv == lvl):
                gis = by_level_op[(lvl, op)]
                groups.append((op, len(gis), next_row, len(gather)))
                for gi in gis:
                    perm[circuit.gates[gi].out] = next_row
                    next_row += 1
                for j in range(OP_ARITY[op]):
                    gather.extend(circuit.gates[gi].inputs[j]
                                  for gi in gis)
            level_groups.append(len(groups))
        assert next_row == n
        self.perm = perm
        self.level_groups = np.asarray(level_groups, dtype=np.int64)
        self.groups = np.asarray(groups, dtype=np.int64).reshape(-1, 4)
        # gather indices reference *rows*, so translate through perm
        # once the whole permutation is known
        self.gather = perm[np.asarray(gather, dtype=np.intp)].astype(
            np.int64)

        # overlay bucket of a row: 0 = applied before level 0 (sources
        # and const outputs), k+1 = applied right after level k
        bucket = np.zeros(n, dtype=np.intp)
        for gi, gate in enumerate(circuit.gates):
            if gate.op not in (OP_CONST0, OP_CONST1):
                bucket[gate.out] = gate_level[gi] + 1
        self.bucket_of = bucket            # indexed by *original* net id

        self.const0_rows = perm[np.array(
            [g.out for g in circuit.gates if g.op == OP_CONST0],
            dtype=np.intp)].astype(np.int64)
        self.const1_rows = perm[np.array(
            [g.out for g in circuit.gates if g.op == OP_CONST1],
            dtype=np.intp)].astype(np.int64)

        flops = circuit.flops
        # the (4, F) flop table: every flop's d row, then its en row
        # (the one row without en), then its rst row (the zero row
        # without rst), then its q row
        self.flop_rows = np.array(
            [[perm[f.d] for f in flops],
             [self.one_row if f.en is None else perm[f.en]
              for f in flops],
             [self.zero_row if f.rst is None else perm[f.rst]
              for f in flops],
             [perm[f.q] for f in flops]], dtype=np.int64).reshape(4, -1)
        self.flop_init = np.array([bool(f.init) for f in flops],
                                  dtype=bool)

        self.mem_addr_rows = [perm[np.array(m.addr, dtype=np.intp)]
                              for m in circuit.memories]
        self.mem_wdata_rows = [perm[np.array(m.wdata, dtype=np.intp)]
                               for m in circuit.memories]
        self.mem_we_rows = [int(perm[m.we]) for m in circuit.memories]
        self.mem_rdata_rows = [perm[np.array(m.rdata, dtype=np.intp)]
                               for m in circuit.memories]

        #: every input port's rows back to back, in port order, and
        #: each port's first column of a stimulus table and value mask
        self.input_rows = perm[np.asarray(circuit.input_nets(),
                                          dtype=np.intp)].astype(np.int64)
        self.input_ports: dict[str, tuple[int, int]] = {}
        first = 0
        for name, nets in circuit.inputs.items():
            self.input_ports[name] = (first, (1 << len(nets)) - 1)
            first += len(nets)

    def pack_inputs(self, stimuli) -> np.ndarray:
        """``stimuli`` (one ``{port: value}`` dict per cycle) as the C
        loop's ``(cycles, input rows)`` ``uint8`` table: per row the
        bit its port is driven to, or :data:`_KEEP` where the cycle
        does not drive the port (its rows keep their values).

        Raises :class:`~repro.hdl.netlist.NetlistError` on a name that
        is not an input port.  Any port width is exact.
        """
        stimuli = list(stimuli)
        rows = len(self.input_rows)
        size = (rows + 7) // 8
        raw = bytearray()
        for cycle in stimuli:
            value = driven = 0
            for name, v in cycle.items():
                if name not in self.input_ports:
                    raise NetlistError(f"no input named {name!r}")
                first, mask = self.input_ports[name]
                value |= (int(v) & mask) << first
                driven |= mask << first
            raw += value.to_bytes(size, "little")
            raw += driven.to_bytes(size, "little")
        bits = np.unpackbits(
            np.frombuffer(raw, dtype=np.uint8).reshape(len(stimuli), 2, size),
            axis=2, count=rows, bitorder="little")
        return np.where(bits[:, 1], bits[:, 0], np.uint8(_KEEP))

    @staticmethod
    def _levelize(circuit: Circuit) -> list[int]:
        """ASAP level per gate index over :meth:`Circuit.levelize`'s
        order (constants level 0); CompileError (E120) on a loop."""
        try:
            order = circuit.levelize()
        except NetlistError as exc:
            raise CompileError(Diagnostic(
                code=LOOP_CODE,
                message=f"circuit {circuit.name!r} has a {exc}")) from None
        gates = circuit.gates
        net_level = [0] * circuit.num_nets
        gate_level = [0] * len(gates)
        for gi in order:
            gate = gates[gi]
            if gate.op in (OP_CONST0, OP_CONST1):
                continue
            level = 0
            for net in gate.inputs:
                if net_level[net] > level:
                    level = net_level[net]
            gate_level[gi] = level
            net_level[gate.out] = level + 1
        return gate_level


def compile_circuit(circuit: Circuit) -> CompiledCircuit:
    """Compile a circuit into the flat program the C sweep runs.

    Raises :class:`CompileError` (code ``E120``) on combinational
    loops and :class:`~repro.hdl.netlist.NetlistError` on structures
    the compiled renumbering cannot represent (multi-driven nets).
    """
    return CompiledCircuit(circuit)


class Program:
    """A circuit's compiled program and one workload's stimulus table,
    each built on first use (the compile through
    :func:`compile_circuit`) and shared by every replay and campaign
    pass of that pair.  A deep copy starts unbuilt: a copy is made to
    be edited (a gate flipped in place) and must compile what it holds.
    """

    def __init__(self, circuit: Circuit, stimuli: list,
                 compiled: CompiledCircuit | None = None):
        self.circuit = circuit
        self.stimuli = stimuli
        self._compiled = compiled
        self._table = None

    def compiled(self) -> CompiledCircuit:
        if self._compiled is None:
            self._compiled = compile_circuit(self.circuit)
        return self._compiled

    def table(self) -> np.ndarray:
        if self._table is None:
            self._table = self.compiled().pack_inputs(self.stimuli)
        return self._table

    def __deepcopy__(self, memo) -> "Program":
        return Program(copy.deepcopy(self.circuit, memo),
                       copy.deepcopy(self.stimuli, memo))


def decompile(compiled: CompiledCircuit) -> Circuit:
    """Reconstruct a behaviourally identical :class:`Circuit`.

    Gate order follows the compiled schedule, not the original
    construction order; the canonical serialization sorts gates, so
    ``decompile(compile_circuit(c)).structural_hash()`` equals
    ``c.structural_hash()``.
    """
    src = compiled.circuit
    out = Circuit(name=src.name,
                  net_names=list(src.net_names),
                  inputs={k: list(v) for k, v in src.inputs.items()},
                  outputs={k: list(v) for k, v in src.outputs.items()})
    by_path = {g.out: g.path for g in src.gates}
    inv = np.empty(compiled.num_nets, dtype=np.intp)
    inv[compiled.perm] = np.arange(compiled.num_nets, dtype=np.intp)

    for gate in src.gates:               # consts stay source-level
        if gate.op in (OP_CONST0, OP_CONST1):
            out.add_gate(gate.op, (), gate.out, path=gate.path)
    gather = compiled.gather
    for op, count, out_lo, base in compiled.groups.tolist():
        for k in range(count):
            o = int(inv[out_lo + k])
            ins = tuple(int(inv[gather[base + j * count + k]])
                        for j in range(OP_ARITY[op]))
            out.add_gate(op, ins, o, path=by_path.get(o, ""))
    for f in src.flops:
        out.flops.append(type(f)(name=f.name, d=f.d, q=f.q,
                                 path=f.path, en=f.en, rst=f.rst,
                                 init=f.init))
    for m in src.memories:
        out.memories.append(type(m)(name=m.name, depth=m.depth,
                                    width=m.width, addr=m.addr,
                                    wdata=m.wdata, we=m.we,
                                    rdata=m.rdata, path=m.path))
    return out




# ----------------------------------------------------------------------
# the simulator
# ----------------------------------------------------------------------
class _MemGroup:
    """Memories of one (depth, width, address bits) shape, stacked.

    One ``(G, depth, W, width)`` store holds the G members (a banked
    design has one per bank), so the clock edge steps them in one loop.
    Read data is one ``(G * width, W)`` array in ``rdata_rows`` order.
    ``table`` is the C view of the group; its stuck-cell and coupling
    fields are bound by :meth:`CompiledSimulator._bind_edge`.
    """

    __slots__ = ("members", "store", "rdata", "rdata_rows", "table",
                 "_tables")

    def __init__(self, cc: CompiledCircuit, members: list[int],
                 depth: int, width: int, words: int):
        G = len(members)
        self.members = members
        self.store = np.zeros((G, depth, words, width), dtype=_U64)
        self.rdata = np.zeros((G * width, words), dtype=_U64)
        self.rdata_rows = np.concatenate(
            [cc.mem_rdata_rows[mi] for mi in members]).astype(np.int64)
        abits = len(cc.mem_addr_rows[members[0]])
        self._tables = (
            np.array([cc.mem_addr_rows[mi] for mi in members],
                     dtype=np.int64).reshape(G, abits),
            # address bit a weighs 2**a % depth: exact at any width
            np.array([pow(2, a, depth) for a in range(abits)],
                     dtype=np.int64),
            np.array([cc.mem_we_rows[mi] for mi in members],
                     dtype=np.int64),
            np.array([cc.mem_wdata_rows[mi] for mi in members],
                     dtype=np.int64).reshape(G, width),
            self.rdata_rows)
        self.table = _MemTable(
            G, depth, width, abits,
            *(t.ctypes.data for t in self._tables),
            self.store.ctypes.data, self.rdata.ctypes.data)


class _Overlay(NamedTuple):
    """Rows per overlay bucket in one flat table.

    Bucket ``b`` (0 = before level 0, ``k + 1`` = right after level
    ``k``) owns entries ``offsets[b]:offsets[b + 1]`` of ``rows`` and
    of every ``(n, W)`` array of ``masks``: ``(~clear, set)`` for
    forced nets, applied as ``(v & ~clear) | set``, or ``(xor,
    scratch)`` for a cycle's glitches.
    """

    offsets: np.ndarray
    rows: np.ndarray
    masks: tuple

    @property
    def pointers(self) -> tuple[int, ...]:
        return (self.offsets.ctypes.data, self.rows.ctypes.data,
                *(m.ctypes.data for m in self.masks))


class Activity:
    """A fault-free replay's lane-0 record, written by the C loop of
    :meth:`CompiledSimulator.run`: per net row the first cycle >= 1 it
    differs from the cycle before (``first_change``) and the first
    cycle it is 1 (``first_one``), -1 for never, and the flop toggles
    and memory accesses in the order they happen, which C appends to
    bounded buffers that :meth:`drain` empties.

    ``strobes`` maps a memory index to its read-strobe net; a memory
    without one reads in every cycle it does not write.
    """

    def __init__(self, sim: "CompiledSimulator", strobes: dict[int, int]):
        cc = sim.compiled
        n, F, M = cc.num_nets, len(cc.circuit.flops), len(cc.mem_we_rows)
        abits = max(map(len, cc.mem_addr_rows), default=0)
        self._abytes = (abits + 7) // 8
        # per memory: we row, read row, read flip, then the address
        # rows padded with the zero row
        ports = np.full((M, 3 + abits), cc.zero_row, dtype=np.int64)
        for mi, we in enumerate(cc.mem_we_rows):
            rows = cc.mem_addr_rows[mi]
            ports[mi, :3 + len(rows)] = (
                we, cc.perm[strobes[mi]] if mi in strobes else we,
                mi not in strobes, *rows)
        cap = _ACTIVITY_ROWS + F + M
        self.first_change = np.full(n, -1, dtype=np.int64)
        self.first_one = np.full(n, -1, dtype=np.int64)
        self._arrays = (np.arange(n, dtype=np.int64),     # waiting rows
                        np.zeros(n, dtype=np.uint8), np.zeros(F, np.uint8),
                        ports, np.empty((cap, 2), dtype=np.int64),
                        np.empty((cap, 3), dtype=np.int64),
                        np.empty((cap, self._abytes), dtype=np.uint8))
        wait, last, prev_q, _, self._tog, self._acc, self._addr = \
            self._arrays
        self.table = _ActivityTable(
            self.first_change.ctypes.data, self.first_one.ctypes.data,
            wait.ctypes.data, n, last.ctypes.data, prev_q.ctypes.data,
            M, abits, self._abytes, ports.ctypes.data, cap, 0, 0,
            self._tog.ctypes.data, self._acc.ctypes.data,
            self._addr.ctypes.data)
        self._chunks: list[tuple[np.ndarray, np.ndarray, bytes]] = []

    def drain(self) -> None:
        t = self.table
        self._chunks.append((self._tog[:t.ntog].copy(),
                             self._acc[:t.nacc].copy(),
                             self._addr[:t.nacc].tobytes()))
        t.ntog = t.nacc = 0

    def toggles(self) -> dict[int, list[int]]:
        """Per flop index, in the order of their first toggle, the
        cycles whose committed value differs from the cycle before's."""
        tog = np.concatenate([chunk[0] for chunk in self._chunks])
        by_flop = tog[np.argsort(tog[:, 1], kind="stable")]
        flops, starts = np.unique(by_flop[:, 1], return_index=True)
        cycles = np.split(by_flop[:, 0], starts[1:])
        first = np.lexsort((flops, by_flop[starts, 0]))
        return {flops[k].item(): cycles[k].tolist() for k in first}

    def accesses(self) -> list[tuple[int, int, bool, int]]:
        """``(cycle, memory index, write, address)`` per access; the
        address is the whole driven integer at any port width."""
        size = self._abytes
        return [(cycle, mem, bool(write), int.from_bytes(
                    raw[k * size:(k + 1) * size], "little"))
                for _, acc, raw in self._chunks
                for k, (cycle, mem, write) in enumerate(acc.tolist())]


class CompiledSimulator(SimulatorBase):
    """Drop-in bit-parallel simulator running a compiled program.

    API-compatible with the interpreted test oracle; fault overlays
    accept the same arguments and Python-int machine masks.  With
    ``collect_toggles``, a net counts as toggled once any machine has
    seen it at 0 and at 1 (the oracle's ``toggle_any_machine`` mode).
    """

    def __init__(self, circuit, machines: int = 1,
                 collect_toggles: bool = False,
                 cycle_budget: int | None = None):
        if machines < 1:
            raise ValueError("need at least one machine")
        cc = circuit if isinstance(circuit, CompiledCircuit) \
            else compile_circuit(circuit)
        self.compiled = cc
        self.circuit = cc.circuit
        self.machines = machines
        self.full_mask = (1 << machines) - 1
        self.cycle = 0
        self.cycle_budget = cycle_budget

        W = (machines + _WORD_BITS - 1) // _WORD_BITS
        self.words = W
        self._full = self._pack(self.full_mask)
        self._notone = self._full.copy()
        self._notone[0] &= _U64(~np.uint64(1))

        self._vals = np.zeros((cc.num_rows, W), dtype=_U64)
        self._vals[cc.one_row] = self._full
        if len(cc.const1_rows):
            self._vals[cc.const1_rows] = self._full
        self._lib = _sweep_library()

        F = len(self.circuit.flops)
        self._flop_state = np.where(cc.flop_init[:, None],
                                    self._full, _U64(0)) \
            if F else np.zeros((0, W), dtype=_U64)
        self._flop_init_words = self._flop_state.copy()

        # same-shape memories share one stacked store and one loop of
        # the clock edge; _mem_store[mi] is memory mi's (depth, W,
        # width) view
        shapes: dict[tuple[int, int, int], list[int]] = {}
        for mi, m in enumerate(self.circuit.memories):
            shapes.setdefault((m.depth, m.width,
                               len(cc.mem_addr_rows[mi])), []).append(mi)
        self._mem_groups = [_MemGroup(cc, members, depth, width, W)
                            for (depth, width, _), members
                            in shapes.items()]
        stores = {mi: group.store[j] for group in self._mem_groups
                  for j, mi in enumerate(group.members)}
        self._mem_store = [stores[mi] for mi in range(len(stores))]

        self._flop_index = {f.name: i
                            for i, f in enumerate(self.circuit.flops)}
        self._mem_index = {m.name: i for i, m
                           in enumerate(self.circuit.memories)}
        self._net_index: dict[str, int] | None = None

        # fault state: original net id -> (clear, set) word vectors
        self._forced: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._flop_flips: dict[int, list] = {}
        self._net_glitches: dict[int, dict[int, np.ndarray]] = {}
        self._mem_flips: dict[int, list] = {}
        #: (aggressor net, victim net, mode, mask words) in arming order
        self._bridges: list[tuple] = []
        self._mem_stuck: dict[int, dict[tuple[int, int], tuple]] = {}
        self._mem_coupling: dict[int, list[tuple]] = {}
        # the plans the C struct points into, rebuilt (None) when the
        # faults they come from change
        self._overlay_plan: _Overlay | None = None
        self._bridge_plan: tuple | None = None
        self._edge_plan: tuple | None = None
        self._glitch_plan: _Overlay | None = None
        self._edge_scratch = np.zeros(2 * W, dtype=_U64)

        self.collect_toggles = collect_toggles
        n = cc.num_nets
        self._t_seen0 = np.zeros(n, dtype=bool)
        self._t_seen1 = np.zeros(n, dtype=bool)

        self._c = _SimTable(
            v=self._vals.ctypes.data, W=W, f=self._full.ctypes.data,
            nnets=n, depth=cc.depth, levels=cc.level_groups.ctypes.data,
            groups=cc.groups.ctypes.data, gather=cc.gather.ctypes.data,
            nflops=F, flop_rows=cc.flop_rows.ctypes.data,
            init=self._flop_init_words.ctypes.data,
            state=self._flop_state.ctypes.data,
            nconst0=len(cc.const0_rows), nconst1=len(cc.const1_rows),
            const0=cc.const0_rows.ctypes.data,
            const1=cc.const1_rows.ctypes.data,
            ngroups=len(self._mem_groups),
            scratch=self._edge_scratch.ctypes.data,
            ninputs=len(cc.input_rows),
            input_rows=cc.input_rows.ctypes.data)
        if collect_toggles:
            self._c.seen0 = self._t_seen0.ctypes.data
            self._c.seen1 = self._t_seen1.ctypes.data
        self._ref = ctypes.addressof(self._c)

    # ------------------------------------------------------------------
    # packing helpers
    # ------------------------------------------------------------------
    def _pack(self, mask: int) -> np.ndarray:
        """Python-int machine mask -> little-endian uint64 words."""
        return np.frombuffer(
            mask.to_bytes(self.words * 8, "little"),
            dtype="<u8").astype(_U64)

    @staticmethod
    def _unpack(words: np.ndarray) -> int:
        return int.from_bytes(np.ascontiguousarray(
            words.astype("<u8")).tobytes(), "little")

    # ------------------------------------------------------------------
    # name resolution (shared with the interpreted simulator)
    # ------------------------------------------------------------------
    def _row(self, net) -> int:
        return int(self.compiled.perm[self._resolve_net(net)])

    # ------------------------------------------------------------------
    # fault programming
    # ------------------------------------------------------------------
    def stick_net(self, net, value: int, machines=None) -> None:
        net = self._resolve_net(net)
        mask = self._pack(self._mask(machines))
        clear, setm = self._forced.get(
            net, (np.zeros(self.words, dtype=_U64),
                  np.zeros(self.words, dtype=_U64)))
        clear = clear | mask
        setm = (setm & ~mask) | (mask if value else _U64(0))
        self._forced[net] = (clear, setm)
        self._overlay_plan = None
        self._bridge_plan = None

    def schedule_flop_flip(self, flop, cycle: int, machines=None) \
            -> None:
        idx = self._resolve_flop(flop)
        self._flop_flips.setdefault(cycle, []).append(
            (idx, self._pack(self._mask(machines))))

    def schedule_net_glitch(self, net, cycle: int, machines=None) \
            -> None:
        net = self._resolve_net(net)
        mask = self._pack(self._mask(machines))
        table = self._net_glitches.setdefault(cycle, {})
        prev = table.get(net)
        table[net] = mask if prev is None else (prev | mask)

    def add_bridge(self, aggressor, victim, mode: str = BRIDGE_DOMINANT,
                   machines=None) -> None:
        """Bridging fault: the victim net is corrupted by the aggressor."""
        self._bridges.append((self._resolve_net(aggressor),
                              self._resolve_net(victim), mode,
                              self._pack(self._mask(machines))))
        self._bridge_plan = None

    def _check_cell(self, mem: int, word: int, bit: int) -> None:
        block = self.circuit.memories[mem]
        if not (0 <= word < block.depth and 0 <= bit < block.width):
            raise IndexError(f"cell ({word}, {bit}) is outside memory "
                             f"{block.name!r} ({block.depth} words of "
                             f"{block.width} bits)")

    def set_mem_cell_stuck(self, mem, word: int, bit: int, value: int,
                           machines=None) -> None:
        mem = self._resolve_mem(mem)
        self._check_cell(mem, word, bit)
        mask = self._pack(self._mask(machines))
        table = self._mem_stuck.setdefault(mem, {})
        clear, setm = table.get(
            (word, bit), (np.zeros(self.words, dtype=_U64),
                          np.zeros(self.words, dtype=_U64)))
        clear = clear | mask
        setm = (setm & ~mask) | (mask if value else _U64(0))
        table[(word, bit)] = (clear, setm)
        self._edge_plan = None

    def schedule_mem_flip(self, mem, word: int, bit: int, cycle: int,
                          machines=None) -> None:
        mem = self._resolve_mem(mem)
        self._check_cell(mem, word, bit)
        self._mem_flips.setdefault(cycle, []).append(
            (mem, word, bit, self._pack(self._mask(machines))))

    def add_mem_coupling(self, mem, aggressor: tuple[int, int],
                         victim: tuple[int, int], machines=None) -> None:
        """Coupling fault: a write transition on aggressor flips victim."""
        mem = self._resolve_mem(mem)
        self._check_cell(mem, *aggressor)
        self._check_cell(mem, *victim)
        self._mem_coupling.setdefault(mem, []).append(
            (tuple(aggressor), tuple(victim),
             self._pack(self._mask(machines))))
        self._edge_plan = None

    def clear_faults(self) -> None:
        self._forced.clear()
        self._flop_flips.clear()
        self._net_glitches.clear()
        self._mem_flips.clear()
        self._bridges.clear()
        self._mem_stuck.clear()
        self._mem_coupling.clear()
        self._overlay_plan = None
        self._bridge_plan = None
        self._edge_plan = None

    # ------------------------------------------------------------------
    # state access
    # ------------------------------------------------------------------
    def set_input(self, name: str, value: int) -> None:
        self.set_inputs({name: value})

    def set_inputs(self, inputs: dict[str, int]) -> None:
        """Drive several ports at once: one call into the C kernel."""
        self._lib.drive(self._ref,
                        self.compiled.pack_inputs([inputs]).ctypes.data)

    def set_input_lane(self, name: str, machine: int, value: int) \
            -> None:
        nets = self.circuit.inputs[name]
        w = machine >> 6
        lane = _U64(1) << _U64(machine & 63)
        vals = self._vals
        perm = self.compiled.perm
        for bit, net in enumerate(nets):
            row = perm[net]
            if (value >> bit) & 1:
                vals[row, w] |= lane
            else:
                vals[row, w] &= ~lane

    def peek(self, net) -> int:
        return self._unpack(self._vals[self._row(net)])

    def peek_bit(self, net, machine: int = 0) -> int:
        v = self._vals[self._row(net), machine >> 6]
        return int(v >> _U64(machine & 63)) & 1

    def value_of(self, nets, machine: int = 0) -> int:
        out = 0
        vals = self._vals
        perm = self.compiled.perm
        w = machine >> 6
        s = _U64(machine & 63)
        for bit, net in enumerate(nets):
            out |= (int(vals[perm[net], w] >> s) & 1) << bit
        return out

    def set_flop(self, flop, value: int, machines=None) -> None:
        idx = self._resolve_flop(flop)
        mask = self._pack(self._mask(machines))
        state = self._flop_state[idx]
        self._flop_state[idx] = (state & ~mask) | \
            (mask if value else _U64(0))

    def flop_value(self, flop, machine: int = 0) -> int:
        v = self._flop_state[self._resolve_flop(flop), machine >> 6]
        return int(v >> _U64(machine & 63)) & 1

    def load_mem(self, mem, words) -> None:
        mi = self._resolve_mem(mem)
        block = self.circuit.memories[mi]
        store = self._mem_store[mi]
        for w, word in enumerate(words):
            if w >= block.depth:
                break
            bits = np.asarray(
                [(word >> b) & 1 for b in range(block.width)],
                dtype=bool)
            store[w] = np.where(bits[None, :], self._full[:, None],
                                _U64(0))

    def read_mem_word(self, mem, word: int, machine: int = 0) -> int:
        mi = self._resolve_mem(mem)
        cells = self._mem_store[mi][word, machine >> 6]
        s = _U64(machine & 63)
        out = 0
        for b in range(cells.shape[0]):
            out |= (int(cells[b] >> s) & 1) << b
        return out

    # ------------------------------------------------------------------
    # mismatch extraction
    # ------------------------------------------------------------------
    def _diff_words(self, sub: np.ndarray) -> np.ndarray:
        """OR-reduced golden diff of a (k, W) value block -> (W,)."""
        if not sub.shape[0]:
            return np.zeros(self.words, dtype=_U64)
        golden = np.where((sub[:, 0] & _U64(1)).astype(bool)[:, None],
                          self._full, _U64(0))
        return np.bitwise_or.reduce(sub ^ golden, axis=0) \
            & self._notone

    @staticmethod
    def _resolve_all(ids, resolve, count: int, kind: str) -> np.ndarray:
        """Indices of a sequence of ids: an integer array is
        range-checked in one step, anything else id by id."""
        if isinstance(ids, np.ndarray) and ids.dtype.kind in "iu":
            bad = (ids < 0) | (ids >= count)
            if bad.any():
                raise _out_of_range(ids[bad][0], count, kind)
            return ids
        return np.asarray([resolve(i) for i in ids], dtype=np.intp)

    def flop_state_mismatch(self, flops) -> int:
        idxs = self._resolve_all(flops, self._resolve_flop,
                                 len(self._flop_state), "flop")
        return self._unpack(self._diff_words(self._flop_state[idxs]))

    def mem_word_mismatch(self, mem, word: int) -> int:
        cells = self._mem_store[self._resolve_mem(mem)][word]
        golden = np.where((cells[0] & _U64(1)).astype(bool)[None, :],
                          self._full[:, None], _U64(0))
        diff = np.bitwise_or.reduce(cells ^ golden, axis=1) \
            & self._notone
        return self._unpack(diff)

    def mismatch_mask(self, nets) -> int:
        rows = self.compiled.perm[self._resolve_all(
            nets, self._resolve_net, self.circuit.num_nets, "net")]
        return self._unpack(self._diff_words(self._vals[rows]))

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------
    def eval_comb(self) -> None:
        """The preamble, the sweep, the bridge re-sweep and the toggle
        maps: one C call."""
        self._bind()
        self._lib.eval_comb(self._ref)

    def clock_edge(self) -> None:
        """The flop commit and every memory's step: one C call."""
        self._bind_edge()
        self._lib.clock_edge(self._ref)
        self.cycle += 1

    def run(self, table: np.ndarray, cycles: int, probes=None,
            record=None, activity: Activity | None = None) -> None:
        """Run stimulus cycles ``0 .. cycles - 1`` of ``table`` (rows of
        :meth:`CompiledCircuit.pack_inputs`) as :meth:`step_eval` and
        :meth:`step_commit` would, raising at the same cycle past
        ``cycle_budget``, in the C loop; cycles with a scheduled flip or
        glitch run one at a time.  ``probes`` is a campaign pass's probe
        table ``(offsets, cells, (diag_lo, diag_hi), seen, fresh, hit)``
        (see :mod:`repro.faultinjection.compiled_pass`); after a cycle
        whose probes found new lanes, ``record(cycle, n)`` reads them
        from ``hit[:n]``."""
        if cycles > len(table):
            raise ValueError(f"{cycles} cycles of a {len(table)}-cycle "
                             f"stimulus table")
        base = self.cycle
        stop = cycles
        if self.cycle_budget is not None:
            stop = max(0, min(cycles, self.cycle_budget - base))
        events = sorted({cycle - base for cycle in (
            *self._flop_flips, *self._mem_flips, *self._net_glitches)
            if base <= cycle < base + stop})
        self._bind()
        c = self._c
        c.stim = table.ctypes.data
        if probes is not None:
            offsets, cells, (c.diag_lo, c.diag_hi), *arrays = probes
            c.npoints = len(offsets) - 1
            c.off, c.cells, c.seen, c.fresh, c.hit = (
                a.ctypes.data for a in (offsets, cells, *arrays))
        if activity is not None:
            c.act = ctypes.addressof(activity.table)
        try:
            i = 0
            for event in (*events, stop):
                while i < event:
                    i = self._run(base, i, event, record, activity)
                if i < stop:
                    self._begin_cycle_events()
                    self._bind_glitches()
                    i = self._run(base, i, i + 1, record, activity)
                    self._bind_glitches()
        finally:
            c.stim = c.npoints = c.act = 0
        if activity is not None:
            activity.drain()
        if stop < cycles:
            self._check_budget()

    def _run(self, base: int, lo: int, hi: int, record,
             activity: Activity | None) -> int:
        """One call into the C loop from cycle ``lo`` towards ``hi``;
        returns the next cycle to run."""
        i = self._lib.run(self._ref, lo, hi)
        self.cycle = base + i
        if activity is not None and i < hi:
            activity.drain()
        if self._c.nhit:
            record(i - 1, self._c.nhit)
        return i

    # ------------------------------------------------------------------
    # the plans the C struct points into
    # ------------------------------------------------------------------
    def _overlay(self, nets: list, *columns: list) -> _Overlay:
        """``nets`` and one word vector per net in each of ``columns``
        as a flat table ordered by overlay bucket."""
        cc = self.compiled
        nets_arr = np.asarray(nets, dtype=np.intp)
        bucket = cc.bucket_of[nets_arr]
        order = np.argsort(bucket, kind="stable")
        offsets = np.searchsorted(bucket[order],
                                  np.arange(cc.depth + 2)).astype(np.int64)
        rows = cc.perm[nets_arr[order]].astype(np.int64)
        masks = tuple(np.asarray(col, dtype=_U64).reshape(
            -1, self.words)[order] for col in columns)
        return _Overlay(offsets, rows, masks)

    def _build_overlay_plan(self, entries: dict) -> _Overlay:
        """``entries`` (net -> (clear, set) words) as the flat
        ``(~clear, set)`` overlay."""
        nets = list(entries)
        return self._overlay(nets, [~entries[n][0] for n in nets],
                             [entries[n][1] for n in nets])

    def _bind(self) -> None:
        """Point the struct at the forced-net overlay and the bridge
        re-sweep, rebuilt after the faults they come from changed, at
        the memory tables and at the cycle's glitches."""
        self._bind_edge()
        self._bind_glitches()
        c = self._c
        if self._overlay_plan is None:
            self._overlay_plan = self._build_overlay_plan(self._forced)
            c.ooff, c.orows, c.onc, c.oset = self._overlay_plan.pointers
        if self._bridge_plan is None:
            c.nbridges = len(self._bridges)
            self._bridge_plan = self._build_bridge_plan() \
                if self._bridges else ()
            if self._bridges:
                table, masks, plan, setm = self._bridge_plan
                c.bridges, c.bmask, c.bset = (
                    a.ctypes.data for a in (table, masks, setm))
                c.boff, c.brows, c.bnc, c.bbase = plan.pointers

    def _build_bridge_plan(self) -> tuple:
        """The re-sweep's overlay: the forced nets plus every victim's
        bridged lanes cleared; one ``(aggressor row, victim row, mode,
        overlay entry)`` row and one lane mask per bridge in arming
        order (mode: the index in :data:`_BRIDGE_MODES`); and the copy
        of the overlay's set masks each evaluation folds into."""
        perm = self.compiled.perm
        zeros = np.zeros(self.words, dtype=_U64)
        claimed: dict[int, np.ndarray] = {}
        for _, vic, _, mask in self._bridges:
            claimed[vic] = claimed.get(vic, zeros) | mask
        entries = dict(self._forced)
        for vic, mask in claimed.items():
            clear, setm = entries.get(vic, (zeros, zeros))
            entries[vic] = (clear | mask, setm & ~mask)
        plan = self._build_overlay_plan(entries)
        entry = {row: e for e, row in enumerate(plan.rows.tolist())}
        table = np.array([(perm[agg], perm[vic], _BRIDGE_MODES.index(mode),
                           entry[perm[vic]])
                          for agg, vic, mode, _ in self._bridges],
                         dtype=np.int64)
        return (table, np.stack([br[3] for br in self._bridges]), plan,
                plan.masks[1].copy())

    def _bind_glitches(self) -> _Overlay | None:
        """Point the struct at the cycle's glitches (NULL: none), a flat
        ``(xor, scratch)`` table: the scratch keeps the unglitched source
        rows across a bridge re-sweep."""
        table = self._net_glitches.get(self.cycle)
        plan = self._glitch_plan = self._overlay(
            list(table), *[list(table.values())] * 2) if table else None
        c = self._c
        c.goff, c.grows, c.gmask, c.graw = (0, 0, 0, 0) if plan is None \
            else plan.pointers
        return plan

    def _bind_edge(self) -> None:
        """Point the struct at one ``memgroup`` table per stacked group,
        rebuilt after the memory faults changed.  A stuck table is
        ``(member, word, bit)`` rows in member order with ``(~clear,
        set)`` words.  Couplings are sorted stably by member, aggressor
        word and aggressor bit, ``(aggressor bit, victim word, victim
        bit)`` rows with mask words, indexed by ``(member, aggressor
        word)`` offsets."""
        if self._edge_plan is not None:
            return
        groups = self._mem_groups
        tables = (_MemTable * len(groups))(*(g.table for g in groups))
        arrays: list = []
        for table, group in zip(tables, groups):
            stuck = [(j, word, bit, ~clear, setm)
                     for j, mi in enumerate(group.members)
                     for (word, bit), (clear, setm)
                     in self._mem_stuck.get(mi, {}).items()]
            if stuck:
                cells, nc, setm = (
                    np.array([e[:3] for e in stuck], dtype=np.int64),
                    np.stack([e[3] for e in stuck]),
                    np.stack([e[4] for e in stuck]))
                arrays += (cells, nc, setm)
                table.nstuck = len(stuck)
                table.stuck, table.stuck_nc, table.stuck_set = (
                    cells.ctypes.data, nc.ctypes.data, setm.ctypes.data)
            couplings = sorted(
                ((j * table.depth + aw, ab, vw, vb, mask)
                 for j, mi in enumerate(group.members)
                 for (aw, ab), (vw, vb), mask
                 in self._mem_coupling.get(mi, ())),
                key=lambda e: e[:2])
            if couplings:
                offsets = np.zeros(table.members * table.depth + 1,
                                   dtype=np.int64)
                np.cumsum(np.bincount([e[0] for e in couplings],
                                      minlength=len(offsets) - 1),
                          out=offsets[1:])
                cells = np.array([e[1:4] for e in couplings],
                                 dtype=np.int64)
                masks = np.stack([e[4] for e in couplings])
                arrays += (offsets, cells, masks)
                table.coff, table.cpl, table.cmask = (
                    offsets.ctypes.data, cells.ctypes.data,
                    masks.ctypes.data)
        self._edge_plan = (tables, arrays)
        self._c.mem = ctypes.addressof(tables)

    def _begin_cycle_events(self) -> None:
        flips = self._flop_flips.get(self.cycle)
        if flips:
            for idx, mask in flips:
                self._flop_state[idx] ^= mask
        mflips = self._mem_flips.get(self.cycle)
        if mflips:
            for mi, word, bit, mask in mflips:
                self._mem_store[mi][word, :, bit] ^= mask

    # ------------------------------------------------------------------
    # toggle maps in net order (the campaign's toggle merge)
    # ------------------------------------------------------------------
    @property
    def _seen0(self) -> bytearray:
        return bytearray(self._t_seen0[self.compiled.perm].tobytes())

    @property
    def _seen1(self) -> bytearray:
        return bytearray(self._t_seen1[self.compiled.perm].tobytes())
