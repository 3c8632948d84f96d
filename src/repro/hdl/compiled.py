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
* :func:`decompile` — reconstruct an equivalent :class:`Circuit` from a
  compiled program.  The round-trip preserves ``structural_hash``.
* :class:`CompiledSimulator` — a drop-in replacement for the interpreted
  simulator (same public API, every fault overlay, bit-identical
  results).  Net values live in a ``(rows, W)`` ``uint64`` array where
  ``W = ceil(machines / 64)``; machine *k* is bit ``k % 64`` of word
  ``k // 64`` and machine 0 stays the golden reference, exactly like the
  interpreted big-int layout.

A cycle is two calls into one small C library (``_SWEEP_C``, bound
with :mod:`ctypes`), three in a campaign pass.  The level sweep runs
every level's gate groups, each followed by that level's forced-net
overlay and glitch XORs.  The clock edge commits the flops and steps
every memory: reads, writes, coupling flips and stuck cells, in the
interpreted simulator's own per-lane order for lanes whose address
diverges.  Between the two, a campaign pass
(:mod:`repro.faultinjection.compiled_pass`) calls ``observe``, which
compares every SENS/OBSE/DIAG probe with the golden lane.  The library
is compiled with the host's ``cc`` on the first
:class:`CompiledSimulator` of a process and cached under
``${XDG_CACHE_HOME:-~/.cache}/repro``, keyed on the SHA-256 of the
source, the compiler's version and the flags; without a working
compiler that first simulator raises :class:`CompileError` ``E121``.
The eval preamble, cycle-start flips, toggle collection and the bridge
arithmetic stay vectorized numpy.

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
)

_U64 = np.uint64
_WORD_BITS = 64

#: diagnostic code raised for combinational loops at compile time
LOOP_CODE = "E120"
#: diagnostic code raised when the C level sweep cannot be built
KERNEL_CODE = "E121"


class CompileError(DiagnosticError, NetlistError):
    """The circuit cannot be compiled (coded diagnostic, e.g. E120)."""

    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic)
        self.code = diagnostic.code


# ----------------------------------------------------------------------
# the C kernel: level sweep, clock edge and a pass's observation
# ----------------------------------------------------------------------
#: ``sweep``: one sweep of the program over the (rows, W) value array
#: ``v``: every level's gate groups, each level followed by its bucket
#: of the forced-net overlay ``(v & ~clear) | set`` and of the cycle's
#: glitch XORs (``goff`` is NULL on a cycle without glitches).  Bucket
#: 0 runs before level 0.  The inverting ops and BUF combine with the
#: all-machines words ``f`` (``NOT a = a ^ f``, ``BUF a = a & f``), so
#: padding lanes past the last machine keep the numpy sweep's bits.
#: Op numbers are ``netlist.OP_*``.
#:
#: ``clock_edge``: the flop commit in place, then every stacked memory
#: group in the interpreted simulator's order.  Per member, the lanes
#: whose address agrees with machine 0's read and write the golden word
#: word-parallel; every other lane runs the per-lane loop.  A write
#: goes bit by bit, each bit followed by the couplings whose aggressor
#: is that cell; stuck cells land after the writes, and patch the read
#: data only on a member where no lane diverged.  An address is the sum
#: of its set bits' weights ``2**a % depth``, reduced as it goes, so any
#: address width is exact.
#:
#: ``observe``: a campaign pass's monitors for one cycle over a table of
#: probe points, each a list of cells ``(address, lane stride, bits)``
#: into the value array, the flop state or a memory store; it returns
#: the points with lanes newly diverged from machine 0 (see
#: :mod:`repro.faultinjection.compiled_pass`).
_SWEEP_C = r"""
#include <stdint.h>
typedef uint64_t u64;
typedef int64_t i64;

#define UNARY(E) for (k = 0; k < n; k++, d += W) { \
        const u64 *a = v + in[k] * W; \
        for (w = 0; w < W; w++) d[w] = (E); } break;
#define BINARY(E) for (k = 0; k < n; k++, d += W) { \
        const u64 *a = v + in[k] * W, *b = v + in[n + k] * W; \
        for (w = 0; w < W; w++) d[w] = (E); } break;

static void overlay(u64 *v, i64 W, i64 lo, i64 hi, const i64 *rows,
                    const u64 *nc, const u64 *set)
{
    for (i64 e = lo; e < hi; e++) {
        u64 *d = v + rows[e] * W;
        for (i64 w = 0; w < W; w++)
            d[w] = (d[w] & nc[e * W + w]) | set[e * W + w];
    }
}

void sweep(u64 *v, i64 W, const u64 *f, i64 depth, const i64 *levels,
           const i64 *groups, const i64 *gather,
           const i64 *ooff, const i64 *orows, const u64 *onc,
           const u64 *oset,
           const i64 *goff, const i64 *grows, const u64 *gmask)
{
    i64 k, w;
    for (i64 lv = 0;; lv++) {
        overlay(v, W, ooff[lv], ooff[lv + 1], orows, onc, oset);
        if (goff)
            for (i64 e = goff[lv]; e < goff[lv + 1]; e++)
                for (w = 0; w < W; w++)
                    v[grows[e] * W + w] ^= gmask[e * W + w];
        if (lv == depth)
            return;
        for (i64 g = levels[lv]; g < levels[lv + 1]; g++) {
            const i64 *grp = groups + 4 * g, n = grp[1];
            const i64 *in = gather + grp[3];
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

/* One stacked memory group (_MemGroup, bound as _MemTable). */
typedef struct {
    i64 members, depth, width, abits;
    const i64 *addr_rows;           /* (G, A) */
    const i64 *weight;              /* (A,): 2**a % depth */
    const i64 *we_rows;             /* (G,) */
    const i64 *wdata_rows;          /* (G, width) */
    u64 *store;                     /* (G, depth, W, width) */
    u64 *rdata;                     /* (G, width, W) */
    i64 nstuck;
    const i64 *stuck;               /* (S, 3): member, word, bit */
    const u64 *stuck_nc, *stuck_set; /* (S, W): ~clear, set */
    const i64 *coff;                /* (G * depth + 1) or NULL */
    const i64 *cpl;                 /* (C, 3): agg bit, vic word, vic bit */
    const u64 *cmask;               /* (C, W) */
} memgroup;

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

void clock_edge(const u64 *v, i64 W, const u64 *f, i64 nflops,
                const i64 *flop_rows, const u64 *init, u64 *state,
                i64 ngroups, const memgroup *groups, u64 *scratch)
{
    const i64 *d = flop_rows, *en = d + nflops, *rst = en + nflops;
    for (i64 i = 0; i < nflops; i++) {
        const u64 *dv = v + d[i] * W, *ev = v + en[i] * W,
                  *rv = v + rst[i] * W, *iv = init + i * W;
        u64 *q = state + i * W;
        for (i64 w = 0; w < W; w++) {
            u64 nxt = (dv[w] & ev[w]) | (q[w] & ~ev[w]);
            q[w] = (iv[w] & rv[w]) | (nxt & ~rv[w]);
        }
    }
    u64 *mism = scratch, *uw = scratch + W;
    for (const memgroup *g = groups; g < groups + ngroups; g++) {
        const i64 width = g->width, stride = W * width;
        i64 s = 0;
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
            for (; s < g->nstuck && g->stuck[3 * s] == m; s++) {
                const i64 *st = g->stuck + 3 * s;
                const u64 *nc = g->stuck_nc + s * W,
                          *set = g->stuck_set + s * W;
                u64 *cell = g->store + (m * g->depth + st[1]) * stride
                    + st[2];
                for (i64 w = 0; w < W; w++)
                    cell[w * width] = (cell[w * width] & nc[w]) | set[w];
                if (!any && st[1] == a0)
                    for (i64 w = 0; w < W; w++)
                        rd[st[2] * W + w] =
                            (rd[st[2] * W + w] & nc[w]) | set[w];
            }
        }
    }
}

/* One cycle of a campaign pass's monitors.  Point p owns the cells
   off[p] to off[p + 1], rows (address, lane stride, bits): bit b of
   lane word w is the u64 at address + (w * stride + b) * 8.  Per lane
   word, the point's diff is the OR over its cells' bits of x ^ g,
   where g = -(the bit's lane-0 value), or of x & ~g on a DIAG point
   (diag_lo <= p < diag_hi).  Its lanes in f & ~seen[p] are ORed into
   seen[p] and written to fresh[p]; a point with none left is
   skipped.  Returns how many points got new lanes, listed in hit. */
i64 observe(i64 W, const u64 *f, i64 npoints, const i64 *off,
            const i64 *cells, i64 diag_lo, i64 diag_hi, u64 *seen,
            u64 *fresh, i64 *hit)
{
    i64 nhit = 0;
    for (i64 p = 0; p < npoints; p++) {
        u64 *sp = seen + p * W, *x = fresh + p * W, open = 0, any = 0;
        for (i64 w = 0; w < W; w++)
            open |= f[w] & ~sp[w];
        if (!open)
            continue;
        const int diag = p >= diag_lo && p < diag_hi;
        for (i64 w = 0; w < W; w++)
            x[w] = 0;
        for (const i64 *c = cells + 3 * off[p]; c < cells + 3 * off[p + 1];
             c += 3) {
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
            hit[nhit++] = p;
    }
    return nhit;
}
"""

_CC_FLAGS = ("-O2", "-shared", "-fPIC")
_PTR = ctypes.c_void_p
_I64 = ctypes.c_int64
_SWEEP_ARGTYPES = (_PTR, _I64, _PTR, _I64, _PTR, _PTR, _PTR,
                   _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR)
_EDGE_ARGTYPES = (_PTR, _I64, _PTR, _I64, _PTR, _PTR, _PTR, _I64, _PTR,
                  _PTR)
_OBSERVE_ARGTYPES = (_I64, _PTR, _I64, _PTR, _PTR, _I64, _I64, _PTR, _PTR,
                     _PTR)
#: the glitch arguments of a sweep on a cycle without glitches
_NO_GLITCHES = (None, None, None)


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
    lib.sweep.argtypes = _SWEEP_ARGTYPES
    lib.sweep.restype = None
    lib.clock_edge.argtypes = _EDGE_ARGTYPES
    lib.clock_edge.restype = None
    lib.observe.argtypes = _OBSERVE_ARGTYPES
    lib.observe.restype = _I64
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
            dtype=np.intp)]
        self.const1_rows = perm[np.array(
            [g.out for g in circuit.gates if g.op == OP_CONST1],
            dtype=np.intp)]

        flops = circuit.flops
        self.flop_q_rows = perm[np.array([f.q for f in flops],
                                         dtype=np.intp)]
        # the clock edge's (3, F) table: every flop's d row, then its
        # en row (the one row without en), then its rst row (the zero
        # row without rst)
        self.flop_rows = np.array(
            [[perm[f.d] for f in flops],
             [self.one_row if f.en is None else perm[f.en]
              for f in flops],
             [self.zero_row if f.rst is None else perm[f.rst]
              for f in flops]], dtype=np.int64).reshape(3, -1)
        self.flop_init = np.array([bool(f.init) for f in flops],
                                  dtype=bool)

        self.mem_addr_rows = [perm[np.array(m.addr, dtype=np.intp)]
                              for m in circuit.memories]
        self.mem_wdata_rows = [perm[np.array(m.wdata, dtype=np.intp)]
                               for m in circuit.memories]
        self.mem_we_rows = [int(perm[m.we]) for m in circuit.memories]
        self.mem_rdata_rows = [perm[np.array(m.rdata, dtype=np.intp)]
                               for m in circuit.memories]

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
class _MemTable(ctypes.Structure):
    """One stacked memory group as the C clock edge reads it
    (``memgroup`` in ``_SWEEP_C``)."""

    _fields_ = [*((name, _I64) for name in
                  ("members", "depth", "width", "abits")),
                *((name, _PTR) for name in
                  ("addr_rows", "weight", "we_rows", "wdata_rows",
                   "store", "rdata")),
                ("nstuck", _I64),
                *((name, _PTR) for name in
                  ("stuck", "stuck_nc", "stuck_set", "coff", "cpl",
                   "cmask"))]


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
        self.rdata_rows = np.concatenate([cc.mem_rdata_rows[mi]
                                          for mi in members])
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
                     dtype=np.int64).reshape(G, width))
        self.table = _MemTable(
            G, depth, width, abits,
            *(t.ctypes.data for t in self._tables),
            self.store.ctypes.data, self.rdata.ctypes.data)


class _Overlay(NamedTuple):
    """Rows per overlay bucket in one flat table.

    Bucket ``b`` (0 = before level 0, ``k + 1`` = right after level
    ``k``) owns entries ``offsets[b]:offsets[b + 1]`` of ``rows`` and
    of every ``(n, W)`` array of ``masks``: ``(~clear, set)`` for
    forced nets, applied as
    ``(v & ~clear) | set``, or ``(xor,)`` for a cycle's glitches.
    ``args`` holds the C sweep's arguments bound to these arrays; a
    forced-net plan's start with the simulator's leading arguments, so
    a sweep is ``sweep(*plan.args, *glitches.args)``.
    """

    offsets: np.ndarray
    rows: np.ndarray
    masks: tuple
    args: tuple


class _BridgePlan(NamedTuple):
    """The bridge re-sweep of one fault set, rebuilt when it changes.

    Bridges are sorted stably by victim row; ``eff`` is each bridge's
    mask minus the lanes a later bridge on the same victim claims, so
    one victim's bridged values OR-combine with a segmented
    ``reduceat`` over ``starts``.  A bridge's value is
    ``(a & (v | not_and)) | (v & or_sel)``: dominant -> a, AND -> a & v,
    OR -> a | v.  ``plan`` is the forced-net overlay with every
    victim's bridged lanes added to its clear mask; each cycle writes
    ``set_base | bridged[set_victim]`` into the ``set_pos`` entries of
    its set array, in place.
    """

    agg: np.ndarray
    vic: np.ndarray
    not_and: np.ndarray
    or_sel: np.ndarray
    eff: np.ndarray
    starts: np.ndarray
    plan: _Overlay
    set_pos: np.ndarray
    set_victim: np.ndarray
    set_base: np.ndarray


class _EdgePlan(NamedTuple):
    """The C clock edge's arguments for one memory-fault set.

    ``tables`` holds one ``memgroup`` per stacked group; ``arrays`` are
    the stuck-cell and coupling tables its pointers reach into.  A
    stuck table is ``(member, word, bit)`` rows in member order with
    ``(~clear, set)`` words.  Couplings are sorted stably by member,
    aggressor word and aggressor bit, ``(aggressor bit, victim word,
    victim bit)`` rows with mask words, indexed by ``(member,
    aggressor word)`` offsets.
    """

    args: tuple
    tables: ctypes.Array
    arrays: list


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
        #: a row's golden words by its lane-0 bit (row 0: none, row 1:
        #: every machine), gathered per cycle instead of broadcast
        self._golden_words = np.stack([np.zeros(W, dtype=_U64),
                                       self._full])

        self._vals = np.zeros((cc.num_rows, W), dtype=_U64)
        self._vals[cc.one_row] = self._full
        if len(cc.const1_rows):
            self._vals[cc.const1_rows] = self._full
        lib = _sweep_library()
        self._sweep = lib.sweep
        self._edge = lib.clock_edge
        #: the sweep's leading arguments, fixed for this simulator: the
        #: value array, the all-machines words and the program tables
        self._sweep_head = (
            self._vals.ctypes.data, W, self._full.ctypes.data, cc.depth,
            cc.level_groups.ctypes.data, cc.groups.ctypes.data,
            cc.gather.ctypes.data)

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

        #: per port: its rows, its byte count and its value mask
        self._input_rows = {
            name: (cc.perm[np.asarray(nets, dtype=np.intp)],
                   (len(nets) + 7) // 8, (1 << len(nets)) - 1)
            for name, nets in self.circuit.inputs.items()}
        # last-driven value per port: rows of an unchanged port are
        # only rewritten by eval-start overlays, which are idempotent,
        # so re-driving the same value can be skipped.  Glitches on
        # primary inputs XOR the rows in place and void that reasoning.
        self._input_last: dict[str, int] = {}
        self._input_nets = {net for nets in self.circuit.inputs.values()
                            for net in nets}
        self._input_cache_ok = True
        self._flop_index = {f.name: i
                            for i, f in enumerate(self.circuit.flops)}
        self._mem_index = {m.name: i for i, m
                           in enumerate(self.circuit.memories)}
        self._net_index: dict[str, int] | None = None

        # fault state: original net id -> (clear, set) word vectors
        self._forced: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._overlay_plan: _Overlay | None = None
        self._flop_flips: dict[int, list] = {}
        self._net_glitches: dict[int, dict[int, np.ndarray]] = {}
        self._mem_flips: dict[int, list] = {}
        #: (aggressor net, victim net, mode, mask words) in arming order
        self._bridges: list[tuple] = []
        self._bridge_plan: _BridgePlan | None = None
        self._mem_stuck: dict[int, dict[tuple[int, int], tuple]] = {}
        self._mem_coupling: dict[int, list[tuple]] = {}
        #: the clock edge's arguments, rebound when memory faults change
        self._edge_plan: _EdgePlan | None = None
        self._edge_scratch = np.zeros(2 * W, dtype=_U64)

        self.collect_toggles = collect_toggles
        n = cc.num_nets
        self._t_seen0 = np.zeros(n, dtype=bool)
        self._t_seen1 = np.zeros(n, dtype=bool)

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
        if net in self._input_nets:
            self._input_cache_ok = False
            self._input_last.clear()
        mask = self._pack(self._mask(machines))
        table = self._net_glitches.setdefault(cycle, {})
        prev = table.get(net)
        table[net] = mask if prev is None else (prev | mask)

    def add_bridge(self, aggressor, victim, mode: str = BRIDGE_DOMINANT,
                   machines=None) -> None:
        """Bridging fault: the victim net is corrupted by the aggressor."""
        victim = self._resolve_net(victim)
        if victim in self._input_nets:
            # the bridged value overwrites the input row in place
            self._input_cache_ok = False
            self._input_last.clear()
        self._bridges.append((self._resolve_net(aggressor), victim, mode,
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
        try:
            rows, nbytes, mask = self._input_rows[name]
        except KeyError:
            raise NetlistError(f"no input named {name!r}") from None
        if self._input_cache_ok:
            if self._input_last.get(name) == value:
                return
            self._input_last[name] = value
        bits = np.unpackbits(
            np.frombuffer((int(value) & mask).to_bytes(nbytes, "little"),
                          dtype=np.uint8),
            count=len(rows), bitorder="little")
        self._vals[rows] = self._golden_words.take(bits, 0)

    def set_input_lane(self, name: str, machine: int, value: int) \
            -> None:
        self._input_last.pop(name, None)
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

    def flop_state_mismatch(self, flops) -> int:
        idxs = np.asarray([self._resolve_flop(f) for f in flops],
                          dtype=np.intp)
        return self._unpack(self._diff_words(self._flop_state[idxs]))

    def mem_word_mismatch(self, mem, word: int) -> int:
        cells = self._mem_store[self._resolve_mem(mem)][word]
        golden = np.where((cells[0] & _U64(1)).astype(bool)[None, :],
                          self._full[:, None], _U64(0))
        diff = np.bitwise_or.reduce(cells ^ golden, axis=1) \
            & self._notone
        return self._unpack(diff)

    def mismatch_mask(self, nets) -> int:
        rows = self.compiled.perm[np.asarray(
            [self._resolve_net(n) for n in nets], dtype=np.intp)]
        return self._unpack(self._diff_words(self._vals[rows]))

    # ------------------------------------------------------------------
    # simulation
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
        return _Overlay(offsets, rows, masks,
                        (offsets.ctypes.data, rows.ctypes.data,
                         *(m.ctypes.data for m in masks)))

    def _build_overlay_plan(self, entries: dict) -> _Overlay:
        """``entries`` (net -> (clear, set) words) as the flat
        ``(~clear, set)`` overlay, its sweep arguments bound."""
        nets = list(entries)
        plan = self._overlay(nets, [~entries[n][0] for n in nets],
                             [entries[n][1] for n in nets])
        return plan._replace(args=self._sweep_head + plan.args)

    def _build_bridge_plan(self) -> _BridgePlan:
        perm = self.compiled.perm
        ones = ~_U64(0)
        zeros = np.zeros(self.words, dtype=_U64)
        bridges = sorted(self._bridges, key=lambda br: br[1])
        # where bridges on one victim overlap, the later one wins (the
        # interpreted fold overrides lane by lane): trim each mask by
        # the masks of the later ones
        eff: list = []
        claimed: dict[int, np.ndarray] = {}
        for _, vic, _, mask in reversed(bridges):
            prior = claimed.get(vic, zeros)
            eff.append(mask & ~prior)
            claimed[vic] = mask | prior
        eff.reverse()
        uniq, starts = np.unique([br[1] for br in bridges],
                                 return_index=True)
        order = {int(perm[vic]): k for k, vic in enumerate(uniq)}

        entries = dict(self._forced)
        for vic, mask in claimed.items():
            clear, setm = entries.get(vic, (zeros, zeros))
            entries[vic] = (clear | mask, setm & ~mask)
        plan = self._build_overlay_plan(entries)
        pos = np.flatnonzero(np.isin(plan.rows, list(order)))
        return _BridgePlan(
            agg=perm[np.asarray([br[0] for br in bridges], dtype=np.intp)],
            vic=perm[np.asarray([br[1] for br in bridges], dtype=np.intp)],
            not_and=np.asarray([0 if br[2] == BRIDGE_AND else ones
                                for br in bridges], dtype=_U64)[:, None],
            or_sel=np.asarray([ones if br[2] == BRIDGE_OR else 0
                               for br in bridges], dtype=_U64)[:, None],
            eff=np.stack(eff), starts=starts, plan=plan, set_pos=pos,
            set_victim=np.asarray([order[row] for row
                                   in plan.rows[pos].tolist()],
                                  dtype=np.intp),
            set_base=plan.masks[1][pos])

    def _glitch_buckets(self) -> _Overlay | None:
        """The cycle's net glitches as a flat ``(xor,)`` table."""
        table = self._net_glitches.get(self.cycle)
        if not table:
            return None
        nets = list(table)
        return self._overlay(nets, [table[n] for n in nets])

    def eval_comb(self) -> None:
        cc = self.compiled
        vals = self._vals
        if len(cc.flop_q_rows):
            vals[cc.flop_q_rows] = self._flop_state
        for group in self._mem_groups:
            vals[group.rdata_rows] = group.rdata
        # overlays may have clobbered constant rows last cycle
        if len(cc.const0_rows):
            vals[cc.const0_rows] = _U64(0)
        if len(cc.const1_rows):
            vals[cc.const1_rows] = self._full

        if self._overlay_plan is None:
            self._overlay_plan = self._build_overlay_plan(self._forced)
        glitches = self._glitch_buckets()
        if self._bridges:
            self._eval_bridged(glitches)
            return
        self._run_levels(self._overlay_plan, glitches)
        if self.collect_toggles:
            self._collect_toggles()

    def _run_levels(self, plan: _Overlay,
                    glitches: _Overlay | None) -> None:
        """One sweep of the program, applying ``plan`` (the bucketed
        forced nets) and the cycle's glitches after each level: one
        call into the C sweep."""
        self._sweep(*plan.args, *(_NO_GLITCHES if glitches is None
                                  else glitches.args))

    def _eval_bridged(self, glitches: _Overlay | None) -> None:
        """The interpreted bridge semantics: a first sweep, then a
        re-sweep with every victim forced to its bridged value (read
        from the first sweep, so bridges never chain)."""
        vals = self._vals
        source_rows = glitches.rows[:glitches.offsets[1]] \
            if glitches is not None else None
        raw = vals[source_rows] if source_rows is not None else None
        self._run_levels(self._overlay_plan, glitches)
        if self.collect_toggles:
            self._collect_toggles()

        if self._bridge_plan is None:
            self._bridge_plan = self._build_bridge_plan()
        bp = self._bridge_plan
        a = vals[bp.agg]
        v = vals[bp.vic]
        bridged = ((a & (v | bp.not_and)) | (v & bp.or_sel)) & bp.eff
        per_victim = np.bitwise_or.reduceat(bridged, bp.starts, axis=0)
        # in place: the re-sweep's bound arguments point at this array
        bp.plan.masks[1][bp.set_pos] = bp.set_base \
            | per_victim[bp.set_victim]
        # the re-sweep restarts from the unglitched sources, so every
        # glitch is applied exactly once per evaluation
        if raw is not None:
            vals[source_rows] = raw
        self._run_levels(bp.plan, glitches)
        if self.collect_toggles:
            self._collect_toggles()

    def _collect_toggles(self) -> None:
        nets = self._vals[:self.compiled.num_nets]
        self._t_seen1 |= nets.any(axis=1)
        self._t_seen0 |= (nets != self._full).any(axis=1)

    def clock_edge(self) -> None:
        """The flop commit and every memory's step: one C call."""
        if self._edge_plan is None:
            self._edge_plan = self._bind_edge()
        self._edge(*self._edge_plan.args)
        self.cycle += 1

    def _bind_edge(self) -> _EdgePlan:
        """The clock edge's arguments, with every group's stuck-cell
        and coupling tables built from the armed memory faults."""
        cc = self.compiled
        W = self.words
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
        args = (self._vals.ctypes.data, W, self._full.ctypes.data,
                len(self._flop_state), cc.flop_rows.ctypes.data,
                self._flop_init_words.ctypes.data,
                self._flop_state.ctypes.data, len(tables),
                ctypes.addressof(tables), self._edge_scratch.ctypes.data)
        return _EdgePlan(args, tables, arrays)

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
        return bytearray(
            self._t_seen0[self.compiled.perm[:self.compiled.num_nets]]
            .astype(np.uint8).tobytes())

    @property
    def _seen1(self) -> bytearray:
        return bytearray(
            self._t_seen1[self.compiled.perm[:self.compiled.num_nets]]
            .astype(np.uint8).tobytes())
