"""Histogram mutual information and the delay-scanned MI curve.

The estimator bins each trace into equal-width bins over its own [min, max]
range, forms the joint 2-D histogram, and evaluates

    I = sum P(i,j) log2( P(i,j) / (P(i) P(j)) )

with marginals taken from the joint histogram, which guarantees I >= 0 and
finiteness (0 log 0 = 0).  ``mi_delay_scan`` is the hot path: each trace is
binned once, straight into the histogram's cell type (the narrowest unsigned
type that holds a flat cell index), and one joint histogram is updated
exactly as b's window slides one sample at a time, or rebuilt densely at a
shift where that update would cost more than a rebuild.  Each sample where
b's bin index changes moves one count, nearly always to the next bin up or
down, so a slide's moves are tallied in one ``bincount`` keyed by leaving
cell and direction, with the rare farther jumps from a side table.  Each
shift's MI comes from the identity I = H(A) + H(B) - H(A,B) in counts,

    I = log2 N + (sum g(cell) - sum g(row) - sum g(column)) / N,

with g(x) = x log2 x read from one table indexed by the exact counts, so a
shift takes no logarithm; a's row marginal never changes during a scan.
The curve matches ``mi_from_hist``, the exact reference, to 1e-12 bits.  A
scan with enough work cuts its shifts into contiguous blocks, one per usable
core: the first runs in the calling process and each other one in a worker
forked from it, which inherits the binned records and sends back only its
MI values.  Counts are exact integers however a block reaches them, and
each MI value is a fixed function of its counts, so the curve does not
depend on the block count.  ``scan_window`` is the one rule for a scan's
grid and a's window; ``run_pipeline`` and ``analyze`` ask it first, with the
guards their records will carry.

Scan conventions:

* shifts are restricted to integer sample counts (0.5 ns at 2 GS/s is one
  sample), so histograms never interpolate;
* positive delay means arm ``a`` retarded relative to arm ``b``;
* bin edges come from each trace's guard-stripped record as a whole, not per
  overlap window, so MI values are comparable across shifts;
* arm ``a`` contributes a fixed central window while ``b`` slides, which
  makes the curve exactly shift-equivariant: delaying ``b`` by k samples
  translates the curve by k grid points.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import signal
import warnings
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DataError, FitError, InvalidParams, RecordTooShort
from .trace import DigitizerSpec, MICurve, Trace, TracePair

__all__ = [
    "JointHistogram",
    "histogram2d",
    "mi_from_hist",
    "mi_delay_scan",
    "scan_window",
    "average_curves",
    "normalize_curve",
    "fwhm",
    "miller_madow_correction",
    "usable_cores",
]


# Scan defaults: one sample per step at 2 GS/s, +/-300 ns, 100 bins per axis.
DELAY_STEP: float = 0.5e-9
DELAY_RANGE: float = 300e-9
N_BINS: int = 100
# Least samples per bin in a scan's window.
MIN_SAMPLES_PER_BIN = 16


@dataclass(frozen=True)
class JointHistogram:
    """2-D histogram of paired samples with its bin edges."""

    counts: np.ndarray
    edges_a: np.ndarray
    edges_b: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.ndim != 2:
            raise InvalidParams("counts must be 2-d")
        if np.any(counts < 0):
            raise InvalidParams("counts must be nonnegative")
        if len(self.edges_a) != counts.shape[0] + 1 or len(self.edges_b) != counts.shape[1] + 1:
            raise InvalidParams("edges must have one more entry than bins")
        object.__setattr__(self, "counts", np.ascontiguousarray(counts, dtype=np.int64))

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def _as_samples(x: Union[Trace, np.ndarray]) -> np.ndarray:
    if isinstance(x, Trace):
        return x.valid()
    return np.asarray(x, dtype=np.float64)


# Samples binned per step of _bin_indices: the float temporary stays in
# cache instead of streaming two record-sized temporaries through memory.
_BIN_BLOCK = 1 << 16


def _bin_indices(v: np.ndarray, n_bins: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Equal-width bin index of every sample over the array's own range.

    Returns the indices, of ``dtype`` (the joint histogram's cell type, which
    holds any flat cell index), and the n_bins + 1 bin edges.  The top edge closes the
    last bin, so every finite sample lands in exactly one of the n_bins cells.
    """
    lo = float(v.min())
    hi = float(v.max())
    if not hi > lo:
        raise DataError("trace has zero dynamic range; cannot bin")
    scale = n_bins / (hi - lo)
    idx = np.empty(len(v), dtype=dtype)
    buf = np.empty(min(len(v), _BIN_BLOCK))
    for start in range(0, len(v), _BIN_BLOCK):
        out = idx[start : start + _BIN_BLOCK]
        t = np.subtract(v[start : start + _BIN_BLOCK], lo, out=buf[: len(out)])
        np.multiply(t, scale, out=out, casting="unsafe")  # truncates like astype
        np.minimum(out, n_bins - 1, out=out)   # t >= 0, so only the top edge
    return idx, np.linspace(lo, hi, n_bins + 1)


def histogram2d(a, b, n_bins_a: int = N_BINS, n_bins_b: int = N_BINS) -> JointHistogram:
    """Joint histogram of two aligned records.

    Bin ranges span [min, max] of each record independently; every sample
    pair lands in exactly one cell.
    """
    if n_bins_a < 2 or n_bins_b < 2:
        raise InvalidParams("need at least 2 bins per axis")
    va, vb = _as_samples(a), _as_samples(b)
    if len(va) != len(vb):
        raise InvalidParams(f"records differ in length: {len(va)} vs {len(vb)}")
    if len(va) == 0:
        raise DataError("no samples to histogram")
    cell = np.min_scalar_type(n_bins_a * n_bins_b - 1)
    ia, edges_a = _bin_indices(va, n_bins_a, cell)
    ib, edges_b = _bin_indices(vb, n_bins_b, cell)
    ia *= n_bins_b
    ia += ib
    flat = np.bincount(ia, minlength=n_bins_a * n_bins_b)
    return JointHistogram(counts=flat.reshape(n_bins_a, n_bins_b),
                          edges_a=edges_a, edges_b=edges_b)


# Largest total whose square fits in int64: every product mi_from_hist
# forms is at most total**2 (about 3.04e9 samples).
_INT64_EXACT_TOTAL = math.isqrt(np.iinfo(np.int64).max)


def mi_from_hist(h: JointHistogram) -> float:
    """Mutual information in bits from a joint histogram.

    Marginals are derived from the joint, zero cells contribute zero, and the
    per-cell count ratios are formed in exact integer arithmetic so an exactly
    factorizable histogram yields exactly 0.0.  Terms are accumulated with
    math.fsum, making the result independent of cell order (hence exactly
    symmetric under transposition and bin permutations).
    """
    counts = h.counts
    total = h.total
    if total <= 0:
        raise DataError("histogram holds no samples")
    row = counts.sum(axis=1)
    col = counts.sum(axis=0)
    ii, jj = np.nonzero(counts)
    c = counts[ii, jj]
    if total > _INT64_EXACT_TOTAL:
        # past int64, form the products as Python integers: exact at any size
        c, row, col = c.astype(object), row.astype(object), col.astype(object)
    num = (c * total).astype(np.float64)
    den = (row[ii] * col[jj]).astype(np.float64)
    terms = (c / total) * (np.log2(num) - np.log2(den))
    return max(0.0, math.fsum(terms))


def miller_madow_correction(h: JointHistogram) -> float:
    """Miller-Madow bias estimate in bits (subtract from the naive MI).

    (K_joint - K_a - K_b + 1) / (2 N ln 2) with K the occupied-cell counts;
    for independent inputs this approximates the naive estimator's bias floor.
    """
    total = h.total
    if total <= 0:
        raise DataError("histogram holds no samples")
    k_joint = int(np.count_nonzero(h.counts))
    k_a = int(np.count_nonzero(h.counts.sum(axis=1)))
    k_b = int(np.count_nonzero(h.counts.sum(axis=0)))
    return (k_joint - k_a - k_b + 1) / (2.0 * total * math.log(2.0))


# ---------------------------------------------------------------------------
# delay scan kernel
# ---------------------------------------------------------------------------

def _scan_kernel(ia, ib, b_starts, n_win, m):
    """MI per shift from one joint histogram, updated exactly or rebuilt.

    Shift ``s`` pairs ``ia[i]`` (a's fixed window) with
    ``ib[b_starts[s] + i]`` for ``i < n_win``; ``b_starts`` must be
    non-increasing.  Both index arrays hold the cell type of ``m`` x ``m``
    cells: less memory traffic than a wider type makes a walk step about a
    third faster and a rebuild a fifth.  Returns MI in bits per shift.

    Moving b's window start from ``b`` to ``b - 1`` re-pairs a sample of a
    with a different bin only where b's bin index changes, i.e. at the
    breakpoints ``j in [b, b + n_win)`` with ``ib[j] != ib[j - 1]``: each
    moves one count from cell ``(ia[j - b], ib[j])`` to
    ``(ia[j - b], ib[j - 1])``.  On a band-passed record b's bin moves by
    one at every breakpoint (all 312 821 of seed 7's paper-size arm), so
    each breakpoint is coded once by its leaving cell and block: up one
    bin, down one bin, or farther (``_walk_tables``).  A step gathers a's
    rows at its breakpoints, through a zero-padded view of ``ia * m`` that
    needs no index arithmetic, and makes one ``bincount`` of row plus
    code: it subtracts all three blocks and adds block 0 one cell up and
    block 1 one cell down; a farther jump's entering cell comes from a side
    table, in one more ``bincount`` only on a step whose window holds one.

    Before each shift the kernel counts the breakpoints the steps to it
    would walk and rebuilds the histogram densely instead when they exceed
    0.4 ``n_win``.  That rule, and the work count below, price a walked
    breakpoint at 2.5 rebuilt samples; on 4e6-sample records (2-core VM)
    it costs about 1.5 (1.4 ms a step at 286 000 breakpoints against 12 ms
    a rebuild), so a step walks only where it wins by a wide margin.
    ``_BLOCK_WORK`` is calibrated in the same units: re-pricing one means
    re-deriving the other.  Long bin runs (band-passed traces) at small
    steps walk; white noise or coarse steps rebuild at every shift and
    build no walk table.

    Each shift's MI is log2 N + (sum g(cell) - sum g(row) - sum g(col)) / N
    over the ``n_win`` = N pairs, with g(x) = x log2 x gathered from a table
    (``_xlog2x``) that each block builds at its first rebuild: a cell never
    exceeds its row count, and a column gains at most one count per sample
    that b's window slides, so max(row max, first column max + the block's
    slide) + 1 entries cover every count the block meets (about 1 MB at
    4e6 samples).  The sum over a's fixed rows is formed once per block.  A
    shift then costs a column sum and two gathers of ``m * m`` and ``m``
    entries: no logarithm and no scan for nonzero cells.  The values match
    ``mi_from_hist`` to 1e-12 bits, not bit for bit.

    The shifts are cut into contiguous blocks, one per usable core but no
    more than the scan's work pays for (``_blocks``).  Each block starts
    with a dense rebuild and then walks or rebuilds as above; the first runs
    in this process and the others in forked workers (``_run_blocks``).
    Counts stay exact integers at every shift, walked or rebuilt, and each
    MI value is a fixed function of its counts, so the curve is the same bit
    for bit whatever the block count.
    """
    mm = m * m
    # a's rows behind a pad as long as the latest start, so that
    # ia_pad[pad - start + j] is the row paired with ib[j] at that start
    pad = int(b_starts[0])
    ia_pad = np.zeros(pad + n_win, dtype=ia.dtype)
    ia_m = ia_pad[pad:]
    np.multiply(ia, m, out=ia_m)
    bp = np.flatnonzero(ib[1:] != ib[:-1]) + 1
    # breakpoints in the window at every start the scan steps from
    b_last = int(b_starts[-1])
    starts = np.arange(b_last + 1, pad + 1)
    k0 = np.searchsorted(bp, starts)
    k1 = np.searchsorted(bp, starts + n_win)
    walked = np.concatenate(([0], np.cumsum(k1 - k0)))
    steps = walked[b_starts[:-1] - b_last] - walked[b_starts[1:] - b_last]
    walks = np.concatenate(([False], steps <= 0.4 * n_win))
    if walks.any():
        code, fpos, fenter = _walk_tables(ib, bp, mm)
        f0 = np.searchsorted(fpos, starts)
        f1 = np.searchsorted(fpos, starts + n_win)
    log2_n = math.log2(n_win)

    def block(lo, hi):
        out = np.empty(hi - lo, dtype=np.float64)
        for s in range(lo, hi):
            b = int(b_starts[s])
            if s == lo or not walks[s]:
                flat = np.bincount(ia_m + ib[b : b + n_win], minlength=mm)
            else:
                for i in range(int(b_starts[s - 1]) - b_last - 1, b - b_last - 1, -1):
                    rows_at = ia_pad[pad - int(starts[i]):]   # a's row paired with ib[j]
                    j0, j1 = k0[i], k1[i]
                    moved = rows_at[bp[j0:j1]] + code[j0:j1]
                    cnt = np.bincount(moved, minlength=3 * mm)
                    flat -= cnt.reshape(3, mm).sum(axis=0)
                    flat[1:] += cnt[: mm - 1]           # up one bin
                    flat[:-1] += cnt[mm + 1 : 2 * mm]   # down one bin
                    if f1[i] > f0[i]:
                        entered = rows_at[fpos[f0[i] : f1[i]]]
                        entered += fenter[f0[i] : f1[i]]
                        flat += np.bincount(entered, minlength=mm)
            counts = flat.reshape(m, m)
            col = counts.sum(axis=0)
            if s == lo:
                # a cell never exceeds its row, a column gains at most one
                # count per sample b's window slides in this block
                row = counts.sum(axis=1)
                slide = int(b_starts[lo] - b_starts[hi - 1])
                g = _xlog2x(max(int(row.max()), int(col.max()) + slide) + 1)
                g_row = g[row].sum()
            g_sum = float(g[flat].sum() - g_row - g[col].sum())
            out[s - lo] = max(0.0, log2_n + g_sum / n_win)
        return out

    # samples the scan touches: n_win per rebuild, 2.5 per walked breakpoint
    # (the rule's price above), and m * m cells per shift for its MI
    work = n_win + np.minimum(2.5 * steps, n_win).sum() + len(b_starts) * mm
    return _run_blocks(block, _blocks(len(b_starts), work))


def _xlog2x(size: int) -> np.ndarray:
    """``x * log2(x)`` at the counts 0 to ``size - 1``, with 0 log 0 = 0."""
    x = np.arange(size, dtype=np.float64)
    g = np.zeros(size)
    np.multiply(x[1:], np.log2(x[1:]), out=g[1:])
    return g


def _walk_tables(ib, bp, mm):
    """Walk codes of b's breakpoints ``bp``, and the farther jumps' side table.

    A breakpoint ``j`` leaves cell ``ib[j]`` of its row for ``ib[j - 1]``.
    Its code, in the narrowest type that holds ``3 * mm - 1``, is that
    leaving cell plus ``mm`` times its block: 0 for a move up one bin, 1 for
    a move down one bin, 2 for any farther jump.  The farther jumps'
    positions and entering cells are returned apart, since their move is
    not a fixed offset.
    """
    leave, enter = ib[bp], ib[bp - 1]
    code = leave.astype(np.min_scalar_type(3 * mm - 1))
    down = leave == enter + 1
    far = (enter != leave + 1) & ~down
    code[down] += mm
    code[far] += 2 * mm
    return code, bp[far], enter[far]


# Scan work, in samples and cells as _scan_kernel counts them, that each
# block must carry for its forked worker to pay.  Forking and reaping a
# worker, with the copy-on-write faults both processes then take on the
# scan's record-sized temporaries, cost 10-50 ms on 2^16- to 2^20-sample
# windows and up to 0.26 s on 4e6-sample ones (2-core VM); 1e8 samples of
# work take about 0.45 s, so a split pays even there.
_BLOCK_WORK = 100_000_000


def usable_cores() -> int:
    """Cores this process may run on; 1, so every stage runs serially, without
    ``os.fork`` or ``os.sched_getaffinity``.

    The one count of the package's parallel stages: the scan's forked shift
    blocks here and ``source``'s noise draws on threads.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _blocks(n_shifts: int, work: float) -> list[int]:
    """Bounds of contiguous shift blocks, as near equal in size as they go.

    One block per usable core, but no more than there are shifts or than
    ``work`` holds ``_BLOCK_WORK``.
    """
    k = max(1, min(usable_cores(), n_shifts, int(work // _BLOCK_WORK)))
    return [n_shifts * i // k for i in range(k + 1)]


def _run_blocks(block, bounds: list[int]) -> np.ndarray:
    """``block(lo, hi)`` over consecutive ``bounds``, concatenated in order.

    The first block runs in this process, each other one in a worker forked
    from it, which inherits every array the block reads and sends back only
    its float64 values through a pipe.  Every worker is reaped before this
    returns, so its CPU time counts in RUSAGE_CHILDREN; a worker's error is
    raised here with its type and message, and an error or interrupt in this
    process kills and reaps the workers still running.
    """
    if len(bounds) == 2:
        return block(bounds[0], bounds[1])
    workers = {}   # pid -> read end of its pipe, in shift order
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            pid, pipe = _fork_block(block, lo, hi)
            workers[pid] = pipe
        parts = [block(bounds[0], bounds[1])]
        for pid, pipe in list(workers.items()):
            with pipe:
                payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del workers[pid]
            parts.append(_block_result(pid, payload, status))
    finally:
        for pid, pipe in workers.items():   # only after an error or interrupt
            pipe.close()
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
    return np.concatenate(parts)


def _fork_block(block, lo: int, hi: int):
    """Fork a worker that computes ``block(lo, hi)``; returns its pid and pipe.

    The worker only reads arrays it inherited and writes to its pipe: a zero
    byte and its float64 values, or a one byte and the pickled (type,
    message) of what it raised.  It leaves through ``os._exit``, so no atexit
    handler, buffered output or test hook of this process runs in it.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(r)
            try:
                payload = b"\0" + block(lo, hi).tobytes()
            except BaseException as exc:   # reported to the parent, which raises it
                payload = b"\1" + pickle.dumps((type(exc), str(exc)))
            with open(w, "wb") as pipe:
                pipe.write(payload)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, open(r, "rb")


def _block_result(pid: int, payload: bytes, status: int) -> np.ndarray:
    """A worker's values, or its error raised again here."""
    if payload[:1] == b"\0" and status == 0:
        return np.frombuffer(payload, dtype=np.float64, offset=1)
    if payload[:1] == b"\1":
        exc_type, message = pickle.loads(payload[1:])
        raise exc_type(message)
    raise ChildProcessError(f"scan worker {pid} ended with exit code "
                            f"{os.waitstatus_to_exitcode(status)} and no result")


def scan_window(spec: DigitizerSpec, step: float, range_: float, n_bins: int,
                guard_a: int, guard_b: int) -> tuple[slice, np.ndarray]:
    """A's window and the shifts, in samples, of a scan over records of ``spec``.

    A's window is the fixed part of its record that keeps a's guard, and b's
    guard at every shift, outside the histogram: it leaves
    max(guard_a, guard_b + largest shift) samples on each side and must hold
    ``MIN_SAMPLES_PER_BIN`` samples per bin.  Raises InvalidParams unless
    there are at least 2 bins, the step and range are finite, the step is a
    whole number of sample periods and the range covers at least one step and
    at most a quarter of the record, and RecordTooShort, naming the shortest
    record that passes, if the window is too short.
    """
    if n_bins < 2:
        raise InvalidParams(f"n_bins must be >= 2, got {n_bins}")
    for name, value in (("step", step), ("range", range_)):
        if not math.isfinite(value):
            raise InvalidParams(f"delay {name} must be finite, got {value:g} s")
    ratio = step * spec.sample_rate
    step_samples = int(round(ratio))
    if step_samples < 1 or abs(ratio - step_samples) > 1e-6:
        raise InvalidParams(
            f"step {step:g} s is not an integer multiple of the sample period "
            f"{1.0 / spec.sample_rate:g} s"
        )
    n_steps = int(np.floor(range_ / step + 1e-9))
    if n_steps < 1:
        raise InvalidParams("delay range must cover at least one step")
    if range_ > 0.25 * spec.duration:
        raise InvalidParams("delay range must be small compared with the trace duration")
    shifts = np.arange(-n_steps, n_steps + 1, dtype=np.int64) * step_samples
    margin = max(guard_a, guard_b + int(shifts[-1]))
    least = 2 * margin + MIN_SAMPLES_PER_BIN * n_bins
    if spec.n_samples < least:
        raise RecordTooShort(
            f"a record of {spec.n_samples} samples is too short: the guards, "
            f"delay range and bins need at least {least}", least)
    return slice(margin, spec.n_samples - margin), shifts


def mi_delay_scan(
    pair: TracePair,
    step: float = DELAY_STEP,
    range_: float = DELAY_RANGE,
    n_bins: int = N_BINS,
) -> MICurve:
    """MI versus relative delay over [-range_, +range_].

    Each shift is a histogram of a's window (``scan_window``) against b's
    record shifted by the delay.  Both guard-stripped records are binned
    once, straight into the kernel's cell type; one histogram is updated
    exactly from shift to shift where that is cheaper than a rebuild, and
    rebuilt densely elsewhere, and each shift's MI is evaluated from a table
    of c log2 c (``_scan_kernel``), within 1e-12 bits of ``mi_from_hist``.
    A scan whose work pays for it splits its shifts across the usable cores
    in forked workers, all reaped before it returns, with the same curve bit
    for bit.
    """
    a, b = pair.a, pair.b
    window, shifts = scan_window(a.spec, step, range_, n_bins, a.guard, b.guard)
    cell = np.min_scalar_type(n_bins * n_bins - 1)
    ia, _ = _bin_indices(a.valid(), n_bins, cell)
    ib, _ = _bin_indices(b.valid(), n_bins, cell)
    # positive delay d: a retarded, so pair a[i] with b[i - d].
    b_starts = (window.start - b.guard) - shifts
    mi = _scan_kernel(ia[window.start - a.guard : window.stop - a.guard], ib, b_starts,
                      window.stop - window.start, n_bins)
    return MICurve(delays=shifts / a.spec.sample_rate, mi=mi)


def average_curves(curves: Sequence[MICurve]) -> MICurve:
    """Pointwise mean and one-standard-deviation spread over repeats."""
    if not curves:
        raise InvalidParams("need at least one curve")
    ref = curves[0]
    for c in curves[1:]:
        if len(c.delays) != len(ref.delays) or not np.array_equal(c.delays, ref.delays):
            raise DataError("curves are on different delay grids")
    stack = np.vstack([c.mi for c in curves])
    mean = stack.mean(axis=0)
    if len(curves) > 1:
        spread = stack.std(axis=0, ddof=1)
    else:
        spread = np.zeros_like(mean)
    return MICurve(
        delays=ref.delays.copy(),
        mi=mean,
        spread=spread,
        n_repeats=len(curves),
    )


def normalize_curve(curve: MICurve, reference_peak: float) -> MICurve:
    """Divide MI and spread by a reference peak height."""
    if not reference_peak > 0:
        raise FitError(f"reference peak must be > 0, got {reference_peak}")
    return MICurve(
        delays=curve.delays.copy(),
        mi=curve.mi / reference_peak,
        spread=curve.spread / reference_peak,
        n_repeats=curve.n_repeats,
    )


def fwhm(curve: MICurve) -> float:
    """Full width at half maximum of a delay curve, in seconds.

    The half level is half the grid maximum; crossings are located by linear
    interpolation between adjacent grid points.  If the curve crosses the
    half level more than twice (side structure), the outermost pair is used
    and a warning is emitted.
    """
    return _half_level_width(curve.delays, curve.mi, 0.5 * curve.mi[_interior_peak(curve.mi)])


def _interior_peak(m: np.ndarray) -> int:
    """Index of the maximum of ``m``, refused on the delay-range edge."""
    i = int(np.argmax(m))
    if i == 0 or i == len(m) - 1:
        raise FitError("curve maximum lies on the delay-range edge")
    return i


def _half_level_width(d: np.ndarray, m: np.ndarray, half: float) -> float:
    """Width between the outermost crossings of the level ``half``, as ``fwhm``.

    ``fit_channel`` passes its own level; the warning names the line that
    called ``fwhm`` or ``fit_channel``.
    """
    above = m >= half
    if above[0] or above[-1]:
        raise FitError("half level is not crossed inside the delay range")
    n_crossings = int(np.count_nonzero(np.diff(above.astype(np.int8)) != 0))
    if n_crossings > 2:
        warnings.warn(
            f"curve crosses its half level {n_crossings} times; "
            "using the outermost pair",
            stacklevel=3,
        )
    idx = np.nonzero(above)[0]
    lo, hi = int(idx[0]), int(idx[-1])
    x1 = d[lo - 1] + (half - m[lo - 1]) / (m[lo] - m[lo - 1]) * (d[lo] - d[lo - 1])
    x2 = d[hi] + (half - m[hi]) / (m[hi + 1] - m[hi]) * (d[hi + 1] - d[hi])
    return float(x2 - x1)
