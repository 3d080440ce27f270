"""Histogram mutual information and the delay-scanned MI curve.

The estimator bins each trace into equal-width bins over its own [min, max]
range, forms the joint 2-D histogram, and evaluates

    I = sum P(i,j) log2( P(i,j) / (P(i) P(j)) )

with marginals taken from the joint histogram, which guarantees I >= 0 and
finiteness (0 log 0 = 0).  ``mi_delay_scan`` is the hot path: each trace is
binned once, straight into the histogram's cell type (the narrowest unsigned
type that holds a flat cell index), and one joint histogram is updated
exactly as b's window slides one sample at a time, or rebuilt at every shift
where that update would cost more.  With every bin move split into unit
steps of one bin, a slide moves one count at each of b's unit steps in the
window, and those moves change from one start to the next only where a unit
step of b coincides with one of a's: the update counts the coincidences of a
tile of consecutive starts in one ``bincount`` and recovers the histogram at
each start by two running sums.  Each shift's MI comes from the identity
I = H(A) + H(B) - H(A,B) in counts,

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

def _scan_kernel(ia_m, ib, b_starts, n_win, m):
    """MI per shift from one joint histogram, updated exactly or rebuilt.

    Shift ``s`` pairs a's fixed window, whose bin indices come multiplied by
    ``m`` (each row's first cell) as ``ia_m``, with ``ib[b_starts[s] + i]``
    for ``i < n_win``; ``b_starts`` must fall in even steps.  Both index
    arrays hold the cell type of ``m`` x ``m`` cells: less memory traffic
    than a wider type.  Returns MI in bits per shift.

    The scan either rebuilds the histogram at every shift or walks every
    start from the first to the last in tiles, by a second-order update.
    Each bin move of a and of b is split into unit steps of one bin at the
    same sample (``_unit_breaks``), so a far jump needs nothing of its own.
    Moving b's window start from ``b`` to ``b - 1`` moves one count at each
    of b's unit steps in the window, between the step's two bins, in the row
    of a paired with it: that first-order move D is the histogram at
    ``b - 1`` less the one at ``b``.  From one start to the next D changes
    only where a step of b enters or leaves the window, and where the row
    paired with one of b's unit steps changes, i.e. where it coincides with
    one of a's (``_coincidences``): each coincidence adds +-1 at the
    corners of a 2 x 2 stencil of two rows and two bins.

    A tile of T consecutive starts lists its coincidences with two gathers
    of ``cb`` (the count of b's unit steps before each sample) at a's unit
    steps, shifted by the tile's first and last start, and one ragged
    expansion; it counts them in one ``bincount`` keyed by start, sign and
    corner over (T + 1) x 3 x m * m cells.  The stencil makes each start's
    change of D, the steps entering or leaving the window are added apart,
    and two running sums, as row adds, give D and then the histogram at
    every start (``np.cumsum(axis=0)`` took 2.95 ms on a (64, 10 000) int64
    tile against 0.51 ms for row adds).  MI is evaluated at the grid's
    starts only, so a step of several samples walks the starts between.  T
    is as large as ``_TILE_CELLS`` and ``_TILE_MET`` allow (33 at 100
    bins on paper-size records).  On seed 7's paper-size arms (299 000 and
    313 000 unit steps, 32.5 M coincidences over 1201 shifts) a tiled scan
    took 0.73-0.9 s on one core against 1.7-1.95 s for the first-order walk
    it replaced, with the same curve bit for bit (2-core VM).

    Tiles or rebuilds are chosen once per scan, by price in rebuilt
    samples: ``n_win`` a shift for the rebuilds; for the tiles
    ``_COINCIDENCE_PRICE`` per coincidence and per unit step of a in each
    tile, and ``_CELL_PRICE`` per cell at each walked start.  The
    coincidences are counted exactly, and only until they alone would cost
    more than the rebuilds, so on white noise, whose unit steps are dense,
    the count stops after one chunk and the scan builds no unit steps and
    no ``cb``.  ``_BLOCK_WORK`` is priced in the same units: re-pricing one
    means re-deriving the other.  Every rebuild counts ``max(_BIN_BLOCK,
    m * m)`` samples at a time, so it makes no record-sized temporary: at a
    tiled block's start the tables and a dense rebuild's 40 MB never stack,
    and on unfiltered 2^20-sample scans, which rebuild at every shift, a
    chunked scan was faster than a dense one (about 2.5 s against 3.1 s for
    1201 shifts on one core).

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
    with a rebuild and then tiles or rebuilds as above; the first runs in
    this process and the others in forked workers (``_run_blocks``), which
    inherit ``cb`` and the unit steps.  Counts stay exact integers at every
    shift, tiled or rebuilt, and each MI value is a fixed function of its
    counts, so the curve is the same bit for bit whatever the block count
    or the tile length.  The integers are exact at any size a scan can
    take: histogram cells and D are int64 counts of at most ``n_win``;
    ``cb`` takes the narrowest type that holds b's unit-step total, an exact
    int64; and tiles run only where one tile's cells fit ``_TILE_CELLS``
    (2^20, so m <= 418), which bounds every int64 key by 2^21 times the
    record length, with headroom for any record under 2^42 samples.
    """
    mm = m * m
    n_shifts = len(b_starts)
    b_first, b_last = int(b_starts[0]), int(b_starts[-1])
    step = b_first - int(b_starts[1])
    moves = b_first - b_last
    chunk = max(_BIN_BLOCK, mm)
    log2_n = math.log2(n_win)
    # the scan's cost each way, in rebuilt samples
    rebuilt = n_shifts * n_win
    walked = _CELL_PRICE * moves * mm
    tiles = _tile_length(mm, 0) >= 1 and walked < rebuilt
    if tiles:
        met, a_steps = _coincidences(ia_m // m, ib, b_first, b_last, m,
                                     (rebuilt - walked) / _COINCIDENCE_PRICE)
        tile = _tile_length(mm, met / moves)
        # each tile also passes once over a's unit steps
        walked += _COINCIDENCE_PRICE * (met + a_steps * -(-moves // tile))
        tiles = walked < rebuilt
    if tiles:
        # a coincidence of a's unit step at q with b's at p, in a tile from
        # start b, is keyed a_key + b_key + 3 mm b: its slot b + q - p (slot
        # t + 1 changes the move from start b - t) times 3 mm, plus its kind,
        # the number of the two steps that fall (1 counts -1, 0 and 2 count
        # +1), times mm, plus a's lower row times m and b's lower bin
        qa, low, falls = _unit_breaks(ia_m // m)
        a_key = qa * (3 * mm) + falls * mm + low * m
        pb, low, falls = _unit_breaks(ib)
        # cb[x]: b's unit steps before sample x, in a type that holds them all
        cb = np.repeat(np.arange(len(pb) + 1, dtype=np.min_scalar_type(len(pb))),
                       np.diff(pb, prepend=-1, append=len(ib)))
        b_key = low + falls * mm - pb * (3 * mm)
        del low, falls, pb

    def b_steps(u0, u1):
        """Samples of b's unit steps u0 to u1, and their lower bins, plus mm where b falls."""
        p, cell = np.divmod(b_key[u0:u1], 3 * mm)
        return -p, cell

    def first_move(b):
        """The histogram at start b - 1 less the one at b."""
        p, cell = b_steps(cb[b], cb[b + n_win])
        k = np.bincount(ia_m[p - b] + cell, minlength=2 * mm)
        move = k[:mm] - k[mm:]
        move[1:] -= move[:-1]
        return move

    def tile_hists(b, t_len, hist, move, upper):
        """Histograms at starts b - 1 down to b - t_len from ``hist`` at b and its ``move``.

        ``upper`` is ``cb`` at a's unit steps shifted by b.  Also returns the
        move at b - t_len and ``cb`` at a's unit steps shifted by b - t_len,
        the next tile's ``upper``.
        """
        # b's unit steps in [b - t_len + q, b + q) meet a's at q: list them.
        # Each temporary is freed once used: the tile's peak is the scan's.
        lower = cb[b - t_len:][qa]
        meets = upper - lower
        ends = np.cumsum(meets, dtype=np.int64)
        u = np.repeat(lower - (ends - meets), meets)
        u += np.arange(len(u))
        keys = b_key[u]
        del u
        keys += np.repeat(a_key + b * 3 * mm, meets)
        x = np.bincount(keys, minlength=(t_len + 1) * 3 * mm).reshape(t_len + 1, 3, mm)
        del keys
        corner = (x[:, 0] - x[:, 1]).ravel()
        corner += x[:, 2].ravel()
        del x
        # A coincidence carries b's step from a's lower row to the row above,
        # and a step entering at start b - t - 1 or leaving pairs with a's
        # first or last row: ``steps`` is the change of b's steps per row and
        # lower bin, and less itself one bin on, the change of the move.
        # Neither a's top row nor b's top bin is ever a lower one, so the
        # flat shifts by a row and by a bin never carry across a start.
        steps = np.negative(corner)
        steps[m:] += corner[:-m]
        del corner
        for u0, u1, row, at, sign in ((cb[b - t_len], cb[b], ia_m[0], b, 1),
                                      (cb[b - t_len + n_win], cb[b + n_win], ia_m[-1],
                                       b + n_win, -1)):
            p, cell = b_steps(u0, u1)
            np.add.at(steps, (at - p) * mm + row + cell % mm,
                      np.where(cell < mm, sign, -sign))
        q = np.empty((t_len + 1, mm), dtype=np.int64)
        q.flat[0] = steps[0]
        np.subtract(steps[1:], steps[:-1], out=q.reshape(-1)[1:])
        del steps
        q[0] += move
        for t in range(1, t_len + 1):
            q[t] += q[t - 1]
        move = q[t_len]
        q[0] += hist
        for t in range(1, t_len):
            q[t] += q[t - 1]
        return q[:t_len], move, lower

    def rebuild(b):
        """The histogram at start b, counted ``chunk`` samples at a time."""
        win = ib[b : b + n_win]
        hist = np.zeros(mm, dtype=np.int64)
        for i in range(0, n_win, chunk):
            hist += np.bincount(ia_m[i : i + chunk] + win[i : i + chunk], minlength=mm)
        return hist

    def block(lo, hi):
        out = np.empty(hi - lo, dtype=np.float64)
        b0 = int(b_starts[lo])
        hist = rebuild(b0)
        counts = hist.reshape(m, m)
        # a cell never exceeds its row, a column gains at most one count per
        # sample b's window slides in this block
        row = counts.sum(axis=1)
        slide = b0 - int(b_starts[hi - 1])
        g = _xlog2x(max(int(row.max()), int(counts.sum(axis=0).max()) + slide) + 1)
        g_row = g[row].sum()

        def mi_of(hists):
            col = hists.reshape(len(hists), m, m).sum(axis=1)
            g_sum = g[hists].sum(axis=1) - g_row - g[col].sum(axis=1)
            return np.maximum(0.0, log2_n + g_sum / n_win)

        out[0] = mi_of(hist[None])[0]
        if tiles:
            move, upper = first_move(b0), cb[b0:][qa]
            b, end = b0, b0 - slide
            while b > end:
                t_len = min(tile, b - end)
                hists, move, upper = tile_hists(b, t_len, hist, move, upper)
                r0 = (b - 1 - b0) % step      # first grid start in the tile
                vals = mi_of(hists[r0::step])
                k0 = (b0 - b + 1 + r0) // step
                out[k0 : k0 + len(vals)] = vals
                hist = hists[-1]
                b -= t_len
        else:
            for s in range(lo + 1, hi):
                out[s - lo] = mi_of(rebuild(int(b_starts[s]))[None])[0]
        return out

    work = (walked if tiles else rebuilt) + n_shifts * mm
    return _run_blocks(block, _blocks(n_shifts, work))


def _xlog2x(size: int) -> np.ndarray:
    """``x * log2(x)`` at the counts 0 to ``size - 1``, with 0 log 0 = 0."""
    x = np.arange(size, dtype=np.float64)
    g = np.zeros(size)
    np.multiply(x[1:], np.log2(x[1:]), out=g[1:])
    return g


def _moves(v):
    """Samples ``j >= 1`` where ``v[j] != v[j - 1]``, with ``v[j - 1]`` and ``v[j]`` as int64."""
    at = np.flatnonzero(v[1:] != v[:-1]) + 1
    return at, v[at - 1].astype(np.int64), v[at].astype(np.int64)


def _unit_breaks(v):
    """Every bin move of ``v`` split into moves of one bin at the same sample.

    A move from bin ``v[j - 1]`` to ``v[j]`` by ``d`` bins becomes ``|d|``
    unit steps at ``j``, one between bins ``L`` and ``L + 1`` for each ``L``
    from the lower of the two up to the higher less one.  Returns each unit
    step's sample, its lower bin ``L`` (both int64), and whether ``v``
    falls there.
    """
    at, before, after = _moves(v)
    width = np.abs(after - before)
    low = np.repeat(np.minimum(before, after) - (np.cumsum(width) - width), width)
    low += np.arange(len(low))
    return np.repeat(at, width), low, np.repeat(after < before, width)


def _coincidences(ia, ib, b_first, b_last, m, limit):
    """Coincident unit steps of a and b over a scan's moves, and a's unit steps.

    Moving b's window start from ``b`` to ``b - 1`` re-pairs b's sample
    ``b - 1 + q`` from a's sample ``q - 1`` to ``q``: a unit step of a at
    ``q`` meets every unit step of b at ``b - 1 + q``, so over the moves from
    ``b_first`` down to ``b_last`` it meets b's unit steps in
    ``[b_last + q, b_first + q)``.  Both are counted exactly over a's
    window, a chunk at a time, until the coincidences pass ``limit``.
    """
    # a step of a moves at most m - 1 bins and meets at most (m - 1) per
    # sample of b's span, so a chunk this long keeps its int64 sum exact
    size = max(1, min(_BIN_BLOCK, (1 << 63) // (m * m * (b_first - b_last))))
    met = steps = 0
    for lo in range(1, len(ia), size):
        hi = min(lo + size, len(ia))
        qa, before, after = _moves(ia[lo - 1 : hi])
        qa += lo - 1
        wa = np.abs(after - before)
        base = b_last + lo - 1
        pb, before, after = _moves(ib[base : b_first + hi - 1])
        pb += base
        b_before = np.concatenate(([0], np.cumsum(np.abs(after - before))))
        met += int(wa @ (b_before[np.searchsorted(pb, qa + b_first)]
                         - b_before[np.searchsorted(pb, qa + b_last)]))
        steps += int(wa.sum())
        if met > limit:
            break
    return met, steps


# Cells of one tile's corner counts, (T + 1) x 3 x m * m int64 for T starts:
# 8 MB, 33 starts at 100 bins.  At twice that a paper-size scan ran 13 %
# faster on one core, but the paper run's peak RSS rose by 30-36 MB.
_TILE_CELLS = 1 << 20
# Coincidences one tile may list: its keys and indices then take 32 MB at most
_TILE_MET = 1 << 21
# Prices in rebuilt samples (2.4 ns each, chunked, on a 2-core VM at 4e6
# samples): a coincidence, with its share of a tile's passes over a's unit
# steps, took about 15 ns; a cell at a walked start about 13 ns (the
# stencil, the two running sums and the MI gathers).
_COINCIDENCE_PRICE = 6
_CELL_PRICE = 5


def _tile_length(mm: int, met_per_move: float) -> int:
    """Starts per tile at ``mm`` cells: as many as ``_TILE_CELLS`` and ``_TILE_MET`` allow."""
    return min(_TILE_CELLS // (3 * mm) - 1, max(1, int(_TILE_MET // max(met_per_move, 1.0))))


# Scan work, in rebuilt samples as _scan_kernel prices it, that each block
# must carry for its forked worker to pay.  A fork, its reap and the
# copy-on-write faults that follow took 0.02-0.04 s of CPU on 2^20-sample
# band-passed scans, which ran in 0.27-0.31 s in one block and 0.16-0.19 s
# in two, and no more on 4e6-sample ones, where no rebuild makes a
# record-sized temporary (2-core VM); 5e7 samples of work take about 0.13 s.
_BLOCK_WORK = 50_000_000


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
    rebuilt at every shift elsewhere, and each shift's MI is evaluated from a table
    of c log2 c (``_scan_kernel``), within 1e-12 bits of ``mi_from_hist``.
    A scan whose work pays for it splits its shifts across the usable cores
    in forked workers, all reaped before it returns, with the same curve bit
    for bit.
    """
    a, b = pair.a, pair.b
    window, shifts = scan_window(a.spec, step, range_, n_bins, a.guard, b.guard)
    cell = np.min_scalar_type(n_bins * n_bins - 1)
    ia, _ = _bin_indices(a.valid(), n_bins, cell)
    ia *= n_bins   # a's bin index as the row's first cell
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
