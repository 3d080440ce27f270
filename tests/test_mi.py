import os
from functools import partial

import numpy as np
import pytest

import twinbeam.mi as mi
from twinbeam.errors import DataError, FitError, InvalidParams
from twinbeam.mi import (
    _BIN_BLOCK,
    JointHistogram,
    average_curves,
    fwhm,
    histogram2d,
    mi_delay_scan,
    mi_from_hist,
    miller_madow_correction,
    normalize_curve,
)
from twinbeam.model import GAUSSIAN_FWHM_FACTOR, gaussian_g
from twinbeam.trace import MICurve, TracePair

from conftest import gaussian_pair, make_trace


def hist_from_counts(counts):
    counts = np.asarray(counts, dtype=np.int64)
    return JointHistogram(
        counts=counts,
        edges_a=np.arange(counts.shape[0] + 1, dtype=float),
        edges_b=np.arange(counts.shape[1] + 1, dtype=float),
    )


class TestHistogram2d:
    def test_constant_trace_degenerate(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DataError, match="zero dynamic range"):
            histogram2d(rng.standard_normal(1000), np.zeros(1000))

    def test_total_equals_sample_count(self):
        x, y = gaussian_pair(0.5, 50_000, seed=1)
        h = histogram2d(x, y, 100, 100)
        assert h.total == 50_000

    def test_every_sample_lands_once_including_extremes(self):
        x = np.linspace(-1.0, 1.0, 1001)
        h = histogram2d(x, x[::-1], 10, 10)
        assert h.total == 1001

    def test_counts_and_edges_match_whole_record_binning(self):
        # spans several binning blocks and a partial one
        x, y = gaussian_pair(0.5, 3 * _BIN_BLOCK + 123, seed=2)

        def whole(v, m):
            lo, hi = v.min(), v.max()
            idx = ((v - lo) * (m / (hi - lo))).astype(np.int64)
            return np.clip(idx, 0, m - 1), np.linspace(lo, hi, m + 1)

        # bin indices are binned as the narrowest cell type: uint8, uint16, uint32
        for ma, mb in [(37, 50), (10, 10), (300, 7), (300, 300)]:
            h = histogram2d(x, y, ma, mb)
            (ia, ea), (ib, eb) = whole(x, ma), whole(y, mb)
            assert np.array_equal(h.counts.ravel(), np.bincount(ia * mb + ib, minlength=ma * mb))
            assert np.array_equal(h.edges_a, ea) and np.array_equal(h.edges_b, eb)

    def test_uniform_independent_cell_occupancy(self):
        rng = np.random.default_rng(42)
        n, m = 1_000_000, 10
        h = histogram2d(rng.uniform(size=n), rng.uniform(size=n), m, m)
        expected = n / m ** 2
        # chi-square consistency: normalized statistic near 1
        chi2 = float(((h.counts - expected) ** 2 / expected).sum())
        dof = m * m - 1
        assert abs(chi2 - dof) < 5.0 * np.sqrt(2 * dof)


class TestMiFromHist:
    def test_product_histogram_exactly_zero(self):
        r = np.array([5, 17, 100, 3])
        c = np.array([11, 2, 40])
        h = hist_from_counts(np.outer(r, c))
        assert mi_from_hist(h) == 0.0

    def test_diagonal_is_log2_bins(self):
        h = hist_from_counts(np.diag(np.full(100, 7)))
        assert mi_from_hist(h) == pytest.approx(np.log2(100), abs=1e-12)

    def test_past_int64_products_matches_closed_form(self):
        # total 6e9: c * total and row * col pass int64 beyond ~3.04e9 samples;
        # p = [[1/3, 1/6], [1/6, 1/3]] with uniform marginals
        h = hist_from_counts([[2 * 10**9, 10**9], [10**9, 2 * 10**9]])
        closed = (2 / 3) * np.log2(4 / 3) + (1 / 3) * np.log2(2 / 3)
        assert mi_from_hist(h) == pytest.approx(closed, rel=1e-12)
        assert mi_from_hist(hist_from_counts(np.outer([3, 1], [2 * 10**9, 10**9]))) == 0.0

    def test_empty_histogram(self):
        with pytest.raises(DataError, match="histogram holds no samples"):
            mi_from_hist(hist_from_counts(np.zeros((4, 4))))

    def test_gaussian_oracle_rho_09(self):
        # analytic MI of a bivariate Gaussian: -log2(1 - rho^2)/2
        x, y = gaussian_pair(0.9, 500_000, seed=2)
        est = mi_from_hist(histogram2d(x, y, 100, 100))
        assert est == pytest.approx(-0.5 * np.log2(1 - 0.81), abs=0.05)

    def test_nonnegative_on_random_histograms(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            shape = rng.integers(2, 12, size=2)
            counts = rng.integers(0, 30, size=shape)
            if counts.sum() == 0:
                counts[0, 0] = 1
            assert mi_from_hist(hist_from_counts(counts)) >= 0.0

    def test_transpose_symmetry_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            counts = rng.integers(0, 50, size=(13, 7))
            counts[0, 0] += 1
            a = mi_from_hist(hist_from_counts(counts))
            b = mi_from_hist(hist_from_counts(counts.T))
            assert a == b

    def test_bin_permutation_invariance_exact(self):
        rng = np.random.default_rng(5)
        counts = rng.integers(0, 50, size=(9, 9))
        counts[1, 2] += 3
        base = mi_from_hist(hist_from_counts(counts))
        for _ in range(10):
            pr = rng.permutation(9)
            pc = rng.permutation(9)
            assert mi_from_hist(hist_from_counts(counts[pr][:, pc])) == base

    def test_affine_map_invariance_exact(self):
        # dyadic affine map: bin indices identical, hence MI bit-identical
        x, y = gaussian_pair(0.6, 100_000, seed=6)
        a = mi_from_hist(histogram2d(x, y, 64, 64))
        b = mi_from_hist(histogram2d(4.0 * x + 3.0, y, 64, 64))
        assert a == b

    def test_miller_madow_floor(self):
        x, y = gaussian_pair(0.0, 1_000_000, seed=7)
        h = histogram2d(x, y, 100, 100)
        naive = mi_from_hist(h)
        corr = miller_madow_correction(h)
        # naive estimate on independent data is close to the bias estimate
        assert naive == pytest.approx(corr, rel=0.6)
        assert abs(naive - corr) < 2e-3


def _scan_pair(x, y, guard=0, **kw):
    a = make_trace(x, guard=guard)
    b = make_trace(y, guard=guard)
    return TracePair(a=a, b=b)


class TestDelayScan:
    def test_positive_delay_means_a_retarded(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(2 ** 16)
        k = 24
        a = np.roll(x, k)      # a lags: a[i] = x[i - k]
        pair = _scan_pair(a, x, guard=64)
        curve = mi_delay_scan(pair, step=0.5e-9, range_=40e-9)
        assert curve.peak_delay == pytest.approx(k * 0.5e-9, abs=1e-15)

    def test_shift_equivariance_exact(self):
        rng = np.random.default_rng(9)
        n = 2 ** 16
        x = rng.standard_normal(n)
        y = 0.8 * x + 0.6 * rng.standard_normal(n)
        # pin both bin ranges with interior sentinels so edges are identical
        # for the rolled copy and equality is exact, not just statistical
        y[n // 2], y[n // 2 + 1] = 9.0, -9.0
        k = 10
        base = mi_delay_scan(_scan_pair(x, y, guard=128), range_=30e-9)
        rolled = mi_delay_scan(_scan_pair(x, np.roll(y, k), guard=128), range_=30e-9)
        # delaying b by k samples translates the curve by k grid points
        assert np.array_equal(rolled.mi[:-k], base.mi[k:])
        assert rolled.peak_delay == pytest.approx(base.peak_delay - k * 0.5e-9,
                                                  abs=1e-15)

    def test_step_must_be_sample_aligned(self):
        x, y = gaussian_pair(0.5, 2 ** 14, seed=10)
        with pytest.raises(InvalidParams, match="not an integer multiple of the sample period"):
            mi_delay_scan(_scan_pair(x, y), step=0.75e-9, range_=10e-9)

    @pytest.mark.parametrize("n_bins", [1, 0, -3])
    def test_fewer_than_two_bins_refused(self, n_bins):
        # one bin used to give an all-zero curve, 0 and -3 numpy errors
        x, y = gaussian_pair(0.5, 2 ** 16, seed=10)
        with pytest.raises(InvalidParams, match=f"n_bins must be >= 2, got {n_bins}"):
            mi_delay_scan(_scan_pair(x, y), range_=5e-9, n_bins=n_bins)

    def test_matches_public_estimator(self):
        # the fused kernel must agree with histogram2d + mi_from_hist
        rng = np.random.default_rng(11)
        n = 2 ** 15
        x = rng.standard_normal(n)
        y = 0.7 * x + rng.standard_normal(n)
        # sentinels keep whole-trace and window bin edges identical
        x[n // 2], x[n // 2 + 1] = 8.0, -8.0
        y[n // 2 + 2], y[n // 2 + 3] = 8.0, -8.0
        curve = mi_delay_scan(_scan_pair(x, y), step=0.5e-9, range_=2e-9)
        i0 = len(curve.mi) // 2  # zero delay
        # the scan window drops max_shift samples at each end
        ref = mi_from_hist(histogram2d(x[4:-4], y[4:-4], 100, 100))
        assert curve.mi[i0] == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("record, step, n_bins, cores, tile", [
        pytest.param("lowpassed", 0.5e-9, 100, None, None, id="True-5e-10"),
        pytest.param("lowpassed", 1.0e-9, 100, None, None, id="True-1e-09"),
        pytest.param("lowpassed", 5e-9, 100, None, None, id="True-5e-09"),
        pytest.param("white", 0.5e-9, 100, None, None, id="False-5e-10"),
        # the kernel's cell type is uint8 up to 16 bins, uint32 past 256
        pytest.param("lowpassed", 0.5e-9, 10, None, None, id="True-5e-10-10bins"),
        pytest.param("lowpassed", 0.5e-9, 300, None, None, id="True-5e-10-300bins"),
        pytest.param("white", 0.5e-9, 300, None, None, id="False-5e-10-300bins"),
        # b's bin moves farther than one bin at 3 % of the breakpoints at 100
        # bins and 47 % at 300
        pytest.param("stepped", 0.5e-9, 100, None, None, id="stepped-5e-10"),
        pytest.param("stepped", 0.5e-9, 300, 2, None, id="stepped-5e-10-300bins-2cores"),
        # shift blocks forced to one per core, and more cores than the 9
        # shifts of a 5 ns step
        pytest.param("lowpassed", 0.5e-9, 100, 1, None, id="True-5e-10-1core"),
        pytest.param("lowpassed", 0.5e-9, 100, 2, None, id="True-5e-10-2cores"),
        pytest.param("lowpassed", 0.5e-9, 100, 3, None, id="True-5e-10-3cores"),
        pytest.param("white", 0.5e-9, 100, 2, None, id="False-5e-10-2cores"),
        pytest.param("white", 0.5e-9, 100, 3, None, id="False-5e-10-3cores"),
        pytest.param("lowpassed", 5e-9, 100, 16, None, id="True-5e-09-16cores"),
        # tiles forced on, of 1, 3 and the default number of starts, at 1-
        # and 2-sample steps; stepped records move farther than one bin
        *(pytest.param(record, step, 100, None, tile,
                       id=f"{record}-{step:g}-tile{tile or 'default'}")
          for record in ("lowpassed", "stepped") for step in (0.5e-9, 1.0e-9)
          for tile in (1, 3, 0)),
        # tiles across shift blocks, and at 300 bins
        pytest.param("lowpassed", 0.5e-9, 100, 3, 3, id="lowpassed-5e-10-tile3-3cores"),
        pytest.param("stepped", 1.0e-9, 100, 2, 0, id="stepped-1e-09-tiledefault-2cores"),
        pytest.param("stepped", 0.5e-9, 300, 2, 0, id="stepped-5e-10-300bins-tiledefault-2cores"),
    ])
    def test_every_shift_matches_public_estimator(self, record, step, n_bins, cores, tile,
                                                  monkeypatch):
        # records this short rebuild at every shift unless tiles are forced
        # (tile 0 keeps the default tile length); forced tiles also count the
        # rebuilds, the coincidences and the bins 4 096 samples at a time
        forks = _count_forks(monkeypatch)
        if cores is not None:
            _split_every_scan(monkeypatch, cores)
        if tile is not None:
            _tile_every_scan(monkeypatch, tile)
        n, guard = 2 ** 15, 64
        x, y = _scan_records(record, n)
        # sentinels inside every window pin whole-trace and window bin edges
        for v in (x, y):
            top = 1.01 * np.abs(v).max()
            v[n // 2], v[n // 2 + 1] = top, -top
        pair = _scan_pair(x, y, guard=guard)
        curve = mi_delay_scan(pair, step=step, range_=20e-9, n_bins=n_bins)
        # a scan this small stays in one block unless it is forced to split
        assert len(forks) == (0 if cores is None else min(cores, len(curve.mi)) - 1)
        shifts = np.rint(curve.delays * 2e9).astype(np.int64)
        lo, hi = guard + shifts[-1], n - guard - shifts[-1]
        a, b = pair.a.samples, pair.b.samples
        for d, got in zip(shifts, curve.mi):
            # positive delay d pairs a[i] with b[i - d]
            ref = mi_from_hist(histogram2d(a[lo:hi], b[lo - d : hi - d], n_bins, n_bins))
            assert got == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("record", ["lowpassed", "white"])
    def test_one_bincount_per_tile(self, record, monkeypatch):
        # a tiled scan makes one bincount per tile, plus two at its block's
        # start: the rebuild and the first move; far jumps are unit steps like
        # any other.  On white noise the coincidences alone outprice the
        # rebuilds, so the scan rebuilds at every shift and builds no unit
        # steps, so no table of them.
        n, guard = 2 ** 15, 64
        x, y = _scan_records(record, n)
        y[guard + 30] = 3 * np.abs(y).max()   # far jumps at b's samples 30 and 31
        pair = _scan_pair(x, y, guard=guard)
        calls, bincount = [], np.bincount

        def counting_bincount(*args, **kwargs):
            calls.append(1)
            return bincount(*args, **kwargs)

        if record == "white":
            monkeypatch.setattr(mi, "_CELL_PRICE", 0)
            monkeypatch.setattr(mi, "_unit_breaks",
                                lambda *args: pytest.fail("built unit steps"))
        else:
            rebuilt = mi_delay_scan(pair, step=0.5e-9, range_=20e-9)
            _tile_every_scan(monkeypatch, 3, chunk=None)
        monkeypatch.setattr(mi.np, "bincount", counting_bincount)
        curve = mi_delay_scan(pair, step=0.5e-9, range_=20e-9)
        if record == "white":
            assert len(calls) == len(curve.mi)
        else:
            assert len(calls) == 2 + -(-(len(curve.mi) - 1) // 3)
            assert np.array_equal(curve.mi, rebuilt.mi)

    def test_unit_breaks_split_a_far_jump(self):
        # 0 -> 99 is 99 unit steps at sample 1, one per lower bin 0 to 98
        v = np.array([0, 99, 99, 98, 100], dtype=np.uint8)
        at, low, falls = mi._unit_breaks(v)
        assert np.array_equal(at, [1] * 99 + [3, 4, 4])
        assert np.array_equal(low, [*range(99), 98, 98, 99])
        assert np.array_equal(falls, [False] * 99 + [True, False, False])
        assert at.dtype == low.dtype == np.int64

    @pytest.mark.parametrize("record", ["concentrated", "independent"])
    def test_table_mi_matches_public_estimator(self, record):
        # a's most common bin holds over 90 % of the window, so the c log2 c
        # table reaches most of the window's length; an independent pair's
        # MI is a small difference of large sums
        n, guard = 2 ** 15, 64
        pair = _pinned_pair(record, n, guard)
        curve = mi_delay_scan(pair, step=0.5e-9, range_=20e-9)
        if record == "concentrated":
            lo = guard + 40
            rows = histogram2d(pair.a.samples[lo:-lo], pair.b.samples[lo:-lo]).counts
            assert rows.sum(axis=1).max() > 0.9 * (n - 2 * lo)
        _assert_every_shift_matches(pair, curve, guard, 100)

    @pytest.mark.parametrize("n_bins", [2, 16, 100, 300])
    def test_curve_is_the_same_at_any_block_count(self, n_bins, monkeypatch):
        # uint8 cells up to 16 bins, uint16 at 100, uint32 at 300; each block
        # builds its own table, and every value is a fixed function of its counts
        n, guard = 2 ** 15, 64
        pair = _pinned_pair("lowpassed", n, guard)
        curves = []
        for cores in (1, 3):
            _split_every_scan(monkeypatch, cores)
            curves.append(mi_delay_scan(pair, step=0.5e-9, range_=20e-9, n_bins=n_bins))
        assert np.array_equal(curves[0].mi, curves[1].mi)
        _assert_every_shift_matches(pair, curves[0], guard, n_bins)

    @pytest.mark.parametrize("failing", ["worker", "parent"])
    def test_block_error_is_raised_with_no_child_left(self, failing, monkeypatch):
        # a worker's error crosses its pipe with its type and message; an error
        # in the parent's own block kills the workers; either way all are reaped
        _split_every_scan(monkeypatch, 3)
        run_blocks = mi._run_blocks

        def run_failing(blocks):
            def maybe_fail(i, block):
                if (i > 0) == (failing == "worker"):
                    raise DataError(f"block {i} of the scan")
                return block()
            return run_blocks([partial(maybe_fail, i, block) for i, block in enumerate(blocks)])

        monkeypatch.setattr(mi, "_run_blocks", run_failing)
        x, y = gaussian_pair(0.5, 2 ** 14, seed=14)
        with pytest.raises(DataError, match="block [0-9] of the scan") as info:
            mi_delay_scan(_scan_pair(x, y), range_=20e-9)
        assert info.type is DataError
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_scan_forks_only_when_it_pays_and_a_core_is_free(self, monkeypatch):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        x, y = gaussian_pair(0.5, 2 ** 16, seed=15)
        pair = _scan_pair(x, y)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        tiny = mi_delay_scan(pair, range_=2e-9)   # 9 shifts: far below _BLOCK_WORK
        _split_every_scan(monkeypatch, 1)
        assert np.array_equal(mi_delay_scan(pair, range_=2e-9).mi, tiny.mi)

    @pytest.mark.parametrize("cores, n_jobs, share", [(1, 3, 1), (2, 3, 1), (4, 2, 2),
                                                       (5, 2, 2), (4, 5, 1)])
    def test_lanes_deal_jobs_in_order_and_share_the_cores(self, cores, n_jobs, share,
                                                          monkeypatch):
        # job j runs in lane j % lanes; lane 0 in this process, each other lane
        # in one forked worker; inside a lane usable_cores is the lane's share
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        forks = _count_forks(monkeypatch)
        parent = os.getpid()

        def job(j):
            return np.array([j, mi.usable_cores(), os.getpid() == parent], dtype=np.float64)

        jobs = [partial(job, j) for j in range(n_jobs)]
        values = mi.run_lanes(jobs)
        lanes = min(cores, n_jobs)
        assert jobs == [] and len(forks) == lanes - 1
        assert [v.tolist() for v in values] == [[j, share, j % lanes == 0]
                                                for j in range(n_jobs)]
        assert mi.usable_cores() == cores
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
    def test_one_block_without_fork_or_affinity(self, missing, monkeypatch):
        # usable_cores, which the scan's blocks and source's draw threads
        # read, is 1 where either call is missing
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert mi.usable_cores() == 3
        assert mi._blocks(1201, 1e12) == [0, 400, 800, 1201]
        monkeypatch.delattr(os, missing)
        assert mi.usable_cores() == 1
        assert mi._blocks(1201, 1e12) == [0, 1201]


def _scan_records(record, n):
    """x and y of the pairs the delay-scan tests scan, before any sentinel.

    "lowpassed" holds each of 100 bins for about 13 samples, as band-passed
    records do; "stepped" holds the low-passed record for 8 samples at a
    time, so b's bin moves by one at most breakpoints and farther at some;
    "white" is white noise.  y is x delayed by 6 samples plus its own noise.
    "concentrated" sets the 92 % of the low-passed x nearest zero to zero;
    "independent" pairs two low-passed records of their own noises.
    """
    rng = np.random.default_rng(13)

    def shape(v):
        if record == "white":
            return v
        v = np.fft.irfft(np.fft.rfft(v)[:48], n)
        return np.repeat(v[::8], 8) if record == "stepped" else v

    x = shape(rng.standard_normal(n))
    if record == "concentrated":
        x[np.abs(x) < np.quantile(np.abs(x), 0.92)] = 0.0
    if record == "independent":
        return x, shape(rng.standard_normal(n))
    return x, np.roll(x, 6) + shape(rng.standard_normal(n))


def _pinned_pair(record, n, guard):
    """``_scan_records``' pair with sentinels that pin whole-trace and window bin edges."""
    x, y = _scan_records(record, n)
    for v in (x, y):
        top = 1.01 * np.abs(v).max()
        v[n // 2], v[n // 2 + 1] = top, -top
    return _scan_pair(x, y, guard=guard)


def _assert_every_shift_matches(pair, curve, guard, n_bins):
    """Each of ``curve``'s values within 1e-12 bits of histogram2d + mi_from_hist."""
    shifts = np.rint(curve.delays * 2e9).astype(np.int64)
    lo, hi = guard + shifts[-1], len(pair.a.samples) - guard - shifts[-1]
    a, b = pair.a.samples, pair.b.samples
    for d, got in zip(shifts, curve.mi):
        ref = mi_from_hist(histogram2d(a[lo:hi], b[lo - d : hi - d], n_bins, n_bins))
        assert got == pytest.approx(ref, abs=1e-12)


def _count_forks(monkeypatch):
    """Record the pid of every worker a scan forks."""
    pids, fork = [], os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def _tile_every_scan(monkeypatch, tile, chunk=4096):
    """Tile every scan, ``tile`` starts at a time (0: the default length).

    With ``chunk``, rebuilds, the coincidence count and the binning go
    ``chunk`` samples at a time.
    """
    monkeypatch.setattr(mi, "_CELL_PRICE", 0)
    monkeypatch.setattr(mi, "_COINCIDENCE_PRICE", 1e-9)
    if tile:
        monkeypatch.setattr(mi, "_tile_length", lambda mm, met_per_move: tile)
    if chunk:
        monkeypatch.setattr(mi, "_BIN_BLOCK", chunk)


def _split_every_scan(monkeypatch, cores):
    """One shift block per core, however little work a scan holds."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    monkeypatch.setattr(mi, "_BLOCK_WORK", 1)


class TestCurveOps:
    def _curve(self, values, step=0.5e-9):
        n = len(values)
        delays = (np.arange(n) - n // 2) * step
        return MICurve(delays=delays, mi=np.asarray(values, float))

    def test_average_identical_curves(self):
        c = self._curve(gaussian_g(np.linspace(-3, 3, 101), 1.0))
        avg = average_curves([c] * 10)
        assert np.allclose(avg.mi, c.mi, rtol=1e-15, atol=0)
        assert np.all(avg.spread <= 1e-15)
        assert avg.n_repeats == 10

    def test_average_two_known_curves(self):
        c1 = self._curve([0.0, 1.0, 0.0])
        c2 = self._curve([0.2, 0.6, 0.2])
        avg = average_curves([c1, c2])
        assert np.allclose(avg.mi, [0.1, 0.8, 0.1])
        # sample standard deviation (ddof=1) of two points: |x1-x2|/sqrt(2)
        assert np.allclose(avg.spread, np.array([0.2, 0.4, 0.2]) / np.sqrt(2))

    def test_grid_mismatch(self):
        c1 = self._curve([0.0, 1.0, 0.0])
        c2 = self._curve([0.0, 1.0, 0.0], step=1e-9)
        with pytest.raises(DataError, match="curves are on different delay grids"):
            average_curves([c1, c2])

    def test_normalize_by_own_peak(self):
        c = self._curve([0.1, 2.0, 0.3])
        n = normalize_curve(c, c.peak)
        assert n.peak == 1.0

    def test_normalize_linear(self):
        c = self._curve([0.1, 2.0, 0.3])
        n1 = normalize_curve(c, 1.0)
        n2 = normalize_curve(c, 2.0)
        assert np.allclose(n1.mi, 2.0 * n2.mi)

    def test_normalize_rejects_nonpositive(self):
        c = self._curve([0.1, 2.0, 0.3])
        with pytest.raises(FitError, match="reference peak must be > 0"):
            normalize_curve(c, 0.0)


class TestFwhm:
    def test_exact_gaussian(self):
        d = np.arange(-600, 601) * 0.5e-9
        c = MICurve(delays=d, mi=gaussian_g(d, 32.1e-9))
        w = fwhm(c)
        assert w == pytest.approx(GAUSSIAN_FWHM_FACTOR * 32.1e-9, abs=0.2e-9)

    def test_triangle_analytic(self):
        # triangle peak 1 at 0, reaching 0 at +/-100 ns: FWHM = 100 ns
        d = np.arange(-300, 301) * 0.5e-9
        tri = np.maximum(0.0, 1.0 - np.abs(d) / 100e-9)
        w = fwhm(MICurve(delays=d, mi=tri))
        assert w == pytest.approx(100e-9, rel=1e-9)

    def test_peak_on_edge_raises(self):
        d = np.arange(0, 100) * 0.5e-9
        with pytest.raises(FitError, match="curve maximum lies on the delay-range edge"):
            fwhm(MICurve(delays=d, mi=np.linspace(0, 1, 100)))

    def test_multimodal_warns_and_uses_outermost(self):
        d = np.arange(-200, 201) * 0.5e-9
        main = gaussian_g(d, 10e-9)
        side = 0.7 * gaussian_g(d - 60e-9, 5e-9)
        with pytest.warns(UserWarning, match="outermost"):
            w = fwhm(MICurve(delays=d, mi=main + side))
        assert w > 60e-9  # spans out to the side lobe
