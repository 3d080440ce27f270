"""Correctness checks, computed apart from the program under test.

Every reference here comes from numpy, scipy.special and the file format
itself, never from twinbeam and never from a stored copy of an earlier
output.  Each check function returns a list of ``(check, message)``
problems; an empty list is a pass.

Pipeline figures (criterion 6's tolerances):

* peak ratio within 10 % of the closed form eta sigma0 sqrt(2 pi) / (2 sigma)
  * erfcx(sigma0 / (sqrt(2) sigma));
* unobstructed FWHM within 10 % of 2 sqrt(2 ln 2) sigma0;
* channel FWHM within 10 % of the FWHM of the Gaussian envelope convolved
  numerically with the two-sided exponential delay density;
* peak shift within 1 ns of tau0 and in-band squeezing within 0.5 dB of the
  configured -7 dB, each widened as 1/sqrt(samples) where a workload averages
  fewer samples than criterion 6 (``shift_tolerance_ns``,
  ``spectrum_tolerance_db``).

Raw-file analysis:

* the written curve agrees with the Gaussian-process MI -1/2 log2(1 - rho^2),
  rho from an FFT cross-correlation of the stored records;
* the curve peaks within 10 ns of zero delay;
* at seeded shifts, and for the single-shift estimator, the program's MI
  equals the MI of a ``np.histogram2d`` over the same window, binned exactly
  from the stored integer levels.
"""

from __future__ import annotations

import functools
import json
import math
import struct

import numpy as np
from scipy.special import erfcx

# The paper's channel and source, in ns and dB.
ETA, TAU0_NS, SIGMA_NS, SIGMA0_NS = 0.598, 32.7, 19.7, 32.1
SQUEEZING_DB = -7.0

REL_TOL = 0.10
SHIFT_TOL_NS = 1.0       # criterion 6, at 10 repeats of PAPER_SAMPLES
SPECTRUM_TOL_DB = 0.5    # criterion 7, at one pair of PAPER_SAMPLES
PAPER_SAMPLES = 4_000_000
PEAK_DELAY_TOL_NS = 10.0
GAUSS_WINDOW_NS = 60.0
# Histogram MI and Gaussian MI differ by the estimator's bias, which the
# Miller-Madow term estimates, plus binning and sampling error: 3.8e-4 to
# 4.1e-4 bits (0.8 % of the peak) on three 4e6-sample records, 1.3e-3 bits
# on a 2^20-sample one.  A peak scaled by 10 % moves it by 5e-3 bits.
GAUSS_REL_TOL = 0.03
# The program's MI and the reference's sum the same exact counts in another
# order; a window off by one sample moves MI by 1e-6 bits or more.
EXACT_TOL_BITS = 1e-8
N_SEEDED_SHIFTS = 3


def expected_peak_ratio() -> float:
    r = SIGMA0_NS / SIGMA_NS
    return ETA * r * math.sqrt(2.0 * math.pi) / 2.0 * float(erfcx(r / math.sqrt(2.0)))


def expected_unobstructed_fwhm_ns() -> float:
    return 2.0 * math.sqrt(2.0 * math.log(2.0)) * SIGMA0_NS


def _half_width(t: np.ndarray, y: np.ndarray) -> float:
    """Width between the half-maximum crossings next to the peak."""
    i = int(np.argmax(y))
    half = 0.5 * y[i]
    lo = i - int(np.argmax(y[i::-1] < half))
    hi = i + int(np.argmax(y[i:] < half))
    x1 = np.interp(half, [y[lo], y[lo + 1]], [t[lo], t[lo + 1]])
    x2 = np.interp(half, [y[hi], y[hi - 1]], [t[hi], t[hi - 1]])
    return float(x2 - x1)


@functools.cache
def expected_channel_fwhm_ns() -> float:
    """FWHM of the Gaussian envelope smeared by the exponential delay density.

    A direct numerical convolution on a 0.05 ns grid; the width does not
    depend on eta or tau0, so the density is centred at zero.
    """
    dt_ns = 0.05
    t = np.arange(-600.0, 600.0 + dt_ns / 2, dt_ns)
    g = np.exp(-0.5 * (t / SIGMA0_NS) ** 2)
    p = np.exp(-np.abs(t) / SIGMA_NS) / (2.0 * SIGMA_NS)
    return _half_width(t, np.convolve(g, p, mode="same") * dt_ns)


def shift_tolerance_ns(repeats: int, n_samples: int) -> float:
    """Criterion 6's 1 ns at 10 repeats of 4e6 samples, scaled as 1/sqrt(samples).

    The peak position of one 4e6-sample channel curve scatters by about
    0.8 ns from seed to seed, and the scatter falls as the inverse square
    root of the samples averaged.
    """
    return SHIFT_TOL_NS * math.sqrt(10 * PAPER_SAMPLES / (repeats * n_samples))


def spectrum_tolerance_db(n_samples: int) -> float:
    """Criterion 7's 0.5 dB for one 4e6-sample pair, scaled as 1/sqrt(samples).

    The Welch estimate averages n_samples / segment_length segments, so its
    scatter (0.1 dB at 4e6 samples, 0.15 dB at 2^20) falls as 1/sqrt(samples).
    """
    return SPECTRUM_TOL_DB * math.sqrt(max(1.0, PAPER_SAMPLES / n_samples))


def _rel(check, got, want, tol=REL_TOL):
    if got is None or not abs(got - want) < tol * abs(want):
        return [(check, f"{got} outside {want:.4g} +/- {100 * tol:.0f} %")]
    return []


def check_twin_channel(report: dict, repeats: int, n_samples: int) -> list[tuple[str, str]]:
    fit = report["fit"]
    problems = _rel("peak_ratio", fit["peak_ratio"], expected_peak_ratio())
    problems += _rel("unobstructed_fwhm_ns",
                     report["scenarios"]["twin-unobstructed"]["fwhm_ns"],
                     expected_unobstructed_fwhm_ns())
    problems += _rel("channel_fwhm_ns", fit["fwhm_channel_ns"], expected_channel_fwhm_ns())
    shift_tol = shift_tolerance_ns(repeats, n_samples)
    if not abs(fit["tau0_ns"] - TAU0_NS) < shift_tol:
        problems.append(("peak_shift_ns", f"{fit['tau0_ns']} outside {TAU0_NS} +/- {shift_tol:.2f}"))
    sq = report["spectrum"]["in_band_mean_db"]
    sq_tol = spectrum_tolerance_db(n_samples)
    if not abs(sq - SQUEEZING_DB) < sq_tol:
        problems.append(("spectrum_db", f"{sq} outside {SQUEEZING_DB} +/- {sq_tol:.2f}"))
    return problems


def check_ordering(report: dict) -> list[tuple[str, str]]:
    order = ("twin-unobstructed", "split-thermal", "split-coherent")
    peaks = [report["scenarios"][name]["peak_bits"] for name in order]
    if not peaks[0] > peaks[1] > peaks[2]:
        return [("ordering", f"peaks {dict(zip(order, peaks))} not in the order "
                             f"{' > '.join(order)}")]
    return []


# --- raw-file analysis --------------------------------------------------------

def read_twbm_levels(path) -> tuple[np.ndarray, dict]:
    """Integer levels and header of a u8 TWBM file, read from the format itself."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != b"TWBM":
        raise ValueError(f"{path}: not a TWBM file")
    _, hdr_len = struct.unpack("<II", data[4:12])
    header = json.loads(data[12:12 + hdr_len])
    if header["encoding"] != "u8":
        raise ValueError(f"{path}: expected u8 encoding")
    return np.frombuffer(data, dtype=np.uint8, offset=12 + hdr_len), header


def read_curve_csv(path) -> tuple[np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1]


def exact_bins(levels: np.ndarray, n_bins: int) -> np.ndarray:
    """Equal-width bins over [min, max] in integer arithmetic, top edge closed."""
    lv = levels.astype(np.int64)
    lo, span = int(lv.min()), int(lv.max() - lv.min())
    return np.minimum((lv - lo) * n_bins // span, n_bins - 1)


def _mi_bits(x: np.ndarray, y: np.ndarray, n_bins: int) -> tuple[float, float]:
    """MI in bits of two bin-index arrays, and its Miller-Madow bias term."""
    edges = np.arange(n_bins + 1)
    counts, _, _ = np.histogram2d(x, y, bins=(edges, edges))
    total = counts.sum()
    row, col = counts.sum(axis=1), counts.sum(axis=0)
    i, j = np.nonzero(counts)
    c = counts[i, j]
    mi = math.fsum((c / total) * np.log2(c * total / (row[i] * col[j])))
    bias = ((len(c) - np.count_nonzero(row) - np.count_nonzero(col) + 1)
            / (2.0 * total * math.log(2.0)))
    return mi, bias


class RawReference:
    """Independent expectations for one stored twin pair at the CLI defaults."""

    def __init__(self, path_a, path_b, seed: int, step_ns=0.5, range_ns=300.0, n_bins=100):
        la, ha = read_twbm_levels(path_a)
        lb, hb = read_twbm_levels(path_b)
        fs = float(ha["sample_rate_hz"])
        ga, gb = int(ha.get("guard", 0)), int(hb.get("guard", 0))
        n = len(la)
        step = round(step_ns * 1e-9 * fs)
        n_steps = int(math.floor(range_ns / step_ns + 1e-9))
        self.delays_ns = np.arange(-n_steps, n_steps + 1) * step_ns
        ia = exact_bins(la[ga:n - ga], n_bins)
        ib = exact_bins(lb[gb:n - gb], n_bins)

        # single-shift estimator: the whole guard-stripped records, unshifted
        self.single_mi, bias = _mi_bits(ia, ib, n_bins)

        # scan windows: a fixed, b slid by the shift (positive delay: a[i] with b[i - k])
        margin = max(ga, gb + n_steps * step)
        lo, hi = margin, n - margin
        rng = np.random.default_rng(seed)
        self.seeded = sorted(rng.choice(len(self.delays_ns), N_SEEDED_SHIFTS, replace=False))
        self.seeded_mi = []
        for g in self.seeded:
            k = int(round(self.delays_ns[g] / step_ns)) * step
            self.seeded_mi.append(
                _mi_bits(ia[lo - ga:hi - ga], ib[lo - k - gb:hi - k - gb], n_bins)[0])

        # Gaussian-process MI from the FFT cross-correlation c[k] = sum a[i] b[i - k]
        a = la[ga:n - ga].astype(np.float64)
        b = lb[gb:n - gb].astype(np.float64)
        a -= a.mean()
        b -= b.mean()
        m = len(a)
        size = 1 << (2 * m - 1).bit_length()
        xc = np.fft.irfft(np.fft.rfft(a, size) * np.conj(np.fft.rfft(b, size)), size)
        near = np.abs(self.delays_ns) <= GAUSS_WINDOW_NS
        ks = np.rint(self.delays_ns[near] / step_ns).astype(np.int64) * step
        rho = xc[ks % size] / ((m - np.abs(ks)) * a.std() * b.std())
        self.gauss_mask = near
        self.gauss_mi = -0.5 * np.log2(1.0 - rho ** 2)
        self.gauss_tol = GAUSS_REL_TOL * float(self.gauss_mi.max()) + bias


def check_raw(delays_ns: np.ndarray, mi: np.ndarray, single_mi: float,
              ref: RawReference) -> list[tuple[str, str]]:
    if len(delays_ns) != len(ref.delays_ns) or not np.allclose(delays_ns, ref.delays_ns,
                                                                atol=1e-6):
        return [("grid", f"curve has {len(delays_ns)} points, expected {len(ref.delays_ns)}")]
    problems = []
    dev = float(np.max(np.abs(mi[ref.gauss_mask] - ref.gauss_mi)))
    if not dev <= ref.gauss_tol:
        problems.append(("gaussian_mi", f"curve deviates {dev:.3g} bits within "
                         f"+/-{GAUSS_WINDOW_NS:g} ns (tolerance {ref.gauss_tol:.3g})"))
    peak_ns = float(delays_ns[int(np.argmax(mi))])
    if not abs(peak_ns) <= PEAK_DELAY_TOL_NS:
        problems.append(("peak_delay", f"peak at {peak_ns} ns, not within "
                                       f"{PEAK_DELAY_TOL_NS:g} ns of zero"))
    for g, want in zip(ref.seeded, ref.seeded_mi):
        if not abs(mi[g] - want) <= EXACT_TOL_BITS:
            problems.append(("seeded_shift", f"MI at {ref.delays_ns[g]:g} ns is "
                                             f"{float(mi[g])!r}, reference {want!r}"))
    if not abs(single_mi - ref.single_mi) <= EXACT_TOL_BITS:
        problems.append(("single_shift", f"MI {float(single_mi)!r}, "
                                         f"reference {ref.single_mi!r}"))
    return problems
