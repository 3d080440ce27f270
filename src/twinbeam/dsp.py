"""Band-pass filtering and squeezing-spectrum estimation.

The band-pass is realized as zero-phase frequency-domain masking: an rfft is
multiplied by a real mask that is exactly 1 inside the passband, exactly 0
outside it, with raised-cosine transitions of 200 kHz placed just inside the
band edges.  A real symmetric mask has zero group delay at every frequency,
so filtering cannot shift the MI peak.

One definition serves both kinds of record: ``band_bins`` gives the rfft
bins a band covers on an n-point grid and the mask on them, and
``band_record`` inverse-transforms a spectrum that is zero off those bins.
``bandpass`` filters a stored record, which is not periodic: it pads the
record by reflection, masks the padded record's rfft on its ``n_fft`` grid
and crops, so a record needs more than 2 x FILTER_PAD samples.  A generated
record is periodic, so its filtered form is the same mask on the record's
own grid (``pipeline.run_pipeline``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParams
from .trace import Trace, TracePair

__all__ = [
    "TRANSITION_WIDTH_HZ",
    "FILTER_PAD",
    "band_mask",
    "check_band",
    "rfft_freqs",
    "bandpass",
    "band_bins",
    "band_record",
    "SpectrumEstimate",
    "SEGMENT_LENGTH",
    "welch_psd",
    "check_segment",
    "check_segment_band",
    "squeezing_spectrum",
    "squeezing_estimate",
    "difference_spectrum",
]

TRANSITION_WIDTH_HZ = 200e3
# Reflection padding per side; also the guard added to filtered traces.
FILTER_PAD = 32768
# Default Welch segment of the difference spectrum (samples).
SEGMENT_LENGTH: int = 2 ** 14


def band_mask(freqs: np.ndarray, f_lo: float, f_hi: float) -> np.ndarray:
    """Real zero-phase band-pass mask with raised-cosine transitions.

    Zero outside [f_lo, f_hi], unity on [f_lo + width, f_hi - width], where
    width is TRANSITION_WIDTH_HZ.
    """
    width = TRANSITION_WIDTH_HZ
    f = np.asarray(freqs, dtype=np.float64)
    h = np.zeros_like(f)
    h[(f >= f_lo + width) & (f <= f_hi - width)] = 1.0
    up = (f >= f_lo) & (f < f_lo + width)
    h[up] = 0.5 * (1.0 - np.cos(np.pi * (f[up] - f_lo) / width))
    down = (f > f_hi - width) & (f <= f_hi)
    h[down] = 0.5 * (1.0 - np.cos(np.pi * (f_hi - f[down]) / width))
    return h


def check_band(f_lo: float, f_hi: float, fs: float) -> None:
    """Raise InvalidParams unless [f_lo, f_hi] Hz is a band ``bandpass`` can pass."""
    if not (0.0 < f_lo < f_hi < 0.5 * fs):
        raise InvalidParams(
            f"band [{f_lo:g}, {f_hi:g}] Hz must satisfy 0 < f_lo < f_hi < {0.5 * fs:g}"
        )
    if f_hi - f_lo <= 2.0 * TRANSITION_WIDTH_HZ:
        raise InvalidParams("band narrower than twice the transition width")


def rfft_freqs(n: int, fs: float, bins: slice) -> np.ndarray:
    """``rfftfreq(n, 1 / fs)[bins]`` for a unit-step slice, computed on those bins only."""
    return np.arange(*bins.indices(n // 2 + 1)[:2]) * (1.0 / (n * (1.0 / fs)))


def bandpass(trace: Trace, f_lo: float, f_hi: float) -> Trace:
    """Zero-phase band-pass of a trace to [f_lo, f_hi].

    Content outside the band is fully suppressed (the mask is identically
    zero there); the flat passband has no ripple.  The returned trace carries
    a guard of FILTER_PAD, covering the filter transient at both ends, so the
    record must be longer than twice that.
    """
    from scipy import fft as sfft

    x = trace.samples
    n_fft = sfft.next_fast_len(len(x) + 2 * FILTER_PAD, real=True)
    bins, mask = band_bins(n_fft, trace.spec.sample_rate, f_lo, f_hi)
    if len(x) <= 2 * FILTER_PAD:
        raise InvalidParams(f"a record of {len(x)} samples is too short to band-pass: "
                            f"its guard needs more than {2 * FILTER_PAD}")
    xp = np.pad(x, FILTER_PAD, mode="reflect")
    y = band_record(mask * sfft.rfft(xp, n_fft)[bins], bins, n_fft)
    y = y[FILTER_PAD : FILTER_PAD + len(x)]
    # The mask kills DC on the padded record; cropping leaves a tiny residual
    # mean, which is re-zeroed to keep the trace contract exact.
    y = y - y.mean()
    return replace(trace, samples=y, guard=max(trace.guard, FILTER_PAD))


def band_bins(n: int, fs: float, f_lo: float, f_hi: float) -> tuple[slice, np.ndarray]:
    """The rfft bins of an n-sample record that [f_lo, f_hi] covers, and ``band_mask`` on them."""
    check_band(f_lo, f_hi, fs)
    bins = slice(int(np.floor(f_lo * n / fs)), int(np.ceil(f_hi * n / fs)) + 1)
    return bins, band_mask(rfft_freqs(n, fs, bins), f_lo, f_hi)


def band_record(spectrum: np.ndarray, bins: slice, n: int) -> np.ndarray:
    """The n-sample record whose rfft is ``spectrum`` on ``bins`` and zero elsewhere."""
    from scipy import fft as sfft

    full = np.zeros(n // 2 + 1, dtype=np.complex128)
    full[bins] = spectrum
    return sfft.irfft(full, n, overwrite_x=True)


@dataclass(frozen=True)
class SpectrumEstimate:
    """PSD of an intensity difference against a shot-noise reference."""

    frequencies: np.ndarray
    psd: np.ndarray
    reference_psd: np.ndarray
    squeezing_db_curve: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=np.float64)
        if np.any(np.diff(f) <= 0) or np.any(f < 0):
            raise InvalidParams("frequencies must be nonnegative and increasing")
        if np.any(np.asarray(self.psd) < 0) or np.any(np.asarray(self.reference_psd) < 0):
            raise InvalidParams("PSD values must be nonnegative")

    def in_band_mean_db(self, f_lo: float, f_hi: float) -> float:
        """Ratio of band-averaged powers, in dB."""
        sel = _in_band(self.frequencies, f_lo, f_hi)
        if not np.any(sel):
            raise InvalidParams("band contains no spectral bins")
        return float(10.0 * np.log10(self.psd[sel].mean() / self.reference_psd[sel].mean()))


# Samples of Welch segments per rfft call: a batch's spectra stay a few MB
# instead of one complex array for every segment of the record.
_WELCH_BATCH = 1 << 18


def welch_psd(x: np.ndarray, fs: float, segment_length: int):
    """Welch PSD, Hann window, 50 % overlap, density scaling.

    The same estimate as scipy's ``welch`` with ``window="hann"``,
    ``noverlap=segment_length // 2`` and ``detrend="constant"``: a trailing
    partial segment is dropped, and the one-sided PSD doubles every bin but
    DC and, for an even segment, Nyquist.  Raises InvalidParams unless the
    segment is a power of two no longer than ``x`` (``check_segment``).
    """
    from scipy import fft as sfft

    check_segment(segment_length, len(x))
    seg = segment_length
    segments = np.lib.stride_tricks.sliding_window_view(
        np.asarray(x, dtype=np.float64), seg)[:: seg - seg // 2]
    # scipy's periodic Hann window, bit for bit (of length 1 it is [1]),
    # scaled to density before the FFT as scipy scales it.
    win = (0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, seg + 1)[:-1])
           if seg > 1 else np.ones(1))
    win /= np.sqrt(fs * (win * win).sum())
    power = np.zeros(seg // 2 + 1)
    rows = max(1, _WELCH_BATCH // seg)
    for start in range(0, len(segments), rows):
        batch = segments[start : start + rows]
        z = sfft.rfft((batch - batch.mean(axis=1, keepdims=True)) * win,
                      axis=1, overwrite_x=True)
        power += (z.real ** 2 + z.imag ** 2).sum(axis=0)
    psd = power / len(segments)
    psd[1 : None if seg % 2 else -1] *= 2.0
    return rfft_freqs(seg, fs, slice(None)), psd


def check_segment(segment_length: int, n_samples: int) -> None:
    """Raise InvalidParams unless the Welch segment is a power of two <= n_samples."""
    if not (segment_length > 0 and segment_length & (segment_length - 1) == 0):
        raise InvalidParams("segment_length must be a power of two")
    if segment_length > n_samples:
        raise InvalidParams("segment_length exceeds the trace length")


def check_segment_band(segment_length: int, fs: float, f_lo: float, f_hi: float) -> None:
    """Raise InvalidParams unless a bin of the Welch segment's grid lies in [f_lo, f_hi].

    The bins are the multiples of fs / segment_length up to Nyquist, which
    ``SpectrumEstimate.in_band_mean_db`` averages over the band.
    """
    if not np.any(_in_band(rfft_freqs(segment_length, fs, slice(None)), f_lo, f_hi)):
        raise InvalidParams(f"band [{f_lo / 1e6:g}, {f_hi / 1e6:g}] MHz holds no bin of a "
                            f"{segment_length}-sample Welch segment: its bins are "
                            f"{fs / segment_length / 1e6:g} MHz apart, up to {fs / 2e6:g} MHz")


def _in_band(freqs: np.ndarray, f_lo: float, f_hi: float) -> np.ndarray:
    return (freqs >= f_lo) & (freqs <= f_hi)


def squeezing_spectrum(difference: np.ndarray, reference: np.ndarray, fs: float,
                       segment_length: int) -> SpectrumEstimate:
    """PSD of an intensity-difference record against a reference difference record.

    ``squeezing_estimate`` of the two Welch estimates.  The reference is
    normally the difference of an independent coherent pair at matched
    powers (the shot-noise level).
    """
    return squeezing_estimate(welch_psd(difference, fs, segment_length),
                              welch_psd(reference, fs, segment_length))


def squeezing_estimate(welch, reference_welch) -> SpectrumEstimate:
    """The squeezing curve: the dB ratio of two ``welch_psd`` results on one grid."""
    freqs, psd = welch
    ref = reference_welch[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        curve = 10.0 * np.log10(np.where(ref > 0, psd / np.where(ref > 0, ref, 1.0), np.nan))
    return SpectrumEstimate(
        frequencies=freqs,
        psd=psd,
        reference_psd=ref,
        squeezing_db_curve=curve,
    )


def difference_spectrum(
    pair: TracePair,
    reference: TracePair,
    segment_length: int = SEGMENT_LENGTH,
) -> SpectrumEstimate:
    """Intensity-difference PSD of a pair against a reference pair.

    Both pairs are reduced to (a - b) and passed to ``squeezing_spectrum``.
    """
    if pair.a.spec.sample_rate != reference.a.spec.sample_rate:
        raise InvalidParams("pair and reference must share a sample rate")
    return squeezing_spectrum(pair.a.samples - pair.b.samples,
                              reference.a.samples - reference.b.samples,
                              pair.a.spec.sample_rate, segment_length)
