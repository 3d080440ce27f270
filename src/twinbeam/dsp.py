"""Band-pass filtering and squeezing-spectrum estimation.

The band-pass is realized as zero-phase frequency-domain masking: an rfft is
multiplied by a real mask that is exactly 1 inside the passband, exactly 0
outside it, with raised-cosine transitions of 200 kHz placed just inside the
band edges.  A real symmetric mask has zero group delay at every frequency,
so filtering cannot shift the MI peak.

``bandpass`` filters a stored record, which is not periodic: it pads the
record by reflection, masks the padded record's rfft and crops.  A generated
record is periodic, so its filtered form is the inverse rfft of the mask
times its spectrum on the record's own grid (``band_bins``,
``band_record``); only the bins inside the band are nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft
from scipy import signal

from .errors import InvalidBand, InvalidParams
from .trace import Trace, TracePair, validate_pair

__all__ = [
    "TRANSITION_WIDTH_HZ",
    "FILTER_PAD",
    "band_mask",
    "check_band",
    "filter_guard",
    "bandpass",
    "band_bins",
    "band_record",
    "SpectrumEstimate",
    "SEGMENT_LENGTH",
    "welch_psd",
    "squeezing_spectrum",
    "difference_spectrum",
]

TRANSITION_WIDTH_HZ = 200e3
# Reflection padding per side; also the guard added to filtered traces.
FILTER_PAD = 32768
# Default Welch segment of the difference spectrum (samples).
SEGMENT_LENGTH: int = 2 ** 14


def band_mask(freqs: np.ndarray, f_lo: float, f_hi: float,
              width: float = TRANSITION_WIDTH_HZ) -> np.ndarray:
    """Real zero-phase band-pass mask with raised-cosine transitions.

    Zero outside [f_lo, f_hi], unity on [f_lo + width, f_hi - width].
    """
    f = np.asarray(freqs, dtype=np.float64)
    h = np.zeros_like(f)
    h[(f >= f_lo + width) & (f <= f_hi - width)] = 1.0
    up = (f >= f_lo) & (f < f_lo + width)
    h[up] = 0.5 * (1.0 - np.cos(np.pi * (f[up] - f_lo) / width))
    down = (f > f_hi - width) & (f <= f_hi)
    h[down] = 0.5 * (1.0 - np.cos(np.pi * (f_hi - f[down]) / width))
    return h


def check_band(f_lo: float, f_hi: float, fs: float) -> None:
    """Raise InvalidBand unless [f_lo, f_hi] Hz is a band ``bandpass`` can pass."""
    if not (0.0 < f_lo < f_hi < 0.5 * fs):
        raise InvalidBand(
            f"band [{f_lo:g}, {f_hi:g}] Hz must satisfy 0 < f_lo < f_hi < {0.5 * fs:g}"
        )
    if f_hi - f_lo <= 2.0 * TRANSITION_WIDTH_HZ:
        raise InvalidBand("band narrower than twice the transition width")


def filter_guard(n: int) -> int:
    """Guard ``bandpass`` gives an n-sample record: its reflection padding per side."""
    return min(FILTER_PAD, n - 1)


def bandpass(trace: Trace, f_lo: float, f_hi: float) -> Trace:
    """Zero-phase band-pass of a trace to [f_lo, f_hi].

    Content outside the band is fully suppressed (the mask is identically
    zero there); the flat passband has no ripple.  The returned trace carries
    an enlarged guard covering the filter transient at both ends.
    """
    fs = trace.spec.sample_rate
    check_band(f_lo, f_hi, fs)
    x = trace.samples
    pad = filter_guard(len(x))
    xp = np.pad(x, pad, mode="reflect")
    n_fft = sfft.next_fast_len(len(xp), real=True)
    spec = sfft.rfft(xp, n_fft)
    freqs = sfft.rfftfreq(n_fft, d=1.0 / fs)
    spec *= band_mask(freqs, f_lo, f_hi)
    y = sfft.irfft(spec, n_fft)[pad : pad + len(x)]
    # The mask kills DC on the padded record; cropping leaves a tiny residual
    # mean, which is re-zeroed to keep the trace contract exact.
    y = y - y.mean()
    return trace.with_samples(y, guard=max(trace.guard, pad))


def band_bins(n: int, fs: float, f_lo: float, f_hi: float) -> tuple[slice, np.ndarray]:
    """The rfft bins of an n-sample record that [f_lo, f_hi] covers, and ``band_mask`` on them."""
    check_band(f_lo, f_hi, fs)
    bins = slice(int(np.floor(f_lo * n / fs)), int(np.ceil(f_hi * n / fs)) + 1)
    return bins, band_mask(sfft.rfftfreq(n, d=1.0 / fs)[bins], f_lo, f_hi)


def band_record(spectrum: np.ndarray, bins: slice, n: int) -> np.ndarray:
    """The n-sample record whose rfft is ``spectrum`` on ``bins`` and zero elsewhere."""
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
        sel = (self.frequencies >= f_lo) & (self.frequencies <= f_hi)
        if not np.any(sel):
            raise InvalidParams("band contains no spectral bins")
        return float(10.0 * np.log10(self.psd[sel].mean() / self.reference_psd[sel].mean()))


def welch_psd(x: np.ndarray, fs: float, segment_length: int):
    """Welch PSD, Hann window, 50 % overlap, density scaling."""
    freqs, psd = signal.welch(
        x,
        fs=fs,
        window="hann",
        nperseg=segment_length,
        noverlap=segment_length // 2,
        detrend="constant",
        scaling="density",
    )
    return freqs, psd


def check_segment(segment_length: int, n_samples: int) -> None:
    """Raise InvalidParams unless the Welch segment is a power of two <= n_samples."""
    if not (segment_length > 0 and segment_length & (segment_length - 1) == 0):
        raise InvalidParams("segment_length must be a power of two")
    if segment_length > n_samples:
        raise InvalidParams("segment_length exceeds the trace length")


def squeezing_spectrum(difference: np.ndarray, reference: np.ndarray, fs: float,
                       segment_length: int = SEGMENT_LENGTH) -> SpectrumEstimate:
    """PSD of an intensity-difference record against a reference difference record.

    The squeezing curve is the dB ratio of the two Welch estimates.  The
    reference is normally the difference of an independent coherent pair at
    matched powers (the shot-noise level).
    """
    check_segment(segment_length, min(len(difference), len(reference)))
    freqs, psd = welch_psd(difference, fs, segment_length)
    _, ref = welch_psd(reference, fs, segment_length)
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
    validate_pair(pair.a, pair.b)
    validate_pair(reference.a, reference.b)
    if pair.a.spec.sample_rate != reference.a.spec.sample_rate:
        raise InvalidParams("pair and reference must share a sample rate")
    return squeezing_spectrum(pair.a.samples - pair.b.samples,
                              reference.a.samples - reference.b.samples,
                              pair.a.spec.sample_rate, segment_length)
