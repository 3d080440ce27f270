"""Synthetic twin-beam, split-thermal, and split-coherent trace generation.

All processes are stationary Gaussian and synthesized in the frequency
domain: each rfft bin gets an independent complex normal deviate scaled to
the target one-sided PSD, so a given (params, spec, seed) is bit-reproducible
and the PSD is exact by construction.

Model structure for the twin pair:

* a shared fluctuation s(t) enters both arms identically, so the intensity
  difference cancels it exactly;
* each arm adds independent white noise with PSD 10^(-S/10) x its shot PSD
  (S the squeezing in dB), which pins the difference PSD at S dB below the
  coherent-pair reference at matched powers;
* the shared PSD amplitude is set by the per-beam excess noise (dB above
  shot, band-averaged over DESIGN_BAND, 1.5-3.5 MHz).

``NoiseBudget.from_source`` works out these levels (each arm's shot PSD and
the shared PSD amplitude) once; ``gen_twin`` synthesizes that budget and
``design.InBandModel`` predicts the filtered statistics from it.

The shared PSD is a Gaussian of correlation scale sigma0 * sqrt(2) (so the
raw delay-MI curve tracks a Gaussian of scale sigma0) with a smooth notch at
mid-band.  The notch moves in-band correlated weight toward the band edges,
where the post-filter delay oscillation self-cancels; without it the sharp
band-pass would imprint secondary MI lobes of more than half the peak height
near 200 ns, which no measured curve shows.

White noises are band-limited to NOISE_BANDWIDTH_HZ (a detection-bandwidth
stand-in); truly Nyquist-wide shot noise would bury the unfiltered delay
curve of a 4-million-sample record below the estimator bias floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import InvalidParams
from .trace import DigitizerSpec, SourceParams, Trace, TracePair

__all__ = [
    "NOISE_BANDWIDTH_HZ",
    "SHOT_RMS_LEVELS",
    "DESIGN_BAND",
    "NoiseBudget",
    "shared_psd_shape",
    "synth_noise",
    "gen_twin",
    "gen_split_thermal",
    "gen_split_coherent",
    "quantize",
    "QuantizeResult",
]

# Detection bandwidth of every synthesized white noise (Hz).
NOISE_BANDWIDTH_HZ = 300e6
# Shot-noise rms of the probe arm over the full noise bandwidth, in levels.
# Sized so fluctuation records span roughly 100 digitizer levels.
SHOT_RMS_LEVELS = 10.0
# Band anchoring the excess-noise normalization (the analysis band), and the
# grid its band averages are taken on.
DESIGN_BAND = (1.5e6, 3.5e6)
_BAND_GRID = np.linspace(DESIGN_BAND[0], DESIGN_BAND[1], 2001)
# Mid-band notch of the shared spectrum: depth, width, center.
NOTCH_DEPTH = 0.9
NOTCH_SIGMA_HZ = 0.6e6
NOTCH_CENTER_HZ = 2.5e6
# Mean record level of the probe arm (8-bit mid-scale).
MEAN_LEVEL_A = 128.0
# Low-pass corner of the thermal-like split-conjugate process.
THERMAL_CORNER_HZ = 0.5e6
# In-band excess of the thermal-like process above shot noise, dB.
THERMAL_EXCESS_DB = 6.0


def shared_psd_shape(f: np.ndarray, sigma0: float) -> np.ndarray:
    """Unnormalized one-sided PSD shape of the shared twin fluctuation."""
    f = np.asarray(f, dtype=np.float64)
    gauss = np.exp(-4.0 * np.pi ** 2 * f ** 2 * sigma0 ** 2)
    notch = 1.0 - NOTCH_DEPTH * np.exp(-0.5 * ((f - NOTCH_CENTER_HZ) / NOTCH_SIGMA_HZ) ** 2)
    return gauss * notch


def _shot_psds(params: SourceParams, noise_bandwidth: float) -> tuple[float, float]:
    """Shot PSDs (level^2/Hz) of arms a and b; arm b's scales with its power."""
    shot_a = SHOT_RMS_LEVELS ** 2 / noise_bandwidth
    return shot_a, shot_a * params.mean_power_b / params.mean_power_a


def _mean_level_b(params: SourceParams) -> float:
    return MEAN_LEVEL_A * params.mean_power_b / params.mean_power_a


@dataclass(frozen=True)
class NoiseBudget:
    """Shot PSDs per arm (level^2/Hz) and the amplitude of the shared PSD.

    ``shared_scale`` multiplies ``shared_psd_shape`` so that each arm's excess
    over the mean shot PSD averages ``excess_noise_db`` over DESIGN_BAND.
    ``gen_twin`` synthesizes this budget and ``design`` predicts from it.
    """

    shot_variance_a: float
    shot_variance_b: float
    shared_scale: float

    def __post_init__(self):
        if self.shot_variance_a < 0 or self.shot_variance_b < 0 or self.shared_scale < 0:
            raise InvalidParams("noise levels must be nonnegative")

    @classmethod
    def from_source(cls, params: SourceParams,
                    noise_bandwidth: float = NOISE_BANDWIDTH_HZ) -> "NoiseBudget":
        shot_a, shot_b = _shot_psds(params, noise_bandwidth)
        x_lin = 10.0 ** (params.excess_noise_db / 10.0)
        s_lin = 10.0 ** (-params.squeezing_db / 10.0)
        shape_mean = float(shared_psd_shape(_BAND_GRID, params.sigma0).mean())
        if x_lin <= s_lin:
            raise InvalidParams(
                "excess_noise_db too small: per-arm noise would fall below the "
                "independent (squeezing) noise floor"
            )
        return cls(shot_variance_a=shot_a, shot_variance_b=shot_b,
                   shared_scale=(x_lin - s_lin) * (0.5 * (shot_a + shot_b)) / shape_mean)


def synth_noise(rng: np.random.Generator, n: int, fs: float,
                psd: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Zero-mean Gaussian noise with one-sided PSD psd(f), length n."""
    freqs = np.fft.rfftfreq(n, d=1.0 / fs)
    amp = np.sqrt(np.maximum(psd(freqs), 0.0) * fs * n / 2.0)
    z = rng.standard_normal(len(freqs)) + 1j * rng.standard_normal(len(freqs))
    z[0] = 0.0  # zero-mean record
    if n % 2 == 0:
        z[-1] = np.sqrt(2.0) * z[-1].real
    return np.fft.irfft(amp * z / np.sqrt(2.0), n)


def _white(level: float, bandwidth: float) -> Callable[[np.ndarray], np.ndarray]:
    return lambda f: np.where(f <= bandwidth, level, 0.0)


def gen_twin(params: SourceParams, spec: DigitizerSpec, seed: int,
             noise_bandwidth: Optional[float] = None) -> TracePair:
    """Quantum-correlated twin pair (probe / conjugate).

    The pair's intensity-difference PSD sits squeezing_db below the coherent
    reference at matched powers across the analysis band, each arm shows
    excess_noise_db above its shot level in band, and the delay-MI envelope
    follows a Gaussian of scale sigma0.
    """
    nbw = float(noise_bandwidth or NOISE_BANDWIDTH_HZ)
    if nbw > 0.5 * spec.sample_rate:
        raise InvalidParams("noise bandwidth exceeds Nyquist")
    budget = NoiseBudget.from_source(params, nbw)
    s_lin = 10.0 ** (-params.squeezing_db / 10.0)

    streams = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)]
    shared = synth_noise(streams[0], spec.n_samples, spec.sample_rate,
                         lambda f: budget.shared_scale * shared_psd_shape(f, params.sigma0))
    noise_a = synth_noise(streams[1], spec.n_samples, spec.sample_rate,
                          _white(s_lin * budget.shot_variance_a, nbw))
    noise_b = synth_noise(streams[2], spec.n_samples, spec.sample_rate,
                          _white(s_lin * budget.shot_variance_b, nbw))

    a = Trace(samples=shared + noise_a, spec=spec, label="probe",
              mean_level=MEAN_LEVEL_A, shot_psd=budget.shot_variance_a,
              noise_bandwidth=nbw)
    b = Trace(samples=shared + noise_b, spec=spec, label="conjugate",
              mean_level=_mean_level_b(params), shot_psd=budget.shot_variance_b,
              noise_bandwidth=nbw)
    return TracePair(a=a, b=b)


def gen_split_thermal(params: SourceParams, spec: DigitizerSpec, seed: int,
                      thermal_excess_db: float = THERMAL_EXCESS_DB,
                      noise_bandwidth: Optional[float] = None) -> TracePair:
    """Conjugate beam split 50/50: classical low-frequency correlations only.

    A low-pass (corner below the analysis band) Gaussian process models the
    thermal-like conjugate fluctuation; each split output receives half of it
    plus independent shot-scale noise at its own (halved) power.  With zero
    thermal excess this degenerates to the split-coherent case.
    """
    nbw = float(noise_bandwidth or NOISE_BANDWIDTH_HZ)
    if thermal_excess_db < 0:
        raise InvalidParams("thermal_excess_db must be >= 0")
    _, shot_full = _shot_psds(params, nbw)
    x_lin = 10.0 ** (thermal_excess_db / 10.0)
    lorentz = lambda f: 1.0 / (1.0 + (f / THERMAL_CORNER_HZ) ** 2)
    amp = (x_lin - 1.0) * shot_full / float(lorentz(_BAND_GRID).mean())

    streams = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)]
    thermal = synth_noise(streams[0], spec.n_samples, spec.sample_rate,
                          lambda f: amp * lorentz(f))
    shot_half = 0.5 * shot_full  # shot PSD at half the optical power
    q1 = synth_noise(streams[1], spec.n_samples, spec.sample_rate, _white(shot_half, nbw))
    q2 = synth_noise(streams[2], spec.n_samples, spec.sample_rate, _white(shot_half, nbw))

    mean_half = 0.5 * _mean_level_b(params)
    a = Trace(samples=0.5 * thermal + q1, spec=spec, label="conjugate-split-1",
              mean_level=mean_half, shot_psd=shot_half, noise_bandwidth=nbw)
    b = Trace(samples=0.5 * thermal + q2, spec=spec, label="conjugate-split-2",
              mean_level=mean_half, shot_psd=shot_half, noise_bandwidth=nbw)
    return TracePair(a=a, b=b)


def gen_split_coherent(params: SourceParams, spec: DigitizerSpec, seed: int,
                       noise_bandwidth: Optional[float] = None,
                       identical: bool = False) -> TracePair:
    """Two independent shot-noise-limited traces at the configured powers.

    ``identical`` is a debug switch duplicating one realization into both
    arms (the perfect-correlation limit for estimator checks).
    """
    nbw = float(noise_bandwidth or NOISE_BANDWIDTH_HZ)
    budget = NoiseBudget.from_source(params, nbw)
    ss = np.random.SeedSequence(seed).spawn(2)
    rng_a = np.random.default_rng(ss[0])
    rng_b = rng_a if identical else np.random.default_rng(ss[1])
    xa = synth_noise(rng_a, spec.n_samples, spec.sample_rate,
                     _white(budget.shot_variance_a, nbw))
    if identical:
        xb = xa * np.sqrt(budget.shot_variance_b / budget.shot_variance_a)
    else:
        xb = synth_noise(rng_b, spec.n_samples, spec.sample_rate,
                         _white(budget.shot_variance_b, nbw))
    a = Trace(samples=xa, spec=spec, label="coherent-A", mean_level=MEAN_LEVEL_A,
              shot_psd=budget.shot_variance_a, noise_bandwidth=nbw)
    b = Trace(samples=xb, spec=spec, label="coherent-B", mean_level=_mean_level_b(params),
              shot_psd=budget.shot_variance_b, noise_bandwidth=nbw)
    return TracePair(a=a, b=b)


class QuantizeResult(NamedTuple):
    trace: Trace
    clip_fraction: float


def quantize(trace: Trace) -> QuantizeResult:
    """Round the raw record onto the digitizer's level grid.

    The fluctuation plus mean level is rounded to the nearest of 2**bit_depth
    integer levels; values beyond the range clip to the extreme levels.
    Clipping is reported, never fatal.
    """
    if not np.all(np.isfinite(trace.samples)):
        raise InvalidParams("trace has non-finite samples")
    raw = trace.samples + trace.mean_level
    top = float(trace.spec.n_levels - 1)
    clipped = np.count_nonzero((raw < -0.5) | (raw > top + 0.5))
    q = np.clip(np.rint(raw), 0.0, top)
    new_mean = float(q.mean())
    out = trace.with_samples(q - new_mean, mean_level=new_mean)
    return QuantizeResult(trace=out, clip_fraction=clipped / len(raw))
