"""Scatterer + integrating-sphere channel applied to the probe arm.

Stage order is fixed: optical loss, then the exponential delay kernel, then
detector electronic noise.  The order matters mildly (the kernel low-passes
whatever noise precedes it), so it is pinned both here and in the analytic
predictor that calibrates the default transmission.

The delay stage convolves the photocurrent with the discretized two-sided
exponential density (deterministic convolution, not per-photon sampling): at
these fluxes the photocurrent is the ensemble average over photon delays.
"""

from __future__ import annotations

import numpy as np
from scipy import signal

from .errors import InvalidParams, InvalidTransmission, KernelTooWide
from .source import NOISE_BANDWIDTH_HZ, synth_noise, _white
from .trace import ChannelParams, Trace, TracePair

__all__ = [
    "KERNEL_TRUNCATION_SIGMAS",
    "discretize_kernel",
    "apply_loss",
    "apply_is_delay",
    "apply_electronic_noise",
    "apply_channel",
]

# Kernel support is tau0 +/- this many sigma, renormalized after truncation
# (two-sided exponential tails leave < 1e-5 outside +/- 12 sigma).
KERNEL_TRUNCATION_SIGMAS = 12.0


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(np.random.SeedSequence(seed))


def apply_loss(trace: Trace, transmission: float, seed) -> Trace:
    """Beam-splitter loss: scale by t, add vacuum noise of PSD t(1-t) x shot.

    The shot PSD is the trace's own bookkeeping value; the output carries the
    scaled mean level and shot PSD of the attenuated beam.
    """
    if not (0.0 < transmission <= 1.0):
        raise InvalidTransmission(f"transmission must be in (0, 1], got {transmission}")
    if transmission == 1.0:
        return trace
    if trace.shot_psd is None:
        raise InvalidParams("trace carries no shot_psd, so its loss noise is unknown")
    nbw = trace.noise_bandwidth or NOISE_BANDWIDTH_HZ
    noise = synth_noise(_rng(seed), len(trace.samples), trace.spec.sample_rate,
                        _white(transmission * (1.0 - transmission) * trace.shot_psd, nbw))
    return trace.with_samples(
        transmission * trace.samples + noise,
        mean_level=transmission * trace.mean_level,
        shot_psd=transmission * trace.shot_psd,
    )


def discretize_kernel(sample_rate: float, tau0: float, sigma: float):
    """Kernel taps on the sample grid and the lag index of the first tap.

    Taps cover tau0 +/- KERNEL_TRUNCATION_SIGMAS * sigma and sum to exactly 1.
    """
    dt = 1.0 / sample_rate
    k_min = int(np.floor((tau0 - KERNEL_TRUNCATION_SIGMAS * sigma) / dt))
    k_max = int(np.ceil((tau0 + KERNEL_TRUNCATION_SIGMAS * sigma) / dt))
    lags = np.arange(k_min, k_max + 1)
    taps = np.exp(-np.abs(lags * dt - tau0) / sigma)
    taps /= taps.sum()
    return taps, k_min


def apply_is_delay(trace: Trace, params: ChannelParams) -> Trace:
    """Convolve the fluctuation with the normalized exponential delay kernel.

    Output length equals input length: the trace is extended by reflection
    for one kernel length and cropped back; the guard grows by twice the
    kernel half-width so transients never enter downstream statistics.
    A kernel narrower than one sample degenerates to a pure integer delay.
    """
    fs = trace.spec.sample_rate
    n = len(trace.samples)
    span = abs(params.tau0) + KERNEL_TRUNCATION_SIGMAS * params.sigma
    if span * fs > 0.25 * n:
        raise KernelTooWide(
            f"kernel span {span:g} s is comparable to the trace duration "
            f"{trace.spec.duration:g} s"
        )
    guard_extra = int(np.ceil(2.0 * span * fs))

    if KERNEL_TRUNCATION_SIGMAS * params.sigma * fs < 0.5:
        # Delta-kernel limit: pure delay by the nearest whole sample.  A
        # circular roll preserves the zero mean exactly; the wrapped samples
        # fall inside the enlarged guard.
        shift = int(round(params.tau0 * fs))
        if shift == 0:
            return trace
        y = np.roll(trace.samples, shift)  # y[i] = x[i - shift]
        return trace.with_samples(y, guard=trace.guard + guard_extra)

    taps, k_min = discretize_kernel(fs, params.tau0, params.sigma)
    k_max = k_min + len(taps) - 1
    lpad, rpad = max(k_max, 0), max(-k_min, 0)
    xp = np.pad(trace.samples, (lpad, rpad), mode="reflect")
    # y[i] = sum_j taps[j] * x[i - (k_min + j)]; with xp[m] = x[m - lpad]
    # this is the full convolution of xp with taps, offset by lpad - k_min.
    y = signal.fftconvolve(xp, taps, mode="full")[lpad - k_min : lpad - k_min + n]
    # Reflection cropping leaks a small mean; the fluctuation stays DC-free.
    y = y - y.mean()
    return trace.with_samples(np.ascontiguousarray(y),
                              guard=trace.guard + guard_extra)


def apply_electronic_noise(trace: Trace, rms: float, seed) -> Trace:
    """Add independent Gaussian detector noise of the given total rms (levels)."""
    if rms < 0:
        raise InvalidParams(f"rms must be >= 0, got {rms}")
    if rms == 0:
        return trace
    nbw = trace.noise_bandwidth or NOISE_BANDWIDTH_HZ
    noise = synth_noise(_rng(seed), len(trace.samples), trace.spec.sample_rate,
                        _white(rms ** 2 / nbw, nbw))
    return trace.with_samples(trace.samples + noise)


def apply_channel(pair: TracePair, params: ChannelParams, seed) -> TracePair:
    """Loss, delay smearing, and electronic noise on arm a; arm b untouched."""
    if isinstance(seed, np.random.SeedSequence):
        ss = seed.spawn(2)
    else:
        ss = np.random.SeedSequence(seed).spawn(2)
    a = apply_loss(pair.a, params.power_transmission, seed=ss[0])
    a = apply_is_delay(a, params)
    a = apply_electronic_noise(a, params.electronic_noise_rms, seed=ss[1])
    return TracePair(a=a, b=pair.b)
