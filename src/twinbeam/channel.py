"""Scatterer + integrating-sphere channel applied to the probe arm.

One chain, on arm a's rfft: H * (t * A + L) + E (``channel_spectrum``).  The
stage order is fixed: optical loss (transmission t and its vacuum noise L),
then the exponential delay kernel H, then detector electronic noise E.  The
order matters mildly (the kernel low-passes the loss noise).  It is pinned
here only: the analytic predictor that calibrates the default transmission
(``design.InBandModel``) reads the same chain and the same loss and
electronic PSDs.

The delay stage convolves the photocurrent with the discretized two-sided
exponential density (deterministic convolution, not per-photon sampling): at
these fluxes the photocurrent is the ensemble average over photon delays.
Generated records are periodic (``source``), so the convolution is circular:
H is the DFT of ``discretize_kernel``'s taps placed circularly
(``kernel_response``), and the samples it wraps round a record's ends lie in
the guard the delay adds.  ``run_pipeline`` runs the chain over the band's
bins; ``apply_channel`` runs it over a record's whole rfft, and
``apply_is_delay`` is the delay alone.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

import numpy as np

from .errors import InvalidParams
from .source import NOISE_BANDWIDTH_HZ, noise_spectrum, _white
from .trace import DC_TOLERANCE, ChannelParams, DigitizerSpec, Trace, TracePair, holds_mean

__all__ = [
    "KERNEL_TRUNCATION_SIGMAS",
    "discretize_kernel",
    "delay_taps",
    "channel_guard",
    "kernel_response",
    "apply_is_delay",
    "channel_spectrum",
    "apply_channel",
]

# Kernel support is tau0 +/- this many sigma, renormalized after truncation
# (two-sided exponential tails leave < 1e-5 outside +/- 12 sigma).
KERNEL_TRUNCATION_SIGMAS = 12.0


def _loss_psd(transmission: float, shot_psd):
    """PSD of the vacuum noise a beam splitter of this transmission adds; None at t = 1."""
    if not (0.0 < transmission <= 1.0):
        raise InvalidParams(f"transmission must be in (0, 1], got {transmission}")
    if transmission == 1.0:
        return None
    if shot_psd is None:
        raise InvalidParams("trace carries no shot_psd, so its loss noise is unknown")
    return _white(transmission * (1.0 - transmission) * shot_psd)


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


def delay_taps(params: ChannelParams, sample_rate: float, n: int):
    """The delay kernel on an n-sample record: taps, lag of the first tap, guard added.

    A kernel narrower than one sample degenerates to one unit tap at the
    nearest whole-sample delay; a zero delay is the identity and adds no guard.
    """
    span = abs(params.tau0) + KERNEL_TRUNCATION_SIGMAS * params.sigma
    if span * sample_rate > 0.25 * n:
        raise InvalidParams(
            f"kernel span {span:g} s is comparable to the trace duration "
            f"{n / sample_rate:g} s"
        )
    guard_extra = int(np.ceil(2.0 * span * sample_rate))
    if KERNEL_TRUNCATION_SIGMAS * params.sigma * sample_rate < 0.5:
        shift = int(round(params.tau0 * sample_rate))
        return np.ones(1), shift, guard_extra if shift else 0
    taps, k_min = discretize_kernel(sample_rate, params.tau0, params.sigma)
    return taps, k_min, guard_extra


def channel_guard(params: ChannelParams, spec: DigitizerSpec) -> int:
    """The guard the channel adds to arm a of ``spec``'s record, checked there before any draw."""
    _electronic_psd(params.electronic_noise_rms, spec)
    return delay_taps(params, spec.sample_rate, spec.n_samples)[2]


def _electronic_psd(rms: float, spec: DigitizerSpec):
    """PSD of detector noise of total rms ``rms`` (levels); None at zero rms.

    Refuses an rms whose arm cannot hold its mean, or whose bin scale
    overflows, on ``spec``'s record.
    """
    if rms < 0:
        raise InvalidParams(f"rms must be >= 0, got {rms}")
    if rms == 0:
        return None
    psd = rms * rms / NOISE_BANDWIDTH_HZ
    if not (holds_mean(rms) and np.isfinite(spec.bin_scale(psd))):
        raise InvalidParams(f"channel.electronic_noise_rms {rms:g} levels is too large: an arm "
                            f"holding it cannot keep its mean within {DC_TOLERANCE:g} "
                            f"levels in float64 on a {spec.n_samples}-sample record")
    return _white(psd)


def kernel_response(params: ChannelParams, sample_rate: float, n: int,
                    bins: slice = slice(None)) -> np.ndarray:
    """DFT, at rfft bins ``bins`` of an n-sample record, of the kernel's taps placed circularly.

    The delay's frequency response: a phase ramp in the delta-kernel limit.
    Horner's rule costs one pass over the bins per tap, one rfft of the
    placed taps about n log2 n; whichever is cheaper runs.
    """
    from scipy import fft as sfft

    taps, k_min, _ = delay_taps(params, sample_rate, n)
    k = np.arange(*bins.indices(n // 2 + 1))
    if len(taps) * len(k) > n * np.log2(n):
        x = np.zeros(n)
        x[(k_min + np.arange(len(taps))) % n] = taps
        return sfft.rfft(x)[bins]
    w = np.exp(-2j * np.pi * k / n)
    h = np.zeros(len(k), dtype=np.complex128)
    for tap in taps[::-1]:   # Horner: sum_j taps[j] w^j
        h = h * w + tap
    return h * np.exp(-2j * np.pi * ((k * k_min) % n) / n)


def apply_is_delay(trace: Trace, params: ChannelParams) -> Trace:
    """Circular convolution of the fluctuation with the normalized exponential delay kernel.

    The guard grows by ``delay_taps``' guard, which covers the samples the
    convolution wraps round the record's ends.  A kernel narrower than one
    sample degenerates to a pure integer delay, done exactly by a roll.
    """
    from scipy import fft as sfft

    n, fs = len(trace.samples), trace.spec.sample_rate
    taps, k_min, guard_extra = delay_taps(params, fs, n)
    if guard_extra == 0:
        return trace
    if len(taps) == 1:
        y = np.roll(trace.samples, k_min)  # y[i] = x[i - k_min]
    else:
        y = sfft.irfft(sfft.rfft(trace.samples) * kernel_response(params, fs, n), n)
    return replace(trace, samples=y, guard=trace.guard + guard_extra)


def channel_spectrum(spec: DigitizerSpec, shot_psd: Optional[float], arm: np.ndarray,
                     bins: slice, params: ChannelParams, seed) -> np.ndarray:
    """The channel's arm a, as its rfft over ``bins`` on ``spec``'s record.

    ``arm`` is the rfft of arm a over ``bins``, and ``shot_psd`` its shot
    PSD.  Returns H * (t * arm + L) + E: the loss noise L and the electronic
    noise E are drawn from two children of ``SeedSequence(seed)``, and H is
    ``kernel_response``; a stage that does nothing is skipped, so with none
    left ``arm`` itself is returned.  ``channel_guard`` gives the guard the
    delay adds.
    """
    n, fs = spec.n_samples, spec.sample_rate
    ss = np.random.SeedSequence(seed).spawn(2)
    t = params.power_transmission
    loss = _loss_psd(t, shot_psd)
    if loss is not None:
        arm = t * arm + noise_spectrum(np.random.default_rng(ss[0]), spec, loss, bins)
    if delay_taps(params, fs, n)[2]:
        arm = kernel_response(params, fs, n, bins) * arm
    electronic = _electronic_psd(params.electronic_noise_rms, spec)
    if electronic is not None:
        arm = arm + noise_spectrum(np.random.default_rng(ss[1]), spec, electronic, bins)
    return arm


def apply_channel(pair: TracePair, params: ChannelParams, seed) -> TracePair:
    """The channel on arm a of a pair, over its whole rfft; arm b untouched.

    Arm a's mean level and shot PSD scale by the transmission, and its guard
    grows by the delay's.  A channel that does nothing returns ``pair``.
    """
    from scipy import fft as sfft

    a = pair.a
    x = sfft.rfft(a.samples)
    y = channel_spectrum(a.spec, a.shot_psd, x, slice(None), params, seed)
    if y is x:
        return pair
    t = params.power_transmission
    guard = delay_taps(params, a.spec.sample_rate, a.spec.n_samples)[2]
    a = replace(a, samples=sfft.irfft(y, a.spec.n_samples), mean_level=t * a.mean_level,
                shot_psd=None if a.shot_psd is None else t * a.shot_psd, guard=a.guard + guard)
    return TracePair(a=a, b=pair.b)
