"""Scatterer + integrating-sphere channel applied to the probe arm.

Stage order is fixed: optical loss, then the exponential delay kernel, then
detector electronic noise.  The order matters mildly (the kernel low-passes
whatever noise precedes it), so it is pinned both here and in the analytic
predictor that calibrates the default transmission.

The delay stage convolves the photocurrent with the discretized two-sided
exponential density (deterministic convolution, not per-photon sampling): at
these fluxes the photocurrent is the ensemble average over photon delays.

Two forms of the same chain.  ``apply_channel`` works on time records of any
origin: the convolution extends the record by reflection.  Generated records
are periodic (``source``), so ``channel_spectrum`` works on arm a's rfft
instead: H * (t * A + L) + E, where H is the DFT of ``discretize_kernel``'s
taps placed circularly (``kernel_response``) and L and E are the loss and
electronic noises drawn from the same seeds as ``apply_channel``'s.  The two
differ only near the record ends, inside the guard the delay adds.
"""

from __future__ import annotations

import numpy as np
from scipy import fft as sfft

from .errors import InvalidParams, InvalidTransmission, KernelTooWide
from .source import NOISE_BANDWIDTH_HZ, PairRecipe, noise_spectrum, synth_noise, _white
from .trace import ChannelParams, Trace, TracePair

__all__ = [
    "KERNEL_TRUNCATION_SIGMAS",
    "discretize_kernel",
    "delay_taps",
    "apply_loss",
    "apply_is_delay",
    "apply_electronic_noise",
    "apply_channel",
    "kernel_response",
    "channel_spectrum",
]

# Kernel support is tau0 +/- this many sigma, renormalized after truncation
# (two-sided exponential tails leave < 1e-5 outside +/- 12 sigma).
KERNEL_TRUNCATION_SIGMAS = 12.0


def _loss_psd(transmission: float, shot_psd):
    """PSD of the vacuum noise a beam splitter of this transmission adds; None at t = 1."""
    if not (0.0 < transmission <= 1.0):
        raise InvalidTransmission(f"transmission must be in (0, 1], got {transmission}")
    if transmission == 1.0:
        return None
    if shot_psd is None:
        raise InvalidParams("trace carries no shot_psd, so its loss noise is unknown")
    return _white(transmission * (1.0 - transmission) * shot_psd)


def apply_loss(trace: Trace, transmission: float, seed) -> Trace:
    """Beam-splitter loss: scale by t, add vacuum noise of PSD t(1-t) x shot.

    The shot PSD is the trace's own bookkeeping value; the output carries the
    scaled mean level and shot PSD of the attenuated beam.
    """
    psd = _loss_psd(transmission, trace.shot_psd)
    if psd is None:
        return trace
    noise = synth_noise(np.random.default_rng(seed), len(trace.samples),
                        trace.spec.sample_rate, psd)
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


def delay_taps(params: ChannelParams, sample_rate: float, n: int):
    """The delay kernel on an n-sample record: taps, lag of the first tap, guard added.

    A kernel narrower than one sample degenerates to one unit tap at the
    nearest whole-sample delay; a zero delay is the identity and adds no guard.
    """
    span = abs(params.tau0) + KERNEL_TRUNCATION_SIGMAS * params.sigma
    if span * sample_rate > 0.25 * n:
        raise KernelTooWide(
            f"kernel span {span:g} s is comparable to the trace duration "
            f"{n / sample_rate:g} s"
        )
    guard_extra = int(np.ceil(2.0 * span * sample_rate))
    if KERNEL_TRUNCATION_SIGMAS * params.sigma * sample_rate < 0.5:
        shift = int(round(params.tau0 * sample_rate))
        return np.ones(1), shift, guard_extra if shift else 0
    taps, k_min = discretize_kernel(sample_rate, params.tau0, params.sigma)
    return taps, k_min, guard_extra


def apply_is_delay(trace: Trace, params: ChannelParams) -> Trace:
    """Convolve the fluctuation with the normalized exponential delay kernel.

    Output length equals input length: the trace is extended by reflection
    for one kernel length and cropped back; the guard grows by twice the
    kernel half-width so transients never enter downstream statistics.
    A kernel narrower than one sample degenerates to a pure integer delay.
    """
    n = len(trace.samples)
    taps, k_min, guard_extra = delay_taps(params, trace.spec.sample_rate, n)
    if guard_extra == 0:
        return trace
    if len(taps) == 1:
        # Delta-kernel limit: pure delay by k_min samples.  A circular roll
        # preserves the zero mean exactly; the wrapped samples fall inside the
        # enlarged guard.
        y = np.roll(trace.samples, k_min)  # y[i] = x[i - k_min]
        return trace.with_samples(y, guard=trace.guard + guard_extra)

    k_max = k_min + len(taps) - 1
    lpad, rpad = max(k_max, 0), max(-k_min, 0)
    xp = np.pad(trace.samples, (lpad, rpad), mode="reflect")
    # y[i] = sum_j taps[j] * x[i - (k_min + j)]; with xp[m] = x[m - lpad]
    # this is the full convolution of xp with taps, offset by lpad - k_min.
    n_fft = sfft.next_fast_len(len(xp) + len(taps) - 1, real=True)
    y = sfft.irfft(sfft.rfft(xp, n_fft) * sfft.rfft(taps, n_fft), n_fft)
    y = y[lpad - k_min : lpad - k_min + n]
    # Reflection cropping leaks a small mean; the fluctuation stays DC-free.
    y = y - y.mean()
    return trace.with_samples(y, guard=trace.guard + guard_extra)


def _electronic_psd(rms: float):
    """PSD of detector noise of total rms ``rms`` (levels); None at zero rms."""
    if rms < 0:
        raise InvalidParams(f"rms must be >= 0, got {rms}")
    if rms == 0:
        return None
    return _white(rms ** 2 / NOISE_BANDWIDTH_HZ)


def apply_electronic_noise(trace: Trace, rms: float, seed) -> Trace:
    """Add independent Gaussian detector noise of the given total rms (levels)."""
    psd = _electronic_psd(rms)
    if psd is None:
        return trace
    noise = synth_noise(np.random.default_rng(seed), len(trace.samples),
                        trace.spec.sample_rate, psd)
    return trace.with_samples(trace.samples + noise)


def _stage_seeds(seed: int) -> list[np.random.SeedSequence]:
    """Seeds of the loss and electronic noises."""
    return np.random.SeedSequence(seed).spawn(2)


def apply_channel(pair: TracePair, params: ChannelParams, seed) -> TracePair:
    """Loss, delay smearing, and electronic noise on arm a; arm b untouched."""
    ss = _stage_seeds(seed)
    a = apply_loss(pair.a, params.power_transmission, seed=ss[0])
    a = apply_is_delay(a, params)
    a = apply_electronic_noise(a, params.electronic_noise_rms, seed=ss[1])
    return TracePair(a=a, b=pair.b)


def kernel_response(params: ChannelParams, sample_rate: float, n: int,
                    bins: slice = slice(None)) -> np.ndarray:
    """DFT, at rfft bins ``bins`` of an n-sample record, of the kernel's taps placed circularly.

    This is the frequency response of the circular form of ``apply_is_delay``:
    a phase ramp in the delta-kernel limit.  It costs one pass over the bins
    per tap, so ask only for the bins in use.
    """
    taps, k_min, _ = delay_taps(params, sample_rate, n)
    k = np.arange(*bins.indices(n // 2 + 1))
    w = np.exp(-2j * np.pi * k / n)
    h = np.zeros(len(k), dtype=np.complex128)
    for tap in taps[::-1]:   # Horner: sum_j taps[j] w^j
        h = h * w + tap
    return h * np.exp(-2j * np.pi * ((k * k_min) % n) / n)


def channel_spectrum(pair: PairRecipe, arm: np.ndarray, bins: slice,
                     params: ChannelParams, seed) -> np.ndarray:
    """``apply_channel``'s arm a of a generated pair, as its rfft over ``bins``.

    ``arm`` is the rfft of the pair's arm a over ``bins``.  Returns
    H * (t * arm + L) + E: the loss noise L and the electronic noise E come
    from the seeds ``apply_channel`` uses, and H is ``kernel_response``.
    Checks what ``apply_channel`` checks; ``delay_taps`` gives the guard the
    delay adds.
    """
    n, fs = pair.spec.n_samples, pair.spec.sample_rate
    ss = _stage_seeds(seed)
    t = params.power_transmission
    loss = _loss_psd(t, pair.arms[0].shot_psd)
    if loss is not None:
        arm = t * arm + noise_spectrum(np.random.default_rng(ss[0]), n, fs, loss, bins)
    if delay_taps(params, fs, n)[2]:
        arm = kernel_response(params, fs, n, bins) * arm
    electronic = _electronic_psd(params.electronic_noise_rms)
    if electronic is not None:
        arm = arm + noise_spectrum(np.random.default_rng(ss[1]), n, fs, electronic, bins)
    return arm
