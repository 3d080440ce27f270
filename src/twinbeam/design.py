"""Analytic in-band predictor for the simulated delay-MI curves.

Reads the PSDs the records are drawn with, on the record's own band bins
(``dsp.band_bins``): the twin pair's noises and weights (``twin_recipe``), and
``channel_spectrum``'s arm H * (t * A + L) + E with ``channel``'s loss and
electronic PSDs.  From the filtered arms' peak correlation it predicts the
Gaussian-process MI, and solves for the channel transmission whose simulated
peak ratio is the analytic channel model's for a forward-scattering efficiency.
"""

from __future__ import annotations

import numpy as np

from .channel import _electronic_psd, _loss_psd, delay_taps, kernel_response
from .dsp import band_bins, rfft_freqs
from .errors import InvalidParams
from .model import peak_value
from .source import twin_recipe
from .trace import ChannelParams, DigitizerSpec, SourceParams

__all__ = ["InBandModel", "matched_transmission"]


class InBandModel:
    """Band-passed statistics of a twin pair on ``spec``'s record and of its channel arm.

    Each arm's PSD and the cross-PSD are the recipe's noise PSDs mixed by its
    weights, times the squared band mask.  The channel's |H| is computed once,
    here; any transmission is then one pass over the band's bins.  Refuses a
    band in which the pair's correlation, and so its Gaussian MI, is zero.
    """

    def __init__(self, source: SourceParams, chan: ChannelParams, spec: DigitizerSpec,
                 f_lo: float, f_hi: float):
        n, fs = spec.n_samples, spec.sample_rate
        bins, mask = band_bins(n, fs, f_lo, f_hi)
        self.f = rfft_freqs(n, fs, bins)
        self.h2 = mask * mask
        pair = twin_recipe(source, spec)
        noises = np.array([psd(self.f) for psd in pair.noises]) * self.h2
        wa, wb = map(np.asarray, pair.weights)
        self.psd_a, self.psd_b, self.cross = ((x * y) @ noises for x, y in
                                              ((wa, wa), (wb, wb), (wa, wb)))
        self.shot_a = pair.arms[0].shot_psd
        self.gain = (np.abs(kernel_response(chan, fs, n, bins)) if delay_taps(chan, fs, n)[2]
                     else 1.0)
        electronic = _electronic_psd(chan.electronic_noise_rms, spec)
        self.var_e = float(np.sum(electronic(self.f) * self.h2)) if electronic else 0.0
        self.var_b = float(np.sum(self.psd_b))
        # both arms carry the shared noise, so a positive cross-PSD makes every variance positive
        if not (np.sum(self.cross) > 0 and _mi_gauss(self.unobstructed_rho()) > 0):
            raise InvalidParams(f"band [{f_lo / 1e6:g}, {f_hi / 1e6:g}] MHz carries no correlation "
                                f"of the twin pair on a {n}-sample record")

    def unobstructed_rho(self) -> float:
        """Correlation of the unobstructed pair at zero delay after the band-pass."""
        return float(np.sum(self.cross) / np.sqrt(np.sum(self.psd_a) * self.var_b))

    def channel_rho_peak(self, transmission: float) -> float:
        """Peak correlation of (channel arm, reference arm) after filtering."""
        t = transmission
        loss = _loss_psd(t, self.shot_a)
        arm = t * t * self.psd_a + (loss(self.f) * self.h2 if loss else 0.0)
        var_a = float(np.sum(self.gain ** 2 * arm)) + self.var_e
        return float(t * np.sum(self.gain * self.cross) / np.sqrt(var_a * self.var_b))

    def peak_ratio(self, transmission: float) -> float:
        """Predicted (channel MI peak) / (unobstructed MI peak)."""
        return _mi_gauss(self.channel_rho_peak(transmission)) / _mi_gauss(self.unobstructed_rho())


def _mi_gauss(rho: float) -> float:
    return -0.5 * np.log2(max(1e-300, 1.0 - rho * rho))


def matched_transmission(source: SourceParams, chan: ChannelParams, spec: DigitizerSpec,
                         f_lo: float, f_hi: float) -> float:
    """Transmission whose predicted MI peak ratio equals the analytic model's.

    The analytic channel model predicts a normalized peak of
    peak_value(eta, sigma0, sigma); in the trace simulation the kernel is an
    in-band near-invertible LTI stage, so the peak reduction must come from
    the loss stage's beam-splitter noise.  This solves for the transmission
    that reproduces the model's peak, decoupling eta (an MI-amplitude
    parameter) from the measured optical throughput.  It is sought on [0.001, 1].
    """
    from scipy.optimize import brentq

    target = peak_value(chan.eta, source.sigma0, chan.sigma)
    m = InBandModel(source, chan, spec, f_lo, f_hi)
    if m.peak_ratio(1.0) < target:
        raise InvalidParams("source too noisy: even lossless transmission cannot reach the "
                            "target peak ratio")
    least = m.peak_ratio(1e-3)
    if least > target:
        raise InvalidParams(f"sigma0 {source.sigma0 * 1e9:g} ns is too narrow: even transmission "
                            f"0.001 keeps a peak ratio of {least:.3g}, above the target "
                            f"{target:.3g}")
    return float(brentq(lambda t: m.peak_ratio(t) - target, 1e-3, 1.0, xtol=1e-9))
