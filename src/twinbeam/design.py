"""Analytic in-band predictor for the simulated delay-MI curves.

Works entirely from one-sided PSDs on a frequency grid: given the source
model (shared spectrum + independent noise), the band-pass mask, and the
channel stages (loss with beam-splitter noise, exponential delay kernel,
electronic noise), it predicts the correlation coefficient versus delay and
hence the Gaussian-process MI curve.  Used to solve for the channel
transmission whose simulated peak ratio lands on the value the analytic
channel model assigns to a given forward-scattering efficiency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .dsp import band_mask
from .errors import InvalidBand, InvalidParams
from .model import peak_value
from .source import DESIGN_BAND, NOISE_BANDWIDTH_HZ, NoiseBudget, shared_psd_shape
from .trace import ChannelParams, SourceParams

__all__ = ["InBandModel", "predicted_peak_ratio", "matched_transmission"]

_GRID_F_MAX = 12e6
_GRID_N = 60001


def _kernel_gain(f: np.ndarray, sigma: float) -> np.ndarray:
    """Magnitude response of the two-sided exponential delay kernel."""
    return 1.0 / (1.0 + (2.0 * np.pi * f * sigma) ** 2)


@dataclass
class InBandModel:
    """Predicted filtered-trace statistics for one (source, channel, band)."""

    source: SourceParams
    f_lo: float
    f_hi: float

    def __post_init__(self):
        if not (0.0 < self.f_lo < self.f_hi <= _GRID_F_MAX):
            raise InvalidBand(
                f"band [{self.f_lo / 1e6:g}, {self.f_hi / 1e6:g}] MHz lies outside the "
                f"design model's 0-{_GRID_F_MAX / 1e6:g} MHz grid"
            )
        self.f = np.linspace(0.0, _GRID_F_MAX, _GRID_N)
        self.df = self.f[1] - self.f[0]
        self.h2 = band_mask(self.f, self.f_lo, self.f_hi) ** 2
        budget = NoiseBudget.from_source(self.source)
        self.shot = 0.5 * (budget.shot_variance_a + budget.shot_variance_b)
        self.nu = 10.0 ** (-self.source.squeezing_db / 10.0) * self.shot
        self.s_shared = budget.shared_scale * shared_psd_shape(self.f, self.source.sigma0)
        # filtered variance of the reference arm (and of an unobstructed arm)
        self.var_b = float(np.sum((self.s_shared + self.nu) * self.h2) * self.df)

    def unobstructed_rho(self) -> float:
        """Correlation of the unobstructed pair at zero delay after the band-pass."""
        return float(np.sum(self.s_shared * self.h2) * self.df / self.var_b)

    def channel_rho_peak(self, chan: ChannelParams, transmission: float) -> float:
        """Peak correlation of (channel arm, reference arm) after filtering."""
        if not 0.0 < transmission <= 1.0:
            raise InvalidParams("transmission must be in (0, 1]")
        t = transmission
        gain = _kernel_gain(self.f, chan.sigma)
        e_psd = chan.electronic_noise_rms ** 2 / NOISE_BANDWIDTH_HZ
        var_a = float(
            np.sum(
                ((t * t * (self.s_shared + self.nu) + t * (1.0 - t) * self.shot)
                 * gain ** 2 + e_psd) * self.h2
            ) * self.df
        )
        cov = float(np.sum(t * self.s_shared * gain * self.h2) * self.df)
        return cov / np.sqrt(var_a * self.var_b)


def _mi_gauss(rho: float) -> float:
    return -0.5 * np.log2(max(1e-300, 1.0 - rho * rho))


def predicted_peak_ratio(source: SourceParams, chan: ChannelParams,
                         transmission: float, f_lo: float, f_hi: float) -> float:
    """Predicted (channel MI peak) / (unobstructed MI peak)."""
    m = InBandModel(source, f_lo, f_hi)
    return _mi_gauss(m.channel_rho_peak(chan, transmission)) / _mi_gauss(m.unobstructed_rho())


def matched_transmission(source: SourceParams, chan: ChannelParams,
                         f_lo: float = DESIGN_BAND[0], f_hi: float = DESIGN_BAND[1]) -> float:
    """Transmission whose predicted MI peak ratio equals the analytic model's.

    The analytic channel model predicts a normalized peak of
    peak_value(eta, sigma0, sigma); in the trace simulation the kernel is an
    in-band near-invertible LTI stage, so the peak reduction must come from
    the loss stage's beam-splitter noise.  This solves for the transmission
    that reproduces the model's peak, decoupling eta (an MI-amplitude
    parameter) from the measured optical throughput.
    """
    target = peak_value(chan.eta, source.sigma0, chan.sigma)
    m = InBandModel(source, f_lo, f_hi)
    mi0 = _mi_gauss(m.unobstructed_rho())

    def err(t):
        return _mi_gauss(m.channel_rho_peak(chan, t)) / mi0 - target

    lo, hi = 1e-3, 1.0
    if err(hi) < 0:
        raise InvalidParams(
            "source too noisy: even lossless transmission cannot reach the "
            "target peak ratio"
        )
    return float(brentq(err, lo, hi, xtol=1e-9))
