"""Synthetic twin-beam, split-thermal, and split-coherent trace generation.

All processes are stationary Gaussian and synthesized in the frequency
domain: each rfft bin gets an independent complex normal deviate scaled to
the target one-sided PSD, so a given (params, spec, seed) is bit-reproducible
and the PSD is exact by construction.  Every generated record is therefore
periodic: it is the inverse rfft of its spectrum on the record's own grid.

``noise_spectrum`` is the one draw routine.  A ``PairRecipe`` names a pair's
independent noises (each drawn from its own seed) and each arm's weights on
them; ``RECIPES`` names the recipe of each generator (``twin``,
``split-thermal``, ``split-coherent``).  ``PairRecipe.traces`` synthesizes
the records (``gen_*`` return it); ``noise_spectra`` and ``arm_spectra`` give
the same records' spectra over a slice of bins from the same draws, so a
caller that filters, delays or differences generated records can do so on
the spectrum and inverse-transform each result once
(``pipeline.run_pipeline`` does).

Model structure for the twin pair:

* a shared fluctuation s(t) enters both arms identically, so the intensity
  difference cancels it exactly;
* each arm adds independent white noise with PSD 10^(-S/10) x its shot PSD
  (S the squeezing in dB), which pins the difference PSD at S dB below the
  coherent-pair reference at matched powers;
* the shared PSD amplitude is set by the per-beam excess noise (dB above
  shot, band-averaged over DESIGN_BAND, 1.5-3.5 MHz).

``NoiseBudget.from_source`` works out these levels (each arm's shot PSD and
the shared PSD amplitude) once; ``twin_recipe`` synthesizes that budget and
``design.InBandModel`` predicts the filtered statistics from it.

The shared PSD is a Gaussian of correlation scale sigma0 * sqrt(2) (so the
raw delay-MI curve tracks a Gaussian of scale sigma0) with a smooth notch at
mid-band.  The notch moves in-band correlated weight toward the band edges,
where the post-filter delay oscillation self-cancels; without it the sharp
band-pass would imprint secondary MI lobes of more than half the peak height
near 200 ns, which no measured curve shows.

Every white noise (shot here, loss and electronic in ``channel``) is
band-limited to NOISE_BANDWIDTH_HZ, the one detection bandwidth, which a
``PairRecipe`` refuses above Nyquist; truly Nyquist-wide shot noise would bury
the unfiltered delay curve of a 4-million-sample record below the estimator
bias floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidParams
from .trace import DigitizerSpec, SourceParams, Trace, TracePair

__all__ = [
    "NOISE_BANDWIDTH_HZ",
    "SHOT_RMS_LEVELS",
    "DESIGN_BAND",
    "NoiseBudget",
    "shared_psd_shape",
    "noise_spectrum",
    "synth_noise",
    "Arm",
    "PairRecipe",
    "twin_recipe",
    "split_thermal_recipe",
    "split_coherent_recipe",
    "RECIPES",
    "gen_twin",
    "gen_split_thermal",
    "gen_split_coherent",
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


def _shot_psds(params: SourceParams) -> tuple[float, float]:
    """Shot PSDs (level^2/Hz) of arms a and b; arm b's scales with its power."""
    shot_a = SHOT_RMS_LEVELS ** 2 / NOISE_BANDWIDTH_HZ
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
    def from_source(cls, params: SourceParams) -> "NoiseBudget":
        shot_a, shot_b = _shot_psds(params)
        x_lin = 10.0 ** (params.excess_noise_db / 10.0)
        s_lin = 10.0 ** (-params.squeezing_db / 10.0)
        shape_mean = float(shared_psd_shape(_BAND_GRID, params.sigma0).mean())
        if x_lin <= s_lin:
            raise InvalidParams(
                "excess_noise_db too small: per-arm noise would fall below the "
                "independent (squeezing) noise floor"
            )
        excess = (x_lin - s_lin) * (0.5 * (shot_a + shot_b))
        if not (shape_mean > 0 and math.isfinite(excess / shape_mean)):
            raise InvalidParams(
                f"sigma0 {params.sigma0 * 1e9:g} ns is too wide: its shared spectrum "
                "underflows over the design band"
            )
        return cls(shot_variance_a=shot_a, shot_variance_b=shot_b,
                   shared_scale=excess / shape_mean)


def noise_spectrum(rng: np.random.Generator, n: int, fs: float,
                   psd: Callable[[np.ndarray], np.ndarray],
                   bins: slice = slice(None)) -> np.ndarray:
    """rfft bins ``bins`` of zero-mean Gaussian noise with one-sided PSD psd(f), length n.

    Every bin's deviate is drawn whichever bins are returned, so a slice
    equals the same slice of the full spectrum and leaves ``rng`` in the same
    state.  ``bins`` is a slice with unit step.
    """
    m = n // 2 + 1
    start, stop, _ = bins.indices(m)
    re, im = rng.standard_normal(m), rng.standard_normal(m)
    z = np.empty(len(range(start, stop)), dtype=np.complex128)
    z.real, z.imag = re[bins], im[bins]
    if start == 0:
        z[0] = 0.0  # zero-mean record
    if n % 2 == 0 and stop == m:
        z[-1] = np.sqrt(2.0) * z[-1].real
    z *= np.sqrt(np.maximum(psd(np.fft.rfftfreq(n, d=1.0 / fs)[bins]), 0.0) * fs * n / 2.0)
    z /= np.sqrt(2.0)
    return z


def synth_noise(rng: np.random.Generator, n: int, fs: float,
                psd: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Zero-mean Gaussian noise with one-sided PSD psd(f), length n."""
    return np.fft.irfft(noise_spectrum(rng, n, fs, psd), n)


def _white(level: float) -> Callable[[np.ndarray], np.ndarray]:
    return lambda f: np.where(f <= NOISE_BANDWIDTH_HZ, level, 0.0)


def _mix(weights, xs):
    """Sum of w * x over the nonzero weights (a unit weight adds x as it is)."""
    return reduce(add, [x if w == 1.0 else w * x for w, x in zip(weights, xs) if w != 0.0])


class Arm(NamedTuple):
    """Bookkeeping of one generated arm: the ``Trace`` fields besides its samples."""

    label: str
    mean_level: float
    shot_psd: float


@dataclass(frozen=True)
class PairRecipe:
    """A generated pair before synthesis.

    ``noises`` are independent Gaussian noises as (seed, one-sided PSD); each
    is drawn from its own seed by ``noise_spectrum``.  Arm a is the sum of
    the noises weighted by ``weights[0]``, arm b by ``weights[1]``.
    ``arm_rms`` bounds each arm's rms over all frequencies (levels): the root
    of its PSD's integral, which ``traces`` checks before it draws.
    """

    spec: DigitizerSpec
    noises: tuple[tuple[np.random.SeedSequence, Callable[[np.ndarray], np.ndarray]], ...]
    weights: tuple[tuple[float, ...], tuple[float, ...]]
    arms: tuple[Arm, Arm]
    arm_rms: tuple[float, float]

    def __post_init__(self):
        if NOISE_BANDWIDTH_HZ > 0.5 * self.spec.sample_rate:
            raise InvalidParams("noise bandwidth exceeds Nyquist")

    def noise_spectra(self, bins: slice = slice(None)) -> list[np.ndarray]:
        """Each noise's rfft over ``bins``: every normal of the pair drawn once."""
        n, fs = self.spec.n_samples, self.spec.sample_rate
        return [noise_spectrum(np.random.default_rng(ss), n, fs, psd, bins)
                for ss, psd in self.noises]

    def arm_spectra(self, spectra: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Arms a and b as spectra, from ``noise_spectra`` over any bins."""
        return _mix(self.weights[0], spectra), _mix(self.weights[1], spectra)

    def difference(self, spectra: list[np.ndarray]) -> np.ndarray:
        """The record a - b from the full ``noise_spectra()``: one irfft.

        A noise both arms carry with equal weight cancels exactly.
        """
        wa, wb = self.weights
        return np.fft.irfft(_mix([x - y for x, y in zip(wa, wb)], spectra), self.spec.n_samples)

    def traces(self) -> TracePair:
        """The pair's records, one irfft per noise; see ``twin_recipe`` for the check."""
        for arm, rms in zip(self.arms, self.arm_rms):
            if not np.finfo(np.float64).eps * rms <= self.spec.dc_tolerance:
                raise InvalidParams(f"arm {arm.label} of full-band rms up to {rms:.3g} levels "
                                    f"cannot hold its mean within {self.spec.dc_tolerance:g} "
                                    "levels in float64: sigma0, excess_noise_db or the power "
                                    "ratio is too large for a full-band record")
        n, fs = self.spec.n_samples, self.spec.sample_rate
        records = [synth_noise(np.random.default_rng(ss), n, fs, psd) for ss, psd in self.noises]
        a, b = (Trace(samples=_mix(w, records), spec=self.spec, **arm._asdict())
                for w, arm in zip(self.weights, self.arms))
        return TracePair(a=a, b=b)


def twin_recipe(params: SourceParams, spec: DigitizerSpec, seed: int) -> PairRecipe:
    """Quantum-correlated twin pair (probe / conjugate); see ``gen_twin``.

    Refuses a source whose band-passed records float64 cannot carry on
    ``spec``'s record.  A record's mean is known only to about eps times its
    rms, so ``Trace``'s DC-removal tolerance needs eps * rms inside it, for an
    arm excess_noise_db above its shot level over DESIGN_BAND.  Each bin's
    scale psd * fs * n / 2 must stay finite at the shared PSD's peak, at most
    ``shared_scale``, which grows without bound with sigma0.  ``traces``
    applies the rms bound over all frequencies, where the shared spectrum
    carries at most shared_scale / (4 sqrt(pi) sigma0).
    """
    budget = NoiseBudget.from_source(params)
    rms = math.sqrt(10.0 ** (params.excess_noise_db / 10.0) * (DESIGN_BAND[1] - DESIGN_BAND[0])
                    * max(budget.shot_variance_a, budget.shot_variance_b))
    if np.finfo(np.float64).eps * rms > spec.dc_tolerance:
        raise InvalidParams(f"excess_noise_db {params.excess_noise_db:g} dB is too high: an arm "
                            f"of rms {rms:.3g} levels over the design band cannot hold its mean "
                            f"within {spec.dc_tolerance:g} levels in float64")
    if not math.isfinite(budget.shared_scale * spec.sample_rate * spec.n_samples / 2.0):
        raise InvalidParams(f"sigma0 {params.sigma0 * 1e9:g} ns is too wide for a "
                            f"{spec.n_samples}-sample record: its shared spectrum's per-bin "
                            "scale overflows float64")
    s_lin = 10.0 ** (-params.squeezing_db / 10.0)
    shared_var = budget.shared_scale / (4.0 * math.sqrt(math.pi) * params.sigma0)
    shared, own_a, own_b = np.random.SeedSequence(seed).spawn(3)
    return PairRecipe(
        spec=spec,
        noises=((shared, lambda f: budget.shared_scale * shared_psd_shape(f, params.sigma0)),
                (own_a, _white(s_lin * budget.shot_variance_a)),
                (own_b, _white(s_lin * budget.shot_variance_b))),
        weights=((1.0, 1.0, 0.0), (1.0, 0.0, 1.0)),
        arms=(Arm("probe", MEAN_LEVEL_A, budget.shot_variance_a),
              Arm("conjugate", _mean_level_b(params), budget.shot_variance_b)),
        arm_rms=tuple(math.sqrt(shared_var + s_lin * shot * NOISE_BANDWIDTH_HZ) for shot in
                      (budget.shot_variance_a, budget.shot_variance_b)))


def split_thermal_recipe(params: SourceParams, spec: DigitizerSpec, seed: int) -> PairRecipe:
    """Conjugate beam split 50/50; see ``gen_split_thermal``."""
    _, shot_full = _shot_psds(params)
    x_lin = 10.0 ** (THERMAL_EXCESS_DB / 10.0)
    lorentz = lambda f: 1.0 / (1.0 + (f / THERMAL_CORNER_HZ) ** 2)
    amp = (x_lin - 1.0) * shot_full / float(lorentz(_BAND_GRID).mean())
    shot_half = 0.5 * shot_full  # shot PSD at half the optical power
    mean_half = 0.5 * _mean_level_b(params)
    thermal, q1, q2 = np.random.SeedSequence(seed).spawn(3)
    return PairRecipe(
        spec=spec,
        noises=((thermal, lambda f: amp * lorentz(f)),
                (q1, _white(shot_half)),
                (q2, _white(shot_half))),
        weights=((0.5, 1.0, 0.0), (0.5, 0.0, 1.0)),
        arms=(Arm("conjugate-split-1", mean_half, shot_half),
              Arm("conjugate-split-2", mean_half, shot_half)),
        arm_rms=(math.sqrt(0.25 * amp * THERMAL_CORNER_HZ * math.pi / 2.0
                           + shot_half * NOISE_BANDWIDTH_HZ),) * 2)


def split_coherent_recipe(params: SourceParams, spec: DigitizerSpec, seed: int) -> PairRecipe:
    """Two independent shot-noise-limited arms; see ``gen_split_coherent``.

    A coherent pair has no shared spectrum, so any source is accepted.
    """
    shot_a, shot_b = _shot_psds(params)
    own_a, own_b = np.random.SeedSequence(seed).spawn(2)
    return PairRecipe(
        spec=spec,
        noises=((own_a, _white(shot_a)), (own_b, _white(shot_b))),
        weights=((1.0, 0.0), (0.0, 1.0)),
        arms=(Arm("coherent-A", MEAN_LEVEL_A, shot_a),
              Arm("coherent-B", _mean_level_b(params), shot_b)),
        arm_rms=(math.sqrt(shot_a * NOISE_BANDWIDTH_HZ), math.sqrt(shot_b * NOISE_BANDWIDTH_HZ)))


# Recipe of each generated pair by name, called as (params, spec, seed).
RECIPES = {"twin": twin_recipe, "split-thermal": split_thermal_recipe,
           "split-coherent": split_coherent_recipe}


def gen_twin(params: SourceParams, spec: DigitizerSpec, seed: int) -> TracePair:
    """Quantum-correlated twin pair (probe / conjugate).

    The pair's intensity-difference PSD sits squeezing_db below the coherent
    reference at matched powers across the analysis band, each arm shows
    excess_noise_db above its shot level in band, and the delay-MI envelope
    follows a Gaussian of scale sigma0.
    """
    return twin_recipe(params, spec, seed).traces()


def gen_split_thermal(params: SourceParams, spec: DigitizerSpec, seed: int) -> TracePair:
    """Conjugate beam split 50/50: classical low-frequency correlations only.

    A low-pass (corner below the analysis band) Gaussian process models the
    thermal-like conjugate fluctuation, THERMAL_EXCESS_DB above shot noise in
    band; each split output receives half of it plus independent shot-scale
    noise at its own (halved) power.  With zero thermal excess this
    degenerates to the split-coherent case.
    """
    return split_thermal_recipe(params, spec, seed).traces()


def gen_split_coherent(params: SourceParams, spec: DigitizerSpec, seed: int) -> TracePair:
    """Two independent shot-noise-limited traces at the configured powers."""
    return split_coherent_recipe(params, spec, seed).traces()
