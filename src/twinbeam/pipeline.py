"""End-to-end orchestration: simulate, channel, filter, scan, average, fit.

``run_pipeline`` reproduces the measurement workflow on synthetic data:
repeated trace pairs are generated from a base seed, band-passed, delay
scanned, averaged with one-standard-deviation spread, normalized to the
unobstructed peak, and the channel curve is fed to the staged model fit.
The report is a plain dict (stable, versioned schema); every number in it
except those under ``"timing"`` is a deterministic function of (config, seed).
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from . import io as tbio
from .channel import channel_spectrum
from .config import RunConfig, SCENARIOS
from .design import matched_transmission
from .dsp import SpectrumEstimate, band_bins, band_record, filter_guard, squeezing_spectrum
from .errors import TwinbeamError
from .mi import average_curves, fwhm, mi_delay_scan, normalize_curve
from .model import fit_channel, fit_gaussian
from .source import PairRecipe, split_coherent_recipe, split_thermal_recipe, twin_recipe
from .trace import ChannelParams, MICurve, Trace, TracePair

# The time-domain stages, which run_pipeline replaces by spectra; the
# benchmark's tracer (perfbench/spans.py) wraps these names on this module.
from .channel import apply_channel  # noqa: F401
from .dsp import bandpass, difference_spectrum  # noqa: F401
from .source import gen_split_coherent, gen_split_thermal, gen_twin  # noqa: F401

__all__ = ["REPORT_SCHEMA_VERSION", "default_channel", "scatterer_only_channel",
           "run_pipeline"]

REPORT_SCHEMA_VERSION = 2


def default_channel(config: RunConfig) -> ChannelParams:
    """Channel parameters for the standard run when none are configured.

    The transmission is the eta-matched value solved from the in-band noise
    model, so the simulated MI peak ratio reproduces the analytic model's
    peak for the configured eta (the measured 14 % optical throughput is a
    separate quantity; at shot-noise-limited beam levels it would floor the
    MI peak far below the observed ratio).  An explicitly configured channel
    is always used verbatim.
    """
    if config.channel is not None:
        return config.channel
    base = ChannelParams()
    t = matched_transmission(config.source, base, config.f_lo, config.f_hi)
    return replace(base, power_transmission=t)


def scatterer_only_channel() -> ChannelParams:
    """Scatterer without the integrating sphere: heavy loss, noise floor.

    No delay kernel applies (sigma below one sample degenerates to a pure
    delay of zero); transmission far below 14 % and electronic noise well
    above the residual signal bury the correlations.
    """
    return replace(ChannelParams(), tau0=0.0, sigma=1e-12,
                   power_transmission=0.01, electronic_noise_rms=10.0)


# Makers of the curves a scenario names (config.SCENARIOS).
_CHANNELS = {
    "twin-channel": default_channel,
    "scatterer-only": lambda config: scatterer_only_channel(),
}

# split pairs are drawn at their own seed offsets
_SPLIT_PAIRS = {
    "split-thermal": lambda config, seed: split_thermal_recipe(config.source, config.spec,
                                                               seed + 20_000),
    "split-coherent": lambda config, seed: split_coherent_recipe(config.source, config.spec,
                                                                 seed + 30_000),
}


class _Band(NamedTuple):
    """The band-pass on a generated record's own rfft grid."""

    bins: slice
    mask: np.ndarray
    guard: int   # the guard ``bandpass`` gives a record


def _band(config: RunConfig) -> _Band:
    n = config.spec.n_samples
    bins, mask = band_bins(n, config.spec.sample_rate, config.f_lo, config.f_hi)
    return _Band(bins, mask, filter_guard(n))


def _record(config: RunConfig, band: _Band, spectrum: np.ndarray, guard: int = 0) -> Trace:
    """The band-passed record of an arm from its spectrum over the band: one irfft."""
    samples = band_record(band.mask * spectrum, band.bins, config.spec.n_samples)
    return Trace(samples=samples, spec=config.spec, guard=max(band.guard, guard))


def _scan(config: RunConfig, a: Trace, b: Trace) -> MICurve:
    return mi_delay_scan(TracePair(a=a, b=b), step=config.delay_step,
                         range_=config.delay_range, n_bins=config.n_bins)


def _pair_curves(config: RunConfig, band: _Band, pair: PairRecipe, spectra: list,
                 channel: Optional[ChannelParams] = None, seed: int = 0) -> list[MICurve]:
    """Curve of a generated pair, then its channel curve if any.

    ``spectra`` are the pair's noise spectra over the band.  The channel acts
    on arm a only (its noises drawn at ``seed + 10_000``), so both curves
    share band-passed arm b.
    """
    a, b = pair.arm_spectra(spectra)
    fb = _record(config, band, b)
    curves = [_scan(config, _record(config, band, a), fb)]
    if channel is not None:
        arm, guard = channel_spectrum(pair, a, band.bins, channel, seed + 10_000)
        curves.append(_scan(config, _record(config, band, arm, guard), fb))
    return curves


def _spectrum(config: RunConfig, difference: np.ndarray) -> SpectrumEstimate:
    """Squeezing spectrum of a twin pair's difference record against a coherent reference."""
    ref = split_coherent_recipe(config.source, config.spec, config.seed + 90_000)
    return squeezing_spectrum(difference, ref.difference(ref.noise_spectra()),
                              config.spec.sample_rate, config.segment_length)


def _curve_stats(curve: MICurve) -> dict:
    stats = {
        "peak_bits" if not curve.normalized else "peak_norm": curve.peak,
        "peak_delay_ns": curve.peak_delay * 1e9,
        "n_repeats": curve.n_repeats,
    }
    try:
        stats["fwhm_ns"] = fwhm(curve) * 1e9
    except TwinbeamError:
        stats["fwhm_ns"] = None
    if curve.spread is not None:
        stats["peak_spread"] = float(curve.spread[int(np.argmax(curve.mi))])
    return stats


def run_pipeline(config: RunConfig, outdir: Optional[str] = None) -> dict:
    """Execute the configured scenario end to end and return the report.

    For each seed, one twin pair gives the unobstructed curve and, when the
    scenario has one, the channel curve (the channel acts on arm a, so both
    share band-passed arm b); the first seed's pair also gives the squeezing
    spectrum.  Split-source curves draw their own pairs at seed offsets
    20 000 (thermal) and 30 000 (coherent).

    Generated records are periodic, so no record is made only to be
    filtered: each scanned arm is formed as its spectrum over the band's rfft
    bins (the pair's noise spectra, for a channel arm H * (t * A + L) + E,
    times ``band_mask``) and inverse-transformed once, with the guard
    ``bandpass`` would give it.  It matches ``bandpass`` of the time-domain
    chain (``gen_*``, ``apply_channel``) outside that guard up to the
    filter's tails, which ``bandpass`` takes on a longer, padded grid.  The
    squeezing spectrum's difference records are one irfft each, of the
    difference of the arms' spectra.  With an output directory,
    writes per-scenario curve CSVs, the squeezing spectrum CSV, and
    report.json.  Every stage runs, so every setting is checked against the
    digitizer (``RunConfig.check``) before any trace is made.
    """
    t0 = time.time()
    config.check()
    outdir = outdir or config.outdir
    out = Path(outdir) if outdir else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    seeds = [config.seed + r for r in range(config.repeats)]
    report: dict = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "config": config.to_dict(),
        "seeds": seeds,
        "scenarios": {},
    }
    channel_name, split_names, gaussian_fit = SCENARIOS[config.scenario]
    channel = _CHANNELS[channel_name](config) if channel_name else None
    if channel_name == "twin-channel":
        report["channel_params"] = replace(config, channel=channel).to_dict()["channel"]

    # Each twin seed's noises are drawn once.  The first seed's are drawn on
    # every bin: its raw difference record gives the squeezing spectrum.
    band = _band(config)
    twin_runs = []
    for seed in seeds:
        pair = twin_recipe(config.source, config.spec, seed)
        if seed == seeds[0]:
            spectra = pair.noise_spectra()
            est = _spectrum(config, pair.difference(spectra))
            spectra = [x[band.bins].copy() for x in spectra]   # frees the full spectra
        else:
            spectra = pair.noise_spectra(band.bins)
        twin_runs.append(_pair_curves(config, band, pair, spectra, channel, seed))

    curves = {"twin-unobstructed": average_curves([run[0] for run in twin_runs])}
    ref_peak = curves["twin-unobstructed"].peak
    if channel_name:
        curves[channel_name] = average_curves([run[1] for run in twin_runs])
    for name in split_names:
        pairs = [_SPLIT_PAIRS[name](config, seed) for seed in seeds]
        curves[name] = average_curves(
            [_pair_curves(config, band, p, p.noise_spectra(band.bins))[0] for p in pairs])

    # Normalize everything to the unobstructed twin peak, as the measurement does.
    normalized = {name: normalize_curve(c, ref_peak) for name, c in curves.items()}
    for name, curve in normalized.items():
        stats = _curve_stats(curve)
        stats["peak_bits"] = curves[name].peak
        stats["at_noise_floor"] = bool(curve.peak < 0.02)
        report["scenarios"][name] = stats

    if gaussian_fit:
        gfit = fit_gaussian(normalized["twin-unobstructed"])
        report["gaussian_fit"] = gfit.to_report()

    if "twin-channel" in normalized:
        report["fit"] = fit_channel(normalized["twin-channel"], gfit.sigma0).to_report()

    report["spectrum"] = {
        "in_band_mean_db": est.in_band_mean_db(config.f_lo, config.f_hi),
        "band_mhz": [config.f_lo / 1e6, config.f_hi / 1e6],
        "segment_length": config.segment_length,
    }
    if out is not None:
        tbio.save_spectrum(est, out / "spectrum.csv")

    report["timing"] = {"elapsed_s": round(time.time() - t0, 3)}
    if out is not None:
        for name, curve in normalized.items():
            tbio.save_curve(curve, out / f"curve_{name}.csv")
        (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    return report
