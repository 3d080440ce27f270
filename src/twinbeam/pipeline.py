"""End-to-end orchestration: simulate, channel, filter, scan, average, fit.

``run_pipeline`` reproduces the measurement workflow on synthetic data: once
the stages' own checks pass the settings, repeated trace pairs are generated
from a base seed, band-passed, delay scanned, averaged with one-standard-
deviation spread, normalized to the unobstructed peak, and the channel curve
is fed to the staged model fit.  The report is a plain dict (stable, versioned
schema); every number in it except those under ``"timing"`` is a
deterministic function of (config, seed).
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from . import io as tbio
from .channel import channel_spectrum, delay_taps
from .config import RunConfig, SCENARIOS
from .design import matched_transmission
from .dsp import (FILTER_PAD, SpectrumEstimate, band_bins, band_record, check_segment,
                  squeezing_spectrum)
from .errors import RecordTooShort, TwinbeamError
from .mi import average_curves, fwhm, mi_delay_scan, normalize_curve, scan_window
from .model import fit_channel, fit_gaussian
from .source import RECIPES, split_coherent_recipe, twin_recipe
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

# Seed offset of each split pair (source.RECIPES) from its twin seed.
_SPLIT_SEED_OFFSETS = {"split-thermal": 20_000, "split-coherent": 30_000}


class _Band(NamedTuple):
    """The band-pass on a generated record's own rfft grid."""

    bins: slice
    mask: np.ndarray


def _record(config: RunConfig, band: _Band, spectrum: np.ndarray,
            guard: int = FILTER_PAD) -> Trace:
    """The band-passed record of an arm from its spectrum over the band: one irfft."""
    samples = band_record(band.mask * spectrum, band.bins, config.spec.n_samples)
    return Trace(samples=samples, spec=config.spec, guard=guard)


def _scan(config: RunConfig, a: Trace, b: Trace) -> MICurve:
    return mi_delay_scan(TracePair(a=a, b=b), step=config.delay_step,
                         range_=config.delay_range, n_bins=config.n_bins)


def _spectrum(config: RunConfig, difference: np.ndarray) -> SpectrumEstimate:
    """Squeezing spectrum of a twin pair's difference record against a coherent reference."""
    ref = split_coherent_recipe(config.source, config.spec, config.seed + 90_000)
    return squeezing_spectrum(difference, ref.difference(ref.noise_spectra()),
                              config.spec.sample_rate, config.segment_length)


def _curve_stats(curve: MICurve, peak_bits: float) -> dict:
    """Report entry of an averaged curve normalized to the unobstructed peak."""
    try:
        width = fwhm(curve) * 1e9
    except TwinbeamError:
        width = None
    return {"peak_norm": curve.peak, "peak_delay_ns": curve.peak_delay * 1e9,
            "n_repeats": curve.n_repeats, "fwhm_ns": width,
            "peak_spread": float(curve.spread[int(np.argmax(curve.mi))]),
            "peak_bits": peak_bits, "at_noise_floor": bool(curve.peak < 0.02)}


def run_pipeline(config: RunConfig, outdir: Optional[str] = None) -> dict:
    """Execute the configured scenario end to end and return the report.

    One pass over the seeds makes every curve a seed contributes, each
    appended to its curve's list; the lists are averaged in report order.  A
    seed's twin pair gives the unobstructed curve and, when the scenario has
    one, the channel curve: the channel acts on arm a only (its noises drawn
    at seed + 10 000), so both curves are scanned against the same
    band-passed arm b.  Each split curve draws its own pair
    (``source.RECIPES``) at seed + 20 000 (thermal) or seed + 30 000
    (coherent).  The first seed's twin noises are drawn on every rfft bin,
    not only the band's: its raw difference record gives the squeezing
    spectrum, so the spectrum needs no pair of its own beyond the coherent
    reference.

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
    report.json.  Every stage runs, so before the first draw ``band_bins``
    checks the band, ``check_segment`` the Welch segment, ``twin_recipe`` the
    source on this record and ``mi.scan_window`` the scan, with the guards
    the scanned arms carry.
    """
    t0 = time.time()
    n, fs = config.spec.n_samples, config.spec.sample_rate
    band = _Band(*band_bins(n, fs, config.f_lo, config.f_hi))
    check_segment(config.segment_length, n)
    seeds = [config.seed + r for r in range(config.repeats)]
    # the twin recipes check the source on this record before a channel is matched to it
    pairs = [twin_recipe(config.source, config.spec, seed) for seed in seeds]
    channel_name, split_names, gaussian_fit = SCENARIOS[config.scenario]
    channel = _CHANNELS[channel_name](config) if channel_name else None
    # arm a's guard: the band-pass's or, on a channel arm, the kernel's if larger
    guard_a = max(FILTER_PAD, delay_taps(channel, fs, n)[2] if channel else 0)
    try:
        scan_window(config.spec, config.delay_step, config.delay_range, config.n_bins,
                    guard_a, FILTER_PAD)
    except RecordTooShort as exc:
        raise RecordTooShort(f"digitizer.n_samples {n} is too short: the arms' guards, "
                             f"delay range and bins need at least {exc.least}",
                             exc.least) from exc
    outdir = outdir or config.outdir
    out = Path(outdir) if outdir else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    report: dict = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "config": config.to_dict(),
        "seeds": seeds,
        "scenarios": {},
    }
    if channel_name == "twin-channel":
        report["channel_params"] = replace(config, channel=channel).to_dict()["channel"]

    runs = {name: [] for name in ("twin-unobstructed", channel_name, *split_names) if name}
    for seed, pair in zip(seeds, pairs):
        if seed == seeds[0]:
            spectra = pair.noise_spectra()
            difference = pair.difference(spectra)
            # free the full spectra before _spectrum draws the reference pair
            spectra = [x[band.bins].copy() for x in spectra]
            est = _spectrum(config, difference)
            del difference
        else:
            spectra = pair.noise_spectra(band.bins)
        a, b = pair.arm_spectra(spectra)
        fb = _record(config, band, b)
        runs["twin-unobstructed"].append(_scan(config, _record(config, band, a), fb))
        if channel is not None:
            arm = channel_spectrum(pair, a, band.bins, channel, seed + 10_000)
            runs[channel_name].append(_scan(config, _record(config, band, arm, guard_a), fb))
        del fb   # no scanned arm stays while the next pair's arms are made
        for name in split_names:
            split = RECIPES[name](config.source, config.spec, seed + _SPLIT_SEED_OFFSETS[name])
            arms = split.arm_spectra(split.noise_spectra(band.bins))
            runs[name].append(_scan(config, *(_record(config, band, x) for x in arms)))

    curves = {name: average_curves(run) for name, run in runs.items()}
    ref_peak = curves["twin-unobstructed"].peak

    # Normalize everything to the unobstructed twin peak, as the measurement does.
    normalized = {name: normalize_curve(c, ref_peak) for name, c in curves.items()}
    for name, curve in normalized.items():
        report["scenarios"][name] = _curve_stats(curve, curves[name].peak)

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
