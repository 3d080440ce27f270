"""End-to-end orchestration: simulate, channel, filter, scan, average, fit.

``run_pipeline`` reproduces the measurement workflow on synthetic data:
repeated trace pairs are generated from a base seed, band-passed, delay
scanned, averaged with one-standard-deviation spread, normalized to the
unobstructed peak, and the channel curve is fed to the staged model fit.
The report is a plain dict (stable, versioned schema) and every number in it
is a deterministic function of (config, seed).
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import io as tbio
from .channel import apply_channel
from .config import RunConfig, SCENARIOS
from .design import matched_transmission
from .dsp import SpectrumEstimate, bandpass, difference_spectrum
from .errors import TwinbeamError
from .mi import average_curves, fwhm, mi_delay_scan, normalize_curve
from .model import fit_channel, fit_gaussian
from .source import gen_split_coherent, gen_split_thermal, gen_twin
from .trace import ChannelParams, MICurve, Trace, TracePair

__all__ = ["REPORT_SCHEMA_VERSION", "default_channel", "scatterer_only_channel",
           "run_pipeline"]

REPORT_SCHEMA_VERSION = 1


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
    "split-thermal": lambda config, seed: gen_split_thermal(config.source, config.spec,
                                                            seed + 20_000),
    "split-coherent": lambda config, seed: gen_split_coherent(config.source, config.spec,
                                                              seed + 30_000),
}


def _filter(config: RunConfig, trace: Trace) -> Trace:
    return bandpass(trace, config.f_lo, config.f_hi)


def _scan(config: RunConfig, a: Trace, b: Trace) -> MICurve:
    return mi_delay_scan(TracePair(a=a, b=b), step=config.delay_step,
                         range_=config.delay_range, n_bins=config.n_bins)


def _scan_pair(config: RunConfig, pair: TracePair) -> MICurve:
    return _scan(config, _filter(config, pair.a), _filter(config, pair.b))


def _scan_twin_pair(config: RunConfig, pair: TracePair, seed: int,
                    channel: Optional[ChannelParams]) -> list[MICurve]:
    """Unobstructed curve of one twin pair, then its channel curve if any.

    The channel acts on arm a only, so both curves share band-passed arm b.
    The channel arm is made before any filtering, which keeps fewer
    full-length records alive at once.
    """
    arms = [pair.a]
    if channel is not None:
        arms.append(apply_channel(pair, channel, seed + 10_000).a)
    fb = _filter(config, pair.b)
    return [_scan(config, _filter(config, a), fb) for a in arms]


def _spectrum(config: RunConfig, pair: TracePair) -> SpectrumEstimate:
    """Squeezing spectrum of a twin pair against a coherent reference."""
    ref = gen_split_coherent(config.source, config.spec, config.seed + 90_000)
    return difference_spectrum(pair, ref, config.segment_length)


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
    20 000 (thermal) and 30 000 (coherent).  With an output directory,
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

    # Each twin seed runs once; the first pair also gives the squeezing
    # spectrum against a coherent reference.
    twin_runs = []
    for seed in seeds:
        pair = gen_twin(config.source, config.spec, seed)
        twin_runs.append(_scan_twin_pair(config, pair, seed, channel))
        if seed == seeds[0]:
            est = _spectrum(config, pair)

    curves = {"twin-unobstructed": average_curves([run[0] for run in twin_runs])}
    ref_peak = curves["twin-unobstructed"].peak
    if channel_name:
        curves[channel_name] = average_curves([run[1] for run in twin_runs])
    for name in split_names:
        curves[name] = average_curves(
            [_scan_pair(config, _SPLIT_PAIRS[name](config, seed)) for seed in seeds])

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

    report["elapsed_s"] = round(time.time() - t0, 3)
    if out is not None:
        for name, curve in normalized.items():
            tbio.save_curve(curve, out / f"curve_{name}.csv")
        (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    return report
