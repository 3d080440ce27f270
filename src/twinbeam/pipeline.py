"""End-to-end orchestration: simulate, channel, filter, scan, average, fit.

``run_pipeline`` reproduces the measurement workflow on synthetic data: once
the stages' own checks pass the settings, repeated trace pairs are generated
from a base seed, band-passed, delay scanned, averaged with one-standard-
deviation spread, normalized to the unobstructed peak, and the channel curve
is fed to the staged model fit.  The report is a plain dict (stable, versioned
schema); every number in it except those under ``"timing"`` is a
deterministic function of (config, seed); its ``config`` leaves out
``outdir``, so where a run writes does not change it.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from . import io as tbio
from .channel import channel_guard, channel_spectrum
from .config import RunConfig, SCENARIOS
from .design import matched_transmission
from .dsp import (FILTER_PAD, band_bins, band_record, check_segment, check_segment_band,
                  squeezing_estimate, welch_psd)
from .errors import RecordTooShort, TwinbeamError
from .mi import (average_curves, fwhm, mi_delay_scan, normalize_curve, run_lanes,
                 scan_window)
from .model import fit_channel, fit_gaussian
from .source import RECIPES, shot_noise_recipe, twin_recipe
from .trace import ChannelParams, MICurve, Trace, TracePair

# The time-domain stages, which run_pipeline replaces by spectra; the
# benchmark's tracer (perfbench/spans.py) wraps these names on this module.
from .channel import apply_channel  # noqa: F401
from .dsp import bandpass, difference_spectrum  # noqa: F401
from .source import gen_split_coherent, gen_split_thermal, gen_twin  # noqa: F401

__all__ = ["REPORT_SCHEMA_VERSION", "default_channel", "scatterer_only_channel",
           "run_pipeline"]

REPORT_SCHEMA_VERSION = 3


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
    t = matched_transmission(config.source, base, config.spec, config.f_lo, config.f_hi)
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

# Seed of each draw but the twin pair's, as an offset from its repeat's seed: the
# channel's noises, each split pair (source.RECIPES), the first repeat's shot-noise reference.
_SEED_OFFSETS = {"channel": 10_000, "split-thermal": 20_000, "split-coherent": 30_000,
                 "reference": 90_000}


def _record(config: RunConfig, band: tuple[slice, np.ndarray], spectrum: np.ndarray,
            guard: int = FILTER_PAD) -> Trace:
    """The band-passed record of an arm from its spectrum over ``band_bins``: one irfft."""
    bins, mask = band
    samples = band_record(mask * spectrum, bins, config.spec.n_samples)
    return Trace(samples=samples, spec=config.spec, guard=guard)


def _scan(config: RunConfig, a: Trace, b: Trace) -> np.ndarray:
    """The MI values of a's scan against b."""
    return mi_delay_scan(TracePair(a=a, b=b), step=config.delay_step,
                         range_=config.delay_range, n_bins=config.n_bins).mi


def _twin_job(config: RunConfig, band, a: np.ndarray, fb: Trace) -> np.ndarray:
    """The unobstructed curve's values: arm a, given over the band, against arm b's record."""
    return _scan(config, _record(config, band, a), fb)


def _channel_job(config: RunConfig, band, shot_psd: float, a: np.ndarray, fb: Trace,
                 channel: ChannelParams, guard: int, seed: int) -> np.ndarray:
    """The channel curve's values: the channel acts on arm a only, seeded at ``seed``."""
    arm = channel_spectrum(config.spec, shot_psd, a, band[0], channel, seed)
    return _scan(config, _record(config, band, arm, guard), fb)


def _split_job(config: RunConfig, band, split, seed: int) -> np.ndarray:
    """A split curve's values, from its pair drawn at ``seed`` over the band."""
    arms = split.arm_spectra(split.noise_spectra(seed, band[0]))
    return _scan(config, *(_record(config, band, x) for x in arms))


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

    Each pair's recipe is built once; one pass over the seeds then draws
    every curve a seed contributes, each appended to its curve's list; the
    lists are averaged in report order.  A seed's twin pair gives the
    unobstructed curve and, when the scenario has one, the channel curve:
    the channel acts on arm a only, so both curves are scanned against the
    same band-passed arm b, inverse-transformed once.  Each split curve
    draws its own pair (``source.RECIPES``).  Once a seed's twin noises are
    drawn, each curve is one job that makes its own arms and scans them
    (the channel job runs ``channel_spectrum``, a split job draws its pair),
    and ``mi.run_lanes`` deals the jobs to one lane per usable core: lane 0
    runs here, each other lane in a worker forked for the seed, which sends
    back only its MI values.  A lane's draws and scans use its share of the
    cores, so one curve alone (scenario ``twin``) keeps the scan's shift
    blocks, and no output depends on the core count.  Only the jobs hold
    the twin arms, so this process frees each once its own lane has no job
    left that needs it.  The first seed's raw difference record gives the
    squeezing spectrum, so the spectrum needs no pair of its own beyond the
    shot-noise reference at the twin arms' shot PSDs: the twin noises that
    do not cancel in a - b are drawn on every rfft bin, the shared one over
    the band only, and the reference's noises are drawn on a worker thread
    while this one forms the twin difference record and its Welch estimate.
    Every draw but the twin pair's is seeded at its offset in
    ``_SEED_OFFSETS``.

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
    checks the band, ``check_segment`` and ``check_segment_band`` the Welch
    segment, ``twin_recipe`` the source on this record, ``channel_guard`` the
    channel on it and ``mi.scan_window`` the scan, with the guards the
    scanned arms carry.
    """
    t0 = time.time()
    n, fs = config.spec.n_samples, config.spec.sample_rate
    band = band_bins(n, fs, config.f_lo, config.f_hi)
    bins = band[0]
    check_segment(config.segment_length, n)
    check_segment_band(config.segment_length, fs, config.f_lo, config.f_hi)
    seeds = [config.seed + r for r in range(config.repeats)]
    # the twin recipe checks the source on this record before a channel is matched to it
    pair = twin_recipe(config.source, config.spec)
    channel_name, split_names, gaussian_fit = SCENARIOS[config.scenario]
    splits = {name: RECIPES[name](config.source, config.spec) for name in split_names}
    channel = _CHANNELS[channel_name](config) if channel_name else None
    # arm a's guard: the band-pass's or, on a channel arm, the kernel's if larger
    guard_a = max(FILTER_PAD, channel_guard(channel, config.spec) if channel else 0)
    try:
        _, shifts = scan_window(config.spec, config.delay_step, config.delay_range,
                                config.n_bins, guard_a, FILTER_PAD)
    except RecordTooShort as exc:
        raise RecordTooShort(f"digitizer.n_samples {n} is too short: the arms' guards, "
                             f"delay range and bins need at least {exc.least}",
                             exc.least) from exc
    delays = shifts / fs
    outdir = outdir or config.outdir
    out = Path(outdir) if outdir else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    report: dict = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "config": replace(config, outdir=None).to_dict(),
        "seeds": seeds,
        "scenarios": {},
    }
    if channel_name == "twin-channel":
        report["channel_params"] = replace(config, channel=channel).to_dict()["channel"]

    runs = {name: [] for name in ("twin-unobstructed", channel_name, *split_names) if name}
    for seed in seeds:
        if seed == seeds[0]:
            # a noise that cancels in a - b is drawn over the band only
            drawn = [bins if x == y else slice(None) for x, y in zip(*pair.weights)]
            full = pair.noise_spectra(seed, drawn)
            spectra = [x if b is bins else x[bins].copy() for x, b in zip(full, drawn)]
            ref = shot_noise_recipe(config.spec, [arm.shot_psd for arm in pair.arms])
            ref_spectra, twin_welch = ref.noise_spectra_beside(
                seed + _SEED_OFFSETS["reference"],
                lambda: welch_psd(pair.difference(full), fs, config.segment_length))
            del full   # no full spectrum stays while the arms are made
            est = squeezing_estimate(twin_welch, welch_psd(ref.difference(ref_spectra), fs,
                                                           config.segment_length))
            del ref_spectra
        else:
            spectra = pair.noise_spectra(seed, bins)
        a, b = pair.arm_spectra(spectra)
        del spectra
        # arm b is scanned by two curves: one irfft, before the lanes fork
        fb = _record(config, band, b)
        jobs = [partial(_twin_job, config, band, a, fb)]   # in the order of runs
        if channel is not None:
            jobs.append(partial(_channel_job, config, band, pair.arms[0].shot_psd, a, fb,
                                channel, guard_a, seed + _SEED_OFFSETS["channel"]))
        jobs += [partial(_split_job, config, band, split, seed + _SEED_OFFSETS[name])
                 for name, split in splits.items()]
        del a, b, fb   # only the jobs hold them, so each lane frees them with its last job
        for run, values in zip(runs.values(), run_lanes(jobs)):
            run.append(MICurve(delays=delays, mi=values))

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
