"""Command-line interface.

Subcommands map one-to-one onto the analysis stages so each figure-style
result is independently reproducible:

    simulate      write synthetic trace pairs to TWBM files
    analyze       MI delay scan of two trace files
    spectrum      intensity-difference squeezing spectrum
    fit           Gaussian / channel-model fit of a curve CSV
    oracle-check  closed form vs quadrature sweep of the channel model
    pipeline      the full simulate/channel/filter/scan/fit chain

Times are given in ns, frequencies in MHz, squeezing in dB.  Exit codes:
0 success, 2 configuration error, 3 data error, 4 fit failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .config import RunConfig, SCENARIO_CHOICES, check_seed, read_json
from .design import matched_transmission
from .dsp import FILTER_PAD, bandpass, check_segment, difference_spectrum
from .errors import ConfigError, DataError, FitError, TwinbeamError
from .io import load_curve, load_trace, save_curve, save_spectrum, save_trace
from .mi import mi_delay_scan, normalize_curve, scan_window
from .model import G_closed, G_numeric, fit_channel, fit_gaussian
from .pipeline import run_pipeline
from .source import RECIPES, gen_split_coherent
from .trace import ChannelParams, SourceParams, TracePair


# Run-parameter flags, each setting one JSON key ("section.key" in a section) in its
# unit over the --config file; only flags given reach the config (argparse.SUPPRESS).
_RUN_FLAGS = {
    "--scenario": ("scenario", dict(choices=SCENARIO_CHOICES)),
    "--seed": ("seed", dict(type=int)),
    "--repeats": ("repeats", dict(type=int)),
    "--band-mhz": ("band_mhz", dict(type=lambda text: text.split(":"), help="e.g. 1.5:3.5")),
    "--bins": ("bins", dict(type=int)),
    "--step-ns": ("step_ns", dict(type=float)),
    "--range-ns": ("range_ns", dict(type=float)),
    "--segment": ("segment_length", dict(type=int)),
    "--outdir": ("outdir", {}),
    "--squeezing-db": ("source.squeezing_db", dict(type=float)),
    "--sigma0-ns": ("source.sigma0_ns", dict(type=float)),
    "--excess-noise-db": ("source.excess_noise_db", dict(type=float)),
    "--power-a-mw": ("source.mean_power_a_mw", dict(type=float)),
    "--power-b-mw": ("source.mean_power_b_mw", dict(type=float)),
    "--transmission": ("channel.transmission", dict(type=float, help="sets an explicit channel")),
    "--electronic-noise-rms": ("channel.electronic_noise_rms", dict(type=float)),
    "--sample-rate-gsps": ("digitizer.sample_rate_gsps", dict(type=float)),
    "--n-samples": ("digitizer.n_samples", dict(type=int)),
}
_SOURCE_FLAGS = [flag for flag, (key, _) in _RUN_FLAGS.items() if key.startswith("source.")]


def _add_run_args(p: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        key, kw = _RUN_FLAGS[flag]
        p.add_argument(flag, dest=key, default=argparse.SUPPRESS, **kw)


def _run_config(args) -> RunConfig:
    """--config's JSON form, if any, under the run flags given; each command checks its stages."""
    path = getattr(args, "config", None)
    d = read_json(path) if path else {}
    for key, _ in _RUN_FLAGS.values():
        if hasattr(args, key) and isinstance(d, dict):
            section, _, name = key.rpartition(".")
            target = d.setdefault(section, {}) if section else d
            if isinstance(target, dict):   # else from_dict reports the malformed file
                target[name] = getattr(args, key)
    return RunConfig.from_dict(d)


def _cmd_simulate(args) -> int:
    config = _run_config(args)
    pair = RECIPES[args.generator](config.source, config.spec, config.seed).traces()
    save_trace(pair.a, args.out_a, encoding=args.encoding)
    save_trace(pair.b, args.out_b, encoding=args.encoding)
    print(f"wrote {args.out_a} and {args.out_b} ({args.generator}, seed {config.seed})")
    return 0


def _cmd_analyze(args) -> int:
    config = _run_config(args)
    rate = config.spec.sample_rate if hasattr(args, "digitizer.sample_rate_gsps") else None
    pair = TracePair(a=load_trace(args.trace_a, sample_rate=rate),
                     b=load_trace(args.trace_b, sample_rate=rate))
    band = hasattr(args, "band_mhz")
    # the scan's check, before any filtering, with the guards the scanned records carry
    guards = [max(t.guard, FILTER_PAD) if band else t.guard for t in (pair.a, pair.b)]
    scan_window(pair.a.spec, config.delay_step, config.delay_range, config.n_bins, *guards)
    if band:
        pair = TracePair(a=bandpass(pair.a, config.f_lo, config.f_hi),
                         b=bandpass(pair.b, config.f_lo, config.f_hi))
    curve = mi_delay_scan(pair, step=config.delay_step, range_=config.delay_range,
                          n_bins=config.n_bins)
    save_curve(curve, args.out)
    print(f"wrote {args.out}: peak {curve.peak:.4f} bits at "
          f"{curve.peak_delay * 1e9:.2f} ns")
    return 0


def _cmd_spectrum(args) -> int:
    if (args.ref_a is None) != (args.ref_b is None):
        given, missing = ("--ref-a", "--ref-b") if args.ref_b is None else ("--ref-b", "--ref-a")
        raise ConfigError(f"{given} needs {missing}: the reference is a pair of files")
    pair = TracePair(a=load_trace(args.trace_a), b=load_trace(args.trace_b))
    config = _run_config(args)
    check_segment(config.segment_length, pair.a.spec.n_samples)
    if args.ref_a is not None:
        ref = TracePair(a=load_trace(args.ref_a), b=load_trace(args.ref_b))
    else:
        ref = gen_split_coherent(config.source, pair.a.spec,
                                 check_seed(args.synth_ref_seed, "--synth-ref-seed"))
    est = difference_spectrum(pair, ref, segment_length=config.segment_length)
    save_spectrum(est, args.out)
    print(f"wrote {args.out}: in-band mean "
          f"{est.in_band_mean_db(config.f_lo, config.f_hi):+.2f} dB "
          f"over {config.f_lo / 1e6:g}-{config.f_hi / 1e6:g} MHz")
    return 0


def _cmd_fit(args) -> int:
    if args.mode == "gaussian":
        for flag, value in (("--sigma0-ns", args.sigma0_ns),
                            ("--reference-peak", args.reference_peak)):
            if value is not None:
                raise ConfigError(f"{flag} applies only to --mode channel")
    curve = load_curve(args.curve)
    if args.mode == "gaussian":
        out = fit_gaussian(curve).to_report()
    else:
        if args.sigma0_ns is None:
            raise ConfigError("--sigma0-ns is required for channel fits")
        if args.reference_peak is not None:
            curve = normalize_curve(curve, args.reference_peak)
        out = fit_channel(curve, args.sigma0_ns * 1e-9).to_report()
    print(json.dumps(out, indent=2))
    return 0


def _cmd_oracle_check(args) -> int:
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ConfigError(f"--tol must be finite and > 0, got {args.tol:g}")
    if args.tuples < 0:
        raise ConfigError(f"--tuples must be >= 0, got {args.tuples}")
    if args.points < 2:
        raise ConfigError(f"--points must be >= 2, got {args.points}")
    rng = np.random.default_rng(check_seed(args.seed, "--seed"))
    t = np.linspace(-200e-9, 300e-9, args.points)
    worst = 0.0
    chan, source = ChannelParams(), SourceParams()
    tuples = [(chan.eta, chan.tau0, chan.sigma, source.sigma0)]
    for _ in range(args.tuples):
        sigma0 = rng.uniform(10e-9, 60e-9)
        ratio = np.exp(rng.uniform(np.log(0.05), np.log(20.0)))
        tuples.append((rng.uniform(0.1, 1.0), rng.uniform(-50e-9, 100e-9),
                       ratio * sigma0, sigma0))
    for eta, tau0, sigma, sigma0 in tuples:
        gc = G_closed(t, eta, tau0, sigma, sigma0)
        gn = G_numeric(t, eta, tau0, sigma, sigma0)
        dev = float(np.max(np.abs(gc - gn)) / np.max(gn))
        worst = max(worst, dev)
    print(f"max |closed - quadrature| / max = {worst:.3e} over "
          f"{len(tuples)} tuples x {args.points} points")
    if worst >= args.tol:
        print(f"FAIL: exceeds tolerance {args.tol:g}")
        return 4
    print(f"PASS: below tolerance {args.tol:g}")
    return 0


def _cmd_pipeline(args) -> int:
    print(json.dumps(run_pipeline(_run_config(args)), indent=2))
    return 0


def _cmd_matched_transmission(args) -> int:
    config = _run_config(args)
    print(f"{matched_transmission(config.source, ChannelParams(), config.f_lo, config.f_hi):.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="twinbeam", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate synthetic trace pairs")
    p.add_argument("--scenario", dest="generator", choices=tuple(RECIPES),
                   default="twin")
    _add_run_args(p, "--seed", "--sample-rate-gsps", "--n-samples", *_SOURCE_FLAGS)
    p.add_argument("--encoding", choices=("f64le", "u8"), default="f64le")
    p.add_argument("--out-a", required=True)
    p.add_argument("--out-b", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("analyze", help="MI delay scan of two traces", description=(
        "Band-passes only if --band-mhz is given; single-column CSV traces "
        "need --sample-rate-gsps."))
    p.add_argument("--trace-a", required=True)
    p.add_argument("--trace-b", required=True)
    _add_run_args(p, "--band-mhz", "--bins", "--step-ns", "--range-ns",
                  "--sample-rate-gsps")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("spectrum", help="difference spectrum vs shot-noise reference")
    p.add_argument("--trace-a", required=True)
    p.add_argument("--trace-b", required=True)
    p.add_argument("--ref-a", default=None)
    p.add_argument("--ref-b", default=None)
    p.add_argument("--synth-ref-seed", type=int, default=987,
                   help="seed of the synthetic coherent reference when no ref files")
    _add_run_args(p, "--segment", "--band-mhz")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("fit", help="fit a curve CSV")
    p.add_argument("--curve", required=True)
    p.add_argument("--mode", choices=("gaussian", "channel"), default="gaussian")
    p.add_argument("--sigma0-ns", type=float, default=None)
    p.add_argument("--reference-peak", type=float, default=None,
                   help="normalize the curve by this peak before the channel fit")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("oracle-check", help="closed form vs quadrature sweep")
    p.add_argument("--tuples", type=int, default=50)
    p.add_argument("--points", type=int, default=1001)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("pipeline", help="full end-to-end run")
    p.add_argument("--config", default=None, help="JSON config; a run flag overrides its key")
    _add_run_args(p, "--scenario", "--seed", "--repeats", "--band-mhz", "--bins",
                  "--step-ns", "--range-ns", "--transmission", "--electronic-noise-rms",
                  "--outdir", *_SOURCE_FLAGS)
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("matched-transmission",
                       help="print the eta-matched channel transmission")
    _add_run_args(p, "--band-mhz", *_SOURCE_FLAGS)
    p.set_defaults(func=_cmd_matched_transmission)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FitError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return 4
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except TwinbeamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
