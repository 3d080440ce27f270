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
import sys

import numpy as np

from .config import RunConfig, SCENARIO_CHOICES
from .design import matched_transmission
from .dsp import bandpass, difference_spectrum
from .errors import ConfigError, DataError, FitError, TwinbeamError
from .io import load_curve, load_trace, save_curve, save_spectrum, save_trace
from .mi import mi_delay_scan, normalize_curve
from .model import G_closed, G_numeric, fit_channel, fit_gaussian
from .pipeline import run_pipeline
from .source import gen_split_coherent, gen_split_thermal, gen_twin
from .trace import ChannelParams, DigitizerSpec, SourceParams, TracePair


def _band(text: str) -> tuple[float, float]:
    try:
        lo, hi = text.split(":")
        return float(lo) * 1e6, float(hi) * 1e6
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"band must look like 1.5:3.5, got {text!r}") from exc


def _add_source_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--squeezing-db", type=float, default=7.0)
    p.add_argument("--sigma0-ns", type=float, default=32.1)
    p.add_argument("--excess-noise-db", type=float, default=3.2)
    p.add_argument("--power-a-mw", type=float, default=5.9)
    p.add_argument("--power-b-mw", type=float, default=5.3)


def _source_from(args) -> SourceParams:
    return SourceParams(
        squeezing_db=args.squeezing_db,
        sigma0=args.sigma0_ns * 1e-9,
        excess_noise_db=args.excess_noise_db,
        mean_power_a=args.power_a_mw * 1e-3,
        mean_power_b=args.power_b_mw * 1e-3,
    )


def _cmd_simulate(args) -> int:
    spec = DigitizerSpec(sample_rate=args.sample_rate_gsps * 1e9, n_samples=args.n_samples)
    source = _source_from(args)
    gens = {
        "twin": gen_twin,
        "split-thermal": gen_split_thermal,
        "split-coherent": gen_split_coherent,
    }
    pair = gens[args.scenario](source, spec, args.seed)
    save_trace(pair.a, args.out_a, encoding=args.encoding)
    save_trace(pair.b, args.out_b, encoding=args.encoding)
    print(f"wrote {args.out_a} and {args.out_b} ({args.scenario}, seed {args.seed})")
    return 0


def _cmd_analyze(args) -> int:
    a = load_trace(args.trace_a, sample_rate=args.sample_rate_gsps * 1e9
                   if args.sample_rate_gsps else None)
    b = load_trace(args.trace_b, sample_rate=args.sample_rate_gsps * 1e9
                   if args.sample_rate_gsps else None)
    pair = TracePair(a=a, b=b)
    if args.band_mhz is not None:
        f_lo, f_hi = args.band_mhz
        pair = TracePair(a=bandpass(a, f_lo, f_hi), b=bandpass(b, f_lo, f_hi))
    curve = mi_delay_scan(pair, step=args.step_ns * 1e-9, range_=args.range_ns * 1e-9,
                          n_bins=args.bins)
    save_curve(curve, args.out)
    print(f"wrote {args.out}: peak {curve.peak:.4f} bits at "
          f"{curve.peak_delay * 1e9:.2f} ns")
    return 0


def _cmd_spectrum(args) -> int:
    pair = TracePair(a=load_trace(args.trace_a), b=load_trace(args.trace_b))
    if args.ref_a and args.ref_b:
        ref = TracePair(a=load_trace(args.ref_a), b=load_trace(args.ref_b),
                        scenario="split-coherent")
    else:
        ref = gen_split_coherent(SourceParams(), pair.a.spec, args.synth_ref_seed)
    est = difference_spectrum(pair, ref, segment_length=args.segment)
    save_spectrum(est, args.out)
    f_lo, f_hi = args.band_mhz
    print(f"wrote {args.out}: in-band mean {est.in_band_mean_db(f_lo, f_hi):+.2f} dB "
          f"over {f_lo / 1e6:g}-{f_hi / 1e6:g} MHz")
    return 0


def _cmd_fit(args) -> int:
    curve = load_curve(args.curve, normalized=args.normalized)
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
    rng = np.random.default_rng(args.seed)
    t = np.linspace(-200e-9, 300e-9, args.points)
    worst = 0.0
    tuples = [(0.598, 32.7e-9, 19.7e-9, 32.1e-9)]
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
    if args.config:
        config = RunConfig.from_json(args.config)
        if args.outdir:
            config.outdir = args.outdir
    else:
        f_lo, f_hi = args.band_mhz
        channel = None
        if args.transmission is not None:
            channel = ChannelParams(power_transmission=args.transmission,
                                    electronic_noise_rms=args.electronic_noise_rms)
        config = RunConfig(
            scenario=args.scenario,
            source=_source_from(args),
            channel=channel,
            f_lo=f_lo,
            f_hi=f_hi,
            n_bins=args.bins,
            delay_step=args.step_ns * 1e-9,
            delay_range=args.range_ns * 1e-9,
            repeats=args.repeats,
            seed=args.seed,
            outdir=args.outdir,
        )
    report = run_pipeline(config)
    print(json.dumps(report, indent=2))
    return 0


def _cmd_matched_transmission(args) -> int:
    t = matched_transmission(_source_from(args), ChannelParams(),
                             *(args.band_mhz))
    print(f"{t:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="twinbeam", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate synthetic trace pairs")
    p.add_argument("--scenario", choices=("twin", "split-thermal", "split-coherent"),
                   default="twin")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--sample-rate-gsps", type=float, default=2.0)
    p.add_argument("--n-samples", type=int, default=4_000_000)
    p.add_argument("--encoding", choices=("f64le", "u8"), default="f64le")
    p.add_argument("--out-a", required=True)
    p.add_argument("--out-b", required=True)
    _add_source_args(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("analyze", help="MI delay scan of two traces")
    p.add_argument("--trace-a", required=True)
    p.add_argument("--trace-b", required=True)
    p.add_argument("--band-mhz", type=_band, default=None,
                   help="band-pass before scanning, e.g. 1.5:3.5")
    p.add_argument("--bins", type=int, default=100)
    p.add_argument("--step-ns", type=float, default=0.5)
    p.add_argument("--range-ns", type=float, default=300.0)
    p.add_argument("--sample-rate-gsps", type=float, default=None,
                   help="needed for single-column CSV traces")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("spectrum", help="difference spectrum vs shot-noise reference")
    p.add_argument("--trace-a", required=True)
    p.add_argument("--trace-b", required=True)
    p.add_argument("--ref-a", default=None)
    p.add_argument("--ref-b", default=None)
    p.add_argument("--synth-ref-seed", type=int, default=987,
                   help="seed of the synthetic coherent reference when no ref files")
    p.add_argument("--segment", type=int, default=2 ** 14)
    p.add_argument("--band-mhz", type=_band, default=(1.5e6, 3.5e6))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("fit", help="fit a curve CSV")
    p.add_argument("--curve", required=True)
    p.add_argument("--mode", choices=("gaussian", "channel"), default="gaussian")
    p.add_argument("--sigma0-ns", type=float, default=None)
    p.add_argument("--reference-peak", type=float, default=None,
                   help="normalize the curve by this peak before the channel fit")
    p.add_argument("--normalized", action="store_true",
                   help="curve is already normalized to the reference peak")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("oracle-check", help="closed form vs quadrature sweep")
    p.add_argument("--tuples", type=int, default=50)
    p.add_argument("--points", type=int, default=1001)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("pipeline", help="full end-to-end run")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--scenario", choices=SCENARIO_CHOICES, default="twin-channel")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--band-mhz", type=_band, default=(1.5e6, 3.5e6))
    p.add_argument("--bins", type=int, default=100)
    p.add_argument("--step-ns", type=float, default=0.5)
    p.add_argument("--range-ns", type=float, default=300.0)
    p.add_argument("--transmission", type=float, default=None,
                   help="override the eta-matched channel transmission")
    p.add_argument("--electronic-noise-rms", type=float, default=0.0)
    p.add_argument("--outdir", default=None)
    _add_source_args(p)
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("matched-transmission",
                       help="print the eta-matched channel transmission")
    p.add_argument("--band-mhz", type=_band, default=(1.5e6, 3.5e6))
    _add_source_args(p)
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
