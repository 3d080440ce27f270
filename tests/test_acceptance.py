"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria 6, 8, and 9 operate on full-size (4-million-sample) records
and dominate the runtime.
"""

import time

import numpy as np
import pytest

from twinbeam.channel import apply_is_delay, discretize_kernel
from twinbeam.config import RunConfig
from twinbeam.dsp import bandpass, difference_spectrum, welch_psd
from twinbeam.mi import (
    histogram2d,
    mi_delay_scan,
    mi_from_hist,
    miller_madow_correction,
)
from twinbeam.model import (
    GAUSSIAN_FWHM_FACTOR,
    G_closed,
    G_numeric,
    fit_channel,
    model_fwhm,
    peak_value,
)
from twinbeam.pipeline import run_pipeline
from twinbeam.source import gen_split_coherent, gen_split_thermal, gen_twin
from twinbeam.trace import ChannelParams, DigitizerSpec, MICurve, SourceParams, TracePair

from conftest import make_trace

PAPER = dict(eta=0.598, tau0=32.7e-9, sigma=19.7e-9, sigma0=32.1e-9)
F_LO, F_HI = 1.5e6, 3.5e6
FULL_SPEC = DigitizerSpec()     # 4e6 samples at 2 GS/s


def _report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_closed_form_vs_oracle():
    t0 = time.time()
    t = np.linspace(-200e-9, 300e-9, 1001)
    rng = np.random.default_rng(7)
    tuples = [PAPER]
    for _ in range(50):
        sigma0 = rng.uniform(10e-9, 60e-9)
        ratio = np.exp(rng.uniform(np.log(0.05), np.log(20.0)))
        tuples.append(dict(eta=rng.uniform(0.1, 1.0),
                           tau0=rng.uniform(-50e-9, 100e-9),
                           sigma=ratio * sigma0, sigma0=sigma0))
    worst = 0.0
    for tu in tuples:
        gc = G_closed(t, **tu)
        gn = G_numeric(t, **tu)
        worst = max(worst, float(np.max(np.abs(gc - gn)) / np.max(gn)))
    elapsed = time.time() - t0
    _report(1, worst < 1e-8 and elapsed < 10.0,
            f"max relative deviation {worst:.2e} (< 1e-8) over 51 tuples, "
            f"{elapsed:.1f} s (< 10 s)")


def test_criterion_2_peak_value():
    pv = peak_value(0.598, 32.1e-9, 19.7e-9)
    rel = abs(pv - 0.475) / 0.475
    _report(2, rel < 5e-3, f"peak_value = {pv:.4f}, within {rel * 100:.2f} % of 0.475")


def test_criterion_3_width_relations():
    t0 = time.time()
    w_g = GAUSSIAN_FWHM_FACTOR * 32.1e-9
    ok_g = abs(w_g - 75.7e-9) / 75.7e-9 < 5e-3
    w_c = model_fwhm(PAPER["sigma0"], PAPER["sigma"])
    ok_c = abs(w_c - 93.5e-9) < 1e-9
    elapsed = time.time() - t0
    _report(3, ok_g and ok_c and elapsed < 1.0,
            f"gaussian FWHM {w_g * 1e9:.2f} ns (75.7 +/- 0.5 %), "
            f"channel FWHM {w_c * 1e9:.2f} ns (93.5 +/- 1 ns), {elapsed:.2f} s")


def test_criterion_4_staged_fit_round_trip():
    t0 = time.time()
    d = np.arange(-600, 601) * 0.5e-9
    curve = MICurve(delays=d, mi=G_closed(d, **PAPER))
    fit = fit_channel(curve, PAPER["sigma0"])
    errs = dict(
        tau0=abs(fit.tau0 - PAPER["tau0"]) / PAPER["tau0"],
        sigma=abs(fit.sigma - PAPER["sigma"]) / PAPER["sigma"],
        eta=abs(fit.eta - PAPER["eta"]) / PAPER["eta"],
    )
    elapsed = time.time() - t0
    ok = all(v < 1e-3 for v in errs.values()) and elapsed < 1.0
    _report(4, ok,
            "recovered (tau0, sigma, eta) = "
            f"({fit.tau0 * 1e9:.3f} ns, {fit.sigma * 1e9:.3f} ns, {fit.eta:.4f}), "
            f"relative errors {errs['tau0']:.1e}/{errs['sigma']:.1e}/{errs['eta']:.1e} "
            f"(< 0.1 %), {elapsed:.2f} s")


def test_criterion_5_mi_estimator_oracle():
    t0 = time.time()
    n = 4_000_000
    rng = np.random.default_rng(55)
    results = []
    for rho in (0.0, 0.3, 0.6, 0.9):
        x = rng.standard_normal(n)
        y = rho * x + np.sqrt(1 - rho * rho) * rng.standard_normal(n)
        h = histogram2d(x, y, 100, 100)
        est = mi_from_hist(h)
        truth = -0.5 * np.log2(1 - rho * rho) if rho else 0.0
        results.append((rho, est, truth, est - miller_madow_correction(h)))
    elapsed = time.time() - t0
    ok = all(abs(est - truth) < 0.05 for _, est, truth, _ in results)
    mm_zero = results[0][3]
    ok = ok and results[0][1] < 0.01 and abs(mm_zero) < 0.01 and elapsed < 30.0
    detail = ", ".join(f"rho={r}: {e:.4f} (true {t:.4f})" for r, e, t, _ in results)
    _report(5, ok, detail + f"; rho=0 after Miller-Madow {mm_zero:.5f} "
                            f"(< 0.01); {elapsed:.1f} s (< 30 s)")


@pytest.fixture(scope="module")
def paper_pipeline_report():
    cfg = RunConfig(scenario="twin-channel", repeats=10, seed=1)
    t0 = time.time()
    report = run_pipeline(cfg)
    report["_wall_s"] = time.time() - t0
    return report


def test_criterion_6_end_to_end_reproduction(paper_pipeline_report):
    rep = paper_pipeline_report
    fit = rep["fit"]
    checks = {
        "peak ratio": (fit["peak_ratio"], 0.475, 0.10),
        "channel FWHM (ns)": (fit["fwhm_channel_ns"], 93.5, 0.10),
        "unobstructed FWHM (ns)": (rep["scenarios"]["twin-unobstructed"]["fwhm_ns"],
                                   75.7, 0.10),
    }
    ok = all(abs(got - want) / want < tol for got, want, tol in checks.values())
    shift_ok = abs(fit["tau0_ns"] - 32.7) < 1.0
    runtime_ok = rep["_wall_s"] < 300.0
    detail = ", ".join(f"{k}: {got:.3f} (target {want} +/- {tol * 100:.0f} %)"
                       for k, (got, want, tol) in checks.items())
    detail += (f", peak shift {fit['tau0_ns']:.2f} ns (32.7 +/- 1), "
               f"wall {rep['_wall_s']:.0f} s (< 300)")
    _report(6, ok and shift_ok and runtime_ok, detail)


def test_simulated_unobstructed_gaussian_fit(paper_pipeline_report):
    # documented expectation alongside criterion 6: the Gaussian fit of the
    # simulated unobstructed curve recovers the configured scale within 10 %
    got = paper_pipeline_report["gaussian_fit"]["sigma0_ns"]
    assert got == pytest.approx(32.1, rel=0.10)


def test_criterion_7_squeezing_spectrum(paper_pipeline_report):
    t0 = time.time()
    sq = paper_pipeline_report["spectrum"]["in_band_mean_db"]
    ref1 = gen_split_coherent(SourceParams(), FULL_SPEC, seed=301)
    ref2 = gen_split_coherent(SourceParams(), FULL_SPEC, seed=302)
    zero = difference_spectrum(ref1, ref2).in_band_mean_db(F_LO, F_HI)
    elapsed = time.time() - t0
    ok = abs(sq + 7.0) < 0.5 and abs(zero) < 0.3 and elapsed < 30.0
    _report(7, ok, f"squeezed pair {sq:+.2f} dB (-7.0 +/- 0.5), "
                   f"coherent/coherent {zero:+.2f} dB (0.0 +/- 0.3), "
                   f"{elapsed:.0f} s (< 30)")


def test_criterion_8_scenario_ordering():
    params = SourceParams()
    spec = FULL_SPEC
    rows = []
    for seed in range(1, 11):
        def peak_of(pair, rng=30e-9):
            fa = bandpass(pair.a, F_LO, F_HI)
            fb = bandpass(pair.b, F_LO, F_HI)
            return mi_delay_scan(TracePair(a=fa, b=fb), range_=rng).peak

        twin = peak_of(gen_twin(params, spec, seed))
        thermal = peak_of(gen_split_thermal(params, spec, seed + 500))
        coherent = peak_of(gen_split_coherent(params, spec, seed + 900))
        rows.append((twin, thermal, coherent))
    ordered = all(t > th > c for t, th, c in rows)
    coh_norm = max(c / t for t, _, c in rows)
    _report(8, ordered and coh_norm < 0.02,
            f"ordering twin > split-thermal > split-coherent in 10/10 runs, "
            f"max normalized coherent peak {coh_norm:.4f} (< 0.02)")


def test_criterion_9_performance_contract():
    params = SourceParams()
    pair = gen_twin(params, FULL_SPEC, seed=77)
    fa = bandpass(pair.a, F_LO, F_HI)
    fb = bandpass(pair.b, F_LO, F_HI)
    fpair = TracePair(a=fa, b=fb)
    mi_delay_scan(fpair, range_=1e-9)  # warm up before timing

    t0 = time.time()
    curve = mi_delay_scan(fpair, step=0.5e-9, range_=300e-9, n_bins=100)
    scan_s = time.time() - t0
    assert len(curve.mi) == 1201

    x, y = pair.a.samples, pair.b.samples
    t0 = time.time()
    mi_from_hist(histogram2d(x, y, 100, 100))
    single_ms = (time.time() - t0) * 1e3
    _report(9, scan_s < 60.0 and single_ms < 100.0,
            f"full 1201-shift scan {scan_s:.1f} s (< 60 s), "
            f"single-shift MI {single_ms:.0f} ms (< 100 ms)")


def test_criterion_10_property_suites():
    rng = np.random.default_rng(99)

    # MI nonnegativity / symmetry / permutation invariance
    mi_ok = True
    for _ in range(25):
        counts = rng.integers(0, 40, size=(11, 11))
        counts[0, 0] += 1
        from twinbeam.mi import JointHistogram

        h = JointHistogram(counts=counts, edges_a=np.arange(12.0),
                           edges_b=np.arange(12.0))
        v = mi_from_hist(h)
        ht = JointHistogram(counts=counts.T, edges_a=np.arange(12.0),
                            edges_b=np.arange(12.0))
        perm = rng.permutation(11)
        hp = JointHistogram(counts=counts[perm], edges_a=np.arange(12.0),
                            edges_b=np.arange(12.0))
        mi_ok &= v >= 0.0 and mi_from_hist(ht) == v and mi_from_hist(hp) == v

    # kernel normalization and linearity
    taps, _ = discretize_kernel(2e9, 32.7e-9, 19.7e-9)
    kernel_ok = abs(taps.sum() - 1.0) < 1e-12
    spec = DigitizerSpec(n_samples=2 ** 17)
    x = rng.standard_normal(spec.n_samples)
    y = rng.standard_normal(spec.n_samples)
    p = ChannelParams()
    fx = apply_is_delay(make_trace(x), p).samples
    fy = apply_is_delay(make_trace(y), p).samples
    fxy = apply_is_delay(make_trace(x + y), p).samples
    lin = fxy - fxy.mean() - (fx + fy - (fx + fy).mean())
    kernel_ok &= float(np.max(np.abs(lin))) < 1e-11

    # Parseval consistency of the band-pass
    tr = make_trace(rng.standard_normal(2 ** 20))
    out = bandpass(tr, F_LO, F_HI)
    v = out.valid()
    freqs, psd = welch_psd(v, 2e9, 2 ** 14)
    parseval_ok = abs(np.trapezoid(psd, freqs) / np.var(v) - 1.0) < 0.01

    # determinism by seed
    s = DigitizerSpec(n_samples=2 ** 16)
    det_ok = np.array_equal(gen_twin(SourceParams(), s, 5).a.samples,
                            gen_twin(SourceParams(), s, 5).a.samples)

    _report(10, mi_ok and kernel_ok and parseval_ok and det_ok,
            f"mi properties {mi_ok}, kernel norm+linearity {kernel_ok}, "
            f"parseval {parseval_ok}, determinism {det_ok}")
