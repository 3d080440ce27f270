import os
import threading

import numpy as np
import pytest
from scipy.special import erfc

import twinbeam.source as source
from twinbeam.dsp import bandpass, rfft_freqs, welch_psd
from twinbeam.errors import InvalidParams
from twinbeam.io import save_trace
from twinbeam.mi import mi_delay_scan
from twinbeam.source import (
    NOISE_BANDWIDTH_HZ,
    RECIPES,
    SHOT_RMS_LEVELS,
    gen_split_coherent,
    gen_split_thermal,
    gen_twin,
    noise_spectrum,
    shot_noise_reference,
    split_coherent_recipe,
    twin_recipe,
)
from twinbeam.trace import DigitizerSpec, SourceParams, Trace, TracePair

from conftest import twbm_payload

F_LO, F_HI = 1.5e6, 3.5e6


def in_band_psd_mean(x, fs, f_lo=F_LO, f_hi=F_HI, seg=2 ** 13):
    f, p = welch_psd(x, fs, seg)
    sel = (f >= f_lo) & (f <= f_hi)
    return float(p[sel].mean())


class TestDeterminism:
    def test_same_seed_bit_identical(self, small_spec):
        p = SourceParams()
        one = gen_twin(p, small_spec, seed=123)
        two = gen_twin(p, small_spec, seed=123)
        assert np.array_equal(one.a.samples, two.a.samples)
        assert np.array_equal(one.b.samples, two.b.samples)

    def test_different_seeds_differ(self, small_spec):
        p = SourceParams()
        one = gen_twin(p, small_spec, seed=123)
        two = gen_twin(p, small_spec, seed=124)
        assert not np.array_equal(one.a.samples, two.a.samples)

    def test_all_generators_deterministic(self, small_spec):
        p = SourceParams()
        for gen in (gen_split_thermal, gen_split_coherent):
            assert np.array_equal(gen(p, small_spec, 5).a.samples,
                                  gen(p, small_spec, 5).a.samples)


class TestSpectra:
    def test_slice_equals_slice_of_full_spectrum(self):
        psd = lambda f: 1.0 / (1.0 + f / 1e6)
        for n in (1000, 1001):
            spec = DigitizerSpec(sample_rate=2e9, n_samples=n)
            full = noise_spectrum(np.random.default_rng(3), spec, psd)
            for bins in (slice(0, 7), slice(40, 90), slice(490, None)):
                part = noise_spectrum(np.random.default_rng(3), spec, psd, bins)
                assert np.array_equal(part, full[bins])

    @pytest.mark.parametrize("n, bins", [(1000, slice(600, 600)), (1000, slice(501, 501)),
                                         (1000, slice(0, 0)), (1001, slice(0, 0)),
                                         (1000, slice(40, 40))])
    def test_empty_slice_is_an_empty_spectrum(self, n, bins):
        # the DC and Nyquist fix-ups skip an empty slice; rng ends where a
        # full draw leaves it
        spec = DigitizerSpec(sample_rate=2e9, n_samples=n)
        rng, full_rng = np.random.default_rng(3), np.random.default_rng(3)
        part = noise_spectrum(rng, spec, lambda f: 1.0 + 0.0 * f, bins)
        noise_spectrum(full_rng, spec, lambda f: 1.0 + 0.0 * f)
        assert part.shape == (0,) and part.dtype == np.complex128
        assert rng.standard_normal() == full_rng.standard_normal()

    def test_chunked_draw_equals_the_whole_record_draw(self):
        # the one-shot draw, kept as the reference: every normal at once, then
        # the PSD scaling over the whole slice; a chunk of any size, into a
        # given buffer or not, gives the same bits and leaves rng in the same state
        def whole(rng, spec, psd, bins):
            n, m = spec.n_samples, spec.n_samples // 2 + 1
            start, stop, _ = bins.indices(m)
            re, im = rng.standard_normal(m), rng.standard_normal(m)
            z = np.empty(stop - start, dtype=np.complex128)
            z.real, z.imag = re[bins], im[bins]
            if start == 0:
                z[0] = 0.0
            if n % 2 == 0 and stop == m:
                z[-1] = np.sqrt(2.0) * z[-1].real
            z *= np.sqrt(spec.bin_scale(np.maximum(psd(rfft_freqs(n, spec.sample_rate, bins)),
                                                   0.0)))
            z /= np.sqrt(2.0)
            return z

        for n in (1000, 1001):
            spec = DigitizerSpec(sample_rate=2e9, n_samples=n)
            for psd in twin_recipe(SourceParams(), spec).noises[:2]:
                for bins in (slice(None), slice(0, 7), slice(40, 90), slice(490, None)):
                    want_rng = np.random.default_rng(3)
                    want = whole(want_rng, spec, psd, bins)
                    for chunk in (1, 7, 64, 501, 4096):
                        rng = np.random.default_rng(3)
                        out = np.empty_like(want) if chunk == 64 else None
                        got = noise_spectrum(rng, spec, psd, bins, out, np.empty(chunk))
                        assert out is None or got is out
                        assert np.array_equal(got, want)
                        assert rng.bit_generator.state == want_rng.bit_generator.state

    def test_arm_spectra_and_difference_match_the_records(self, small_spec):
        recipe = twin_recipe(SourceParams(), small_spec)
        pair = recipe.traces(10)
        spectra = recipe.noise_spectra(10)
        a, b = recipe.arm_spectra(spectra)
        for arm, trace in ((a, pair.a), (b, pair.b)):
            assert np.array_equal(np.fft.irfft(arm, small_spec.n_samples), trace.samples)
        diff = pair.a.samples - pair.b.samples
        assert np.abs(recipe.difference(spectra) - diff).max() < 1e-12 * pair.a.samples.std()

    def test_shot_noise_reference_is_the_coherent_pairs_difference(self, small_spec):
        coherent = split_coherent_recipe(SourceParams(mean_power_b=2.65e-3), small_spec)
        shots = tuple(arm.shot_psd for arm in coherent.arms)
        reference = shot_noise_reference(small_spec, shots, 4)
        assert np.array_equal(reference, coherent.difference(coherent.noise_spectra(4)))
        pair = coherent.traces(4)
        diff = pair.a.samples - pair.b.samples
        assert np.abs(reference - diff).max() < 1e-12 * diff.std()

    def test_coherent_pair_accepts_a_shot_limited_source(self, small_spec):
        quiet = SourceParams(squeezing_db=0.0, excess_noise_db=0.0)
        with pytest.raises(InvalidParams):
            gen_twin(quiet, small_spec, seed=1)
        pair = gen_split_coherent(quiet, small_spec, seed=1)
        assert pair.a.shot_psd == pytest.approx(SHOT_RMS_LEVELS ** 2 / NOISE_BANDWIDTH_HZ)
        assert np.array_equal(split_coherent_recipe(quiet, small_spec).traces(1).b.samples,
                              pair.b.samples)


def _cores(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


class TestThreadedDraws:
    """A recipe's noises are drawn on one thread per usable core (``source._draw``)."""

    def _draws(self, spec):
        m = spec.n_samples // 2 + 1
        noises = twin_recipe(SourceParams(), spec).noises * 2
        bins = (slice(None), slice(40, 900), slice(m // 3, None), slice(0, 7), slice(5, 6))
        return list(zip(np.random.SeedSequence(5).spawn(len(bins)), noises, bins))

    @pytest.mark.parametrize("lanes", [1, 2, 3])
    def test_results_come_back_in_call_order(self, lanes, monkeypatch):
        _cores(monkeypatch, 2)
        spec = DigitizerSpec(n_samples=50_001)
        draws = self._draws(spec)
        want = [noise_spectrum(np.random.default_rng(ss), spec, psd, bins)
                for ss, psd, bins in draws]
        got, _ = source._draw(spec, draws, lanes)
        assert len(got) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert threading.active_count() == 1

    @pytest.mark.parametrize("name", list(RECIPES))
    def test_one_lane_and_two_draw_the_same_spectra(self, name, small_spec, monkeypatch):
        recipe = RECIPES[name](SourceParams(), small_spec)
        start = threading.Thread.start
        started = []

        def counting_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        spectra = []
        for cores in (1, 2):
            _cores(monkeypatch, cores)
            spectra.append(recipe.noise_spectra(9))
            assert len(started) == cores - 1
        assert all(np.array_equal(x, y) for x, y in zip(*spectra))
        _cores(monkeypatch, 2)
        with_work = recipe.noise_spectra_beside(9, lambda: "done")
        assert with_work[1] == "done" and len(started) == 2
        assert all(np.array_equal(x, y) for x, y in zip(spectra[0], with_work[0]))

    @pytest.mark.parametrize("beside", [False, True])
    def test_worker_error_is_raised_here_with_no_thread_left(self, beside, small_spec,
                                                             monkeypatch):
        _cores(monkeypatch, 2)

        class Boom(Exception):
            pass

        real, raised_on = source.noise_spectrum, []

        def draw(rng, *args):
            if rng.bit_generator.seed_seq.spawn_key == (1,):
                raised_on.append(threading.current_thread())
                raise Boom("noise 1")
            return real(rng, *args)

        monkeypatch.setattr(source, "noise_spectrum", draw)
        recipe = twin_recipe(SourceParams(), small_spec)
        with pytest.raises(Boom, match="noise 1") as info:
            if beside:
                recipe.noise_spectra_beside(3, lambda: None)
            else:
                recipe.noise_spectra(3)
        assert info.type is Boom
        assert raised_on and raised_on[0] is not threading.main_thread()
        assert threading.active_count() == 1

    def test_work_error_wins_after_the_draws_are_joined(self, small_spec, monkeypatch):
        _cores(monkeypatch, 2)

        def work():
            raise InvalidParams("work")

        with pytest.raises(InvalidParams, match="work"):
            twin_recipe(SourceParams(), small_spec).noise_spectra_beside(3, work)
        assert threading.active_count() == 1


class TestTwinStatistics:
    def test_difference_variance_law(self):
        # in-band difference PSD over the shot reference = 10^(-S/10) +/- 2 %.
        # A single 2 ms record resolves the 2 MHz band power only to ~1.6 %
        # (T*B degrees of freedom), so average a few seeded records.
        spec = DigitizerSpec(n_samples=4_000_000)
        params = SourceParams()
        ratios = []
        for seed in range(8):
            pair = gen_twin(params, spec, seed=seed)
            diff = pair.a.samples - pair.b.samples
            measured = in_band_psd_mean(diff, spec.sample_rate)
            ratios.append(measured / (pair.a.shot_psd + pair.b.shot_psd))
        assert np.mean(ratios) == pytest.approx(10 ** (-params.squeezing_db / 10),
                                                rel=0.02)

    def test_zero_squeezing_is_shot_limited(self, mid_spec):
        params = SourceParams(squeezing_db=0.0)
        pair = gen_twin(params, mid_spec, seed=32)
        diff = pair.a.samples - pair.b.samples
        measured = in_band_psd_mean(diff, mid_spec.sample_rate)
        shot_sum = pair.a.shot_psd + pair.b.shot_psd
        assert measured / shot_sum == pytest.approx(1.0, rel=0.05)

    def test_arm_excess_noise(self, mid_spec):
        params = SourceParams()
        pair = gen_twin(params, mid_spec, seed=33)
        for arm in (pair.a, pair.b):
            x_db = 10 * np.log10(
                in_band_psd_mean(arm.samples, mid_spec.sample_rate) / arm.shot_psd
            )
            assert x_db == pytest.approx(params.excess_noise_db, abs=0.4)

    def test_raw_delay_scan_fwhm_tracks_sigma0(self):
        # unfiltered scan of a full-size twin pair: the MI envelope follows
        # the configured correlation scale, FWHM = 2 sqrt(2 ln 2) sigma0 +/- 10 %
        from twinbeam.mi import fwhm

        spec = DigitizerSpec(n_samples=4_000_000)
        params = SourceParams()
        pair = gen_twin(params, spec, seed=60)
        curve = mi_delay_scan(pair, range_=120e-9)
        width = fwhm(curve)
        expected = 2 * np.sqrt(2 * np.log(2)) * params.sigma0
        assert width == pytest.approx(expected, rel=0.10)
        # flat noisy top: the argmax wanders a few grid steps around zero
        assert abs(curve.peak_delay) < 10e-9

    def test_mirror_symmetry_of_mi_curve(self, mid_spec):
        params = SourceParams()
        pair = gen_twin(params, mid_spec, seed=34)
        fa = bandpass(pair.a, F_LO, F_HI)
        fb = bandpass(pair.b, F_LO, F_HI)
        fwd = mi_delay_scan(TracePair(a=fa, b=fb), range_=40e-9)
        rev = mi_delay_scan(TracePair(a=fb, b=fa), range_=40e-9)
        # swapping arms mirrors the curve about zero delay (statistically)
        assert np.allclose(fwd.mi, rev.mi[::-1], atol=0.05 * fwd.peak)
        assert abs(fwd.peak_delay + rev.peak_delay) <= 1e-9


class TestSplitCoherent:
    def test_arms_pass_independence_bound(self, mid_spec):
        # at 0.6 GS/s the Nyquist frequency is the noise bandwidth, so the
        # samples are white and the normalized cross-correlation over the
        # delay-scan range must stay below 5/sqrt(N)
        spec = DigitizerSpec(sample_rate=2 * NOISE_BANDWIDTH_HZ, n_samples=mid_spec.n_samples)
        pair = gen_split_coherent(SourceParams(), spec, seed=35)
        n = spec.n_samples
        a = pair.a.samples / np.sqrt(np.sum(pair.a.samples ** 2))
        b = pair.b.samples / np.sqrt(np.sum(pair.b.samples ** 2))
        xc = np.fft.irfft(np.fft.rfft(a) * np.conj(np.fft.rfft(b)), n)
        k = round(300e-9 * spec.sample_rate)
        lags = np.concatenate([xc[:k + 1], xc[-k:]])  # +/- 300 ns
        assert np.max(np.abs(lags)) < 5.0 / np.sqrt(n)

    def test_one_record_in_both_arms_hits_self_mi(self, small_spec):
        a = gen_split_coherent(SourceParams(), small_spec, seed=36).a
        curve = mi_delay_scan(TracePair(a=a, b=a), range_=5e-9, n_bins=100)
        i0 = len(curve.mi) // 2
        # perfect dependence: MI equals the marginal entropy, bounded by log2(bins)
        assert curve.mi[i0] <= np.log2(100) + 1e-9
        assert curve.mi[i0] > 0.8 * np.log2(100)

    def test_bias_floor_matches_miller_madow_scale(self):
        # independent Gaussian pair, N = 4e6, 100 bins: naive MI bias floor
        # approximately (cells - 1) / (2 N ln 2), within a factor of 3
        from twinbeam.mi import histogram2d, mi_from_hist

        rng = np.random.default_rng(37)
        n = 4_000_000
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        est = mi_from_hist(histogram2d(x, y, 100, 100))
        floor = (100 * 100 - 1) / (2 * n * np.log(2))
        assert floor / 3 < est < floor * 3


class TestSplitThermal:
    def test_peak_between_coherent_and_twin(self, mid_spec):
        params = SourceParams()

        def filtered_peak(pair):
            fa = bandpass(pair.a, F_LO, F_HI)
            fb = bandpass(pair.b, F_LO, F_HI)
            return mi_delay_scan(TracePair(a=fa, b=fb), range_=20e-9).peak

        twin = filtered_peak(gen_twin(params, mid_spec, seed=38))
        thermal = filtered_peak(gen_split_thermal(params, mid_spec, seed=38))
        coherent = filtered_peak(gen_split_coherent(params, mid_spec, seed=38))
        assert coherent < thermal < twin
        assert thermal < 0.75 * twin

    def test_zero_thermal_reduces_to_coherent(self, small_spec, monkeypatch):
        params = SourceParams()
        monkeypatch.setattr(source, "THERMAL_EXCESS_DB", 0.0)
        pair = gen_split_thermal(params, small_spec, seed=39)
        curve = mi_delay_scan(pair, range_=10e-9)
        # no shared component at all: MI at the estimator floor
        assert curve.peak < 0.02

    def test_seed_spread_is_small(self, small_spec):
        params = SourceParams()
        peaks = []
        for seed in range(40, 50):
            pair = gen_split_thermal(params, small_spec, seed=seed)
            fa = bandpass(pair.a, F_LO, F_HI)
            fb = bandpass(pair.b, F_LO, F_HI)
            peaks.append(mi_delay_scan(TracePair(a=fa, b=fb), range_=10e-9).peak)
        peaks = np.asarray(peaks)
        assert peaks.std(ddof=1) < 0.35 * peaks.mean()


class TestU8Encoding:
    """The digitizer's level grid, onto which ``save_trace``'s u8 encoding rounds."""

    @staticmethod
    def levels(trace, path):
        save_trace(trace, path, encoding="u8")
        return np.frombuffer(twbm_payload(path), dtype=np.uint8).astype(np.float64)

    def test_grid_point_fixed(self, small_spec, tmp_path):
        rng = np.random.default_rng(50)
        levels = rng.integers(40, 200, size=small_spec.n_samples).astype(float)
        tr = Trace.from_raw(levels, small_spec)
        assert np.array_equal(self.levels(tr, tmp_path / "q.twbm"), levels)

    def test_gaussian_six_sigma_no_clipping(self, small_spec, tmp_path):
        # oracle: clipping probability 2 Phi(-6) = erfc(6/sqrt(2)) < 1e-8
        assert erfc(6.0 / np.sqrt(2.0)) < 1e-8
        rng = np.random.default_rng(51)
        sigma = 128.0 / 6.0
        tr = Trace.from_raw(128.0 + sigma * rng.standard_normal(small_spec.n_samples),
                            small_spec)
        # seeded draw: no sample beyond 6 sigma, so none lands on an extreme level
        levels = self.levels(tr, tmp_path / "q.twbm")
        assert levels.min() > 0.0 and levels.max() < 255.0

    def test_at_most_256_levels(self, small_spec, tmp_path):
        pair = gen_twin(SourceParams(), small_spec, seed=52)
        levels = self.levels(pair.a, tmp_path / "q.twbm")
        assert len(np.unique(levels)) <= 256
        assert np.array_equal(levels, np.clip(np.rint(pair.a.samples + pair.a.mean_level),
                                              0.0, 255.0))

    def test_squeezing_survives_quantization(self, tmp_path):
        spec = DigitizerSpec(n_samples=2 ** 21)
        params = SourceParams()
        pair = gen_twin(params, spec, seed=53)
        diff = self.levels(pair.a, tmp_path / "a.twbm") - self.levels(pair.b, tmp_path / "b.twbm")
        measured = in_band_psd_mean(diff - diff.mean(), spec.sample_rate)
        ratio = measured / (pair.a.shot_psd + pair.b.shot_psd)
        assert 10 * np.log10(ratio) == pytest.approx(-params.squeezing_db, abs=0.5)


class TestTwinRecipeBounds:
    def test_from_source(self):
        pair = twin_recipe(SourceParams(), DigitizerSpec())
        shot_a, shot_b = (arm.shot_psd for arm in pair.arms)
        assert shot_a == pytest.approx(SHOT_RMS_LEVELS ** 2 / NOISE_BANDWIDTH_HZ)
        assert shot_b == pytest.approx(shot_a * 5.3 / 5.9)
        shared = pair.noises[0]
        assert shared(np.array([F_LO]))[0] > 0

    def test_sigma0_whose_shared_spectrum_underflows(self):
        # 2800 ns leaves a finite shared level, which only the record's per-bin
        # scale refuses; wider, the band mean is subnormal (its scale overflows) or zero
        spec = DigitizerSpec(n_samples=4_000_000)
        with pytest.raises(InvalidParams, match="too wide for a 4000000-sample record"):
            twin_recipe(SourceParams(sigma0=2800e-9), spec)
        for sigma0 in (2850e-9, 3000e-9, 1.0):
            with pytest.raises(InvalidParams, match="sigma0 .* ns is too wide: its shared "
                                                    "spectrum underflows"):
                twin_recipe(SourceParams(sigma0=sigma0), spec)

    def test_twin_records_float64_cannot_carry(self):
        # the shared PSD's per-bin scale overflows past 2767 ns on 4e6 samples;
        # past 182 dB eps * rms of an arm exceeds the DC-removal tolerance
        spec = DigitizerSpec(n_samples=4_000_000)
        for ok, bad, name in ((SourceParams(sigma0=2767e-9), SourceParams(sigma0=2768e-9),
                               "sigma0 2768 ns is too wide for a 4000000-sample record"),
                              (SourceParams(excess_noise_db=182.0),
                               SourceParams(excess_noise_db=183.0),
                               "excess_noise_db 183 dB is too high")):
            twin_recipe(ok, spec)
            with pytest.raises(InvalidParams, match=name):
                twin_recipe(bad, spec)

    def test_full_band_records_float64_cannot_carry(self, monkeypatch):
        # the bound is the integral of each arm's PSD: 5.8e8 levels at 650 ns,
        # 1.2e10 at 700 ns, against eps * rms <= 2.56e-7 (rms 1.15e9)
        spec = DigitizerSpec(n_samples=4_000_000)
        ok = twin_recipe(SourceParams(sigma0=650e-9), spec)
        bad = twin_recipe(SourceParams(sigma0=700e-9), spec)
        assert ok.arm_rms[0] == pytest.approx(5.78e8, rel=0.01)
        class Drawn(Exception):
            pass

        def draw(*args):
            raise Drawn

        monkeypatch.setattr(source, "noise_spectrum", draw)
        with pytest.raises(Drawn):
            ok.traces(1)
        with pytest.raises(InvalidParams, match="arm probe of full-band rms .* sigma0"):
            bad.traces(1)


class TestDynamicRange:
    def test_fluctuations_span_about_100_levels(self, mid_spec):
        # records should occupy roughly 100 digitization levels
        pair = gen_twin(SourceParams(), mid_spec, seed=54)
        span = pair.a.samples.max() - pair.a.samples.min()
        assert 40 < span < 160
