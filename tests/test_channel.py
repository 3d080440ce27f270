from dataclasses import replace

import numpy as np
import pytest
from scipy import signal

from twinbeam.channel import (
    apply_channel,
    apply_electronic_noise,
    apply_is_delay,
    apply_loss,
    channel_spectrum,
    delay_taps,
    discretize_kernel,
    kernel_response,
)
from twinbeam.design import InBandModel, matched_transmission, predicted_peak_ratio
from twinbeam.dsp import bandpass, welch_psd
from twinbeam.errors import InvalidParams, InvalidTransmission, KernelTooWide
from twinbeam.mi import mi_delay_scan
from twinbeam.model import peak_value
from twinbeam.pipeline import scatterer_only_channel
from twinbeam.source import NOISE_BANDWIDTH_HZ, gen_twin, twin_recipe
from twinbeam.trace import ChannelParams, DigitizerSpec, SourceParams, TracePair

from conftest import make_trace

F_LO, F_HI = 1.5e6, 3.5e6


class TestApplyLoss:
    def test_unit_transmission_identity(self, small_spec):
        pair = gen_twin(SourceParams(), small_spec, seed=1)
        out = apply_loss(pair.a, 1.0, seed=2)
        assert out is pair.a

    def test_invalid_transmission(self, small_spec):
        pair = gen_twin(SourceParams(), small_spec, seed=1)
        for t in (0.0, -0.5, 1.5):
            with pytest.raises(InvalidTransmission):
                apply_loss(pair.a, t, seed=2)

    def test_requires_shot_psd(self, small_spec):
        tr = make_trace(np.random.default_rng(0).standard_normal(small_spec.n_samples))
        with pytest.raises(InvalidParams):
            apply_loss(tr, 0.5, seed=3)

    def test_scaling_and_added_noise_variance(self, mid_spec):
        pair = gen_twin(SourceParams(), mid_spec, seed=4)
        t = 0.14
        out = apply_loss(pair.a, t, seed=5)
        added = out.samples - t * pair.a.samples
        expected_var = t * (1 - t) * pair.a.shot_psd * NOISE_BANDWIDTH_HZ
        assert added.var() == pytest.approx(expected_var, rel=0.02)
        assert out.mean_level == pytest.approx(t * pair.a.mean_level)
        assert out.shot_psd == pytest.approx(t * pair.a.shot_psd)

    def test_squeezing_degrades_per_loss_formula(self):
        # loss t on both arms: in-band difference PSD over the shot level at
        # the reduced power equals t * 10^(-S/10) + (1 - t)
        spec = DigitizerSpec(n_samples=4_000_000)
        params = SourceParams()
        t = 0.5
        s_lin = 10 ** (-params.squeezing_db / 10)
        ratios = []
        for seed in range(4):
            pair = gen_twin(params, spec, seed=seed)
            la = apply_loss(pair.a, t, seed=100 + seed)
            lb = apply_loss(pair.b, t, seed=200 + seed)
            f, p = welch_psd(la.samples - lb.samples, spec.sample_rate, 2 ** 13)
            sel = (f >= F_LO) & (f <= F_HI)
            shot_out = la.shot_psd + lb.shot_psd  # shot at the reduced powers
            ratios.append(p[sel].mean() / shot_out)
        expected = t * s_lin + (1 - t)
        assert np.mean(ratios) == pytest.approx(expected, rel=0.02)


class TestKernel:
    def test_taps_sum_to_one(self):
        taps, _ = discretize_kernel(2e9, 32.7e-9, 19.7e-9)
        assert abs(taps.sum() - 1.0) < 1e-12

    def test_first_moment_is_tau0(self):
        fs, tau0, sigma = 2e9, 32.7e-9, 19.7e-9
        taps, k_min = discretize_kernel(fs, tau0, sigma)
        lags = (np.arange(len(taps)) + k_min) / fs
        mean = float(np.sum(lags * taps))
        assert abs(mean - tau0) < 0.5 / fs

    def test_mean_preserved(self, small_spec):
        pair = gen_twin(SourceParams(), small_spec, seed=6)
        out = apply_is_delay(pair.a, ChannelParams())
        scale = np.abs(pair.a.samples).sum()
        assert abs(out.samples.sum() - pair.a.samples.sum()) < 1e-9 * scale

    def test_delta_input_reproduces_kernel(self, small_spec):
        n = small_spec.n_samples
        x = np.zeros(n)
        x[n // 2] = 1.0
        tr = make_trace(x)
        params = ChannelParams(tau0=32.7e-9, sigma=19.7e-9)
        out = apply_is_delay(tr, params)
        taps, k_min = discretize_kernel(2e9, params.tau0, params.sigma)
        got = out.samples[n // 2 + k_min : n // 2 + k_min + len(taps)]
        # DC offset from mean removal is 1/n per sample
        assert np.allclose(got, taps - 1.0 / n, atol=1e-9)
        peak_at = int(np.argmax(out.samples)) - n // 2
        assert peak_at == pytest.approx(params.tau0 * 2e9, abs=1.0)

    def test_sigma_to_zero_is_pure_shift(self, small_spec):
        pair = gen_twin(SourceParams(), small_spec, seed=7)
        shift = 65  # 32.5 ns at 2 GS/s
        params = ChannelParams(tau0=32.5e-9, sigma=1e-13)
        out = apply_is_delay(pair.a, params)
        n = small_spec.n_samples
        assert np.array_equal(out.samples[shift:], pair.a.samples[: n - shift])

    def test_white_noise_autocorrelation_matches_kernel_self_convolution(self, mid_spec):
        rng = np.random.default_rng(8)
        tr = make_trace(rng.standard_normal(mid_spec.n_samples))
        params = ChannelParams(tau0=32.7e-9, sigma=19.7e-9)
        out = apply_is_delay(tr, params)
        taps, _ = discretize_kernel(2e9, params.tau0, params.sigma)
        oracle = np.convolve(taps, taps[::-1])  # autocorrelation of the kernel
        mid = len(taps) - 1
        v = out.valid()
        lags = np.arange(0, 120)
        meas = np.array([np.dot(v[: len(v) - k], v[k:]) / (len(v) - k) for k in lags])
        assert np.allclose(meas, oracle[mid : mid + 120], atol=0.02 * oracle[mid])

    def test_linearity(self, small_spec):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(small_spec.n_samples)
        y = rng.standard_normal(small_spec.n_samples)
        params = ChannelParams()
        fx = apply_is_delay(make_trace(x), params).samples
        fy = apply_is_delay(make_trace(y), params).samples
        fxy = apply_is_delay(make_trace(x + y, ), params).samples
        # make_trace removes means; recenter sum consistently
        fxy_expected = fx + fy - (fx + fy).mean()
        assert np.allclose(fxy - fxy.mean(), fxy_expected, atol=1e-11)

    def test_kernel_too_wide(self):
        spec = DigitizerSpec(n_samples=4096)
        tr = make_trace(np.random.default_rng(10).standard_normal(4096))
        with pytest.raises(KernelTooWide):
            apply_is_delay(tr, ChannelParams(tau0=0.0, sigma=100e-9))

    def test_guard_grows(self, small_spec):
        pair = gen_twin(SourceParams(), small_spec, seed=11)
        out = apply_is_delay(pair.a, ChannelParams())
        assert out.guard >= pair.a.guard + 1000


class TestDelayConvolution:
    """``apply_is_delay`` against scipy.signal.fftconvolve on a reflected record."""

    @pytest.mark.parametrize("params", [
        ChannelParams(tau0=32.7e-9, sigma=1e-6),   # 48 002 taps
        ChannelParams(),                           # tau0 < 12 sigma: k_min < 0
        ChannelParams(tau0=100e-9, sigma=2e-9),    # k_min > 0
        ChannelParams(tau0=32.5e-9, sigma=1e-13),  # one tap: the roll
    ], ids=["wide", "negative k_min", "positive k_min", "delta"])
    def test_matches_fftconvolve(self, small_spec, params):
        x = gen_twin(SourceParams(), small_spec, seed=12).a
        n = small_spec.n_samples
        taps, k_min, _ = delay_taps(params, small_spec.sample_rate, n)
        pad = len(taps) + abs(k_min)
        # y[i] = sum_j taps[j] x[i - k_min - j], and x[m] = xp[m + pad]
        full = signal.fftconvolve(np.pad(x.samples, pad, mode="reflect"), taps)
        want = full[pad - k_min : pad - k_min + n]
        out = apply_is_delay(x, params)
        inner = slice(out.guard, n - out.guard)
        d = out.samples[inner] - want[inner]
        # the records differ by a constant only: the mean their ends leak
        assert np.abs(d - d.mean()).max() < 1e-13 * np.abs(x.samples).max()


class TestKernelResponse:
    """The DFT of the kernel's taps placed circularly, at a record's rfft bins."""

    def test_matches_rfft_of_circular_taps(self):
        n, fs = 2 ** 14, 2.0e9
        params = ChannelParams()
        taps, k_min = discretize_kernel(fs, params.tau0, params.sigma)
        x = np.zeros(n)
        x[(k_min + np.arange(len(taps))) % n] = taps
        want = np.fft.rfft(x)
        # Horner's rule over ~950 taps: 2e-14 measured against the FFT
        assert np.abs(kernel_response(params, fs, n) - want).max() < 1e-12
        bins = slice(10, 30)
        assert np.abs(kernel_response(params, fs, n, bins) - want[bins]).max() < 1e-12

    @pytest.mark.parametrize("params", [scatterer_only_channel(),
                                        ChannelParams(tau0=5e-9, sigma=1e-12)],
                             ids=["scatterer-only", "5 ns delta"])
    def test_delta_limit_is_the_roll(self, small_spec, params):
        x = gen_twin(SourceParams(), small_spec, seed=8).a
        n, fs = small_spec.n_samples, small_spec.sample_rate
        y = np.fft.irfft(np.fft.rfft(x.samples) * kernel_response(params, fs, n), n)
        assert np.abs(y - apply_is_delay(x, params).samples).max() < 1e-12

    def test_channel_spectrum_checks_like_apply_channel(self, small_spec):
        recipe = twin_recipe(SourceParams(), small_spec, seed=9)
        arm = np.zeros(3, dtype=complex)
        wide = replace(ChannelParams(), sigma=small_spec.duration)
        with pytest.raises(KernelTooWide):
            channel_spectrum(recipe, arm, slice(10, 13), wide, seed=1)
        with pytest.raises(KernelTooWide):
            apply_channel(recipe.traces(), wide, seed=1)


class TestElectronicNoise:
    def test_zero_rms_identity(self, small_spec):
        pair = gen_twin(SourceParams(), small_spec, seed=12)
        assert apply_electronic_noise(pair.a, 0.0, seed=13) is pair.a

    def test_rms_magnitude(self, mid_spec):
        pair = gen_twin(SourceParams(), mid_spec, seed=14)
        out = apply_electronic_noise(pair.a, 3.0, seed=15)
        added = out.samples - pair.a.samples
        assert np.sqrt(added.var()) == pytest.approx(3.0, rel=0.02)

    def test_mi_decreases_monotonically_with_noise(self, mid_spec):
        pair = gen_twin(SourceParams(), mid_spec, seed=16)
        fb = bandpass(pair.b, F_LO, F_HI)
        peaks = []
        for rms in (0.0, 2.0, 6.0):
            na = apply_electronic_noise(pair.a, rms, seed=17)
            fa = bandpass(na, F_LO, F_HI)
            peaks.append(mi_delay_scan(TracePair(a=fa, b=fb), range_=10e-9).peak)
        assert peaks[0] > peaks[1] > peaks[2]

    def test_overwhelming_noise_buries_mi_at_floor(self, mid_spec):
        # detector noise far above the signal: the delay curve becomes
        # indistinguishable from the estimator bias floor.  The floor
        # reference is a surrogate pair built from identically processed but
        # statistically independent arms (the floor level depends on the
        # arms' spectral shapes, so a like-for-like surrogate is required).
        pair = gen_twin(SourceParams(), mid_spec, seed=70)
        other = gen_twin(SourceParams(), mid_spec, seed=73)
        big = 100.0 * float(np.sqrt(pair.a.samples.var()))

        na = apply_electronic_noise(pair.a, big, seed=71)
        fa = bandpass(na, F_LO, F_HI)
        fb = bandpass(pair.b, F_LO, F_HI)
        noisy = mi_delay_scan(TracePair(a=fa, b=fb), range_=30e-9)

        fb_other = bandpass(other.b, F_LO, F_HI)
        floor = mi_delay_scan(TracePair(a=fa, b=fb_other), range_=30e-9)
        bound = float(floor.mi.mean() + 3.0 * floor.mi.std(ddof=1))
        assert noisy.peak < bound


class TestApplyChannel:
    def test_identity_params_leave_pair_unchanged(self, small_spec):
        pair = gen_twin(SourceParams(), small_spec, seed=18)
        params = ChannelParams(power_transmission=1.0, tau0=0.0, sigma=1e-13,
                               electronic_noise_rms=0.0)
        out = apply_channel(pair, params, seed=19)
        assert np.array_equal(out.a.samples, pair.a.samples)
        assert np.array_equal(out.b.samples, pair.b.samples)

    def test_arm_b_untouched(self, small_spec):
        pair = gen_twin(SourceParams(), small_spec, seed=20)
        out = apply_channel(pair, ChannelParams(), seed=21)
        assert out.b is pair.b

    def test_deterministic(self, small_spec):
        pair = gen_twin(SourceParams(), small_spec, seed=22)
        o1 = apply_channel(pair, ChannelParams(), seed=23)
        o2 = apply_channel(pair, ChannelParams(), seed=23)
        assert np.array_equal(o1.a.samples, o2.a.samples)

    def test_composition_order_bounded(self, mid_spec):
        # The stage order is fixed (loss, then delay, then noise); swapping
        # loss and delay is not exactly neutral because the kernel low-passes
        # the loss noise in band (|L|^2 ~ 0.91), but the effect on the MI
        # peak stays within the acceptance head-room.
        pair = gen_twin(SourceParams(), mid_spec, seed=24)
        params = ChannelParams(power_transmission=0.6)

        def peak(order):
            a = pair.a
            if order == "loss-first":
                a = apply_loss(a, params.power_transmission, seed=25)
                a = apply_is_delay(a, params)
            else:
                a = apply_is_delay(a, params)
                a = apply_loss(a, params.power_transmission, seed=25)
            fa = bandpass(a, F_LO, F_HI)
            fb = bandpass(pair.b, F_LO, F_HI)
            return mi_delay_scan(TracePair(a=fa, b=fb), range_=60e-9).peak

        p1, p2 = peak("loss-first"), peak("delay-first")
        assert p1 == pytest.approx(p2, rel=0.15)
        assert p1 > p2  # smeared loss noise is weaker in band


class TestMatchedTransmission:
    def test_solves_to_model_peak_ratio(self):
        source = SourceParams()
        chan = ChannelParams()
        t = matched_transmission(source, chan)
        assert 0.2 < t < 0.9
        target = peak_value(chan.eta, source.sigma0, chan.sigma)
        got = predicted_peak_ratio(source, chan, t, F_LO, F_HI)
        assert got == pytest.approx(target, abs=1e-6)

    def test_measured_14_percent_floors_the_peak(self):
        # at the measured optical throughput the predicted MI peak ratio is
        # far below the channel model's 0.475: the two knobs are distinct
        source = SourceParams()
        chan = ChannelParams()
        assert predicted_peak_ratio(source, chan, 0.14, F_LO, F_HI) < 0.25


def _peak_xcorr(a, b, max_lag):
    """Largest correlation of a[i] with b[i - k] over lags k in [0, max_lag]."""
    g = max(a.guard, b.guard) + max_lag
    n = len(a.samples)
    x = a.samples[g:n - g]
    return max(np.corrcoef(x, b.samples[g - k:n - g - k])[0, 1] for k in range(max_lag + 1))


class TestDesignAgreesWithTraces:
    """The in-band predictor and the trace generator share one noise budget."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_predicted_rho_matches_measured(self, mid_spec, seed):
        source, chan = SourceParams(), ChannelParams()
        model = InBandModel(source, F_LO, F_HI)
        t = matched_transmission(source, chan)
        pair = gen_twin(source, mid_spec, seed)
        fa, fb = bandpass(pair.a, F_LO, F_HI), bandpass(pair.b, F_LO, F_HI)
        assert _peak_xcorr(fa, fb, 0) == pytest.approx(model.unobstructed_rho(), abs=0.02)

        arm = apply_channel(pair, replace(chan, power_transmission=t), seed + 10_000).a
        measured = _peak_xcorr(bandpass(arm, F_LO, F_HI), fb, 150)   # lags up to 75 ns
        assert measured == pytest.approx(model.channel_rho_peak(chan, t), abs=0.04)
