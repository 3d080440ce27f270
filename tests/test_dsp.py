import numpy as np
import pytest
from scipy import signal

from twinbeam.dsp import (SpectrumEstimate, band_mask, bandpass, check_segment_band,
                          difference_spectrum, welch_psd)
from twinbeam.errors import InvalidParams
from twinbeam.source import gen_split_coherent, gen_twin
from twinbeam.trace import SourceParams, TracePair

from conftest import make_trace

F_LO, F_HI = 1.5e6, 3.5e6


def tone_trace(freq, n=2 ** 20, fs=2.0e9, amp=1.0):
    t = np.arange(n) / fs
    x = amp * np.sin(2 * np.pi * freq * t)
    return make_trace(x, sample_rate=fs)


def rms_interior(x, cut):
    return float(np.sqrt(np.mean(x[cut:-cut] ** 2)))


class TestBandpass:
    def test_passband_tone_preserved(self):
        tr = tone_trace(2.5e6)
        out = bandpass(tr, F_LO, F_HI)
        gain = rms_interior(out.samples, 2 ** 16) / rms_interior(tr.samples, 2 ** 16)
        assert abs(20 * np.log10(gain)) < 0.1

    def test_stopband_tone_suppressed(self):
        tr = tone_trace(100e3)
        out = bandpass(tr, F_LO, F_HI)
        gain = rms_interior(out.samples, 2 ** 16) / rms_interior(tr.samples, 2 ** 16)
        assert 20 * np.log10(gain) < -60.0

    def test_high_stopband_tone_suppressed(self):
        tr = tone_trace(8e6)
        out = bandpass(tr, F_LO, F_HI)
        gain = rms_interior(out.samples, 2 ** 16) / rms_interior(tr.samples, 2 ** 16)
        assert 20 * np.log10(gain) < -60.0

    def test_invalid_band_rejected(self):
        tr = tone_trace(2.5e6, n=2 ** 16)
        for lo, hi in [(0.0, 3.5e6), (3.5e6, 1.5e6), (1.5e6, 1.5e9)]:
            with pytest.raises(InvalidParams, match="must satisfy 0 < f_lo < f_hi"):
                bandpass(tr, lo, hi)

    def test_zero_group_delay_peak_not_shifted(self):
        # correlated pair with a known lag: filtering must not move the
        # cross-correlation peak by more than one sample grid step
        rng = np.random.default_rng(0)
        n, fs, lag = 2 ** 20, 2.0e9, 37
        base = rng.standard_normal(n)
        # correlated content well inside the band
        from scipy.ndimage import gaussian_filter1d
        sig = gaussian_filter1d(base, 120.0, mode="wrap")
        a = make_trace(np.roll(sig, lag), sample_rate=fs)
        b = make_trace(sig, sample_rate=fs)
        fa, fb = bandpass(a, F_LO, F_HI), bandpass(b, F_LO, F_HI)

        def xcorr_peak(u, v, cut=2 ** 15, span=100):
            uu, vv = u[cut:-cut], v[cut:-cut]
            lags = np.arange(-span, span + 1)
            vals = [np.dot(uu[max(0, k):len(uu) + min(0, k)],
                           vv[max(0, -k):len(vv) + min(0, -k)]) for k in lags]
            return lags[int(np.argmax(vals))]

        assert abs(xcorr_peak(fa.samples, fb.samples) - lag) <= 1

    def test_lti_shift_invariance(self):
        rng = np.random.default_rng(1)
        n, k = 2 ** 18, 57
        x = rng.standard_normal(n)
        tr = make_trace(x)
        tr_shift = make_trace(np.roll(x, k))
        f1 = bandpass(tr, F_LO, F_HI).samples
        f2 = bandpass(tr_shift, F_LO, F_HI).samples
        cut = 2 ** 16
        ref = np.roll(f1, k)[cut:-cut]
        got = f2[cut:-cut]
        scale = np.sqrt(np.mean(ref ** 2))
        assert np.max(np.abs(got - ref)) < 1e-3 * scale

    def test_parseval_consistency(self):
        rng = np.random.default_rng(2)
        tr = make_trace(rng.standard_normal(2 ** 20))
        out = bandpass(tr, F_LO, F_HI)
        v = out.valid()
        var = float(np.var(v))
        freqs, psd = welch_psd(v, tr.spec.sample_rate, 2 ** 14)
        integral = float(np.trapezoid(psd, freqs))
        assert integral == pytest.approx(var, rel=0.01)

    def test_guard_enlarged(self):
        tr = make_trace(np.random.default_rng(3).standard_normal(2 ** 18))
        out = bandpass(tr, F_LO, F_HI)
        assert out.guard >= 2 ** 15 or out.guard >= len(tr.samples) // 4


class TestBandMask:
    def test_flat_inside_zero_outside(self):
        f = np.linspace(0, 10e6, 10001)
        h = band_mask(f, F_LO, F_HI)
        assert np.all(h[(f > F_LO + 0.21e6) & (f < F_HI - 0.21e6)] == 1.0)
        assert np.all(h[(f < F_LO) | (f > F_HI)] == 0.0)
        assert np.all((h >= 0) & (h <= 1))


class TestWelchPsd:
    """``welch_psd`` against scipy.signal.welch with the same settings."""

    @pytest.mark.parametrize("n, seg", [
        (1001, 1),                        # Hann of length 1 is [1]; step 1
        (1001, 2),
        (2 ** 14, 2 ** 14),               # exactly one segment
        (2 ** 18 + 2 ** 13 + 12345, 2 ** 14),   # odd: partial last segment dropped; 33 segments
        (999, 8),
    ])
    def test_matches_scipy(self, n, seg):
        x = 3.0 + np.random.default_rng(n + seg).standard_normal(n)
        with np.errstate(all="raise"):
            f, p = welch_psd(x, 2.0e9, seg)
        f_ref, p_ref = signal.welch(x, fs=2.0e9, window="hann", nperseg=seg,
                                    noverlap=seg // 2, detrend="constant",
                                    scaling="density")
        assert np.array_equal(f, f_ref)
        np.testing.assert_allclose(p, p_ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("seg", [0, 3, 2 ** 10])
    def test_refuses_a_bad_segment(self, seg):
        with pytest.raises(InvalidParams):
            welch_psd(np.ones(1000), 2.0e9, seg)


class TestCheckSegmentBand:
    # a 64-sample segment at 2 GS/s has bins every 31.25 MHz
    @pytest.mark.parametrize("band", [(31e6, 40e6), (20e6, 32e6), (1e6, 1000e6)])
    def test_a_bin_in_the_band_passes(self, band):
        check_segment_band(64, 2e9, *band)

    @pytest.mark.parametrize("band", [(1.5e6, 3.5e6), (31.3e6, 62.4e6), (1001e6, 1100e6)])
    def test_no_bin_in_the_band_refused(self, band):
        with pytest.raises(InvalidParams, match="holds no bin of a 64-sample Welch segment"):
            check_segment_band(64, 2e9, *band)

    def test_agrees_with_the_estimate(self):
        # the rule passes exactly the bands whose mean the estimate can take
        x = np.random.default_rng(3).standard_normal(4096)
        est = difference_spectrum(TracePair(a=make_trace(x), b=make_trace(0.5 * x)),
                                  TracePair(a=make_trace(x), b=make_trace(-x)), segment_length=64)
        for band in [(31.25e6, 40e6), (31.3e6, 62.4e6), (1.5e6, 3.5e6), (990e6, 999e6)]:
            try:
                check_segment_band(64, 2e9, *band)
            except InvalidParams:
                with pytest.raises(InvalidParams, match="band contains no spectral bins"):
                    est.in_band_mean_db(*band)
            else:
                est.in_band_mean_db(*band)


class TestDifferenceSpectrum:
    def test_pair_vs_itself_zero_db(self, small_spec):
        pair = gen_twin(SourceParams(), small_spec, seed=4)
        est = difference_spectrum(pair, pair, segment_length=2 ** 12)
        sel = (est.frequencies >= F_LO) & (est.frequencies <= F_HI)
        assert np.allclose(est.squeezing_db_curve[sel], 0.0, atol=1e-12)
        assert est.in_band_mean_db(F_LO, F_HI) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_in_arm_swap(self, small_spec):
        pair = gen_twin(SourceParams(), small_spec, seed=5)
        ref = gen_split_coherent(SourceParams(), small_spec, seed=6)
        e1 = difference_spectrum(pair, ref, segment_length=2 ** 12)
        e2 = difference_spectrum(TracePair(a=pair.b, b=pair.a), ref, segment_length=2 ** 12)
        assert np.array_equal(e1.psd, e2.psd)

    def test_coherent_vs_coherent_near_zero_db(self, mid_spec):
        p1 = gen_split_coherent(SourceParams(), mid_spec, seed=7)
        p2 = gen_split_coherent(SourceParams(), mid_spec, seed=8)
        est = difference_spectrum(p1, p2, segment_length=2 ** 12)
        assert abs(est.in_band_mean_db(F_LO, F_HI)) < 0.3

    def test_segment_validation(self, small_spec):
        pair = gen_split_coherent(SourceParams(), small_spec, seed=9)
        with pytest.raises(InvalidParams):
            difference_spectrum(pair, pair, segment_length=3000)
        with pytest.raises(InvalidParams):
            difference_spectrum(pair, pair, segment_length=2 ** 21)

    def test_estimate_invariants(self):
        with pytest.raises(InvalidParams):
            SpectrumEstimate(
                frequencies=np.array([0.0, 1.0]),
                psd=np.array([1.0, -1.0]),
                reference_psd=np.array([1.0, 1.0]),
                squeezing_db_curve=np.array([0.0, 0.0]),
            )
