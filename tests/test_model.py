import numpy as np
import pytest
from scipy.integrate import quad

import twinbeam.model as model
from twinbeam.errors import FitError, InvalidParams
from twinbeam.model import (
    GAUSSIAN_FWHM_FACTOR,
    G_closed,
    G_numeric,
    exp_kernel_p,
    fit_channel,
    fit_gaussian,
    gaussian_g,
    model_fwhm,
    peak_value,
)
from twinbeam.trace import MICurve

PAPER = dict(eta=0.598, tau0=32.7e-9, sigma=19.7e-9, sigma0=32.1e-9)


class TestGaussian:
    def test_peak_is_one(self):
        assert gaussian_g(0.0, 32.1e-9) == 1.0

    def test_half_max_at_half_fwhm(self):
        s0 = 32.1e-9
        assert gaussian_g(0.5 * GAUSSIAN_FWHM_FACTOR * s0, s0) == pytest.approx(0.5)

    def test_fwhm_matches_reported(self):
        # 2 sqrt(2 ln 2) * 32.1 ns = 75.59 ns, quoted as 75.7 ns.
        fwhm = GAUSSIAN_FWHM_FACTOR * 32.1e-9
        assert fwhm == pytest.approx(75.6e-9, rel=5e-3)
        assert fwhm == pytest.approx(75.7e-9, rel=5e-3)


class TestExpKernel:
    def test_normalization_by_quadrature(self):
        val, _ = quad(lambda x: exp_kernel_p(x, 32.7e-9, 19.7e-9), -2e-6, 2e-6,
                      points=[32.7e-9], limit=200)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_peak_value(self):
        s = 19.7e-9
        assert exp_kernel_p(32.7e-9, 32.7e-9, s) == pytest.approx(1.0 / (2 * s))

    def test_moments_by_quadrature(self):
        tau0, s = 32.7e-9, 19.7e-9
        mean, _ = quad(lambda x: x * exp_kernel_p(x, tau0, s), -2e-6, 2e-6,
                       points=[tau0], limit=200)
        var, _ = quad(lambda x: (x - tau0) ** 2 * exp_kernel_p(x, tau0, s),
                      -2e-6, 2e-6, points=[tau0], limit=200)
        assert mean == pytest.approx(tau0, rel=1e-9)
        assert var == pytest.approx(2 * s * s, rel=1e-8)


class TestGClosed:
    def test_paper_peak(self):
        val = G_closed(PAPER["tau0"], **PAPER)
        assert val == pytest.approx(0.4754, abs=5e-4)
        assert val == pytest.approx(0.475, rel=5e-3)

    def test_matches_quadrature_oracle_paper(self):
        t = np.linspace(-200e-9, 300e-9, 501)
        gc = G_closed(t, **PAPER)
        gn = G_numeric(t, **PAPER)
        assert np.max(np.abs(gc - gn)) / gn.max() < 1e-8

    def test_matches_scipy_quad_spot_checks(self):
        # Second, independent quadrature: adaptive QUADPACK on the raw integrand.
        for t in (-50e-9, 0.0, 32.7e-9, 120e-9):
            ref, _ = quad(
                lambda x: np.exp(-0.5 * ((t - x) / PAPER["sigma0"]) ** 2)
                * np.exp(-abs(x - PAPER["tau0"]) / PAPER["sigma"])
                / (2 * PAPER["sigma"]),
                PAPER["tau0"] - 2e-6, PAPER["tau0"] + 2e-6,
                points=[PAPER["tau0"], t], limit=400, epsabs=1e-13, epsrel=1e-12,
            )
            assert G_closed(t, **PAPER) == pytest.approx(PAPER["eta"] * ref, abs=1e-10)

    def test_matches_oracle_extreme_ratios(self):
        t = np.linspace(-200e-9, 300e-9, 201)
        rng = np.random.default_rng(3)
        for ratio in (0.05, 0.3, 1.0, 5.0, 20.0):
            sigma0 = rng.uniform(15e-9, 50e-9)
            params = dict(eta=rng.uniform(0.2, 1.0), tau0=rng.uniform(-20e-9, 60e-9),
                          sigma=ratio * sigma0, sigma0=sigma0)
            gc = G_closed(t, **params)
            gn = G_numeric(t, **params)
            assert np.max(np.abs(gc - gn)) / gn.max() < 1e-8

    def test_finite_for_tiny_sigma(self):
        # sigma0/sigma = 321: naive exp(sigma0^2/2 sigma^2) overflows.
        val = G_closed(32.7e-9, eta=0.6, tau0=32.7e-9, sigma=0.1e-9, sigma0=32.1e-9)
        assert np.isfinite(val)
        assert val == pytest.approx(0.6, rel=1e-2)  # delta-kernel limit

    def test_delta_kernel_limit(self):
        t = np.linspace(-100e-9, 150e-9, 64)
        g_lim = G_closed(t, eta=0.7, tau0=20e-9, sigma=1e-12, sigma0=30e-9)
        expected = 0.7 * gaussian_g(t - 20e-9, 30e-9)
        assert np.allclose(g_lim, expected, rtol=1e-6, atol=1e-12)

    def test_linear_in_eta(self):
        t = np.linspace(-50e-9, 100e-9, 11)
        one = G_closed(t, eta=0.3, tau0=10e-9, sigma=15e-9, sigma0=30e-9)
        two = G_closed(t, eta=0.6, tau0=10e-9, sigma=15e-9, sigma0=30e-9)
        assert np.array_equal(two, 2.0 * one)

    def test_symmetric_about_tau0(self):
        t = np.linspace(1e-9, 120e-9, 40)
        fwd = G_closed(t, eta=0.5, tau0=0.0, sigma=12e-9, sigma0=25e-9)
        rev = G_closed(-t, eta=0.5, tau0=0.0, sigma=12e-9, sigma0=25e-9)
        assert np.allclose(fwd, rev, rtol=0, atol=1e-14)
        gn_fwd = G_numeric(np.array([40e-9]), 0.5, 0.0, 12e-9, 25e-9)
        gn_rev = G_numeric(np.array([-40e-9]), 0.5, 0.0, 12e-9, 25e-9)
        assert gn_fwd[0] == pytest.approx(gn_rev[0], abs=1e-12)


class TestPeakValue:
    def test_paper_value(self):
        assert peak_value(0.598, 32.1e-9, 19.7e-9) == pytest.approx(0.475, rel=5e-3)

    def test_equals_closed_form_at_peak(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            sigma0 = rng.uniform(5e-9, 80e-9)
            sigma = sigma0 * np.exp(rng.uniform(np.log(0.05), np.log(20.0)))
            eta = rng.uniform(0.05, 1.0)
            tau0 = rng.uniform(-50e-9, 80e-9)
            pv = peak_value(eta, sigma0, sigma)
            gc = G_closed(tau0, eta, tau0, sigma, sigma0)
            assert abs(pv - gc) <= 1e-10 * pv

    def test_wide_kernel_asymptote(self):
        # sigma >> sigma0: peak -> eta sigma0 sqrt(2 pi) / (2 sigma).
        eta, sigma0 = 0.8, 30e-9
        sigma = 100 * sigma0
        asym = eta * sigma0 * np.sqrt(2 * np.pi) / (2 * sigma)
        assert peak_value(eta, sigma0, sigma) == pytest.approx(asym, rel=2e-2)
        gn = G_numeric(0.0, eta, 0.0, sigma, sigma0)
        assert gn == pytest.approx(asym, rel=2e-2)


class TestModelFwhm:
    def test_paper_tuple(self):
        w = model_fwhm(32.1e-9, 19.7e-9)
        assert abs(w - 93.5e-9) < 1e-9

    def test_monotone_in_sigma(self):
        sigmas = np.linspace(1e-9, 60e-9, 25)
        widths = [model_fwhm(32.1e-9, s) for s in sigmas]
        assert np.all(np.diff(widths) > 0)

    def test_zero_spread_floor(self):
        w = model_fwhm(32.1e-9, 1e-13)
        assert w == pytest.approx(GAUSSIAN_FWHM_FACTOR * 32.1e-9, rel=1e-6)


def _curve_from(delays, values):
    return MICurve(delays=delays, mi=values)


class TestFitGaussian:
    def test_self_fit_exact(self):
        d = np.arange(-600, 601) * 0.5e-9
        m = 0.83 * gaussian_g(d - 3e-9, 32.1e-9)
        fit = fit_gaussian(_curve_from(d, m))
        assert fit.sigma0 == pytest.approx(32.1e-9, rel=1e-9)
        assert fit.peak == pytest.approx(0.83, rel=1e-9)
        assert fit.center == pytest.approx(3e-9, abs=1e-18)
        assert fit.residual_rms < 1e-12

    def test_noise_scaling(self):
        d = np.arange(-600, 601) * 0.5e-9
        base = gaussian_g(d, 32.1e-9)
        rng = np.random.default_rng(5)
        errs = []
        for _ in range(50):
            noisy = np.abs(base + 0.01 * rng.standard_normal(len(d)))
            fit = fit_gaussian(_curve_from(d, noisy))
            errs.append(abs(fit.sigma0 - 32.1e-9) / 32.1e-9)
        errs = np.asarray(errs)
        # 1 % point noise -> sub-percent parameter spread, nonzero.
        assert np.median(errs) < 0.01
        assert np.median(errs) > 0.0

    def test_edge_peak_rejected(self):
        d = np.arange(0, 100) * 0.5e-9
        m = np.linspace(0, 1, 100)
        with pytest.raises(FitError, match="curve maximum lies on the delay-range edge"):
            fit_gaussian(_curve_from(d, m))


class TestFitChannel:
    def test_round_trip_paper_tuple(self):
        d = np.arange(-600, 601) * 0.5e-9
        m = G_closed(d, **PAPER)
        fit = fit_channel(_curve_from(d, m), PAPER["sigma0"])
        assert fit.tau0 == pytest.approx(PAPER["tau0"], rel=1e-3)
        assert fit.sigma == pytest.approx(PAPER["sigma"], rel=1e-3)
        assert fit.eta == pytest.approx(PAPER["eta"], rel=1e-3)

    def test_curve_not_normalized_refused_before_fitting(self, monkeypatch):
        d = np.arange(-600, 601) * 0.5e-9
        curve = _curve_from(d, 2.5 * G_closed(d, **PAPER))
        monkeypatch.setattr(model, "_half_level_width", pytest.fail)   # stage 2
        with pytest.raises(InvalidParams, match="not normalized to the unobstructed peak"):
            fit_channel(curve, PAPER["sigma0"])

    def test_round_trip_random_tuples(self):
        d = np.arange(-600, 601) * 0.5e-9
        rng = np.random.default_rng(9)
        for _ in range(10):
            sigma0 = rng.uniform(20e-9, 45e-9)
            true = dict(eta=rng.uniform(0.2, 0.95), tau0=rng.uniform(0.0, 60e-9),
                        sigma=rng.uniform(0.2, 1.5) * sigma0, sigma0=sigma0)
            m = G_closed(d, **true)
            fit = fit_channel(_curve_from(d, m), sigma0)
            assert fit.tau0 == pytest.approx(true["tau0"], abs=0.02e-9)
            assert fit.sigma == pytest.approx(true["sigma"], rel=5e-3)
            assert fit.eta == pytest.approx(true["eta"], rel=5e-3)

    def test_width_at_floor_gives_zero_spread_limit(self):
        d = np.arange(-600, 601) * 0.5e-9
        m = 0.8 * gaussian_g(d, 32.1e-9)  # no broadening at all
        fit = fit_channel(_curve_from(d, m), 32.1e-9)
        assert fit.sigma < 5e-3 * 32.1e-9
        assert fit.eta == pytest.approx(0.8, rel=1e-3)

    def test_width_below_floor_raises(self):
        d = np.arange(-600, 601) * 0.5e-9
        m = 0.8 * gaussian_g(d, 25e-9)  # narrower than the sigma0 floor
        with pytest.raises(FitError, match="lies below the zero-spread floor"):
            fit_channel(_curve_from(d, m), 32.1e-9)

    def test_side_lobe_at_half_height_warns(self):
        d = np.arange(-600, 601) * 0.5e-9
        m = G_closed(d, **PAPER)
        m = m + 0.8 * m.max() * gaussian_g(d - 200e-9, 5e-9)
        with pytest.warns(UserWarning, match="outermost"):
            fit = fit_channel(_curve_from(d, m), PAPER["sigma0"])
        assert fit.fwhm_channel > 200e-9  # spans out to the side lobe

    def test_normalization_invariance(self):
        d = np.arange(-600, 601) * 0.5e-9
        m = G_closed(d, **PAPER)
        f1 = fit_channel(_curve_from(d, m), PAPER["sigma0"])
        f2 = fit_channel(_curve_from(d, 0.5 * m), PAPER["sigma0"])
        assert f2.tau0 == pytest.approx(f1.tau0, abs=1e-15)
        assert f2.sigma == pytest.approx(f1.sigma, rel=1e-9)
        assert f2.eta == pytest.approx(0.5 * f1.eta, rel=1e-9)
