import numpy as np
import pytest

from twinbeam.errors import InvalidParams, MismatchedClock, MismatchedLength
from twinbeam.trace import (
    ChannelParams,
    DigitizerSpec,
    FitResult,
    MICurve,
    SourceParams,
    Trace,
    TracePair,
    validate_pair,
)

from conftest import make_trace


class TestDigitizerSpec:
    def test_defaults_match_acquisition(self):
        spec = DigitizerSpec()
        assert spec.sample_rate == 2.0e9
        assert spec.n_samples == 4_000_000
        assert spec.duration == pytest.approx(2e-3)
        assert spec.n_levels == 256

    @pytest.mark.parametrize("kw", [
        {"sample_rate": 0.0},
        {"sample_rate": -1.0},
        {"n_samples": 0},
        {"bit_depth": 0},
        {"bit_depth": -1},
        {"sample_rate": float("inf")},
        {"sample_rate": float("nan")},
    ])
    def test_invalid_rejected(self, kw):
        with pytest.raises(InvalidParams):
            DigitizerSpec(**kw)


class TestTrace:
    def test_length_must_match_spec(self):
        spec = DigitizerSpec(n_samples=100)
        with pytest.raises(MismatchedLength):
            Trace(samples=np.zeros(99), spec=spec)

    def test_dc_removal_enforced(self):
        spec = DigitizerSpec(n_samples=100)
        with pytest.raises(InvalidParams):
            Trace(samples=np.full(100, 3.0), spec=spec)

    def test_from_raw_removes_mean(self):
        raw = np.arange(100.0) + 50.0
        t = Trace.from_raw(raw, DigitizerSpec(n_samples=100))
        assert abs(t.samples.mean()) < 1e-12
        assert t.mean_level == pytest.approx(raw.mean())

    def test_immutable(self):
        t = make_trace(np.random.default_rng(0).standard_normal(64))
        with pytest.raises(ValueError):
            t.samples[0] = 1.0

    def test_valid_strips_guard(self):
        t = make_trace(np.random.default_rng(0).standard_normal(64), guard=10)
        assert len(t.valid()) == 44


class TestValidatePair:
    def test_matching_specs_ok(self):
        a = make_trace(np.random.default_rng(0).standard_normal(4000))
        b = make_trace(np.random.default_rng(1).standard_normal(4000))
        assert validate_pair(a, b) is None
        TracePair(a=a, b=b)

    def test_mismatched_length(self):
        a = make_trace(np.random.default_rng(0).standard_normal(4000))
        b = make_trace(np.random.default_rng(1).standard_normal(2000))
        with pytest.raises(MismatchedLength):
            validate_pair(a, b)
        with pytest.raises(MismatchedLength):
            TracePair(a=a, b=b)

    def test_mismatched_clock(self):
        a = make_trace(np.random.default_rng(0).standard_normal(4000), sample_rate=2e9)
        b = make_trace(np.random.default_rng(1).standard_normal(4000), sample_rate=1e9)
        with pytest.raises(MismatchedClock):
            validate_pair(a, b)


class TestMICurve:
    def test_basic(self):
        c = MICurve(delays=np.array([0.0, 1e-9, 2e-9]), mi=np.array([0.1, 0.5, 0.2]))
        assert c.step == pytest.approx(1e-9)
        assert c.peak == 0.5
        assert c.peak_delay == pytest.approx(1e-9)

    def test_rejects_negative_mi(self):
        with pytest.raises(InvalidParams):
            MICurve(delays=np.array([0.0, 1e-9]), mi=np.array([0.1, -0.01]))

    def test_rejects_nonuniform_grid(self):
        with pytest.raises(InvalidParams):
            MICurve(delays=np.array([0.0, 1e-9, 3e-9]), mi=np.array([0.1, 0.2, 0.1]))

    def test_rejects_decreasing(self):
        with pytest.raises(InvalidParams):
            MICurve(delays=np.array([0.0, -1e-9, -2e-9]), mi=np.array([0.1, 0.2, 0.1]))

    def test_spread_shape_checked(self):
        with pytest.raises(InvalidParams):
            MICurve(delays=np.array([0.0, 1e-9]), mi=np.array([0.1, 0.2]),
                    spread=np.array([0.01]))


class TestParams:
    def test_source_defaults(self):
        p = SourceParams()
        assert p.squeezing_db == 7.0
        assert p.sigma0 == pytest.approx(32.1e-9)

    def test_source_invalid(self):
        with pytest.raises(InvalidParams):
            SourceParams(sigma0=0.0)
        with pytest.raises(InvalidParams):
            SourceParams(squeezing_db=-1.0)
        with pytest.raises(InvalidParams):
            SourceParams(mean_power_a=0.0)

    @pytest.mark.parametrize("cls, name, value", [
        (SourceParams, "squeezing_db", float("nan")),
        (SourceParams, "sigma0", float("inf")),
        (SourceParams, "excess_noise_db", float("inf")),
        (SourceParams, "mean_power_b", float("inf")),
        (ChannelParams, "tau0", float("nan")),
        (ChannelParams, "electronic_noise_rms", float("inf")),
        (ChannelParams, "electronic_noise_rms", float("nan")),
    ])
    def test_non_finite_field_named(self, cls, name, value):
        with pytest.raises(InvalidParams, match=f"{name} must be finite"):
            cls(**{name: value})

    def test_excess_noise_whose_power_ratio_overflows(self):
        with pytest.raises(InvalidParams, match="excess_noise_db 1000000.0 dB overflows"):
            SourceParams(excess_noise_db=1e6)
        SourceParams(excess_noise_db=3000.0)   # 1e300 is a float

    def test_squeezing_whose_power_ratio_underflows(self):
        with pytest.raises(InvalidParams, match="squeezing_db 1000000.0 dB underflows"):
            SourceParams(squeezing_db=1e6)
        SourceParams(squeezing_db=3000.0)   # 1e-300 is a float

    def test_channel_defaults(self):
        p = ChannelParams()
        assert p.eta == pytest.approx(0.598)
        assert p.power_transmission == pytest.approx(0.14)

    def test_channel_invalid(self):
        with pytest.raises(InvalidParams):
            ChannelParams(eta=0.0)
        with pytest.raises(InvalidParams):
            ChannelParams(eta=1.5)
        with pytest.raises(InvalidParams):
            ChannelParams(sigma=0.0)
        with pytest.raises(InvalidParams):
            ChannelParams(power_transmission=0.0)

    def test_fit_result_invariants(self):
        with pytest.raises(InvalidParams):
            FitResult(sigma0=32e-9, tau0=32e-9, sigma=20e-9, eta=0.6,
                      fwhm_unobstructed=75e-9, fwhm_channel=93e-9,
                      peak_ratio=1.5, residual_rms=0.01)
