import json
import struct

import numpy as np
import pytest

from twinbeam.dsp import difference_spectrum
from twinbeam.errors import BadMagic, DataError, HeaderMismatch, InvalidParams, NonUniformTime
from twinbeam.io import (
    load_curve,
    load_trace,
    save_curve,
    save_spectrum,
    save_trace,
)
from twinbeam.source import gen_split_coherent, gen_twin
from twinbeam.trace import DigitizerSpec, MICurve, SourceParams, Trace

from conftest import twbm_payload


class TestTwbm:
    def test_f64_round_trip_bit_exact(self, tmp_path, small_spec):
        pair = gen_twin(SourceParams(), small_spec, seed=1)
        path = tmp_path / "a.twbm"
        save_trace(pair.a, path)
        back = load_trace(path)
        assert np.array_equal(back.samples, pair.a.samples)
        assert back.spec == pair.a.spec
        assert back.label == pair.a.label
        assert back.mean_level == pair.a.mean_level
        assert back.shot_psd == pair.a.shot_psd
        assert back.guard == pair.a.guard

    def test_u8_round_trip_bit_identical(self, tmp_path, small_spec):
        pair = gen_twin(SourceParams(), small_spec, seed=2)
        path, again = tmp_path / "q.twbm", tmp_path / "again.twbm"
        save_trace(pair.a, path, encoding="u8")
        back = load_trace(path)
        save_trace(back, again, encoding="u8")
        # raw levels are preserved exactly through the u8 payload
        levels = np.frombuffer(twbm_payload(path), dtype=np.uint8).astype(np.float64)
        assert back.samples + back.mean_level == pytest.approx(levels, abs=1e-9)
        assert twbm_payload(again) == twbm_payload(path)

    def test_u8_values_span_levels(self, tmp_path, small_spec):
        pair = gen_twin(SourceParams(), small_spec, seed=3)
        path = tmp_path / "q.twbm"
        save_trace(pair.a, path, encoding="u8")
        raw = np.frombuffer(twbm_payload(path), dtype=np.uint8)
        assert raw.min() >= 0 and raw.max() <= 255
        assert len(raw) == small_spec.n_samples

    def test_u8_clips_to_the_spec_levels(self, tmp_path):
        spec = DigitizerSpec(n_samples=64, bit_depth=4)
        samples = np.linspace(-12.0, 12.0, 64)
        path = tmp_path / "q.twbm"
        save_trace(Trace(samples=samples, spec=spec, mean_level=7.5), path, encoding="u8")
        levels = np.frombuffer(twbm_payload(path), dtype=np.uint8)
        assert levels.max() == 15 and levels.min() == 0
        assert np.array_equal(levels, np.clip(np.rint(samples + 7.5), 0, 15))

    def test_loads_a_header_with_earlier_keys(self, tmp_path, small_spec):
        # a header with keys the loader does not read, as earlier files carry
        pair = gen_twin(SourceParams(), small_spec, seed=1)
        header = {"sample_rate_hz": 2e9, "n_samples": small_spec.n_samples,
                  "encoding": "f64le", "label": "probe", "full_scale": 1.0,
                  "mean_level": 128.0, "bit_depth": 8, "guard": 0,
                  "shot_psd": pair.a.shot_psd, "noise_bandwidth_hz": 300e6}
        hdr = json.dumps(header).encode()
        path = tmp_path / "old.twbm"
        path.write_bytes(b"TWBM" + struct.pack("<II", 1, len(hdr)) + hdr
                         + pair.a.samples.astype("<f8").tobytes())
        back = load_trace(path)
        assert np.array_equal(back.samples, pair.a.samples)
        assert back.spec == small_spec and back.shot_psd == pair.a.shot_psd

    def test_u8_refuses_more_than_8_bits(self, tmp_path):
        spec = DigitizerSpec(n_samples=64, bit_depth=12)
        trace = Trace(samples=np.zeros(64), spec=spec, mean_level=2048.0)
        path = tmp_path / "q.twbm"
        with pytest.raises(InvalidParams, match="bit_depth is 12"):
            save_trace(trace, path, encoding="u8")
        assert not path.exists()
        save_trace(trace, path)   # f64le keeps every level

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.twbm"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(BadMagic):
            load_trace(path, format="twbm")

    def test_payload_length_mismatch(self, tmp_path, small_spec):
        pair = gen_twin(SourceParams(), small_spec, seed=4)
        path = tmp_path / "t.twbm"
        save_trace(pair.a, path)
        data = path.read_bytes()
        path.write_bytes(data[:-16])  # truncate payload
        with pytest.raises(HeaderMismatch):
            load_trace(path)

    def test_unknown_version(self, tmp_path, small_spec):
        pair = gen_twin(SourceParams(), small_spec, seed=5)
        path = tmp_path / "t.twbm"
        save_trace(pair.a, path)
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(data))
        with pytest.raises(HeaderMismatch):
            load_trace(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_trace(tmp_path / "nothing.twbm")


class TestCsvTrace:
    def test_single_column_needs_rate(self, tmp_path):
        path = tmp_path / "one.csv"
        np.savetxt(path, np.sin(np.arange(1000) * 0.01), delimiter=",")
        with pytest.raises(InvalidParams):
            load_trace(path, format="csv")
        tr = load_trace(path, format="csv", sample_rate=2e9)
        assert tr.spec.sample_rate == 2e9
        assert tr.spec.n_samples == 1000

    def test_two_column_uniform_time(self, tmp_path):
        path = tmp_path / "two.csv"
        t = np.arange(1000) * 0.5e-9
        v = np.sin(np.arange(1000) * 0.01)
        np.savetxt(path, np.column_stack([t, v]), delimiter=",")
        tr = load_trace(path, format="csv")
        assert tr.spec.sample_rate == pytest.approx(2e9, rel=1e-6)

    def test_jittered_time_rejected(self, tmp_path):
        path = tmp_path / "jit.csv"
        rng = np.random.default_rng(0)
        t = np.arange(1000) * 0.5e-9 + rng.uniform(0, 5e-14, 1000)
        v = rng.standard_normal(1000)
        np.savetxt(path, np.column_stack([t, v]), delimiter=",", fmt="%.18e")
        with pytest.raises(NonUniformTime):
            load_trace(path, format="csv")


class TestCurveCsv:
    def test_round_trip(self, tmp_path):
        delays = (np.arange(-100, 101)) * 0.5e-9
        mi = np.exp(-0.5 * (delays / 30e-9) ** 2)
        spread = 0.01 * np.ones_like(mi)
        curve = MICurve(delays=delays, mi=mi, spread=spread, n_repeats=10)
        path = tmp_path / "curve.csv"
        save_curve(curve, path)
        back = load_curve(path)
        assert np.allclose(back.delays, delays, atol=1e-15)
        assert np.allclose(back.mi, mi, rtol=1e-8)
        assert np.allclose(back.spread, spread, rtol=1e-8)

    def test_spectrum_csv_written(self, tmp_path, small_spec):
        pair = gen_twin(SourceParams(), small_spec, seed=6)
        ref = gen_split_coherent(SourceParams(), small_spec, seed=7)
        est = difference_spectrum(pair, ref, segment_length=2 ** 12)
        path = tmp_path / "spec.csv"
        save_spectrum(est, path)
        header = path.read_text().splitlines()[0]
        assert header == "freq_hz,psd,reference_psd,squeezing_db"
        assert len(path.read_text().splitlines()) == len(est.frequencies) + 1
