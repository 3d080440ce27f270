import json
import re
import struct

import numpy as np
import pytest

from twinbeam.dsp import difference_spectrum
from twinbeam.cli import main
from twinbeam.errors import DataError, InvalidParams
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

    def test_header_keys(self, tmp_path, small_spec):
        path = tmp_path / "a.twbm"
        save_trace(gen_twin(SourceParams(), small_spec, seed=1).a, path, encoding="u8")
        raw = path.read_bytes()
        (hdr_len,) = struct.unpack("<I", raw[8:12])
        assert list(json.loads(raw[12:12 + hdr_len])) == [
            "sample_rate_hz", "n_samples", "encoding", "label", "mean_level", "guard", "shot_psd"]

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
        # raw levels run from -72.5 to 327.5: the ends clip to 0 and 255, not wrap
        spec = DigitizerSpec(n_samples=64)
        samples = np.linspace(-200.0, 200.0, 64)
        path = tmp_path / "q.twbm"
        save_trace(Trace(samples=samples, spec=spec, mean_level=127.5), path, encoding="u8")
        levels = np.frombuffer(twbm_payload(path), dtype=np.uint8)
        assert levels.max() == 255 and levels.min() == 0
        assert np.array_equal(levels, np.clip(np.rint(samples + 127.5), 0, 255))

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

    def test_bad_magic(self, tmp_path, capsys):
        # without the TWBM magic a file is read as CSV; binary bytes are no CSV
        path = tmp_path / "bad.twbm"
        path.write_bytes(b"NOPE" + bytes(range(128, 256)))
        with pytest.raises(DataError, match="not a TWBM file, nor a CSV of numbers"):
            load_trace(path)
        assert main(["analyze", "--trace-a", str(path), "--trace-b", str(path),
                     "--out", str(tmp_path / "c.csv")]) == 3
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err

    def test_payload_length_mismatch(self, tmp_path, small_spec):
        pair = gen_twin(SourceParams(), small_spec, seed=4)
        path = tmp_path / "t.twbm"
        save_trace(pair.a, path)
        data = path.read_bytes()
        path.write_bytes(data[:-16])  # truncate payload
        with pytest.raises(DataError, match="payload holds"):
            load_trace(path)

    def test_unknown_version(self, tmp_path, small_spec):
        pair = gen_twin(SourceParams(), small_spec, seed=5)
        path = tmp_path / "t.twbm"
        save_trace(pair.a, path)
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(data))
        with pytest.raises(DataError, match="unsupported TWBM version 99"):
            load_trace(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_trace(tmp_path / "nothing.twbm")


class TestCsvTrace:
    def test_single_column_needs_rate(self, tmp_path):
        path = tmp_path / "one.csv"
        np.savetxt(path, np.sin(np.arange(1000) * 0.01), delimiter=",")
        with pytest.raises(InvalidParams):
            load_trace(path)
        tr = load_trace(path, sample_rate=2e9)
        assert tr.spec.sample_rate == 2e9
        assert tr.spec.n_samples == 1000

    def test_two_column_uniform_time(self, tmp_path):
        path = tmp_path / "two.csv"
        t = np.arange(1000) * 0.5e-9
        v = np.sin(np.arange(1000) * 0.01)
        np.savetxt(path, np.column_stack([t, v]), delimiter=",")
        tr = load_trace(path)
        assert tr.spec.sample_rate == pytest.approx(2e9, rel=1e-6)

    def test_jittered_time_rejected(self, tmp_path):
        path = tmp_path / "jit.csv"
        rng = np.random.default_rng(0)
        t = np.arange(1000) * 0.5e-9 + rng.uniform(0, 5e-14, 1000)
        v = rng.standard_normal(1000)
        np.savetxt(path, np.column_stack([t, v]), delimiter=",", fmt="%.18e")
        with pytest.raises(DataError, match="time stamps jitter beyond 1e-6 relative"):
            load_trace(path)


def _twbm_header_without_n_samples() -> bytes:
    hdr = json.dumps({"sample_rate_hz": 2e9, "encoding": "f64le", "label": "probe"}).encode()
    return b"TWBM" + struct.pack("<II", 1, len(hdr)) + hdr + bytes(8 * 16)


def _twbm_of_zeros(**header) -> bytes:
    hdr = json.dumps({"sample_rate_hz": 2e9, "n_samples": 100, "encoding": "f64le",
                      "label": "probe", **header}).encode()
    return b"TWBM" + struct.pack("<II", 1, len(hdr)) + hdr + bytes(8 * 100)


class TestMalformedFile:
    @pytest.mark.parametrize("name, content, message", [
        ("short.twbm", b"TWBM\x01\x00", "file ends inside the TWBM version"),
        ("nolength.twbm", _twbm_header_without_n_samples(),
         "malformed header: KeyError('n_samples')"),
        ("letters.csv", b"x,y,z\n", "not a TWBM file, nor a CSV of numbers"),
        ("empty.csv", b"", "nor a CSV of numbers: loadtxt: input contained no data"),
        ("shot.twbm", _twbm_of_zeros(shot_psd="x"), "malformed header: ValueError("),
    ], ids=["short-prefix", "no-n-samples", "letters-csv", "empty-csv", "shot-psd-text"])
    def test_is_a_data_error_naming_the_file(self, name, content, message, tmp_path, capsys):
        path = tmp_path / name
        path.write_bytes(content)
        with pytest.raises(DataError, match=re.escape(message)):
            load_trace(path)
        assert main(["analyze", "--trace-a", str(path), "--trace-b", str(path),
                     "--out", str(tmp_path / "c.csv")]) == 3
        err = capsys.readouterr().err
        assert str(path) in err and message in err and "Traceback" not in err


def _csv_with_a_nan() -> bytes:
    values = np.random.default_rng(3).standard_normal(2000)
    values[17] = np.nan
    return "\n".join(f"{i * 0.5e-9!r},{float(v)!r}" for i, v in enumerate(values)).encode()


class TestValuesBreakingAType:
    """A file whose values parse but break a type's invariant is a data error naming it."""

    @pytest.mark.parametrize("name, content, message", [
        ("nan.csv", _csv_with_a_nan(), "trace samples must be finite"),
        ("guard.twbm", _twbm_of_zeros(guard=60), "guard 60 out of range for trace"),
        ("shot.twbm", _twbm_of_zeros(shot_psd=-1.0), "shot_psd must be finite and > 0, got -1.0"),
    ], ids=["nan-sample", "guard-past-half", "negative-shot-psd"])
    def test_trace_file(self, name, content, message, tmp_path, capsys):
        path = tmp_path / name
        path.write_bytes(content)
        with pytest.raises(DataError, match=re.escape(message)):
            load_trace(path)
        assert main(["analyze", "--trace-a", str(path), "--trace-b", str(path),
                     "--range-ns", "5", "--out", str(tmp_path / "c.csv")]) == 3
        err = capsys.readouterr().err
        assert str(path) in err and message in err and "Traceback" not in err

    @pytest.mark.parametrize("value, message", [
        ("nan", "delays and mi must be finite"),
        ("abc", "not a curve CSV of numbers"),
    ], ids=["nan-mi", "letters"])
    def test_curve_file(self, value, message, tmp_path, capsys):
        d = np.arange(-100, 101) * 0.5e-9
        path = tmp_path / "c.csv"
        save_curve(MICurve(delays=d, mi=np.exp(-0.5 * (d / 20e-9) ** 2)), path)
        lines = path.read_text().splitlines()
        lines[40] = lines[40].split(",")[0] + f",{value},0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=message):
            load_curve(path)
        assert main(["fit", "--curve", str(path)]) == 3
        err = capsys.readouterr().err
        assert str(path) in err and message in err and "Traceback" not in err


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
