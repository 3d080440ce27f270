import hashlib
import importlib.util
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import twinbeam
import twinbeam.cli as cli
import twinbeam.mi as mi
import twinbeam.pipeline as pipeline
import twinbeam.source as source
from twinbeam.channel import apply_channel, delay_taps
from twinbeam.cli import main
from twinbeam.config import SCENARIOS, RunConfig
from twinbeam.errors import ConfigError, DataError, RecordTooShort
from twinbeam.io import load_trace, save_curve
from twinbeam.pipeline import default_channel, run_pipeline, scatterer_only_channel
from twinbeam.dsp import FILTER_PAD, band_bins, bandpass
from twinbeam.mi import mi_delay_scan
from twinbeam.source import gen_split_coherent, gen_split_thermal, gen_twin
from twinbeam.trace import ChannelParams, DigitizerSpec, MICurve, SourceParams, Trace, TracePair


def small_config(**kw):
    base = dict(
        scenario="twin",
        spec=DigitizerSpec(n_samples=2 ** 19),
        repeats=1,
        delay_range=50e-9,
        segment_length=2 ** 13,
        seed=11,
    )
    base.update(kw)
    return RunConfig(**base)


class _FirstDraw(Exception):
    """Raised by the stubbed noise draw: run_pipeline accepted its settings."""


def _stub_first_draw(monkeypatch):
    def draw(*args, **kwargs):
        raise _FirstDraw
    monkeypatch.setattr(source, "noise_spectrum", draw)


# RunConfig().to_dict(), key order included
GOLDEN_DEFAULT_DICT = {
    "scenario": "twin-channel",
    "band_mhz": [1.5, 3.5],
    "bins": 100,
    "step_ns": 0.5,
    "range_ns": 300.0,
    "repeats": 10,
    "seed": 1,
    "segment_length": 16384,
    "source": {
        "squeezing_db": 7.0,
        "sigma0_ns": 32.1,
        "excess_noise_db": 3.2,
        "mean_power_a_mw": 5.8999999999999995,
        "mean_power_b_mw": 5.3,
    },
    "digitizer": {"sample_rate_gsps": 2.0, "n_samples": 4000000},
}


class TestRunConfig:
    def test_round_trip_through_dict(self):
        for cfg in (RunConfig(), small_config(), small_config(channel=ChannelParams())):
            assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_golden_default_dict(self):
        d = RunConfig().to_dict()
        assert json.dumps(d) == json.dumps(GOLDEN_DEFAULT_DICT)
        assert RunConfig.from_dict({}) == RunConfig()
        d = small_config(channel=ChannelParams(), outdir="out").to_dict()
        assert list(d)[-3:] == ["digitizer", "channel", "outdir"]
        assert list(d["channel"].items()) == [
            ("eta", 0.598), ("tau0_ns", 32.7), ("sigma_ns", 19.7),
            ("transmission", 0.14), ("electronic_noise_rms", 0.0)]

    def test_json_values_read_as_literals(self):
        # 50 * 1e-9 and 1.1 / 1e9 both miss the literal by one ulp
        got = RunConfig.from_dict({"range_ns": 50, "source": {"sigma0_ns": 1.1}})
        assert got == RunConfig(delay_range=50e-9, source=SourceParams(sigma0=1.1e-9))

    # run_pipeline checks every setting with its stage's own check before
    # the first noise draw; a draw fails these tests.
    @pytest.mark.parametrize("d", [
        {"step_ns": 0.7},                       # off the 0.5 ns sample grid
        {"range_ns": 0.2},                      # less than one step
        {"range_ns": 600_000},                  # over a quarter of the record
        {"segment_length": 3000},               # not a power of two
        {"digitizer": {"n_samples": 2 ** 13}},  # shorter than one segment
        {"band_mhz": [1.5, 1500]},              # f_hi above Nyquist
        {"band_mhz": [1.5]},
    ])
    def test_invalid_values_rejected_by_check(self, d, monkeypatch):
        monkeypatch.setattr(source, "noise_spectrum", pytest.fail)
        with pytest.raises(ConfigError):
            run_pipeline(RunConfig.from_dict(d))

    def test_check_refuses_records_too_short_to_scan(self, monkeypatch):
        # 2 x (32 768 band-pass guard + 600 largest shift) + 16 x 100 bins
        _stub_first_draw(monkeypatch)
        with pytest.raises(ConfigError, match="digitizer.n_samples 68335 .* at least 68336"):
            run_pipeline(RunConfig(spec=DigitizerSpec(n_samples=68_335)))
        with pytest.raises(_FirstDraw):
            run_pipeline(RunConfig(spec=DigitizerSpec(n_samples=68_336)))

    @pytest.mark.parametrize("channel, least", [(None, 68_336),
                                                (ChannelParams(sigma=1e-6), 97_862)])
    def test_check_and_scan_agree_on_the_shortest_record(self, channel, least, monkeypatch):
        # a's guard is the channel kernel's where that passes the band-pass's
        # (48 131 samples at sigma = 1 us); b's is the band-pass's
        _stub_first_draw(monkeypatch)
        for n in (least - 1, least):
            spec = DigitizerSpec(n_samples=n)
            kernel = delay_taps(channel or ChannelParams(), spec.sample_rate, n)[2]
            rng = np.random.default_rng(n)
            a, b = (Trace.from_raw(rng.standard_normal(n), spec, guard=guard)
                    for guard in (max(FILTER_PAD, kernel), FILTER_PAD))
            pair = TracePair(a=a, b=b)
            config = RunConfig(channel=channel, spec=spec)
            if n < least:
                with pytest.raises(ConfigError, match=f"n_samples {n} is .* at least {least}"):
                    run_pipeline(config)
                with pytest.raises(RecordTooShort, match=f"at least {least}"):
                    mi_delay_scan(pair)
            else:
                with pytest.raises(_FirstDraw):
                    run_pipeline(config)
                assert len(mi_delay_scan(pair).mi) == 1201

    @pytest.mark.parametrize("n", [32_768, 66_000])
    def test_short_record_pipeline_fails_before_any_draw(self, n, monkeypatch):
        monkeypatch.setattr(source, "noise_spectrum", pytest.fail)
        with pytest.raises(ConfigError, match=f"digitizer.n_samples {n} is too short"):
            run_pipeline(RunConfig(repeats=1, spec=DigitizerSpec(n_samples=n)))

    def test_bad_scenario(self):
        with pytest.raises(ConfigError):
            RunConfig(scenario="bogus")

    @pytest.mark.parametrize("d", [
        {"workers": 2},
        {"repeat": 3},
        {"source": {"sigma0": 30.0}},
        {"channel": {"tau0": 30.0}},
        {"digitizer": {"samples": 1000}},
        {"source": [7.0]},
    ])
    def test_unknown_keys_rejected(self, d):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(d)

    @pytest.mark.parametrize("d, key", [
        ({"seed": 2.5}, "seed"),
        ({"repeats": 1.5}, "repeats"),
        ({"digitizer": {"n_samples": True}}, "n_samples"),
    ])
    def test_non_integral_integer_keys_rejected(self, d, key):
        with pytest.raises(ConfigError, match=f"key {key}: .* is not an integer"):
            RunConfig.from_dict(d)

    def test_integral_float_read_as_int(self):
        spec = RunConfig.from_dict({"digitizer": {"n_samples": 4e6}}).spec
        assert spec.n_samples == 4_000_000 and type(spec.n_samples) is int

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            RunConfig.from_dict({"seed": -1})

    def test_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        small_config().dump_json(path)
        cfg = RunConfig.from_json(path)
        assert cfg.scenario == "twin"
        with pytest.raises(ConfigError):
            RunConfig.from_json(tmp_path / "missing.json")


class TestDefaultChannel:
    def test_transmission_is_eta_matched(self):
        cfg = small_config()
        chan = default_channel(cfg)
        assert 0.3 < chan.power_transmission < 0.8
        assert chan.eta == pytest.approx(0.598)
        assert chan.tau0 == pytest.approx(32.7e-9)

    def test_explicit_channel_used_verbatim(self):
        explicit = ChannelParams(power_transmission=0.33)
        cfg = small_config(channel=explicit)
        assert default_channel(cfg) == explicit


class TestRunPipeline:
    def test_twin_scenario_report(self, tmp_path):
        report = run_pipeline(small_config(), outdir=tmp_path)
        assert report["schema_version"] == 3
        assert set(report["timing"]) == {"elapsed_s"}
        stats = report["scenarios"]["twin-unobstructed"]
        assert stats["peak_norm"] == pytest.approx(1.0)
        assert stats["peak_bits"] > 0.3
        assert "gaussian_fit" in report
        assert "spectrum" in report
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "curve_twin-unobstructed.csv").exists()
        assert (tmp_path / "spectrum.csv").exists()
        on_disk = json.loads((tmp_path / "report.json").read_text())
        assert on_disk["seeds"] == [11]

    def test_deterministic_given_seed(self):
        r1 = run_pipeline(small_config())
        r2 = run_pipeline(small_config())
        assert r1["scenarios"] == r2["scenarios"]
        assert r1["gaussian_fit"] == r2["gaussian_fit"]
        assert r1["spectrum"] == r2["spectrum"]

    def test_repeats_average_with_spread(self):
        report = run_pipeline(small_config(repeats=2))
        stats = report["scenarios"]["twin-unobstructed"]
        assert stats["n_repeats"] == 2
        assert stats["peak_spread"] >= 0.0

    def test_split_coherent_flagged_at_floor(self):
        # the 0.02-normalized floor threshold is calibrated for full-size
        # records (the bias floor inflates at short record lengths)
        cfg = RunConfig(scenario="split-coherent", spec=DigitizerSpec(),
                        repeats=1, delay_range=50e-9, seed=21)
        report = run_pipeline(cfg)
        stats = report["scenarios"]["split-coherent"]
        assert stats["at_noise_floor"] is True
        assert report["scenarios"]["twin-unobstructed"]["at_noise_floor"] is False

    def test_scatterer_only_at_floor(self):
        cfg = RunConfig(scenario="scatterer-only", spec=DigitizerSpec(),
                        repeats=1, delay_range=50e-9, seed=22)
        report = run_pipeline(cfg)
        assert report["scenarios"]["scatterer-only"]["at_noise_floor"] is True

    def test_all_scenario_smoke(self, tmp_path):
        # needs a record long enough that the bias floor stays well below the
        # channel half level, and a range covering the shifted peak
        cfg = small_config(scenario="all", delay_range=150e-9,
                           spec=DigitizerSpec(n_samples=2 ** 21))
        report = run_pipeline(cfg, outdir=tmp_path)
        names = set(report["scenarios"])
        assert names == {"twin-unobstructed", "twin-channel",
                         "split-thermal", "split-coherent"}
        assert "fit" in report and "channel_params" in report
        for name in names:
            assert (tmp_path / f"curve_{name}.csv").exists()


# one run-parameter flag of each command, with the JSON form it stands for
FLAG_CASES = [
    (["pipeline", "--scenario", "twin"], {"scenario": "twin"}),
    (["pipeline", "--seed", "5"], {"seed": 5}),
    (["pipeline", "--repeats", "3"], {"repeats": 3}),
    (["pipeline", "--band-mhz", "1.6:3.4"], {"band_mhz": [1.6, 3.4]}),
    (["pipeline", "--bins", "50"], {"bins": 50}),
    (["pipeline", "--step-ns", "1"], {"step_ns": 1.0}),
    (["pipeline", "--range-ns", "40"], {"range_ns": 40.0}),
    (["pipeline", "--outdir", "out"], {"outdir": "out"}),
    (["pipeline", "--squeezing-db", "6"], {"source": {"squeezing_db": 6.0}}),
    (["pipeline", "--sigma0-ns", "30.3"], {"source": {"sigma0_ns": 30.3}}),
    (["pipeline", "--excess-noise-db", "2"], {"source": {"excess_noise_db": 2.0}}),
    (["pipeline", "--power-a-mw", "4.1"], {"source": {"mean_power_a_mw": 4.1}}),
    (["pipeline", "--power-b-mw", "3.9"], {"source": {"mean_power_b_mw": 3.9}}),
    (["pipeline", "--transmission", "0.5"], {"channel": {"transmission": 0.5}}),
    (["pipeline", "--electronic-noise-rms", "3"],
     {"channel": {"electronic_noise_rms": 3.0}}),
    (["simulate", "--out-a", "a", "--out-b", "b", "--n-samples", "1000000"],
     {"digitizer": {"n_samples": 1000000}}),
    (["simulate", "--out-a", "a", "--out-b", "b", "--sample-rate-gsps", "4"],
     {"digitizer": {"sample_rate_gsps": 4.0}}),
    (["spectrum", "--trace-a", "a", "--trace-b", "b", "--out", "s.csv",
      "--segment", "4096"], {"segment_length": 4096}),
    (["analyze", "--trace-a", "a", "--trace-b", "b", "--out", "c.csv",
      "--sample-rate-gsps", "4"], {"digitizer": {"sample_rate_gsps": 4.0}}),
    (["matched-transmission", "--band-mhz", "1.2:3.8"], {"band_mhz": [1.2, 3.8]}),
    (["fit", "--curve", "c.csv", "--sigma0-ns", "1.1"], {"source": {"sigma0_ns": 1.1}}),
]


def _env_of_this_package() -> dict:
    return {**os.environ, "PYTHONPATH": str(Path(twinbeam.__file__).parents[1])}


# cli.main on the arguments in a fresh interpreter; the last line it prints is
# the exit code and the scipy modules loaded by then
_COLD_MAIN = """
import json, sys
from twinbeam.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")]))
"""


def _cold_main(argv: list, cwd: Path) -> list:
    out = subprocess.run([sys.executable, "-c", _COLD_MAIN, *argv], cwd=cwd,
                         env=_env_of_this_package(), capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def cold_dir(tmp_path_factory):
    """A directory holding a short u8 pair and the cold-start configs."""
    path = tmp_path_factory.mktemp("cold")
    assert main(["simulate", "--encoding", "u8", "--n-samples", "140000",
                 "--out-a", str(path / "pair_a.twbm"), "--out-b", str(path / "pair_b.twbm")]) == 0
    (path / "short.json").write_text(json.dumps({"digitizer": {"n_samples": 2 ** 19}}))
    (path / "segment.json").write_text(json.dumps({"digitizer": {"n_samples": 140_000},
                                                   "segment_length": 16}))
    return path


class TestCli:
    def test_simulate_analyze_fit(self, tmp_path):
        a, b = tmp_path / "a.twbm", tmp_path / "b.twbm"
        rc = main(["simulate", "--scenario", "twin", "--seed", "3",
                   "--n-samples", str(2 ** 19), "--out-a", str(a), "--out-b", str(b)])
        assert rc == 0 and a.exists() and b.exists()

        curve = tmp_path / "curve.csv"
        rc = main(["analyze", "--trace-a", str(a), "--trace-b", str(b),
                   "--band-mhz", "1.5:3.5", "--range-ns", "60", "--out", str(curve)])
        assert rc == 0 and curve.exists()

        rc = main(["fit", "--curve", str(curve), "--mode", "gaussian"])
        assert rc == 0

    def test_analyze_defaults_are_the_library_defaults(self, tmp_path):
        a, b = tmp_path / "a.twbm", tmp_path / "b.twbm"
        main(["simulate", "--scenario", "twin", "--seed", "5",
              "--n-samples", str(2 ** 18), "--out-a", str(a), "--out-b", str(b)])
        cli_curve, lib_curve = tmp_path / "cli.csv", tmp_path / "lib.csv"
        assert main(["analyze", "--trace-a", str(a), "--trace-b", str(b),
                     "--out", str(cli_curve)]) == 0
        save_curve(mi_delay_scan(TracePair(a=load_trace(a), b=load_trace(b))), lib_curve)
        assert cli_curve.read_bytes() == lib_curve.read_bytes()

    def test_spectrum_command(self, tmp_path):
        a, b = tmp_path / "a.twbm", tmp_path / "b.twbm"
        main(["simulate", "--scenario", "twin", "--seed", "4",
              "--n-samples", str(2 ** 18), "--out-a", str(a), "--out-b", str(b)])
        out = tmp_path / "spec.csv"
        rc = main(["spectrum", "--trace-a", str(a), "--trace-b", str(b),
                   "--segment", str(2 ** 12), "--out", str(out)])
        assert rc == 0 and out.exists()

    def test_oracle_check(self):
        assert main(["oracle-check", "--tuples", "3", "--points", "101"]) == 0

    @pytest.mark.parametrize("flag, value", [("--tol", "nan"), ("--tol", "0"), ("--tol", "inf"),
                                             ("--tuples", "-3"), ("--points", "0"),
                                             ("--points", "1")])
    def test_oracle_check_refuses_a_setting_that_voids_it(self, flag, value, capsys):
        assert main(["oracle-check", "--tuples", "1", "--points", "11", flag, value]) == 2
        err = capsys.readouterr().err
        assert f"{flag} must be" in err and "Traceback" not in err

    @pytest.mark.parametrize("given, missing", [("--ref-a", "--ref-b"), ("--ref-b", "--ref-a")])
    def test_spectrum_refuses_half_a_reference_pair(self, given, missing, tmp_path, capsys):
        a, b = tmp_path / "a.twbm", tmp_path / "b.twbm"
        assert main(["simulate", "--n-samples", "70000", "--out-a", str(a),
                     "--out-b", str(b)]) == 0
        assert main(["spectrum", "--trace-a", str(a), "--trace-b", str(b),
                     given, str(tmp_path / "nonexistent.twbm"),
                     "--out", str(tmp_path / "s.csv")]) == 2
        assert f"{given} needs {missing}" in capsys.readouterr().err

    def test_spectrum_reference_is_drawn_at_the_pairs_own_shot_psds(self, tmp_path, capsys):
        # a reference at the default powers read this pair at -8.20 dB
        a, b = tmp_path / "a.twbm", tmp_path / "b.twbm"
        assert main(["simulate", "--seed", "3", "--n-samples", str(2 ** 20),
                     "--power-b-mw", "2.65", "--out-a", str(a), "--out-b", str(b)]) == 0
        capsys.readouterr()
        assert main(["spectrum", "--trace-a", str(a), "--trace-b", str(b),
                     "--out", str(tmp_path / "s.csv")]) == 0
        db = float(capsys.readouterr().out.split("in-band mean ")[1].split(" dB")[0])
        assert db == pytest.approx(-7.0, abs=0.5)

    def test_spectrum_of_a_csv_pair_needs_reference_files(self, tmp_path, monkeypatch, capsys):
        rng = np.random.default_rng(6)
        times = np.arange(70_000) * 0.5e-9
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            np.savetxt(path, np.column_stack([times, rng.standard_normal(70_000)]),
                       delimiter=",")
        monkeypatch.setattr(source, "noise_spectrum", pytest.fail)
        assert main(["spectrum", "--trace-a", str(paths[0]), "--trace-b", str(paths[1]),
                     "--out", str(tmp_path / "s.csv")]) == 2
        err = capsys.readouterr().err
        assert f"{paths[0]} carries no shot_psd" in err and "--ref-a and --ref-b" in err

    @pytest.mark.parametrize("flag, value", [("--sigma0-ns", "99"), ("--reference-peak", "-5")])
    def test_gaussian_fit_refuses_channel_flags(self, flag, value, tmp_path, capsys):
        from twinbeam.trace import MICurve

        d = np.arange(-100, 101) * 0.5e-9
        curve = tmp_path / "c.csv"
        save_curve(MICurve(delays=d, mi=np.exp(-0.5 * (d / 20e-9) ** 2)), curve)
        assert main(["fit", "--curve", str(curve), "--mode", "gaussian", flag, value]) == 2
        assert f"{flag} applies only to --mode channel" in capsys.readouterr().err

    @pytest.mark.parametrize("generator", ["twin", "split-thermal", "split-coherent"])
    def test_simulate_refuses_a_rate_below_twice_the_noise_bandwidth(self, generator, tmp_path,
                                                                     capsys):
        def simulate(rate):
            return main(["simulate", "--scenario", generator, "--sample-rate-gsps", rate,
                         "--n-samples", str(2 ** 14), "--out-a", str(tmp_path / "a.twbm"),
                         "--out-b", str(tmp_path / "b.twbm")])

        assert simulate("0.5") == 2
        assert "noise bandwidth exceeds Nyquist" in capsys.readouterr().err
        assert simulate("0.6") == 0

    @pytest.mark.parametrize("generator, flags", [
        ("twin", ["--sigma0-ns", "1000"]),
        ("split-coherent", ["--power-b-mw", "1e20"]),
    ])
    def test_simulate_refuses_an_arm_float64_cannot_carry(self, generator, flags, tmp_path,
                                                          monkeypatch, capsys):
        # the full-band record carries the whole shared spectrum: 1000 ns
        # passes the pipeline's design-band checks but not this one
        monkeypatch.setattr(source, "noise_spectrum", pytest.fail)
        assert main(["simulate", "--scenario", generator, *flags, "--out-a",
                     str(tmp_path / "a.twbm"), "--out-b", str(tmp_path / "b.twbm")]) == 2
        err = capsys.readouterr().err
        assert "cannot hold its mean" in err and "Traceback" not in err

    def test_missing_file_is_data_error(self, tmp_path):
        rc = main(["analyze", "--trace-a", str(tmp_path / "no.twbm"),
                   "--trace-b", str(tmp_path / "no2.twbm"), "--out",
                   str(tmp_path / "c.csv")])
        assert rc == 3

    def test_bad_config_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"scenario": "bogus"}))
        assert main(["pipeline", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("d", [{"workers": 2}, {"repeat": 3}])
    def test_unknown_config_key_exit_code(self, tmp_path, capsys, d):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(d))
        assert main(["pipeline", "--config", str(cfg)]) == 2
        assert next(iter(d)) in capsys.readouterr().err

    def test_workers_option_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["pipeline", "--workers", "2"])
        assert exc.value.code == 2

    def test_fit_channel_requires_sigma0(self, tmp_path):
        d = np.arange(-100, 101) * 0.5e-9
        from twinbeam.io import save_curve
        from twinbeam.trace import MICurve

        curve = tmp_path / "c.csv"
        save_curve(MICurve(delays=d, mi=np.exp(-0.5 * (d / 20e-9) ** 2)), curve)
        assert main(["fit", "--curve", str(curve), "--mode", "channel"]) == 2

    def test_fit_failure_exit_code(self, tmp_path):
        # curve narrower than the zero-spread floor: FitError -> 4
        d = np.arange(-100, 101) * 0.5e-9
        from twinbeam.io import save_curve
        from twinbeam.trace import MICurve

        curve = tmp_path / "c.csv"
        save_curve(MICurve(delays=d, mi=np.exp(-0.5 * (d / 10e-9) ** 2)), curve)
        assert main(["fit", "--curve", str(curve), "--mode", "channel",
                     "--sigma0-ns", "32.1"]) == 4

    def test_fit_refuses_a_curve_not_normalized(self, tmp_path, capsys):
        from twinbeam.model import G_closed

        d = np.arange(-600, 601) * 0.5e-9
        curve = tmp_path / "c.csv"
        save_curve(MICurve(delays=d, mi=2.5 * G_closed(d, 0.598, 32.7e-9, 19.7e-9, 32.1e-9)),
                   curve)
        assert main(["fit", "--curve", str(curve), "--mode", "channel",
                     "--sigma0-ns", "32.1"]) == 2
        err = capsys.readouterr().err
        assert "not normalized" in err and "--reference-peak" in err

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf", "1e-320"])
    def test_fit_refuses_a_reference_peak_that_voids_it(self, value, tmp_path, capsys):
        from twinbeam.model import G_closed

        d = np.arange(-600, 601) * 0.5e-9
        curve = tmp_path / "c.csv"
        save_curve(MICurve(delays=d, mi=G_closed(d, 0.598, 32.7e-9, 19.7e-9, 32.1e-9)), curve)
        assert main(["fit", "--curve", str(curve), "--mode", "channel", "--sigma0-ns", "32.1",
                     f"--reference-peak={value}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --reference-peak") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["pipeline", "analyze"])
    def test_one_bin_exits_2_before_any_draw_or_filter(self, command, tmp_path, monkeypatch,
                                                      capsys):
        argv = ["pipeline", "--scenario", "twin", "--repeats", "1"]
        if command == "analyze":
            a, b = tmp_path / "a.twbm", tmp_path / "b.twbm"
            assert main(["simulate", "--n-samples", "70000", "--out-a", str(a),
                         "--out-b", str(b)]) == 0
            argv = ["analyze", "--trace-a", str(a), "--trace-b", str(b), "--band-mhz",
                    "1.5:3.5", "--range-ns", "5", "--out", str(tmp_path / "c.csv")]
        monkeypatch.setattr(source, "noise_spectrum", pytest.fail)
        monkeypatch.setattr(cli, "bandpass", pytest.fail)
        assert main([*argv, "--bins", "1"]) == 2
        assert "n_bins must be >= 2, got 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--segment", "64"], ["--band-mhz", "2000:3000"]],
                             ids=["segment-64", "band-past-nyquist"])
    def test_spectrum_band_without_a_segment_bin_exits_2_before_drawing(self, flags, tmp_path,
                                                                        monkeypatch, capsys):
        a, b, out = tmp_path / "a.twbm", tmp_path / "b.twbm", tmp_path / "s.csv"
        assert main(["simulate", "--n-samples", "70000", "--out-a", str(a),
                     "--out-b", str(b)]) == 0
        monkeypatch.setattr(source, "noise_spectrum", pytest.fail)
        assert main(["spectrum", "--trace-a", str(a), "--trace-b", str(b), *flags,
                     "--out", str(out)]) == 2
        assert "holds no bin of a" in capsys.readouterr().err
        assert not out.exists()

    def test_pipeline_band_without_a_segment_bin_exits_2_before_drawing(self, tmp_path,
                                                                       monkeypatch, capsys):
        path, out = tmp_path / "c.json", tmp_path / "out"
        path.write_text(json.dumps({"segment_length": 64, "scenario": "twin",
                                    "range_ns": 150, "digitizer": {"n_samples": 2 ** 20}}))
        monkeypatch.setattr(source, "noise_spectrum", pytest.fail)
        assert main(["pipeline", "--config", str(path), "--outdir", str(out)]) == 2
        assert ("band [1.5, 3.5] MHz holds no bin of a 64-sample Welch segment: its bins "
                "are 31.25 MHz apart" in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("argv, d", FLAG_CASES, ids=[f"{a[0]} {a[-2]}" for a, _ in FLAG_CASES])
    def test_flag_equals_json_key(self, argv, d):
        args = cli.build_parser().parse_args(argv)
        assert cli._run_config(args) == RunConfig.from_dict(d)

    def test_flags_override_config_file(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run_pipeline", lambda config: seen.append(config) or {})
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"scenario": "twin", "repeats": 1,
                                    "channel": {"eta": 0.5}}))
        assert main(["pipeline", "--config", str(path), "--repeats", "2",
                     "--transmission", "0.5"]) == 0
        assert seen == [RunConfig(scenario="twin", repeats=2,
                                  channel=ChannelParams(eta=0.5, power_transmission=0.5))]

    def test_electronic_noise_alone_makes_explicit_channel(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run_pipeline", lambda config: seen.append(config) or {})
        assert main(["pipeline", "--electronic-noise-rms", "3"]) == 0
        assert seen[0].channel == ChannelParams(electronic_noise_rms=3.0)

    def test_invalid_step_exits_2_before_any_trace(self, monkeypatch, capsys):
        monkeypatch.setattr(source, "noise_spectrum", pytest.fail)
        assert main(["pipeline", "--step-ns", "0.7"]) == 2
        assert "sample period" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, name", [("--step-ns", "nan", "step"),
                                                   ("--range-ns", "inf", "range")])
    def test_non_finite_scan_setting_exits_2(self, flag, value, name, tmp_path, monkeypatch,
                                             capsys):
        a, b = tmp_path / "a.twbm", tmp_path / "b.twbm"
        assert main(["simulate", "--n-samples", "140000", "--out-a", str(a),
                     "--out-b", str(b)]) == 0
        monkeypatch.setattr(source, "noise_spectrum", pytest.fail)
        for argv in (["pipeline"],
                     ["analyze", "--trace-a", str(a), "--trace-b", str(b),
                      "--out", str(tmp_path / "c.csv")]):
            assert main([*argv, flag, value]) == 2
            err = capsys.readouterr().err
            assert f"delay {name} must be finite, got {value} s" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("flag, value, name", [
        ("--squeezing-db", "nan", "squeezing_db"),
        ("--power-b-mw", "inf", "mean_power_b"),
        ("--excess-noise-db", "1e6", "excess_noise_db"),
        ("--electronic-noise-rms", "inf", "electronic_noise_rms"),
        ("--electronic-noise-rms", "nan", "electronic_noise_rms"),
    ])
    def test_bad_source_or_channel_value_exits_2(self, flag, value, name, monkeypatch,
                                                 capsys):
        monkeypatch.setattr(source, "noise_spectrum", pytest.fail)
        assert main(["pipeline", "--range-ns", "20", flag, value]) == 2
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err

    @pytest.mark.parametrize("flags, name", [
        (["--sigma0-ns", "3000"], "sigma0"),
        (["--sigma0-ns", "1e9"], "sigma0"),
        (["--squeezing-db", "1e6"], "squeezing_db"),
        (["--squeezing-db", "1e6", "--transmission", "0.5"], "squeezing_db"),
        ({"digitizer": {"sample_rate_gsps": 1e300}}, "sample_rate_gsps"),
    ])
    def test_value_out_of_float_range_exits_2(self, flags, name, tmp_path, monkeypatch,
                                              capsys):
        # the shared spectrum underflows, 10^(-x/10) underflows, 1e309 S/s overflows
        if isinstance(flags, dict):
            path = tmp_path / "c.json"
            path.write_text(json.dumps(flags))
            flags = ["--config", str(path)]
        monkeypatch.setattr(source, "noise_spectrum", pytest.fail)
        assert main(["pipeline", "--range-ns", "20", *flags]) == 2
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, key", [
        (["pipeline", "--seed"], "config key seed"),
        (["pipeline", "--repeats"], "config key repeats"),
        (["pipeline", "--bins"], "config key bins"),
        (["simulate", "--out-a", "a.twbm", "--out-b", "b.twbm", "--n-samples"],
         "digitizer key n_samples"),
        ({"source": {"sigma0_ns": 10 ** 400}}, "source key sigma0_ns"),
    ], ids=["seed", "repeats", "bins", "n_samples", "sigma0_ns"])
    def test_integer_too_large_for_a_float_exits_2(self, argv, key, tmp_path, monkeypatch,
                                                    capsys):
        # a 401-digit value is an int that float() cannot hold
        monkeypatch.chdir(tmp_path)
        if isinstance(argv, dict):
            (tmp_path / "c.json").write_text(json.dumps(argv))
            argv = ["pipeline", "--config", "c.json"]
        else:
            argv = [*argv, str(10 ** 400)]
        monkeypatch.setattr(source, "noise_spectrum", pytest.fail)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{key}: int too large to convert to float" in err and "Traceback" not in err
        assert not any(tmp_path.glob("*.twbm"))

    def test_widest_drawable_sigma0_reaches_the_draws(self, monkeypatch, capsys):
        # past 2767 ns the shared PSD's per-bin scale overflows on 4e6 samples
        _stub_first_draw(monkeypatch)
        with pytest.raises(_FirstDraw):
            main(["pipeline", "--range-ns", "20", "--sigma0-ns", "2767"])
        assert main(["pipeline", "--range-ns", "20", "--sigma0-ns", "2768"]) == 2
        assert "sigma0 2768 ns is too wide" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, name", [
        (["--sigma0-ns", "2800", "--scenario", "twin"], "sigma0"),
        (["--excess-noise-db", "300", "--transmission", "0.5"], "excess_noise_db"),
        (["--excess-noise-db", "3000", "--transmission", "0.5"], "excess_noise_db"),
        (["--excess-noise-db", "300"], "excess_noise_db"),
    ])
    def test_source_float64_cannot_carry_exits_2_before_any_draw(self, flags, name, tmp_path,
                                                                  monkeypatch, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"digitizer": {"n_samples": 140_000}}))
        monkeypatch.setattr(source, "noise_spectrum", pytest.fail)
        assert main(["pipeline", "--config", str(path), "--repeats", "1", "--range-ns", "20",
                     *flags]) == 2
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err

    def test_electronic_noise_float64_cannot_carry_exits_2_before_any_draw(
            self, tmp_path, monkeypatch, capsys):
        # eps * rms must stay within the 8-bit DC tolerance 2.56e-7: rms up to 1.15e9
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"digitizer": {"n_samples": 140_000}}))
        run = ["pipeline", "--config", str(path), "--repeats", "1", "--range-ns", "20"]
        _stub_first_draw(monkeypatch)
        with pytest.raises(_FirstDraw):
            main([*run, "--electronic-noise-rms", "1.1e9"])
        for rms in ("1.2e9", "1e200"):
            assert main([*run, "--electronic-noise-rms", rms]) == 2
            err = capsys.readouterr().err
            assert "channel.electronic_noise_rms" in err and "Traceback" not in err

    def test_wide_sigma0_on_a_short_record_draws_without_overflow(self, tmp_path):
        # a numpy overflow would raise here (filterwarnings); a curve this wide
        # may still fail its Gaussian fit
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"digitizer": {"n_samples": 140_000}}))
        assert main(["pipeline", "--config", str(path), "--repeats", "1", "--range-ns", "20",
                     "--sigma0-ns", "2000"]) in (0, 4)

    def test_negative_seed_exits_2(self, capsys):
        assert main(["oracle-check", "--seed", "-1", "--tuples", "1", "--points", "11"]) == 2
        err = capsys.readouterr().err
        assert "--seed must be >= 0, got -1" in err and "Traceback" not in err

    def test_import_loads_no_scipy_signal(self):
        code = ("import sys, twinbeam, twinbeam.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy.signal')))")
        src = str(Path(twinbeam.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        assert out.strip() == "[]"

    def test_import_loads_numpy_alone(self):
        code = ("import sys, twinbeam, twinbeam.cli, twinbeam.config; "
                "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], env=_env_of_this_package(), check=True,
                             capture_output=True, text=True, timeout=120).stdout
        assert out.strip() == "[]"

    @pytest.mark.parametrize("argv, code", [
        (["--help"], 0),
        (["simulate", "--encoding", "u8", "--n-samples", "140000", "--out-a", "a.twbm",
          "--out-b", "b.twbm"], 0),
        (["analyze", "--trace-a", "pair_a.twbm", "--trace-b", "pair_b.twbm", "--range-ns", "20",
          "--out", "c.csv"], 0),
        # refused by check_segment_band, the last of the pipeline's checks before a draw
        (["pipeline", "--config", "segment.json"], 2),
    ], ids=["help", "simulate-u8", "analyze-unfiltered", "refused-config"])
    def test_short_command_loads_no_scipy(self, argv, code, cold_dir):
        assert _cold_main(argv, cold_dir) == [code, []]

    @pytest.mark.parametrize("argv", [
        ["analyze", "--trace-a", "pair_a.twbm", "--trace-b", "pair_b.twbm", "--range-ns", "20",
         "--band-mhz", "1.5:3.5", "--out", "c.csv"],
        ["pipeline", "--config", "short.json", "--repeats", "1", "--range-ns", "100"],
    ], ids=["analyze-band-passed", "pipeline"])
    def test_command_loading_scipy_runs_cold(self, argv, cold_dir):
        assert _cold_main(argv, cold_dir)[0] == 0

    @pytest.mark.parametrize("command", ["matched-transmission", "pipeline"])
    def test_band_past_nyquist_exits_2_before_drawing(self, command, monkeypatch, capsys):
        monkeypatch.setattr(source, "noise_spectrum", pytest.fail)
        assert main([command, "--band-mhz", "900:1100"]) == 2
        assert "band [9e+08, 1.1e+09] Hz must satisfy" in capsys.readouterr().err

    def test_band_past_12_mhz_is_matched(self, capsys):
        # the design works on the record's own band bins, up to Nyquist
        assert main(["matched-transmission", "--band-mhz", "20:30"]) == 0
        assert capsys.readouterr().out.strip() == "0.6462"

    def test_default_transmission_reads_the_drawn_noises(self, capsys):
        # the loss noise is drawn at arm a's shot PSD, and the design reads it there
        assert main(["matched-transmission"]) == 0
        assert capsys.readouterr().out.strip() == "0.5289"
        short = small_config(scenario="twin-channel")
        assert default_channel(short).power_transmission == pytest.approx(0.528905, abs=1e-6)

    def test_bit_depth_is_an_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"digitizer": {"bit_depth": 8}}))
        assert main(["pipeline", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "unknown digitizer key(s): bit_depth" in err and "Traceback" not in err

    def test_narrow_sigma0_is_refused_by_matched_transmission(self, capsys):
        # the target peak ratio lies below even transmission 0.001's
        assert main(["matched-transmission", "--sigma0-ns", "0.02"]) == 2
        err = capsys.readouterr().err
        assert ("sigma0 0.02 ns is too narrow: even transmission 0.001 keeps a peak ratio "
                "of 0.000881, above the target 0.00076") in err and "Traceback" not in err
        assert main(["matched-transmission", "--sigma0-ns", "0.03"]) == 0
        assert capsys.readouterr().out.strip() == "0.0013"

    def test_narrow_sigma0_pipeline_exits_2_before_drawing(self, monkeypatch, capsys):
        monkeypatch.setattr(source, "noise_spectrum", pytest.fail)
        assert main(["pipeline", "--sigma0-ns", "0.01"]) == 2
        err = capsys.readouterr().err
        assert "sigma0 0.01 ns is too narrow" in err and "Traceback" not in err

    def test_simulate_split_coherent_from_shot_limited_source(self, tmp_path):
        a, b = tmp_path / "a.twbm", tmp_path / "b.twbm"
        assert main(["simulate", "--scenario", "split-coherent", "--squeezing-db", "0",
                     "--excess-noise-db", "0", "--n-samples", str(2 ** 16),
                     "--out-a", str(a), "--out-b", str(b)]) == 0
        assert main(["simulate", "--squeezing-db", "0", "--excess-noise-db", "0",
                     "--n-samples", str(2 ** 16), "--out-a", str(a), "--out-b", str(b)]) == 2

    def test_each_command_checks_only_its_stages(self, tmp_path):
        # At 1 GS/s the default 0.5 ns step is half a sample, and 2^13 samples
        # are under one default spectrum segment: only a command that runs the
        # stage using a setting refuses it.
        def simulate(name, *flags):
            a, b = tmp_path / f"{name}_a.twbm", tmp_path / f"{name}_b.twbm"
            assert main(["simulate", *flags, "--out-a", str(a), "--out-b", str(b)]) == 0
            return ["--trace-a", str(a), "--trace-b", str(b)]

        slow = simulate("slow", "--sample-rate-gsps", "1", "--n-samples", str(2 ** 15))
        short = simulate("short", "--n-samples", str(2 ** 13))
        spectrum = ["--out", str(tmp_path / "s.csv")]
        scan = ["--range-ns", "20", "--out", str(tmp_path / "c.csv")]
        assert main(["spectrum", *slow, *spectrum]) == 0
        assert main(["analyze", *short, *scan]) == 0
        assert main(["spectrum", *short, *spectrum]) == 2
        assert main(["analyze", *slow, *scan]) == 2

    def test_analyze_refuses_a_record_too_short_to_band_pass(self, tmp_path, monkeypatch,
                                                              capsys):
        # 8192 samples are too short for bandpass itself; 66 000 are over its
        # 2 x 32 768, but short of the 68 336 the scan needs once both records
        # carry its guard.  Both are refused before any filtering.
        monkeypatch.setattr(cli, "bandpass", lambda *args: pytest.fail("band-passed"))
        a, b = tmp_path / "a.twbm", tmp_path / "b.twbm"
        for n in (8192, 66_000):
            assert main(["simulate", "--n-samples", str(n), "--out-a", str(a),
                         "--out-b", str(b)]) == 0
            assert main(["analyze", "--trace-a", str(a), "--trace-b", str(b), "--band-mhz",
                         "1.5:3.5", "--out", str(tmp_path / "c.csv")]) == 2
            err = capsys.readouterr().err
            assert f"a record of {n} samples is too short: the guards, delay range and " \
                   "bins need at least 68336" in err
            assert "Traceback" not in err

    def test_analyze_reads_the_sample_rate_as_the_schema_does(self, tmp_path, monkeypatch):
        # 0.134 * 1e9 is 134000000.00000001; the schema reads the literal 1.34e8
        path = tmp_path / "a.csv"
        np.savetxt(path, np.random.default_rng(1).standard_normal(1000))
        rates, real_load = [], cli.load_trace

        def recording_load(p, sample_rate=None):
            rates.append(sample_rate)
            return real_load(p, sample_rate=sample_rate)

        monkeypatch.setattr(cli, "load_trace", recording_load)
        main(["analyze", "--trace-a", str(path), "--trace-b", str(path),
              "--sample-rate-gsps", "0.134", "--out", str(tmp_path / "c.csv")])
        want = RunConfig.from_dict({"digitizer": {"sample_rate_gsps": 0.134}}).spec.sample_rate
        assert want == 1.34e8
        assert rates == [want, want]

    def test_wide_kernel_exits_2_before_any_draw(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(source, "noise_spectrum", pytest.fail)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"channel": {"sigma_ns": 100_000}}))
        assert main(["pipeline", "--config", str(path)]) == 2
        assert "kernel span" in capsys.readouterr().err

    def test_analyze_checks_the_records_own_clock(self, tmp_path):
        a, b = tmp_path / "a.twbm", tmp_path / "b.twbm"
        assert main(["simulate", "--sample-rate-gsps", "4", "--n-samples", str(2 ** 18),
                     "--out-a", str(a), "--out-b", str(b)]) == 0
        scan = ["analyze", "--trace-a", str(a), "--trace-b", str(b), "--range-ns", "20",
                "--out", str(tmp_path / "c.csv")]
        assert main(scan + ["--step-ns", "0.25"]) == 0   # one sample at 4 GS/s
        assert main(scan + ["--step-ns", "0.3"]) == 2

    def _twbm_pair(self, tmp_path):
        a, b = tmp_path / "a.twbm", tmp_path / "b.twbm"
        assert main(["simulate", "--n-samples", str(2 ** 16), "--out-a", str(a),
                     "--out-b", str(b)]) == 0
        return a, ["analyze", "--trace-a", str(a), "--trace-b", str(b), "--range-ns", "20",
                   "--out", str(tmp_path / "c.csv")]

    def test_analyze_refuses_a_rate_the_twbm_header_contradicts(self, tmp_path, capsys):
        a, scan = self._twbm_pair(tmp_path)
        assert main(scan + ["--sample-rate-gsps", "4"]) == 3
        assert f"{a}: header says 2e+09 S/s, metadata says 4e+09" in capsys.readouterr().err

    def test_analyze_takes_a_rate_the_twbm_header_matches(self, tmp_path):
        _, scan = self._twbm_pair(tmp_path)
        assert main(scan + ["--sample-rate-gsps", "2"]) == 0

    def test_pipeline_cli_smoke(self, tmp_path):
        rc = main(["pipeline", "--scenario", "twin", "--repeats", "1",
                   "--seed", "5", "--range-ns", "40", "--outdir", str(tmp_path),
                   "--transmission", "0.5"])
        assert rc == 0
        assert (tmp_path / "report.json").exists()

    def test_matched_transmission_command(self, capsys):
        assert main(["matched-transmission"]) == 0
        out = capsys.readouterr().out.strip()
        assert 0.3 < float(out) < 0.8


def _digest(samples):
    return hashlib.blake2b(samples.tobytes(), digest_size=16).hexdigest()


def _scanned_pairs(monkeypatch):
    """Record every pair run_pipeline scans, in order."""
    scanned, real_scan = [], pipeline.mi_delay_scan

    def recording_scan(pair, *args, **kwargs):
        scanned.append(pair)
        return real_scan(pair, *args, **kwargs)

    monkeypatch.setattr(pipeline, "mi_delay_scan", recording_scan)
    return scanned


class TestSpectralArms:
    """run_pipeline forms each scanned arm as a spectrum; it matches the explicit
    time-domain chain bandpass(apply_channel(gen_*(...))) outside the guard."""

    # Largest |difference| in levels between a spectral arm and the explicit
    # chain's, outside the guard: 5.5e-4 to 1.3e-3 levels on arms of rms 0.6
    # to 1.0, measured at 2^19 to 4e6 samples.  It is the band-pass's tails:
    # bandpass masks a reflection-padded record on a longer FFT grid.
    ARM_TOL = 5e-3

    @pytest.mark.parametrize("cfg", [
        # long enough records and range for the channel fit to succeed
        small_config(scenario="twin-channel", delay_range=150e-9,
                     spec=DigitizerSpec(n_samples=2 ** 21)),
        small_config(scenario="scatterer-only"),
        small_config(scenario="split-thermal"),
        small_config(scenario="split-coherent"),
    ], ids=lambda cfg: cfg.scenario)
    def test_arms_match_explicit_chain(self, monkeypatch, cfg):
        # one usable core, one lane: every scan runs where the recording sees it
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        scanned = _scanned_pairs(monkeypatch)
        run_pipeline(cfg)

        twin = gen_twin(cfg.source, cfg.spec, cfg.seed)
        want = [twin.a, twin.b]
        if cfg.scenario in ("twin-channel", "scatterer-only"):
            chan = (default_channel(cfg) if cfg.scenario == "twin-channel"
                    else scatterer_only_channel())
            want += [apply_channel(twin, chan, cfg.seed + pipeline._SEED_OFFSETS["channel"]).a,
                     twin.b]
        else:
            gen = {"split-thermal": gen_split_thermal,
                   "split-coherent": gen_split_coherent}[cfg.scenario]
            split = gen(cfg.source, cfg.spec, cfg.seed + pipeline._SEED_OFFSETS[cfg.scenario])
            want += [split.a, split.b]
        got = [arm for pair in scanned for arm in (pair.a, pair.b)]
        assert len(got) == len(want) == 4
        for g, w in zip(got, want):
            w = bandpass(w, cfg.f_lo, cfg.f_hi)
            assert g.guard == w.guard
            assert np.abs(g.valid() - w.valid()).max() < self.ARM_TOL
            assert g.valid().std() > 0.5


class TestPerSeedDataflow:
    """Each noise is drawn once and each scanned arm inverse-transformed once:
    run_pipeline forms a band-passed arm from its spectrum, not by filtering
    a generated record."""

    @pytest.mark.parametrize("cfg", [
        small_config(scenario="scatterer-only", repeats=2),
        # long enough records and range for the channel fit to succeed
        small_config(scenario="all", repeats=2, delay_range=150e-9,
                     spec=DigitizerSpec(n_samples=2 ** 21)),
    ], ids=["scatterer-only", "all"])
    def test_one_generation_per_seed_and_one_filter_per_record(self, monkeypatch, cfg):
        # one usable core, one lane: every draw and record is made where the
        # recording sees it
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        draws, records, covered = [], [], {}
        real_draw, real_record = source.noise_spectrum, pipeline.band_record
        m = cfg.spec.n_samples // 2 + 1

        def counting_draw(rng, spec, psd, bins, *args):
            ss = rng.bit_generator.seed_seq
            draws.append((ss.entropy, ss.spawn_key))
            covered[draws[-1]] = len(range(*bins.indices(m)))
            return real_draw(rng, spec, psd, bins, *args)

        def counting_record(*args):
            out = real_record(*args)
            records.append(_digest(out))
            return out

        # each recipe built once per run, before the first draw: (name, draws so far)
        built = []

        def counting(name, recipe):
            def build(*args):
                built.append((name, len(draws)))
                return recipe(*args)
            return build

        monkeypatch.setattr(pipeline, "twin_recipe", counting("twin", pipeline.twin_recipe))
        for name in ("split-thermal", "split-coherent"):
            monkeypatch.setitem(source.RECIPES, name, counting(name, source.RECIPES[name]))
        monkeypatch.setattr(source, "noise_spectrum", counting_draw)
        monkeypatch.setattr(pipeline, "band_record", counting_record)
        scanned = _scanned_pairs(monkeypatch)
        run_pipeline(cfg)
        assert built == [("twin", 0), *((name, 0) for name in SCENARIOS[cfg.scenario][1])]

        seeds = [cfg.seed + r for r in range(cfg.repeats)]
        assert len(set(draws)) == len(draws)
        assert {(s, (i,)) for s in seeds for i in range(3)} <= set(draws)
        if cfg.scenario == "all":
            # each split pair at its own seed offset: split-thermal draws 3 noises,
            # split-coherent 2
            split = [(s + pipeline._SEED_OFFSETS[name], (i,)) for s in seeds
                     for name, k in (("split-thermal", 3), ("split-coherent", 2))
                     for i in range(k)]
            assert [draws.count(d) for d in split] == [1] * len(split)
        # The first seed's a - b needs every rfft bin of the twin noises whose
        # difference weight is nonzero (each arm's own), and the band of the
        # shared one, which cancels; its shot-noise reference needs every bin
        # of both noises.  Every other draw covers the band only.
        band = len(range(*band_bins(cfg.spec.n_samples, cfg.spec.sample_rate,
                                    cfg.f_lo, cfg.f_hi)[0].indices(m)))
        ref = seeds[0] + pipeline._SEED_OFFSETS["reference"]
        first = {(seeds[0], (0,)): band, (seeds[0], (1,)): m, (seeds[0], (2,)): m,
                 (ref, (0,)): m, (ref, (1,)): m}
        assert band < m
        assert {d: covered[d] for d in first} == first
        assert {covered[d] for d in covered if d not in first} == {band}
        arms = {_digest(arm.samples) for pair in scanned for arm in (pair.a, pair.b)}
        assert len(set(records)) == len(records)
        assert arms == set(records)

    def test_channel_curve_equals_explicit_chain(self, monkeypatch):
        cfg = small_config(scenario="twin-channel", delay_range=150e-9,
                           spec=DigitizerSpec(n_samples=2 ** 21))
        averaged, real_average = [], pipeline.average_curves

        def recording_average(curves):
            averaged.append(list(curves))
            return real_average(curves)

        monkeypatch.setattr(pipeline, "average_curves", recording_average)
        report = run_pipeline(cfg)

        pair = gen_twin(cfg.source, cfg.spec, cfg.seed)
        chan = apply_channel(pair, default_channel(cfg),
                             cfg.seed + pipeline._SEED_OFFSETS["channel"])
        filtered = TracePair(a=bandpass(chan.a, cfg.f_lo, cfg.f_hi),
                             b=bandpass(chan.b, cfg.f_lo, cfg.f_hi))
        want = mi_delay_scan(filtered, step=cfg.delay_step, range_=cfg.delay_range,
                             n_bins=cfg.n_bins)
        # curves are averaged in report order: unobstructed, then channel
        (got,) = averaged[1]
        assert np.array_equal(got.delays, want.delays)
        # The arms differ by the band-pass's tails (TestSpectralArms.ARM_TOL),
        # so a few samples change bin: max |dMI| 5.5e-6 bits (unobstructed,
        # peak 1.13 bits) and 7.8e-6 bits (channel, peak 0.54 bits) at 4e6
        # samples, 8.4e-6 and 8.7e-6 bits here.
        assert np.abs(got.mi - want.mi).max() < 5e-5
        assert report["scenarios"]["twin-channel"]["peak_bits"] == pytest.approx(
            want.peak, abs=5e-5)


class TestThreads:
    """Noise draws run on threads that their stage starts and joins: no thread
    is alive when a scan forks its shift blocks or run_pipeline its lanes,
    and one usable core starts none.  The outputs do not depend on the core
    count."""

    def _outputs(self, tmp_path, monkeypatch, cores):
        # one shift block per core of a lane, however little work a scan holds
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        monkeypatch.setattr(mi, "_BLOCK_WORK", 1)
        started, forks, parent = [], [], os.getpid()
        start, fork = threading.Thread.start, os.fork

        def counting_start(thread):
            started.append(thread)
            start(thread)

        def checked_fork():
            assert threading.active_count() == 1
            # a forked lane forks nothing; its error crosses back to the test
            assert os.getpid() == parent, "forked inside a lane"
            forks.append(cores)
            return fork()

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        monkeypatch.setattr(os, "fork", checked_fork)
        cfg = small_config(scenario="all", repeats=2, delay_range=150e-9,
                           spec=DigitizerSpec(n_samples=2 ** 20))
        out = tmp_path / f"out{cores}"
        report = run_pipeline(cfg, outdir=out)
        report.pop("timing")
        csvs = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
        a, b = tmp_path / f"a{cores}.twbm", tmp_path / f"b{cores}.twbm"
        assert main(["simulate", "--scenario", "twin", "--n-samples", str(2 ** 17),
                     "--out-a", str(a), "--out-b", str(b)]) == 0
        assert threading.active_count() == 1
        return report, a.read_bytes() + b.read_bytes(), len(started), len(forks), csvs

    def test_no_thread_alive_at_a_fork_and_none_on_one_core(self, tmp_path, monkeypatch):
        # each seed's four curves go to min(cores, 4) lanes: one worker forked
        # per seed for each lane past the first, and none inside a lane, whose
        # share of the cores is one; at 1, 2 and a faked 4 cores the report and
        # every CSV are byte-equal
        runs = {cores: self._outputs(tmp_path, monkeypatch, cores) for cores in (1, 2, 4)}
        one, two = runs[1], runs[2]
        assert two[2] > 0 and two[3] > 0     # threads drew and lanes forked
        assert one[2:4] == (0, 0)
        assert len(one[4]) == 5
        for cores, run in runs.items():
            assert run[3] == 2 * (min(cores, 4) - 1)
            assert json.dumps(run[0], indent=2) == json.dumps(one[0], indent=2)
            assert run[1] == one[1] and run[4] == one[4]

    @pytest.mark.parametrize("failing", ["lane 0", "lane 1"])
    def test_lane_error_is_raised_with_no_child_left(self, failing, monkeypatch):
        # a job's error in the forked lane crosses its pipe with its type and
        # message; an error in this process's lane kills the forked one, which
        # would otherwise sleep for a minute; either way every worker is reaped
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        parent, kills = os.getpid(), []
        real_scan, real_kill = pipeline.mi_delay_scan, os.kill

        def failing_scan(pair, **kwargs):
            lane = "lane 0" if os.getpid() == parent else "lane 1"
            if lane == failing:
                raise DataError(f"scan in {lane}")
            if lane == "lane 1":
                time.sleep(60)
            return real_scan(pair, **kwargs)

        def recording_kill(pid, sig):
            kills.append(sig)
            real_kill(pid, sig)

        monkeypatch.setattr(pipeline, "mi_delay_scan", failing_scan)
        monkeypatch.setattr(os, "kill", recording_kill)
        t0 = time.monotonic()
        with pytest.raises(DataError, match=f"^scan in {failing}$") as info:
            run_pipeline(small_config(scenario="scatterer-only"))
        assert info.type is DataError
        assert kills == ([signal.SIGKILL] if failing == "lane 0" else [])
        assert time.monotonic() - t0 < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def _load_spans():
    """The benchmark's tracer module, perfbench/spans.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


class TestBenchmarkSpans:
    def test_every_wrapped_name_exists(self):
        # the benchmark's tracer wraps these names, which is why pipeline.py
        # keeps its time-domain imports
        targets = _load_spans().targets()
        assert targets
        for module, attr, *_ in targets:
            assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"

    def test_generator_repeat_keys_bind_their_calls(self):
        # the tracer binds each generator call to its signature, by name
        spans = _load_spans()
        gens = [(layer, key) for _, _, layer, key, _ in spans.targets()
                if layer.startswith("source.gen_")]
        assert len(gens) == 3
        args = (SourceParams(), DigitizerSpec(n_samples=2 ** 12), 7)
        for layer, key in gens:
            assert key(*args) != key(*args[:2], 8), layer


class TestReportDeterminism:
    def test_same_seed_reports_identical_but_timing(self, tmp_path):
        cfg = small_config(scenario="all", delay_range=150e-9,
                           spec=DigitizerSpec(n_samples=2 ** 21))
        texts, csvs = [], []
        for run in ("one", "two"):
            report = run_pipeline(cfg, outdir=tmp_path / run)
            assert set(report.pop("timing")) == {"elapsed_s"}
            texts.append(json.dumps(report, indent=2))
            csvs.append({p.name: p.read_bytes() for p in sorted((tmp_path / run).glob("*.csv"))})
        assert texts[0] == texts[1]
        assert len(csvs[0]) == 5 and csvs[0] == csvs[1]

    def test_reports_differ_only_in_timing_across_output_directories(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"digitizer": {"n_samples": 2 ** 19}}))
        reports = []
        for run in ("o1", "o2"):
            assert main(["pipeline", "--config", str(path), "--scenario", "twin",
                         "--repeats", "1", "--range-ns", "40",
                         "--outdir", str(tmp_path / run)]) == 0
            report = json.loads((tmp_path / run / "report.json").read_text())
            assert "outdir" not in report["config"]
            report.pop("timing")
            reports.append(report)
        assert reports[0] == reports[1]
