"""Declarative run configuration with human-unit (de)serialization.

Internally everything is SI (seconds, Hz); the JSON form and the CLI speak
ns, MHz, and dB and are converted exactly once at the boundary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .errors import ConfigError
from .trace import ChannelParams, DigitizerSpec, SourceParams

__all__ = ["RunConfig", "SCENARIO_CHOICES"]

SCENARIO_CHOICES = ("twin-channel", "twin", "split-thermal", "split-coherent",
                    "scatterer-only", "all")

# keys of the JSON form, top level and per section
_KEYS = ("scenario", "band_mhz", "bins", "step_ns", "range_ns", "repeats", "seed",
         "segment_length", "source", "channel", "digitizer", "outdir")
_SECTION_KEYS = {
    "source": ("squeezing_db", "sigma0_ns", "excess_noise_db", "mean_power_a_mw",
               "mean_power_b_mw"),
    "channel": ("eta", "tau0_ns", "sigma_ns", "transmission", "electronic_noise_rms"),
    "digitizer": ("sample_rate_gsps", "n_samples", "bit_depth"),
}


def _check_keys(d, known, where: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(d).__name__}")
    unknown = sorted(set(d) - set(known))
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(unknown)}")


@dataclass
class RunConfig:
    """Settings of one reproducible pipeline run."""

    scenario: str = "twin-channel"
    source: SourceParams = field(default_factory=SourceParams)
    channel: Optional[ChannelParams] = None   # None: eta-matched defaults
    spec: DigitizerSpec = field(default_factory=DigitizerSpec)
    f_lo: float = 1.5e6
    f_hi: float = 3.5e6
    n_bins: int = 100
    delay_step: float = 0.5e-9
    delay_range: float = 300e-9
    repeats: int = 10
    seed: int = 1
    segment_length: int = 2 ** 14
    outdir: Optional[str] = None

    def __post_init__(self):
        if self.scenario not in SCENARIO_CHOICES:
            raise ConfigError(
                f"unknown scenario {self.scenario!r}; choose from {SCENARIO_CHOICES}"
            )
        if self.repeats < 1:
            raise ConfigError("repeats must be >= 1")
        if not (0 < self.f_lo < self.f_hi):
            raise ConfigError("band must satisfy 0 < f_lo < f_hi")
        if self.n_bins < 2:
            raise ConfigError("n_bins must be >= 2")

    # -- JSON with ns / MHz / dB units ------------------------------------

    def to_dict(self) -> dict:
        d = {
            "scenario": self.scenario,
            "band_mhz": [self.f_lo / 1e6, self.f_hi / 1e6],
            "bins": self.n_bins,
            "step_ns": self.delay_step * 1e9,
            "range_ns": self.delay_range * 1e9,
            "repeats": self.repeats,
            "seed": self.seed,
            "segment_length": self.segment_length,
            "source": {
                "squeezing_db": self.source.squeezing_db,
                "sigma0_ns": self.source.sigma0 * 1e9,
                "excess_noise_db": self.source.excess_noise_db,
                "mean_power_a_mw": self.source.mean_power_a * 1e3,
                "mean_power_b_mw": self.source.mean_power_b * 1e3,
            },
            "digitizer": {
                "sample_rate_gsps": self.spec.sample_rate / 1e9,
                "n_samples": self.spec.n_samples,
                "bit_depth": self.spec.bit_depth,
            },
        }
        if self.channel is not None:
            d["channel"] = self.channel.to_report()
        if self.outdir is not None:
            d["outdir"] = self.outdir
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """Parse the JSON form; an unknown key at any level is a ConfigError."""
        _check_keys(d, _KEYS, "config")
        for section in ("source", "channel", "digitizer"):
            if section in d:
                _check_keys(d[section], _SECTION_KEYS[section], section)
        try:
            src = d.get("source", {})
            source = SourceParams(
                squeezing_db=float(src.get("squeezing_db", 7.0)),
                sigma0=float(src.get("sigma0_ns", 32.1)) * 1e-9,
                excess_noise_db=float(src.get("excess_noise_db", 3.2)),
                mean_power_a=float(src.get("mean_power_a_mw", 5.9)) * 1e-3,
                mean_power_b=float(src.get("mean_power_b_mw", 5.3)) * 1e-3,
            )
            channel = None
            if "channel" in d:
                ch = d["channel"]
                channel = ChannelParams(
                    eta=float(ch.get("eta", 0.598)),
                    tau0=float(ch.get("tau0_ns", 32.7)) * 1e-9,
                    sigma=float(ch.get("sigma_ns", 19.7)) * 1e-9,
                    power_transmission=float(ch.get("transmission", 0.14)),
                    electronic_noise_rms=float(ch.get("electronic_noise_rms", 0.0)),
                )
            dig = d.get("digitizer", {})
            spec = DigitizerSpec(
                sample_rate=float(dig.get("sample_rate_gsps", 2.0)) * 1e9,
                n_samples=int(dig.get("n_samples", 4_000_000)),
                bit_depth=int(dig.get("bit_depth", 8)),
            )
            band = d.get("band_mhz", [1.5, 3.5])
            return cls(
                scenario=d.get("scenario", "twin-channel"),
                source=source,
                channel=channel,
                spec=spec,
                f_lo=float(band[0]) * 1e6,
                f_hi=float(band[1]) * 1e6,
                n_bins=int(d.get("bins", 100)),
                delay_step=float(d.get("step_ns", 0.5)) * 1e-9,
                delay_range=float(d.get("range_ns", 300.0)) * 1e-9,
                repeats=int(d.get("repeats", 10)),
                seed=int(d.get("seed", 1)),
                segment_length=int(d.get("segment_length", 2 ** 14)),
                outdir=d.get("outdir"),
            )
        except (TypeError, ValueError, KeyError, IndexError) as exc:
            raise ConfigError(f"invalid config: {exc}") from exc

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        try:
            with open(path) as fh:
                return cls.from_dict(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc

    def dump_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")
