"""Declarative run configuration and its JSON form.

Internally everything is SI (seconds, Hz, W); the JSON form and the CLI
speak ns, MHz, mW, GS/s and dB.  The schema tables below are the one place
that names each JSON key, the field it sets and its unit; they drive
``to_dict``, ``from_dict`` and the unknown-key check.  A missing key keeps
its field's dataclass default.  This module is only the schema; the command
that runs a stage asks the stage's own check whether settings fit a record.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path
from typing import Optional

from .dsp import SEGMENT_LENGTH
from .errors import ConfigError
from .mi import DELAY_RANGE, DELAY_STEP, N_BINS
from .source import DESIGN_BAND
from .trace import ChannelParams, DigitizerSpec, SourceParams

__all__ = ["RunConfig", "SCENARIOS", "SCENARIO_CHOICES", "check_seed", "read_json"]

# Curves each scenario scans besides the unobstructed twin curve: a channel
# curve on arm a of every twin pair, split-source curves on pairs of their
# own; and whether the unobstructed curve gets a Gaussian fit.  Report order.
SCENARIOS = {
    "twin-channel": ("twin-channel", (), True),
    "twin": (None, (), True),
    "split-thermal": (None, ("split-thermal",), False),
    "split-coherent": (None, ("split-coherent",), False),
    "scatterer-only": ("scatterer-only", (), False),
    "all": ("twin-channel", ("split-thermal", "split-coherent"), True),
}
SCENARIO_CHOICES = tuple(SCENARIOS)


# A unit is (to JSON, from JSON).  ``_scaled`` reads a JSON value as the
# decimal literal it spells (1.1 ns is 1.1e-9, unlike 1.1 / 1e9; 50 ns is 50e-9,
# unlike 50 * 1e-9) and refuses a finite one that overflows in SI units;
# ``out`` is the reports' arithmetic (not 50e-9 / 1e-9).
def _scaled(out, exponent: int):
    def into(v):
        x = float(v)
        si = float(Decimal(repr(x)).scaleb(exponent))
        if math.isfinite(x) and not math.isfinite(si):
            raise ValueError(f"{v!r} overflows in SI units")
        return si
    return (out, into)


def _integer(v) -> int:
    """An integral number as an int: 4e6 reads as 4000000; 2.5 and true are refused."""
    if isinstance(v, bool) or not float(v).is_integer():
        raise ValueError(f"{v!r} is not an integer")
    return int(v)


_AS_IS = (lambda x: x, lambda v: v)
_INT = (lambda x: x, _integer)
_FLOAT = (lambda x: x, float)
_NS = _scaled(lambda x: x * 1e9, -9)
_MW = _scaled(lambda x: x * 1e3, -3)
_MHZ = _scaled(lambda x: x / 1e6, 6)
_GSPS = _scaled(lambda x: x / 1e9, 9)

# Schema tables: (JSON key, field, unit) in the JSON form's key order.  A
# tuple of fields is one key holding a list.
_SOURCE = (
    ("squeezing_db", "squeezing_db", _FLOAT),
    ("sigma0_ns", "sigma0", _NS),
    ("excess_noise_db", "excess_noise_db", _FLOAT),
    ("mean_power_a_mw", "mean_power_a", _MW),
    ("mean_power_b_mw", "mean_power_b", _MW),
)
_CHANNEL = (
    ("eta", "eta", _FLOAT),
    ("tau0_ns", "tau0", _NS),
    ("sigma_ns", "sigma", _NS),
    ("transmission", "power_transmission", _FLOAT),
    ("electronic_noise_rms", "electronic_noise_rms", _FLOAT),
)
_DIGITIZER = (
    ("sample_rate_gsps", "sample_rate", _GSPS),
    ("n_samples", "n_samples", _INT),
)


def _dump(obj, table) -> dict:
    """JSON form of ``obj``; a field holding None is left out."""
    d = {}
    for key, name, (out, _) in table:
        if isinstance(name, tuple):
            d[key] = [out(getattr(obj, n)) for n in name]
        elif getattr(obj, name) is not None:
            d[key] = out(getattr(obj, name))
    return d


def _load(cls, d, table, where: str):
    """``cls`` built from its JSON form ``d``; an unknown key is a ConfigError."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(d).__name__}")
    unknown = sorted(set(d) - {key for key, _, _ in table})
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(unknown)}")
    kw = {}
    for key, name, (_, into) in table:
        try:
            if key in d and not isinstance(name, tuple):
                kw[name] = into(d[key])
            elif key in d:   # one value per field
                if not (isinstance(d[key], list) and len(d[key]) == len(name)):
                    raise ConfigError(f"{key} must be a list of {len(name)} numbers")
                kw.update(zip(name, map(into, d[key])))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{where} key {key}: {exc}") from exc
    return cls(**kw)


def _section(cls, table, where: str):   # the unit of a nested section
    return (lambda obj: _dump(obj, table), lambda d: _load(cls, d, table, where))


_RUN = (
    ("scenario", "scenario", _AS_IS),
    ("band_mhz", ("f_lo", "f_hi"), _MHZ),
    ("bins", "n_bins", _INT),
    ("step_ns", "delay_step", _NS),
    ("range_ns", "delay_range", _NS),
    ("repeats", "repeats", _INT),
    ("seed", "seed", _INT),
    ("segment_length", "segment_length", _INT),
    ("source", "source", _section(SourceParams, _SOURCE, "source")),
    ("digitizer", "spec", _section(DigitizerSpec, _DIGITIZER, "digitizer")),
    ("channel", "channel", _section(ChannelParams, _CHANNEL, "channel")),
    ("outdir", "outdir", _AS_IS),
)


@dataclass
class RunConfig:
    """Settings of one reproducible pipeline run, checked only for their own shape."""

    scenario: str = "twin-channel"
    source: SourceParams = field(default_factory=SourceParams)
    channel: Optional[ChannelParams] = None   # None: eta-matched defaults
    spec: DigitizerSpec = field(default_factory=DigitizerSpec)
    f_lo: float = DESIGN_BAND[0]
    f_hi: float = DESIGN_BAND[1]
    n_bins: int = N_BINS
    delay_step: float = DELAY_STEP
    delay_range: float = DELAY_RANGE
    repeats: int = 10
    seed: int = 1
    segment_length: int = SEGMENT_LENGTH
    outdir: Optional[str] = None

    def __post_init__(self):
        if self.scenario not in SCENARIO_CHOICES:
            raise ConfigError(f"unknown scenario {self.scenario!r}; "
                              f"choose from {SCENARIO_CHOICES}")
        check_seed(self.seed, "seed")
        if self.repeats < 1:
            raise ConfigError("repeats must be >= 1")
        if not (0 < self.f_lo < self.f_hi):
            raise ConfigError("band must satisfy 0 < f_lo < f_hi")

    def to_dict(self) -> dict:
        """JSON form; a None channel or outdir is left out."""
        return _dump(self, _RUN)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """Parse the JSON form; an unknown key or a bad value at any level is a ConfigError."""
        return _load(cls, d, _RUN, "config")

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        return cls.from_dict(read_json(path))

    def dump_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")


def check_seed(seed: int, name: str) -> int:
    """``seed``, refused with a ConfigError naming ``name`` unless numpy can seed with it."""
    if seed < 0:
        raise ConfigError(f"{name} must be >= 0, got {seed}")
    return seed


def read_json(path):
    """The JSON form stored in a file, as read; ``from_dict`` checks it."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
