"""Core domain types: digitizer metadata, traces, trace pairs, curves, parameters.

Conventions used throughout the package:

* all times are seconds, all frequencies Hz, all rates in samples/second;
* trace samples are real-valued fluctuations in digitizer-level units with
  the DC component removed (the removed mean is kept in ``mean_level``);
* types are immutable after construction and validate their invariants in
  the constructor, so an instance that exists is a valid one;
* a ``TracePair`` is two traces on one clock and carries no scenario label:
  scenarios are named once, in ``config.SCENARIOS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .errors import DataError, InvalidParams


# Largest mean (levels) a ``Trace`` accepts as DC-free: 1e-9 of an 8-bit record's 256 levels.
DC_TOLERANCE = 1e-9 * 256


def holds_mean(rms: float) -> bool:
    """Whether float64, which knows a record's mean to eps * rms, holds it within DC_TOLERANCE."""
    return np.finfo(np.float64).eps * rms <= DC_TOLERANCE


@dataclass(frozen=True)
class DigitizerSpec:
    """Acquisition metadata of one oscilloscope channel."""

    sample_rate: float = 2.0e9     # samples / second
    n_samples: int = 4_000_000

    def __post_init__(self):
        if not (0 < self.sample_rate < math.inf):
            raise InvalidParams(f"sample_rate must be finite and > 0, got {self.sample_rate}")
        if not (self.n_samples > 0):
            raise InvalidParams(f"n_samples must be > 0, got {self.n_samples}")

    @property
    def duration(self) -> float:
        return self.n_samples / self.sample_rate

    def bin_scale(self, psd):
        """An rfft bin's scale psd * fs * n / 2 at one-sided PSD ``psd``; scales arrays in place."""
        psd *= self.sample_rate
        psd *= self.n_samples
        psd /= 2.0
        return psd


@dataclass(frozen=True)
class Trace:
    """One channel's intensity-fluctuation record.

    ``samples`` holds zero-mean fluctuations in level units.  ``guard`` is the
    number of samples at each end that downstream statistics must exclude
    (filter and convolution transients accumulate here).  ``shot_psd`` is the
    one-sided shot-noise PSD (level^2/Hz) associated with the beam's mean
    power: optional bookkeeping used by the channel model, whose noises, like
    the source's, are white over ``source.NOISE_BANDWIDTH_HZ``.
    """

    samples: np.ndarray
    spec: DigitizerSpec
    label: str = "probe"
    mean_level: float = 0.0
    shot_psd: Optional[float] = None
    guard: int = 0

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise InvalidParams("trace samples must be one-dimensional")
        if len(samples) != self.spec.n_samples:
            raise DataError(
                f"trace has {len(samples)} samples, spec declares {self.spec.n_samples}"
            )
        # Take ownership: views are copied, owned arrays are frozen in place.
        if not samples.flags.owndata:
            samples = samples.copy()
        mean = float(samples.mean())
        if not math.isfinite(mean):   # a NaN or inf sample makes the mean so
            raise InvalidParams(f"trace samples must be finite, but their mean is {mean}")
        if abs(mean) > DC_TOLERANCE:
            raise InvalidParams(f"trace mean {mean:g} exceeds DC-removal tolerance "
                                f"{DC_TOLERANCE:g}; subtract the mean (see Trace.from_raw)")
        if self.guard < 0 or 2 * self.guard >= len(samples):
            raise InvalidParams(f"guard {self.guard} out of range for trace")
        if self.shot_psd is not None and not 0.0 < self.shot_psd < math.inf:
            raise InvalidParams(f"shot_psd must be finite and > 0, got {self.shot_psd}")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    @classmethod
    def from_raw(cls, raw: Sequence[float], spec: DigitizerSpec, **kw) -> "Trace":
        """Build a trace from a raw (not DC-removed) record."""
        raw = np.asarray(raw, dtype=np.float64)
        mean = float(raw.mean())
        samples = raw - mean if math.isfinite(mean) else raw   # which the constructor refuses
        return cls(samples=samples, spec=spec, mean_level=kw.pop("mean_level", mean), **kw)

    def valid(self) -> np.ndarray:
        """Samples with the guard regions stripped."""
        n = len(self.samples)
        return self.samples[self.guard : n - self.guard]


@dataclass(frozen=True)
class TracePair:
    """Two time-aligned traces sharing one sample clock."""

    a: Trace
    b: Trace

    def __post_init__(self):
        a, b = self.a, self.b
        if a.spec.sample_rate != b.spec.sample_rate:
            raise DataError(
                f"sample rates differ: {a.spec.sample_rate:g} vs {b.spec.sample_rate:g}"
            )
        if a.spec.n_samples != b.spec.n_samples or len(a.samples) != len(b.samples):
            raise DataError(
                f"lengths differ: {a.spec.n_samples} vs {b.spec.n_samples}"
            )


@dataclass(frozen=True)
class MICurve:
    """Mutual information (bits) versus relative delay (seconds).

    Positive delay means arm ``a`` is retarded with respect to arm ``b``; a
    channel that delays arm ``a`` moves the peak to positive delays.
    ``spread`` is the spread over repeats: zeros where none is known (given as ``None``).
    """

    delays: np.ndarray
    mi: np.ndarray
    spread: Optional[np.ndarray] = None
    n_repeats: int = 1

    def __post_init__(self):
        delays = np.asarray(self.delays, dtype=np.float64).copy()
        mi = np.asarray(self.mi, dtype=np.float64).copy()
        if delays.ndim != 1 or delays.shape != mi.shape:
            raise InvalidParams("delays and mi must be 1-d arrays of equal length")
        if not (np.isfinite(delays).all() and np.isfinite(mi).all()):
            raise InvalidParams("delays and mi must be finite")
        if len(delays) < 2:
            raise InvalidParams("curve needs at least two points")
        steps = np.diff(delays)
        if not np.all(steps > 0):
            raise InvalidParams("delays must be strictly increasing")
        if not np.allclose(steps, steps[0], rtol=1e-6, atol=0.0):
            raise InvalidParams("delay grid must be uniform")
        if np.any(mi < 0):
            raise InvalidParams("MI values must be nonnegative")
        spread = (np.asarray(self.spread, dtype=np.float64).copy() if self.spread is not None
                  else np.zeros_like(mi))
        if spread.shape != mi.shape or not np.all((spread >= 0) & (spread < np.inf)):
            raise InvalidParams("spread must match mi, and be finite and nonnegative")
        if self.n_repeats < 1:
            raise InvalidParams("n_repeats must be >= 1")
        for x in (delays, mi, spread):
            x.setflags(write=False)
        object.__setattr__(self, "delays", delays)
        object.__setattr__(self, "mi", mi)
        object.__setattr__(self, "spread", spread)

    @property
    def step(self) -> float:
        return float(self.delays[1] - self.delays[0])

    @property
    def peak(self) -> float:
        return float(self.mi.max())

    @property
    def peak_delay(self) -> float:
        return float(self.delays[int(np.argmax(self.mi))])


def _refuse_non_finite(params) -> None:
    """Raise InvalidParams naming the first field of ``params`` that is not finite."""
    for f in fields(params):
        value = getattr(params, f.name)
        if not math.isfinite(value):
            raise InvalidParams(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class SourceParams:
    """Twin-beam source settings.

    Defaults reproduce the measured source: 7 dB intensity-difference
    squeezing, a 32.1 ns correlation-envelope scale, and 5.9/5.3 mW beam
    powers.  ``excess_noise_db`` is the per-beam noise above shot noise,
    band-averaged over the 1.5-3.5 MHz analysis band.
    """

    squeezing_db: float = 7.0
    sigma0: float = 32.1e-9
    excess_noise_db: float = 3.2
    mean_power_a: float = 5.9e-3
    mean_power_b: float = 5.3e-3

    def __post_init__(self):
        _refuse_non_finite(self)
        try:
            self.excess_ratio
        except OverflowError:
            raise InvalidParams(f"excess_noise_db {self.excess_noise_db} dB overflows "
                                "as a power ratio") from None
        if self.squeezing_db < 0:
            raise InvalidParams(f"squeezing_db must be >= 0, got {self.squeezing_db}")
        if self.squeezing_ratio == 0.0:
            raise InvalidParams(f"squeezing_db {self.squeezing_db} dB underflows "
                                "as a power ratio")
        if not (self.sigma0 > 0):
            raise InvalidParams(f"sigma0 must be > 0, got {self.sigma0}")
        if not (self.mean_power_a > 0 and self.mean_power_b > 0):
            raise InvalidParams("mean powers must be > 0")
        if self.excess_noise_db < 0:
            raise InvalidParams("excess_noise_db must be >= 0")

    @property
    def excess_ratio(self) -> float:   # per-beam noise over shot noise, as a power ratio
        return 10.0 ** (self.excess_noise_db / 10.0)

    @property
    def squeezing_ratio(self) -> float:   # independent per-arm noise over shot noise
        return 10.0 ** (-self.squeezing_db / 10.0)


@dataclass(frozen=True)
class ChannelParams:
    """Scatterer + integrating-sphere channel settings.

    ``eta`` is the forward-scattering efficiency, the amplitude parameter of
    the recovered MI model.  ``power_transmission`` is the optical throughput
    of the channel (measured value 0.14); it is an independent knob from
    ``eta`` and the two must not be conflated.
    """

    eta: float = 0.598
    tau0: float = 32.7e-9
    sigma: float = 19.7e-9
    power_transmission: float = 0.14
    electronic_noise_rms: float = 0.0   # levels, over source.NOISE_BANDWIDTH_HZ

    def __post_init__(self):
        _refuse_non_finite(self)
        if not (0.0 < self.eta <= 1.0):
            raise InvalidParams(f"eta must be in (0, 1], got {self.eta}")
        if not (self.sigma > 0):
            raise InvalidParams(f"sigma must be > 0, got {self.sigma}")
        if not (0.0 < self.power_transmission <= 1.0):
            raise InvalidParams(
                f"power_transmission must be in (0, 1], got {self.power_transmission}"
            )
        if self.electronic_noise_rms < 0:
            raise InvalidParams("electronic_noise_rms must be >= 0")


@dataclass(frozen=True)
class FitResult:
    """Recovered channel-model parameters with diagnostics."""

    sigma0: float
    tau0: float
    sigma: float
    eta: float
    fwhm_unobstructed: float
    fwhm_channel: float
    peak_ratio: float
    residual_rms: float

    def __post_init__(self):
        if not (self.sigma0 > 0 and self.sigma > 0):
            raise InvalidParams("fitted widths must be > 0")
        if not (self.fwhm_unobstructed > 0 and self.fwhm_channel > 0):
            raise InvalidParams("FWHM values must be > 0")
        if not (self.eta > 0):
            raise InvalidParams("eta must be > 0")
        if not (0.0 < self.peak_ratio <= 1.0):
            raise InvalidParams(f"peak_ratio must be in (0, 1], got {self.peak_ratio}")

    def to_report(self) -> dict:
        """JSON form in ns, as reports and ``twinbeam fit`` write it."""
        return {
            "sigma0_ns": self.sigma0 * 1e9,
            "tau0_ns": self.tau0 * 1e9,
            "sigma_ns": self.sigma * 1e9,
            "eta": self.eta,
            "fwhm_unobstructed_ns": self.fwhm_unobstructed * 1e9,
            "fwhm_channel_ns": self.fwhm_channel * 1e9,
            "peak_ratio": self.peak_ratio,
            "residual_rms": self.residual_rms,
        }
