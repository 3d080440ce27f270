"""Trace, curve, and spectrum file formats.

TWBM container layout (little-endian throughout):

    bytes 0-3    magic "TWBM"
    bytes 4-7    version, uint32
    bytes 8-11   header length H, uint32
    bytes 12-    UTF-8 JSON header of H bytes:
                 {sample_rate_hz, n_samples, encoding, label,
                  full_scale, mean_level, bit_depth?, guard?,
                  shot_psd?, noise_bandwidth_hz?}
    then         raw payload; encoding "u8" stores the record as raw levels
                 (mean included), "f64le" stores the zero-mean fluctuation.

CSV traces hold one column (value) or two (time, value); the time column is
validated uniform and then discarded in favor of the declared sample rate.
"""

from __future__ import annotations

import csv
import json
import struct
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import BadMagic, DataError, HeaderMismatch, InvalidParams, NonUniformTime
from .trace import DigitizerSpec, MICurve, Trace
from .dsp import SpectrumEstimate

__all__ = [
    "TWBM_MAGIC",
    "TWBM_VERSION",
    "save_trace",
    "load_trace",
    "save_curve",
    "load_curve",
    "save_spectrum",
]

TWBM_MAGIC = b"TWBM"
TWBM_VERSION = 1

_ENCODINGS = {"u8": np.uint8, "f64le": "<f8"}


def save_trace(trace: Trace, path, encoding: str = "f64le") -> None:
    """Write a trace as a TWBM container."""
    if encoding not in _ENCODINGS:
        raise InvalidParams(f"unknown encoding {encoding!r}; use one of {sorted(_ENCODINGS)}")
    if encoding == "u8" and trace.spec.bit_depth > 8:
        raise InvalidParams(f"encoding 'u8' holds 8 bits, but the trace's bit_depth "
                            f"is {trace.spec.bit_depth}")
    header = {
        "sample_rate_hz": trace.spec.sample_rate,
        "n_samples": trace.spec.n_samples,
        "encoding": encoding,
        "label": trace.label,
        "full_scale": trace.spec.full_scale,
        "mean_level": trace.mean_level,
        "bit_depth": trace.spec.bit_depth,
        "guard": trace.guard,
        "shot_psd": trace.shot_psd,
        "noise_bandwidth_hz": trace.noise_bandwidth,
    }
    hdr = json.dumps(header).encode("utf-8")
    if encoding == "u8":
        raw = trace.samples + trace.mean_level
        payload = np.clip(np.rint(raw), 0, 255).astype(np.uint8).tobytes()
    else:
        payload = trace.samples.astype("<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(TWBM_MAGIC)
        fh.write(struct.pack("<II", TWBM_VERSION, len(hdr)))
        fh.write(hdr)
        fh.write(payload)


def _load_twbm(path, sample_rate: Optional[float]) -> Trace:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != TWBM_MAGIC:
            raise BadMagic(f"{path}: expected magic {TWBM_MAGIC!r}, found {magic!r}")
        version, hdr_len = struct.unpack("<II", fh.read(8))
        if version != TWBM_VERSION:
            raise HeaderMismatch(f"{path}: unsupported TWBM version {version}")
        try:
            header = json.loads(fh.read(hdr_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HeaderMismatch(f"{path}: unreadable header: {exc}") from exc
        payload = fh.read()
    encoding = header.get("encoding")
    if encoding not in _ENCODINGS:
        raise HeaderMismatch(f"{path}: unknown encoding {encoding!r}")
    n = int(header["n_samples"])
    itemsize = 1 if encoding == "u8" else 8
    if len(payload) != n * itemsize:
        raise HeaderMismatch(
            f"{path}: header declares {n} samples ({n * itemsize} bytes), "
            f"payload holds {len(payload)}"
        )
    fs = float(header["sample_rate_hz"])
    if sample_rate is not None and abs(fs - sample_rate) > 1e-6 * sample_rate:
        raise NonUniformTime(f"{path}: header says {fs:g} S/s, metadata says {sample_rate:g}")
    values = np.frombuffer(payload, dtype=_ENCODINGS[encoding]).astype(np.float64)
    spec = DigitizerSpec(
        sample_rate=fs,
        n_samples=n,
        bit_depth=int(header.get("bit_depth", 8)),
        full_scale=float(header.get("full_scale", 1.0)),
    )
    mean_level = float(header.get("mean_level", 0.0))
    if encoding == "u8":
        samples = values - values.mean()
        mean_level = float(values.mean())
    else:
        samples = values
    return Trace(
        samples=samples,
        spec=spec,
        label=header.get("label", "trace"),
        mean_level=mean_level,
        shot_psd=header.get("shot_psd"),
        noise_bandwidth=header.get("noise_bandwidth_hz"),
        guard=int(header.get("guard", 0)),
    )


def _load_csv_trace(path, sample_rate: Optional[float]) -> Trace:
    data = np.loadtxt(path, delimiter=",", ndmin=2, comments="#")
    if data.shape[1] == 1:
        values = data[:, 0]
        if sample_rate is None:
            raise InvalidParams("single-column CSV needs an explicit sample_rate")
        fs = sample_rate
    elif data.shape[1] == 2:
        times, values = data[:, 0], data[:, 1]
        dt = np.diff(times)
        if len(dt) == 0 or dt[0] <= 0:
            raise NonUniformTime(f"{path}: time column is not increasing")
        period = float(np.median(dt))
        if np.max(np.abs(dt - period)) > 1e-6 * period:
            raise NonUniformTime(f"{path}: time stamps jitter beyond 1e-6 relative")
        fs = 1.0 / period
        if sample_rate is not None and abs(fs - sample_rate) > 1e-6 * sample_rate:
            raise NonUniformTime(
                f"{path}: time column implies {fs:g} S/s, metadata says {sample_rate:g}"
            )
    else:
        raise DataError(f"{path}: expected 1 or 2 CSV columns, found {data.shape[1]}")
    mean = float(values.mean())
    spec = DigitizerSpec(sample_rate=fs, n_samples=len(values))
    return Trace(samples=values - mean, spec=spec, label=Path(path).stem, mean_level=mean)


def load_trace(path, format: str = "auto", sample_rate: Optional[float] = None) -> Trace:
    """Read a trace from TWBM or CSV.

    ``auto`` sniffs the TWBM magic and otherwise treats the file as CSV.  A
    given ``sample_rate`` must agree, within 1e-6 relative, with a TWBM
    header's rate or a CSV time column; it is the rate of a one-column CSV.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"{path}: no such file")
    if format == "auto":
        with open(path, "rb") as fh:
            format = "twbm" if fh.read(4) == TWBM_MAGIC else "csv"
    if format == "twbm":
        return _load_twbm(path, sample_rate)
    if format == "csv":
        return _load_csv_trace(path, sample_rate)
    raise InvalidParams(f"unknown trace format {format!r}")


def save_curve(curve: MICurve, path) -> None:
    """Write an MI curve as CSV: delay_ns, mi, spread."""
    spread = curve.spread if curve.spread is not None else np.zeros_like(curve.mi)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["delay_ns", "mi", "spread"])
        for d, m, s in zip(curve.delays, curve.mi, spread):
            w.writerow([f"{d * 1e9:.6f}", f"{m:.9g}", f"{s:.9g}"])


def load_curve(path) -> MICurve:
    """Read an MI curve CSV written by save_curve (or compatible)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] < 2:
        raise DataError(f"{path}: curve CSV needs delay_ns and mi columns")
    delays = data[:, 0] * 1e-9
    mi = data[:, 1]
    spread = data[:, 2] if data.shape[1] > 2 else None
    if spread is not None and not np.any(spread > 0):
        spread = None
    return MICurve(delays=delays, mi=np.maximum(mi, 0.0), spread=spread)


def save_spectrum(est: SpectrumEstimate, path) -> None:
    """Write a squeezing spectrum as CSV: freq_hz, psd, reference_psd, squeezing_db."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["freq_hz", "psd", "reference_psd", "squeezing_db"])
        for f, p, r, s in zip(est.frequencies, est.psd, est.reference_psd,
                              est.squeezing_db_curve):
            w.writerow([f"{f:.3f}", f"{p:.9g}", f"{r:.9g}", f"{s:.6f}"])
