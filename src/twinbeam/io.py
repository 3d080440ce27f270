"""Trace, curve, and spectrum file formats.

TWBM container layout (little-endian throughout):

    bytes 0-3    magic "TWBM"
    bytes 4-7    version, uint32
    bytes 8-11   header length H, uint32
    bytes 12-    UTF-8 JSON header of H bytes:
                 {sample_rate_hz, n_samples, encoding, label,
                  mean_level, guard?, shot_psd?}
                 (other keys, such as the full_scale, bit_depth and
                 noise_bandwidth_hz of earlier files, are ignored)
    then         raw payload; encoding "u8" stores raw 8-bit levels (mean
                 included), "f64le" stores the zero-mean fluctuation.

CSV traces hold one column (value) or two (time, value); the time column is
validated uniform and then discarded in favor of the declared sample rate.
A malformed file of either kind, or one whose values a type refuses (a NaN
sample, a guard past mid-record), is a ``DataError`` naming the file.
"""

from __future__ import annotations

import csv
import json
import struct
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DataError, InvalidParams
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


@contextmanager
def _values_of(path):
    """Turn a type's InvalidParams, raised on values read from ``path``, into a DataError."""
    try:
        yield
    except InvalidParams as exc:
        raise DataError(f"{path}: {exc}") from exc


def save_trace(trace: Trace, path, encoding: str = "f64le") -> None:
    """Write a trace as a TWBM container; "u8" clips the rounded levels to 0-255."""
    if encoding not in _ENCODINGS:
        raise InvalidParams(f"unknown encoding {encoding!r}; use one of {sorted(_ENCODINGS)}")
    header = {
        "sample_rate_hz": trace.spec.sample_rate,
        "n_samples": trace.spec.n_samples,
        "encoding": encoding,
        "label": trace.label,
        "mean_level": trace.mean_level,
        "guard": trace.guard,
        "shot_psd": trace.shot_psd,
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
    """The trace in a file that starts with the TWBM magic."""
    with open(path, "rb") as fh:
        prefix = fh.read(12)
        if len(prefix) < 12:
            raise DataError(f"{path}: file ends inside the TWBM version and header length")
        version, hdr_len = struct.unpack("<4xII", prefix)
        if version != TWBM_VERSION:
            raise DataError(f"{path}: unsupported TWBM version {version}")
        try:
            header = json.loads(fh.read(hdr_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"{path}: unreadable header: {exc}") from exc
        payload = fh.read()
    try:
        encoding = header.get("encoding")
        n = int(header["n_samples"])
        fs = float(header["sample_rate_hz"])
        guard = int(header.get("guard", 0))
        mean_level = float(header.get("mean_level", 0.0))
        shot_psd = header.get("shot_psd")
        shot_psd = None if shot_psd is None else float(shot_psd)
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed header: {exc!r}") from exc
    if encoding not in _ENCODINGS:
        raise DataError(f"{path}: unknown encoding {encoding!r}")
    itemsize = 1 if encoding == "u8" else 8
    if len(payload) != n * itemsize:
        raise DataError(
            f"{path}: header declares {n} samples ({n * itemsize} bytes), "
            f"payload holds {len(payload)}"
        )
    if sample_rate is not None and abs(fs - sample_rate) > 1e-6 * sample_rate:
        raise DataError(f"{path}: header says {fs:g} S/s, metadata says {sample_rate:g}")
    values = np.frombuffer(payload, dtype=_ENCODINGS[encoding]).astype(np.float64)
    with _values_of(path):
        kw = dict(spec=DigitizerSpec(sample_rate=fs, n_samples=n), guard=guard,
                  label=header.get("label", "trace"), shot_psd=shot_psd)
        if encoding == "u8":
            return Trace.from_raw(values, **kw)
        return Trace(samples=values, mean_level=mean_level, **kw)


def _existing(path) -> Path:
    """``path`` as a Path; a missing file is a DataError naming it."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"{path}: no such file")
    return path


def _csv_numbers(path, refusal: str, skiprows: int = 0) -> np.ndarray:
    """The rows of numbers in a CSV file; a file holding none, or anything else, is a DataError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)   # numpy's warning of a file with no data
        try:
            return np.loadtxt(path, delimiter=",", ndmin=2, skiprows=skiprows)
        except (UserWarning, ValueError) as exc:   # a UnicodeDecodeError is a ValueError
            raise DataError(f"{path}: {refusal}: {exc}") from exc


def _load_csv_trace(path, sample_rate: Optional[float]) -> Trace:
    data = _csv_numbers(path, "not a TWBM file, nor a CSV of numbers")
    if data.shape[1] == 1:
        values = data[:, 0]
        if sample_rate is None:
            raise InvalidParams("single-column CSV needs an explicit sample_rate")
        fs = sample_rate
    elif data.shape[1] == 2:
        times, values = data[:, 0], data[:, 1]
        dt = np.diff(times)
        if len(dt) == 0 or dt[0] <= 0:
            raise DataError(f"{path}: time column is not increasing")
        period = float(np.median(dt))
        if np.max(np.abs(dt - period)) > 1e-6 * period:
            raise DataError(f"{path}: time stamps jitter beyond 1e-6 relative")
        fs = 1.0 / period
        if sample_rate is not None and abs(fs - sample_rate) > 1e-6 * sample_rate:
            raise DataError(
                f"{path}: time column implies {fs:g} S/s, metadata says {sample_rate:g}"
            )
    else:
        raise DataError(f"{path}: expected 1 or 2 CSV columns, found {data.shape[1]}")
    with _values_of(path):
        return Trace.from_raw(values, DigitizerSpec(sample_rate=fs, n_samples=len(values)),
                              label=Path(path).stem)


def load_trace(path, sample_rate: Optional[float] = None) -> Trace:
    """Read a trace from TWBM or CSV.

    A file that starts with the TWBM magic is read as TWBM, any other as CSV.
    A given ``sample_rate`` must agree, within 1e-6 relative, with a TWBM
    header's rate or a CSV time column; it is the rate of a one-column CSV.
    """
    path = _existing(path)
    with open(path, "rb") as fh:
        twbm = fh.read(4) == TWBM_MAGIC
    return (_load_twbm if twbm else _load_csv_trace)(path, sample_rate)


def save_curve(curve: MICurve, path) -> None:
    """Write an MI curve as CSV: delay_ns, mi, spread."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["delay_ns", "mi", "spread"])
        for d, m, s in zip(curve.delays, curve.mi, curve.spread):
            w.writerow([f"{d * 1e9:.6f}", f"{m:.9g}", f"{s:.9g}"])


def load_curve(path) -> MICurve:
    """Read an MI curve CSV written by save_curve (or compatible)."""
    path = _existing(path)
    data = _csv_numbers(path, "not a curve CSV of numbers", skiprows=1)
    if data.shape[1] < 2:
        raise DataError(f"{path}: curve CSV needs delay_ns and mi columns")
    delays = data[:, 0] * 1e-9
    mi = data[:, 1]
    spread = data[:, 2] if data.shape[1] > 2 else None
    with _values_of(path):
        return MICurve(delays=delays, mi=np.maximum(mi, 0.0), spread=spread)


def save_spectrum(est: SpectrumEstimate, path) -> None:
    """Write a squeezing spectrum as CSV: freq_hz, psd, reference_psd, squeezing_db."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["freq_hz", "psd", "reference_psd", "squeezing_db"])
        for f, p, r, s in zip(est.frequencies, est.psd, est.reference_psd,
                              est.squeezing_db_curve):
            w.writerow([f"{f:.3f}", f"{p:.9g}", f"{r:.9g}", f"{s:.6f}"])
