import struct

import numpy as np
import pytest

from twinbeam.trace import DigitizerSpec, Trace


@pytest.fixture
def small_spec():
    """Short record for cheap statistical tests (131 us at 2 GS/s)."""
    return DigitizerSpec(sample_rate=2.0e9, n_samples=2 ** 18)


@pytest.fixture
def mid_spec():
    """Half-million-sample record for tighter statistics."""
    return DigitizerSpec(sample_rate=2.0e9, n_samples=2 ** 20)


def make_trace(values, sample_rate=2.0e9, **kw):
    values = np.asarray(values, dtype=np.float64)
    spec = DigitizerSpec(sample_rate=sample_rate, n_samples=len(values))
    return Trace(samples=values - values.mean(), spec=spec, **kw)


def gaussian_pair(rho, n, seed, scale=1.0):
    """Bivariate Gaussian samples with correlation rho."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    y = rho * x + np.sqrt(1.0 - rho * rho) * rng.standard_normal(n)
    return scale * x, scale * y


def twbm_payload(path) -> bytes:
    """The payload of a TWBM file: the bytes after its header."""
    data = path.read_bytes()
    return data[12 + struct.unpack("<II", data[4:12])[1]:]
