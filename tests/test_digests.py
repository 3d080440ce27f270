"""Byte identity of the program's outputs, against sha256 digests in digests.json.

A change that moves an output on purpose rewrites the digests in the same
commit (``python tests/test_digests.py`` rewrites digests.json and prints
each section/name whose digest changed) and says which outputs moved, by how
much and why.  numpy does not promise that a
``Generator``'s streams stay the same across releases, so the file records
the numpy and scipy versions the digests were taken with, and a mismatch
fails with both versions named.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
import scipy

from twinbeam.cli import main
from twinbeam.config import RunConfig
from twinbeam.pipeline import run_pipeline
from twinbeam.source import RECIPES
from twinbeam.trace import DigitizerSpec

from conftest import twbm_payload

DIGESTS = Path(__file__).with_name("digests.json")
VERSIONS = {"numpy": np.__version__, "scipy": scipy.__version__}
SIMULATE_SAMPLES = 2 ** 17


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pipeline_digests(tmp: Path) -> dict:
    """``all`` at 2^19 x 2, seed 7: report.json without ``timing``, each curve and the spectrum."""
    cfg = RunConfig(scenario="all", spec=DigitizerSpec(n_samples=2 ** 19), repeats=2, seed=7)
    # the twin-channel curve has side lobes at this setting (CHANGES.md, FOUND line 5)
    with pytest.warns(UserWarning, match="crosses its half level 6 times"):
        run_pipeline(cfg, outdir=tmp)
    report = json.loads((tmp / "report.json").read_text())
    del report["timing"]
    out = {"report.json": _sha256(json.dumps(report, indent=2).encode())}
    out.update((p.name, _sha256(p.read_bytes())) for p in sorted(tmp.glob("*.csv")))
    return out


def simulate_digests(tmp: Path) -> dict:
    """The TWBM payloads ``simulate`` writes for each generator, in each encoding, at seed 7."""
    out = {}
    for generator in RECIPES:
        for encoding in ("f64le", "u8"):
            a, b = tmp / f"{generator}-{encoding}-a.twbm", tmp / f"{generator}-{encoding}-b.twbm"
            assert main(["simulate", "--scenario", generator, "--seed", "7",
                         "--n-samples", str(SIMULATE_SAMPLES), "--encoding", encoding,
                         "--out-a", str(a), "--out-b", str(b)]) == 0
            out.update((p.stem, _sha256(twbm_payload(p))) for p in (a, b))
    return out


def analyze_digests(tmp: Path) -> dict:
    """``analyze``'s curve CSV of a stored u8 twin pair, raw and band-passed."""
    a, b = tmp / "a.twbm", tmp / "b.twbm"
    assert main(["simulate", "--seed", "7", "--n-samples", str(SIMULATE_SAMPLES),
                 "--encoding", "u8", "--out-a", str(a), "--out-b", str(b)]) == 0
    out = {}
    for name, flags in (("raw", []), ("band", ["--band-mhz", "1.5:3.5"])):
        curve = tmp / f"{name}.csv"
        assert main(["analyze", "--trace-a", str(a), "--trace-b", str(b), "--range-ns", "100",
                     *flags, "--out", str(curve)]) == 0
        out[name] = _sha256(curve.read_bytes())
    return out


SECTIONS = {"pipeline": pipeline_digests, "simulate": simulate_digests,
            "analyze": analyze_digests}


@pytest.fixture(scope="module")
def recorded():
    data = json.loads(DIGESTS.read_text())
    if data["versions"] != VERSIONS:
        pytest.fail(f"{DIGESTS.name} was taken with {data['versions']}, but this run has "
                    f"{VERSIONS}: rewrite it at these versions from a commit whose outputs "
                    "are trusted")
    return data


@pytest.mark.parametrize("section", list(SECTIONS))
def test_outputs_are_byte_identical(section, recorded, tmp_path):
    assert SECTIONS[section](tmp_path) == recorded[section]


if __name__ == "__main__":
    import tempfile

    old = json.loads(DIGESTS.read_text())
    data = {"versions": VERSIONS}
    for section, digests in SECTIONS.items():
        with tempfile.TemporaryDirectory() as tmp:
            data[section] = digests(Path(tmp))
    DIGESTS.write_text(json.dumps(data, indent=2) + "\n")
    moved = [f"{section}/{name}" for section in SECTIONS
             for name in {**old.get(section, {}), **data[section]}
             if old.get(section, {}).get(name) != data[section].get(name)]
    print("\n".join(moved) or "unchanged")
