"""Time the numpy MI delay scan on both sides of its walk/rebuild choice.

The numpy scan kernel updates one joint histogram from shift to shift when
b's bin index changes rarely enough, and rebuilds it densely otherwise.  Each
workload below sits clearly on one side:

* band-passed, 0.5 ns and 1 ns steps: long bin runs, the kernel walks;
* band-passed, 5 ns step, and unfiltered at 0.5 ns and 5 ns: the kernel
  rebuilds at every shift.

Run from the repository root:

    PYTHONPATH=src python benchmarks/scan_paths.py [--n-samples N] [--repeats R]

It prints the best of R scans per workload, in ms per shift.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from twinbeam import DigitizerSpec, SourceParams, TracePair, bandpass, gen_twin, mi_delay_scan
from twinbeam.mi import _bin_indices


def breakpoint_share(trace) -> float:
    ib, _ = _bin_indices(trace.valid(), 100)
    return float(np.mean(ib[1:] != ib[:-1]))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-samples", type=int, default=4_000_000)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()

    raw = gen_twin(SourceParams(), DigitizerSpec(n_samples=args.n_samples), seed=60)
    bp = TracePair(a=bandpass(raw.a, 1.5e6, 3.5e6), b=bandpass(raw.b, 1.5e6, 3.5e6))
    print(f"share of samples where b's bin changes: band-passed "
          f"{breakpoint_share(bp.b):.3f}, unfiltered {breakpoint_share(raw.b):.3f}")
    workloads = [
        ("band-passed, 0.5 ns step (walk)", bp, 0.5e-9, 300e-9),
        ("band-passed, 1 ns step (walk)", bp, 1e-9, 300e-9),
        ("band-passed, 5 ns step (rebuild)", bp, 5e-9, 300e-9),
        ("unfiltered, 0.5 ns step (rebuild)", raw, 0.5e-9, 120e-9),
        ("unfiltered, 5 ns step (rebuild)", raw, 5e-9, 300e-9),
    ]
    for label, pair, step, range_ in workloads:
        times = []
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            curve = mi_delay_scan(pair, step=step, range_=range_)
            times.append(time.perf_counter() - t0)
        n = len(curve.mi)
        print(f"{label}: {n} shifts, {1e3 * min(times) / n:.2f} ms/shift", flush=True)


if __name__ == "__main__":
    main()
