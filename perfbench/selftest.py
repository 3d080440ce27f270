"""Fast self-test of the benchmark's correctness checks.

Run from the repository root:

    python3 perfbench/selftest.py

It shows that each check in ``checks.py`` passes the program's true output
and rejects a perturbed one.  The raw-file checks run on a short (2^20-sample)
stored u8 twin pair through ``twinbeam simulate`` and ``twinbeam analyze``,
then see the curve shifted by one grid step, the peak scaled by 10 % and the
peak moved past 10 ns.  The pipeline figure checks see reports built from the
benchmark's own closed forms, moved just inside and just outside each
tolerance, and the ordering check sees the scenario peaks swapped.  It takes
about ten seconds and exits non-zero if any case goes the wrong way.
"""

from __future__ import annotations

import contextlib
import copy
import shutil
import sys

import numpy as np

import checks
import run

N_SAMPLES = 2 ** 20
SEED = 3


def raw_cases(work) -> list[tuple[str, list, str | None]]:
    """(case, problems, check expected to reject it or None) for the raw checks."""
    wl = run.RawAnalyze(N_SAMPLES)
    with contextlib.redirect_stdout(sys.stderr):
        wl.setup(work, SEED)
        (delays, curve), single = wl.collect(wl.operation(work), work)
    ref = checks.RawReference(work / "a.twbm", work / "b.twbm", SEED)

    step_ns = delays[1] - delays[0]
    shifted = np.r_[curve[:1], curve[:-1]]
    peak_ns = delays[int(np.argmax(curve))]
    steps_past = int(np.ceil((checks.PEAK_DELAY_TOL_NS + 1.0 - peak_ns) / step_ns))
    moved = np.roll(curve, steps_past)
    return [
        ("raw: program output", checks.check_raw(delays, curve, single, ref), None),
        ("raw: curve shifted by one grid step",
         checks.check_raw(delays, shifted, single, ref), "seeded_shift"),
        ("raw: curve peak scaled by 10 %",
         checks.check_raw(delays, curve * 1.1, single, ref), "gaussian_mi"),
        ("raw: curve moved past 10 ns",
         checks.check_raw(delays, moved, single, ref), "peak_delay"),
        ("raw: single-shift MI scaled by 10 %",
         checks.check_raw(delays, curve, single * 1.1, ref), "single_shift"),
        ("raw: curve one point short",
         checks.check_raw(delays[:-1], curve[:-1], single, ref), "grid"),
    ]


def expected_report() -> dict:
    return {
        "fit": {"peak_ratio": checks.expected_peak_ratio(),
                "fwhm_channel_ns": checks.expected_channel_fwhm_ns(),
                "tau0_ns": checks.TAU0_NS},
        "scenarios": {"twin-unobstructed": {"fwhm_ns": checks.expected_unobstructed_fwhm_ns(),
                                            "peak_bits": 1.16},
                      "split-thermal": {"peak_bits": 0.36},
                      "split-coherent": {"peak_bits": 0.053}},
        "spectrum": {"in_band_mean_db": checks.SQUEEZING_DB},
    }


def pipeline_cases():
    """The same for the pipeline figure checks, at one 4e6-sample repeat, and ordering."""
    repeats, n_samples = 1, checks.PAPER_SAMPLES
    base = expected_report()
    fields = {
        "peak_ratio": (("fit", "peak_ratio"), checks.REL_TOL * base["fit"]["peak_ratio"]),
        "unobstructed_fwhm_ns": (("scenarios", "twin-unobstructed", "fwhm_ns"),
                                 checks.REL_TOL * checks.expected_unobstructed_fwhm_ns()),
        "channel_fwhm_ns": (("fit", "fwhm_channel_ns"),
                            checks.REL_TOL * checks.expected_channel_fwhm_ns()),
        "peak_shift_ns": (("fit", "tau0_ns"), checks.shift_tolerance_ns(repeats, n_samples)),
        "spectrum_db": (("spectrum", "in_band_mean_db"),
                        checks.spectrum_tolerance_db(n_samples)),
    }
    cases = [("pipeline: closed-form values",
              checks.check_twin_channel(base, repeats, n_samples), None)]
    for check, (path, tol) in fields.items():
        for sign in (1, -1):
            for frac, expect in ((0.95, None), (1.05, check)):
                rep = copy.deepcopy(base)
                node = rep
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] += sign * frac * tol
                cases.append((f"pipeline: {check} moved by {sign * frac:+.2f} x tolerance",
                              checks.check_twin_channel(rep, repeats, n_samples), expect))
    for swap in (("split-thermal", "split-coherent"), ("twin-unobstructed", "split-thermal")):
        rep = copy.deepcopy(base)
        s = rep["scenarios"]
        s[swap[0]]["peak_bits"], s[swap[1]]["peak_bits"] = (s[swap[1]]["peak_bits"],
                                                            s[swap[0]]["peak_bits"])
        cases.append((f"ordering: {swap[0]} and {swap[1]} swapped",
                      checks.check_ordering(rep), "ordering"))
    cases.append(("ordering: measured order", checks.check_ordering(base), None))
    return cases


def main() -> int:
    run.import_program()
    work = run.OUT / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    try:
        cases = raw_cases(work) + pipeline_cases()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    bad = 0
    for name, problems, expect in cases:
        rejected_by = sorted({check for check, _ in problems})
        ok = (not problems) if expect is None else (expect in rejected_by)
        bad += not ok
        verdict = "passes" if not problems else "rejected by " + ", ".join(rejected_by)
        print(f"{'ok  ' if ok else 'BAD '} {name}: {verdict}")
    print(f"{len(cases) - bad} of {len(cases)} cases as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
