"""The twinbeam benchmark: the paper's pipeline, raw-file analysis, all scenarios.

Run from the repository root:

    python3 perfbench/run.py --workload paper-twin-channel --seed 1 --seconds 36 --trace 0

Without ``--workload`` every workload of BENCHMARK.json runs, each in its own
fresh process, and a table of their metrics is printed.

One run of a workload:

1. sets up its inputs five times, each time in a fresh interpreter that
   imports twinbeam and writes the inputs (``setup_s`` is the median);
2. repeats the same operation on those inputs, each timed in wall and CPU
   time, until another would end past ``--seconds`` (at least one);
3. records the process's peak resident memory after its first operation (the
   high-water mark of later ones depends on how many fit in the run);
4. checks every operation's outputs against references computed apart from
   the program (``checks.py``); an operation that raises or fails a check is
   counted as failed;
5. prints a summary and, as the last line of standard output, one JSON
   object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
   end-to-end metrics with ``--trace 0``, the per-layer metrics from spans
   (``spans.py``) with ``--trace 1``.  The exit code is 0 whenever that
   line is printed; failures are reported in it.

The program is imported from ``src/`` of the checkout the command runs in and
from nowhere else.  Work files and a JSON record of each run, with its
environment block, go under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import spans

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 5


def import_program():
    """Import twinbeam from the checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import twinbeam

    if not Path(twinbeam.__file__).resolve().is_relative_to(src):
        raise ImportError(f"twinbeam imported from {twinbeam.__file__}, not {src}")
    return twinbeam


class Pipeline:
    """``run_pipeline`` on a configuration written as JSON at set-up.

    ``left_out`` names checks that fail on some seeds for a reason outside
    the benchmark (recorded as FOUND lines in CHANGES.md); their results are
    printed but not counted.
    """

    def __init__(self, scenario: str, repeats: int, n_samples: int, left_out=()):
        self.scenario, self.repeats, self.n_samples = scenario, repeats, n_samples
        self.left_out = left_out

    def setup(self, work: Path, seed: int) -> None:
        from twinbeam.config import RunConfig
        from twinbeam.trace import DigitizerSpec

        RunConfig(scenario=self.scenario, repeats=self.repeats, seed=seed,
                  spec=DigitizerSpec(n_samples=self.n_samples)).dump_json(work / "config.json")

    def operation(self, work: Path):
        import twinbeam.pipeline as pipeline
        from twinbeam.config import RunConfig

        return pipeline.run_pipeline(RunConfig.from_json(work / "config.json"),
                                     outdir=str(work / "out"))

    def collect(self, report, work: Path):
        return report

    def check(self, report, work: Path, seed: int) -> list[tuple[str, str]]:
        problems = checks.check_twin_channel(report, self.repeats, self.n_samples)
        if self.scenario == "all":
            problems += checks.check_ordering(report)
        for check, msg in problems:
            if check in self.left_out:
                print(f"left out: {check}: {msg}")
        return [p for p in problems if p[0] not in self.left_out]


class RawAnalyze:
    """``twinbeam analyze`` on a stored u8 twin pair, then the single-shift estimator."""

    def __init__(self, n_samples: int):
        self.n_samples = n_samples
        self._reference = None

    def _paths(self, work: Path):
        return str(work / "a.twbm"), str(work / "b.twbm"), str(work / "curve.csv")

    def setup(self, work: Path, seed: int) -> None:
        import twinbeam.cli as cli

        a, b, _ = self._paths(work)
        rc = cli.main(["simulate", "--scenario", "twin", "--encoding", "u8",
                       "--seed", str(seed), "--n-samples", str(self.n_samples),
                       "--out-a", a, "--out-b", b])
        if rc != 0:
            raise RuntimeError(f"simulate exited with {rc}")

    def operation(self, work: Path):
        import twinbeam.cli as cli
        import twinbeam.io as tbio
        import twinbeam.mi as mi

        a, b, curve = self._paths(work)
        rc = cli.main(["analyze", "--trace-a", a, "--trace-b", b, "--out", curve])
        if rc != 0:
            raise RuntimeError(f"analyze exited with {rc}")
        return mi.mi_from_hist(mi.histogram2d(tbio.load_trace(a), tbio.load_trace(b)))

    def collect(self, single_mi, work: Path):
        """The operation's outputs, read before the next operation overwrites them."""
        return checks.read_curve_csv(self._paths(work)[2]), single_mi

    def check(self, outputs, work: Path, seed: int) -> list[tuple[str, str]]:
        (delays_ns, curve_mi), single_mi = outputs
        if self._reference is None:
            a, b, _ = self._paths(work)
            self._reference = checks.RawReference(a, b, seed)
        return checks.check_raw(delays_ns, curve_mi, single_mi, self._reference)


WORKLOADS = {
    "paper-twin-channel": Pipeline("twin-channel", repeats=1, n_samples=checks.PAPER_SAMPLES),
    # 2^20 samples, not the paper's 4e6: a 4e6-sample rebuild streams 8 MB
    # index arrays and a 32 MB intp copy per shift, and its speed followed the
    # shared host's memory traffic (interquartile range 0.16 of the median
    # against 0.07 at 2^20, interleaved in one process)
    "raw-analyze": RawAnalyze(n_samples=2 ** 20),
    # on 2^20-sample records the channel fit's width takes the outermost
    # half-level crossings, and on some seeds a side lobe reaches half height;
    # the peak ratio reads +3.1 % (sd 2.6 %) above the closed form over seeds
    # 71-100 and +10.08 % at seed 71, past criterion 6's 10 %
    "short-all-scenarios": Pipeline("all", repeats=2, n_samples=2 ** 20,
                                    left_out=("channel_fwhm_ns", "peak_ratio")),
}


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def cpu_seconds() -> float:
    """CPU time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def timed_setups(workload: str, seed: int, work: Path) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup", str(work),
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=sys.stderr, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times


def per_layer_metrics(tracer, n_ops: int, spec: list[dict]) -> dict:
    per_op = [tracer.layer_totals(op) for op in range(n_ops)]
    metrics = {}
    for m in spec:
        layer, field = m["name"].rsplit(".", 1)
        values = []
        for totals in per_op:
            t = totals.get(layer, {})
            if field == "ms_per_shift":
                v = 1e3 * t["span_s"] / t["shifts"] if t.get("shifts") else 0.0
            elif field == "breakpoint_share":
                v = t["breakpoint_share_sum"] / t["calls"] if t.get("calls") else 0.0
            else:
                v = t.get(field, 0)
            values.append(v)
        metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
    return metrics


def run_workload(args, bench: dict) -> int:
    wl = WORKLOADS[args.workload]
    work = OUT / "work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = timed_setups(args.workload, args.seed, work)
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()

        ops = []
        t_run = time.perf_counter()
        while True:
            if tracer is not None:
                tracer.begin_operation()
            rec = {"error": None, "problems": []}
            cpu0, t0 = cpu_seconds(), time.perf_counter()
            try:
                with contextlib.redirect_stdout(sys.stderr):
                    result = wl.operation(work)
                rec["wall_s"] = time.perf_counter() - t0
                rec["cpu_s"] = cpu_seconds() - cpu0
                rec["outputs"] = wl.collect(result, work)
            except Exception:
                rec["error"] = traceback.format_exc()
                rec.setdefault("wall_s", time.perf_counter() - t0)
                rec.setdefault("cpu_s", cpu_seconds() - cpu0)
            ops.append(rec)
            if len(ops) == 1:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            elapsed = time.perf_counter() - t_run
            typical = statistics.median(op["wall_s"] for op in ops)
            if elapsed + typical > args.seconds:
                break

        for rec in ops:
            if rec["error"] is None:
                try:
                    rec["problems"] = wl.check(rec.pop("outputs"), work, args.seed)
                except Exception:
                    rec["problems"] = [("check raised", traceback.format_exc())]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for r in ops if r["error"] or r["problems"])
    correct = not any(r["problems"] for r in ops)
    for i, r in enumerate(ops):
        status = "ERROR" if r["error"] else ("FAIL" if r["problems"] else "ok")
        print(f"operation {i}: {status}, {r['wall_s']:.3f} s wall, {r['cpu_s']:.3f} s CPU")
        if r["error"]:
            print(r["error"])
        for check, msg in r["problems"]:
            print(f"  {check}: {msg}")

    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    e2e = {
        "run_s": statistics.median(r["wall_s"] for r in ops),
        "cpu_s": statistics.median(r["cpu_s"] for r in ops),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_times),
    }
    env = environment()
    print("environment: " + json.dumps(env))
    print(f"set-up runs (s): {', '.join(f'{t:.3f}' for t in setup_times)}")
    print(f"{'traced' if args.trace else 'untraced'}: run_s {e2e['run_s']:.4f} s, "
          f"cpu_s {e2e['cpu_s']:.4f} s, peak_rss_mb {peak_rss_mb:.1f} MB "
          f"over {len(ops)} operations")
    if tracer is not None:
        metrics = per_layer_metrics(tracer, len(ops), bench["per_layer"])
        for op, r in enumerate(ops):
            self_sum = sum(t["self_s"] for t in tracer.layer_totals(op).values())
            print(f"operation {op}: wrapped layers' self time {self_sum:.4f} s + span "
                  f"bookkeeping {tracer.bookkeeping_s(op):.4f} s of {r['wall_s']:.4f} s wall")
    else:
        metrics = {name: {"value": v, "unit": units[name]} for name, v in e2e.items()}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "setup_runs_s": setup_times,
              "operations": [{k: r[k] for k in ("wall_s", "cpu_s", "error", "problems")}
                             for r in ops],
              "end_to_end": e2e, "metrics": metrics}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args, bench: dict) -> int:
    """Every workload in a fresh process of its own; a table of the results."""
    status = 0
    for w in bench["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{w['name']}: exited with {proc.returncode}")
            status = 1
            continue
        res = json.loads(lines[-1])
        status |= res["failed"] > 0 or not res["correct"]
        print(f"{w['name']}: correct {res['correct']}, "
              f"{res['failed']} of {res['attempted']} operations failed")
        for name, m in res["metrics"].items():
            print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    try:
        import_program()
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.setup:
        with contextlib.redirect_stdout(sys.stderr):
            WORKLOADS[args.workload].setup(Path(args.setup), args.seed)
        return 0
    if args.workload == "all":
        return run_all(args, bench)
    return run_workload(args, bench)


if __name__ == "__main__":
    raise SystemExit(main())
