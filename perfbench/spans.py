"""In-memory spans around the program's public functions, for the traced run.

The benchmark measures each layer from outside: ``Tracer.install`` replaces a
function at the module attribute through which its caller looks it up (for
example ``twinbeam.pipeline.mi_delay_scan``) with a wrapper that records a
span.  Nothing in the program changes.

A span holds its layer name, the operation it belongs to, its parent span,
its start and end, and ``outer``: the wall time the wrapper took in all,
including its own bookkeeping (repeat keys, breakpoint share).  A layer's self
time is its span's duration minus the ``outer`` time of its child spans, so
bookkeeping is charged to no layer; it shows only as the difference between
the traced and the untraced ``run_s``.
"""

from __future__ import annotations

import hashlib
import inspect
import os
import time
from collections import defaultdict

import numpy as np


def _bound_key(fn):
    """Repeat key of a call: its arguments, bound by name."""
    sig = inspect.signature(fn)

    def key(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return repr(sorted(bound.arguments.items()))

    return key


def _samples_key(trace, *args, **kwargs):
    """Repeat key of a band-pass call: the exact samples and the band."""
    digest = hashlib.blake2b(trace.samples.tobytes(), digest_size=16).hexdigest()
    return (digest, trace.guard, args, tuple(sorted(kwargs.items())))


def breakpoint_share(samples: np.ndarray, n_bins: int) -> float:
    """Share of samples at which the equal-width bin index changes.

    Bins span the record's own [min, max], as the estimator's do; this is the
    input property that decides whether the scan kernel walks or rebuilds.
    """
    lo, hi = float(samples.min()), float(samples.max())
    idx = np.minimum(((samples - lo) * (n_bins / (hi - lo))).astype(np.int64), n_bins - 1)
    return float(np.count_nonzero(idx[1:] != idx[:-1]) / (len(idx) - 1))


def _scan_extra(result, pair, *args, **kwargs):
    n_bins = kwargs.get("n_bins", args[2] if len(args) > 2 else 100)
    return {"shifts": len(result.mi), "breakpoint_share": breakpoint_share(pair.b.valid(), n_bins)}


def _load_extra(result, path, *args, **kwargs):
    return {"bytes": os.path.getsize(path)}


# (module, attribute, layer, repeat key, extra record) for every wrapped call
# site.  A layer's name is its module in the program and its function.
def targets():
    import twinbeam.cli as cli
    import twinbeam.io as tbio
    import twinbeam.mi as mi
    import twinbeam.pipeline as pipeline
    from twinbeam import source

    gen = {name: _bound_key(getattr(source, name))
           for name in ("gen_twin", "gen_split_thermal", "gen_split_coherent")}
    return [
        (pipeline, "run_pipeline", "pipeline.run_pipeline", None, None),
        (pipeline, "gen_twin", "source.gen_twin", gen["gen_twin"], None),
        (pipeline, "gen_split_thermal", "source.gen_split_thermal",
         gen["gen_split_thermal"], None),
        (pipeline, "gen_split_coherent", "source.gen_split_coherent",
         gen["gen_split_coherent"], None),
        (pipeline, "apply_channel", "channel.apply_channel", None, None),
        (pipeline, "bandpass", "dsp.bandpass", _samples_key, None),
        (pipeline, "difference_spectrum", "dsp.difference_spectrum", None, None),
        (pipeline, "mi_delay_scan", "mi.mi_delay_scan", None, _scan_extra),
        (pipeline, "fit_gaussian", "model.fit_gaussian", None, None),
        (pipeline, "fit_channel", "model.fit_channel", None, None),
        (pipeline, "matched_transmission", "design.matched_transmission", None, None),
        (tbio, "save_curve", "io.save_curve", None, None),        # pipeline, via tbio
        (tbio, "load_trace", "io.load_trace", None, _load_extra),  # the benchmark's loads
        (cli, "load_trace", "io.load_trace", None, _load_extra),
        (cli, "save_curve", "io.save_curve", None, None),
        (cli, "bandpass", "dsp.bandpass", _samples_key, None),
        (cli, "mi_delay_scan", "mi.mi_delay_scan", None, _scan_extra),
        (mi, "histogram2d", "mi.histogram2d", None, None),
        (mi, "mi_from_hist", "mi.mi_from_hist", None, None),
    ]


class Tracer:
    """Records one span per wrapped call, grouped by operation."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._seen: dict[str, set] = defaultdict(set)
        self.op = -1

    def begin_operation(self) -> None:
        """Start a new operation: repeat keys are counted within one."""
        self.op += 1
        self._seen.clear()

    def wrap(self, layer, fn, key=None, extra=None):
        def wrapper(*args, **kwargs):
            t_pre = time.perf_counter()
            rec = {"name": layer, "op": self.op,
                   "parent": self._stack[-1] if self._stack else None}
            if key is not None:
                k = key(*args, **kwargs)
                rec["repeat"] = k in self._seen[layer]
                self._seen[layer].add(k)
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
            if extra is not None:
                rec.update(extra(result, *args, **kwargs))
            rec.update(start=start, end=end, outer=time.perf_counter() - t_pre)
            return result

        return wrapper

    def install(self) -> None:
        for module, attr, layer, key, extra in targets():
            setattr(module, attr, self.wrap(layer, getattr(module, attr), key, extra))

    def bookkeeping_s(self, op: int) -> float:
        """Wall time the wrappers of one operation spent outside the wrapped calls."""
        return sum(s["outer"] - (s["end"] - s["start"]) for s in self.spans if s["op"] == op)

    def layer_totals(self, op: int) -> dict[str, dict]:
        """Per layer, over one operation: calls, repeats, self time, extras."""
        child_outer = defaultdict(float)
        for s in self.spans:
            if s["op"] == op and s["parent"] is not None:
                child_outer[s["parent"]] += s["outer"]
        out: dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            if s["op"] != op:
                continue
            t = out.setdefault(s["name"], defaultdict(float))
            t["calls"] += 1
            t["repeat_calls"] += bool(s.get("repeat"))
            t["span_s"] += s["end"] - s["start"]
            t["self_s"] += s["end"] - s["start"] - child_outer[i]
            for field in ("shifts", "bytes"):
                t[field] += s.get(field, 0)
            if "breakpoint_share" in s:
                t["breakpoint_share_sum"] += s["breakpoint_share"]
        return out
