"""Spans at the library's module boundaries, recorded from outside.

`Tracer.install()` replaces each public function named in WRAPPED with a
wrapper that records a span (name, start, end, parent) and, for some
names, a count.  Every module that imported the function under the same
object gets the wrapper too, so `regsob.minimize.assemble` and
`regsob.expansion.seminorm` are traced like `regsob.energy.assemble`.
Spans stay in memory until the run ends.  A name that no longer exists is
listed in `missing`, and its metrics read 0.

Spans started in a worker thread with no open span of their own take the
main thread's open span as parent, so Monte Carlo batches that evaluate
theta count against `verify_upper_bound`.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from collections import defaultdict

# (span name, module, attribute); "Class.method" wraps a method
WRAPPED = (
    ("kernel.kernel_values", "regsob.kernel", "kernel_values"),
    ("kernel.build_kernel_table", "regsob.kernel", "build_kernel_table"),
    ("energy.assemble", "regsob.energy", "assemble"),
    ("energy.build", "regsob.energy", "AssembledForm.__init__"),
    ("energy.energy", "regsob.energy", "AssembledForm.energy"),
    ("energy.grad", "regsob.energy", "AssembledForm.grad"),
    ("energy.bilinear", "regsob.energy", "AssembledForm.bilinear"),
    ("energy.lp_norm", "regsob.energy", "lp_norm"),
    ("energy.seminorm", "regsob.energy", "seminorm"),
    ("energy.weighted_seminorm", "regsob.energy", "weighted_seminorm"),
    ("energy.el_residual", "regsob.energy", "el_residual"),
    ("rearrange.rearrange_sharp", "regsob.rearrange", "rearrange_sharp"),
    ("minimize.solve_halfspace", "regsob.minimize", "solve_halfspace"),
    ("gamma0.estimate_gamma0", "regsob.gamma0", "estimate_gamma0"),
    ("gamma0.tail_bound", "regsob.gamma0", "tail_bound"),
    ("expansion.verify_upper_bound", "regsob.expansion", "verify_upper_bound"),
    (
        "expansion.cutoff_energy_deficit",
        "regsob.expansion",
        "cutoff_energy_deficit",
    ),
    ("expansion.curvature_term", "regsob.expansion", "curvature_term"),
    ("field.eval_u", "regsob.field", "eval_u"),
    ("field.resample", "regsob.field", "resample"),
    ("field.dilate_exact", "regsob.field", "dilate_exact"),
    ("io_container.write", "regsob.io_container", "write_container"),
    ("io_container.read", "regsob.io_container", "read_container"),
    ("cli.main", "regsob.cli", "main"),
)


def _mc_samples(args, kw, result):
    lams = args[3] if len(args) > 3 else kw["lam_schedule"]
    cfg = args[4] if len(args) > 4 else kw.get("mc_config")
    return len(lams) * cfg.batches * cfg.samples_per_batch


def _file_bytes(args, kw, result):
    return os.path.getsize(args[0] if args else kw["path"])


# per-span counts taken from the call: (arguments, keywords, result) -> number;
# grid nodes for the operator build and grad, so times can be split by grid
COUNTERS = {
    "kernel.kernel_values": lambda a, k, r: r.size,
    "energy.build": lambda a, k, r: a[1].r_nodes.size * a[1].z_nodes.size,
    "energy.grad": lambda a, k, r: a[1].size,
    "expansion.verify_upper_bound": _mc_samples,
    "io_container.write": _file_bytes,
    "io_container.read": _file_bytes,
}


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    covered by the union of its children's intervals.

    `spans` is a list of (name, start, end, parent index or -1)."""
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, t0, t1, _) in enumerate(spans):
        ivs = sorted(
            (max(spans[c][1], t0), min(spans[c][2], t1)) for c in children[i]
        )
        covered, lo, hi = 0.0, None, None
        for a, b in ivs:
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append((t1 - t0) - covered)
    return out


class Tracer:
    def __init__(self, wrapped=WRAPPED):
        self.wrapped = wrapped
        self.spans = []  # [name, start, end, parent index, count]
        self.missing = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []
        self._patches = []  # (owner, attribute, original)

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def wrap(self, name, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kw):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = -1
            rec = [name, time.perf_counter(), None, parent, None]
            with tracer._lock:
                idx = len(tracer.spans)
                tracer.spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kw)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                try:
                    rec[4] = counter(args, kw, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    pass  # a changed signature leaves the count empty
            return result

        return traced

    def install(self):
        for name, modname, attr in self.wrapped:
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                self.missing.append(name)
                continue
            cls_name, _, meth = attr.rpartition(".")
            owner = getattr(mod, cls_name, None) if cls_name else mod
            fn = getattr(owner, meth, None) if owner is not None else None
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, fn, COUNTERS.get(name))
            if cls_name:
                self._patch(owner, meth, fn, wrapper)
                continue
            # every regsob module (and the package) holding the same object
            for mname, m in list(sys.modules.items()):
                if m is None or not (mname == "regsob" or mname.startswith("regsob.")):
                    continue
                for a, v in list(vars(m).items()):
                    if v is fn:
                        self._patch(m, a, fn, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def span_records(self):
        """Spans as JSON-ready dicts, with self time."""
        flat = [(s[0], s[1], s[2], s[3]) for s in self.spans]
        selfs = self_times(flat)
        return [
            {
                "name": s[0],
                "start": s[1],
                "end": s[2],
                "parent": s[3],
                "self": st,
                "count": s[4],
            }
            for s, st in zip(self.spans, selfs)
        ]

    def layer_metrics(self):
        """Per span name: calls, total_s, self_s and the summed count."""
        agg = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0})
        for rec in self.span_records():
            a = agg[rec["name"]]
            a["calls"] += 1
            a["total_s"] += rec["end"] - rec["start"]
            a["self_s"] += rec["self"]
            a["count"] += rec["count"] or 0
        return dict(agg)
