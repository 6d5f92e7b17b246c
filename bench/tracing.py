"""Timing wrappers installed around the package's public functions.

Nothing here edits the package source.  `Tracer.install` replaces each
listed function at its defining module and at every module of the package
that bound the same object with `from .x import y`; class methods are
replaced on the class.  `uninstall` puts every original back.  Untraced runs
never call `install`.

Each call records a span (name, start, end, parent span, job id) in flat
arrays kept in memory; `save` writes them out once the run has ended.  Self
time is a span's duration minus the durations of its wrapped child spans.
The elementwise `Field` ops (`add_arr`, `scale`, ...) stay unwrapped on
purpose: a single `min_rank` makes about a million of them, and their cost
lands in the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

PACKAGE = "indexcode"

# module -> functions whose spans are recorded; "Class.method" names are
# wrapped on the class
LAYERS = {
    "fields": ["rref", "rank", "kernel_basis", "solve_affine", "span_matrix",
               "Field.matmul", "Field.matvec", "make_field"],
    "instances": ["iter_J", "iter_I", "generalized_independence_number"],
    "search": ["min_length_search", "build_hits"],
    "codes": ["verify", "min_rank", "search_min_length", "construct_concat",
              "construct_random"],
    "bounds": ["nq_kd", "bound_report"],
    "decoding": ["Decoder.__init__", "Decoder.decode", "decode", "make_view",
                 "find_combiner", "min_weight_coset_solution"],
    "static_codes": ["static_bounds", "find_parity_check", "verify_rho_delta",
                     "gv_greedy"],
    "sim": ["trial_campaign", "simulate_once"],
    "cli": ["main", "build_parser"],
}

SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]

# work counters read off the return values at the layer boundary
COUNTERS = ["search.nodes", "search.refute_nodes", "codes.verify.cost",
            "codes.min_rank.nodes", "bounds.nq_kd.nodes",
            "decoding.decode.cost", "sim.trials", "sim.receiver_failures"]


def _count_search(add, res):
    add("search.nodes", res.nodes)
    add("search.refute_nodes", sum(res.refuted.values()))


def _count_campaign(add, stats):
    add("sim.trials", stats.trials)
    add("sim.receiver_failures", sum(stats.failures))


RESULT_HOOKS = {
    "search.min_length_search": _count_search,
    "codes.verify": lambda add, rep: add("codes.verify.cost", rep.cost),
    "codes.min_rank": lambda add, w: add("codes.min_rank.nodes", w.nodes),
    "bounds.nq_kd": lambda add, e: add("bounds.nq_kd.nodes", e.nodes),
    "decoding.decode": lambda add, r: add("decoding.decode.cost", r.cost),
    "sim.trial_campaign": _count_campaign,
}


class PassStats:
    """Per-span-name totals for one pass of a workload."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.spans = 0

    def exact(self):
        """The counts that must repeat exactly for the same inputs."""
        out = {f"{name}.calls": self.calls[name] for name in SPAN_NAMES}
        out.update({c: self.counters[c] for c in COUNTERS})
        return out


class Tracer:
    def __init__(self):
        self.job = 0
        self.paused = False           # set while the benchmark checks answers
        self.passes = []
        self._stack = []              # [span index, name, start, child time]
        self._name = array("H")
        self._job = array("I")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._patches = []

    # -- recording -------------------------------------------------------

    def begin_pass(self):
        self.passes.append(PassStats())

    def _enter(self, nid):
        idx = len(self._start)
        self._name.append(nid)
        self._job.append(self.job)
        self._parent.append(self._stack[-1][0] if self._stack else -1)
        self._end.append(0.0)
        frame = [idx, nid, 0.0, 0.0]
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        self._start.append(frame[2])
        return frame

    def _exit(self, frame):
        t1 = time.perf_counter()
        self._stack.pop()
        idx, nid, t0, child = frame
        self._end[idx] = t1
        dur = t1 - t0
        if self._stack:
            self._stack[-1][3] += dur
        stats = self.passes[-1]
        name = SPAN_NAMES[nid]
        stats.self_s[name] += dur - child
        stats.incl_s[name] += dur
        stats.spans += 1

    def _add(self, counter, value):
        self.passes[-1].counters[counter] += int(value)

    def _wrap(self, name, fn):
        nid = SPAN_NAMES.index(name)
        hook = RESULT_HOOKS.get(name)

        if inspect.isgeneratorfunction(fn):
            # one span per resume, so only the time spent inside next()
            # is charged to the generator
            def traced(*args, **kwargs):
                if self.paused:
                    return fn(*args, **kwargs)
                self.passes[-1].calls[name] += 1
                return self._resumes(nid, fn(*args, **kwargs))
        else:
            def traced(*args, **kwargs):
                if self.paused:
                    return fn(*args, **kwargs)
                self.passes[-1].calls[name] += 1
                frame = self._enter(nid)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self._exit(frame)
                if hook is not None:
                    hook(self._add, out)
                return out
        return functools.update_wrapper(traced, fn)

    def _resumes(self, nid, gen):
        while True:
            frame = self._enter(nid)
            try:
                value = next(gen)
            except StopIteration:
                return
            finally:
                self._exit(frame)
            yield value

    # -- installation ----------------------------------------------------

    def install(self):
        mods = [m for key, m in list(sys.modules.items())
                if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for mod_name, fns in LAYERS.items():
            mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                if "." in fn_name:
                    cls_name, meth = fn_name.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    self._patch(cls, meth, orig, self._wrap(name, orig))
                    continue
                orig = getattr(mod, fn_name)
                wrapped = self._wrap(name, orig)
                for m in mods:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._patch(m, attr, orig, wrapped)

    def _patch(self, owner, attr, orig, wrapped):
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def layer_metrics(self):
        """Per-layer metrics: counts from the first traced pass (they repeat
        exactly), times as medians over the traced passes."""
        first = self.passes[0]
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (first.calls[name], "count")
            out[f"{name}.self_s"] = (
                statistics.median(p.self_s[name] for p in self.passes), "s")
        c = first.counters
        nodes, refute = c["search.nodes"], c["search.refute_nodes"]
        builds = first.calls["decoding.Decoder.__init__"]
        rates = [p.counters["search.nodes"] / busy for p in self.passes
                 if (busy := p.incl_s["search.min_length_search"])]
        out.update({
            "search.nodes": (nodes, "count"),
            "search.refute_nodes": (refute, "count"),
            "search.solve_nodes": (nodes - refute, "count"),
            "search.solve_share": ((nodes - refute) / nodes if nodes else 0.0,
                                   "ratio"),
            "search.nodes_per_s": (statistics.median(rates) if rates
                                   else 0.0, "1/s"),
            "codes.verify.cost": (c["codes.verify.cost"], "count"),
            "codes.min_rank.nodes": (c["codes.min_rank.nodes"], "count"),
            "bounds.nq_kd.nodes": (c["bounds.nq_kd.nodes"], "count"),
            "decoding.decode.cost": (c["decoding.decode.cost"], "count"),
            "decoding.lookups_per_build": (
                first.calls["decoding.Decoder.decode"] / builds
                if builds else 0.0, "ratio"),
            "sim.trials": (c["sim.trials"], "count"),
            "sim.receiver_failures": (c["sim.receiver_failures"], "count"),
            "trace.spans": (first.spans, "count"),
        })
        return out

    def save(self, path, job_names):
        n = len(self._start)
        np.savez(path,
                 span_names=np.array(SPAN_NAMES),
                 job_names=np.array(job_names),
                 name=np.frombuffer(self._name, dtype=np.uint16, count=n),
                 job=np.frombuffer(self._job, dtype=np.uint32, count=n),
                 parent=np.frombuffer(self._parent, dtype=np.int32, count=n),
                 start=np.frombuffer(self._start, dtype=np.float64, count=n),
                 end=np.frombuffer(self._end, dtype=np.float64, count=n))
