"""Benchmark for the indexcode package; see README.md in this directory.

    python3 bench/run.py --workload certify|campaign|oneshot --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The package is imported from ./src, never
from an installed copy.  One process, one client, workers=1 throughout.
The run repeats passes of the workload's fixed job list until S seconds
have gone, checks every answer, and prints one JSON object as the last line
of standard output.  --trace 0 gives the end-to-end metrics; --trace 1
gives the per-layer metrics from traced passes, run after untraced ones so
that the tracing overhead can be reported, and checks that the work counts
repeat exactly.

The host's speed drifts by tens of percent, over milliseconds to minutes,
so the end-to-end timings are taken against a fixed reference block of
interpreter and small-array work that uses nothing from the package.  A
timer signal times the block every REF_PERIOD_S all through the run, and
each job's time, less the handler's, is scaled to the host speed at which
the block takes REF_S.
"""

from __future__ import annotations

import argparse
import bisect
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"          # traces and scratch files
SETUP_SAMPLES = 8            # fresh interpreters timed for setup_s
REF_S = 0.001                # nominal time of one reference block
REF_PERIOD_S = 0.05          # wall time between timings of the block
REF_WINDOW_S = 0.25          # timings this far either side of a job count
SETUP_TIMEOUT_S = 120
RATES = ["sim.random_trials_per_s", "sim.exhaustive_cases_per_s"]


def reference():
    """A fixed mix of interpreter and small-array work; its time tracks the
    host's speed.  It calls nothing from the package, so a change there
    does not move it."""
    s = 0
    for i in range(7_500):
        s += i * i % 7
    a = np.arange(30)
    for _ in range(110):
        a = (a * 3 + 1) % 7
    return s + int(a.sum())


class HostSpeed:
    """While entered, a SIGALRM handler times `reference()` every
    REF_PERIOD_S of wall time, so the host's speed is sampled evenly in
    time all through every job, not only around it.

    `busy(t0, t1)` is the wall time from t0 to t1 less the handler's time
    in it.  `scale(t0, t1)` is the mean of REF_S / (block time) over the
    timings from REF_WINDOW_S before t0 to REF_WINDOW_S after t1: a mean
    speed over evenly spaced instants, so busy time times the scale is the
    time the work would take at the nominal speed.  The window gives a
    millisecond query about ten timings rather than one or two.
    """

    def __init__(self):
        reference()                   # warm-up
        self.starts, self.ends = [], []
        self._inside = False

    def _tick(self, signum, frame):
        if self._inside:              # a tick that fell inside the last one
            return
        self._inside = True
        t0 = time.perf_counter()
        reference()
        self.ends.append(time.perf_counter())
        self.starts.append(t0)
        self._inside = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def busy(self, t0, t1):
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        return t1 - t0 - sum(self.ends[k] - self.starts[k]
                             for k in range(i, j))

    def scale(self, t0, t1):
        i = bisect.bisect_left(self.starts, t0 - REF_WINDOW_S)
        j = bisect.bisect_right(self.starts, t1 + REF_WINDOW_S)
        i = min(i, j - 1)             # at least the last timing before t1
        return statistics.fmean(REF_S / (self.ends[k] - self.starts[k])
                                for k in range(i, j))


def run_pass(jobs, tracer=None, host=None):
    """Run every job once; (job index, seconds, units, error, (start, end),
    variant) per job.  With `host` the seconds leave out its handler's."""
    samples = []
    for idx, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = idx
        t0 = time.perf_counter()
        try:
            res = job.run()
        except Exception:  # a failed op is counted, the run goes on
            t1 = time.perf_counter()
            samples.append((idx, t1 - t0, 0, traceback.format_exc(),
                            (t0, t1), None))
            continue
        t1 = time.perf_counter()
        dt = host.busy(t0, t1) if host is not None else t1 - t0
        if tracer is not None:
            tracer.paused = True
        variant = None
        try:
            err = job.check(res)
            units = job.units(res) if err is None else 0
            variant = job.variant(res)
        except Exception:
            err, units = traceback.format_exc(), 0
        finally:
            if tracer is not None:
                tracer.paused = False
        samples.append((idx, dt, units, err, (t0, t1), variant))
    for idx, _, _, err, _, _ in samples:
        if err is not None:
            print(f"FAILED {jobs[idx].name}: {err}", file=sys.stderr)
    return samples


def run_for(jobs, seconds, tracer=None, host=None, after_pass=None):
    """Whole passes until they have taken `seconds` (at least one pass),
    `host`'s timings included.  `after_pass(share)` runs between passes,
    outside the measured time, with the share of `seconds` gone so far."""
    passes = []
    busy = 0.0
    while not passes or busy < seconds:
        if tracer is not None:
            tracer.begin_pass()
        t0 = time.perf_counter()
        passes.append(run_pass(jobs, tracer, host))
        busy += time.perf_counter() - t0
        if after_pass is not None:
            after_pass(min(1.0, busy / seconds) if seconds else 1.0)
    return passes


def setup_sampler(workload, seed, times, host):
    """An `after_pass` that times fresh interpreters which import, set up
    and exit, spread over the run: the host's speed drifts over tens of
    seconds, so samples taken back to back would all see one moment of it.
    Each is scaled by `host`'s timings while it ran.  SETUP_SAMPLES
    (seconds, scale) pairs are in `times` once the run ends."""
    def sample(share):
        while len(times) < round(SETUP_SAMPLES * share):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--setup-only"],
                cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=SETUP_TIMEOUT_S)
            t1 = time.perf_counter()
            times.append((t1 - t0, host.scale(t0, t1)))
            if proc.returncode != 0:
                raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    return sample


def job_time(group, value):
    """Mean over a job's variants of each variant's median `value`: every
    variant weighs the same however many calls it got, and the mean over
    variants of unequal cost has the noise of all of them, not just of
    those in the middle."""
    by_variant = {}
    for s in group:
        by_variant.setdefault(s[5], []).append(value(s))
    return statistics.fmean(statistics.median(v)
                            for v in by_variant.values())


def end_to_end(jobs, passes, setup_times, host):
    """Each job's median over the passes is its latency; host noise drifts
    over tens of seconds, and medians of whole jobs resist it best.  Times
    are wall times scaled to the reference speed; the `#` lines also give
    the plain wall times."""
    samples = [s for p in passes for s in p]
    by_name = {}
    for s in samples:
        by_name.setdefault(jobs[s[0]].name, []).append(s)
    median_s = [job_time(group, lambda s: s[1] * host.scale(*s[4]))
                for group in by_name.values()]
    wall_s = [job_time(group, lambda s: s[1])
              for group in by_name.values()]
    units = [statistics.median(s[2] for s in group)
             for group in by_name.values()]
    latency_ms = [1e3 * t / u for t, u in zip(median_s, units) if u]
    points = latency_ms if len(latency_ms) > 1 else (latency_ms or [0.0]) * 2
    pct = statistics.quantiles(points, n=10, method="inclusive")
    pass_s = sum(median_s)
    setup_s = statistics.median(t * scale for t, scale in setup_times)
    setup_wall = statistics.median(t for t, _ in setup_times)
    ref_ms = 1e3 * statistics.median(
        e - s for s, e in zip(host.starts, host.ends))
    metrics = {
        "setup_s": (setup_s, "s", f"median of {len(setup_times)} fresh "
                    f"interpreters; {setup_wall:.4g} s wall"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB",
            "ru_maxrss of this process"),
        "pass_s": (pass_s, "s", f"sum of {len(by_name)} job medians over "
                   f"{len(passes)} passes; {sum(wall_s):.4g} s wall, "
                   f"reference block {ref_ms:.4g} ms over "
                   f"{len(host.starts)} timings"),
        "ops_per_s": (sum(units) / pass_s, "1/s",
                      f"{sum(units):g} ops per pass"),
        "op_p50_ms": (pct[4], "ms", f"over {len(latency_ms)} job medians"),
        "op_p90_ms": (pct[8], "ms", f"over {len(latency_ms)} job medians"),
    }
    return samples, metrics


def traced(jobs, fresh_jobs, seconds, workload, seed):
    """Untraced passes for a third of the time, then two blocks of traced
    passes, each on a fresh set-up (`fresh_jobs()`), for a third each.

    Pass k of the second block sees the same inputs as pass k of the first,
    as a second run with the same seed would, so their work counts must be
    equal.
    """
    import tracing

    plain = run_for(jobs, seconds / 3)
    metrics = {}
    for rate in RATES:
        mine = [s for p in plain for s in p
                if jobs[s[0]].rate == rate and s[3] is None]
        busy = sum(s[1] for s in mine)
        metrics[rate] = (sum(s[2] for s in mine) / busy if busy else 0.0,
                         "1/s", f"untraced passes, {len(mine)} calls")
    tracer = tracing.Tracer()
    blocks = []
    for _ in range(2):
        jobs = fresh_jobs()
        tracer.install()
        try:
            blocks.append(run_for(jobs, seconds / 3, tracer))
        finally:
            tracer.uninstall()
    passes = blocks[0] + blocks[1]
    overhead = (statistics.median(sum(s[1] for s in p) for p in passes)
                - statistics.median(sum(s[1] for s in p) for p in plain))
    metrics["trace.overhead_s"] = (
        overhead, "s", f"median pass time, {len(passes)} traced minus "
        f"{len(plain)} untraced passes")
    for name, (value, unit) in tracer.layer_metrics().items():
        metrics[name] = (value, unit, "")
    tracer.save(OUT / f"trace-{workload}-seed{seed}.npz",
                [job.name for job in jobs])
    first = len(blocks[0])
    repeat_error = None
    for k in range(min(first, len(blocks[1]))):
        a, b = tracer.passes[k].exact(), tracer.passes[first + k].exact()
        diff = {name: (a[name], b[name]) for name in a if a[name] != b[name]}
        if diff:
            repeat_error = f"work counts of pass {k} differ on a fresh " \
                f"set-up with the same seed: {diff}"
            break
    return [s for p in plain + passes for s in p], metrics, repeat_error


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("certify", "campaign", "oneshot"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up and exit (times setup_s in a fresh process)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must not be negative")

    if not (SRC / "indexcode" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import indexcode
    if Path(indexcode.__file__).resolve().parent != SRC / "indexcode":
        print(f"error: imported {indexcode.__file__}, not the source tree",
              file=sys.stderr)
        return 2

    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        def fresh_jobs():
            # traced runs at seed 0 also check the work against the
            # ROADMAP baseline
            return workloads.WORKLOADS[args.workload](
                args.seed, workdir,
                baseline=bool(args.trace) and args.seed == 0).jobs

        jobs = fresh_jobs()
        if args.setup_only:
            return 0
        if args.trace:
            samples, metrics, repeat_error = traced(
                jobs, fresh_jobs, args.seconds, args.workload, args.seed)
        else:
            setup_times = []
            with HostSpeed() as host:
                passes = run_for(jobs, args.seconds, host=host,
                                 after_pass=setup_sampler(
                                     args.workload, args.seed, setup_times,
                                     host))
            samples, metrics = end_to_end(jobs, passes, setup_times, host)
            repeat_error = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if repeat_error:
        print(repeat_error, file=sys.stderr)
    failed = sum(s[3] is not None for s in samples)
    for name, (value, unit, note) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}" + (f"  ({note})" if note
                                                   else ""))
    print(json.dumps({
        "correct": failed == 0 and repeat_error is None,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
