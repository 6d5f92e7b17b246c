"""The benchmark's three workloads.

Each workload builds its inputs from the seed in its constructor (the
set-up) and exposes `jobs`: a fixed list of `Job`s that make up one pass.
A job may appear more than once; its samples are pooled by name.  Every
pass runs the same jobs on the same inputs (certify varies only the
labels), so passes are interchangeable samples.  Library calls go through
module attributes (`codes.verify`, not a name imported here) at call time,
so the traced run sees them.

* certify  - exact optimum searches and refutations (the `search` DFS).
* campaign - decoding campaigns over precomputed leader tables.
* oneshot  - a stream of one-off command-line queries on small instances.

README.md in this directory says why each workload was chosen.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import indexcode.bounds as bounds
import indexcode.cli as cli
import indexcode.codes as codes
import indexcode.decoding as decoding
import indexcode.fields as fields
import indexcode.instances as instances
import indexcode.sim as sim
import indexcode.static_codes as static_codes
from indexcode.errors import TooManyErrors

PENTAGON_L9 = np.array([
    [1, 1, 1, 1, 1, 0, 0, 0, 0],
    [0, 1, 0, 1, 1, 0, 1, 1, 0],
    [1, 1, 0, 0, 0, 1, 1, 1, 0],
    [0, 1, 1, 0, 0, 1, 0, 1, 1],
    [1, 0, 1, 0, 1, 0, 0, 1, 1]], dtype=np.int64)


def pentagon():
    return instances.odd_cycle_instance(2)


def ring5():
    return instances.make_instance(
        5, range(5),
        [{(i + 1) % 5, (i + 2) % 5, (i + 3) % 5} for i in range(5)])


def c5bar():
    return instances.odd_cycle_complement_instance(2)


def c7():
    return instances.odd_cycle_instance(3)


def relabel(inst, perm):
    """The same instance with message j renamed perm[j]."""
    return instances.make_instance(
        inst.n, [perm[f] for f in inst.f],
        [{perm[j] for j in X} for X in inst.X])


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    # error message for a wrong result, None when the result is right
    check: Callable[[object], str | None]
    # user-visible operations one run completes (broadcasts for campaigns)
    units: Callable[[object], int] = lambda res: 1
    # per-layer rate this job feeds from the traced run's untraced passes
    rate: str | None = None
    # the inputs a call ran on, for a job whose inputs change between calls
    variant: Callable[[object], object] = lambda res: None


def _first_result_check(check_once, same):
    """Run the full check on the first result, then only compare later
    results (passes repeat the same inputs) with that one."""
    state = {}

    def check(res):
        if "first" not in state:
            state["first"] = res
            state["verdict"] = check_once(res)
        elif not same(state["first"], res):
            return "result differs from the first pass"
        return state["verdict"]
    return check


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

RELABELINGS = 3           # calls per pass of each search job

# Values that do not depend on the relabeling.
CERTIFY_PINS = {
    "pentagon": (9, {5, 6, 7, 8}),
    "ring5": (8, {5, 6, 7}),
}

# The work the ROADMAP baseline records, at the natural labels (seed 0):
# search nodes and refuted lengths with the nodes spent on each, nq_kd
# nodes, static_bounds nodes for N_3[3,3] and N_3[4,3], min_rank nodes.
# A traced run at seed 0 fails when the work differs; a change that alters
# this work on purpose updates these numbers.
BASELINE = {
    "search_pentagon": (149_103, {5: 0, 6: 31, 7: 31, 8: 10_688}),
    "search_ring5": (26_693, {5: 0, 6: 31, 7: 31}),
    "nq_kd_2_4_5": 65_515,
    "static_bounds_6_3_1_3": (505, 165_262),
    "minrank_c5bar_gf7": 3_194,
}


def _baseline_error(job, got, baseline):
    """None when the work matches BASELINE[job] or when not checking."""
    if not baseline or got == BASELINE[job]:
        return None
    return f"work {got}, baseline {BASELINE[job]}"


class Certify:
    """search_min_length on a relabeled pentagon and ring5 (GF(2), delta=2),
    nq_kd(2, 4, 5) and static_bounds(6, 3, 1, 3).

    Search work depends on the labels: the pentagon takes 127k to 219k
    nodes.  One relabeling per run would make the run's time depend on the
    seed by about 10 %.  So the search jobs cycle through one permutation
    for each of the pentagon's 12 distinct relabelings, in an order and
    with representatives the seed picks; each pass makes RELABELINGS calls
    of each, so four passes cover all 12.  The job's latency is the mean
    over the relabelings (its `variant`s) of each one's median, so it
    hardly depends on the seed.  Seed 0 keeps the natural labels on every
    call; its work counters are the ones the ROADMAP baseline records,
    checked against BASELINE when `baseline` is set.
    """

    def __init__(self, seed, workdir, baseline=False):
        self.perms = self._relabelings(seed)
        F2 = fields.make_field(2)
        self.jobs = []
        for name, base in (("pentagon", pentagon()), ("ring5", ring5())):
            # the search ceiling the command line infers, N_q[kappa, 2delta+1];
            # kappa does not depend on the labels
            kappa = codes.min_rank(base, F2).kappa
            n_max = bounds.nq_kd(2, kappa, 5, workers=1).N
            job = Job(f"search_{name}",
                      self._relabeled_search(base, F2, n_max),
                      functools.partial(self._check_search, F2, baseline,
                                        f"search_{name}",
                                        *CERTIFY_PINS[name]),
                      variant=lambda res: tuple(zip(res[0].f, res[0].X)))
            self.jobs += [job] * RELABELINGS
        self.jobs.append(Job(
            "nq_kd_2_4_5",
            lambda: bounds.nq_kd(2, 4, 5, workers=1),
            _first_result_check(
                functools.partial(self._check_nqkd, baseline),
                lambda a, b: (a.N, a.refuted) == (b.N, b.refuted)
                and np.array_equal(a.generator, b.generator))))
        self.jobs.append(Job(
            "static_bounds_6_3_1_3",
            lambda: static_codes.static_bounds(6, 3, 1, 3),
            _first_result_check(
                functools.partial(self._check_static, baseline),
                lambda a, b: _static_summary(a) == _static_summary(b))))

    @staticmethod
    def _relabelings(seed):
        if seed == 0:
            return [tuple(range(5))]
        perms = list(itertools.permutations(range(5)))
        first = {}
        for idx in np.random.default_rng(seed).permutation(len(perms)):
            inst = relabel(pentagon(), perms[idx])
            first.setdefault(frozenset(zip(inst.f, inst.X)), perms[idx])
        return list(first.values())

    def _relabeled_search(self, base, F2, n_max):
        calls = itertools.count()

        def run():
            perm = self.perms[next(calls) % len(self.perms)]
            inst = relabel(base, perm)
            return inst, codes.search_min_length(inst, F2, 2, n_max,
                                                 workers=1)
        return run

    @staticmethod
    def _check_search(F2, baseline, job, n_opt, refuted, res):
        inst, rep = res
        if rep.n_opt != n_opt or set(rep.refuted) != refuted \
                or not rep.certified:
            return (f"n_opt={rep.n_opt} refuted={sorted(rep.refuted)}, "
                    f"expected {n_opt} and {sorted(refuted)}")
        if rep.L.shape != (inst.n, n_opt):
            return f"matrix shape {rep.L.shape}"
        if not codes.verify(inst, F2, rep.L, 2, method="stream").ok:
            return "returned matrix fails the streaming verification"
        return _baseline_error(job, (rep.nodes, rep.refuted), baseline)

    @staticmethod
    def _check_nqkd(baseline, entry):
        if (entry.N, entry.provenance, set(entry.refuted)) != \
                (11, "search", set(range(5, 11))):
            return f"N={entry.N} ({entry.provenance}), expected 11 by search"
        F2 = fields.make_field(2)
        msgs = np.array(list(itertools.product(range(2), repeat=4))[1:])
        dist = np.count_nonzero(F2.matmul(msgs, entry.generator), axis=1)
        if entry.generator.shape != (4, 11) or dist.min() < 5:
            return "generator is not an [11, 4, >=5] code"
        return _baseline_error("nq_kd_2_4_5", entry.nodes, baseline)

    @staticmethod
    def _check_static(baseline, rep):
        got = _static_summary(rep)
        want = (4, "search", 6, 6, 7, None)
        if got != want:
            return f"static bounds {got}, expected {want}"
        return _baseline_error(
            "static_bounds_6_3_1_3",
            (rep.alpha_entry.nodes, rep.upper_entry.nodes), baseline)


def _static_summary(rep):
    return (rep.rho_star, rep.rho_star_provenance, rep.lower_alpha,
            rep.lower_singleton, rep.upper, rep.exact)


# ---------------------------------------------------------------------------
# campaign
# ---------------------------------------------------------------------------

RANDOM_TRIALS = 600      # trials per random-mode campaign call
SUBSAMPLE = 16           # leading trials re-decoded by the streaming path
EXHAUSTIVE_CASES = {"pentagon": 1472, "c7": 1024, "ring5_gf3": 2187}


class Campaign:
    """Random and exhaustive trial_campaign calls on four codes.  No
    baseline work is pinned for campaigns: their checks already fix the
    number of trials and cases."""

    def __init__(self, seed, workdir, baseline=False):
        F2, F3, F4 = (fields.make_field(q) for q in (2, 3, 4))
        pent = pentagon()
        if not codes.verify(pent, F2, PENTAGON_L9, 2).ok:
            raise RuntimeError("pentagon L9 does not verify at delta=2")
        built = {"pentagon": (pent, F2, PENTAGON_L9, 2)}
        for name, inst, field in (("c5bar_gf4", c5bar(), F4),
                                  ("ring5_gf3", ring5(), F3),
                                  ("c7", c7(), F2)):
            L, _, _ = codes.construct_concat(inst, field, 1)
            built[name] = (inst, field, L, 1)
        rng = np.random.default_rng(seed)
        self.jobs = []
        for name, forced in (("pentagon", None), ("c5bar_gf4", None),
                             ("ring5_gf3", None), ("c7", None),
                             ("pentagon", 3)):
            inst, field, L, delta = built[name]
            cseed = int(rng.integers(2**31))
            label = f"random_{name}" + ("_w3" if forced else "")
            call = (lambda a=(inst, field, L, delta, RANDOM_TRIALS, cseed),
                    w=forced: sim.trial_campaign(*a, forced_weight=w,
                                                 workers=1))
            self.jobs.append(Job(
                label, call,
                _first_result_check(
                    functools.partial(self._check_random, inst, field, L,
                                      delta, cseed, forced),
                    lambda a, b: a == b),
                units=lambda st: st.trials, rate="sim.random_trials_per_s"))
        for name in ("pentagon", "c7", "ring5_gf3"):
            inst, field, L, delta = built[name]
            call = (lambda a=(inst, field, L, delta, 1, 0): sim.trial_campaign(
                *a, exhaustive=True, workers=1))
            self.jobs.append(Job(
                f"exhaustive_{name}", call,
                functools.partial(self._check_exhaustive,
                                  EXHAUSTIVE_CASES[name]),
                units=lambda st: st.trials,
                rate="sim.exhaustive_cases_per_s"))

    @staticmethod
    def _check_exhaustive(cases, st):
        if st.trials != cases or st.successes != cases:
            return f"{st.successes}/{st.trials} cases decoded, not {cases}"
        return None

    @staticmethod
    def _check_random(inst, field, L, delta, seed, forced, st):
        if st.trials != RANDOM_TRIALS:
            return f"{st.trials} trials"
        if forced is None and st.successes != st.trials:
            return f"{st.successes}/{st.trials} trials decoded within radius"
        # re-decode the leading trials with the streaming decoder: within
        # the radius the independent elimination path must give the true
        # symbol; beyond it the streaming combiner path must reproduce the
        # table decoder's per-receiver failures exactly
        head = sim.trial_campaign(inst, field, L, delta, SUBSAMPLE, seed,
                                  forced_weight=forced, workers=1)
        recovery = "eliminate" if forced is None else "combiner"
        n, N = L.shape
        failures = [0] * inst.m
        successes = 0
        for t in range(SUBSAMPLE):
            rng = np.random.default_rng((seed, t))
            x = rng.integers(0, field.q, size=n)
            e = sim.draw_error(rng, field, N, delta, forced)
            ok = True
            for i in range(inst.m):
                view = decoding.transmit(inst, field, L, x, e, i)
                try:
                    x_hat = decoding.decode(inst, field, L, delta, view,
                                            recovery=recovery).x_hat
                except TooManyErrors:
                    x_hat = None
                if x_hat != int(x[inst.f[i]]):
                    failures[i] += 1
                    ok = False
            successes += ok
        if (head.successes, head.failures) != (successes, tuple(failures)):
            return (f"table decoder {head.successes} {head.failures}, "
                    f"streaming {successes} {tuple(failures)}")
        return None


# ---------------------------------------------------------------------------
# oneshot
# ---------------------------------------------------------------------------

# Each (n, q) shape gets the same number of instances, so the seed changes
# the side information but not the mix of sizes and fields.
SHAPES = [(n, q) for n in (3, 4, 5) for q in (2, 3, 4)]
PER_SHAPE = 4
ONESHOT_DELTA = 1
# min_rank tries q^|X_i| candidate rows per node: c5bar over GF(7) tries
# about 3194 * 49 = 156k.  Generated instances stay under 2.5k.  This cap
# and BOUNDS_NODE_CAP keep the generated minrank and bounds queries near
# the cost of the other per-instance queries, so the slow tail of the
# stream, and the set-up time spent on rejected draws, depend little on the
# seed.
MINRANK_ROW_CAP = 2_500
BRANCH_CAP = 16           # largest q^|X_i| a generated instance may have
RANDOM_ATTEMPT_CAP = 50   # samples construct_random may take in set-up
BOUNDS_NODE_CAP = 5_000   # search nodes bound_report may spend per length
DRAW_CAP = 200            # instance draws per slot before set-up gives up
SIM_TRIALS = 8


def _random_instance(rng, n, q):
    """Each receiver wants a random message and knows each other one with
    probability 1/2, redrawn until q^|X_i| <= BRANCH_CAP."""
    m = int(rng.integers(n, n + 3))
    f = [int(rng.integers(0, n)) for _ in range(m)]
    X = []
    for i in range(m):
        others = [v for v in range(n) if v != f[i]]
        keep = rng.random(len(others)) < 0.5
        while q ** int(keep.sum()) > BRANCH_CAP:
            keep = rng.random(len(others)) < 0.5
        X.append({v for v, k in zip(others, keep) if k})
    return instances.make_instance(n, f, X)


def _alpha_oracle(inst):
    """Largest H with every nonempty subset in J, by brute force."""
    best = 0
    for mask in range(1, 1 << inst.n):
        H = [v for v in range(inst.n) if mask >> v & 1]
        if len(H) > best and all(
                instances.in_J(inst, sub)
                for r in range(1, len(H) + 1)
                for sub in itertools.combinations(H, r)):
            best = len(H)
    return best


class Oneshot:
    """In-process `indexcode.cli.main` queries with JSON output."""

    def __init__(self, seed, workdir, baseline=False):
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.jobs = []
        for k, (n, q) in enumerate(SHAPES * PER_SHAPE):
            self.jobs += self._instance_queries(rng, k, n, q)
        heavy = self._heavy_queries(baseline)
        third = len(self.jobs) // 3
        self.jobs[2 * third:2 * third] = heavy[1:]
        self.jobs[third:third] = heavy[:1]
        # warm-up: the first command-line call pays one-off import costs
        _run_cli(["nqkd", "--q", "2", "--k", "1", "--d", "1",
                  "--format", "json"])

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def _draw(self, rng, n, q):
        """A random instance with a verified matrix, within the budgets."""
        field = fields.make_field(q)
        for _ in range(DRAW_CAP):
            inst = _random_instance(rng, n, q)
            cseed = int(rng.integers(2**31))
            branching = max(q ** len(X) for X in inst.X)
            w = codes.min_rank(inst, field,
                               node_budget=MINRANK_ROW_CAP // branching)
            if not w.certified:
                continue
            N = 1
            while not codes.random_existence_condition(
                    inst, field, ONESHOT_DELTA, N):
                N += 1
            rep = codes.construct_random(inst, field, ONESHOT_DELTA, N,
                                         seed=cseed,
                                         max_attempts=RANDOM_ATTEMPT_CAP)
            if not rep.ok:
                continue
            br = None
            if q == 2:
                br = bounds.bound_report(inst, field, ONESHOT_DELTA,
                                         workers=1, budget=BOUNDS_NODE_CAP)
                if br.alpha_entry.N is None or br.kappa_entry.N is None:
                    continue
            return inst, field, cseed, w, rep.L, br
        raise RuntimeError(f"no instance within budget in {DRAW_CAP} draws")

    def _instance_queries(self, rng, k, n, q):
        inst, field, cseed, w, L, br = self._draw(rng, n, q)
        d = ONESHOT_DELTA
        ipath, mpath, rpath = (self._path(f"{k}.{ext}")
                               for ext in ("json", "L.txt", "y.txt"))
        instances.save_instance(ipath, inst, field)
        fields.save_matrix(mpath, field, L)
        x = rng.integers(0, field.q, size=inst.n)
        e = np.zeros(L.shape[1], dtype=np.int64)
        wt = int(rng.integers(0, d + 1))
        if wt:
            e[rng.choice(L.shape[1], size=wt, replace=False)] = \
                rng.integers(1, field.q, size=wt)
        i = int(rng.integers(inst.m))
        decoding.save_received(rpath, field,
                               decoding.transmit(inst, field, L, x, e, i))
        rho = max(1, inst.n - min(len(X) for X in inst.X))

        # oracle answers, computed here and never by the command under test
        min_weight = codes.verify(inst, field, L, d,
                                  method="stream").min_weight
        alpha = _alpha_oracle(inst)
        family_ok = codes.verify(static_codes.canonical_instance(inst.n, rho),
                                 field, L, d).ok
        common = ["--instance", ipath, "--format", "json"]
        queries = [
            ("verify", ["verify", "--matrix", mpath, "--delta", str(d)],
             lambda o: o["ok"] is True and o["min_weight"] == min_weight),
            ("alpha", ["alpha"], lambda o: o["alpha"] == alpha),
            ("minrank", ["minrank"],
             lambda o: o["kappa"] == w.kappa and o["certified"]
             and _valid_completion(inst, field, o["V"], w.kappa)),
            ("decode", ["decode", "--matrix", mpath, "--received", rpath,
                        "--delta", str(d)],
             lambda o: o["x_hat"] == int(x[inst.f[i]])),
            ("simulate", ["simulate", "--matrix", mpath, "--delta", str(d),
                          "--trials", str(SIM_TRIALS), "--seed", str(cseed)],
             lambda o: o["trials"] == o["successes"] == SIM_TRIALS),
            ("construct_random", ["construct", "random", "--delta", str(d),
                                  "--seed", str(cseed)],
             lambda o: o["ok"] and np.array_equal(o["L"], L)),
        ]
        if br is not None:
            want = (br.alpha, br.kappa, br.alpha_entry.N, br.kappa_entry.N,
                    br.singleton, br.random_N)
            queries.append((
                "bounds", ["bounds", "--delta", str(d)],
                lambda o: (o["alpha"], o["kappa"], o["alpha_entry"]["N"],
                           o["kappa_entry"]["N"], o["singleton"],
                           o["random_N"]) == want))
        jobs = [_cli_job(f"{k}.{name}", argv + common, accept, 0)
                for name, argv, accept in queries]
        # static verify takes no instance; it exits 1 when the check fails
        jobs.insert(6, _cli_job(
            f"{k}.static_verify",
            ["static", "verify", "--matrix", mpath, "--rho", str(rho),
             "--delta", str(d), "--format", "json"],
            lambda o: o["ok"] is family_ok, 0 if family_ok else 1))
        return jobs

    def _heavy_queries(self, baseline):
        F7 = fields.make_field(7)
        path = self._path("c5bar_gf7.json")
        inst = c5bar()
        instances.save_instance(path, inst, F7)
        return [
            _cli_job("minrank_c5bar_gf7",
                     ["minrank", "--instance", path, "--format", "json"],
                     lambda o: o["kappa"] == 3 and o["certified"]
                     and _valid_completion(inst, F7, o["V"], 3)
                     and _baseline_error("minrank_c5bar_gf7", o["nodes"],
                                         baseline) is None, 0),
            _cli_job("static_bounds_6_3_0_3",
                     ["static", "bounds", "--n", "6", "--rho", "3",
                      "--delta", "0", "--q", "3", "--format", "json"],
                     lambda o: (o["rho_star"], o["rho_star_provenance"],
                                o["lower_alpha"], o["upper"]) ==
                     (4, "search", 3, 4), 0),
        ]


def _valid_completion(inst, field, V, kappa):
    """V has one row v_i + e_f(i) per receiver, v_i on X_i, rank kappa."""
    V = np.array(V, dtype=np.int64)
    if V.shape != (inst.m, inst.n):
        return False
    for i in range(inst.m):
        allowed = set(inst.X[i]) | {inst.f[i]}
        if V[i, inst.f[i]] != 1 or any(
                V[i, j] for j in range(inst.n) if j not in allowed):
            return False
    return fields.rank(field, V) == kappa


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _cli_job(name, argv, accept, want_code):
    def check_once(res):
        code, out, err = res
        if code != want_code:
            return f"exit code {code}, expected {want_code}: {err.strip()}"
        try:
            doc = json.loads(out)
        except json.JSONDecodeError:
            return f"output is not JSON: {out[:80]!r}"
        return None if accept(doc) else f"wrong answer: {out[:200]!r}"
    return Job(name, lambda: _run_cli(argv),
               _first_result_check(check_once, lambda a, b: a == b))


WORKLOADS = {"certify": Certify, "campaign": Campaign, "oneshot": Oneshot}
