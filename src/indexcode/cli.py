"""Command-line front end: one subcommand per capability.

Instances travel as JSON files, matrices and received words in the shared
text formats; message and receiver indices are 1-based in files and in all
output, matching the formats.  Every subcommand accepts --format text|json,
--budget, and --workers.  Exit codes: 0 when the requested property holds
or the artifact was produced, 1 when a checked property fails (a witness is
printed), 2 on usage errors, 3 when a budget ran out first.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import bounds as bounds_mod
from . import codes, decoding, sim, static_codes
from .errors import BudgetExceeded, NotAnIndexCode, TooManyErrors
from .fields import load_matrix, make_field, matrix_to_text
from .instances import generalized_independence_number, load_instance

OK, FAIL, USAGE, BUDGET = 0, 1, 2, 3


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def _plain(obj):
    """Recursively strip numpy and dataclass wrappers for JSON output."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _plain(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def _emit(args, payload, lines):
    if args.format == "json":
        print(json.dumps(_plain(payload), indent=1, sort_keys=True))
    else:
        for ln in lines:
            print(ln)


def _budget(args, default):
    return args.budget if args.budget is not None else default


def _load_instance_field(path, q_override=None):
    """Load an instance file; the field comes from its q block unless the
    caller already knows q from another file."""
    inst, q = load_instance(path)
    if q_override is not None:
        if q is not None and q != q_override:
            raise ValueError(
                f"instance says q={q} but companion file says q={q_override}")
        q = q_override
    if q is None:
        raise ValueError("no field: instance file lacks q and none implied")
    return inst, make_field(q)


def _ones(indices):
    """1-based rendering of an index tuple."""
    return tuple(int(i) + 1 for i in indices)


def _ints(vec):
    return [int(v) for v in vec]


# ---------------------------------------------------------------------------
# per-instance commands
# ---------------------------------------------------------------------------


def cmd_verify(args):
    L, qm = load_matrix(args.matrix)
    inst, field = _load_instance_field(args.instance, qm)
    rep = codes.verify(inst, field, L, args.delta,
                       span_cap=_budget(args, codes.VERIFY_SPAN_CAP))
    payload = {"ok": rep.ok, "delta": rep.delta, "min_weight": rep.min_weight,
               "witness": rep.witness, "receiver": None if rep.receiver is None
               else rep.receiver + 1, "method": rep.method}
    lines = [f"ok: {rep.ok}", f"delta: {rep.delta}",
             f"min_weight: {rep.min_weight}", f"method: {rep.method}"]
    if not rep.ok and rep.witness is not None:
        lines.append(f"witness: {_ints(rep.witness)}")
        if rep.receiver is not None:
            lines.append(f"receiver: {rep.receiver + 1}")
    _emit(args, payload, lines)
    return OK if rep.ok else FAIL


def cmd_alpha(args):
    inst, _ = load_instance(args.instance)
    a, wit = generalized_independence_number(inst)
    _emit(args, {"alpha": a, "witness": _ones(wit)},
          [f"alpha: {a}", f"witness: {list(_ones(wit))}"])
    return OK


def cmd_minrank(args):
    inst, field = _load_instance_field(args.instance)
    w = codes.min_rank(inst, field,
                       node_budget=_budget(args, 5_000_000))
    payload = {"kappa": w.kappa, "certified": w.certified,
               "lower_bound": w.lower_bound, "nodes": w.nodes, "V": w.V}
    lines = [f"kappa: {w.kappa}", f"certified: {w.certified}",
             f"nodes: {w.nodes}", "V:"]
    lines += ["  " + " ".join(str(int(v)) for v in row) for row in w.V]
    _emit(args, payload, lines)
    return OK if w.certified else BUDGET


def cmd_bounds(args):
    inst, field = _load_instance_field(args.instance)
    rep = bounds_mod.bound_report(inst, field, args.delta,
                                  workers=args.workers,
                                  budget=_budget(args, 50_000_000))
    rows = [
        ("alpha", rep.alpha, f"witness {list(_ones(rep.alpha_witness))}"),
        ("kappa", rep.kappa,
         "certified" if rep.kappa_certified else "NOT certified"),
        ("lower: shortest length at dim alpha", rep.alpha_entry.N,
         rep.alpha_entry.provenance),
        ("upper: shortest length at dim kappa", rep.kappa_entry.N,
         rep.kappa_entry.provenance),
        ("singleton: kappa + 2*delta", rep.singleton, ""),
        ("mds exact length", rep.mds_exact, ""),
        ("random construction length", rep.random_N, ""),
    ]
    width = max(len(r[0]) for r in rows)
    lines = [f"delta: {rep.delta}  q: {rep.q}"]
    lines += [f"{name:<{width}}  {val if val is not None else '?':>4}  {note}"
              .rstrip() for name, val, note in rows]
    _emit(args, rep, lines)
    certified = (rep.kappa_certified and rep.alpha_entry.N is not None
                 and rep.kappa_entry.N is not None)
    return OK if certified else BUDGET


def _matrix_out(args, field, L, lines):
    text = matrix_to_text(field, L)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        lines.append(f"matrix written to {args.out}")
    else:
        lines += text.rstrip("\n").splitlines()


def cmd_construct(args):
    inst, field = _load_instance_field(args.instance)
    budget = _budget(args, 50_000_000)

    if args.method == "concat":
        L, witness, entry = codes.construct_concat(inst, field, args.delta)
        payload = {"N": L.shape[1], "matrix": L,
                   "outer": None if entry is None else entry}
        lines = [f"N: {L.shape[1]}"]
        _matrix_out(args, field, L, lines)
        _emit(args, payload, lines)
        return OK

    if args.method == "lift":
        if not args.core:
            raise ValueError("construct lift needs --core (the matrix to lift)")
        B, qb = load_matrix(args.core)
        if qb != field.q:
            raise ValueError(f"core is over GF({qb}), instance over GF({field.q})")
        L, entry = codes.construct_lift(inst, field, args.delta, B)
        payload = {"N": L.shape[1], "matrix": L,
                   "outer": None if entry is None else entry}
        lines = [f"N: {L.shape[1]}"]
        _matrix_out(args, field, L, lines)
        _emit(args, payload, lines)
        return OK

    if args.method == "random":
        N = args.max_n
        if N is None:
            N = 1
            while not codes.random_existence_condition(inst, field,
                                                       args.delta, N):
                N += 1
        rep = codes.construct_random(inst, field, args.delta, N,
                                     seed=args.seed,
                                     max_attempts=args.attempts)
        lines = [f"N: {N}", f"ok: {rep.ok}", f"attempts: {rep.attempts}",
                 f"condition_holds: {rep.condition_holds}",
                 f"condition_min_N: {rep.condition_min_N}"]
        if rep.ok:
            _matrix_out(args, field, rep.L, lines)
        _emit(args, rep, lines)
        return OK if rep.ok else FAIL

    # search
    n_max = args.max_n
    if n_max is None:
        w = codes.min_rank(inst, field)
        entry = bounds_mod.nq_kd(field.q, w.kappa, 2 * args.delta + 1,
                                 workers=args.workers, budget=budget)
        if entry.N is None:
            raise ValueError("cannot infer --max-n; pass it explicitly")
        n_max = entry.N
    rep = codes.search_min_length(inst, field, args.delta, n_max,
                                  workers=args.workers, budget=budget)
    payload = {"n_opt": rep.n_opt, "certified": rep.certified,
               "nodes": rep.nodes, "refuted": rep.refuted,
               "matrix": rep.L}
    lines = [f"n_opt: {rep.n_opt}", f"certified: {rep.certified}",
             f"nodes: {rep.nodes}",
             f"refuted lengths: {sorted(rep.refuted)}"]
    if rep.L is not None:
        _matrix_out(args, field, rep.L, lines)
    if args.certificate:
        with open(args.certificate, "w", encoding="utf-8") as fh:
            fh.write(codes.search_certificate(inst, field, rep))
        lines.append(f"certificate written to {args.certificate}")
    _emit(args, payload, lines)
    if not rep.certified:
        return BUDGET
    return OK if rep.n_opt is not None else FAIL


def cmd_decode(args):
    L, qm = load_matrix(args.matrix)
    i, y, side, qr = decoding.load_received(args.received)
    if qr != qm:
        raise ValueError(f"received word says q={qr}, matrix q={qm}")
    inst, field = _load_instance_field(args.instance, qm)
    if args.receiver is not None and args.receiver - 1 != i:
        raise ValueError(
            f"--receiver {args.receiver} but file is for receiver {i + 1}")
    view = decoding.make_view(inst, field, i, y, side)
    res = decoding.decode(inst, field, L, args.delta, view,
                          budget=_budget(args, decoding.COSET_BUDGET))
    payload = {"receiver": i + 1, "demand": inst.f[i] + 1,
               "x_hat": res.x_hat, "e_hat": res.e_hat,
               "syndrome": res.syndrome,
               "weight_searched": res.weight_searched}
    lines = [f"receiver: {i + 1}", f"demand: x_{inst.f[i] + 1}",
             f"x_hat: {res.x_hat}",
             f"e_hat: {' '.join(str(int(v)) for v in res.e_hat)}",
             f"error weight: {res.weight_searched}"]
    _emit(args, payload, lines)
    return OK


def cmd_simulate(args):
    L, qm = load_matrix(args.matrix)
    inst, field = _load_instance_field(args.instance, qm)
    stats = sim.trial_campaign(inst, field, L, args.delta,
                               args.trials, args.seed,
                               forced_weight=args.forced_weight,
                               exhaustive=args.exhaustive,
                               workers=args.workers,
                               budget=_budget(args, sim.COSET_BUDGET))
    lines = [f"mode: {stats.mode}", f"trials: {stats.trials}",
             f"successes: {stats.successes}",
             f"success_rate: {stats.success_rate:.6f}",
             f"max error weight: {stats.max_weight}",
             f"failures per receiver: {list(stats.failures)}"]
    _emit(args, stats, lines)
    return OK if stats.successes == stats.trials else FAIL


# ---------------------------------------------------------------------------
# family-level commands
# ---------------------------------------------------------------------------


def cmd_static_verify(args):
    L, qm = load_matrix(args.matrix)
    field = make_field(qm)
    ok, wit = static_codes.verify_rho_delta(
        field, L, args.rho, args.delta,
        budget=_budget(args, static_codes.COMBO_BUDGET))
    payload = {"ok": ok, "rho": args.rho, "delta": args.delta,
               "witness": None if wit is None
               else {"coefficients": wit[0], "combination": wit[1]}}
    lines = [f"ok: {ok}", f"rho: {args.rho}", f"delta: {args.delta}"]
    if wit is not None:
        lines.append(f"witness coefficients: {_ints(wit[0])}")
        lines.append(f"witness combination: {_ints(wit[1])}")
    _emit(args, payload, lines)
    return OK if ok else FAIL


def cmd_static_bounds(args):
    rep = static_codes.static_bounds(
        args.n, args.rho, args.delta, args.q,
        budget=_budget(args, static_codes.PARITY_NODE_BUDGET))
    lines = [f"n: {rep.n}  rho: {rep.rho}  delta: {rep.delta}  q: {rep.q}",
             f"rho_star: {rep.rho_star} ({rep.rho_star_provenance})",
             f"lower (dim rho): {rep.lower_alpha}",
             f"lower (singleton): {rep.lower_singleton}",
             f"upper (dim rho_star): {rep.upper}",
             f"exact: {rep.exact}"]
    _emit(args, rep, lines)
    return OK if rep.rho_star is not None else BUDGET


def cmd_static_construct(args):
    rep = static_codes.gv_greedy(args.n, args.rho, args.delta, args.q,
                                 args.length, order=args.order,
                                 seed=args.seed)
    lines = [f"success: {rep.success}", f"rows built: {rep.rows_built}",
             f"counting guarantee: {rep.inequality_holds}"]
    if rep.success:
        _matrix_out(args, make_field(args.q), rep.L, lines)
    _emit(args, rep, lines)
    return OK if rep.success else FAIL


def cmd_static_resilience(args):
    L, qm = load_matrix(args.matrix)
    if qm != 2:
        raise ValueError("resilience checks are defined over GF(2) only")
    ok, wit = static_codes.weak_resilience_check(
        L, args.rho, args.t,
        budget=_budget(args, static_codes.RESILIENCE_BUDGET))
    payload = {"ok": ok, "rho": args.rho, "t": args.t,
               "witness": wit}
    lines = [f"ok: {ok}", f"rho: {args.rho}", f"t: {args.t}"]
    if wit is not None:
        lines.append(f"skewed outputs: {list(_ones(wit.outputs))}")
        lines.append(f"fixed inputs: {list(_ones(wit.fixed_inputs))}"
                     f" = {list(wit.fixing)}")
        lines.append(f"hit counts: {list(wit.counts)}")
    _emit(args, payload, lines)
    return OK if ok else FAIL


def cmd_nqkd(args):
    entry = bounds_mod.nq_kd(args.q, args.k, args.d, mode=args.mode,
                             n_max=args.max_n, workers=args.workers,
                             budget=_budget(args, 50_000_000))
    lines = [f"shortest length for k={args.k} d={args.d} over GF({args.q}): "
             f"{entry.N if entry.N is not None else 'unknown'}",
             f"provenance: {entry.provenance}"]
    if entry.bracket is not None:
        lines.append(f"bracket: {entry.bracket[0]}..{entry.bracket[1]}")
    _emit(args, entry, lines)
    return OK if entry.N is not None else BUDGET


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _common():
    c = argparse.ArgumentParser(add_help=False)
    c.add_argument("--format", choices=("text", "json"), default="text")
    c.add_argument("--budget", type=int, default=None,
                   help="node / table-size cap for the underlying search")
    c.add_argument("--workers", type=int, default=1)
    return c


def build_parser():
    common = _common()
    p = argparse.ArgumentParser(
        prog="indexcode",
        description="error-correcting index codes: verify, bound, construct,"
                    " decode, simulate")
    sub = p.add_subparsers(dest="command", metavar="command")

    v = sub.add_parser("verify", parents=[common],
                       help="check a matrix at a given error radius")
    v.add_argument("--instance", required=True)
    v.add_argument("--matrix", required=True)
    v.add_argument("--delta", type=int, required=True)
    v.set_defaults(func=cmd_verify)

    a = sub.add_parser("alpha", parents=[common],
                       help="generalized independence number")
    a.add_argument("--instance", required=True)
    a.add_argument("--delta", type=int, default=0, help="unused; accepted"
                   " for interface symmetry")
    a.set_defaults(func=cmd_alpha)

    m = sub.add_parser("minrank", parents=[common],
                       help="exact min-rank with witness")
    m.add_argument("--instance", required=True)
    m.add_argument("--delta", type=int, default=0, help="unused; accepted"
                   " for interface symmetry")
    m.set_defaults(func=cmd_minrank)

    b = sub.add_parser("bounds", parents=[common],
                       help="alpha/kappa brackets and related lengths")
    b.add_argument("--instance", required=True)
    b.add_argument("--delta", type=int, default=0)
    b.set_defaults(func=cmd_bounds)

    c = sub.add_parser("construct", parents=[common],
                       help="build a verifying matrix")
    c.add_argument("method", choices=("concat", "lift", "random", "search"))
    c.add_argument("--instance", required=True)
    c.add_argument("--delta", type=int, required=True)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--max-n", type=int, dest="max_n", default=None,
                   help="length to sample at (random) / search ceiling (search)")
    c.add_argument("--core", default=None,
                   help="matrix file with the rows to lift (lift only)")
    c.add_argument("--attempts", type=int, default=1000,
                   help="samples before giving up (random only)")
    c.add_argument("--out", default=None, help="write the matrix to this file")
    c.add_argument("--certificate", default=None,
                   help="write the search certificate here (search only)")
    c.set_defaults(func=cmd_construct)

    d = sub.add_parser("decode", parents=[common],
                       help="decode one received word")
    d.add_argument("--instance", required=True)
    d.add_argument("--matrix", required=True)
    d.add_argument("--received", required=True)
    d.add_argument("--receiver", type=int, default=None,
                   help="1-based; must match the received-word file")
    d.add_argument("--delta", type=int, required=True)
    d.set_defaults(func=cmd_decode)

    s = sub.add_parser("simulate", parents=[common],
                       help="seeded broadcast campaigns")
    s.add_argument("--instance", required=True)
    s.add_argument("--matrix", required=True)
    s.add_argument("--delta", type=int, required=True)
    s.add_argument("--trials", type=int, required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--exhaustive", action="store_true",
                   help="enumerate every message and error instead of sampling")
    s.add_argument("--forced-weight", type=int, dest="forced_weight",
                   default=None, help="inject errors of exactly this weight")
    s.set_defaults(func=cmd_simulate)

    st = sub.add_parser("static", help="family-level checks")
    stsub = st.add_subparsers(dest="static_command", metavar="check")

    sv = stsub.add_parser("verify", parents=[common],
                          help="row-combination weight condition")
    sv.add_argument("--matrix", required=True)
    sv.add_argument("--rho", type=int, required=True)
    sv.add_argument("--delta", type=int, required=True)
    sv.set_defaults(func=cmd_static_verify)

    sb = stsub.add_parser("bounds", parents=[common],
                          help="family-optimum brackets")
    sb.add_argument("--n", type=int, required=True)
    sb.add_argument("--rho", type=int, required=True)
    sb.add_argument("--delta", type=int, required=True)
    sb.add_argument("--q", type=int, required=True)
    sb.set_defaults(func=cmd_static_bounds)

    sc = stsub.add_parser("construct", parents=[common],
                          help="greedy row-by-row construction")
    sc.add_argument("--n", type=int, required=True)
    sc.add_argument("--rho", type=int, required=True)
    sc.add_argument("--delta", type=int, required=True)
    sc.add_argument("--q", type=int, required=True)
    sc.add_argument("--length", type=int, required=True,
                    help="number of columns N")
    sc.add_argument("--order", choices=("lex", "seeded"), default="lex")
    sc.add_argument("--seed", type=int, default=None)
    sc.add_argument("--out", default=None)
    sc.set_defaults(func=cmd_static_construct)

    sr = stsub.add_parser("resilience", parents=[common],
                          help="definitional weak-resilience check (GF(2))")
    sr.add_argument("--matrix", required=True)
    sr.add_argument("--rho", type=int, required=True)
    sr.add_argument("--t", type=int, required=True)
    sr.set_defaults(func=cmd_static_resilience)

    n = sub.add_parser("nqkd", parents=[common],
                       help="shortest linear-code length for (q, k, d)")
    n.add_argument("--q", type=int, required=True)
    n.add_argument("--k", type=int, required=True)
    n.add_argument("--d", type=int, required=True)
    n.add_argument("--mode", choices=("auto", "table", "search"),
                   default="auto")
    n.add_argument("--max-n", type=int, dest="max_n", default=None)
    n.set_defaults(func=cmd_nqkd)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return USAGE
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return BUDGET
    except TooManyErrors as exc:
        print(f"decoding failed: {exc}", file=sys.stderr)
        return FAIL
    except NotAnIndexCode as exc:
        print(f"unusable code: {exc}", file=sys.stderr)
        return FAIL
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
