"""Command-line front end.

Subcommands mirror the library surface: ``correlator`` evaluates one
correlator (small-quantum indices by default), ``special-expr`` prints the
window correlator or the quadratic-identity residual, ``conjecture`` checks
the quadratic identity, ``semisimple`` runs the characteristic-polynomial
scan, ``conics`` replays the dimension-4 verification, ``lattice`` exposes
the plane calculus, and ``cache-info`` validates a memo file and counts its
entries.

Exit codes: 0 success, 1 verification mismatch, 2 usage error.  A cache
file that fails validation is a mismatch for ``cache-info``, whose check is
that validation, so it exits 1; ``correlator --cache`` reads the same file
as bad input and exits 2.

``correlator --tau-index`` with a cache validates the whole file and, when
the file holds the query's key, answers from that one entry without
building the memo or saving.  Any other query with a cache (a key the file
lacks, or ``--t-index``) loads the whole memo, computes, and saves it when
it gained entries.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import geometry, semisimple
from .engine import CorrelatorEngine
from .scalars import rational_str
from .serial import (
    CACHE_MAGIC,
    CACHE_VERSION,
    CacheError,
    _read_cache,
    load_cache,
    poly_to_str,
    save_cache,
)

CACHE_ENV = "QH22_CACHE"


def _parse_list(text, kind):
    return tuple(kind(v) for v in text.split(","))


def _engine_with_cache(n, cache_path, key):
    """A fresh engine seeded from the cache file, and the number of entries
    loaded (None when there was no file to load).  When the file holds key,
    the engine is seeded with that one entry."""
    eng = CorrelatorEngine(n)
    if cache_path and os.path.exists(cache_path):
        eng.memo = load_cache(cache_path, n, key)
        return eng, len(eng.memo)
    return eng, None


def _maybe_save(eng, cache_path, loaded):
    # the memo only grows, so an unchanged size means the file is current
    if cache_path and (loaded is None or len(eng.memo) > loaded):
        save_cache(cache_path, eng.n, eng.memo)


def _report(args, doc, lines, failure=None):
    """Print doc as JSON or lines as text, per --format.

    With a failure message, print it to stderr and return 1; else return 0.
    """
    if args.format == "json":
        print(json.dumps(doc, indent=2, sort_keys=False))
    else:
        for line in lines:
            print(line)
    if failure:
        print(failure, file=sys.stderr)
        return 1
    return 0


def _poly_value(poly):
    return {"poly": [[rational_str(c), "0"] for c in poly.coeffs]}


def _tau_key(n, text):
    """The memo key of a --tau-index query, or None when the index does not
    parse; the query reports that error after any cache error, as before."""
    try:
        index = _parse_list(text, int)
    except ValueError:
        return None
    return index[: n + 1], tuple(sorted(index[n + 1 :], reverse=True))


def cmd_correlator(args):
    cache = args.cache or os.environ.get(CACHE_ENV)
    key = None if args.tau_index is None else _tau_key(args.n, args.tau_index)
    eng, loaded = _engine_with_cache(args.n, cache, key)
    if args.tau_index is not None:
        index = _parse_list(args.tau_index, int)
        basis = "tau"
        poly = eng.correlator_tau(index)
    else:
        index = _parse_list(args.t_index, int)
        basis = "t"
        poly = eng.correlator_t(index)
    _maybe_save(eng, cache, loaded)
    # the dimension axiom gives the same degree in either coordinate system
    beta = eng.beta_of_t_index(index)
    doc = {
        "n": args.n,
        "basis": basis,
        "index": list(index),
        "value": _poly_value(poly),
        "beta": beta,
    }
    return _report(args, doc, [poly_to_str(poly.coeffs, descending=True)])


def cmd_special_expr(args):
    eng = CorrelatorEngine(args.n)
    if args.target == "f":
        poly = eng.f_value()
    else:
        poly = eng.conjecture_quadratic()
    doc = {"n": args.n, "target": args.target, "value": _poly_value(poly)}
    return _report(args, doc, [poly_to_str(poly.coeffs)])


def cmd_conjecture(args):
    eng = CorrelatorEngine(args.n)
    lhs = poly_to_str(eng.conjecture_quadratic_lhs().coeffs, descending=True)
    residual = eng.conjecture_quadratic()
    ok = residual.is_zero()
    doc = {
        "n": args.n,
        "lhs": lhs,
        "residual": poly_to_str(residual.coeffs),
        "ok": ok,
    }
    lines = ["lhs: %s" % lhs, "residual: %s" % doc["residual"]]
    return _report(args, doc, lines, None if ok else "quadratic identity failed")


def cmd_semisimple(args):
    rows = semisimple.semisimple_scan(args.n, args.samples, args.seed)
    accepted = [r for r in rows if not r.rejected]
    ok = all(r.agrees for r in accepted)
    squarefree = sum(1 for r in accepted if r.squarefree)
    doc = {
        "n": args.n,
        "samples": args.samples,
        "seed": args.seed,
        "rows": [r.as_dict() for r in rows],
        "squarefree": squarefree,
        "ok": ok,
    }
    lines = []
    for r in rows:
        flag = "rejected" if r.rejected else (
            "agree" if r.agrees else "MISMATCH"
        ) + (" squarefree" if r.squarefree else " repeated-roots")
        lines.append("%s  %s" % (flag, " ".join(rational_str(v) for v in r.point)))
    lines.append("%d/%d squarefree, all agree: %s" % (squarefree, len(accepted), ok))
    failure = None if ok else "characteristic polynomial mismatch"
    return _report(args, doc, lines, failure)


def cmd_conics(args):
    lams = _parse_list(args.lams, Fraction)
    report = geometry.conic_pipeline(lams)
    rigidity = geometry.dual_uniqueness(lams)
    extras = {
        "no_conic_on_base_plane": geometry.no_conic_through_meeting_points(lams),
        "plane_in_conjectural_quadric": geometry.conic_plane_in_conjectural_quadric(lams),
    }
    ok = report.ok and rigidity.ok and extras["no_conic_on_base_plane"]
    doc = {
        "lams": [rational_str(v) for v in lams],
        "pipeline": report.as_dict(),
        "rigidity": rigidity.as_dict(),
        "extras": extras,
        "ok": ok,
    }
    lines = [
        "%s  %s" % ("ok " if s.ok else "FAIL", s.name)
        for s in report.stages + rigidity.stages
    ]
    lines += ["%s  %s" % ("ok " if v else "note", k) for k, v in extras.items()]
    lines.append("overall: %s" % ("pass" if ok else "fail"))
    return _report(args, doc, lines, None if ok else "conic verification mismatch")


def cmd_lattice(args):
    n = args.n
    out = {}
    if args.dim:
        out["dim"] = geometry.intersection_dim(*args.dim, n)
    if args.number:
        out["number"] = rational_str(geometry.intersection_number(*args.number, n))
    if args.gram:
        gram = geometry.epsilon_gram(n)
        sign = (-1) ** (n // 2)
        expected = all(
            gram[i][j] == (sign if i == j else 0)
            for i in range(n + 3)
            for j in range(n + 3)
        )
        out["gram_is_signed_identity"] = expected
    if args.unique_plane:
        out["only_base_plane_meets_all_windows"] = geometry.only_base_plane_meets_all_windows(n)
    if args.inequality:
        out["window_sum_inequality"] = geometry.window_sum_inequality(n)
    if not out:
        print("nothing to do; pass --dim/--number/--gram/--unique-plane/--inequality", file=sys.stderr)
        return 2
    false = [k for k, v in out.items() if v is False]
    failure = "lattice check failed: %s" % ", ".join(false) if false else None
    return _report(args, {"n": n, **out}, ["%s: %s" % kv for kv in out.items()], failure)


def cmd_cache_info(args):
    path = args.cache or os.environ.get(CACHE_ENV)
    if not path:
        print("no cache path given", file=sys.stderr)
        return 2
    try:
        n, memo = _read_cache(path)
    except CacheError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if n is None:
        magic = version = dim = None
        line = "empty cache, 0 entries"
    else:
        magic, version, dim = CACHE_MAGIC, str(CACHE_VERSION), "n=%d" % n
        line = "%s version %s %s, %d entries" % (magic, version, dim, len(memo))
    doc = {"magic": magic, "version": version, "n": dim, "entries": len(memo)}
    return _report(args, doc, [line])


def _subset(text):
    text = text.strip()
    if not text or text == "-":
        return frozenset()
    return frozenset(int(v) for v in text.split(","))


@functools.lru_cache(maxsize=None)  # fixed prog, stateless callbacks: build once
def build_parser():
    parser = argparse.ArgumentParser(
        prog="qq22",
        description="Exact genus-0 invariants of even intersections of two quadrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("correlator", help="evaluate one correlator")
    pc.add_argument("--n", type=int, required=True)
    group = pc.add_mutually_exclusive_group(required=True)
    group.add_argument("--tau-index", help="comma separated exponents, 2n+4 entries")
    group.add_argument("--t-index", help="cup-coordinate exponents, 2n+4 entries")
    pc.add_argument("--cache", help="memo file path (default: $%s)" % CACHE_ENV)

    ps = sub.add_parser("special-expr", help="window correlator or quadratic residual")
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--target", choices=("f", "quadratic"), required=True)

    pj = sub.add_parser("conjecture", help="check the quadratic identity")
    pj.add_argument("--n", type=int, required=True)

    pm = sub.add_parser("semisimple", help="characteristic polynomial scan")
    pm.add_argument("--n", type=int, required=True)
    pm.add_argument("--samples", type=int, default=20)
    pm.add_argument("--seed", type=int, default=0)

    pq = sub.add_parser("conics", help="dimension-4 conic verification")
    pq.add_argument("--lambda", dest="lams", required=True, help="seven comma separated values")

    pl = sub.add_parser("lattice", help="plane intersection calculus")
    pl.add_argument("--n", type=int, required=True)
    pl.add_argument("--dim", nargs=2, type=_subset, metavar=("I", "J"))
    pl.add_argument("--number", nargs=2, type=_subset, metavar=("I", "J"))
    pl.add_argument("--gram", action="store_true")
    pl.add_argument("--unique-plane", action="store_true")
    pl.add_argument("--inequality", action="store_true")

    pi = sub.add_parser("cache-info", help="validate a memo file and count its entries")
    pi.add_argument("--cache")

    for p, func in (
        (pc, cmd_correlator),
        (ps, cmd_special_expr),
        (pj, cmd_conjecture),
        (pm, cmd_semisimple),
        (pq, cmd_conics),
        (pl, cmd_lattice),
        (pi, cmd_cache_info),
    ):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=func)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, CacheError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except RecursionError:
        print("error: correlator too deep for the recursion limit", file=sys.stderr)
        return 2


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
