"""Workloads of the qq22 benchmark: seeded inputs, operations and exact checks.

Every operation is one query a user waits for.  Its answer is compared
exactly with a hand-written value (or, for warm cache queries, with the bytes
the CLI prints for the same query without a cache) before its time counts; a
wrong answer or an exception is a failure, never a timing.

The first query of a pass is the workload's headline, on a cold engine in a
fresh process.  A pass is kept to about a second of queries of at most half
a second each, so that a run holds many passes: on a host whose speed
changes from second to second, a percentile over many short queries is
steady where the time of one long query is not.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import resource
import time
from fractions import Fraction as F

# Hand-written expected answers.  "lhs<n>" is the squares correlator of length
# 2n+2, 2^(n-3) (x^2 - 1/4); "witness<n>_<l>" is convergence_witness(n, l) of
# the seed code, kept as a regression value.
EXPECTED = {
    "f4": (F(11, 16), F(5, 8)),
    "lhs4": (F(-1, 2), F(0), F(2)),
    "lhs6": (F(-2), F(0), F(8)),
    "squares6_text": "8*x^2-2\n",
    "witness6_7": (F(44040192), 1749),
}

CACHE_N = 6
WARM_QUERIES = 10
WARM_DISTINCT = 5
RESIDUALS = 25
# dimension of each one-sample semisimplicity scan; the seed draws its point
SCANS = (6, 6, 4, 4, 4, 4)


def squares_index(n):
    """Tau index of the squares correlator: exponent 2 on n+1 primitive slots."""
    return [0] * (n + 1) + [2] * (n + 1) + [0, 0]


def index_arg(index):
    return ",".join(str(v) for v in index)


# -- inputs -------------------------------------------------------------------


def prepare(workload, seed):
    """Inputs of a workload, derived from the seed; JSON-serializable."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "engine":
        size = 2 * 6 + 4
        residuals = []
        for _ in range(RESIDUALS):
            comps = [rng.randrange(size) for _ in range(4)]
            index = [0] * size
            for _ in range(rng.randint(0, 4)):
                index[rng.randrange(size)] += 1
            residuals.append(comps + [index])
        return {"residuals": residuals}
    if workload == "linalg":
        return {"scans": [[n, rng.randrange(1 << 30)] for n in SCANS]}
    if workload == "cache":
        return _prepare_cache(rng)
    raise ValueError("unknown workload %r" % workload)


def _prepare_cache(rng):
    """Draw warm queries among the nonzero records the cold query writes.

    The reference answer of each distinct query is what the CLI prints for it
    without a cache, on a fresh engine.
    """
    import qq22
    from qq22 import cli

    eng = qq22.CorrelatorEngine(CACHE_N)
    eng.conjecture_quadratic_lhs()
    keys = sorted(key for key, value in eng.memo.items() if value)
    distinct = rng.sample(keys, WARM_DISTINCT)
    reference = {}
    for amb, prim in distinct:
        arg = index_arg(amb + prim)
        rc, text = cli_query(cli, ["correlator", "--n", str(CACHE_N), "--tau-index", arg])
        if rc != 0:
            raise RuntimeError("reference query %s exited %d" % (arg, rc))
        reference[arg] = text
    warm = [rng.choice(sorted(reference)) for _ in range(WARM_QUERIES)]
    return {"warm": [[arg, reference[arg]] for arg in warm]}


def cli_query(cli, argv):
    """Run the CLI in-process and return (exit code, standard output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.run(argv)
    return rc, buf.getvalue()


# -- operations ---------------------------------------------------------------


class Op:
    """One query: ``call()`` answers it, ``check(answer)`` verifies it."""

    def __init__(self, name, call, check):
        self.name = name
        self.call = call
        self.check = check


def _engine(inputs, workdir):
    import qq22

    def quadratic_ok(residual, n, eng):
        lhs = eng.conjecture_quadratic_lhs()
        return residual.is_zero() and lhs.coeffs == EXPECTED["lhs%d" % n]

    window = qq22.CorrelatorEngine(4)
    ops = [
        Op(
            "f(4)",
            lambda: window.f_value(),
            lambda v: v.coeffs == EXPECTED["f4"],
        )
    ]
    ops += [
        Op(
            "conjecture_quadratic(%d)" % n,
            lambda eng=eng: eng.conjecture_quadratic(),
            lambda v, n=n, eng=eng: quadratic_ok(v, n, eng),
        )
        for n, eng in ((n, qq22.CorrelatorEngine(n)) for n in (6, 4))
    ]
    witness_engine = qq22.CorrelatorEngine(6)
    ops.append(
        Op(
            "convergence_witness(6, 7)",
            lambda: qq22.convergence_witness(6, 7, engine=witness_engine),
            lambda v: v == EXPECTED["witness6_7"],
        )
    )
    residuals = inputs["residuals"]
    residual_engine = qq22.CorrelatorEngine(6)
    ops.append(
        Op(
            "%d wdvv_extracted_residual checks" % len(residuals),
            lambda: [
                residual_engine.wdvv_extracted_residual(*r[:4], r[4]) for r in residuals
            ],
            lambda vs: all(v.is_zero() for v in vs),
        )
    )
    return ops


def _linalg(inputs, workdir):
    import qq22

    # every accepted row must agree; at most one row of the pass may have a
    # repeated root, as a random rational point can give one
    not_squarefree = []

    def scan_ok(rows):
        accepted = [r for r in rows if not r.rejected]
        not_squarefree.extend(r for r in accepted if not r.squarefree)
        return len(accepted) == 1 and accepted[0].agrees and len(not_squarefree) <= 1

    ops = [Op("conic_pipeline", lambda: qq22.conic_pipeline(), lambda r: r.ok)]
    ops += [
        Op(
            "semisimple_scan(%d, 1)" % n,
            lambda n=n, s=s: qq22.semisimple_scan(n, 1, s),
            scan_ok,
        )
        for n, s in inputs["scans"]
    ]
    ops.append(
        Op(
            "no_conic_through_meeting_points",
            lambda: qq22.no_conic_through_meeting_points(range(1, 8)),
            lambda v: v is True,
        )
    )
    return ops


def _cache(inputs, workdir):
    from qq22 import cli

    n = CACHE_N
    path = os.path.join(workdir, "memo-%d.cache" % os.getpid())
    if os.path.exists(path):
        os.remove(path)

    def query(arg):
        return cli_query(
            cli, ["correlator", "--n", str(n), "--tau-index", arg, "--cache", path]
        )

    cold = index_arg(squares_index(n))
    ops = [
        Op(
            "cold correlator --n %d (squares)" % n,
            lambda: query(cold),
            lambda v: v == (0, EXPECTED["squares%d_text" % n]),
        )
    ]
    ops += [
        Op("warm correlator --n %d" % n, lambda a=arg: query(a), lambda v, t=text: v == (0, t))
        for arg, text in inputs["warm"]
    ]
    return ops


OPERATIONS = {"engine": _engine, "linalg": _linalg, "cache": _cache}
NAMES = tuple(OPERATIONS)


# -- one pass ----------------------------------------------------------------


def setup(workload, inputs, workdir):
    """Import qq22 and construct the workload's engines; returns (ops, seconds)."""
    start = time.perf_counter()
    ops = OPERATIONS[workload](inputs, workdir)
    return ops, time.perf_counter() - start


def run_pass(workload, inputs, workdir, tracer=None):
    """Set up, then answer and check every query once.

    Returns a JSON-serializable record.  A pass's wall time counts only when
    every answer in it was verified.
    """
    ops, setup_s = setup(workload, inputs, workdir)
    if tracer is not None:
        tracer.install()
    records = []
    failed = 0
    errors = []
    try:
        wall_start = time.perf_counter()
        for position, op in enumerate(ops):
            start = time.perf_counter()
            try:
                answer = op.call()
                latency = time.perf_counter() - start
                ok = bool(op.check(answer))
                if not ok:
                    errors.append("%s: wrong answer" % op.name)
            except Exception as exc:  # a raised query is a failed query
                ok = False
                errors.append("%s: %s: %s" % (op.name, type(exc).__name__, exc))
            if tracer is not None:
                tracer.op_done()
            if not ok:
                failed += 1
                continue
            records.append([position, op.name, latency])
        wall_s = time.perf_counter() - wall_start
    finally:
        if tracer is not None:
            tracer.uninstall()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": setup_s,
        "wall_s": wall_s if not failed else None,
        "peak_rss_mb": rss_kb / 1024.0,
        "queries": records,
        "attempted": len(ops),
        "failed": failed,
        "errors": errors[:5],
        "layers": tracer.layers() if tracer is not None else None,
    }
