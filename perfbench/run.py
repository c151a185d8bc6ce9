"""Closed-loop benchmark of centtype's public API.

    python3 perfbench/run.py --workload conj-fp --seed 1 --seconds 55 --trace 0

One caller, one process, no threads: each query parses its JSON document
with the serialize functions the CLI uses, computes the answer, and
serialises it with the matching ``*_to_json`` and ``json.dumps``, as the
CLI handlers do.  Argparse and interpreter start-up are left out, because
they would swamp the microsecond-scale permutation queries.

Workloads (inputs from `gen`, a fixed schedule with seeded content):

* conj-fp      centralizers_conjugate over F3 and F5, n = 4..10; the
               n^2 x n^2 Sylvester kernel in centralizer_basis and the
               Frobenius form take most of the time, and every traced
               matrix and polynomial layer runs.
* perm-decide  sn_cent_equal / an_cent_equal at degree 6..24, every
               VariationReport kind plus near-misses; microsecond queries,
               so parsing and serialising weigh most.

The two sit at opposite ends: seconds of exact linear algebra per query
against microseconds of permutation bookkeeping.

The timed loop runs whole schedule periods, at least 100 queries and at
least --seconds, up to a fixed number of latency slots.  Answers are
checked after the loop.  With --trace 0 the last line of stdout holds
the end-to-end metrics; with --trace 1 a traced pass over a fixed prefix
of the queries gives per-layer metrics.  That pass also runs every query
untraced, alternating which goes first, so the tracing overhead compares
the same queries under the same host speed.  Spans go to .bench_out/ in
the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass

import check
import gen
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 9
MIN_QUERIES = 100
HARD_STOP_S = 140.0
# Latency slots per second of --seconds: about 1.75 times perm-decide's
# throughput at the seed commit, and far above conj-fp's.  The buffer is
# allocated and touched before the loop, so peak RSS holds a small fixed
# harness share (printed with it) instead of one that grows with the
# library's speed; a library faster than this cap stops the loop early,
# at a period boundary, and is still timed correctly.
RATE_CAP = {"conj-fp": 1000, "perm-decide": 12000}
# Traced prefix per workload, whole schedule periods: 4 to 10 seconds of
# queries at the seed commit.
TRACE_PREFIX = {"conj-fp": 80, "perm-decide": 20000}

E2E_UNITS = {
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "throughput_qps": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import centtype; print(time.perf_counter() - t)"
)


class SetupError(Exception):
    """The checkout cannot be benchmarked, for example no library under src/."""


def import_centtype():
    """Import centtype from the checkout's src/, never from site-packages."""
    if not os.path.isfile(os.path.join(SRC, "centtype", "__init__.py")):
        raise SetupError("no centtype package under %s" % SRC)
    sys.path.insert(0, SRC)
    import centtype

    if os.path.dirname(os.path.dirname(os.path.abspath(centtype.__file__))) != SRC:
        raise SetupError("centtype was imported from %s, not the checkout" % centtype.__file__)
    return centtype


def make_query(workload, ct):
    """The per-query function: JSON text in, JSON text out.

    Library functions are looked up at call time, so the tracer's
    rebinding takes effect.
    """
    S = ct.serialize

    def dumps(obj):
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    if workload == "conj-fp":

        def query(doc):
            d = json.loads(doc)
            x = S.matrix_from_json(d["x"])
            y = S.matrix_from_json(d["y"])
            return dumps(S.certificate_to_json(ct.centkit.centralizers_conjugate(x, y, seed=0)))

    else:

        def query(doc):
            d = json.loads(doc)
            g = S.permutation_from_text(d["g"], n=d["n"])
            h = S.permutation_from_text(d["h"], n=d["n"])
            n = max(g.degree, h.degree)
            g, h = g.extend(n), h.extend(n)
            pc = ct.permcent
            decide = pc.sn_cent_equal if d["group"] == "sn" else pc.an_cent_equal
            return dumps(S.variation_report_to_json(decide(g, h)))

    return query


def make_oracle(ct):
    """Brute-force centralizers, cached per permutation."""
    cache = {}

    def oracle(images, group):
        key = (images, group)
        if key not in cache:
            cache[key] = ct.perm_centralizer_bruteforce(
                ct.Permutation(images), group="A" if group == "an" else "S"
            )
        return cache[key]

    return oracle


@dataclass
class Outcome:
    """What one loop over the query list produced."""

    attempted: int
    wall_s: float
    latencies_ns: array
    first: list  # first output text of each query, None if it never answered
    same: list  # attempts whose output equalled that first output
    unstable: int  # attempts whose output differed from the first
    errors: list  # (query index, repr of the exception)


def latency_slots(workload, period, seconds):
    """Size of the latency buffer: whole periods, at least MIN_QUERIES."""
    want = max(MIN_QUERIES, int(seconds * RATE_CAP[workload]))
    return -(-want // period) * period


def run_loop(queries, call, period, slots, seconds=None, min_queries=0, limit=None):
    """Closed loop of call(i, doc) over the queries, wrapping around, in whole periods.

    Stops at the first period boundary where `limit` queries ran, or
    where at least `seconds` passed and `min_queries` ran, or when the
    `slots` latency slots are full.
    """
    n = len(queries)
    docs = [q.doc for q in queries]
    lat = array("q", [0]) * slots
    first = [None] * n
    same = [0] * n
    unstable = 0
    errors = []
    clock = time.perf_counter_ns
    stop_ns = None if seconds is None else int(seconds * 1e9)
    hard_ns = int(HARD_STOP_S * 1e9)
    i = 0
    start = clock()
    while True:
        j = i % n
        t0 = clock()
        try:
            out = call(i, docs[j])
        except Exception as exc:  # a failed query is counted, not fatal
            out = None
            errors.append((j, repr(exc)))
        t1 = clock()
        lat[i] = t1 - t0
        if out is not None:
            if first[j] is None:
                first[j] = out
                same[j] = 1
            elif out == first[j]:
                same[j] += 1
            else:
                unstable += 1
        i += 1
        elapsed = t1 - start
        if i == slots or elapsed > hard_ns:
            break
        if i % period == 0:
            if limit is not None and i >= limit:
                break
            if stop_ns is not None and elapsed >= stop_ns and i >= min_queries:
                break
    wall = (clock() - start) / 1e9
    return Outcome(i, wall, lat[:i], first, same, unstable, errors)


def host_probe():
    """Seconds for a fixed pure-Python loop that does not touch centtype."""
    t = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t


def time_setups(workload, seed, repeats):
    """Import and generation seconds of `repeats` set-ups, the last query
    list and its digest.

    The import is timed in fresh interpreters, since an import happens
    once per process; generation is timed in this process.  Every repeat
    must produce the same documents.
    """
    imports, gens, queries, digest = [], [], None, None
    for _ in range(repeats):
        queries = None  # so two query lists are never alive at once
        res = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, SRC],
            capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
        )
        imports.append(float(res.stdout.strip().splitlines()[-1]))
        t = time.perf_counter()
        queries = gen.generate(workload, seed)
        gens.append(time.perf_counter() - t)
        this = gen.digest(queries)
        if digest is None:
            digest = this
        elif this != digest:
            raise SetupError("the generator is not deterministic")
    return {"import_s": imports, "generate_s": gens}, queries, digest


def freeze():
    """Keep the benchmark's own data (query list, expectations) out of the
    collector's passes, so it does not add to the library's GC cost."""
    gc.collect()
    gc.freeze()


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "centtype")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return None
    return res.stdout.strip() or None


def environment():
    return {
        "python": "%s %s" % (platform.python_implementation(), platform.python_version()),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


def nearest_rank(sorted_vals, q):
    return sorted_vals[max(0, -(-len(sorted_vals) * q // 100) - 1)]


def verdict(queries, outcome, workload, ct):
    oracle = make_oracle(ct) if workload == "perm-decide" else None
    return check.tally(queries, outcome, check.checker(workload, oracle))


def untraced(query):
    return lambda i, doc: query(doc)


def paired(query, tracer):
    """call(i, doc) running the query untraced and traced, in alternating
    order, and the nanoseconds each side took.  The second run of a query
    may find typealg's caches warm; alternating puts that on both sides."""
    walls = [0, 0]

    def call(i, doc):
        outs = [None, None]
        for traced in (False, True) if i % 2 else (True, False):
            if traced:
                tracer.enable()
                tracer.begin_query(i)
            t0 = time.perf_counter_ns()
            try:
                outs[traced] = tracer.call("query", query, (doc,), {}, None) if traced else query(doc)
            finally:
                walls[traced] += time.perf_counter_ns() - t0
                if traced:
                    tracer.disable()
        if outs[0] != outs[1]:
            raise RuntimeError("traced and untraced answers differ")
        return outs[1]

    return call, walls


# Spans that enclose every other span of a conj-fp query.
ENTRY_SPANS = ("query", "centkit.centralizers_conjugate")


def largest_inclusive(tracer):
    """Traced span name with the largest inclusive time, entry spans aside."""
    inner = {k: v for k, v in tracer.total_ns.items() if k not in ENTRY_SPANS}
    return max(inner, key=inner.get)


def largest_call_of(tracer, parent):
    """Name of the span called directly by `parent` spans with the largest
    summed time; those calls partition the parent's time, less its self time."""
    total = {}
    for _, name, up, t0, t1 in tracer.spans:
        if up >= 0 and tracer.spans[up][1] == parent:
            total[name] = total.get(name, 0) + t1 - t0
    return max(total, key=total.get)


def predictions(workload, m, tracer):
    """The traced facts each workload is in the benchmark for."""
    v = {k: x["value"] for k, x in m.items()}
    out = {"permcent.decide.calls > 0 only on perm-decide":
           (v["permcent.decide.calls"] > 0) == (workload == "perm-decide")}
    if workload == "conj-fp":
        cb = "centkit.centralizer_basis"
        top = largest_call_of(tracer, "centkit.centralizers_conjugate")
        out["centralizer_basis has the largest inclusive time of the calls "
            "centralizers_conjugate makes (largest: %s)" % top] = top == cb
        anywhere = largest_inclusive(tracer)
        out["centralizer_basis has the largest inclusive time of any traced span "
            "below the entry calls (largest: %s)" % anywhere] = anywhere == cb
    else:
        out["centralizer_basis.calls == 0"] = v["centkit.centralizer_basis.calls"] == 0
    return out


def main_traced(args):
    ct = import_centtype()
    queries = gen.generate(args.workload, args.seed)
    freeze()
    query = make_query(args.workload, ct)
    period = gen.period_length(args.workload)
    tracer = spans.Tracer(ct)
    call, walls = paired(query, tracer)
    limit = TRACE_PREFIX[args.workload]
    outcome = run_loop(queries, call, period, limit, args.seconds, limit=limit)
    failed, reasons = verdict(queries, outcome, args.workload, ct)
    metrics = tracer.metrics(outcome.attempted, walls[1] / walls[0] - 1.0)
    os.makedirs(OUT_DIR, exist_ok=True)
    span_file = os.path.join(OUT_DIR, "trace-%s-seed%d.jsonl" % (args.workload, args.seed))
    tracer.write(span_file)
    record = {
        "workload": args.workload, "seed": args.seed, "mode": "traced",
        "inputs_sha256": gen.digest(queries), "queries_traced": outcome.attempted,
        "traced_wall_s": walls[1] / 1e9, "untraced_wall_s": walls[0] / 1e9,
        "spans": len(tracer.spans),
        "span_file": os.path.relpath(span_file, ROOT), "note": spans.EXACTFIELD_NOTE,
        "inclusive_s_per_query": {k: v / 1e9 / outcome.attempted
                                  for k, v in sorted(tracer.total_ns.items())},
        "predictions": predictions(args.workload, metrics, tracer),
        "layer_map": spans.layer_map(),
        "failures": reasons, **environment(),
    }
    print(spans.EXACTFIELD_NOTE)
    for name, ok in record["predictions"].items():
        print("prediction %-66s %s" % (name, "holds" if ok else "FAILS"))
    print(json.dumps({"record": record}, sort_keys=True))
    return outcome, failed, metrics


def main_untraced(args):
    ct = import_centtype()
    setups, queries, digest = time_setups(args.workload, args.seed, SETUP_REPEATS)
    freeze()
    query = make_query(args.workload, ct)
    period = gen.period_length(args.workload)
    slots = latency_slots(args.workload, period, args.seconds)
    probe_before = host_probe()
    outcome = run_loop(queries, untraced(query), period, slots, args.seconds, MIN_QUERIES)
    # before the checks and the probe, so neither can set the peak
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe_after = host_probe()
    failed, reasons = verdict(queries, outcome, args.workload, ct)
    buffer_mb = slots * outcome.latencies_ns.itemsize / 2**20
    lat = sorted(outcome.latencies_ns)
    p90 = nearest_rank(lat, 90)
    metrics = {
        "query_p50_ms": statistics.median(lat) / 1e6,
        "query_p90_ms": p90 / 1e6,
        "throughput_qps": outcome.attempted / outcome.wall_s,
        "setup_s": statistics.median(
            a + b for a, b in zip(setups["import_s"], setups["generate_s"])),
        "peak_rss_mb": peak_rss_mb,
    }
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "mode": "untraced",
        "inputs_sha256": digest, "list_length": len(queries),
        "period": period, "samples": len(lat), "beyond_p90": sum(1 for x in lat if x > p90),
        "latency_buffer_mb": buffer_mb,
        "distinct_queries": sum(1 for s in outcome.first if s is not None),
        "loop_wall_s": outcome.wall_s, "failed_frac": failed / outcome.attempted,
        "host_probe_s": [probe_before, probe_after],
        "setup": setups,
        "failures": reasons, **environment(),
    }
    for name, m in metrics.items():
        print("%-12s %-16s %14.6f %s" % (args.workload, name, m["value"], m["unit"]))
    print("%-12s %-16s %14.6f ratio (%d of %d queries)"
          % (args.workload, "failed_frac", failed / outcome.attempted, failed, outcome.attempted))
    print("%-12s peak_rss_mb includes the benchmark's fixed %.3f MiB latency buffer"
          % (args.workload, buffer_mb))
    print(json.dumps({"record": record}, sort_keys=True))
    return outcome, failed, metrics


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not __debug__:
        print("refusing to run under python -O: frobenius_form and similar_conjugator "
              "verify their results only under __debug__", file=sys.stderr)
        return 2
    try:
        if args.trace:
            outcome, failed, metrics = main_traced(args)
        else:
            outcome, failed, metrics = main_untraced(args)
    except (SetupError, ImportError, OSError, subprocess.SubprocessError) as exc:
        print("benchmark cannot run: %s" % exc, file=sys.stderr)
        return 3
    result = {
        "correct": failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
