"""Named verification suites: randomized property checks and
exhaustive oracle comparisons that double as the acceptance evidence.

Each suite derives every instance from a single master seed, so runs
are reproducible and the report is byte-stable.  Failures carry the
offending inputs verbatim.

All nine suites run through one runner, `_suite`, and supply only a
task draw and a mathematical check.  A task is the identity of one
instance, a dict of its "instance" index and whatever the check reads.
`_worker(check, task)` runs `check(task)`; a check returns None or the
detail fields of a failure, and an exception becomes an "error" field.
Every failure record is the identity plus those fields, so `_worker`
replays it from its identity.  The five seeded suites draw a field (or
"p") and a 64-bit sub-seed "seed" per task, and their checks start
from `random.Random(task["seed"])`.  main-theorem-f2
names a pair by "n", "x" and "y", partition-formulas by its
"partition", and the permutation oracles by the degree "n" and the
cycle texts "g" and "h".

Each suite has a largest scale; a larger one is refused (TooLarge)
before any task is drawn.  A scale below 1, or below 2 for
main-theorem-f2, is a ParseError.  With one job each task is checked as
soon as it is drawn, so the oracle suites, which draw their tasks
lazily, never hold them all at once.  A process pool (--jobs) takes
them in batches of `_BATCH`, all through the one pool, and failures are
reported in instance order whatever the pool size.
"""

from __future__ import annotations

import functools
import itertools
import os
import random
import time
from dataclasses import dataclass

from .centkit import (
    cent_conjugate_bruteforce,
    cent_dim,
    cent_span_equal,
    centralizers_conjugate,
    witness_polynomials,
)
from .construct import (
    equivalent_pair,
    primary_matrix,
    random_invertible,
    random_irreducible,
    random_matrix,
    random_partition,
)
from .errors import ParseError, TooLarge, UnknownSuite
from .exactfield import ExtensionField, prime_field, random_elem
from .exactmat import (
    block_diag,
    companion,
    frobenius_form,
    mat_eval_poly,
    matrix_embed,
)
from .permcent import (
    CycleLayers,
    Permutation,
    _all_images,
    _centralizer_images,
    _decide_an,
    _decide_sn,
)
from .serialize import make_field, matrix_to_json
from .typealg import (
    Partition,
    cent_dim_formula,
    cent_dim_weight,
    cycle_type,
    dominance_leq,
    green_type,
    partitions_of,
)
from .upoly import Poly


@dataclass(frozen=True)
class VerifyReport:
    suite: str
    seed: int
    scale: int
    instances_checked: int
    failures: tuple
    elapsed: float

    @property
    def passed(self):
        return not self.failures


_BATCH = 4096


def _map_tasks(worker, tasks, jobs):
    """`worker` on each task, in task order, as the tasks are drawn: one
    process runs them one at a time, a pool `_BATCH` at a time."""
    # the pool forks every worker up front, so never ask for more than
    # there are tasks in the first batch or CPUs
    workers = min(jobs or 1, os.cpu_count() or 1)
    tasks = iter(tasks)
    batch = list(itertools.islice(tasks, _BATCH)) if workers > 1 else []
    workers = min(workers, len(batch))
    if workers <= 1:
        yield from map(worker, itertools.chain(batch, tasks))
        return
    # imported here, so that `import centtype` loads no process machinery
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        while batch:
            yield from pool.map(worker, batch, chunksize=max(1, len(batch) // (4 * workers)))
            batch = list(itertools.islice(tasks, _BATCH))


# -- the suite runner --

_FIELD_TAGS = ("Q", "F2", "F3", "F5")


def _worker(check, task):
    """Failure record of one instance, or None if it passes."""
    try:
        details = check(task)
    except Exception as exc:  # a crash is a failure, not an excuse
        details = {"error": repr(exc)}
    return None if details is None else {**task, **details}


def _suite(check, default_scale, max_scale, draw, seed, scale, jobs):
    """Run `check` on the tasks drawn at this scale; failures come in task
    order, which is instance order."""
    scale = default_scale if scale is None else scale
    if scale < 1:
        raise ParseError("scale must be at least 1, got %d" % scale)
    if scale > max_scale:
        raise TooLarge("scale must be at most %d, got %d" % (max_scale, scale))
    if jobs is not None and jobs < 1:
        raise ParseError("jobs must be at least 1, got %d" % jobs)
    tasks = draw(random.Random(seed), scale)
    checked, failures = 0, []
    for record in _map_tasks(functools.partial(_worker, check), tasks, jobs):
        checked += 1
        if record:
            failures.append(record)
    return scale, checked, failures


def _drawn_tasks(master, count, values=_FIELD_TAGS, key="field"):
    """Identities of instances 0, 1, ...: each draws its `key` from
    `values`, then a sub-seed."""
    return [
        {
            "instance": i,
            key: values[master.randrange(len(values))],
            "seed": master.getrandbits(64),
        }
        for i in range(count)
    ]


# -- centdim --


def _centdim_tasks(master, scale):
    return [
        {"instance": i * len(_FIELD_TAGS) + k, "field": tag, "seed": master.getrandbits(64)}
        for i in range(scale)
        for k, tag in enumerate(_FIELD_TAGS)
    ]


def _check_centdim(task):
    rng = random.Random(task["seed"])
    ctx = make_field(task["field"])
    n = rng.randint(1, 5 if task["field"] == "Q" else 6)
    m = random_matrix(ctx, n, rng)
    got = cent_dim(m)
    want = cent_dim_formula(cycle_type(m, seed=rng.getrandbits(32)))
    if got != want:
        return {"matrix": matrix_to_json(m), "formula": want, "commutant": got}
    return None


# -- nilpclass --


def _check_nilpclass(task):
    rng = random.Random(task["seed"])
    ctx = make_field(task["field"])
    q = task["field"] == "Q"
    d = rng.randint(1, 2 if q else 3)
    lam = random_partition(rng.randint(1, 3 if q else 4), rng)
    f = random_irreducible(ctx, d, rng)
    m = primary_matrix(f, lam, rng)
    nil = mat_eval_poly(f, m)
    ct = cycle_type(nil, seed=rng.getrandbits(32))
    want = ((Poly.x(ctx), lam.replicate(d)),)
    if ct.entries != want or not (nil**m.nrows).is_zero_matrix():
        return {"f": str(f), "partition": list(lam.parts), "got": str(ct)}
    return None


# -- dominance --


def _check_dominance(task):
    rng = random.Random(task["seed"])
    ctx = make_field(task["field"])
    q = task["field"] == "Q"
    d = rng.randint(1, 2 if q else 3)
    lam = random_partition(rng.randint(1, 3 if q else 4), rng)
    f = random_irreducible(ctx, d, rng)
    x = primary_matrix(f, lam, rng)
    hcoeffs = [random_elem(ctx, rng, 4) for _ in range(rng.randint(0, 4) + 1)]
    if rng.random() < 0.1:
        hcoeffs = []
    h = Poly(ctx, hcoeffs)
    gt = green_type(mat_eval_poly(h, x), seed=rng.getrandbits(32))
    ok = len(gt.entries) == 1
    if ok:
        e, mu = gt.entries[0]
        ok = (
            d % e == 0
            and e * mu.size == d * lam.size
            and dominance_leq(mu.replicate(e), lam.replicate(d))
        )
    if not ok:
        return {"f": str(f), "partition": list(lam.parts), "h": str(h), "got": str(gt)}
    return None


# -- main-theorem-f2 --


def _monics(ctx, d):
    for tail in itertools.product(range(ctx.p), repeat=d):
        yield Poly(ctx, [ctx.elem(c) for c in tail] + [ctx.one])


def _invariant_chains(ctx, n):
    """All chains d_1 | d_2 | ... of monic nonunits with degree sum n."""

    def rec(prev, rem):
        if rem == 0:
            yield ()
            return
        for d in range(1, rem + 1):
            for m in _monics(ctx, d):
                if prev is not None and not (m % prev).is_zero():
                    continue
                for rest in rec(m, rem - d):
                    yield (m,) + rest

    return list(rec(None, n))


def _mainf2_tasks(master, scale):
    """Every pair of invariant-factor chains of degree n = 2..scale, each
    chain a list of coefficient lists."""
    if scale < 2:
        raise ParseError("main-theorem-f2 scale must be at least 2, got %d" % scale)
    ctx = prime_field(2)
    tasks = []
    for n in range(2, scale + 1):
        chains = [[list(f._vals) for f in chain] for chain in _invariant_chains(ctx, n)]
        for i, x in enumerate(chains):
            for y in chains[i:]:
                tasks.append({"instance": len(tasks), "n": n, "x": x, "y": y})
    return tasks


def _check_mainf2(task):
    ctx = prime_field(2)
    x, y = (block_diag([companion(Poly(ctx, f)) for f in task[k]]) for k in ("x", "y"))
    verdict = centralizers_conjugate(x, y).conjugate
    brute = cent_conjugate_bruteforce(x, y)
    if verdict != brute:
        return {"theorem": verdict, "brute": brute}
    return None


# -- witness-roundtrip --


def _check_witness(task):
    rng = random.Random(task["seed"])
    ctx = make_field(task["field"])
    cap = 8 if task["field"] == "Q" else 10
    comps = []
    f, g = equivalent_pair(ctx, rng)
    lam = random_partition(rng.randint(1, 3), rng)
    comps.append((f, g, lam))
    if rng.random() < 0.25:
        for _ in range(30):
            f2, g2 = equivalent_pair(ctx, rng)
            if f2 != f and g2 != g:
                lam2 = random_partition(rng.randint(1, 2), rng)
                if f.degree * lam.size + f2.degree * lam2.size <= cap:
                    comps.append((f2, g2, lam2))
                break
    u = random_invertible(ctx, sum(f.degree * l.size for f, _, l in comps), rng, 2)
    v = random_invertible(ctx, u.nrows, rng, 2)
    bx = block_diag([primary_matrix(f, l, rng, conjugate=False) for f, _, l in comps])
    by = block_diag([primary_matrix(g, l, rng, conjugate=False) for _, g, l in comps])
    x = u * bx * u.inverse()
    y = v * by * v.inverse()
    got = witness_polynomials(x, y, seed=rng.getrandbits(32))
    if got is None:
        raise AssertionError("no witness for an equal-type pair")
    p, q = got
    px = mat_eval_poly(p, x)
    ok = (
        frobenius_form(px).invariant_factors == frobenius_form(y).invariant_factors
        and frobenius_form(mat_eval_poly(q, y)).invariant_factors
        == frobenius_form(x).invariant_factors
        and cent_span_equal(px, x)
    )
    if not ok:
        return {
            "components": [[str(f), str(g), list(l.parts)] for f, g, l in comps],
            "p": str(p),
            "q": str(q),
        }
    return None


# -- partition-formulas --


def _weight_minsum(lam):
    mults = lam.mults()
    return sum(
        min(j, k) * mj * mk for j, mj in mults.items() for k, mk in mults.items()
    )


def _weight_odd(lam):
    return sum((2 * i - 1) * part for i, part in enumerate(lam.parts, start=1))


def _partition_tasks(master, scale):
    lams = [lam for size in range(1, scale + 1) for lam in partitions_of(size)]
    return [{"instance": i, "partition": list(lam)} for i, lam in enumerate(lams, start=1)]


def _check_partition(task):
    lam = Partition(task["partition"])
    a, b, c = cent_dim_weight(lam), _weight_minsum(lam), _weight_odd(lam)
    if not (a == b == c):
        return {"conjugate_square": a, "min_sum": b, "odd_sum": c}
    return None


# -- sn-oracle / an-oracle --


@functools.lru_cache(maxsize=None)
def _oracle_data(n, group):
    """The elements of S_n (or A_n), by cycle text, with their images and
    layers, and the brute-force centralizer of an images tuple, computed
    once per process."""
    perms = [Permutation(t) for t in _all_images(n)]
    if group == "A":
        perms = [g for g in perms if g.is_even()]
    universe = tuple(g.images for g in perms)
    cent = functools.lru_cache(maxsize=None)(lambda g: _centralizer_images(g, universe))
    return {str(g): (g.images, CycleLayers(g)) for g in perms}, cent


def _oracle_tasks(group, master, scale):
    """For n = scale <= 6, every pair (g, h) of S_n (or A_n) with g at or
    before h in universe order; at n = 7, 10000 pairs drawn from the
    master rng."""
    texts = list(_oracle_data(scale, group)[0])
    count = len(texts)
    if scale <= 6:
        pairs = ((i, j) for i in range(count) for j in range(i, count))
    else:
        pairs = ((master.randrange(count), master.randrange(count)) for _ in range(10000))
    for k, (i, j) in enumerate(pairs):
        yield {"instance": k, "n": scale, "g": texts[i], "h": texts[j]}


def _check_oracle(group, task):
    elems, cent = _oracle_data(task["n"], group)
    (g, lg), (h, lh) = elems[task["g"]], elems[task["h"]]
    rep = (_decide_sn if group == "S" else _decide_an)(lg, lh)
    brute = cent(g) == cent(h)
    if rep.equal != brute:
        return {"theorem": rep.equal, "kind": rep.kind, "brute": brute}
    return None


# -- extension-separable --


def _check_extsep(task):
    rng = random.Random(task["seed"])
    base = prime_field(task["p"])
    d = rng.randint(1, 3)
    lam = random_partition(rng.randint(1, 3), rng)
    f = random_irreducible(base, d, rng)
    x = primary_matrix(f, lam, rng)
    ext = ExtensionField(base, f.coeffs)
    ct = cycle_type(matrix_embed(x, ext), seed=rng.getrandbits(32))
    ok = len(ct.entries) == d and all(g.degree == 1 and mu == lam for g, mu in ct.entries)
    if not ok:
        return {"f": str(f), "partition": list(lam.parts), "got": str(ct)}
    return None


# each suite: its check, default scale, largest scale and task draw
_SUITES = {
    "centdim": functools.partial(_suite, _check_centdim, 200, 10000, _centdim_tasks),
    "nilpclass": functools.partial(_suite, _check_nilpclass, 100, 10000, _drawn_tasks),
    "dominance": functools.partial(_suite, _check_dominance, 200, 10000, _drawn_tasks),
    "main-theorem-f2": functools.partial(_suite, _check_mainf2, 3, 3, _mainf2_tasks),
    "witness-roundtrip": functools.partial(
        _suite,
        _check_witness,
        100,
        10000,
        functools.partial(_drawn_tasks, values=("Q", "F3", "F5")),
    ),
    "sn-oracle": functools.partial(
        _suite,
        functools.partial(_check_oracle, "S"),
        5,
        7,
        functools.partial(_oracle_tasks, "S"),
    ),
    "an-oracle": functools.partial(
        _suite,
        functools.partial(_check_oracle, "A"),
        5,
        7,
        functools.partial(_oracle_tasks, "A"),
    ),
    "partition-formulas": functools.partial(_suite, _check_partition, 12, 40, _partition_tasks),
    "extension-separable": functools.partial(
        _suite,
        _check_extsep,
        50,
        10000,
        functools.partial(_drawn_tasks, values=(2, 3, 5), key="p"),
    ),
}


def suite_names():
    return tuple(_SUITES)


def run_suite(name, seed=0, scale=None, jobs=1):
    fn = _SUITES.get(name)
    if fn is None:
        raise UnknownSuite(
            "unknown suite %r; choose from %s" % (name, ", ".join(_SUITES))
        )
    start = time.perf_counter()
    resolved, checked, failures = fn(seed, scale, jobs)
    elapsed = time.perf_counter() - start
    return VerifyReport(
        suite=name,
        seed=seed,
        scale=resolved,
        instances_checked=checked,
        failures=tuple(failures),
        elapsed=elapsed,
    )
