"""Seeded query lists for the benchmark's workloads.

Everything here is plain Python on ints (see `plain`); it
never imports centtype, so a change to the library cannot change the
inputs it is measured on.  Each workload repeats a fixed schedule of
query shapes (matrix size, field, positive or negative pair, permutation
kind); the seed draws the content of every slot.  A run always measures
whole schedule periods, so every run of a workload has the same mix.

A query is a JSON document, parsed inside the timed interval exactly as
the CLI parses its input, and an ``expect`` record that says what the
construction guarantees about the answer.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from dataclasses import dataclass
from math import gcd

import plain

WORKLOADS = ("conj-fp", "perm-decide")

# Query-list length per workload.  The loop wraps around when a run
# outlasts the list: perm-decide (microsecond queries) always does, and
# conj-fp does on a fast host (800 queries last 55 s at 14.5 queries/s).
# A second pass finds warm only typealg's polynomial caches, whose spans
# (poly_equivalent, poly_roots_in_ext) take under 2% of a conj-fp query.
LIST_PERIODS = {"conj-fp": 20, "perm-decide": 60}


@dataclass(frozen=True)
class Query:
    doc: str
    expect: dict


def _partitions(n, cap=None):
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _random_partition(rng, size):
    return rng.choice(list(_partitions(size)))


def _transvections(rng, n, p):
    """Random change of basis as (row, col, coefficient) steps."""
    ops = []
    for _ in range(2 * n):
        a, b = rng.sample(range(n), 2)
        ops.append((a, b, plain.red(rng.choice((1, -1)), p)))
    return ops


def _conjugated(blocks, rng, p):
    B = plain.block_diag(blocks)
    return plain.conjugate_by_transvections(B, _transvections(rng, len(B), p), p)


def _primary_blocks(f, lam, p):
    return [plain.companion(plain.ppow(f, part, p), p) for part in lam]


def _matrix_doc(rows, p):
    return {"field": {"kind": "Fp", "p": p}, "rows": rows}


def _type_key(comps):
    """Multiset of (class, partition) pairs, comparable across matrices."""
    return sorted((cls, tuple(lam)) for cls, lam in comps)


# -- conj-fp: centralizer conjugacy over F3 and F5 --

@functools.lru_cache(maxsize=None)
def _fp_irreducibles(p, d):
    """Monic irreducibles of degree d <= 3 over F_p, by the root test."""
    out = []
    for code in range(p**d):
        f = [(code // p**i) % p for i in range(d)] + [1]
        if d == 1 or not plain.has_root_mod(f, p):
            out.append(tuple(f))
    return tuple(out)


def _fp_shape(rng, n, p):
    """[(degree, partition)] of total size n with some partition of length >= 2."""
    while True:
        comps, left = [], n
        while left:
            d = rng.choice([d for d in (1, 2, 3) if d <= left])
            size = rng.randint(1, min(4, left // d))
            comps.append((d, _random_partition(rng, size)))
            left -= d * size
        counts = {}
        for d, _ in comps:
            counts[d] = counts.get(d, 0) + 1
        if any(len(lam) > 1 for _, lam in comps) and all(
            c <= len(_fp_irreducibles(p, d)) for d, c in counts.items()
        ):
            return comps


def _fp_polys(rng, shape, p):
    """Distinct irreducibles of the degrees in shape."""
    used, out = set(), []
    for d, _ in shape:
        f = rng.choice([f for f in _fp_irreducibles(p, d) if f not in used])
        used.add(f)
        out.append(list(f))
    return out


def _fp_matrix(rng, shape, polys, p):
    blocks = [b for (_, lam), f in zip(shape, polys) for b in _primary_blocks(f, lam, p)]
    return _conjugated(blocks, rng, p)


def _slots(text):
    """Schedule text like "d5 N4" -> [("d", 5), ("N", 4)]."""
    return [(w[0], int(w[1:])) for w in text.split()]


# One conj-fp period of 40 slots: d = a pair sharing a Green type built
# from primary blocks f^lambda, D = a dense random matrix and a conjugate
# of it, N = a negative pair (one partition changed); the number is n.
# Sizes are weighted toward small n with about 70% positive pairs.
# Positives stop at n = 8: one at n = 10 costs about half a period, so
# throughput and p90 would hinge on a single query; n = 9 and 10 come as
# negatives.  The mix spreads latencies evenly, on a log scale, over
# about 20 to 175 ms around the median (n = 4 positives, n = 5, the n = 9
# and 10 negatives, n = 6 positives in roughly equal shares).  A median
# inside one narrow cluster of equal-cost queries reads either the host's
# fast or its slow phase, whichever holds more of the run, so it jumps
# between runs; inside an even spread it moves in proportion to the host
# speed, as throughput does.  The 90th percentile lies inside the n = 6
# positives, below the three largest queries.
_CONJ_FP_SLOTS = _slots(
    "d5 N4 D4 d6 N9 D5 d4 N10 D6 d5 N8 D4 d8 N5 d5 d4 N10 D5 d6 N7 "
    "D4 N9 D7 d4 D5 N10 d6 N6 D5 d5 N8 D6 d4 N9 d6 D4 d8 N10 d6 D6"
)


def _conj_fp_query(rng, srng, n, kind, p):
    if kind == "D":
        X = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        Y = plain.conjugate_by_transvections(X, _transvections(rng, n, p), p)
        conjugate = True
    else:
        shape = _fp_shape(srng, n, p)
        yshape = list(shape)
        if kind == "N":
            i = srng.choice([i for i, (_, lam) in enumerate(shape) if sum(lam) > 1])
            d, lam = shape[i]
            yshape[i] = (d, srng.choice([mu for mu in _partitions(sum(lam)) if mu != lam]))
        X = _fp_matrix(rng, shape, _fp_polys(rng, shape, p), p)
        Y = _fp_matrix(rng, yshape, _fp_polys(rng, yshape, p), p)
        # over a finite field every two irreducibles of one degree are
        # equivalent, so the class of a component is its degree
        conjugate = _type_key(shape) == _type_key(yshape)
    doc = {"x": _matrix_doc(X, p), "y": _matrix_doc(Y, p)}
    return doc, {"p": p, "X": X, "Y": Y, "conjugate": conjugate}


def conj_fp(rng):
    srng = random.Random("conj-fp schedule")
    out = []
    for i, (kind, n) in enumerate(_CONJ_FP_SLOTS):
        out.append(_conj_fp_query(rng, srng, n, kind, 3 if i % 2 == 0 else 5))
    return out


# -- perm-decide: equality of permutation centralizers in S_n and A_n --


def cycles_to_images(cycles, n):
    imgs = list(range(1, n + 1))
    for c in cycles:
        for j, x in enumerate(c):
            imgs[x - 1] = c[(j + 1) % len(c)]
    return tuple(imgs)


def images_to_cycles(imgs):
    seen, out = set(), []
    for start in range(1, len(imgs) + 1):
        if start in seen:
            continue
        c, x = [], start
        while x not in seen:
            seen.add(x)
            c.append(x)
            x = imgs[x - 1]
        out.append(tuple(c))
    return out


def perm_text(imgs):
    cs = [c for c in images_to_cycles(imgs) if len(c) > 1]
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cs) or "()"


def compose(g, h):
    """(g h)(x) = g(h(x))."""
    return tuple(g[h[i] - 1] for i in range(len(g)))


def is_even(imgs):
    return sum(len(c) - 1 for c in images_to_cycles(imgs)) % 2 == 0


def _power_cycle(c, k):
    """Images of the cycle c raised to the k-th power, as a dict."""
    return {x: c[(j + k) % len(c)] for j, x in enumerate(c)}


def _apply_power(cycles, k, n):
    """Product of the given cycles each raised to the power k."""
    imgs = list(range(1, n + 1))
    for c in cycles:
        for x, y in _power_cycle(c, k).items():
            imgs[x - 1] = y
    return tuple(imgs)


def _lay(lengths, start):
    cycles, nxt = [], start
    for L in lengths:
        cycles.append(tuple(range(nxt, nxt + L)))
        nxt += L
    return cycles, nxt


def _coprime_to_all(rng, lengths):
    opts = [k for k in range(2, 26) if all(gcd(k, L) == 1 for L in lengths)]
    return rng.choice(opts)


def _distinct_odd(rng, excluded, budget):
    """Distinct odd cycle lengths (1 counts as a fixed point) summing to <= budget."""
    pool = [L for L in range(1, budget + 1, 2) if L not in excluded]
    rng.shuffle(pool)
    out, total = [], 0
    for L in pool:
        if total + L <= budget and rng.random() < 0.6:
            out.append(L)
            total += L
    return out


def _no_small(rng, budget, odd=False):
    """Cycle lengths >= 3 (no fixed points, no transpositions) summing to
    <= budget, forming an odd permutation if asked; None if none was found."""
    for _ in range(20):
        out, total = [], 0
        while total + 3 <= budget and rng.random() < 0.8:
            L = rng.randint(3, min(8, budget - total))
            out.append(L)
            total += L
        if not odd or sum(L - 1 for L in out) % 2 == 1:
            return out
    return None


def _relabel(rng, n, perms):
    pi = list(range(1, n + 1))
    rng.shuffle(pi)
    return [tuple(pi[img[pi.index(x + 1)] - 1] for x in range(n)) for img in perms]


def _perm_pair(rng, kind):
    """(group, g, h, kind the theorem assigns, equal) for one pattern."""
    while True:
        n = rng.randint(6, 24)
        if kind in ("equivalent-sn", "equivalent-an", "near-sn", "near-an"):
            imgs = list(range(1, n + 1))
            rng.shuffle(imgs)
            g = tuple(imgs)
            group = "an" if kind.endswith("an") else "sn"
            if group == "an" and not is_even(g):
                g = compose(g, cycles_to_images([(1, 2)], n))
            if kind.startswith("equivalent"):
                lengths = [len(c) for c in images_to_cycles(g)]
                k = _coprime_to_all(rng, lengths)
                h = _apply_power(images_to_cycles(g), k, n)
                return group, g, h, "equivalent", True
            a, b = rng.sample(range(1, n + 1), 2)
            t = cycles_to_images([(a, b)], n)
            h = compose(compose(t, g), t)
            if compose(g, h) == compose(h, g):
                continue
            return group, g, h, "not-equal", False
        if kind == "S-case-1":
            rest, nxt = _lay(_no_small(rng, n - 2), 3)
            k = _coprime_to_all(rng, [len(c) for c in rest])
            g = cycles_to_images([(1, 2)] + rest, nxt - 1)
            h = _apply_power(rest, k, nxt - 1)
            return "sn", g, h, "S-case-1", True
        if kind in ("S-case-2", "A-case-1"):
            lengths = _no_small(rng, n - 4, odd=(kind == "A-case-1"))
            if lengths is None:
                continue
            rest, nxt = _lay(lengths, 5)
            k = _coprime_to_all(rng, [len(c) for c in rest])
            m = nxt - 1
            g = cycles_to_images([(1, 2)] + rest, m)
            h = compose(cycles_to_images([(3, 4)], m), _apply_power(rest, k, m))
            return ("an" if kind == "A-case-1" else "sn"), g, h, kind, True
        if kind == "A-case-2":
            rest, nxt = _lay(_distinct_odd(rng, set(), n - 4), 5)
            k = _coprime_to_all(rng, [len(c) for c in rest])
            m = nxt - 1
            g = cycles_to_images([(1, 2), (3, 4)] + rest, m)
            h = compose(cycles_to_images([(1, 3), (2, 4)], m), _apply_power(rest, k, m))
            return "an", g, h, kind, True
        if kind == "A-case-3":
            rest, nxt = _lay(_distinct_odd(rng, {1, 3}, n - 6), 7)
            k = _coprime_to_all(rng, [len(c) for c in rest])
            m = nxt - 1
            tail = _apply_power(rest, k, m)
            if rng.random() < 0.5:
                g = cycles_to_images([(1, 2, 3)] + rest, m)
                h = compose(cycles_to_images([(4, 5, 6)], m), tail)
            else:
                g = cycles_to_images([(1, 2, 3), (4, 5, 6)] + rest, m)
                h = compose(cycles_to_images([(1, 3, 2)], m), tail)
            return "an", g, h, kind, True
        if kind == "A-case-4":
            L = rng.choice([L for L in (3, 5, 7, 9) if 2 * L <= n])
            (c1, c2), nxt = _lay([L, L], 1)
            rest, nxt = _lay(_distinct_odd(rng, {L}, n - 2 * L), nxt)
            m = nxt - 1
            units = [e for e in range(1, L) if gcd(e, L) == 1]
            e1, e2 = rng.sample(units, 2)
            k = _coprime_to_all(rng, [len(c) for c in rest])
            g = cycles_to_images([c1, c2] + rest, m)
            h = compose(compose(_apply_power([c1], e1, m), _apply_power([c2], e2, m)),
                        _apply_power(rest, k, m))
            return "an", g, h, kind, True
        raise ValueError(kind)


_PERM_KINDS = ["equivalent-sn", "S-case-1", "S-case-2", "near-sn", "equivalent-an",
               "A-case-1", "A-case-2", "A-case-3", "A-case-4", "near-an"]


def _perm_query(rng, kind):
    while True:
        group, g, h, expect_kind, equal = _perm_pair(rng, kind)
        if 6 <= len(g) <= 24:
            break
    n = len(g)
    g, h = _relabel(rng, n, [g, h])
    if rng.random() < 0.5:
        g, h = h, g
    doc = {"g": perm_text(g), "h": perm_text(h), "group": group, "n": n}
    return doc, {"g": g, "h": h, "group": group, "kind": expect_kind, "equal": equal}


def perm_decide(rng):
    return [_perm_query(rng, kind) for kind in _PERM_KINDS]


# workload -> (one period of queries, schedule of that period)
_PERIODS = {
    "conj-fp": (conj_fp, _CONJ_FP_SLOTS),
    "perm-decide": (perm_decide, _PERM_KINDS),
}


def period_length(workload):
    return len(_PERIODS[workload][1])


def generate(workload, seed):
    """The workload's query list for this seed: whole schedule periods."""
    rng = random.Random("%s:%d" % (workload, seed))
    out = []
    for _ in range(LIST_PERIODS[workload]):
        for doc, expect in _PERIODS[workload][0](rng):
            out.append(Query(json.dumps(doc, sort_keys=True, separators=(",", ":")), expect))
    return out


def digest(queries):
    h = hashlib.sha256()
    for q in queries:
        h.update(q.doc.encode())
        h.update(b"\n")
    return h.hexdigest()
