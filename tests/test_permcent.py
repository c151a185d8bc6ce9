import collections
import itertools
import math
import random
import re

import pytest

from centtype import (
    CycleLayers,
    OddPermutation,
    ParseError,
    Permutation,
    TooLarge,
    VariationReport,
    an_cent_equal,
    perm_centralizer_bruteforce,
    sn_cent_equal,
)
from centtype.serialize import permutation_from_text

P = Permutation.parse


def random_permutation(n, rng):
    imgs = list(range(1, n + 1))
    rng.shuffle(imgs)
    return Permutation(imgs)


def test_parse_and_str():
    g = P("(1 2 3)(4 5)")
    assert g.images == (2, 3, 1, 5, 4)
    assert str(g) == "(1 2 3)(4 5)"
    assert str(P("()", n=3)) == "()"
    assert P("(1 2)", n=4).images == (2, 1, 3, 4)
    assert P("(1,2)(3,4)").images == (2, 1, 4, 3)


def test_parse_errors():
    with pytest.raises(ParseError):
        P("(1 2")
    with pytest.raises(ParseError):
        P("(1 2)(2 3)")
    with pytest.raises(ParseError):
        P("(0 1)")
    with pytest.raises(ParseError):
        P("(1 5)", n=3)
    with pytest.raises(ParseError):
        Permutation([1, 1, 3])


def test_group_ops():
    g = P("(1 2 3)")
    h = P("(1 2)")
    assert (g * h).images == P("(1 3)", n=3).images
    assert (h * g).images == P("(2 3)", n=3).images
    assert (g * g.inverse()) == Permutation.identity(3)
    assert g**3 == Permutation.identity(3)
    assert g**-1 == g.inverse()
    assert g.order() == 3
    assert P("(1 2 3)(4 5)").order() == 6


def test_group_ops_random():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randrange(1, 9)
        g = random_permutation(n, rng)
        h = random_permutation(n, rng)
        k = random_permutation(n, rng)
        assert (g * h) * k == g * (h * k)
        assert (g * h).inverse() == h.inverse() * g.inverse()
        assert g ** g.order() == Permutation.identity(n)
        assert g.is_even() == (len([c for c in g.cycles(include_fixed=True) if len(c) % 2 == 0]) % 2 == 0)


def test_mixed_degree_product():
    g = P("(1 2)")
    h = P("(3 4)")
    assert (g * h).images == (2, 1, 4, 3)


def test_cycles_and_support():
    g = P("(3 1 2)(6 5)", n=7)
    assert g.cycles() == ((1, 2, 3), (5, 6))
    assert g.fixed_points() == frozenset({4, 7})
    assert g.support() == frozenset({1, 2, 3, 5, 6})
    layers = CycleLayers(g)
    assert layers.cycles(3) == ((1, 2, 3),)
    assert layers.cycles(2) == ((5, 6),)
    assert layers.support(1) == frozenset({4, 7})


def test_cycle_readers_match_a_walk_over_s6():
    """cycles(), str, is_even() and order() read CycleLayers; here each
    is checked on all of S_6 against a cycle walk of its own."""
    for images in itertools.permutations(range(1, 7)):
        g = Permutation(images)
        walk, seen = [], set()
        for start in range(1, 7):
            if start not in seen:
                c = [start]
                while images[c[-1] - 1] != start:
                    c.append(images[c[-1] - 1])
                seen.update(c)
                walk.append(tuple(c))
        moved = [c for c in walk if len(c) > 1]
        assert g.cycles(include_fixed=True) == tuple(walk)
        assert g.cycles() == tuple(moved)
        assert str(g) == ("".join("(%s)" % " ".join(map(str, c)) for c in moved) or "()")
        assert g.is_even() == (sum(len(c) - 1 for c in walk) % 2 == 0)
        assert g.order() == math.lcm(*map(len, walk))
        assert g ** g.order() == Permutation.identity(6)


def test_parity():
    assert not P("(1 2)").is_even()
    assert P("(1 2 3)").is_even()
    assert P("(1 2)(3 4)").is_even()


def test_cent_order_formula():
    # the brute-force centralizer in S_n has order prod i^m_i m_i!
    for text, n, order in (("()", 5, 120), ("(1 2)", 4, 4), ("(1 2)(3 4)", 4, 8), ("(1 2 3)", 4, 3)):
        assert len(perm_centralizer_bruteforce(P(text, n=n), "S")) == order
    for n in (4, 5, 6):
        rng = random.Random(n)
        for _ in range(10):
            g = random_permutation(n, rng)
            mults = collections.Counter(map(len, g.cycles(include_fixed=True)))
            order = math.prod(i**m * math.factorial(m) for i, m in mults.items())
            assert len(perm_centralizer_bruteforce(g, "S")) == order


def test_bruteforce_guards():
    with pytest.raises(TooLarge):
        perm_centralizer_bruteforce(Permutation.identity(10))
    with pytest.raises(OddPermutation):
        perm_centralizer_bruteforce(P("(1 2)", n=4), "A")
    with pytest.raises(OddPermutation):
        an_cent_equal(P("(1 2)", n=4), P("(3 4)", n=4))


def test_layer_parity_matches_is_even():
    for images in itertools.permutations(range(1, 6)):
        g = Permutation(images)
        assert CycleLayers(g).even == g.is_even()
    even, odd = P("(1 2 3)", n=4), P("(1 2)", n=4)
    with pytest.raises(OddPermutation, match="first argument is odd"):
        an_cent_equal(odd, even)
    with pytest.raises(OddPermutation, match="second argument is odd"):
        an_cent_equal(even, odd)


def test_locally_equivalent():
    g = P("(1 2 3 4 5)", n=5)
    assert sn_cent_equal(g, g**2) == VariationReport(True, "equivalent")
    assert sn_cent_equal(g, g**3) == VariationReport(True, "equivalent")
    h = P("(1 2 3 5 4)", n=5)
    assert sn_cent_equal(g, h) == VariationReport(False, "not-equal", (5,))


def test_sn_swap_cases():
    # a transposition and its fixed pair trade places
    r = sn_cent_equal(P("(1 2)", n=2), P("()", n=2))
    assert r.equal and r.kind == "S-case-1"
    r = sn_cent_equal(P("(1 2)", n=4), P("(3 4)", n=4))
    assert r.equal and r.kind == "S-case-2"
    r = sn_cent_equal(P("(1 2)", n=5), P("(3 4)", n=5))
    assert not r.equal  # a fifth point breaks the trade
    r = sn_cent_equal(P("(1 2)(3 4 5 6)", n=8), P("(7 8)(3 4 5 6)", n=8))
    assert r.equal and r.kind == "S-case-2"


def test_equivalent_pairs_share_centralizers():
    g = P("(1 2 3 4 5)", n=5)
    assert sn_cent_equal(g, g**2).equal
    assert an_cent_equal(g, g**3).equal
    assert sn_cent_equal(g, g**2).kind == "equivalent"


def test_an_klein_case():
    r = an_cent_equal(P("(1 2)(3 4)", n=4), P("(1 3)(2 4)", n=4))
    assert r.equal and r.kind == "A-case-2"
    r = an_cent_equal(P("(1 2)(3 4)", n=5), P("(1 3)(2 4)", n=5))
    assert r.equal and r.kind == "A-case-2"  # one fixed point is fine
    r = an_cent_equal(P("(1 2)(3 4)", n=6), P("(1 3)(2 4)", n=6))
    assert not r.equal  # two fixed points are not
    r = an_cent_equal(P("(1 2)(3 4)(5 6 7)", n=7), P("(1 3)(2 4)(5 6 7)", n=7))
    assert r.equal and r.kind == "A-case-2"


def test_an_three_point_blocks():
    # a 3-cycle and a fixed triple contribute the same even part
    r = an_cent_equal(P("(1 2 3)", n=3), P("()", n=3))
    assert r.equal and r.kind == "A-case-3"
    r = an_cent_equal(P("(1 2 3)", n=6), P("(4 5 6)", n=6))
    assert r.equal and r.kind == "A-case-3"
    r = an_cent_equal(P("(1 2 3)", n=6), P("(1 2 3)(4 5 6)", n=6))
    assert r.equal and r.kind == "A-case-3"
    r = an_cent_equal(P("(1 2 3)", n=6), P("(1 2 3)(4 6 5)", n=6))
    assert r.equal and r.kind == "A-case-3"
    # orientations inside a block never matter
    r = an_cent_equal(P("(1 3 2)", n=6), P("(4 6 5)", n=6))
    assert r.equal and r.kind == "A-case-3"
    # a 4th fixed point brings in a bigger alternating group
    assert not an_cent_equal(P("(1 2 3)", n=7), P("(4 5 6)", n=7)).equal
    assert not an_cent_equal(P("(1 2 3)", n=7), P("(1 2 3)(4 5 6)", n=7)).equal
    # three blocks never trade
    assert not an_cent_equal(
        P("(1 2 3)(4 5 6)(7 8 9)", n=9), P("(1 2 3)(4 5 6)", n=9)
    ).equal


def test_an_exponent_case():
    r = an_cent_equal(P("(1 2 3)(4 5 6)", n=6), P("(1 2 3)(4 6 5)", n=6))
    assert r.equal and r.kind == "A-case-4"
    r = an_cent_equal(P("(1 2 3)(4 5 6)", n=7), P("(1 2 3)(4 6 5)", n=7))
    assert r.equal and r.kind == "A-case-4"
    # two fixed points revive the odd block swap: not equal
    assert not an_cent_equal(P("(1 2 3)(4 5 6)", n=8), P("(1 2 3)(4 6 5)", n=8)).equal
    # uniform powers are just equivalent
    g = P("(1 2 3 4 5)(6 7 8 9 10)", n=10)
    assert an_cent_equal(g, g**2).kind == "equivalent"
    # distinct exponents on two 5-cycles
    w = P("(1 2 3 4 5)(6 8 10 7 9)", n=10)  # second cycle squared only
    r = an_cent_equal(g, w)
    assert r.equal and r.kind == "A-case-4"


def test_an_case1_first_appears_at_degree_8():
    g = P("(1 2)(3 4 5 6)", n=8)
    h = P("(7 8)(3 4 5 6)", n=8)
    r = an_cent_equal(g, h)
    assert r.equal and r.kind == "A-case-1"
    assert perm_centralizer_bruteforce(g, "A") == perm_centralizer_bruteforce(h, "A")
    assert perm_centralizer_bruteforce(g, "S") == perm_centralizer_bruteforce(h, "S")


def test_an_blocks_against_bruteforce():
    for n, gs, hs in [
        (6, "(1 2 3)", "(4 5 6)"),
        (6, "(1 2 3)", "(1 2 3)(4 5 6)"),
        (7, "(1 2 3)", "(4 5 6)"),
        (7, "(1 2 3)(4 5 6)", "(1 2 3)(4 6 5)"),
        (8, "(1 2 3)(4 5 6)", "(1 2 3)(4 6 5)"),
        (3, "(1 2 3)", "()"),
    ]:
        g, h = P(gs, n=n), P(hs, n=n)
        want = perm_centralizer_bruteforce(g, "A") == perm_centralizer_bruteforce(h, "A")
        assert an_cent_equal(g, h).equal == want


def test_sn_exhaustive_n4():
    universe = [Permutation(imgs) for imgs in itertools.permutations(range(1, 5))]
    cents = {g: perm_centralizer_bruteforce(g, "S") for g in universe}
    for g in universe:
        for h in universe:
            assert sn_cent_equal(g, h).equal == (cents[g] == cents[h])


def test_an_exhaustive_n5():
    universe = [
        Permutation(imgs)
        for imgs in itertools.permutations(range(1, 6))
        if Permutation(imgs).is_even()
    ]
    cents = {g: perm_centralizer_bruteforce(g, "A") for g in universe}
    for g in universe:
        for h in universe:
            assert an_cent_equal(g, h).equal == (cents[g] == cents[h])


def test_degree_mismatch():
    r = sn_cent_equal(P("(1 2)", n=2), P("(1 2)", n=3))
    assert not r.equal


def test_identity_rejects_negative_degree():
    assert Permutation.identity(0).images == ()
    assert Permutation.identity(3).images == (1, 2, 3)
    for n in (-1, -3):
        with pytest.raises(ParseError, match="degree must be non-negative, got %d" % n):
            Permutation.identity(n)


def test_identity_rejects_non_integer_degree():
    for n in ("3", 2.5):
        with pytest.raises(ParseError, match="bad degree"):
            Permutation.identity(n)
    assert Permutation.identity(True).images == (1,)


def test_extend_rejects_non_integer_degree():
    g = Permutation([2, 1])
    for n in ("3", 2.5):
        with pytest.raises(ParseError, match="bad degree"):
            g.extend(n)
    assert g.extend(3).images == (2, 1, 3)


def _padded(g, n):
    return g.images + tuple(range(g.degree + 1, n + 1))


def _ref_mul(g, h):
    """g * h from the definition, through the validating constructor."""
    n = max(g.degree, h.degree)
    gi, hi = _padded(g, n), _padded(h, n)
    return Permutation([gi[hi[x] - 1] for x in range(n)])


def _ref_pow(g, e):
    if e < 0:
        g, e = Permutation([g.images.index(x) + 1 for x in range(1, g.degree + 1)]), -e
    acc = Permutation(range(1, g.degree + 1))
    for _ in range(e):
        acc = _ref_mul(acc, g)
    return acc


def _assert_validated(got, want):
    """`got` has plain int images that the validating constructor accepts,
    and they are those of `want`."""
    assert all(type(v) is int for v in got.images)
    assert Permutation(got.images).images == got.images == want.images


def _layers_from_cycles(g):
    by_len = {}
    for c in g.cycles(include_fixed=True):
        by_len.setdefault(len(c), []).append(c)
    return by_len


def test_trusted_paths_match_the_validating_constructor():
    """Every internally built permutation equals its definition, built
    through `Permutation(images)`, and holds only plain ints."""
    rng = random.Random(2024)
    perms = [
        Permutation(t) for n in range(7) for t in itertools.permutations(range(1, n + 1))
    ]
    perms += [random_permutation(rng.randrange(1, 41), rng) for _ in range(150)]
    for g in perms:
        n = g.degree
        _assert_validated(Permutation.from_cycles(g.cycles(), n=n), g)
        top = max(g.support(), default=0)
        _assert_validated(
            Permutation.from_cycles(g.cycles()), Permutation(g.images[:top])
        )
        _assert_validated(P(str(g), n=n), g)
        _assert_validated(Permutation.identity(n), Permutation(range(1, n + 1)))
        for m in (n, n + 1, n + 3):
            _assert_validated(g.extend(m), Permutation(_padded(g, m)))
        h = perms[rng.randrange(len(perms))]
        _assert_validated(g * h, _ref_mul(g, h))
        _assert_validated(h * g, _ref_mul(h, g))
        _assert_validated(g.inverse(), _ref_pow(g, -1))
        for e in (-2, 0, 1, 3):
            _assert_validated(g**e, _ref_pow(g, e))
        layers = CycleLayers(g)
        want = _layers_from_cycles(g)
        assert layers.degree == n and layers.images == g.images
        assert layers.even == g.is_even()
        assert layers.lengths() == tuple(sorted(want))
        for i in range(1, n + 2):
            cs = want.get(i, [])
            assert layers.cycles(i) == tuple(cs)
            assert layers.support(i) == frozenset(p for c in cs for p in c)


def test_pow_matches_repeated_products():
    """`**` equals the e-fold product (of the inverse for e < 0), at
    degree 0 too, and a huge exponent equals its residue mod the order."""
    rng = random.Random(19)
    perms = [Permutation(()), P("(1 2 3)(4 5)")]
    perms += [random_permutation(rng.randrange(1, 41), rng) for _ in range(20)]
    for g in perms:
        for e in range(-13, 14):
            _assert_validated(g**e, _ref_pow(g, e))
        _assert_validated(g ** 10**18, _ref_pow(g, 10**18 % g.order()))


def test_bool_points_come_out_as_ints():
    g = Permutation.from_cycles([(True, 2)])
    assert g.images == (2, 1)
    assert all(type(v) is int for v in g.images)
    assert all(type(v) is int for v in Permutation.from_cycles([(2, True)], n=3).images)


# The error contract, recorded literally: (cycles, n, exception, message)
_FROM_CYCLES_ERRORS = [
    ([(1, 2), (2, 3)], None, ParseError, "point 2 repeated across cycles"),
    ([(1, 1)], None, ParseError, "point 1 repeated across cycles"),
    ([(True, 1)], None, ParseError, "point 1 repeated across cycles"),
    ([(0, 1)], None, ParseError, "bad cycle point 0"),
    ([(0, 1)], 3, ParseError, "bad cycle point 0"),
    ([(1, 2, 0)], 2, ParseError, "bad cycle point 0"),
    ([(-1, 2)], None, ParseError, "bad cycle point -1"),
    ([(-2, -1)], None, ParseError, "degree must be non-negative, got -1"),
    ([(1, 2.5)], 3, ParseError, "bad cycle point 2.5"),
    ([(1, 2.0)], 3, ParseError, "bad cycle point 2.0"),
    ([(1, 5)], 3, ParseError, "cycle point 5 exceeds degree 3"),
    ([(1, 2), (3, 1)], 2, ParseError, "cycle point 3 exceeds degree 2"),
    ([(1, 2), (1, 5)], 4, ParseError, "cycle point 5 exceeds degree 4"),
    ([(1, 2)], -1, ParseError, "degree must be non-negative, got -1"),
    ([], -2, ParseError, "degree must be non-negative, got -2"),
    ([(1, "2")], 3, ParseError, "bad cycle point '2'"),
    ([("1", 2)], None, ParseError, "bad cycle point '1'"),
    ([(1, 2)], "3", ParseError, "bad degree '3'"),
    ([(1, 2)], 2.5, ParseError, "bad degree 2.5"),
]

# (value, n, exception, message) for serialize.permutation_from_text
_FROM_TEXT_ERRORS = [
    ("(1 2)(2 3)", None, ParseError, "point 2 repeated across cycles"),
    ("(1 1)", None, ParseError, "point 1 repeated across cycles"),
    ("(1 2 3 1)", 5, ParseError, "point 1 repeated across cycles"),
    ("(0 1)", None, ParseError, "bad cycle point 0"),
    ("(0 1)", 4, ParseError, "bad cycle point 0"),
    ("(-1 2)", None, ParseError, "bad cycle point -1"),
    ("(-5 -3)", None, ParseError, "degree must be non-negative, got -3"),
    ("(1 -2)", 3, ParseError, "bad cycle point -2"),
    ("(1 a)", None, ParseError, "bad cycle point in '(1 a)'"),
    ("(1 2.5)", None, ParseError, "bad cycle point in '(1 2.5)'"),
    ("(1 5)", 3, ParseError, "cycle point 5 exceeds degree 3"),
    ("(1 5)(2 2)", 3, ParseError, "cycle point 5 exceeds degree 3"),
    ("(1 2)", -1, ParseError, "degree must be non-negative, got -1"),
    ("()", -1, ParseError, "degree must be non-negative, got -1"),
    ("(1 2", None, ParseError, "bad cycle notation '(1 2'"),
    ("(1 2", 3, ParseError, "bad cycle notation '(1 2'"),
    ("1 2", None, ParseError, "bad cycle notation '1 2'"),
    ("(1 2))", None, ParseError, "bad cycle point in '(1 2))'"),
    ("()()", None, ParseError, "empty cycle in '()()'"),
    ("( )", None, ParseError, "empty cycle in '( )'"),
    ("(1 2)()(3 4)", None, ParseError, "empty cycle in '(1 2)()(3 4)'"),
    ("(1 100000000)", None, TooLarge, "permutation degree 100000000 exceeds the cap 100000"),
    ("(1 100000000)", -1, TooLarge, "permutation degree 100000000 exceeds the cap 100000"),
    ("(1 2)", 100000001, TooLarge, "permutation degree 100000001 exceeds the cap 100000"),
    ([2, 2, 1], None, ParseError, "images (2, 2, 1) are not a bijection of 1..3"),
    ([0, 1], None, ParseError, "images (0, 1) are not a bijection of 1..2"),
    ([1, 2], -1, ParseError, "cannot shrink a permutation"),
    ([2, 1], 1, ParseError, "cannot shrink a permutation"),
    (3, None, ParseError, "permutation must be cycle text or an image array"),
    ([1, "x"], None, ParseError, "bad image 'x'"),
    ([1, 2.5], None, ParseError, "bad image 2.5"),
    ([2.0, 1], 3, ParseError, "bad image 2.0"),
    (["1"], None, ParseError, "bad image '1'"),
    ("(1 2)", "3", ParseError, "bad degree '3'"),
    ("(1 2)", 2.5, ParseError, "bad degree 2.5"),
    ([2, 1], "3", ParseError, "bad degree '3'"),
    ([2, 1], 2.5, ParseError, "bad degree 2.5"),
    ("(1 \uff12)", None, ParseError, "bad cycle point in '(1 \uff12)'"),
    ("(1_0 2)", None, ParseError, "bad cycle point in '(1_0 2)'"),
    ("(+1 2)", None, ParseError, "bad cycle point in '(+1 2)'"),
]


@pytest.mark.parametrize("cycles, n, exc, message", _FROM_CYCLES_ERRORS)
def test_from_cycles_error_contract(cycles, n, exc, message):
    with pytest.raises(exc) as info:
        Permutation.from_cycles(cycles, n=n)
    assert type(info.value) is exc and str(info.value) == message


@pytest.mark.parametrize("val, n, exc, message", _FROM_TEXT_ERRORS)
def test_permutation_from_text_error_contract(val, n, exc, message):
    with pytest.raises(exc) as info:
        permutation_from_text(val, n=n)
    assert type(info.value) is exc and str(info.value) == message


def test_images_are_integers_not_truncated():
    with pytest.raises(ParseError) as info:
        Permutation([1, 2.5])
    assert str(info.value) == "bad image 2.5"
    with pytest.raises(ParseError) as info:
        Permutation([None])
    assert str(info.value) == "bad image None"
    g = Permutation([True, 2])
    assert g.images == (1, 2) and all(type(v) is int for v in g.images)


def test_an_cent_equal_on_unequal_degrees():
    rep = an_cent_equal(P("(1 2 3)"), P("(1 2 3)", n=4))
    assert (rep.equal, rep.kind, rep.details) == (False, "not-equal", {"reason": "degrees differ"})


GUARDS = [
    ("brute force over an unknown group", lambda: perm_centralizer_bruteforce(P("(1 2)"), "X"),
     ParseError, "group must be 'S' or 'A'"),
]


@pytest.mark.parametrize("call, error, message", [g[1:] for g in GUARDS], ids=[g[0] for g in GUARDS])
def test_public_guards(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
