"""Acceptance gate: every shipped claim, one line of verdict each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines.
"""

import time

from centtype import (
    Matrix,
    Poly,
    cent_conjugate_bruteforce,
    cent_span_equal,
    centralizers_conjugate,
    companion,
    mat_eval_poly,
    prime_field,
    rationals,
    run_suite,
)

Q = rationals()
F2 = prime_field(2)


def report(label, rep, budget=None):
    status = "PASS" if rep.passed else "FAIL"
    extra = "" if budget is None else ", budget %ds" % budget
    print(
        "acceptance %-20s %s (%d checked, %d failures, %.1fs%s)"
        % (label, status, rep.instances_checked, len(rep.failures), rep.elapsed, extra)
    )
    for f in rep.failures[:10]:
        print("  counterexample:", f)
    assert rep.passed
    if budget is not None:
        assert rep.elapsed < budget


def test_01_main_theorem_f2():
    # all invariant-factor classes for n = 2 and 3, theorem vs brute force
    rep = run_suite("main-theorem-f2", seed=0, scale=3)
    report("main-theorem-f2", rep, budget=120)
    assert rep.instances_checked == 126  # 6 classes at n=2, 14 at n=3, pairs incl. diagonal


def test_02_centdim():
    rep = run_suite("centdim", seed=0)
    report("centdim", rep)
    assert rep.instances_checked == 800  # 200 per field


def test_03_nilpclass():
    rep = run_suite("nilpclass", seed=0)
    report("nilpclass", rep)
    assert rep.instances_checked == 100


def test_04_dominance():
    rep = run_suite("dominance", seed=0)
    report("dominance", rep)
    assert rep.instances_checked == 200


def test_05_witness_roundtrip():
    rep = run_suite("witness-roundtrip", seed=0)
    report("witness-roundtrip", rep)
    assert rep.instances_checked == 100


def test_06_fixture_pairs():
    X = companion(Poly(Q, [-2, 0, 1]))
    Y3 = companion(Poly(Q, [-3, 0, 1]))
    Y8 = companion(Poly(Q, [-8, 0, 1]))
    c3 = centralizers_conjugate(X, Y3)
    assert not c3.conjugate and c3.conjugator is None
    c8 = centralizers_conjugate(X, Y8)
    assert c8.conjugate
    U = c8.conjugator
    assert U.inverse() * mat_eval_poly(c8.p, X) * U == Y8
    A = Matrix(F2, [[1, 0], [0, 0]])
    B = Matrix(F2, [[1, 1], [0, 0]])
    cf = centralizers_conjugate(A, B)
    assert cf.conjugate
    assert not cent_span_equal(A, B)
    assert cent_conjugate_bruteforce(A, B)
    print("acceptance %-20s PASS (4 fixed verdicts)" % "fixture-pairs")


def test_08_partition_formulas():
    rep = run_suite("partition-formulas", seed=0)
    report("partition-formulas", rep)
    assert rep.instances_checked == 271  # all partitions of 1..12


def test_09_perm_oracles():
    t0 = time.perf_counter()
    for n in (2, 3, 4, 5, 6):
        rep = run_suite("sn-oracle", seed=0, scale=n)
        assert rep.passed, rep.failures[:5]
        rep = run_suite("an-oracle", seed=0, scale=n)
        assert rep.passed, rep.failures[:5]
    s7 = run_suite("sn-oracle", seed=0, scale=7)
    a7 = run_suite("an-oracle", seed=0, scale=7)
    elapsed = time.perf_counter() - t0
    report("sn-oracle-n7", s7)
    report("an-oracle-n7", a7)
    print(
        "acceptance %-20s PASS (exhaustive n<=6 plus 2x10000 sampled at n=7, %.1fs)"
        % ("perm-oracles", elapsed)
    )
    assert elapsed < 300


def test_10_extension_separable():
    rep = run_suite("extension-separable", seed=0)
    report("extension-separable", rep)
    assert rep.instances_checked == 50
