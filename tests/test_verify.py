import dataclasses
import functools
import inspect
import random
import subprocess
import sys

import pytest

from centtype import ParseError, TooLarge, UnknownSuite, run_suite, suite_names
from centtype.permcent import _decide_an
from centtype.serialize import verify_report_to_json


def test_suite_registry():
    names = suite_names()
    assert set(names) == {
        "centdim",
        "nilpclass",
        "dominance",
        "main-theorem-f2",
        "witness-roundtrip",
        "sn-oracle",
        "an-oracle",
        "partition-formulas",
        "extension-separable",
    }
    with pytest.raises(UnknownSuite):
        run_suite("bogus")


def test_report_shape():
    rep = run_suite("partition-formulas", seed=1)
    assert rep.passed
    assert rep.suite == "partition-formulas"
    assert rep.failures == ()
    assert rep.instances_checked == 271
    assert rep.elapsed >= 0
    j = verify_report_to_json(rep)
    assert set(j) == {"suite", "seed", "scale", "instances_checked", "failures"}


def test_determinism_same_seed():
    a = run_suite("nilpclass", seed=5)
    b = run_suite("nilpclass", seed=5)
    assert a.instances_checked == b.instances_checked
    assert a.failures == b.failures
    assert verify_report_to_json(a) == verify_report_to_json(b)


def test_jobs_do_not_change_results():
    a = run_suite("dominance", seed=2, jobs=1)
    b = run_suite("dominance", seed=2, jobs=3)
    assert verify_report_to_json(a) == verify_report_to_json(b)


def test_oracle_scale_bounds():
    with pytest.raises(TooLarge):
        run_suite("sn-oracle", scale=9)
    with pytest.raises(TooLarge):
        run_suite("main-theorem-f2", scale=5)
    # a scale too small for the suite is a bad input, like scale 0
    with pytest.raises(ParseError, match="main-theorem-f2 scale must be at least 2, got 1"):
        run_suite("main-theorem-f2", scale=1)
    rep = run_suite("an-oracle", scale=4)
    assert rep.passed and rep.scale == 4
    # every suite has a largest scale, refused before any task is drawn
    bounds = {name: 10000 for name in suite_names()}
    bounds.update({"main-theorem-f2": 3, "sn-oracle": 7, "an-oracle": 7, "partition-formulas": 40})
    for name, bound in bounds.items():
        for scale in (bound + 1, 10**9):
            with pytest.raises(TooLarge):
                run_suite(name, scale=scale)


def test_scale_and_jobs_below_one_are_rejected():
    for kwargs in ({"scale": 0}, {"scale": -3}, {"jobs": 0}, {"jobs": -1}):
        with pytest.raises(ParseError):
            run_suite("centdim", **kwargs)


def test_import_loads_no_process_pool():
    """The pool is imported where a suite asks for more than one worker."""
    code = (
        "import sys, centtype; "
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_serial_run_checks_each_task_before_drawing_the_next():
    """With one job the check of instance k runs before task k + 1 is
    drawn, so a lazy draw, as the oracle suites have, is never held whole."""
    import centtype.verify as verify

    events = []

    def draw(master, scale):
        for k in range(scale):
            events.append(("draw", k))
            yield {"instance": k}

    def check(task):
        events.append(("check", task["instance"]))
        return {"odd": True} if task["instance"] % 2 else None

    assert verify._suite(check, 3, 3, draw, 0, None, 1) == (3, 3, [{"instance": 1, "odd": True}])
    assert events == [(e, k) for k in range(3) for e in ("draw", "check")]
    assert inspect.isgenerator(verify._oracle_tasks("S", random.Random(0), 3))


def test_workers_capped_by_tasks_and_cpus(monkeypatch):
    import concurrent.futures

    import centtype.verify as verify

    pools = []

    class FakePool:
        """Runs the tasks in this process and records the pool size."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    # `_map_tasks` imports the pool from here when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 3)
    serial = verify_report_to_json(run_suite("dominance", seed=2, scale=8))
    assert pools == []
    for jobs, scale, want in ((100000, 8, 3), (2, 8, 2), (100000, 2, 2), (100000, 1, None)):
        del pools[:]
        rep = run_suite("dominance", seed=2, scale=scale, jobs=jobs)
        assert pools == ([] if want is None else [want])
        if scale == 8:
            assert verify_report_to_json(rep) == serial
    monkeypatch.setattr(verify.os, "cpu_count", lambda: None)
    for jobs in (100000, None):
        del pools[:]
        run_suite("dominance", seed=2, scale=8, jobs=jobs)
        assert pools == []


def test_pool_checks_tasks_before_the_draw_ends(monkeypatch):
    # a pool takes the tasks a batch at a time, so a lazy draw of 20,000
    # tasks is not held whole before the first check
    import concurrent.futures

    import centtype.verify as verify

    events = []

    class FakePool:
        """Runs the tasks in this process, lazily, as a pool's map yields."""

        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    def draw():
        for k in range(20000):
            events.append("draw")
            yield k

    def worker(task):
        events.append("check")
        return task

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
    assert list(verify._map_tasks(worker, draw(), 2)) == list(range(20000))
    first_check = events.index("check")
    last_draw = len(events) - 1 - events[::-1].index("draw")
    assert first_check < last_draw


def _raise(*args, **kwargs):
    raise RuntimeError("injected fault")


# suite, its check, its identity keys, the name replaced, the stand-in,
# and whether the records are error records (else detail records)
_REPLAY_CASES = [
    ("centdim", "_check_centdim", ("field",), "cent_dim", lambda m: -1, False),
    ("nilpclass", "_check_nilpclass", ("field",), "cycle_type", _raise, True),
    ("dominance", "_check_dominance", ("field",), "dominance_leq", lambda a, b: False, False),
    (
        "witness-roundtrip",
        "_check_witness",
        ("field",),
        "witness_polynomials",
        lambda x, y, seed=0: None,
        True,
    ),
    ("extension-separable", "_check_extsep", ("p",), "cycle_type", _raise, True),
]


@pytest.mark.parametrize(
    "suite, check, keys, name, fake, errors", _REPLAY_CASES, ids=[c[0] for c in _REPLAY_CASES]
)
def test_seeded_failures_replay_from_their_record(monkeypatch, suite, check, keys, name, fake, errors):
    """A seeded suite's failure names its instance, its field (or prime),
    its sub-seed, and running the suite's worker on those alone
    gives back the same record."""
    import centtype.verify as verify

    monkeypatch.setattr(verify, name, fake)
    rep = run_suite(suite, scale=2)
    assert rep.failures
    for record in rep.failures:
        identity = {k: record[k] for k in ("instance", *keys, "seed")}
        if errors:
            assert set(record) == {*identity, "error"}
        else:
            assert "error" not in record and len(record) > len(identity)
        assert verify._worker(getattr(verify, check), identity) == record


def _flipped_an(la, lb):
    rep = _decide_an(la, lb)
    return dataclasses.replace(rep, equal=not rep.equal)


# suite, its check (a name in verify and the arguments bound to it), the
# name replaced, the stand-in, and whether the records are error records
# (else detail records)
_UNSEEDED_CASES = [
    ("main-theorem-f2", ("_check_mainf2",), "cent_conjugate_bruteforce", lambda x, y: None, False),
    ("main-theorem-f2", ("_check_mainf2",), "centralizers_conjugate", _raise, True),
    ("partition-formulas", ("_check_partition",), "cent_dim_weight", lambda lam: -1, False),
    ("partition-formulas", ("_check_partition",), "_weight_odd", _raise, True),
    ("an-oracle", ("_check_oracle", "A"), "_decide_an", _flipped_an, False),
    ("sn-oracle", ("_check_oracle", "S"), "_decide_sn", _raise, True),
]

_IDENTITY_KEYS = {
    "main-theorem-f2": ("instance", "n", "x", "y"),
    "partition-formulas": ("instance", "partition"),
    "sn-oracle": ("instance", "n", "g", "h"),
    "an-oracle": ("instance", "n", "g", "h"),
}


@pytest.mark.parametrize(
    "suite, check, name, fake, errors",
    _UNSEEDED_CASES,
    ids=["%s-%s" % (c[0], c[2]) for c in _UNSEEDED_CASES],
)
def test_enumerated_failures_replay_from_their_record(monkeypatch, suite, check, name, fake, errors):
    """main-theorem-f2, partition-formulas and the permutation oracles run
    through the same worker: a wrong answer or a crash is a record, and
    the worker replays it from the instance's identity alone."""
    import centtype.verify as verify

    monkeypatch.setattr(verify, name, fake)
    # at degree 3 the oracles check 21 pairs of S_3 and 6 of A_3
    rep = run_suite(suite, scale=3 if suite.endswith("oracle") else 2)
    assert len(rep.failures) == rep.instances_checked > 1
    check = functools.partial(getattr(verify, check[0]), *check[1:])
    for record in rep.failures:
        identity = {k: record[k] for k in _IDENTITY_KEYS[suite]}
        if errors:
            assert set(record) == {*identity, "error"}
        else:
            assert "error" not in record and len(record) > len(identity)
        assert verify._worker(check, identity) == record
