"""The benchmark's checks must reject wrong outputs (run: python3 -m pytest perfbench).

The keys are built by hand from two 32-bit primes, so these tests do not
depend on the program at all.
"""

import sys
from collections import namedtuple
from math import gcd
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402

Pub = namedtuple("Pub", "n e")
Priv = namedtuple("Priv", "p q d")
P, Q = 4294967279, 4294967291
N, PHI = P * Q, (P - 1) * (Q - 1)
BOUND = 16


def facts(d):
    return checks.KeyFacts(Pub(N, pow(d, -1, PHI)), Priv(P, Q, d))


def first_key(wanted):
    """The first key, with d above n^0.25, whose first reaching anchor
    (checks.KeyFacts.mitm_reach at BOUND) satisfies wanted."""
    for d in range(3 << 16 | 1, 1 << 24, 2):
        if gcd(d, PHI) == 1:
            f = facts(d)
            if len(f.anchors) == 3 and wanted(f.mitm_reach(BOUND, BOUND)):
                return f
    raise AssertionError("no such key")


REACHABLE = first_key(lambda m: m is not None and m != -2)
OUT_OF_REACH = first_key(lambda m: m is None)


def stdout(d, p, q, k=1):
    return f"d = {d:x}\nk = {k:x}\np = {p:x}\nq = {q:x}\n"


def test_convergents():
    assert checks.convergents(17, 77) == [(0, 1), (1, 4), (1, 5), (2, 9), (17, 77)]


def test_reachable_key_has_its_form():
    f = REACHABLE
    m = f.mitm_reach(BOUND, BOUND)
    r, s = f.rs(m)
    (p0, q0), (p1, q1) = f.cv[m], f.cv[m + 1]
    assert (r * q1 + s * q0, r * p1 + s * p0) == (f.d, f.k)
    assert 1 <= r <= BOUND and 0 <= s <= BOUND


def test_right_answers_pass():
    f = REACHABLE
    assert checks.check_recovery(f, f.d, P, Q) == []
    assert checks.check_cli_attack(f, BOUND, BOUND, 0, stdout(f.d, P, Q)) == []
    assert checks.check_exhaustion(OUT_OF_REACH, BOUND, BOUND) == []
    assert checks.check_cli_attack(OUT_OF_REACH, BOUND, BOUND, 1, "") == []


def test_wrong_d_fails():
    f = REACHABLE
    assert checks.check_recovery(f, f.d + 2, P, Q)
    assert checks.check_cli_attack(f, BOUND, BOUND, 0, stdout(f.d + 2, P, Q))


def test_swapped_factors_fail():
    f = REACHABLE
    assert checks.check_recovery(f, f.d, Q, P)
    assert checks.check_cli_attack(f, BOUND, BOUND, 0, stdout(f.d, Q, P))


def test_false_exhausted_fails():
    assert checks.check_exhaustion(REACHABLE, BOUND, BOUND)
    assert checks.check_outcome(REACHABLE, BOUND, BOUND, "exhausted")
    assert checks.check_cli_attack(REACHABLE, BOUND, BOUND, 1, "")


def test_recovery_of_unreachable_key_fails():
    f = OUT_OF_REACH
    assert checks.check_outcome(f, BOUND, BOUND, "recovered", f.d, P, Q)


def test_bad_exit_codes_fail():
    f = REACHABLE
    assert checks.check_cli_attack(f, BOUND, BOUND, 2, "")
    assert checks.check_cli_attack(OUT_OF_REACH, BOUND, BOUND, 1, stdout(f.d, P, Q))


def test_wrong_success_count_fails():
    keys = [REACHABLE, OUT_OF_REACH]
    want = sum(f.success_reach(BOUND, BOUND) for f in keys)
    assert checks.check_success_rows(keys, [(BOUND, BOUND)], [want]) == []
    assert checks.check_success_rows(keys, [(BOUND, BOUND)], [want + 1])
    assert checks.check_success_rows(keys, [(BOUND, BOUND)], [want - 1])
    assert checks.check_success_rows(keys, [(BOUND, BOUND)], [])
