"""Independent correctness checks for the benchmark's workloads.

Nothing here calls the attack code. Reachability of a key is worked out
from its private half by direct arithmetic: the true pair (d, k), with
e*d - k*phi = 1, is found by an attack iff it is a convergent of e/n (the
Wiener pass) or it solves d = r*q_{m+1} + s*q_m, k = r*p_{m+1} + s*p_m
with (r, s) inside the bounds at an anchor index m the attack tries. The
2x2 system has determinant +-1, so (r, s) is unique and integral for
every m; a negative s is the minus form d = r*q_{m+1} - |s|*q_m.
"""

from math import isqrt

# locate_m_prime's safe error bound for the plain target e/n is
# 2.122 * e / (n * isqrt(n)), kept here as an exact ratio.
_BOUND_NUM, _BOUND_DEN = 2122, 1000


def convergents(num, den):
    """(p_m, q_m) for m = 0, 1, ... of the continued fraction of num/den."""
    out = []
    p_prev, q_prev, p, q = 0, 1, 1, 0
    while den:
        a, rem = divmod(num, den)
        num, den = den, rem
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        out.append((p, q))
    return out


def _conv(cv, m):
    return (1, 0) if m == -1 else cv[m]


def anchor(n, e, cv):
    """Largest odd m with p_m/q_m - e/n above the plain error bound, or None."""
    root = isqrt(n)
    top = len(cv) - 1
    if top % 2 == 0:
        top -= 1
    for m in range(top, 0, -2):
        p, q = cv[m]
        # p/q - e/n > 2.122 e / (n root), times the positive q*n*root*1000.
        if _BOUND_DEN * root * (p * n - e * q) > _BOUND_NUM * e * q:
            return m
    return None


def anchors_tried(cv, m_prime):
    """The anchor indices the attack visits for this expansion."""
    top = len(cv) - 2
    if m_prime is None:
        return list(range(-1, top + 1))
    return [m for m in (m_prime, m_prime + 1, m_prime + 2) if m <= top]


def true_k(e, priv):
    phi = (priv.p - 1) * (priv.q - 1)
    k, rem = divmod(e * priv.d - 1, phi)
    if rem:
        raise ValueError("private key does not invert e modulo phi")
    return k


def rs_at(cv, m, d, k):
    """The unique integers (r, s) with d = r*q_{m+1} + s*q_m, k likewise."""
    p0, q0 = _conv(cv, m)
    p1, q1 = _conv(cv, m + 1)
    det = q1 * p0 - q0 * p1  # +-1
    return (d * p0 - k * q0) * det, (q1 * k - p1 * d) * det


class KeyFacts:
    """Everything the checks need about one key, from its private half."""

    def __init__(self, pub, priv):
        self.pub, self.priv = pub, priv
        n, e = pub.n, pub.e
        self.d, self.k = priv.d, true_k(e, priv)
        self.cv = convergents(e, n)
        self.m_prime = anchor(n, e, self.cv)
        self.anchors = anchors_tried(self.cv, self.m_prime)
        self.wiener = (self.k, self.d) in set(self.cv)

    def rs(self, m):
        return rs_at(self.cv, m, self.d, self.k)

    def plus_reach(self, m, r_max, s_max):
        r, s = self.rs(m)
        return 1 <= r <= r_max and 0 <= s <= s_max

    def mitm_reach(self, r_max, s_max):
        """First anchor whose plus-form window holds d, or None; -2 for Wiener."""
        if self.wiener:
            return -2
        for m in self.anchors:
            if self.plus_reach(m, r_max, s_max):
                return m
        return None

    def success_reach(self, r_max, s_max):
        """Whether a bench success row (r_max, s_max) recovers this key.

        The row runs the plus form at every tried anchor, then, when the
        anchor exists, the rescue at m' + 1: plus and minus form with the
        bounds swapped.
        """
        if self.mitm_reach(r_max, s_max) is not None:
            return True
        if self.m_prime is None or self.m_prime + 1 > len(self.cv) - 2:
            return False
        r, s = self.rs(self.m_prime + 1)
        return 1 <= r <= s_max and abs(s) <= r_max


def check_recovery(facts, d, p, q):
    """Problems with a reported recovery; empty when it is right."""
    n, e = facts.pub.n, facts.pub.e
    bad = []
    if d != facts.priv.d:
        bad.append(f"d {d} differs from the generator's d {facts.priv.d}")
    if p is None or q is None or p * q != n:
        bad.append("p*q != n")
    elif (p, q) != (facts.priv.p, facts.priv.q):
        bad.append("factors not reported as p < q")
    if d is None or pow(2, e * d, n) != 2:
        bad.append("2^(e*d) != 2 mod n")
    return bad


def check_exhaustion(facts, r_max, s_max):
    """Problems with a reported exhaustion; empty when d is out of reach."""
    if facts.wiener:
        return ["d is a convergent of e/n, yet reported exhausted"]
    bad = []
    for m in facts.anchors:
        if facts.plus_reach(m, r_max, s_max):
            r, s = facts.rs(m)
            bad.append(f"d = {r}*q_{m + 1} + {s}*q_{m} is in reach, yet reported exhausted")
    return bad


def check_outcome(facts, r_max, s_max, outcome, d=None, p=None, q=None):
    """Problems with one plus-form attack's outcome at bounds (r_max, s_max)."""
    if outcome == "recovered":
        bad = check_recovery(facts, d, p, q)
        if facts.mitm_reach(r_max, s_max) is None:
            bad.append("recovered a key whose d the arithmetic puts out of reach")
        return bad
    if outcome == "exhausted":
        return check_exhaustion(facts, r_max, s_max)
    return [f"unexpected outcome {outcome!r}"]


def check_cli_attack(facts, r_max, s_max, code, stdout):
    """Problems with one `rsacf attack` run: exit 0 and d/k/p/q lines on a
    recovery, exit 1 and an empty stdout on exhaustion."""
    fields = {}
    for line in stdout.splitlines():
        name, sep, value = line.partition(" = ")
        if not sep:
            return [f"unparsable output line {line!r}"]
        fields[name] = int(value, 16)
    if code == 0:
        return check_outcome(facts, r_max, s_max, "recovered",
                             fields.get("d"), fields.get("p"), fields.get("q"))
    if code == 1:
        bad = check_outcome(facts, r_max, s_max, "exhausted")
        return bad + (["exhaustion printed a result"] if fields else [])
    return [f"exit code {code}"]


def check_success_rows(facts_list, bounds, got):
    """Problems with one success table: got[i] is the success count of the
    row with bounds[i] = (r_max, s_max) over the keys in facts_list."""
    if len(got) != len(bounds):
        return [f"{len(got)} rows, expected {len(bounds)}"]
    bad = []
    for (r_max, s_max), count in zip(bounds, got):
        want = sum(f.success_reach(r_max, s_max) for f in facts_list)
        if count != want:
            bad.append(f"row R={r_max} S={s_max}: {count} successes, {want} reachable")
    return bad
