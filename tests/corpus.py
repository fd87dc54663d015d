"""A behaviour corpus: a few hundred attacks with fixed seeds, and what each
one returned.

Each attack gives one line: its key, its configuration and the CPU count
that workers._cpus is forced to, then the outcome, (d, k, p, q) and every
Stats counter but wall_time and table_bytes (a sys.getsizeof sum, whose
figures move between CPython versions). corpus_expected.txt holds the
lines, and tests/test_corpus.py checks every one of them.

The keys: odd moduli below 2^16 of two and three primes, crafted
unbalanced keys that anchor -1 recovers, keygen_weak keys of 64 to 128
bits, and some of those with e + phi(n) for e, a target of at least 1.
Each key is searched by the Wiener pass and by a few seeded draws of
bounds (explicit, fixed4d, quotient), target, minus form, gcd rows and
anchor list (None, (-1,), (0, -1), (m', m'+2), (m'+1, m')), each draw by
vvt and by mitm, on one CPU. Moduli with a prime of at most 7 are
searched with the minus form (DENSE), and a few larger searches run on
two CPUs, where chains and row blocks split.

Nothing runs at import. As a script it prints each line that moved, the
expected line then the one got, or with --write rewrites the file:

    PYTHONPATH=src python tests/corpus.py [--write]
"""

import random
import sys
from dataclasses import fields, replace
from itertools import product
from math import gcd, prod
from pathlib import Path

from rsacf import AttackConfig, PublicKey, key_context, keygen_weak, run_attack
from rsacf import attack, workers
from rsacf.rsa import is_probable_prime

EXPECTED = Path(__file__).with_name("corpus_expected.txt")
COUNTERS = [f.name for f in fields(attack.Stats) if f.name not in ("wall_time", "table_bytes")]
# Draws of (bounds, target, minus form, gcd rows, anchor list) per key; a
# draw whose box, at any anchor it opens, holds more than MAX_PAIRS pairs
# is passed over, so that vvt stays quick.
DRAWS = 8
MAX_PAIRS = 1 << 12
BOUNDS = [("explicit", 16, 16), ("explicit", 8, 32), ("explicit", 32, 4),
          ("explicit", 1, 16), ("fixed4d", 1), ("fixed4d", 4),
          ("quotient", 2), ("quotient", 8)]
ANCHORS = [None, (-1,), (0, -1), (0, 2), (1, 0)]  # the last two from m'
# Keys whose n has a prime of at most 7, searched with the minus form: their
# powers have small orders, so a stage often holds several hits at one s,
# in both forms, and the order in which they are tried moves collisions.
DENSE = 64


def _key(primes, d):
    """The public key of n = prod(primes) with secret exponent d."""
    return PublicKey(prod(primes), pow(d, -1, prod(p - 1 for p in primes)))


def _plus_phi(pub, phi):
    return PublicKey(pub.n, pub.e + phi)


def keys():
    """(label, public key) of every key searched on one CPU."""
    rng = random.Random(16)
    primes = [p for p in range(3, 256) if is_probable_prime(p)]
    out = []
    for i in range(24):
        three = i % 4 == 3
        while True:
            ps = sorted(rng.sample(primes[:12] if three else primes, 3 if three else 2))
            phi = prod(p - 1 for p in ps)
            d = rng.randrange(3, 64)
            if prod(ps) < 1 << 16 and gcd(d, phi) == 1:
                break
        out.append((f"primes{tuple(ps)} d={d}", _key(ps, d)))
    for ps, d in (((1009, 1000000007), 37), ((101, 2**61 - 1), 47), ((7, 1000003), 19)):
        pub = _key(ps, d)
        out.append((f"primes{ps} d={d}", pub))
        out.append((f"primes{ps} d={d} +phi", _plus_phi(pub, prod(p - 1 for p in ps))))
    for args in ((64, 4, 1), (64, 16, 2), (96, 4, 5), (96, 16, 0), (96, 64, 3),
                 (128, 8, 4), (128, 2**20, 6)):
        pub, priv = keygen_weak(*args)
        out.append((f"keygen_weak{args}", pub))
        if args[1] == 16:
            out.append((f"keygen_weak{args} +phi", _plus_phi(pub, priv.phi)))
    return out


def _boxes(pub, cfg):
    """The (r_max, s_max) of each anchor a search of pub with cfg opens
    (attack._windows), up to the first whose bounds are not finite: the
    draws of such a search are kept, and its refusal, if the search gets
    there, is a line. A box over the variant's cap is kept, and MAX_PAIRS,
    far below either cap, then passes the draw over."""
    boxes = []
    try:
        for _, r_max, s_max, _ in attack._windows(key_context(pub, cfg.approx), cfg):
            boxes.append((r_max, s_max))
    except ValueError:
        pass
    return boxes


def _draws(label, pub):
    """DRAWS seeded search configurations of one key, without a variant."""
    rng = random.Random(label)
    space = list(product(BOUNDS, ("plain", "improved"), (False, True), (False, True), ANCHORS))
    rng.shuffle(space)
    m_prime = {approx: key_context(pub, approx).m_prime for approx in ("plain", "improved")}
    out = []
    for bounds, approx, minus, gcd_rows, anchors in space:
        if anchors in ANCHORS[3:]:
            if m_prime[approx] is None:
                continue
            anchors = tuple(m_prime[approx] + m for m in anchors)
        mode, *args = bounds
        cfg = AttackConfig(bound_mode=mode, approx=approx, gcd_rows=gcd_rows,
                           probe_minus_form=minus, m_candidates=anchors)
        if mode == "explicit":
            cfg.r_max, cfg.s_max = args
        else:
            cfg.d_ratio, = args
        if all(r * s <= MAX_PAIRS for r, s in _boxes(pub, cfg)):
            out.append(cfg)
            if len(out) == DRAWS:
                return out
    return out


def cases():
    """(label, public key, config, CPU count) of every attack, in order."""
    for label, pub in keys():
        for approx in ("plain", "improved"):
            yield label, pub, AttackConfig(variant="wiener", approx=approx), 1
        for cfg in _draws(label, pub):
            for variant in ("vvt", "mitm"):
                yield label, pub, replace(cfg, variant=variant), 1
    rng = random.Random(7)
    primes = [p for p in range(11, 256) if is_probable_prime(p)]
    for _ in range(DENSE):
        ps, d = (rng.choice((3, 5, 7)), rng.choice(primes)), rng.randrange(3, 1 << 10)
        cfg = AttackConfig(r_max=rng.randrange(16, 65), s_max=rng.randrange(16, 65),
                           gcd_rows=rng.random() < 0.5, probe_minus_form=True,
                           m_candidates=rng.choice(ANCHORS[:3]))
        if gcd(d, prod(p - 1 for p in ps)) == 1:
            for variant in ("vvt", "mitm"):
                yield f"primes{ps} d={d}", _key(ps, d), replace(cfg, variant=variant), 1
    args = (96, 2**20, 123)
    pub, priv = keygen_weak(*args)
    for label, key in ((f"keygen_weak{args}", pub),
                       (f"keygen_weak{args} +phi", _plus_phi(pub, priv.phi))):
        for variant, bound, minus, anchors in (("mitm", 1 << 14, False, None),
                                               ("vvt", 1 << 9, True, None),
                                               ("mitm", 1 << 14, True, (-1,)),
                                               ("mitm", 1 << 14, True, (0, -1))):
            yield label, key, AttackConfig(
                variant=variant, r_max=bound, s_max=bound, probe_minus_form=minus,
                m_candidates=anchors), 2


def line(label, pub, cfg, cpus):
    """The corpus line of one attack, run with workers._cpus forced to cpus."""
    if cfg.variant == "wiener":
        head = f"{label} | wiener {cfg.approx}"
    else:
        bounds = (f"explicit {cfg.r_max}x{cfg.s_max}" if cfg.bound_mode == "explicit"
                  else f"{cfg.bound_mode} D={cfg.d_ratio}")
        head = (f"{label} | {cfg.variant} {bounds} {cfg.approx} minus={cfg.probe_minus_form:d}"
                f" gcd={cfg.gcd_rows:d} m={cfg.m_candidates} cpus={cpus}")
    saved = workers._cpus
    workers._cpus = lambda: cpus
    try:
        res = run_attack(pub, cfg)
    except ValueError as exc:
        return f"{head} | ValueError: {exc}"
    finally:
        workers._cpus = saved
    counters = " ".join(f"{name}={getattr(res.stats, name)}" for name in COUNTERS)
    return f"{head} | {res.outcome} d={res.d} k={res.k} p={res.p} q={res.q} | {counters}"


def lines():
    return [line(*case) for case in cases()]


def main(argv):
    got = lines()
    if argv == ["--write"]:
        EXPECTED.write_text("".join(f"{text}\n" for text in got))
        print(f"{len(got)} lines written to {EXPECTED}")
        return 0
    want = EXPECTED.read_text().splitlines()
    moved = [(w, g) for w, g in zip(want, got) if w != g]
    for w, g in moved:
        print(f"- {w}\n+ {g}")
    print(f"{len(moved)} of {len(want)} lines moved; {len(got)} lines now")
    return int(bool(moved) or len(got) != len(want))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
