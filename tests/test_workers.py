"""The worker layer: split work gives the serial answer, and no worker
outlives its run or turns a failure into a traceback or an "exhausted"."""

import os
import signal
import subprocess
import sys
import time
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rsacf import AttackConfig, PublicKey, approximation_target, contfrac, keygen_weak
from rsacf import attack, run_attack, workers, write_key
from rsacf.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True)
def fresh_workers():
    """Each test forks its own workers, after its patches, and reaps them."""
    workers.shutdown()
    yield
    workers.shutdown()


def _pow_cost(exp):
    return max(exp.bit_length() + bin(exp).count("1") - 2, 0)


def _scan_args(pub, approx, m, r_max, s_max, minus_form):
    target, _ = approximation_target(pub, approx)
    cf = contfrac.expand(target)
    return (pub.n, pub.e, *cf.convergent(m), *cf.convergent(m + 1), r_max, s_max,
            minus_form)


def _scan_in_blocks(args, cuts, per_list):
    """vvt_scan(*args) with its rows in the blocks between cuts, per_list
    blocks to each workers.run call."""
    def blocks(r_max, s_max, bits):
        edges = [1, *sorted({c for c in cuts if 1 < c <= s_max}), s_max + 1]
        ranges = list(zip(edges, edges[1:]))
        for i in range(0, len(ranges), per_list):
            yield ranges[i:i + per_list]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(attack, "_row_blocks", blocks)
        return attack.vvt_scan(*args)


def _one_pass(args):
    n, e, p0, q0, p1, q1, r_max, s_max, minus_form = args
    return attack._scan_rows(n, e, p0, q0, p1, q1, r_max, 1, s_max + 1, minus_form)


class TestScanBlocks:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(bits=st.integers(32, 96), d_ratio=st.sampled_from([0.5, 1, 4, 16]),
           seed=st.integers(0, 2**63 - 1), approx=st.sampled_from(("plain", "improved")),
           pick=st.integers(0, 1 << 10), r_max=st.integers(1, 40),
           s_max=st.integers(1, 40), minus_form=st.booleans(),
           cuts=st.lists(st.integers(2, 40), max_size=6), per_list=st.integers(1, 3))
    # p1 = 0 on every row: anchor -1 of a target below 1.
    @example(bits=64, d_ratio=1, seed=0, approx="plain", pick=0, r_max=40,
             s_max=40, minus_form=True, cuts=[7, 20], per_list=2)
    def test_random_blocks_match_one_pass(self, bits, d_ratio, seed, approx, pick,
                                          r_max, s_max, minus_form, cuts, per_list):
        pub, _ = keygen_weak(bits, d_ratio, seed)
        target, _ = approximation_target(pub, approx)
        m = pick % len(contfrac.expand(target).convergents) - 1
        args = _scan_args(pub, approx, m, r_max, s_max, minus_form)
        assert _scan_in_blocks(args, cuts, per_list) == _one_pass(args)

    @pytest.mark.parametrize("minus_form", [False, True])
    def test_hit_in_and_at_the_start_of_a_block(self, minus_form):
        # Seed 3's key is found by the plus form at (r, s) = (5, 6) at
        # anchor m', seed 4's by the minus form at (4, -3) at m' + 1.
        seed, offset = (4, 1) if minus_form else (3, 0)
        pub, _ = keygen_weak(96, 4, seed)
        m = attack.anchor_index(pub) + offset
        args = _scan_args(pub, "plain", m, 12, 12, minus_form)
        want = _one_pass(args)
        assert want[0] is not None
        s_hit = 3 if minus_form else 6
        for cuts in ([s_hit], [s_hit - 1], [s_hit, s_hit + 1], [2, s_hit + 2]):
            for per_list in (1, 2, 3):
                assert _scan_in_blocks(args, cuts, per_list) == want

    def test_three_primes_first_hit_in_s_order(self):
        # n = 11 * 13 * 1009: the check also passes with the composite
        # p = 143, so several pairs pass and the first in (s, r, sign)
        # order must win whichever block finds one first.
        pub = PublicKey(11 * 13 * 1009, pow(5, -1, 142 * 1008))
        hits = 0
        for approx in ("plain", "improved"):
            target, _ = approximation_target(pub, approx)
            for m in range(-1, len(contfrac.expand(target).convergents) - 1):
                for minus_form in (False, True):
                    args = _scan_args(pub, approx, m, 24, 24, minus_form)
                    want = _one_pass(args)
                    hits += want[0] is not None
                    for cuts in ([5, 9, 17], [2, 3], [12]):
                        assert _scan_in_blocks(args, cuts, 2) == want
        assert hits

    def test_split_scan_matches_serial_window(self, monkeypatch):
        # A window above the threshold, split by _row_blocks itself.
        pub, _ = keygen_weak(96, 2**16, 11)
        args = _scan_args(pub, "plain", attack.anchor_index(pub), 256, 256, True)
        monkeypatch.setattr(workers, "_cpus", lambda: 2)
        assert len(next(attack._row_blocks(256, 256, 96))) == 2
        assert attack.vvt_scan(*args) == _one_pass(args)


def _mitm(pub, monkeypatch, min_work):
    """run_attack at R = S = 2^14 with the given threshold, and the
    exponents of every power charged to it."""
    exps = []
    charged = attack._pow

    def record(base, exp, n, stats):
        exps.append(exp)
        return charged(base, exp, n, stats)

    with monkeypatch.context() as mp:
        mp.setattr(workers, "MIN_WORK", min_work)
        mp.setattr(workers, "_cpus", lambda: 2)
        mp.setattr(attack, "_pow", record)
        res = run_attack(pub, AttackConfig(r_max=1 << 14, s_max=1 << 14))
    return res, Counter(exps)


@pytest.mark.parametrize("d_ratio, seed, outcome", [
    (2**20, 7, "exhausted"), (4, 1, "recovered")], ids=["exhausted", "recovered"])
def test_split_chains_match_serial(monkeypatch, d_ratio, seed, outcome):
    # Every counter but modmuls is the serial run's; modmuls is higher by
    # exactly the powers that start the later ranges of a split segment.
    pub, _ = keygen_weak(1024, d_ratio, seed)
    serial, serial_exps = _mitm(pub, monkeypatch, float("inf"))
    split, split_exps = _mitm(pub, monkeypatch, 0)
    assert serial.outcome == split.outcome == outcome
    assert (serial.d, serial.k, serial.p, serial.q) == (split.d, split.k, split.p, split.q)
    a, b = asdict(serial.stats), asdict(split.stats)
    for name in ("modmuls", "wall_time"):
        del a[name], b[name]
    assert a == b
    extra = split_exps - serial_exps
    assert serial_exps - split_exps == Counter() and extra
    assert split.stats.modmuls - serial.stats.modmuls == sum(
        _pow_cost(x) * c for x, c in extra.items())


def test_no_fork_runs_serially(monkeypatch):
    pub, _ = keygen_weak(96, 2**16, 11)
    cfg = AttackConfig(variant="vvt", r_max=256, s_max=256)
    with_fork = run_attack(pub, cfg)
    workers.shutdown()
    monkeypatch.delattr(os, "fork")
    assert workers.ways(1 << 30, 1024) == 1
    without = run_attack(pub, cfg)
    assert workers._workers == []
    assert (with_fork.outcome, with_fork.stats.method1_trials) == (
        without.outcome, without.stats.method1_trials)


def test_forked_child_keeps_off_the_parents_pipes():
    assert workers.run(abs, [(-1,), (-2,)]) == [1, 2]
    pid = os.fork()
    if pid == 0:
        ok = workers.run(abs, [(-3,), (-4,)]) == [3, 4]
        workers.shutdown()
        os._exit(0 if ok else 1)
    for _ in range(600):  # 60 s at most
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.1)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done and status == 0
    assert workers.run(abs, [(-5,), (-6,)]) == [5, 6]


def _cli_attack(tmp_path, capsys):
    key = tmp_path / "key.txt"
    write_key(key, keygen_weak(512, 2**20, 7)[0])
    code = main(["attack", "--key", str(key), "--rmax", "8192", "--smax", "8192"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _in_worker(act):
    """A power_chain_fps that does act() when called in a worker."""
    parent, chain = os.getpid(), attack.power_chain_fps

    def patched(*args):
        if os.getpid() != parent:
            act()
        return chain(*args)
    return patched


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def _raise():
    raise ZeroDivisionError("in a job")


@pytest.mark.parametrize("act, says", [
    (_kill_self, "died (EOFError)"), (_raise, "raised ZeroDivisionError: in a job")],
    ids=["killed", "raises"])
def test_worker_failure_exits_2(tmp_path, capsys, monkeypatch, act, says):
    monkeypatch.setattr(workers, "_cpus", lambda: 2)
    monkeypatch.setattr(attack, "power_chain_fps", _in_worker(act))
    code, out, err = _cli_attack(tmp_path, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("rsacf: worker ") and says in err
    assert "Traceback" not in err and "exhausted" not in err
    assert workers._workers == []
    monkeypatch.undo()  # the next run forks sound workers
    code, out, err = _cli_attack(tmp_path, capsys)
    assert (code, out, err) == (1, "", "exhausted\n")


def test_cli_run_leaves_no_process(tmp_path):
    # An exhausted key whose last chain segments (4,096 steps of 511 bits)
    # are split, in a session of its own: once the command has exited,
    # nothing of its process group is left. Development mode shows any
    # warning a worker would print, such as an unclosed pipe.
    pub = keygen_weak(512, 2**20, 7)[0]
    assert workers.ways(4096, pub.n.bit_length()) == min(workers._cpus(), 4096)
    key = tmp_path / "key.txt"
    write_key(key, pub)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.Popen(
        [sys.executable, "-X", "dev", "-m", "rsacf.cli", "attack", "--key", str(key),
         "--rmax", "8192", "--smax", "8192"],
        env=env, start_new_session=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = proc.communicate(timeout=120)
    assert (proc.returncode, out, err) == (1, b"", b"exhausted\n")
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
