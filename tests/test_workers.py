"""The worker layer: split work gives the serial answer, and no worker
outlives its run or turns a failure into a traceback or an "exhausted"."""

import functools
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

from rsacf import AttackConfig, GenerationError, PublicKey, approximation_target, contfrac
from rsacf import attack, bench, keygen_weak, run_attack, workers, write_key
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
           s_max=st.integers(1, 64), minus_form=st.booleans(),
           cuts=st.lists(st.integers(2, 64), max_size=6), per_list=st.integers(1, 3))
    # p1 = 0 on every row: anchor -1 of a target below 1.
    @example(bits=64, d_ratio=1, seed=0, approx="plain", pick=0, r_max=40,
             s_max=40, minus_form=True, cuts=[7, 20], per_list=2)
    # Anchor m' + 1, whose rows 15, 30 and 60 (gcd(s, 30) = 15 or 30) start
    # their minus pairs inside a class of r mod gcd(s, 30); row 30 is a block
    # of its own and row 60 starts one.
    @example(bits=96, d_ratio=16, seed=3, approx="plain", pick=15, r_max=40,
             s_max=64, minus_form=True, cuts=[30, 31, 45, 60], per_list=2)
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


def _mitm(pub, monkeypatch, min_work, cpus=2):
    """run_attack at R = S = 2^14 with the given threshold on cpus CPUs,
    and the exponents of every power charged to it."""
    exps = []
    charged = attack._charge

    def record(exp, stats):
        exps.append(exp)
        return charged(exp, stats)

    with monkeypatch.context() as mp:
        mp.setattr(workers, "MIN_WORK", min_work)
        mp.setattr(workers, "_cpus", lambda: cpus)
        mp.setattr(attack, "_charge", record)
        res = run_attack(pub, AttackConfig(r_max=1 << 14, s_max=1 << 14))
    return res, Counter(exps)


@pytest.mark.parametrize("d_ratio, seed, outcome, cpus", [
    (2**20, 7, "exhausted", 2), (4, 1, "recovered", 2),
    (2**20, 7, "exhausted", 3), (4, 1, "recovered", 3),
], ids=["exhausted", "recovered", "exhausted-3cpus", "recovered-3cpus"])
def test_split_chains_match_serial(monkeypatch, d_ratio, seed, outcome, cpus):
    # Every counter but modmuls is the serial run's; modmuls is higher by
    # exactly the powers that start the later ranges of a split segment.
    pub, _ = keygen_weak(1024, d_ratio, seed)
    serial, serial_exps = _mitm(pub, monkeypatch, float("inf"))
    split, split_exps = _mitm(pub, monkeypatch, 0, cpus)
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


# Every --stats counter but wall_time and table_bytes of the exhausted
# search of keygen_weak(1024, 2^20, 7) at R = S = 2^14, serial and split over
# 2 CPUs: (modmuls, probes, collisions, method1_trials, rows_examined,
# rows_skipped, m_tried). Its chains take the limb step, whose table is not
# charged; the split's modmuls add the powers that start the later ranges.
EXHAUSTED_1024_COUNTERS = {
    "serial": (68620, 65472, 0, 577, 0, 0, 3),
    "split": (68804, 65472, 0, 577, 0, 0, 3),
}


@pytest.mark.parametrize("mode", ["serial", "split"])
def test_exhausted_1024_counters(monkeypatch, mode):
    pub, _ = keygen_weak(1024, 2**20, 7)
    res, _ = _mitm(pub, monkeypatch, float("inf") if mode == "serial" else workers.MIN_WORK)
    assert res.outcome == "exhausted"
    got = asdict(res.stats)
    del got["wall_time"], got["table_bytes"]
    assert tuple(got.values()) == EXHAUSTED_1024_COUNTERS[mode]


@functools.cache
def _key_1024(d_ratio):
    """keygen_weak(1024, d_ratio, 1), made once for the tests below."""
    return keygen_weak(1024, d_ratio, 1)[0]


def _jobs_sent(monkeypatch):
    """The job functions of every list that workers.run gets, once per
    list of two or more jobs."""
    sent, run = [], workers.run

    def spy(fn, jobs):
        if len(jobs) > 1:
            sent.append(getattr(fn, "__name__", fn))
        return run(fn, jobs)
    monkeypatch.setattr(workers, "run", spy)
    return sent


@pytest.mark.parametrize("d_ratio, outcome, lists", [
    (4, "recovered", ["_call", "_power"]), (0.1, "recovered", ["_call"])],
    ids=["first-stage", "wiener-pass"])
def test_split_set_up_matches_serial(monkeypatch, d_ratio, outcome, lists):
    # On 2 CPUs at the module's threshold, 2^e goes to the worker beside the
    # key's set-up, and a first window's two powers go as one list. The key
    # of D = 4 is found in the first stage at m', whose 64-step chains do not
    # split, so every counter is the serial run's, modmuls included, and so
    # is every power charged; this process makes only one of the two
    # powers. The key of D = 0.1 is found by the Wiener pass, which waits
    # for the worker's 2^e and opens no window: no power is charged.
    pub = _key_1024(d_ratio)
    workers.shutdown()
    serial, serial_exps = _mitm(pub, monkeypatch, float("inf"))
    assert workers._workers == []
    sent, made_here, here = _jobs_sent(monkeypatch), [], os.getpid()
    mod_pow = attack.mod_pow

    def recorded(base, exp, n):
        if os.getpid() == here:
            made_here.append(exp)
        return mod_pow(base, exp, n)
    monkeypatch.setattr(attack, "mod_pow", recorded)
    split, split_exps = _mitm(pub, monkeypatch, workers.MIN_WORK)
    assert sent == lists
    assert len(made_here) == len(lists) - 1 and pub.e not in made_here
    assert split.outcome == serial.outcome == outcome
    assert (serial.d, serial.k, serial.p, serial.q) == (split.d, split.k, split.p, split.q)
    a, b = asdict(serial.stats), asdict(split.stats)
    del a["wall_time"], b["wall_time"]
    assert a == b
    assert split_exps == serial_exps
    assert bool(serial_exps) == (d_ratio == 4)


def test_quotient_set_up_made_here(monkeypatch):
    # Quotient bounds need the key's set-up, so a quotient search makes it
    # in this process, and B = 2^e mod n once the first anchor's bounds
    # pass: on 2 CPUs the only list is the first window's two powers. The
    # key of D = 16 is found at m' in the first stage, whose 64-step chains
    # do not split, so every counter is the one-CPU run's.
    pub, _ = keygen_weak(1024, 16, 0)
    cfg = AttackConfig(bound_mode="quotient", d_ratio=16)
    monkeypatch.setattr(workers, "_cpus", lambda: 1)
    serial = run_attack(pub, cfg)
    monkeypatch.setattr(workers, "_cpus", lambda: 2)
    sent = _jobs_sent(monkeypatch)
    split = run_attack(pub, cfg)
    assert sent == ["_power"]
    assert split.recovered and split.stats.m_tried == 1
    assert (serial.d, serial.k, serial.p, serial.q) == (split.d, split.k, split.p, split.q)
    a, b = asdict(serial.stats), asdict(split.stats)
    del a["wall_time"], b["wall_time"]
    assert a == b


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


def _in_worker(act, fn):
    """fn, doing act() first when called in a worker."""
    parent = os.getpid()

    def patched(*args):
        if os.getpid() != parent:
            act()
        return fn(*args)
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
    monkeypatch.setattr(attack, "power_chain_fps", _in_worker(act, attack.power_chain_fps))
    code, out, err = _cli_attack(tmp_path, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("rsacf: worker ") and says in err
    assert "Traceback" not in err and "exhausted" not in err
    assert workers._workers == []
    monkeypatch.undo()  # the next run forks sound workers
    code, out, err = _cli_attack(tmp_path, capsys)
    assert (code, out, err) == (1, "", "exhausted\n")


@pytest.mark.parametrize("act, says", [
    (_kill_self, "died (EOFError)"), (_raise, "raised ZeroDivisionError: in a job")],
    ids=["killed", "raises"])
def test_worker_failure_in_set_up_exits_2(tmp_path, capsys, monkeypatch, act, says):
    # The worker's first job is 2^e, sent beside the key's set-up: a worker
    # that dies or raises there ends the command before any window opens,
    # and the next run forks a sound worker and recovers the key.
    key = tmp_path / "key.txt"
    write_key(key, _key_1024(4))
    workers.shutdown()  # keygen_weak's worker was forked before the patches
    argv = ["attack", "--key", str(key), "--rmax", "16384", "--smax", "16384"]
    monkeypatch.setattr(workers, "_cpus", lambda: 2)
    with monkeypatch.context() as mp:
        mp.setattr(attack, "mod_pow", _in_worker(act, attack.mod_pow))
        mp.setattr(attack, "_powers", _raise)  # no window may open
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("rsacf: worker ") and says in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert workers._workers == []
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith("d = ") and err == ""
    assert len(workers._workers) == 1


def _cli_bench(capsys, *flags):
    code = main(["bench", "success", "--bits", "128", "--d-ratio", "16", "--trials", "8",
                 "--seed", "1", "--json", *flags])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _serial_bench(capsys, monkeypatch, *flags):
    with monkeypatch.context() as mp:
        mp.setattr(workers, "MIN_WORK", float("inf"))
        return _cli_bench(capsys, *flags)


@pytest.mark.parametrize("act, says", [
    (_kill_self, "died (EOFError)"), (_raise, "raised ZeroDivisionError: in a job")],
    ids=["killed", "raises"])
def test_bench_worker_failure_exits_2(capsys, monkeypatch, act, says):
    want = _serial_bench(capsys, monkeypatch)
    assert want[0] == 0
    monkeypatch.setattr(workers, "_cpus", lambda: 2)
    monkeypatch.setattr(bench, "keygen_weak", _in_worker(act, bench.keygen_weak))
    code, out, err = _cli_bench(capsys)
    assert (code, out) == (2, "")
    assert err.startswith("rsacf: worker ") and says in err
    assert "Traceback" not in err
    assert workers._workers == []
    monkeypatch.undo()  # the next run forks sound workers
    assert _cli_bench(capsys) == want


@pytest.mark.parametrize("cpus", [2, 3])
def test_bench_keygen_error_is_the_serial_runs(capsys, monkeypatch, cpus):
    # Draws 5 and 6 fail. Split 2 ways, this process meets draw 6 and the
    # worker draw 5; split 3 ways, draw 6 and draw 5 on the second worker.
    # A serial run stops at draw 5, and so must every split.
    seeds, keygen = [], bench.keygen_weak

    def recorded(bits, ratio, seed):
        seeds.append(seed)
        return keygen(bits, ratio, seed)

    def failing(bits, ratio, seed):
        if seed in seeds[5:7]:
            raise GenerationError(f"no key for seed {seed}")
        return keygen(bits, ratio, seed)

    with monkeypatch.context() as mp:
        mp.setattr(bench, "keygen_weak", recorded)
        assert _serial_bench(capsys, monkeypatch)[0] == 0
    assert len(seeds) == 8
    monkeypatch.setattr(bench, "keygen_weak", failing)
    want = (2, "", f"rsacf: no key for seed {seeds[5]}\n")
    assert _serial_bench(capsys, monkeypatch) == want
    monkeypatch.setattr(workers, "_cpus", lambda: cpus)
    assert workers.ways(8, bench.KEY_OPS * 128) == cpus
    assert _cli_bench(capsys) == want
    assert len(workers._workers) == cpus - 1


def test_bench_cap_refused_before_any_job(capsys, monkeypatch):
    # The same line as a serial run, before any key is made or worker forked.
    def no_key(*args):
        raise AssertionError("a key was made")

    monkeypatch.setattr(bench, "keygen_weak", no_key)
    flags = ("--bits", "64", "--d-ratio", "1e7")
    want = _serial_bench(capsys, monkeypatch, *flags)
    assert want[:2] == (2, "") and "exceed the cap" in want[2]
    monkeypatch.setattr(workers, "MIN_WORK", 0)
    monkeypatch.setattr(workers, "_cpus", lambda: 2)
    assert _cli_bench(capsys, *flags) == want
    assert workers._workers == []


NESTED = """
import os
from rsacf import bench, workers

here, forks, fork = os.getpid(), [], workers._fork


def checked_fork():
    if os.getpid() != here:
        raise AssertionError("a worker forked")
    forks.append(1)
    return fork()


workers._fork = checked_fork
workers._cpus = lambda: 2
args = (512, 16, 6, 3)
workers.MIN_WORK = float("inf")
serial = bench.success_table(*args)
workers.MIN_WORK = 0
assert workers.ways(2, 512) == 2  # a window's chain segments would split
assert bench.success_table(*args) == serial, "split rows differ"
assert len(forks) == 1, forks
assert any(0 < row.successes < row.trials for row in serial), serial
print("ok")
"""


def test_nested_job_lists_run_serially():
    # Each key is a job, and its windows call run too. A job in this process
    # must not use the busy worker's pipes, and a worker must not fork;
    # either would hang or mix up replies, hence the timeout.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", NESTED], env=env, capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr


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


def test_cli_keygen_leaves_no_process(tmp_path):
    # A 1024-bit key's accepted primes split their Miller-Rabin rounds, so
    # keygen forks a worker; once the command has exited, nothing of its
    # session is left, and the key file is keygen_weak's.
    assert workers.ways(63 * 512, 512) == min(workers._cpus(), 63 * 512)
    want, got = tmp_path / "want.txt", tmp_path / "key.txt"
    write_key(want, *keygen_weak(1024, 4, 1))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.Popen(
        [sys.executable, "-X", "dev", "-m", "rsacf.cli", "keygen", "--bits", "1024",
         "--d-ratio", "4", "--seed", "1", "-o", str(got)],
        env=env, start_new_session=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = proc.communicate(timeout=120)
    assert (proc.returncode, out, err) == (0, b"", b"")
    assert got.read_text() == want.read_text()
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
