"""End-to-end tests for the command-line interface (in-process)."""

import io
import json
import shlex
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rsacf import attack, cli, contfrac, keygen_weak, read_key, workers, write_key
from rsacf.cli import main

# 96-bit key, d about 4 * n^0.25, recoverable only through the minus form
# within (r, s) bounds (16, 16); the first of tests/test_attack.py's
# MINUS_ONLY_SEEDS.
MINUS_ONLY_SEED = 4590906539325665225


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCf:
    def test_known_expansion(self, capsys):
        code, out, _ = run(capsys, "cf", "--num", "17", "--den", "77")
        assert code == 0
        assert out.splitlines() == [
            "[0;4,1,1,8]", "0/1", "1/4", "1/5", "2/9", "17/77",
        ]

    def test_candidate_listing(self, capsys):
        code, out, _ = run(capsys, "cf", "--num", "1", "--den", "3", "--c", "1")
        assert code == 0
        lines = out.splitlines()
        # Candidate rows follow the convergents: m r s sign p/q sat.
        cand_lines = [ln for ln in lines if " " in ln]
        assert cand_lines
        for ln in cand_lines:
            m, r, s, sign, frac, sat = ln.split()
            assert sign in "+-" and sat in "01" and "/" in frac

    def test_bad_inputs(self, capsys):
        assert run(capsys, "cf", "--num", "1", "--den", "0")[0] == 2
        assert run(capsys, "cf", "--num", "1", "--den", "3", "--c", "-1")[0] == 2


class TestKeygenAttack:
    def test_end_to_end(self, tmp_path, capsys):
        key = tmp_path / "weak.txt"
        code, _, _ = run(capsys, "keygen", "--bits", "96", "--d-ratio", "4",
                         "--seed", "5", "-o", str(key))
        assert code == 0
        _, priv = read_key(key)
        code, out, _ = run(capsys, "attack", "--key", str(key),
                           "--variant", "mitm", "--rmax", "16", "--smax", "16")
        assert code == 0
        fields = dict(line.split(" = ") for line in out.splitlines())
        assert int(fields["d"], 16) == priv.d
        assert int(fields["p"], 16) * int(fields["q"], 16) == priv.p * priv.q

    def test_public_only_key_is_enough(self, tmp_path, capsys):
        key = tmp_path / "pub.txt"
        pub, priv = keygen_weak(96, 4, 5)
        key.write_text(f"n = {pub.n:x}\ne = {pub.e:x}\n")
        code, out, _ = run(capsys, "attack", "--key", str(key),
                           "--rmax", "16", "--smax", "16")
        assert code == 0
        assert f"d = {priv.d:x}" in out

    def test_exhausted_exit_code(self, tmp_path, capsys):
        key = tmp_path / "strong.txt"
        pub, _ = keygen_weak(64, 776.0, 0)  # d near n^0.4
        key.write_text(f"n = {pub.n:x}\ne = {pub.e:x}\n")
        code, out, err = run(capsys, "attack", "--key", str(key),
                             "--variant", "wiener")
        assert code == 1
        assert out == ""
        assert "exhausted" in err

    def test_missing_key_file(self, capsys):
        code, _, err = run(capsys, "attack", "--key", "does-not-exist.txt")
        assert code == 2
        assert err

    def test_bad_bound_config(self, tmp_path, capsys):
        key = tmp_path / "k.txt"
        run(capsys, "keygen", "--bits", "96", "--d-ratio", "4",
            "--seed", "5", "-o", str(key))
        assert run(capsys, "attack", "--key", str(key),
                   "--variant", "mitm")[0] == 2

    def test_stats_on_stderr_only(self, tmp_path, capsys):
        key = tmp_path / "k.txt"
        run(capsys, "keygen", "--bits", "96", "--d-ratio", "4",
            "--seed", "5", "-o", str(key))
        args = ("attack", "--key", str(key), "--rmax", "16", "--smax", "16")
        _, plain_out, _ = run(capsys, *args)
        _, stats_out, stats_err = run(capsys, *args, "--stats")
        assert stats_out == plain_out
        assert "modmuls=" in stats_err

    @pytest.mark.parametrize("variant", ["vvt", "mitm"])
    def test_nonpositive_bounds_exit_2(self, tmp_path, capsys, variant):
        key = tmp_path / "k.txt"
        run(capsys, "keygen", "--bits", "96", "--d-ratio", "4",
            "--seed", "5", "-o", str(key))
        code, out, err = run(capsys, "attack", "--key", str(key), "--variant",
                             variant, "--rmax", "-3", "--smax", "4")
        assert code == 2
        assert out == ""
        assert "exhausted" not in err

    @pytest.mark.parametrize("ratio", ["inf", "nan"])
    def test_nonfinite_d_ratio_exit_2(self, tmp_path, capsys, ratio):
        key = tmp_path / "k.txt"
        run(capsys, "keygen", "--bits", "96", "--d-ratio", "4",
            "--seed", "5", "-o", str(key))
        code, out, err = run(capsys, "attack", "--key", str(key), "--variant",
                             "mitm", "--bound-mode", "quotient", "--d-ratio", ratio)
        assert code == 2
        assert out == ""
        assert "finite positive d_ratio" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", ["n = 1\ne = 3\n", "n = 161d5\ne = 0\n"])
    def test_degenerate_key_exit_2(self, tmp_path, capsys, text):
        key = tmp_path / "k.txt"
        key.write_text(text)
        code, out, err = run(capsys, "attack", "--key", str(key), "--variant", "vvt",
                             "--rmax", "4", "--smax", "4", "--improved-approx")
        assert code == 2
        assert out == ""
        assert "exhausted" not in err


# (bits, d_ratio, seed) of a key whose d is near n^0.4, out of every reach.
EXHAUSTED_KEY = (64, 776.0, 0)

# (bits, d_ratio, seed) of the key, then the attack flags.
GOLDEN = [
    ((96, 0.3, 11), ("--variant", "wiener")),
    ((96, 4, 5), ("--variant", "vvt", "--rmax", "16", "--smax", "16")),
    ((96, 16, 0), ("--variant", "mitm", "--rmax", "64", "--smax", "64")),
    ((96, 4, MINUS_ONLY_SEED), ("--variant", "mitm", "--rmax", "16", "--smax", "16",
                                "--minus-form")),
    ((96, 4, MINUS_ONLY_SEED), ("--variant", "vvt", "--rmax", "16", "--smax", "16",
                                "--minus-form")),
    ((96, 16, 3), ("--rmax", "16", "--smax", "16", "--improved-approx")),
    ((96, 8, 2), ("--rmax", "32", "--smax", "32", "--gcd-rows")),
    ((96, 4, 5), ("--bound-mode", "fixed4d", "--d-ratio", "4")),
    ((96, 4, 5), ("--bound-mode", "quotient", "--d-ratio", "4")),
    ((128, 4, 7), ("--bound-mode", "quotient", "--d-ratio", "4", "--improved-approx",
                   "--gcd-rows", "--minus-form")),
    (EXHAUSTED_KEY, ("--rmax", "8", "--smax", "8")),
    ((96, 2, 0), ("--variant", "wiener", "--improved-approx")),
]


@pytest.mark.parametrize("key_args, flags", GOLDEN)
def test_attack_stdout_golden(tmp_path, capsys, key_args, flags):
    # The expected text comes from the private key alone; the key file the
    # attack reads holds only the public half.
    pub, priv = keygen_weak(*key_args)
    key = tmp_path / "pub.txt"
    write_key(key, pub)
    code, out, _ = run(capsys, "attack", "--key", str(key), *flags)
    if key_args == EXHAUSTED_KEY:
        assert (code, out) == (1, "")
        return
    k = (pub.e * priv.d - 1) // priv.phi
    assert code == 0
    assert out == f"d = {priv.d:x}\nk = {k:x}\np = {priv.p:x}\nq = {priv.q:x}\n"


# The --stats counters of each GOLDEN attack, every one but wall_time:
# (modmuls, probes, collisions, method1_trials, table_bytes, rows_examined,
# rows_skipped, m_tried). table_bytes is measured with sys.getsizeof, whose
# figures for the same dict and array depend on the CPython version: these
# were read under 3.11 to 3.13 (3.10 reads 8 to 16 B more), so a nonzero
# table_bytes is compared under those versions only.
GOLDEN_STATS = [
    (0, 0, 0, 9, 0, 0, 0, 0),
    (0, 0, 0, 76, 0, 0, 0, 1),
    (338, 64, 0, 62, 6248, 0, 0, 1),
    (301, 64, 0, 54, 3472, 0, 0, 2),
    (0, 0, 0, 378, 0, 0, 0, 2),
    (0, 0, 0, 17, 0, 0, 0, 0),
    (264, 32, 0, 64, 3232, 621, 339, 1),
    (248, 16, 0, 51, 1736, 0, 0, 1),
    (290, 27, 0, 51, 5228, 0, 0, 1),
    (0, 0, 0, 21, 0, 0, 0, 0),
    (219, 24, 0, 35, 1184, 0, 0, 3),
    (0, 0, 0, 13, 0, 0, 0, 0),
]


@pytest.mark.parametrize("key_args, flags, counters", [
    (key_args, flags, counters) for (key_args, flags), counters in zip(GOLDEN, GOLDEN_STATS)])
def test_attack_stats_golden(tmp_path, capsys, key_args, flags, counters):
    key = tmp_path / "pub.txt"
    write_key(key, keygen_weak(*key_args)[0])
    _, _, err = run(capsys, "attack", "--key", str(key), *flags, "--stats")
    line, = [line for line in err.splitlines() if line.startswith("stats: ")]
    names = [f.name for f in fields(attack.Stats) if f.name != "wall_time"]
    got = dict(field.split("=") for field in line.split()[1:-1])
    assert list(got) == names
    want = dict(zip(names, map(str, counters)))
    if not (3, 11) <= sys.version_info[:2] <= (3, 13) and want["table_bytes"] != "0":
        del got["table_bytes"], want["table_bytes"]
    assert got == want


def _assert_input_error(code, out, err):
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert "exhausted" not in err


@pytest.mark.parametrize("key_text, flags", [
    (None, ("--bound-mode", "quotient", "--d-ratio", "1e308")),
    (None, ("--bound-mode", "fixed4d", "--d-ratio", "1e308")),
    # e/n = [0; n]: the partial quotient n ~ 2^1023 makes the bound inf,
    ("n = %x\ne = 1\n" % (2**1023 + 12345), ("--bound-mode", "quotient", "--d-ratio", "4")),
    # and one past the float range cannot be converted at all.
    ("n = %x\ne = 1\n" % (2**1100 + 1), ("--bound-mode", "quotient", "--d-ratio", "4")),
], ids=["quotient-1e308", "fixed4d-1e308", "quotient-2^1023", "quotient-2^1100"])
def test_nonfinite_search_bounds_exit_2(tmp_path, capsys, key_text, flags):
    key = tmp_path / "k.txt"
    if key_text is None:
        write_key(key, keygen_weak(96, 4, 5)[0])
    else:
        key.write_text(key_text)
    code, out, err = run(capsys, "attack", "--key", str(key), "--variant", "mitm", *flags)
    _assert_input_error(code, out, err)
    assert "not finite" in err


@pytest.mark.parametrize("argv", [
    ("keygen", "--bits", "64", "--d-ratio", "inf"),
    ("keygen", "--bits", "64", "--d-ratio", "1e300"),  # no d window below phi
    ("bench", "success", "--bits", "64", "--d-ratio", "inf", "--trials", "2"),
    ("bench", "success", "--bits", "64", "--d-ratio", "0", "--trials", "2"),
    ("bench", "success", "--bits", "64", "--d-ratio", "-1", "--trials", "2"),
    ("cf", "--num", "1", "--den", "3", "--c", "inf"),
    ("cf", "--num", "1", "--den", "3", "--c", "nan"),
    ("cf", "--num", "1", "--den", "3", "--c", "-1"),
])
def test_bad_float_input_exit_2(tmp_path, capsys, argv):
    out_file = tmp_path / "k.txt"
    if argv[0] == "keygen":
        argv += ("-o", str(out_file))
    _assert_input_error(*run(capsys, *argv))
    assert not out_file.exists()


@pytest.mark.parametrize("num, den, c", [
    (1, 3, "1e6"),
    (3**646, 2**1024 - 3, "16"),  # about 600 partial quotients
], ids=["c-1e6", "1024-bit"])
def test_cf_candidate_budget_exit_2(capsys, monkeypatch, num, den, c):
    # Refused before any pair or candidate is built.
    def no_candidates(*args):
        raise AssertionError("a candidate was built")
    monkeypatch.setattr(contfrac, "WorleyCandidate", no_candidates)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "cf", "--num", str(num), "--den", str(den), "--c", c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _assert_input_error(code, out, err)
    assert "candidate fractions" in err
    assert peak < 1 << 20


def _assert_capped(tmp_path, capsys, argv):
    if argv[0] == "attack":
        key = tmp_path / "k.txt"
        write_key(key, keygen_weak(96, 16, 0)[0])  # beyond Wiener, so a window opens
        argv += ("--key", str(key))
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _assert_input_error(code, out, err)
    assert "exceed the cap" in err
    assert peak < 1 << 20


@pytest.mark.parametrize("argv", [
    ("attack", "--variant", "mitm", "--rmax", "1099511627776", "--smax", "16"),
    ("attack", "--variant", "mitm", "--bound-mode", "fixed4d", "--d-ratio", "1e12"),
    ("bench", "success", "--bits", "64", "--d-ratio", "1e7", "--trials", "2"),
], ids=["rmax-2^40", "fixed4d-1e12", "bench-1e7"])
def test_mitm_chain_cap_exit_2(tmp_path, capsys, monkeypatch, argv):
    # Refused before the first power of 2 is taken, so before any chain.
    def no_chain(*args):
        raise AssertionError("a power chain was started")
    monkeypatch.setattr(attack, "mod_pow", no_chain)
    _assert_capped(tmp_path, capsys, argv)


@pytest.mark.parametrize("flags", [
    ("--rmax", "1099511627776", "--smax", "16"),
    ("--bound-mode", "fixed4d", "--d-ratio", "1e12"),
], ids=["rmax-2^40", "fixed4d-1e12"])
def test_mitm_cap_refused_before_any_job(tmp_path, capsys, monkeypatch, flags):
    # A 1024-bit key, whose 2^e mod n would go to a worker beside its
    # set-up: bounds the same at every anchor are refused before that, with
    # the line a 96-bit key gets, and no job list is run.
    argv = ("attack", "--variant", "mitm", *flags)
    small = tmp_path / "k96.txt"
    write_key(small, keygen_weak(96, 16, 0)[0])
    want = _run_quiet([*argv, "--key", str(small)])
    monkeypatch.setattr(workers, "_cpus", lambda: 1)  # the key is made here
    pub, _ = keygen_weak(1024, 4, 1)
    key = tmp_path / "k.txt"
    write_key(key, pub)
    monkeypatch.setattr(workers, "_cpus", lambda: 2)
    assert workers.ways(attack._muls(pub.e), pub.n.bit_length()) == 2

    def no_job(*args):
        raise AssertionError("a job list was run")
    monkeypatch.setattr(workers, "run", no_job)
    code, out, err = run(capsys, *argv, "--key", str(key))
    _assert_input_error(code, out, err)
    assert "exceed the cap" in err
    assert (code, out, err) == want


def test_quotient_cap_refused_before_any_job(tmp_path, capsys, monkeypatch):
    # A 1024-bit key whose first anchor's quotient s bound is over the cap.
    # Its set-up is made here, not beside 2^e on a worker, and the first
    # anchor refuses the bounds before B = 2^e mod n is made.
    pub, _ = keygen_weak(1024, 65536, 1005)
    key = tmp_path / "k.txt"
    write_key(key, pub)
    monkeypatch.setattr(workers, "_cpus", lambda: 2)
    assert workers.ways(attack._muls(pub.e), pub.n.bit_length()) == 2
    powers_of_2, mod_pow = [], attack.mod_pow

    def counted(base, exp, n):
        if base == 2:
            powers_of_2.append(exp)
        return mod_pow(base, exp, n)

    def no_job(*args):
        raise AssertionError("a job list was run")

    monkeypatch.setattr(attack, "mod_pow", counted)
    monkeypatch.setattr(workers, "run", no_job)
    with pytest.raises(ValueError, match="exceed the cap"):
        attack.run_attack(pub, attack.AttackConfig(
            bound_mode="quotient", d_ratio=65536, approx="improved"))
    code, out, err = run(capsys, "attack", "--key", str(key), "--variant", "mitm",
                         "--bound-mode", "quotient", "--d-ratio", "65536", "--improved-approx")
    assert (code, out, err) == (
        2, "", "rsacf: mitm bounds (91601, 23719175) exceed the cap of 4194304 per side\n")
    assert powers_of_2 == []


@pytest.mark.parametrize("argv", [
    ("attack", "--variant", "vvt", "--rmax", "1000000", "--smax", "1000000"),
    ("attack", "--variant", "vvt", "--bound-mode", "fixed4d", "--d-ratio", "1e5"),
], ids=["rmax-smax-10^6", "fixed4d-1e5"])
def test_vvt_pair_cap_exit_2(tmp_path, capsys, monkeypatch, argv):
    # Refused before the quadratic scan starts.
    def no_scan(*args):
        raise AssertionError("a vvt scan was started")
    monkeypatch.setattr(attack, "vvt_scan", no_scan)
    _assert_capped(tmp_path, capsys, argv)


@pytest.mark.parametrize("bounds, flags", [
    ({"r_max": 10**7, "s_max": 10**7}, ("--rmax", "10000000", "--smax", "10000000")),
    ({"bound_mode": "fixed4d", "d_ratio": 1e7}, ("--bound-mode", "fixed4d", "--d-ratio", "1e7")),
], ids=["rmax-smax-10^7", "fixed4d-1e7"])
@pytest.mark.parametrize("variant", ["vvt", "mitm"])
def test_cap_refused_before_the_set_up(tmp_path, capsys, monkeypatch, variant, bounds, flags):
    # A key that the Wiener pass recovers: bounds the same at every anchor
    # over either engine's cap are refused before the key's set-up, so
    # before that pass could recover it.
    pub, _ = keygen_weak(256, 0.1, 1)
    assert attack.run_attack(pub, attack.AttackConfig(variant="wiener")).recovered
    key = tmp_path / "k.txt"
    write_key(key, pub)

    def no_set_up(*args):
        raise AssertionError("the key's set-up was made")

    monkeypatch.setattr(attack, "key_context", no_set_up)
    with pytest.raises(ValueError, match="exceed the cap"):
        attack.run_attack(pub, attack.AttackConfig(variant=variant, **bounds))
    code, out, err = run(capsys, "attack", "--key", str(key), "--variant", variant, *flags)
    _assert_input_error(code, out, err)
    assert "exceed the cap" in err


def _run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


FLAGS = ("--improved-approx", "--gcd-rows", "--minus-form")


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(n=st.integers(6, 2**40), e=st.integers(1, 2**40),
       variant=st.sampled_from(attack.VARIANTS),
       r_max=st.integers(1, 8), s_max=st.integers(1, 8),
       flags=st.lists(st.sampled_from(FLAGS), unique=True))
@example(n=16, e=9, variant="mitm", r_max=4, s_max=4, flags=[])
@example(n=8, e=3, variant="mitm", r_max=4, s_max=4, flags=[])
def test_exit_code_contract(n, e, variant, r_max, s_max, flags):
    # Any key file read_key accepts: exit 0, 1 or 2 with no traceback,
    # stdout only on exit 0, and printed factors that multiply to n.
    with tempfile.TemporaryDirectory() as tmp:
        key = Path(tmp) / "k.txt"
        key.write_text(f"n = {n:x}\ne = {e:x}\n")
        outs = set()
        for v in attack.VARIANTS if n % 2 == 0 else (variant,):
            code, out, err = _run_quiet(["attack", "--key", str(key), "--variant", v,
                                         "--rmax", str(r_max), "--smax", str(s_max),
                                         *flags])
            assert code in (0, 1, 2)
            assert "Traceback" not in err
            if code:
                assert out == ""
                continue
            fields = dict(line.split(" = ") for line in out.splitlines())
            p, q = int(fields["p"], 16), int(fields["q"], 16)
            assert 1 < p and p * q == n
            outs.add(out)
    if n % 2 == 0:
        assert outs == {f"p = 2\nq = {n // 2:x}\n"}


def test_readme_commands_exit_0(tmp_path, capsys, monkeypatch):
    # Every `rsacf ...` line of the README's command-line block, in order.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    argvs = [shlex.split(line)[1:] for line in block.split("```", 1)[0].splitlines()
             if line.startswith("rsacf ")]
    assert len(argvs) >= 8
    monkeypatch.chdir(tmp_path)
    for argv in argvs:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)


# `bench success --bits 128 --d-ratio 16 --trials 8 --seed 1 --json` as
# computed by running every row's attack and rescue on its own.
SUCCESS_JSON_GOLDEN = [
    {"r_bound_mult": 4, "s_bound_mult": 4, "trials": 8, "successes": 8, "rate": 1.0},
    {"r_bound_mult": 2, "s_bound_mult": 2, "trials": 8, "successes": 7, "rate": 0.875},
    {"r_bound_mult": 1, "s_bound_mult": 1, "trials": 8, "successes": 6, "rate": 0.75},
    {"r_bound_mult": 1, "s_bound_mult": 4, "trials": 8, "successes": 7, "rate": 0.875},
    {"r_bound_mult": 4, "s_bound_mult": 1, "trials": 8, "successes": 7, "rate": 0.875},
    {"r_bound_mult": 0.5, "s_bound_mult": 2, "trials": 8, "successes": 6, "rate": 0.75},
    {"r_bound_mult": 2, "s_bound_mult": 0.5, "trials": 8, "successes": 4, "rate": 0.5},
    {"r_bound_mult": 0.25, "s_bound_mult": 4, "trials": 8, "successes": 3, "rate": 0.375},
    {"r_bound_mult": 4, "s_bound_mult": 0.25, "trials": 8, "successes": 4, "rate": 0.5}
]


class TestBench:
    def test_bounds_json(self, capsys):
        code, out, _ = run(capsys, "bench", "bounds", "--json")
        assert code == 0
        rows = json.loads(out)
        assert rows[0] == {"log2n": 512, "mitm_bound_bits": 158,
                           "lll_bound_bits": 150}
        assert len(rows) == 4

    def test_bounds_custom_rows(self, capsys):
        code, out, _ = run(capsys, "bench", "bounds", "--rows", "100")
        assert code == 0
        assert "100" in out
        assert run(capsys, "bench", "bounds", "--rows", "abc")[0] == 2

    @pytest.mark.parametrize("rows", ["-4", "0", "512,0"])
    def test_bounds_row_below_one_exit_2(self, capsys, rows):
        # A log2(n) below 1 gave a row with a negative or zero LLL bound.
        code, out, err = run(capsys, "bench", "bounds", f"--rows={rows}")
        assert (code, out) == (2, "")
        assert err.startswith("rsacf: ")

    def test_success_json_deterministic(self, capsys):
        args = ("bench", "success", "--bits", "64", "--d-ratio", "2",
                "--trials", "4", "--seed", "9", "--json")
        code, out1, _ = run(capsys, *args)
        assert code == 0
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        rows = json.loads(out1)
        assert len(rows) == 9
        assert all(r["trials"] == 4 for r in rows)

    def test_success_json_golden(self, capsys):
        code, out, _ = run(capsys, "bench", "success", "--bits", "128", "--d-ratio", "16",
                           "--trials", "8", "--seed", "1", "--json")
        assert code == 0
        assert out == json.dumps(SUCCESS_JSON_GOLDEN) + "\n"


class TestParser:
    def test_unknown_flag_is_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["cf", "--num", "1", "--den", "3", "--frob"])
        assert exc_info.value.code == 2

    def test_version_names_program(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0
        assert capsys.readouterr().out == "rsacf 0.1.0\n"

    @pytest.mark.parametrize("argv", [
        ["--help"], ["--version"], ["attack", "--help"], ["attack"],
        ["bench", "success", "--bits", "x", "--d-ratio", "1", "--trials", "1"]],
        ids=["help", "version", "attack-help", "no-key", "bad-int"])
    def test_cached_parser_answers_as_a_fresh_one(self, capsys, argv):
        # main builds the parser once a process. A parse after any other,
        # usage errors and --help included, answers as a fresh parser does.
        assert cli._build_parser() is cli._build_parser()
        answers = []
        for parser in (cli._build_parser.__wrapped__(), cli._build_parser(),
                       cli._build_parser()):
            with pytest.raises(SystemExit) as exc_info:
                parser.parse_args(argv)
            answers.append((exc_info.value.code, *capsys.readouterr()))
        assert answers[0] == answers[1] == answers[2]
        argv = ["attack", "--key", "k.txt", "--rmax", "8", "--minus-form"]
        assert cli._build_parser().parse_args(argv) == (
            cli._build_parser.__wrapped__().parse_args(argv))
