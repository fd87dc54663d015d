"""End-to-end tests for the command-line interface (in-process)."""

import json

import pytest

from rsacf import keygen_weak, read_key
from rsacf.cli import main


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
