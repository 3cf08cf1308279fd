import os
import shlex
import subprocess
import sys

import pytest

from palfree.cli import GREEN_ANCHORS, classify_cell, main, run_command
from fractions import Fraction

F = Fraction


def run(cmd):
    return run_command(shlex.split(cmd))


def test_classify_cells():
    assert classify_cell(15, F(8, 3)) == ("green", "thm3d")
    assert classify_cell(16, F(8, 3))[0] == "green"
    assert classify_cell(18, F(28, 11)) == ("red", "mu_p")
    assert classify_cell(20, F(5, 2)) == ("red", "nu_p")
    assert classify_cell(9, None) == ("red", "001011")
    assert classify_cell(14, F(8, 3)) == ("empty", None)
    assert classify_cell(8, None) == ("empty", None)
    assert classify_cell(24, F(7, 3)) == ("empty", None)
    assert classify_cell(26, F(2))[0] == "empty"  # the leftmost column stays empty


def test_green_anchor_budgets_match_registry():
    from palfree.transfer import load_instance
    for name, (p, beta) in GREEN_ANCHORS.items():
        inst = load_instance(name)
        assert inst.claimed_palindromes == p
        assert inst.target_bound.threshold == beta


def test_table1_periodic_cell(capsys):
    code = main(["table1", "--p", "9", "--beta", "inf"])
    out = capsys.readouterr().out
    assert code == 0
    assert "classification: red" in out
    assert "palindromes: 9" in out


def test_table1_empty_cell():
    cert = run("table1 --p 14 --beta 8/3 --cap 200")
    assert cert.outcome == "pass"
    assert cert.evidence["classification"] == "empty"
    assert cert.evidence["result"] == "exhausted"
    assert int(cert.evidence["max-depth-reached"]) <= 52


def test_table1_unclassified_cell():
    cert = run("table1 --p 12 --beta 7/2")
    assert cert.outcome == "inconclusive"
    assert cert.evidence["classification"] == "unclassified"


def test_table1_green_cell_fast():
    cert = run("table1 --p 15 --beta 8/3")
    assert cert.outcome == "pass"
    assert cert.evidence["witness-instance"] == "thm3d"
    assert cert.evidence["palindromes-within-cell"] == "yes"


def test_optimality_cli_matches_library(capsys):
    code = main(["optimality", "--alphabet", "2", "--pal", "8",
                 "--cap", "100", "--symmetry"])
    out = capsys.readouterr().out
    assert code == 0
    assert "max-depth-reached: 8" in out


def test_growth_cli():
    cert = run("growth --pal 11 --max-n 45 --expect 1.1127756842787 --tol 0.02")
    assert cert.outcome == "pass"
    assert len(cert.lists["counts"]) == 46


def test_exponent_empirical_cli():
    cert = run("exponent --word nu_p --method empirical --prefix 30000 --expect 5/2")
    assert cert.outcome == "pass"
    assert cert.evidence["critical-exponent"] == "5/2"


def test_exponent_bound_check_cli():
    cert = run("exponent --word mu_p --method empirical --prefix 30000 --bound 28/11+")
    assert cert.outcome == "pass"
    assert cert.evidence["free"] == "yes"
    bad = run("exponent --word mu_p --method empirical --prefix 30000 --bound 5/2")
    assert bad.outcome == "fail"
    assert bad.evidence["free"].startswith("no")


def test_palindromes_cli():
    cert = run("palindromes --word 001011 --prefix 60000 --expect 9")
    assert cert.outcome == "pass"
    assert cert.evidence["stabilized"] == "yes"
    bad = run("palindromes --word 001011 --prefix 60000 --expect 10")
    assert bad.outcome == "fail"


def test_splice_cli():
    cert = run("splice --prefix 60000 --center 200")
    assert cert.outcome == "pass"
    assert cert.evidence["central-length"] == "200"
    assert cert.evidence["central-free-5/2+"] == "yes"
    assert cert.evidence["marker-prefix-of-110nu"] == "yes"
    assert cert.evidence["marker-in-nu"] == "no"
    assert cert.evidence["marker-in-reverse"] == "no"


def test_preimage_cli_family_mismatch():
    with pytest.raises(SystemExit):
        run("preimage-prove --morphism mu --family F20")


def test_cert_out_file(tmp_path):
    path = tmp_path / "out.cert"
    code = main(["palindromes", "--word", "001011", "--prefix", "20000",
                 "--expect", "9", "--out", str(path)])
    assert code == 0
    text = path.read_text()
    assert text.startswith("palfree certificate 1")


def test_optimality_cli_rejects_symmetry_with_asymmetric_forbid(capsys):
    code = main(["optimality", "--alphabet", "2", "--cap", "5", "--symmetry",
                 "--forbid", "0"])
    assert code == 2
    assert "symmetry" in capsys.readouterr().err


def test_python_dash_m_palfree_runs_the_cli():
    import palfree
    src = os.path.dirname(os.path.dirname(palfree.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "palfree", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "verify-morphism" in proc.stdout
