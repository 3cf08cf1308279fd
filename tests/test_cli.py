import importlib.util
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from palfree import cli, structure
from palfree.certificates import parse_certificate, read_certificate
from palfree.cli import (COMMANDS, GREEN_ANCHORS, build_parser, canonical_command,
                         classify_cell, main, run_command)
from palfree.structure import named_stream
from palfree.words import palindrome_count
from fractions import Fraction

F = Fraction
REFERENCE_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "reference"


def run(cmd):
    return run_command(shlex.split(cmd))


def test_classify_cells():
    assert classify_cell(15, F(8, 3)) == ("green", "thm3d")
    assert classify_cell(16, F(8, 3))[0] == "green"
    assert classify_cell(18, F(28, 11)) == ("red", "mu_p")
    assert classify_cell(20, F(5, 2)) == ("red", "nu_p")
    assert classify_cell(9, None) == ("red", "001011")
    assert classify_cell(10, None) == ("red", "001011")
    assert classify_cell(14, F(8, 3)) == ("empty", None)
    assert classify_cell(8, None) == ("empty", None)
    assert classify_cell(24, F(7, 3)) == ("empty", None)
    assert classify_cell(26, F(2))[0] == "empty"  # the leftmost column stays empty


def test_green_anchor_budgets_match_registry():
    # Table 1's eight anchors: (palindrome budget, target bound) per instance
    assert GREEN_ANCHORS == {
        "thm3a": (11, F(10, 3)), "thm3b": (12, F(23, 7)), "thm3c": (13, F(3)),
        "thm3d": (15, F(8, 3)), "thm3e": (18, F(13, 5)), "thm3f": (19, F(28, 11)),
        "thm3g": (21, F(5, 2)), "thm3h": (25, F(7, 3))}


def test_table1_periodic_cell(capsys):
    code = main(["table1", "--p", "9", "--beta", "inf"])
    out = capsys.readouterr().out
    assert code == 0
    assert "classification: red" in out
    assert "palindromes: 9" in out


@pytest.mark.parametrize("p,beta,count", [(18, "28/11", "18"), (20, "5/2", "20"),
                                          (9, "inf", "9")])
def test_table1_red_cells(p, beta, count):
    """The three red cells pass, each with its witness word's exact
    palindrome count."""
    cert = run(f"table1 --p {p} --beta {beta}")
    assert cert.outcome == "pass"
    assert cert.evidence["classification"] == "red"
    assert cert.evidence["palindromes"] == count


@pytest.mark.parametrize("p,beta", [(18, "28/11"), (20, "5/2")])
def test_table1_red_cell_rests_on_the_bispecial_proof(p, beta, monkeypatch):
    """A red mu/nu cell takes its exponent from the bispecial families, so
    it fails when that proof does; a prefix would still reach beta."""
    cert = run(f"table1 --p {p} --beta {beta}")
    assert cert.evidence["exponent-method"] == "bispecial"
    assert cert.evidence["critical-exponent"] == beta

    def unproved(kind):
        raise ArithmeticError("tail bounds undecided")

    monkeypatch.setattr(structure, "structural_exponent", unproved)
    cert = run(f"table1 --p {p} --beta {beta}")
    assert cert.outcome == "fail"
    assert cert.evidence["exponent-outcome"] == "fail"
    assert cert.evidence["palindrome-outcome"] == "pass"


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


def test_optimality_depth_is_not_bounded_by_the_recursion_limit():
    cert = run("optimality --alphabet 2 --pal 12 --cap 1500")
    assert cert.evidence["result"] == "reached"
    [witness] = cert.lists["witness"]
    assert len(witness) == 1500


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


@pytest.mark.parametrize("broken", ["family-bound", "cross-check"])
def test_bispecial_exponent_failure_is_a_fail_certificate(broken, monkeypatch, capsys):
    """A family bound that does not hold, or an enumeration that disagrees
    with the families, prints a fail certificate with one error line."""
    if broken == "family-bound":
        monkeypatch.setitem(structure.TARGET_RATIO, "nu_p", F(7, 5))
        message = "tail bounds undecided for families ['A', 'B', 'C', 'D']"
    else:
        monkeypatch.setattr(structure, "critical_exponent_via_bispecials",
                            lambda stream, max_bs_len: F(2))
        message = "enumeration (2) disagrees with families (5/2)"
    code = main(["exponent", "--word", "nu_p", "--method", "bispecial", "--expect", "5/2"])
    cert = parse_certificate(capsys.readouterr().out)
    assert code == 1 and cert.outcome == "fail"
    assert cert.evidence == {"word": "nu_p", "method": "bispecial", "error": message}


def test_palindromes_cli():
    cert = run("palindromes --word 001011 --prefix 60000 --expect 9")
    assert cert.outcome == "pass"
    assert cert.evidence["stabilized"] == "yes"
    bad = run("palindromes --word 001011 --prefix 60000 --expect 10")
    assert bad.outcome == "fail"


@pytest.mark.parametrize("word,prefix", [
    ("001011", 100000), ("mu_p", 100000), ("nu_p", 100000),
    ("01", 50),  # the count still grows between 50 and 100 letters
])
def test_palindromes_certificate_matches_two_counts(word, prefix):
    """The one-pass certificate reports what two separate counts, at prefix
    and at 2 * prefix, give."""
    stream = named_stream(word)
    n1 = palindrome_count(stream.prefix(prefix))
    n2 = palindrome_count(stream.prefix(2 * prefix))
    cert = run(f"palindromes --word {word} --prefix {prefix}")
    assert cert.evidence["count"] == str(n1)
    assert cert.evidence["stabilized"] == ("yes" if n1 == n2 else "no")
    if word == "01":
        assert cert.evidence["stabilized"] == "no"


def test_splice_cli():
    cert = run("splice --prefix 60000 --center 200")
    assert cert.outcome == "pass"
    assert cert.evidence["central-length"] == "200"
    assert cert.evidence["central-free-5/2+"] == "yes"
    assert cert.evidence["marker-prefix-of-110nu"] == "yes"
    assert cert.evidence["marker-in-nu"] == "no"
    assert cert.evidence["marker-in-reverse"] == "no"


def test_preimage_cli_family_mismatch():
    with pytest.raises(ValueError):
        run("preimage-prove --morphism mu --family F20")


@pytest.mark.parametrize("command", [
    "palindromes --word ''",
    "structure --word ''",
    "exponent --word 001011 --method closed-form",
    "exponent --word 001011 --method bispecial",
    "preimage-prove --morphism mu --family F20",
    "exponent --word nu_p --prefix 1000 --bound 5/2+ --expect 7",
    "exponent --word nu_p --method bispecial --bound 2",
    "exponent --word p --method closed-form --bound 2",
])
def test_refused_input_exits_2_with_one_line(command, capsys):
    """Input that parses but that the builder refuses exits 2, the code
    that never means "some check failed", with a message and no traceback."""
    argv = shlex.split(command)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"palfree {argv[0]}: error: "), err


@pytest.mark.parametrize("text", [
    "palfree certificate 1\ncommand: exponent --word 001011 --method bispecial\n"
    "outcome: pass\n[evidence]\n",
    "not a certificate\n",
    "palfree certificate 1\n",
], ids=["refused-command", "not-a-certificate", "header-only"])
def test_replay_of_refused_input_exits_2_with_one_line(text, tmp_path, capsys):
    path = tmp_path / "input.cert"
    path.write_text(text)
    assert main(["replay", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("palfree replay: error: "), err


@pytest.mark.parametrize("name", ["missing.cert", "."], ids=["missing", "directory"])
def test_replay_of_unreadable_path_exits_2_with_one_line(name, tmp_path, capsys):
    assert main(["replay", str(tmp_path / name)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("palfree replay: error: "), err


@pytest.mark.parametrize("name", ["file/x.cert", "missing/x.cert", "."],
                         ids=["under-a-file", "missing-directory", "directory"])
def test_unwritable_out_path_exits_2_with_one_line(name, tmp_path, capsys):
    """An --out path that cannot be written is refused input (exit 2), not a
    failed check (exit 1); the certificate is not printed either."""
    (tmp_path / "file").write_text("")
    assert main(["palindromes", "--word", "001011", "--prefix", "100", "--expect", "9",
                 "--out", str(tmp_path / name)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1, err
    assert err.startswith("palfree palindromes: error: cannot write "), err


@pytest.mark.parametrize("name", ["file", "file/sub"], ids=["file", "under-a-file"])
def test_verify_all_refuses_unwritable_out_dir_before_any_job(name, tmp_path, monkeypatch,
                                                              capsys):
    (tmp_path / "file").write_text("")
    ran = []
    monkeypatch.setattr(cli, "BATTERY", [("palindromes-small", "palindromes --word 001011")])
    monkeypatch.setattr(cli, "_battery_job", ran.append)
    assert main(["verify-all", "--jobs", "1", "--out-dir", str(tmp_path / name)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and ran == []
    assert err.count("\n") == 1, err
    assert err.startswith("palfree verify-all: error: cannot write "), err


@pytest.mark.parametrize("failed, code", [(False, 2), (True, 1)], ids=["pass", "fail"])
def test_verify_all_reports_an_unwritable_certificate_file(failed, code, tmp_path,
                                                           monkeypatch, capsys):
    """A certificate file that cannot be written costs one stderr line and
    exit 2 (1 when a check failed); every job line is still printed and
    every other file still written."""
    (tmp_path / "palindromes-small.cert").mkdir()
    names = ["palindromes-small", "other", "last"]
    monkeypatch.setattr(cli, "BATTERY", [(name, "palindromes --word 001011")
                                         for name in names])
    outcome = {"other": cli.FAIL if failed else cli.PASS}
    monkeypatch.setattr(cli, "_battery_job", lambda item: (
        item[0], cli.Certificate(item[1], outcome.get(item[0], cli.PASS)).render()))
    assert main(["verify-all", "--jobs", "1", "--out-dir", str(tmp_path)]) == code
    out, err = capsys.readouterr()
    assert [line.split()[1] for line in out.splitlines()] == names
    assert err.count("\n") == 1, err
    assert err.startswith("palfree verify-all: error: cannot write "), err
    assert "palindromes-small.cert" in err
    for name in names[1:]:
        assert (tmp_path / (name + ".cert")).read_text().startswith("palfree certificate 1")


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


def test_run_command_calls_do_not_share_append_lists(monkeypatch):
    """build_parser() is built once, so every call shares the default list
    of an append flag such as --forbid: each call still gets its own list,
    and the default stays empty."""
    help_text, builder, flags = COMMANDS["optimality"]
    seen = []

    def spy(**kw):
        seen.append(kw["forbid"])
        return builder(**kw)

    monkeypatch.setitem(COMMANDS, "optimality", (help_text, spy, flags))
    for forbid in (["00"], ["11"], []):
        run_command(["optimality", "--pal", "5", "--cap", "6"]
                    + [a for f in forbid for a in ("--forbid", f)])
    assert seen == [["00"], ["11"], []]
    assert seen[0] is not seen[1]
    assert build_parser() is build_parser()


def test_python_dash_m_palfree_runs_the_cli():
    import palfree
    src = os.path.dirname(os.path.dirname(palfree.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "palfree", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "verify-morphism" in proc.stdout


# (invocation, the `command:` line its certificate carries).  Every line but
# the `table1 ... --nodes 0` one is what the per-builder renderers of
# earlier versions wrote; those dropped `--nodes 0` from table1, so its
# certificate did not replay.
COMMAND_LINES = [
    ('verify-morphism --instance thm3a',
     'verify-morphism --instance thm3a'),
    ('verify-morphism --instance thm3b --window 0 --depth 0',
     'verify-morphism --instance thm3b --window 0 --depth 0'),
    ('verify-morphism --depth 12 --instance thm3c --window 40 --out x.cert',
     'verify-morphism --instance thm3c --window 40 --depth 12'),
    ('optimality',
     'optimality --alphabet 2 --cap 400'),
    ('optimality --alphabet 2 --pal 8 --cap 400 --symmetry',
     'optimality --alphabet 2 --pal 8 --cap 400 --symmetry'),
    ("optimality --exp '' --pal 8",
     'optimality --alphabet 2 --pal 8 --cap 400'),
    ('optimality --exp 3 --strict false --pal 14 --symmetry --nodes 0',
     'optimality --alphabet 2 --exp 3 --strict false --pal 14 --cap 400 --nodes 0 --symmetry'),
    ('optimality --forbid 00 --forbid 11 --pal 5 --cap 30',
     'optimality --alphabet 2 --pal 5 --cap 30 --forbid 00 --forbid 11'),
    ("optimality --forbid '0 1' --cap 3",
     "optimality --alphabet 2 --cap 3 --forbid '0 1'"),
    ('optimality --alphabet 3 --exp 2 --strict true --cap 0 --nodes 10',
     'optimality --alphabet 3 --exp 2 --strict true --cap 0 --nodes 10'),
    ('growth --pal 11',
     'growth --pal 11 --max-n 60'),
    ('growth --pal 11 --max-n 60 --expect 1.1127756842787 --tol 0.01',
     'growth --pal 11 --max-n 60 --expect 1.1127756842787 --tol 0.01'),
    ('growth --pal 11 --tol 0.5',
     'growth --pal 11 --max-n 60'),
    ('growth --pal 11 --expect 0 --window 2',
     'growth --pal 11 --max-n 60 --window 2 --expect 0.0 --tol 0.01'),
    ('growth --pal 9 --max-n 20 --expect 1.10 --tol 2e-2',
     'growth --pal 9 --max-n 20 --expect 1.1 --tol 0.02'),
    ('preimage-prove --morphism mu --family F18',
     'preimage-prove --morphism mu --family F18'),
    ("preimage-prove --morphism nu --target ''",
     'preimage-prove --morphism nu'),
    ('preimage-prove --target 0110 --morphism mu',
     'preimage-prove --morphism mu --target 0110'),
    ('rauzy --exp 13/5 --strict false --pal 18 --ell 20 --mode weak --margin 40 --trim --compare mu_p --select-avoiding 1101',
     'rauzy --exp 13/5 --strict false --pal 18 --ell 20 --mode weak --margin 40 --trim --compare mu_p --select-avoiding 1101'),
    ('rauzy --exp 3 --pal 10 --ell 5',
     'rauzy --exp 3 --pal 10 --ell 5 --mode weak'),
    ("rauzy --exp 3 --pal 10 --ell 5 --compare '' --select-avoiding ''",
     'rauzy --exp 3 --pal 10 --ell 5 --mode weak'),
    ('rauzy --no-symmetry --nodes 5 --exp 3 --pal 10 --ell 5 --mode strong --margin 0',
     'rauzy --exp 3 --pal 10 --ell 5 --mode strong --margin 0 --nodes 5 --no-symmetry'),
    ("rauzy --exp '' --pal 10 --ell 5",
     "rauzy --exp '' --pal 10 --ell 5 --mode weak"),
    ('exponent --word nu_p',
     'exponent --word nu_p --method empirical --prefix 100000'),
    ('exponent --word nu_p --method bispecial --expect 5/2',
     'exponent --word nu_p --method bispecial --max-bs 500 --expect 5/2'),
    ('exponent --word nu_p --method bispecial --prefix 7 --max-bs 3',
     'exponent --word nu_p --method bispecial --max-bs 3'),
    ('exponent --word p --method closed-form --prefix 7 --max-bs 3 --expect 2.48',
     'exponent --word p --method closed-form --expect 2.48'),
    ('exponent --word mu_p --method empirical --max-bs 9 --bound 28/11+ --prefix 50000',
     'exponent --word mu_p --method empirical --prefix 50000 --bound 28/11+'),
    ("exponent --word mu_p --expect '' --bound ''",
     'exponent --word mu_p --method empirical --prefix 100000'),
    ('structure --word p',
     'structure --word p --max-bs 200 --complexity-n 500'),
    ('structure --word nu_p --max-bs 1 --complexity-n 10',
     'structure --word nu_p --max-bs 1 --complexity-n 10'),
    ('palindromes --word 001011',
     'palindromes --word 001011 --prefix 100000'),
    ('palindromes --word mu_p --prefix 1 --expect 0',
     'palindromes --word mu_p --prefix 1 --expect 0'),
    ("palindromes --word ''",
     "palindromes --word '' --prefix 100000"),
    ('splice',
     'splice --prefix 100000 --center 200'),
    ('splice --center 6 --prefix 0',
     'splice --prefix 0 --center 6'),
    ('table1 --p 14 --beta 8/3 --cap 200 --nodes 0',
     'table1 --p 14 --beta 8/3 --cap 200 --nodes 0'),
    ('table1 --p 9 --beta inf',
     'table1 --p 9 --beta inf --cap 400'),
    ('table1 --beta 8/3 --nodes 7 --p 14',
     'table1 --p 14 --beta 8/3 --cap 400 --nodes 7'),
]


def _canonical(cmdline):
    return canonical_command(build_parser().parse_args(shlex.split(cmdline)))


def test_canonical_command_lines():
    for invocation, expected in COMMAND_LINES:
        assert _canonical(invocation) == expected, invocation


def test_canonical_command_is_a_fixed_point():
    seen = set()
    for _invocation, expected in COMMAND_LINES:
        assert _canonical(expected) == expected
        seen.add(shlex.split(expected)[0])
    assert seen == set(COMMANDS)


def test_reference_certificates_render_their_command_lines():
    """Every command: line pinned by the benchmark's reference certificates
    parses and renders back byte for byte."""
    paths = sorted(REFERENCE_DIR.glob("*.cert"))
    assert paths
    for path in paths:
        command = read_certificate(path).command
        assert _canonical(command) == command, path.name


@pytest.mark.parametrize("name", [
    "table1-p10-b10_3", "table1-p14-b8_3", "table1-p17-b13_5", "table1-p17-b28_11",
    "optimality-pal8", "optimality-cubefree14",
    "exponent-nu-structural", "exponent-mu-structural", "structure-p",
    "rauzy-mu", "preimage-mu", "preimage-nu", "transfer-thm3c",
    "palindromes-baseline", "palindromes-mu", "palindromes-nu", "palindromes-mu-1e4",
    "splice-x",
])
def test_reference_certificates_rerun_to_same_evidence(name):
    """The cheap reference certificates of the benchmark rerun to the same
    evidence: the search ones pin the nodes the walk visits, the structural
    ones the family sups, witnesses, bispecials and return lengths, rauzy-mu
    its weak components and orbits, the pre-image ones every proof tree and
    the transfer one its depth, word count and palindromes, the palindromes
    ones their counts and the splice one its marker lines."""
    want = read_certificate(REFERENCE_DIR / f"{name}.cert")
    assert run(want.command).comparable() == want.comparable()


def test_rauzy_bridge_checks_the_selected_component(monkeypatch):
    """The bridge holds only if the selected component avoids every
    image-forbidden factor: with 1001, a factor of mu(p), made forbidden,
    rauzy-mu no longer passes."""
    from palfree import search
    monkeypatch.setitem(search.IMAGE_FORBIDDEN, "mu",
                        (*search.IMAGE_FORBIDDEN["mu"], "1001"))
    cert = run(read_certificate(REFERENCE_DIR / "rauzy-mu.cert").command)
    assert cert.evidence["selected-equals-reference"] == "yes"
    assert cert.outcome == "fail"


def test_traced_names_resolve(monkeypatch):
    """Every name the benchmark's tracer wraps exists where it looks for it:
    a function in its palfree module, a method in its class's own dict; and
    every name it sizes, aggregates per letter or counts as a search engine
    is one it wraps, so a deleted or renamed name fails here rather than in
    a traced benchmark run.  A checker push is sized by len(checker.w),
    read after the push, so the checker's word property must stay too.
    The names the harness's child and driver import must resolve as well."""
    path = REFERENCE_DIR.parent / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for layer, names in spans.TRACED.items():
        mod = importlib.import_module(f"palfree.{layer}")
        for attr in names:
            owner, _, name = attr.rpartition(".")
            scope = vars(getattr(mod, owner)) if owner else vars(mod)
            if name not in scope:
                missing.append(f"{layer}.{attr}")
    assert not missing
    traced = {f"{layer}.{attr}" for layer, names in spans.TRACED.items() for attr in names}
    assert set(spans.SIZES) | spans.PER_LETTER | set(spans.SEARCH_ENGINES) <= traced
    from palfree.repetition import ExponentBound, IncrementalFreeChecker
    chk = IncrementalFreeChecker(ExponentBound.parse("2"))
    assert all(chk.push(c) for c in "010") and chk.w == "010"
    assert spans.SIZES["repetition.IncrementalFreeChecker.push"]((chk, "0"), True) == 3
    spec = importlib.util.spec_from_file_location("perfbench_child", path.parent / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert child.setup(str(REFERENCE_DIR.parent.parent)) is cli
    import palfree
    from palfree import certificates
    assert callable(cli.run_command) and callable(certificates.parse_certificate)
    assert isinstance(palfree.__version__, str)


def test_table1_nodes_zero_replays(tmp_path, capsys):
    path = tmp_path / "cell.cert"
    code = main(["table1", "--p", "14", "--beta", "8/3", "--cap", "200",
                 "--nodes", "0", "--out", str(path)])
    assert code == 2
    assert "command: table1 --p 14 --beta 8/3 --cap 200 --nodes 0\n" in path.read_text()
    capsys.readouterr()
    assert main(["replay", str(path)]) == 0
    assert "replay ok" in capsys.readouterr().out


@pytest.mark.parametrize("value,message", [("0", "must be at least 1, got 0"),
                                           ("-1", "must be at least 1, got -1"),
                                           ("x", "invalid int value: 'x'")])
def test_growth_rejects_max_n_below_one(value, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["growth", "--pal", "11", "--max-n", value])
    assert exc.value.code == 2
    assert f"argument --max-n: {message}" in capsys.readouterr().err



@pytest.mark.parametrize("argv,message", [
    (["palindromes", "--word", "xyz"], "argument --word: unknown stream 'xyz'"),
    (["exponent", "--word", "nu"], "argument --word: unknown stream 'nu'"),
    (["structure", "--word", "0124"], "argument --word: unknown stream '0124'"),
    (["table1", "--p", "9", "--beta", "x"],
     "argument --beta: not a fraction, inf or none: 'x'"),
    (["table1", "--p", "9", "--beta", "1/0"],
     "argument --beta: not a fraction, inf or none: '1/0'"),
    (["optimality", "--exp", "x"], "argument --exp: not an exponent bound: 'x'"),
    (["optimality", "--exp", "3/0"], "argument --exp: not an exponent bound: '3/0'"),
    (["rauzy", "--exp", "1", "--pal", "18", "--ell", "20"],
     "argument --exp: not an exponent bound: '1' (freeness threshold must exceed 1)"),
    (["exponent", "--word", "mu_p", "--bound", "x"],
     "argument --bound: not an exponent bound: 'x'"),
    (["exponent", "--word", "mu_p", "--bound", "inf"],
     "argument --bound: not an exponent bound: 'inf'"),
    (["optimality", "--alphabet", "7"], "argument --alphabet: invalid choice: 7"),
    (["optimality", "--alphabet", "0"], "argument --alphabet: invalid choice: 0"),
    (["palindromes", "--word", "mu_p", "--prefix", "-5"],
     "argument --prefix: must be at least 1, got -5"),
    (["exponent", "--word", "mu_p", "--method", "empirical", "--prefix", "-5",
      "--bound", "5/2"], "argument --prefix: must be at least 1, got -5"),
    (["splice", "--prefix", "-5"], "argument --prefix: must be at least 0, got -5"),
    # an empty prefix would compare the empty word with itself
    (["palindromes", "--word", "mu_p", "--prefix", "0", "--expect", "1"],
     "argument --prefix: must be at least 1, got 0"),
    (["exponent", "--word", "mu_p", "--prefix", "0", "--bound", "5/2"],
     "argument --prefix: must be at least 1, got 0"),
    # the central factor needs the whole six-letter glue
    (["splice", "--center", "5"], "argument --center: must be at least 6, got 5"),
    # below these floors a run crashes or passes vacuously
    (["verify-morphism", "--instance", "thm3a", "--window", "-1"],
     "argument --window: must be at least 0, got -1"),
    (["rauzy", "--exp", "3", "--pal", "10", "--ell", "1"],
     "argument --ell: must be at least 2, got 1"),
    (["rauzy", "--exp", "3", "--pal", "10", "--ell", "5", "--margin", "-2"],
     "argument --margin: must be at least 0, got -2"),
    (["structure", "--word", "p", "--max-bs", "-1"],
     "argument --max-bs: must be at least 1, got -1"),
    (["structure", "--word", "p", "--complexity-n", "0"],
     "argument --complexity-n: must be at least 1, got 0"),
    (["optimality", "--alphabet", "2", "--pal", "-3", "--symmetry"],
     "argument --pal: must be at least 1, got -3"),
    (["growth", "--pal", "0"], "argument --pal: must be at least 1, got 0"),
    (["rauzy", "--exp", "3", "--pal", "0", "--ell", "5"],
     "argument --pal: must be at least 1, got 0"),
    (["growth", "--pal", "11", "--window", "-1"],
     "argument --window: must be at least 2, got -1"),
    (["table1", "--p", "-3", "--beta", "3"], "argument --p: must be at least 1, got -3"),
    # refused before the computation, not by a ZeroDivisionError after it
    (["exponent", "--word", "mu_p", "--prefix", "100", "--expect", "1/0"],
     "argument --expect: not a fraction or decimal: '1/0'"),
    (["exponent", "--word", "p", "--method", "closed-form", "--expect", "x"],
     "argument --expect: not a fraction or decimal: 'x'"),
    # an infinite expectation or tolerance passes any estimate
    (["growth", "--pal", "11", "--max-n", "30", "--expect", "inf", "--tol", "inf"],
     "argument --expect: must be finite, got inf"),
    (["growth", "--pal", "11", "--expect", "nan"], "argument --expect: must be finite, got nan"),
    (["growth", "--pal", "11", "--expect", "1.1", "--tol", "inf"],
     "argument --tol: must be finite, got inf"),
    (["growth", "--pal", "11", "--expect", "1.1", "--tol", "-0.5"],
     "argument --tol: must be at least 0, got -0.5"),
    (["growth", "--pal", "11", "--expect", "x"], "argument --expect: invalid float value: 'x'"),
    (["verify-all", "--jobs", "0"], "argument --jobs: must be at least 1, got 0"),
    (["verify-all", "--jobs", "-2"], "argument --jobs: must be at least 1, got -2"),
    # refused before the survivor search, not after it
    (["rauzy", "--exp", "13/5", "--pal", "18", "--ell", "4", "--compare", "bogus"],
     "argument --compare: unknown stream 'bogus'"),
    # a negative node budget or depth would print a vacuous certificate
    (["optimality", "--pal", "8", "--nodes", "-1"],
     "argument --nodes: must be at least 0, got -1"),
    (["rauzy", "--exp", "3", "--pal", "10", "--ell", "5", "--nodes", "-1"],
     "argument --nodes: must be at least 0, got -1"),
    (["table1", "--p", "14", "--beta", "8/3", "--nodes", "-1"],
     "argument --nodes: must be at least 0, got -1"),
    (["verify-morphism", "--instance", "thm3c", "--depth", "-2"],
     "argument --depth: must be at least 0, got -2"),
])
def test_word_and_beta_are_checked_by_the_parser(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_verify_all_starts_no_more_workers_than_jobs(monkeypatch, capsys):
    """The process pool starts all its workers at once, so verify-all asks
    for no more than there are jobs, however large --jobs is; --jobs 1 runs
    without a pool."""
    import concurrent.futures
    workers = []

    class RecordingPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli, "_battery_job",
                        lambda item: (item[0], cli.Certificate(item[1], cli.PASS).render()))
    for jobs in ("100000", "3", "1"):
        assert main(["verify-all", "--jobs", jobs]) == 0
    assert workers == [len(cli.BATTERY), 3]
    assert capsys.readouterr().out.count("PASS") == 3 * len(cli.BATTERY)


def test_malformed_jobs_variable_is_not_read(monkeypatch, capsys):
    """verify-all --jobs defaults to the core count, whatever PALFREE_JOBS
    holds."""
    monkeypatch.setenv("PALFREE_JOBS", "x")
    assert main(["palindromes", "--word", "001011", "--prefix", "2000",
                 "--expect", "9"]) == 0
    assert "outcome: pass\n" in capsys.readouterr().out


def test_transfer_walk_below_threshold_is_inconclusive(capsys):
    """thm3a's threshold is 20/3: a freeness walk to depth 2 finds no
    violation but proves nothing, so the outcome is inconclusive (exit 2);
    at depth ceil(20/3) = 7 it passes."""
    assert main(["verify-morphism", "--instance", "thm3a", "--depth", "2"]) == 2
    out = capsys.readouterr().out
    assert "outcome: inconclusive\n" in out and "image-freeness: pass\n" in out
    assert main(["verify-morphism", "--instance", "thm3a", "--depth", "7"]) == 0
    assert "outcome: pass\n" in capsys.readouterr().out


@pytest.mark.parametrize("window", [64, 65])
def test_palindrome_window_at_the_cap_reads_the_first_walk(window, monkeypatch, capsys):
    """thm3c's cut shows at the walk to depth 2, whose labels answer every
    window; a window at or past PAL_WINDOW_CAP walks no deeper."""
    from palfree import transfer
    depths = []
    walk = transfer._palindromes_of_image_language

    def counted(inst, depth):
        depths.append(depth)
        return walk(inst, depth)

    monkeypatch.setattr(transfer, "_palindromes_of_image_language", counted)
    assert main(["verify-morphism", "--instance", "thm3c", "--window", str(window)]) == 0
    assert (f"palindrome-window: {window}\npalindrome-count: 13\nclaimed-budget: 13\n"
            "cut-index: 7\nstabilized: yes\n") in capsys.readouterr().out
    assert depths == [2]


def test_growth_max_n_one():
    cert = run("growth --pal 11 --max-n 1")
    assert cert.command == "growth --pal 11 --max-n 1"
    assert cert.lists["counts"] == ["0 1", "1 2"]


def test_battery_transfer_jobs_follow_shipped_instances():
    from palfree.transfer import shipped_instances
    names = [name for name, _cmd in cli.BATTERY if name.startswith("transfer-")]
    assert names == [f"transfer-thm3{c}" for c in "abcdefgh"]
    assert names == [f"transfer-{n}" for n in shipped_instances()]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_all_writes_replayable_certificates(jobs, tmp_path, monkeypatch, capsys):
    battery = [("palindromes-small", "palindromes --word 001011 --prefix 2000 --expect 9"),
               ("table1-periodic", "table1 --p 9 --beta inf")]
    monkeypatch.setattr(cli, "BATTERY", battery)
    assert main(["verify-all", "--jobs", jobs, "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    for name, _cmd in battery:
        assert f"PASS         {name}" in out
        path = tmp_path / f"{name}.cert"
        assert path.exists()
        assert main(["replay", str(path)]) == 0
    assert "command: table1 --p 9 --beta inf --cap 400\n" in \
        (tmp_path / "table1-periodic.cert").read_text()
