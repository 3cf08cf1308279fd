import shlex

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palfree.certificates import (Certificate, compare_certificates,
                                  parse_certificate, read_certificate)
from palfree.cli import main, run_command


def test_render_parse_roundtrip():
    cert = Certificate("optimality --pal 8", "pass")
    cert.put("nodes", 129)
    cert.put("max-depth", 8)
    cert.lists["longest-words"] = ["00101100", "00110100"]
    cert.wall_ms = 17
    back = parse_certificate(cert.render())
    assert back.comparable() == cert.comparable()
    assert back.wall_ms == 17


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_certificate("not a certificate\n")
    with pytest.raises(ValueError):
        parse_certificate("palfree certificate 99\ncommand: x\noutcome: pass\n")


def test_compare_certificates_notices_differences():
    a = Certificate("cmd", "pass", {"k": "1"})
    b = Certificate("cmd", "pass", {"k": "2"})
    rep = compare_certificates(a, b)
    assert not rep.matched
    assert any("k" in d for d in rep.differences)
    assert compare_certificates(a, a).matched


def test_replay_roundtrip(tmp_path, capsys):
    cmd = "optimality --alphabet 2 --pal 8 --cap 64 --symmetry"
    cert = run_command(shlex.split(cmd))
    path = tmp_path / "pal8.cert"
    cert.write(path)
    assert main(["replay", str(path)]) == 0
    out = capsys.readouterr().out
    assert "replay ok" in out


def test_replay_detects_tampering(tmp_path, capsys):
    cmd = "optimality --alphabet 2 --pal 8 --cap 64 --symmetry"
    cert = run_command(shlex.split(cmd))
    cert.evidence["max-depth-reached"] = "999"
    path = tmp_path / "tampered.cert"
    cert.write(path)
    assert main(["replay", str(path)]) == 1
    out = capsys.readouterr().out
    assert "MISMATCH" in out


@pytest.mark.parametrize("part", ["evidence", "lists"])
def test_replay_detects_a_change_of_order(tmp_path, capsys, part):
    """Replay compares comparable(), whose order counts: with two evidence
    keys or two sections swapped, every line still matches its own, and
    replay reports the order."""
    cert = run_command(shlex.split("preimage-prove --morphism nu --family F20"))
    items = getattr(cert, part)
    first, second, *rest = items.items()
    items.clear()
    items.update([second, first, *rest])
    path = tmp_path / "swapped.cert"
    cert.write(path)
    assert main(["replay", str(path)]) == 1
    out = capsys.readouterr().out
    assert "MISMATCH" in out and "in a different order" in out


def test_timing_not_compared():
    a = Certificate("cmd", "pass", {"k": "1"})
    a.wall_ms = 5
    b = Certificate("cmd", "pass", {"k": "1"})
    b.wall_ms = 50000
    assert compare_certificates(a, b).matched


def test_exit_code_contract():
    assert Certificate("c", "pass").exit_code == 0
    assert Certificate("c", "fail").exit_code == 1
    assert Certificate("c", "inconclusive").exit_code == 2


def test_render_refuses_text_that_would_not_parse_back():
    with_newline = Certificate("cmd", "pass")
    with_newline.put("k", "v\nw")
    key_with_separator = Certificate("cmd", "pass", {"a: b": "c"})
    header_evidence = Certificate("cmd", "pass", {"[a": "b]"})
    header_item = Certificate("cmd", "pass", lists={"words": ["[evidence]"]})
    item_with_newline = Certificate("cmd", "pass", lists={"words": ["0\n1"]})
    for cert in (with_newline, key_with_separator, header_evidence, header_item,
                 item_with_newline):
        with pytest.raises(ValueError):
            cert.render()


_TEXT = st.text(alphabet="ab :[]\n\r\x85", max_size=6)


@settings(max_examples=300)
@given(_TEXT, st.sampled_from(["pass", "fail", "inconclusive"]),
       st.dictionaries(_TEXT, _TEXT, max_size=3),
       st.dictionaries(_TEXT, st.lists(_TEXT, max_size=3), max_size=3))
def test_render_parse_roundtrips_or_refuses(command, outcome, evidence, lists):
    cert = Certificate(command, outcome, evidence, lists, wall_ms=3)
    try:
        text = cert.render()
    except ValueError:
        return
    assert parse_certificate(text).comparable() == cert.comparable()
