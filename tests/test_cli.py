"""Command-line interface tests."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import obembed
from obembed import cli
from obembed.cli import run

LENS5 = "openbook v1\ngenus 0\nboundary 2\nword t(d1)^5\n"
TREFOIL = "openbook v1\ngenus 1\nboundary 1\nword t(a1) t(b1)\n"


def go(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def lens_file(tmp_path):
    p = tmp_path / "lens5.ob"
    p.write_text(LENS5)
    return str(p)


def test_h1_human_readable(lens_file):
    code, out, err = go("h1", lens_file)
    assert code == 0
    assert out == "H1 = Z/5\n"


def test_h1_json_agrees(lens_file):
    code, out, _ = go("h1", lens_file, "--json")
    assert code == 0
    assert json.loads(out) == {"free_rank": 0, "torsion": [5]}


def test_mt_h1(lens_file):
    code, out, _ = go("mt-h1", lens_file)
    assert code == 0
    assert out == "H1 = Z^2\n"


def test_identify(lens_file, tmp_path):
    code, out, _ = go("identify", lens_file)
    assert (code, out) == (0, "L(5,1)\n")
    p = tmp_path / "big.ob"
    p.write_text("openbook v1\ngenus 2\nboundary 1\nword t(a1)\n")
    code, out, _ = go("identify", str(p))
    assert (code, out) == (0, "unknown\n")


def test_malformed_file_exits_2_with_line_number(tmp_path):
    p = tmp_path / "bad.ob"
    p.write_text("openbook v1\ngenus 0\nboundary zero\nword\n")
    code, out, err = go("h1", str(p))
    assert code == 2
    assert "line 3" in err


@pytest.mark.parametrize("command", ["h1", "validate"])
def test_non_utf8_input_is_a_parse_error(command, tmp_path):
    p = tmp_path / "f.ob"
    p.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(256)))
    code, _, err = go(command, str(p))
    assert code == 2
    assert err.startswith("parse error:") and "utf-8" in err


@pytest.mark.parametrize("field", ["genus", "boundary"])
def test_oversized_page_exits_2(field, tmp_path):
    values = {"genus": 0, "boundary": 1, field: 100000000}
    p = tmp_path / "big.ob"
    p.write_text(f"openbook v1\ngenus {values['genus']}\n"
                 f"boundary {values['boundary']}\nword\n")
    code, _, err = go("h1", str(p))
    assert code == 2
    assert "line 3" in err and "exceeds the limit" in err


def test_non_integer_config_class_exits_2(tmp_path):
    p = tmp_path / "f.ob"
    p.write_text(LENS5.replace("t(d1)^5", "t(x)^5")
                 + 'config {"curves":[{"name":"x","kind":"handle_a","class":"10"}]}\n')
    code, out, err = go("h1", str(p))
    assert (code, out) == (2, "")
    assert err.startswith("parse error: line 5") and "list of integers" in err


def test_malformed_config_structure_exits_2(tmp_path):
    p = tmp_path / "f.ob"
    for payload in ('{"curves": 5}', "[1]"):
        p.write_text(LENS5 + "config " + payload + "\n")
        code, out, err = go("h1", str(p))
        assert (code, out) == (2, "")
        assert err.startswith("parse error: line 5"), err


def test_overlong_exponent_exits_2(tmp_path):
    p = tmp_path / "f.ob"
    p.write_text(TREFOIL.replace("t(b1)", "t(b1)^" + "9" * 5000))
    code, out, err = go("h1", str(p))
    assert (code, out) == (2, "")
    assert err.startswith("parse error: line 4: bad exponent of t(b1)")


def test_missing_file_exits_2():
    code, _, err = go("h1", "/nonexistent/x.ob")
    assert code == 2


@pytest.mark.parametrize("command", ["h1", "validate"])
def test_directory_input_exits_2(command, tmp_path):
    code, out, err = go(command, str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_usage_error_exits_2():
    code, _, err = go("h1")
    assert code == 2
    code, _, _ = go("stabilize", "x.ob")   # missing attachment flag
    assert code == 2


@pytest.mark.parametrize("argv", [("--help",), ("h1", "--help"), ("stabilize", "-h")])
def test_help_goes_to_out_and_returns_0(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")   # argparse wraps help to the terminal width
    code, out, err = go(*argv)
    assert code == 0 and err == ""
    assert out.startswith("usage: obembed")
    assert fresh_process(*argv) == (code, out, err)


def test_stabilize_round_trip(lens_file, tmp_path):
    out_path = str(tmp_path / "st.ob")
    code, _, _ = go("stabilize", lens_file, "--join", "1", "2", "--out", out_path)
    assert code == 0
    text = Path(out_path).read_text()
    assert text.startswith("openbook v1\n")
    code, out, _ = go("h1", out_path)
    assert (code, out) == (0, "H1 = Z/5\n")


def test_stabilize_same_to_stdout(lens_file):
    code, out, _ = go("stabilize", lens_file, "--same", "1")
    assert code == 0
    assert "genus 0\nboundary 3\n" in out


def test_stabilize_bad_index(lens_file):
    code, _, err = go("stabilize", lens_file, "--same", "9")
    assert code == 1
    assert "out of range" in err


def test_stabilize_disk_with_attached_config(tmp_path):
    # the disk's rank-0 class pushes to the annulus' zero class
    p = tmp_path / "disk.ob"
    p.write_text("openbook v1\ngenus 0\nboundary 1\nword t(x)^3\n"
                 'config {"curves":[{"name":"x","kind":"handle_a","class":[]}]}\n')
    code, out, err = go("stabilize", str(p), "--same", "1")
    assert (code, err) == (0, "")
    st = obembed.parse_openbook(out)
    assert st.page == obembed.Surface(0, 2)
    assert st.config.curve("x").homology_class == (0,)
    out_path = tmp_path / "st.ob"
    out_path.write_text(out)
    assert go("h1", str(out_path)) == go("h1", str(p)) == (0, "H1 = 0\n", "")


def test_reduce(lens_file, tmp_path):
    out_path = str(tmp_path / "red.ob")
    code, _, _ = go("reduce", lens_file, "--out", out_path)
    assert code == 0
    code, out, _ = go("h1", out_path)
    assert (code, out) == (0, "H1 = Z/5\n")
    assert "boundary 1\n" in Path(out_path).read_text()


def test_embed_and_validate(lens_file, tmp_path):
    cert = str(tmp_path / "cert.json")
    code, out, _ = go("embed", lens_file, "--framing", "2", "--out", cert)
    assert code == 0
    assert "S3xS2" in out
    code, out, _ = go("validate", cert)
    assert code == 0
    assert "valid" in out


def test_validate_tampered_exits_1(lens_file, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, _, _ = go("embed", lens_file, "--framing", "1", "--out", str(cert_path))
    assert code == 0
    cert = json.loads(cert_path.read_text())
    cert["scene"]["target"] = "S3xS2"
    cert_path.write_text(json.dumps(cert))
    code, out, _ = go("validate", str(cert_path))
    assert code == 1
    assert "VIOLATION" in out


def test_embed_s5(lens_file, tmp_path):
    plan = str(tmp_path / "plan.json")
    code, out, _ = go("embed-s5", lens_file, "--out", plan)
    assert code == 0
    assert "H1 = Z/5" in out
    code, _, _ = go("validate", plan)
    assert code == 0


def test_relations_pass(capsys):
    code, out, _ = go("relations", "--genus", "1", "--boundary", "1")
    assert code == 0
    assert "PASS braid(a1,b1)" in out
    assert "FAIL" not in out


def test_relations_json():
    code, out, _ = go("relations", "--genus", "2", "--boundary", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True


def test_relations_on_closed_surface_is_usage_error():
    code, _, err = go("relations", "--genus", "1", "--boundary", "0")
    assert code == 2


def test_manifest_batch(tmp_path):
    a = tmp_path / "a.ob"
    b = tmp_path / "b.ob"
    a.write_text(LENS5)
    b.write_text(TREFOIL)
    manifest = tmp_path / "m.txt"
    manifest.write_text(f"{a}\n{b}\n")
    code, out, _ = go("h1", "--manifest", str(manifest))
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert [rec["input"] for rec in lines] == [str(a), str(b)]
    assert lines[0]["result"] == {"free_rank": 0, "torsion": [5]}
    assert lines[1]["result"] == {"free_rank": 0, "torsion": []}


def test_manifest_reports_bad_entries(tmp_path):
    a = tmp_path / "a.ob"
    a.write_text(LENS5)
    manifest = tmp_path / "m.txt"
    manifest.write_text(f"{a}\n{tmp_path/'missing.ob'}\n")
    code, out, _ = go("h1", "--manifest", str(manifest))
    assert code == 2
    lines = [json.loads(line) for line in out.splitlines()]
    assert "result" in lines[0]
    assert "error" in lines[1]

    # a config class of the wrong dimension fails only its own record
    bad = tmp_path / "bad.ob"
    bad.write_text(LENS5 + 'config {"curves":[{"name":"d1","kind":"boundary_parallel",'
                   '"class":[1,0]}]}\n')
    manifest.write_text(f"{a}\n{bad}\n{a}\n")
    for command in ("h1", "mt-h1", "identify"):
        code, out, _ = go(command, "--manifest", str(manifest))
        assert code == 2
        lines = [json.loads(line) for line in out.splitlines()]
        assert [rec["input"] for rec in lines] == [str(a), str(bad), str(a)]
        assert "result" in lines[0] and "result" in lines[2]
        assert "line 5" in lines[1]["error"]


def test_identical_invocations_identical_bytes(lens_file, tmp_path):
    runs = []
    for tag in ("x", "y"):
        cert = str(tmp_path / f"{tag}.json")
        go("embed", lens_file, "--framing", "-2", "--out", cert)
        runs.append(Path(cert).read_bytes())
    assert runs[0] == runs[1]
    a = go("h1", lens_file, "--json")
    b = go("h1", lens_file, "--json")
    assert a == b


def fresh_process(*argv):
    """Exit code, stdout and stderr of ``python -m obembed.cli`` in a new process."""
    # the child imports the same package as this process, installed or not
    src = os.path.dirname(os.path.dirname(obembed.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "obembed.cli", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def test_console_entry_point(lens_file):
    assert fresh_process("h1", lens_file) == (0, "H1 = Z/5\n", "")


def test_calls_in_one_process_match_fresh_processes(lens_file, tmp_path):
    cert = str(tmp_path / "cert.json")
    manifest = tmp_path / "m.txt"
    manifest.write_text(f"{cert}\n{lens_file}\n")
    sequence = [("h1", lens_file, "--json"),
                ("h1", lens_file),
                ("stabilize", lens_file),                 # usage error
                ("h1", lens_file),
                ("stabilize", lens_file, "--same", "1"),
                ("stabilize", lens_file, "--join", "1", "2"),
                ("embed", lens_file, "--framing", "2", "--out", cert),
                ("validate", "--manifest", str(manifest))]
    in_process = [go(*argv) for argv in sequence]
    assert [r[0] for r in in_process] == [0, 0, 2, 0, 0, 0, 0, 2]
    for argv, (code, out, err) in zip(sequence, in_process):
        assert fresh_process(*argv) == (code, out, err), argv


def test_parser_is_built_once_per_process(monkeypatch, lens_file):
    built = []
    init = cli._ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    go("h1", lens_file)
    per_tree = len(built)
    for _ in range(10):
        assert go("h1", lens_file)[0] == 0
        assert go("h1")[0] == 2
    assert built.count("obembed") == 1
    assert len(built) == per_tree
