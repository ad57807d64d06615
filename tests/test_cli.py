"""Command-line interface tests."""

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import obembed
from obembed import cli, embedder
from obembed.cli import run

from helpers import deep_list
import test_openbook

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
    # Sigma_{497,5} has rank 998; reduce names its reduced page Sigma_{501,1}
    p.write_text("openbook v1\ngenus 497\nboundary 5\nword\n")
    code, out, err = go("reduce", str(p))
    assert (code, out) == (1, "")
    assert err == "error: page rank 1002 exceeds the limit 1000\n"


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


@pytest.mark.parametrize("text, line, message", test_openbook.STRUCTURE_ERRORS)
def test_structure_errors_exit_2_with_line_number(text, line, message, tmp_path):
    p = tmp_path / "bad.ob"
    p.write_text(text)
    assert go("h1", str(p)) == (2, "", f"parse error: line {line}: {message}\n")


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
    assert st.config.curve("x").support == ()
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


@pytest.mark.parametrize("text, message", [
    ("[1]\n", "certificate must be a JSON object"),
    ("1" * 4301 + "\n", "Exceeds the limit (4300 digits)"),
], ids=["array", "long_integer"])
def test_malformed_certificate_exits_2_alone_and_in_a_manifest(text, message, tmp_path):
    p = tmp_path / "cert.json"
    p.write_text(text)
    code, out, err = go("validate", str(p))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")
    manifest = tmp_path / "m.txt"
    manifest.write_text(f"{p}\n")
    code, out, _ = go("validate", "--manifest", str(manifest))
    assert code == 2
    assert json.loads(out)["error"].startswith(message)


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


LONG = "x" * 10 ** 6
GENUS1 = "openbook v1\ngenus 1\nboundary 1\n"


def _tampered_long_witness():
    """A witness with a 4000-digit framing and four tampered leaves, as JSON text."""
    cert = embedder.build_openbook_embedding(obembed.AbstractOpenBook.with_default_config(
        obembed.Surface(1, 1), obembed.parse_word("t(a1) t(b1)^-2")), 10 ** 3999)
    cert["scene"]["target"] = "x"
    cert["scene"]["bundle"]["total_space"] = "x"
    cert["schedule"][0]["exponent"] = 5
    cert["checks"]["word_length"] = 7
    return embedder.certificate_to_json(cert)


@pytest.mark.parametrize("command, text, where", [
    ("h1", GENUS1 + f"word t(a1) {LONG}\n", "line 4: bad twist letter"),
    ("h1", GENUS1 + f"word t(a1) t({LONG})\n", "line 4: monodromy letter"),
    ("h1", f"openbook v1\n{LONG}\nboundary 1\nword\n", "line 2: expected 'genus' line"),
    ("h1", f"openbook v1\ngenus {LONG}\nboundary 1\nword\n", "line 2: genus must be"),
    ("h1", GENUS1 + f"word t(a1)\n{LONG}\n", "line 5: unexpected line"),
    ("validate", _tampered_long_witness(), "scene.target: expected"),
], ids=["twist_letter", "monodromy_letter", "field_line", "field_value", "unexpected_line",
        "witness_framing"])
def test_messages_about_long_input_stay_short(command, text, where, tmp_path):
    """Each message shows an outside value cut by brief: in-process, alone and in a manifest."""
    if command == "h1":
        with pytest.raises(obembed.OpenBookParseError) as info:
            obembed.parse_openbook(text)
        messages = [str(info.value)]
        code, shown, record = 2, ("", f"parse error: {messages[0]}\n"), {"error": messages[0]}
    else:
        messages = embedder.validate_certificate(text)
        code, record = 1, {"violations": messages}
        shown = ("".join(f"VIOLATION: {m}\n" for m in messages), "")
    assert messages[0].startswith(where)
    assert all(len(m) < 200 for m in messages)
    p = tmp_path / "input"
    p.write_text(text)
    assert go(command, str(p)) == (code, *shown)
    manifest = tmp_path / "m.txt"
    manifest.write_text(f"{p}\n")
    code_m, out, _ = go(command, "--manifest", str(manifest))
    assert (code_m, json.loads(out)) == (code, {"input": str(p), **record})


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
    assert out.endswith(" relations checked on Sigma_{1,1}\n")


def test_relations_json():
    code, out, _ = go("relations", "--genus", "2", "--boundary", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    assert out == json.dumps(payload, sort_keys=True) + "\n"


def test_relations_json_is_pinned_on_every_page_up_to_rank_24():
    # the concatenated --json output of all 169 pages, as the dense matrix
    # products computed it
    out = io.StringIO()
    pages = [(g, n) for g in range(13) for n in range(1, 26) if 2 * g + n - 1 <= 24]
    for g, n in pages:
        run(["relations", "--genus", str(g), "--boundary", str(n), "--json"], out, io.StringIO())
    assert len(pages) == 169
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "d38c2da507ca0d8d4f88312751b28a4d20ef99eb266c704dcce6c719c3f99724")


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


def _dispatch_cases(lens_file, tmp_path):
    """Argument lists for every subcommand (valid, help, a required argument missing, an
    unknown option, a bad int where one is read, ``--``) and for the top-level parser."""
    cert, plan = str(tmp_path / "cert.json"), str(tmp_path / "plan.json")
    valid = {"h1": [lens_file, "--json"], "mt-h1": [lens_file], "identify": [lens_file],
             "stabilize": [lens_file, "--same", "1"], "reduce": [lens_file],
             "embed": [lens_file, "--framing", "2", "--out", cert],
             "embed-s5": [lens_file, "--out", plan], "validate": [cert],
             "relations": ["--genus", "1", "--boundary", "1"]}
    missing = {"stabilize": [lens_file], "embed": [lens_file, "--out", cert],
               "embed-s5": [lens_file], "relations": ["--genus", "1"]}
    bad_int = {"stabilize": [lens_file, "--same", "x"],
               "embed": [lens_file, "--framing", "2.5", "--out", cert],
               "relations": ["--genus", "1", "--boundary", "one"]}
    cases = [[], ["--help"], ["nope", lens_file], ["--json", "h1", lens_file],
             ["--", "h1", lens_file], ["stabilize", lens_file, "--same", "1", "--join", "1", "2"]]
    for command, args in valid.items():
        cases += [[command, *args], [command, "-h"], [command, *missing.get(command, [])],
                  [command, *args, "--bogus"], [command, "--", *args]]
        if command in bad_int:
            cases.append([command, *bad_int[command]])
    return cases


def test_dispatch_gives_the_bytes_of_the_top_level_parser(monkeypatch, lens_file, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")   # argparse wraps help to the terminal width
    parser, commands = cli._build_parser()
    cases = _dispatch_cases(lens_file, tmp_path)
    with monkeypatch.context() as m:  # an empty subcommand map sends every argv to the top
        m.setattr(cli, "_build_parser", lambda: (parser, {}))
        top = [go(*argv) for argv in cases]
    top_level = []
    with monkeypatch.context() as m:
        m.setattr(parser, "parse_args", lambda argv: top_level.append(argv) or
                  argparse.ArgumentParser.parse_args(parser, argv))
        assert [go(*argv) for argv in cases] == top
    assert top_level == [argv for argv in cases if not argv or argv[0] not in commands]
    assert {code for code, _, _ in top} == {0, 2}
    assert sum(out.startswith("usage: obembed ") for _, out, _ in top) == 10


# Byte-exact output of the batch commands, pinned before their reads and
# writes were reworked: the same stdout, stderr and exit codes must come out.

CRLF_BOOK = b"openbook v1\r\ngenus 1\r\nboundary 2\r\nword t(a1)^2 t(b1) t(e1)^-3\r\n"
CONFIG_BOOK = (b"openbook v1\ngenus 0\nboundary 2\nword t(x)^5 t(x)\nconfig "
               b'{"curves":[{"name":"x","kind":"boundary_parallel","class":[1]}]}\n')
NON_UTF8 = b"openbook v1\ngenus 0\nboundary 2\nword t(d1)\xff\n"
DECODE_ERROR = "'utf-8' codec can't decode byte 0xff in position 41: invalid start byte"


@pytest.fixture
def batch_files(tmp_path):
    files = {"lens": LENS5.encode(), "crlf": CRLF_BOOK, "config": CONFIG_BOOK,
             "bad": NON_UTF8, "cr_json": b'{\r"kind":\r\r  }\r', "array": b"[1]\n"}
    paths = {}
    for name, data in files.items():
        paths[name] = tmp_path / name
        paths[name].write_bytes(data)
    paths["missing"], paths["dir"] = tmp_path / "missing.ob", tmp_path
    cert = tmp_path / "cert.json"
    assert go("embed", str(paths["lens"]), "--framing", "1", "--out", str(cert))[0] == 0
    tampered = json.loads(cert.read_text())
    tampered["scene"]["target"] = "S3xS2"
    tampered["extra"] = 1
    paths["cert"], paths["tampered"] = cert, tmp_path / "tampered.json"
    paths["tampered"].write_text(json.dumps(tampered))
    return {name: str(p) for name, p in paths.items()}


def missing_errors(p):
    return {"missing": f"[Errno 2] No such file or directory: '{p['missing']}'",
            "dir": f"[Errno 21] Is a directory: '{p['dir']}'", "bad": DECODE_ERROR}


@pytest.mark.parametrize("command, outputs", [
    ("h1", {"lens": ("H1 = Z/5", '{"free_rank": 0, "torsion": [5]}'),
            "crlf": ("H1 = Z + Z/2", '{"free_rank": 1, "torsion": [2]}'),
            "config": ("H1 = Z/6", '{"free_rank": 0, "torsion": [6]}')}),
    ("mt-h1", {"lens": ("H1 = Z^2", '{"free_rank": 2, "torsion": []}'),
               "crlf": ("H1 = Z^2 + Z/2", '{"free_rank": 2, "torsion": [2]}'),
               "config": ("H1 = Z^2", '{"free_rank": 2, "torsion": []}')}),
])
def test_h1_outputs_are_pinned_byte_for_byte(command, outputs, batch_files):
    p = batch_files
    for name, (text, as_json) in outputs.items():
        assert go(command, p[name]) == (0, text + "\n", "")
        assert go(command, p[name], "--json") == (0, as_json + "\n", "")
    for name, message in missing_errors(p).items():
        prefix = "parse error" if name == "bad" else "error"
        for argv in ((command, p[name]), (command, p[name], "--json")):
            assert go(*argv) == (2, "", f"{prefix}: {message}\n")
    order = ["lens", "crlf", "bad", "missing", "dir", "config"]
    manifest = Path(p["dir"]) / "m.txt"
    manifest.write_text("".join(p[name] + "\n" for name in order))
    errors = missing_errors(p)
    want = "".join(
        json.dumps({"error": errors[name], "input": p[name]}) + "\n" if name in errors else
        f'{{"input": {json.dumps(p[name])}, "result": {outputs[name][1]}}}\n' for name in order)
    assert go(command, "--manifest", str(manifest)) == (2, want, "")


def test_validate_outputs_are_pinned_byte_for_byte(batch_files):
    p = batch_files
    violations = ["scene.target: expected 'twisted', got 'S3xS2' "
                  "(recomputed for framing 1, odd parity)", "extra: unexpected field"]
    assert go("validate", p["cert"]) == (0, "certificate valid\n", "")
    assert go("validate", p["cert"], "--json") == (0, '{"violations": []}\n', "")
    assert go("validate", p["tampered"]) == (
        1, "".join(f"VIOLATION: {v}\n" for v in violations), "")
    assert go("validate", p["tampered"], "--json") == (
        1, json.dumps({"violations": violations}) + "\n", "")
    errors = {"array": "error: certificate must be a JSON object",
              # a lone CR ends a line, as in a text-mode read
              "cr_json": "parse error: Expecting value: line 4 column 3 (char 13)",
              **{name: f"{'parse error' if name == 'bad' else 'error'}: {message}"
                 for name, message in missing_errors(p).items()}}
    for name, message in errors.items():
        for argv in (("validate", p[name]), ("validate", p[name], "--json")):
            assert go(*argv) == (2, "", message + "\n")
    order = ["cert", "tampered", "array", "bad", "missing", "dir", "cr_json"]
    manifest = Path(p["dir"]) / "m.txt"
    manifest.write_text("".join(p[name] + "\n" for name in order))
    records = {"cert": {"violations": []}, "tampered": {"violations": violations},
               "array": {"error": "certificate must be a JSON object"},
               "cr_json": {"error": "Expecting value: line 4 column 3 (char 13)"},
               **{name: {"error": message} for name, message in missing_errors(p).items()}}
    want = "".join(json.dumps({"input": p[name], **records[name]}, sort_keys=True) + "\n"
                   for name in order)
    assert go("validate", "--manifest", str(manifest)) == (2, want, "")


class RecordingStream(io.StringIO):
    """A text stream that keeps every string passed to ``write``."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, s):
        self.writes.append(s)
        return super().write(s)


def test_each_record_is_one_write(batch_files):
    p = batch_files
    manifest = Path(p["dir"]) / "m.txt"
    inputs = ["lens", "crlf", "bad", "missing", "config", "cert", "tampered", "array"]
    manifest.write_text("".join(p[name] + "\n" for name in inputs))
    for command in ("h1", "mt-h1", "validate"):
        out = RecordingStream()
        run([command, "--manifest", str(manifest)], out, io.StringIO())
        assert out.writes == out.getvalue().splitlines(keepends=True)
        assert len(out.writes) == len(inputs)
    for argv in (("h1", p["lens"]), ("mt-h1", p["crlf"], "--json"), ("validate", p["cert"]),
                 ("validate", p["tampered"]), ("validate", p["tampered"], "--json")):
        out = RecordingStream()
        run(list(argv), out, io.StringIO())
        assert len(out.writes) == 1 and out.writes[0].endswith("\n"), (argv, out.writes)


DEEP = "[" * 100000  # JSON nested past the interpreter's recursion limit
RECURSION = "maximum recursion depth exceeded"


def _cli(command, text, tmp_path):
    """(code, stdout, stderr up to the JSON reader's message, its last character) of command
    on a file holding text, once a --manifest record of the file is seen to carry that error."""
    p = tmp_path / "deep"
    p.write_text(text)
    code, out, err = go(command, str(p))
    manifest = tmp_path / "m.txt"
    manifest.write_text(f"{p}\n")
    code_m, out_m, _ = go(command, "--manifest", str(manifest))
    record = {"input": str(p), "error": err[err.index(": ") + 2:-1]}
    assert (code_m, json.loads(out_m)) == (2, record)
    return code, out, err[:err.find(RECURSION)], err[-1:]


def _error(call):
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)[:len(RECURSION)]


FLEXIBLE = embedder.build_flexible_embedding(obembed.Surface(1, 2), 1)
WITNESS = embedder.build_openbook_embedding(obembed.AbstractOpenBook.with_default_config(
    obembed.Surface(1, 1), obembed.parse_word("t(a1) t(b1)^-2")), 3)


def _deep_input(cert, *path, config=None):
    """A copy of cert whose value at input.<path> is a list nested 100 000 deep."""
    cert = json.loads(embedder.certificate_to_json(cert))
    if config is not None:
        cert["input"]["openbook"]["config"] = config
    node = cert["input"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = deep_list()
    return cert


CONFIG = {"curves": [{"name": "n", "kind": "handle_a", "class": [1, 0]}]}


@pytest.mark.parametrize("call, want", [
    (lambda p: _cli("h1", LENS5 + "config " + DEEP + "\n", p),
     (2, "", "parse error: line 5: bad config payload: ", "\n")),
    (lambda p: _cli("validate", DEEP + "\n", p), (2, "", "error: ", "\n")),
    (lambda _: _error(lambda: obembed.load_config_override(DEEP, obembed.Surface(1, 1))),
     RECURSION),
    (lambda _: _error(lambda: embedder.validate_certificate(DEEP)), RECURSION),
    (lambda _: _error(lambda: embedder.validate_certificate('{"kind": ' + DEEP)), RECURSION),
    (lambda _: embedder.validate_certificate({"kind": deep_list()}),
     ["kind: unknown certificate kind list"]),
    (lambda _: embedder.validate_certificate({**FLEXIBLE, "version": deep_list()}),
     ["unsupported version list"]),
    (lambda _: embedder.validate_certificate(
        {**FLEXIBLE, "scene": {**FLEXIBLE["scene"], "twisted_band": deep_list()}}),
     ["scene.twisted_band: expected an object, got list (recomputed for Sigma_{1,2})"]),
    (lambda _: embedder.validate_certificate(_deep_input(FLEXIBLE, "page", "genus")),
     ["input.page: genus and boundary must be integers, got list, 2"]),
    (lambda _: embedder.validate_certificate(_deep_input(WITNESS, "openbook", "word")),
     ["input.openbook: word must be a string, got list"]),
    (lambda _: embedder.validate_certificate(_deep_input(WITNESS, "openbook", "label")),
     ["input.openbook: label must be a string, got list"]),
    (lambda _: embedder.validate_certificate(
        _deep_input(WITNESS, "openbook", "config", "curves", 0, "name", config=CONFIG)),
     ["input.openbook: curve name must be a string, got list"]),
], ids=["config_line", "certificate_file", "config_override", "certificate_text",
        "certificate_text_kind", "certificate_kind", "certificate_version", "certificate_scene",
        "certificate_page_genus", "certificate_openbook_word", "certificate_openbook_label",
        "certificate_config_curve_name"])
def test_deep_json_is_a_diagnosed_error(call, want, tmp_path):
    # every entry point that reads JSON from outside, on values nested 100 000 deep
    assert call(tmp_path) == want


def test_manifest_decode_error_names_the_byte_offset_in_the_file(tmp_path):
    # a text-mode read decodes in 8 KiB chunks and named the offset within the chunk
    manifest = tmp_path / "m.txt"
    manifest.write_bytes(b"/nonexistent/x.ob\n" * 600 + b"\xff\n")
    assert go("h1", "--manifest", str(manifest)) == (
        2, "", "parse error: 'utf-8' codec can't decode byte 0xff in position 10800: "
               "invalid start byte\n")


def test_manifest_lines_end_as_in_a_text_mode_read(batch_files, tmp_path):
    p = batch_files
    manifest = tmp_path / "m.txt"
    manifest.write_bytes(f"  {p['lens']}  \r\n\r\n{p['crlf']}\r{p['config']}".encode())
    code, out, _ = go("h1", "--manifest", str(manifest))
    assert code == 0
    assert [json.loads(line)["input"] for line in out.splitlines()] == [
        p["lens"], p["crlf"], p["config"]]
