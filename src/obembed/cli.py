"""Command-line front end.

Subcommands: h1, mt-h1, identify, stabilize, reduce, embed, embed-s5,
validate, relations.  Exit codes: 0 success, 1 validation failure,
2 parse or usage error.  Read commands take --json for machine output
and --manifest to run over many inputs (newline-delimited JSON, in
manifest order).  An argv whose first word names a subcommand is parsed
by that subcommand's parser alone; any other goes to the top-level one,
with the same help, usage errors and exit codes either way.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import embedder
from .intlinalg import AbelianGroup
from .mcg import relation_report
from .openbook import (JoinBoundaries, OpenBookParseError, SameBoundary, closed_h1,
                       identify_known, mapping_torus_h1, read_openbook, read_text,
                       reduce_to_one_boundary, serialize_openbook,
                       stabilize_positive)
from .surface import Surface, lickorish_system

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def print_help(self, file=None):
        # argparse would write to sys.stdout and exit; run() writes the
        # text to its own out stream and returns instead.
        raise _HelpRequested(self.format_help())


class _UsageError(Exception):
    pass


class _HelpRequested(Exception):
    pass


class _MalformedCertificate(ValueError):
    """Valid JSON that is no certificate object, or an integer too long to read."""


@functools.cache
def _build_parser():
    """(top-level parser, subcommand name -> its parser), built on first use and shared.

    Parsing keeps no state in them: each call gets a fresh namespace.
    """
    parser = _ArgumentParser(prog="obembed",
                             description="open book invariants and embedding certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    def batch(name, help_text, evaluate, path_help):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("path", nargs="?", help=path_help)
        p.add_argument("--json", action="store_true", dest="as_json")
        p.add_argument("--manifest", help="file listing one input path per line")
        p.set_defaults(func=_run_batch, evaluate=evaluate)

    batch("h1", "first homology of the closed manifold", _eval_h1, "open-book file")
    batch("mt-h1", "first homology of the mapping torus", _eval_mt_h1, "open-book file")
    batch("identify", "catalog name of the manifold, if known", _eval_identify,
          "open-book file")

    p = sub.add_parser("stabilize", help="positively stabilize an open book")
    p.add_argument("path")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--same", type=int, metavar="J",
                       help="attach both band feet to boundary component J")
    group.add_argument("--join", type=int, nargs=2, metavar=("J", "K"),
                       help="join distinct boundary components J and K")
    p.add_argument("--out", help="output open-book file (stdout if omitted)")
    p.set_defaults(func=_run_stabilize)

    p = sub.add_parser("reduce", help="stabilize down to one boundary component")
    p.add_argument("path")
    p.add_argument("--out", help="output open-book file (stdout if omitted)")
    p.set_defaults(func=_run_reduce)

    p = sub.add_parser("embed", help="build an open-book embedding witness")
    p.add_argument("path")
    p.add_argument("--framing", type=int, required=True, metavar="M")
    p.add_argument("--out", required=True, help="certificate JSON file")
    p.set_defaults(func=_run_embed)

    p = sub.add_parser("embed-s5", help="build an embedding plan into S5")
    p.add_argument("path")
    p.add_argument("--out", required=True, help="plan JSON file")
    p.set_defaults(func=_run_embed_s5)

    batch("validate", "re-check a certificate file", _eval_validate, "certificate file")

    p = sub.add_parser("relations", help="run the mapping-class relation checks")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--boundary", type=int, required=True)
    p.add_argument("--json", action="store_true", dest="as_json")
    p.set_defaults(func=_run_relations)

    return parser, sub.choices


# Each batch command evaluates one input path to (record fields, a function
# giving the human text, exit code).  A manifest record is {"input": path,
# **fields}; a single input prints the text, or with --json the "result" field
# (or, for validate, the fields themselves).  Each goes out in one write.
_encode = json.JSONEncoder(sort_keys=True).encode  # what json.dumps(..., sort_keys=True) runs


def _group_fields(group):
    return {"result": group.as_dict()}, lambda: f"H1 = {group.describe()}", EXIT_OK


def _eval_h1(path):
    return _group_fields(closed_h1(read_openbook(path)))


def _eval_mt_h1(path):
    return _group_fields(mapping_torus_h1(read_openbook(path)))


def _eval_identify(path):
    name = identify_known(read_openbook(path))
    return {"result": {"name": name}}, lambda: name if name is not None else "unknown", EXIT_OK


def _eval_validate(path):
    try:
        violations = embedder.validate_certificate(read_text(path))
    except (json.JSONDecodeError, UnicodeDecodeError):  # parse errors
        raise
    except ValueError as exc:
        raise _MalformedCertificate(str(exc)) from exc
    return ({"violations": violations},
            lambda: "\n".join(f"VIOLATION: {v}" for v in violations) or "certificate valid",
            EXIT_INVALID if violations else EXIT_OK)


def _read_manifest(manifest_path):
    return [path for line in read_text(manifest_path).split("\n") if (path := line.strip())]


def _run_batch(args, out, err):
    if not args.manifest:
        if not args.path:
            raise _UsageError(f"{args.command} requires an input file or --manifest")
        fields, text, code = args.evaluate(args.path)
        out.write((_encode(fields.get("result", fields)) if args.as_json else text()) + "\n")
        return code
    worst = EXIT_OK
    for path in _read_manifest(args.manifest):
        try:
            fields, _, code = args.evaluate(path)
        except Exception as exc:  # one bad record never aborts the batch
            known = isinstance(exc, (OSError, ValueError))
            fields, code = {"error": str(exc) if known else repr(exc)}, EXIT_USAGE
        worst = max(worst, code)
        out.write(_encode({"input": path, **fields}) + "\n")
    return worst


def _emit(text, path, out):
    """Write text to the file at path, or to out when path is None."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        out.write(text)


def _run_stabilize(args, out, err):
    ob = read_openbook(args.path)
    if args.same is not None:
        attachment = SameBoundary(args.same)
    else:
        attachment = JoinBoundaries(args.join[0], args.join[1])
    _emit(serialize_openbook(stabilize_positive(ob, attachment)), args.out, out)
    return EXIT_OK


def _run_reduce(args, out, err):
    _emit(serialize_openbook(reduce_to_one_boundary(read_openbook(args.path))),
          args.out, out)
    return EXIT_OK


def _run_embed(args, out, err):
    cert = embedder.build_openbook_embedding(read_openbook(args.path), args.framing)
    _emit(embedder.certificate_to_json(cert), args.out, out)
    print(f"witness written to {args.out} (target {cert['scene']['target']})", file=out)
    return EXIT_OK


def _run_embed_s5(args, out, err):
    plan = embedder.build_s5_plan(read_openbook(args.path))
    _emit(embedder.certificate_to_json(plan), args.out, out)
    h1 = AbelianGroup.from_dict(plan["checks"]["h1_after"])
    print(f"plan written to {args.out} (H1 = {h1.describe()})", file=out)
    return EXIT_OK


def _run_relations(args, out, err):
    try:
        cfg = lickorish_system(Surface(args.genus, args.boundary))
    except ValueError as exc:
        raise _UsageError(str(exc))
    report = relation_report(cfg)
    if args.as_json:
        payload = {"surface": {"genus": args.genus, "boundary": args.boundary},
                   "checks": [{"name": c.name, "kind": c.kind, "passed": c.passed}
                              for c in report.checks],
                   "all_pass": report.all_pass}
        print(_encode(payload), file=out)
    else:
        for c in report.checks:
            print(f"{'PASS' if c.passed else 'FAIL'} {c.name}", file=out)
        print(f"{len(report.checks)} relations checked on {cfg.surface}", file=out)
    return EXIT_OK if report.all_pass else EXIT_INVALID


def run(argv, out=None, err=None):
    """Run the CLI on an argument list; returns the exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser, commands = _build_parser()
    try:
        # argv naming a subcommand first goes straight to its parser, where the top level sends it
        sub = commands.get(argv[0]) if argv else None
        args = (sub.parse_args(argv[1:], argparse.Namespace(command=argv[0])) if sub is not None
                else parser.parse_args(argv))
        return args.func(args, out, err)
    except _HelpRequested as exc:
        out.write(str(exc))
        return EXIT_OK
    except _UsageError as exc:
        print(f"usage error: {exc}", file=err)
        return EXIT_USAGE
    except (OpenBookParseError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"parse error: {exc}", file=err)
        return EXIT_USAGE
    except (OSError, _MalformedCertificate) as exc:  # unreadable, or read but no certificate
        print(f"error: {exc}", file=err)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_INVALID


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
