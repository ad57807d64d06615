"""Command-line front end.

Subcommands: h1, mt-h1, identify, stabilize, reduce, embed, embed-s5,
validate, relations.  Read commands take --json for machine output and
one input path or one --manifest, not both; a manifest, one path a line
(``openbook.text_lines``), runs over many inputs (newline-delimited JSON,
in manifest order).  ``_FAILURES`` gives each failure its message prefix
and exit code (0 success, 1 validation failure, 2 parse or usage error);
each message, a manifest record's ``error`` included, shows an argv value
or record path of more than 60 characters cut by ``intlinalg.brief``.

How a call's argv is parsed: the parsers are built on the first call and
shared.  An argv of one path, ``[CMD, PATH]`` or ``[CMD, PATH, "--json"]``
with every word a ``str`` and PATH non-empty and not starting with ``-``,
takes a copy of the namespace argparse gave for that shape with a
placeholder path, once per process, and PATH in place of the placeholder.
Any other argv whose first word names a subcommand is parsed by that
subcommand's parser alone, and any other still by the top-level one, with
the same help, errors and exit codes.
"""

import argparse
import functools
import json
import sys

from . import embedder
from .intlinalg import AbelianGroup, brief
from .mcg import relation_report
from .openbook import (JoinBoundaries, OpenBookParseError, SameBoundary, closed_h1,
                       identify_known, mapping_torus_h1, read_openbook, read_text,
                       reduce_to_one_boundary, serialize_openbook, stabilize_positive,
                       text_lines, write_text)
from .surface import Surface, lickorish_system

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def print_help(self, file=None):
        # where argparse would print to sys.stdout and exit, run() writes to out and returns
        raise _HelpRequested(self.format_help())


class _UsageError(Exception):
    pass


class _HelpRequested(Exception):
    pass


class _MalformedCertificate(ValueError):
    """Valid JSON that is no certificate object, or an integer too long to read."""


_PARSE_ERRORS = (OpenBookParseError, json.JSONDecodeError, UnicodeDecodeError)


_PLACEHOLDER = "PATH"


@functools.cache
def _build_parser():
    """(top-level parser, subcommand name -> its parser, one-path templates), built once.

    A template maps ``(CMD,)`` or ``(CMD, "--json")`` to the attributes argparse gives
    that shape with the placeholder as ``path``; each call copies it to a fresh namespace.
    """
    parser = _ArgumentParser(prog="obembed",
                             description="open book invariants and embedding certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    def batch(name, help_text, evaluate, path_help):
        p = sub.add_parser(name, help=help_text)
        # one path or one --manifest; --manifest goes in after --json, so usage shows no group
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("path", nargs="?", help=path_help)
        p.add_argument("--json", action="store_true", dest="as_json")
        source.add_argument("--manifest", help="file listing one input path per line")
        p.set_defaults(func=_run_batch, evaluate=evaluate)

    batch("h1", "first homology of the closed manifold", _eval_h1, "open-book file")
    batch("mt-h1", "first homology of the mapping torus", _eval_mt_h1, "open-book file")
    batch("identify", "catalog name of the manifold, if known", _eval_identify,
          "open-book file")

    def command(name, help_text, func):  # a command of one open-book path
        p = sub.add_parser(name, help=help_text)
        p.add_argument("path")
        p.set_defaults(func=func)
        return p

    p = command("stabilize", "positively stabilize an open book", _run_stabilize)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--same", type=int, metavar="J",
                       help="attach both band feet to boundary component J")
    group.add_argument("--join", type=int, nargs=2, metavar=("J", "K"),
                       help="join distinct boundary components J and K")
    p.add_argument("--out", help="output open-book file (stdout if omitted)")

    p = command("reduce", "stabilize down to one boundary component", _run_reduce)
    p.add_argument("--out", help="output open-book file (stdout if omitted)")

    p = command("embed", "build an open-book embedding witness", _run_embed)
    p.add_argument("--framing", type=int, required=True, metavar="M")
    p.add_argument("--out", required=True, help="certificate JSON file")

    p = command("embed-s5", "build an embedding plan into S5", _run_embed_s5)
    p.add_argument("--out", required=True, help="plan JSON file")

    batch("validate", "re-check a certificate file", _eval_validate, "certificate file")

    p = sub.add_parser("relations", help="run the mapping-class relation checks")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--boundary", type=int, required=True)
    p.add_argument("--json", action="store_true", dest="as_json")
    p.set_defaults(func=_run_relations)

    templates = {}
    for name, p in sub.choices.items():
        for tail in ((), ("--json",)):
            try:
                args = p.parse_args([_PLACEHOLDER, *tail], argparse.Namespace(command=name))
            except _UsageError:  # a shape the subcommand refuses, such as reduce --json
                continue
            if getattr(args, "path", None) == _PLACEHOLDER:
                templates[(name, *tail)] = vars(args)
    return parser, sub.choices, templates


def _one_path(argv, templates):
    """The namespace argparse gives a one-path argv (module docstring), or None for any other."""
    if 2 <= len(argv) <= 3 and all(type(word) is str for word in argv):
        template = templates.get((argv[0], *argv[2:]))
        path = argv[1]
        if template is not None and path and path[0] != "-":
            args = argparse.Namespace()
            vars(args).update(template, path=path)
            return args
    return None


def _cut_long_values(message, argv):
    """message with each argv value of more than 60 characters cut as ``brief`` cuts it."""
    words = [word for word in argv if type(word) is str]
    values = words + [word.partition("=")[2] for word in words if word[:1] == "-"]
    for value in sorted({v for v in values if len(v) > 60}, key=len, reverse=True):
        message = message.replace(repr(value), brief(value)).replace(
            value, brief(value, bare=True))
    return message


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
    except _PARSE_ERRORS:
        raise
    except ValueError as exc:
        raise _MalformedCertificate(str(exc)) from exc
    return ({"violations": violations},
            lambda: "\n".join(f"VIOLATION: {v}" for v in violations) or "certificate valid",
            EXIT_INVALID if violations else EXIT_OK)


def _run_batch(args, out):
    if args.manifest is None:
        fields, text, code = args.evaluate(args.path)
        out.write((_encode(fields.get("result", fields)) if args.as_json else text()) + "\n")
        return code
    worst = EXIT_OK
    for path in filter(None, map(str.strip, text_lines(read_text(args.manifest)))):
        try:
            fields, _, code = args.evaluate(path)
        except Exception as exc:  # one bad record never aborts the batch
            message = str(exc) if isinstance(exc, _REPORTED) else repr(exc)
            fields, code = {"error": _cut_long_values(message, [path])}, EXIT_USAGE
        worst = max(worst, code)
        out.write(_encode({"input": path, **fields}) + "\n")
    return worst


def _emit(text, path, out):
    """Write text to the file at path, or to out when path is None (an empty path is missing)."""
    if path is None:
        out.write(text)
    else:
        write_text(path, text)


def _run_stabilize(args, out):
    attachment = SameBoundary(args.same) if args.same is not None else JoinBoundaries(*args.join)
    _emit(serialize_openbook(stabilize_positive(read_openbook(args.path), attachment)),
          args.out, out)
    return EXIT_OK


def _run_reduce(args, out):
    _emit(serialize_openbook(reduce_to_one_boundary(read_openbook(args.path))),
          args.out, out)
    return EXIT_OK


def _run_embed(args, out):
    cert = embedder.build_openbook_embedding(read_openbook(args.path), args.framing)
    _emit(embedder.certificate_to_json(cert), args.out, out)
    print(f"witness written to {args.out} (target {cert['scene']['target']})", file=out)
    return EXIT_OK


def _run_embed_s5(args, out):
    plan = embedder.build_s5_plan(read_openbook(args.path))
    _emit(embedder.certificate_to_json(plan), args.out, out)
    h1 = AbelianGroup.from_dict(plan["checks"]["h1_after"])
    print(f"plan written to {args.out} (H1 = {h1.describe()})", file=out)
    return EXIT_OK


def _run_relations(args, out):
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


# How run reports each failure: (exception kinds, message prefix, exit code), first match wins
_FAILURES = (
    ((_UsageError,), "usage error", EXIT_USAGE),
    (_PARSE_ERRORS, "parse error", EXIT_USAGE),
    ((OSError, _MalformedCertificate), "error", EXIT_USAGE),  # unreadable, or no certificate
    ((ValueError,), "error", EXIT_INVALID),
)
_REPORTED = tuple(kind for kinds, _, _ in _FAILURES for kind in kinds)


def run(argv, out=None, err=None):
    """Run the CLI on an argument list; returns the exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser, commands, templates = _build_parser()
    try:
        args = _one_path(argv, templates)
        if args is None:
            # naming a subcommand first, it goes straight to the parser the top level would pick
            sub = commands.get(argv[0]) if argv else None
            args = (sub.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
                    if sub is not None else parser.parse_args(argv))
        return args.func(args, out)
    except _HelpRequested as exc:
        out.write(str(exc))
        return EXIT_OK
    except _REPORTED as exc:
        prefix, code = next(row[1:] for row in _FAILURES if isinstance(exc, row[0]))
        print(f"{prefix}: {_cut_long_values(str(exc), argv)}", file=err)
        return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
