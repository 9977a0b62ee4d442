"""Command dispatch and report emission.

Usage:  fiberfull <command> <input-file> [flags]

Commands: gb, resolve, betti, hilbert, localcohom, fiberfull, locus,
cv-verify.  Reports are JSON on stdout (CSV for Hilbert/Betti tables with
--csv); identical inputs produce byte-identical output.

Flags: every command reads --field and --json-out; gb reads --order, betti
--csv, hilbert --window and --csv, localcohom --window, --csv and --i
(required), fiberfull --at, cv-verify --order and --window.  Any other flag
is a usage error.  Run fiberfull <command> --help for details.

Exit codes: 0 on success and for --help, 2 on a theorem-violation error, 1
on any other error, a bad flag included.  Every error prints a JSON
{"error": {"kind": ..., "message": ...}} document on stdout.
"""

import argparse
import json
import re
import sys

from .errors import (
    AlgebraError,
    InvalidFieldError,
    ParseError,
    TheoremViolationError,
    UnknownCommandError,
)
from .ext import hilbert_function, local_cohomology_hilbert
from .fields import GF, QQ
from .fiberfull import fiber_full_check, fiber_full_locus, verify_degeneration
from .groebner import buchberger, initial_module
from .modules import SubmodulePresentation
from .orders import TermOrder, order_from_string
from .parser import parse_input
from .resolution import betti_table, depth_and_regularity, free_resolution

# the flags each command reads besides --field and --json-out, which every
# command reads
COMMAND_FLAGS = {
    "gb": ("--order",),
    "resolve": (),
    "betti": ("--csv",),
    "hilbert": ("--window", "--csv"),
    "localcohom": ("--window", "--csv", "--i"),
    "fiberfull": ("--at",),
    "locus": (),
    "cv-verify": ("--order", "--window"),
}
COMMANDS = tuple(COMMAND_FLAGS)

DEFAULT_VERIFY_FIELD = 32003


class _UsageError(AlgebraError):
    kind = "usage"


class _FlagParser(argparse.ArgumentParser):
    """Reports a bad flag as a usage error instead of exiting with code 2,
    which is reserved for theorem violations."""

    def error(self, message):
        raise _UsageError(message)


def _parse_window(text):
    """argparse type of --window; a bad value becomes a usage error."""
    lo, _, hi = text.partition(":")
    try:
        window = (int(lo), int(hi))
    except ValueError:
        raise argparse.ArgumentTypeError("bad window %r, expected <lo>:<hi>" % text)
    if window[0] > window[1]:
        raise argparse.ArgumentTypeError("window bounds out of order in %r" % text)
    return window


def _join_window_value(argv):
    """argparse takes an argument such as -8:0 for a flag, since it starts
    with '-' and is no number: join it to the --window before it, so that
    --window -8:0 reads as --window=-8:0."""
    out = []
    for arg in argv:
        if out and out[-1] == "--window" and re.match(r"-\d", arg):
            out[-1] = "--window=" + arg
        else:
            out.append(arg)
    return out


# every flag, in the order the usage line lists them
_FLAG_OPTIONS = {
    "--order": {"help": "lex | grevlex | block-x-over-t | weights:<csv>"},
    "--field": {"help": "QQ | Fp:<p>"},
    "--window": {"type": _parse_window, "help": "<lo>:<hi>"},
    "--json-out": {"help": "also write the report to this path"},
    "--csv": {"action": "store_true", "help": "emit CSV for Hilbert/Betti tables"},
    "--i": {"type": int, "required": True, "help": "cohomological index"},
    "--at": {"type": int, "default": 0, "help": "check at the prime (t - c)"},
}


def _build_flag_parser(command):
    p = _FlagParser(prog="fiberfull %s" % command, add_help=True)
    p.add_argument("input", help="problem file, or - for stdin")
    read = ("--field", "--json-out") + COMMAND_FLAGS[command]
    for flag, options in _FLAG_OPTIONS.items():
        if flag in read:
            p.add_argument(flag, **options)
    return p


def _parse_field(text):
    if text == "QQ":
        return QQ
    if text.startswith("Fp:") and text[3:].isdigit():
        return GF(int(text[3:]))
    raise InvalidFieldError("bad field %r, expected QQ or Fp:<p>" % text)


def _ring_json(ring):
    xnames = ring.names[:-1] if ring.has_parameter else ring.names
    return {
        "vars": list(xnames),
        "weights": list(ring.weights),
        "field": "QQ" if ring.field.p is None else "Fp(%d)" % ring.field.p,
        "param": "t" if ring.has_parameter else None,
        "delta": ring.delta,
    }


def _load(command, args):
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    spec = parse_input(text)
    if args.field is not None:
        spec = spec.with_field(_parse_field(args.field))
    elif command == "cv-verify" and spec.ring.field == QQ:
        # certified reruns use --field QQ; the default trades certainty in
        # characteristic zero for speed
        spec = spec.with_field(GF(DEFAULT_VERIFY_FIELD))
    return spec


def _order(spec, args):
    """--order, else the input's order statement, else grevlex."""
    if args.order is not None:
        return order_from_string(args.order)
    return spec.order or TermOrder.grevlex()


def _window(spec, args):
    """--window, else the input's window statement, else (-delta - 10, 10)."""
    return args.window or spec.window or (-spec.ring.delta - 10, 10)


def _presentation(spec):
    return SubmodulePresentation.ideal(spec.ring, list(spec.generators))


def run_command(command, args):
    """Execute one command; returns (report dict, csv lines or None)."""
    spec = _load(command, args)
    pres = _presentation(spec)
    report = {
        "command": command,
        "ring": _ring_json(spec.ring),
        "ideal": {"name": spec.ideal_name, "generators": [str(g) for g in spec.generators]},
    }
    csv_lines = None

    if command == "gb":
        order = _order(spec, args)
        G = buchberger(pres, order)
        init = initial_module(G)
        report["order"] = order.describe()
        report["basis"] = [str(v.components[0]) for v in G.elements]
        report["leading_terms"] = [str(v.components[0]) for v in init.generators]
    elif command == "resolve":
        res = free_resolution(pres)
        report["minimal"] = res.minimal
        report["length"] = res.length
        report["ranks"] = res.ranks()
        report["twists"] = [list(m.twists) for m in res.modules]
        zero = res.ring.zero()
        report["differentials"] = [
            [[str(row.get(c, zero)) for c in range(res.modules[k + 1].rank)] for row in A]
            for k, A in enumerate(res.rows)
        ]
    elif command == "betti":
        table = betti_table(free_resolution(pres))
        depth, reg = depth_and_regularity(table, spec.ring.num_positive)
        report["betti"] = table.to_json_dict()
        report["depth"] = depth
        report["regularity"] = reg
        if args.csv:
            csv_lines = ["i,j,beta"]
            for (i, j), beta in sorted(table.entries.items()):
                csv_lines.append("%d,%d,%d" % (i, j, beta))
    elif command in ("hilbert", "localcohom"):
        window = _window(spec, args)
        if command == "hilbert":
            table = hilbert_function(pres, window)
        else:
            table = local_cohomology_hilbert(pres, args.i, window)
            report["i"] = args.i
        report["window"] = [window[0], window[1]]
        report["table"] = table.to_json_dict()
        if args.csv:
            csv_lines = ["nu,dim"] + ["%d,%d" % (nu, table.dims[nu])
                                      for nu in range(window[0], window[1] + 1)]
    elif command == "fiberfull":
        ff = fiber_full_check(pres, at=args.at)
        report["fiberfull"] = ff.to_json_dict()
    elif command == "locus":
        g = fiber_full_locus(pres)
        report["g"] = str(g)
    elif command == "cv-verify":
        deg = verify_degeneration(pres, _order(spec, args), _window(spec, args))
        report["report"] = deg.to_json_dict()
    else:
        raise UnknownCommandError("unknown command %r" % command)
    return report, csv_lines


def _emit(report, csv_lines, json_out):
    if csv_lines is not None:
        body = "\n".join(csv_lines) + "\n"
    else:
        body = json.dumps(report, indent=2) + "\n"
    sys.stdout.write(body)
    if json_out:
        with open(json_out, "w", encoding="utf-8") as fh:
            fh.write(body)


def _emit_error(kind, message, extra=None):
    payload = {"error": {"kind": kind, "message": message}}
    if extra:
        payload["error"].update(extra)
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        sys.stdout.write(__doc__)
        return 0
    command = argv[0]
    if command not in COMMANDS:
        _emit_error("unknown-command", "unknown command %r; expected one of %s"
                    % (command, ", ".join(COMMANDS)))
        return 1
    parser = _build_flag_parser(command)
    try:
        args = parser.parse_args(_join_window_value(argv[1:]))
    except _UsageError as exc:
        _emit_error(exc.kind, str(exc), {"usage": parser.format_usage().strip()})
        return 1
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report, csv_lines = run_command(command, args)
    except TheoremViolationError as exc:
        extra = {}
        if exc.report is not None:
            extra["report"] = exc.report.to_json_dict()
        _emit_error(exc.kind, str(exc), extra)
        return 2
    except ParseError as exc:
        _emit_error(exc.kind, exc.message, {"line": exc.line, "col": exc.col})
        return 1
    except AlgebraError as exc:
        _emit_error(exc.kind, str(exc))
        return 1
    except (OSError, IndexError, ValueError) as exc:
        _emit_error("error", str(exc))
        return 1
    _emit(report, csv_lines, args.json_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
