"""Command-line front door: load system and element files, run checks,
decompositions, equivalence decisions, cardinality reports, and brute-force
verification.  Output is deterministic JSON or a plain text rendering of the
same structure.  The JSON layout is exactly that of ``json.dumps(report,
sort_keys=True, indent=2)``: two-space indent, sorted keys, ASCII escapes.  The
CLI writes it itself because before Python 3.13 ``json`` runs its C encoder only
without ``indent``, and the pure-Python indented path was a large share of a
small call's time.  In both formats, a path that is not valid UTF-8 appears
with its undecodable bytes escaped as ``\\udcXX``.

Exit codes: 0 success / true / equivalent, 1 false / inequivalent (with a
certificate in the report), 2 input or schema error; a schema error names
the JSON path of the offending value.  3 is an internal certification
failure: a certificate the library built did not re-verify.  141 means the
reader of stdout went away before the report (or the help text) was written:
it is the status a shell reports for a writer killed by SIGPIPE, and nothing
is printed on stderr.

Every request takes one path: ``_main`` checks the horizon, loads the files
and calls ``_run_<cmd>(system, elements, args)`` (a dash read as an
underscore), looked up in this module at call time, which makes its own
checks; ``_main`` adds ``"command"`` to the report the handler returns.

A file is read as bytes and decoded as UTF-8 in one call, and its CRLF and
lone CR line ends become LF as in text mode, so ``json.loads`` sees the text
``json.load`` would see and reports a fault at the same line and column.  The
``from_json`` constructors then build the JSON path of a list item only
when the item fails (see ``schema``).

Only ``oracle-verify`` imports the matrix oracle and the random sampler,
inside its handler; ``check``, ``decompose``, ``equiv`` and ``card`` run on
the symbolic modules alone.

``OPTIONS`` states each of the six options once, and argv takes one of two
paths through it.  Argv made only of whole ``--flag value`` pairs, each flag
one of the six long flags spelled out, each value a string not starting
with ``-`` that argparse would accept, and naming ``--system`` and ``--cmd``,
is read straight off the table by ``_plain_args``: argparse's option
matching and conversions were the largest fixed cost of a small call.  Every
other argv (``--help``, an abbreviation, ``--flag=value``, ``--``, a value
starting with ``-``, an unknown flag, a missing or bad value) goes to the
argparse parser built from the same table, so help, usage and error bytes
come from argparse alone.  The console script, whose argv is None, reads
``sys.argv[1:]`` and takes the same paths.

``main(argv)`` may be called any number of times in one process.  The calls
share one argument parser, built on the first call that needs it (never at
import, and never for a call ``_plain_args`` reads), and each gets a fresh
namespace, so the stdout of a call is byte for byte what a fresh process
prints for the same arguments.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from itertools import combinations
from random import Random
from typing import NamedTuple

from .coherent import (
    Planted,
    check_eq_recurrences,
    default_horizon,
    restriction_stability,
)
from .decomp import decompose, equiv_decide, quotient_card_report
from .system import SchemaError, System

# The C escaper ``json.dumps`` uses for ``ensure_ascii`` output.
_escape = json.encoder.encode_basestring_ascii

# ``check`` decides coherence from the C(h-1, 2) consecutive index triples,
# but it tests restriction stability on all C(h, 3) triples, and an entry
# table that evaluation got wrong, the only one that can be incoherent,
# sweeps them all to list its violations, so its cost still grows as the
# cube of the horizon; neither a flag nor an element's default horizon may
# ask for more than this.
MAX_CHECK_HORIZON = 64

# ``card`` prints the quotient cardinality m ** n in full, and Python refuses
# by default to turn an integer of more decimal digits than this into a string.
# An interpreter set to a lower limit lowers the bound; one set to no limit
# (0) keeps it, so that ``card`` never spends its time printing a huge power.
MAX_CARD_DIGITS = 4300

# The exit status when stdout is a pipe whose reader has gone away: 128 + SIGPIPE.
EXIT_BROKEN_PIPE = 141

# The values of ``--cmd``; each names its handler ``_run_<cmd>``.
COMMANDS = ("check", "decompose", "equiv", "card", "oracle-verify")


def _read_json(path: str):
    """The JSON value in the file at ``path``, as ``json.load`` reads it from the
    file opened in text mode as UTF-8: the bytes are decoded in one call, and
    ``\\r\\n`` and a lone ``\\r`` read as ``\\n``, as universal newlines do, so
    a fault's line and column are the same.  The text, never the bytes, goes
    to ``json.loads``, which would guess UTF-16 or UTF-32 from bytes."""
    try:
        with open(path, "rb", buffering=0) as handle:
            data = handle.read()
    except OSError as exc:
        raise SchemaError(f"{path}: {exc.strerror}") from exc
    try:
        text = data.decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # invalid UTF-8, a JSONDecodeError, an integer literal too long to
        # read, or nesting deeper than the decoder's recursion limit
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc


def load_system(path: str) -> System:
    obj = _read_json(path)
    try:
        return System.from_json(obj)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def load_element(path: str, system: System) -> Planted:
    obj = _read_json(path)
    try:
        return Planted.from_json(obj, system)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):
        # argparse's own writer swallows an OSError, so a help text written
        # through to a closed pipe would exit 0; let it reach ``main``.
        (file or sys.stdout).write(self.format_help())


class _Option(NamedTuple):
    """One command-line option, stated once for both readers of argv: an
    ``int`` or a plain string, limited to ``choices`` when they are given,
    and with ``append`` collected into a list."""

    flag: str
    default: object = None
    type: type | None = None
    choices: tuple[str, ...] | None = None
    required: bool = False
    append: bool = False
    help: str | None = None

    @property
    def dest(self) -> str:
        return self.flag[2:]


OPTIONS = (
    _Option("--system", required=True, help="path to a system file"),
    _Option("--element", default=[], append=True, help="path to an element file (repeatable)"),
    _Option("--cmd", required=True, choices=COMMANDS),
    _Option("--horizon", type=int,
            help="check horizon (3 to 64); oracle-verify height (3 to 8)"),
    _Option("--seed", default=0, type=int, help="seed for randomized suites"),
    _Option("--format", default="json", choices=("json", "text")),
)

# ``OPTIONS`` as ``_plain_args`` reads it.
_BY_FLAG = {opt.flag: opt for opt in OPTIONS}
_DEFAULTS = {opt.dest: opt.default for opt in OPTIONS}
_REQUIRED = tuple(opt.dest for opt in OPTIONS if opt.required)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built from ``OPTIONS`` on the first call and
    shared after."""
    parser = _Parser(
        prog="invsys",
        description="exact computations in inverse systems of free Z/m-modules over a tree",
    )
    for opt in OPTIONS:
        parser.add_argument(opt.flag, action="append" if opt.append else "store",
                            default=opt.default, type=opt.type, choices=opt.choices,
                            required=opt.required, help=opt.help)
    return parser


def _plain_args(argv: list) -> argparse.Namespace | None:
    """The namespace ``build_parser().parse_args(argv)`` returns, read off
    ``OPTIONS`` directly, when ``argv`` is whole ``--flag value`` pairs: each
    flag one of the long option strings exactly, each value a ``str`` that
    does not start with ``-``, the ``int`` values readable by ``int`` and the
    choices listed, with ``--system`` and ``--cmd`` both present.  For any
    other argv it returns None and leaves the reading, and the help text and
    every usage error, to argparse.
    """
    if len(argv) % 2:
        return None
    values = _DEFAULTS.copy()
    for n in range(0, len(argv), 2):
        flag, value = argv[n], argv[n + 1]
        if type(flag) is not str or type(value) is not str or value.startswith("-"):
            return None
        opt = _BY_FLAG.get(flag)
        if opt is None:
            return None
        dest = opt.dest
        if opt.append:
            # a new list, as argparse copies before it appends, so the
            # default list is never changed
            values[dest] = [*values[dest], value]
        elif opt.type is int:
            try:
                values[dest] = int(value)
            except ValueError:
                return None
        elif opt.choices is not None and value not in opt.choices:
            return None
        else:
            values[dest] = value
    if any(values[dest] is None for dest in _REQUIRED):
        return None
    return argparse.Namespace(**values)


def _run_check(system: System, elements, args):
    if not elements:
        raise SchemaError("check needs at least one --element")
    horizon = args.horizon
    if horizon is not None and horizon > MAX_CHECK_HORIZON:
        raise SchemaError(f"check horizon must be at most {MAX_CHECK_HORIZON}, got {horizon}")
    horizons = [horizon if horizon is not None else default_horizon(e) for e in elements]
    for path, h in zip(args.element, horizons):
        if h > MAX_CHECK_HORIZON:
            raise SchemaError(f"{path}: default check horizon {h} is above {MAX_CHECK_HORIZON}; "
                              f"pass --horizon {MAX_CHECK_HORIZON} or less")
    reports = []
    ok = True
    for path, elem, h in zip(args.element, elements, horizons):
        # The recurrences are the coefficients of the coherence defects, so
        # the family is coherent exactly when they all hold.
        eq = check_eq_recurrences(elem, h)
        stable = all(restriction_stability(elem, i, j, k) for i, j, k in combinations(range(h), 3))
        entry_ok = eq.ok and stable
        ok = ok and entry_ok
        reports.append({
            "element": path,
            "horizon": h,
            "coherent": eq.ok,
            "eq_recurrences": eq.to_json(),
            "restriction_stable": stable,
            "ok": entry_ok,
        })
    return {"elements": reports, "ok": ok}, 0 if ok else 1


def _run_decompose(system: System, elements, args):
    if len(elements) != 1:
        raise SchemaError("decompose needs exactly one --element")
    return {"element": args.element[0], **decompose(elements[0]).to_json()}, 0


def _run_equiv(system: System, elements, args):
    if len(elements) != 2:
        raise SchemaError("equiv needs exactly two --element files")
    equivalent, certificate = equiv_decide(elements[0], elements[1])
    kind = "witness" if equivalent else "decomposition"
    report = {
        "elements": list(args.element),
        "equivalent": equivalent,
        "certificate": {"kind": kind, **certificate.to_json()},
    }
    return report, 0 if equivalent else 1


def _more_digits_than(m: int, n: int, digits: int) -> bool:
    """Whether ``m ** n`` has more than ``digits`` decimal digits; the power is
    built only when its logarithm lies within one of the limit."""
    estimate = n * math.log10(m)
    if abs(estimate - digits) > 1:
        return estimate > digits
    return m ** n >= 10 ** digits


def _run_card(system: System, elements, args):
    count, m = system.tree.branch_count(), system.ring.modulus
    # Python before 3.10.7 has no limit and no way to ask for it.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    digits = min(MAX_CARD_DIGITS, limit or MAX_CARD_DIGITS)
    if isinstance(count, int) and _more_digits_than(m, count, digits):
        raise SchemaError(f"$.tree.count: the cardinality {m}**{count} has more than "
                          f"{digits} decimal digits, the most card prints")
    return quotient_card_report(system), 0


def _run_oracle_verify(system: System, elements, args):
    # The only command that needs the oracle and the sampler, so the only one
    # that loads them.
    from .oracle import MAX_HEIGHT, NodeTable, truncate, universe_for
    from .sampling import random_planted

    height = args.horizon if args.horizon is not None else 6
    if height > MAX_HEIGHT:
        raise SchemaError(f"oracle-verify horizon must be at most {MAX_HEIGHT}, got {height}")
    labels = list(args.element)
    if not elements:
        rng = Random(args.seed)
        elements = [
            random_planted(system, rng, level_cap=min(3, height - 2), index_cap=height - 1)
            for _ in range(20)
        ]
        labels = [f"random-{n}" for n in range(len(elements))]
    failures = []
    # every truncation of this call restricts and validates through one table
    table = NodeTable(system.tree)
    for label, elem in zip(labels, elements):
        try:
            trunc = truncate(system, height, universe_for(system, [elem], height, table), table)
        except ValueError as exc:
            failures.append({"element": label, "kind": "truncation", "detail": str(exc)})
            continue
        primary = trunc.primary_table(elem)
        # The independent table is a coboundary table, and truncate has checked
        # the composition law, so agreement alone proves the primary table
        # coherent and solvable.  A table that fails agreement is tested for
        # coherence, by one comparison with the coboundary table of its top
        # column, to explain the failure.
        pair = trunc.agreement_fault(elem, primary)
        if pair is None:
            continue
        failures.append({"element": label, "kind": "agreement", "detail": f"tables differ at {pair}"})
        if not trunc.table_coherent(primary):
            failures.append({"element": label, "kind": "coherence", "detail": "table incoherent"})
    report = {
        "height": height,
        "seed": args.seed,
        "checked": len(elements),
        "failures": failures,
    }
    return report, 0 if not failures else 1


def _render_text(report, indent: int = 0) -> list[str]:
    lines = []
    pad = "  " * indent
    if isinstance(report, dict):
        for key in sorted(report):
            value = report[key]
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {value}")
    elif isinstance(report, list):
        if not report:
            lines.append(f"{pad}(none)")
        for item in report:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_text(item, indent + 1))
            else:
                lines.append(f"{pad}- {item}")
    return lines


def _write_json(value, pad: str, out: list[str]) -> None:
    """Append ``value`` to ``out`` exactly as ``json.dumps(value, sort_keys=True,
    indent=2)`` writes it, ``pad`` being the indent of the line it starts on.

    Only what reports hold is accepted: dicts with ``str`` keys, lists and
    tuples, ``str``, ``int``, ``bool`` and ``None``; anything else raises
    ``TypeError``, as ``json.dumps`` does for a type it cannot encode.
    """
    if isinstance(value, str):
        out.append(_escape(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out += (sep, _escape(key), ": ")
            _write_json(value[key], inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(report, fmt: str) -> None:
    if fmt == "json":
        out: list[str] = []
        _write_json(report, "", out)
        print("".join(out))
    else:
        # A path that is not valid UTF-8 reaches the report as lone
        # surrogates, which a strict stdout refuses; print them escaped.
        text = "\n".join(_render_text(report))
        print(text.encode("utf-8", "backslashreplace").decode("utf-8"))


def main(argv=None) -> int:
    try:
        try:
            return _main(argv)
        finally:
            # A buffered report reaches a closed pipe only when flushed; flush
            # here, inside the guard, not at interpreter exit.
            sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout's descriptor at the null device, so that the flush at
        # exit has somewhere to write.  No SIGPIPE handler is installed, since
        # ``main`` may run inside a larger process.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


def _main(argv) -> int:
    # Read argv as ``parse_args`` does: ``sys.argv[1:]`` for None, else a list.
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        if args.horizon is not None and args.horizon < 3:
            raise SchemaError("horizon must be at least 3")
        system = load_system(args.system)
        elements = [load_element(path, system) for path in args.element]
        run = globals()["_run_" + args.cmd.replace("-", "_")]
        report, code = run(system, elements, args)
    except ValueError as exc:
        _emit({"error": str(exc)}, args.format)
        return 2
    except AssertionError as exc:
        _emit({"error": f"internal certification failure: {exc}"}, args.format)
        return 3
    report["command"] = args.cmd
    _emit(report, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
