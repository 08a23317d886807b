"""Command-line surface.

The six single-ideal commands (hilb, lex, lpp, betti, cohom, zstabilize)
run through one driver, ``_run_single``: it reads the ideal, calls the
command's ``cmd_*(I, args)``, which prints its text and returns its own
report fields, and writes the JSON report with the shared header.  A
report, single-ideal or ``verify``, is ``json.dumps(report, sort_keys=True,
indent=1)`` plus a newline; ``tests/golden/digests.json`` pins those bytes.
Past argparse, every refusal is an exception that ``main`` turns into one
``error: ...`` or ``parse error: ...`` line on stderr and exit code 2.

Exit codes: 0 = success / all checks passed, 1 = a theorem check failed,
2 = usage, parse or resource errors (including a verify family with no
instances to check).
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import limits, memos, zstable
from .betti import betti_table, corners
from .core import DEFAULT_CHAR, MonomialIdeal
from .embeddings import lex_ideal_of, lpp_ideal
from .errors import ResourceLimitError
from .hilbert import hilbert_series
from .ioformat import ParseError, format_ideal, parse_ideal_file, write_ideal
from .localcohom import cohomology_table
from .verify import (THEOREMS, FamilySpec, _betti_triples, _cohom_rows, _ctx_json,
                     run_family)

USAGE_ERROR, THEOREM_FAILURE, OK = 2, 1, 0


def _read_ideal(args) -> MonomialIdeal:
    """The ideal of S = B/b that the file's generators generate, as its
    preimage: the power generators are added when the file leaves them out."""
    if args.input:
        with open(args.input) as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    return MonomialIdeal.make(*parse_ideal_file(text)).plus_powers()


def _parse_window(text: str) -> tuple[int, int]:
    """LO:HI, each bound an optionally signed ASCII digit string."""
    # int() reads at most 4,300 digits, and any Unicode digit or 1_0 too
    m = re.fullmatch(r"([+-]?[0-9]{1,4300}):([+-]?[0-9]{1,4300})", text)
    if not m:
        raise argparse.ArgumentTypeError(
            f"expected LO:HI, two integers of at most 4,300 digits, not {text!r}")
    lo, hi = int(m[1]), int(m[2])
    limits.check("WINDOW_SPAN_LIMIT", hi - lo + 1,
                 f"window {lo}:{hi} spans {hi - lo + 1} degrees", argparse.ArgumentTypeError)
    return lo, hi


def _emit_json(args, payload: dict):
    """Write the report, ``json.dumps(payload, sort_keys=True, indent=1)``
    and a newline, in one call."""
    if args.json:
        text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
        with open(args.json, "w") as fh:
            fh.write(text)


def _run_single(args) -> int:
    """The driver of every single-ideal command: read the ideal, run the
    command, which prints its text and returns its own report fields, and
    write the report, the shared header (schema version, command, context,
    input ideal) and those fields."""
    I = _read_ideal(args)
    fields = args.cmd(I, args)
    _emit_json(args, {"schema_version": 1, "command": args.command,
                      "context": _ctx_json(I.ctx), "ideal": format_ideal(I), **fields})
    return OK


def cmd_hilb(I: MonomialIdeal, args) -> dict:
    hs = hilbert_series(I)
    lo, hi = args.window or (0, 2 * max(I.max_gen_degree(), 1) + I.ctx.n)
    if lo > hi:
        raise ValueError("window must satisfy lo <= hi")
    # the dims are read from degree 0 up to hi, whatever lo is
    bottom = min(lo, 0)
    limits.check("WINDOW_SPAN_LIMIT", hi - bottom + 1,
                 f"window {lo}:{hi} reads the {hi - bottom + 1} degrees {bottom}..{hi}")
    # the quotient has nothing below degree 0
    window = (0,) * (min(hi + 1, 0) - bottom) + hs.quotient_window(hi)[max(lo, 0):]
    print("numerator:", " ".join(map(str, hs.numer)))
    print(f"quotient dims {lo}..{hi}:", " ".join(map(str, window)))
    return {"numerator": list(hs.numer), "lo": lo, "hi": hi,
            "quotient_dims": list(window)}


def cmd_lex(I: MonomialIdeal, args) -> dict:
    if I.ctx.powers:
        raise ValueError("lex expects a ring without powers (use lpp)")
    text = format_ideal(lex_ideal_of(I))
    print(text)
    return {"lex": text}


def cmd_lpp(I: MonomialIdeal, args) -> dict:
    text = format_ideal(lpp_ideal(I))
    print(text)
    return {"lpp": text}


def cmd_betti(I: MonomialIdeal, args) -> dict:
    T = betti_table(I)
    for (i, j) in sorted(T.entries):
        if i > 0:
            print(f"beta[{i},{j}] = {T.entries[(i, j)]}")
    cs = corners(T)
    print(f"projdim {T.projdim}  regularity {T.regularity}  corners "
          + " ".join(f"({c.i},{c.slope})" for c in cs))
    return {"betti": _betti_triples(T), "projdim": T.projdim,
            "regularity": T.regularity,
            "corners": [[c.i, c.slope, c.value] for c in cs]}


def cmd_cohom(I: MonomialIdeal, args) -> dict:
    T = cohomology_table(I, args.window, backend=args.backend)
    for i in range(T.n + 1):
        print(f"H^{i} on [{T.lo},{T.hi}]: "
              + " ".join(map(str, T.rows[i]))
              + f"   tail {T.tails[i].printed()}")
    return {"backend": args.backend, "cohomology": _cohom_rows(T)}


def cmd_zstabilize(I: MonomialIdeal, args) -> dict:
    dec = zstable.z_stabilize(I)
    J = zstable.z_recompose(dec)
    sys.stdout.write(write_ideal(J))
    return {"stabilized": format_ideal(J),
            "components": [format_ideal(c) for c in dec.components]}


# the values of the family key z; a bare ``z`` reads as true
_Z_VALUES = {"": True, "1": True, "true": True, "yes": True,
             "0": False, "false": False, "no": False}


def _parse_family(text: str, args) -> FamilySpec:
    fields: dict = {}
    for part in text.split(","):
        key, _, val = part.partition("=")
        key, val = key.strip().lower(), val.strip()
        if key == "n":
            field, value = "n", limits.read_int("FILE_VARIABLE_LIMIT", val, "family n")
        elif key == "d":
            field, value = "powers", tuple(limits.read_int("EXPONENT_LIMIT", x, "family d")
                                           for x in val.split(":"))
        elif key in ("maxdeg", "max_deg"):
            field, value = "max_deg", limits.read_int("EXPONENT_LIMIT", val, "family maxdeg")
        elif key == "z" and val.lower() in _Z_VALUES:
            field, value = "with_z", _Z_VALUES[val.lower()]
        elif key == "z":
            raise ValueError(f"family key 'z' takes 1, true, yes, 0, false or no, not {val!r}")
        else:
            raise ValueError(f"unknown family key {key!r}")
        if field in fields:
            raise ValueError(f"family key {key!r} is given twice")
        fields[field] = value
    if "n" not in fields:
        raise ValueError("family needs n=<int>")
    fields["char"] = args.char
    fields["seed"] = args.seed
    fields["count"] = args.samples
    fields["mode"] = "exhaustive" if args.exhaustive else "random"
    if THEOREMS[args.theorem][0] != "family" and not fields.setdefault("with_z", True):
        raise ValueError(f"family key 'z' is false, but {args.theorem} runs over R[z]")
    return FamilySpec(**fields)


def cmd_verify(args) -> int:
    spec = _parse_family(args.family, args)
    report = run_family(args.theorem, spec, jobs=args.jobs)
    if not report.records:
        raise ValueError(f"the family has no {args.theorem} instances: nothing was checked")
    s = report.summary()
    for r in report.records:
        if not r.passed:
            bad = [k for k, v in r.checks.items() if not v]
            print(f"FAIL {r.ideal}  checks: {', '.join(bad)}  at {r.first_fail}")
    print(f"{args.theorem}: {s['passed']}/{s['total']} instances passed")
    _emit_json(args, report.to_json_dict())
    return OK if report.passed else THEOREM_FAILURE


@memos.memo(memos.PARSER_MEMO_SIZE)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by later calls
    (``parse_args`` fills a fresh namespace every time)."""
    ap = argparse.ArgumentParser(
        prog="lexcohom",
        description="Exact Hilbert series, Betti tables, local cohomology and "
                    "lex-plus-power verification for monomial quotients.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def single(name, cmd, window=False, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--input", help="ideal file (default: stdin)")
        p.add_argument("--json", help="write a JSON report to this path")
        if window:
            p.add_argument("--window", type=_parse_window, default=None,
                           metavar="LO:HI",
                           help="degree window; write a negative LO as "
                                "--window=LO:HI (--window -4:3 reads -4:3 as a flag)")
        p.set_defaults(fn=_run_single, cmd=cmd)
        return p

    single("hilb", cmd_hilb, help="Hilbert series and quotient dims", window=True)
    single("lex", cmd_lex, help="lex-segment ideal with the same Hilbert function")
    single("lpp", cmd_lpp, help="lex-plus-power ideal with the same Hilbert function")
    single("betti", cmd_betti, help="graded Betti table, regularity, corners")
    p = single("cohom", cmd_cohom, help="local-cohomology Hilbert functions", window=True)
    p.add_argument("--backend", choices=("combinatorial", "ext"),
                   default="combinatorial")
    single("zstabilize", cmd_zstabilize, help="stabilize along the last variable")

    p = sub.add_parser("verify", help="run a theorem check over a family")
    p.add_argument("theorem", choices=sorted(THEOREMS))
    p.add_argument("--family", required=True,
                   help="e.g. n=2,d=2:2,maxdeg=3 (d values separated by ':')")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--char", type=int, default=DEFAULT_CHAR,
                   help="characteristic of the family (default %(default)s)")
    p.add_argument("--json", help="write the JSON report to this path")
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ResourceLimitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
