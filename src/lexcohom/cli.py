"""Command-line surface.

Exit codes: 0 = success / all checks passed, 1 = a theorem check failed,
2 = usage, parse or resource errors (including a verify family with no
instances to check).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import limits, memos, zstable
from .betti import betti_table, corners
from .core import DEFAULT_CHAR, MonomialIdeal
from .embeddings import lex_segment_ideal, lpp_ideal
from .errors import ResourceLimitError
from .hilbert import hilbert_series, ideal_window
from .ioformat import ParseError, format_ideal, parse_ideal_file, write_ideal_file
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
    lo, _, hi = text.partition(":")
    lo, hi = int(lo), int(hi)
    limits.check("WINDOW_SPAN_LIMIT", hi - lo + 1,
                 f"window {lo}:{hi} spans {hi - lo + 1} degrees", argparse.ArgumentTypeError)
    return lo, hi


def _emit_json(args, payload: dict):
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
            fh.write("\n")


def _emit_ideal_json(args, I: MonomialIdeal, **fields):
    """The report of a single-ideal command: the shared header (schema
    version, command, context, input ideal) and the command's own fields."""
    _emit_json(args, {"schema_version": 1, "command": args.command,
                      "context": _ctx_json(I.ctx), "ideal": format_ideal(I), **fields})


def cmd_hilb(args) -> int:
    I = _read_ideal(args)
    hs = hilbert_series(I)
    lo, hi = args.window or (0, 2 * max(I.max_gen_degree(), 1) + I.ctx.n)
    if lo > hi:
        raise ValueError("window must satisfy lo <= hi")
    # the quotient has nothing below degree 0
    window = (0,) * (min(hi + 1, 0) - min(lo, 0)) + hs.quotient_window(hi)[max(lo, 0):]
    print("numerator:", " ".join(map(str, hs.numer)))
    print(f"quotient dims {lo}..{hi}:", " ".join(map(str, window)))
    _emit_ideal_json(args, I, numerator=list(hs.numer), lo=lo, hi=hi,
                     quotient_dims=list(window))
    return OK


def cmd_lex(args) -> int:
    I = _read_ideal(args)
    if I.ctx.powers:
        print("error: lex expects a ring without powers (use lpp)", file=sys.stderr)
        return USAGE_ERROR
    L = lex_segment_ideal(I.ctx, ideal_window(I, I.max_gen_degree() + 2))
    text = format_ideal(L)
    print(text)
    _emit_ideal_json(args, I, lex=text)
    return OK


def cmd_lpp(args) -> int:
    I = _read_ideal(args)
    L = lpp_ideal(I)
    text = format_ideal(L)
    print(text)
    _emit_ideal_json(args, I, lpp=text)
    return OK


def cmd_betti(args) -> int:
    I = _read_ideal(args)
    T = betti_table(I)
    for (i, j) in sorted(T.entries):
        if i > 0:
            print(f"beta[{i},{j}] = {T.entries[(i, j)]}")
    cs = corners(T)
    print(f"projdim {T.projdim}  regularity {T.regularity}  corners "
          + " ".join(f"({c.i},{c.slope})" for c in cs))
    _emit_ideal_json(args, I, betti=_betti_triples(T), projdim=T.projdim,
                     regularity=T.regularity,
                     corners=[[c.i, c.slope, c.value] for c in cs])
    return OK


def cmd_cohom(args) -> int:
    I = _read_ideal(args)
    T = cohomology_table(I, args.window, backend=args.backend)
    for i in range(T.n + 1):
        print(f"H^{i} on [{T.lo},{T.hi}]: "
              + " ".join(map(str, T.rows[i]))
              + f"   tail {T.tails[i].printed()}")
    _emit_ideal_json(args, I, backend=args.backend, cohomology=_cohom_rows(T))
    return OK


def cmd_zstabilize(args) -> int:
    I = _read_ideal(args)
    dec = zstable.z_stabilize(I)
    J = zstable.z_recompose(dec)
    sys.stdout.write(write_ideal_file(J.ctx, J.gens))
    _emit_ideal_json(args, I, stabilized=format_ideal(J),
                     components=[format_ideal(c) for c in dec.components])
    return OK


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
                                           for x in val.split(":") if x)
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

    def common(p, window=False):
        p.add_argument("--input", help="ideal file (default: stdin)")
        p.add_argument("--json", help="write a JSON report to this path")
        if window:
            p.add_argument("--window", type=_parse_window, default=None,
                           metavar="LO:HI",
                           help="degree window; write a negative LO as "
                                "--window=LO:HI (--window -4:3 reads -4:3 as a flag)")

    p = sub.add_parser("hilb", help="Hilbert series and quotient dims")
    common(p, window=True)
    p.set_defaults(fn=cmd_hilb)

    p = sub.add_parser(
        "lex", help="lex-segment ideal truncated at degree maxgendeg + 2",
        description="Print the lex-segment ideal truncated at degree maxgendeg + 2. "
                    "Its Hilbert function matches the input's only up to that "
                    "degree; the library's lex_ideal_of returns the full ideal.")
    common(p)
    p.set_defaults(fn=cmd_lex)

    p = sub.add_parser("lpp", help="lex-plus-power ideal with the same Hilbert function")
    common(p)
    p.set_defaults(fn=cmd_lpp)

    p = sub.add_parser("betti", help="graded Betti table, regularity, corners")
    common(p)
    p.set_defaults(fn=cmd_betti)

    p = sub.add_parser("cohom", help="local-cohomology Hilbert functions")
    common(p, window=True)
    p.add_argument("--backend", choices=("combinatorial", "ext"),
                   default="combinatorial")
    p.set_defaults(fn=cmd_cohom)

    p = sub.add_parser("zstabilize", help="stabilize along the last variable")
    common(p)
    p.set_defaults(fn=cmd_zstabilize)

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
