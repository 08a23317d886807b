"""The IdealFile text format.

Grammar (case-insensitive on input, canonical lowercase on output)::

    ring n=<int> char=<prime>
    powers d=<d1,...,dr>        # optional
    variable z                  # optional: adjoin z as the last variable
    <generator>                 # one per line; blank lines and # comments ok

Generators are monomials like ``x1^2*x3`` or homogeneous polynomials like
``x1^2 + 3*x1*z``; an exponent ``^<digits>`` follows its variable directly
and is at most ``core._EXP_LIMIT``.  ``n`` counts the x variables only;
with ``variable z`` the ring is K[x1..xn][z].  Parse/print round-trips are
the identity on canonical form.
"""

from __future__ import annotations

import re

from .core import _EXP_LIMIT, Monomial, MonomialIdeal, RingContext, format_term
from .groebner import Polynomial


class ParseError(ValueError):
    def __init__(self, line_no: int, col: int, message: str):
        super().__init__(f"line {line_no}, column {col}: {message}")
        self.line_no = line_no
        self.col = col


def format_ideal(I: MonomialIdeal) -> str:
    """Canonical one-line form: generators sorted, comma-separated."""
    names = I.ctx.var_names()
    return ", ".join(format_term(names, g.exps, 1) for g in I.gens) or "0"


def write_ideal_file(ctx: RingContext, gens) -> str:
    lines = [f"ring n={ctx.nx} char={ctx.char}"]
    if ctx.powers:
        lines.append("powers d=" + ",".join(map(str, ctx.powers)))
    if ctx.z:
        lines.append("variable z")
    names = ctx.var_names()
    for g in gens:
        lines.append(format_term(names, g.exps, 1) if isinstance(g, Monomial) else str(g))
    return "\n".join(lines) + "\n"


_TOKEN = re.compile(r"\s*([a-z]\d*(?:\^\d+)?|\^|\*|\+|-|\d+)", re.IGNORECASE)


def _parse_terms(names: dict[str, int], line: str,
                 line_no: int) -> list[tuple[tuple[int, ...], int]]:
    """The (exponents, coefficient) terms of one generator line; ``names``
    maps each variable name to its index."""
    n = len(names)
    pos = 0
    terms: list[tuple[tuple[int, ...], int]] = []
    sign = 1
    cur_coeff = None
    cur_exps = None

    def flush(col):
        nonlocal cur_coeff, cur_exps, sign
        if cur_exps is None and cur_coeff is None:
            raise ParseError(line_no, col, "empty term")
        exps = cur_exps if cur_exps is not None else [0] * n
        coeff = cur_coeff if cur_coeff is not None else 1
        terms.append((tuple(exps), sign * coeff))
        cur_coeff, cur_exps, sign = None, None, 1

    while pos < len(line):
        m = _TOKEN.match(line, pos)
        if not m:
            if line[pos:].strip() == "":
                break
            raise ParseError(line_no, pos + 1, f"unexpected character {line[pos]!r}")
        tok = m.group(1)
        col = m.start(1) + 1
        pos = m.end()
        low = tok.lower()
        if low == "+":
            flush(col)
        elif low == "-":
            flush(col)
            sign = -1
        elif low == "*":
            continue
        elif low == "^":
            raise ParseError(line_no, col, "an exponent must follow a variable "
                             "directly and be a digit string")
        elif tok.isdigit():
            cur_coeff = (1 if cur_coeff is None else cur_coeff) * int(tok)
        else:
            name, _, exp = low.partition("^")
            if name not in names:
                raise ParseError(line_no, col, f"unknown variable {tok[:len(name)]!r}")
            if cur_exps is None:
                cur_exps = [0] * n
            i = names[name]
            cur_exps[i] += int(exp) if exp else 1
            if cur_exps[i] > _EXP_LIMIT:
                raise ParseError(line_no, col + len(name) + 1 if exp else col,
                                 f"exponent {cur_exps[i]} exceeds "
                                 f"core._EXP_LIMIT = {_EXP_LIMIT}")
    if cur_exps is not None or cur_coeff is not None:
        flush(len(line))
    if not terms:
        raise ParseError(line_no, 1, "empty generator")
    return terms


def parse_ideal_file(text: str) -> tuple[RingContext, list[Polynomial]]:
    powers: tuple[int, ...] = ()
    with_z = False
    n = None
    char = None
    gens: list[str] = []
    gen_lines: list[int] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        low = line.lower()
        if low.startswith("ring"):
            m = re.fullmatch(r"ring\s+n=(\d+)\s+char=(\d+)", low)
            if not m:
                raise ParseError(line_no, 1, "expected: ring n=<int> char=<prime>")
            n, char = int(m.group(1)), int(m.group(2))
        elif low.startswith("powers"):
            m = re.fullmatch(r"powers\s+d=([\d,\s]+)", low)
            if not m:
                raise ParseError(line_no, 1, "expected: powers d=<d1,...,dr>")
            powers = tuple(int(x) for x in m.group(1).replace(" ", "").split(","))
        elif low.startswith("variable"):
            m = re.fullmatch(r"variable\s+z", low)
            if not m:
                raise ParseError(line_no, 1, "expected: variable z")
            with_z = True
        else:
            gens.append(line)
            gen_lines.append(line_no)
    if n is None:
        raise ParseError(1, 1, "missing ring header")
    ctx = RingContext(n + (1 if with_z else 0), char, powers, z=with_z)
    names = {name: i for i, name in enumerate(ctx.var_names())}
    polys = [Polynomial.make(ctx, _parse_terms(names, g, ln))
             for g, ln in zip(gens, gen_lines)]
    return ctx, polys


def as_monomial_ideal(ctx: RingContext, polys: list[Polynomial]) -> MonomialIdeal:
    """Convert single-term generators to a monomial ideal; reject others."""
    gens = []
    for p in polys:
        if len(p.coeffs) != 1:
            raise ValueError(f"generator {p} is not a monomial")
        exps, _ = p.coeffs[0]
        gens.append(Monomial(exps))
    return MonomialIdeal.make(ctx, gens)
