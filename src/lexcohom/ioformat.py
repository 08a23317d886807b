"""The IdealFile text format.

Grammar (case-insensitive on input, canonical lowercase on output)::

    ring n=<int> char=<prime>
    powers d=<d1,...,dr>        # optional
    variable z                  # optional: adjoin z as the last variable
    <generator>                 # one per line; blank lines and # comments ok

A generator is one monomial: a product of factors joined by optional
``*``, such as ``x1^2*x3`` or ``3*x1 x2^2``.  A factor is a variable with
an optional exponent ``^<digits>``, which follows the variable directly
(exponents of a repeated variable add up, to at most
``limits.EXPONENT_LIMIT``), or a coefficient of ASCII digits.  Coefficients,
of any length, only have to be nonzero modulo the characteristic; they are
then dropped.  A ``+`` or ``-`` is a parse error: sums of terms are not
monomials.  ``n`` counts the x variables only; with ``variable z`` the ring
is K[x1..xn][z].  A second ``ring``, ``powers`` or ``variable`` line is a
parse error.  A header integer above its limit is a parse error: ``n``
above ``limits.FILE_VARIABLE_LIMIT``, ``char`` above ``limits.MR_LIMIT``, a
``d`` above ``limits.EXPONENT_LIMIT``.
Parse/print round-trips are the identity on canonical form.
"""

from __future__ import annotations

import re
from functools import partial

from . import limits
from .core import Monomial, MonomialIdeal, RingContext, format_term


class ParseError(ValueError):
    def __init__(self, line_no: int, col: int, message: str):
        super().__init__(f"line {line_no}, column {col}: {message}")
        self.line_no = line_no
        self.col = col


def format_ideal(I: MonomialIdeal) -> str:
    """Canonical one-line form: generators sorted, comma-separated; the
    text stored on the ideal (``MonomialIdeal.text``)."""
    return I.text


def write_ideal(I: MonomialIdeal) -> str:
    """The ideal file of I: ``write_ideal_file`` of its context and
    generators."""
    return write_ideal_file(I.ctx, I.gens)


def write_ideal_file(ctx: RingContext, gens) -> str:
    lines = [f"ring n={ctx.nx} char={ctx.char}"]
    if ctx.powers:
        lines.append("powers d=" + ",".join(map(str, ctx.powers)))
    if ctx.z:
        lines.append("variable z")
    names = ctx.var_names()
    for g in gens:
        lines.append(format_term(names, g.exps, 1))
    return "\n".join(lines) + "\n"


# a coefficient is ASCII digits, since _mod_digits reads any Unicode digit;
# limits.read_int refuses a non-ASCII exponent at the exponent's own column
_TOKEN = re.compile(r"\s*(([a-z]\d*)(\^\d+)?|([0-9]+)|\S)", re.IGNORECASE)


def _mod_digits(digits: str, p: int) -> int:
    """The digit string's value mod p, read one digit at a time: int()
    refuses strings of more than 4,300 digits."""
    r = 0
    for c in digits:
        r = (r * 10 + int(c)) % p
    return r


def _parse_monomial(names: dict[str, int], char: int, line: str,
                    line_no: int) -> Monomial:
    """The monomial of one generator line; ``names`` maps each variable
    name to its index.  A coefficient is only checked to be nonzero mod
    ``char``: since ``char`` is prime, the product of the coefficients
    vanishes exactly when one of them does."""
    exps = [0] * len(names)
    factors = 0
    pos = 0
    # match() at a position, not finditer(): under CPython 3.11, tracemalloc
    # shows finditer's loops leaving small blocks allocated after they end
    while m := _TOKEN.match(line, pos):
        pos = m.end()
        tok, name, exp, coeff = m.groups()
        col = m.start(1) + 1
        if name:
            low = name.lower()
            if low not in names:
                raise ParseError(line_no, col, f"unknown variable {name!r}")
            i = names[low]
            at = partial(ParseError, line_no, m.start(3) + 2 if exp else col)
            exps[i] += limits.read_int("EXPONENT_LIMIT", exp[1:], "exponent",
                                       at) if exp else 1
            limits.check("EXPONENT_LIMIT", exps[i], f"exponent={exps[i]}", at)
        elif coeff:
            if _mod_digits(coeff, char) == 0:
                raise ParseError(line_no, col, f"coefficient {coeff} vanishes "
                                 f"modulo char={char}")
        elif tok == "*":
            continue
        elif tok == "^":
            raise ParseError(line_no, col, "an exponent must follow a variable "
                             "directly and be a digit string")
        elif tok in "+-":
            raise ParseError(line_no, col, f"unexpected {tok!r}: a generator is "
                             "one monomial, not a sum of terms")
        else:
            raise ParseError(line_no, col, f"unexpected character {tok!r}")
        factors += 1
    if not factors:
        raise ParseError(line_no, 1, "empty generator")
    return Monomial(tuple(exps))


def parse_ideal_file(text: str) -> tuple[RingContext, list[Monomial]]:
    powers: tuple[int, ...] = ()
    with_z = False
    n = None
    char = None
    gens: list[str] = []
    gen_lines: list[int] = []
    header_lines: dict[str, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        low = line.lower()
        header = next((h for h in ("ring", "powers", "variable") if low.startswith(h)), None)
        if header and header_lines.setdefault(header, line_no) != line_no:
            raise ParseError(line_no, 1, f"a second {header} line: the first is "
                             f"line {header_lines[header]}")
        if header == "ring":
            m = re.fullmatch(r"ring\s+n=(\d+)\s+char=(\d+)", low)
            if not m:
                raise ParseError(line_no, 1, "expected: ring n=<int> char=<prime>")
            n = limits.read_int("FILE_VARIABLE_LIMIT", m.group(1), "n",
                                partial(ParseError, line_no, m.start(1) + 1))
            char = limits.read_int("MR_LIMIT", m.group(2), "char",
                                   partial(ParseError, line_no, m.start(2) + 1))
        elif header == "powers":
            m = re.fullmatch(r"powers\s+d=(\d+(\s*,\s*\d+)*)", low)
            if not m:
                raise ParseError(line_no, 1, "expected: powers d=<d1,...,dr>")
            powers = tuple(limits.read_int("EXPONENT_LIMIT", d.group(), "d",
                                           partial(ParseError, line_no, d.start() + 1))
                           for d in re.finditer(r"\d+", low))
        elif header == "variable":
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
    return ctx, [_parse_monomial(names, ctx.char, g, ln)
                 for g, ln in zip(gens, gen_lines)]


# the ideal of parse_ideal_file's generators, under the name that the
# benchmark's workloads import
as_monomial_ideal = MonomialIdeal.make
