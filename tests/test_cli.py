import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexcohom import limits, verify
from lexcohom.cli import build_parser, main
from lexcohom.core import DEFAULT_CHAR, Monomial, MonomialIdeal, RingContext, _is_prime
from lexcohom.hilbert import hilbert_series
from lexcohom.ioformat import (ParseError, as_monomial_ideal, format_ideal, parse_ideal_file,
                               write_ideal_file)
from lexcohom.limits import (COHOM_VARIABLE_LIMIT, EXPONENT_LIMIT, FILE_VARIABLE_LIMIT,
                             MR_LIMIT, POOL_LIMIT, WINDOW_SPAN_LIMIT)

SIMPLE = "ring n=2 char=32003\nx1^2\nx2^3\n"


def test_parse_print_roundtrip():
    ctx, polys = parse_ideal_file(SIMPLE)
    assert ctx == RingContext(2)
    I = as_monomial_ideal(ctx, polys)
    assert write_ideal_file(ctx, I.gens) == SIMPLE


def test_parse_powers_and_z():
    text = "ring n=2 char=101\npowers d=2,3\nvariable z\nx1*z^2\n"
    ctx, gens = parse_ideal_file(text)
    assert ctx.nx == 2 and ctx.z and ctx.powers == (2, 3) and ctx.char == 101
    assert [g.exps for g in gens] == [(1, 0, 2)]
    # canonical form is a fixpoint of parse/print
    canonical = write_ideal_file(ctx, gens)
    assert parse_ideal_file(canonical) == (ctx, gens)
    # a sum of terms is not a generator: the error points at its sign
    with pytest.raises(ParseError) as ei:
        parse_ideal_file(text + "x2^2 + 3*x1*x2\n")
    assert (ei.value.line_no, ei.value.col) == (5, 6)


def test_parse_case_insensitive_and_comments():
    text = "RING n=2 CHAR=32003\n# a comment\nX1^2*X2\n\n"
    ctx, gens = parse_ideal_file(text)
    assert gens[0].exps == (2, 1)


def test_parse_errors_carry_location():
    with pytest.raises(ParseError) as ei:
        parse_ideal_file("ring n=2 char=32003\nx9\n")
    assert ei.value.line_no == 2
    with pytest.raises(ParseError):
        parse_ideal_file("x1\n")  # missing header


@pytest.mark.parametrize("text, line_no", [
    ("ring n=2 char=32003\nx1\nring n=3 char=32003\nx3\n", 3),
    ("ring n=2 char=32003\npowers d=2\nx1\n\npowers d=3\n", 5),
    ("variable z\nring n=2 char=32003\nVARIABLE z\nx1\n", 3),
])
def test_parse_a_second_header_line_is_an_error(text, line_no, tmp_path, capsys):
    with pytest.raises(ParseError, match="a second") as ei:
        parse_ideal_file(text)
    assert ei.value.line_no == line_no
    f = tmp_path / "twice.txt"
    f.write_text(text)
    assert main(["hilb", "--input", str(f)]) == 2
    assert f"line {line_no}" in capsys.readouterr().err


@pytest.mark.parametrize("gen, col", [
    ("x1^2^3", 5), ("x1*2^3", 5), ("x2^2*3^2", 7), ("x1*^2", 4), ("x1^-1", 3),
    ("x1 ^2", 4), ("x1^", 3), ("x1^\u0663", 4),  # a non-ASCII digit, which int() reads
])
def test_parse_exponent_only_directly_after_a_variable(gen, col, tmp_path):
    with pytest.raises(ParseError) as ei:
        parse_ideal_file(f"ring n=2 char=32003\n{gen}\n")
    assert (ei.value.line_no, ei.value.col) == (2, col)
    f = tmp_path / "bad.txt"
    f.write_text(f"ring n=2 char=32003\n{gen}\n")
    assert main(["hilb", "--input", str(f)]) == 2


def test_parse_exponent_overflow_names_the_limit(capsys, tmp_path):
    for gen, col in (("x1^99999999999999", 4), (f"x1^{EXPONENT_LIMIT}*x2*x1", 21),
                     ("x1^" + "9" * 5000, 4),
                     ("x1^" + "0" * 5000 + str(EXPONENT_LIMIT + 1), 4)):
        with pytest.raises(ParseError) as ei:
            parse_ideal_file(f"ring n=2 char=32003\n{gen}\n")
        assert (ei.value.line_no, ei.value.col) == (2, col)
        assert "limits.EXPONENT_LIMIT" in str(ei.value)
    # leading zeros do not count towards the limit
    text = "ring n=2 char=32003\nx1^" + "0" * 5000 + f"{EXPONENT_LIMIT}\n"
    assert parse_ideal_file(text)[1] == [Monomial((EXPONENT_LIMIT, 0))]
    f = tmp_path / "big.txt"
    f.write_text("ring n=2 char=32003\nx1^99999999999999\n")
    assert main(["hilb", "--input", str(f)]) == 2
    assert "limits.EXPONENT_LIMIT" in capsys.readouterr().err


@pytest.mark.parametrize("gen", ["7" * 5000 + "*x1", "x1^" + "0" * 5000 + "1"])
def test_digit_strings_past_the_int_conversion_limit(gen, capsys, tmp_path):
    # int() refuses strings of more than 4,300 digits; the coefficient is
    # 20,982 mod 32003 and the zero-padded exponent is 1
    assert parse_ideal_file(f"ring n=2 char=32003\n{gen}\n")[1] == [Monomial((1, 0))]
    f = tmp_path / "long.txt"
    f.write_text(f"ring n=2 char=32003\n{gen}\n")
    assert main(["hilb", "--input", str(f)]) == 0
    assert capsys.readouterr().out.startswith("numerator: 1 -1\n")


@pytest.mark.parametrize("header, gen, col, words", [
    ("ring n=2 char=32003", "x1 + x2 - x2", 4, "'+'"),
    ("ring n=2 char=32003", "x1^2 + 3*x1*x2", 6, "'+'"),
    ("ring n=2 char=32003", "x1 - x1", 4, "'-'"),
    ("ring n=2 char=2", "2*x1", 1, "coefficient 2 vanishes modulo char=2"),
    ("ring n=2 char=3", "x1*2*3*x2", 6, "coefficient 3 vanishes modulo char=3"),
    # a coefficient is ASCII digits: int() would read the Arabic-Indic three
    ("ring n=2 char=32003", "\u0663*x1", 1, "unexpected character"),
])
def test_a_generator_is_one_monomial(header, gen, col, words, capsys, tmp_path):
    with pytest.raises(ParseError) as ei:
        parse_ideal_file(f"{header}\n{gen}\n")
    assert (ei.value.line_no, ei.value.col) == (2, col)
    assert words in str(ei.value)
    f = tmp_path / "bad.txt"
    f.write_text(f"{header}\n{gen}\n")
    assert main(["hilb", "--input", str(f)]) == 2
    assert words in capsys.readouterr().err


def _largest_prime_below(n):
    p = n - 1
    while not _is_prime(p):
        p -= 1
    return p


@pytest.mark.parametrize("header, at, limit, line, col, name", [
    ("ring n={} char=32003", FILE_VARIABLE_LIMIT, FILE_VARIABLE_LIMIT, 1, 8,
     "limits.FILE_VARIABLE_LIMIT"),
    # a char of MR_LIMIT itself passes the parser and fails the primality test
    ("ring n=2 char={}", _largest_prime_below(MR_LIMIT), MR_LIMIT, 1, 15,
     "limits.MR_LIMIT"),
    ("ring n=2 char=32003\npowers d=2, {}", EXPONENT_LIMIT, EXPONENT_LIMIT, 2, 13,
     "limits.EXPONENT_LIMIT"),
])
def test_header_integers_name_their_limits(header, at, limit, line, col, name,
                                           capsys, tmp_path):
    ctx, _ = parse_ideal_file(header.format(at) + "\n")
    assert at in (ctx.nx, ctx.char) + ctx.powers
    f = tmp_path / "ideal.txt"
    for past in (str(limit + 1), "1" * 5000, "0" * 5000 + str(limit + 1)):
        text = header.format(past) + "\nx1\n"
        with pytest.raises(ParseError) as ei:
            parse_ideal_file(text)
        assert (ei.value.line_no, ei.value.col) == (line, col)
        assert name in str(ei.value)
        f.write_text(text)
        t0 = time.perf_counter()
        assert main(["hilb", "--input", str(f)]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert name in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["hilb"], ["betti"], ["lpp"],
                                  ["cohom", "--backend", "combinatorial"],
                                  ["cohom", "--backend", "ext"]])
def test_generators_are_read_as_an_ideal_of_S(argv, capsys, tmp_path):
    # powers d=2 declares S = K[x1,x2]/(x1^2): a file that leaves x1^2 out
    # reads as the same ideal as one that lists it
    outs = []
    for name, gens in (("without", "x2^3\n"), ("with", "x1^2\nx2^3\n")):
        f = tmp_path / f"{name}.txt"
        f.write_text("ring n=2 char=32003\npowers d=2\n" + gens)
        report = tmp_path / f"{name}.json"
        code = main(argv + ["--input", str(f), "--json", str(report)])
        outs.append((code, capsys.readouterr(), report.read_text()))
    assert outs[0] == outs[1] and outs[0][0] == 0
    if argv == ["hilb"]:
        assert "quotient dims 0..8: 1 2 2 1 0 0 0 0 0\n" in outs[0][1].out


@st.composite
def ideal_files(draw):
    nx = draw(st.integers(1, 4))
    with_z = draw(st.booleans())
    powers = tuple(sorted(draw(st.lists(st.integers(2, 4), max_size=nx))))
    char = draw(st.sampled_from((2, 3, 32003)))
    ctx = RingContext(nx + with_z, char, powers, z=with_z)
    exps = st.tuples(*[st.integers(0, 12)] * ctx.n)
    return MonomialIdeal.make(ctx, map(Monomial, draw(st.lists(exps, max_size=6))))


@settings(max_examples=200, deadline=None)
@given(ideal_files())
def test_ideal_files_round_trip(I):
    assert parse_ideal_file(write_ideal_file(I.ctx, I.gens)) == (I.ctx, list(I.gens))


_FUZZ_TOKENS = ("x1", "X2", "x3", "z", "^", "0", "1", "2", "9", "*", "+", "-", " ", "$")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((2, 3, 32003)), st.booleans(),
       st.lists(st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=10), max_size=3))
def test_random_generator_lines_exit_0_or_2(char, with_z, lines):
    text = f"ring n=2 char={char}\n" + ("variable z\n" if with_z else "")
    text += "".join("".join(line) + "\n" for line in lines)
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), redirect_stdout(out), \
            redirect_stderr(err):
        code = main(["hilb"])
    assert code in (0, 2), err.getvalue()
    if any(tok in line for line in lines for tok in "+-$"):
        assert code == 2


def test_numerator_degree_limit_exits_2(capsys, tmp_path):
    # an exponent at the parse limit parses; its Hilbert numerator would
    # need 2^40 + 1 coefficients
    f = tmp_path / "huge.txt"
    f.write_text(f"ring n=2 char=32003\nx1^{EXPONENT_LIMIT}\n")
    for cmd in ("hilb", "lex", "betti"):
        assert main([cmd, "--input", str(f)]) == 2
        assert "limits.NUMERATOR_DEGREE_LIMIT" in capsys.readouterr().err


def test_cell_limit_exits_2(capsys, tmp_path):
    # both backends would walk 2^40 + 1 multidegrees of x1^(2^40)
    f = tmp_path / "huge.txt"
    f.write_text(f"ring n=2 char=32003\nx1^{EXPONENT_LIMIT}\n")
    for backend in ("combinatorial", "ext"):
        assert main(["cohom", "--input", str(f), "--backend", backend]) == 2
        assert "limits.CELL_LIMIT" in capsys.readouterr().err


def test_lex_cohomology_past_the_numerator_limit_exits_2(monkeypatch, capsys):
    # a family of one ideal whose lcm degree 7 passes the lowered limit
    I = as_monomial_ideal(*parse_ideal_file("ring n=5 char=32003\nx1^4\nx1*x3^2*x4\n"))
    monkeypatch.setattr(verify, "enumerate_family", lambda spec: iter([I]))
    monkeypatch.setattr(limits, "NUMERATOR_DEGREE_LIMIT", 6)
    assert main(["verify", "lex-cohomology", "--family", "n=5,maxdeg=4",
                 "--samples", "1"]) == 2
    assert "lcm has degree 7, above limits.NUMERATOR_DEGREE_LIMIT = 6" in capsys.readouterr().err


def test_cli_lpp(capsys, tmp_path):
    f = tmp_path / "ideal.txt"
    f.write_text("ring n=2 char=32003\npowers d=2\nx1^2\nx2^3\n")
    assert main(["lpp", "--input", str(f)]) == 0
    assert capsys.readouterr().out.strip() == "x1^2, x1*x2^2, x2^4"


def test_cli_betti(capsys, tmp_path):
    f = tmp_path / "ideal.txt"
    f.write_text("ring n=2 char=32003\nx1\nx2\n")
    assert main(["betti", "--input", str(f)]) == 0
    out = capsys.readouterr().out
    assert "beta[1,1] = 2" in out and "beta[2,2] = 1" in out


def test_cli_hilb_json(capsys, tmp_path):
    f = tmp_path / "ideal.txt"
    f.write_text("ring n=2 char=32003\nx1^2\nx1*x2\nx2^3\n")
    out_json = tmp_path / "out.json"
    assert main(["hilb", "--input", str(f), "--json", str(out_json)]) == 0
    payload = json.loads(out_json.read_text())
    assert payload["numerator"] == [1, 0, -2, 0, 1]
    assert payload["quotient_dims"][:4] == [1, 2, 1, 0]


@pytest.mark.parametrize("window, dims", [
    ("-3:2", "quotient dims -3..2: 0 0 0 1 2 1"),
    ("2:5", "quotient dims 2..5: 1 0 0 0"),
    ("-4:-2", "quotient dims -4..-2: 0 0 0"),
])
def test_cli_hilb_window_prints_lo_to_hi(window, dims, capsys, tmp_path):
    f = tmp_path / "ideal.txt"
    f.write_text("ring n=2 char=32003\nx1^2\nx1*x2\nx2^3\n")
    out_json = tmp_path / "out.json"
    assert main(["hilb", "--input", str(f), f"--window={window}",
                 "--json", str(out_json)]) == 0
    assert capsys.readouterr().out.splitlines()[1] == dims
    payload = json.loads(out_json.read_text())
    assert payload["quotient_dims"] == [int(v) for v in dims.split(": ")[1].split()]
    assert [payload["lo"], payload["hi"]] == [int(v) for v in window.split(":")]


def test_cli_hilb_window_lo_above_hi_exits_2(capsys, tmp_path):
    f = tmp_path / "ideal.txt"
    f.write_text(SIMPLE)
    for window in ("3:1", "0:-3"):
        assert main(["hilb", "--input", str(f), f"--window={window}"]) == 2
        assert "lo <= hi" in capsys.readouterr().err


@pytest.mark.parametrize("cmd, lo", [("hilb", 0), ("cohom", 1 - WINDOW_SPAN_LIMIT)])
def test_window_span_limit(cmd, lo, capsys, tmp_path):
    f = tmp_path / "ideal.txt"
    f.write_text("ring n=2 char=32003\nx1\n")
    hi = lo + WINDOW_SPAN_LIMIT - 1
    assert main([cmd, "--input", str(f), f"--window={lo}:{hi}"]) == 0
    capsys.readouterr()
    for window in (f"{lo}:{hi + 1}", f"{lo - 1}:{hi}"):
        with pytest.raises(SystemExit) as ei:
            main([cmd, "--input", str(f), f"--window={window}"])
        assert ei.value.code == 2
        assert f"spans {WINDOW_SPAN_LIMIT + 1} degrees, above " \
            "limits.WINDOW_SPAN_LIMIT" in capsys.readouterr().err


def test_hilb_window_far_up_is_bounded_by_the_degrees_it_reads(capsys, tmp_path):
    # hilb reads its quotient dims from degree 0 up to HI, whatever LO is
    f = tmp_path / "ideal.txt"
    f.write_text("ring n=4 char=32003\nx1\n")
    assert main(["hilb", "--input", str(f), "--window=4999999:5000000"]) == 2
    assert "reads the 5000001 degrees 0..5000000, above limits.WINDOW_SPAN_LIMIT" \
        in capsys.readouterr().err
    hi = WINDOW_SPAN_LIMIT - 1
    assert main(["hilb", "--input", str(f), f"--window={hi}:{hi}"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith(f"quotient dims {hi}..{hi}: ")
    assert main(["hilb", "--input", str(f), f"--window={hi + 1}:{hi + 1}"]) == 2
    assert "limits.WINDOW_SPAN_LIMIT" in capsys.readouterr().err


@pytest.mark.parametrize("window", ["abc", "3", "7" * 5000 + ":5", "\u0663:5", "1_0:12"],
                         ids=["abc", "3", "5000-digits", "arabic-indic-3", "1_0"])
def test_window_bounds_are_signed_ascii_digit_strings(window, capsys, tmp_path):
    f = tmp_path / "ideal.txt"
    f.write_text(SIMPLE)
    with pytest.raises(SystemExit) as ei:
        main(["hilb", "--input", str(f), f"--window={window}"])
    assert ei.value.code == 2
    err = capsys.readouterr().err
    assert "LO:HI, two integers" in err and "_parse_window" not in err
    for window, dims in (("-8:3", "quotient dims -8..3:"), ("+3:5", "quotient dims 3..5:")):
        assert main(["hilb", "--input", str(f), f"--window={window}"]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith(dims)


def test_quotient_window_below_degree_zero_is_empty():
    hs = hilbert_series(as_monomial_ideal(*parse_ideal_file(SIMPLE)))
    assert [hs.quotient_window(upto) for upto in (-1, -2, -3)] == [(), (), ()]
    assert hs.quotient_window(0) == (1,)


def test_cli_cohom_window(capsys, tmp_path):
    f = tmp_path / "ideal.txt"
    f.write_text("ring n=2 char=32003\nx1^2\nx1*x2\n")
    assert main(["cohom", "--input", str(f), "--window=-6:2"]) == 0
    out = capsys.readouterr().out
    assert "H^1" in out and "tail" in out


def test_cli_cohom_window_from_degree_zero_has_the_exact_tail(capsys, tmp_path):
    # H^1 of A/(x1) is 1 in every degree <= -1, as on the default window
    f = tmp_path / "ideal.txt"
    f.write_text("ring n=2 char=32003\nx1\n")
    assert main(["cohom", "--input", str(f)]) == 0
    assert capsys.readouterr().out.splitlines()[1].endswith("   tail ['1']")
    assert main(["cohom", "--input", str(f), "--window=0:3"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "H^1 on [0,3]: 0 0 0 0   tail ['1']"


@pytest.mark.parametrize("backend", ["combinatorial", "ext"])
def test_cohom_variable_limit(backend, capsys, tmp_path):
    f = tmp_path / "ideal.txt"
    for n, code in ((COHOM_VARIABLE_LIMIT, 0), (COHOM_VARIABLE_LIMIT + 1, 2), (400, 2)):
        f.write_text(f"ring n={n} char=32003\nx1\n")
        t0 = time.perf_counter()
        assert main(["cohom", "--backend", backend, "--input", str(f)]) == code
        assert time.perf_counter() - t0 < 1.0
        if code:
            assert f"the ring has {n} variables, above limits.COHOM_VARIABLE_LIMIT" \
                in capsys.readouterr().err


def test_cli_parser_is_built_once_and_leaks_no_state(capsys, tmp_path):
    f = tmp_path / "ideal.txt"
    f.write_text(SIMPLE)
    out = tmp_path / "out.json"
    assert main(["cohom", "--backend", "ext", "--input", str(f), "--json", str(out)]) == 0
    assert json.loads(out.read_text())["backend"] == "ext"
    assert main(["hilb", "--input", str(f)]) == 0
    assert main(["cohom", "--input", str(f), "--json", str(out)]) == 0
    assert json.loads(out.read_text())["backend"] == "combinatorial"
    assert build_parser() is build_parser()


def test_cli_cohom_backends_agree_above_2_32(capsys, tmp_path):
    f = tmp_path / "ideal.txt"
    f.write_text("ring n=4 char=4294967311\nx2*x3^2*x4\n")
    outs = []
    for backend in ("combinatorial", "ext"):
        assert main(["cohom", "--input", str(f), "--backend", backend]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and "H^3" in outs[0]


def test_cli_char_above_primality_limit_exit_code(capsys, tmp_path):
    f = tmp_path / "ideal.txt"
    f.write_text(f"ring n=1 char={MR_LIMIT + 2}\nx1\n")
    assert main(["hilb", "--input", str(f)]) == 2
    assert str(MR_LIMIT) in capsys.readouterr().err


def test_cli_zstabilize_roundtrip(capsys, tmp_path):
    f = tmp_path / "ideal.txt"
    f.write_text("ring n=1 char=32003\nvariable z\nx1*z\n")
    assert main(["zstabilize", "--input", str(f)]) == 0
    out = capsys.readouterr().out
    ctx, polys = parse_ideal_file(out)
    assert format_ideal(as_monomial_ideal(ctx, polys)) == "x1^2"


def test_cli_lex_rejects_powers(capsys, tmp_path):
    f = tmp_path / "ideal.txt"
    f.write_text("ring n=2 char=32003\npowers d=2\nx1^2\n")
    assert main(["lex", "--input", str(f)]) == 2
    assert capsys.readouterr() == ("", "error: lex expects a ring without powers (use lpp)\n")


def test_cli_parse_error_exit_code(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("ring n=2 char=32003\nx7^2\n")
    assert main(["betti", "--input", str(f)]) == 2


def test_cli_verify_family_limits(capsys):
    # in one variable a family draws one candidate per degree
    argv = ["verify", "lex-cohomology", "--samples", "1", "--family"]
    for family, name in ((f"n=1,maxdeg={POOL_LIMIT + 1}", "limits.POOL_LIMIT"),
                         (f"n={FILE_VARIABLE_LIMIT + 1}", "limits.FILE_VARIABLE_LIMIT"),
                         ("n=" + "1" * 5000, "limits.FILE_VARIABLE_LIMIT"),
                         ("n=2,d=2:" + "3" * 5000, "limits.EXPONENT_LIMIT"),
                         ("n=2,d=2:2,maxdeg=" + "7" * 5000, "limits.EXPONENT_LIMIT"),
                         (f"n=2,d=2:2,maxdeg=0{EXPONENT_LIMIT + 1}", "limits.EXPONENT_LIMIT")):
        t0 = time.perf_counter()
        assert main(argv + [family]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert name in capsys.readouterr().err
    # at the limit the family samples: its first ideal, a power of x1, is
    # refused later, by the numerator limit
    main(argv + [f"n=1,maxdeg={POOL_LIMIT}"])
    assert "POOL_LIMIT" not in capsys.readouterr().err
    # at the exponent limit the pool stops at the top degree of S, here 2
    assert main(["verify", "lpp-cohomology", "--samples", "1",
                 "--family", f"n=2,d=2:2,maxdeg={EXPONENT_LIMIT}"]) == 0
    assert "1/1 instances passed" in capsys.readouterr().out


def test_cli_verify_family_key_values(tmp_path, capsys):
    out = tmp_path / "r.json"
    argv = ["verify", "region", "--samples", "1", "--json", str(out), "--family"]
    for z, with_z in (("z", True), ("z=1", True), ("z=true", True), ("z=yes", True),
                      ("z=0", False), ("z=false", False), ("z=no", False)):
        assert main(argv + ["n=2,d=2,maxdeg=3," + z]) == 0
        assert json.loads(out.read_text())["family"]["with_z"] is with_z
    capsys.readouterr()
    # an unknown z value and a repeated key are refused, naming the key
    for family, key in (("n=2,d=2,maxdeg=3,z=2", "'z'"), ("n=2,n=3", "'n'"),
                        ("n=2,maxdeg=2,max_deg=3", "'max_deg'"), ("n=2,z,z=0", "'z'")):
        assert main(argv + [family]) == 2
        assert f"family key {key}" in capsys.readouterr().err
    # a value that is not a digit string is refused, naming its key
    for family, key in (("n=abc", "n"), ("n", "n"), ("n=2,maxdeg=x", "maxdeg"),
                        ("n=2,d=2:y", "d"), ("n=1_0", "n"), ("n=\u0662", "n"),
                        ("n=2,d=2::2", "d"), ("n=2,d=:2", "d"), ("n=2,d=", "d")):
        assert main(argv + [family]) == 2
        assert f"family {key} must be a digit string" in capsys.readouterr().err
    # a z theorem adjoins z when the family does not say, and refuses a false z
    for theorem in ("zstabilize", "embedding-lemmas", "recurrences"):
        z_argv = ["verify", theorem, "--samples", "1", "--json", str(out), "--family"]
        for z in ("", ",z"):
            assert main(z_argv + ["n=2,d=2,maxdeg=3" + z]) == 0
            assert json.loads(out.read_text())["family"]["with_z"] is True
        capsys.readouterr()
        for z in ("z=0", "z=false", "z=no"):
            assert main(z_argv + ["n=2,d=2,maxdeg=3," + z]) == 2
            assert "family key 'z' is false" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["region", "--family", "n=2,d=2:2,maxdeg=3", "--samples", "-1"],
    ["region", "--family", "n=2,d=2:2,maxdeg=3", "--samples", "0"],
    # the only ideal of the family is b, which is z-stable
    ["zstabilize", "--family", "n=2,d=2:2,z=1,maxdeg=1", "--exhaustive"],
])
def test_cli_verify_without_instances_exits_2(argv, capsys):
    assert main(["verify"] + argv) == 2
    out, err = capsys.readouterr()
    assert "instances passed" not in out
    assert "no " + argv[0] + " instances: nothing was checked" in err


def test_cli_verify_rejects_jobs_below_one(capsys):
    argv = ["verify", "region", "--family", "n=2,d=2,maxdeg=3", "--samples", "2",
            "--jobs", "0"]
    assert main(argv) == 2
    assert "--jobs" in capsys.readouterr().err


def test_cli_verify_char_is_passed_through(capsys):
    argv = ["verify", "region", "--family", "n=2,d=2,maxdeg=3", "--samples", "2"]
    assert build_parser().parse_args(argv).char == DEFAULT_CHAR
    assert main(argv + ["--char", "0"]) == 2
    assert "char must be prime, got 0" in capsys.readouterr().err
    assert verify.FamilySpec(2).char == DEFAULT_CHAR


def test_cli_verify_clamps_jobs_to_cpu_count(monkeypatch, capsys):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr("os.cpu_count", lambda: 1)
    monkeypatch.setattr("multiprocessing.Pool", no_pool)
    argv = ["verify", "region", "--family", "n=2,d=2,maxdeg=3", "--samples", "2",
            "--jobs", "64"]
    assert main(argv) == 0
    assert "2/2 instances passed" in capsys.readouterr().out


def test_cli_verify_pass_and_json_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "lpp-cohomology", "--family", "n=2,d=2,maxdeg=3",
            "--samples", "5", "--seed", "7"]
    assert main(argv + ["--json", str(out1)]) == 0
    assert main(argv + ["--json", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["schema_version"] == 1
    assert payload["summary"]["failed"] == 0
    # enough to re-run: context + generators + seed are embedded
    assert payload["family"]["seed"] == 7
    assert all("ideal" in inst for inst in payload["instances"])


def test_cli_verify_theorem_failure_exit_code(monkeypatch):
    import lexcohom.verify as V

    def always_fails(I, **kw):
        return V.InstanceRecord(ideal=V.format_ideal(I), checks={"forced": False})

    monkeypatch.setitem(V.THEOREMS, "lpp-cohomology", ("family", always_fails))
    assert main(["verify", "lpp-cohomology", "--family", "n=2,d=2,maxdeg=3",
                 "--samples", "2", "--seed", "1"]) == 1


def test_cli_verify_z_theorems_force_z():
    assert main(["verify", "zstabilize", "--family", "n=2,maxdeg=2",
                 "--samples", "2", "--seed", "3"]) == 0


def test_formatting_and_parsing_build_the_variable_names_once(monkeypatch):
    calls = []
    var_names = RingContext.var_names

    def counting(self):
        calls.append(self)
        return var_names(self)

    monkeypatch.setattr(RingContext, "var_names", counting)
    text = "ring n=2 char=32003\nvariable z\nx1*x2\nx1^3\nx2^2*z\n"
    ctx, polys = parse_ideal_file(text)
    assert len(calls) == 1
    I = as_monomial_ideal(ctx, polys)
    calls.clear()
    assert format_ideal(I) == "x1*x2, x1^3, x2^2*z"
    assert len(calls) == 1
    calls.clear()
    assert write_ideal_file(ctx, I.gens) == text
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ["hilb"], ["lex"], ["lpp"], ["betti"], ["cohom"], ["cohom", "--backend", "ext"],
    ["zstabilize"],
])
def test_single_ideal_json_reports_share_one_header(argv, capsys, tmp_path):
    # lex refuses powers and lpp needs them; every command takes z
    powers = "" if argv[0] == "lex" else "powers d=3\n"
    f, out = tmp_path / "ideal.txt", tmp_path / "out.json"
    f.write_text(f"ring n=2 char=101\n{powers}variable z\nx1^3\nx2*z\n")
    assert main(argv + ["--input", str(f), "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert {k: payload[k] for k in ("schema_version", "command", "context", "ideal")} == {
        "schema_version": 1, "command": argv[0],
        "context": {"n": 2, "char": 101, "powers": [3] if powers else [], "z": True},
        "ideal": "x2*z, x1^3",
    }


@pytest.mark.parametrize("argv", [
    [cmd, "--char", "3"] for cmd in ("hilb", "lex", "lpp", "betti", "cohom", "zstabilize")
] + [["verify", "region", "--family", "n=2,maxdeg=3", "--max-deg", "3"]])
def test_options_that_duplicate_the_input_are_gone(argv, capsys):
    # the ideal file's char= header and the family's maxdeg= key set these
    with pytest.raises(SystemExit) as ei:
        main(argv)
    assert ei.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
