import json

import pytest

from lexcohom import verify
from lexcohom.cli import build_parser, main
from lexcohom.core import _EXP_LIMIT, MR_LIMIT, RingContext
from lexcohom.ioformat import (ParseError, as_monomial_ideal, format_ideal,
                               parse_ideal_file, write_ideal_file)

SIMPLE = "ring n=2 char=32003\nx1^2\nx2^3\n"


def test_parse_print_roundtrip():
    ctx, polys = parse_ideal_file(SIMPLE)
    assert ctx == RingContext(2)
    I = as_monomial_ideal(ctx, polys)
    assert write_ideal_file(ctx, I.gens) == SIMPLE


def test_parse_powers_and_z():
    text = "ring n=2 char=101\npowers d=2,3\nvariable z\nx1*z^2\nx2^2 + 3*x1*x2\n"
    ctx, polys = parse_ideal_file(text)
    assert ctx.nx == 2 and ctx.z and ctx.powers == (2, 3) and ctx.char == 101
    assert polys[0].coeffs == (((1, 0, 2), 1),)
    assert set(polys[1].coeffs) == {((0, 2, 0), 1), ((1, 1, 0), 3)}
    # canonical form is a fixpoint of parse/print
    canonical = write_ideal_file(ctx, polys)
    ctx2, polys2 = parse_ideal_file(canonical)
    assert (ctx2, [p.coeffs for p in polys2]) == (ctx, [p.coeffs for p in polys])
    assert write_ideal_file(ctx2, polys2) == canonical


def test_parse_case_insensitive_and_comments():
    text = "RING n=2 CHAR=32003\n# a comment\nX1^2*X2\n\n"
    ctx, polys = parse_ideal_file(text)
    assert polys[0].coeffs == (((2, 1), 1),)


def test_parse_errors_carry_location():
    with pytest.raises(ParseError) as ei:
        parse_ideal_file("ring n=2 char=32003\nx9\n")
    assert ei.value.line_no == 2
    with pytest.raises(ParseError):
        parse_ideal_file("x1\n")  # missing header


@pytest.mark.parametrize("gen, col", [
    ("x1^2^3", 5), ("x1*2^3", 5), ("x2^2*3^2", 7), ("x1*^2", 4), ("x1^-1", 3),
    ("x1 ^2", 4), ("x1^", 3),
])
def test_parse_exponent_only_directly_after_a_variable(gen, col, tmp_path):
    with pytest.raises(ParseError) as ei:
        parse_ideal_file(f"ring n=2 char=32003\n{gen}\n")
    assert (ei.value.line_no, ei.value.col) == (2, col)
    f = tmp_path / "bad.txt"
    f.write_text(f"ring n=2 char=32003\n{gen}\n")
    assert main(["hilb", "--input", str(f)]) == 2


def test_parse_exponent_overflow_names_the_limit(capsys, tmp_path):
    for gen, col in (("x1^99999999999999", 4), (f"x1^{_EXP_LIMIT}*x2*x1", 21)):
        with pytest.raises(ParseError) as ei:
            parse_ideal_file(f"ring n=2 char=32003\n{gen}\n")
        assert (ei.value.line_no, ei.value.col) == (2, col)
        assert "core._EXP_LIMIT" in str(ei.value)
    f = tmp_path / "big.txt"
    f.write_text("ring n=2 char=32003\nx1^99999999999999\n")
    assert main(["hilb", "--input", str(f)]) == 2
    assert "core._EXP_LIMIT" in capsys.readouterr().err


def test_numerator_degree_limit_exits_2(capsys, tmp_path):
    # an exponent at the parse limit parses; its Hilbert numerator would
    # need 2^40 + 1 coefficients
    f = tmp_path / "huge.txt"
    f.write_text(f"ring n=2 char=32003\nx1^{_EXP_LIMIT}\n")
    for cmd in ("hilb", "lex", "betti"):
        assert main([cmd, "--input", str(f)]) == 2
        assert "hilbert.NUMERATOR_DEGREE_LIMIT" in capsys.readouterr().err


def test_cell_limit_exits_2(capsys, tmp_path):
    # both backends would walk 2^40 + 1 multidegrees of x1^(2^40)
    f = tmp_path / "huge.txt"
    f.write_text(f"ring n=2 char=32003\nx1^{_EXP_LIMIT}\n")
    for backend in ("combinatorial", "ext"):
        assert main(["cohom", "--input", str(f), "--backend", backend]) == 2
        assert "localcohom.CELL_LIMIT" in capsys.readouterr().err


def test_lex_cohomology_past_the_numerator_limit_exits_2(monkeypatch, capsys):
    # a family of one ideal whose lex ideal has generators past the limit
    I = as_monomial_ideal(*parse_ideal_file("ring n=5 char=32003\nx1^4\nx1*x3^2*x4\n"))
    monkeypatch.setattr(verify, "enumerate_family", lambda spec: iter([I]))
    assert main(["verify", "lex-cohomology", "--family", "n=5,maxdeg=4",
                 "--samples", "1"]) == 2
    assert "hilbert.NUMERATOR_DEGREE_LIMIT" in capsys.readouterr().err


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


def test_cli_cohom_window(capsys, tmp_path):
    f = tmp_path / "ideal.txt"
    f.write_text("ring n=2 char=32003\nx1^2\nx1*x2\n")
    assert main(["cohom", "--input", str(f), "--window=-6:2"]) == 0
    out = capsys.readouterr().out
    assert "H^1" in out and "certified" in out


def test_cli_cohom_window_from_degree_zero_is_uncertified(capsys, tmp_path):
    f = tmp_path / "ideal.txt"
    f.write_text("ring n=2 char=32003\nx1\n")
    assert main(["cohom", "--input", str(f), "--window=0:3"]) == 2
    assert "UNCERTIFIED" in capsys.readouterr().out


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


def test_cli_parse_error_exit_code(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("ring n=2 char=32003\nx7^2\n")
    assert main(["betti", "--input", str(f)]) == 2


def test_cli_verify_rejects_jobs_below_one(capsys):
    argv = ["verify", "region", "--family", "n=2,d=2,maxdeg=3", "--samples", "2",
            "--jobs", "0"]
    assert main(argv) == 2
    assert "--jobs" in capsys.readouterr().err


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
