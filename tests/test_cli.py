import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import shiftedschur
from shiftedschur import cli, comult
from shiftedschur.cli import build_parser, parse_yspec, run
from shiftedschur.comult import MAX_COPRODUCT_SUMMANDS
from shiftedschur.errors import DomainError, InexactDivisionError, UsageError
from shiftedschur.polyring import (
    MAX_EXPONENT, MAX_PRODUCT_PAIRS, IntSeqWindow, YSpec, dumps_canonical
)
from shiftedschur.schur import MAX_H_TERMS


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---- yspec grammar -------------------------------------------------------------


def test_parse_yspec_grammar():
    assert parse_yspec("symbolic") == YSpec.symbolic()
    assert parse_yspec("zero") == YSpec.zero()
    assert parse_yspec("affine:a=1/2,b=-3") == YSpec.affine("1/2", -3)
    assert parse_yspec("standard:d=-1") == YSpec.standard(-1)
    assert parse_yspec("torus:shift=4") == YSpec.torus(4)
    spec = parse_yspec("circle:d=2,window=-1:5,0,7;tail=1,0")
    assert spec == YSpec.circle(IntSeqWindow(lo=-1, values=(5, 0, 7), tail=(1, 0)), d=2)
    spec = parse_yspec("circle:d=0;tail=1,0")
    assert spec == YSpec.circle(IntSeqWindow(lo=0, values=(), tail=(1, 0)), d=0)


@pytest.mark.parametrize(
    "bad",
    [
        "mystery", "standard:q=1", "affine:a=1", "circle:w=3",
        "symbolic:junk", "zero:", "zero:d=1",
        "standard:d=1,q=2", "affine:a=1,b=2,c=3", "torus:shift=1,d=0",
        "standard:d=1,d=2", "affine:a=1,a=2,b=3", "torus:shift=1,shift=2",
        "circle:d=1,d=2,window=0:1", "circle:d=1;d=2;tail=1,0",
        "circle:window=0:1;window=0:2", "circle:d=0;tail=1,0;tail=1,1",
    ],
)
def test_parse_yspec_rejects(bad):
    with pytest.raises(UsageError):
        parse_yspec(bad)


def test_yspec_key_without_value_is_usage_error(capsys):
    argv = ("multiply", "--lambda", "1", "--mu", "1", "--n", "3", "--y", "standard:d=")
    assert invoke(capsys, *argv) == (
        1, "", "usage error: malformed yspec 'standard:d=': expected key=value, got 'd='\n"
    )


@pytest.mark.parametrize("tail", ["1", "1,2,3"])
def test_circle_tail_needs_two_values(capsys, tail):
    spec = f"circle:window=0:1;tail={tail}"
    argv = ("multiply", "--lambda", "1", "--mu", "1", "--n", "3", "--y", spec)
    assert invoke(capsys, *argv) == (
        1, "", f"usage error: malformed yspec {spec!r}: expected tail=<a>,<b>, got 'tail={tail}'\n"
    )


# ---- commands -------------------------------------------------------------------


def test_schur_command(capsys):
    code, out, _ = invoke(capsys, "schur", "--lambda", "1", "--n", "2")
    assert code == 0
    assert out == "-y[1] - y[2] + x1 + x2\n"
    code, out, _ = invoke(
        capsys, "schur", "--lambda", "1", "--n", "2", "--shifted", "--method", "det-ratio"
    )
    assert code == 0
    assert out == "x1 + x2\n"


def test_eval_command(capsys):
    code, out, _ = invoke(capsys, "eval", "--lambda", "1", "--x", "5", "--y", "zero")
    assert code == 0
    assert out == "5\n"
    # Decimal and exponent forms of a rational are read exactly.
    code, out, _ = invoke(capsys, "eval", "--lambda", "1", "--x=1e-3,0.5", "--y", "zero")
    assert code == 0
    assert out == "501/1000\n"


def test_multiply_command_text(capsys):
    code, out, _ = invoke(
        capsys,
        "multiply",
        "--lambda", "1", "--mu", "1", "--y", "standard:d=0", "--n", "3",
        "--format", "text",
    )
    assert code == 0
    assert out == "[1] * [1] -> [1]: u | [2]: 1 | [1,1]: 1\n"


def test_multiply_localize_fallback_on_zero(capsys):
    code, out, err = invoke(
        capsys,
        "multiply",
        "--lambda", "1", "--mu", "1", "--y", "zero", "--n", "3",
        "--method", "localize",
    )
    # Every y_j is 0, so localization answers through the standard action
    # at u = 0: the product's degree-0 coefficients.
    assert (code, err) == (0, "")
    assert out == "[1] * [1] -> [2]: 1 | [1,1]: 1\n"


# Each spec but affine with a != 0 makes some candidate's restriction to its
# own fixed point vanish; localization still answers, at either --jobs.
DEGENERATE_TABLES = {
    "zero": ("--n", "5", "--y", "zero"),
    "affine-a0": ("--n", "5", "--y", "affine:a=0,b=3"),
    "window": ("--n", "5", "--y", "circle:d=1,window=-4:1,1,2,2,3,3;tail=1,0"),
    # No tail rule: the window defines y_{-3}..y_2 only.
    "window-no-tail": ("--n", "3", "--finite-rank", "--y", "circle:d=0,window=-3:2,2,1,1,0,0"),
}


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--max-weight", "1", "--n", "3", "--y", "zero"),
        # affine with a != 0 localizes: no difference y_a - y_b vanishes.
        ("table", "--max-weight", "2", "--n", "5", "--y", "affine:a=1/2,b=-3/5"),
        # affine with a = 0 makes every y_j equal, as zero does.
        ("multiply", "--lambda", "2,1", "--mu", "1", "--n", "4", "--y", "affine:a=0,b=3"),
        *(
            ("table", "--max-weight", "2", *rest, "--jobs", jobs, "--format", "json")
            for rest in DEGENERATE_TABLES.values()
            for jobs in "12"
        ),
    ],
    ids=["zero", "affine", "affine-a0", *(f"{k}-jobs{j}" for k in DEGENERATE_TABLES for j in "12")],
)
def test_table_localize_fallback_on_zero(capsys, argv):
    code, expected, err = invoke(capsys, *argv, "--method", "expand")
    assert (code, err) == (0, "")
    assert invoke(capsys, *argv, "--method", "localize") == (0, expected, "")


def test_molev_command(capsys):
    code, out, _ = invoke(capsys, "molev", "--lambda", "1", "--mu", "1", "--nu", "1")
    assert code == 0
    assert out == "1\n"
    argv = ("molev", "--lambda", "1", "--mu", "1", "--nu", "1", "--format", "json")
    assert invoke(capsys, *argv) == (0, '{\n  "value": "1"\n}\n', "")


def test_molev_long_row(capsys):
    # 1200 boxes in one row: tableau counting must not recurse per cell.
    code, out, err = invoke(capsys, "molev", "--lambda", "1200", "--mu", "1", "--nu", "1201")
    assert (code, out, err) == (0, "1\n", "")


def test_restrict_command(capsys):
    code, out, _ = invoke(
        capsys,
        "restrict",
        "--lambda", "1", "--delta", "1", "--n", "2", "--y", "standard:d=0",
    )
    assert code == 0
    assert out == "u\n"


def test_coproduct_command(capsys):
    code, out, _ = invoke(capsys, "coproduct", "--expr", "p1")
    assert code == 0
    assert out == "(1) (x) (p1) + (p1) (x) (1)\n"
    assert invoke(capsys, "coproduct", "--expr", "0") == (0, "0\n", "")
    code, out, _ = invoke(capsys, "coproduct", "--expr", "0", "--format", "json")
    assert (code, json.loads(out)) == (0, {"summands": []})


@pytest.mark.parametrize(
    "expr, same", [("1e-3*p1", "1/1000*p1"), ("1e+3*p1", "1000*p1"), ("p1*2.5e-1", "1/4*p1")]
)
def test_coproduct_reads_decimal_exponents(capsys, expr, same):
    # The sign of a decimal exponent does not start a new term.
    expected = invoke(capsys, "coproduct", "--expr", same)
    assert expected[0] == 0
    assert invoke(capsys, "coproduct", "--expr", expr) == expected


def test_verify_commands(capsys):
    code, out, _ = invoke(
        capsys, "verify", "--suite", "jacobi-trudi", "--max-weight", "2", "--n", "2"
    )
    assert code == 0
    assert out.startswith("PASS (all ")
    code, out, _ = invoke(
        capsys, "verify", "--suite", "primitivity", "--max-k", "2", "--max-l", "3"
    )
    assert code == 0
    assert "k=1 l=2 pass" in out
    assert out.rstrip().endswith("PASS")
    code, out, _ = invoke(capsys, "verify", "--suite", "ring-axioms", "--seed", "7")
    assert code == 0
    code, out, _ = invoke(
        capsys, "verify", "--suite", "denominator", "--n", "3", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_table_json_round_trip(capsys):
    code, out, _ = invoke(
        capsys,
        "table",
        "--max-weight", "1", "--n", "3", "--y", "standard:d=0", "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert dumps_canonical(obj) == out
    assert obj["n"] == 3
    assert obj["yspec"] == {"kind": "standard", "d": 0}
    assert obj["rows"][-1]["terms"][0] == {"nu": [1], "coeff": "u"}


def test_multiply_json(capsys):
    code, out, _ = invoke(
        capsys,
        "multiply",
        "--lambda", "1", "--mu", "1", "--y", "standard:d=0", "--n", "3",
        "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["lambda"] == [1] and obj["mu"] == [1]
    assert {"nu": [1], "coeff": "u"} in obj["terms"]


def test_product_json_is_its_row_and_a_table_keeps_rows(capsys):
    # A table whose only row is the empty pair keeps its rows array; a
    # product's JSON is that row's fields at the top level.
    code, out, _ = invoke(capsys, "table", "--max-weight", "0", "--n", "1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert sorted(obj) == ["n", "rows", "yspec"]
    assert obj["rows"] == [{"lambda": [], "mu": [], "terms": [{"nu": [], "coeff": "1"}]}]
    argv = ("multiply", "--lambda", "1", "--mu", "1", "--n", "3", "--format", "json")
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert sorted(json.loads(out)) == ["lambda", "mu", "n", "terms", "yspec"]


def test_latex_output(capsys):
    code, out, _ = invoke(
        capsys,
        "multiply",
        "--lambda", "1", "--mu", "1", "--y", "standard:d=0", "--n", "3",
        "--format", "latex",
    )
    assert code == 0
    assert out.startswith("$s^{*}_{(1)} \\cdot s^{*}_{(1)} = ")
    assert "u \\, s^{*}_{(1)}" in out


def test_output_flag(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code, out, _ = invoke(
        capsys, "molev", "--lambda", "1", "--mu", "1", "--nu", "1",
        "--output", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == "1\n"


def test_jobs_byte_identical(tmp_path, capsys):
    # Every --jobs value runs the same one-process loop and prints the same bytes.
    tables = (
        ("--max-weight", "1", "--n", "3", "--y", "standard:d=0"),
        ("--max-weight", "2", "--n", "5", "--y", "symbolic"),
    )
    for k, table in enumerate(tables):
        paths = []
        for jobs in ("1", "4"):
            p = tmp_path / f"table{k}-{jobs}.json"
            code, _, _ = invoke(
                capsys, "table", *table, "--jobs", jobs, "--format", "json", "--output", str(p)
            )
            assert code == 0
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()


def test_jobs_never_fork(capsys, monkeypatch):
    # Every --jobs value runs the one serial loop, which shares its memo between rows.
    import errno

    table = ("table", "--max-weight", "2", "--n", "5", "--y", "symbolic", "--method", "localize")
    serial = invoke(capsys, *table, "--jobs", "1")
    assert serial[0] == 0

    def fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)
    assert invoke(capsys, *table, "--jobs", "4") == serial


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_jobs_below_one_runs_serially(capsys, jobs):
    table = ("table", "--max-weight", "1", "--n", "3")
    serial = invoke(capsys, *table, "--jobs", "1")
    assert serial[0] == 0
    assert invoke(capsys, *table, "--jobs", jobs) == serial


def test_jobs_same_error(capsys):
    # Every --jobs value reports the first pair that fails, in canonical order.
    table = ("--max-weight", "2", "--n", "5", "--y", "circle:d=0,window=0:1,2,3,4")
    want = (2, "", "error: sequence index -1 outside window [0, 3] and no tail rule\n")
    for jobs in ("1", "2", "4"):
        assert invoke(capsys, "table", *table, "--jobs", jobs, "--format", "json") == want


# ---- exit codes -----------------------------------------------------------------


def test_usage_errors(capsys):
    code, _, err = invoke(capsys, "multiply", "--lambda", "1", "--mu", "1")
    assert code == 1  # missing --n
    code, _, err = invoke(capsys, "schur", "--lambda", "1,3", "--n", "2")
    assert code == 1
    assert "usage error" in err
    code, _, err = invoke(capsys, "schur", "--lambda", "1", "--n", "2", "--bogus")
    assert code == 1


def test_flags_are_converted_in_command_line_order(capsys):
    # Each flag is parsed as argparse reads it: the first malformed one is
    # reported before a missing flag or a later bad choice, and a repeated
    # flag is checked at every occurrence.
    bad_part = "usage error: non-integer part 'x' in partition 'x'\n"
    assert invoke(capsys, "multiply", "--lambda", "x") == (1, "", bad_part)
    argv = ("multiply", "--lambda", "1", "--mu", "1", "--n", "3")
    argv += ("--y", "bogus", "--format", "nope")
    assert invoke(capsys, *argv) == (1, "", "usage error: unknown yspec kind 'bogus'\n")
    argv = ("multiply", "--lambda", "x", "--lambda", "1", "--mu", "1", "--n", "3")
    assert invoke(capsys, *argv) == (1, "", bad_part)


def test_interior_zero_part_is_usage_error(capsys):
    argv = ("multiply", "--lambda", "2,0,1", "--mu", "1", "--n", "5")
    assert invoke(capsys, *argv) == (
        1, "", "usage error: interior zero part in partition (2, 0, 1)\n"
    )


def test_domain_error_exit_code(capsys):
    code, _, err = invoke(capsys, "schur", "--lambda", "2,1", "--n", "1")
    assert code == 2
    assert "error" in err
    argv = ("restrict", "--lambda", "1,1", "--delta", "1", "--n", "1")
    message = "error: need n >= l(lambda) = 2 and n >= l(delta) = 1, got n = 1\n"
    assert invoke(capsys, *argv) == (2, "", message)


@pytest.mark.parametrize(
    "argv",
    [
        ("coproduct", "--expr", "1/0"),
        ("coproduct", "--expr", "p1 + 3/0*p2"),
        ("eval", "--lambda", "1", "--x", "1/0"),
        ("eval", "--lambda", "1", "--y", "affine:a=1/0,b=1"),
    ],
)
def test_zero_denominator_is_usage_error(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1


def test_coproduct_too_large_to_print(capsys):
    # C(20000, 10000) has about 6,000 digits, past the int-to-str limit.
    code, out, err = invoke(capsys, "coproduct", "--expr", "p1^20000")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(
    not _DIGIT_LIMIT or _DIGIT_LIMIT > 6000, reason="the int-to-str digit limit is off or high"
)
@pytest.mark.parametrize(
    "argv, code, err",
    [
        # Fraction would build 10^99999999 for each of the first three.
        (
            ["multiply", "--lambda", "1", "--mu", "1", "--n", "3",
             "--y", "affine:a=1e-99999999,b=0"],
            1,
            "usage error: malformed yspec 'affine:a=1e-99999999,b=0': "
            f"decimal exponent past the limit {_DIGIT_LIMIT}\n",
        ),
        (
            ["eval", "--lambda", "1", "--x=1e-99999999", "--y", "zero"],
            1,
            "usage error: malformed x values '1e-99999999': "
            f"decimal exponent past the limit {_DIGIT_LIMIT}\n",
        ),
        (
            ["coproduct", "--expr", "1e99999999*p1"],
            2,
            "error: bad factor '1e99999999' in power-sum expression\n",
        ),
        # The value 10^6000 has more digits than str() may print.
        (
            ["eval", "--lambda", "2", "--x=1e3000", "--y", "zero"],
            2,
            f"error: coefficient too large to print: Exceeds the limit ({_DIGIT_LIMIT} digits) "
            "for integer string conversion; use sys.set_int_max_str_digits() to increase the "
            "limit\n",
        ),
    ],
    ids=["affine-exponent", "x-exponent", "expr-exponent", "eval-too-large"],
)
def test_huge_rationals_refused_quickly(argv, code, err):
    # A subprocess, so that a hang is cut off by the timeout.
    proc = _run([sys.executable, "-m", "shiftedschur", *argv], timeout=2)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", err)


@pytest.mark.parametrize(
    "argv, index",
    [
        (["restrict", "--lambda", "1", "--delta", "9000000000000", "--n", "1"], 8999999999999),
        (["schur", "--lambda", "1", "--n", "1", "--y", "torus:shift=-9000000000000"],
         -8999999999999),
        (["restrict", "--lambda", "1", "--delta", "1", "--n", "2",
          "--y", "torus:shift=8796093022208"], 8796093022208),
        (["restrict", "--lambda", "1", "--delta", "1", "--n", "2",
          "--y", "torus:shift=100000000000000000000"], 100000000000000000000),
    ],
    ids=["delta", "negative-shift", "shift-at-the-end", "huge-shift"],
)
def test_variable_index_past_the_field(capsys, argv, index):
    # Such an index once packed into another variable (or family) silently.
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: variable index {index} outside [-2^43, 2^43)\n"


_HUGE = "99999999999999999999"
_PAST_THE_FIELD = "error: variable index {} outside [-2^43, 2^43)\n"
_PAST_THE_FACTORIAL = (
    f"error: the skew shape ({_HUGE})/() is too large for the hook function's factorials\n"
)


@pytest.mark.parametrize(
    "argv, err",
    [
        # The column [ZERO] * top once overflowed here, with a traceback.
        (["schur", "--lambda", _HUGE, "--n", "1", "--y", "zero"], _PAST_THE_FIELD.format(_HUGE)),
        (["eval", "--lambda", _HUGE, "--x=1", "--y", "zero"],
         _PAST_THE_FIELD.format(int(_HUGE) - 2)),
        # math.factorial in hook_h once overflowed, with a traceback.
        (["molev", "--lambda", _HUGE, "--mu", "1", "--nu", f"{_HUGE},1"], _PAST_THE_FACTORIAL),
        (["multiply", "--lambda", _HUGE, "--mu", "1", "--n", "3", "--y", "standard:d=0",
          "--method", "molev"], _PAST_THE_FACTORIAL),
        # These once built every variable below the index before refusing it.
        (["schur", "--lambda", "1", "--n", _HUGE], _PAST_THE_FIELD.format(_HUGE)),
        (["schur", "--lambda", _HUGE, "--n", "1"], _PAST_THE_FIELD.format(_HUGE)),
        (["restrict", "--lambda", _HUGE, "--delta", "1", "--n", "1"],
         _PAST_THE_FIELD.format(int(_HUGE) - 2)),
    ],
    ids=["schur-zero", "eval-zero", "molev", "multiply-molev", "schur-rank", "schur-part",
         "restrict-part"],
)
def test_huge_part_or_rank_refused_quickly(argv, err):
    # A subprocess, so that a hang is cut off by the timeout.
    proc = _run([sys.executable, "-m", "shiftedschur", *argv], timeout=2)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", err)


_UNDER_ADDRESS_LIMIT = """\
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from shiftedschur.cli import main
main()
"""


@pytest.mark.skipif(sys.platform == "win32", reason="RLIMIT_AS is POSIX only")
@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (["schur", "--lambda", "99999999999", "--n", "1", "--y", "zero"], 2, "",
         "error: out of memory\n"),
        (["eval", "--lambda", "99999999999", "--y", "zero"], 2, "", "error: out of memory\n"),
        (["eval", "--lambda", "300000", "--y", "zero"], 0, "0\n", ""),
    ],
    ids=["schur", "eval", "eval-long-row"],
)
def test_out_of_memory_is_one_line(argv, code, out, err):
    # The column of a huge part cannot be allocated under a 1 GiB address
    # space; the long row still fits.
    proc = _run([sys.executable, "-c", _UNDER_ADDRESS_LIMIT, *argv])
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


@pytest.mark.parametrize("exponent", [MAX_EXPONENT + 1, 2 * (MAX_EXPONENT + 1)])
def test_coproduct_exponent_past_the_field(capsys, exponent):
    code, out, err = invoke(capsys, "coproduct", "--expr", f"p1^{exponent}")
    assert code == 2
    assert out == ""
    assert err.startswith("error: exponent ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "expr, echo",
    [
        ("p" + "1" * 5000, "'p11111111111...1111111111111'"),
        ("p1^" + "1" * 5000, "'p1^111111111...1111111111111'"),
    ],
    ids=["index", "power"],
)
def test_coproduct_generator_digits_past_the_limit(capsys, expr, echo):
    # int() refuses more digits than sys.get_int_max_str_digits(): that is a
    # bad generator, not a coefficient too large to print.  The echo keeps
    # the head and tail of the factor.
    assert invoke(capsys, "coproduct", "--expr", expr) == (
        2, "", f"error: bad generator factor {echo}\n"
    )


@pytest.mark.parametrize(
    "expr",
    ["p" + "1" * 5000, "q" * 5000 + "*p1", "p1+" + "p2*" * 2000 + "-", "p1++" + "p2" * 2000],
    ids=["generator", "factor", "trailing-sign", "double-sign"],
)
def test_coproduct_error_echo_is_bounded(capsys, expr):
    code, out, err = invoke(capsys, "coproduct", "--expr", expr)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200


def test_coproduct_summand_limit(capsys):
    # (4000 + 1) * (3000 + 1) summands: refused before any is built.
    code, out, err = invoke(capsys, "coproduct", "--expr", "p1^4000*p2^3000")
    assert code == 2
    assert out == ""
    assert err == (
        "error: the coproduct has up to 12007001 summands, more than the limit "
        f"{MAX_COPRODUCT_SUMMANDS}\n"
    )


def test_coproduct_summand_bound_adds_up_monomials(monkeypatch):
    monkeypatch.setattr(comult, "MAX_COPRODUCT_SUMMANDS", 6)
    # (2 + 1) + (2 + 1) summands is at the limit, (2 + 1) + (3 + 1) past it.
    assert len(comult.coproduct_power_polynomial("p1^2 + p2^2").summands) == 6
    with pytest.raises(DomainError, match="up to 7 summands"):
        comult.coproduct_power_polynomial("p1^2 + p2^3")


def test_output_into_missing_directory(tmp_path, capsys):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = invoke(
        capsys, "molev", "--lambda", "1", "--mu", "1", "--nu", "1", "--output", str(target)
    )
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert not target.exists()


def test_denominator_suite_needs_two_variables(capsys):
    code, out, err = invoke(capsys, "verify", "--suite", "denominator", "--n", "1")
    assert code == 1
    assert out == ""
    assert "--n >= 2" in err
    code, out, _ = invoke(capsys, "verify", "--suite", "denominator", "--n", "2")
    assert code == 0
    assert out == "PASS (all 1 cases)\n"


def test_molev_method_needs_the_stable_rank(capsys):
    argv = ("multiply", "--lambda", "1", "--mu", "1", "--n", "1", "--y", "standard:d=0")
    code, out, err = invoke(capsys, *argv, "--method", "molev")
    assert code == 2
    assert out == ""
    assert err == (
        "error: the hook-function formula uses the stable reading; "
        "need n > l(lam)+l(mu) = 2, got n = 1\n"
    )
    code, out, _ = invoke(capsys, *argv, "--method", "molev", "--finite-rank")
    assert (code, out) == (0, "[1] * [1] -> [1]: u | [2]: 1\n")


def test_tall_product_under_every_method(capsys):
    # 1^60 * 1 at n = 62: the candidates prune rows the rows below cannot
    # follow, and tableaux of a tall shape are counted on its conjugate.
    ones = ",".join(["1"] * 59)
    argv = ("multiply", "--lambda", f"1,{ones}", "--mu", "1", "--n", "62",
            "--y", "standard:d=0", "--method")
    start = time.process_time()
    results = {invoke(capsys, *argv, method) for method in ("expand", "localize", "molev")}
    assert time.process_time() - start < 2
    want = f"[1,{ones}] * [1] -> [1,{ones}]: 60*u | [2,{ones}]: 1 | [1,1,{ones}]: 1\n"
    assert results == {(0, want, "")}
    # 3^6 * 2^4 at n = 11 is solved as its conjugate pair 6^3 * 4^2, whose
    # candidates are no longer than 5.  expand refuses this product: its
    # conjugate factors at rank 5 make more term pairs than MAX_PRODUCT_PAIRS.
    argv = ("multiply", "--lambda", "3,3,3,3,3,3", "--mu", "2,2,2,2", "--n", "11",
            "--y", "standard:d=0", "--format", "json", "--method")
    start = time.process_time()
    (code, out, err), = {invoke(capsys, *argv, method) for method in ("localize", "molev")}
    assert time.process_time() - start < 2
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8a5e8e469966b387598e449dbf87da844c128a45e46c84d7757571f6a14d61b1")


@pytest.mark.parametrize(
    "argv",
    [
        ("--suite", "ring-axioms", "--cases", "-1"),
        ("--suite", "ring-axioms", "--cases", "0"),
        ("--suite", "primitivity", "--max-k", "0"),
        ("--suite", "primitivity", "--max-l", "1"),
        ("--suite", "jacobi-trudi", "--n", "0"),
        ("--suite", "stability", "--n", "0"),
        ("--suite", "jacobi-trudi", "--max-weight", "-1"),
    ],
)
def test_verify_suite_that_checks_nothing_is_usage_error(capsys, argv):
    code, out, err = invoke(capsys, "verify", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: the ") and err.count("\n") == 1
    assert argv[2] in err


def test_localize_fallback_that_fails_prints_one_line(capsys, tmp_path):
    # Every diagonal vanishes in this window; the symbolic solve, specialized,
    # reads only y_{-1} and y_0, and an output that cannot be written is the
    # one error line.
    spec = "circle:d=0,window=-5:0,0,0,0,0,0"
    argv = ("multiply", "--lambda", "1", "--mu", "1", "--method", "localize", "--y", spec)
    code, out, err = invoke(capsys, *argv, "--n", "6", "--finite-rank")
    assert (code, out, err) == (0, "[1] * [1] -> [2]: 1 | [1,1]: 1\n", "")
    target = tmp_path / "missing" / "out.txt"
    code, out, err = invoke(capsys, *argv, "--n", "3", "--output", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: cannot write --output") and err.count("\n") == 1
    code, out, err = invoke(capsys, *argv, "--n", "3")
    assert (code, err) == (0, "")


def test_stable_product_reads_no_y_below_its_rank(capsys):
    # The product is built at rank l(lam)+l(mu) = 4, which reads y_{-4} but
    # not y_{-5}: the window as given prints what it prints with y_{-5} set
    # to either of two values.
    argv = ("multiply", "--lambda", "1,1", "--mu", "1,1", "--n", "5", "--y")
    code, out, err = invoke(capsys, *argv, "circle:d=0,window=-4:1,2,3,4,5,1,2,3")
    assert (code, err) == (0, "")
    assert out.startswith("[1,1] * [1,1] -> [1,1]: 2*u^2 | ")
    for extended in ("-5:9,1,2,3,4,5,1,2,3", "-5:-7,1,2,3,4,5,1,2,3"):
        assert invoke(capsys, *argv, "circle:d=0,window=" + extended) == (0, out, "")


def test_localize_lists_no_candidate_longer_than_l_lam_plus_l_mu(capsys):
    # Only (2,1,1) among the candidates of weight <= 4 containing (2) has a
    # factor y_{-3} - y_{-2} in its diagonal, which this window makes 0; no
    # coefficient of length 3 occurs, so localization needs no fallback.
    argv = ("multiply", "--lambda", "2", "--mu", "2", "--n", "3")
    argv += ("--y", "circle:d=0,window=-3:1,1,2,3,4;tail=1,10")
    code, expected, err = invoke(capsys, *argv, "--method", "expand")
    assert (code, err) == (0, "")
    assert invoke(capsys, *argv, "--method", "localize") == (0, expected, "")


# Circle windows without a tail rule, and products and tables that read y_j
# on both sides of each window.
TAILLESS_WINDOWS = (
    "circle:d=0,window=-3:2,2,1,1,0,0",
    "circle:d=1,window=-4:1,2,3,5,8,13",
    "circle:d=0,window=-1:3,1,4",
    "circle:d=2,window=-5:1,2,3,4,5,6,7,8,9",
    "circle:d=0,window=-6:3,1,4,1,5,9,2,6,5,3,5",
    "circle:d=-1,window=0:2,7,1,8",
)
WINDOW_CASES = {
    "1x1": ("multiply", "--lambda", "1", "--mu", "1", "--n", "3"),
    "21x21": ("multiply", "--lambda", "2,1", "--mu", "2,1", "--n", "5"),
    "2x11": ("multiply", "--lambda", "2", "--mu", "1,1", "--n", "5"),
    "21x1-finite": ("multiply", "--lambda", "2,1", "--mu", "1", "--n", "3", "--finite-rank"),
    "table": ("table", "--max-weight", "2", "--n", "5"),
    "table-finite": ("table", "--max-weight", "2", "--n", "3", "--finite-rank"),
}


@pytest.mark.parametrize("case", WINDOW_CASES.values(), ids=WINDOW_CASES)
@pytest.mark.parametrize("window", TAILLESS_WINDOWS)
def test_methods_answer_the_same_windows(capsys, window, case):
    # Only the y_j left in the coefficients need a value: both methods answer
    # exactly when two different tail rules give one answer, and give that.
    argv = (*case, "--method")
    code, out, err = invoke(capsys, *argv, "expand", "--y", window)
    assert invoke(capsys, *argv, "localize", "--y", window)[:2] == (code, out)
    tailed = [invoke(capsys, *argv, "expand", "--y", f"{window};tail={t}") for t in ("1,0", "-3,7")]
    if code == 0:
        assert tailed == [(0, out, "")] * 2
    else:
        assert tailed[0] != tailed[1] and err.startswith("error: sequence index ")


@pytest.mark.parametrize("window", TAILLESS_WINDOWS[:2])
def test_window_tables_at_two_jobs(capsys, window):
    argv = (*WINDOW_CASES["table"], "--y", window, "--format", "json", "--method")
    expected = invoke(capsys, *argv, "expand")
    for method in ("expand", "localize"):
        assert invoke(capsys, *argv, method, "--jobs", "2") == expected


SCHUR_WINDOWS = (
    "circle:d=0,window=-3:2,2,1,1,0,0",
    "circle:d=0,window=-1:3,1,4",
    "circle:d=-1,window=0:2,7,1,8",
    "circle:d=2,window=-5:1,2,3,4,5,6,7,8,9",
    "circle:d=0,window=1:5,6",
    "circle:d=0,window=1:1,2",
)


@pytest.mark.parametrize("shifted", [(), ("--shifted",)], ids=["double", "shifted"])
@pytest.mark.parametrize("window", SCHUR_WINDOWS)
def test_schur_methods_answer_the_same_windows(capsys, window, shifted):
    # Each method needs only the y_j left in the value, and refuses naming
    # the highest one the value reads: stdout, exit code and stderr agree.
    for lam in ("0", "1", "2", "1,1", "2,1", "1,1,1", "3,1"):
        for n in "123":
            argv = ("schur", "--lambda", lam, "--n", n, *shifted, "--y", window, "--method")
            jt, ratio = (invoke(capsys, *argv, method) for method in ("jacobi-trudi", "det-ratio"))
            assert jt == ratio, (lam, n)


_NO_TAIL = "circle:d=0,window=-4:3,1,4,1,5,9,2,6,5"


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (["schur", "--lambda", "1,1,1", "--n", "3", "--shifted"], 0, "3*u*x1*x3 + x1*x2*x3\n", ""),
        (["restrict", "--lambda", "2,1,1", "--delta", "2,2,1", "--n", "3"], 0, "768*u^4\n", ""),
        (["eval", "--lambda", "1,1", "--x", "2,-1"], 0, "3*u - 2\n", ""),
        (
            ["schur", "--lambda", "2,1,1", "--n", "3", "--y", "circle:d=0,window=1:1,2"],
            2,
            "",
            "error: sequence index 4 outside window [1, 2] and no tail rule\n",
        ),
    ],
    ids=["shifted", "restrict", "eval", "missing-top"],
)
def test_tall_partition_in_window_without_tail(capsys, argv, code, out, err):
    # A tall partition is built from its conjugate's e determinant, which
    # reads other y_k than the h determinant; the bytes are those of the h
    # determinant, and the error line names the highest index the value reads.
    if "--y" not in argv:
        argv = [*argv, "--y", _NO_TAIL]
    assert invoke(capsys, *argv) == (code, out, err)


@pytest.mark.parametrize(
    "lam, delta, spec, code",
    [
        ("2,1", "3,2,1", "symbolic", 0),
        ("1,1", "2,1", "standard:d=1", 0),
        ("2,1,1", "2,2,1", _NO_TAIL, 0),
        ("3", "3,1", _NO_TAIL, 0),
        ("8", "8", _NO_TAIL, 2),
    ],
)
def test_restrict_is_rank_independent(capsys, lam, delta, spec, code):
    # The value is computed at rank max(l(lam), l(delta), 1) for every n,
    # so a larger n prints the same bytes, and the same error line.
    length = len(delta.split(","))
    at_length, above = (
        invoke(capsys, "restrict", "--lambda", lam, "--delta", delta, "--n", str(n), "--y", spec)
        for n in (length, length + 5)
    )
    assert at_length[0] == code
    assert above == at_length


def test_verify_failure_exit_code(monkeypatch, capsys):
    class FakeReport:
        passed = False
        seconds = 0.0
        even_rank = odd_rank = 1
        lhs = rhs = "?"

    # The CLI imports the suite from comult when the suite runs.
    monkeypatch.setattr(comult, "verify_primitivity", lambda k, l: FakeReport())
    code, out, err = invoke(
        capsys, "verify", "--suite", "primitivity", "--max-k", "1", "--max-l", "2"
    )
    assert code == 3
    assert "FAIL" in out
    assert err == "internal inconsistency: the primitivity suite failed\n"


def test_engine_inconsistency_exit_code(monkeypatch, capsys):
    # An identity that fails inside an engine, not in a verify suite, also
    # exits 3 with one line; here the determinant ratio's exact division.
    from shiftedschur import schur

    def inexact(p, xi, xj):
        raise InexactDivisionError(f"x{xi} - x{xj} does not divide")

    monkeypatch.setattr(schur, "divide_linear", inexact)
    code, out, err = invoke(capsys, "schur", "--lambda", "2,1", "--n", "3", "--method", "det-ratio")
    assert (code, out) == (3, "")
    assert err.startswith("internal inconsistency: ") and err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_reports_the_first_failing_case(monkeypatch, capsys, fmt):
    # A suite checked case by case stops at the first case that fails and
    # reports it; here the determinant ratio is made wrong at one lambda.
    # The verb imports double_schur as it runs, so it reads the patched one.
    from shiftedschur import schur

    real = schur.double_schur

    def wrong_at_1_1(lam, n, yspec=YSpec.symbolic(), method="jacobi_trudi"):
        value = real(lam, n, yspec, method)
        return value + 1 if method == "det_ratio" and tuple(lam) == (1, 1) else value

    monkeypatch.setattr(schur, "double_schur", wrong_at_1_1)
    code, out, err = invoke(
        capsys, "verify", "--suite", "jacobi-trudi", "--max-weight", "2", "--n", "2",
        "--format", fmt,
    )
    line = "FAIL at lambda=(1, 1), n=2"
    if fmt == "json":
        assert json.loads(out) == {"suite": "jacobi-trudi", "passed": False, "lines": [line]}
    else:
        assert out == line + "\n"
    assert err == "internal inconsistency: the jacobi-trudi suite failed\n"
    assert code == 3


def _verbs(parser) -> dict:
    (verbs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return verbs.choices


def test_every_verb_has_a_handler():
    verbs = _verbs(build_parser())
    assert len(verbs) == 8
    for name, sub in verbs.items():
        assert callable(sub.get_default("command")), name
        assert list(_verbs(build_parser(name))) == [name]
    assert list(_verbs(build_parser("frobnicate"))) == list(verbs)


def test_one_subparser_runs_as_all_eight(monkeypatch, capsys):
    # The parser of a named verb holds that verb's subparser alone.  Every
    # reference invocation, each verb's help, a missing flag, an invalid
    # choice and a missing or unknown verb exit with the same code and write
    # the same bytes as under the parser that holds all eight.
    refs = json.loads((REPO / "perfbench" / "references.json").read_text())
    argvs = [key.split(" ") for key in refs]
    argvs += [[verb, "--help"] for verb in _verbs(build_parser())]
    argvs += [
        [], ["--help"], ["frobnicate"], ["molev", "--lambda", "1", "--mu", "1"],
        ["multiply", "--lambda", "1", "--mu", "1", "--n", "3", "--method", "bogus"],
        ["table", "--max-weight", "1", "--n", "3", "--method", "bogus"],
        ["schur", "eval", "--lambda", "1", "--n", "2"],
    ]
    full_parser = cli.build_parser
    for argv in argvs:
        one = invoke(capsys, *argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "build_parser", lambda verb=None: full_parser())
            assert invoke(capsys, *argv) == one, argv


# ---- entry points ---------------------------------------------------------------

REPO = Path(__file__).resolve().parents[1]
MOLEV_ARGV = ["molev", "--lambda", "1", "--mu", "1", "--nu", "1"]

# What pip's generated console script does with a ``module:attr`` target.
_CONSOLE_WRAPPER = """\
import sys
from functools import reduce
from importlib import import_module
module, _, attr = sys.argv[1].partition(":")
target = reduce(getattr, attr.split("."), import_module(module))
sys.argv[:2] = ["shiftedschur"]
sys.exit(target())
"""


def _declared_entry_point() -> str:
    try:
        import tomllib
    except ModuleNotFoundError:  # Python < 3.11
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["shiftedschur"]


def _run(cmd, timeout=60):
    """Run ``cmd`` against the same copy of the package that this test imported.

    ``cmd`` leads a process group of its own, and when the timeout expires the
    whole group is killed, a child that ``cmd`` started included, before
    TimeoutExpired is raised.
    """
    package_root = str(Path(shiftedschur.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    with subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            if hasattr(os, "killpg"):
                os.killpg(proc.pid, signal.SIGKILL)
            else:  # no process groups: kill ``cmd`` alone
                proc.kill()
            raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def _run_entry_point(*argv):
    return _run([sys.executable, "-c", _CONSOLE_WRAPPER, _declared_entry_point(), *argv])


def test_console_entry_point():
    proc = _run_entry_point(*MOLEV_ARGV)
    assert proc.returncode == 0
    assert proc.stdout == "1\n"


def test_console_entry_point_usage_error():
    proc = _run_entry_point(
        "multiply", "--lambda", "1", "--mu", "1", "--n", "3", "--y", "mystery"
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage error: unknown yspec kind")


@pytest.mark.parametrize("module", ["shiftedschur", "shiftedschur.cli"])
def test_run_as_module(module):
    proc = _run([sys.executable, "-m", module, *MOLEV_ARGV])
    assert proc.returncode == 0
    assert proc.stdout == "1\n"
    assert proc.stderr == ""


# Modules that importing the CLI must not load: the engines load inside the
# verbs that run them, and nothing needs the others, so that no invocation
# pays for them at start-up.
_COLD_START_ABSENT = (
    "shiftedschur.comult", "shiftedschur.schur", "shiftedschur.structconst",
    "json", "concurrent.futures", "multiprocessing", "dataclasses",
)

_COLD_START_PROBE = """\
import sys
import shiftedschur.cli
print(",".join(m for m in sys.argv[1:] if m in sys.modules))
import shiftedschur
for name in shiftedschur.__all__:
    getattr(shiftedschur, name)
from shiftedschur import comult
print(comult.verify_primitivity is shiftedschur.verify_primitivity)
"""


def test_cold_start_imports_only_the_product_modules():
    proc = _run([sys.executable, "-c", _COLD_START_PROBE, *_COLD_START_ABSENT])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\nTrue\n"
    assert proc.stderr == ""


# Each verb loads the engines it runs and no other, and only a verb that
# writes JSON loads json.
_VERB_PROBE = """\
import contextlib, io, sys
from shiftedschur.cli import run
with contextlib.redirect_stdout(io.StringIO()):
    code = run(sys.argv[1].split(" "))
print(code, ",".join(m for m in sys.argv[2:] if m in sys.modules))
"""

_ENGINES = ("shiftedschur.schur", "shiftedschur.structconst")
_JSON_WRITER = ",".join(("json", *_ENGINES))


@pytest.mark.parametrize(
    "argv, loaded",
    [
        ("coproduct --expr p1^2*p3", ""),
        ("verify --suite ring-axioms --cases 3", ""),
        ("schur --lambda 2,1 --n 3", "shiftedschur.schur"),
        ("eval --lambda 2,1 --x=1,1/2", "shiftedschur.schur"),
        ("restrict --lambda 1 --delta 2,1 --n 3", "shiftedschur.schur"),
        ("verify --suite jacobi-trudi --max-weight 2 --n 2", "shiftedschur.schur"),
        ("verify --suite denominator --n 3", "shiftedschur.schur"),
        ("verify --suite stability --max-weight 2 --n 2", "shiftedschur.schur"),
        # The JSON writer is polyring.dumps_canonical, which imports json
        # and no engine: a JSON verb loads json beside the engines it runs.
        ("coproduct --expr p1^2*p3 --format json", "json"),
        ("verify --suite primitivity --max-k 1 --max-l 2 --format json", "json"),
        ("schur --lambda 2,1 --n 3 --format json", "json,shiftedschur.schur"),
        ("eval --lambda 2,1 --x=1,1/2 --format json", "json,shiftedschur.schur"),
        ("restrict --lambda 1 --delta 2,1 --n 3 --format json", "json,shiftedschur.schur"),
        ("multiply --lambda 1 --mu 1 --n 3 --format json", _JSON_WRITER),
        ("table --max-weight 1 --n 3 --method localize --format json", _JSON_WRITER),
        # molev's hook-function sum is in partitions, which every verb loads.
        ("molev --lambda 1 --mu 1 --nu 1", ""),
        ("molev --lambda 1 --mu 1 --nu 1 --format json", "json"),
    ],
)
def test_each_verb_loads_only_its_engines(argv, loaded):
    proc = _run([sys.executable, "-c", _VERB_PROBE, argv, "json", *_ENGINES])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"0 {loaded}\n", "")


# The CLI freezes the start-up heap once, at import; the library leaves the
# collector alone, and it stays enabled for what a verb allocates.  Some
# interpreters (CPython 3.12) start with objects frozen already, so the library's
# share is counted against the interpreter's own.
_FREEZE_PROBE = """\
import gc
interpreter_frozen = gc.get_freeze_count()
import shiftedschur
library_frozen = gc.get_freeze_count() - interpreter_frozen
tracked = len(gc.get_objects())
import shiftedschur.cli
print(library_frozen, gc.get_freeze_count() >= tracked, gc.isenabled())
"""


def test_cli_import_freezes_the_start_up_heap():
    proc = _run([sys.executable, "-c", _FREEZE_PROBE])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 True True\n", "")


# A table at any --jobs runs in this one process: no fork and no pool or pipe module.
_JOBS_PROBE = """\
import os, sys
forks = []
os.fork = lambda: forks.append(1)
import shiftedschur.cli
code = shiftedschur.cli.run(["table", "--max-weight", "2", "--n", "5", "--jobs", "2",
                             "--output", os.devnull])
print(code, len(forks), ",".join(m for m in sys.argv[1:] if m in sys.modules))
"""


def test_parallel_table_loads_no_pool_module():
    modules = ("pickle", "signal", "multiprocessing", "concurrent.futures")
    proc = _run([sys.executable, "-c", _JOBS_PROBE, *modules])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 0 \n", "")


# Runs argv[2:] and writes its peak RSS in kilobytes, read with os.wait4, to
# the file argv[1].  A child started by this small process is measured on its
# own: one started by the test process directly would report at least the test
# process's high-water mark, which Linux carries across fork and exec.
_PEAK_RSS_WRAPPER = """\
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[2:])
_, status, usage = os.wait4(proc.pid, 0)
with open(sys.argv[1], "w") as fh:
    fh.write(str(usage.ru_maxrss))
sys.exit(os.waitstatus_to_exitcode(status))
"""


def _run_peak_rss(argv, tmp_path, timeout=60):
    """Run the CLI with ``argv`` under _PEAK_RSS_WRAPPER; return the finished
    process and the CLI's peak RSS in kilobytes."""
    peak_file = tmp_path / "peak_rss_kb"
    cli = [sys.executable, "-m", "shiftedschur", *argv]
    proc = _run([sys.executable, "-c", _PEAK_RSS_WRAPPER, str(peak_file), *cli], timeout=timeout)
    return proc, int(peak_file.read_text())


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="process groups are POSIX only")
def test_timeout_kills_the_command_and_its_child(tmp_path, monkeypatch):
    # The wrapper's CLI child takes over 20 s; killing only the wrapper on the
    # timeout once left such a child running at 586 MB.
    groups = []

    class RecordingPopen(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            groups.append(os.getpgid(self.pid))

    monkeypatch.setattr(subprocess, "Popen", RecordingPopen)
    with pytest.raises(subprocess.TimeoutExpired):
        _run_peak_rss(["schur", "--lambda", "3,3,3", "--n", "6"], tmp_path, timeout=1)
    (group,) = groups
    assert group != os.getpgrp(), "the command shares the test's process group"
    # The killed child is reaped by whichever process adopted it.
    deadline = time.monotonic() + 10
    while True:
        try:
            os.killpg(group, 0)
        except ProcessLookupError:
            break
        assert time.monotonic() < deadline, f"process group {group} still has a process"
        time.sleep(0.05)


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="os.wait4 is POSIX only")
@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["schur", "--lambda", "1", "--n", "2000"],
            "-"
            + " - ".join(f"y[{i}]" for i in range(1, 2001))
            + "".join(f" + x{i}" for i in range(1, 2001)),
        ),
        (["restrict", "--lambda", "1", "--delta", "1", "--n", "2000"], "-y[-1] + y[0]"),
        (
            ["schur", "--lambda", "600", "--n", "2", "--y", "zero"],
            " + ".join(
                "*".join(f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in ((1, 600 - k), (2, k)) if e)
                for k in range(601)
            ),
        ),
    ],
    ids=["schur", "restrict", "long-row"],
)
def test_many_variables(argv, expected, tmp_path):
    # Many variables or a long row need an h-recurrence without recursion,
    # and the peak RSS bound holds only if the cells of the chain over the
    # variables are not all kept (a cache of them took 211 MB in the first case).
    proc, peak_kb = _run_peak_rss(argv, tmp_path)
    assert proc.returncode == 0
    assert proc.stdout == f"{expected}\n"
    assert proc.stderr == ""
    assert peak_kb < 100 * 1024


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="os.wait4 is POSIX only")
def test_coproduct_refused_before_expanding(tmp_path):
    # C(32767, 16383) has about 9,900 digits, so the central weight is refused
    # before the 32,768 summands are built (they took 371 MB).
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit or limit > 9000:
        pytest.skip("the int-to-str digit limit admits the central weight")
    proc, peak_kb = _run_peak_rss(["coproduct", "--expr", "p1^32767"], tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        f"error: coefficient too large to print: Exceeds the limit ({limit} digits) for "
        "integer string conversion; use sys.set_int_max_str_digits() to increase the limit\n"
    )
    assert peak_kb < 100 * 1024


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="os.wait4 is POSIX only")
def test_schur_h_table_limit(tmp_path):
    # Symbolic h_p at the first variable has 2^p terms; the table is refused
    # once it holds more than MAX_H_TERMS (it grew past 1 GB before).
    proc, peak_kb = _run_peak_rss(["schur", "--lambda", "20", "--n", "2"], tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: the table h_0..h_20 exceeds the limit of {MAX_H_TERMS} terms\n"
    assert peak_kb < 200 * 1024


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="os.wait4 is POSIX only")
def test_schur_product_limit(tmp_path):
    # The determinant of (3,3,3) at n = 9 multiplies a 1,320-term minor by
    # a 117,696-term entry; it grew past 960 MB before any check refused it.
    proc, peak_kb = _run_peak_rss(["schur", "--lambda", "3,3,3", "--n", "9"], tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: a product of 1320 by 117696 terms exceeds the limit of "
        f"{MAX_PRODUCT_PAIRS} term pairs\n"
    )
    assert peak_kb < 150 * 1024


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="os.wait4 is POSIX only")
def test_det_ratio_never_builds_the_alternant(tmp_path):
    # Expanding the 6 x 6 alternant before dividing by the 15 factors
    # x_i - x_j took 31.7 s and peaked at 1.4 GB; the divided-difference
    # rows never hold it.
    argv = ["schur", "--lambda", "3,2,1", "--n", "6"]
    proc, peak_kb = _run_peak_rss([*argv, "--method", "det-ratio"], tmp_path, timeout=20)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout == _run([sys.executable, "-m", "shiftedschur", *argv]).stdout
    assert peak_kb < 100 * 1024


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="os.wait4 is POSIX only")
@pytest.mark.parametrize("k, flags", [(20, []), (12, ["--shifted"])], ids=["20", "12-shifted"])
def test_schur_e_table_limit(k, flags, tmp_path):
    # (1^k) is built from one column e_0..e_k; symbolic e_k has 2^k terms,
    # 3^k at the shifted point.  The e table shares the h tables' budget.
    lam = ",".join(["1"] * k)
    proc, peak_kb = _run_peak_rss(["schur", "--lambda", lam, "--n", str(k), *flags], tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: the table e_0..e_{k} exceeds the limit of {MAX_H_TERMS} terms\n"
    assert peak_kb < 100 * 1024


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="os.wait4 is POSIX only")
@pytest.mark.parametrize("lam, n", [("600", "2"), ("1200", "1")])
def test_long_symbolic_row_refused_in_little_memory(lam, n, tmp_path):
    # The y variables of a row get registry slots from the lowest index up,
    # so the cells filled before the refusal pack into short ints.
    proc, peak_kb = _run_peak_rss(["schur", "--lambda", lam, "--n", n], tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: the table h_0..h_{lam} exceeds the limit of {MAX_H_TERMS} terms\n"
    assert peak_kb < 100 * 1024


@pytest.mark.skipif(
    shutil.which("shiftedschur") is None,
    reason="the shiftedschur console script is not installed on PATH",
)
def test_installed_console_script():
    proc = _run(["shiftedschur", *MOLEV_ARGV])
    assert proc.returncode == 0
    assert proc.stdout == "1\n"
