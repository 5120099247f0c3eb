import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import shiftedschur
from shiftedschur import comult
from shiftedschur.cli import parse_yspec, run
from shiftedschur.comult import MAX_COPRODUCT_SUMMANDS
from shiftedschur.errors import DomainError, UsageError
from shiftedschur.polyring import MAX_EXPONENT, IntSeqWindow, YSpec
from shiftedschur.schur import MAX_H_TERMS
from shiftedschur.structconst import dumps_canonical


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


@pytest.mark.parametrize("bad", ["mystery", "standard:q=1", "affine:a=1", "circle:w=3"])
def test_parse_yspec_rejects(bad):
    with pytest.raises(UsageError):
        parse_yspec(bad)


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
    assert code == 0
    assert "falling back" in err
    assert out == "[1] * [1] -> [2]: 1 | [1,1]: 1\n"


def test_table_localize_fallback_on_zero(capsys):
    argv = ("table", "--max-weight", "1", "--n", "3", "--y", "zero")
    code, expected, err = invoke(capsys, *argv, "--method", "expand")
    assert (code, err) == (0, "")
    code, out, err = invoke(capsys, *argv, "--method", "localize")
    assert code == 0
    assert out == expected
    assert err.startswith("note: ") and err.count("\n") == 1
    assert "falling back" in err


def test_molev_command(capsys):
    code, out, _ = invoke(capsys, "molev", "--lambda", "1", "--mu", "1", "--nu", "1")
    assert code == 0
    assert out == "1\n"


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
    # Workers fork with the parent's slot registry and then register
    # variables in their own order; results come back as flat monomials.
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


# ---- exit codes -----------------------------------------------------------------


def test_usage_errors(capsys):
    code, _, err = invoke(capsys, "multiply", "--lambda", "1", "--mu", "1")
    assert code == 1  # missing --n
    code, _, err = invoke(capsys, "schur", "--lambda", "1,3", "--n", "2")
    assert code == 1
    assert "usage error" in err
    code, _, err = invoke(capsys, "schur", "--lambda", "1", "--n", "2", "--bogus")
    assert code == 1


def test_domain_error_exit_code(capsys):
    code, _, err = invoke(capsys, "schur", "--lambda", "2,1", "--n", "1")
    assert code == 2
    assert "error" in err


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


@pytest.mark.parametrize("exponent", [MAX_EXPONENT + 1, 2 * (MAX_EXPONENT + 1)])
def test_coproduct_exponent_past_the_field(capsys, exponent):
    code, out, err = invoke(capsys, "coproduct", "--expr", f"p1^{exponent}")
    assert code == 2
    assert out == ""
    assert err.startswith("error: exponent ") and err.count("\n") == 1


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


def test_verify_failure_exit_code(monkeypatch, capsys):
    import shiftedschur.cli as cli_mod

    class FakeReport:
        passed = False
        seconds = 0.0
        even_rank = odd_rank = 1
        lhs = rhs = "?"

    monkeypatch.setattr(cli_mod, "verify_primitivity", lambda k, l: FakeReport())
    code, out, _ = invoke(
        capsys, "verify", "--suite", "primitivity", "--max-k", "1", "--max-l", "2"
    )
    assert code == 3
    assert "FAIL" in out


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


def _run(cmd):
    """Run ``cmd`` against the same copy of the package that this test imported."""
    package_root = str(Path(shiftedschur.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=60)


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
    peak_file = tmp_path / "peak_rss_kb"
    cli = [sys.executable, "-m", "shiftedschur", *argv]
    proc = _run([sys.executable, "-c", _PEAK_RSS_WRAPPER, str(peak_file), *cli])
    assert proc.returncode == 0
    assert proc.stdout == f"{expected}\n"
    assert proc.stderr == ""
    assert int(peak_file.read_text()) < 100 * 1024


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="os.wait4 is POSIX only")
def test_coproduct_refused_before_expanding(tmp_path):
    # C(32767, 16383) has about 9,900 digits, so the central weight is refused
    # before the 32,768 summands are built (they took 371 MB).
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit or limit > 9000:
        pytest.skip("the int-to-str digit limit admits the central weight")
    peak_file = tmp_path / "peak_rss_kb"
    cli = [sys.executable, "-m", "shiftedschur", "coproduct", "--expr", "p1^32767"]
    proc = _run([sys.executable, "-c", _PEAK_RSS_WRAPPER, str(peak_file), *cli])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        f"error: coefficient too large to print: Exceeds the limit ({limit} digits) for "
        "integer string conversion; use sys.set_int_max_str_digits() to increase the limit\n"
    )
    assert int(peak_file.read_text()) < 100 * 1024


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="os.wait4 is POSIX only")
def test_schur_h_table_limit(tmp_path):
    # Symbolic h_p at the first variable has 2^p terms; the table is refused
    # once it holds more than MAX_H_TERMS (it grew past 1 GB before).
    peak_file = tmp_path / "peak_rss_kb"
    cli = [sys.executable, "-m", "shiftedschur", "schur", "--lambda", "20", "--n", "2"]
    proc = _run([sys.executable, "-c", _PEAK_RSS_WRAPPER, str(peak_file), *cli])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: the table h_0..h_20 exceeds the limit of {MAX_H_TERMS} terms\n"
    assert int(peak_file.read_text()) < 200 * 1024


@pytest.mark.skipif(
    shutil.which("shiftedschur") is None,
    reason="the shiftedschur console script is not installed on PATH",
)
def test_installed_console_script():
    proc = _run(["shiftedschur", *MOLEV_ARGV])
    assert proc.returncode == 0
    assert proc.stdout == "1\n"
