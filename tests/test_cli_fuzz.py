"""The CLI contract on random invocations: an answer or a documented exit
code with one line on stderr.

Every verb is driven with its flags, including malformed values.  The
sizes stay small so that a case takes milliseconds; left out are tables
above weight 2, --jobs above 1, the determinant-ratio method (and the
jacobi-trudi suite, which runs it) above n = 4, and large exponents
(coproduct exponents past the packed field, rows past schur.MAX_H_TERMS),
which tests/test_cli.py checks one by one.
"""

import contextlib
import io
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from shiftedschur.cli import run  # noqa: E402


def _mostly(valid, malformed):
    """A valid value nine times in ten, else a malformed one."""
    return st.tuples(st.integers(0, 9), st.sampled_from(valid), st.sampled_from(malformed)).map(
        lambda t: t[1] if t[0] else t[2]
    )


PARTITIONS = _mostly(
    ["", "0", "1", "2", "1,1", "3", "2,1", "1,1,1"],  # weight <= 3
    ["1,2", "-1", "0,1", "a", "1,,1", "2.5"],
)
RANKS = _mostly(list(range(-1, 7)), ["", "x", "1.5"])
YSPECS = _mostly(
    [
        "symbolic", "zero", "affine:a=1/2,b=-3", "affine:a=0,b=0", "standard:d=0",
        "standard:d=2", "circle:d=1,window=-2:1,2,3;tail=1,0", "circle:d=0;tail=0,0",
        "circle:d=0,window=0:1,2", "circle:d=0,window=-9:0,0,0,0,0,0,0,0,0,0,0,0",
        "circle:d=0,window=-5:0,0,0,0,0,0", "torus:shift=0", "torus:shift=7",
    ],
    [
        "", "mystery", "symbolic:junk", "zero:", "affine:a=1", "affine:a=1/0,b=1",
        "affine:a=1e-99999999,b=0", "standard:d=x", "standard:d=1,q=2", "standard:d=1,d=2",
        "circle:w=3", "circle:d=0", "circle:d=0;tail=1", "circle:d=0,window=x:1", "torus:shift=",
    ],
)
FORMATS = _mostly(["text", "json", "latex"], ["yaml"])
EXPRS = _mostly(
    ["p1^2*p3 - 1/2*p2", "p1", "3", "0", "p2^3 + p1^4", "-p1*p1", "1/2 - p3"],
    ["", "p0", "p1^", "q2", "1/0", "p1^-1", "p1**2", "p1 +", "x", "1e99999999*p1", "1e-99999999"],
)


def _flag(name, values):
    """Zero or one occurrence of --name with a drawn value."""
    return st.just([]) | values.map(lambda v: [f"--{name}={v}"])


def _switch(name):
    return st.sampled_from([[], [f"--{name}"]])


def _verb(name, *parts):
    return st.tuples(*parts).map(lambda lists: [name] + [a for part in lists for a in part])


def _required(name, values):
    """--name with a drawn value, missing (a usage error) one time in ten."""
    return st.tuples(st.integers(0, 9), values).map(
        lambda t: [f"--{name}={t[1]}"] if t[0] else []
    )


# The test puts a fresh directory in place of DIR.
OUTPUTS = _flag("output", st.sampled_from(["DIR/out.txt", "DIR/missing/out.txt"]))
COMMON = (_flag("y", YSPECS), _flag("format", FORMATS), OUTPUTS)
INVOCATIONS = st.one_of(
    _verb(
        "schur", _required("lambda", PARTITIONS), _required("n", RANKS),
        _flag("method", _mostly(["jacobi-trudi"], ["slow"])), _switch("shifted"), *COMMON,
    ),
    _verb(
        "schur", _required("lambda", PARTITIONS), _required("n", st.integers(-1, 4)),
        _flag("method", st.just("det-ratio")), _switch("shifted"), *COMMON,
    ),
    _verb(
        "eval", _required("lambda", PARTITIONS),
        _flag("x", _mostly(["", "1", "1/2,-3", "0,0,0"], ["1/0", "a", "1,,2", "1e-99999999"])),
        *COMMON,
    ),
    _verb(
        "multiply", _required("lambda", PARTITIONS), _required("mu", PARTITIONS),
        _required("n", RANKS), _flag("method", st.sampled_from(["expand", "localize", "molev"])),
        _switch("finite-rank"), *COMMON,
    ),
    _verb(
        "table", _required("max-weight", st.integers(-1, 2)), _required("n", RANKS),
        _flag("method", _mostly(["expand", "localize", "molev"], ["x"])),
        _flag("jobs", st.integers(-1, 1)), _switch("finite-rank"), *COMMON,
    ),
    _verb(
        "molev", _required("lambda", PARTITIONS), _required("mu", PARTITIONS),
        _required("nu", PARTITIONS), _flag("format", FORMATS), OUTPUTS,
    ),
    _verb(
        "restrict", _required("lambda", PARTITIONS), _required("delta", PARTITIONS),
        _required("n", RANKS), *COMMON,
    ),
    _verb("coproduct", _required("expr", EXPRS), _flag("format", FORMATS), OUTPUTS),
    _verb(
        "verify",
        _required(
            "suite",
            _mostly(["denominator", "stability", "primitivity", "ring-axioms"], ["x"]),
        ),
        _required("max-weight", st.integers(-1, 3)), _required("n", RANKS),
        _flag("max-k", st.integers(-1, 3)), _flag("max-l", st.integers(0, 5)),
        _flag("cases", st.integers(-1, 5)), _flag("seed", st.integers(0, 9)),
        _flag("format", FORMATS), OUTPUTS,
    ),
    _verb(
        "verify", _required("suite", st.just("jacobi-trudi")),
        _required("max-weight", st.integers(-1, 3)), _required("n", st.integers(-1, 4)),
        _flag("format", FORMATS), OUTPUTS,
    ),
    st.sampled_from([[], ["mystery"], ["schur", "--bogus"]]),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(INVOCATIONS)
def test_cli_answers_or_exits_with_one_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = [a.replace("DIR", tmp) for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
