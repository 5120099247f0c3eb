"""The benchmark's recorded outputs, replayed in-process.

perfbench/references.json holds the sha256 of stdout for every invocation
the benchmark can make.  Each is run here through shiftedschur.cli.run and
must print the same bytes, so a change to the output surfaces in the test
suite, not first in a benchmark run.  All of them replay, the twelve
weight-3 expand tables among them, which take a fraction of a second together,
and each of the 29 tables replays once more at --jobs 2.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from shiftedschur.cli import run

REFERENCES = Path(__file__).resolve().parent.parent / "perfbench" / "references.json"


def _cases(suffix: str = "", verb: str = "") -> list:
    refs = json.loads(REFERENCES.read_text())
    return [
        pytest.param(key + suffix, digest, id=key + suffix)
        for key, digest in refs.items() if key.startswith(verb)
    ]


@pytest.mark.parametrize("key, digest", _cases())
def test_reference_output(key, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(key.split(" "))
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


# Every reference table again at --jobs 2: --jobs changes no byte.
@pytest.mark.parametrize("key, digest", _cases(" --jobs 2", "table "))
def test_reference_table_output_in_two_shares(key, digest):
    test_reference_output(key, digest)


# Weight-4 tables users wait for, beyond the benchmark's references; the
# digests were recorded when multiply_schubert still expanded at rank
# l(lam)+l(mu)+1, so they pin that expanding one rank lower prints the same
# bytes.
W4_TABLES = {
    "table --max-weight 4 --n 9 --y standard:d=0 --method expand --format json":
    "3ad1aa806d778bb4a790e6c7f2796325622fb1446952b6581935971176303589",
    "table --max-weight 4 --n 9 --y zero --method expand --format json":
    "e39edd4486b13a858fc934bdb9d399c532bf132017d30ce9f46ad3b24803394c",
}


@pytest.mark.parametrize("key, digest", W4_TABLES.items(), ids=list(W4_TABLES))
def test_weight_four_table_output(key, digest):
    test_reference_output(key, digest)


# The symbolic weight-3 expand table, the one whose coefficients the
# conjugate route of compute_expansion relabels, at --jobs 1 and 2.
SYMBOLIC_W3 = "table --max-weight 3 --n 7 --y symbolic --method expand --format json"


@pytest.mark.parametrize("key", [SYMBOLIC_W3, SYMBOLIC_W3 + " --jobs 2"])
def test_symbolic_weight_three_table_output(key):
    test_reference_output(key, "4dc212279cdd5fb4cd09b5befffc85925dfe5d23b2d1171526c0ed9e1f1d11ef")
