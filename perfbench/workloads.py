"""Seeded workloads.  Each is the list of CLI invocations that make up one pass.

The seed selects one of ``VARIANTS`` input sets (y-spec parameters,
partitions, expressions), so every invocation any seed can generate has a
stored reference hash (``references.json``, written by ``record.py``).
The variants differ only in choices that cost about the same (the value of
d, rational parameters, the order of two factors), so that runs with
different seeds stay comparable.

Localization tables at weight 3 and n = 7 take about 30 s each, more than
a whole run, so ``localize`` uses weight-2 tables plus single weight-5
products at n = 7; both spend most of their time in
``restrict_to_fixed_point``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

VARIANTS = 5

# Wall time of one pass beside the co-runners (see run.py) on a shared 2-CPU
# x86-64 host with CPython 3.11; a run makes round(seconds / this) passes,
# and at least one.
NOMINAL_PASS_S = {"expand": 8.0, "localize": 7.0, "verify-mix": 6.0, "expand-jobs2": 8.0}

# Rational affine specs a*j + b of similar coefficient size.
AFFINE = (("1/2", "-3/5"), ("2/3", "1/4"), ("-3/2", "2/5"), ("3/4", "-1/3"), ("5/3", "1/2"))

# Weight-5 products at n = 7 whose localization takes 1.2-1.7 s each: the
# first two under the standard action (checked against molev), the last
# symbolic.  Variants swap the factors, which leaves the cost unchanged.
LOCALIZE_PAIRS = (("3", "1,1"), ("3,1", "1"), ("2,2", "1"))


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    # Index of an earlier invocation in the pass whose stdout must be
    # byte-identical (a cross-method check).
    same_as: int | None = None


def _table(weight: int, n: int, yspec: str, method: str, jobs: int | None = None) -> Invocation:
    argv = ["table", "--max-weight", str(weight), "--n", str(n), "--y", yspec, "--method", method]
    if jobs is not None:
        argv += ["--jobs", str(jobs)]
    return Invocation(tuple(argv + ["--format", "json"]))


def _multiply(lam: str, mu: str, n: int, yspec: str, method: str, fmt: str = "json",
              same_as: int | None = None) -> Invocation:
    return Invocation(
        ("multiply", "--lambda", lam, "--mu", mu, "--n", str(n), "--y", yspec,
         "--method", method, "--format", fmt),
        same_as,
    )


def _order(pair, variant: int):
    """The two factors of a product, swapped on odd variants."""
    return pair[::-1] if variant % 2 else pair


def expand(variant: int, jobs: int = 1) -> list[Invocation]:
    """Product-expansion tables at weight 3, integer and rational."""
    # Only the zero spec at n = 8: the standard and affine n = 8 tables
    # (2.3 s and 4.8 s) would leave too few passes in a run.
    a, b = AFFINE[variant]
    specs = ((7, "zero"), (7, f"standard:d={variant}"), (7, f"affine:a={a},b={b}"), (8, "zero"))
    return [_table(3, n, yspec, "expand", jobs) for n, yspec in specs]


def localize(variant: int) -> list[Invocation]:
    """Fixed-point localization, checked byte for byte against the hook formula."""
    std = f"standard:d={variant}"
    *std_pairs, sym_pair = (_order(pair, variant) for pair in LOCALIZE_PAIRS)
    invs = [
        _table(2, 7, std, "localize"),
        Invocation(_table(2, 7, std, "molev").argv, same_as=0),
        _table(2, 7, "symbolic", "localize"),
    ]
    for lam, mu in std_pairs:
        invs.append(_multiply(lam, mu, 7, std, "localize"))
        invs.append(_multiply(lam, mu, 7, std, "molev", same_as=len(invs) - 1))
    invs.append(_multiply(*sym_pair, 7, "symbolic", "localize"))
    return invs


def verify_mix(variant: int) -> list[Invocation]:
    """Short invocations of every other verb."""
    rng = random.Random(variant)
    std = f"standard:d={variant}"
    lam, mu = _order(("2,1", "1,1"), variant)
    molev_lam, molev_mu = _order(("7,5,3,1", "6,4,2"), variant)
    xs = ",".join(f"{rng.choice((1, -1)) * rng.randint(1, 5)}/{rng.randint(2, 4)}"
                  for _ in range(3))
    a = 18 + variant
    return [
        Invocation(("verify", "--suite", "jacobi-trudi", "--max-weight", "4", "--n", "4")),
        Invocation(("verify", "--suite", "denominator", "--n", "5")),
        Invocation(("verify", "--suite", "stability", "--max-weight", "3", "--n", "3")),
        Invocation(("verify", "--suite", "primitivity", "--max-k", "3", "--max-l", "5",
                    "--format", "json")),
        Invocation(("verify", "--suite", "ring-axioms", "--seed", str(variant), "--cases", "50")),
        Invocation(("schur", "--lambda", "3,1", "--n", "4", "--method", "det-ratio")),
        Invocation(("schur", "--lambda", "3,1", "--n", "4", "--shifted", "--y", std)),
        Invocation(("eval", "--lambda", "4,2", f"--x={xs}", "--y", std)),
        Invocation(("restrict", "--lambda", "2,1", "--delta", "3,2", "--n", "4", "--y", std)),
        Invocation(("restrict", "--lambda", "2,2", "--delta", "3,2,1", "--n", "4")),
        _multiply(lam, mu, 5, std, "expand"),
        _multiply(lam, mu, 5, std, "localize", same_as=10),
        _multiply(lam, mu, 5, std, "molev", same_as=10),
        _multiply(lam, mu, 5, "symbolic", "expand", fmt="latex"),
        Invocation(("molev", "--lambda", molev_lam, "--mu", molev_mu, "--nu", "10,8,5,3,1")),
        Invocation(("coproduct", "--expr", f"p1^{a}*p2^{40 - a}", "--format", "json")),
        Invocation(("table", "--max-weight", "2", "--n", "5", "--y", std, "--format", "latex")),
        Invocation(("table", "--max-weight", "2", "--n", "5", "--y", "symbolic")),
    ]


WORKLOADS = {
    "expand": expand,
    "localize": localize,
    "verify-mix": verify_mix,
    "expand-jobs2": lambda variant: expand(variant, jobs=2),
}


def build(name: str, seed: int) -> list[Invocation]:
    return WORKLOADS[name](seed % VARIANTS)
