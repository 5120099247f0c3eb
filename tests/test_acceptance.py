"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Everything is exact; the two runtime bounds are asserted.
"""

import time

import pytest
from oracles import brute_force_lr, oo_shifted_schur_value

from shiftedschur import (
    IntSeqWindow,
    Partition,
    YSpec,
    alternant_denominator,
    const,
    contains,
    double_schur,
    molev_coefficient,
    multiplication_table,
    multiply_schubert,
    partitions_up_to,
    restrict_to_fixed_point,
    shifted_double_schur,
    structure_constants_via_localization,
    u,
    vandermonde,
    x,
)
from shiftedschur.cli import run

P = Partition
SYM = YSpec.symbolic()
ZSPEC = YSpec.zero()


def report(num, desc):
    print(f"ACCEPTANCE {num:2d} PASS: {desc}")


@pytest.fixture(scope="module")
def pairs_weight_3():
    parts = partitions_up_to(3, 3)
    return [
        (parts[a], parts[b])
        for a in range(len(parts))
        for b in range(a, len(parts))
    ]


@pytest.fixture(scope="module")
def standard_tables_n7(pairs_weight_3):
    tables = {}
    for d in (-1, 0, 2):
        yspec = YSpec.standard(d)
        tables[d] = {
            (lam, mu): multiply_schubert(lam, mu, 7, yspec)
            for lam, mu in pairs_weight_3
        }
    return tables


def test_criterion_01_jacobi_trudi_equals_det_ratio():
    start = time.perf_counter()
    cases = 0
    for n in (2, 3, 4, 5):
        for lam in partitions_up_to(5, n):
            jt = double_schur(lam, n, method="jacobi_trudi")
            dr = double_schur(lam, n, method="det_ratio")
            assert jt == dr, f"method disagreement at lambda={tuple(lam)}, n={n}"
            cases += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(1, f"jacobi-trudi == det-ratio, {cases} cases, symbolic y, {elapsed:.1f}s")


def test_criterion_02_denominator_identity():
    for n in (2, 3, 4):
        assert alternant_denominator(n) == vandermonde(n)
    report(2, "alternant denominator equals the Vandermonde product, n in {2,3,4}")


def test_criterion_03_stability():
    cases = 0
    for n in (2, 3, 4):
        for lam in partitions_up_to(5, n):
            bigger = shifted_double_schur(lam, n + 1).substitute({x(n + 1): 0})
            assert bigger == shifted_double_schur(lam, n), (
                f"stability fails at lambda={tuple(lam)}, n={n}"
            )
            cases += 1
    report(3, f"rank stability of the shifted functions, {cases} cases, exact")


def test_criterion_04_standard_action_homogeneity(pairs_weight_3, standard_tables_n7):
    checked = 0
    for d, table in standard_tables_n7.items():
        for (lam, mu), exp in table.items():
            for nu, coeff in exp.items():
                excess = lam.weight + mu.weight - nu.weight
                assert len(coeff.terms) == 1, (
                    f"non-monomial coefficient at d={d}, {tuple(lam)}*{tuple(mu)}"
                )
                scalar = next(iter(coeff.terms.values()))
                assert coeff == const(scalar) * u**excess
                checked += 1
    report(4, f"standard(d) coefficients are monomials c*u^excess, {checked} checked")


def test_criterion_05_hook_formula_agreement(pairs_weight_3, standard_tables_n7):
    checked = 0
    for d, table in standard_tables_n7.items():
        for (lam, mu), exp in table.items():
            candidates = [
                nu
                for nu in partitions_up_to(lam.weight + mu.weight, 7)
                if contains(nu, lam) and contains(nu, mu)
            ]
            for nu in candidates:
                expected = molev_coefficient(lam, mu, nu)
                coeff = exp[nu]
                excess = lam.weight + mu.weight - nu.weight
                assert coeff == const(expected) * u**excess, (
                    f"hook formula mismatch at d={d}, "
                    f"{tuple(lam)}*{tuple(mu)} -> {tuple(nu)}"
                )
                checked += 1
            # no support outside the candidate set
            assert set(exp.coefficients) <= set(candidates)
    report(5, f"hook-function formula matches every coefficient, {checked} checked")


def test_criterion_06_method_triple_agreement(pairs_weight_3):
    for yspec in (SYM, YSpec.standard(0)):
        for lam, mu in pairs_weight_3:
            a = multiply_schubert(lam, mu, 7, yspec)
            b = structure_constants_via_localization(lam, mu, 7, yspec)
            assert a == b, (
                f"multiply != localization at {tuple(lam)}*{tuple(mu)}, {yspec.kind}"
            )
    report(6, f"expansion == localization on symbolic and standard(0), "
              f"{2 * len(pairs_weight_3)} runs at n=7")


def test_criterion_07_classical_limit():
    rows = multiplication_table(4, 9, ZSPEC)
    checked = 0
    for lam, mu, exp in rows:
        expected = brute_force_lr(tuple(lam), tuple(mu), 8)
        got = {nu: c for nu, c in exp.items()}
        assert set(got) == set(expected), (
            f"support mismatch at {tuple(lam)}*{tuple(mu)}"
        )
        for nu, c in expected.items():
            assert got[nu] == const(c)
            checked += 1
    report(7, f"zero-specialization tables match brute-force classical LR, "
              f"{len(rows)} rows, {checked} coefficients")


def test_criterion_08_circle_matches_standard():
    circle = YSpec.circle(IntSeqWindow(lo=0, values=(), tail=(1, 0)), d=0)
    rows_c = multiplication_table(3, 7, circle)
    rows_s = multiplication_table(3, 7, YSpec.standard(0))
    assert len(rows_c) == len(rows_s)
    for (l1, m1, e1), (l2, m2, e2) in zip(rows_c, rows_s):
        assert (l1, m1) == (l2, m2)
        assert e1.coefficients == e2.coefficients, (
            f"circle/standard mismatch at {tuple(l1)}*{tuple(m1)}"
        )
    report(8, f"circle action with n_k = k reproduces the standard action, "
              f"{len(rows_c)} rows")


def test_criterion_09_fixed_point_restriction():
    vanish = 0
    match = 0
    for lam in partitions_up_to(4, 4):
        for delta in partitions_up_to(4, 4):
            n = max(len(lam), len(delta)) + 1
            if not contains(delta, lam):
                assert not restrict_to_fixed_point(lam, delta, n)
                vanish += 1
            expected = oo_shifted_schur_value(lam, tuple(delta), n)
            for d in (-1, 0, 2):
                got = restrict_to_fixed_point(lam, delta, n, YSpec.standard(d))
                assert got == const(expected) * u**lam.weight
                match += 1
    report(9, f"fixed-point vanishing ({vanish} cases) and agreement with the "
              f"falling-factorial oracle ({match} cases)")


def test_criterion_10_primitivity():
    from shiftedschur import verify_primitivity

    start = time.perf_counter()
    for k in range(1, 6):
        for l in range(2, 9):
            rep = verify_primitivity(k, l)
            assert rep.passed, f"primitivity fails at k={k}, l={l}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(10, f"power sums are primitive for k<=5, l<=8, {elapsed:.1f}s")


def test_criterion_11_jobs_determinism(tmp_path):
    outputs = {}
    for jobs in (1, 4):
        for fmt in ("json", "text"):
            path = tmp_path / f"table-{jobs}.{fmt}"
            code = run(
                [
                    "table",
                    "--max-weight", "2",
                    "--n", "5",
                    "--y", "standard:d=0",
                    "--jobs", str(jobs),
                    "--format", fmt,
                    "--output", str(path),
                ]
            )
            assert code == 0
            outputs[(jobs, fmt)] = path.read_bytes()
    assert outputs[(1, "json")] == outputs[(4, "json")]
    assert outputs[(1, "text")] == outputs[(4, "text")]
    report(11, "table output is byte-identical for --jobs 1 and --jobs 4")
