import json
from fractions import Fraction

import pytest
from oracles import brute_force_lr

from shiftedschur import (
    ONE,
    AsymmetricInputError,
    DegenerateSpecializationError,
    DomainError,
    IntSeqWindow,
    Partition,
    RankTooSmallError,
    YSpec,
    const,
    contains,
    expand_in_shifted_basis,
    molev_coefficient,
    multiplication_table,
    multiply_schubert,
    partitions_up_to,
    shifted_double_schur,
    structure_constants_via_localization,
    u,
    x,
)
from shiftedschur.structconst import (
    compute_expansion,
    dumps_canonical,
    table_to_json_obj,
    table_to_latex,
    table_to_text,
)

P = Partition
SYM = YSpec.symbolic()
ZSPEC = YSpec.zero()
STD0 = YSpec.standard(0)


# ---- expansion -----------------------------------------------------------------


def test_expand_trivial_one():
    exp = expand_in_shifted_basis(ONE, 3, SYM)
    assert exp.coefficients == {P(): ONE}


def test_expand_reproduces_basis_element():
    p = shifted_double_schur(P([2, 1]), 3, SYM)
    exp = expand_in_shifted_basis(p, 3, SYM)
    assert exp.coefficients == {P([2, 1]): ONE}


def test_expand_classical_square():
    exp = expand_in_shifted_basis((x(1) + x(2)) ** 2, 2, ZSPEC)
    assert exp.coefficients == {P([2]): ONE, P([1, 1]): ONE}


def test_expand_detects_asymmetry():
    with pytest.raises(AsymmetricInputError):
        expand_in_shifted_basis(x(1), 2, ZSPEC)
    with pytest.raises(AsymmetricInputError):
        expand_in_shifted_basis(x(1) * x(2) ** 2, 2, ZSPEC)


def test_expand_rank_too_small():
    with pytest.raises(RankTooSmallError):
        expand_in_shifted_basis(x(1) * x(2) * x(3), 2, ZSPEC)


def test_expand_shifted_symmetric_input():
    # (x1+y_{-1})(x2+y_{-2}) + lower terms is shifted-symmetric at n=2.
    p = shifted_double_schur(P([1]), 2, SYM) ** 2 - 3 * shifted_double_schur(
        P([1, 1]), 2, SYM
    )
    exp = expand_in_shifted_basis(p, 2, SYM)
    assert exp[P([1, 1])] == const(-2)
    assert exp.reconstruct() == p


# ---- multiply -------------------------------------------------------------------


def test_multiply_unit():
    for mu in (P(), P([2, 1])):
        exp = multiply_schubert(P(), mu, 4, SYM)
        assert exp.coefficients == {mu: ONE}


def test_multiply_example_standard():
    exp = multiply_schubert(P([1]), P([1]), 3, STD0)
    assert exp.coefficients == {P([2]): ONE, P([1, 1]): ONE, P([1]): u}


def test_multiply_example_zero():
    exp = multiply_schubert(P([1]), P([1]), 3, ZSPEC)
    assert exp.coefficients == {P([2]): ONE, P([1, 1]): ONE}


def test_multiply_reconstructs_product():
    for yspec in (SYM, STD0):
        exp = multiply_schubert(P([1]), P([1]), 3, yspec)
        product = shifted_double_schur(P([1]), 3, yspec) ** 2
        assert exp.reconstruct() == product
    exp = multiply_schubert(P([2]), P([1, 1]), 4, SYM)
    product = shifted_double_schur(P([2]), 4, SYM) * shifted_double_schur(
        P([1, 1]), 4, SYM
    )
    assert exp.reconstruct() == product


def test_multiply_stable_rank_check():
    with pytest.raises(RankTooSmallError):
        multiply_schubert(P([1]), P([1]), 2, SYM)
    # but the finite-rank reading admits it
    exp = multiply_schubert(P([1]), P([1]), 2, SYM, stable=False)
    assert exp.reconstruct() == shifted_double_schur(P([1]), 2, SYM) ** 2


def test_multiply_support_bounds():
    exp = multiply_schubert(P([2]), P([1, 1]), 5, SYM)
    for nu in exp.support():
        assert contains(nu, P([2])) and contains(nu, P([1, 1]))
        assert max(2, 2) <= nu.weight <= 4


def test_multiply_commutative():
    a = multiply_schubert(P([2]), P([1, 1]), 5, SYM)
    b = multiply_schubert(P([1, 1]), P([2]), 5, SYM)
    assert a == b


def test_multiply_coefficients_stable_in_n():
    for yspec in (SYM, STD0):
        small = multiply_schubert(P([1]), P([1]), 3, yspec)
        large = multiply_schubert(P([1]), P([1]), 4, yspec)
        assert small.coefficients == large.coefficients


# One y-spec of each kind; the affine one has rational values.
SPECS = (
    SYM,
    ZSPEC,
    YSpec.affine(Fraction(1, 2), Fraction(-3, 5)),
    YSpec.standard(1),
    YSpec.circle(IntSeqWindow(lo=0, values=(), tail=(2, -1)), d=1),
    YSpec.torus(-2),
)
RANK_PAIRS = [
    (lam, mu) for lam in partitions_up_to(2, 2) for mu in partitions_up_to(2, 2)
] + [(P([2, 1]), P([1])), (P([1]), P([1, 1, 1])), (P([3]), P([1, 1]))]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
def test_multiply_matches_full_rank_expansion(spec):
    # multiply_schubert expands at the least stable rank l(lam)+l(mu)+1;
    # the product built and expanded at a larger rank n must give the same
    # coefficients, and the expansion keeps the caller's n.
    for lam, mu in RANK_PAIRS:
        n = len(lam) + len(mu) + 3
        exp = multiply_schubert(lam, mu, n, spec)
        product = shifted_double_schur(lam, n, spec) * shifted_double_schur(mu, n, spec)
        assert exp == expand_in_shifted_basis(product, n, spec)
        assert exp.n == n
        assert exp == multiply_schubert(mu, lam, n, spec)


def test_top_degree_coefficients_classical():
    exp = multiply_schubert(P([2, 1]), P([1]), 5, SYM)
    lr = brute_force_lr((2, 1), (1,), 4)
    for nu, c in exp.items():
        if nu.weight == 4:
            assert c == const(lr[nu])
    assert {nu for nu in lr} == {nu for nu in exp.support() if nu.weight == 4}


# ---- hook-function formula ---------------------------------------------------------


def test_molev_examples():
    assert molev_coefficient(P([1]), P([1]), P([1])) == 1
    assert molev_coefficient(P([1]), P([1]), P([2])) == 1
    assert molev_coefficient(P([1]), P(), P([2])) == 0


def test_molev_no_admissible_rho():
    assert molev_coefficient(P([2]), P([1]), P([1])) == 0
    assert molev_coefficient(P([3]), P(), P([2, 1])) == 0


def test_molev_unit():
    for nu in partitions_up_to(3, 3):
        assert molev_coefficient(P(), nu, nu) == 1
        assert molev_coefficient(nu, P(), nu) == 1


# ---- localization --------------------------------------------------------------


def test_localization_trivial():
    exp = structure_constants_via_localization(P(), P([1]), 3, STD0)
    assert exp.coefficients == {P([1]): ONE}


def test_localization_matches_multiply():
    cases = [
        (P([1]), P([1]), 3),
        (P([2]), P([1]), 4),
        (P([1, 1]), P([1]), 4),
        (P([2, 1]), P([1]), 5),
    ]
    for lam, mu, n in cases:
        for yspec in (SYM, STD0):
            assert structure_constants_via_localization(
                lam, mu, n, yspec
            ) == multiply_schubert(lam, mu, n, yspec)


def test_localization_rejects_degenerate():
    with pytest.raises(DegenerateSpecializationError):
        structure_constants_via_localization(P([1]), P([1]), 3, ZSPEC)
    with pytest.raises(DegenerateSpecializationError):
        structure_constants_via_localization(P([1]), P([1]), 3, YSpec.affine(1, 0))


@pytest.mark.parametrize(
    "spec_of",
    [lambda n: YSpec.torus(n + 1), lambda n: SYM, lambda n: STD0],
    ids=["torus", "symbolic", "standard"],
)
def test_finite_rank_localization_matches_expand(spec_of):
    # The finite-rank tables of the two engines agree at ranks n up to
    # 2 * max_weight too: vanishing and triangularity need only n >= l(delta).
    for n in (2, 3, 4):
        spec = spec_of(n)
        rows_l = multiplication_table(3, n, spec, method="localize", finite_rank=True)
        rows_e = multiplication_table(3, n, spec, method="expand", finite_rank=True)
        assert [(l, m, e.coefficients) for l, m, e in rows_l] == [
            (l, m, e.coefficients) for l, m, e in rows_e
        ]
    with pytest.raises(RankTooSmallError, match="localization uses the stable reading"):
        structure_constants_via_localization(P([1]), P([1]), 2, SYM)


def test_localization_torus_spec():
    lam = mu = P([1])
    a = structure_constants_via_localization(lam, mu, 3, YSpec.torus(0))
    b = multiply_schubert(lam, mu, 3, YSpec.torus(0))
    assert a == b


# ---- tables and serialization -----------------------------------------------------


def test_table_weight_zero():
    rows = multiplication_table(0, 1, SYM)
    assert len(rows) == 1
    lam, mu, exp = rows[0]
    assert lam == P() and mu == P() and exp.coefficients == {P(): ONE}


def test_table_classical_weight_one():
    rows = multiplication_table(1, 3, ZSPEC)
    table = {(tuple(l), tuple(m)): e for l, m, e in rows}
    assert table[((), ())].coefficients == {P(): ONE}
    assert table[((1,), (1,))].coefficients == {P([2]): ONE, P([1, 1]): ONE}


def test_table_standard_homogeneity_weight_two():
    rows = multiplication_table(2, 5, STD0)
    for lam, mu, exp in rows:
        for nu, c in exp.items():
            excess = lam.weight + mu.weight - nu.weight
            assert len(c.terms) == 1
            scalar = next(iter(c.terms.values()))
            assert c == const(scalar) * u**excess


def test_table_rank_guard():
    with pytest.raises(RankTooSmallError):
        multiplication_table(2, 4, SYM)


def test_table_json_round_trip():
    rows = multiplication_table(1, 3, STD0)
    obj = table_to_json_obj(rows, 3, STD0)
    blob = dumps_canonical(obj)
    assert dumps_canonical(json.loads(blob)) == blob
    assert json.loads(blob)["n"] == 3


def test_table_text_and_latex_render():
    rows = multiplication_table(1, 3, STD0)
    text = table_to_text(rows)
    assert "[1] * [1] -> [1]: u | [2]: 1 | [1,1]: 1" in text
    latex = table_to_latex(rows)
    assert "s^{*}_{(1)} \\cdot s^{*}_{(1)}" in latex
    assert "u \\, s^{*}_{(1)}" in latex


def test_table_molev_method_matches_expand():
    rows_e = multiplication_table(2, 5, STD0, method="expand")
    rows_m = multiplication_table(2, 5, STD0, method="molev")
    assert len(rows_e) == len(rows_m)
    for (l1, m1, e1), (l2, m2, e2) in zip(rows_e, rows_m):
        assert (l1, m1) == (l2, m2)
        assert e1.coefficients == e2.coefficients


def test_molev_method_requires_standard():
    with pytest.raises(DomainError):
        compute_expansion(P([1]), P([1]), 3, ZSPEC, method="molev")


def test_table_jobs_parallel_identical():
    seq = multiplication_table(1, 3, STD0, jobs=1)
    par = multiplication_table(1, 3, STD0, jobs=2)
    assert [(l, m, e.coefficients) for l, m, e in seq] == [
        (l, m, e.coefficients) for l, m, e in par
    ]


def test_table_jobs_capped_at_cpu_count(monkeypatch):
    import shiftedschur.structconst as sc

    requested = []

    class RecordingPool:
        # Records the worker count and maps in-process, so nothing is spawned.
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(sc, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(sc.os, "cpu_count", lambda: 2)
    seq = multiplication_table(1, 3, STD0, jobs=1)
    assert multiplication_table(1, 3, STD0, jobs=64) == seq
    assert requested == [2]
    monkeypatch.setattr(sc.os, "cpu_count", lambda: 1)
    assert multiplication_table(1, 3, STD0, jobs=64) == seq
    assert requested == [2]


def test_table_jobs_heaviest_pairs_first(monkeypatch):
    import shiftedschur.structconst as sc

    dispatched = []

    class RecordingPool:
        # Records the dispatch order and chunk size and maps in-process.
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            tasks = list(tasks)
            dispatched.append(([t[0].weight + t[1].weight for t in tasks], chunksize))
            return map(fn, tasks)

    monkeypatch.setattr(sc, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(sc.os, "cpu_count", lambda: 2)
    seq = multiplication_table(2, 5, STD0, jobs=1)
    assert multiplication_table(2, 5, STD0, jobs=2) == seq
    [(weights, chunksize)] = dispatched
    assert weights == sorted(weights, reverse=True) and weights[0] == 4
    assert chunksize == 1
