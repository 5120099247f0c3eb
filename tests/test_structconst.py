import json
import pickle
import re
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from oracles import brute_force_lr

from shiftedschur import (
    ONE,
    AsymmetricInputError,
    DomainError,
    IntSeqWindow,
    Partition,
    RankTooSmallError,
    SchurExpansion,
    UnresolvableIndexError,
    YSpec,
    canonical_key,
    const,
    contains,
    expand_in_shifted_basis,
    molev_coefficient,
    multiplication_table,
    multiply_schubert,
    partitions_up_to,
    restrict_to_fixed_point,
    shifted_double_schur,
    structure_constants_via_localization,
    u,
    x,
    y,
)
from shiftedschur.polyring import dumps_canonical
from shiftedschur.structconst import (
    compute_expansion,
    expansion_to_latex,
    expansion_to_text,
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


_ASYMMETRIC = (
    "leading x-monomial is not a partition; input is not symmetric in the shifted variables"
)


def test_expand_detects_asymmetry():
    with pytest.raises(AsymmetricInputError, match=f"^{_ASYMMETRIC}$"):
        expand_in_shifted_basis(x(1), 2, ZSPEC)
    with pytest.raises(AsymmetricInputError, match=f"^{_ASYMMETRIC}$"):
        expand_in_shifted_basis(x(1) * x(2) ** 2, 2, ZSPEC)


def test_expand_rank_too_small():
    with pytest.raises(
        RankTooSmallError, match="^expansion needs a partition of length 3 but rank is 2$"
    ):
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
    for nu in exp.coefficients:
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
    # multiply_schubert expands at rank max(l(lam)+l(mu), 1), below the
    # least rank the stable reading admits; the product built and expanded
    # at a larger rank n must give the same coefficients, and the expansion
    # keeps the caller's n.
    for lam, mu in RANK_PAIRS:
        n = len(lam) + len(mu) + 3
        exp = multiply_schubert(lam, mu, n, spec)
        product = shifted_double_schur(lam, n, spec) * shifted_double_schur(mu, n, spec)
        assert exp == expand_in_shifted_basis(product, n, spec)
        assert exp.n == n
        assert exp == multiply_schubert(mu, lam, n, spec)


def test_multiply_build_rank(monkeypatch):
    # Through compute_expansion, under the stable reading with STD0, the pair
    # or its conjugate is built, whichever has the lower rank; multiply_schubert
    # called directly builds the pair as given, at l(lam)+l(mu).  A finite-rank
    # product, and a circle or torus one, is built at l(lam)+l(mu), or at n when
    # that is lower.
    import shiftedschur.structconst as sc

    ranks = []

    def recording(lam, n, yspec=SYM):
        ranks.append(n)
        return shifted_double_schur(lam, n, yspec)

    monkeypatch.setattr(sc, "shifted_double_schur", recording)
    circle, torus = SPECS[4], SPECS[5]
    for lam, mu in RANK_PAIRS:
        length, width = len(lam) + len(mu), lam.part(1) + mu.part(1)
        finite = (max(len(lam), len(mu)) + 1, length + 3)
        for run, spec, stable, n, built in (
            (compute_expansion, STD0, True, length + 2, min(length, width)),
            (multiply_schubert, STD0, True, length + 2, length),
            *((compute_expansion, STD0, False, m, min(m, length)) for m in finite),
            (compute_expansion, circle, True, length + 2, length),
            (compute_expansion, torus, True, length + 2, length),
        ):
            ranks.clear()
            exp = run(lam, mu, n, spec, stable=stable)
            assert set(ranks) == {max(built, 1)}, (run.__name__, lam, mu, spec.kind, stable)
            assert exp.n == n


# What the conjugate route of compute_expansion relies on, each side expanded
# directly at rank l(lam)+l(mu), for every pair of partitions of weight <= 3.
W3 = partitions_up_to(3, 3)
W3_PAIRS = [(lam, mu) for a, lam in enumerate(W3) for mu in W3[a:]]


@lru_cache(maxsize=None)
def _direct(lam, mu, spec):
    n0 = max(len(lam) + len(mu), 1)
    product = shifted_double_schur(lam, n0, spec) * shifted_double_schur(mu, n0, spec)
    return expand_in_shifted_basis(product, n0, spec).coefficients


def _conjugate_pair_expansion(lam, mu, spec):
    # In W3_PAIRS order: the product commutes, and _direct's cache is shared.
    lam, mu = sorted((lam.conjugate(), mu.conjugate()), key=canonical_key)
    return {nu.conjugate(): c for nu, c in _direct(lam, mu, spec).items()}


def test_omega_maps_symbolic_constants_to_the_conjugate_pair():
    # omega sends y_j to -y_{-1-j}.
    for lam, mu in W3_PAIRS:
        dual = _conjugate_pair_expansion(lam, mu, SYM)
        for nu, c in dual.items():
            dual[nu] = c.substitute({y(j): -y(-1 - j) for j in c.y_indices()})
        assert dual == _direct(lam, mu, SYM), (lam, mu)


@pytest.mark.parametrize(
    "spec",
    [
        ZSPEC,
        YSpec.standard(3),
        YSpec.affine(Fraction(1, 2), Fraction(-3, 5)),
        YSpec.affine(Fraction(-3, 2), Fraction(2, 5)),
    ],
    ids=["zero", "standard:d=3", "affine:a=1/2,b=-3/5", "affine:a=-3/2,b=2/5"],
)
def test_arithmetic_progressions_keep_conjugate_pair_constants(spec):
    for lam, mu in W3_PAIRS:
        assert _conjugate_pair_expansion(lam, mu, spec) == _direct(lam, mu, spec), (lam, mu)


@pytest.mark.parametrize("n", [3, 4])
def test_shifted_schur_does_not_see_a_translation_of_y(n):
    for lam in W3:
        std = shifted_double_schur(lam, n, STD0)
        assert all(shifted_double_schur(lam, n, YSpec.standard(d)) == std for d in (-2, 1, 3))
        for a, b in ((Fraction(1, 2), Fraction(-3, 5)), (Fraction(-3, 2), Fraction(2, 5))):
            affine = shifted_double_schur(lam, n, YSpec.affine(a, b))
            assert affine == shifted_double_schur(lam, n, YSpec.affine(a, 0)), (lam, a, b)


def test_no_product_term_longer_than_l_lam_plus_l_mu():
    # The bound on the rank multiply_schubert builds at, and on the
    # candidates of localization and the hook-function formula.
    parts = partitions_up_to(3, 3)
    for a, lam in enumerate(parts):
        for mu in parts[a:]:
            n = len(lam) + len(mu) + 2
            product = shifted_double_schur(lam, n, SYM) * shifted_double_schur(mu, n, SYM)
            support = expand_in_shifted_basis(product, n, SYM).coefficients
            assert max(map(len, support)) <= len(lam) + len(mu), (lam, mu)


def test_top_degree_coefficients_classical():
    exp = multiply_schubert(P([2, 1]), P([1]), 5, SYM)
    lr = brute_force_lr((2, 1), (1,), 4)
    for nu, c in exp.items():
        if nu.weight == 4:
            assert c == const(lr[nu])
    assert {nu for nu in lr} == {nu for nu in exp.coefficients if nu.weight == 4}


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
    # Every y_j is 5/7 under affine(0, 5/7), so each weight difference
    # y_a - y_b in a restriction to its own fixed point vanishes; the
    # coefficients are then the degree-0 ones of the standard action.
    for spec in (ZSPEC, YSpec.affine(0, Fraction(5, 7))):
        for lam, mu, n in ((P([1]), P([1]), 3), (P([2, 1]), P([1]), 4), (P([2]), P([1, 1]), 5)):
            assert structure_constants_via_localization(lam, mu, n, spec) == multiply_schubert(
                lam, mu, n, spec
            )


def test_all_equal_affine_localizes_at_the_standard_action():
    # Every y_j is 5/7 under affine(0, 5/7), a constant step of 0: the recurrence
    # runs on the rationals of standard:d=0 under the caller's spec, not
    # symbolically, and puts u = 0 into them.
    spec, memo = YSpec.affine(0, Fraction(5, 7)), {}
    exp = structure_constants_via_localization(P([2, 1]), P([1]), 5, spec, memo=memo)
    assert set(memo) == {spec} and memo[spec]
    assert all(type(c) in (int, Fraction) for c in memo[spec].values())
    assert exp == multiply_schubert(P([2, 1]), P([1]), 5, spec)


@pytest.mark.parametrize("spec", [YSpec.affine(1, 0), YSpec.affine(Fraction(1, 2), Fraction(1, 3))])
@pytest.mark.parametrize("lam, mu", [((1,), (1,)), ((2, 1), (1,)), ((2,), (1, 1))])
def test_localization_under_affine_with_nonzero_slope(spec, lam, mu):
    # With a != 0 the y_j are distinct, so no restriction to its own fixed
    # point vanishes and localization agrees with the expansion.
    assert structure_constants_via_localization(P(lam), P(mu), 5, spec) == multiply_schubert(
        P(lam), P(mu), 5, spec
    )


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


# y_j = (j+2)u outside the window [-4, -2], which holds -6, -1, -2: the y_j
# for j in [-7, 6] are distinct, so no difference y_a - y_b of them vanishes,
# but the Pieri form of (1,1) < (2,1,1), (y_1 + y_{-2}) - (y_0 + y_{-3}), does.
PIERI_WINDOW = YSpec.circle(IntSeqWindow(-4, (-6, -1, -2), (1, 2)), 0)


def test_pieri_form_vanishes_with_no_difference_vanishing():
    import shiftedschur.structconst as sc

    values = [PIERI_WINDOW.value(j) for j in range(-7, 7)]
    assert len(set(values)) == len(values)
    lam, mu = P([2]), P([1, 1])
    candidates = sc._candidates(lam, mu, 4)
    assert all(restrict_to_fixed_point(nu, nu, 4, PIERI_WINDOW) for nu in candidates)
    with pytest.raises(UnresolvableIndexError, match=r"form of \(2,\) \* \(1, 1\) vanishes"):
        structure_constants_via_localization(lam, mu, 4, PIERI_WINDOW)
    memo = {}
    exp = compute_expansion(lam, mu, 4, PIERI_WINDOW, "localize", memo=memo)
    assert set(memo) == {PIERI_WINDOW, SYM}  # then solved symbolically and specialized
    assert exp.coefficients == _direct(lam, mu, PIERI_WINDOW)


def test_window_built_from_lists_computes_as_the_tuple_built_one():
    # The memo keys hash the window field by field, so it stores tuples.
    listed = YSpec.circle(IntSeqWindow(-2, [1, 2, 3], [1, 0]), 1)
    spec = YSpec.circle(IntSeqWindow(-2, (1, 2, 3), (1, 0)), 1)
    assert listed == spec and hash(listed) == hash(spec)
    assert listed.window.values == (1, 2, 3) and listed.window.tail == (1, 0)
    assert IntSeqWindow(0, [4, 5]).values == (4, 5)
    assert pickle.loads(pickle.dumps(listed)) == spec
    assert shifted_double_schur((2, 1), 3, listed) == shifted_double_schur((2, 1), 3, spec)
    localized = compute_expansion((1,), (1,), 3, listed, "localize")
    assert localized == compute_expansion((1,), (1,), 3, spec, "localize")
    assert localized.coefficients == _direct(P([1]), P([1]), spec)


PIERI_SPECS = (
    SYM, ZSPEC, YSpec.torus(2), PIERI_WINDOW, *(YSpec.standard(d) for d in range(4)),
    YSpec.affine(Fraction(1, 2), Fraction(1, 3)), YSpec.affine(0, Fraction(5, 7)),
)


def test_pieri_recurrence_matches_the_direct_expansion():
    # The recurrence against the product expanded directly, with neither the
    # conjugate route nor a memo: every weight <= 3 pair at n = l(lam)+l(mu)+1.
    # The window goes through compute_expansion, which solves a pair whose
    # Pieri form vanishes there symbolically; a circle spec takes no omega route.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(st.sampled_from(W3_PAIRS), st.sampled_from(PIERI_SPECS))
    def check(pair, spec):
        lam, mu = pair
        n = len(lam) + len(mu) + 1
        if spec is PIERI_WINDOW:
            exp = compute_expansion(lam, mu, n, spec, "localize")
        else:
            exp = structure_constants_via_localization(lam, mu, n, spec)
        assert exp.coefficients == _direct(lam, mu, spec)

    check()


@pytest.mark.parametrize("spec", [SYM, ZSPEC, YSpec.standard(2), YSpec.affine(Fraction(1, 2), 3)],
                         ids=lambda s: s.kind)
@pytest.mark.parametrize("method", ["expand", "localize"])
def test_table_rows_read_from_the_conjugate_row(spec, method, monkeypatch):
    # 10 of the 28 rows at weight 3 are the conjugates of earlier rows; the
    # table reads them through omega, and each equals the pair computed alone.
    import shiftedschur.structconst as sc

    real, calls = sc.compute_expansion, []
    monkeypatch.setattr(sc, "compute_expansion", lambda *args: calls.append(args) or real(*args))
    rows = multiplication_table(3, 7, spec, method)
    monkeypatch.undo()
    assert (len(rows), len(calls)) == (28, 18)
    for p, q, exp in rows:
        assert exp == compute_expansion(p, q, 7, spec, method), (p, q)


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


def test_dumps_canonical_refuses_an_unprintable_int():
    # The CLI reports this ValueError with its exit-2 line.
    digits = getattr(sys, "get_int_max_str_digits", int)()
    if not digits:
        pytest.skip("no limit on integer string conversion")
    for obj in (10**digits, {"coeff": [-(10**digits)]}):
        with pytest.raises(ValueError):
            dumps_canonical(obj)


def test_table_text_and_latex_render():
    rows = multiplication_table(1, 3, STD0)
    text = table_to_text(rows)
    assert "[1] * [1] -> [1]: u | [2]: 1 | [1,1]: 1" in text
    latex = table_to_latex(rows)
    assert "s^{*}_{(1)} \\cdot s^{*}_{(1)}" in latex
    assert "u \\, s^{*}_{(1)}" in latex


def test_zero_expansion_renders_as_zero():
    empty = SchurExpansion(n=3, yspec=STD0, coefficients={})
    assert expansion_to_text(P([2]), P(), empty) == "[2] * [] -> 0"
    assert expansion_to_latex(P([2]), P(), empty).endswith("\\varnothing} = 0$")
    rows = [(P([1]), P([1]), empty)]
    assert table_to_text(rows) == "[1] * [1] -> 0\n"
    assert table_to_latex(rows) == "$s^{*}_{(1)} \\cdot s^{*}_{(1)} = 0$\n"
    assert table_to_json_obj(rows, 3, STD0)["rows"] == [{"lambda": [1], "mu": [1], "terms": []}]


def test_table_molev_method_matches_expand(monkeypatch):
    # Under zero and affine, molev grades its rationals by the constant step 0 or a.
    # Under zero it sums only for the nu of top weight: 13 sums, not 19.
    import shiftedschur.structconst as sc

    real, calls = sc.molev_coefficient, []
    monkeypatch.setattr(sc, "molev_coefficient", lambda *args: calls.append(args) or real(*args))
    for spec in (STD0, ZSPEC, YSpec.affine(Fraction(2, 3), Fraction(-1, 4))):
        rows_e = multiplication_table(2, 5, spec, method="expand")
        calls.clear()
        rows_m = multiplication_table(2, 5, spec, method="molev")
        assert spec != ZSPEC or len(calls) == 13
        assert len(rows_e) == len(rows_m)
        for (l1, m1, e1), (l2, m2, e2) in zip(rows_e, rows_m):
            assert (l1, m1) == (l2, m2)
            assert e1.coefficients == e2.coefficients


def test_molev_method_requires_standard():
    with pytest.raises(DomainError):
        compute_expansion(P([1]), P([1]), 3, SYM, method="molev")
    with pytest.raises(DomainError, match="unknown method 'bogus'"):
        compute_expansion(P([1]), P([1]), 3, SYM, method="bogus")


@pytest.mark.parametrize("method", ["expand", "localize", "molev"])
def test_every_method_applies_the_rank_guard(method):
    # Under the stable reading n must exceed l(lam)+l(mu); at n = 2 the
    # hook-function sum used to drop [1,1] from [1] * [1] silently.
    with pytest.raises(RankTooSmallError, match="uses the stable reading"):
        compute_expansion(P([1]), P([1]), 2, STD0, method)
    # The guard is on the pair as given, not on its conjugate [3] * [2],
    # which the stable reading admits at n = 5.
    with pytest.raises(RankTooSmallError, match="need n > l\\(lam\\)\\+l\\(mu\\) = 5, got n = 5"):
        compute_expansion(P([1, 1, 1]), P([1, 1]), 5, STD0, method)
    with pytest.raises(RankTooSmallError, match="need n >= max length"):
        compute_expansion(P([1, 1]), P([1]), 1, STD0, method, stable=False)
    # The finite-rank reading admits any n >= max length, and the engines agree.
    for n in (1, 2):
        got = compute_expansion(P([1]), P([1]), n, STD0, method, stable=False)
        want = compute_expansion(P([1]), P([1]), n, STD0, "expand", stable=False)
        assert got.coefficients == want.coefficients


@pytest.mark.parametrize("method", ["expand", "localize", "molev"])
def test_a_tall_pair_reaches_the_engine_as_its_conjugate(method, monkeypatch):
    # Under the stable reading with a spec omega acts on, compute_expansion
    # hands [1,1,1] * [1,1] to the engine as [3] * [2], in one call of its own,
    # and reads the answer back through omega; a torus pair and a finite-rank
    # pair reach the engine as given.  Each equals the pair expanded as given.
    import shiftedschur.structconst as sc

    engine, real, pairs, calls = sc._ENGINES[method], sc.compute_expansion, [], []

    def recording(lam, mu, *args, **kwargs):
        pairs.append((lam, mu))
        return engine(lam, mu, *args, **kwargs)

    monkeypatch.setitem(sc._ENGINES, method, recording)
    monkeypatch.setattr(sc, "compute_expansion", lambda *args: calls.append(args) or real(*args))
    lam, mu, n = P([1, 1, 1]), P([1, 1]), 6
    specs = [ZSPEC, STD0, YSpec.affine(Fraction(1, 2), 3)]
    cases = [(spec, True, (P([3]), P([2]))) for spec in specs] + [(STD0, False, (lam, mu))]
    if method != "molev":
        cases += [(SYM, True, (P([3]), P([2]))), (YSpec.torus(-2), True, (lam, mu))]
    for spec, stable, built in cases:
        pairs.clear()
        calls.clear()
        exp = sc.compute_expansion(lam, mu, n, spec, method, stable)
        assert (pairs, len(calls)) == ([built], 1), (spec.kind, stable)
        assert exp == multiply_schubert(lam, mu, n, spec, stable), (spec.kind, stable)


def test_readme_quick_tour_runs():
    # The README's "Library quick tour" block, run as written, and the
    # coefficients its comment gives.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    tour = readme[readme.index("## Library quick tour"):]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    namespace: dict = {}
    exec(block, namespace)
    assert "exp.coefficients == {(2): 1, (1,1): 1, (1): u}" in block
    assert namespace["exp"].coefficients == {(2,): 1, (1, 1): 1, (1,): u}
