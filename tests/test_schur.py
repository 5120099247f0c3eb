import itertools
from fractions import Fraction
from math import prod

import pytest
from oracles import excited_restriction, oo_shifted_schur_value

from shiftedschur import (
    ONE,
    ZERO,
    DomainError,
    IntSeqWindow,
    Partition,
    Poly,
    RankTooSmallError,
    SkewShape,
    UnresolvableIndexError,
    YSpec,
    alternant_denominator,
    const,
    contains,
    double_h,
    double_schur,
    falling_factorial,
    hook_h,
    partitions_between,
    partitions_up_to,
    restrict_to_fixed_point,
    shifted_double_schur,
    shifted_schur_stable,
    u,
    vandermonde,
    x,
    y,
)
from shiftedschur import schur
from shiftedschur.polyring import FAMILY_X, poly_det, var_family
from shiftedschur.structconst import multiplication_table

P = Partition
SYM = YSpec.symbolic()
ZSPEC = YSpec.zero()


# ---- independent oracles ---------------------------------------------------------


def chain_sum_h(p, n, shift):
    """The chain-sum form of the complete double homogeneous function."""
    if p < 0:
        return ZERO
    total = ZERO
    for chain in itertools.combinations_with_replacement(range(1, n + 1), p):
        term = ONE
        for pos, i in enumerate(chain, start=1):
            term = term * (x(i) - y(i + pos - 1 - shift))
        total = total + term
    return total


# ---- falling factorials ------------------------------------------------------------


def test_falling_factorial_examples():
    assert falling_factorial(1, 0) == ONE
    assert falling_factorial(1, 1) == x(1) - y(1)
    assert falling_factorial(2, 2) == (x(2) - y(1)) * (x(2) - y(2))
    with pytest.raises(DomainError):
        falling_factorial(1, -1)


# ---- double h ----------------------------------------------------------------------


def test_double_h_examples():
    assert double_h(1, 2) == (x(1) - y(1)) + (x(2) - y(2))
    assert double_h(2, 1) == (x(1) - y(1)) * (x(1) - y(2))
    assert double_h(-1, 3) == ZERO
    assert double_h(0, 3) == ONE


def test_double_h_matches_chain_sum():
    for shift in (0, 1, 4, -2):
        for n in (1, 2, 3):
            for p in range(0, 4):
                assert double_h(p, n, shift) == chain_sum_h(p, n, shift)


# ---- double Schur -------------------------------------------------------------------


def test_double_schur_examples():
    assert double_schur(P(), 2) == ONE
    assert double_schur(P([1]), 2) == x(1) + x(2) - y(1) - y(2)
    assert double_schur(P([1]), 2, ZSPEC) == x(1) + x(2)


def test_methods_agree_small():
    for n in (1, 2, 3):
        for lam in partitions_up_to(4, n):
            assert double_schur(lam, n, method="jacobi_trudi") == double_schur(
                lam, n, method="det_ratio"
            )
    for n in (1, 2, 3, 4):
        for lam in partitions_up_to(4, n):
            assert shifted_double_schur(lam, n, method="jacobi_trudi") == shifted_double_schur(
                lam, n, method="det_ratio"
            )


def test_denominator_identity_small():
    for n in (2, 3):
        assert alternant_denominator(n) == vandermonde(n)


def test_rank_validation():
    with pytest.raises(RankTooSmallError):
        double_schur(P([1, 1]), 1)
    with pytest.raises(RankTooSmallError):
        shifted_double_schur(P([2, 1, 1]), 2)
    for lam, delta in ((P([1, 1]), P([1])), (P([1]), P([1, 1]))):
        with pytest.raises(RankTooSmallError, match="got n = 1"):
            restrict_to_fixed_point(lam, delta, 1)
    with pytest.raises(DomainError, match="needs n >= 1, got 0"):
        double_schur(P(), 0)
    with pytest.raises(DomainError, match="double_h needs n >= 1, got 0"):
        double_h(1, 0)
    with pytest.raises(DomainError, match="unknown method 'bogus'"):
        double_schur(P([1]), 2, method="bogus")


# ---- shifted double Schur -----------------------------------------------------------


def test_shifted_examples():
    assert shifted_double_schur(P(), 3) == ONE
    assert shifted_double_schur(P([1]), 2) == x(1) + x(2)
    assert shifted_double_schur(P([1]), 3) == x(1) + x(2) + x(3)


def test_shifted_is_substituted_double():
    for lam in (P([2]), P([1, 1]), P([2, 1])):
        n = 3
        direct = shifted_double_schur(lam, n)
        via_def = (
            double_schur(lam, n)
            .shift_y(n + 1)
            .substitute({x(i): x(i) + y(-i) for i in range(1, n + 1)})
        )
        assert direct == via_def


def test_stability_small():
    for n in (2, 3):
        for lam in partitions_up_to(4, n):
            bigger = shifted_double_schur(lam, n + 1).substitute({x(n + 1): 0})
            assert bigger == shifted_double_schur(lam, n)


# ---- stable evaluation ---------------------------------------------------------------


def test_stable_eval_examples():
    assert shifted_schur_stable(P([1]), [5], ZSPEC) == const(5)
    assert shifted_schur_stable(P(), [7, 2]) == ONE
    # constant term of the (2,1) function is rank-independent
    at_zero = shifted_schur_stable(P([2, 1]), [])
    n = 5
    manual = shifted_double_schur(P([2, 1]), n).substitute(
        {x(i): 0 for i in range(1, n + 1)}
    )
    assert at_zero == manual


def test_stable_eval_matches_oo_values():
    cases = [
        (P([1]), (3, 1)),
        (P([2]), (2, 2)),
        (P([2, 1]), (3, 1, 1)),
        (P([1, 1]), (2, 2)),
    ]
    for lam, vals in cases:
        n = max(len(vals), len(lam) + 1)
        got = shifted_schur_stable(lam, list(vals), YSpec.affine(1, 0))
        assert got == const(oo_shifted_schur_value(lam, vals, n))


# ---- restriction to fixed points -----------------------------------------------------


def test_restrict_examples():
    assert restrict_to_fixed_point(P(), P([3, 1]), 3) == ONE
    assert restrict_to_fixed_point(P([1]), P([1]), 2, YSpec.standard(0)) == u
    assert restrict_to_fixed_point(P([2]), P([1]), 2) == ZERO
    assert restrict_to_fixed_point(P([2]), P([1]), 2, YSpec.standard(0)) == ZERO


def test_restrict_vanishing_small():
    for lam in partitions_up_to(3, 3):
        for delta in partitions_up_to(3, 3):
            if contains(delta, lam):
                continue
            n = max(len(lam), len(delta), 1) + 1
            assert restrict_to_fixed_point(lam, delta, n) == ZERO


def test_restrict_matches_oo_oracle_small():
    for lam in partitions_up_to(3, 3):
        for delta in partitions_up_to(3, 3):
            n = max(len(lam), len(delta)) + 1
            for d in (0, 2):
                got = restrict_to_fixed_point(lam, delta, n, YSpec.standard(d))
                expected = const(
                    oo_shifted_schur_value(lam, tuple(delta), n)
                ) * u ** lam.weight
                assert got == expected


def test_restrict_diagonal_nonzero_symbolic():
    for delta in partitions_up_to(3, 3):
        n = len(delta) + 1
        assert restrict_to_fixed_point(delta, delta, n) != ZERO


def test_restrict_is_the_excited_diagram_sum():
    # Ikeda-Naruse's formula, an independent route to the restriction, at
    # the smallest rank and three above it; standard:d=2 is y_k -> (k+2)u.
    # A lam not contained in delta has no excited diagram: the value is 0.
    parts = partitions_up_to(5, 5)
    std = YSpec.standard(2)
    for delta in parts:
        for lam in parts:
            terms = excited_restriction(lam, delta)
            assert bool(terms) == contains(delta, lam), (lam, delta)
            symbolic = ZERO
            for mono, c in terms.items():
                symbolic = symbolic + const(c) * prod(map(y, mono), start=ONE)
            value = sum(c * prod(k + 2 for k in mono) for mono, c in terms.items())
            rank = max(len(lam), len(delta))
            for n in (rank, rank + 3):
                assert restrict_to_fixed_point(lam, delta, n) == symbolic, (lam, delta, n)
                got = restrict_to_fixed_point(lam, delta, n, std)
                assert got == const(value) * u ** lam.weight, (lam, delta, n)


def test_restrict_standard_is_naruse_hook_formula():
    # Under standard:d=0 the factor of cell c is its hook length in delta,
    # and the sum over excited diagrams is hook_h(delta) / hook_h(delta/lam)
    # (Naruse), which ties the restriction to Aitken's determinant.
    pairs = [
        (lam, delta)
        for delta in partitions_up_to(8, 8)
        for lam in partitions_between(P(), delta)
    ]
    assert len(pairs) == 862
    for lam, delta in pairs:
        ratio = hook_h(SkewShape(delta)) / hook_h(SkewShape(delta, lam))
        got = restrict_to_fixed_point(lam, delta, len(delta), YSpec.standard(0))
        assert got == const(ratio) * u ** lam.weight, (lam, delta)


def test_restriction_builds_at_the_stable_rank(monkeypatch):
    # Restriction evaluates at rank max(l(lam), l(delta), 1), whatever n is.
    lengths = []
    jacobi_trudi = schur._jacobi_trudi

    def recording(lam, base, labels, shift, spec):
        lengths.append(len(base))
        return jacobi_trudi(lam, base, labels, shift, spec)

    monkeypatch.setattr(schur, "_jacobi_trudi", recording)
    cases = (((1,), (2, 1), 2), ((2, 2), (1,), 2), ((), (), 1), ((1, 1, 1), (3,), 3))
    for lam, delta, rank in cases:
        lengths.clear()
        restrict_to_fixed_point(P(lam), P(delta), 9)
        assert lengths == [rank], (lam, delta)


def test_repeated_restriction_asks_the_spec_for_nothing(monkeypatch):
    # The memo is keyed by the labels of the fixed point, not by its value,
    # so a repeated restriction builds no point.
    calls = []
    value = YSpec.value

    def recording(spec, j):
        calls.append(j)
        return value(spec, j)

    monkeypatch.setattr(YSpec, "value", recording)
    lam, delta, spec = P((3, 1)), P((4, 2, 1)), YSpec.standard(2)
    first = restrict_to_fixed_point(lam, delta, 5, spec)
    calls.clear()
    assert restrict_to_fixed_point(lam, delta, 5, spec) == first
    assert calls == []


def test_jacobi_trudi_memo_is_bounded():
    # The determinant memo has a finite size (the column store beside it
    # holds one point's columns).  A localization table's recurrence memo
    # keeps each restriction it reads, so the table asks for each only once
    # (under standard it reads none: its base case is the hook formula).  The
    # three tall rows whose conjugate pair comes later, such as [2] * [1,1,1],
    # solve that wide pair (compute_expansion's omega rule), which asks for 9
    # more restrictions: 193 misses, against 184 with those rows solved as given.
    assert schur._jacobi_trudi.cache_info().maxsize is not None
    schur._jacobi_trudi.cache_clear()
    multiplication_table(4, 9, YSpec.standard(0), "localize")
    assert schur._jacobi_trudi.cache_info().misses == 0
    multiplication_table(4, 9, YSpec.symbolic(), "localize")
    info = schur._jacobi_trudi.cache_info()
    assert (info.hits, info.misses) == (0, 193)


# The shifted point at rank 5: base 0 and labels -1..-5, sequence shift 6.
SHIFTED_5 = ((0,) * 5, (-1, -2, -3, -4, -5), 6)
# Each row's first partition asks for every column the others read, at a top
# at least theirs: the h side, then the e side (lam_1 < l(lam)).
SHARING = (
    (P([4, 2, 1]), P([3, 3, 1]), P([2, 1])),
    (P([2, 1, 1, 1, 1]), P([2, 2, 1, 1]), P([1, 1, 1])),
)


@pytest.mark.parametrize("spec", (YSpec.standard(1), ZSPEC, SYM), ids=lambda s: s.kind)
@pytest.mark.parametrize("lams", SHARING, ids=("h", "e"))
def test_columns_are_shared_at_one_point_in_either_order(lams, spec, monkeypatch):
    # Larger tops first, the later determinants fill no column; smaller tops
    # first, the stored columns are refilled to the larger top.  Either way
    # each value equals one built from an empty store.
    fills = []
    column = schur._column

    def recording(family, top, s, y_at, point):
        fills.append((family, top, s))
        return column(family, top, s, y_at, point)

    monkeypatch.setattr(schur, "_column", recording)
    for order in (lams, lams[::-1]):
        schur._jacobi_trudi.cache_clear()
        schur._at.cache_clear()
        values = []
        for lam in order:
            fills.clear()
            values.append(schur._jacobi_trudi(lam, *SHIFTED_5, spec))
            if order is lams and lam is not lams[0]:
                assert fills == [], lam
        for lam, value in zip(order, values):
            schur._at.cache_clear()
            assert value == schur._jacobi_trudi.__wrapped__(lam, *SHIFTED_5, spec), (lam, spec)
    schur._at.cache_clear()


def test_column_store_holds_only_the_last_point():
    spec = YSpec.standard(0)
    schur._jacobi_trudi.cache_clear()
    schur._at.cache_clear()
    restrict_to_fixed_point(P([2, 1]), P([3, 1]), 4, spec)
    restrict_to_fixed_point(P([2, 1]), P([2, 2]), 4, spec)
    info = schur._at.cache_info()
    assert (info.maxsize, info.currsize, info.misses) == (1, 1, 2)
    # delta = (2, 2) labels its rank-2 fixed point y_{delta_i - i} = y_1, y_0:
    # its key is the one held, so asking for it again is a hit.
    point, store = schur._at((0, 0), (1, 0), spec)
    assert schur._at.cache_info().hits == info.hits + 1
    assert point == (spec.value(1), spec.value(0))
    assert store
    for (family, s), held in store.items():
        assert held == schur._column(family, len(held) - 1, s, spec.value, point)
    schur._at.cache_clear()


def test_empty_partition_builds_no_point():
    # s*_() = 1 returns before the point: 3,000 x values are not summed and kept.
    xs = [Fraction(i, 7) for i in range(3000)]
    misses = schur._at.cache_info().misses
    assert shifted_schur_stable(Partition(), xs) == ONE
    assert schur._at.cache_info().misses == misses


def test_columns_are_filled_in_place_without_touching_zero_or_each_other():
    # A written cell is its own dict; a step whose factor is 1 gets its neighbour's
    # terms from the product, but no fill writes into ZERO or an earlier column,
    # and a cell never written stays ZERO, so a huge top allocates no cells.
    assert all(c is ZERO for c in schur._column("e", 10**5, 0, y, (x(1), x(2)))[3:])
    # Under y_k = k the factor x_m - y_{m+p-1} is 1 at (m, p) = (1, 2) and (3, 2);
    # under zero it is 1 at every step.
    for spec, point in (
        (YSpec.affine(1, 0), (const(3), x(2), const(5), x(4))),
        (ZSPEC, (ONE,) * 4),
    ):
        first = schur._column("h", 4, 0, spec.value, point)
        cells = [dict(c._terms) for c in first]
        assert ZERO._terms == {} and ONE._terms == {0: 1}
        schur._column("h", 5, 0, spec.value, point)
        schur._column("e", 4, 0, spec.value, point)
        assert [c._terms for c in first] == cells
        assert ZERO._terms == {} and ONE._terms == {0: 1}
        at = dict(zip(schur._xs(4), point))
        for p, cell in enumerate(first):
            assert cell == double_h(p, 4).substitute(at).specialize_y(spec), (spec.kind, p)


def test_memo_values_match_a_fresh_build_after_a_table(monkeypatch):
    # The peel subtracts c * s*_nu from groups it owns, and a product with 1
    # shares the other factor's terms: neither may reach a memoized value.
    built = {}
    jacobi_trudi = schur._jacobi_trudi

    def recording(*key):
        built[key] = jacobi_trudi(*key)
        return built[key]

    monkeypatch.setattr(schur, "_jacobi_trudi", recording)
    jacobi_trudi.cache_clear()
    multiplication_table(3, 7, YSpec.standard(1), "expand")
    assert len(built) == jacobi_trudi.cache_info().currsize > 0
    for key, value in built.items():
        schur._at.cache_clear()
        assert value._terms == jacobi_trudi.__wrapped__(*key)._terms, key


# ---- evaluation at the point against the symbolic route ------------------------------

SPECS = (
    SYM,
    ZSPEC,
    YSpec.affine(Fraction(2), Fraction(-1, 2)),
    YSpec.standard(3),
    YSpec.circle(IntSeqWindow(lo=0, values=(), tail=(1, 4)), d=1),
    YSpec.torus(-2),
)


def test_point_evaluation_matches_symbolic_route():
    # The shifted function, the fixed-point restriction and the stable
    # evaluation each evaluate the Jacobi-Trudi entries at their point;
    # each must equal the symbolic shifted function substituted and
    # specialized afterwards.
    for n in (3, 4):
        parts = partitions_up_to(3, n)
        values = [Fraction(2 * i - 5, 3) for i in range(1, n + 1)]
        for lam in parts:
            shifted = {x(i): x(i) + y(-i) for i in range(1, n + 1)}
            symbolic = double_schur(lam, n).shift_y(n + 1).substitute(shifted)
            m = max(n, len(lam) + 1)
            at_values = {x(i): values[i - 1] if i <= n else 0 for i in range(1, m + 1)}
            for spec in SPECS:
                assert shifted_double_schur(lam, n, spec) == symbolic.specialize_y(spec)
                stable = symbolic if m == n else shifted_double_schur(lam, m)
                assert shifted_schur_stable(lam, values, spec) == (
                    stable.substitute(at_values).specialize_y(spec)
                )
            for delta in parts:
                at = {x(i): y(delta.part(i) - i) - y(-i) for i in range(1, n + 1)}
                restricted = symbolic.substitute(at)
                for spec in SPECS:
                    got = restrict_to_fixed_point(lam, delta, n, spec)
                    assert got == restricted.specialize_y(spec)


def test_stable_evaluation_rank_is_max_of_m_and_length():
    # shifted_schur_stable evaluates at rank max(m, l(lam), 1); one rank
    # more gives the same value.
    lams = partitions_up_to(5, 5)
    for values in ([], [Fraction(1, 2)], [2, -1], [Fraction(-3, 4), 5, 1]):
        for lam in lams:
            n = max(len(values), len(lam)) + 1
            at = values + [0] * (n - len(values))
            for spec in ROUTE_SPECS:
                larger = schur._shifted_at(lam, spec, at, range(-1, -n - 1, -1))
                assert shifted_schur_stable(lam, values, spec) == larger, (lam, values, spec)


def _x_degree_part(p, d):
    """The terms of p of total degree d in the x variables."""

    def x_degree(mono):
        pairs = zip(mono[::2], mono[1::2])
        return sum(e for code, e in pairs if var_family(code) == FAMILY_X)

    return Poly({m: c for m, c in p.terms.items() if x_degree(m) == d})


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
def test_top_degree_is_classical_schur(spec):
    # The expansion peel reads coefficients off x^nu because the top
    # x-degree part of every shifted basis element is the classical Schur
    # polynomial s_lam(x), whatever the y-specialization.
    for lam in (P([1]), P([2]), P([2, 1]), P([3, 1]), P([1, 1]), P([2, 1, 1]), P([1, 1, 1])):
        n = 4
        top = _x_degree_part(shifted_double_schur(lam, n, spec), lam.weight)
        assert top == double_schur(lam, n, ZSPEC)


def test_window_without_tail_specializes_the_value():
    # Only y_0 and y_1 have values.  A value in which no other y_j is left
    # is defined even where the Jacobi-Trudi entries need other y_j.
    spec = YSpec.circle(IntSeqWindow(lo=0, values=(1, 2), tail=None), d=0)
    assert shifted_double_schur(P(), 3, spec) == ONE
    assert shifted_double_schur(P([1]), 3, spec) == x(1) + x(2) + x(3)
    assert restrict_to_fixed_point(P([2]), P([1]), 3, spec) == ZERO
    assert shifted_schur_stable(P([2, 1]), [], spec) == ZERO
    with pytest.raises(UnresolvableIndexError):
        shifted_double_schur(P([2]), 3, spec)
    with pytest.raises(UnresolvableIndexError):
        restrict_to_fixed_point(P([1]), P([1]), 3, spec)


def test_window_without_tail_names_the_top_missing_index():
    # The chain over the variables is filled from below, but the missing
    # index reported is the highest one that the value reads.
    spec = YSpec.circle(IntSeqWindow(lo=0, values=(1, 2), tail=None), d=0)
    for lam, n, index in ((P([1]), 4, 4), (P([3]), 3, 5), (P([2, 1]), 4, 5)):
        with pytest.raises(UnresolvableIndexError, match=f"index {index} "):
            double_schur(lam, n, spec)


def test_window_fallback_is_memoized():
    # The window covers the y_k the value reads (-2, -1, 0 and 2) but not
    # every index the y table asks for.  The memo keeps the value found
    # symbolically under the window's own key, so a repeat misses nothing.
    spec = YSpec.circle(IntSeqWindow(lo=-2, values=(1, 2, 3, 4, 5), tail=None), d=0)
    schur._jacobi_trudi.cache_clear()
    misses = []
    for _ in range(3):
        assert restrict_to_fixed_point(P([2, 1]), P([3, 2]), 4, spec) == 24 * u**3
        misses.append(schur._jacobi_trudi.cache_info().misses)
    assert misses[1:] == misses[:1] * 2


# ---- the two Jacobi-Trudi determinants ------------------------------------------------

ROUTE_SPECS = (
    SYM,
    ZSPEC,
    YSpec.standard(1),
    YSpec.affine(Fraction(1, 2), Fraction(-3, 5)),
    YSpec.torus(2),
    YSpec.circle(IntSeqWindow(lo=-2, values=(3, -1, 4), tail=(2, 1)), d=1),
)


def _conjugate(lam):
    return P(sum(1 for q in lam if q >= i) for i in range(1, lam.part(1) + 1))


def _route_det(family, lam, point, shift, spec):
    """det[h_{lam_i-i+j}(x | tau^{shift+j-1} y)] for family "h",
    det[e_{lam'_i-i+j}(x | tau^{shift-j+1} y)] for family "e", at the point."""
    step = 1
    if family == "e":
        lam, step = _conjugate(lam), -1
    r = len(lam)
    columns = [
        schur._column(family, lam.part(1) + j - 1, shift + step * (j - 1), spec.value, point)
        for j in range(1, r + 1)
    ]
    rows = []
    for i in range(1, r + 1):
        ps = [lam.part(i) + j - i for j in range(1, r + 1)]
        rows.append([column[p] if p >= 0 else ZERO for column, p in zip(columns, ps)])
    return poly_det(rows)


def _route_points(lam, n, spec):
    """The plain point, the shifted point and the fixed point labeled by
    lam itself, each with its sequence shift."""
    return (
        (schur._xs(n), 0),
        (tuple(x(i) + spec.value(-i) for i in range(1, n + 1)), n + 1),
        (tuple(spec.value(lam.part(i) - i) for i in range(1, n + 1)), n + 1),
    )


def test_e_and_h_determinants_agree():
    # At each point the dual determinant over e equals the one over h, and
    # the Jacobi-Trudi value equals both, whichever side it builds.  The
    # torus rule only renames y_j to u_{j+2}, so its h side is the symbolic
    # one renamed rather than the slowest case computed a second time.
    for lam in partitions_up_to(6, 6):
        for n in range(max(len(lam), 1), len(lam) + 3):
            symbolic = [_route_det("h", lam, *at, SYM) for at in _route_points(lam, n, SYM)]
            for spec in ROUTE_SPECS:
                for h_sym, (point, shift) in zip(symbolic, _route_points(lam, n, spec)):
                    if spec.kind in ("symbolic", "torus"):
                        h = h_sym.specialize_y(spec)
                    else:
                        h = _route_det("h", lam, point, shift, spec)
                    case = (lam, n, shift, spec.kind)
                    assert _route_det("e", lam, point, shift, spec) == h, case
                    # Uncached, so that the values do not stay in the memo.
                    assert schur._jacobi_trudi.__wrapped__(lam, point, (), shift, spec) == h, case


def test_tall_partition_builds_the_smaller_determinant(monkeypatch):
    sizes = []

    def recording_det(rows):
        sizes.append(len(rows))
        return poly_det(rows)

    monkeypatch.setattr(schur, "poly_det", recording_det)
    schur._jacobi_trudi.cache_clear()
    for lam in (P([1] * 6), P([6]), P([2, 2, 2]), P([3, 2, 1]), P([2, 1, 1, 1])):
        sizes.clear()
        double_schur(lam, 7, YSpec.standard(1))
        assert sizes == [min(lam.part(1), len(lam))], lam


def test_tall_partition_in_window_without_tail():
    # Both determinants read y_k up to n + lam_1 - 1, so a window lacking
    # the top index reports it as the h side did.  The e side reads no y_k
    # below y_1: where only those are missing, the value is defined and
    # equals that of the determinant ratio.
    short = YSpec.circle(IntSeqWindow(lo=1, values=(1, 2), tail=None), d=0)
    with pytest.raises(UnresolvableIndexError, match="index 4 outside window"):
        double_schur(P([2, 1, 1]), 3, short)
    from_one = YSpec.circle(IntSeqWindow(lo=1, values=tuple(range(1, 8)), tail=None), d=0)
    expected = double_schur(P([2, 1, 1]), 3, from_one, method="det_ratio")
    assert double_schur(P([2, 1, 1]), 3, from_one) == expected
