"""The packed-monomial core against SymPy, and at its edges.

SymPy is the independent arithmetic oracle: every random polynomial is
built twice, once as a Poly and once as a SymPy expression, over variables
of all four families (negative y indices included) with Fraction
coefficients.  The edge tests cover the exponent limit of a packed field
and pickles sent between processes whose slot registries differ.
"""

import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from shiftedschur import DomainError, InexactDivisionError, Poly, canonical_string, u, useq, x, y  # noqa: E402
from shiftedschur.polyring import (  # noqa: E402
    FAMILY_U,
    FAMILY_USEQ,
    FAMILY_X,
    FAMILY_Y,
    MAX_EXPONENT,
    ONE,
    ZERO,
    YSpec,
    divide_exact,
    divide_linear,
    leading_term,
    poly_det,
    var_code,
    var_family,
    var_index,
)

Y_INDICES = (-3, -1, 0, 2)
# (Poly, SymPy symbol) for each variable the random polynomials use.
VARIABLES = (
    [(x(i), sympy.Symbol(f"x{i}")) for i in (1, 2, 3)]
    + [(y(j), sympy.Symbol(f"y_{j}")) for j in Y_INDICES]
    + [(useq(j), sympy.Symbol(f"w_{j}")) for j in (-2, 1)]
    + [(u, sympy.Symbol("u"))]
)
GENS = [sym for _, sym in VARIABLES]

coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=4)
monomials = st.lists(
    st.tuples(st.integers(0, len(VARIABLES) - 1), st.integers(1, 3)), max_size=3
)
term_lists = st.lists(st.tuples(coefficients, monomials), min_size=1, max_size=5)


def build(terms) -> tuple[Poly, sympy.Expr]:
    p, e = ZERO, sympy.Integer(0)
    for c, mono in terms:
        tp, te = Poly.constant(c), sympy.Rational(c.numerator, c.denominator)
        for k, exp in mono:
            tp = tp * VARIABLES[k][0] ** exp
            te = te * VARIABLES[k][1] ** exp
        p, e = p + tp, e + te
    return p, sympy.expand(e)


def symbol(code: int) -> sympy.Symbol:
    """The SymPy symbol of a variable code, spelled as in VARIABLES."""
    spelling = {FAMILY_U: "u", FAMILY_USEQ: "w_{}", FAMILY_Y: "y_{}", FAMILY_X: "x{}"}
    return sympy.Symbol(spelling[var_family(code)].format(var_index(code)))


def to_sympy(p: Poly) -> sympy.Expr:
    """The SymPy form of p, read through the flat-tuple boundary."""
    total = sympy.Integer(0)
    for mono, c in p.terms.items():
        term = sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
        for i in range(0, len(mono), 2):
            term *= symbol(mono[i]) ** mono[i + 1]
        total += term
    return sympy.expand(total)


def same(p: Poly, e: sympy.Expr) -> bool:
    return sympy.expand(to_sympy(p) - e) == 0


polys = term_lists.map(build)
oracle = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@oracle
@given(polys, polys)
def test_add_and_mul_match_sympy(a, b):
    (p, pe), (q, qe) = a, b
    assert same(p + q, pe + qe)
    assert same(p - q, pe - qe)
    assert same(p * q, pe * qe)


# Coprime denominators, so that a product's scale is a large lcm and its
# terms reduce differently; 5/77 cancels against 1/7 * 1/11 sums.
coprime_coefficients = st.sampled_from(
    [Fraction(1, 7), Fraction(-1, 11), Fraction(3, 13), Fraction(-5, 77), Fraction(2)]
)
coprime_polys = st.lists(st.tuples(coprime_coefficients, monomials), min_size=1, max_size=5).map(
    build
)


def ints_where_integral(p: Poly) -> bool:
    return all(c.__class__ is int for c in p.terms.values() if Fraction(c).denominator == 1)


@oracle
@given(coprime_polys, coprime_polys)
def test_mul_with_coprime_denominators_matches_sympy(a, b):
    (p, pe), (q, qe) = a, b
    product = p * q
    assert same(product, pe * qe)
    assert ints_where_integral(product)
    assert ints_where_integral(p * 77) and ints_where_integral(p * Fraction(1001, 3))


def test_mul_stores_int_where_integral():
    x1 = var_code(FAMILY_X, 1)
    product = (x(1) * Fraction(1, 2) + Fraction(1, 3)) * (2 * x(1) + 3)
    assert product.terms == {(x1, 2): 1, (x1, 1): Fraction(13, 6), (): 1}
    assert ints_where_integral(product)
    # The x1 terms 1/77 - 1/77 cancel to zero across the two scales.
    a = x(1) * Fraction(1, 7) + Fraction(1, 11)
    b = x(1) * Fraction(1, 7) - Fraction(1, 11)
    assert (a * b).terms == {(x1, 2): Fraction(1, 49), (): Fraction(-1, 121)}
    assert ((a * 7) * (b * 77)).terms == {(x1, 2): 11, (): Fraction(-49, 11)}


@oracle
@given(polys, st.integers(0, 4))
def test_pow_matches_sympy(a, k):
    p, pe = a
    assert same(p**k, pe**k)


@oracle
@given(polys, polys)
def test_divide_exact_matches_sympy(a, b):
    (p, pe), (q, qe) = a, b
    if not q:
        return
    assert divide_exact(p * q, q) == p
    # q divides p exactly when the remainder of division by {q} vanishes.
    divisible = sympy.rem(pe, qe, *GENS, domain="QQ") == 0
    try:
        quotient = divide_exact(p, q)
    except InexactDivisionError:
        assert not divisible
    else:
        assert divisible and same(quotient * q, pe)


@oracle
@given(polys, st.sampled_from([(1, 2), (2, 1), (1, 3), (3, 2)]))
def test_divide_linear_matches_sympy(a, pair):
    p, pe = a
    i, j = pair
    product = p * (x(i) - x(j))
    assert divide_linear(product, i, j) == p
    assert same(product, sympy.expand(pe * (GENS[i - 1] - GENS[j - 1])))


@oracle
@given(st.integers(1, 3).flatmap(lambda n: st.lists(polys, min_size=n * n, max_size=n * n)))
def test_poly_det_matches_sympy(entries):
    n = int(len(entries) ** 0.5)
    rows = [[entries[r * n + c][0] for c in range(n)] for r in range(n)]
    matrix = sympy.Matrix(n, n, [e for _, e in entries])
    assert same(poly_det(rows), matrix.det(method="berkowitz"))


@oracle
@given(polys)
def test_degrees_match_sympy(a):
    p, pe = a
    if not p:
        assert p.degree() == p.x_degree() == -1
        return
    assert p.degree() == sympy.Poly(pe, *GENS).total_degree()
    assert p.x_degree() == sympy.Poly(pe, *GENS[:3]).total_degree()


# A substituted value: zero, a rational constant, a scaled monomial or a sum.
values = st.one_of(
    st.just((ZERO, sympy.Integer(0))),
    coefficients.map(lambda c: build([(c, [])])),
    st.tuples(coefficients, monomials).map(lambda t: build([t])),
    st.lists(st.tuples(coefficients, monomials), min_size=2, max_size=3).map(build),
)
assignments = st.dictionaries(st.integers(0, len(VARIABLES) - 1), values, max_size=4)


@oracle
@given(polys, assignments)
def test_substitute_matches_sympy(a, assignment):
    p, pe = a
    got = p.substitute({VARIABLES[k][0]: v for k, (v, _) in assignment.items()})
    want = pe.subs({VARIABLES[k][1]: ve for k, (_, ve) in assignment.items()}, simultaneous=True)
    assert same(got, sympy.expand(want))


@oracle
@given(polys, st.integers(-3, 3))
def test_shift_y_matches_sympy(a, k):
    p, pe = a
    shifted = {sympy.Symbol(f"y_{j}"): sympy.Symbol(f"y_{j - k}") for j in Y_INDICES}
    assert same(p.shift_y(k), pe.subs(shifted, simultaneous=True))


@oracle
@given(polys)
def test_json_and_terms_round_trip(a):
    p, _ = a
    assert Poly.from_json_obj(p.to_json_obj()) == p
    assert Poly(p.terms) == p
    assert canonical_string(Poly.from_json_obj(p.to_json_obj())) == canonical_string(p)
    if p:
        mono, c = leading_term(p)
        assert p.terms[mono] == c


# ---- the exponent limit of a packed field ----------------------------------------


def test_largest_exponent_is_exact():
    top = x(1) ** MAX_EXPONENT
    assert (top * x(2) ** MAX_EXPONENT * y(0)).degree() == 2 * MAX_EXPONENT + 1
    assert top.terms == {(var_code(FAMILY_X, 1), MAX_EXPONENT): 1}
    # Filling one field leaves its neighbours alone.
    assert (top * x(2)).terms == {
        (var_code(FAMILY_X, 1), MAX_EXPONENT, var_code(FAMILY_X, 2), 1): 1
    }
    assert divide_exact(top * x(2), x(2)) == top


@pytest.mark.parametrize(
    "make",
    [
        lambda: x(1) ** (MAX_EXPONENT + 1),
        lambda: (x(1) ** MAX_EXPONENT) * (x(1) + x(2)),
        lambda: (x(2) * x(1) ** (MAX_EXPONENT // 2 + 1)) ** 2,
        lambda: (y(1) ** MAX_EXPONENT).substitute({y(1): u * useq(0)}) * u,
        # 3 * 30000 carries past the guard bit into the next field.
        lambda: (y(1) ** 30000).substitute({y(1): u**3}),
        lambda: (y(1) ** 20000 * y(2) ** 20000).specialize_y(YSpec.standard(0)),
        # Folding a one-term value into a monomial that already holds its
        # variable: 20000 + 20000 sets the guard bit.
        lambda: (x(1) ** 20000 * y(1) ** 20000).substitute({y(1): x(1)}),
        lambda: Poly({(var_code(FAMILY_USEQ, 0), MAX_EXPONENT + 1): 1}),
        lambda: Poly({(var_code(FAMILY_USEQ, 0), 20000, var_code(FAMILY_USEQ, 0), 20000): 1}),
    ],
)
def test_exponent_past_the_field_raises(make):
    with pytest.raises(DomainError, match="exceeds the largest supported exponent"):
        make()


# ---- pickles between processes with different slot registries -----------------

# Variables no other test uses, so that their slots are assigned here.
FRESH = [(FAMILY_X, 901), (FAMILY_USEQ, -902), (FAMILY_X, 903)]


def _fresh(family, index):
    return {FAMILY_X: x, FAMILY_USEQ: useq}[family](index)


def _build_in_worker():
    # Register the fresh variables in the reverse of the parent's order.
    for family, index in reversed(FRESH):
        _fresh(family, index)
    a, b, c = (_fresh(*v) for v in FRESH)
    return (a**3 * b - Fraction(2, 3) * c) * (b + y(-904))


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork-started workers"
)
def test_pickle_survives_diverged_registries():
    ctx = multiprocessing.get_context("fork")  # as the --jobs pool starts its workers
    with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
        future = pool.submit(_build_in_worker)
        for family, index in FRESH:
            _fresh(family, index)
        a, b, c = (_fresh(*v) for v in FRESH)
        mine = (a**3 * b - Fraction(2, 3) * c) * (b + y(-904))
        theirs = future.result(timeout=60)
    assert theirs == mine
    assert canonical_string(theirs) == canonical_string(mine)
    assert pickle.loads(pickle.dumps(mine)) == mine
    assert ONE == pickle.loads(pickle.dumps(ONE))
