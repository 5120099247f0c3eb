import random
from fractions import Fraction
from math import prod

import pytest

from shiftedschur import (
    ONE,
    ZERO,
    DomainError,
    Partition,
    Poly,
    PowerPolynomial,
    TensorElement,
    YSpec,
    coproduct_power_polynomial,
    power_sum_torus,
    relabel_even_odd,
    rho_pullback_power_sum,
    shifted_double_schur,
    shifted_power_sum,
    useq,
    verify_primitivity,
    x,
    y,
)

PP = PowerPolynomial


# ---- power sums -------------------------------------------------------------------


def test_shifted_power_sum_examples():
    assert shifted_power_sum(1, 3) == x(1) + x(2) + x(3)
    assert shifted_power_sum(2, 1) == x(1) ** 2 + 2 * x(1) * y(-1)
    assert shifted_power_sum(2, 2, YSpec.zero()) == x(1) ** 2 + x(2) ** 2
    with pytest.raises(DomainError):
        shifted_power_sum(0, 2)


def test_power_sum_vanishes_at_zero_x():
    p = shifted_power_sum(3, 2)
    assert p.substitute({x(1): 0, x(2): 0}) == ZERO


def test_shifted_power_sum_is_degree_one_schur():
    for n in range(1, 7):
        assert shifted_power_sum(1, n) == shifted_double_schur(Partition([1]), n)


def test_power_sum_torus():
    assert power_sum_torus(1, 2) == x(1) + x(2) - useq(-1) - useq(-2)
    assert power_sum_torus(2, 1) == x(1) ** 2 - useq(-1) ** 2
    for make, k, rank, message in (
        (power_sum_torus, 0, 2, "power sum index must be >= 1, got 0"),
        (power_sum_torus, 1, 0, "need l >= 1, got 0"),
        (rho_pullback_power_sum, 0, 2, "power sum index must be >= 1, got 0"),
        (rho_pullback_power_sum, 1, 1, "need l >= 2, got 1"),
        (shifted_power_sum, 1, 0, "need n >= 1, got 0"),
    ):
        with pytest.raises(DomainError, match=message):
            make(k, rank)


# ---- pullback and relabeling -------------------------------------------------------


def test_rho_pullback_examples():
    even, odd = rho_pullback_power_sum(1, 2)
    assert even == x(2) - useq(-2)
    assert odd == x(1) - useq(-1)
    even, odd = rho_pullback_power_sum(1, 4)
    assert even == (x(2) - useq(-2)) + (x(4) - useq(-4))
    assert odd == (x(1) - useq(-1)) + (x(3) - useq(-3))


def test_rho_pullback_sums_to_full_power_sum():
    for k in (1, 2, 3):
        for l in range(2, 7):
            even, odd = rho_pullback_power_sum(k, l)
            assert even + odd == power_sum_torus(k, l)


def test_relabel_examples():
    t = relabel_even_odd(x(2), ZERO)
    assert t == TensorElement([(x(1), ONE)])
    t = relabel_even_odd(ZERO, x(1))
    assert t == TensorElement([(ONE, x(1))])
    t = relabel_even_odd(x(2) - useq(-2), x(1) - useq(-1))
    expected = TensorElement(
        [(x(1) - useq(-1), ONE), (ONE, x(1) - useq(-1))]
    )
    assert t == expected


def test_relabel_parity_violation():
    with pytest.raises(DomainError):
        relabel_even_odd(x(3), ZERO)
    with pytest.raises(DomainError):
        relabel_even_odd(ZERO, useq(-2))
    with pytest.raises(DomainError):
        relabel_even_odd(y(2), ZERO)


def test_relabel_index_maps():
    # even: x_{2k} -> x_k, u_{2k} -> u_k; odd: x_{2k+1} -> x_{k+1}, u_{2k+1} -> u_k
    t = relabel_even_odd(x(6) * useq(-4), ZERO)
    assert t == TensorElement([(x(3) * useq(-2), ONE)])
    t = relabel_even_odd(ZERO, x(5) * useq(3))
    assert t == TensorElement([(ONE, x(3) * useq(1))])


# ---- tensor elements -----------------------------------------------------------


def test_tensor_normal_form():
    t = TensorElement([(x(1), ONE), (x(1), ONE, 2)])
    assert t.summands == [(x(1), ONE, 3)]
    t = TensorElement([(x(1), ONE), (x(1), ONE, -1)])
    assert t.summands == []
    assert t == TensorElement()
    assert str(t) == "0"


def test_tensor_equality_is_bilinear():
    a = TensorElement([(x(1) + x(2), x(1))])
    b = TensorElement([(x(1), x(1)), (x(2), x(1))])
    assert a == b
    c = TensorElement([(2 * x(1), x(1))])
    d = TensorElement([(x(1), 2 * x(1))])
    assert c == d
    # x2 (x) x1 cancels in the expansion, though no summand does.
    assert TensorElement([(x(1) + x(2), x(1)), (x(2), -x(1))]) == TensorElement([(x(1), x(1))])


def test_tensor_tables_agree_with_an_expanded_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    palette = [x(1), x(2), y(-1), y(0), y(2), useq(-1), useq(1)]
    # The oracle moves the right factor onto indices no factor uses, so that
    # sum w * left * moved(right) is an ordinary polynomial.
    moved = {x(1): x(101), x(2): x(102), y(-1): y(99), y(0): y(100), y(2): y(102),
             useq(-1): useq(99), useq(1): useq(101)}
    factors = st.lists(
        st.tuples(st.integers(-2, 2), st.lists(st.sampled_from(palette), max_size=2)),
        min_size=1, max_size=3,
    ).map(lambda terms: sum((c * prod(vs, start=ONE) for c, vs in terms), ZERO))
    weights = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4)
    summands = st.lists(st.tuples(factors, factors, weights), max_size=4)

    def oracle(entries):
        return sum((w * l * r.substitute(moved) for l, r, w in entries), ZERO)

    def regrouped(entries):
        # The same element: each left factor split into its terms (the right
        # factor and the weight negated), then a pair that cancels in the
        # table and a pair that cancels only when expanded.
        out = []
        for l, r, w in entries:
            out += [(Poly(dict([term])), -r, -w) for term in l.terms.items()]
            out += [(l, r, w), (l, r, -w), (l, 2 * r, Fraction(w, 2)), (-l, r, w)]
        return out[::-1]

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(summands, summands, summands)
    def check(a, b, extra):
        ta, tb = TensorElement(a), TensorElement(b)
        same = TensorElement(regrouped(a))
        assert same == ta
        for other in (b, regrouped(a) + extra):
            assert (TensorElement(other) == ta) == (oracle(other) == oracle(a))
        assert (ta + tb).summands == TensorElement(a + b).summands
        assert ta + tb == TensorElement(a + b)
        for t in (ta, tb, same, ta + tb, TensorElement(a + b)):
            assert all(l and r and w for l, r, w in t.summands)
            assert all(t._expanded().values())

    check()


def test_tensor_product():
    a = TensorElement([(x(1), ONE), (ONE, x(1))])
    square = a * a
    expected = TensorElement(
        [(x(1) ** 2, ONE), (x(1), x(1), 2), (ONE, x(1) ** 2)]
    )
    assert square == expected


# ---- abstract power polynomials --------------------------------------------------


def test_power_polynomial_parse():
    p = PP.parse("p1^2*p3 - 1/2*p2 + 3")
    q = PP({(1, 1): 1}) ** 2 * PP({(3, 1): 1}) - PP.constant(Fraction(1, 2)) * PP({(2, 1): 1}) + 3
    assert p == q
    assert PP.parse("-p1") == -PP({(1, 1): 1})
    with pytest.raises(DomainError):
        PP.parse("")
    with pytest.raises(DomainError):
        PP.parse("p1^")
    with pytest.raises(DomainError):
        PP.parse("q2")


def test_power_polynomial_parse_inverts_str():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    monomials = st.dictionaries(st.integers(1, 6), st.integers(1, 5), max_size=3).map(
        lambda mono: tuple(v for k in sorted(mono) for v in (k, mono[k]))
    )
    coefficients = st.fractions(min_value=-50, max_value=50, max_denominator=12)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.dictionaries(monomials, coefficients, max_size=5))
    def check(terms):
        p = PP(terms)
        assert PP.parse(str(p)) == p

    check()


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("", DomainError, "empty power-sum expression"),
        (" ", DomainError, "empty power-sum expression"),
        ("+", DomainError, "malformed power-sum expression '+'"),
        ("-", DomainError, "malformed power-sum expression '-'"),
        ("p1+", DomainError, "malformed power-sum expression 'p1+'"),
        ("p1--p2", DomainError, "malformed power-sum expression 'p1--p2'"),
        ("p0", DomainError, "bad generator factor 'p0'"),
        ("p1^0", DomainError, "bad generator factor 'p1^0'"),
        ("p1^", DomainError, "bad factor 'p1^' in power-sum expression"),
        ("q2", DomainError, "bad factor 'q2' in power-sum expression"),
        ("x*p1", DomainError, "bad factor 'x' in power-sum expression"),
        ("1/0", ZeroDivisionError, "Fraction(1, 0)"),
    ],
)
def test_power_polynomial_parse_errors(text, error, message):
    with pytest.raises(error) as info:
        PP.parse(text)
    assert type(info.value) is error
    assert str(info.value) == message


def test_power_polynomial_str():
    assert str(PP.parse("p1^2*p3 + 3")) == "3 + p1^2*p3"
    assert str(PP()) == "0"


def test_power_polynomial_arithmetic_keeps_class():
    p, q = PP.parse("p1^2 - 1/2*p3"), PP.parse("p2 + 4")
    for value in (p + q, p * q, p - q, p**3, -p, p + 1, 2 * p, 1 - p, p * 0, p**0):
        assert type(value) is PP
    p2 = PP({(2, 1): 1})
    seven = p2
    for _ in range(6):
        seven = seven * p2
    assert p2**7 == seven == PP.parse("p2^7")
    assert str(p2**7) == "p2^7"


def test_coproduct_matches_repeated_primitive_products():
    one = PP.constant(1)
    for expr in (
        "p1^9",
        "p2^3*p1^4",
        "-2/3*p3^5 + p1^2*p2 - 7",
        "3/4*p1^2*p2*p5^3 - p2^4 + 2",
    ):
        expected = TensorElement()
        for m, c in PP.parse(expr).terms.items():
            term = TensorElement([(one, one, c)])
            for i in range(0, len(m), 2):
                pk = PP({(m[i], 1): 1})
                for _ in range(m[i + 1]):
                    term = term * TensorElement([(pk, one), (one, pk)])
            expected = expected + term
        got = coproduct_power_polynomial(expr)
        assert got == expected
        assert str(got) == str(expected)


def test_coproduct_examples():
    one = PP.constant(1)
    p1 = PP({(1, 1): 1})
    assert coproduct_power_polynomial("p1") == TensorElement([(p1, one), (one, p1)])
    assert coproduct_power_polynomial("p1^2") == TensorElement(
        [(p1 ** 2, one), (p1, p1, 2), (one, p1 ** 2)]
    )
    assert coproduct_power_polynomial("1") == TensorElement([(one, one)])


def test_coproduct_is_algebra_map():
    rng = random.Random(99)

    def rand_expr():
        total = PP()
        for _ in range(rng.randint(1, 3)):
            term = PP.constant(Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 2)))
            for _ in range(rng.randint(0, 2)):
                term = term * PP({(rng.randint(1, 3), 1): 1})
            total = total + term
        return total

    for _ in range(20):
        e, f = rand_expr(), rand_expr()
        assert coproduct_power_polynomial(e * f) == coproduct_power_polynomial(
            e
        ) * coproduct_power_polynomial(f)


def test_coproduct_counit_compatibility():
    expr = PP.parse("p1^2*p2 - 4*p3 + 5")
    delta = coproduct_power_polynomial(expr)
    recovered = PP()
    for left, right, w in delta.summands:
        recovered = recovered + left * (right.terms.get((), 0) * w)
    assert recovered == expr
    recovered = PP()
    for left, right, w in delta.summands:
        recovered = recovered + right * (left.terms.get((), 0) * w)
    assert recovered == expr


# ---- primitivity -----------------------------------------------------------------


def test_verify_primitivity_examples():
    assert verify_primitivity(1, 4).passed
    assert verify_primitivity(2, 6).passed
    report = verify_primitivity(3, 2)
    assert report.passed
    assert report.even_rank == 1 and report.odd_rank == 1
    assert report.lhs and report.rhs


def test_primitivity_sweep_small():
    for k in (1, 2, 3):
        for l in range(2, 6):
            assert verify_primitivity(k, l).passed


def test_rendering_refuses_weights_past_the_digit_limit():
    import sys

    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("the int-to-str digit limit is off")
    one = PP.constant(1)
    # str() decides: a weight of limit digits prints, one more digit (in a
    # numerator or a denominator, of either sign) is refused.
    for weight, ok in ((10 ** (limit - 1), True), (10 ** limit - 1, True),
                       (10 ** limit, False), (Fraction(1, 10 ** (limit + 50)), False),
                       (-(2 ** (4 * limit)), False)):
        tensor = TensorElement([(one, PP({(1, 1): 1}), weight)])
        if ok:
            assert str(weight) in str(tensor)
        else:
            with pytest.raises(ValueError, match="Exceeds the limit"):
                str(tensor)
