import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import shiftedschur
from shiftedschur import (
    ONE,
    SYMBOLIC,
    ZERO,
    DomainError,
    InexactDivisionError,
    IntSeqWindow,
    Poly,
    PowerPolynomial,
    UnresolvableIndexError,
    YSpec,
    canonical_string,
    const,
    divide_exact,
    poly_det,
    u,
    useq,
    x,
    y,
)
from shiftedschur import polyring
from shiftedschur.polyring import FAMILY_X, FAMILY_Y, divide_linear, var_code


def rand_poly(rng, max_terms=4, max_factors=2):
    gens = [x(1), x(2), x(3), y(-2), y(0), y(1), useq(-1), u]
    total = ZERO
    for _ in range(rng.randint(1, max_terms)):
        term = const(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        for _ in range(rng.randint(0, max_factors)):
            term = term * rng.choice(gens)
        total = total + term
    return total


# ---- arithmetic ------------------------------------------------------------------


def test_add_examples():
    assert x(1) + (-x(1)) == ZERO
    assert (x(1) - y(1)) + (x(2) - y(2)) == x(1) + x(2) - y(1) - y(2)
    p = x(1) * y(-3) + 7
    assert ZERO + p == p


def test_mul_examples():
    assert (x(1) - y(1)) * ONE == x(1) - y(1)
    expanded = x(1) ** 2 - (y(1) + y(2)) * x(1) + y(1) * y(2)
    assert (x(1) - y(1)) * (x(1) - y(2)) == expanded
    assert (x(1) - y(1)) * ZERO == ZERO


def test_sub_equals_adding_the_negation():
    rng = random.Random(5)
    polys = [ZERO, ONE, const(Fraction(-3, 2))] + [rand_poly(rng) for _ in range(12)]
    for p in polys:
        for q in polys + [0, 4, Fraction(5, 3)]:
            d = p - q
            assert d._terms == (p + (-q))._terms, (p, q)
            assert [type(c) for c in d._terms.values()] == [
                type(c) for c in (p + (-q))._terms.values()
            ]
        assert not (p - p)._terms
    # A Fraction difference that comes out integral is stored as an int.
    d = Fraction(7, 2) * x(1) - Fraction(3, 2) * x(1) - Fraction(1, 2)
    assert d._terms == (2 * x(1) - Fraction(1, 2))._terms
    assert [type(c) for c in d.terms.values()].count(int) == 1


def test_product_with_one_shares_the_other_factor(monkeypatch):
    p = 2 * x(1) * y(3) - Fraction(5, 2)
    for q in (p * ONE, ONE * p, p * 1, p * Fraction(1)):
        assert q == p and q._terms is p._terms and type(q) is Poly
    pp = PowerPolynomial.parse("p1^2 - 3*p2 + 4")
    assert type(pp * ONE) is PowerPolynomial and type(ONE * pp) is Poly
    monkeypatch.setattr(polyring, "MAX_PRODUCT_PAIRS", 1)
    with pytest.raises(DomainError, match="exceeds the limit"):
        p * ONE


def test_ring_axioms_randomized():
    rng = random.Random(421)
    for _ in range(60):
        a, b, c = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_exactness_no_rounding():
    third = const(Fraction(1, 3))
    p = (third * x(1) + const(Fraction(1, 7))) * 21
    assert p == 7 * x(1) + 3
    assert (p - 7 * x(1) - 3) == ZERO


def test_pow():
    assert (x(1) + 1) ** 0 == ONE
    assert (x(1) + y(2)) ** 2 == x(1) ** 2 + 2 * x(1) * y(2) + y(2) ** 2
    with pytest.raises(DomainError):
        (x(1)) ** (-1)


# ---- shift ----------------------------------------------------------------------


def test_shift_examples():
    assert y(1).shift_y(1) == y(0)
    assert x(1).shift_y(5) == x(1)
    assert y(3).shift_y(-2) == y(5)


def test_shift_composition_and_homomorphism():
    rng = random.Random(7)
    for _ in range(25):
        p, q = rand_poly(rng), rand_poly(rng)
        k, m = rng.randint(-3, 3), rng.randint(-3, 3)
        assert p.shift_y(0) == p
        assert p.shift_y(k).shift_y(m) == p.shift_y(k + m)
        assert (p * q).shift_y(k) == p.shift_y(k) * q.shift_y(k)


# ---- specialization --------------------------------------------------------------


def test_specialize_examples():
    assert y(2).specialize_y(YSpec.standard(0)) == 2 * u
    assert y(2).specialize_y(YSpec.zero()) == ZERO
    assert y(2).specialize_y(YSpec.torus(-3)) == useq(-1)
    assert y(2).specialize_y(YSpec.affine(1, Fraction(1, 2))) == const(Fraction(5, 2))
    assert y(0).specialize_y(YSpec.standard(0)) == ZERO


def test_specialize_circle():
    window = IntSeqWindow(lo=-1, values=(5, 0, 7), tail=None)
    spec = YSpec.circle(window, d=0)
    assert y(-1).specialize_y(spec) == 5 * u
    assert y(0).specialize_y(spec) == ZERO
    assert y(1).specialize_y(spec) == 7 * u
    with pytest.raises(UnresolvableIndexError):
        y(2).specialize_y(spec)
    with_tail = YSpec.circle(IntSeqWindow(lo=0, values=(), tail=(1, 0)), d=0)
    assert y(9).specialize_y(with_tail) == 9 * u
    assert y(-4).specialize_y(with_tail) == -4 * u


def test_circle_with_d_offset():
    window = IntSeqWindow(lo=0, values=(), tail=(2, 1))
    spec = YSpec.circle(window, d=3)
    # y_j -> n_{j+3} * u = (2(j+3)+1) u
    assert y(1).specialize_y(spec) == 9 * u


def test_tau_compatibility():
    rng = random.Random(11)
    for _ in range(20):
        p = rand_poly(rng)
        k = rng.randint(-3, 3)
        m = rng.randint(-3, 3)
        lhs = p.shift_y(k).specialize_y(YSpec.torus(m))
        rhs = p.specialize_y(YSpec.torus(m - k))
        assert lhs == rhs


# ---- substitution -----------------------------------------------------------------


def test_substitute_examples():
    p = x(1) + x(2)
    out = p.substitute({x(1): x(1) + y(-1), x(2): x(2) + y(-2)})
    assert out == x(1) + x(2) + y(-1) + y(-2)
    assert (x(1) ** 2).substitute({x(1): 0}) == ZERO
    assert y(1).substitute({x(1): 7}) == y(1)
    p = x(1) * y(2) - Fraction(1, 3)
    assert p.substitute({}) == p and ZERO.substitute({}) == ZERO


def test_substitute_general_values():
    p = x(1) ** 2 * y(0) - 3 * x(2)
    out = p.substitute({x(1): x(2) + 1, y(0): u})
    assert out == (x(2) + 1) ** 2 * u - 3 * x(2)


def test_substitute_adds_groups_with_the_same_image():
    # x1*y1 and x1*y2 fall in different groups whose images are both x1*u.
    diff = (x(1) * y(1) - x(1) * y(2)).substitute({y(1): u, y(2): u})
    assert diff == ZERO and not diff._terms
    total = (x(1) * y(1) + x(1) * y(2)).substitute({y(1): u, y(2): u})
    assert total == 2 * x(1) * u
    half = total.substitute({u: Fraction(1, 2)})
    assert half == x(1)
    assert [type(c) for c in half.terms.values()] == [int]


def test_substitute_rejects_non_variable_keys():
    with pytest.raises(DomainError):
        (x(1)).substitute({x(1) + x(2): 0})
    with pytest.raises(DomainError):
        (x(1)).substitute({2 * x(1): 0})


# ---- canonical output -----------------------------------------------------------


def test_canonical_string_examples():
    assert canonical_string(ZERO) == "0"
    assert canonical_string(x(2) + x(1)) == "x1 + x2"
    assert canonical_string(const(Fraction(1, 2)) * y(-1)) == "1/2*y[-1]"


def test_canonical_string_details():
    assert canonical_string(x(1) - y(1)) == "-y[1] + x1"
    assert canonical_string(-x(1)) == "-x1"
    assert canonical_string(u**2 * useq(-1) * x(1) ** 3) == "u^2*u[-1]*x1^3"
    assert canonical_string(const(-3)) == "-3"
    # graded order: higher total degree first
    assert canonical_string(ONE + x(1)) == "x1 + 1"


def test_canonical_string_iff_equal():
    rng = random.Random(3)
    polys = [rand_poly(rng) for _ in range(40)]
    for a in polys:
        for b in polys:
            assert (canonical_string(a) == canonical_string(b)) == (a == b)


def test_json_round_trip():
    rng = random.Random(5)
    polys = [rand_poly(rng) for _ in range(25)]
    for p in polys:
        obj = p.to_json_obj()
        assert json.loads(json.dumps(obj)) == obj
        assert all((q.to_json_obj() == obj) == (q == p) for q in polys)
    # u vs u_j disambiguation via the null index
    p = u * useq(2)
    obj = p.to_json_obj()
    assert obj[0]["monomial"] == [["u", None, 1], ["u", 2, 1]]
    assert obj != (useq(0) * useq(2)).to_json_obj()


def test_latex_rendering():
    assert (x(1) - y(-1)).latex() == "-y_{-1} + x_{1}"
    assert (const(Fraction(1, 2)) * u**2).latex() == "\\tfrac{1}{2} u^{2}"


# ---- division and determinants ------------------------------------------------


def test_divide_exact():
    p = (x(1) + y(1)) * (x(1) - y(1))
    assert divide_exact(p, x(1) - y(1)) == x(1) + y(1)
    assert divide_exact(ZERO, x(1)) == ZERO
    # A non-unit coefficient of v and a constant term: int coefficients
    # where the quotient is integral.
    q = 3 * x(1) - Fraction(3, 2) * y(2) + 4
    p = 6 * x(1) ** 2 * y(0) - 3 * y(2) + Fraction(1, 2)
    quotient = divide_exact(p * q, q)
    assert quotient == p
    assert all(type(c) is (Fraction if m == () else int) for m, c in quotient.terms.items())
    with pytest.raises(InexactDivisionError):
        divide_exact(x(1) ** 2 + 1, x(1) - y(1))


def test_divide_exact_by_a_localize_form():
    # The shape of localize's Pieri form, a signed sum of distinct y_j, and
    # its negative: v's coefficient is 1 in one of them and -1 in the other.
    form = y(3) - y(0) + y(-2) - y(-4)
    p = x(1) * y(-2) - 2 * y(0) ** 2 * y(3) + Fraction(1, 3)
    for q in (form, -form):
        assert divide_exact(p * q, q) == p
        assert divide_exact(q, q) == ONE
        with pytest.raises(InexactDivisionError):
            divide_exact(p * q + y(0), q)


def test_divide_exact_refuses_a_divisor_it_cannot_divide_by():
    # Zero, a constant, a coefficient of v that is not constant, and a
    # product of two linear forms each raise DomainError, with one line.
    p = x(1) * y(1) + x(2)
    for q in (ZERO, const(2), x(1) * y(1) + 1, (x(1) + y(2)) * (y(1) + 1)):
        with pytest.raises(DomainError) as info:
            divide_exact(p * q, q)
        assert "\n" not in str(info.value)


def test_divide_exact_in_a_variable_past_slot_zero():
    # v = y(4001) has a field above bit 0, so each step in its power is
    # 1 << shift, not 1.
    low, high = y(4001), y(4002)
    shift = polyring._W * polyring._slot(var_code(FAMILY_Y, 4001))
    assert shift > 0 and polyring._slot(var_code(FAMILY_Y, 4002)) * polyring._W > shift
    quotient = divide_exact(high ** 4 - low ** 4, high - low)
    assert quotient == high ** 3 + high ** 2 * low + high * low ** 2 + low ** 3
    assert max(m >> shift & polyring._FIELD for m in quotient._terms) == 3
    with pytest.raises(InexactDivisionError):
        divide_exact(high ** 4 - low ** 3, high - low)


def test_scalar_products_keep_value_class_and_int_coefficients():
    p = 2 * x(1) * y(3) - 5
    for scalar in (1, Fraction(1)):
        q = p * scalar
        assert q == p and type(q) is Poly
        assert all(type(c) is int for c in q.terms.values())
    zero = p * 0
    assert zero == ZERO and type(zero) is Poly and not zero.terms
    pp = PowerPolynomial.parse("p1^2 - 3*p2 + 4")
    product = pp * 1
    assert product == pp and type(product) is PowerPolynomial
    assert all(type(c) is int for c in product.terms.values())


def test_divide_linear():
    p = (x(1) - x(2)) * (x(1) - x(3)) * (x(2) + y(5))
    q = divide_linear(p, 1, 2)
    assert q == (x(1) - x(3)) * (x(2) + y(5))
    with pytest.raises(InexactDivisionError):
        divide_linear(x(1) * x(2) + 1, 1, 2)
    # A dividend without x_1 divides only if it is zero.
    assert divide_linear(ZERO, 1, 2) == 0
    with pytest.raises(InexactDivisionError):
        divide_linear(y(1) + 3, 1, 2)
    # x2 - x1 leads with -1 in x1, the variable of the lower slot.
    assert polyring._slot(var_code(FAMILY_X, 1)) < polyring._slot(var_code(FAMILY_X, 2))
    p = (x(2) - x(1)) * (x(1) ** 2 + 2 * y(3)) * x(2)
    q = divide_linear(p, 2, 1)
    assert q == (x(1) ** 2 + 2 * y(3)) * x(2)
    assert all(type(c) is int for c in q.terms.values())
    with pytest.raises(InexactDivisionError):
        divide_linear(p + x(1), 2, 1)


def test_constructor_adds_coefficients_of_equal_monomials():
    cx1, cy1 = var_code(FAMILY_X, 1), var_code(FAMILY_Y, 1)
    # Codes out of order, and an exponent-0 factor, pack to one monomial.
    assert Poly({(cx1, 1, cy1, 1): 1, (cy1, 1, cx1, 1): 1}) == 2 * y(1) * x(1)
    assert Poly({(cx1, 1): 1, (cx1, 1, cy1, 0): 1}) == 2 * x(1)
    assert Poly({(cx1, 1): 1, (cx1, 1, cy1, 0): -1}) == ZERO
    half = Poly({(cx1, 1): Fraction(1, 2), (cy1, 0, cx1, 1): Fraction(1, 2)})
    assert half == x(1) and type(half.terms[(cx1, 1)]) is int


def test_variable_index_range():
    assert str(y(-(2**43))) == "y[-8796093022208]"
    assert str(y(2**43 - 1)) == "y[8796093022207]"
    assert str(useq(2**43 - 1) - x(2**43 - 1)) == "u[8796093022207] - x8796093022207"
    for index in (2**43, -(2**43) - 1, 10**20):
        with pytest.raises(DomainError, match="outside"):
            y(index)
    with pytest.raises(DomainError):
        x(2**43)
    with pytest.raises(DomainError, match="x index must be >= 1, got 0"):
        x(0)


def test_poly_det():
    a, b, c, d = x(1), y(1), useq(0), u
    assert poly_det([[a, b], [c, d]]) == a * d - b * c
    assert poly_det([]) == ONE
    assert poly_det([[a]]) == a
    m = [[a, b, c], [ZERO, ONE, d], [ZERO, ZERO, ONE]]
    assert poly_det(m) == a
    with pytest.raises(DomainError, match="non-square"):
        poly_det([[a, b]])


def test_hashing_and_immutability():
    p = x(1) + y(2)
    q = y(2) + x(1)
    assert hash(p) == hash(q) and p == q
    d = {p: 1}
    assert d[q] == 1


def test_window_validation():
    with pytest.raises(DomainError):
        IntSeqWindow(lo=0, values=(), tail=None)
    w = IntSeqWindow(lo=2, values=(9,), tail=None)
    assert w.hi == 2 and w.lookup(2) == 9


def test_affine_spec_parses_text_safely():
    assert YSpec.affine("1/2", "-0.6") == YSpec.affine(Fraction(1, 2), Fraction(-3, 5))
    # A subprocess, so that a hang is cut off by the timeout: Fraction
    # alone would build 10^99999999 here.
    code = "from shiftedschur import YSpec; YSpec.affine('1e-99999999', 0)"
    env = {**os.environ, "PYTHONPATH": str(Path(shiftedschur.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=2, env=env
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1].startswith("ValueError: decimal exponent past the limit")


def test_yspec_json_round_trip():
    specs = [
        SYMBOLIC,
        YSpec.zero(),
        YSpec.affine(Fraction(1, 3), -2),
        YSpec.standard(-1),
        YSpec.circle(IntSeqWindow(lo=-2, values=(4, 5), tail=(1, 0)), d=2),
        YSpec.torus(4),
    ]
    for spec in specs:
        obj = spec.to_json_obj()
        assert json.loads(json.dumps(obj)) == obj
        assert all((other.to_json_obj() == obj) == (other == spec) for other in specs)
