"""Algebraic invariants of the structure constants, and the value records
and text forms, as property tests.

The coefficients come from localization, the fast engine, so random
triples stay cheap; the affine expansion is checked against the symbolic
one, of which each product is computed once.
"""

import itertools
import json
import pickle
from fractions import Fraction
from functools import lru_cache
from math import prod

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from shiftedschur import (  # noqa: E402
    ONE,
    ZERO,
    DomainError,
    IntSeqWindow,
    Partition,
    Poly,
    SchurExpansion,
    SkewShape,
    YSpec,
    canonical_key,
    canonical_string,
    contains,
    expand_in_shifted_basis,
    parse_partition,
    partitions_between,
    partitions_up_to,
    shifted_double_schur,
    u,
    useq,
    x,
    y,
)
from shiftedschur.structconst import (  # noqa: E402
    TABLE_METHODS,
    _candidates,
    compute_expansion,
    multiply_schubert,
    structure_constants_via_localization,
)

SMALL = partitions_up_to(2, 2)
SPECS = (YSpec.symbolic(), YSpec.standard(0), YSpec.standard(2))


def _product(a: Partition, b: Partition, n: int, spec: YSpec) -> dict:
    return structure_constants_via_localization(a, b, n, spec).coefficients


def _linear(coefficients: dict, times) -> dict:
    """sum_rho coefficients[rho] * times(rho), where times(rho) is a
    nu -> coefficient map."""
    out: dict = {}
    for rho, c in coefficients.items():
        for nu, d in times(rho).items():
            out[nu] = out.get(nu, ZERO) + c * d
    return {nu: c for nu, c in out.items() if c}


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.sampled_from(SMALL), st.sampled_from(SMALL), st.sampled_from(SMALL), st.sampled_from(SPECS)
)
def test_structure_constants_associative(lam, mu, kappa, spec):
    # sum_rho C^rho_{lam mu} C^nu_{rho kappa} = sum_sigma C^sigma_{mu kappa} C^nu_{lam sigma}
    n = 2 * (lam.weight + mu.weight + kappa.weight) + 1
    left = _linear(_product(lam, mu, n, spec), lambda rho: _product(rho, kappa, n, spec))
    right = _linear(_product(mu, kappa, n, spec), lambda sigma: _product(lam, sigma, n, spec))
    assert left == right


@lru_cache(maxsize=None)
def _symbolic_product(lam: Partition, mu: Partition, n: int, stable: bool) -> dict:
    return multiply_schubert(lam, mu, n, YSpec.symbolic(), stable=stable).coefficients


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.sampled_from(SMALL),
    st.sampled_from(SMALL),
    st.fractions(min_value=-3, max_value=3, max_denominator=7),
    st.fractions(min_value=-3, max_value=3, max_denominator=7),
    st.booleans(),
    st.integers(0, 1),
)
def test_affine_expansion_specializes_the_symbolic_one(lam, mu, a, b, stable, extra):
    # The expansion at standard:d=0 with u = a put in must be the symbolic
    # expansion with y_j -> a*j + b put into each coefficient.
    n = (len(lam) + len(mu) + 1 if stable else max(len(lam), len(mu), 1)) + extra
    spec = YSpec.affine(a, b)
    exp = multiply_schubert(lam, mu, n, spec, stable=stable)
    expected = {
        nu: c.specialize_y(spec) for nu, c in _symbolic_product(lam, mu, n, stable).items()
    }
    assert exp.yspec == spec and exp.n == n
    assert exp.coefficients == {nu: c for nu, c in expected.items() if c}


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.sampled_from(SMALL),
    st.sampled_from(SMALL),
    st.one_of(st.just(Fraction(0)), st.fractions(min_value=-3, max_value=3, max_denominator=7)),
    st.fractions(min_value=-3, max_value=3, max_denominator=7),
    st.booleans(),
)
def test_every_method_answers_affine_as_the_direct_expansion(lam, mu, a, b, stable):
    # Each method grades the rationals of standard:d=0 by the constant step a;
    # the direct route puts y_j -> a*j + b into the factors and expands their
    # product over the rationals, at the rank multiply_schubert builds at.
    n = len(lam) + len(mu) + 1 if stable else max(len(lam), len(mu), 1)
    spec, n0 = YSpec.affine(a, b), max(min(n, len(lam) + len(mu)), 1)
    product = shifted_double_schur(lam, n0, spec) * shifted_double_schur(mu, n0, spec)
    direct = SchurExpansion(n, spec, expand_in_shifted_basis(product, n0, spec).coefficients)
    for method in TABLE_METHODS:
        assert compute_expansion(lam, mu, n, spec, method, stable) == direct, method


# ---- value records and text forms -------------------------------------------------

small = st.integers(-5, 5)
rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)
windows = st.one_of(
    st.builds(IntSeqWindow, small, st.lists(small, min_size=1, max_size=4).map(tuple)),
    st.builds(IntSeqWindow, small, st.lists(small, max_size=4).map(tuple), st.tuples(small, small)),
)
yspecs = st.one_of(
    st.just(YSpec.symbolic()),
    st.just(YSpec.zero()),
    st.builds(YSpec.affine, rationals, rationals),
    st.builds(YSpec.standard, small),
    st.builds(YSpec.circle, windows, small),
    st.builds(YSpec.torus, small),
)


@settings(max_examples=100, deadline=None)
@given(yspecs, yspecs, st.integers(0, pickle.HIGHEST_PROTOCOL))
def test_yspec_survives_pickle_and_json(spec, other, protocol):
    copy = pickle.loads(pickle.dumps(spec, protocol))
    assert type(copy) is YSpec and type(copy.window) is type(spec.window)
    assert copy == spec and hash(copy) == hash(spec)
    obj = spec.to_json_obj()
    assert json.loads(json.dumps(obj)) == obj and copy.to_json_obj() == obj
    assert (other.to_json_obj() == obj) == (other == spec)


def test_unpickling_checks_window_and_shape():
    # Unpickling calls __new__, which checks its input as construction does.
    bad = (
        tuple.__new__(IntSeqWindow, (0, (), None)),
        tuple.__new__(SkewShape, (Partition([1]), Partition([2]))),
    )
    for record in bad:
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            with pytest.raises(DomainError):
                pickle.loads(pickle.dumps(record, protocol))


# ---- the structure constants as polynomials in the differences y_a - y_b ----

WEIGHT3 = partitions_up_to(3, 3)
pairs3 = st.tuples(st.sampled_from(WEIGHT3), st.sampled_from(WEIGHT3))


@lru_cache(maxsize=None)
def _localized(lam: Partition, mu: Partition, spec: YSpec) -> dict:
    return structure_constants_via_localization(lam, mu, 7, spec).coefficients


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pairs3)
def test_symbolic_constants_are_graham_positive(pair):
    # Graham: each coefficient is a polynomial with nonnegative integer
    # coefficients in the y_k - y_{k-1}.  With lo the least y index it
    # reads, y_j -> z_{lo+1} + ... + z_j (z_k written useq(k)) turns it
    # into a polynomial in the z with positive integer coefficients.
    for c in _localized(*pair, YSpec.symbolic()).values():
        lo = min(c.y_indices(), default=0)
        z = {y(j): sum((useq(k) for k in range(lo + 1, j + 1)), ZERO) for j in c.y_indices()}
        terms = c.substitute(z).terms.values()
        assert terms and all(type(t) is int and t > 0 for t in terms), (pair, c)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pairs3, st.integers(-9, 9))
def test_standard_constants_do_not_depend_on_d(pair, d):
    # y_j -> (j+d)u moves every y_j by the same d*u.
    assert _localized(*pair, YSpec.standard(d)) == _localized(*pair, YSpec.standard(0))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    pairs3,
    st.one_of(st.just(Fraction(0)), st.fractions(min_value=-3, max_value=3, max_denominator=5)),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
)
def test_affine_and_zero_are_standard_at_u_equal_a(pair, a, b):
    # y_j -> a*j + b is y_j -> (j+d)u at u = a, moved by b; zero is a = b = 0.
    # The specialized sides come from the expansion, which never localizes.
    lam, mu = pair
    standard = _localized(lam, mu, YSpec.standard(0))
    for spec, at in ((YSpec.affine(a, b), a), (YSpec.zero(), 0)):
        expected = {nu: c.substitute({u: at}) for nu, c in standard.items()}
        assert multiply_schubert(lam, mu, 7, spec).coefficients == {
            nu: c for nu, c in expected.items() if c
        }, (pair, spec)


SHAPE_PARTS = partitions_up_to(3, 3)
shape_fields = st.tuples(st.sampled_from(SHAPE_PARTS), st.sampled_from(SHAPE_PARTS)).filter(
    lambda pair: contains(*pair)
)


@settings(max_examples=100, deadline=None)
@given(shape_fields, shape_fields)
def test_skew_shape_equality_and_hash_follow_fields(a, b):
    s, t = SkewShape(*a), SkewShape(list(b[0]), list(b[1]))
    assert (s == t) == (a == b)
    assert hash(s) == hash(a) and (s.outer, s.inner) == a


partitions = st.lists(st.integers(1, 12), max_size=6).map(
    lambda parts: Partition(sorted(parts, reverse=True))
)


@settings(max_examples=100, deadline=None)
@given(partitions)
def test_parse_partition_inverts_text(p):
    assert parse_partition(",".join(map(str, p)) or "0") == p


@lru_cache(maxsize=None)
def _all_partitions(weight: int, length: int) -> list:
    """Partitions of weight <= weight and length <= length, canonically
    ordered, listed without the package's enumeration."""
    rows = itertools.combinations_with_replacement(range(weight, -1, -1), length)
    return sorted((Partition(r) for r in rows if sum(r) <= weight), key=canonical_key)


small_partitions = st.lists(st.integers(1, 3), max_size=3).map(
    lambda parts: Partition(sorted(parts, reverse=True))
)


@settings(max_examples=100, deadline=None)
@given(small_partitions, small_partitions, st.integers(1, 4))
def test_intervals_are_the_filtered_lists(a, b, n):
    # The Young's-lattice interval generator yields exactly the filtered
    # candidates, in the canonical order.
    union = Partition(map(max, itertools.zip_longest(a, b, fillvalue=0)))
    for lower, upper in ((a, b), (Partition(), b), (a, union)):
        expected = [
            rho
            for rho in _all_partitions(upper.weight, len(upper))
            if contains(upper, rho) and contains(rho, lower)
        ]
        assert partitions_between(lower, upper) == expected, (lower, upper)
    short = _all_partitions(a.weight + b.weight, min(n, len(a) + len(b)))
    assert _candidates(a, b, n) == [nu for nu in short if contains(nu, a) and contains(nu, b)]


GENERATORS = (x(1), x(2), y(-1), y(0), useq(1), u)
term_lists = st.lists(
    st.tuples(
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
        st.lists(st.integers(0, len(GENERATORS) - 1), max_size=3),
    ),
    max_size=4,
)


def _poly(terms) -> Poly:
    total = ZERO
    for c, factors in terms:
        total = total + Poly.constant(c) * prod((GENERATORS[i] for i in factors), start=ONE)
    return total


@settings(max_examples=200, deadline=None)
@given(term_lists, term_lists, st.booleans())
def test_canonical_string_is_injective(terms_a, terms_b, rebuild):
    # With rebuild, b is a, summed and multiplied in the reverse order.
    a = _poly(terms_a)
    b = _poly([(c, f[::-1]) for c, f in reversed(terms_a)] if rebuild else terms_b)
    assert (canonical_string(a) == canonical_string(b)) == (a == b)
