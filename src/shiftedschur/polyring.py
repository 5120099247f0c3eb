"""Exact sparse multivariate polynomial arithmetic.

The variable universe consists of four families:

  * x_i for i >= 1                 (spelled  x1, x2, ...)
  * y_j for j in Z                 (spelled  y[-1], y[0], y[3], ...)
  * torus weights u_j for j in Z   (spelled  u[-2], u[5], ...)
  * a single parameter u           (spelled  u)

Coefficients are exact rationals (Python int where possible, Fraction
otherwise).  Terms are stored as a dict from monomial to nonzero
coefficient.  A variable code encodes (family, index) so that ascending
integer order is the canonical variable order u < u_j < y_j < x_i (indices
ascending within a family).

Inside the core a monomial is one packed int: a registry gives each
variable code a slot on first use, and the exponent of slot s sits in bits
[W*s, W*s + W).  The top bit of each field is a guard bit that a valid
monomial never sets, so a monomial multiply is one integer add, and an
exponent that outgrows its field sets a guard bit instead of carrying into
the next field.  At the boundary (Poly(terms), Poly.terms, rendering,
JSON and pickling) a monomial is a flat tuple
(code, exp, code, exp, ...) with codes strictly increasing and exponents
positive.

The doubly infinite y sequence is never materialized: a YSpec describes a
substitution rule finitely and is asked only for the indices a polynomial
actually contains.
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple
from fractions import Fraction
from functools import reduce
from math import lcm
from operator import or_
from typing import Mapping

from .errors import (
    DomainError,
    InexactDivisionError,
    UnresolvableIndexError,
)

FAMILY_U = 0
FAMILY_USEQ = 1
FAMILY_Y = 2
FAMILY_X = 3

_FAMILY_SHIFT = 44
_INDEX_BIAS = 1 << 43
_INDEX_MASK = (1 << _FAMILY_SHIFT) - 1

_FAMILY_NAMES = {FAMILY_U: "u", FAMILY_USEQ: "u", FAMILY_Y: "y", FAMILY_X: "x"}


def var_code(family: int, index: int) -> int:
    """Pack (family, index) into a single int preserving canonical order."""
    if not -_INDEX_BIAS <= index < _INDEX_BIAS:
        raise DomainError(f"variable index {index} outside [-2^43, 2^43)")
    return (family << _FAMILY_SHIFT) | (index + _INDEX_BIAS)


def var_family(code: int) -> int:
    return code >> _FAMILY_SHIFT

def var_index(code: int) -> int:
    return (code & _INDEX_MASK) - _INDEX_BIAS


# -- packed monomials -------------------------------------------------------------

_W = 16
_FIELD = (1 << _W) - 1
MAX_EXPONENT = (1 << (_W - 1)) - 1

# The slot registry: it grows with the number of distinct variables a
# process uses, never with the number of results.  _GUARD holds the guard
# bit of every slot in use and _X_MASK the fields of the x variables.
_slot_of: dict[int, int] = {}
_code_of: list[int] = []
_GUARD = 0
_X_MASK = 0


def _slot(code: int) -> int:
    """The slot of a variable code, assigned on first use."""
    s = _slot_of.get(code)
    if s is None:
        global _GUARD, _X_MASK
        s = len(_code_of)
        _code_of.append(code)
        _slot_of[code] = s
        _GUARD |= 1 << (_W * s + _W - 1)
        if var_family(code) == FAMILY_X:
            _X_MASK |= _FIELD << (_W * s)
    return s


def _overflow(what: str = "an exponent") -> DomainError:
    return DomainError(f"{what} exceeds the largest supported exponent {MAX_EXPONENT}")


def _encode(flat) -> int:
    """The packed form of a flat (code, exp, ...) monomial."""
    m = 0
    for i in range(0, len(flat), 2):
        e = flat[i + 1]
        if not 0 <= e <= MAX_EXPONENT:
            raise _overflow(f"exponent {e}")
        m += e << (_W * _slot(flat[i]))
        if m & _GUARD:
            raise _overflow()
    return m


def _fields(m: int):
    """The (slot, exponent) pairs of a packed monomial, slots ascending."""
    while m:
        s = ((m & -m).bit_length() - 1) // _W
        e = (m >> (_W * s)) & _FIELD
        yield s, e
        m -= e << (_W * s)


def _decode(m: int) -> tuple:
    """The flat (code, exp, ...) form of a packed monomial."""
    pairs = sorted((_code_of[s], e) for s, e in _fields(m))
    return tuple(v for pair in pairs for v in pair)


# One product may multiply at most this many pairs of terms; a larger one
# is refused (DomainError) before it starts.  This holds for each group's
# product in Poly.substitute too, though no test or reference comes near it
# there.  The largest products of the inputs that complete are far below it:
# schur --lambda 3,3,3 --n 6 has 12,422,592 pairs (232 MB peak on an x86-64
# host), while --n 9 asks for 155,358,720 and grew past 960 MB.  The limit
# bounds one product, not a whole computation: verify --suite denominator
# --n 7 stays under it and still takes about 4 s and 166 MB.
MAX_PRODUCT_PAIRS = 50_000_000


def _check_exponents(monomials) -> None:
    """Raise if a sum of two valid monomials set a guard bit.

    Each field of such a sum is below 2^W, so nothing has carried into a
    neighbouring field yet; one OR over a result's monomials finds any
    overflow.
    """
    if reduce(or_, monomials, 0) & _GUARD:
        raise _overflow()


def _mono_degree(m: int) -> int:
    # The sum of the fields, which for _W == 16 are the 16-bit words of m.
    return sum(memoryview(m.to_bytes((m.bit_length() + 15) // 16 * 2, sys.byteorder)).cast("H"))


def _flat_sort_key(flat: tuple):
    # Ascending in this key == descending graded-lexicographic order.
    lex = []
    for i in range(0, len(flat), 2):
        lex.append(flat[i])
        lex.append(-flat[i + 1])
    return (-sum(flat[1::2]), tuple(lex))


def _mono_sort_key(m: int):
    return _flat_sort_key(_decode(m))


def _group(terms: dict, mask: int) -> dict[int, dict]:
    """Packed terms grouped as {part: {rest: coefficient}}, part = m & mask and
    rest = m - part: the peel groups by x part, exact division by the field
    of one variable and substitution by the fields it replaces."""
    groups: dict[int, dict] = {}
    for m, c in terms.items():
        part = m & mask
        groups.setdefault(part, {})[m ^ part] = c
    return groups


def _integral(terms: dict) -> tuple[dict, int]:
    """terms times the lcm of their denominators, all int, and that lcm."""
    denominators = [c.denominator for c in terms.values() if c.__class__ is Fraction]
    if not denominators:
        return terms, 1
    scale = lcm(*denominators)
    return {
        m: c.numerator * (scale // c.denominator) if c.__class__ is Fraction else c * scale
        for m, c in terms.items()
    }, scale


def _exact_quotient(c: int, d: int):
    """c / d as an int when d divides c, else as a Fraction."""
    q, r = divmod(c, d)
    return Fraction(c, d) if r else q


def _int_if_integral(c):
    return c.numerator if c.__class__ is Fraction and c.denominator == 1 else c


def _add_into(out: dict, terms, sign: int = 1) -> dict:
    """Add sign (1 or -1) times terms, (key, nonzero coefficient) pairs, into the
    dict out in place and return out; a key whose sum is 0 is deleted and an
    integral Fraction sum is stored as an int.  The one accumulator of the sparse core:
    Poly's +, - and substitute, divide_exact, schur._column, the tensor's table and expansion."""
    neg = sign < 0
    for m, c in terms:
        s = out.get(m)
        if s is None:
            out[m] = -c if neg else c
        else:
            s = s - c if neg else s + c
            if not s:
                del out[m]
            elif s.__class__ is Fraction and s.denominator == 1:
                out[m] = s.numerator
            else:
                out[m] = s
    return out


_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def parse_rational(text: str):
    """The exact value of a rational literal such as "-3", "1/2", "0.5" or
    "1e-3", an int where integral; ValueError or ZeroDivisionError if malformed.

    Fraction builds 10^|exponent| for a decimal exponent, so an exponent of
    magnitude past sys.get_int_max_str_digits() is refused before that.
    """
    m = _EXPONENT.search(text)
    if m:
        # Interpreters older than the limit (before 3.10.7) have no getter.
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and abs(int(m.group(1))) > limit:
            raise ValueError(f"decimal exponent past the limit {limit}")
    return _int_if_integral(Fraction(text))


class Poly:
    """An immutable exact polynomial.

    Supports +, -, *, ** with other polynomials and with ints/Fractions.
    Construction goes through the module factories (x, y, useq, u, const)
    or classmethods; the term dict is never mutated after construction.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple, object] | None = None):
        acc: dict = {}
        for m, c in (terms or {}).items():
            m = _encode(m)
            acc[m] = acc.get(m, 0) + c
        self._terms = {m: _int_if_integral(c) for m, c in acc.items() if c}

    @classmethod
    def _raw(cls, terms: dict) -> "Poly":
        # Internal fast path: `terms` is already canonical, packed and owned
        # by us.
        p = object.__new__(cls)
        p._terms = terms
        return p

    @classmethod
    def constant(cls, value) -> "Poly":
        """The constant polynomial with the given int or Fraction value."""
        value = _int_if_integral(value)
        return cls._raw({0: value} if value else {})

    # -- basic queries ----------------------------------------------------

    @property
    def terms(self) -> dict:
        """The monomial -> coefficient map, monomials as flat tuples."""
        return {_decode(m): c for m, c in self._terms.items()}

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def x_degree(self) -> int:
        """Total degree in the x variables only; -1 for zero."""
        return max((_mono_degree(m & _X_MASK) for m in self._terms), default=-1)

    def variables(self) -> set[int]:
        return {_code_of[s] for s, _ in _fields(reduce(or_, self._terms, 0))}

    def y_indices(self) -> set[int]:
        return {var_index(c) for c in self.variables() if var_family(c) == FAMILY_Y}

    # -- equality and hashing ----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- arithmetic ---------------------------------------------------------

    # Results are built with self._raw so that subclasses (PowerPolynomial)
    # keep their class through arithmetic.  The Poly test comes first:
    # Fraction's metaclass is ABCMeta, whose instance check is slow.

    def __add__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.constant(other)
        a, b = self._terms, other._terms
        if not a:
            return other
        if not b:
            return self
        return self._raw(_add_into(dict(a), b.items()))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return self._raw({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "Poly":
        if not isinstance(other, (Poly, int, Fraction)):
            return NotImplemented
        b = (other if isinstance(other, Poly) else self.constant(other))._terms
        return self._raw(_add_into(dict(self._terms), b.items(), -1))  # no negated copy

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.constant(other)
        a, b = self._terms, other._terms
        if len(a) * len(b) > MAX_PRODUCT_PAIRS:
            raise DomainError(
                f"a product of {len(a)} by {len(b)} terms exceeds the limit of "
                f"{MAX_PRODUCT_PAIRS} term pairs"
            )
        if a == ONE._terms or b == ONE._terms:  # a factor 1: share the other's terms
            return self._raw(b if a == ONE._terms else a)
        if len(a) > len(b):
            a, b = b, a
        # The loop multiplies integers: each rational factor is scaled by
        # the lcm of its denominators, and each result term divided once.
        a, scale_a = _integral(a)
        b, scale_b = _integral(b)
        out: dict = {}
        get = out.get
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = m1 + m2
                c = get(m)
                if c is None:
                    out[m] = c1 * c2
                else:
                    c = c + c1 * c2
                    if c:
                        out[m] = c
                    else:
                        del out[m]
        _check_exponents(out)
        scale = scale_a * scale_b
        if scale != 1:
            out = {m: _exact_quotient(c, scale) for m, c in out.items()}
        return self._raw(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Poly":
        if not isinstance(e, int) or e < 0:
            raise DomainError(f"polynomial power must be a nonnegative integer, got {e}")
        result = self.constant(1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base_needed = e >> 1
            if base_needed:
                base = base * base
            e = base_needed
        return result

    # -- structural operations ----------------------------------------------

    def shift_y(self, k: int) -> "Poly":
        """Replace every y_j by y_{j-k}; other families untouched."""
        return self.substitute({y(j): y(j - k) for j in self.y_indices()})

    def substitute(self, assignment: Mapping["Poly", object]) -> "Poly":
        """Simultaneous substitution; keys are single-variable polynomials.

        The terms are grouped by their substituted part, and each group (its
        terms with that part removed) is multiplied by the part's image, the
        product of the values' powers, each computed once per (slot, exponent).
        The products are summed: groups whose images meet add up or cancel.
        The group without substituted variables is taken as it is.
        """
        table = {
            _single_variable_slot(key): value if isinstance(value, Poly) else const(value)
            for key, value in assignment.items()
        }
        powers: dict[tuple[int, int], Poly] = {}
        acc: dict = {}
        for part, rest in _group(self._terms, sum(_FIELD << (_W * s) for s in table)).items():
            image = None
            for s, e in _fields(part):
                if (s, e) not in powers:
                    powers[s, e] = table[s] ** e
                image = powers[s, e] if image is None else image * powers[s, e]
            _add_into(acc, (rest if image is None else (Poly._raw(rest) * image)._terms).items())
        return Poly._raw(acc)

    def specialize_y(self, spec: "YSpec") -> "Poly":
        """Apply a y-specialization rule to every y_j, asking from the highest
        index down: a window without a tail rule names the highest one read."""
        if spec.kind == "symbolic":
            return self
        top_down = sorted(self.y_indices(), reverse=True)
        return self.substitute({y(j): spec.value(j) for j in top_down})

    # -- rendering ------------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple, object]]:
        """The (flat monomial, coefficient) pairs in descending graded-lex order."""
        return sorted(self.terms.items(), key=lambda kv: _flat_sort_key(kv[0]))

    def __str__(self) -> str:
        return canonical_string(self)

    def __repr__(self) -> str:
        return f"Poly({canonical_string(self)})"

    def latex(self) -> str:
        return render_terms(self.sorted_terms(), _latex_var, _latex_coeff, " ")

    def to_json_obj(self) -> list:
        out = []
        for m, c in self.sorted_terms():
            mono = []
            for i in range(0, len(m), 2):
                fam = var_family(m[i])
                idx = None if fam == FAMILY_U else var_index(m[i])
                mono.append([_FAMILY_NAMES[fam], idx, m[i + 1]])
            out.append({"coeff": str(c), "monomial": mono})
        return out

    def __reduce__(self):
        # Slots differ between processes (each registers variables in the
        # order it meets them), so a pickle carries flat monomials.
        return (_unpickle_poly, (self.terms, type(self)))


def _unpickle_poly(terms: dict, cls: type) -> Poly:
    return cls._raw({_encode(m): c for m, c in terms.items()})


def _single_variable_slot(p: Poly) -> int:
    t = p._terms
    if len(t) == 1:
        (m, c), = t.items()
        bit = m.bit_length() - 1
        if c == 1 and m == 1 << bit and bit % _W == 0:
            return bit // _W
    raise DomainError(f"substitution key is not a bare variable: {p}")


# -- factories -----------------------------------------------------------------


const = Poly.constant


def _variable(family: int, index: int) -> Poly:
    return Poly._raw({1 << (_W * _slot(var_code(family, index))): 1})


def x(i: int) -> Poly:
    if i < 1:
        raise DomainError(f"x index must be >= 1, got {i}")
    return _variable(FAMILY_X, i)


def y(j: int) -> Poly:
    return _variable(FAMILY_Y, j)


def useq(j: int) -> Poly:
    return _variable(FAMILY_USEQ, j)


ZERO = Poly._raw({})
ONE = Poly._raw({0: 1})
u = _variable(FAMILY_U, 0)


# -- canonical rendering ---------------------------------------------------------


def _spelling(bases: tuple, power: str):
    """A factor formatter: bases[family] spells a variable from its index."""

    def factor_str(code: int, exp: int) -> str:
        base = bases[var_family(code)].format(var_index(code))
        return base if exp == 1 else power.format(base, exp)

    return factor_str


_var_str = _spelling(("u", "u[{}]", "y[{}]", "x{}"), "{}^{}")
_latex_var = _spelling(("u", "u_{{{}}}", "y_{{{}}}", "x_{{{}}}"), "{}^{{{}}}")


def render_terms(items, factor_str, coeff_str, sep: str) -> str:
    """Join sorted (monomial, coefficient) items into "a + b - c" form.

    factor_str(code, exp) spells one factor of a flat monomial, coeff_str
    spells a positive coefficient, and sep joins a term's coefficient and
    factors; a unit coefficient is left out unless the term is constant.
    """
    chunks = []
    for m, c in items:
        neg = c < 0
        mag = -c if neg else c
        factors = [factor_str(m[i], m[i + 1]) for i in range(0, len(m), 2)]
        if mag != 1 or not factors:
            factors.insert(0, coeff_str(mag))
        if chunks:
            chunks.append(" - " if neg else " + ")
        elif neg:
            chunks.append("-")
        chunks.append(sep.join(factors))
    return "".join(chunks) or "0"


def canonical_string(p: Poly) -> str:
    """Deterministic text form; equal strings iff structurally equal polynomials."""
    return render_terms(p.sorted_terms(), _var_str, str, "*")


def _latex_coeff(c) -> str:
    if isinstance(c, Fraction) and c.denominator != 1:
        sign = "-" if c < 0 else ""
        return f"{sign}\\tfrac{{{abs(c.numerator)}}}{{{c.denominator}}}"
    return str(c)


# -- division -------------------------------------------------------------------


def divide_exact(p: Poly, q: Poly) -> Poly:
    """Exact division p / q by q = lead*v + r, v the variable of q with the lowest slot,
    lead a nonzero constant and r free of v: any linear form; any other q raises
    DomainError.  From the top power of v down, the quotient's coefficient of v^(k-1) is
    (p_k - r*Q_k) / lead, where p_k, p's coefficient of v^k, is a group of packed terms
    that r*Q_k was subtracted from in place; a nonzero p_0 left raises InexactDivisionError."""
    low = reduce(or_, q._terms, 0)
    if not low:
        raise DomainError(f"division by the constant {q}" if q else "division by zero")
    shift = _W * (((low & -low).bit_length() - 1) // _W)
    field, step = _FIELD << shift, 1 << shift
    by_power = _group(q._terms, field)
    lead, r = by_power.pop(step, {}), by_power.pop(0, {}).items()
    if by_power or list(lead) != [0]:
        v = _var_str(_code_of[shift // _W], 1)
        raise DomainError(f"divisor {q} is not of degree one in {v} with a constant coefficient")
    inv = _int_if_integral(1 / Fraction(lead[0]))
    groups = _group(p._terms, field)
    quotient: dict = {}
    for k in range(max(groups, default=0), 0, -step):
        c = {m: _int_if_integral(cc * inv) for m, cc in groups.pop(k, {}).items()}
        # c lacks v, so the terms of different k share no monomial.
        quotient.update((m + k - step, cc) for m, cc in c.items())
        below = _add_into(groups.setdefault(k - step, {}),
                          ((m1 + m2, c1 * c2) for m2, c2 in c.items() for m1, c1 in r), -1)
        _check_exponents(below)
    if groups.get(0):
        raise InexactDivisionError("nonzero remainder in exact division")
    return Poly._raw(quotient)


def divide_linear(p: Poly, xi: int, xj: int) -> Poly:
    """Exact division of p by (x_xi - x_xj)."""
    return divide_exact(p, x(xi) - x(xj))


def poly_det(rows: list[list[Poly]]) -> Poly:
    """Determinant of a square matrix of polynomials, by cofactor expansion
    along the rows in order, memoized over column subsets for this call."""
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise DomainError("determinant of a non-square matrix")
    memo: dict[tuple, Poly] = {}

    def minor(cols: tuple) -> Poly:
        if not cols:
            return ONE
        val = memo.get(cols)
        if val is not None:
            return val
        row = rows[n - len(cols)]
        acc = ZERO
        for pos, cidx in enumerate(cols):
            entry = row[cidx]
            if not entry:
                continue
            sub = minor(cols[:pos] + cols[pos + 1:])
            if not sub:
                continue
            term = entry * sub
            acc = acc - term if pos % 2 else acc + term
        memo[cols] = acc
        return acc

    result = minor(tuple(range(n)))
    # minor refers to itself through its closure: break the cycle, so that
    # the memo is freed now and not at the next cyclic collection.
    del minor
    return result


# -- y-specializations ---------------------------------------------------------


class IntSeqWindow(namedtuple("IntSeqWindow", "lo values tail")):
    """A doubly infinite integer sequence described by a finite window plus
    an affine tail rule applied outside it."""

    __slots__ = ()

    def __new__(cls, lo: int, values: tuple[int, ...], tail: tuple[int, int] | None = None):
        # tail (a, b) is the rule k -> a*k + b.  Unpickling calls __new__
        # too, so a pickled window is checked again.
        if not values and tail is None:
            raise DomainError("window must be nonempty or have a tail rule")
        return super().__new__(cls, lo, values, tail)

    @property
    def hi(self) -> int:
        return self.lo + len(self.values) - 1

    def lookup(self, k: int) -> int:
        if self.values and self.lo <= k <= self.hi:
            return self.values[k - self.lo]
        if self.tail is None:
            raise UnresolvableIndexError(
                f"sequence index {k} outside window [{self.lo}, {self.hi}] and no tail rule"
            )
        a, b = self.tail
        return a * k + b

    def to_json_obj(self) -> dict:
        obj: dict = {"lo": self.lo, "values": list(self.values)}
        if self.tail is not None:
            obj["tail"] = list(self.tail)
        return obj


class YSpec(
    namedtuple(
        "YSpec",
        "kind a b d window shift",
        defaults=(0, 0, 0, None, 0),
    )
):
    """A finitely described substitution rule for the y sequence.

    kinds: symbolic (identity), zero (y_j -> 0), affine (y_j -> a*j + b),
    standard (y_j -> (j+d)*u), circle (y_j -> n_{j+d}*u for a window
    sequence n), torus (y_j -> u_{j+shift}).
    """

    __slots__ = ()

    @classmethod
    def symbolic(cls) -> "YSpec":
        return cls(kind="symbolic")

    @classmethod
    def zero(cls) -> "YSpec":
        return cls(kind="zero")

    @classmethod
    def affine(cls, a, b) -> "YSpec":
        # Text goes through parse_rational: Fraction would expand any exponent.
        a, b = (parse_rational(v) if isinstance(v, str) else v for v in (a, b))
        return cls(kind="affine", a=Fraction(a), b=Fraction(b))

    @classmethod
    def standard(cls, d: int) -> "YSpec":
        return cls(kind="standard", d=d)

    @classmethod
    def circle(cls, window: IntSeqWindow, d: int) -> "YSpec":
        return cls(kind="circle", d=d, window=window)

    @classmethod
    def torus(cls, shift: int) -> "YSpec":
        return cls(kind="torus", shift=shift)

    def value(self, j: int) -> Poly:
        """The polynomial substituted for y_j."""
        if self.kind == "symbolic":
            return y(j)
        if self.kind == "zero":
            return ZERO
        if self.kind == "affine":
            return const(self.a * j + self.b)
        if self.kind in ("standard", "circle"):
            k = j + self.d if self.kind == "standard" else self.window.lookup(j + self.d)
            # k*u as one term, without a product.
            return Poly._raw(dict.fromkeys(u._terms, k) if k else {})
        if self.kind == "torus":
            return useq(j + self.shift)
        raise DomainError(f"unknown yspec kind {self.kind!r}")

    def to_json_obj(self) -> dict:
        obj: dict = {"kind": self.kind}
        if self.kind == "affine":
            obj["a"] = str(self.a)
            obj["b"] = str(self.b)
        elif self.kind == "standard":
            obj["d"] = self.d
        elif self.kind == "circle":
            obj["d"] = self.d
            obj["window"] = self.window.to_json_obj()
        elif self.kind == "torus":
            obj["shift"] = self.shift
        return obj


SYMBOLIC = YSpec.symbolic()
