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
the next field.  At the boundary (Poly(terms), Poly.terms, leading_term,
rendering, JSON and pickling) a monomial is a flat tuple
(code, exp, code, exp, ...) with codes strictly increasing and exponents
positive.

The doubly infinite y sequence is never materialized: a YSpec describes a
substitution rule finitely and is asked only for the indices a polynomial
actually contains.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
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


def _x_split(terms: dict) -> dict[int, dict]:
    """Group packed terms by x part: {x part: {non-x part: coefficient}}."""
    groups: dict[int, dict] = {}
    mask = _X_MASK
    for m, c in terms.items():
        xm = m & mask
        groups.setdefault(xm, {})[m ^ xm] = c
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


def _parse_coeff(text: str):
    f = Fraction(text)
    return int(f) if f.denominator == 1 else f


class Poly:
    """An immutable exact polynomial.

    Supports +, -, *, ** with other polynomials and with ints/Fractions.
    Construction goes through the module factories (x, y, useq, u, const)
    or classmethods; the term dict is never mutated after construction.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[tuple, object] | None = None):
        clean = {}
        if terms:
            for m, c in terms.items():
                if isinstance(c, Fraction) and c.denominator == 1:
                    c = int(c)
                if c:
                    clean[_encode(m)] = c
        self._terms = clean
        self._hash = None

    @classmethod
    def _raw(cls, terms: dict) -> "Poly":
        # Internal fast path: `terms` is already canonical, packed and owned
        # by us.
        p = object.__new__(cls)
        p._terms = terms
        p._hash = None
        return p

    @classmethod
    def constant(cls, value) -> "Poly":
        """The constant polynomial with the given int or Fraction value."""
        if isinstance(value, Fraction) and value.denominator == 1:
            value = int(value)
        return cls._raw({0: value} if value else {})

    # -- basic queries ----------------------------------------------------

    @property
    def terms(self) -> dict:
        """The monomial -> coefficient map, monomials as flat tuples."""
        return {_decode(m): c for m, c in self._terms.items()}

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(map(_mono_degree, self._terms), default=-1)

    def x_degree(self) -> int:
        """Total degree in the x variables only; -1 for zero."""
        return max((_mono_degree(m & _X_MASK) for m in self._terms), default=-1)

    def variables(self) -> set[int]:
        return {_code_of[s] for m in self._terms for s, _ in _fields(m)}

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
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    # -- arithmetic ---------------------------------------------------------

    # Results are built with self._raw so that subclasses (PowerPolynomial)
    # keep their class through arithmetic.

    def __add__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = self.constant(other)
        elif not isinstance(other, Poly):
            return NotImplemented
        a, b = self._terms, other._terms
        if not a:
            return other
        if not b:
            return self
        out = dict(a)
        for m, c in b.items():
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s = s + c
                if s:
                    out[m] = s
                else:
                    del out[m]
        return self._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return self._raw({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = self.constant(other)
        elif not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            if not other:
                return self._raw({})
            if other == 1:
                return self
            other = self.constant(other)
        elif not isinstance(other, Poly):
            return NotImplemented
        a, b = self._terms, other._terms
        if not a or not b:
            return self._raw({})
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

        One pass over the terms; the power of each substituted value is
        computed once per (slot, exponent).  A one-term power is folded into
        the packed monomial and the coefficient, a longer one multiplied in.
        """
        table: dict[int, Poly] = {}
        for key, value in assignment.items():
            s = _single_variable_slot(key)
            if s in table:
                raise DomainError("duplicate variable in substitution")
            table[s] = value if isinstance(value, Poly) else const(value)
        if not table:
            return self
        mask = sum(_FIELD << (_W * s) for s in table)
        # (slot, exponent) -> (monomial, coefficient) for a one-term power,
        # else the power itself (ZERO included).
        powers: dict[tuple[int, int], object] = {}
        acc: dict = {}
        for m, c in self._terms.items():
            hits = m & mask
            mono = m ^ hits
            rest = None  # the product of the multi-term powers
            for s, e in _fields(hits):
                pw = powers.get((s, e))
                if pw is None:
                    pw = table[s] ** e
                    if len(pw._terms) == 1:
                        (pw,) = pw._terms.items()
                    powers[(s, e)] = pw
                if pw.__class__ is tuple:
                    # Two valid monomials: an overflow sets a guard bit and
                    # carries no further.
                    mono += pw[0]
                    if mono & _GUARD:
                        raise _overflow()
                    c = c * pw[1]
                else:
                    rest = pw if rest is None else rest * pw
            if rest is None:
                acc[mono] = acc.get(mono, 0) + c
            else:
                for mm, cc in (Poly._raw({mono: c}) * rest)._terms.items():
                    acc[mm] = acc.get(mm, 0) + cc
        return Poly._raw({m: c for m, c in acc.items() if c})

    def specialize_y(self, spec: "YSpec") -> "Poly":
        """Apply a y-specialization rule to every y_j occurrence."""
        if spec.kind == "symbolic":
            return self
        return self.substitute({y(j): spec.value(j) for j in self.y_indices()})

    # -- rendering ------------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple, object]]:
        """The (flat monomial, coefficient) pairs in descending graded-lex order."""
        return sorted(self.terms.items(), key=lambda kv: _flat_sort_key(kv[0]))

    def __str__(self) -> str:
        return canonical_string(self)

    def __repr__(self) -> str:
        return f"Poly({canonical_string(self)})"

    def latex(self) -> str:
        return _latex_string(self)

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

    @classmethod
    def from_json_obj(cls, obj: list) -> "Poly":
        terms = {}
        for entry in obj:
            mono = []
            for fam_name, idx, exp in entry["monomial"]:
                if fam_name == "x":
                    fam = FAMILY_X
                elif fam_name == "y":
                    fam = FAMILY_Y
                elif fam_name == "u":
                    fam = FAMILY_U if idx is None else FAMILY_USEQ
                else:
                    raise DomainError(f"unknown variable family {fam_name!r}")
                mono.append(var_code(fam, 0 if idx is None else idx))
                mono.append(exp)
            terms[tuple(mono)] = _parse_coeff(entry["coeff"])
        return cls(terms)

    def __reduce__(self):
        # Slots differ between processes (a forked worker registers
        # variables in its own order), so a pickle carries flat monomials.
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


def _latex_string(p: Poly) -> str:
    return render_terms(p.sorted_terms(), _latex_var, _latex_coeff, " ")


# -- leading terms and division ---------------------------------------------------


def _leading(p: Poly) -> tuple[int, object]:
    if not p._terms:
        raise DomainError("zero polynomial has no leading term")
    m = min(p._terms, key=_mono_sort_key)
    return m, p._terms[m]


def leading_term(p: Poly) -> tuple[tuple, object]:
    """The graded-lex maximal term (flat monomial, coefficient)."""
    m, c = _leading(p)
    return _decode(m), c


def divide_exact(p: Poly, q: Poly) -> Poly:
    """Exact division p / q; raises InexactDivisionError if q does not divide p."""
    if not q:
        raise DomainError("division by the zero polynomial")
    if not p:
        return ZERO
    qm, qc = _leading(q)
    if not qm:
        inv = Fraction(1, 1) / qc
        return p * inv
    quotient: dict = {}
    rem = p
    while rem:
        m, c = _leading(rem)
        # qm divides m iff no field of m - qm borrowed, i.e. no guard bit.
        fac_m = m - qm
        if fac_m & _GUARD:
            raise InexactDivisionError(
                f"leading monomial not divisible; remainder {canonical_string(rem)}"
            )
        fac_c = c / qc if isinstance(c, Fraction) or isinstance(qc, Fraction) else Fraction(c, qc)
        if fac_c.denominator == 1:
            fac_c = int(fac_c)
        quotient[fac_m] = fac_c
        rem = rem - Poly._raw({fac_m: fac_c}) * q
    return Poly._raw(quotient)


def divide_linear(p: Poly, xi: int, xj: int) -> Poly:
    """Exact division of p by (x_xi - x_xj) via synthetic division in x_xi."""
    shift = _W * _slot(var_code(FAMILY_X, xi))
    xjp = x(xj)
    # Coefficients of p as a univariate polynomial in x_xi.
    by_power: dict[int, dict] = {}
    for m, c in p._terms.items():
        e = (m >> shift) & _FIELD
        by_power.setdefault(e, {})[m - (e << shift)] = c
    deg = max(by_power) if by_power else 0
    if deg == 0:
        if p:
            raise InexactDivisionError("nonzero remainder in linear division")
        return ZERO
    carry = ZERO
    quotient: dict = {}
    for k in range(deg, 0, -1):
        carry = carry + Poly._raw(by_power.get(k, {}))
        # Every carry term lacks x_xi and k - 1 < deg fits the field; the
        # terms of step k are the only ones with x_xi^(k-1), so none collide.
        raise_k = (k - 1) << shift
        quotient.update((m + raise_k, c) for m, c in carry._terms.items())
        carry = carry * xjp
    remainder = carry + Poly._raw(by_power.get(0, {}))
    if remainder:
        raise InexactDivisionError("nonzero remainder in linear division")
    return Poly._raw(quotient)


def poly_det(rows: list[list[Poly]]) -> Poly:
    """Determinant of a square matrix of polynomials.

    Cofactor expansion with memoization over column subsets; rows are
    processed sparsest-first so structurally triangular blocks prune early.
    The memo lives and dies inside this call.
    """
    n = len(rows)
    if n == 0:
        return ONE
    for r in rows:
        if len(r) != n:
            raise DomainError("determinant of a non-square matrix")
    order = sorted(range(n), key=lambda r: (sum(1 for e in rows[r] if e), r))
    inversions = sum(
        1 for a in range(n) for b in range(a + 1, n) if order[a] > order[b]
    )
    sign = -1 if inversions % 2 else 1
    memo: dict[tuple, Poly] = {}

    def minor(cols: tuple) -> Poly:
        if not cols:
            return ONE
        val = memo.get(cols)
        if val is not None:
            return val
        row = rows[order[n - len(cols)]]
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
    return result if sign == 1 else -result


# -- y-specializations ---------------------------------------------------------


@dataclass(frozen=True)
class IntSeqWindow:
    """A doubly infinite integer sequence described by a finite window plus
    an affine tail rule applied outside it."""

    lo: int
    values: tuple[int, ...]
    tail: tuple[int, int] | None = None  # (a, b): k -> a*k + b

    def __post_init__(self):
        if not self.values and self.tail is None:
            raise DomainError("window must be nonempty or have a tail rule")

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

    @classmethod
    def from_json_obj(cls, obj: dict) -> "IntSeqWindow":
        tail = tuple(obj["tail"]) if obj.get("tail") is not None else None
        return cls(lo=obj["lo"], values=tuple(obj["values"]), tail=tail)


@dataclass(frozen=True)
class YSpec:
    """A finitely described substitution rule for the y sequence.

    kinds: symbolic (identity), zero (y_j -> 0), affine (y_j -> a*j + b),
    standard (y_j -> (j+d)*u), circle (y_j -> n_{j+d}*u for a window
    sequence n), torus (y_j -> u_{j+shift}).
    """

    kind: str
    a: Fraction = Fraction(0)
    b: Fraction = Fraction(0)
    d: int = 0
    window: IntSeqWindow | None = None
    shift: int = 0

    # Every _jacobi_trudi cache lookup hashes the spec, and hashing
    # the Fraction fields anew each time is slow: hash once per instance.
    # Equality stays the generated field-by-field comparison.
    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(self._astuple()))

    def _astuple(self) -> tuple:
        return (self.kind, self.a, self.b, self.d, self.window, self.shift)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through __init__ so that the receiving process hashes anew.
        return (type(self), self._astuple())

    @classmethod
    def symbolic(cls) -> "YSpec":
        return cls(kind="symbolic")

    @classmethod
    def zero(cls) -> "YSpec":
        return cls(kind="zero")

    @classmethod
    def affine(cls, a, b) -> "YSpec":
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
        if self.kind == "standard":
            return u * (j + self.d)
        if self.kind == "circle":
            return u * self.window.lookup(j + self.d)
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

    @classmethod
    def from_json_obj(cls, obj: dict) -> "YSpec":
        kind = obj["kind"]
        if kind == "symbolic":
            return cls.symbolic()
        if kind == "zero":
            return cls.zero()
        if kind == "affine":
            return cls.affine(Fraction(obj["a"]), Fraction(obj["b"]))
        if kind == "standard":
            return cls.standard(obj["d"])
        if kind == "circle":
            return cls.circle(IntSeqWindow.from_json_obj(obj["window"]), obj["d"])
        if kind == "torus":
            return cls.torus(obj["shift"])
        raise DomainError(f"unknown yspec kind {kind!r}")

    def describe(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)


SYMBOLIC = YSpec.symbolic()
