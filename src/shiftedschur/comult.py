"""Shifted power sums and the even/odd comultiplication.

The direct-sum map on the even/odd splitting pulls a power sum back to an
even part and an odd part; relabeling each part onto the full variable set
exhibits the power sums as primitive elements.  The coproduct on formal
power-sum polynomials extends this multiplicatively.
"""

from __future__ import annotations

import re
import reprlib
import time
from collections import namedtuple
from fractions import Fraction
from math import comb, prod
from typing import Iterable

from .errors import DomainError
from .polyring import (
    FAMILY_USEQ,
    FAMILY_X,
    ONE,
    SYMBOLIC,
    ZERO,
    Poly,
    YSpec,
    _add_into,
    _encode,
    parse_rational,
    render_terms,
    useq,
    var_code,
    var_family,
    var_index,
    x,
    y,
)


def shifted_power_sum(k: int, n: int, yspec: YSpec = SYMBOLIC) -> Poly:
    """Sum of (x_i + y_{-i})^k - y_{-i}^k over i = 1..n, then specialized."""
    if k < 1:
        raise DomainError(f"power sum index must be >= 1, got {k}")
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    total = ZERO
    for i in range(1, n + 1):
        total = total + ((x(i) + y(-i)) ** k - y(-i) ** k)
    return total.specialize_y(yspec)


def _torus_power_sum(k: int, indices) -> Poly:
    return sum((x(i) ** k - useq(-i) ** k for i in indices), ZERO)


def power_sum_torus(k: int, l: int) -> Poly:
    """Sum of x_i^k - u_{-i}^k over i = 1..l (the torus-weight coordinates)."""
    if k < 1:
        raise DomainError(f"power sum index must be >= 1, got {k}")
    if l < 1:
        raise DomainError(f"need l >= 1, got {l}")
    return _torus_power_sum(k, range(1, l + 1))


def rho_pullback_power_sum(k: int, l: int) -> tuple[Poly, Poly]:
    """The even and odd parts of the pullback of the k-th power sum at rank l.

    even part: p_k over x_2, x_4, ..., x_{2*floor(l/2)} with weights u_{-2i};
    odd part:  p_k over x_1, x_3, ..., x_{2*floor((l-1)/2)+1} with weights
    u_{-2i+1}.  Their sum is the full power sum with the index set split by
    parity.
    """
    if k < 1:
        raise DomainError(f"power sum index must be >= 1, got {k}")
    if l < 2:
        raise DomainError(f"need l >= 2, got {l}")
    return _torus_power_sum(k, range(2, l + 1, 2)), _torus_power_sum(k, range(1, l + 1, 2))


def _relabel(p: Poly, parity: int) -> Poly:
    """Apply the parity relabeling: x_{2k} -> x_k, u_{2k} -> u_k for even;
    x_{2k+1} -> x_{k+1}, u_{2k+1} -> u_k for odd."""

    def fn(code: int) -> int:
        fam = var_family(code)
        idx = var_index(code)
        if fam not in (FAMILY_X, FAMILY_USEQ):
            raise DomainError(
                f"relabeling admits only x and torus-weight variables, found family {fam}"
            )
        if idx % 2 != parity % 2:
            raise DomainError(
                f"variable of index {idx} violates the parity {parity} requirement"
            )
        return var_code(fam, (idx + parity) // 2 if fam == FAMILY_X else idx // 2)

    return p.substitute(
        {Poly({(code, 1): 1}): Poly({(fn(code), 1): 1}) for code in sorted(p.variables())}
    )


def relabel_even_odd(even: Poly, odd: Poly) -> "TensorElement":
    """Relabel the parity-split parts onto the full index set and form
    (even relabeled) (x) 1 + 1 (x) (odd relabeled)."""
    return TensorElement(
        [(_relabel(even, 0), ONE), (ONE, _relabel(odd, 1))]
    )


class TensorElement:
    """A finite sum of weighted left (x) right pairs over a commutative ring.

    Works for any Poly (PowerPolynomial included): it needs the sparse
    term dict, *, + and a string form.
    Equality is true bilinear equality, decided on the fully expanded
    coefficient table, not on how the summands happen to be grouped.
    """

    def __init__(self, summands: Iterable = ()):
        entries = (entry if len(entry) == 3 else (*entry, 1) for entry in summands)
        self._table = _add_into({}, (((l, r), w) for l, r, w in entries if l and r and w))

    def named_summands(self) -> list:
        """(str(left), str(right), left, right, w) for each summand, ordered by the
        two strings; each distinct side is rendered once."""
        names = {s: str(s) for s in dict.fromkeys(s for pair in self._table for s in pair)}
        summands = ((names[l], names[r], l, r, w) for (l, r), w in self._table.items())
        return sorted(summands, key=lambda s: s[:2])

    @property
    def summands(self) -> list:
        return [s[2:] for s in self.named_summands()]

    def _expanded(self) -> dict:
        return _add_into({}, (
            ((ml, mr), w * cl * cr)
            for (left, right), w in self._table.items()
            for ml, cl in left._terms.items()
            for mr, cr in right._terms.items()
        ))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self._expanded() == other._expanded()

    def __add__(self, other: "TensorElement") -> "TensorElement":
        merged = [(l, r, w) for (l, r), w in self._table.items()]
        merged.extend((l, r, w) for (l, r), w in other._table.items())
        return TensorElement(merged)

    def __mul__(self, other: "TensorElement") -> "TensorElement":
        out = []
        for (l1, r1), w1 in self._table.items():
            for (l2, r2), w2 in other._table.items():
                out.append((l1 * l2, r1 * r2, w1 * w2))
        return TensorElement(out)

    def to_json_obj(self) -> dict:
        return {"summands": [{"weight": str(w), "left": l, "right": r}
                             for l, r, _, _, w in self.named_summands()]}

    def __str__(self) -> str:
        chunks = []
        for left, right, _, _, w in self.named_summands():
            body = f"({left}) (x) ({right})"
            if w != 1:
                body = f"{w}*{body}"
            chunks.append(body)
        return " + ".join(chunks) or "0"

    def __repr__(self) -> str:
        return f"TensorElement({self})"


_GEN_RE = re.compile(r"^p(\d+)(?:\^(\d+))?$")


class PowerPolynomial(Poly):
    """A formal polynomial with rational coefficients in generators p_1, p_2, ...

    The sparse core is Poly's, packed monomials and slot registry included:
    generator indices play the part of variable codes, so the flat form of
    a monomial is (k1, e1, k2, e2, ...) with k1 < k2 < ...  Only
    construction and rendering are specific.
    """

    __slots__ = ()

    # An own class entry, so that the product can be looked up (and timed)
    # on this class separately from Poly's.
    __mul__ = __rmul__ = Poly.__mul__

    @classmethod
    def parse(cls, text: str) -> "PowerPolynomial":
        """Parse expressions like "p1^2*p3 - 1/2*p2 + 3"."""
        text = text.replace(" ", "")
        if not text:
            raise DomainError("empty power-sum expression")
        total = cls()
        # A sign after a decimal exponent's "e" (1e-3) does not start a term.
        parts = re.split(r"(?<![0-9.][eE])([+-])", text if text[0] in "+-" else "+" + text)
        for sign, chunk in zip(parts[1::2], parts[2::2]):
            if not chunk:
                raise DomainError(f"malformed power-sum expression {reprlib.repr(text)}")
            coeff = Fraction(-1 if sign == "-" else 1)
            mono: dict[int, int] = {}
            for factor in chunk.split("*"):
                m = _GEN_RE.match(factor)
                if m:
                    try:
                        k, e = int(m.group(1)), int(m.group(2) or 1)
                    except ValueError:  # more digits than int() reads
                        k = e = 0
                    if k < 1 or e < 1:
                        raise DomainError(f"bad generator factor {reprlib.repr(factor)}")
                    mono[k] = mono.get(k, 0) + e
                else:
                    try:
                        coeff *= parse_rational(factor)
                    except ValueError:
                        raise DomainError(
                            f"bad factor {reprlib.repr(factor)} in power-sum expression"
                        ) from None
            flat = []
            for k in sorted(mono):
                flat.append(k)
                flat.append(mono[k])
            total = total + cls({tuple(flat): coeff})
        return total

    def __str__(self) -> str:
        # Ascending total degree, then generator index, higher powers first.
        def mono_key(item):
            m = item[0]
            return (sum(m[1::2]), tuple((m[i], -m[i + 1]) for i in range(0, len(m), 2)))

        items = sorted(self.terms.items(), key=mono_key)
        return render_terms(items, _generator_str, str, "*")

    def __repr__(self) -> str:
        return f"PowerPolynomial({self})"


def _generator_str(k: int, e: int) -> str:
    return f"p{k}" if e == 1 else f"p{k}^{e}"


# The coproduct of a monomial prod p_k^{e_k} has prod (e_k + 1) summands; an
# expression whose monomials add up to more than this is refused before it
# is expanded.  At the limit a coproduct takes about 3 s and 300 MB on a
# 2-CPU x86-64 host; 999,000 summands took 30 s and 2.6 GB.
MAX_COPRODUCT_SUMMANDS = 10**5


def coproduct_power_polynomial(expr) -> TensorElement:
    """Apply the coproduct p_k -> p_k (x) 1 + 1 (x) p_k multiplicatively.

    Raises DomainError if the expansion could have more than
    MAX_COPRODUCT_SUMMANDS summands, and ValueError from str() if the central
    summand c * prod C(e_k, e_k // 2) of a monomial c * prod p_k^e_k has a
    weight longer than sys.get_int_max_str_digits() allows.
    """
    if isinstance(expr, str):
        expr = PowerPolynomial.parse(expr)
    terms = expr.terms
    bound = sum(prod(e + 1 for e in m[1::2]) for m in terms)
    if bound > MAX_COPRODUCT_SUMMANDS:
        raise DomainError(
            f"the coproduct has up to {bound} summands, more than the limit "
            f"{MAX_COPRODUCT_SUMMANDS}"
        )
    # str() refuses a weight too long to print, before any summand is built.
    for m, c in terms.items():
        str(c * prod(comb(e, e // 2) for e in m[1::2]))
    tensor = TensorElement()
    for m, c in terms.items():
        # The summands (prod p_k^j_k, prod p_k^(e_k - j_k), c * prod C(e_k, j_k)), each
        # binomial taken from the one before it.  The j run through their grid in lex
        # order and the e - j run through it backwards, so each left side, encoded once,
        # is the right side of the mirrored summand.  No pair repeats, as l * r is m.
        partial = [((), c)]
        for k, e in zip(m[::2], m[1::2]):
            row, b = [], 1
            for j in range(e + 1):
                if j:
                    b = b * (e - j + 1) // j
                row.append(((k, j), b))
            partial = [(l + lj, w * bj) for l, w in partial for lj, bj in row]
        sides = [PowerPolynomial._raw({_encode(l): 1}) for l, _ in partial]
        tensor._table.update(((l, r), w) for l, r, (_, w) in zip(sides, reversed(sides), partial))
    return tensor


PrimitivityReport = namedtuple(
    "PrimitivityReport", "k l passed lhs rhs even_rank odd_rank seconds"
)


def verify_primitivity(k: int, l: int) -> PrimitivityReport:
    """Check that the relabeled pullback of the k-th power sum equals
    p_k (x) 1 + 1 (x) p_k at the matching truncations."""
    start = time.perf_counter()
    even, odd = rho_pullback_power_sum(k, l)
    lhs = relabel_even_odd(even, odd)
    even_rank = l // 2
    odd_rank = (l - 1) // 2 + 1
    rhs = TensorElement(
        [
            (power_sum_torus(k, even_rank), ONE),
            (ONE, power_sum_torus(k, odd_rank)),
        ]
    )
    passed = lhs == rhs
    elapsed = time.perf_counter() - start
    return PrimitivityReport(
        k=k,
        l=l,
        passed=passed,
        lhs=str(lhs),
        rhs=str(rhs),
        even_rank=even_rank,
        odd_rank=odd_rank,
        seconds=elapsed,
    )
