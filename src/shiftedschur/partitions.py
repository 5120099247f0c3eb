"""Partitions, skew shapes, standard-tableau counting and Molev's hook-function sum.

Partitions are stored without trailing zeros, so structural equality and
hashing coincide with mathematical equality.  The canonical total order
used everywhere for deterministic output is: weight ascending, then
descending lexicographic among equal weights.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from typing import Iterable, Iterator

from .errors import DomainError


class Partition(tuple):
    """A weakly decreasing tuple of positive integers; () is the empty partition."""

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        parts = tuple(int(p) for p in parts)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        for i, p in enumerate(parts):
            if p < 0:
                raise DomainError(f"negative part {p} in partition {parts}")
            if p == 0:
                raise DomainError(f"interior zero part in partition {parts}")
            if i + 1 < len(parts) and parts[i + 1] > p:
                raise DomainError(f"parts not weakly decreasing: {parts}")
        return super().__new__(cls, parts)

    @property
    def weight(self) -> int:
        return sum(self)

    def part(self, i: int) -> int:
        """The 1-indexed part, 0 beyond the length."""
        return self[i - 1] if 1 <= i <= len(self) else 0

    def conjugate(self) -> "Partition":
        """The transposed diagram: its part j counts the parts of self that are >= j."""
        columns = (sum(q >= j for q in self) for j in range(1, self.part(1) + 1))
        return tuple.__new__(Partition, columns)

    def __repr__(self) -> str:
        return f"Partition({tuple(self)!r})"


EMPTY = Partition()


def parse_partition(text: str) -> Partition:
    """Parse a comma-separated list of parts; "" and "0" give the empty partition."""
    text = text.strip()
    if text in ("", "0"):
        return EMPTY
    parts = []
    for token in text.split(","):
        token = token.strip()
        try:
            parts.append(int(token))
        except ValueError:
            raise DomainError(f"non-integer part {token!r} in partition {text!r}") from None
    return Partition(parts)


def contains(outer: Iterable[int], inner: Iterable[int]) -> bool:
    """Containment of Young diagrams: inner[i] <= outer[i] with zero padding."""
    outer = tuple(outer)
    inner = tuple(inner)
    if len(inner) > len(outer) and any(p > 0 for p in inner[len(outer):]):
        return False
    return all(q <= p for p, q in zip(outer, inner))


class SkewShape(namedtuple("SkewShape", "outer inner")):
    """A skew diagram outer/inner; construction checks inner is contained in outer."""

    __slots__ = ()

    def __new__(cls, outer: Partition, inner: Partition = EMPTY):
        outer = Partition(outer)
        inner = Partition(inner)
        if not contains(outer, inner):
            raise DomainError(f"{inner} is not contained in {outer}")
        return super().__new__(cls, outer, inner)

    @property
    def size(self) -> int:
        return self.outer.weight - self.inner.weight


@lru_cache(maxsize=1 << 16)  # molev's hook sums read each skew shape many times
def hook_h(shape: SkewShape) -> Fraction:
    """|shape|! divided by the number of standard tableaux of the shape (1 for the empty shape).

    By Aitken's determinant the count is |shape|! * det[1/(outer_i - inner_j - i + j)!]
    (1/k! = 0 for k < 0), so hook_h is 1/det; count_standard_tableaux reads it.  Row i is
    scaled by (outer_i - i + r)! to make the entries integers, the determinant is taken by
    Bareiss's fraction-free elimination, and hook_h is the product of the scales over it.
    """
    outer, inner = shape.outer, shape.inner
    if outer.part(1) < len(outer):  # h(outer/inner) = h(outer'/inner'), with fewer rows
        outer, inner = outer.conjugate(), inner.conjugate()
    r = len(outer)
    try:
        tops = [factorial(outer.part(i) - i + r) for i in range(1, r + 1)]
    except OverflowError:  # factorial takes no argument past sys.maxsize
        outer, inner = (",".join(map(str, p)) for p in shape)
        raise DomainError(f"the skew shape ({outer})/({inner}) is too large for the "
                          "hook function's factorials") from None
    rows = []
    for i in range(1, r + 1):
        ks = [outer.part(i) - inner.part(j) - i + j for j in range(1, r + 1)]
        rows.append([tops[i - 1] // factorial(k) if k >= 0 else 0 for k in ks])
    prev = 1
    for c in range(r):
        # The pivot is the leading (c+1)-minor: the scaled determinant for
        # the first c+1 rows of the shape, which is positive.
        head = rows[c]
        for k in range(c + 1, r):
            row = rows[k]
            rows[k] = [(row[j] * head[c] - row[c] * head[j]) // prev for j in range(r)]
        prev = head[c]
    return Fraction(prod(tops), prev)


def count_standard_tableaux(shape: SkewShape) -> int:
    """Number of standard tableaux of the skew shape: |shape|! divided by hook_h(shape)."""
    h = hook_h(shape)
    return factorial(shape.size) * h.denominator // h.numerator


def _union(lam: Partition, mu: Partition) -> Partition:
    """lam ∪ mu, the smallest partition containing both."""
    return Partition(max(lam.part(i), mu.part(i)) for i in range(1, max(len(lam), len(mu)) + 1))


def molev_coefficient(lam, mu, nu) -> Fraction:
    """The hook-function alternating sum over lam,mu <= rho <= nu (Molev-Sagan).

    The full structure constant under the standard action is this value
    times u^(|lam|+|mu|-|nu|); the sum is 0 when no admissible rho exists.
    """
    lam = Partition(lam)
    mu = Partition(mu)
    nu = Partition(nu)
    total = Fraction(0)
    for rho in partitions_between(_union(lam, mu), nu):
        sign = -1 if (nu.weight - rho.weight) % 2 else 1
        total += (
            sign
            * hook_h(SkewShape(rho))
            / (
                hook_h(SkewShape(nu, rho))
                * hook_h(SkewShape(rho, lam))
                * hook_h(SkewShape(rho, mu))
            )
        )
    return total


def canonical_key(p: Partition) -> tuple:
    """Sort key realizing the canonical order: weight, then descending lex."""
    return (sum(p), tuple(-a for a in p))


def _partitions_of(total: int, lower: tuple, cap: tuple, i=0, prev=0) -> Iterator[tuple]:
    # Yields, in descending lexicographic order, the partitions of `total`
    # with lower_i <= rho_i <= cap_i in every row (lower padded with zeros,
    # rho no longer than cap): one weight of an interval of Young's lattice.
    # Rows 0..i-1 are placed, and prev is the last of them (0 before any).  A row
    # takes at most what the lower bounds of the rows below it leave of total.
    if not total:
        if i >= len(lower):
            yield ()
    elif i < len(cap):
        low = lower[i] if i < len(lower) else 1
        for first in range(min(total - sum(lower[i + 1:]), cap[i], prev or total), low - 1, -1):
            for rest in _partitions_of(total - first, lower, cap, i + 1, first):
                yield (first,) + rest


def _interval(lower: tuple, cap: tuple, top: int) -> list[Partition]:
    # The partitions of weight <= top in the interval, canonically ordered;
    # the generator yields partitions only, so Partition's checks are skipped.
    weights = range(sum(lower), top + 1)
    return [tuple.__new__(Partition, p) for w in weights for p in _partitions_of(w, lower, cap)]


def partitions_up_to(weight: int, max_length: int) -> list[Partition]:
    """All partitions of weight <= `weight` and length <= `max_length`, canonically ordered."""
    if weight < 0 or max_length < 0:
        raise DomainError("weight and max_length must be nonnegative")
    return _interval((), (weight,) * min(weight, max_length), weight)


def partitions_between(lower: Partition, upper: Partition) -> list[Partition]:
    """All partitions lower <= rho <= upper in containment order, canonically ordered."""
    return _interval(lower, upper, upper.weight)
