"""Double Schur functions, their shifted variant, and fixed-point restriction.

The double Schur function in n variables is computed either as a ratio of
two alternant determinants or through the generalized Jacobi-Trudi
determinant over complete double homogeneous functions; both are exact and
must agree.  The shifted variant precomposes with x_i -> x_i + y_{-i} and
shifts the y sequence by n+1, which makes it stable under adding variables.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DomainError, RankTooSmallError
from .partitions import Partition
from .polyring import (
    ONE,
    SYMBOLIC,
    ZERO,
    Poly,
    YSpec,
    divide_linear,
    poly_det,
    x,
    y,
)

METHODS = ("jacobi_trudi", "det_ratio")


def falling_factorial(i: int, p: int) -> Poly:
    """The product (x_i - y_1)(x_i - y_2)...(x_i - y_p); 1 when p = 0."""
    if p < 0:
        raise DomainError(f"falling factorial needs p >= 0, got {p}")
    return _falling_factorial(i, p)


@lru_cache(maxsize=None)
def _falling_factorial(i: int, p: int) -> Poly:
    if p == 0:
        return ONE
    return _falling_factorial(i, p - 1) * (x(i) - y(p))


@lru_cache(maxsize=None)
def _h(p: int, m: int, s: int, yspec: YSpec) -> Poly:
    # h_p in variables x_1..x_m with sequence argument tau^s y, built by
    # splitting the chain sum on whether x_m participates.  The
    # y-specialization is applied as factors are introduced, so a
    # specialized h never passes through the symbolic one; the zero rule
    # gives the classical complete homogeneous polynomial.
    if p < 0:
        return ZERO
    if p == 0:
        return ONE
    if m == 0:
        return ZERO
    factor = x(m) - yspec.value(m + p - 1 - s)
    return _h(p, m - 1, s, yspec) + factor * _h(p - 1, m, s, yspec)


def double_h(p: int, n: int, y_shift: int = 0) -> Poly:
    """Complete double homogeneous function h_p(x_1..x_n | tau^y_shift y).

    h_0 = 1 and h_p = 0 for negative p, as required by the off-diagonal
    entries of the Jacobi-Trudi determinant.
    """
    if n < 1:
        raise DomainError(f"double_h needs n >= 1, got {n}")
    return _h(p, n, y_shift, SYMBOLIC)


@lru_cache(maxsize=None)
def _jacobi_trudi(lam: Partition, n: int, yspec: YSpec) -> Poly:
    # Rows below l(lam) of the full n x n matrix are unit rows (h_0 on the
    # diagonal, zeros to the left), so the determinant collapses to its
    # top-left l(lam) x l(lam) block.  Column j takes the sequence shift
    # j-1, which the zero rule cannot see; its columns share shift 0.
    r = len(lam)
    step = 0 if yspec.kind == "zero" else 1
    rows = [
        [_h(lam.part(i) + j - i, n, (j - 1) * step, yspec) for j in range(1, r + 1)]
        for i in range(1, r + 1)
    ]
    return poly_det(rows)


def _det_ratio(lam: Partition, n: int) -> Poly:
    rows = [
        [_falling_factorial(i, lam.part(j) + n - j) for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]
    quotient = poly_det(rows)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            quotient = divide_linear(quotient, i, j)
    return quotient


def _check_args(name: str, lam: Partition, n: int, method: str) -> None:
    if n < len(lam):
        raise RankTooSmallError(f"need n >= l(lambda) = {len(lam)}, got n = {n}")
    if n < 1:
        raise DomainError(f"{name} needs n >= 1, got {n}")
    if method not in METHODS:
        raise DomainError(f"unknown method {method!r}; choose from {METHODS}")


def double_schur(
    lam: Partition, n: int, yspec: YSpec = SYMBOLIC, method: str = "jacobi_trudi"
) -> Poly:
    """The double Schur function of lam in x_1..x_n, then specialized."""
    lam = Partition(lam)
    _check_args("double_schur", lam, n, method)
    if method == "jacobi_trudi":
        return _jacobi_trudi(lam, n, yspec)
    return _det_ratio(lam, n).specialize_y(yspec)


def _shift(base: Poly, n: int, yspec: YSpec, delta: Partition | None = None) -> Poly:
    # Shift the sequence argument by n+1 and pass to the shifted coordinates
    # x_i -> x_i + y_{-i}; at the fixed point labeled by delta these are
    # x'_i = y_{delta_i - i}, so x_i -> y_{delta_i - i} instead.  Then
    # specialize y.
    values = {
        x(i): x(i) + y(-i) if delta is None else y(delta.part(i) - i)
        for i in range(1, n + 1)
    }
    return base.shift_y(n + 1).substitute(values).specialize_y(yspec)


@lru_cache(maxsize=None)
def _shifted(lam: Partition, n: int, yspec: YSpec) -> Poly:
    return _shift(_jacobi_trudi(lam, n, SYMBOLIC), n, yspec)


def shifted_double_schur(
    lam: Partition, n: int, yspec: YSpec = SYMBOLIC, method: str = "jacobi_trudi"
) -> Poly:
    """The shifted double Schur function of lam in x_1..x_n, then specialized."""
    lam = Partition(lam)
    _check_args("shifted_double_schur", lam, n, method)
    if method == "jacobi_trudi":
        return _shifted(lam, n, yspec)
    return _shift(_det_ratio(lam, n), n, yspec)


def shifted_schur_stable(lam: Partition, x_values, yspec: YSpec = SYMBOLIC) -> Poly:
    """The stable shifted Schur value at finitely many x arguments.

    x_values assigns x_1..x_m; later variables are zero.  The rank is
    chosen as max(m, l(lambda)+1), and by stability the result does not
    change for any larger choice.
    """
    lam = Partition(lam)
    values = list(x_values)
    n = max(len(values), len(lam) + 1)
    p = shifted_double_schur(lam, n, yspec)
    assignment = {x(i): (values[i - 1] if i <= len(values) else 0) for i in range(1, n + 1)}
    return p.substitute(assignment)


@lru_cache(maxsize=None)
def _restrict(lam: Partition, delta: Partition, n: int, yspec: YSpec) -> Poly:
    return _shift(_jacobi_trudi(lam, n, SYMBOLIC), n, yspec, delta)


def restrict_to_fixed_point(
    lam: Partition, delta: Partition, n: int, yspec: YSpec = SYMBOLIC
) -> Poly:
    """Evaluate the shifted double Schur function of lam at the fixed point
    labeled by delta, then specialize y."""
    lam = Partition(lam)
    delta = Partition(delta)
    if n < len(lam) or n < len(delta):
        raise RankTooSmallError(
            f"need n >= l(lambda) = {len(lam)} and n >= l(delta) = {len(delta)}, got n = {n}"
        )
    return _restrict(lam, delta, n, yspec)


def vandermonde(n: int) -> Poly:
    """The product of (x_i - x_j) over 1 <= i < j <= n."""
    out = ONE
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out = out * (x(i) - x(j))
    return out


def alternant_denominator(n: int) -> Poly:
    """det[(x_i|y)^{n-j}], which must equal the Vandermonde product."""
    rows = [
        [_falling_factorial(i, n - j) for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]
    return poly_det(rows)
