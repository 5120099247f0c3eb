"""Double Schur functions, their shifted variant, and fixed-point restriction.

The double Schur function in n variables is computed either as a ratio of
two alternant determinants or through the generalized Jacobi-Trudi
determinant over complete double homogeneous functions; both are exact and
must agree.  The shifted variant precomposes with x_i -> x_i + y_{-i} and
shifts the y sequence by n+1, which makes it stable under adding variables.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DomainError, RankTooSmallError, UnresolvableIndexError
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


def _falling_powers(i: int, top: int) -> list[Poly]:
    # (x_i|y)^p for p = 0..top as running products.
    powers = [ONE]
    for p in range(1, top + 1):
        powers.append(powers[-1] * (x(i) - y(p)))
    return powers


def falling_factorial(i: int, p: int) -> Poly:
    """The product (x_i - y_1)(x_i - y_2)...(x_i - y_p); 1 when p = 0."""
    if p < 0:
        raise DomainError(f"falling factorial needs p >= 0, got {p}")
    return _falling_powers(i, p)[p]


# The table of one column may hold at most this many terms at once; a
# column that would hold more is refused (DomainError) while it is filled.
# The largest table the tests and the benchmark references fill holds
# 180,901 terms (schur --lambda 600 --n 2 --y zero); the symbolic
# schur --lambda 20 --n 2, whose h_p at the first variable has 2^p terms,
# is refused at 262,143 of them, near 50 MB on an x86-64 host.
MAX_H_TERMS = 250_000


def _h_column(top: int, s: int, yspec: YSpec, point: tuple) -> list[Poly]:
    """h_0..h_top(x_1..x_n | tau^s y) at x_i = point[i-1], n = len(point).

    The table is filled over the variables by splitting the chain sum on
    whether x_m participates, h_p(m) = h_p(m-1) + (x_m - y_{m+p-1-s}) h_{p-1}(m),
    keeping only the current m.  Evaluation is a ring map, so the point and
    the y-specialization enter as the factors are built; the zero rule at
    the point x gives the classical complete homogeneous polynomials.
    Raises DomainError once the table holds more than MAX_H_TERMS terms.
    """
    n = len(point)
    # The y values are asked for top down, so a window without a tail rule
    # reports the highest index it lacks.
    ys = {k: yspec.value(k) for k in range(n + top - 1 - s, -s, -1)}
    h = [ONE] + [ZERO] * top
    held = 1
    for m in range(1, n + 1):
        xm = point[m - 1]
        for p in range(1, top + 1):
            cell = h[p] + (xm - ys[m + p - 1 - s]) * h[p - 1]
            held += len(cell) - len(h[p])
            if held > MAX_H_TERMS:
                raise DomainError(
                    f"the table h_0..h_{top} exceeds the limit of {MAX_H_TERMS} terms"
                )
            h[p] = cell
    return h


def _xs(n: int) -> tuple:
    return tuple(x(i) for i in range(1, n + 1))


def double_h(p: int, n: int, y_shift: int = 0) -> Poly:
    """Complete double homogeneous function h_p(x_1..x_n | tau^y_shift y).

    h_0 = 1 and h_p = 0 for negative p, as required by the off-diagonal
    entries of the Jacobi-Trudi determinant.
    """
    if n < 1:
        raise DomainError(f"double_h needs n >= 1, got {n}")
    if p < 0:
        return ZERO
    return _h_column(p, y_shift, SYMBOLIC, _xs(n))[p]


@lru_cache(maxsize=None)
def _jacobi_trudi(lam: Partition, point: tuple, shift: int, yspec: YSpec) -> Poly:
    # Rows below l(lam) of the full n x n matrix are unit rows (h_0 on the
    # diagonal, zeros to the left), so the determinant collapses to its
    # top-left l(lam) x l(lam) block.  Column j takes the sequence shift
    # shift+j-1, which the zero rule cannot see: its columns share one table.
    r = len(lam)
    if yspec.kind == "zero":
        table = _h_column(lam.part(1) + r - 1, 0, yspec, point)
        columns = [table] * r
    else:
        columns = [
            _h_column(lam.part(1) + j - 1, shift + j - 1, yspec, point)
            for j in range(1, r + 1)
        ]
    rows = []
    for i in range(1, r + 1):
        row = []
        for j in range(1, r + 1):
            p = lam.part(i) + j - i
            row.append(columns[j - 1][p] if p >= 0 else ZERO)
        rows.append(row)
    return poly_det(rows)


def _det_ratio(lam: Partition, n: int) -> Poly:
    top = lam.part(1) + n - 1
    rows = []
    for i in range(1, n + 1):
        powers = _falling_powers(i, top)
        rows.append([powers[lam.part(j) + n - j] for j in range(1, n + 1)])
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
        return _jacobi_trudi(lam, _xs(n), 0, yspec)
    return _det_ratio(lam, n).specialize_y(yspec)


def _shifted_at(lam: Partition, yspec: YSpec, base, labels) -> Poly:
    # The shifted function is the double Schur function with sequence
    # argument tau^{n+1} y in the shifted coordinates x_i + y_{-i}; here
    # they take the values base_i + y_{labels_i}.
    n = len(base)

    def point(spec: YSpec) -> tuple:
        return tuple(b + spec.value(j) for b, j in zip(base, labels))

    try:
        return _jacobi_trudi(lam, point(yspec), n + 1, yspec)
    except UnresolvableIndexError:
        # A window without a tail rule defines only some y_j, and only the
        # y_j left in the value need one: evaluate symbolically, then
        # specialize the result.
        return _jacobi_trudi(lam, point(SYMBOLIC), n + 1, SYMBOLIC).specialize_y(yspec)


def shifted_double_schur(
    lam: Partition, n: int, yspec: YSpec = SYMBOLIC, method: str = "jacobi_trudi"
) -> Poly:
    """The shifted double Schur function of lam in x_1..x_n, then specialized."""
    lam = Partition(lam)
    _check_args("shifted_double_schur", lam, n, method)
    if method == "jacobi_trudi":
        return _shifted_at(lam, yspec, _xs(n), range(-1, -n - 1, -1))
    # The determinant-ratio reference route: shift and substitute afterwards.
    values = {x(i): x(i) + y(-i) for i in range(1, n + 1)}
    return _det_ratio(lam, n).shift_y(n + 1).substitute(values).specialize_y(yspec)


def shifted_schur_stable(lam: Partition, x_values, yspec: YSpec = SYMBOLIC) -> Poly:
    """The stable shifted Schur value at finitely many x arguments.

    x_values assigns x_1..x_m; later variables are zero.  The rank is
    chosen as max(m, l(lambda)+1), and by stability the result does not
    change for any larger choice.
    """
    lam = Partition(lam)
    values = list(x_values)
    n = max(len(values), len(lam) + 1)
    values += [0] * (n - len(values))
    return _shifted_at(lam, yspec, values, range(-1, -n - 1, -1))


def restrict_to_fixed_point(
    lam: Partition, delta: Partition, n: int, yspec: YSpec = SYMBOLIC
) -> Poly:
    """Evaluate the shifted double Schur function of lam at the fixed point
    labeled by delta, then specialize y.

    There the shifted coordinates x_i + y_{-i} equal y_{delta_i - i}.
    """
    lam = Partition(lam)
    delta = Partition(delta)
    if n < len(lam) or n < len(delta):
        raise RankTooSmallError(
            f"need n >= l(lambda) = {len(lam)} and n >= l(delta) = {len(delta)}, got n = {n}"
        )
    return _shifted_at(lam, yspec, (ZERO,) * n, [delta.part(i) - i for i in range(1, n + 1)])


def vandermonde(n: int) -> Poly:
    """The product of (x_i - x_j) over 1 <= i < j <= n."""
    out = ONE
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out = out * (x(i) - x(j))
    return out


def alternant_denominator(n: int) -> Poly:
    """det[(x_i|y)^{n-j}], which must equal the Vandermonde product."""
    rows = []
    for i in range(1, n + 1):
        powers = _falling_powers(i, n - 1)
        rows.append([powers[n - j] for j in range(1, n + 1)])
    return poly_det(rows)
