"""Double Schur functions, their shifted variant, and fixed-point restriction.

The double Schur function in n variables is computed either as a ratio of
two alternant determinants, whose rows are reduced by divided differences so
that the numerator is never expanded, or through a generalized Jacobi-Trudi
determinant over complete double homogeneous functions h, or, when
lambda_1 < l(lambda), the smaller dual one over elementary functions e of
the conjugate; all are exact and must agree.  The shifted variant precomposes
with x_i -> x_i + y_{-i} and shifts the y sequence by n+1, which makes it
stable under adding variables.
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
    _add_into,
    divide_linear,
    poly_det,
    x,
    y,
)

METHODS = ("jacobi_trudi", "det_ratio")


def falling_factorial(i: int, p: int) -> Poly:
    """(x_i - y_1)(x_i - y_2)...(x_i - y_p), 1 when p = 0: h_p of x_i alone."""
    if p < 0:
        raise DomainError(f"falling factorial needs p >= 0, got {p}")
    return _column("h", p, 0, y, (x(i),))[p]


# The h or e table of one column may hold at most this many terms at once;
# a column that would hold more is refused (DomainError) while it is filled.
# The largest table the tests and the benchmark references fill holds
# 180,901 terms (schur --lambda 600 --n 2 --y zero); the symbolic
# schur --lambda 20 --n 2, whose h_p at the first variable has 2^p terms,
# is refused at 262,143 of them, near 50 MB on an x86-64 host; so is
# (1^20) at n = 20, whose one column e_0..e_20 would end in 2^20 terms.
MAX_H_TERMS = 250_000


def _column(family: str, top: int, s: int, y_at, point: tuple) -> list[Poly]:
    """h_0..h_top or e_0..e_top (family "h" or "e") of x_1..x_n | tau^s y at
    x_i = point[i-1], n = len(point), where y_at(k) is the value of y_k.

    The table is filled over the variables by splitting the sum on whether
    x_m participates, keeping only the current m:
        h_p(m) = h_p(m-1) + (x_m - y_{m+p-1-s}) h_{p-1}(m),    p ascending;
        e_p(m) = e_p(m-1) + (x_m - y_{m-p+1-s}) e_{p-1}(m-1),  p descending, p <= m.
    Evaluation is a ring map, so the point and the y-specialization enter as
    the factors are built; the zero rule at the point x gives the classical
    complete and elementary symmetric polynomials.
    Raises DomainError once the table holds more than MAX_H_TERMS terms.
    """
    step = 1 if family == "h" else -1
    table = [ONE] + [ZERO] * top
    held = 1
    for m, xm in enumerate(point, 1):
        for p in range(1, top + 1) if step == 1 else range(min(m, top), 0, -1):
            prev = table[p - 1]
            add = (xm - y_at(m - s + step * (p - 1))) * prev
            held -= len(table[p])
            if table[p]:  # in place: a written cell's dict is its own, never ZERO's
                _add_into(table[p]._terms, add._terms.items())
            else:  # the product, copied where a factor 1 returned its neighbour's terms
                table[p] = Poly._raw(dict(prev._terms)) if add._terms is prev._terms else add
            held += len(table[p])
            if held > MAX_H_TERMS:
                raise DomainError(
                    f"the table {family}_0..{family}_{top} exceeds the limit of "
                    f"{MAX_H_TERMS} terms"
                )
    return table


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
    return _column("h", p, y_shift, y, _xs(n))[p]


@lru_cache(maxsize=1)
def _at(base: tuple, labels: tuple, yspec: YSpec) -> tuple:
    # The point x_i = base_i + y_{labels_i} (or base_i) and its h, e columns by (family, shift).
    return tuple(b + yspec.value(j) for b, j in zip(base, labels)) if labels else base, {}


@lru_cache(maxsize=1 << 15)
def _jacobi_trudi(lam: Partition, base: tuple, labels: tuple, shift: int, yspec: YSpec) -> Poly:
    # At the point _at(base, labels, yspec), the n x n det[h_{lam_i-i+j}(x | tau^{shift+j-1} y)]
    # has unit rows below l(lam), so it collapses to its top-left l(lam) x l(lam) block;
    # the dual det[e_{lam'_i-i+j}(x | tau^{shift-j+1} y)] collapses to lam_1 x lam_1, and
    # the smaller one is built.  Both read y_k up to k = n+lam_1-1-shift, the h side down
    # to 2-shift-l(lam), the e side to 1-shift.  The zero rule cannot see a column's
    # shift: one table serves.  Where a window without a tail rule lacks one, this key
    # keeps the symbolic value, specialized.
    if not lam:  # kept: without it, eval --lambda 0 at 3,000 x builds the point, 2x peak RSS
        return ONE
    n, r = len(base), len(lam)
    family, step, lo = ("h", 1, 2 - shift - r) if lam.part(1) >= r else ("e", -1, 1 - shift)
    zero = yspec.kind == "zero"
    try:
        point, store = _at(base, labels, yspec)
        # Asked for bottom up: new y get registry slots in ascending index order,
        # so the cells filled first, holding only low-index y, stay short ints.
        ys = range(lo, n + lam.part(1) - shift)
        y_at = yspec.value if zero else {k: yspec.value(k) for k in ys}.__getitem__
    except UnresolvableIndexError:  # the key's lam, before the e side conjugates it
        return _jacobi_trudi(lam, base, labels, shift, SYMBOLIC).specialize_y(yspec)
    if step < 0:
        lam, r = lam.conjugate(), lam.part(1)
    columns = []
    for j in range(r):  # matrix column j+1 is family_0..family_top at sequence shift s
        s, top = (0, lam.part(1) + r - 1) if zero else (shift + step * j, lam.part(1) + j)
        if len(store.get((family, s), ())) <= top:
            store[family, s] = _column(family, top, s, y_at, point)
        columns.append(store[family, s])
    return poly_det([
        [c[p] if (p := lam.part(i) + j - i) >= 0 else ZERO for j, c in enumerate(columns, 1)]
        for i in range(1, r + 1)
    ])


def _alternant_rows(lam: Partition, n: int) -> list[list[Poly]]:
    """The rows [(x_i|y)^{lam_j+n-j}]_j, i = 1..n, of the alternant."""
    rows = []
    for i in range(1, n + 1):
        powers = _column("h", lam.part(1) + n - 1, 0, y, (x(i),))
        rows.append([powers[lam.part(j) + n - j] for j in range(1, n + 1)])
    return rows


def _det_ratio(lam: Partition, n: int) -> Poly:
    # Newton's divided differences: row i becomes (row_i - row_k) / (x_i - x_k) for
    # k < i, which keeps the determinant up to prod_{k<i} (x_i - x_k), that is
    # (-1)^{n(n-1)/2} times the denominator, so the alternant itself is never built.
    rows = _alternant_rows(lam, n)
    for k in range(1, n):
        for i in range(k + 1, n + 1):
            rows[i - 1] = [divide_linear(a - b, i, k) for a, b in zip(rows[i - 1], rows[k - 1])]
    det = poly_det(rows)
    return -det if n * (n - 1) // 2 % 2 else det


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
        return _jacobi_trudi(lam, _xs(n), (), 0, yspec)
    return _det_ratio(lam, n).specialize_y(yspec)


def _shifted_at(lam: Partition, yspec: YSpec, base, labels=()) -> Poly:
    # The shifted function at rank n is the double Schur function with
    # sequence argument tau^{n+1} y at x_i + y_{-i} = base_i + y_{labels_i},
    # padded with base_i = 0, labels_i = -i up to the rank max(len(base),
    # len(labels), l(lam), 1), which gives the value at every larger rank.
    n = max(len(base), len(labels), len(lam), 1)
    base = tuple(base) + (0,) * (n - len(base))
    labels = tuple(labels) + tuple(range(-len(labels) - 1, -n - 1, -1))
    return _jacobi_trudi(lam, base, labels, n + 1, yspec)


def shifted_double_schur(
    lam: Partition, n: int, yspec: YSpec = SYMBOLIC, method: str = "jacobi_trudi"
) -> Poly:
    """The shifted double Schur function of lam in x_1..x_n, then specialized."""
    lam = Partition(lam)
    _check_args("shifted_double_schur", lam, n, method)
    if method == "jacobi_trudi":
        return _shifted_at(lam, yspec, _xs(n))
    # The determinant-ratio reference route: shift and substitute afterwards.
    values = {x(i): x(i) + y(-i) for i in range(1, n + 1)}
    return _det_ratio(lam, n).shift_y(n + 1).substitute(values).specialize_y(yspec)


def shifted_schur_stable(lam: Partition, x_values, yspec: YSpec = SYMBOLIC) -> Poly:
    """The stable shifted Schur value at finitely many x arguments.

    x_values assigns x_1..x_m; later variables are zero.  The value is
    computed at rank max(m, l(lambda), 1): setting x_{n+1} = 0 sends
    s*_lambda at rank n+1 to s*_lambda at rank n once n >= l(lambda), so
    the result does not change for any larger rank.
    """
    return _shifted_at(Partition(lam), yspec, tuple(x_values))


def restrict_to_fixed_point(
    lam: Partition, delta: Partition, n: int, yspec: YSpec = SYMBOLIC
) -> Poly:
    """Evaluate the shifted double Schur function of lam at the fixed point
    labeled by delta, then specialize y.

    There the shifted coordinates x_i + y_{-i} equal y_{delta_i - i}.  By
    stability the value is computed at rank max(l(lambda), l(delta), 1);
    n is only checked.
    """
    lam = Partition(lam)
    delta = Partition(delta)
    if n < len(lam) or n < len(delta):
        raise RankTooSmallError(
            f"need n >= l(lambda) = {len(lam)} and n >= l(delta) = {len(delta)}, got n = {n}"
        )
    return _shifted_at(lam, yspec, (), [p - i for i, p in enumerate(delta, 1)])


def vandermonde(n: int) -> Poly:
    """The product of (x_i - x_j) over 1 <= i < j <= n."""
    out = ONE
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out = out * (x(i) - x(j))
    return out


def alternant_denominator(n: int) -> Poly:
    """det[(x_i|y)^{n-j}], which must equal the Vandermonde product."""
    return poly_det(_alternant_rows(Partition(), n))
