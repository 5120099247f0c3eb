"""Independent oracles used by the test suite.

Everything here avoids the package's polynomial engine: plain dicts over
dense exponent tuples, explicit tableau enumeration, and integer
determinants.  These are deliberately slow and obvious.
"""

import itertools
from fractions import Fraction

from shiftedschur import Partition, partitions_up_to


# ---- standard tableaux -------------------------------------------------------------


def permutation_filter_count(outer, inner=()):
    """Count standard fillings by checking every assignment of 1..N to cells."""
    outer = tuple(outer)
    inner = tuple(inner)
    cells = [
        (r, c)
        for r, row in enumerate(outer)
        for c in range(inner[r] if r < len(inner) else 0, row)
    ]
    count = 0
    cellset = set(cells)
    for perm in itertools.permutations(range(1, len(cells) + 1)):
        filling = dict(zip(cells, perm))
        ok = True
        for (r, c), v in filling.items():
            if (r, c + 1) in cellset and filling[(r, c + 1)] <= v:
                ok = False
                break
            if (r + 1, c) in cellset and filling[(r + 1, c)] <= v:
                ok = False
                break
        if ok:
            count += 1
    return count


# ---- classical Schur polynomials and Littlewood-Richardson numbers ---------------


def ssyt_schur(shape, nvars):
    """Schur polynomial as {exponent tuple: count} over semistandard tableaux."""
    shape = tuple(shape)
    results = {}

    def rows(r, above, content):
        if r == len(shape):
            key = tuple(content)
            results[key] = results.get(key, 0) + 1
            return
        length = shape[r]

        def fill(c, prev, row):
            if c == length:
                rows(r + 1, row, content)
                return
            lo = max(prev, (above[c] + 1) if above and c < len(above) else 1)
            for v in range(lo, nvars + 1):
                content[v - 1] += 1
                fill(c + 1, v, row + [v])
                content[v - 1] -= 1

        fill(0, 1, [])

    rows(0, [], [0] * nvars)
    return results


def dict_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            key = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
            out[key] = out.get(key, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


_SSYT_CACHE = {}


def cached_ssyt_schur(shape, nvars):
    key = (tuple(shape), nvars)
    if key not in _SSYT_CACHE:
        _SSYT_CACHE[key] = ssyt_schur(shape, nvars)
    return _SSYT_CACHE[key]


def brute_force_lr(lam, mu, nvars):
    """Classical Littlewood-Richardson coefficients from raw monomial expansion."""
    product = dict_mul(cached_ssyt_schur(lam, nvars), cached_ssyt_schur(mu, nvars))
    weight = sum(lam) + sum(mu)
    cands = sorted(
        (tuple(p) for p in partitions_up_to(weight, nvars) if sum(p) == weight),
        key=lambda t: tuple(-a for a in t),
    )
    coeffs = {}
    for nu in cands:
        key = tuple(list(nu) + [0] * (nvars - len(nu)))
        c = product.get(key, 0)
        if c:
            coeffs[Partition(nu)] = c
            for m, sc in cached_ssyt_schur(nu, nvars).items():
                v = product.get(m, 0) - c * sc
                if v:
                    product[m] = v
                else:
                    product.pop(m, None)
    assert not product, "oracle extraction left a remainder"
    return coeffs


# ---- shifted Schur values (falling-factorial alternants) ---------------------------


def falling_number(a, k):
    out = 1
    for t in range(k):
        out *= a - t
    return out


def int_det(matrix):
    n = len(matrix)
    if n == 0:
        return 1
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for a in range(n):
            for b in range(a + 1, n):
                if perm[a] > perm[b]:
                    sign = -sign
        prod = sign
        for i in range(n):
            prod *= matrix[i][perm[i]]
        total += prod
    return total


def oo_shifted_schur_value(lam, delta, n):
    """Shifted Schur value s*_lam(delta_1, ..., delta_n) via the ratio of
    falling-factorial alternants (the classical definition)."""
    lam = Partition(lam)
    vals = [delta[i] if i < len(delta) else 0 for i in range(n)]
    shifted = [vals[i] + n - (i + 1) for i in range(n)]
    num = [
        [falling_number(shifted[i], lam.part(j + 1) + n - (j + 1)) for j in range(n)]
        for i in range(n)
    ]
    den = [
        [falling_number(shifted[i], n - (j + 1)) for j in range(n)] for i in range(n)
    ]
    return Fraction(int_det(num), int_det(den))


# ---- restriction to fixed points (Ikeda-Naruse) -------------------------------------


def excited_diagrams(lam, delta):
    """E_delta(lam): the cell sets reached from the diagram of lam by excited
    moves, cells (i, j) 1-indexed.  A move takes (i, j) in D to (i+1, j+1)
    when that cell is in delta and none of (i, j+1), (i+1, j), (i+1, j+1) is
    in D.  Empty when lam is not contained in delta."""
    delta = tuple(delta)

    def inside(i, j):
        return i <= len(delta) and j <= delta[i - 1]

    start = frozenset((i, j) for i, row in enumerate(lam, 1) for j in range(1, row + 1))
    if not all(inside(i, j) for i, j in start):
        return []
    seen = {start}
    todo = [start]
    while todo:
        cells = todo.pop()
        for i, j in cells:
            if inside(i + 1, j + 1) and not {(i, j + 1), (i + 1, j), (i + 1, j + 1)} & cells:
                moved = (cells - {(i, j)}) | {(i + 1, j + 1)}
                if moved not in seen:
                    seen.add(moved)
                    todo.append(moved)
    return sorted(seen, key=sorted)


def excited_restriction(lam, delta):
    """s*_lam at the fixed point delta by the excited-diagram sum
        sum over D in E_delta(lam) of prod over (i, j) in D of
        (y_{delta_i - i} - y_{j - delta'_j - 1}),
    delta' the conjugate, as {sorted tuple of y indices: coefficient}."""
    delta = tuple(delta)
    conjugate = [sum(1 for p in delta if p >= j) for j in range(1, (delta[0] if delta else 0) + 1)]
    total = {}
    for cells in excited_diagrams(lam, delta):
        term = {(): 1}
        for i, j in cells:
            factor = ((delta[i - 1] - i, 1), (j - conjugate[j - 1] - 1, -1))
            product = {}
            for mono, c in term.items():
                for k, sign in factor:
                    key = tuple(sorted(mono + (k,)))
                    product[key] = product.get(key, 0) + sign * c
            term = product
        for mono, c in term.items():
            total[mono] = total.get(mono, 0) + c
    return {mono: c for mono, c in total.items() if c}
