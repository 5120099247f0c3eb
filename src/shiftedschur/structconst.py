"""Equivariant Littlewood-Richardson structure constants.

Three independent routes to the same numbers:

  * multiply_schubert: multiply two basis elements and expand the product
    by peeling, for nu in descending order, the x^nu term of what is left;
  * structure_constants_via_localization: the equivariant Pieri recurrence
    of Molev-Sagan, from restrictions to torus-fixed points;
  * molev_coefficient: the alternating hook-function sum, valid for the
    weight-graded specialization y_j = (j+d)u.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from . import TABLE_METHODS
from .errors import (
    AsymmetricInputError, DomainError, RankTooSmallError, UnresolvableIndexError
)
from .partitions import (
    Partition,
    SkewShape,
    _interval,
    _partitions_of,
    canonical_key,
    hook_h,
    partitions_between,
    partitions_up_to,
)
from . import polyring
from .polyring import (
    FAMILY_X,
    SYMBOLIC,
    ZERO,
    Poly,
    YSpec,
    _decode,
    _encode,
    _exact_quotient,
    _group,
    _int_if_integral,
    _mono_sort_key,
    canonical_string,
    const,
    divide_exact,
    u,
    var_code,
    var_index,
    y,
)
from .schur import restrict_to_fixed_point, shifted_double_schur


class SchurExpansion:
    """An expansion sum_nu C_nu(y) * s*_nu(x|y) at rank n under a yspec.

    Only nonzero coefficient polynomials are stored; iteration follows the
    canonical partition order.
    """

    def __init__(self, n: int, yspec: YSpec, coefficients: dict[Partition, Poly]):
        self.n = n
        self.yspec = yspec
        self.coefficients = {
            Partition(nu): c for nu, c in coefficients.items() if c
        }

    def __getitem__(self, nu) -> Poly:
        return self.coefficients.get(Partition(nu), ZERO)

    def items(self) -> list[tuple[Partition, Poly]]:
        return sorted(self.coefficients.items(), key=lambda kv: canonical_key(kv[0]))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SchurExpansion)
            and self.n == other.n
            and self.yspec == other.yspec
            and self.coefficients == other.coefficients
        )

    def __repr__(self) -> str:
        body = ", ".join(f"{tuple(nu)}: {canonical_string(c)}" for nu, c in self.items())
        return f"SchurExpansion(n={self.n}, {{{body}}})"

    def reconstruct(self) -> Poly:
        """Sum C_nu * s*_nu back; must reproduce the expanded polynomial."""
        total = ZERO
        for nu, c in self.items():
            total = total + c * shifted_double_schur(nu, self.n, self.yspec)
        return total

    def specialize_y(self, spec: YSpec) -> "SchurExpansion":
        return SchurExpansion(self.n, spec, {nu: c.specialize_y(spec) for nu, c in self.items()})


def _x_monomial(nu: tuple) -> int:
    """The packed monomial x_1^nu_1 x_2^nu_2 ..."""
    return _encode(tuple(v for i, e in enumerate(nu, 1) for v in (var_code(FAMILY_X, i), e)))


def expand_in_shifted_basis(p: Poly, n: int, yspec: YSpec = SYMBOLIC) -> SchurExpansion:
    """Expand p in the shifted double Schur basis at rank n.

    p must be symmetric in the shifted variables x_i + y_{-i} (after the
    yspec substitution); asymmetry surfaces as a non-partition leading
    monomial during elimination.

    Partitions nu are tried by weight descending, then in descending lex
    order.  The top x-degree part of s*_nu is s_nu(x), monic at x^nu, and
    every other x-monomial of the basis elements still to come is of lower
    degree or lex smaller, so the coefficient of nu is the non-x part of the
    x^nu term of what is left.
    """
    coeffs: dict[Partition, Poly] = {}
    # What is left, as {x part: {rest: coefficient}}; c * s*_nu is subtracted
    # from the groups its terms fall in, and a group that empties is dropped.
    # The x mask grows as x slots register, so it is read here, not imported.
    parts = _group(p._terms, polyring._X_MASK)
    for nu in (nu for w in range(p.x_degree(), -1, -1) for nu in _partitions_of(w, (), (w,) * n)):
        if not parts:  # kept: without it, zero w5 n11 expand took about 5 % longer
            break
        rests = parts.get(_x_monomial(nu))
        if rests:
            nu = Partition(nu)
            coeffs[nu] = c = Poly._raw(dict(rests))  # a copy: the group changes below
            terms, mask = (c * shifted_double_schur(nu, n, yspec))._terms, polyring._X_MASK
            for m, v in terms.items():
                part = m & mask
                group, rest = parts.setdefault(part, {}), m ^ part
                v = group.get(rest, 0) - v
                if v:
                    group[rest] = _int_if_integral(v)
                elif len(group) > 1:
                    del group[rest]
                else:
                    del parts[part]
    if parts:
        # What is left comes after every partition of length <= n in the peel
        # order, so its leading x-monomial is too long or not a partition.
        top = var_index(_decode(min(parts, key=_mono_sort_key))[-2])
        if top > n:
            raise RankTooSmallError(
                f"expansion needs a partition of length {top} but rank is {n}"
            )
        raise AsymmetricInputError(
            "leading x-monomial is not a partition; input is not symmetric "
            "in the shifted variables"
        )
    return SchurExpansion(n=n, yspec=yspec, coefficients=coeffs)


def _check_rank(lam, mu, n: int, stable: bool, engine: str) -> tuple[Partition, Partition]:
    """The rank guard every engine applies to lam and mu, returned as
    partitions: n >= max length, and under the stable reading n > l(lam)+l(mu)."""
    lam, mu = Partition(lam), Partition(mu)
    if n < max(len(lam), len(mu)):
        raise RankTooSmallError(f"need n >= max length, got n = {n}")
    if stable and n <= len(lam) + len(mu):
        raise RankTooSmallError(
            f"{engine} uses the stable reading; need n > l(lam)+l(mu) = "
            f"{len(lam) + len(mu)}, got n = {n}"
        )
    return lam, mu


def _union(lam: Partition, mu: Partition) -> Partition:
    """lam ∪ mu, the smallest partition containing both."""
    return Partition(max(lam.part(i), mu.part(i)) for i in range(1, max(len(lam), len(mu)) + 1))


def _candidates(lam: Partition, mu: Partition, n: int) -> list[Partition]:
    """The nu that may occur in s*_lam * s*_mu at rank n, canonically ordered:
    nu contains lam and mu, |nu| <= |lam|+|mu| and l(nu) <= min(n, l(lam)+l(mu))
    (no longer nu occurs, as multiply_schubert notes)."""
    top = lam.weight + mu.weight
    return _interval(_union(lam, mu), (top,) * min(n, len(lam) + len(mu)), top)


_OMEGA_KINDS = ("zero", "standard", "affine", "symbolic")


def _omega(exp: SchurExpansion) -> SchurExpansion:
    """The stable expansion of the conjugate pair.  The stable product commutes
    with omega, which conjugates labels and sends y_j to -y_{-1-j}.  Omega only
    translates zero, standard and affine values, which moves no s*_nu, so only
    symbolic coefficients hold y to relabel; circle, torus and finite-rank
    products have no such reading."""
    return SchurExpansion(exp.n, exp.yspec, {
        nu.conjugate(): c.substitute({y(j): -y(-1 - j) for j in c.y_indices()})
        for nu, c in exp.coefficients.items()
    })


def multiply_schubert(
    lam, mu, n: int, yspec: YSpec = SYMBOLIC, stable: bool = True
) -> SchurExpansion:
    """Expansion of s*_lam * s*_mu in the shifted basis at rank n.

    With stable=True (the infinite-variable reading) the rank must exceed
    l(lam)+l(mu); the coefficients are then independent of n.  stable=False
    admits any rank >= max length, giving the finite-rank multiplication
    table when paired with the matching torus yspec.  Setting x_{n+1} = 0
    is a ring map sending s*_nu to s*_nu, or to 0 when l(nu) = n+1, and no
    nu longer than l(lam)+l(mu) occurs (Molev-Sagan fill nu/mu
    column-strictly with entries at most l(lam)).  So under both readings
    the product is built and expanded at n0 = max(min(n, l(lam)+l(mu)), 1),
    and the expansion reports the caller's n.  The pair is built as given; the
    omega rule and the window fallback are compute_expansion's.  Under affine it is
    the standard:d=0 expansion at u = a (see _slope): a w4 n9 table takes 0.26 s of
    CPU so on a Xeon core, and 0.46 s expanded over Q.
    """
    lam, mu = _check_rank(lam, mu, n, stable, "expansion")
    if yspec.kind == "affine":
        exp = multiply_schubert(lam, mu, n, YSpec.standard(0), stable)
        return SchurExpansion(n, yspec, {nu: c.substitute({u: yspec.a}) for nu, c in exp.items()})
    n0 = max(min(n, len(lam) + len(mu)), 1)
    product = shifted_double_schur(lam, n0, yspec) * shifted_double_schur(mu, n0, yspec)
    coeffs = expand_in_shifted_basis(product, n0, yspec).coefficients
    return SchurExpansion(n=n, yspec=yspec, coefficients=coeffs)


def _slope(yspec: YSpec) -> Poly | None:
    """The t of y_j = t*j + b: u under standard, a under affine, 0 under zero, else
    None.  A structure constant is a polynomial in the y_i - y_j = (i-j)*t (Molev-Sagan),
    so it is c * t^(|lam|+|mu|-|nu|) there, with the rational c of standard:d=0."""
    return {"standard": u, "affine": const(yspec.a), "zero": ZERO}.get(yspec.kind)


def _graded(coeffs: dict, top: int, t: Poly) -> dict[Partition, Poly]:
    """The coefficients c * t^(top-|nu|) of the rationals c of each nu."""
    return {nu: const(c) * t ** (top - nu.weight) for nu, c in coeffs.items() if c}


def molev_coefficient(lam, mu, nu) -> Fraction:
    """The hook-function alternating sum over lam,mu <= rho <= nu.

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


def _with_part(p: tuple, i: int, k: int) -> Partition:
    """p with its part i (1-indexed) set to k, a partition by the caller's choice of i."""
    return tuple.__new__(Partition, p[:i - 1] + ((k,) if k else ()) + p[i:])


def structure_constants_via_localization(
    lam, mu, n: int, yspec: YSpec = SYMBOLIC, stable: bool = True, memo: dict | None = None
) -> SchurExpansion:
    """Solve for the coefficients by the equivariant Pieri recurrence (Molev-Sagan).

    Multiplying by s*_1 adds a box: s*_1 * s*_a = s*_1|_a * s*_a + sum_{a+} s*_{a+},
    where f|_d is f at the fixed point d.  So associativity of s*_1 * s*_a * s*_b
    gives, for the coefficient C(a, b, nu) of s*_nu and a < nu,
        (s*_1|_nu - s*_1|_a) C(a, b, nu)
            = sum_{a+ <= nu} C(a+, b, nu) - sum_{a, b <= nu-} C(a, b, nu-),
    from C(a, b, a) = s*_b|_a.  The form s*_1|_d = sum_{i <= l(d)} (y_{d_i-i} - y_{-i})
    is read in closed form, without the y that cancel, and the boxes go to the
    heavier factor.  Under a constant step t (see _slope) the form is t*(|nu|-|a|),
    so the recurrence runs on the rational c of C = c * t^{|a|+|b|-|nu|}, from
    Naruse's hook ratio c(a, b, a) = hook_h(a) / hook_h(a/b).  Under circle every
    y_j is an integer times u, so it runs on the int c of C = c * u^{|a|+|b|-|nu|};
    under any other spec on polynomials, divided by its linear form.  The
    coefficients are those of any rank >= l(nu) (see multiply_schubert), so
    stable=False admits any rank >= max length.  memo maps a yspec to the solved C:
    a table passes one for all its pairs, else it lives for this call.  The pair is
    solved as given, as in multiply_schubert.  Only a circle window's form can
    vanish, where its differences sum to 0: that raises UnresolvableIndexError.
    """
    lam, mu = _check_rank(lam, mu, n, stable, "localization")
    memo = {} if memo is None else memo
    solved, t = memo.setdefault(yspec, {}), _slope(yspec)
    scalar = t is not None or yspec.kind == "circle"
    zero = 0 if scalar else ZERO
    value = (lambda j: yspec.window.lookup(j + yspec.d)) if yspec.kind == "circle" else yspec.value

    def coefficient(a: Partition, b: Partition, nu: Partition):
        c = solved.get((a, b, nu))
        if c is not None:
            return c
        if nu == a and t is not None:
            c = _int_if_integral(hook_h(SkewShape(a)) / hook_h(SkewShape(a, b)))
        elif nu == a:
            c = restrict_to_fixed_point(b, a, n, yspec)
            c = next(iter(c._terms.values()), 0) if scalar else c
        else:  # rows 1..l(nu) of a, b and nu, with a row 0 above them all and a zero row below
            A, B, N = ((nu[0] + 1,) + p + (0,) * (len(nu) + 1 - len(p)) for p in (a, b, nu))
            rows = range(1, len(nu) + 1)
            if t is not None:
                form = sum(nu) - sum(a)
            else:
                top, low = {N[i] - i for i in rows}, {A[i] - i for i in rows}
                form = sum(map(value, top - low), zero) - sum(map(value, low - top), zero)
                if not form:
                    raise UnresolvableIndexError(
                        f"a Pieri form of {tuple(lam)} * {tuple(mu)} vanishes in this window")
            ups = (_with_part(a, i, A[i] + 1) for i in range(1, len(a) + 2)
                   if A[i] < min(N[i], A[i - 1]))
            downs = (_with_part(nu, i, N[i] - 1) for i in rows
                     if N[i] > max(N[i + 1], A[i], B[i]))
            c = sum((coefficient(p, b, nu) for p in ups), zero) - sum(
                (coefficient(a, b, m) for m in downs), zero)
            c = _exact_quotient(c, form) if scalar else divide_exact(c, form)
        solved[a, b, nu] = c
        return c

    a, b = sorted((lam, mu), key=canonical_key, reverse=True)
    coeffs = {nu: coefficient(a, b, nu) for nu in _candidates(lam, mu, n)}
    if scalar:
        coeffs = _graded(coeffs, lam.weight + mu.weight, u if t is None else t)
    return SchurExpansion(n=n, yspec=yspec, coefficients=coeffs)


def _molev_expansion(lam, mu, n: int, yspec: YSpec, stable: bool) -> SchurExpansion:
    """molev_coefficient graded by the constant step (see _slope), for each of the _candidates."""
    t = _slope(yspec)
    if t is None:
        raise DomainError("the hook-function formula applies to the zero, standard and "
                          f"affine actions only; got yspec kind {yspec.kind!r}")
    lam, mu = _check_rank(lam, mu, n, stable, "the hook-function formula")
    top = lam.weight + mu.weight
    coeffs = {nu: molev_coefficient(lam, mu, nu) for nu in _candidates(lam, mu, n)
              if t or nu.weight == top}  # a zero step keeps the top weight only
    return SchurExpansion(n=n, yspec=yspec, coefficients=_graded(coeffs, top, t))


_ENGINES = dict(zip(
    TABLE_METHODS,
    (multiply_schubert, structure_constants_via_localization, _molev_expansion),
    strict=True,
))


def compute_expansion(
    lam, mu, n: int, yspec: YSpec, method: str = "expand", stable: bool = True, memo=None
) -> SchurExpansion:
    """Dispatch a product expansion to one of the three algorithms.  Under the
    stable reading with a spec of _OMEGA_KINDS, a pair with lam_1+mu_1 < l(lam)+l(mu) < n
    is solved as its conjugate pair and read back through _omega (a lower n keeps the
    rank error of the pair given).  Where a window cannot serve the engine directly (see
    UnresolvableIndexError), it runs symbolically and the window is put into its result.
    localize shares its recurrence with every call given the same memo."""
    engine = _ENGINES.get(method)
    if engine is None:
        raise DomainError(f"unknown method {method!r}; choose from {TABLE_METHODS}")
    if method == "localize" and memo is not None:
        engine = partial(engine, memo=memo)
    lam, mu = Partition(lam), Partition(mu)
    if stable and yspec.kind in _OMEGA_KINDS and n > len(lam) + len(mu) > lam.part(1) + mu.part(1):
        return _omega(engine(lam.conjugate(), mu.conjugate(), n, yspec, stable))
    try:
        return engine(lam, mu, n, yspec, stable)
    except UnresolvableIndexError:
        return engine(lam, mu, n, SYMBOLIC, stable).specialize_y(yspec)


def multiplication_table(
    max_weight: int,
    n: int,
    yspec: YSpec = SYMBOLIC,
    method: str = "expand",
    finite_rank: bool = False,
) -> list[tuple[Partition, Partition, SchurExpansion]]:
    """Expansions for all unordered pairs of partitions of weight <= max_weight.

    Rows are in canonical pair order; an error is the first one met.  The
    pairs share one localize memo, and under the stable reading a pair whose
    conjugate pair came earlier is read from that row through _omega.
    """
    if max_weight < 0:
        raise DomainError("max_weight must be nonnegative")
    if not finite_rank and n <= 2 * max_weight:
        raise RankTooSmallError(
            f"stability for all pairs needs n > 2*max_weight = {2 * max_weight}, "
            f"got n = {n}"
        )
    parts = partitions_up_to(max_weight, n)
    omega = not finite_rank and yspec.kind in _OMEGA_KINDS
    memo, rows = {}, {}
    for a, p in enumerate(parts):
        for q in parts[a:]:
            dual = omega and (rows.get((q.conjugate(), p.conjugate()))
                              or rows.get((p.conjugate(), q.conjugate())))
            rows[p, q] = _omega(dual) if dual else compute_expansion(
                p, q, n, yspec, method, not finite_rank, memo)
    return [(p, q, exp) for (p, q), exp in rows.items()]


# -- serialization ---------------------------------------------------------------


def _partition_text(p: Partition) -> str:
    return "[" + ",".join(str(a) for a in p) + "]"


def table_to_json_obj(rows, n: int, yspec: YSpec) -> dict:
    return {
        "yspec": yspec.to_json_obj(),
        "n": n,
        "rows": [
            {
                "lambda": list(lam),
                "mu": list(mu),
                "terms": [{"nu": list(nu), "coeff": canonical_string(c)} for nu, c in exp.items()],
            }
            for lam, mu, exp in rows
        ],
    }


# The writer lives in polyring; only perfbench's tracer TARGETS still name it here.
dumps_canonical = polyring.dumps_canonical


def expansion_to_text(lam: Partition, mu: Partition, exp: SchurExpansion) -> str:
    body = " | ".join(
        f"{_partition_text(nu)}: {canonical_string(c)}" for nu, c in exp.items()
    ) or "0"
    return f"{_partition_text(lam)} * {_partition_text(mu)} -> {body}"


def table_to_text(rows) -> str:
    return "\n".join(expansion_to_text(lam, mu, exp) for lam, mu, exp in rows) + "\n"


def _partition_latex(p: Partition) -> str:
    return "(" + ",".join(str(a) for a in p) + ")" if p else "\\varnothing"


def _coeff_latex(c: Poly) -> str:
    s = c.latex()
    if s == "1":
        return ""
    if " + " in s or " - " in s or s.startswith("-"):
        return f"\\left({s}\\right) \\, "
    return f"{s} \\, "


def expansion_to_latex(lam: Partition, mu: Partition, exp: SchurExpansion) -> str:
    lhs = f"s^{{*}}_{{{_partition_latex(lam)}}} \\cdot s^{{*}}_{{{_partition_latex(mu)}}}"
    rhs = " + ".join(
        f"{_coeff_latex(c)}s^{{*}}_{{{_partition_latex(nu)}}}" for nu, c in exp.items()
    ) or "0"
    return f"${lhs} = {rhs}$"


def table_to_latex(rows) -> str:
    return "\n".join(expansion_to_latex(lam, mu, exp) for lam, mu, exp in rows) + "\n"
