"""Equivariant Littlewood-Richardson structure constants.

Three independent routes to the same numbers:

  * multiply_schubert: multiply two basis elements and expand the product
    by peeling, for nu in descending order, the x^nu term of what is left;
  * structure_constants_via_localization: evaluate both sides of the
    product identity at torus-fixed points and back-substitute through the
    triangular system given by the containment-vanishing property;
  * molev_coefficient: the alternating hook-function sum, valid for the
    weight-graded specialization y_j = (j+d)u.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from .errors import (
    AsymmetricInputError,
    DegenerateSpecializationError,
    DomainError,
    RankTooSmallError,
)
from .partitions import (
    Partition,
    SkewShape,
    _partitions_of,
    canonical_key,
    contains,
    hook_h,
    partitions_between,
    partitions_up_to,
)
from .polyring import (
    FAMILY_X,
    SYMBOLIC,
    ZERO,
    Poly,
    YSpec,
    _decode,
    _encode,
    _mono_sort_key,
    _x_split,
    canonical_string,
    const,
    divide_exact,
    u,
    var_code,
    var_index,
)
from .schur import restrict_to_fixed_point, shifted_double_schur

TABLE_METHODS = ("expand", "localize", "molev")


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

    def support(self) -> list[Partition]:
        return [nu for nu, _ in self.items()]

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

    def to_json_terms(self) -> list[dict]:
        return [
            {"nu": list(nu), "coeff": canonical_string(c)} for nu, c in self.items()
        ]


def _xmono_to_partition(xm: tuple, n: int) -> Partition:
    """Exponent vector of an x-monomial, which must be weakly decreasing."""
    if not xm:
        return Partition()
    top = var_index(xm[-2])
    if top > n:
        raise RankTooSmallError(
            f"expansion needs a partition of length {top} but rank is {n}"
        )
    exps = [0] * top
    for i in range(0, len(xm), 2):
        exps[var_index(xm[i]) - 1] = xm[i + 1]
    if any(exps[i] < exps[i + 1] for i in range(top - 1)) or exps[-1] == 0:
        raise AsymmetricInputError(
            "leading x-monomial is not a partition; input is not symmetric "
            "in the shifted variables"
        )
    return Partition(exps)


def _x_monomial(nu: tuple) -> int:
    """The packed monomial x_1^nu_1 x_2^nu_2 ..."""
    return _encode(tuple(v for i, e in enumerate(nu, 1) for v in (var_code(FAMILY_X, i), e)))


def _peel_expand(p: Poly, n: int, basis_fn) -> dict[Partition, Poly]:
    """Expand p over a basis whose element for nu has the top x-degree part
    s_nu(x), the classical Schur polynomial.

    Partitions nu are tried by weight descending, then in descending lex
    order.  s_nu(x) is monic at x^nu, and every other x-monomial of the
    basis elements still to come is of lower degree or lex smaller, so the
    coefficient of nu is the non-x part of the x^nu term of what is left.
    """
    coeffs: dict[Partition, Poly] = {}
    rem = p
    parts = _x_split(rem._terms)
    for w in range(p.x_degree(), -1, -1):
        for nu in _partitions_of(w, w, n):
            if not parts:
                return coeffs
            rests = parts.get(_x_monomial(nu))
            if rests:
                nu = Partition(nu)
                coeffs[nu] = c = Poly._raw(rests)
                rem = rem - c * basis_fn(nu)
                parts = _x_split(rem._terms)
    if parts:
        # No basis element is left to match what remains, so its leading
        # x-monomial is not a partition of length <= n: report it.
        _xmono_to_partition(_decode(min(parts, key=_mono_sort_key)), n)
    return coeffs


def expand_in_shifted_basis(p: Poly, n: int, yspec: YSpec = SYMBOLIC) -> SchurExpansion:
    """Expand p in the shifted double Schur basis at rank n.

    p must be symmetric in the shifted variables x_i + y_{-i} (after the
    yspec substitution); asymmetry surfaces as a non-partition leading
    monomial during elimination.
    """
    coeffs = _peel_expand(p, n, lambda nu: shifted_double_schur(nu, n, yspec))
    return SchurExpansion(n=n, yspec=yspec, coefficients=coeffs)


def multiply_schubert(
    lam, mu, n: int, yspec: YSpec = SYMBOLIC, stable: bool = True
) -> SchurExpansion:
    """Expansion of s*_lam * s*_mu in the shifted basis at rank n.

    With stable=True (the infinite-variable reading) the rank must exceed
    l(lam)+l(mu); the coefficients are then independent of n, so the
    product is built and expanded at the least such rank,
    n0 = l(lam)+l(mu)+1, and the expansion reports the caller's n.
    stable=False admits any rank >= max length and computes at n itself,
    giving the finite-rank multiplication table when paired with the
    matching torus yspec.
    """
    lam = Partition(lam)
    mu = Partition(mu)
    if n < max(len(lam), len(mu)):
        raise RankTooSmallError(f"need n >= max length, got n = {n}")
    if stable and n <= len(lam) + len(mu):
        raise RankTooSmallError(
            f"stable interpretation needs n > l(lam)+l(mu) = {len(lam) + len(mu)}, "
            f"got n = {n}"
        )
    n0 = len(lam) + len(mu) + 1 if stable else n
    product = shifted_double_schur(lam, n0, yspec) * shifted_double_schur(mu, n0, yspec)
    coeffs = expand_in_shifted_basis(product, n0, yspec).coefficients
    return SchurExpansion(n=n, yspec=yspec, coefficients=coeffs)


def molev_coefficient(lam, mu, nu) -> Fraction:
    """The hook-function alternating sum over lam,mu <= rho <= nu.

    The full structure constant under the standard action is this value
    times u^(|lam|+|mu|-|nu|); the sum is 0 when no admissible rho exists.
    """
    lam = Partition(lam)
    mu = Partition(mu)
    nu = Partition(nu)
    if not (contains(nu, lam) and contains(nu, mu)):
        return Fraction(0)
    lower = Partition(
        max(lam.part(i), mu.part(i)) for i in range(1, max(len(lam), len(mu)) + 1)
    )
    total = Fraction(0)
    for rho in partitions_between(lower, nu):
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


_LOCALIZABLE = ("symbolic", "standard", "circle", "torus")


def structure_constants_via_localization(
    lam, mu, n: int, yspec: YSpec = SYMBOLIC, stable: bool = True
) -> SchurExpansion:
    """Solve for the expansion coefficients by restriction to fixed points.

    Candidates nu (containing lam and mu, of weight at most |lam|+|mu| and
    length at most n) are processed in canonical order; evaluating the
    product identity at the fixed point delta = nu involves only
    already-solved coefficients, so back-substitution suffices.  Vanishing
    and triangularity hold at any rank n >= l(delta), so stable=False
    admits any rank >= max length, as multiply_schubert does.
    """
    lam = Partition(lam)
    mu = Partition(mu)
    if n < max(len(lam), len(mu)):
        raise RankTooSmallError(f"need n >= max length, got n = {n}")
    if stable and n <= len(lam) + len(mu):
        raise RankTooSmallError(
            f"localization uses the stable reading; need n > l(lam)+l(mu), got n = {n}"
        )
    if yspec.kind not in _LOCALIZABLE:
        raise DegenerateSpecializationError(
            f"yspec kind {yspec.kind!r} is degenerate for localization"
        )
    candidates = [
        nu
        for nu in partitions_up_to(lam.weight + mu.weight, n)
        if contains(nu, lam) and contains(nu, mu)
    ]
    solved: dict[Partition, Poly] = {}
    for delta in candidates:
        diag = restrict_to_fixed_point(delta, delta, n, yspec)
        if not diag:
            raise DegenerateSpecializationError(
                f"restriction of {tuple(delta)} to its own fixed point vanishes "
                f"under {yspec.describe()}"
            )
        lhs = restrict_to_fixed_point(lam, delta, n, yspec) * restrict_to_fixed_point(
            mu, delta, n, yspec
        )
        for prev, c in solved.items():
            if contains(delta, prev):
                lhs = lhs - c * restrict_to_fixed_point(prev, delta, n, yspec)
        coeff = divide_exact(lhs, diag)
        if coeff:
            solved[delta] = coeff
    return SchurExpansion(n=n, yspec=yspec, coefficients=solved)


def _molev_expansion(lam, mu, n: int, yspec: YSpec) -> SchurExpansion:
    if yspec.kind != "standard":
        raise DomainError(
            "the hook-function formula applies to the standard action only; "
            f"got yspec kind {yspec.kind!r}"
        )
    lam = Partition(lam)
    mu = Partition(mu)
    coeffs: dict[Partition, Poly] = {}
    for nu in partitions_up_to(lam.weight + mu.weight, n):
        if not (contains(nu, lam) and contains(nu, mu)):
            continue
        c = molev_coefficient(lam, mu, nu)
        if c:
            coeffs[nu] = const(c) * u ** (lam.weight + mu.weight - nu.weight)
    return SchurExpansion(n=n, yspec=yspec, coefficients=coeffs)


def compute_expansion(
    lam, mu, n: int, yspec: YSpec, method: str = "expand", stable: bool = True
) -> SchurExpansion:
    """Dispatch a product expansion to one of the three algorithms."""
    if method == "expand":
        return multiply_schubert(lam, mu, n, yspec, stable=stable)
    if method == "localize":
        return structure_constants_via_localization(lam, mu, n, yspec, stable=stable)
    if method == "molev":
        return _molev_expansion(lam, mu, n, yspec)
    raise DomainError(f"unknown method {method!r}; choose from {TABLE_METHODS}")


def _table_entry(task) -> tuple[Partition, Partition, SchurExpansion]:
    lam, mu, n, yspec, method, stable = task
    return lam, mu, compute_expansion(lam, mu, n, yspec, method, stable)


def multiplication_table(
    max_weight: int,
    n: int,
    yspec: YSpec = SYMBOLIC,
    method: str = "expand",
    jobs: int = 1,
    finite_rank: bool = False,
) -> list[tuple[Partition, Partition, SchurExpansion]]:
    """Expansions for all unordered pairs of partitions of weight <= max_weight.

    Rows appear in canonical pair order and are identical regardless of the
    worker count.  Workers take the pairs one at a time, heaviest
    |lam|+|mu| first, so that no heavy pair starts last.
    """
    if max_weight < 0:
        raise DomainError("max_weight must be nonnegative")
    if not finite_rank and n <= 2 * max_weight:
        raise RankTooSmallError(
            f"stability for all pairs needs n > 2*max_weight = {2 * max_weight}, "
            f"got n = {n}"
        )
    parts = partitions_up_to(max_weight, max_weight if not finite_rank else n)
    tasks = [
        (parts[a], parts[b], n, yspec, method, not finite_rank)
        for a in range(len(parts))
        for b in range(a, len(parts))
    ]
    # The fork-started pool starts every worker at once; more workers than
    # CPUs only add processes.
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs > 1:
        order = sorted(range(len(tasks)), key=lambda i: -(tasks[i][0].weight + tasks[i][1].weight))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = dict(zip(order, pool.map(_table_entry, [tasks[i] for i in order], chunksize=1)))
        return [rows[i] for i in range(len(tasks))]
    return [_table_entry(t) for t in tasks]


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
                "terms": exp.to_json_terms(),
            }
            for lam, mu, exp in rows
        ],
    }


def dumps_canonical(obj) -> str:
    """The one JSON rendering used everywhere; reparsing and re-dumping is
    byte-identical."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def expansion_to_text(lam: Partition, mu: Partition, exp: SchurExpansion) -> str:
    if not exp.coefficients:
        return f"{_partition_text(lam)} * {_partition_text(mu)} -> 0"
    body = " | ".join(
        f"{_partition_text(nu)}: {canonical_string(c)}" for nu, c in exp.items()
    )
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
    if not exp.coefficients:
        return f"${lhs} = 0$"
    rhs = " + ".join(
        f"{_coeff_latex(c)}s^{{*}}_{{{_partition_latex(nu)}}}" for nu, c in exp.items()
    )
    return f"${lhs} = {rhs}$"


def table_to_latex(rows) -> str:
    return "\n".join(expansion_to_latex(lam, mu, exp) for lam, mu, exp in rows) + "\n"
