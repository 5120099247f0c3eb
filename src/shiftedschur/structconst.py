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
from fractions import Fraction

from .errors import (
    AsymmetricInputError, DomainError, RankTooSmallError, UnresolvableIndexError
)
from .partitions import (
    Partition,
    SkewShape,
    _interval,
    _partitions_of,
    canonical_key,
    contains,
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

    def to_json_terms(self) -> list[dict]:
        return [
            {"nu": list(nu), "coeff": canonical_string(c)} for nu, c in self.items()
        ]


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
    and the expansion reports the caller's n.  The stable product commutes
    with omega, which conjugates labels and sends y_j to -y_{-1-j}; so when
    lam_1+mu_1 < l(lam)+l(mu), the conjugate pair is expanded at rank
    lam_1+mu_1.  Omega only translates zero, standard and affine values, which
    moves no s*_nu; a circle, torus or finite-rank product keeps its route.
    """
    lam, mu = _check_rank(lam, mu, n, stable, "expansion")
    omega = yspec.kind in ("zero", "standard", "affine", "symbolic")
    if stable and omega and lam.part(1) + mu.part(1) < len(lam) + len(mu):
        dual = multiply_schubert(lam.conjugate(), mu.conjugate(), n, yspec).coefficients
        return SchurExpansion(n, yspec, {  # only symbolic coefficients hold y to relabel
            nu.conjugate(): c.substitute({y(j): -y(-1 - j) for j in c.y_indices()})
            for nu, c in dual.items()
        })
    n0 = max(min(n, len(lam) + len(mu)), 1)
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


def structure_constants_via_localization(
    lam, mu, n: int, yspec: YSpec = SYMBOLIC, stable: bool = True
) -> SchurExpansion:
    """Solve for the expansion coefficients by restriction to fixed points.

    The _candidates are processed in canonical order; evaluating the
    product identity at the fixed point delta = nu involves only
    already-solved coefficients, so back-substitution suffices.  Vanishing
    and triangularity hold at any rank n >= l(delta), so stable=False
    admits any rank >= max length, as multiply_schubert does.

    A candidate's restriction to its own fixed point is a product of
    differences y_a - y_b, which vanishes when the yspec equates two of them:
    zero, an all-equal affine spec or a repeating window.  _indirect then
    solves the pair, the first two at standard:d=0, the last symbolically.
    """
    lam, mu = _check_rank(lam, mu, n, stable, "localization")
    solved: dict[Partition, Poly] = {}
    for delta in _candidates(lam, mu, n):
        diag = restrict_to_fixed_point(delta, delta, n, yspec)
        if not diag:
            return _indirect(structure_constants_via_localization, lam, mu, n, yspec, stable)
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


def _molev_expansion(lam, mu, n: int, yspec: YSpec, stable: bool) -> SchurExpansion:
    """molev_coefficient times the matching power of u, for each of the _candidates."""
    if yspec.kind != "standard":
        raise DomainError(
            "the hook-function formula applies to the standard action only; "
            f"got yspec kind {yspec.kind!r}"
        )
    lam, mu = _check_rank(lam, mu, n, stable, "the hook-function formula")
    coeffs: dict[Partition, Poly] = {}
    for nu in _candidates(lam, mu, n):
        c = molev_coefficient(lam, mu, nu)
        if c:
            coeffs[nu] = const(c) * u ** (lam.weight + mu.weight - nu.weight)
    return SchurExpansion(n=n, yspec=yspec, coefficients=coeffs)


def _indirect(engine, lam, mu, n: int, yspec: YSpec, stable: bool) -> SchurExpansion:
    """The engine's expansion under a yspec that it cannot apply directly.  Each
    coefficient is a polynomial in the differences y_i - y_j (Molev-Sagan),
    which are (i-j)*a under zero and affine: there it is the coefficient under
    standard:d=0 at u = a; under any other yspec the symbolic one, specialized."""
    if yspec.kind not in ("zero", "affine"):
        return engine(lam, mu, n, SYMBOLIC, stable).specialize_y(yspec)
    standard = engine(lam, mu, n, YSpec.standard(0), stable).items()
    return SchurExpansion(n, yspec, {nu: c.substitute({u: yspec.a}) for nu, c in standard})


_ENGINES = {
    "expand": multiply_schubert,
    "localize": structure_constants_via_localization,
    "molev": _molev_expansion,
}
TABLE_METHODS = tuple(_ENGINES)


def compute_expansion(
    lam, mu, n: int, yspec: YSpec, method: str = "expand", stable: bool = True
) -> SchurExpansion:
    """Dispatch a product expansion to one of the three algorithms: through
    _indirect under affine, and molev under zero, or where the expansion
    reads a y_j that a window without a tail rule lacks; else directly."""
    engine = _ENGINES.get(method)
    if engine is None:
        raise DomainError(f"unknown method {method!r}; choose from {TABLE_METHODS}")
    if yspec.kind == "affine" or (yspec.kind == "zero" and method == "molev"):
        return _indirect(engine, lam, mu, n, yspec, stable)
    try:
        return engine(lam, mu, n, yspec, stable)
    except UnresolvableIndexError:
        return _indirect(engine, lam, mu, n, yspec, stable)


def multiplication_table(
    max_weight: int,
    n: int,
    yspec: YSpec = SYMBOLIC,
    method: str = "expand",
    jobs: int = 1,
    finite_rank: bool = False,
) -> list[tuple[Partition, Partition, SchurExpansion]]:
    """Expansions for all unordered pairs of partitions of weight <= max_weight.

    Rows are in canonical pair order; an error is the first a serial run
    meets.  The pairs are dealt, heaviest |lam|+|mu| first, into min(jobs,
    CPUs, pairs) shares: one for this process and one per forked child.
    """
    if max_weight < 0:
        raise DomainError("max_weight must be nonnegative")
    if not finite_rank and n <= 2 * max_weight:
        raise RankTooSmallError(
            f"stability for all pairs needs n > 2*max_weight = {2 * max_weight}, "
            f"got n = {n}"
        )
    parts = partitions_up_to(max_weight, n)
    pairs = [(p, q) for a, p in enumerate(parts) for q in parts[a:]]

    def share_rows(share):  # (index, expansion) up to the first error, which takes its place
        for i in share:
            try:
                yield i, compute_expansion(*pairs[i], n, yspec, method, not finite_rank)
            except Exception as e:
                yield i, e
                return

    jobs = max(1, min(jobs, os.cpu_count() or 1, len(pairs))) if hasattr(os, "fork") else 1
    order = sorted(range(len(pairs)), key=lambda i: -(pairs[i][0].weight + pairs[i][1].weight))
    shares = [sorted(order[k::jobs]) for k in range(jobs)]
    readers, pids = [], []  # the read ends of the children's pipes, and their pids
    try:
        for share in shares[1:]:
            import pickle
            import signal
            r, w = os.pipe()
            readers.append(open(r, "rb"))
            with open(w, "wb") as fh:
                pids.append(pid := os.fork())
                if pid == 0:  # the child: send the rows, never flush inherited buffers or return
                    try:
                        pickle.dump(list(share_rows(share)), fh)
                        fh.flush()
                    finally:
                        os._exit(0)
        results = list(share_rows(shares[0]))
        for fh in readers:
            try:  # a child that died sent nothing or a truncated pickle
                results += pickle.loads(fh.read())
            except (pickle.UnpicklingError, EOFError):
                raise ChildProcessError("a --jobs worker ended without a result") from None
    finally:
        for fh in readers:
            fh.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    results.sort(key=lambda item: item[0])
    for _, exp in results:  # the first error comes before any pair a share skipped
        if isinstance(exp, Exception):
            raise exp
    return [(*pairs[i], exp) for i, exp in results]


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
