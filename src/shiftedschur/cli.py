"""Command-line front-end.

Exit codes: 0 success, 1 usage error, 2 mathematical domain error,
3 internal inconsistency (an identity that must hold by theorem failed).
"""

from __future__ import annotations

import argparse
import gc
import sys
from fractions import Fraction

from . import TABLE_METHODS
from .errors import DomainError, InternalInconsistencyError, UsageError
from .partitions import Partition, molev_coefficient, parse_partition, partitions_up_to
from .polyring import (
    IntSeqWindow,
    Poly,
    YSpec,
    canonical_string,
    const,
    dumps_canonical,
    parse_rational,
    useq,
    x,
    y,
)
# The engines (schur, structconst, comult) load inside the verbs that call
# them, so an invocation compiles only what its verb runs.

# The start-up heap lives until exit: frozen, no later collection traces it,
# those at exit included.
gc.freeze()


def parse_yspec(text: str) -> YSpec:
    """Parse the --y flag grammar.

    symbolic | zero | affine:a=<rat>,b=<rat> | standard:d=<int>
    | circle:d=<int>,window=<j0>:<v0>,<v1>,...;tail=a,b | torus:shift=<int>
    """
    text = text.strip()
    kind, sep, rest = text.partition(":")
    try:
        if kind in ("symbolic", "zero"):
            if sep:
                raise ValueError(f"{kind} takes no parameters")
            return YSpec.symbolic() if kind == "symbolic" else YSpec.zero()
        if kind == "affine":
            opts = _parse_options(rest.split(","), ("a", "b"))
            return YSpec.affine(parse_rational(opts["a"]), parse_rational(opts["b"]))
        if kind == "standard":
            opts = _parse_options(rest.split(","), ("d",))
            return YSpec.standard(int(opts["d"]))
        if kind == "torus":
            opts = _parse_options(rest.split(","), ("shift",))
            return YSpec.torus(int(opts["shift"]))
        if kind == "circle":
            return _parse_circle(rest)
    except (KeyError, ValueError, ZeroDivisionError) as e:
        raise UsageError(f"malformed yspec {text!r}: {e}") from None
    raise UsageError(f"unknown yspec kind {kind!r}")


def _parse_options(tokens, keys: tuple[str, ...]) -> dict[str, str]:
    """key=value tokens (empty ones skipped); each key once, from keys."""
    opts: dict[str, str] = {}
    for token in filter(None, tokens):
        key, _, value = token.partition("=")
        if key not in keys:
            raise ValueError(f"unknown option {key!r}")
        if not value:
            raise ValueError(f"expected key=value, got {token!r}")
        if key in opts:
            raise ValueError(f"repeated option {key!r}")
        opts[key] = value
    return opts


def _parse_circle(rest: str) -> YSpec:
    # The window and tail values hold commas: each is one token.
    tokens = []
    for segment in rest.split(";"):
        if segment.startswith("tail="):
            tokens.append(segment)
            continue
        segment, found, window_text = segment.partition("window=")
        tokens += segment.split(",")
        if found:
            tokens.append("window=" + window_text)
    opts = _parse_options(tokens, ("d", "window", "tail"))
    tail = None
    if "tail" in opts:
        values = opts["tail"].split(",")
        if len(values) != 2:
            raise ValueError(f"expected tail=<a>,<b>, got 'tail={opts['tail']}'")
        tail = tuple(map(int, values))
    lo, values = 0, ()
    if "window" in opts:
        j0_text, _, values_text = opts["window"].partition(":")
        lo = int(j0_text)
        values = tuple(int(t) for t in filter(None, values_text.split(",")))
    return YSpec.circle(IntSeqWindow(lo=lo, values=values, tail=tail), d=int(opts.get("d", 0)))


def _partition_flag(text: str) -> Partition:
    try:
        return parse_partition(text)
    except DomainError as e:
        raise UsageError(str(e)) from None


def _x_values(text: str) -> list:
    text = text.strip()
    if not text:
        return []
    try:
        return [parse_rational(tok) for tok in text.split(",")]
    except (ValueError, ZeroDivisionError) as e:
        raise UsageError(f"malformed x values {text!r}: {e}") from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser(verb: str | None = None) -> _Parser:
    """The command-line parser.  Given the name of a verb, it holds only that
    verb's subparser, which parses the verb's command lines as the full
    parser does; otherwise (help, or a missing or unknown verb) all eight."""
    parser = _Parser(prog="shiftedschur", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, (summary, command, add_flags) in _VERBS.items():
        if verb in _VERBS and name != verb:
            continue
        p = sub.add_parser(name, help=summary)
        p.set_defaults(command=command)
        add_flags(p)
    return parser


def _add_common(p) -> None:
    p.add_argument("--y", type=parse_yspec, default="symbolic", help="y-specialization rule")
    p.add_argument("--format", choices=("text", "json", "latex"), default="text")
    p.add_argument("--output", default=None, help="write output to this file")


def _schur_flags(p) -> None:
    p.add_argument("--lambda", dest="lam", type=_partition_flag, required=True)
    p.add_argument("--method", choices=("jacobi-trudi", "det-ratio"), default="jacobi-trudi")
    p.add_argument("--shifted", action="store_true")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)


def _eval_flags(p) -> None:
    p.add_argument("--lambda", dest="lam", type=_partition_flag, required=True)
    p.add_argument(
        "--x", dest="xvals", type=_x_values, default="", help="comma-separated rationals"
    )
    _add_common(p)


def _multiply_flags(p) -> None:
    p.add_argument("--lambda", dest="lam", type=_partition_flag, required=True)
    p.add_argument("--mu", type=_partition_flag, required=True)
    p.add_argument("--method", choices=TABLE_METHODS, default="expand")
    p.add_argument("--finite-rank", action="store_true")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)


def _table_flags(p) -> None:
    p.add_argument("--max-weight", type=int, required=True)
    p.add_argument("--method", choices=TABLE_METHODS, default="expand")
    # Accepted and unused: a table runs in one process at any --jobs.
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--finite-rank", action="store_true")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)


def _molev_flags(p) -> None:
    p.add_argument("--lambda", dest="lam", type=_partition_flag, required=True)
    p.add_argument("--mu", type=_partition_flag, required=True)
    p.add_argument("--nu", type=_partition_flag, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", default=None)


def _restrict_flags(p) -> None:
    p.add_argument("--lambda", dest="lam", type=_partition_flag, required=True)
    p.add_argument("--delta", type=_partition_flag, required=True)
    _add_common(p)
    p.add_argument("--n", type=int, required=True)


def _coproduct_flags(p) -> None:
    p.add_argument("--expr", required=True, help='e.g. "p1^2*p3 - 1/2*p2"')
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", default=None)


def _verify_flags(p) -> None:
    p.add_argument(
        "--suite",
        choices=("jacobi-trudi", "denominator", "stability", "primitivity", "ring-axioms"),
        required=True,
    )
    p.add_argument("--max-weight", type=int, default=4)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--max-k", type=int, default=5)
    p.add_argument("--max-l", type=int, default=8)
    p.add_argument("--seed", type=int, default=20240193)
    p.add_argument("--cases", type=int, default=50)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", default=None)


def _poly_output(poly: Poly, fmt: str) -> str:
    if fmt == "json":
        return dumps_canonical(poly.to_json_obj())
    if fmt == "latex":
        return f"${poly.latex()}$\n"
    return canonical_string(poly) + "\n"


def _cmd_schur(args) -> str:
    from .schur import double_schur, shifted_double_schur

    schur = shifted_double_schur if args.shifted else double_schur
    poly = schur(args.lam, args.n, args.y, args.method.replace("-", "_"))
    return _poly_output(poly, args.format)


def _cmd_eval(args) -> str:
    from .schur import shifted_schur_stable

    return _poly_output(shifted_schur_stable(args.lam, args.xvals, args.y), args.format)


def _cmd_multiply(args) -> str:
    from .structconst import compute_expansion, table_to_json_obj, table_to_latex, table_to_text

    stable = not args.finite_rank
    exp = compute_expansion(args.lam, args.mu, args.n, args.y, args.method, stable=stable)
    rows = [(args.lam, args.mu, exp)]
    if args.format != "json":
        return table_to_latex(rows) if args.format == "latex" else table_to_text(rows)
    # A product's JSON is its one row, with the table's n and yspec.
    obj = table_to_json_obj(rows, exp.n, exp.yspec)
    obj.update(obj.pop("rows")[0])
    return dumps_canonical(obj)


def _cmd_table(args) -> str:
    from .structconst import multiplication_table, table_to_json_obj, table_to_latex, table_to_text

    rows = multiplication_table(
        args.max_weight, args.n, args.y, args.method, finite_rank=args.finite_rank
    )
    if args.format == "json":
        return dumps_canonical(table_to_json_obj(rows, args.n, args.y))
    return table_to_latex(rows) if args.format == "latex" else table_to_text(rows)


def _cmd_molev(args) -> str:
    value = molev_coefficient(args.lam, args.mu, args.nu)
    if args.format == "json":
        return dumps_canonical({"value": str(value)})
    return f"{value}\n"


def _cmd_restrict(args) -> str:
    from .schur import restrict_to_fixed_point

    return _poly_output(restrict_to_fixed_point(args.lam, args.delta, args.n, args.y), args.format)


def _cmd_coproduct(args) -> str:
    from .comult import PowerPolynomial, coproduct_power_polynomial

    try:
        expr = PowerPolynomial.parse(args.expr)
    except ZeroDivisionError as e:
        raise UsageError(f"malformed expression {args.expr!r}: {e}") from None
    tensor = coproduct_power_polynomial(expr)
    if args.format == "json":
        obj = {
            "summands": [
                {"weight": str(w), "left": str(l), "right": str(r)}
                for l, r, w in tensor.summands
            ]
        }
        return dumps_canonical(obj)
    return f"{tensor}\n"


def _first_failure(cases, holds, fail_line) -> tuple[list[str], bool]:
    """The report lines of a suite that checks holds(case) for each case in
    turn, stopping at the first that fails, and whether all of them held."""
    count = 0
    for case in cases:
        if not holds(case):
            return [fail_line(case)], False
        count += 1
    return [f"PASS (all {count} cases)"], True


def _cmd_verify(args) -> str:
    """The suite's report.  A failed suite leaves args.failed, which run
    reports on stderr once the report is written, with exit code 3."""
    suite, n = args.suite, args.n
    reports: list[dict] = []
    if suite in ("jacobi-trudi", "stability"):
        if args.max_weight < 0 or n < 1:
            raise UsageError(
                f"the {suite} suite needs --max-weight >= 0 and --n >= 1, "
                f"got {args.max_weight} and {n}"
            )
        from .schur import double_schur, shifted_double_schur

        def holds(lam):
            if suite == "jacobi-trudi":
                return double_schur(lam, n) == double_schur(lam, n, method="det_ratio")
            lifted = shifted_double_schur(lam, n + 1).substitute({x(n + 1): 0})
            return lifted == shifted_double_schur(lam, n)

        cases = partitions_up_to(args.max_weight, n)
        lines, ok = _first_failure(cases, holds, lambda lam: f"FAIL at lambda={tuple(lam)}, n={n}")
    elif suite == "denominator":
        if n < 2:
            raise UsageError(f"the denominator suite needs --n >= 2, got {n}")
        from .schur import alternant_denominator, vandermonde

        lines, ok = _first_failure(
            range(2, n + 1),
            lambda k: alternant_denominator(k) == vandermonde(k),
            lambda k: f"FAIL at n={k}",
        )
    elif suite == "primitivity":
        if args.max_k < 1 or args.max_l < 2:
            raise UsageError(
                "the primitivity suite needs --max-k >= 1 and --max-l >= 2, "
                f"got {args.max_k} and {args.max_l}"
            )
        from .comult import verify_primitivity

        lines, ok = [], True
        fields = ("passed", "even_rank", "odd_rank", "lhs", "rhs")
        for k in range(1, args.max_k + 1):
            for l in range(2, args.max_l + 1):
                report = verify_primitivity(k, l)
                ok = ok and report.passed
                status = "pass" if report.passed else "FAIL"
                lines.append(f"k={k} l={l} {status} {report.seconds:.3f}s")
                reports.append({"k": k, "l": l, **{f: getattr(report, f) for f in fields}})
        lines.append("PASS" if ok else "FAIL")
    else:  # ring-axioms
        if args.cases < 1:
            raise UsageError(f"the ring-axioms suite needs --cases >= 1, got {args.cases}")
        import random

        rng = random.Random(args.seed)
        gens = [x(1), x(2), y(-1), y(2), useq(0), const(1)]

        def rand_poly():
            total = const(0)
            for _ in range(rng.randint(1, 4)):
                term = const(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                for _ in range(rng.randint(0, 2)):
                    term = term * rng.choice(gens)
                total = total + term
            return total

        def holds(_):
            a, b, c = rand_poly(), rand_poly(), rand_poly()
            return (a + b) * c == a * c + b * c and a * b == b * a and (a + b) + c == a + (b + c)

        lines, ok = _first_failure(range(args.cases), holds, lambda _: "FAIL: ring axiom violated")
    if not ok:
        args.failed = suite
    if args.format == "json":
        obj: dict = {"suite": suite, "passed": ok}
        if reports:
            obj["reports"] = reports
        else:
            obj["lines"] = lines
        return dumps_canonical(obj)
    return "\n".join(lines) + "\n"


# Each verb's help line, handler and flags, in the order help lists them.
_VERBS = {
    "schur": ("double or shifted double Schur function", _cmd_schur, _schur_flags),
    "eval": ("stable shifted Schur value at given x arguments", _cmd_eval, _eval_flags),
    "multiply": ("expand a product of two basis elements", _cmd_multiply, _multiply_flags),
    "table": ("multiplication table up to a weight bound", _cmd_table, _table_flags),
    "molev": ("hook-function structure constant", _cmd_molev, _molev_flags),
    "restrict": ("restriction to a torus-fixed point", _cmd_restrict, _restrict_flags),
    "coproduct": ("coproduct of a power-sum polynomial", _cmd_coproduct, _coproduct_flags),
    "verify": ("run a verification suite", _cmd_verify, _verify_flags),
}


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        _emit(args, args.command(args))
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # --help
        return 0 if e.code in (0, None) else int(e.code)
    except (DomainError, OSError) as e:  # OSError: stdout closed, as by a reader that quit
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except ValueError as e:  # a verb rendered an int past sys.get_int_max_str_digits()
        print(f"error: coefficient too large to print: {e}", file=sys.stderr)
        return 2
    except InternalInconsistencyError as e:
        print(f"internal inconsistency: {e}", file=sys.stderr)
        return 3
    if hasattr(args, "failed"):
        print(f"internal inconsistency: the {args.failed} suite failed", file=sys.stderr)
        return 3
    return 0


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise UsageError(f"cannot write --output {args.output!r}: {e.strerror}") from None
    else:
        sys.stdout.write(text)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
