"""Command-line front end.

Subcommands: eval, series, plot, sheets, converge, walks, check.
Output is JSON by default (17 significant digits, complex numbers as
[re, im] pairs); tabular commands emit CSV.  Exit codes: 0 success,
2 domain error, 3 precision error, 4 invariant failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import expansions, oracles, surface
from .checks import FAULT_MODES, run_all_checks
from .errors import DomainError, GridZetaError, InvariantError, PrecisionError
from .finite_graphs import convergence_table, convergence_table_csv
from .regions import classify_u
from .special import modulus_from_u, nome_t_from_u, u_pair_from_t

EXIT_DOMAIN = 2
EXIT_PRECISION = 3
EXIT_INVARIANT = 4


def parse_complex(text: str) -> complex:
    """Parse 'a', 'bi', or 'a+bi' with optional signs and exponents."""
    s = text.strip().replace(" ", "").replace("I", "i").replace("j", "i")
    if not s:
        raise DomainError("empty complex literal")
    if not s.endswith("i"):
        try:
            return complex(float(s), 0.0)
        except ValueError as exc:
            raise DomainError(f"cannot parse complex literal {text!r}") from exc
    body = s[:-1]
    split = -1
    for pos in range(len(body) - 1, 0, -1):
        if body[pos] in "+-" and body[pos - 1] not in "eE":
            split = pos
            break
    real_part, imag_part = (body[:split], body[split:]) if split > 0 else ("", body)
    if imag_part in ("", "+"):
        imag = 1.0
    elif imag_part == "-":
        imag = -1.0
    else:
        try:
            imag = float(imag_part)
        except ValueError as exc:
            raise DomainError(f"cannot parse complex literal {text!r}") from exc
    try:
        real = float(real_part) if real_part else 0.0
    except ValueError as exc:
        raise DomainError(f"cannot parse complex literal {text!r}") from exc
    return complex(real, imag)


def _fmt(x: float) -> str:
    return "%.17g" % x


def _jsonable(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, float):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _emit_json(payload: dict):
    print(json.dumps(_jsonable(payload), default=str))


def _csv_cell(value) -> str:
    if isinstance(value, complex):
        return f"{_fmt(value.real)},{_fmt(value.imag)}"
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def _emit_kv_csv(payload: dict):
    rows = payload.get("rows")
    for key, value in payload.items():
        if key != "rows":
            print(f"{key},{_csv_cell(value)}")
    if rows:
        header = list(rows[0].keys())
        cols = []
        for name in header:
            if isinstance(rows[0][name], complex):
                cols.extend([f"{name}_re", f"{name}_im"])
            else:
                cols.append(name)
        print(",".join(cols))
        for row in rows:
            print(",".join(_csv_cell(row[name]) for name in header))


def _emit(payload: dict, fmt: str):
    if fmt == "csv":
        _emit_kv_csv(payload)
    else:
        _emit_json(payload)


# -- subcommands ---------------------------------------------------------------


def cmd_eval(args) -> int:
    u = parse_complex(args.u)
    tag = classify_u(u)
    payload: dict = {"command": "eval", "u": u, "region": tag.value, "route": args.route}
    if args.route == "quadrature":
        spec = oracles.QuadratureSpec(abs_tol=args.tol, rel_tol=args.tol)
        z = oracles.zeta_via_quadrature(u, spec)
        t = nome_t_from_u(u) if u != 0 else 0j
    elif args.route == "series":
        if abs(u) >= 1.0 / 3.0:
            raise DomainError("the series route converges only for |u| < 1/3")
        max_m = max(args.order // 2, 1)
        tail = expansions.zeta_series_tail_bound(2 * max_m, abs(u))
        if tail > args.tol:
            raise PrecisionError(
                f"series tail past u^{2 * max_m} may reach {tail:.3e}, above --tol {args.tol:.0e}"
            )
        z = expansions.zeta_series(max_m).evaluate(u)
        sigma = surface.lift_principal(u)
        t = sigma.t
    else:
        sigma = surface.lift_principal(u)
        z = surface.zeta_tilde(sigma)
        t = sigma.t
    payload["zeta"] = z
    payload["t"] = t
    payload["k"] = modulus_from_u(u)
    _emit(payload, args.format)
    return 0


def cmd_series(args) -> int:
    if args.order < 2:
        raise DomainError("series needs --order >= 2")
    max_m = args.order // 2
    tl = expansions.trlog_series(max_m)
    det = expansions.det_series(max_m)
    z = expansions.zeta_series(max_m)
    payload = {
        "command": "series",
        "order": 2 * max_m,
        "trlog": [str(c) for c in tl.coeffs],
        "det": [str(c) for c in det.coeffs],
        "zeta": [str(c) for c in z.coeffs],
    }
    _emit(payload, args.format)
    return 0


def _plot_real_zeta(args):
    lo, hi = args.range
    if not (-1 / 3 < lo < hi < 1 / 3):
        raise DomainError("real_zeta needs a range inside (-1/3, 1/3)")
    print("u,Z")
    for u in np.linspace(lo, hi, args.samples):
        z = surface.zeta_tilde(surface.lift_principal(complex(u)))
        print(f"{_fmt(u)},{_fmt(z.real)}")


def _plot_sheets_abs(args):
    print("t_re,t_im,u_re,u_im,absZ")
    n = max(int(round(args.samples ** 0.5)), 2)
    for re in np.linspace(-args.radius, args.radius, n):
        for im in np.linspace(-args.radius, args.radius, n):
            t = complex(re, im)
            if not 1e-3 < abs(t) <= args.radius:
                continue
            try:
                for u in u_pair_from_t(t):
                    z = surface.zeta_tilde(surface.SurfacePoint(u, t))
                    print(
                        f"{_fmt(t.real)},{_fmt(t.imag)},{_fmt(u.real)},{_fmt(u.imag)},{_fmt(abs(z))}"
                    )
            except GridZetaError:
                continue


def _plot_imag_branchcut(args):
    print("u_re,u_im,imZ")
    lo, hi = args.range
    n = max(int(round(args.samples ** 0.5)), 2)
    for re in np.linspace(lo, hi, n):
        for im in np.linspace(lo, hi, n):
            u = complex(re, im)
            try:
                z = surface.zeta_principal(u)
            except GridZetaError:
                continue
            print(f"{_fmt(u.real)},{_fmt(u.imag)},{_fmt(z.imag)}")


def cmd_plot(args) -> int:
    if args.kind == "real_zeta":
        _plot_real_zeta(args)
    elif args.kind == "sheets_abs":
        _plot_sheets_abs(args)
    else:
        _plot_imag_branchcut(args)
    return 0


def _reduced_letter_words(depth: int):
    words = [()]
    frontier = [()]
    letters = (1, -1, 2, -2, 3, -3)
    for _ in range(depth):
        nxt = []
        for w in frontier:
            for letter in letters:
                if w and w[-1] == -letter:
                    continue
                nxt.append(w + (letter,))
        words.extend(nxt)
        frontier = nxt
    return words


def cmd_sheets(args) -> int:
    u = parse_complex(args.u)
    base = surface.lift_principal(u)
    records = []
    skipped = 0
    for letters in _reduced_letter_words(args.depth):
        word = surface.DeckWord.from_letters(letters)
        try:
            sigma = surface.deck_transform(base, word)
            z = surface.zeta_tilde(sigma)
        except PrecisionError:
            skipped += 1
            continue
        records.append(
            {
                "word": str(word),
                "t": sigma.t,
                "u": sigma.u,
                "zeta": z,
                "relation_residual": abs(modulus_from_u(sigma.u) - sigma.k),
                "functional_equation_residual": surface.functional_equation_residual(sigma),
            }
        )
    distinct: list[complex] = []
    for rec in records:
        z = rec["zeta"]
        if all(abs(z - w) > 1e-8 * max(1.0, abs(w)) for w in distinct):
            distinct.append(z)
    payload = {
        "command": "sheets",
        "u": u,
        "depth": args.depth,
        "n_words": len(records),
        "n_skipped_near_boundary": skipped,
        "n_distinct_zeta": len(distinct),
        "sheets": records,
    }
    _emit(payload, "json" if args.format == "csv" else args.format)
    return 0


def cmd_converge(args) -> int:
    u = parse_complex(args.u)
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError as exc:
        raise DomainError(f"--sizes must be comma-separated integers, got {args.sizes!r}") from exc
    rows = convergence_table(args.family, u, sizes)
    print(convergence_table_csv(rows))
    return 0


def cmd_walks(args) -> int:
    payload: dict = {"command": "walks", "kind": args.kind}
    if args.kind == "closed":
        payload["rows"] = [
            {"k": k, "length": 2 * k, "dp": str(oracles.closed_walk_count_dp(k)),
             "binomial_sq": str(expansions.closed_walk_moment(k))}
            for k in range(args.max + 1)
        ]
    elif args.kind == "geodesic":
        series_counts = dict(expansions.geodesic_counts_from_series(args.max))
        payload["rows"] = [
            {"m": m, "dp": str(oracles.geodesic_count_dp(m)), "series": str(series_counts[m])}
            for m in range(2, args.max + 1, 2)
        ]
    else:
        payload["rows"] = [
            {
                "m": m,
                "oriented": oracles.primitive_class_count(m, oriented=True),
                "unoriented": oracles.primitive_class_count(m, oriented=False),
            }
            for m in range(4, args.max + 1, 2)
        ]
    _emit(payload, args.format)
    return 0


def cmd_check(args) -> int:
    results = run_all_checks(fault=args.inject_fault)
    payload = {
        "command": "check",
        "passed": all(r.passed for r in results),
        "results": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
    }
    _emit(payload, args.format)
    if not payload["passed"]:
        raise InvariantError("invariant battery failed")
    return 0


# -- argument plumbing ----------------------------------------------------------


def _range_pair(text: str):
    lo, _, hi = text.partition(":")
    return float(lo), float(hi)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gridzeta",
        description="Zeta function of the square lattice: closed form, quadrature, and exact series.",
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--tol", type=float, default=1e-10, help="quadrature tolerance")
    p.add_argument("--order", type=int, default=20, help="series truncation order (in u)")

    # the global flags are also accepted after the subcommand; SUPPRESS keeps
    # the pre-subcommand value unless explicitly overridden
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default=argparse.SUPPRESS)
    common.add_argument("--tol", type=float, default=argparse.SUPPRESS)
    common.add_argument("--order", type=int, default=argparse.SUPPRESS)

    sub = p.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    sp = add_parser("eval", help="evaluate the zeta function at a point")
    sp.add_argument("--u", required=True, help="complex literal, e.g. 0.1 or 0.1+0.2i")
    sp.add_argument("--route", choices=("theta", "quadrature", "series"), default="theta")
    sp.set_defaults(func=cmd_eval)

    sp = add_parser("series", help="exact rational series coefficients")
    sp.set_defaults(func=cmd_series)

    sp = add_parser("plot", help="emit figure data as CSV")
    sp.add_argument("--kind", choices=("real_zeta", "sheets_abs", "imag_branchcut"),
                    required=True)
    sp.add_argument("--range", type=_range_pair, default=(-0.32, 0.32),
                    help="lo:hi range (real_zeta: u interval; imag_branchcut: square side)")
    sp.add_argument("--samples", type=int, default=256)
    sp.add_argument("--radius", type=float, default=0.55, help="t-disk radius for sheets_abs")
    sp.set_defaults(func=cmd_plot)

    sp = add_parser("sheets", help="enumerate sheets over a fixed u by deck words")
    sp.add_argument("--u", required=True)
    sp.add_argument("--depth", type=int, default=2)
    sp.set_defaults(func=cmd_sheets)

    sp = add_parser("converge", help="finite-graph convergence table (CSV)")
    sp.add_argument("--family", choices=("grid", "torus"), required=True)
    sp.add_argument("--u", required=True)
    sp.add_argument("--sizes", default="8,16,32")
    sp.set_defaults(func=cmd_converge)

    sp = add_parser("walks", help="exact walk/geodesic/class counts")
    sp.add_argument("--kind", choices=("closed", "geodesic", "primitive"), default="geodesic")
    sp.add_argument("--max", type=int, default=12)
    sp.set_defaults(func=cmd_walks)

    sp = add_parser("check", help="run the full invariant battery")
    sp.add_argument("--inject-fault", choices=FAULT_MODES, default=None,
                    help="corrupt one coefficient to prove the battery detects it")
    sp.set_defaults(func=cmd_check)
    return p


def _check_args(args):
    """Refuse numeric flags outside their range instead of clamping them."""
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise DomainError(f"--tol must be a positive finite number, got {args.tol!r}")
    if args.order < 0:
        raise DomainError(f"--order must be >= 0, got {args.order}")
    if getattr(args, "depth", 0) < 0:
        raise DomainError(f"--depth must be >= 0, got {args.depth}")
    if getattr(args, "samples", 1) < 1:
        raise DomainError(f"--samples must be >= 1, got {args.samples}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_args(args)
        return args.func(args)
    except InvariantError as exc:
        print(json.dumps({"error": str(exc), "type": "invariant"}), file=sys.stderr)
        return EXIT_INVARIANT
    except PrecisionError as exc:
        print(json.dumps({"error": str(exc), "type": "precision"}), file=sys.stderr)
        return EXIT_PRECISION
    except DomainError as exc:
        print(json.dumps({"error": str(exc), "type": "domain"}), file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
