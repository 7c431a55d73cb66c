"""Command-line frontend.

Exit codes: 0 everything verified, 1 a property failed (witness printed),
3 malformed input.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from math import factorial

from . import jordan as jordan_mod
from . import jspace as jspace_mod
from . import symfun
from . import tkk as tkk_mod
from . import weyl as weyl_mod
from .jordan import InputError
from .jspace import LevelError
from .linalg import random_vector
from .weyl import ExtensionError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 3


class _Parser(argparse.ArgumentParser):
    """Usage errors are malformed input: main reports them with exit code 3."""

    def error(self, message):
        raise InputError(message)


def _int_at_least(low):
    """argparse type for an integer flag with a lower bound."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _add_algebra_args(p):
    p.add_argument("--algebra", help="path to an algebra JSON file")
    p.add_argument("--builtin", choices=["truncated-poly", "matrix", "spin-factor"],
                   help="builtin algebra family")
    p.add_argument("--degree", type=int, default=3,
                   help="degree bound for truncated-poly (default 3)")
    p.add_argument("--size", type=int, default=2,
                   help="matrix size for the matrix family (default 2)")
    p.add_argument("--dim", type=int, default=2,
                   help="vector dimension for spin-factor (default 2)")


def _resolve_algebra(args):
    if getattr(args, "algebra", None):
        return jordan_mod.load_algebra(args.algebra)
    family = getattr(args, "builtin", None) or "truncated-poly"
    return jordan_mod.builtin(family, degree=args.degree, size=args.size, dim=args.dim)


def _add_rep_args(p):
    p.add_argument("--rep", help="path to a representation JSON file")
    p.add_argument("--builtin-rep",
                   choices=["newton", "zero", "regular", "doubled-regular"],
                   help="builtin representation")
    p.add_argument("--n", type=int, default=2, help="level for the newton rep")
    p.add_argument("--cutoff", type=int, default=3,
                   help="degree cutoff for the newton rep (default 3)")


def _resolve_rep(args):
    if getattr(args, "rep", None):
        return jspace_mod.load_rep(args.rep)
    kind = getattr(args, "builtin_rep", None) or "newton"
    if kind == "newton":
        return jspace_mod.newton_rep(args.n, args.cutoff)
    J = _resolve_algebra(args)
    if kind == "zero":
        return jspace_mod.zero_rep(J)
    if kind == "doubled-regular":
        return jspace_mod.doubled_regular_rep(J)
    return jspace_mod.regular_rep(J)


def _add_format(p, *extra):
    p.add_argument("--format", choices=["table", "json", *extra], default="table")


def _emit_report(report, fmt, extra=None):
    if fmt == "json":
        data = {
            "title": report.title,
            "ok": report.ok,
            "items": [{"name": it.name, "ok": it.ok, "detail": it.detail}
                      for it in report.items],
        }
        if extra:
            data.update(extra)
        print(json.dumps(data, sort_keys=True))
    else:
        if extra:
            for k, v in extra.items():
                print(f"{k}: {v}")
        for line in report.lines():
            print(line)


def cmd_jordan_check(args):
    J = _resolve_algebra(args)
    report = jordan_mod.validate(J)
    _emit_report(report, args.format)
    return EXIT_OK if report.ok else EXIT_FAIL


def cmd_tkk(args):
    J = _resolve_algebra(args)
    ext = tkk_mod.build_sl2(J)
    classical = tkk_mod.build_tkk(J)
    d = J.dim
    header = {
        "algebra": J.name,
        "dim sl2(J)": ext.dim,
        "dim {J,J}": ext.tail_dim,
        "grading": f"{d}/{d + ext.tail_dim}/{d}",
        "dim TKK(J)": classical.dim,
        "dim Inn J": classical.tail_dim,
    }
    if args.action == "build":
        if args.format == "json":
            data = tkk_mod.algebra_to_dict(ext)
            data["summary"] = {k: str(v) for k, v in header.items()}
            print(json.dumps(data, sort_keys=True))
        else:
            for k, v in header.items():
                print(f"{k}: {v}")
        return EXIT_OK
    report = tkk_mod.validate_lie(ext)
    report.merge(tkk_mod.short_grading(ext), prefix="grading: ")
    _, ker, cmrep = tkk_mod.center_map(ext, classical)
    report.merge(cmrep, prefix="center map: ")
    header["dim center-map kernel"] = len(ker)
    _emit_report(report, args.format, extra=header)
    return EXIT_OK if report.ok else EXIT_FAIL


def cmd_jspace_check(args):
    rep = _resolve_rep(args)
    # check_jspace takes J as valid; an invalid one is malformed input here
    jordan_mod.ensure_valid(rep.jordan)
    # both reports read the rep's one verdict on the square commutation
    report = jspace_mod.check_jspace(rep)
    try:
        n = jspace_mod.level(rep)
        level_line = f"level {n}"
    except LevelError as exc:
        level_line = f"level error: {exc}"
        report.add("level", False, str(exc))
        _emit_report(report, args.format, extra={"level": level_line})
        return EXIT_FAIL
    env = jspace_mod.check_envelope_relations(rep)
    # the envelope decides dominance too; its item is the envelope's last
    dom = env.items[-1]
    verdict = "dominant" if dom.ok else "not dominant"
    report.add(f"dominance: {dom.name}", dom.ok, dom.detail)
    report.merge(env, prefix="envelope: ")
    extra = {"level": n, "dominance": f"{verdict} (symbolic)"}
    if not dom.ok:
        # a monomial of the generic element and a module column
        extra["witness"] = dom.detail.removeprefix("witness ")
    _emit_report(report, args.format, extra=extra)
    return EXIT_OK if report.ok else EXIT_FAIL


def cmd_weyl_dims(args):
    table = weyl_mod.weyl_dimensions(_resolve_rep(args), args.max_degree)
    lines_out = []
    if args.format == "csv":
        lines_out = table.to_csv_lines()
    elif args.format == "json":
        lines_out = [json.dumps(table.to_json_dict(), sort_keys=True)]
    else:
        lines_out = ["weight degree dim"]
        for (w, d) in table.keys_sorted():
            lines_out.append(f"{w:6d} {d:6d} {table.dims[(w, d)]:4d}")
    for line in lines_out:
        print(line)
    if args.oracle == "snlt":
        oracle = weyl_mod.snlt_oracle(table.n, args.max_degree)
        delta = table.diff(oracle)
        if delta:
            for (w, d, got, want) in delta:
                print(f"oracle mismatch at weight {w} degree {d}: {got} != {want}",
                      file=sys.stderr)
            return EXIT_FAIL
        print("oracle: symmetric-power enumeration matches")
    if not table.meta.get("certificate_ok"):
        print("submodule certificate failed", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def cmd_garland_verify(args):
    g0, n = weyl_mod.checked_extension(_resolve_rep(args))
    rng = random.Random(args.seed)
    rrs = sorted({0, 1, n, n + 1})
    ok = True
    for t in range(args.samples):
        a = random_vector(rng, g0.rep.jordan.dim)
        # the two integer cores, compared by cross-multiplication
        direct = weyl_mod.efr_powers_int(g0, a, rrs)
        series = weyl_mod.garland_coefficients_int(g0, a, rrs)
        for rr in rrs:
            same = weyl_mod.same_ratio(direct[rr], series[rr])
            status = "PASS" if same else "FAIL"
            print(f"sample {t} r={rr}: straightening vs generating function {status}")
            ok = ok and same
    print(f"seed: {args.seed}")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_symfun(args):
    n = args.n
    if args.action == "relation":
        report = symfun.verify_newton_dependence(n)
        verdict = "PASS" if report.ok else "FAIL"
        print(f"{symfun.relation_string(n)} {verdict}")
        if args.format == "json":
            _emit_report(report, "json")
        return EXIT_OK if report.ok else EXIT_FAIL
    if args.action == "frobenius":
        report = symfun.verify_frobenius(n)
        _emit_report(report, args.format)
        return EXIT_OK if report.ok else EXIT_FAIL
    if args.action == "coeffs":
        coeffs = symfun.dominance_coeffs(n)
        parts = []
        for sigma in reversed(list(coeffs)):
            c = coeffs[sigma]
            parts.append(f"({','.join(map(str, sigma))}):{'+' if c > 0 else ''}{c}")
        print(" ".join(parts))
        return EXIT_OK
    # classes
    total = 0
    for sigma in symfun.partitions(n):
        size = symfun.class_size(sigma)
        total += size
        print(f"({','.join(map(str, sigma))}) size {size} sign {symfun.sign(sigma):+d}")
    ok = total == factorial(n)
    print(f"total {total} {'=' if ok else '!='} {n}! {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_FAIL


def build_parser():
    parser = _Parser(
        prog="tkkwb",
        description="exact workbench for TKK algebras, J-spaces and Weyl modules")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("jordan", help="jordan algebra checks")
    psub = p.add_subparsers(dest="action", required=True)
    pc = psub.add_parser("check", help="validate the axioms")
    _add_algebra_args(pc)
    _add_format(pc)
    pc.add_argument("--seed", type=int, default=0,
                    help="has no effect: every verdict is exhaustive")
    pc.set_defaults(func=cmd_jordan_check)

    p = sub.add_parser("tkk", help="build and validate the lie algebras")
    psub = p.add_subparsers(dest="action", required=True)
    pb = psub.add_parser("build")
    _add_algebra_args(pb)
    _add_format(pb)
    pb.set_defaults(func=cmd_tkk)
    pc = psub.add_parser("check")
    _add_algebra_args(pc)
    _add_format(pc)
    pc.add_argument("--seed", type=int, default=0,
                    help="has no effect: every verdict is exhaustive")
    pc.set_defaults(func=cmd_tkk)

    p = sub.add_parser("jspace", help="representation checks")
    psub = p.add_subparsers(dest="action", required=True)
    pc = psub.add_parser("check")
    _add_algebra_args(pc)
    _add_rep_args(pc)
    _add_format(pc)
    pc.add_argument("--seed", type=int, default=0,
                    help="has no effect: every verdict is exact")
    pc.set_defaults(func=cmd_jspace_check)

    p = sub.add_parser("weyl", help="graded dimension tables")
    psub = p.add_subparsers(dest="action", required=True)
    pd = psub.add_parser("dims")
    _add_algebra_args(pd)
    _add_rep_args(pd)
    _add_format(pd, "csv")
    pd.add_argument("--seed", type=int, default=0,
                    help="has no effect: the tables depend on no seed")
    pd.add_argument("--max-degree", type=int, required=True)
    pd.add_argument("--oracle", choices=["snlt"], default=None,
                    help="diff the table against the enumeration oracle")
    pd.set_defaults(func=cmd_weyl_dims)

    p = sub.add_parser("garland", help="generating-function cross-check")
    psub = p.add_subparsers(dest="action", required=True)
    pv = psub.add_parser("verify")
    _add_algebra_args(pv)
    _add_rep_args(pv)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--samples", type=_int_at_least(1), default=8)
    pv.set_defaults(func=cmd_garland_verify)

    p = sub.add_parser("symfun", help="symmetric function identities")
    psub = p.add_subparsers(dest="action", required=True)
    # coeffs --n 0 is the relation in degree 1; the others need n >= 1
    for action, low in (("relation", 1), ("frobenius", 1), ("coeffs", 0), ("classes", 1)):
        pa = psub.add_parser(action)
        pa.add_argument("--n", type=_int_at_least(low), required=True)
        if action in ("relation", "frobenius"):
            _add_format(pa)
        pa.set_defaults(func=cmd_symfun, action=action)

    return parser


@functools.cache
def _parser():
    """build_parser's parser, built on the first call and kept: parsing
    leaves no state on it, so every later main call of the process reuses it."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (InputError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except LevelError as exc:
        print(f"level error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ExtensionError as exc:
        print(exc, file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
