"""Command-line front end.

Subcommands: bracket, jones, kh, homfly, graph poly, graph kh, stable,
verify.  Output is deterministic for fixed inputs and flags; exit code 0
on success, 1 on a computation defect or failed verification, 2 on usage
errors and malformed input.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .graphhom import (
    Pn_homology,
    Qn_homology,
    dichromatic,
    dichromatic_DG,
    enhanced_homology,
    parse_graph,
    specialize_Pn,
    specialize_Qn,
    tutte,
)
from .homcore import HomologyTable, poincare_polynomial
from .homflypt import _normalize_G, homfly_F, homfly_skein_form, specialize_Gn
from .khovanov import (
    jones_unnormalized,
    kauffman_bracket,
    khovanov_homology,
    stable_poincare,
    width_report,
)
from .linkdiag import Diagram, InputError, _int_token, _window_of, braid_closure, markov_reduce, parse_braid, parse_pd
from .verify import SUITES, run_suite


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises argparse's usage errors (``UsageError``) and help (``Help``) for ``run``."""

    class Help(Exception):
        """The help text, for ``run`` to print on its ``out``."""

    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage().rstrip()}")

    def print_help(self, file=None):
        raise self.Help(self.format_help())


def _read(spec: str) -> str:
    """The text of the file named ``spec``, or else ``spec`` itself; a
    file that cannot be read as UTF-8 text is an InputError."""
    if not os.path.exists(spec):
        return spec
    try:
        with open(spec, encoding="utf-8") as f:
            return f.read()
    except OSError as e:
        raise InputError(f"cannot read {spec!r}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise InputError(f"{spec!r} is not UTF-8 text: {e.reason} at byte {e.start}") from None


def _load_diagram(spec: str, reduce: bool = False) -> Diagram:
    """Inline braid text, or a path to a file of braid or PD lines; ``reduce`` Markov-reduces a braid."""
    stripped = _read(spec).strip()
    if not stripped:
        raise InputError("empty diagram input")
    if stripped[:1].upper() == "X":
        return parse_pd(stripped)
    if ":" in stripped:
        b = parse_braid(stripped)
        return braid_closure(markov_reduce(b) if reduce else b)
    raise InputError(f"cannot interpret {spec!r} as a braid or PD code")


def _int_option(text: str) -> int:
    """An option's integer value, read as every integer token is
    (``linkdiag._int_token``); argparse reports a refusal as a usage error."""
    try:
        return _int_token(text, "the command line")
    except InputError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _parse_window(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise UsageError(f"window must look like a..b, got {text!r}")
    where = f"window {text!r}"
    return _window_of((_int_token(lo, where), _int_token(hi, where)), where)


def _emit_table(table: HomologyTable, fmt: str, out) -> None:
    if fmt == "json":
        print(table.to_json(), file=out)
    elif fmt == "csv":
        print(table.to_csv(), end="", file=out)
    else:
        print(table.pretty(), end="", file=out)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing does not change it.  Each
    subcommand sets ``run``, the function that carries it out and returns
    its exit code (None for 0)."""
    ap = _Parser(prog="linkhom", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p_br = sub.add_parser("bracket", help="Kauffman bracket of a diagram")
    p_br.add_argument("input", help="braid text like '2: 1 1 1', or a file of braid/PD lines")
    p_br.set_defaults(run=_cmd_bracket)

    p_jones = sub.add_parser("jones", help="unnormalized Jones polynomial")
    p_jones.add_argument("input")
    p_jones.set_defaults(run=_cmd_jones)

    p_kh = sub.add_parser("kh", help="Khovanov homology of a link diagram")
    p_kh.add_argument("input")
    shown = p_kh.add_mutually_exclusive_group()
    shown.add_argument("--poincare", action="store_true", help="print the two-variable Poincare polynomial")
    shown.add_argument("--width", action="store_true", help="print the diagonal/width report")
    shown.add_argument("--format", choices=("json", "csv", "pretty"), default=None, help="table format (default pretty)")
    p_kh.add_argument("--jwindow", default=None, help="restrict to q-degrees a..b; a negative a is written --jwindow=-5..5")
    p_kh.set_defaults(run=_cmd_kh)

    p_hf = sub.add_parser("homfly", help="HOMFLYPT values of a braid closure")
    p_hf.add_argument("braid")
    p_hf.add_argument("--var", choices=("qt", "at"), default="qt")
    p_hf.add_argument("--specialize", type=_int_option, default=None, metavar="N")
    p_hf.add_argument("--format", choices=("json", "pretty"), default="pretty")
    p_hf.set_defaults(run=_cmd_homfly)

    p_graph = sub.add_parser("graph", help="graph polynomials and homology")
    gsub = p_graph.add_subparsers(dest="graph_command", required=True)
    p_gp = gsub.add_parser("poly", help="graph polynomials")
    p_gp.add_argument("input", help="graph file ('v N' then 'e u v' lines) or inline text")
    which = p_gp.add_mutually_exclusive_group(required=True)
    which.add_argument("--dichromatic", action="store_true")
    which.add_argument("--tutte", action="store_true")
    which.add_argument("--pn", type=_int_option, default=None, metavar="N")
    which.add_argument("--qn", type=_int_option, default=None, metavar="N")
    which.add_argument("--dg", action="store_true")
    p_gp.add_argument("--jwindow", default=None, help="q-degrees a..b of --qn; a negative a is written --jwindow=-5..5")
    p_gp.set_defaults(run=_cmd_graph_poly)
    p_gk = gsub.add_parser("kh", help="graph homology tables")
    p_gk.add_argument("input")
    p_gk.add_argument("--theory", choices=("pn", "qn", "enhanced"), required=True)
    p_gk.add_argument("--n", type=_int_option, default=None, help="n of pn and qn (default 1)")
    p_gk.add_argument("--variant", choices=("zero", "xn"), default=None, help="variant of pn (default zero)")
    p_gk.add_argument("--jwindow", default=None, help="q-degrees a..b of qn and enhanced; a negative a is written --jwindow=-5..5")
    p_gk.add_argument("--format", choices=("json", "csv", "pretty"), default="pretty")
    p_gk.set_defaults(run=_cmd_graph_kh)

    p_st = sub.add_parser("stable", help="stable normalized torus series")
    p_st.add_argument("--m", type=_int_option, required=True)
    p_st.add_argument("--n", required=True, help="twist values, e.g. 3..6 or 3,4,5")
    p_st.set_defaults(run=_cmd_stable)

    p_vf = sub.add_parser("verify", help="run a named verification suite")
    p_vf.add_argument("suite", help=f"one of: {', '.join(sorted(SUITES))}, all")
    p_vf.add_argument("--p", type=_int_option, default=None)
    p_vf.add_argument("--q", type=_int_option, default=None)
    p_vf.set_defaults(run=_cmd_verify)
    return ap


def _cmd_bracket(args, out) -> None:
    print(kauffman_bracket(_load_diagram(args.input)).render(), file=out)


def _cmd_jones(args, out) -> None:
    print(jones_unnormalized(_load_diagram(args.input, reduce=True)).render(), file=out)


def _cmd_kh(args, out) -> None:
    d = _load_diagram(args.input, reduce=True)
    window = _parse_window(args.jwindow) if args.jwindow else None
    table = khovanov_homology(d, jwindow=window)
    if args.poincare:
        print(poincare_polynomial(table).render(), file=out)
    elif args.width:
        if window and not any(rank for rank, _ in table.entries.values()):
            raise UsageError(f"--jwindow {args.jwindow} holds no free rank, so it has no width")
        w = width_report(table)
        kind = "thin" if w.thin else "thick"
        print(f"diagonals {list(w.diagonals)} width {w.width} ({kind})", file=out)
    else:
        _emit_table(table, args.format, out)


def _cmd_homfly(args, out) -> None:
    b = parse_braid(args.braid)
    f = homfly_F(b)
    g = _normalize_G(f, b)
    rows = [("F", f.value.render())]
    if args.var == "qt":
        rows.append(("G", g.render()))
    else:
        rows.append(("G(a,q)", homfly_skein_form(g).render()))
    if args.specialize is not None:
        rows.append((f"G_{args.specialize}", specialize_Gn(g, args.specialize).render()))
    if args.format == "json":
        print(json.dumps({k: v for k, v in rows}, sort_keys=True), file=out)
    else:
        for k, v in rows:
            print(f"{k} = {v}", file=out)


def _cmd_graph_poly(args, out) -> None:
    if args.jwindow is not None and args.qn is None:
        raise UsageError("--jwindow goes only with --qn")
    g = parse_graph(_read(args.input))
    if args.dichromatic:
        print(dichromatic(g).render(), file=out)
    elif args.tutte:
        print(tutte(g).render(), file=out)
    elif args.pn is not None:
        print(specialize_Pn(g, args.pn).render(), file=out)
    elif args.qn is not None:
        if not args.jwindow:
            raise UsageError("--qn requires --jwindow a..b")
        print(specialize_Qn(g, args.qn, _parse_window(args.jwindow)).render(), file=out)
    else:
        print(dichromatic_DG(g).render(), file=out)


def _cmd_graph_kh(args, out) -> None:
    theory = args.theory
    for flag, value, theories in (("--n", args.n, ("pn", "qn")), ("--variant", args.variant, ("pn",)),
                                  ("--jwindow", args.jwindow, ("qn", "enhanced"))):
        if value is not None and theory not in theories:
            raise UsageError(f"{flag} does not go with theory {theory!r}")
    if not args.jwindow and theory != "pn":
        raise UsageError(f"theory {theory!r} requires --jwindow a..b")
    g = parse_graph(_read(args.input))
    n = 1 if args.n is None else args.n
    if theory == "pn":
        table = Pn_homology(g, n, args.variant or "zero")
    elif theory == "qn":
        table = Qn_homology(g, n, _parse_window(args.jwindow))
    else:
        table = enhanced_homology(g, _parse_window(args.jwindow))
    _emit_table(table, args.format, out)


def _parse_n_values(text: str) -> list[int]:
    if ".." in text:
        lo, hi = _parse_window(text)
        return list(range(lo, hi + 1))
    return [_int_token(t, f"twist list {text!r}") for t in text.replace(",", " ").split()]


def _cmd_stable(args, out) -> int:
    polys, agreements = stable_poincare(args.m, _parse_n_values(args.n))
    for n, p in polys:
        print(f"n={n}: {p.render()}", file=out)
    code = 0
    for (n1, n2, bound, ok) in agreements:
        mark = "PASS" if ok else "FAIL"
        print(f"{mark} agreement n={n1} vs n={n2} for t-powers below {bound}", file=out)
        if not ok:
            code = 1
    return code


def _cmd_verify(args, out) -> int:
    reports = run_suite(args.suite, p=args.p, q=args.q)
    code = 0
    for rep in reports:
        for line in rep.lines():
            print(line, file=out)
        if not rep.ok:
            code = 1
    print("OVERALL " + ("PASS" if code == 0 else "FAIL"), file=out)
    return code


def run(argv, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args, out) or 0
    except _Parser.Help as e:
        print(e, end="", file=out)
        return 0
    except UsageError as e:
        print(f"usage error: {e}", file=err)
        return 2
    except InputError as e:
        print(f"input error: {e}", file=err)
        return 2
    except (ValueError, ArithmeticError) as e:
        print(f"computation error: {e}", file=err)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
