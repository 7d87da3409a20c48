"""Command-line front end: the ``quad`` tool.

Subcommands::

    quad integrate --integrand sin2 --rule M --panels 2
    quad bracket   --integrand asin6 --pair L,R --panels 8
    quad table     --integrand asin6 --rules L,R,M,T,S,T2 --panels 2^0..2^10
    quad degree    --rule Q --max 8
    quad pi        --example 3 --panels 1024 --prec 256

``--integrand`` takes a built-in name (sin2, asin6, atan2) or expression
text; expression integrands and overridden intervals need both ``--a`` and
``--b`` (decimal literals).  ``--panels`` accepts an integer, a comma list,
and the doubling shorthand 2^k..2^m.  Defaults for ``--prec`` (bits) and
``--format`` (text, csv, json) come from the QUAD_PREC and QUAD_FORMAT
environment variables when set.

Exit status: 0 on success, 1 on usage errors (unknown flag, rule or
integrand, malformed input or environment default, an integrand whose
derivative the rule needs but cannot be taken) and on a closed stdout,
2 on numeric domain errors (the message names the offending node and
panel).  Data goes to stdout,
diagnostics to stderr; output bytes are deterministic for fixed inputs and
precision.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from mpmath import mp

from .analysis import (Reference, convergence_table, degree_probe,
                       digits_correct, signed_error, table_to_csv,
                       table_to_json)
from .associate import SAMPLES, associate_value, bracket, \
    check_assumption_A, companion_pair
from .composite import composite_values
from .expr import DifferentiationError, DomainError, ParseError, parse
from .integrand import BUILTIN_NAMES, Integrand, builtin_integrand
from .precision import fits_double, format_real, pi_at
from .rules import (QUOTED_DEGREES, Interval, UnknownRuleError,
                    rule_names)

_FORMATS = ("text", "csv", "json")


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _precision(text):
    try:
        bits = int(text)
    except ValueError:
        bits = None
    if bits is None or bits < 4:
        raise argparse.ArgumentTypeError(
            f"precision must be an integer of at least 4 bits, got {text!r}")
    return bits


def _output_format(text):
    if text not in _FORMATS:
        choices = ", ".join(map(repr, _FORMATS))
        raise argparse.ArgumentTypeError(
            f"invalid choice: {text!r} (choose from {choices})")
    return text


def _add_common(sub):
    # string defaults pass through ``type`` too, so the environment values
    # are checked like command-line ones, inside main's error handling
    sub.add_argument("--prec", type=_precision,
                     default=os.environ.get("QUAD_PREC", "53"),
                     help="working precision in bits (default 53)")
    sub.add_argument("--format", type=_output_format,
                     default=os.environ.get("QUAD_FORMAT", "text"),
                     help="output format: text, csv or json (default text)")


def build_parser():
    parser = _ArgumentParser(prog="quad",
                             description="companion/associate quadrature")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("integrate", help="apply one composite rule")
    p.add_argument("--integrand", required=True,
                   help="built-in name or expression in x")
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--rule", default="S")
    p.add_argument("--panels", default="1")
    _add_common(p)
    p.set_defaults(func=cmd_integrate)

    p = subs.add_parser("bracket", help="two-rule enclosure of the integral")
    p.add_argument("--integrand", required=True)
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--pair", default="L,R", help="two rule names, e.g. L,R")
    p.add_argument("--panels", default="1")
    _add_common(p)
    p.set_defaults(func=cmd_bracket)

    p = subs.add_parser("table", help="convergence table over panel counts")
    p.add_argument("--integrand", required=True)
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--rules", default="L,R,M,T,S,T2")
    p.add_argument("--panels", default="2^0..2^10")
    _add_common(p)
    p.set_defaults(func=cmd_table)

    p = subs.add_parser("degree", help="exact-rational degree probe")
    p.add_argument("--rule", required=True)
    p.add_argument("--max", type=int, default=8, dest="max_k")
    _add_common(p)
    p.set_defaults(func=cmd_degree)

    p = subs.add_parser("pi", help="the three built-in pi integrals")
    p.add_argument("--example", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--rule", default="S")
    p.add_argument("--panels", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_pi)
    return parser


def parse_panels(text):
    """Panel list: integers, comma lists, and the 2^k..2^m doubling sweep."""
    out = []
    for item in str(text).split(","):
        item = item.strip()
        m = re.fullmatch(r"2\^(\d+)\.\.2\^(\d+)", item)
        if m:
            lo, hi = int(m.group(1)), int(m.group(2))
            if lo > hi:
                raise UsageError(f"empty panel range {item!r}")
            out.extend(2 ** j for j in range(lo, hi + 1))
            continue
        try:
            n = int(item)
        except ValueError:
            raise UsageError(f"bad panel count {item!r}") from None
        out.append(n)
    if not out or min(out) < 1:
        raise UsageError("panel counts must be positive integers")
    return sorted(set(out))


def _resolve_integrand(args):
    name = args.integrand
    has_a = getattr(args, "a", None) is not None
    has_b = getattr(args, "b", None) is not None
    if has_a != has_b:
        raise UsageError("--a and --b must be given together")
    if name in BUILTIN_NAMES:
        f = builtin_integrand(name)
        if has_a:
            # explicit bounds override the built-in interval; the closed-form
            # reference only holds for the built-in one, so it is dropped
            f = Integrand(f.expression, _interval(args), None, f.name)
        return f
    try:
        expression = parse(name)
    except ParseError as err:
        raise UsageError(
            f"--integrand {name!r} is neither a built-in "
            f"({', '.join(BUILTIN_NAMES)}) nor a valid expression: {err}"
        ) from None
    if not has_a:
        raise UsageError("expression integrands need --a and --b")
    return Integrand(expression, _interval(args), None, None)


def _interval(args):
    try:
        return Interval(args.a, args.b)
    except (ParseError, ValueError) as err:
        raise UsageError(f"bad interval: {err}") from None


def _rule_list(text):
    try:
        names = rule_names([r.strip() for r in text.split(",") if r.strip()])
    except UnknownRuleError as err:
        raise UsageError(str(err)) from None
    if len(set(names)) != len(names):
        raise UsageError(f"repeated rule name in {text!r}")
    return names


def _one_rule(text):
    names = _rule_list(text)
    if len(names) != 1:
        raise UsageError(f"expected one rule name, got {text!r}")
    return names[0]


def _single_panels(args):
    panels = parse_panels(args.panels)
    if len(panels) != 1:
        raise UsageError("this subcommand takes a single panel count")
    return panels[0]


def cmd_integrate(args):
    f = _resolve_integrand(args)
    rule = _one_rule(args.rule)
    n = _single_panels(args)
    value = composite_values(f, f.interval, (rule,), n, args.prec)[rule]
    ref = Reference.for_integrand(f)
    err_text = None
    if ref is not None:
        err_text = format_real(signed_error(value, ref, args.prec), args.prec)
    if args.format == "json":
        payload = {"integrand": f.label(), "rule": rule, "panels": n,
                   "precision": args.prec,
                   "value": format_real(value, args.prec)}
        if err_text is not None:
            payload["error"] = err_text
        print(json.dumps(payload, indent=2))
    else:
        print(f"integrand {f.label()}")
        print(f"rule {rule} with {n} panel(s) at {args.prec}-bit precision")
        print(f"value = {format_real(value, args.prec)}")
        if err_text is not None:
            print(f"error vs reference = {err_text}")
    return 0


def cmd_bracket(args):
    f = _resolve_integrand(args)
    names = _rule_list(args.pair)
    if len(names) != 2:
        raise UsageError("--pair needs exactly two rule names")
    x_name, y_name = names
    n = _single_panels(args)
    values = composite_values(f, f.interval, names, n, args.prec)
    enclosure = bracket(values[x_name], values[y_name])

    pair = companion_pair(x_name, y_name)
    verdict = assoc = weights = None
    if pair is not None:
        verdict = check_assumption_A(f, pair.derivative_order, args.prec)
        weights = pair.weights()
        assoc = associate_value(values[pair.positive.name],
                                values[pair.negative.name], weights)
    ref = Reference.for_integrand(f)
    contains = None
    if ref is not None:
        contains = enclosure.contains(ref.value_at(args.prec + 32))

    if args.format == "json":
        payload = {"integrand": f.label(), "pair": list(names), "panels": n,
                   "precision": args.prec,
                   "values": {r: format_real(values[r], args.prec)
                              for r in names},
                   "bracket": [format_real(enclosure.lo, args.prec),
                               format_real(enclosure.hi, args.prec)]}
        if assoc is not None:
            payload["associate"] = format_real(assoc, args.prec)
            payload["weights"] = [weights.c1, weights.c2]
            payload["assumption"] = verdict.tag
            payload["assumption_basis"] = "sampled"
        if contains is not None:
            payload["contains_reference"] = contains
        print(json.dumps(payload, indent=2))
        return 0

    print(f"integrand {f.label()}")
    print(f"pair ({x_name}, {y_name}) with {n} panel(s) "
          f"at {args.prec}-bit precision")
    for r in names:
        print(f"{r}_{n} = {format_real(values[r], args.prec)}")
    print(f"bracket = [{format_real(enclosure.lo, args.prec)}, "
          f"{format_real(enclosure.hi, args.prec)}]")
    if pair is None:
        print("note: not a companion pair; the enclosure is unverified")
    else:
        print(f"associate (weights {weights.c1}:{weights.c2}) = "
              f"{format_real(assoc, args.prec)}")
        print(f"assumption check (order {pair.derivative_order}): {verdict}")
        if verdict.uniform:
            print(f"note: sign sampled at {SAMPLES} points, not proven")
        else:
            print("note: sign check failed, the bracket is unverified")
    if contains is not None:
        print(f"contains reference: {'true' if contains else 'false'}")
    return 0


def cmd_table(args):
    f = _resolve_integrand(args)
    names = _rule_list(args.rules)
    if len(names) < 2:
        raise UsageError("--rules needs at least two rule names")
    n_list = parse_panels(args.panels)
    if f.reference is None:
        raise UsageError("table needs a reference value; use a built-in "
                         "integrand with its own interval")
    rows = convergence_table(f, names, n_list, args.prec)
    if args.format == "csv":
        sys.stdout.write(table_to_csv(rows, names, args.prec))
    elif args.format == "json":
        print(table_to_json(rows, names, args.prec))
    else:
        print(f"integrand {f.label()}  ({args.prec}-bit precision)")
        flags = rows[0].assumptions if rows else {}
        if flags:
            print("assumption checks: "
                  + "  ".join(f"({k})={v}" for k, v in sorted(flags.items())))
        order_width = max(6, max(len(r.order) for r in rows))
        header = f"{'n':>6}  {'order':<{order_width}}"
        for r in names:
            header += f"  {'err_' + r:>13}"
        print(header)
        for row in rows:
            if row.note:
                print(f"{row.panels:>6}  error: {row.note}")
                continue
            line = f"{row.panels:>6}  {row.order:<{order_width}}"
            for r in names:
                line += f"  {_sci(row.errors[r]):>13}"
            print(line)
    return 0


def _sci(x):
    if x == 0:
        return "0"
    if fits_double(x):
        return f"{float(x):.4e}"
    return mp.nstr(x, 5, strip_zeros=False, min_fixed=1, max_fixed=0)


def cmd_degree(args):
    rule = _one_rule(args.rule)
    if args.max_k < 1:
        raise UsageError(f"--max must be at least 1, got {args.max_k}")
    probe = degree_probe(rule, args.max_k)
    quoted = QUOTED_DEGREES[rule]
    note = None
    if probe.degree != quoted and not probe.at_least:
        note = (f"commonly quoted degree for {rule} is {quoted}; the "
                f"exact-rational probe gives {probe.degree}")
    if args.format == "json":
        payload = {"rule": rule, "degree": probe.degree,
                   "at_least": probe.at_least, "quoted_degree": quoted}
        if note:
            payload["note"] = note
        print(json.dumps(payload, indent=2))
    else:
        suffix = " (at least; no failing monomial found)" if probe.at_least \
            else ""
        print(f"rule {rule}: degree {probe.degree}{suffix}")
        if note:
            print(f"note: {note}")
    return 0


def cmd_pi(args):
    name = BUILTIN_NAMES[args.example - 1]
    f = builtin_integrand(name)
    rule = _one_rule(args.rule)
    n = _single_panels(args) if args.panels is not None else \
        {1: 2, 2: 1024, 3: 1024}[args.example]
    value = composite_values(f, f.interval, (rule,), n, args.prec)[rule]
    ref = Reference.for_integrand(f)
    digits = digits_correct(value, ref, precision=args.prec)
    err = signed_error(value, ref, args.prec)
    if args.format == "json":
        print(json.dumps({"example": args.example, "integrand": f.label(),
                          "rule": rule, "panels": n, "precision": args.prec,
                          "value": format_real(value, args.prec),
                          "error": format_real(err, args.prec),
                          "digits_correct": digits}, indent=2))
    else:
        print(f"example {args.example}: {f.label()}")
        print(f"rule {rule} with {n} panel(s) at {args.prec}-bit precision")
        print(f"value = {format_real(value, args.prec)}")
        print(f"pi    = {format_real(pi_at(args.prec), args.prec)}")
        print(f"error = {format_real(err, args.prec)}")
        print(f"digits_correct = {digits}")
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed reader shows here, not at exit
        return code
    except (UsageError, DifferentiationError) as err:
        print(f"quad: error: {err}", file=sys.stderr)
        return 1
    except DomainError as err:
        print(f"quad: domain error: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout: send the exit-time flush to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
