"""Command-line front end: the ``quad`` tool.

Subcommands::

    quad integrate --integrand sin2 --rule M --panels 2
    quad bracket   --integrand asin6 --pair L,R --panels 8
    quad table     --integrand asin6 --rules L,R,M,T,S,T2 --panels 2^0..2^10
    quad degree    --rule Q
    quad pi        --example 3 --panels 1024 --prec 256

integrate, bracket and table take ``--integrand``: a built-in name (sin2,
asin6, atan2) or expression text, nested as deep as memory allows (no
walk over an expression recurses); expression integrands and overridden
intervals need both ``--a`` and ``--b`` (decimal literals).  Any option's
value may start with a minus (``--a -pi``), but not with ``--``, and
``-h`` stays an option.  ``--panels`` accepts an integer, a comma list,
and the doubling shorthand 2^k..2^m, each count from 1 to 2^20 (only the
CLI caps it).  Every subcommand takes ``--prec`` (bits, 4 to 65536,
default 53; only the CLI caps it) and ``--format`` (text, csv or json,
default text).  Each value is formatted once, into a JSON payload and
text lines, and ``_emit`` prints one of them; only table has a CSV form,
the others print text for csv.

Exit status: 0 on success, 1 on usage errors (unknown flag, rule or
integrand, malformed input, an integrand whose derivative the rule
needs but cannot be taken) and on a closed stdout, 2 on numeric domain
errors (the message names the offending node, and the point and panel
where f fails; an undefined interval endpoint names its node only) and
on interval endpoints that round to a >= b at the working precision.
Data goes to stdout, diagnostics to stderr as one line of at most 300
UTF-8 bytes, its middle cut where longer; output bytes are deterministic
for fixed inputs and precision.
"""

from __future__ import annotations

import os
import re
import sys
from types import SimpleNamespace

from mpmath import mp

from .analysis import (GUARD_BITS, Reference, convergence_table,
                       degree_probe, digits_correct, signed_error,
                       table_to_csv, table_to_json)
from .associate import SAMPLES, associate_value, bracket, \
    check_assumption_A, companion_pair
from .composite import composite_values
from .expr import DifferentiationError, DomainError, ParseError, parse
from .integrand import BUILTIN_NAMES, Integrand, builtin_integrand
from .precision import MAX_BITS, fits_double, format_real, pi_at
from .rules import (QUOTED_DEGREES, Interval, UnknownRuleError,
                    rule_names)

# a 2^16-panel Simpson rule on sin2 takes 1.8 s at 53 bits on a 2-CPU
# host, growing linearly in the panel count, while its peak RSS stays at
# about 21 MB from 1 to 2^18 panels; the library itself takes any
# positive count
_MAX_PANEL_LOG2 = 20


class UsageError(Exception):
    pass


def _precision(text):
    try:
        if 4 <= int(text) <= MAX_BITS:
            return int(text)
    except ValueError:
        pass
    raise ValueError(f"precision must be an integer from 4 to {MAX_BITS} "
                     f"bits, got {text!r}")


def _choice(text, choices, to=str):
    try:
        value = to(text)
    except ValueError:
        raise ValueError(f"invalid {to.__name__} value: {text!r}") from None
    if value not in choices:
        raise ValueError(f"invalid choice: {value!r} (choose from "
                         f"{', '.join(map(repr, choices))})")
    return value


def parse_panels(text):
    """Panel list: integers, comma lists, and the 2^k..2^m doubling sweep,
    each count from 1 to 2^20."""
    out = []
    for item in str(text).split(","):
        item = item.strip()
        m = re.fullmatch(r"2\^0*(\d{1,9})\.\.2\^0*(\d{1,9})", item)
        if m:
            lo, hi = int(m.group(1)), int(m.group(2))
            if lo > hi:
                raise UsageError(f"empty panel range {item!r}")
            if hi > _MAX_PANEL_LOG2:
                raise UsageError(f"panel range {item!r} goes past "
                                 f"2^{_MAX_PANEL_LOG2}")
            out.extend(2 ** j for j in range(lo, hi + 1))
            continue
        try:
            n = int(item)
        except ValueError:
            raise UsageError(f"bad panel count {item!r}") from None
        out.append(n)
    if not out or not 1 <= min(out) <= max(out) <= 2 ** _MAX_PANEL_LOG2:
        raise UsageError(f"panel counts must be integers from 1 to "
                         f"2^{_MAX_PANEL_LOG2}")
    return sorted(set(out))


def _resolve_integrand(args):
    """The Integrand of --integrand, on the --a/--b interval when given."""
    if (args.a is None) != (args.b is None):
        raise UsageError("--a and --b must be given together")
    if args.integrand in BUILTIN_NAMES:
        f = builtin_integrand(args.integrand)
        if args.a is None:
            return f
        # explicit bounds override the built-in interval; the closed-form
        # reference only holds for the built-in one, so it is dropped
        expression, label = f.expression, f.name
    else:
        try:
            expression, label = parse(args.integrand), None
        except ParseError as err:
            names = ", ".join(BUILTIN_NAMES)
            raise UsageError(f"--integrand is neither a built-in ({names}) "
                             f"nor a valid expression: {err}") from None
        if args.a is None:
            raise UsageError("expression integrands need --a and --b")
    try:
        interval = Interval(args.a, args.b)
    except ValueError as err:
        raise UsageError(f"bad interval: {err}") from None
    return Integrand(expression, interval, None, label)


def _rule_list(text):
    names = rule_names([r.strip() for r in text.split(",") if r.strip()])
    if len(set(names)) != len(names):
        raise UsageError(f"repeated rule name in {text!r}")
    return names


def _one_rule(text):
    names = _rule_list(text)
    if len(names) != 1:
        raise UsageError(f"expected one rule name, got {text!r}")
    return names[0]


def _single_panels(text):
    panels = parse_panels(text)
    if len(panels) != 1:
        raise UsageError("this subcommand takes a single panel count")
    return panels[0]


def _emit(args, payload, lines):
    """Print the JSON payload, or the text lines for text and csv."""
    if args.format == "json":
        import json  # only json output needs it, so quad starts without it
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(lines))


def _rule_value(args, f, panels):
    """One composite rule on f, shared by integrate and pi: the JSON fields
    and text lines both print, the value, the reference and the signed
    error (None when f has no reference)."""
    rule = _one_rule(args.rule)
    n = _single_panels(panels)
    value = composite_values(f, f.interval, (rule,), n, args.prec)[rule]
    ref = Reference.for_integrand(f)
    err = None if ref is None else signed_error(value, ref, args.prec)
    text = format_real(value, args.prec)
    payload = {"integrand": f.label(), "rule": rule, "panels": n,
               "precision": args.prec, "value": text}
    lines = [f"rule {rule} with {n} panel(s) at {args.prec}-bit precision",
             f"value = {text}"]
    return payload, lines, value, ref, err


def cmd_integrate(args):
    payload, lines, _, _, err = _rule_value(args, _resolve_integrand(args),
                                            args.panels)
    lines.insert(0, f"integrand {payload['integrand']}")
    if err is not None:
        payload["error"] = format_real(err, args.prec)
        lines.append(f"error vs reference = {payload['error']}")
    _emit(args, payload, lines)


def cmd_bracket(args):
    f = _resolve_integrand(args)
    names = _rule_list(args.pair)
    if len(names) != 2:
        raise UsageError("--pair needs exactly two rule names")
    n = _single_panels(args.panels)
    values = composite_values(f, f.interval, names, n, args.prec)
    enclosure = bracket(*(values[r] for r in names))
    texts = {r: format_real(values[r], args.prec) for r in names}
    lo, hi = (format_real(v, args.prec) for v in (enclosure.lo, enclosure.hi))
    payload = {"integrand": f.label(), "pair": list(names), "panels": n,
               "precision": args.prec, "values": texts, "bracket": [lo, hi]}
    lines = [f"integrand {payload['integrand']}",
             f"pair ({', '.join(names)}) with {n} panel(s) "
             f"at {args.prec}-bit precision",
             *(f"{r}_{n} = {texts[r]}" for r in names),
             f"bracket = [{lo}, {hi}]"]

    pair = companion_pair(*names)
    if pair is None:
        lines.append("note: not a companion pair; the enclosure is unverified")
    else:
        verdict = check_assumption_A(f, pair.derivative_order, args.prec)
        weights = pair.weights()
        assoc = format_real(associate_value(values[pair.positive.name],
                                            values[pair.negative.name],
                                            weights), args.prec)
        payload.update(associate=assoc, weights=[weights.c1, weights.c2],
                       assumption=verdict.tag, assumption_basis="sampled")
        lines += [f"associate (weights {weights.c1}:{weights.c2}) = {assoc}",
                  f"assumption check (order {pair.derivative_order}): "
                  f"{verdict}",
                  f"note: sign sampled at {SAMPLES} points, not proven"
                  if verdict.uniform else
                  "note: sign check failed, the bracket is unverified"]
    ref = Reference.for_integrand(f)
    if ref is not None:
        contains = enclosure.contains(ref.value_at(args.prec + GUARD_BITS))
        payload["contains_reference"] = contains
        lines.append(f"contains reference: {'true' if contains else 'false'}")
    _emit(args, payload, lines)


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
        flags = sorted(rows[0].assumptions.items())
        if flags:
            print("assumption checks: "
                  + "  ".join(f"({k})={v}" for k, v in flags))
        width = max(6, max(len(r.order) for r in rows))
        print(f"{'n':>6}  {'order':<{width}}"
              + "".join(f"  {'err_' + r:>13}" for r in names))
        for row in rows:
            print(f"{row.panels:>6}  error: {row.note}" if row.note else
                  f"{row.panels:>6}  {row.order:<{width}}"
                  + "".join(f"  {_sci(row.errors[r]):>13}" for r in names))


def _sci(x):
    if x == 0:
        return "0"
    if fits_double(x):
        return f"{float(x):.4e}"
    return mp.nstr(x, 5, strip_zeros=False, min_fixed=1, max_fixed=0)


def cmd_degree(args):
    rule = _one_rule(args.rule)
    degree = degree_probe(rule)
    usual = QUOTED_DEGREES[rule]
    # every degree is exact; "at_least" stays in the payload's schema
    payload = {"rule": rule, "degree": degree, "at_least": False,
               "quoted_degree": usual}
    lines = [f"rule {rule}: degree {degree}"]
    if degree != usual:
        payload["note"] = (f"commonly quoted degree for {rule} is {usual}; "
                           f"the exact-rational probe gives {degree}")
        lines.append(f"note: {payload['note']}")
    _emit(args, payload, lines)


def cmd_pi(args):
    f = builtin_integrand(BUILTIN_NAMES[args.example - 1])
    panels = args.panels if args.panels is not None else \
        2 if args.example == 1 else 1024
    fields, lines, value, ref, err = _rule_value(args, f, panels)
    lines.insert(0, f"example {args.example}: {fields['integrand']}")
    digits = digits_correct(value, ref, precision=args.prec)
    payload = {"example": args.example, **fields,
               "error": format_real(err, args.prec), "digits_correct": digits}
    if args.format != "json":  # the constant is shown in text only
        lines.append(f"pi    = {format_real(pi_at(args.prec), args.prec)}")
    lines += [f"error = {payload['error']}", f"digits_correct = {digits}"]
    _emit(args, payload, lines)


# each subcommand's options, in the order -h and ambiguous prefixes list
# them (--p: --panels, --prec), mapped to their defaults or ... if required
_INTEGRAND = {"--integrand": ..., "--a": None, "--b": None}
_COMMON = {"--prec": 53, "--format": "text"}
_COMMANDS = {f.__name__[4:]: (f, {**options, **_COMMON}) for f, options in [
    (cmd_integrate, {**_INTEGRAND, "--rule": "S", "--panels": "1"}),
    (cmd_bracket, {**_INTEGRAND, "--pair": "L,R", "--panels": "1"}),
    (cmd_table, {**_INTEGRAND, "--rules": "L,R,M,T,S,T2",
                 "--panels": "2^0..2^10"}),
    (cmd_degree, {"--rule": ...}),
    (cmd_pi, {"--example": ..., "--rule": "S", "--panels": None})]}
_READERS = {"--prec": _precision,
            "--example": lambda text: _choice(text, (1, 2, 3), int),
            "--format": lambda text: _choice(text, ("text", "csv", "json"))}


def _help(*commands):
    """Print each command's usage, defaults in place of values; exit 0."""
    for command in commands:
        print(f"usage: quad {command} [-h]", *(
            f"{o} {o[2:].upper()}" if d is ... else
            f"[{o} {o[2:].upper() if d is None else d}]"
            for o, d in _COMMANDS[command][1].items()))
    raise SystemExit(0)


def _parse_args(argv):
    """The namespace of a command line: each option by name or unambiguous
    prefix, its value after "=" or next, unless that is -h or starts with
    "--", and its last value wins; nothing after "--" is read."""
    if not argv:
        raise UsageError("the following arguments are required: command")
    if argv[0] == "-h" or len(argv[0]) > 2 and "--help".startswith(argv[0]):
        _help(*_COMMANDS)
    option, rest, extras = "command", iter(argv[1:]), []
    try:
        func, table = _COMMANDS[_choice(argv[0], _COMMANDS)]
        values = dict(table)
        for arg in rest:
            name, equals, value = arg.partition("=")
            found = [name] if name in table else \
                [o for o in ("--help", *table) if o.startswith(name)]
            if arg == "-h" or found == ["--help"]:
                _help(argv[0])
            elif arg == "--":
                extras += [arg, *rest]
            elif not arg.startswith("--") or not found:
                extras.append(arg)
            elif len(found) > 1:
                raise UsageError(f"ambiguous option: {arg} could match "
                                 f"{', '.join(found)}")
            else:
                option = found[0]
                if not equals:
                    value = next(rest, "--")  # none left: as if an option
                    if value.startswith("--") or value == "-h":
                        raise ValueError("expected one argument")
                values[option] = _READERS.get(option, str)(value)
    except ValueError as err:
        raise UsageError(f"argument {option}: {err}") from None
    missing = ", ".join(o for o, v in values.items() if v is ...)
    if missing:
        raise UsageError(f"the following arguments are required: {missing}")
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(command=argv[0], func=func,
                           **{o[2:]: v for o, v in values.items()})


def _report(kind, message, status):
    """Print ``quad: <kind>: <message>`` to stderr and return ``status``:
    one line, its first 200 and last 90 UTF-8 bytes (the reason and a
    domain error's panel) kept around " ... " where it is over 300."""
    line = " ".join(f"quad: {kind}: {message}".splitlines())
    data = line.encode(errors="backslashreplace")  # as stderr writes it
    if len(data) > 300:
        line = (data[:200] + b" ... " + data[-90:]).decode(errors="ignore")
    print(line, file=sys.stderr)
    return status


def main(argv=None):
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        args.func(args)
        sys.stdout.flush()  # a closed reader shows here, not at exit
        return 0
    except (UsageError, UnknownRuleError, DifferentiationError) as err:
        return _report("error", err, 1)
    except DomainError as err:
        return _report("domain error", err, 2)
    except BrokenPipeError:
        # the reader closed stdout: send the exit-time flush to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
