"""Exact size and work of the evaluation tape, pinned as counts.

Wall-clock time is too noisy to gate on, so these tests pin what the
tape does: one register per structurally distinct node, the node objects
differentiation builds, and the number of mpmath kernel calls a small
convergence table makes, counted by the benchmark's tracer
(``perfbench/tracing.py``, used here read-only).
"""

import contextlib
import dataclasses
import io
import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from mpmath import mpf  # noqa: E402
from quadrules import expr, integrand  # noqa: E402
from quadrules.cli import main  # noqa: E402
from quadrules.expr import (Add, Div, Expression, Mul, Neg, Sub,  # noqa: E402
                            Tape, parse)
from quadrules.integrand import builtin_integrand  # noqa: E402
from quadrules.precision import workprec  # noqa: E402


def test_asin6_tapes_hold_one_register_per_distinct_node():
    f = builtin_integrand("asin6")
    registers = [len(f.tape(order).nodes) for order in range(7)]
    assert registers == [8, 15, 29, 58, 115, 216, 381]
    assert registers == [tracing.tree_sizes([f.derivative_expr(order)])[1]
                         for order in range(7)]


def test_every_tape_step_is_one_operator_node():
    # x and the literals take registers but no step, so no step is a check
    # that computes nothing; a division was two steps while its zero check
    # ran before its numerator (6/14/28/58/116 for asin6)
    steps = {}
    for name in ("sin2", "asin6", "atan2"):
        f = builtin_integrand(name)
        for order in range(5):
            tape = f.tape(order)
            assert len(tape.steps) == \
                len(tape.nodes) - len(tape._literals) - 1
            assert all(tape.nodes[out] is node and type(node).kernel
                       for out, *_, node in tape.steps)
            steps[name, order] = len(tape.steps)
    assert [steps["asin6", order] for order in range(5)] == \
        [4, 11, 24, 53, 110]


def node_objects(e):
    """Distinct node objects reachable from ``e``, a shared one once."""
    seen, stack = set(), [e]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(v for v in (getattr(node, fd.name) for fd in
                                     dataclasses.fields(node))
                         if isinstance(v, Expression))
    return len(seen)


def test_differentiation_shares_the_derivatives_of_shared_subtrees():
    # 42,029 objects at order 6 when each order walked the previous
    # derivative as a tree, and [8, 18, 45, 124, 361, 1075, 3220] when it
    # shared the derivative of a subtree shared by reference only;
    # differentiation now steps through the tape, one register per
    # structurally distinct node, so equal subtrees share one derivative
    f = builtin_integrand("asin6")
    objects = [node_objects(f.derivative_expr(order)) for order in range(7)]
    assert objects == [8, 18, 41, 92, 203, 426, 837]


def test_small_table_makes_a_pinned_number_of_mpf_calls():
    # 1,199,677 calls when every sample walked the derivative trees, and
    # 53,553 when each composite ran the rule kernel once per panel and
    # added the panel values with Neumaier updates; the node sums are now
    # added exactly on integers by composite._exact_sum, which calls no
    # kernel the tracer counts.
    # 53,135 while tape steps ran mpf operators, whose powers and domain
    # checks also reached the counted mpf_pow, mpf_eq and mpf_lt (14,338
    # calls); the tape now calls those from mpmath.libmp, and its add, sub,
    # mul, div and neg kernels are counted as often as before.  38,797
    # before the integrand memoized f values across composites: the table
    # made 17 f evaluations where it now makes 9, and each asin6 f
    # evaluation makes 2 counted calls, a Sub and a Div.  38,781 before
    # 53-bit tapes ran on doubles: float steps call no mpf_* kernel, so the
    # tracer no longer sees them (5,734 after that alone); node positions
    # and sign-check samples now take mpf_mul_int and mpf_add from
    # mpmath.libmp too, 2 uncounted calls per point.  4,140 while the sign
    # check classified its samples as mpf objects: their abs, comparisons
    # and mpf(2) ** k were counted; it now compares raw tuples with
    # mpmath.libmp kernels.  277 while the table materialized its
    # reference once per rule and row (3 x 6 times here), each pi taking
    # 2 counted calls; it is now materialized once per table.  243 while
    # precision.fits_double compared mpfs: the table prints 18 errors, and
    # each took a counted abs and two counted comparisons; it now reads
    # the exponent from the value's _mpf_ tuple.  189 while each tape
    # filled its literals with mpf(text), mpf(n) and +mp.pi, each making
    # one counted mpf_pos; it now converts them with mpmath.libmp kernels
    tracer = tracing.Tracer()
    with tracer, contextlib.redirect_stdout(io.StringIO()):
        assert main(["table", "--integrand", "asin6",
                     "--panels", "1,2,4"]) == 0
    tracer.end_op()
    counts = tracer.per_op(1)
    assert counts["mpmath.mpf_calls"] == 170
    assert counts["associate.sign_check_samples"] == 3 * 257


def test_tape_kernels_are_looked_up_when_the_tape_is_built():
    # Add, Sub, Mul, Div and Neg declare their mpmath.ctx_mp_python kernels
    # by name, so a tape built under the tracer counts one call per step;
    # Pow, Sin, Cos and Sqrt call mpmath.libmp and count none.  A tape
    # built before the tracer keeps the kernels it found.
    e = parse("-(x + 1) * (x - 2) / 3 + 2 ^ x + sin(x) - cos(x) * sqrt(x)")
    early = Tape(e)
    with workprec(113), tracing.Tracer() as tracer:
        x = (mpf(1) / 3)._mpf_
        late = Tape(e)
        counted = sum(type(node) in (Add, Sub, Mul, Div, Neg)
                      for node in late.nodes)
        calls, values = [], []
        for tape in (early, late):
            tape.run(x)  # the first run also materializes the literals
            before = tracer.per_op(1)["mpmath.mpf_calls"]
            values.append(tape.run(x))
            calls.append(tracer.per_op(1)["mpmath.mpf_calls"] - before)
    assert counted == 9
    assert calls == [0, counted]
    assert values[0] == values[1]


def test_pi_256_makes_pinned_work_and_compiles_its_tuple_program_once(
        monkeypatch):
    # Simpson on 2/(1+x^2) over 1,024 panels at 256 bits: 2,049 f
    # evaluations, each counted twice (its Add and its Div; x^2 calls
    # mpmath.libmp), whether the interpreted loop or, from the 300th run
    # on, the compiled tuple program runs it, and 19 counted calls
    # outside the tape (27 while each literal and pi that a tape filled
    # made one counted mpf_pos through mpf() and +mp.pi)
    compiled, generate = [], expr._compile_tuples

    def counted(tape, prec):
        compiled.append(prec)
        return generate(tape, prec)

    monkeypatch.setattr(expr, "_compile_tuples", counted)
    tracer = tracing.Tracer()
    with tracer, contextlib.redirect_stdout(io.StringIO()):
        assert main(["pi", "--example", "3", "--panels", "1024",
                     "--prec", "256"]) == 0
    tracer.end_op()
    counts = tracer.per_op(1)
    assert counts["mpmath.mpf_calls"] == 4117
    assert counts["integrand.f_evals"] == 2049
    assert compiled == [256]


def test_each_tape_compiles_at_most_one_program_per_precision(monkeypatch):
    # over the benchmark's asin6 table, pi-256 and the first 300 seed-1
    # mixed requests: a float program compiles once, a tuple run once per
    # tape and precision and never at 53 bits on a tape with a float
    # program, whose fallbacks the interpreted loop answers, and no float
    # run, interpreted or compiled, falls back
    floats, tuples, fallbacks = [], [], []
    compile_floats, compile_tuples = expr._compile, expr._compile_tuples

    def counted(run):
        def float_run(*args):  # (tape, program, x) or (x)
            value = run(*args)
            if value is None:
                fallbacks.append(args[-1])
            return value
        return float_run

    def compiled_floats(program, var, result):
        floats.append(program)  # held, so that no two share an id
        return counted(compile_floats(program, var, result))

    def compiled_tuples(tape, prec):
        tuples.append((tape, prec))
        assert tape._states[prec].floats is None
        return compile_tuples(tape, prec)

    monkeypatch.setattr(expr, "_compile", compiled_floats)
    monkeypatch.setattr(expr, "_compile_tuples", compiled_tuples)
    monkeypatch.setattr(Tape, "_run_floats", counted(Tape._run_floats))
    ops = [next(workloads.table_asin6_ops(1)), next(workloads.pi_256_ops(1)),
           *itertools.islice(workloads.mixed_requests_ops(1), 300)]
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(op.argv))
        assert op.check(rc, out.getvalue(), err.getvalue()) is None
    assert fallbacks == []
    assert len({id(program) for program in floats}) == len(floats) > 0
    assert len({(id(tape), prec) for tape, prec in tuples}) == \
        len(tuples) > 0


def test_an_asin6_table_tapes_each_derivative_order_once(monkeypatch):
    # the tapes of f and f' to f'''' (the sign checks read f', f'' and
    # f'''', the T2 and Q composites f''), the interval's two endpoints
    # and the reference pi.  11 while differentiation taped each order's
    # tree for its steps and the integrand taped it again to evaluate it
    builds, init = [], expr.Tape.__init__

    def counted(tape, e):
        builds.append(e)
        init(tape, e)

    monkeypatch.setattr(expr.Tape, "__init__", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["table", "--integrand", "asin6",
                     "--panels", "2^0..2^10"]) == 0
    assert len(builds) == 8


def test_differentiation_reads_the_tape_that_evaluates_the_order_below(
        monkeypatch):
    received, differentiate = [], integrand.differentiate

    def recording(e):
        received.append(e)
        return differentiate(e)

    monkeypatch.setattr(integrand, "differentiate", recording)
    f = builtin_integrand("asin6")
    f.derivative_expr(4)
    assert len(received) == 4
    assert all(e is f.tape(order) for order, e in enumerate(received))


def test_the_tracer_sees_every_derivative_a_table_reads():
    # tape(k) builds a missing order through derivative_expr, so the
    # tracer records the trees of f', f'' and f'''' as before each order
    # was taped once; the span now includes the derivative's tape build
    tracer = tracing.Tracer()
    with tracer, contextlib.redirect_stdout(io.StringIO()):
        assert main(["table", "--integrand", "asin6",
                     "--panels", "1,2,4"]) == 0
    calls = tracer.counts["expr.differentiate_calls"]
    tracer.end_op()
    counts = tracer.per_op(1)
    assert counts["integrand.derivative_expr_ms"] > 0
    assert counts["expr.differentiate_ms"] > 0
    assert calls == 4
    assert counts["expr.deriv_nodes"] == 4166
    assert counts["expr.deriv_distinct_nodes"] == 117


_OPERATORS = [c for c in vars(expr).values() if isinstance(c, type)
              and issubclass(c, Expression) and c.kernel is not None]


def test_every_operator_class_declares_its_derivative_rule():
    assert {c.__name__ for c in _OPERATORS} == \
        {"Add", "Sub", "Mul", "Div", "Pow", "Neg", "Sin", "Cos", "Sqrt"}
    assert all(callable(vars(c).get("derivative")) for c in _OPERATORS)
    for leaf in (expr.Num, expr.PiConst, expr.Var):
        assert leaf.derivative is None and "derivative" not in vars(leaf)


def test_every_operator_class_declares_its_text_once():
    # the printer fills a form's {} with operand texts at the levels in
    # binds; the compiled float run fills a native step's with registers
    for c in _OPERATORS:
        operands = len(c.__match_args__)
        assert c.form.count("{}") == operands == len(c.binds), c
        if c.native is not None:
            compile(c.form.format("r0", "r1"), c.__name__, "eval")
    assert {c.__name__ for c in _OPERATORS if c.native is not None} == \
        {"Add", "Sub", "Mul", "Div", "Neg", "Sqrt"}
