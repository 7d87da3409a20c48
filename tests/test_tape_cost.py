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
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402
from quadrules.cli import main  # noqa: E402
from quadrules.expr import Expression  # noqa: E402
from quadrules.integrand import builtin_integrand  # noqa: E402


def test_asin6_tapes_hold_one_register_per_distinct_node():
    f = builtin_integrand("asin6")
    registers = [len(f.tape(order).nodes) for order in range(7)]
    assert registers == [8, 15, 29, 58, 115, 216, 381]
    assert registers == [tracing.tree_sizes([f.derivative_expr(order)])[1]
                         for order in range(7)]


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
    # derivative as a tree
    f = builtin_integrand("asin6")
    objects = [node_objects(f.derivative_expr(order)) for order in range(7)]
    assert objects == [8, 18, 45, 124, 361, 1075, 3220]


def test_small_table_makes_a_pinned_number_of_mpf_calls():
    # 1,199,677 calls when every sample walked the derivative trees, and
    # 53,553 when each composite ran the rule kernel once per panel and
    # added the panel values with Neumaier updates; the node sums are now
    # added by mpmath.libmp.mpf_sum, which the tracer does not count.
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
    # 2 counted calls; it is now materialized once per table
    tracer = tracing.Tracer()
    with tracer, contextlib.redirect_stdout(io.StringIO()):
        assert main(["table", "--integrand", "asin6",
                     "--panels", "1,2,4"]) == 0
    tracer.end_op()
    counts = tracer.per_op(1)
    assert counts["mpmath.mpf_calls"] == 243
    assert counts["associate.sign_check_samples"] == 3 * 257
