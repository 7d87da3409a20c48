"""Per-layer counters and span times for the `quadrules` package.

``Tracer`` wraps the public functions of each package module from outside,
times them as spans on one stack (so each layer's self time is its spans'
time minus the spans they caused) and counts calls and work units.  It
edits no package source: ``install`` rebinds module attributes and class
methods, ``uninstall`` puts the originals back.

Two counts need care.  ``differentiate`` recurses through its
module-global name, so only outermost calls are timed.  mpmath's ``mpf_*``
kernels are counted by rebinding them in ``mpmath.ctx_mp_python``, the
module whose number type calls them; that count is exact and repeatable.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import defaultdict

import mpmath.ctx_mp_python

from quadrules import (analysis, associate, cli, composite, expr, integrand,
                       precision, rules)

PACKAGE = "quadrules"

# per-operation metrics, in report order: name -> unit
METRICS = {
    "cli.self_ms": "ms",
    "expr.parse_ms": "ms",
    "expr.parse_calls": "count",
    "expr.differentiate_ms": "ms",
    "expr.deriv_nodes": "count",
    "expr.deriv_distinct_nodes": "count",
    "expr.deriv_share": "ratio",
    "integrand.f_evals": "count",
    "integrand.f_eval_ms": "ms",
    "integrand.fpp_evals": "count",
    "integrand.fpp_eval_ms": "ms",
    "integrand.derivative_expr_ms": "ms",
    "associate.sign_check_ms": "ms",
    "associate.sign_check_calls": "count",
    "associate.sign_check_samples": "count",
    "composite.self_ms": "ms",
    "composite.calls": "count",
    "composite.panels": "count",
    "composite.evals_per_node": "ratio",
    "analysis.self_ms": "ms",
    "analysis.signed_error_ms": "ms",
    "analysis.digits_correct_ms": "ms",
    "analysis.degree_probe_ms": "ms",
    "analysis.serialize_ms": "ms",
    "precision.format_real_ms": "ms",
    "precision.format_real_calls": "count",
    "rules.simple_rule_values_calls": "count",
    "mpmath.mpf_calls": "count",
}


def tree_sizes(trees):
    """(tree nodes, structurally distinct nodes) over a list of trees.

    Tree nodes count a shared subtree once per occurrence, as a recursive
    evaluator visits it; distinct nodes count each structure once across
    all the trees.
    """
    size, canon, table = {}, {}, {}

    def walk(node):
        key = id(node)
        if key in size:
            return
        kids = [getattr(node, f.name) for f in dataclasses.fields(node)]
        subs = [k for k in kids if isinstance(k, expr.Expression)]
        for k in subs:
            walk(k)
        size[key] = 1 + sum(size[id(k)] for k in subs)
        shape = (type(node),) + tuple(
            ("node", canon[id(k)]) if isinstance(k, expr.Expression) else k
            for k in kids)
        canon[key] = table.setdefault(shape, len(table))

    total = 0
    for tree in trees:
        walk(tree)
        total += size[id(tree)]
    return total, len(table)


class Tracer:
    """Install with ``install()``; ``uninstall()`` restores the package.

    Totals accumulate across operations; call ``end_op()`` after each
    traced operation to fold its derivative trees into the node counts.
    """

    def __init__(self):
        self._patches = []
        self._stack = []
        self._mpf_calls = [0]
        self._in_differentiate = False
        self._node_keys = None      # abscissae seen by the open composite
        self._trees = {}            # (id(integrand), order) -> (f, tree)
        self.ms = defaultdict(float)
        self.counts = defaultdict(int)

    # -- span and counter wrappers -----------------------------------------

    def _span(self, fn, key, self_key=None, count_key=None):
        clock, stack, ms, counts = (time.perf_counter, self._stack, self.ms,
                                    self.counts)

        def wrapper(*args, **kwargs):
            if count_key:
                counts[count_key] += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                ms[key] += elapsed * 1e3
                if self_key:
                    ms[self_key] += (elapsed - child) * 1e3
        return wrapper

    def _counter(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------

    def _rebind_everywhere(self, fn, wrapper):
        """Replace ``fn`` in every package module that holds it by name."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE
                                      or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, key, self_key=None, count_key=None):
        self._rebind_everywhere(
            fn, self._span(fn, key, self_key, count_key))

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._wrap(cli.main, "cli.total_ms", "cli.self_ms")

        self._wrap(expr.parse, "expr.parse_ms", count_key="expr.parse_calls")
        self._install_differentiate()

        cls = integrand.Integrand
        self._patch(cls, "eval_at", self._eval_at(cls.eval_at))
        self._patch(cls, "derivative_at", self._derivative_at(
            cls.derivative_at))
        self._patch(cls, "derivative_expr", self._derivative_expr(
            cls.derivative_expr))

        self._wrap(associate.check_assumption_A, "associate.sign_check_ms",
                   count_key="associate.sign_check_calls")
        # the sign check evaluates its derivative through this name, once
        # per sample
        self._patch(associate, "_eval", self._counter(
            associate._eval, "associate.sign_check_samples"))

        self._install_composite()

        for fn, key in ((analysis.convergence_table,
                         "analysis.convergence_table_ms"),
                        (analysis.signed_error, "analysis.signed_error_ms"),
                        (analysis.digits_correct,
                         "analysis.digits_correct_ms"),
                        (analysis.degree_probe, "analysis.degree_probe_ms"),
                        (analysis.order_string, "analysis.order_string_ms"),
                        (analysis.observed_order,
                         "analysis.observed_order_ms"),
                        (analysis.table_to_csv, "analysis.serialize_ms"),
                        (analysis.table_to_json, "analysis.serialize_ms")):
            self._wrap(fn, key, "analysis.self_ms")
        self._patch(analysis.Reference, "value_at", self._span(
            analysis.Reference.value_at, "analysis.reference_ms",
            "analysis.self_ms"))

        self._wrap(precision.format_real, "precision.format_real_ms",
                   count_key="precision.format_real_calls")
        self._rebind_everywhere(rules.simple_rule_values, self._counter(
            rules.simple_rule_values, "rules.simple_rule_values_calls"))
        self._install_mpf_counter()

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _install_differentiate(self):
        fn = expr.differentiate
        timed = self._span(fn, "expr.differentiate_ms",
                           count_key="expr.differentiate_calls")

        def differentiate(e):
            if self._in_differentiate:
                return fn(e)
            self._in_differentiate = True
            try:
                return timed(e)
            finally:
                self._in_differentiate = False
        self._rebind_everywhere(fn, differentiate)

    def _eval_at(self, fn):
        timed = self._span(fn, "integrand.f_eval_ms",
                           count_key="integrand.f_evals")
        counts = self.counts

        def eval_at(f, x):
            if self._node_keys is not None:
                counts["composite.node_evals"] += 1
                self._node_keys.add(x._mpf_)
            return timed(f, x)
        return eval_at

    def _derivative_at(self, fn):
        fpp = self._span(fn, "integrand.fpp_eval_ms",
                         count_key="integrand.fpp_evals")
        other = self._span(fn, "integrand.deriv_eval_ms",
                           count_key="integrand.deriv_evals")

        def derivative_at(f, x, order):
            return (fpp if order == 2 else other)(f, x, order)
        return derivative_at

    def _derivative_expr(self, fn):
        timed = self._span(fn, "integrand.derivative_expr_ms")
        trees = self._trees

        def derivative_expr(f, order):
            tree = timed(f, order)
            trees.setdefault((id(f), order), (f, tree))
            return tree
        return derivative_expr

    def _install_composite(self):
        timed = self._span(composite.composite_values, "composite.total_ms",
                           "composite.self_ms", "composite.calls")
        counts = self.counts

        def composite_values(f, interval, rules, panels, precision=53):
            counts["composite.panels"] += panels
            outer = self._node_keys
            self._node_keys = set()
            try:
                return timed(f, interval, rules, panels, precision)
            finally:
                counts["composite.distinct_nodes"] += len(self._node_keys)
                self._node_keys = outer
        self._rebind_everywhere(composite.composite_values, composite_values)

    def _install_mpf_counter(self):
        cell = self._mpf_calls
        module = mpmath.ctx_mp_python

        def counted(fn):
            def wrapper(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)
            return wrapper

        for attr, value in list(vars(module).items()):
            if attr.startswith("mpf_") and callable(value):
                self._patch(module, attr, counted(value))

    # -- results -----------------------------------------------------------

    def end_op(self):
        """Fold the finished operation's derivative trees into the totals."""
        nodes, distinct = tree_sizes([t for _, t in self._trees.values()])
        self.counts["expr.deriv_nodes"] += nodes
        self.counts["expr.deriv_distinct_nodes"] += distinct
        self._trees.clear()

    def per_op(self, n_ops):
        """Every metric in METRICS, as totals divided by ``n_ops``."""
        counts = dict(self.counts, **{"mpmath.mpf_calls": self._mpf_calls[0]})
        out = {}
        for name, unit in METRICS.items():
            if unit == "ms":
                out[name] = self.ms[name] / n_ops
            elif unit == "count":
                out[name] = counts.get(name, 0) / n_ops
        nodes = counts.get("expr.deriv_nodes", 0)
        out["expr.deriv_share"] = \
            counts.get("expr.deriv_distinct_nodes", 0) / nodes if nodes else 0.0
        distinct = counts.get("composite.distinct_nodes", 0)
        out["composite.evals_per_node"] = \
            counts.get("composite.node_evals", 0) / distinct if distinct \
            else 0.0
        return out
