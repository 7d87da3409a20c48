"""Composite rules: apply a simple rule on n uniform panels and sum.

[a, b] is split into n panels of width h = (b-a)/n.  A composite rule is
linear in its node values, so it is one call of the rule kernel
``quadrules.rules.rule_values`` with width h on node sums: node 0 reads
the sum of f over the left panel ends, node 2 over the right ends, and
node 1 (f or f'') over the midpoints.  ``mpmath.libmp.mpf_sum`` adds
each column without intermediate rounding (dropping only terms more than
twice the precision below the running sum) and rounds once, so the error
does not grow with n.  The columns a rule set reads come from the kernel
itself, so an L-only sum never evaluates f(b) and an R-only one never f(a).

Nodes are evaluated panel by panel and addressed by the half-step index
k (node k sits at a + k*h/2: even k are panel boundaries, odd k are
midpoints), so h-rounding cannot alias two distinct nodes.  When a rule
set reads both panel ends, a panel's left end is the previous panel's
right end, read back from its column, so a shared boundary is evaluated
once.  Each node position is produced by a single multiplication
a + k*(h/2), never by repeated addition, on raw ``_mpf_`` tuples with the
kernels the mpf operators call.

f values also go through the integrand's memo ``f.f_memo(precision)``,
keyed by the position's ``_mpf_`` tuple, which outlives the call.  In a
doubling sweep h/2 halves exactly, so every node of n panels is, bit for
bit, a node of 2n panels and is evaluated once for the whole sweep.  Only
order 0 is memoized: f'' is read only at midpoints, and a midpoint of n
panels is a boundary of 2n, where no rule reads f''.  A point where f
raises is not stored, so a repeated call raises the same error.
"""

from __future__ import annotations

from itertools import combinations

from mpmath import mp, mpf
from mpmath.libmp import mpf_add, mpf_mul_int, mpf_sum

from .expr import DomainError
from .precision import workprec
from .rules import (RULE_ORDER, needed_rules, node_value, rule_names,
                    rule_values)


def _nodes_read(need):
    read = []
    rule_values(need, 0, lambda *node: read.append(node) or 0)
    return tuple(read)


# the (j, order) nodes each closed rule set reads, in fetch order
_NODES_READ = {frozenset(need): _nodes_read(need)
               for k in range(1, len(RULE_ORDER) + 1)
               for need in map(needed_rules, combinations(RULE_ORDER, k))}


def _node(f, memo, x, order):
    """The order-th derivative of f at the tuple x, as a tuple; f values
    are read from, and stored in, ``memo``."""
    if order:
        return node_value(f, mp.make_mpf(x), order)._mpf_
    value = memo.get(x)
    if value is None:
        value = memo[x] = node_value(f, mp.make_mpf(x), 0)._mpf_
    return value


def composite_values(f, interval, rules, panels, precision=53):
    """Composite values for several rules from one pass over shared nodes.

    Every distinct node of every requested rule is evaluated exactly once,
    and an f node already in ``f.f_memo(precision)`` not at all.
    Domain errors are re-raised naming the offending node, point and panel
    (numbered from 1, like the panel total).
    """
    names = rule_names(rules)
    if panels < 1:
        raise ValueError(f"panel count must be >= 1, got {panels}")
    need = needed_rules(names)
    columns = {node: [] for node in _NODES_READ[frozenset(need)]}
    right = columns.get((2, 0))  # read again as the next panel's left end

    with workprec(precision):
        a, b = interval.bounds()
        h = (b - a) / panels
        a, half = a._mpf_, (h / 2)._mpf_
        memo = f.f_memo(precision)
        for i in range(panels):
            for (j, order), column in columns.items():
                if i and right is not None and (j, order) == (0, 0):
                    column.append(right[i - 1])
                    continue
                x = mpf_add(a, mpf_mul_int(half, 2 * i + j, precision, "n"),
                            precision, "n")
                try:
                    column.append(_node(f, memo, x, order))
                except DomainError as err:
                    raise err.located(i + 1, panels) from None

        vals = rule_values(need, h, lambda j, order: mpf(
            mpf_sum(columns[j, order], precision, "n")))
        return {name: vals[name] for name in names}
