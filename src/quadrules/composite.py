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
a + k*(h/2), never by repeated addition, by ``quadrules.expr.grid``: once
per boundary and once per midpoint, which its f and f'' columns share.
At 53 bits the grid is computed on doubles, rounding as the tuple formula
``mpf_add(a, mpf_mul_int(h/2, k))`` does, and the tuple formula itself
answers at other precisions and wherever a double could round
differently (an endpoint or h/2 with no exact double, a subnormal or
overflowing point).

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
from mpmath.libmp import mpf_sum

from .expr import DomainError, grid
from .precision import workprec
from .rules import RULE_ORDER, needed_rules, rule_names, rule_values


def _nodes_read(need):
    read = []
    rule_values(need, 0, lambda *node: read.append(node) or 0)
    return tuple(read)


# the (j, order) nodes each closed rule set reads, in fetch order
_NODES_READ = {frozenset(need): _nodes_read(need)
               for k in range(1, len(RULE_ORDER) + 1)
               for need in map(needed_rules, combinations(RULE_ORDER, k))}


def _positions(a, half, js, panels, precision):
    """{j: the position of node j in each panel} for the node indices
    ``js``, as tuples; boundaries shared by two panels are computed once."""
    xs = {}
    if 1 in js:
        xs[1] = grid(a, half, range(1, 2 * panels, 2), precision)
    ends = sorted(js - {1})
    if ends:
        bounds = grid(a, half, range(ends[0], 2 * panels - 1 + ends[-1], 2),
                      precision)
        xs[0], xs[2] = bounds[:panels], bounds[-panels:]
    return xs


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
        xs = _positions(a._mpf_, (h / 2)._mpf_, {j for j, _ in columns},
                        panels, precision)
        reads = [(xs[j], order, column, right is not None and j == 0)
                 for (j, order), column in columns.items()]
        memo = f.f_memo(precision)
        eval_at, derivative_at, make = f.eval_at, f.derivative_at, mp.make_mpf
        for i in range(panels):
            for points, order, column, shared in reads:
                if i and shared:
                    column.append(right[i - 1])
                    continue
                x = points[i]
                try:
                    if order:
                        value = derivative_at(make(x), order)._mpf_
                    else:
                        value = memo.get(x)
                        if value is None:
                            value = memo[x] = eval_at(make(x))._mpf_
                except DomainError as err:
                    raise err.located(i + 1, panels) from None
                column.append(value)

        vals = rule_values(need, h, lambda j, order: mpf(
            mpf_sum(columns[j, order], precision, "n")))
        return {name: vals[name] for name in names}
