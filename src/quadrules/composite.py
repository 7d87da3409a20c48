"""Composite rules: apply a simple rule on n uniform panels and sum.

[a, b] is split into n panels of width h = (b-a)/n.  A composite rule is
linear in its node values, so it is one call of the rule kernel
``quadrules.rules.rule_values`` with width h on node sums: node 0 reads
the sum of f over the left panel ends, node 2 over the right ends, and
node 1 (f or f'') over the midpoints.  Each column is added exactly, in
fixed-size chunks of panels whose partial sums ``mpf_sum(chunk, 0)``
carry no rounding, so a call holds one chunk of node values whatever n
is, and each sum is rounded once, at the end: the error does not grow
with n.  The columns a rule set reads come from the kernel itself, so an
L-only sum never evaluates f(b) and an R-only one never f(a).

Nodes are evaluated panel by panel, in the kernel's fetch order, and
addressed by the half-step index k (node k sits at a + k*h/2: even k are
panel boundaries, odd k are midpoints), so h-rounding cannot alias two
distinct nodes.  When a rule set reads both panel ends, a panel's left
end is the previous panel's right end, evaluated once.  Each node
position is produced by a single multiplication a + k*(h/2), never by
repeated addition, by ``quadrules.expr.grid``: on doubles at 53 bits,
rounding as the tuple formula ``mpf_add(a, mpf_mul_int(h/2, k))`` does,
and by the tuple formula itself at other precisions and wherever a double
could round differently.

The integrand carries the exact column sums of its last composite at each
precision (``f.carry(precision)``).  In a doubling sweep h/2 halves
exactly, so the boundaries of 2n panels are, bit for bit, the boundaries
and midpoints of n panels: left(2n) = left(n) + mid(n) and right(2n) =
right(n) + mid(n).  A call for twice the carried panel count on the same
interval therefore evaluates only its new nodes: its midpoints, and the
midpoints of n as new boundaries when n did not read them (an L, R or T
sweep).  f'' is read only at midpoints, which no coarser level shares.  A
call that raises stores no carry.
"""

from __future__ import annotations

from itertools import combinations

from mpmath import mp
from mpmath.libmp import mpf_pos, mpf_sum, round_nearest

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

_CHUNK = 512  # panels whose node values are held at once


def _within(r, lo, hi):
    """The part of the range ``r`` (positive step) that lies in [lo, hi)."""
    return r[max(0, (lo - r.start + r.step - 1) // r.step):
             max(0, (hi - r.start + r.step - 1) // r.step)]


def composite_values(f, interval, rules, panels, precision=53):
    """Composite values for several rules from one pass over shared nodes.

    Every distinct node of every requested rule is evaluated exactly once,
    and a node that the carried sums of ``panels / 2`` panels already hold
    not at all.  Domain errors are re-raised naming the offending node,
    point and panel (numbered from 1, like the panel total).
    """
    names = rule_names(rules)
    if panels < 1:
        raise ValueError(f"panel count must be >= 1, got {panels}")
    need = needed_rules(names)
    columns = {node: [] for node in _NODES_READ[frozenset(need)]}
    left, right = columns.get((0, 0)), columns.get((2, 0))
    mid_reads = [(order, column) for (j, order), column in columns.items()
                 if j == 1]
    # boundary m (at a + m*h) is evaluated by panel m - shift, but m = 0
    # by panel 0, before m = 1 when both ends are read
    shift = right is not None

    with workprec(precision):
        a, b = interval.bounds()
        h = (b - a) / panels
        carry = f.carry(precision)
        key = (a._mpf_, b._mpf_)
        a, half = a._mpf_, (h / 2)._mpf_
        last = carry.get(key + (panels // 2,)) if panels % 2 == 0 else None
        # the boundaries m this call evaluates: all it reads, or with a
        # carry those that were midpoints of panels / 2 unless that level
        # read them
        if left is None and right is None:
            evaluated = range(0)
        elif last is None or any(node not in last for node in columns
                                 if node[0] != 1):
            evaluated = range(0 if left is not None else 1, panels + shift)
        else:
            for (j, order), column in columns.items():
                if j != 1:
                    column.append(last[j, order])
                    if (1, 0) in last:
                        column.append(last[1, 0])
            evaluated = range(0) if (1, 0) in last else range(1, panels, 2)

        eval_at, derivative_at, make = f.eval_at, f.derivative_at, mp.make_mpf
        for start in range(0, panels, _CHUNK):
            stop = min(start + _CHUNK, panels)
            ms = _within(evaluated, start + shift if start else 0,
                         stop + shift)
            bounds = iter(grid(a, half, range(2 * ms.start, 2 * ms.stop,
                                              2 * ms.step), precision)
                          if ms else ())
            mids = grid(a, half, range(2 * start + 1, 2 * stop, 2),
                        precision) if mid_reads else ()
            try:
                for i in range(start, stop):
                    if ms:
                        for m in (0, 1) if i == 0 and shift else (i + shift,):
                            if m in evaluated:
                                value = eval_at(make(next(bounds)))._mpf_
                                if left is not None and m < panels:
                                    left.append(value)
                                if right is not None and m:
                                    right.append(value)
                    if mid_reads:
                        x = make(mids[i - start])
                        for order, column in mid_reads:
                            column.append((derivative_at(x, order) if order
                                           else eval_at(x))._mpf_)
            except DomainError as err:
                raise err.located(i + 1, panels) from None
            for column in columns.values():
                column[:] = [mpf_sum(column, 0)]

        sums = {node: column[0] for node, column in columns.items()}
        carry.clear()
        carry[key + (panels,)] = sums
        vals = rule_values(need, h, lambda j, order: make(
            mpf_pos(sums[j, order], precision, round_nearest)))
        return {name: vals[name] for name in names}
