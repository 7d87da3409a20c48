"""Composite rules: apply a simple rule on n uniform panels and sum.

[a, b] is split into n panels of width h = (b-a)/n.  A composite rule is
linear in its node values, so it is one call of the rule kernel
``quadrules.rules.rule_values`` with width h on node sums, built from
exact sums (``mpf_sum(..., 0)``) by node kind: f(a), f(b), f at the inner
boundaries, and f and f'' at the midpoints.  Kernel node 0 (the left
ends) reads f(a) plus the inner sum, node 2 (the right ends) the inner
sum plus f(b), and node 1 a midpoint sum; each rounds once, at the end,
so the error does not grow with n.  The kernel says which nodes a rule
set reads, so an L-only sum never evaluates f(b) and an R-only one never
f(a).

Node k sits at a + k*h/2 (even k are panel boundaries, odd k midpoints),
so h-rounding cannot alias two distinct nodes.  One pass evaluates each
node once, in ascending k, in chunks of a fixed number of panels, so a
call holds one chunk of node values whatever n is.  Each chunk's
positions come from one call of ``quadrules.expr.grid``, each a single
multiplication a + k*(h/2), never repeated addition: on doubles at 53
bits where they round as the tuple formula ``mpf_add(a, mpf_mul_int(h/2,
k))`` does, and by that formula everywhere else.

The integrand carries the exact sums of its last composite at each
precision (``f.carry(precision)``).  In a doubling sweep h/2 halves
exactly, so the inner boundaries of 2n panels are, bit for bit, the inner
boundaries and midpoints of n panels, and f(a) and f(b) stay.  A call for
twice the carried panel count on the same interval therefore evaluates
only its new nodes: its midpoints, and the midpoints of n as new
boundaries when n did not read them (an L, R or T sweep).  f'' is read
only at midpoints, which no coarser level shares.  A call that raises
stores no carry.
"""

from __future__ import annotations

from mpmath import mp
from mpmath.libmp import mpf_pos, mpf_sum, round_nearest

from .expr import DomainError, grid
from .precision import workprec
from .rules import nodes_read, rule_names, rule_values


# the exact sums by node kind that each kernel node adds
_SUMS = {(0, 0): ("f(a)", "f(inner)"), (2, 0): ("f(inner)", "f(b)"),
         (1, 0): ("f(mid)",), (1, 2): ("f''(mid)",)}

_CHUNK = 512  # panels whose node values are held at once


def composite_values(f, interval, rules, panels, precision=53):
    """Composite values for several rules from one pass over shared nodes.

    Every distinct node of every requested rule is evaluated exactly once,
    in ascending x, and a node that the carried sums of ``panels / 2``
    panels already hold not at all.  A domain error is re-raised at the
    leftmost failing node, naming it, its point and the first panel that
    reads it (numbered from 1, like the panel total).
    """
    names = rule_names(rules)
    if not isinstance(panels, int) or panels < 1:
        raise ValueError(f"panel count must be an integer >= 1, got "
                         f"{panels!r}")
    nodes = nodes_read(frozenset(names))
    sums = {kind: [] for node in nodes for kind in _SUMS[node]}
    mid_reads = [(order, sums[_SUMS[j, order][0]]) for j, order in nodes
                 if j == 1]
    right = "f(b)" in sums

    with workprec(precision):
        a, b = interval.bounds()
        h = (b - a) / panels
        carry = f.carry(precision)
        key = (a._mpf_, b._mpf_)
        a, half = a._mpf_, (h / 2)._mpf_
        last = carry.get(key + (panels // 2,)) if panels % 2 == 0 else None
        # the boundaries k this call evaluates: all it reads, or with a
        # carry the midpoints of panels / 2 unless that level read them
        ends = {"f(a)", "f(inner)", "f(b)"} & sums.keys()
        if not ends:
            bounds = range(0)
        elif last is None or not ends <= last.keys():
            bounds = range(0 if "f(a)" in ends else 2,
                           2 * panels + (1 if right else -1), 2)
        else:
            for kind in ends:
                sums[kind].append(last[kind])
            if "f(mid)" in last:
                sums["f(inner)"].append(last["f(mid)"])
                bounds = range(0)
            else:
                bounds = range(2, 2 * panels, 4)

        eval_at, derivative_at, make = f.eval_at, f.derivative_at, mp.make_mpf
        for start in range(0, panels, _CHUNK):
            stop = min(start + _CHUNK, panels)
            ks = [k for k in range(2 * start, 2 * stop + (stop == panels))
                  if k in bounds or k % 2 and mid_reads]
            try:
                for k, x in zip(ks, grid(a, half, ks, precision)):
                    x = make(x)
                    if k % 2:
                        for order, column in mid_reads:
                            column.append((derivative_at(x, order) if order
                                           else eval_at(x))._mpf_)
                    else:
                        sums["f(a)" if k == 0 else "f(b)" if k == 2 * panels
                             else "f(inner)"].append(eval_at(x)._mpf_)
            except DomainError as err:
                # a midpoint is its panel's, and boundary m is first read
                # as panel m's right end if right ends are read
                m, odd = divmod(k, 2)
                raise err.located(m if m and right and not odd else m + 1,
                                  panels) from None
            for column in sums.values():
                column[:] = [mpf_sum(column, 0)]

        sums = {kind: column[0] for kind, column in sums.items()}
        carry.clear()
        carry[key + (panels,)] = sums
        return rule_values(names, h, lambda *node: make(mpf_pos(
            mpf_sum([sums[kind] for kind in _SUMS[node]], 0), precision,
            round_nearest)))
