"""Quadrature through companion rules and their associate weighted means.

Seven simple rules (L, R, M, T, S, T2, Q) with derived signed error laws,
composite versions over uniform panels, gcd-weighted associate synthesis,
guaranteed brackets for the integral under a verified derivative-sign
condition, convergence tables, and an exact degree probe.  All arithmetic
runs at a caller-chosen binary precision (default 53 bits).
"""

from .analysis import (Reference, TableRow, UndefinedOrderError,
                       convergence_table, degree_probe, digits_correct,
                       observed_order, order_string, signed_error,
                       table_to_csv, table_to_json)
from .associate import (AssociateWeights, AssumptionVerdict, Bracket,
                        COMPANION_PAIRS, CompanionPair, associate_value,
                        bracket, check_assumption_A, companion_pair,
                        derive_weights)
from .composite import composite_values
from .expr import (DifferentiationError, DomainError, Expression, ParseError,
                   differentiate, eval_expr, parse, to_text)
from .integrand import BUILTIN_NAMES, Integrand, builtin_integrand
from .precision import format_real, pi_at, workprec
from .rules import (Interval, QUOTED_DEGREES, RULES, RULE_ORDER, RuleSpec,
                    UnknownRuleError, rule_meta, simple_rule_values)

__version__ = "0.1.0"

__all__ = [
    "AssociateWeights", "AssumptionVerdict", "Bracket", "BUILTIN_NAMES",
    "COMPANION_PAIRS", "CompanionPair", "DifferentiationError",
    "DomainError", "Expression", "Integrand", "Interval", "ParseError",
    "QUOTED_DEGREES", "Reference", "RuleSpec", "RULES", "RULE_ORDER",
    "TableRow", "UndefinedOrderError", "UnknownRuleError",
    "associate_value", "bracket", "builtin_integrand", "check_assumption_A",
    "companion_pair", "composite_values", "convergence_table",
    "degree_probe", "derive_weights", "differentiate", "digits_correct",
    "eval_expr", "format_real", "observed_order", "order_string", "parse",
    "pi_at", "rule_meta", "signed_error", "simple_rule_values",
    "table_to_csv", "table_to_json", "to_text", "workprec",
]
