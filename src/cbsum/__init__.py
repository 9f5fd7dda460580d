"""Exact-arithmetic toolkit for a central-binomial double-sum identity.

Evaluates S(n) = sum_{i,j} C(2n,n+i) C(2n,n+j) |i^2 - j^2| by independent
strategies, verifies each line of its elementary derivation down to the
closed form 2 n^2 C(2n,n)^2, and benchmarks the strategies against each
other. Everything is exact big-integer arithmetic end to end.
"""
from .bench import BenchRecord, DEFAULT_NAIVE_CUTOFF, median_duration_ns, run_benchmark
from .chain import (
    AlternativeFinish,
    CHAIN_COMPARISONS,
    StepId,
    StepReport,
    alternative_finish,
    absorbed_form,
    cancelled_form,
    closure_sides,
    folded_form,
    telescoped_form,
    verify_chain,
    verify_chain_timed,
)
from .combinatorics import binomial, pascal_row
from .digests import decimal_digits, decimal_str, value_digest
from .identity import (
    EVALUATORS,
    EvalResult,
    Strategy,
    absorption_sides,
    evaluate,
    evaluate_closed_form,
    evaluate_naive,
    evaluate_symmetrized,
    half_row_sum,
    pascal_triple_sides,
)

__version__ = "0.1.0"

__all__ = [
    "AlternativeFinish",
    "BenchRecord",
    "CHAIN_COMPARISONS",
    "DEFAULT_NAIVE_CUTOFF",
    "EVALUATORS",
    "EvalResult",
    "StepId",
    "StepReport",
    "Strategy",
    "absorbed_form",
    "absorption_sides",
    "alternative_finish",
    "binomial",
    "cancelled_form",
    "closure_sides",
    "decimal_digits",
    "decimal_str",
    "evaluate",
    "evaluate_closed_form",
    "evaluate_naive",
    "evaluate_symmetrized",
    "folded_form",
    "half_row_sum",
    "median_duration_ns",
    "pascal_row",
    "pascal_triple_sides",
    "run_benchmark",
    "telescoped_form",
    "value_digest",
    "verify_chain",
    "verify_chain_timed",
]
