"""Exact-arithmetic toolkit for a central-binomial double-sum identity.

Evaluates S(n) = sum_{i,j} C(2n,n+i) C(2n,n+j) |i^2 - j^2| by independent
strategies, verifies each line of its elementary derivation down to the
closed form 2 n^2 C(2n,n)^2, and benchmarks the strategies against each
other. Everything is exact big-integer arithmetic end to end.

The top level exports what README's Library section imports; everything
else lives in its submodule (``cbsum.chain``, ``cbsum.identity``, ...).
"""
from .chain import verify_chain
from .identity import Strategy, evaluate, half_row_sum

__version__ = "0.1.0"

__all__ = ["Strategy", "evaluate", "half_row_sum", "verify_chain"]
