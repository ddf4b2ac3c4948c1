"""The 14 operations as they were computed before one table held their formulas.

Test oracle only: ``apply_unary``, ``apply_binary`` and their two arity sets
verbatim from the former ``featforge.operators``, with one if-chain per arity.
The table-driven functions must return the same values and sign bits and raise
the same errors.
"""

from __future__ import annotations

import numpy as np

from featforge.operators import CLIP_BOUND, GUARD_EPS, OperationKind


_UNARY = frozenset(
    {
        OperationKind.SQRT,
        OperationKind.SQUARE,
        OperationKind.COSINE,
        OperationKind.SINE,
        OperationKind.TANGENT,
        OperationKind.EXP,
        OperationKind.CUBE,
        OperationKind.LOG,
        OperationKind.RECIPROCAL,
        OperationKind.SIGMOID,
    }
)
_BINARY = frozenset(
    {
        OperationKind.PLUS,
        OperationKind.SUBTRACT,
        OperationKind.MULTIPLY,
        OperationKind.DIVIDE,
    }
)


def _guard_denominator(v: np.ndarray) -> np.ndarray:
    sign = np.where(v < 0, -1.0, 1.0)  # g(0) = +1e-6
    return sign * np.maximum(np.abs(v), GUARD_EPS)


def _finalize(v: np.ndarray) -> np.ndarray:
    v = np.nan_to_num(v, nan=0.0, posinf=CLIP_BOUND, neginf=-CLIP_BOUND)
    return np.clip(v, -CLIP_BOUND, CLIP_BOUND)


def apply_unary(op: OperationKind, x) -> np.ndarray:
    if op not in _UNARY:
        raise ValueError(f"{op} is not a unary operation")
    x = np.asarray(x, dtype=float)
    # overflow/invalid intermediates are deliberate: _finalize clips them
    with np.errstate(over="ignore", invalid="ignore"):
        if op is OperationKind.SQRT:
            out = np.sqrt(np.abs(x))
        elif op is OperationKind.SQUARE:
            out = x * x
        elif op is OperationKind.COSINE:
            out = np.cos(x)
        elif op is OperationKind.SINE:
            out = np.sin(x)
        elif op is OperationKind.TANGENT:
            out = np.tan(x)
        elif op is OperationKind.EXP:
            out = np.exp(np.clip(x, -700, 700))
        elif op is OperationKind.CUBE:
            out = x * x * x
        elif op is OperationKind.LOG:
            out = np.log(np.abs(x) + GUARD_EPS)
        elif op is OperationKind.RECIPROCAL:
            out = 1.0 / _guard_denominator(x)
        else:  # sigmoid
            out = 1.0 / (1.0 + np.exp(-np.clip(x, -700, 700)))
    return _finalize(out)


def apply_binary(op: OperationKind, x, y) -> np.ndarray:
    if op not in _BINARY:
        raise ValueError(f"{op} is not a binary operation")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("operand length mismatch")
    with np.errstate(over="ignore", invalid="ignore"):
        if op is OperationKind.PLUS:
            out = x + y
        elif op is OperationKind.SUBTRACT:
            out = x - y
        elif op is OperationKind.MULTIPLY:
            out = x * y
        else:  # divide
            out = x / _guard_denominator(y)
    return _finalize(out)
