"""The 14-operation algebra with domain guards and provenance expression trees.

One table, ``_FUNCTIONS``, holds each operation's formula; ``_BINARY`` names
the four binary ones and every other operation is unary.  Every generated
feature carries a FeatureExpr over original column names, so any column in any
output can be re-derived from the raw dataset.  Guards keep every operation
total on finite inputs: log uses ln(|v| + 1e-6), sqrt uses sqrt(|v|),
denominators are floored at 1e-6 in magnitude, and tangent/exp outputs are
clipped to +-1e12.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

GUARD_EPS = 1e-6
CLIP_BOUND = 1e12


class OperationKind(enum.Enum):
    SQRT = "sqrt"
    SQUARE = "square"
    COSINE = "cos"
    SINE = "sin"
    TANGENT = "tan"
    EXP = "exp"
    CUBE = "cube"
    LOG = "log"
    RECIPROCAL = "reciprocal"
    SIGMOID = "sigmoid"
    PLUS = "+"
    SUBTRACT = "-"
    MULTIPLY = "*"
    DIVIDE = "/"

    @property
    def is_unary(self) -> bool:
        return not self.is_binary

    @property
    def is_binary(self) -> bool:
        return self in _BINARY


_BINARY = frozenset(
    {
        OperationKind.PLUS,
        OperationKind.SUBTRACT,
        OperationKind.MULTIPLY,
        OperationKind.DIVIDE,
    }
)

# the agents' operation index is the declaration order
ALL_OPERATIONS: tuple[OperationKind, ...] = tuple(OperationKind)
_BY_TOKEN = {op.value: op for op in ALL_OPERATIONS}  # each operation by the token expr_to_string renders

COMMUTATIVE = frozenset({OperationKind.PLUS, OperationKind.MULTIPLY})


def _guard_denominator(v: np.ndarray) -> np.ndarray:
    sign = np.where(v < 0, -1.0, 1.0)  # g(0) = +1e-6
    return sign * np.maximum(np.abs(v), GUARD_EPS)


# each operation's formula, before _finalize
_FUNCTIONS = {
    OperationKind.SQRT: lambda x: np.sqrt(np.abs(x)),
    OperationKind.SQUARE: lambda x: x * x,
    OperationKind.COSINE: np.cos,
    OperationKind.SINE: np.sin,
    OperationKind.TANGENT: np.tan,
    OperationKind.EXP: lambda x: np.exp(np.clip(x, -700, 700)),
    OperationKind.CUBE: lambda x: x * x * x,
    OperationKind.LOG: lambda x: np.log(np.abs(x) + GUARD_EPS),
    OperationKind.RECIPROCAL: lambda x: 1.0 / _guard_denominator(x),
    OperationKind.SIGMOID: lambda x: 1.0 / (1.0 + np.exp(-np.clip(x, -700, 700))),
    OperationKind.PLUS: np.add,
    OperationKind.SUBTRACT: np.subtract,
    OperationKind.MULTIPLY: np.multiply,
    OperationKind.DIVIDE: lambda x, y: x / _guard_denominator(y),
}


def _finalize(v: np.ndarray) -> np.ndarray:
    v = np.nan_to_num(v, nan=0.0, posinf=CLIP_BOUND, neginf=-CLIP_BOUND)
    return np.clip(v, -CLIP_BOUND, CLIP_BOUND)


def _apply(op: OperationKind, *operands: np.ndarray) -> np.ndarray:
    # overflow/invalid intermediates are deliberate: _finalize clips them
    with np.errstate(over="ignore", invalid="ignore"):
        out = _FUNCTIONS[op](*operands)
    return _finalize(out)


def apply_unary(op: OperationKind, x) -> np.ndarray:
    if not op.is_unary:
        raise ValueError(f"{op} is not a unary operation")
    return _apply(op, np.asarray(x, dtype=float))


def apply_binary(op: OperationKind, x, y) -> np.ndarray:
    if not op.is_binary:
        raise ValueError(f"{op} is not a binary operation")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("operand length mismatch")
    return _apply(op, x, y)


@dataclass(frozen=True)
class FeatureExpr:
    """Provenance tree: leaf(original name) | unary(op, child) | binary(op, l, r)."""

    op: OperationKind | None
    name: str | None = None
    left: "FeatureExpr | None" = None
    right: "FeatureExpr | None" = None

    @staticmethod
    def leaf(name: str) -> "FeatureExpr":
        return FeatureExpr(op=None, name=name)

    @staticmethod
    def unary(op: OperationKind, child: "FeatureExpr") -> "FeatureExpr":
        if not op.is_unary:
            raise ValueError(f"{op} is not unary")
        return FeatureExpr(op=op, left=child)

    @staticmethod
    def binary(op: OperationKind, left: "FeatureExpr", right: "FeatureExpr") -> "FeatureExpr":
        if not op.is_binary:
            raise ValueError(f"{op} is not binary")
        return FeatureExpr(op=op, left=left, right=right)

    @property
    def is_leaf(self) -> bool:
        return self.op is None

    @property
    def depth(self) -> int:
        children = [c for c in (self.left, self.right) if c is not None]
        return 1 + max(c.depth for c in children) if children else 0


def expr_to_string(e: FeatureExpr) -> str:
    """Canonical fully-parenthesized rendering; injective over distinct trees."""
    if e.is_leaf:
        return e.name
    if e.op.is_unary:
        return f"{e.op.value}({expr_to_string(e.left)})"
    return f"({expr_to_string(e.left)}{e.op.value}{expr_to_string(e.right)})"


def evaluate_expr(e: FeatureExpr, original) -> np.ndarray:
    """Re-derive a feature column from the original dataset's columns.

    ``original`` is a Dataset or any object with .samples and .feature_names.
    """
    name_to_col = {name: i for i, name in enumerate(original.feature_names)}

    def rec(node: FeatureExpr) -> np.ndarray:
        if node.is_leaf:
            if node.name not in name_to_col:
                raise KeyError(f"unknown original feature {node.name!r}")
            return np.asarray(original.samples[:, name_to_col[node.name]], dtype=float)
        if node.op.is_unary:
            return apply_unary(node.op, rec(node.left))
        return apply_binary(node.op, rec(node.left), rec(node.right))

    return rec(e)


def parse_expression(text: str) -> FeatureExpr:
    """Inverse of :func:`expr_to_string` for canonical renderings."""
    text = text.strip()
    if text.startswith("("):
        if not text.endswith(")"):
            raise ValueError(f"unbalanced parentheses in {text!r}")
        inner = text[1:-1]
        depth = 0
        for i, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif depth == 0 and i > 0 and (op := _BY_TOKEN.get(ch)) and op.is_binary:
                left = parse_expression(inner[:i])
                right = parse_expression(inner[i + 1 :])
                return FeatureExpr.binary(op, left, right)
        raise ValueError(f"no top-level binary operator in {text!r}")
    if text.endswith(")"):
        head, _, rest = text.partition("(")
        op = _BY_TOKEN.get(head)
        if op is not None and op.is_unary:
            return FeatureExpr.unary(op, parse_expression(rest[:-1]))
        raise ValueError(f"unknown unary operation {head!r}")
    return FeatureExpr.leaf(text)


def make_binary_expr(op: OperationKind, left: FeatureExpr, right: FeatureExpr) -> FeatureExpr:
    """Binary expr with commutative operands ordered by rendered string.

    Keeps "(a*b)" and "(b*a)" from coexisting as distinct features.
    """
    if op in COMMUTATIVE and expr_to_string(left) > expr_to_string(right):
        left, right = right, left
    return FeatureExpr.binary(op, left, right)
