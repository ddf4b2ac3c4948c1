"""Group-wise feature generation, post-generation cleanup, and size control.

Binary operations cross the two selected groups at their top-K least-similar
(|cosine|) feature pairs; unary operations map the group that is more relevant
to the target.  New columns that are constant or duplicate existing ones are
dropped, and K-best MI selection caps the table at a multiple of the original
feature count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from featforge.grouping import FeatureGroup, group_relevance
from featforge.measures import BinningSpec, DEFAULT_BINS, MIEngine, cosine_similarity, named_columns
from featforge.operators import (
    FeatureExpr,
    OperationKind,
    apply_binary,
    apply_unary,
    expr_to_string,
    make_binary_expr,
)

CONSTANT_STD_TOL = 1e-12
VALUE_DUP_TOL = 1e-9


@dataclass(frozen=True)
class FeatureTable:
    """Feature matrix plus per-column provenance expressions."""

    values: np.ndarray            # m x n
    exprs: tuple[FeatureExpr, ...]
    created_at: tuple[int, ...] = ()  # pipeline step each column appeared at

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 2:
            raise ValueError("values must be 2-D")
        if values.shape[1] != len(self.exprs):
            raise ValueError("one expression per column required")
        if not self.created_at:
            object.__setattr__(self, "created_at", (0,) * values.shape[1])
        elif len(self.created_at) != values.shape[1]:
            raise ValueError("created_at length mismatch")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(expr_to_string(e) for e in self.exprs)

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    @staticmethod
    def from_dataset(dataset) -> "FeatureTable":
        return FeatureTable(
            values=np.array(dataset.samples),
            exprs=tuple(FeatureExpr.leaf(n) for n in dataset.feature_names),
        )

    def column(self, i: int) -> np.ndarray:
        return self.values[:, i]


@dataclass(frozen=True)
class GenerationConfig:
    top_k_pairs: "int | str" = "auto"   # auto = min(|c1|, |c2|, 8)
    size_tolerance_factor: float = 2.0
    dedup: bool = True
    random_unary: bool = False   # ablation: pick the group uniformly at random
    random_binary: bool = False  # ablation: pick pairs uniformly at random

    def __post_init__(self):
        if self.top_k_pairs != "auto" and int(self.top_k_pairs) < 1:
            raise ValueError("top_k_pairs must be >= 1")
        if self.size_tolerance_factor <= 1.0:
            raise ValueError("size_tolerance_factor must exceed 1")


def _candidate_pairs(c1: FeatureGroup, c2: FeatureGroup) -> list[tuple[int, int]]:
    if set(c1.indices) == set(c2.indices):
        idx = c1.indices
        return [(idx[a], idx[b]) for a in range(len(idx)) for b in range(a + 1, len(idx))]
    return [(i, j) for i in c1.indices for j in c2.indices]


def cross_binary_topk(
    op: OperationKind,
    c1: FeatureGroup,
    c2: FeatureGroup,
    current: FeatureTable,
    cfg: GenerationConfig = GenerationConfig(),
    rng: np.random.Generator | None = None,
) -> list[tuple[FeatureExpr, np.ndarray]]:
    """Apply a binary op to the K least-|cosine|-similar cross-group pairs."""
    if not op.is_binary:
        raise ValueError(f"{op} is not binary")
    pairs = _candidate_pairs(c1, c2)
    if not pairs:
        raise ValueError("no valid feature pairs between the two groups")
    k = cfg.top_k_pairs
    if k == "auto":
        k = min(len(c1), len(c2), 8)
    k = min(int(k), len(pairs))
    if cfg.random_binary:
        if rng is None:
            rng = np.random.default_rng(0)
        chosen_idx = rng.choice(len(pairs), size=k, replace=False)
        chosen = [pairs[i] for i in chosen_idx]
    else:
        scored = sorted(
            pairs,
            key=lambda p: (abs(cosine_similarity(current.column(p[0]), current.column(p[1]))), p),
        )
        chosen = scored[:k]
    out = []
    for i, j in chosen:
        expr = make_binary_expr(op, current.exprs[i], current.exprs[j])
        # commutative canonicalization may swap operands; values are identical
        # for + and *, so applying in table order is safe
        values = apply_binary(op, current.column(i), current.column(j))
        out.append((expr, values))
    return out


def generate_unary(
    op: OperationKind,
    c1: FeatureGroup,
    c2: FeatureGroup,
    current: FeatureTable,
    target,
    cfg: GenerationConfig = GenerationConfig(),
    spec: BinningSpec = DEFAULT_BINS,
    rng: np.random.Generator | None = None,
    mi: MIEngine | None = None,
) -> list[tuple[FeatureExpr, np.ndarray]]:
    """Apply a unary op to every feature of the more target-relevant group."""
    if not op.is_unary:
        raise ValueError(f"{op} is not unary")
    if cfg.random_unary:
        if rng is None:
            rng = np.random.default_rng(0)
        group = c1 if rng.integers(2) == 0 else c2
    else:
        rel1 = group_relevance(c1, current, target, spec, mi=mi)
        rel2 = group_relevance(c2, current, target, spec, mi=mi)
        group = c1 if rel1 >= rel2 else c2
    out = []
    for i in group.indices:
        expr = FeatureExpr.unary(op, current.exprs[i])
        out.append((expr, apply_unary(op, current.column(i))))
    return out


def postprocess(
    existing: FeatureTable,
    generated: list[tuple[FeatureExpr, np.ndarray]],
    step: int = 0,
) -> FeatureTable:
    """Merge generated columns, dropping constants and duplicates."""
    if not generated:
        return existing
    kept_values = [existing.values[:, i] for i in range(existing.n_features)]
    kept_exprs = list(existing.exprs)
    kept_created = list(existing.created_at)
    seen_names = set(existing.names)
    for expr, values in generated:
        values = np.asarray(values, dtype=float)
        if len(values) != existing.values.shape[0]:
            raise ValueError("generated column length mismatch")
        if np.std(values) < CONSTANT_STD_TOL:
            continue
        name = expr_to_string(expr)
        if name in seen_names:
            continue
        if any(np.max(np.abs(values - col)) < VALUE_DUP_TOL for col in kept_values):
            continue
        kept_values.append(values)
        kept_exprs.append(expr)
        kept_created.append(step)
        seen_names.add(name)
    return FeatureTable(
        values=np.column_stack(kept_values),
        exprs=tuple(kept_exprs),
        created_at=tuple(kept_created),
    )


def kbest_select(
    features: FeatureTable,
    target,
    k: int,
    spec: BinningSpec = DEFAULT_BINS,
    mi: MIEngine | None = None,
) -> FeatureTable:
    """Keep the k columns with highest MI(f, y); ties keep the lower index."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n = features.n_features
    if k >= n:
        return features
    mi, names, values = named_columns(features, target, spec, mi)
    scores = mi.target_mi(names, values)
    # stable selection: sort by (-score, index)
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    keep = sorted(order[:k])
    return FeatureTable(
        values=features.values[:, keep],
        exprs=tuple(features.exprs[i] for i in keep),
        created_at=tuple(features.created_at[i] for i in keep),
    )


def size_control(
    features: FeatureTable,
    original_count: int,
    target,
    cfg: GenerationConfig = GenerationConfig(),
    spec: BinningSpec = DEFAULT_BINS,
    mi: MIEngine | None = None,
) -> FeatureTable:
    """Cap the table at floor(tolerance_factor * original_count) columns."""
    if original_count < 1:
        raise ValueError("original_count must be >= 1")
    cap = int(np.floor(cfg.size_tolerance_factor * original_count))
    if features.n_features > cap:
        return kbest_select(features, target, cap, spec, mi=mi)
    return features
