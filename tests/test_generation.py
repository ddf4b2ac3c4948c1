import numpy as np
import pytest

from featforge.generation import (
    CONSTANT_STD_TOL,
    VALUE_DUP_TOL,
    FeatureTable,
    GenerationConfig,
    cross_binary_topk,
    generate_unary,
    kbest_select,
    postprocess,
    size_control,
)
from featforge.grouping import FeatureGroup
from featforge.operators import FeatureExpr, OperationKind, expr_to_string


def make_table(values, names):
    return FeatureTable(
        values=np.asarray(values, dtype=float),
        exprs=tuple(FeatureExpr.leaf(n) for n in names),
    )


def random_table(seed=0, m=30, n=4):
    rng = np.random.default_rng(seed)
    names = tuple(f"f{i}" for i in range(n))
    return make_table(rng.normal(size=(m, n)), names), rng.normal(size=m)


class TestFeatureTable:
    def test_names(self):
        t, _ = random_table()
        assert t.names == ("f0", "f1", "f2", "f3")

    def test_column_count_validation(self):
        with pytest.raises(ValueError):
            FeatureTable(values=np.ones((3, 2)), exprs=(FeatureExpr.leaf("a"),))


class TestCrossBinaryTopk:
    def test_single_pair(self):
        t, _ = random_table()
        out = cross_binary_topk(
            OperationKind.MULTIPLY,
            FeatureGroup((0,)),
            FeatureGroup((1,)),
            t,
            GenerationConfig(top_k_pairs=1),
        )
        assert len(out) == 1
        expr, values = out[0]
        assert expr_to_string(expr) == "(f0*f1)"
        assert np.max(np.abs(values - t.values[:, 0] * t.values[:, 1])) < 1e-12

    def test_orthogonal_ranked_before_identical(self):
        base = np.array([1.0, 0.0, 1.0, 0.0])
        ortho = np.array([0.0, 1.0, 0.0, 1.0])
        t = make_table(np.column_stack([base, base, ortho]), ("a", "b", "c"))
        out = cross_binary_topk(
            OperationKind.PLUS,
            FeatureGroup((0,)),
            FeatureGroup((1, 2)),
            t,
            GenerationConfig(top_k_pairs=1),
        )
        # pair (a, c) has |cos| = 0 and must beat (a, b) with |cos| = 1
        assert expr_to_string(out[0][0]) == "(a+c)"

    def test_same_group_distinct_pairs(self):
        t, _ = random_table(n=2)
        g = FeatureGroup((0, 1))
        out = cross_binary_topk(OperationKind.MULTIPLY, g, g, t, GenerationConfig())
        assert len(out) == 1
        assert expr_to_string(out[0][0]) == "(f0*f1)"

    def test_same_singleton_generates_nothing(self):
        """The same singleton twice has no pair: nothing is generated and no random value drawn."""
        t, _ = random_table()
        g = FeatureGroup((0,))
        for cfg in (GenerationConfig(), GenerationConfig(random_binary=True)):
            rng = np.random.default_rng(5)
            assert cross_binary_topk(OperationKind.PLUS, g, g, t, cfg, rng) == []
            assert rng.random() == np.random.default_rng(5).random()

    def test_auto_k(self):
        t, _ = random_table(n=4)
        out = cross_binary_topk(
            OperationKind.PLUS, FeatureGroup((0, 1)), FeatureGroup((2, 3)), t
        )
        assert len(out) == 2  # min(2, 2, 8)

    def test_unary_rejected(self):
        t, _ = random_table()
        with pytest.raises(ValueError):
            cross_binary_topk(OperationKind.LOG, FeatureGroup((0,)), FeatureGroup((1,)), t)

    def test_random_binary_ablation_seeded(self):
        t, _ = random_table(n=4)
        cfg = GenerationConfig(random_binary=True)
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        a = cross_binary_topk(
            OperationKind.PLUS, FeatureGroup((0, 1)), FeatureGroup((2, 3)), t, cfg, rng_a
        )
        b = cross_binary_topk(
            OperationKind.PLUS, FeatureGroup((0, 1)), FeatureGroup((2, 3)), t, cfg, rng_b
        )
        assert [expr_to_string(e) for e, _ in a] == [expr_to_string(e) for e, _ in b]


class TestGenerateUnary:
    def test_more_relevant_group_chosen(self):
        rng = np.random.default_rng(2)
        y = rng.integers(0, 2, size=200).astype(float)
        relevant = y + 0.01 * rng.normal(size=200)
        noise1 = rng.normal(size=200)
        noise2 = rng.normal(size=200)
        t = make_table(np.column_stack([relevant, noise1, noise2]), ("a", "b", "c"))
        out = generate_unary(
            OperationKind.LOG, FeatureGroup((1, 2)), FeatureGroup((0,)), t, y
        )
        assert [expr_to_string(e) for e, _ in out] == ["log(a)"]

    def test_tie_picks_c1(self):
        rng = np.random.default_rng(3)
        f = rng.normal(size=50)
        y = rng.normal(size=50)
        t = make_table(np.column_stack([f, f]), ("a", "b"))
        out = generate_unary(
            OperationKind.SQRT, FeatureGroup((0,)), FeatureGroup((1,)), t, y
        )
        assert [expr_to_string(e) for e, _ in out] == ["sqrt(a)"]

    def test_all_members_mapped(self):
        t, y = random_table(n=4)
        out = generate_unary(
            OperationKind.SQUARE, FeatureGroup((0, 1, 2)), FeatureGroup((3,)), t, y
        )
        chosen = {expr_to_string(e) for e, _ in out}
        assert chosen in ({"square(f0)", "square(f1)", "square(f2)"}, {"square(f3)"})

    def test_binary_rejected(self):
        t, y = random_table()
        with pytest.raises(ValueError):
            generate_unary(OperationKind.PLUS, FeatureGroup((0,)), FeatureGroup((1,)), t, y)

    def test_random_unary_ablation_seeded(self):
        t, y = random_table()
        cfg = GenerationConfig(random_unary=True)
        a = generate_unary(
            OperationKind.LOG, FeatureGroup((0,)), FeatureGroup((1,)), t, y, cfg,
            rng=np.random.default_rng(9),
        )
        b = generate_unary(
            OperationKind.LOG, FeatureGroup((0,)), FeatureGroup((1,)), t, y, cfg,
            rng=np.random.default_rng(9),
        )
        assert [expr_to_string(e) for e, _ in a] == [expr_to_string(e) for e, _ in b]


class TestPostprocess:
    def test_empty_generated_unchanged(self):
        t, _ = random_table()
        assert postprocess(t, []) is t

    def test_string_duplicate_dropped(self):
        t, _ = random_table(n=2)
        expr = FeatureExpr.binary(
            OperationKind.MULTIPLY, t.exprs[0], t.exprs[1]
        )
        col = t.values[:, 0] * t.values[:, 1]
        merged = postprocess(t, [(expr, col), (expr, col + 1.0)])
        assert merged.n_features == 3

    def test_constant_dropped(self):
        t, _ = random_table(n=2)
        expr = FeatureExpr.binary(OperationKind.SUBTRACT, t.exprs[0], t.exprs[0])
        zero = np.zeros(t.values.shape[0])
        merged = postprocess(t, [(expr, zero)])
        assert merged.n_features == 2

    def test_value_duplicate_dropped(self):
        t, _ = random_table(n=2)
        expr = FeatureExpr.unary(OperationKind.SQRT, t.exprs[0])
        copy_of_f1 = t.values[:, 1] + 1e-12
        merged = postprocess(t, [(expr, copy_of_f1)])
        assert merged.n_features == 2

    def test_survivor_appended_with_step(self):
        t, _ = random_table(n=2)
        expr = FeatureExpr.unary(OperationKind.SQUARE, t.exprs[0])
        merged = postprocess(t, [(expr, t.values[:, 0] ** 2)], step=7)
        assert merged.n_features == 3
        assert merged.created_at[-1] == 7
        assert merged.names[-1] == "square(f0)"

    def test_length_mismatch(self):
        t, _ = random_table()
        expr = FeatureExpr.unary(OperationKind.SQUARE, t.exprs[0])
        with pytest.raises(ValueError):
            postprocess(t, [(expr, np.ones(3))])

    def test_matches_per_column_loop(self):
        """One comparison per generated column keeps what one per kept column kept."""
        rng = np.random.default_rng(12)
        for trial in range(40):
            t, _ = random_table(seed=trial, m=int(rng.integers(5, 40)), n=int(rng.integers(1, 6)))
            generated = []
            for i in range(int(rng.integers(1, 15))):
                expr = FeatureExpr.unary(OperationKind.SQUARE, t.exprs[int(rng.integers(t.n_features))])
                if rng.random() < 0.7:  # a fresh name, else a repeated one
                    expr = FeatureExpr.leaf(f"g{i}")
                kind = rng.integers(4)
                if kind == 0:  # a constant
                    values = np.full(t.values.shape[0], 2.5)
                elif kind == 1 and generated:  # near a generated column
                    values = generated[int(rng.integers(len(generated)))][1] + rng.choice([0.0, 5e-10, 2e-9])
                elif kind == 2:  # near an original column
                    values = t.values[:, int(rng.integers(t.n_features))] + rng.choice([0.0, 5e-10, 2e-9])
                else:
                    values = rng.normal(size=t.values.shape[0])
                generated.append((expr, values))
            got = postprocess(t, generated, step=trial)
            want = _postprocess_per_column(t, generated, step=trial)
            assert np.array_equal(got.values, want.values), trial
            assert got.values.flags.c_contiguous
            assert (got.exprs, got.created_at) == (want.exprs, want.created_at), trial


def _postprocess_per_column(existing, generated, step=0):
    """`postprocess` as it compared a generated column with one kept column per call."""
    kept_values = [existing.values[:, i] for i in range(existing.n_features)]
    kept_exprs = list(existing.exprs)
    kept_created = list(existing.created_at)
    seen_names = set(existing.names)
    for expr, values in generated:
        values = np.asarray(values, dtype=float)
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
    return FeatureTable(values=np.column_stack(kept_values), exprs=tuple(kept_exprs), created_at=tuple(kept_created))


class TestKBestSelect:
    def test_keeps_top_scores(self):
        rng = np.random.default_rng(4)
        y = rng.integers(0, 2, size=300).astype(float)
        strong = y + 0.01 * rng.normal(size=300)
        medium = y + 1.0 * rng.normal(size=300)
        noise = rng.normal(size=300)
        t = make_table(np.column_stack([strong, noise, medium]), ("s", "n", "m"))
        kept = kbest_select(t, y, 2)
        assert set(kept.names) == {"s", "m"}

    def test_k_at_least_n_identity(self):
        t, y = random_table()
        assert kbest_select(t, y, 10) is t

    def test_tie_keeps_lower_index(self):
        rng = np.random.default_rng(5)
        f = rng.normal(size=40)
        y = rng.normal(size=40)
        t = make_table(np.column_stack([f, f + 0.0]), ("a", "b"))
        kept = kbest_select(t, y, 1)
        assert kept.names == ("a",)

    def test_bad_k(self):
        t, y = random_table()
        with pytest.raises(ValueError):
            kbest_select(t, y, 0)


class TestSizeControl:
    def test_trigger_strictly_greater(self):
        rng = np.random.default_rng(6)
        y = rng.normal(size=30)
        t10 = make_table(rng.normal(size=(30, 10)), tuple(f"f{i}" for i in range(10)))
        assert size_control(t10, 5, y).n_features == 10  # exactly 2x, unchanged
        t11 = make_table(rng.normal(size=(30, 11)), tuple(f"f{i}" for i in range(11)))
        assert size_control(t11, 5, y).n_features == 10

    def test_d0_one(self):
        rng = np.random.default_rng(7)
        y = rng.normal(size=30)
        t = make_table(rng.normal(size=(30, 3)), ("a", "b", "c"))
        assert size_control(t, 1, y).n_features == 2

    def test_bad_original_count(self):
        t, y = random_table()
        with pytest.raises(ValueError):
            size_control(t, 0, y)

    def test_fractional_and_huge_factors(self):
        rng = np.random.default_rng(8)
        y = rng.normal(size=30)
        t = make_table(rng.normal(size=(30, 8)), tuple(f"f{i}" for i in range(8)))
        assert size_control(t, 5, y, GenerationConfig(size_tolerance_factor=1.5)).n_features == 7  # floor(7.5)
        # the cap overflows to inf: nothing to drop, and no OverflowError
        assert size_control(t, 5, y, GenerationConfig(size_tolerance_factor=1e308)) is t


class TestGenerationConfig:
    def test_validation(self):
        for k in (0, 2.5, float("inf"), "3"):
            with pytest.raises(ValueError):
                GenerationConfig(top_k_pairs=k)
        for factor in (1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                GenerationConfig(size_tolerance_factor=factor)
