import numpy as np
import operators_reference as reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featforge import operators
from featforge.data_core import Dataset, Task
from featforge.operators import (
    ALL_OPERATIONS,
    FeatureExpr,
    OperationKind,
    apply_binary,
    apply_unary,
    evaluate_expr,
    expr_to_string,
    make_binary_expr,
    parse_expression,
)

UNARY_OPS = [op for op in ALL_OPERATIONS if op.is_unary]
BINARY_OPS = [op for op in ALL_OPERATIONS if op.is_binary]


class TestOperationKind:
    def test_counts(self):
        assert len(ALL_OPERATIONS) == 14
        assert len(UNARY_OPS) == 10
        assert len(BINARY_OPS) == 4

    def test_arity_partition(self):
        for op in ALL_OPERATIONS:
            assert op.is_unary != op.is_binary


class TestApplyUnary:
    def test_square(self):
        assert np.array_equal(apply_unary(OperationKind.SQUARE, [2, -3]), [4, 9])

    def test_log_guard(self):
        out = apply_unary(OperationKind.LOG, [-np.e])
        assert abs(out[0] - np.log(np.e + 1e-6)) < 1e-12

    def test_reciprocal_guard_at_zero(self):
        assert apply_unary(OperationKind.RECIPROCAL, [0.0])[0] == 1e6

    def test_reciprocal_sign_preserved(self):
        out = apply_unary(OperationKind.RECIPROCAL, [-1e-9, 2.0])
        assert out[0] == -1e6
        assert abs(out[1] - 0.5) < 1e-12

    def test_sqrt_abs(self):
        assert apply_unary(OperationKind.SQRT, [-4.0])[0] == 2.0

    def test_sigmoid(self):
        out = apply_unary(OperationKind.SIGMOID, [0.0, 1000.0, -1000.0])
        assert abs(out[0] - 0.5) < 1e-12
        assert abs(out[1] - 1.0) < 1e-12 and abs(out[2]) < 1e-12

    def test_exp_clipped(self):
        assert apply_unary(OperationKind.EXP, [1e6])[0] == 1e12

    def test_binary_op_rejected(self):
        with pytest.raises(ValueError):
            apply_unary(OperationKind.PLUS, [1.0])

    @pytest.mark.parametrize("op", UNARY_OPS)
    def test_totality(self, op):
        x = np.array([0.0, -1e300, 1e300, 1e-300, -0.5, 3.0, np.pi / 2])
        out = apply_unary(op, x)
        assert np.all(np.isfinite(out))
        assert np.all(np.abs(out) <= 1e12)


class TestApplyBinary:
    def test_multiply(self):
        assert np.array_equal(apply_binary(OperationKind.MULTIPLY, [1, 2], [3, 4]), [3, 8])

    def test_divide_guard(self):
        assert apply_binary(OperationKind.DIVIDE, [1.0], [0.0])[0] == 1e6

    def test_subtract_self(self):
        x = np.random.default_rng(0).normal(size=10)
        assert np.all(apply_binary(OperationKind.SUBTRACT, x, x) == 0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            apply_binary(OperationKind.PLUS, [1.0, 2.0], [1.0])

    def test_unary_op_rejected(self):
        with pytest.raises(ValueError):
            apply_binary(OperationKind.LOG, [1.0], [2.0])

    @pytest.mark.parametrize("op", BINARY_OPS)
    def test_totality(self, op):
        x = np.array([0.0, -1e300, 1e300, 1.0])
        y = np.array([0.0, 1e300, -1e300, -1e-12])
        out = apply_binary(op, x, y)
        assert np.all(np.isfinite(out))
        assert np.all(np.abs(out) <= 1e12)


def oracle_inputs() -> np.ndarray:
    """Seeded magnitudes from 1e-8 to 1e8 of both signs, then the guards' and clips' edges."""
    rng = np.random.default_rng(2026)
    random = rng.choice([-1.0, 1.0], 2000) * 10.0 ** rng.uniform(-8, 8, 2000)
    edges = [0.0, 1e-6, 710.0, 1e300, 5e-324, 1.0, 700.0, np.pi / 2, np.nextafter(1e-6, 0), 1e-12]
    return np.concatenate([random, edges, -np.array(edges)])


def assert_bitwise_equal(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestFormerIfChains:
    """Each operation's table formula against the former if-chains, bit for bit."""

    @pytest.mark.parametrize("op", UNARY_OPS)
    def test_unary(self, op):
        x = oracle_inputs()
        assert_bitwise_equal(apply_unary(op, x), reference.apply_unary(op, x))

    @pytest.mark.parametrize("op", BINARY_OPS)
    def test_binary(self, op):
        values = oracle_inputs()
        partners = np.concatenate([values[:40], values[-20:]])  # 40 random values and every edge
        x, y = np.repeat(values, len(partners)), np.tile(partners, len(values))
        assert_bitwise_equal(apply_binary(op, x, y), reference.apply_binary(op, x, y))
        assert_bitwise_equal(apply_binary(op, y, x), reference.apply_binary(op, y, x))

    def test_scalar_operands(self):
        for op in UNARY_OPS:
            assert_bitwise_equal(apply_unary(op, -0.0), reference.apply_unary(op, -0.0))
        for op in BINARY_OPS:
            assert_bitwise_equal(apply_binary(op, -0.0, 3.0), reference.apply_binary(op, -0.0, 3.0))

    @pytest.mark.parametrize("op", ALL_OPERATIONS)
    def test_same_errors(self, op):
        def outcome(call, *args):
            try:
                call(op, *args)
            except ValueError as exc:
                return str(exc)
            return "ok"

        for name, *args in (("apply_unary", [1.0]), ("apply_binary", [1.0], [2.0]), ("apply_binary", [1.0, 2.0], [1.0])):
            assert outcome(getattr(operators, name), *args) == outcome(getattr(reference, name), *args)


class TestFeatureExpr:
    def test_leaf_string(self):
        assert expr_to_string(FeatureExpr.leaf("rm")) == "rm"

    def test_unary_string(self):
        e = FeatureExpr.unary(OperationKind.LOG, FeatureExpr.leaf("rm"))
        assert expr_to_string(e) == "log(rm)"

    def test_binary_string(self):
        e = FeatureExpr.binary(
            OperationKind.MULTIPLY, FeatureExpr.leaf("lstat"), FeatureExpr.leaf("lstat")
        )
        assert expr_to_string(e) == "(lstat*lstat)"

    def test_nested_string(self):
        e = FeatureExpr.binary(
            OperationKind.PLUS,
            FeatureExpr.unary(OperationKind.SQUARE, FeatureExpr.leaf("a")),
            FeatureExpr.leaf("b"),
        )
        assert expr_to_string(e) == "(square(a)+b)"

    def test_depth(self):
        a = FeatureExpr.leaf("a")
        assert a.depth == 0
        u = FeatureExpr.unary(OperationKind.SQRT, a)
        assert u.depth == 1
        b = FeatureExpr.binary(OperationKind.PLUS, u, a)
        assert b.depth == 2

    def test_arity_validation(self):
        with pytest.raises(ValueError):
            FeatureExpr.unary(OperationKind.PLUS, FeatureExpr.leaf("a"))
        with pytest.raises(ValueError):
            FeatureExpr.binary(
                OperationKind.LOG, FeatureExpr.leaf("a"), FeatureExpr.leaf("b")
            )

    def test_commutative_canonicalization(self):
        a, b = FeatureExpr.leaf("a"), FeatureExpr.leaf("b")
        assert expr_to_string(make_binary_expr(OperationKind.MULTIPLY, b, a)) == "(a*b)"
        assert expr_to_string(make_binary_expr(OperationKind.MULTIPLY, a, b)) == "(a*b)"
        # subtraction is order-sensitive and must not be swapped
        assert expr_to_string(make_binary_expr(OperationKind.SUBTRACT, b, a)) == "(b-a)"


def make_dataset(seed=0, m=20):
    rng = np.random.default_rng(seed)
    return Dataset(
        samples=rng.normal(size=(m, 3)),
        feature_names=("a", "b", "c"),
        target=rng.normal(size=m),
        task=Task.REGRESSION,
    )


class TestEvaluateExpr:
    def test_leaf(self):
        d = make_dataset()
        out = evaluate_expr(FeatureExpr.leaf("b"), d)
        assert np.array_equal(out, d.samples[:, 1])

    def test_double(self):
        d = make_dataset()
        e = FeatureExpr.binary(
            OperationKind.PLUS, FeatureExpr.leaf("a"), FeatureExpr.leaf("a")
        )
        assert np.max(np.abs(evaluate_expr(e, d) - 2 * d.samples[:, 0])) < 1e-12

    def test_unknown_leaf(self):
        with pytest.raises(KeyError):
            evaluate_expr(FeatureExpr.leaf("nope"), make_dataset())


def random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return FeatureExpr.leaf(rng.choice(["a", "b", "c"]))
    if rng.random() < 0.5:
        op = UNARY_OPS[rng.integers(len(UNARY_OPS))]
        return FeatureExpr.unary(op, random_expr(rng, depth - 1))
    op = BINARY_OPS[rng.integers(len(BINARY_OPS))]
    return FeatureExpr.binary(
        op, random_expr(rng, depth - 1), random_expr(rng, depth - 1)
    )


class TestParseExpression:
    def test_simple_cases(self):
        for text in ("a", "log(rm)", "(lstat*lstat)", "(square(a)+b)"):
            assert expr_to_string(parse_expression(text)) == text

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_random_trees(self, seed):
        rng = np.random.default_rng(seed)
        e = random_expr(rng, 4)
        text = expr_to_string(e)
        assert expr_to_string(parse_expression(text)) == text

    def test_parse_evaluate_consistency(self):
        d = make_dataset(3)
        rng = np.random.default_rng(7)
        for _ in range(50):
            e = random_expr(rng, 3)
            direct = evaluate_expr(e, d)
            reparsed = evaluate_expr(parse_expression(expr_to_string(e)), d)
            assert np.max(np.abs(direct - reparsed)) < 1e-9

    def test_malformed(self):
        for bad in ("(a+b", "frob(a)", "(ab)", "+(a)"):
            with pytest.raises(ValueError):
                parse_expression(bad)


class TestStringInjectivity:
    def test_no_collisions_over_random_trees(self):
        rng = np.random.default_rng(11)
        seen = {}
        for _ in range(500):
            e = random_expr(rng, 3)
            text = expr_to_string(e)
            if text in seen:
                assert seen[text] == e
            seen[text] = e
