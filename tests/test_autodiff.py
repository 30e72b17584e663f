"""Unit tests for the reverse-mode autodiff core.

Closed-form values below were derived by hand before implementation:
sigmoid(ln 3) = 3/4, softmax([0, ln 3]) = [1/4, 3/4], and the small
matmul/backward examples that follow.  Everything else is checked against
central finite differences on seeded random inputs.
"""

import math

import numpy as np
import numpy.testing as npt
import pytest

from nsesimp import autodiff as ad
from nsesimp.autodiff import Tape, Tensor, backward
from nsesimp.errors import (
    ConfigError,
    DimensionError,
    InvalidCheckError,
    NumericError,
    UsageError,
)


def fd_grad(f, t, eps=1e-6):
    """Central finite differences of scalar-valued f with respect to t.data."""
    flat = t.data.reshape(-1)
    out = np.zeros_like(flat)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + eps
        up = float(f().data)
        flat[j] = orig - eps
        down = float(f().data)
        flat[j] = orig
        out[j] = (up - down) / (2 * eps)
    return out.reshape(t.data.shape)


def check_op(build, tensors, rtol=1e-6, atol=1e-8):
    """Run backward on sum(build()) and compare against finite differences."""
    for t in tensors:
        t.grad = None
    with Tape() as tape:
        loss = ad.sum_all(build())
    backward(loss, tape)
    for t in tensors:
        numeric = fd_grad(lambda: ad.sum_all(build()), t)
        assert t.grad is not None
        npt.assert_allclose(t.grad, numeric, rtol=rtol, atol=atol)


class TestTensorBasics:
    def test_storage_is_contiguous_float64(self):
        t = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3).T)
        assert t.data.dtype == np.float64
        assert t.data.flags["C_CONTIGUOUS"]

    def test_no_tape_records_nothing(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        out = ad.mul(a, a)
        npt.assert_allclose(out.data, [1.0, 4.0])
        assert a.grad is None

    def test_backward_requires_scalar(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            out = ad.mul(a, a)
        with pytest.raises(UsageError):
            backward(out, tape)


class TestElementwise:
    def test_add_shapes_and_values(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([10.0, 20.0])
        npt.assert_allclose(ad.add(a, b).data, [[11.0, 22.0], [13.0, 24.0]])
        npt.assert_allclose(ad.add(b, a).data, [[11.0, 22.0], [13.0, 24.0]])
        col = Tensor([[100.0], [200.0]])
        npt.assert_allclose(ad.add(a, col).data, [[101.0, 102.0], [203.0, 204.0]])

    def test_rejected_broadcasts(self):
        with pytest.raises(DimensionError):
            ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
        with pytest.raises(DimensionError):
            ad.mul(Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)))

    def test_broadcast_gradient_reduces(self):
        rng = np.random.default_rng(11)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        v = Tensor(rng.normal(size=4), requires_grad=True)
        c = Tensor(rng.normal(size=(3, 1)), requires_grad=True)
        check_op(lambda: ad.mul(a, v), [a, v])
        check_op(lambda: ad.sub(a, v), [a, v])
        check_op(lambda: ad.add(v, a), [a, v])
        check_op(lambda: ad.mul(a, c), [a, c])


class TestMatmul:
    def test_known_product(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        npt.assert_allclose(ad.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_all_rank_combinations(self):
        rng = np.random.default_rng(7)
        m = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        n = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        v = Tensor(rng.normal(size=4), requires_grad=True)
        u = Tensor(rng.normal(size=3), requires_grad=True)
        check_op(lambda: ad.matmul(m, n), [m, n])
        check_op(lambda: ad.matmul(m, v), [m, v])
        check_op(lambda: ad.matmul(u, m), [u, m])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
        with pytest.raises(DimensionError):
            ad.matmul(Tensor(np.zeros(3)), Tensor(np.zeros(3)))


class TestAffineRows:
    def test_rows_match_per_row_affine_map(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 4))
        W = rng.normal(size=(5, 4))
        b = rng.normal(size=5)
        out = ad.affine_rows(Tensor(x), Tensor(W), Tensor(b))
        assert out.shape == (3, 5)
        for t in range(3):
            npt.assert_allclose(out.data[t], W @ x[t] + b, rtol=1e-13)

    def test_gradients(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        W = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=5), requires_grad=True)
        probe = Tensor(rng.uniform(0.5, 1.5, size=(3, 5)))
        check_op(lambda: ad.mul(ad.affine_rows(x, W, b), probe), [x, W, b])

    def test_shape_mismatch(self):
        x, W, b = Tensor(np.zeros((3, 4))), Tensor(np.zeros((5, 4))), Tensor(np.zeros(5))
        for args in (
            (Tensor(np.zeros((3, 2))), W, b),  # input width differs from W's
            (Tensor(np.zeros(4)), W, b),  # a vector is not a row matrix
            (x, Tensor(np.zeros(4)), b),
            (x, W, Tensor(np.zeros(4))),  # bias length differs from W's rows
        ):
            with pytest.raises(DimensionError):
                ad.affine_rows(*args)


class TestActivations:
    def test_sigmoid_oracle(self):
        # sigmoid(ln 3) = 3/(3+1) = 0.75 exactly
        out = ad.sigmoid(Tensor([math.log(3.0), 0.0]))
        npt.assert_allclose(out.data, [0.75, 0.5], rtol=0, atol=1e-15)

    def test_sigmoid_extreme_inputs_stay_finite(self):
        out = ad.sigmoid(Tensor([-1000.0, 1000.0]))
        npt.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)

    def test_tanh_oracle(self):
        out = ad.tanh(Tensor([0.0, math.atanh(0.5)]))
        npt.assert_allclose(out.data, [0.0, 0.5], atol=1e-15)

    def test_gradients(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        check_op(lambda: ad.sigmoid(x), [x])
        check_op(lambda: ad.tanh(x), [x])


class TestSoftmax:
    def test_softmax_oracle(self):
        out = ad.softmax_rows(Tensor([0.0, math.log(3.0)]))
        npt.assert_allclose(out.data, [0.25, 0.75], atol=1e-15)

    def test_softmax_large_inputs(self):
        out = ad.softmax_rows(Tensor([1000.0, 1000.0]))
        npt.assert_allclose(out.data, [0.5, 0.5])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        p = ad.softmax_rows(Tensor(rng.normal(size=(6, 9)) * 10)).data
        npt.assert_allclose(p.sum(axis=1), np.ones(6), atol=1e-12)

    def test_log_softmax_matches_log_of_softmax(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 7))
        npt.assert_allclose(
            ad.log_softmax_rows(Tensor(x)).data,
            np.log(ad.softmax_rows(Tensor(x)).data),
            atol=1e-12,
        )

    def test_gradients(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        v = Tensor(rng.normal(size=4), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        # weight by a fixed vector so the gradient is not trivially zero
        c = Tensor(rng.normal(size=(3, 5)))
        cv = Tensor(rng.normal(size=4))
        check_op(lambda: ad.mul(ad.softmax_rows(x), c), [x])
        check_op(lambda: ad.mul(ad.softmax_rows(v), cv), [v])
        check_op(lambda: ad.mul(ad.log_softmax_rows(w), c), [w])


class TestShapeSurgery:
    def test_concat_values_and_grads(self):
        rng = np.random.default_rng(13)
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        out = ad.concat(a, b)
        assert out.shape == (2, 7)
        w = Tensor(rng.normal(size=(2, 7)))
        check_op(lambda: ad.mul(ad.concat(a, b), w), [a, b])
        va = Tensor(rng.normal(size=3), requires_grad=True)
        vb = Tensor(rng.normal(size=2), requires_grad=True)
        wv = Tensor(rng.normal(size=5))
        check_op(lambda: ad.mul(ad.concat(va, vb), wv), [va, vb])

    def test_concat_mismatch(self):
        with pytest.raises(DimensionError):
            ad.concat(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3))))
        with pytest.raises(DimensionError):
            ad.concat(Tensor(np.zeros(3)), Tensor(np.zeros((1, 3))))

    def test_narrow(self):
        rng = np.random.default_rng(17)
        x = Tensor(rng.normal(size=8), requires_grad=True)
        npt.assert_allclose(ad.narrow(x, 2, 5).data, x.data[2:5])
        w = Tensor(rng.normal(size=3))
        check_op(lambda: ad.mul(ad.narrow(x, 2, 5), w), [x])
        with pytest.raises(DimensionError):
            ad.narrow(x, 5, 9)

    def test_reshape(self):
        rng = np.random.default_rng(19)
        x = Tensor(rng.normal(size=6), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 3)))
        check_op(lambda: ad.mul(ad.reshape(x, (2, 3)), w), [x])
        with pytest.raises(DimensionError):
            ad.reshape(x, (4, 2))

    def test_stack_rows(self):
        rng = np.random.default_rng(23)
        vs = [Tensor(rng.normal(size=4), requires_grad=True) for _ in range(3)]
        out = ad.stack_rows(vs)
        assert out.shape == (3, 4)
        w = Tensor(rng.normal(size=(3, 4)))
        check_op(lambda: ad.mul(ad.stack_rows(vs), w), vs)
        with pytest.raises(UsageError):
            ad.stack_rows([])

    def test_take_rows_duplicates_accumulate(self):
        m = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        with Tape() as tape:
            loss = ad.sum_all(ad.take_rows(m, [1, 1, 3]))
        backward(loss, tape)
        expected = np.zeros((4, 3))
        expected[1] = 2.0
        expected[3] = 1.0
        npt.assert_allclose(m.grad, expected)
        with pytest.raises(IndexError):
            ad.take_rows(m, [4])

    def test_row_and_pick(self):
        m = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        npt.assert_allclose(ad.row(m, 1).data, [3.0, 4.0, 5.0])
        v = Tensor([5.0, 7.0], requires_grad=True)
        with Tape() as tape:
            loss = ad.pick(v, 1)
        backward(loss, tape)
        npt.assert_allclose(v.grad, [0.0, 1.0])
        with pytest.raises(IndexError):
            ad.row(m, 2)
        with pytest.raises(IndexError):
            ad.pick(v, 5)

    def test_gather_rows(self):
        m = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        out = ad.gather_rows(m, [0, 3, 1])
        npt.assert_allclose(out.data, [0.0, 7.0, 9.0])
        with Tape() as tape:
            loss = ad.sum_all(ad.gather_rows(m, [0, 3, 1]))
        backward(loss, tape)
        expected = np.zeros((3, 4))
        expected[0, 0] = expected[1, 3] = expected[2, 1] = 1.0
        npt.assert_allclose(m.grad, expected)
        with pytest.raises(DimensionError):
            ad.gather_rows(m, [0, 1])


class TestReductions:
    def test_sum_and_scale(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        with Tape() as tape:
            loss = ad.scale(ad.sum_all(x), 0.5)
        assert loss.item() == 5.0
        backward(loss, tape)
        npt.assert_allclose(x.grad, np.full((2, 2), 0.5))


class TestBackwardSemantics:
    def test_diamond_graph_accumulates_through_fanout(self):
        # loss = (x*x) summed twice through separate paths: d/dx = 4x
        x = Tensor([3.0], requires_grad=True)
        with Tape() as tape:
            y = ad.mul(x, x)
            loss = ad.sum_all(ad.add(y, y))
        backward(loss, tape)
        npt.assert_allclose(x.grad, [12.0])

    def test_repeated_backward_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        with Tape() as tape:
            loss = ad.sum_all(ad.mul(x, x))
        backward(loss, tape)
        backward(loss, tape)
        npt.assert_allclose(x.grad, [8.0])

    def test_intermediate_requires_grad_captured(self):
        x = Tensor([2.0], requires_grad=True)
        with Tape() as tape:
            mid = ad.mul(x, x)
            mid.requires_grad = True
            loss = ad.sum_all(ad.mul(mid, mid))
        backward(loss, tape)
        npt.assert_allclose(mid.grad, [8.0])   # d loss / d mid = 2*mid = 8
        npt.assert_allclose(x.grad, [32.0])    # chain rule: 8 * 2x

    def test_nested_tapes_restore_outer(self):
        x = Tensor([1.0], requires_grad=True)
        with Tape() as outer:
            ad.mul(x, x)
            with Tape() as inner:
                ad.add(x, x)
            ad.sub(x, x)
        assert len(inner.nodes) == 1
        assert len(outer.nodes) == 2


class TestDropout:
    def test_inference_is_identity(self):
        x = Tensor(np.ones((4, 4)))
        rng = np.random.default_rng(0)
        assert ad.dropout(x, 0.5, training=False, rng=rng) is x
        assert ad.dropout(x, 0.0, training=True, rng=rng) is x

    def test_training_mask_and_scaling(self):
        rng = np.random.default_rng(42)
        x = Tensor(np.ones((500, 40)))
        out = ad.dropout(x, 0.3, training=True, rng=rng).data
        kept = out != 0.0
        npt.assert_allclose(out[kept], 1.0 / 0.7)
        # survival rate concentrates near 0.7 for 20000 samples
        assert abs(kept.mean() - 0.7) < 0.02

    def test_gradient_uses_same_mask(self):
        x = Tensor(np.ones(1000), requires_grad=True)
        with Tape() as tape:
            out = ad.dropout(x, 0.4, training=True, rng=np.random.default_rng(7))
            loss = ad.sum_all(out)
        backward(loss, tape)
        npt.assert_allclose(x.grad, out.data)

    def test_bad_rate(self):
        x = Tensor([1.0])
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            ad.dropout(x, 1.0, training=True, rng=rng)
        with pytest.raises(ConfigError):
            ad.dropout(x, -0.1, training=True, rng=rng)


class TestFiniteChecks:
    def test_nan_raises(self):
        base = Tensor([1.0, float("nan")])
        with pytest.raises(NumericError):
            ad.add(base, base)

    def test_inf_raises(self):
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            ad.mul(Tensor([1e308]), Tensor([1e308]))

    def test_large_finite_values_pass(self):
        # sum overflows to inf but every element is finite; must not raise
        x = Tensor(np.full(4, 1e308))
        out = ad.add(x, Tensor(np.zeros(4)))
        assert np.isfinite(out.data).all()


class TestGradCheck:
    def test_passes_on_smooth_function(self):
        rng = np.random.default_rng(31)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        x = Tensor(rng.normal(size=4))

        def f():
            return ad.sum_all(ad.tanh(ad.add(ad.matmul(w, x), b)))

        report = ad.grad_check(f, [w, b], names=["w", "b"])
        assert report.ok
        assert report.max_error < 1e-6

    def test_detects_wrong_gradient(self):
        x = Tensor([1.5], requires_grad=True)

        def f():
            # abs() has a kink; FD at a smooth point still works, so instead
            # build a broken op whose backward rule is deliberately wrong.
            bad = ad._emit(x.data * 3.0, (x,), lambda g: (g * 2.0,))
            return ad.sum_all(bad)

        report = ad.grad_check(f, [x], names=["x"])
        assert not report.ok
        assert report.failures == ["x"]

    def test_rejects_nondeterministic_function(self):
        rng = np.random.default_rng(1)
        # powers of two: every kept-subset has a distinct sum, so two draws
        # of the dropout mask cannot collide by accident
        x = Tensor(2.0 ** np.arange(10), requires_grad=True)

        def f():
            return ad.sum_all(ad.dropout(x, 0.5, training=True, rng=rng))

        with pytest.raises(InvalidCheckError):
            ad.grad_check(f, [x])

    def test_restores_preexisting_grads(self):
        x = Tensor([2.0], requires_grad=True)
        x.grad = np.array([123.0])

        def f():
            return ad.sum_all(ad.mul(x, x))

        ad.grad_check(f, [x])
        npt.assert_allclose(x.grad, [123.0])
