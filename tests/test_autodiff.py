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
        # matrices only: one sequence is a [1, n] row, never a vector
        rng = np.random.default_rng(7)
        m = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        n = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        check_op(lambda: ad.matmul(m, n), [m, n])
        v, u = Tensor(rng.normal(size=4)), Tensor(rng.normal(size=3))
        for a, b in ((m, v), (u, m), (v, v)):
            with pytest.raises(DimensionError):
                ad.matmul(a, b)

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

    def test_without_bias_is_the_plain_product(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        W = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        npt.assert_array_equal(ad.affine_rows(x, W).data, x.data @ W.data.T)
        probe = Tensor(rng.uniform(0.5, 1.5, size=(3, 5)))
        check_op(lambda: ad.mul(ad.affine_rows(x, W), probe), [x, W])

    def test_one_row_is_bitwise_the_matrix_vector_product(self):
        # one sequence steps as a [1, I] row, so its forward values and its
        # input gradient are those of the matrix-vector products W x, Wᵀ g
        rng = np.random.default_rng(11)
        for O, I in ((16, 7), (24, 10), (300, 150)):
            x = Tensor(rng.normal(size=(1, I)), requires_grad=True)
            W = rng.normal(size=(O, I))
            b = rng.normal(size=O)
            g = rng.normal(size=(1, O))
            with Tape() as tape:
                row = ad.affine_rows(x, Tensor(W), Tensor(b))
                loss = ad.sum_all(ad.mul(row, Tensor(g)))
            backward(loss, tape)
            npt.assert_array_equal(row.data[0], W @ x.data[0] + b)
            npt.assert_array_equal(x.grad[0], W.T @ g[0])

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


def _close(got, want, rtol=1e-12):
    """Within rtol of want's largest entry; an all-zero want must be met exactly."""
    return np.abs(got - want).max() <= rtol * np.abs(want).max()


def _grads_returned_for(tape, t):
    """Collect, as backward runs, every gradient a node's rule returns for ``t``."""
    returned = []
    for node in tape.nodes:
        if any(i is t for i in node.inputs):

            def rule(g, fn=node.backward_fn, inputs=node.inputs):
                grads = fn(g)
                returned.extend(gi for i, gi in zip(inputs, grads) if i is t)
                return grads

            node.backward_fn = rule
    return returned


class TestDeferredWeightGradient:
    """A trainable weight's per-step (g, x) row blocks, summed by backward()."""

    @staticmethod
    def _recurrence(W, U, xs):
        # h_t = tanh(W x_t + U h_{t-1}) over [1, n] rows; every product's
        # output is marked requires_grad so that backward leaves its
        # upstream gradient there
        h = Tensor(np.zeros((1, U.shape[0])))
        uses = []
        for x in xs:
            wx, uh = ad.affine_rows(x, W), ad.affine_rows(h, U)
            wx.requires_grad = uh.requires_grad = True
            uses += [(W, wx, x), (U, uh, h)]
            h = ad.tanh(ad.add(wx, uh))
        return ad.sum_all(ad.mul(h, h)), uses

    @pytest.mark.parametrize("T", [1, 12])
    def test_equals_the_per_use_outer_sum(self, T):
        rng = np.random.default_rng(50 + T)
        W = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        U = Tensor(rng.normal(size=(6, 6)) * 0.5, requires_grad=True)
        xs = [Tensor(rng.normal(size=(1, 4))) for _ in range(T)]
        with Tape() as tape:
            loss, uses = self._recurrence(W, U, xs)
        backward(loss, tape)
        for leaf in (W, U):
            want = sum(np.outer(out.grad, x.data) for w, out, x in uses if w is leaf)
            assert _close(leaf.grad, want)

    def test_one_row_and_many_row_uses_of_one_weight(self):
        rng = np.random.default_rng(52)
        W = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        x = Tensor(rng.normal(size=(1, 3)))
        X = Tensor(rng.normal(size=(4, 3)))
        with Tape() as tape:
            one, rows = ad.affine_rows(x, W), ad.affine_rows(X, W)
            one.requires_grad = rows.requires_grad = True
            loss = ad.add(ad.sum_all(ad.tanh(one)), ad.sum_all(ad.mul(rows, rows)))
        backward(loss, tape)
        want = np.outer(one.grad, x.data) + rows.grad.T @ X.data
        assert _close(W.grad, want)

    def test_repeated_backward_sums_bitwise_like_separate_gradients(self):
        rng = np.random.default_rng(53)
        W = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        U = Tensor(rng.normal(size=(6, 6)) * 0.5, requires_grad=True)
        X = Tensor(rng.normal(size=(2, 4)))  # a two-row use of W beside its one-row uses
        runs = [[Tensor(rng.normal(size=(1, 4))) for _ in range(5)] for _ in range(2)]

        def loss(xs):
            out, _ = self._recurrence(W, U, xs)
            return ad.add(out, ad.sum_all(ad.tanh(ad.affine_rows(X, W))))

        separate = []
        for xs in runs:
            W.grad = U.grad = None
            with Tape() as tape:
                out = loss(xs)
            backward(out, tape)
            separate.append((W.grad.copy(), U.grad.copy()))
        W.grad = U.grad = None
        for xs in runs:
            with Tape() as tape:
                out = loss(xs)
            backward(out, tape)
        for t, first, second in zip((W, U), *separate):
            assert np.array_equal(t.grad, first + second)

    def _non_leaf_products(self, mark):
        rng = np.random.default_rng(54)
        W = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        xs = [Tensor(rng.normal(size=(1, 3))) for _ in range(4)]
        with Tape() as tape:
            M = ad.scale(W, 2.0)  # a matrix made by an op, not a leaf
            M.requires_grad = mark
            outs = [ad.affine_rows(x, M) for x in xs]
            for o in outs:
                o.requires_grad = True
            loss = ad.sum_all(ad.tanh(ad.stack_rows(outs)))
        returned = _grads_returned_for(tape, M)
        backward(loss, tape)
        want = sum(np.outer(o.grad, x.data) for o, x in zip(outs, xs))
        return W, M, want, returned

    def test_non_leaf_matrix_keeps_its_dense_outer_products(self):
        W, M, want, returned = self._non_leaf_products(mark=False)
        assert [type(g) for g in returned] == [np.ndarray] * 4  # one per use
        assert M.grad is None
        assert _close(W.grad, 2.0 * want)

    def test_marked_intermediate_matrix_passes_its_gradient_on(self):
        W, M, want, _ = self._non_leaf_products(mark=True)
        assert _close(M.grad, want)
        assert _close(W.grad, 2.0 * want)

    def test_lstm_encoder_forms_each_weight_gradient_with_one_product(self, monkeypatch):
        from nsesimp.encoders import LstmEncoderParams, lstm_encode

        H, T = 3, 20
        p = LstmEncoderParams.create(H, np.random.default_rng(55))
        emb = Tensor(np.random.default_rng(56).normal(size=(T, H)))
        weights = [p.layer1.W_x, p.layer1.W_h, p.layer2.W_x, p.layer2.W_h]
        resolve, accumulate = ad._resolve, ad._accumulate
        steps_behind, accumulated = {}, {}

        def counting_resolve(parts, dense, shape):
            total = resolve(parts, dense, shape)
            steps_behind[id(total)] = len(parts)
            return total

        def counting_accumulate(t, g, owned=False):
            accumulated.setdefault(id(t), []).append(g)
            accumulate(t, g, owned)

        monkeypatch.setattr(ad, "_resolve", counting_resolve)
        monkeypatch.setattr(ad, "_accumulate", counting_accumulate)
        with Tape() as tape:
            loss = ad.sum_all(lstm_encode(p, emb).states)
        returned = [_grads_returned_for(tape, W) for W in weights]
        backward(loss, tape)
        # no backward rule forms a dense [4H, H] product for a weight: each
        # hoisted input weight gets one T-row block, each recurrent weight
        # one row block per step, and each is summed with one product
        for parts, uses in zip(returned, (1, T, 1, T)):
            assert len(parts) == uses
            assert all(type(g) is ad._Outer for g in parts)
            assert sum(g.g.shape[0] for g in parts) == T
        for W, parts in zip(weights, returned):
            [g] = accumulated[id(W)]
            assert steps_behind[id(g)] == len(parts)


class TestTableRowGradient:
    """Rows gathered from a trainable table are scattered into its grad."""

    IDS = ([2, 5, 2, 0], [5, 5, 1])

    def _gathers(self, E, probes):
        uses = [ad.take_rows(E, ids) for ids in self.IDS]
        for u in uses:
            u.requires_grad = True
        parts = [ad.sum_all(ad.tanh(ad.mul(u, p))) for u, p in zip(uses, probes)]
        return ad.add(*parts), uses

    def test_equals_the_dense_scatter(self):
        rng = np.random.default_rng(57)
        E = Tensor(rng.normal(size=(7, 3)), requires_grad=True)
        probes = [Tensor(rng.normal(size=(len(ids), 3))) for ids in self.IDS]
        with Tape() as tape:
            loss, uses = self._gathers(E, probes)
        backward(loss, tape)
        want = np.zeros((7, 3))
        for ids, u in zip(self.IDS, uses):
            np.add.at(want, ids, u.grad)
        assert _close(E.grad, want)
        assert not E.grad[[3, 4, 6]].any()

    def test_repeated_backward_sums_bitwise_like_separate_gradients(self):
        rng = np.random.default_rng(58)
        E = Tensor(rng.normal(size=(7, 3)), requires_grad=True)
        runs = [[Tensor(rng.normal(size=(len(ids), 3))) for ids in self.IDS] for _ in range(2)]
        separate = []
        for probes in runs:
            E.grad = None
            with Tape() as tape:
                loss, _ = self._gathers(E, probes)
            backward(loss, tape)
            separate.append(E.grad.copy())
        E.grad = None
        for probes in runs:
            with Tape() as tape:
                loss, _ = self._gathers(E, probes)
            backward(loss, tape)
        assert np.array_equal(E.grad, separate[0] + separate[1])

    def test_table_made_by_an_op_passes_its_gradient_on(self):
        rng = np.random.default_rng(60)
        E = Tensor(rng.normal(size=(7, 3)), requires_grad=True)
        probes = [Tensor(rng.normal(size=(len(ids), 3))) for ids in self.IDS]
        with Tape() as tape:
            loss, uses = self._gathers(ad.scale(E, 2.0), probes)
        backward(loss, tape)
        want = np.zeros((7, 3))
        for ids, u in zip(self.IDS, uses):
            np.add.at(want, ids, u.grad)
        assert _close(E.grad, 2.0 * want)

    def test_table_also_used_as_a_matrix(self):
        # gathered rows, a one-row gather and a product with a row, of one table
        rng = np.random.default_rng(59)
        E = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        x = Tensor(rng.normal(size=(1, 3)))
        gathered = lambda: ad.tanh(ad.reshape(ad.take_rows(E, [4, 1, 4]), (1, 9)))
        one = lambda: ad.tanh(ad.take_rows(E, [1]))
        check_op(lambda: ad.concat(ad.concat(ad.affine_rows(x, E), gathered()), one()), [E])


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
        out = ad.softmax_rows(Tensor([[0.0, math.log(3.0)]]))
        npt.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-15)

    def test_softmax_large_inputs(self):
        out = ad.softmax_rows(Tensor([[1000.0, 1000.0]]))
        npt.assert_allclose(out.data, [[0.5, 0.5]])

    def test_vectors_are_rejected(self):
        for op in (ad.softmax_rows, ad.log_softmax_rows):
            with pytest.raises(DimensionError):
                op(Tensor([0.0, 1.0]))

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
        v = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        # weight by a fixed matrix so the gradient is not trivially zero
        c = Tensor(rng.normal(size=(3, 5)))
        cv = Tensor(rng.normal(size=(1, 4)))
        check_op(lambda: ad.mul(ad.softmax_rows(x), c), [x])
        check_op(lambda: ad.mul(ad.softmax_rows(v), cv), [v])
        check_op(lambda: ad.mul(ad.log_softmax_rows(w), c), [w])

    def test_masked_softmax_matches_softmax_of_the_kept_entries(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(3, 6)) * 5
        mask = np.array(
            [[1, 1, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [1, 1, 1, 1, 1, 1]], dtype=bool
        )
        p = ad.softmax_rows(Tensor(x), mask).data
        for r in range(3):
            kept = ad.softmax_rows(Tensor(x[r : r + 1, mask[r]])).data[0]
            npt.assert_allclose(p[r, mask[r]], kept, rtol=1e-15, atol=0)
        assert np.all(p[~mask] == 0.0)
        npt.assert_array_equal(p[2:], ad.softmax_rows(Tensor(x[2:])).data)

    def test_masked_softmax_gives_masked_entries_exact_zero_gradient(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        mask = np.array([[1, 0, 1, 1, 0], [0, 1, 0, 0, 0]], dtype=bool)
        c = Tensor(rng.normal(size=(2, 5)))
        check_op(lambda: ad.mul(ad.softmax_rows(x, mask), c), [x])
        assert np.all(x.grad[~mask] == 0.0)
        # a one-entry row is the constant 1: no gradient at all
        assert np.all(x.grad[1] == 0.0)

    def test_masked_softmax_rejects_bad_masks(self):
        x = Tensor(np.zeros((2, 3)))
        with pytest.raises(UsageError):
            ad.softmax_rows(x, np.array([[1, 0, 0], [0, 0, 0]], dtype=bool))
        with pytest.raises(DimensionError):
            ad.softmax_rows(x, np.ones((2, 2), dtype=bool))

    def test_log_softmax_gradient_is_bitwise_the_eager_formula(self):
        # the probabilities are now formed inside the backward rule; they
        # used to be kept from the forward pass
        rng = np.random.default_rng(10)
        for shape in ((3, 7), (1, 6)):
            x = Tensor(rng.normal(size=shape) * 4, requires_grad=True)
            g = rng.normal(size=shape)
            with Tape() as tape:
                out = ad.log_softmax_rows(x)
                loss = ad.sum_all(ad.mul(out, Tensor(g)))
            backward(loss, tape)
            z = x.data - x.data.max(axis=1, keepdims=True)
            out2 = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
            p = np.exp(out2)
            npt.assert_array_equal(out.data, out2)
            npt.assert_array_equal(x.grad, g - p * g.sum(axis=1, keepdims=True))


class TestShapeSurgery:
    def test_concat_values_and_grads(self):
        rng = np.random.default_rng(13)
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        out = ad.concat(a, b)
        assert out.shape == (2, 7)
        w = Tensor(rng.normal(size=(2, 7)))
        check_op(lambda: ad.mul(ad.concat(a, b), w), [a, b])
        va = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
        vb = Tensor(rng.normal(size=(1, 2)), requires_grad=True)
        wv = Tensor(rng.normal(size=(1, 5)))
        check_op(lambda: ad.mul(ad.concat(va, vb), wv), [va, vb])

    def test_concat_mismatch(self):
        with pytest.raises(DimensionError):
            ad.concat(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3))))
        with pytest.raises(DimensionError):
            ad.concat(Tensor(np.zeros(3)), Tensor(np.zeros((1, 3))))
        with pytest.raises(DimensionError):
            ad.concat(Tensor(np.zeros(3)), Tensor(np.zeros(2)))

    def test_narrow(self):
        rng = np.random.default_rng(17)
        x = Tensor(rng.normal(size=(1, 8)), requires_grad=True)
        npt.assert_allclose(ad.narrow(x, 2, 5).data, x.data[:, 2:5])
        w = Tensor(rng.normal(size=(1, 3)))
        check_op(lambda: ad.mul(ad.narrow(x, 2, 5), w), [x])
        with pytest.raises(DimensionError):
            ad.narrow(x, 5, 9)
        with pytest.raises(DimensionError):
            ad.narrow(Tensor(np.zeros(8)), 2, 5)

    def test_narrow_matrix_takes_the_same_columns_of_every_row(self):
        rng = np.random.default_rng(18)
        x = Tensor(rng.normal(size=(3, 8)), requires_grad=True)
        npt.assert_array_equal(ad.narrow(x, 2, 5).data, x.data[:, 2:5])
        w = Tensor(rng.normal(size=(3, 3)))
        check_op(lambda: ad.mul(ad.narrow(x, 2, 5), w), [x])
        with pytest.raises(DimensionError):
            ad.narrow(x, 5, 9)
        with pytest.raises(DimensionError):
            ad.narrow(Tensor(np.zeros((2, 2, 2))), 0, 1)

    def test_reshape(self):
        rng = np.random.default_rng(19)
        x = Tensor(rng.normal(size=6), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 3)))
        check_op(lambda: ad.mul(ad.reshape(x, (2, 3)), w), [x])
        with pytest.raises(DimensionError):
            ad.reshape(x, (4, 2))

    def test_stack_rows(self):
        rng = np.random.default_rng(23)
        vs = [Tensor(rng.normal(size=(1, 4)), requires_grad=True) for _ in range(3)]
        out = ad.stack_rows(vs)
        assert out.shape == (3, 4)
        w = Tensor(rng.normal(size=(3, 4)))
        check_op(lambda: ad.mul(ad.stack_rows(vs), w), vs)
        with pytest.raises(UsageError):
            ad.stack_rows([])
        for bad in ([Tensor(np.zeros(4))], [vs[0], Tensor(np.zeros((2, 4)))]):
            with pytest.raises(DimensionError):
                ad.stack_rows(bad)

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


class TestSequenceOps:
    """seq_scores / seq_mix: each query row meets only its own sequence."""

    def loops(self, q, a, m, B):
        # the definitions, one query row at a time
        S = m.shape[0] // B
        own = [m[np.arange(S) * B + j % B] for j in range(q.shape[0])]
        scores = np.array([o @ qj for o, qj in zip(own, q)])
        mixes = np.array([aj @ o for o, aj in zip(own, a)])
        return scores, mixes

    @pytest.mark.parametrize("B,r", [(1, 1), (1, 4), (3, 1), (3, 2)])
    def test_values_match_the_per_row_loops(self, B, r):
        rng = np.random.default_rng(43)
        S, D = 5, 4
        q, a, m = rng.normal(size=(r * B, D)), rng.random((r * B, S)), rng.normal(size=(S * B, D))
        scores, mixes = self.loops(q, a, m, B)
        npt.assert_allclose(ad.seq_scores(Tensor(q), Tensor(m), B).data, scores, rtol=1e-14)
        npt.assert_allclose(ad.seq_mix(Tensor(a), Tensor(m), B).data, mixes, rtol=1e-14)

    def test_one_sequence_is_bitwise_the_plain_products(self):
        rng = np.random.default_rng(44)
        q, a, m = rng.normal(size=(3, 4)), rng.random((3, 6)), rng.normal(size=(6, 4))
        g_s, g_m = rng.normal(size=(3, 6)), rng.normal(size=(3, 4))
        qt, at, mt = (Tensor(x, requires_grad=True) for x in (q, a, m))
        with Tape() as tape:
            scores = ad.seq_scores(qt, mt, 1)
            mix = ad.seq_mix(at, mt, 1)
            loss = ad.add(ad.sum_all(ad.mul(scores, Tensor(g_s))), ad.sum_all(ad.mul(mix, Tensor(g_m))))
        backward(loss, tape)
        npt.assert_array_equal(scores.data, q @ m.T)
        npt.assert_array_equal(mix.data, a @ m)
        npt.assert_array_equal(qt.grad, g_s @ m)
        npt.assert_array_equal(at.grad, g_m @ m.T)
        npt.assert_array_equal(mt.grad, g_s.T @ q + a.T @ g_m)

    @pytest.mark.parametrize("B,r", [(1, 2), (2, 1), (2, 3)])
    def test_gradients(self, B, r):
        rng = np.random.default_rng(45)
        S, D = 3, 4
        q = Tensor(rng.normal(size=(r * B, D)), requires_grad=True)
        a = Tensor(rng.random((r * B, S)), requires_grad=True)
        m = Tensor(rng.normal(size=(S * B, D)), requires_grad=True)
        cs, cm = Tensor(rng.normal(size=(r * B, S))), Tensor(rng.normal(size=(r * B, D)))
        check_op(lambda: ad.mul(ad.seq_scores(q, m, B), cs), [q, m])
        check_op(lambda: ad.mul(ad.seq_mix(a, m, B), cm), [a, m])

    def test_dimension_errors(self):
        m = Tensor(np.zeros((6, 4)))
        for op, x, B in (
            (ad.seq_scores, np.zeros((2, 3)), 2),  # width is not D
            (ad.seq_scores, np.zeros((3, 4)), 2),  # rows not a multiple of B
            (ad.seq_scores, np.zeros((4, 4)), 4),  # memory rows not a multiple of B
            (ad.seq_scores, np.zeros((2, 4)), 0),
            (ad.seq_scores, np.zeros(4), 1),
            (ad.seq_mix, np.zeros((2, 6)), 2),  # width is not S = 3
            (ad.seq_mix, np.zeros(6), 1),
        ):
            with pytest.raises(DimensionError):
                op(Tensor(x), m, B)


class TestBlendRows:
    def test_values_by_hand(self):
        # B = 2 sequences, S = 2 steps: rows 0 and 2 are sequence 0's
        m = np.arange(8.0).reshape(4, 2)
        w = np.array([[10.0, 10.0], [-1.0, -1.0]])
        s = np.array([[0.5, 0.25], [1.0, 0.0]])
        out = ad.blend_rows(Tensor(m), Tensor(s), Tensor(w)).data
        want = [
            m[0] + 0.5 * (w[0] - m[0]),
            w[1],  # weight 1 replaces the row
            m[2] + 0.25 * (w[0] - m[2]),
            m[3],  # weight 0 keeps it
        ]
        npt.assert_allclose(out, want, rtol=1e-15, atol=0)
        npt.assert_array_equal(out[3], m[3])

    def test_one_sequence_is_the_unfused_formula(self):
        rng = np.random.default_rng(41)
        m, s, w = rng.normal(size=(5, 3)), rng.random((1, 5)), rng.normal(size=(1, 3))
        out = ad.blend_rows(Tensor(m), Tensor(s), Tensor(w)).data
        npt.assert_array_equal(out, m + s.reshape(5, 1) * (w[0] - m))

    def test_gradients(self):
        rng = np.random.default_rng(42)
        m = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        s = Tensor(rng.random((2, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        c = Tensor(rng.normal(size=(6, 3)))
        check_op(lambda: ad.mul(ad.blend_rows(m, s, w), c), [m, s, w])

    def test_dimension_errors(self):
        m, w = Tensor(np.zeros((6, 3))), Tensor(np.zeros((2, 3)))
        for bad in (
            (m, Tensor(np.zeros((2, 5))), w),
            (m, Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4)))),
            (m, Tensor(np.zeros((4, 3))), Tensor(np.zeros((4, 3)))),
            (m, Tensor(np.zeros(6)), Tensor(np.zeros(3))),
        ):
            with pytest.raises(DimensionError):
                ad.blend_rows(*bad)


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

    @pytest.mark.filterwarnings("error")
    def test_guard_neither_warns_on_an_overflowing_sum_nor_misses_one_bad_element(self):
        x = np.full((3, 4), 1e308)
        assert np.isfinite(ad.scale(Tensor(x), 1.0).data).all()
        for bad in (np.nan, np.inf, -np.inf):
            y = x.copy()
            y[1, 2] = bad
            with pytest.raises(NumericError):
                ad.scale(Tensor(y), 1.0)


class TestGradCheck:
    def test_passes_on_smooth_function(self):
        rng = np.random.default_rng(31)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        x = Tensor(rng.normal(size=(1, 4)))

        def f():
            return ad.sum_all(ad.tanh(ad.affine_rows(x, w, b)))

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
