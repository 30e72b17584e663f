"""Tests for embeddings, the LSTM cell, MLP, and linear projection.

Hand-derived anchors: with all-zero parameters and states the LSTM gates
evaluate to i = f = o = sigmoid(0) = 1/2 and g = tanh(0) = 0, giving
h = c = 0; a forget bias of +10 with other gates at -10 saturates to
c ~= c_prev.  Gradients are validated with the finite-difference checker.
"""

import numpy as np
import numpy.testing as npt
import pytest

import oracles
from nsesimp import autodiff as ad
from nsesimp import layers
from nsesimp.autodiff import Tape, Tensor, backward
from nsesimp.errors import DimensionError


class TestInitUniform:
    def test_range(self):
        t = layers.init_uniform((200, 50), np.random.default_rng(0))
        assert t.data.min() >= layers.INIT_LOW
        assert t.data.max() < layers.INIT_HIGH
        assert t.requires_grad

    def test_mean_near_zero(self):
        t = layers.init_uniform(10**6, np.random.default_rng(1))
        assert abs(t.data.mean()) < 1e-3

    def test_seed_determinism(self):
        a = layers.init_uniform((3, 3), np.random.default_rng(77))
        b = layers.init_uniform((3, 3), np.random.default_rng(77))
        npt.assert_array_equal(a.data, b.data)


class TestEmbedding:
    def test_lookup_rows(self):
        table = layers.EmbeddingTable.create(5, 3, np.random.default_rng(2))
        out = layers.embed(table, [0, 4, 4])
        npt.assert_array_equal(out.data[0], table.E.data[0])
        npt.assert_array_equal(out.data[1], table.E.data[4])
        npt.assert_array_equal(out.data[1], out.data[2])

    def test_out_of_range(self):
        table = layers.EmbeddingTable.create(5, 3, np.random.default_rng(2))
        with pytest.raises(IndexError):
            layers.embed(table, [5])

    def test_repeated_id_gradient_sums(self):
        table = layers.EmbeddingTable.create(4, 2, np.random.default_rng(3))
        with Tape() as tape:
            loss = oracles.sum_all(layers.embed(table, [1, 1, 2]))
        backward(loss, tape)
        g = table.E.grad
        npt.assert_allclose(g[1], [2.0, 2.0])
        npt.assert_allclose(g[2], [1.0, 1.0])
        npt.assert_allclose(g[0], [0.0, 0.0])
        npt.assert_allclose(g[3], [0.0, 0.0])


class TestLstmCell:
    def test_zero_params_zero_output(self):
        p = layers.LstmCellParams.create(3, 2, np.random.default_rng(0), forget_bias=0.0)
        for t in (p.W_x, p.W_h, p.b):
            t.data[:] = 0.0
        h, c = layers.lstm_step(
            p, Tensor(np.ones((1, 3))), Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2)))
        )
        npt.assert_allclose(h.data, 0.0, atol=1e-15)
        npt.assert_allclose(c.data, 0.0, atol=1e-15)

    def test_forget_saturation_holds_memory(self):
        H = 3
        p = layers.LstmCellParams.create(2, H, np.random.default_rng(0), forget_bias=0.0)
        for t in (p.W_x, p.W_h):
            t.data[:] = 0.0
        p.b.data[:] = -10.0
        p.b.data[H : 2 * H] = 10.0
        c_prev = Tensor([[0.5, -0.7, 0.2]])
        h, c = layers.lstm_step(p, Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, H))), c_prev)
        npt.assert_allclose(c.data, c_prev.data, atol=1e-3)

    def test_forget_bias_default(self):
        p = layers.LstmCellParams.create(3, 4, np.random.default_rng(5))
        npt.assert_allclose(p.b.data[4:8], 1.0)
        assert np.all(np.abs(p.b.data[:4]) < 0.1)
        p0 = layers.LstmCellParams.create(3, 4, np.random.default_rng(5), forget_bias=0.0)
        assert np.all(np.abs(p0.b.data) < 0.1)

    def test_h_bounded_and_consistent(self):
        rng = np.random.default_rng(8)
        p = layers.LstmCellParams.create(4, 4, rng)
        h, c = layers.lstm_step(
            p, *(Tensor(rng.normal(size=(1, 4))) for _ in range(3))
        )
        assert np.all(np.abs(h.data) < 1.0)

    def test_dimension_mismatch(self):
        p = layers.LstmCellParams.create(3, 2, np.random.default_rng(0))
        with pytest.raises(DimensionError):
            layers.lstm_step(
                p, Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2)))
            )

    def test_vectors_are_rejected(self):
        p = layers.LstmCellParams.create(3, 2, np.random.default_rng(0))
        with pytest.raises(DimensionError):
            layers.lstm_step(p, Tensor(np.zeros(3)), Tensor(np.zeros(2)), Tensor(np.zeros(2)))

    def test_gradient_check(self):
        rng = np.random.default_rng(21)
        p = layers.LstmCellParams.create(4, 4, rng)
        x = Tensor(rng.normal(size=(1, 4)))
        h0 = Tensor(rng.normal(size=(1, 4)) * 0.5)
        c0 = Tensor(rng.normal(size=(1, 4)) * 0.5)
        weight = Tensor(rng.normal(size=(1, 4)))

        def f():
            h, c = layers.lstm_step(p, x, h0, c0)
            return oracles.sum_all(oracles.mul(ad.concat(h, c), ad.concat(weight, weight)))

        report = oracles.grad_check(f, [p.W_x, p.W_h, p.b], tol=1e-4, names=["W_x", "W_h", "b"])
        assert report.ok, report.failures

    def test_rows_step_each_sequence(self):
        # k rows share one matrix product per weight, whose summation order
        # may differ in the last bit from stepping each row alone
        rng = np.random.default_rng(22)
        p = layers.LstmCellParams.create(37, 29, rng)
        k = 3
        x, h0, c0 = (rng.normal(size=(k, n)) for n in (37, 29, 29))
        h, c = layers.lstm_step(p, Tensor(x), Tensor(h0), Tensor(c0))
        assert h.shape == c.shape == (k, 29)
        for r in range(k):
            one = slice(r, r + 1)
            hr, cr = layers.lstm_step(p, Tensor(x[one]), Tensor(h0[one]), Tensor(c0[one]))
            npt.assert_allclose(h.data[one], hr.data, rtol=1e-12, atol=1e-15)
            npt.assert_allclose(c.data[one], cr.data, rtol=1e-12, atol=1e-15)

    def test_rows_gradient_check(self):
        rng = np.random.default_rng(23)
        p = layers.LstmCellParams.create(3, 4, rng)
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        h0 = Tensor(rng.normal(size=(2, 4)) * 0.5, requires_grad=True)
        c0 = Tensor(rng.normal(size=(2, 4)) * 0.5)
        weight = Tensor(rng.normal(size=(2, 8)))

        def f():
            h, c = layers.lstm_step(p, x, h0, c0)
            return oracles.sum_all(oracles.mul(ad.concat(h, c), weight))

        report = oracles.grad_check(f, [p.W_x, p.W_h, p.b, x, h0], tol=1e-4)
        assert report.ok, report.failures

    def test_rows_dimension_mismatch(self):
        p = layers.LstmCellParams.create(3, 2, np.random.default_rng(0))
        with pytest.raises(DimensionError):  # two inputs, three states
            layers.lstm_step(
                p, Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))), Tensor(np.zeros((3, 2)))
            )
        with pytest.raises(DimensionError):  # a vector input with row states
            layers.lstm_step(
                p, Tensor(np.zeros(3)), Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2)))
            )


class TestFusedCellMatchesUnfused:
    """``lstm_step`` against ``oracles.lstm_cell``, the sixteen-node cell it replaces.

    The forward must agree bit for bit.  So must every gradient, a tolerance
    of zero: the hand-written backward rounds each product and sum as the
    chain of per-op rules does, in the same order, so a training run with
    the fused cell takes the same steps as one with the unfused cell.
    """

    I, H = 5, 4

    def _step(self, step, p, inputs, probe):
        leaves = [p.W_x, p.W_h, p.b, *inputs]
        for t in leaves:
            t.grad = None
        with Tape() as tape:
            h, c = step(p, *inputs)
            loss = oracles.sum_all(oracles.mul(ad.concat(h, c), probe))
        nodes = len(tape.nodes) - 3  # the probe's concat, mul and sum
        backward(loss, tape)
        return h.data, c.data, [t.grad for t in leaves], nodes

    @pytest.mark.parametrize(
        "k, forget_bias", [(1, 1.0), (3, 1.0), (3, 40.0)], ids=["k1", "k3", "k3-saturated"]
    )
    def test_forward_and_gradients_are_bitwise_the_unfused_cells(self, k, forget_bias):
        # a forget bias of 40 puts sigmoid(f) at 1.0 exactly, where its slope
        # rounds to zero in both cells
        rng = np.random.default_rng(24 + k)
        p = layers.LstmCellParams.create(self.I, self.H, rng, forget_bias)
        inputs = [
            Tensor(rng.normal(size=(k, n)), requires_grad=True) for n in (self.I, self.H, self.H)
        ]
        probe = Tensor(rng.normal(size=(k, 2 * self.H)))
        h, c, grads, nodes = self._step(layers.lstm_step, p, inputs, probe)
        want_h, want_c, want_grads, oracle_nodes = self._step(oracles.lstm_cell, p, inputs, probe)
        npt.assert_array_equal(h, want_h)
        npt.assert_array_equal(c, want_c)
        for got, want in zip(grads, want_grads):
            npt.assert_array_equal(got, want)
        # input projection, cell and the two state slices, against the
        # projection and sixteen nodes of the unfused cell
        assert (nodes, oracle_nodes) == (4, 17)


class TestMlp:
    def test_zero_weights_give_bias(self):
        p = layers.MlpParams.create(3, 2, 4, np.random.default_rng(0))
        p.W1.data[:] = 0.0
        p.W2.data[:] = 0.0
        out = layers.mlp(p, Tensor(np.ones((1, 3))))
        npt.assert_array_equal(out.data[0], p.b2.data)

    def test_identity_path(self):
        p = layers.MlpParams.create(2, 2, 2, np.random.default_rng(0))
        p.W1.data = np.eye(2)
        p.W2.data = np.eye(2)
        p.b1.data[:] = 0.0
        p.b2.data[:] = 0.0
        out = layers.mlp(p, Tensor(np.zeros((1, 2))))
        npt.assert_allclose(out.data, 0.0, atol=1e-15)

    def test_gradient_check(self):
        rng = np.random.default_rng(33)
        p = layers.MlpParams.create(4, 4, 4, rng)
        x = Tensor(rng.normal(size=(2, 4)))
        w = Tensor(rng.normal(size=(2, 4)))

        def f():
            return oracles.sum_all(oracles.mul(layers.mlp(p, x), w))

        report = oracles.grad_check(f, [p.W1, p.b1, p.W2, p.b2], tol=1e-6)
        assert report.ok, report.failures


class TestLinear:
    def test_identity(self):
        x = Tensor([[1.0, -2.0]])
        out = layers.linear(Tensor(np.eye(2)), Tensor(np.zeros(2)), x)
        npt.assert_array_equal(out.data, x.data)

    def test_zero_weight_gives_bias(self):
        b = Tensor([3.0, 4.0])
        out = layers.linear(Tensor(np.zeros((2, 3))), b, Tensor(np.ones((1, 3))))
        npt.assert_array_equal(out.data[0], b.data)

    def test_gradient_check(self):
        rng = np.random.default_rng(44)
        W = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        x = Tensor(rng.normal(size=(1, 4)))
        c = Tensor(rng.normal(size=(1, 3)))

        def f():
            return oracles.sum_all(oracles.mul(layers.linear(W, b, x), c))

        report = oracles.grad_check(f, [W, b], tol=1e-6)
        assert report.ok, report.failures


class TestPurity:
    def test_lstm_step_bit_identical(self):
        rng = np.random.default_rng(55)
        p = layers.LstmCellParams.create(3, 3, rng)
        args = tuple(Tensor(rng.normal(size=(1, 3))) for _ in range(3))
        h1, c1 = layers.lstm_step(p, *args)
        h2, c2 = layers.lstm_step(p, *args)
        npt.assert_array_equal(h1.data, h2.data)
        npt.assert_array_equal(c1.data, c2.data)
