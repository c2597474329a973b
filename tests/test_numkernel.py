"""Tape autodiff: forward values, gradients vs central differences, policing."""

import io
import math

import numpy as np
import pytest

from backrank import numkernel as nk
from backrank import (ContractError, DomainError, ShapeError, SplitMix64,
                      Tape, Tensor, backward, cosine_similarity,
                      finite_diff_check)

TOL = 1e-9


def grad_of(build, *leaves):
    """Run one tape over build(), return the leaves' gradients."""
    with Tape() as tape:
        loss = build()
    backward(tape, loss)
    return [t.grad for t in leaves]


# ---------------------------------------------------------------------------
# forward values


def test_elementwise_forward_values():
    a = Tensor(np.array([1.0, -2.0, 3.0]))
    b = Tensor(np.array([0.5, 0.5, 0.5]))
    assert np.allclose(nk.add(a, b).data, [1.5, -1.5, 3.5])
    assert np.allclose(nk.mul(a, b).data, [0.5, -1.0, 1.5])
    assert np.allclose(nk.neg(a).data, [-1.0, 2.0, -3.0])
    assert np.allclose(nk.scale(a, 2.0).data, [2.0, -4.0, 6.0])
    assert np.allclose(nk.add(a, Tensor(1.0)).data, [2.0, -1.0, 4.0])


def test_matmul_and_dot_against_numpy():
    rng = SplitMix64(1)
    a = Tensor(rng.normal_array((4, 5)))
    b = Tensor(rng.normal_array((5, 3)))
    assert np.allclose(nk.matmul(a, b).data, a.data @ b.data)
    u = Tensor(rng.normal_array((6,)))
    v = Tensor(rng.normal_array((6,)))
    assert nk.dot(u, v).item() == pytest.approx(float(u.data @ v.data), abs=1e-12)


def test_softmax_rows_sum_to_one_and_shift_invariance():
    x = Tensor(np.array([[1.0, 2.0, 3.0], [1000.0, 1000.0, 1000.0]]))
    s = nk.softmax(x, axis=-1)
    assert np.allclose(s.data.sum(axis=-1), 1.0)
    shifted = nk.softmax(nk.add(x, Tensor(123.0)), axis=-1)
    assert np.allclose(s.data, shifted.data)


def test_log_softmax_matches_log_of_softmax():
    x = Tensor(np.array([0.3, -1.2, 2.2, 0.0]))
    assert np.allclose(nk.log_softmax(x).data, np.log(nk.softmax(x).data))


def test_stack_take_rows_transpose_reshape():
    st = Tensor(np.array([[float(i), float(i + 1)] for i in range(3)]))
    assert st.shape == (3, 2)
    taken = nk.take_rows(st, [2, 0])
    assert np.allclose(taken.data, [[2.0, 3.0], [0.0, 1.0]])
    grid = nk.take_rows(st, [[2, 0], [1, 1]])     # index of any shape
    assert grid.shape == (2, 2, 2)
    assert np.array_equal(grid.data[1, 0], st.data[1])
    tr = nk.transpose(st, (1, 0))
    assert tr.shape == (2, 3)
    assert nk.reshape(st, (6,)).shape == (6,)


def test_reductions():
    x = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
    assert nk.tensor_sum(x).item() == 15.0
    assert np.allclose(nk.tensor_sum(x, axis=0).data, [3.0, 5.0, 7.0])


# ---------------------------------------------------------------------------
# gradients


def test_add_mul_chain_gradient():
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
    ga, gb = grad_of(lambda: nk.tensor_sum(nk.mul(nk.add(a, b), a)), a, b)
    # d/da sum((a+b)*a) = 2a + b ; d/db = a
    assert np.allclose(ga, 2 * a.data + b.data)
    assert np.allclose(gb, a.data)


def test_broadcast_add_gradient_unbroadcasts():
    a = Tensor(np.ones((3, 4)), requires_grad=True)
    bias = Tensor(np.zeros((4,)), requires_grad=True)
    _, gb = grad_of(lambda: nk.tensor_sum(nk.add(a, bias)), a, bias)
    assert gb.shape == (4,)
    assert np.allclose(gb, 3.0)


def test_matmul_gradient_shapes_and_values():
    rng = SplitMix64(5)
    a = Tensor(rng.normal_array((3, 4)), requires_grad=True)
    b = Tensor(rng.normal_array((4, 2)), requires_grad=True)
    w = Tensor(rng.normal_array((3, 2)))
    ga, gb = grad_of(lambda: nk.tensor_sum(nk.mul(nk.matmul(a, b), w)), a, b)
    assert np.allclose(ga, w.data @ b.data.T)
    assert np.allclose(gb, a.data.T @ w.data)


@pytest.mark.parametrize("a_shape,b_shape", [
    ((2, 3, 4), (4, 2)),            # batch x matrix
    ((3, 4), (2, 4, 2)),            # matrix x batch
    ((2, 1, 3, 4), (5, 4, 2)),      # both sides broadcast
])
def test_matmul_broadcasts_leading_axes(a_shape, b_shape):
    rng = SplitMix64(8)
    a = Tensor(rng.normal_array(a_shape))
    b = Tensor(rng.normal_array(b_shape))
    assert np.allclose(nk.matmul(a, b).data, a.data @ b.data, atol=1e-14, rtol=0)
    w = Tensor(rng.normal_array((a.data @ b.data).shape))
    assert finite_diff_check(lambda t: nk.tensor_sum(nk.mul(nk.matmul(t, b), w)), a) < 1e-8
    assert finite_diff_check(lambda t: nk.tensor_sum(nk.mul(nk.matmul(a, t), w)), b) < 1e-8


def test_fanout_accumulates():
    x = Tensor(np.array([2.0]), requires_grad=True)
    (gx,) = grad_of(lambda: nk.tensor_sum(nk.add(nk.mul(x, x), x)), x)
    assert np.allclose(gx, 2 * x.data + 1.0)   # x*x + x -> 2x + 1


@pytest.mark.parametrize("fn,deriv", [
    (nk.tanh, lambda x: 1 - np.tanh(x) ** 2),
    (nk.sigmoid, lambda x: (1 / (1 + np.exp(-x))) * (1 - 1 / (1 + np.exp(-x)))),
])
def test_unary_gradients(fn, deriv):
    x = Tensor(np.array([-1.5, 0.0, 0.7]), requires_grad=True)
    (gx,) = grad_of(lambda: nk.tensor_sum(fn(x)), x)
    assert np.allclose(gx, deriv(x.data), atol=TOL)


def test_finite_diff_random_composites():
    # composed graph with every structural op in the path
    rng = SplitMix64(17)
    w = Tensor(rng.normal_array((6, 4)))
    v = Tensor(rng.normal_array((8,)))

    def f(x):
        h = nk.tanh(nk.matmul(nk.reshape(x, (3, 6)), w))     # 3 x 4
        s = nk.softmax(h, axis=-1)
        pooled = nk.scale(nk.tensor_sum(nk.transpose(s, (1, 0)), axis=1), 1.0 / 3)
        return nk.add(nk.dot(pooled, Tensor(v.data[:4])),
                      nk.dot(nk.sigmoid(pooled), Tensor(v.data[4:])))

    for seed in range(5):
        x = Tensor(SplitMix64(seed).normal_array((18,)))
        assert finite_diff_check(f, x) < 1e-6


def test_take_rows_gradient_scatters_with_repeats():
    t = Tensor(np.eye(3), requires_grad=True)
    (gt,) = grad_of(lambda: nk.tensor_sum(nk.take_rows(t, [0, 0, 2])), t)
    assert np.allclose(gt, np.array([[2.0] * 3, [0.0] * 3, [1.0] * 3]))
    t.grad = None
    (gt,) = grad_of(lambda: nk.tensor_sum(nk.take_rows(t, [[0, 2], [0, 0]])), t)
    assert np.allclose(gt, np.array([[3.0] * 3, [0.0] * 3, [1.0] * 3]))


# ---------------------------------------------------------------------------
# tape discipline


def test_backward_requires_scalar_loss():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        y = nk.scale(x, 2.0)
    with pytest.raises(ContractError):
        backward(tape, y)


def test_tape_single_use():
    x = Tensor(np.ones(2), requires_grad=True)
    with Tape() as tape:
        loss = nk.tensor_sum(x)
    backward(tape, loss)
    with pytest.raises(ContractError):
        backward(tape, loss)


def test_backward_rejects_foreign_loss():
    x = Tensor(np.ones(2), requires_grad=True)
    with Tape() as tape:
        nk.tensor_sum(x)
    foreign = Tensor(np.float64(1.0))
    with pytest.raises(ContractError):
        backward(tape, foreign)


def test_stale_grad_detected():
    x = Tensor(np.ones(2), requires_grad=True)
    with Tape() as tape:
        loss = nk.tensor_sum(x)
    backward(tape, loss)
    assert x.grad is not None
    with Tape() as tape2:
        loss2 = nk.tensor_sum(nk.scale(x, 3.0))
    with pytest.raises(ContractError):
        backward(tape2, loss2)   # grads were not reset
    nk.reset_grads([x])


def test_no_tape_means_no_graph():
    x = Tensor(np.ones(2), requires_grad=True)
    y = nk.tensor_sum(x)     # outside any tape: plain eager value
    assert y.item() == 2.0
    assert x.grad is None


def test_shape_errors():
    with pytest.raises((ShapeError, DomainError)):
        nk.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises((ShapeError, DomainError)):
        nk.dot(Tensor(np.ones(3)), Tensor(np.ones(4)))


# ---------------------------------------------------------------------------
# utilities


def test_cosine_similarity_basics():
    assert cosine_similarity(np.array([1.0, 0.0]), np.array([2.0, 0.0])) == 1.0
    assert cosine_similarity(np.array([1.0, 0.0]), np.array([-3.0, 0.0])) == -1.0
    assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 5.0])) == 0.0
    with pytest.raises(DomainError):
        cosine_similarity(np.zeros(2), np.ones(2))
    with pytest.raises(ShapeError):
        cosine_similarity(np.ones(2), np.ones(3))


def test_snapshot_round_trip():
    rng = SplitMix64(33)
    named = {
        "a.w": rng.normal_array((3, 5)),
        "b": rng.normal_array((7,)),
        "c.deep.bias": np.zeros((2, 2, 2)),
    }
    buf = io.BytesIO()
    nk.write_snapshot(buf, named)
    buf.seek(0)
    back = nk.read_snapshot(buf)
    assert set(back) == set(named)
    for name in named:
        assert back[name].dtype == np.float64
        assert np.array_equal(back[name], named[name])


def test_snapshot_rejects_bad_magic():
    buf = io.BytesIO(b"NOTASNAP" + b"\x00" * 16)
    with pytest.raises(Exception):
        nk.read_snapshot(buf)
