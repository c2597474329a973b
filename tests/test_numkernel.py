"""The oracle tape (tests/helpers.py): forward values, gradients vs central
differences, the fused reference ops and the model's components against the
primitive chains they replace, policing; and numkernel's kernels."""

import copy
import math

import numpy as np
import pytest

from backrank import numkernel as nk
from backrank import (Backpack, BackpackConfig, DomainError, ShapeError, SplitMix64,
                      aggregate, listwise_loss)
from backrank.backpack import ContextEncoder, RelevanceHead, SenseTable, _EncoderLayer
from helpers import (ContractError, Tape, Tensor, add, aggregate_chain, attention_weights,
                     attention_weights_chain, backward, dot, embed_chain, finite_diff_check,
                     head_chain, layer_chain, linear, linear_chain, listwise_loss_chain,
                     log_softmax, matmul, merge_heads, merge_heads_chain, mul, neg, node,
                     record, reshape, sense_attention_chain, senses_chain, sigmoid,
                     split_heads, split_heads_chain, take_rows, tanh, tensor_sum)

TOL = 1e-9


def grad_of(build, *leaves):
    """Run one tape over build(), return the leaves' gradients."""
    with Tape() as tape:
        loss = build()
    return backward(tape, loss, leaves)


# ---------------------------------------------------------------------------
# forward values


def test_elementwise_forward_values():
    a = Tensor(np.array([1.0, -2.0, 3.0]))
    b = Tensor(np.array([0.5, 0.5, 0.5]))
    assert np.allclose(add(a, b).data, [1.5, -1.5, 3.5])
    assert np.allclose(mul(a, b).data, [0.5, -1.0, 1.5])
    assert np.allclose(neg(a).data, [-1.0, 2.0, -3.0])
    assert np.allclose(mul(a, Tensor(2.0)).data, [2.0, -4.0, 6.0])
    assert np.allclose(add(a, Tensor(1.0)).data, [2.0, -1.0, 4.0])


def test_matmul_and_dot_against_numpy():
    rng = SplitMix64(1)
    a = Tensor(rng.normal_array((4, 5)))
    b = Tensor(rng.normal_array((5, 3)))
    assert np.allclose(matmul(a, b).data, a.data @ b.data)
    u = Tensor(rng.normal_array((6,)))
    v = Tensor(rng.normal_array((6,)))
    assert dot(u, v).item() == pytest.approx(float(u.data @ v.data), abs=1e-12)


def _softmax_of(x):
    """attention_weights with zero queries: the softmax of the mask rows."""
    x = np.asarray(x, dtype=np.float64)
    q = Tensor(np.zeros(x.shape[:-1] + (2,)))
    key = Tensor(SplitMix64(4).normal_array(x.shape[:-2] + (x.shape[-1], 2)))
    return attention_weights(q, key, x)


def test_softmax_rows_sum_to_one_and_shift_invariance():
    x = np.array([[1.0, 2.0, 3.0], [1000.0, 1000.0, 1000.0]])
    s = _softmax_of(x)
    assert np.allclose(s.data.sum(axis=-1), 1.0)
    assert np.allclose(s.data, _softmax_of(x + 123.0).data)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    assert np.allclose(s.data, e / e.sum(axis=-1, keepdims=True), atol=1e-15, rtol=0)


def test_log_softmax_matches_log_of_softmax():
    x = np.array([0.3, -1.2, 2.2, 0.0])
    assert np.allclose(log_softmax(Tensor(x)).data, np.log(_softmax_of(x[None]).data[0]))


def test_stack_take_rows_transpose_reshape():
    st = Tensor(np.array([[float(i), float(i + 1)] for i in range(3)]))
    assert st.shape == (3, 2)
    taken = take_rows(st, [2, 0])
    assert np.allclose(taken.data, [[2.0, 3.0], [0.0, 1.0]])
    grid = take_rows(st, [[2, 0], [1, 1]])     # index of any shape
    assert grid.shape == (2, 2, 2)
    assert np.array_equal(grid.data[1, 0], st.data[1])
    heads = split_heads(reshape(st, (1, 3, 2)), 2)
    assert heads.shape == (1, 2, 3, 1)
    assert np.array_equal(heads.data[0, :, :, 0], st.data.T)
    assert np.array_equal(merge_heads(heads).data[0], st.data)
    assert reshape(st, (6,)).shape == (6,)


def test_reductions():
    x = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
    assert tensor_sum(x).item() == 15.0
    assert np.allclose(tensor_sum(x, axis=0).data, [3.0, 5.0, 7.0])


# ---------------------------------------------------------------------------
# gradients


def test_add_mul_chain_gradient():
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
    ga, gb = grad_of(lambda: tensor_sum(mul(add(a, b), a)), a, b)
    # d/da sum((a+b)*a) = 2a + b ; d/db = a
    assert np.allclose(ga, 2 * a.data + b.data)
    assert np.allclose(gb, a.data)


def test_broadcast_add_gradient_unbroadcasts():
    a = Tensor(np.ones((3, 4)), requires_grad=True)
    bias = Tensor(np.zeros((4,)), requires_grad=True)
    _, gb = grad_of(lambda: tensor_sum(add(a, bias)), a, bias)
    assert gb.shape == (4,)
    assert np.allclose(gb, 3.0)


def test_matmul_gradient_shapes_and_values():
    rng = SplitMix64(5)
    a = Tensor(rng.normal_array((3, 4)), requires_grad=True)
    b = Tensor(rng.normal_array((4, 2)), requires_grad=True)
    w = Tensor(rng.normal_array((3, 2)))
    ga, gb = grad_of(lambda: tensor_sum(mul(matmul(a, b), w)), a, b)
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
    assert np.allclose(matmul(a, b).data, a.data @ b.data, atol=1e-14, rtol=0)
    w = Tensor(rng.normal_array((a.data @ b.data).shape))
    assert finite_diff_check(lambda t: tensor_sum(mul(matmul(t, b), w)), a) < 1e-8
    assert finite_diff_check(lambda t: tensor_sum(mul(matmul(a, t), w)), b) < 1e-8


def test_fanout_accumulates():
    x = Tensor(np.array([2.0]), requires_grad=True)
    (gx,) = grad_of(lambda: tensor_sum(add(mul(x, x), x)), x)
    assert np.allclose(gx, 2 * x.data + 1.0)   # x*x + x -> 2x + 1


@pytest.mark.parametrize("fn,deriv", [
    (tanh, lambda x: 1 - np.tanh(x) ** 2),
    (sigmoid, lambda x: (1 / (1 + np.exp(-x))) * (1 - 1 / (1 + np.exp(-x)))),
])
def test_unary_gradients(fn, deriv):
    x = Tensor(np.array([-1.5, 0.0, 0.7]), requires_grad=True)
    (gx,) = grad_of(lambda: tensor_sum(fn(x)), x)
    assert np.allclose(gx, deriv(x.data), atol=TOL)


def test_finite_diff_random_composites():
    # composed graph with every structural op in the path
    rng = SplitMix64(17)
    w = Tensor(rng.normal_array((6, 4)))
    v = Tensor(rng.normal_array((8,)))

    b = Tensor(rng.normal_array((4,)))
    mask = np.triu(np.full((3, 3), -1e30), k=1)

    def f(x):
        h = tanh(linear(reshape(x, (1, 3, 6)), w, b))      # 1 x 3 x 4
        heads = split_heads(h, 2)                                  # 1 x 2 x 3 x 2
        s = matmul(attention_weights(heads, heads, mask), heads)
        pooled = reshape(tensor_sum(merge_heads(s), axis=1), (4,))
        return add(dot(pooled, Tensor(v.data[:4])),
                      dot(sigmoid(pooled), Tensor(v.data[4:])))

    for seed in range(5):
        x = Tensor(SplitMix64(seed).normal_array((18,)))
        assert finite_diff_check(f, x) < 1e-6


def test_take_rows_gradient_scatters_with_repeats():
    t = Tensor(np.eye(3), requires_grad=True)
    (gt,) = grad_of(lambda: tensor_sum(take_rows(t, [0, 0, 2])), t)
    assert np.allclose(gt, np.array([[2.0] * 3, [0.0] * 3, [1.0] * 3]))
    (gt,) = grad_of(lambda: tensor_sum(take_rows(t, [[0, 2], [0, 0]])), t)
    assert np.allclose(gt, np.array([[3.0] * 3, [0.0] * 3, [1.0] * 3]))


def test_scatter_rows_is_bit_equal_to_add_at():
    """The bincount scatter sums each row in index order from 0.0, as
    np.add.at does: equal bytes, signed zeros included, on 300 random cases
    with repeated indices and indices of any shape."""
    rng = np.random.default_rng(5)
    for _ in range(300):
        rows, cols = 1 + rng.integers(12), 1 + rng.integers(6)
        ix = rng.integers(rows, size=tuple(1 + rng.integers(4, size=rng.integers(1, 3))))
        shape = ix.shape + (cols,)
        g = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
        g[rng.random(g.shape) < 0.1] = -0.0
        want = np.zeros((rows, cols))
        np.add.at(want, ix, g)
        assert nk.scatter_rows((rows, cols), ix, g).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# fused reference ops and model components: bit-equal to the primitive
# chains they replace


def _ragged_mask(rng, b, m, n):
    """B x 1 x m x n additive mask: row b's query i sees keys j <= pos[b, i]."""
    pos = np.array([[rng.randint(n) for _ in range(m)] for _ in range(b)])
    return np.where(np.arange(n) > pos[:, None, :, None], -1e30, 0.0)


def _fused_cases():
    """(name, fused node, chain, input arrays, constants) on random shapes,
    including B=1, n=1 and per-row ragged masks."""
    rng = SplitMix64(21)
    cases = []
    for b, n, d, e in ((1, 1, 3, 2), (1, 5, 4, 6), (3, 7, 6, 4)):
        cases.append(("linear", linear, linear_chain,
                      [rng.normal_array((b, n, d)), rng.normal_array((d, e)),
                       rng.normal_array((e,))], ()))
    # a batched weight and bias, as in the sense table
    for b, k, n, p, d in ((1, 2, 1, 3, 4), (2, 3, 5, 2, 4)):
        cases.append(("linear", linear, linear_chain,
                      [rng.normal_array((b, k, n, p)), rng.normal_array((k, p, d)),
                       rng.normal_array((k, 1, d))], ()))
    for b, n, parts, w in ((1, 1, 2, 3), (2, 5, 3, 2), (4, 3, 1, 5)):
        cases.append(("split_heads", split_heads, split_heads_chain,
                      [rng.normal_array((b, n, parts * w))], (parts,)))
        cases.append(("merge_heads", merge_heads, merge_heads_chain,
                      [rng.normal_array((b, parts, n, w))], ()))
    for b, k, n, w in ((1, 1, 1, 2), (2, 3, 6, 4), (5, 2, 9, 3)):
        causal = np.triu(np.full((n, n), -1e30), k=1)
        cases.append(("attention_weights", attention_weights, attention_weights_chain,
                      [rng.normal_array((b, k, n, w)), rng.normal_array((b, k, n, w))],
                      (causal,)))
        for m in (1, 3):
            cases.append(("attention_weights", attention_weights, attention_weights_chain,
                          [rng.normal_array((b, k, m, w)), rng.normal_array((b, k, n, w))],
                          (_ragged_mask(rng, b, m, n),)))
    return cases + _component_cases(rng)


def _bound(obj, names, method):
    """method(obj', *rest) where obj' is a copy of obj whose parameters
    ``names`` are the leading arguments."""
    def call(*args):
        clone = copy.copy(obj)
        for name, leaf in zip(names, args):
            setattr(clone, name, leaf)
        return method(clone, *args[len(names):])
    return call


def _component(obj, names, method):
    """``_bound`` for a component method on plain arrays: one node over its
    activation input (the tensors among the rest), then the parameters."""
    def call(*args):
        params, rest = args[:len(names)], args[len(names):]
        inputs = tuple(a for a in rest if isinstance(a, Tensor))
        run = _bound(obj, names, method)
        return node(lambda *a: run(*params, *a), inputs, *rest[len(inputs):], params=params)
    return call


def _aggregate_one(a, s, weights):
    """``aggregate`` under the one weight set ``weights`` (None: all ones),
    as the oracle takes it: row 0 of its output, and a gradient for that row."""
    out, back = aggregate(a, s, np.ones((1, a.shape[1])) if weights is None else [weights])
    return out[0], lambda g: back(g[None])


def _loss_node(z, y):
    """listwise_loss as one node; its gradient is the loss's own, scaled by
    the upstream gradient."""
    loss, gz = listwise_loss(y, z.data)
    return record((z,), np.array(loss), lambda g: (g * gz,))


SMALL_SHAPES = [(BackpackConfig(vocab_size=9, embed_dim=6, num_senses=3, sense_hidden=2,
                                context_heads=heads, max_seq_len=7, head_hidden=4), b, n)
                for heads, b, n in ((1, 1, 1), (2, 1, 4), (2, 3, 5))]
# The criterion-6 model (d=24, k=4, 2 heads) on a training batch of 8 ragged
# rows. BLAS picks its kernels by shape and memory layout, so the small
# shapes alone could miss a layout change that moves the last bits.
REAL_SHAPES = [(BackpackConfig(vocab_size=60, embed_dim=24, num_senses=4, sense_hidden=4,
                               context_heads=2, max_seq_len=32, head_hidden=16), 8, n)
               for n in (19, 32)]


def _component_cases(rng, shapes=SMALL_SHAPES):
    """(name, component node, its reference chain, input arrays, constants)
    for every model component, on random parameters, with ragged rows
    (padded id matrices, per-row query positions), B = 1, repeated ids, one
    and two heads, and sense weights None, all-ones and suppressing. Rows of
    a batch of 8 are right-padded to random lengths, each pooled at its last
    real position, as in training."""
    cases = []
    for cfg, b, n in shapes:
        d, k, v = cfg.embed_dim, cfg.num_senses, cfg.vocab_size
        model = Backpack(cfg, seed=b)
        ids = np.array([[rng.randint(v) for _ in range(n)] for _ in range(b)])
        ids[0, -1] = ids[0, 0]                     # a repeated id scatters twice
        if b >= 8:
            lengths = [n] + [2 + rng.randint(n - 1) for _ in range(b - 1)]
            for row, length in zip(ids, lengths):
                row[length:] = 0
            pos = np.array([[length - 1] for length in lengths])
        else:
            if b > 1:
                ids[1, 2:] = 0                     # a padded row
            pos = np.array([[rng.randint(n)] for _ in range(b)])
        parts = [
            ("senses_for", model.senses, ("base", "w1", "b1", "w2", "b2"),
             SenseTable.senses_for, senses_chain, [], (ids,)),
            ("embed", model.context, ("tok_emb", "pos_emb"),
             ContextEncoder._embed, embed_chain, [], (ids,)),
            ("encoder_layer", model.context.layers[0],
             ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo", "f1", "fb1", "f2", "fb2"),
             _EncoderLayer.forward, layer_chain, [(b, n, d)], (cfg.context_heads,)),
            ("sense_attention", model.context, ("aq", "abq", "ak", "abk"),
             ContextEncoder._sense_attention, sense_attention_chain, [(b, n, d)], (pos,)),
            ("head", model.head, ("w1", "b1", "w2", "b2"),
             RelevanceHead.logit, head_chain, [(b, 1, d)], ()),
        ]
        for name, obj, names, method, chain, extra, consts in parts:
            arrays = [rng.normal_array(getattr(obj, a).data.shape, 0.5) for a in names]
            cases.append((name, _component(obj, names, method), _bound(obj, names, chain),
                          arrays + [rng.normal_array(shape) for shape in extra], consts))
        for weights in (None, (1.0,) * k, (0.05, 1.0, 0.5) + (0.2,) * (k - 3)):
            cases.append(("aggregate", lambda a, s, w: node(_aggregate_one, (a, s), w),
                          aggregate_chain,
                          [rng.normal_array((b, k, 1, n)), rng.normal_array((b, k, n, d))],
                          (weights,)))
        labels = tuple(float(i % 2 == 0) for i in range(b + 1))
        cases.append(("listwise_loss", _loss_node, lambda z, y: listwise_loss_chain(y, z),
                      [rng.normal_array((b + 1,))], (labels,)))
    return cases


FUSED = _fused_cases()
REAL = _component_cases(SplitMix64(29), REAL_SHAPES)


@pytest.mark.parametrize("name,fused,chain,arrays,consts", FUSED + REAL,
                         ids=[f"{c[0]}-{i}" for i, c in enumerate(FUSED)]
                         + [f"{c[0]}-real-{i}" for i, c in enumerate(REAL)])
def test_fused_node_is_bit_equal_to_its_chain(name, fused, chain, arrays, consts):
    """Output and every input gradient equal the chain's by np.array_equal,
    and the fused node records one tape node. The loss (the one scalar
    output) returns its gradient at the root, as training takes it, so its
    upstream gradient is 1."""
    shape = fused(*map(Tensor, arrays), *consts).shape
    upstream = Tensor(SplitMix64(3).normal_array(shape) if shape else 1.0)
    results = []
    for op in (fused, chain):
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        with Tape() as tape:
            out = op(*leaves, *consts)
            loss = tensor_sum(mul(out, upstream))
        nodes = len(tape)
        results.append((out.data, backward(tape, loss, leaves), nodes))
    (out_f, grads_f, nodes_f), (out_c, grads_c, nodes_c) = results
    assert np.array_equal(out_f, out_c)
    for gf, gc, a in zip(grads_f, grads_c, arrays):
        assert gf.shape == a.shape
        assert np.array_equal(gf, gc)
    assert nodes_f == 3 and nodes_c > nodes_f


@pytest.mark.parametrize("name,fused,chain,arrays,consts", FUSED,
                         ids=[f"{c[0]}-{i}" for i, c in enumerate(FUSED)])
def test_fused_node_gradients_match_central_differences(name, fused, chain, arrays, consts):
    leaves = [Tensor(a) for a in arrays]
    w = Tensor(SplitMix64(7).normal_array(fused(*leaves, *consts).shape))
    for i in range(len(arrays)):
        def f(t, i=i):
            return tensor_sum(mul(fused(*leaves[:i], t, *leaves[i + 1:], *consts), w))

        assert finite_diff_check(f, leaves[i]) < 1e-8, (name, i)


def test_fused_node_shape_errors():
    x = Tensor(np.ones((2, 3, 4)))
    with pytest.raises(ShapeError):
        linear(x, Tensor(np.ones((3, 2))), Tensor(np.zeros(2)))
    with pytest.raises(ShapeError):
        linear(x, Tensor(np.ones((4, 2))), Tensor(np.zeros(3)))
    with pytest.raises(ShapeError):
        split_heads(x, 3)
    with pytest.raises(ShapeError):
        merge_heads(x)
    with pytest.raises(ShapeError):
        attention_weights(x, Tensor(np.ones((2, 5, 3))), np.zeros((3, 5)))
    with pytest.raises(ShapeError):
        attention_weights(x, x, np.zeros((2, 4)))


# ---------------------------------------------------------------------------
# tape discipline


def test_backward_requires_scalar_loss():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        y = mul(x, Tensor(2.0))
    with pytest.raises(ContractError):
        backward(tape, y, [x])


def test_tape_single_use():
    x = Tensor(np.ones(2), requires_grad=True)
    with Tape() as tape:
        loss = tensor_sum(x)
    backward(tape, loss, [x])
    with pytest.raises(ContractError):
        backward(tape, loss, [x])


def test_backward_rejects_foreign_loss():
    x = Tensor(np.ones(2), requires_grad=True)
    with Tape() as tape:
        tensor_sum(x)
    foreign = Tensor(np.float64(1.0))
    with pytest.raises(ContractError):
        backward(tape, foreign, [x])


def test_backward_returns_zeros_for_an_unreached_tensor():
    x = Tensor(np.ones(2), requires_grad=True)
    unused = Tensor(np.ones((2, 3)), requires_grad=True)
    with Tape() as tape:
        loss = tensor_sum(mul(x, Tensor(3.0)))
    gx, gu = backward(tape, loss, [x, unused])
    assert np.array_equal(gx, [3.0, 3.0])
    assert gu.shape == (2, 3) and not gu.any()
    assert not hasattr(x, "grad")


def test_consecutive_steps_need_no_reset():
    """Each backward returns its own tape's gradients; nothing carries over
    from an earlier pass."""
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    for scale in (3.0, 5.0):
        with Tape() as tape:
            loss = tensor_sum(mul(x, Tensor(scale)))
        (gx,) = backward(tape, loss, [x])
        assert np.array_equal(gx, [scale, scale])


def test_backward_returns_intermediate_gradients():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    with Tape() as tape:
        h = mul(x, Tensor(2.0))
        loss = tensor_sum(mul(h, h))
    gh, gx = backward(tape, loss, [h, x])
    assert np.array_equal(gh, 2.0 * h.data)
    assert np.array_equal(gx, 8.0 * x.data)


def test_no_tape_means_no_graph():
    x = Tensor(np.ones(2), requires_grad=True)
    with Tape() as tape:
        pass
    y = tensor_sum(x)     # outside any tape: plain eager value
    assert y.item() == 2.0
    assert len(tape) == 0


def test_shape_errors():
    with pytest.raises((ShapeError, DomainError)):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises((ShapeError, DomainError)):
        dot(Tensor(np.ones(3)), Tensor(np.ones(4)))
