import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqgen import numerics as nm
from eqgen.numerics import (
    NonFiniteError,
    ShapeError,
    Tensor,
    backward,
    cross_entropy,
    dropout,
    embedding,
    attention,
    attention_plan,
    gather_rows,
    layer_norm,
    linear,
    relu,
    scatter_rows,
)
from fdcheck import check_op_grad, fd_grad, rel_err
import padded
import retained
import unfused
from unfused import matmul, reshape, softmax, swapaxes


def T(data, grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


class TestMatmul:
    def test_identity(self):
        a = T(np.eye(2))
        b = T([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(a, b).data, b.data)

    def test_projector(self):
        a = T([[1.0, 0.0], [0.0, 0.0]])
        b = T([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(matmul(a, b).data, [[5.0, 6.0], [0.0, 0.0]])

    def test_against_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        want = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    want[i, j] += a[i, k] * b[k, j]
        got = matmul(T(a), T(b)).data
        assert np.max(np.abs(got - want)) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(T(np.zeros((2, 3))), T(np.zeros((4, 2))))

    def test_batch_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(T(np.zeros((2, 3, 4))), T(np.zeros((3, 4, 5))))


class TestSoftmax:
    def test_uniform(self):
        p = softmax(T([0.0, 0.0, 0.0]), axis=-1).data
        assert np.allclose(p, [1 / 3] * 3, atol=1e-12)

    def test_ln2(self):
        p = softmax(T([math.log(2.0), 0.0]), axis=-1).data
        assert np.allclose(p, [2 / 3, 1 / 3], atol=1e-12)

    def test_no_overflow(self):
        p = softmax(T([1000.0, 1000.0]), axis=-1).data
        assert np.allclose(p, [0.5, 0.5], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        x = rng.normal(scale=50.0, size=(8, 13))
        p = softmax(T(x), axis=-1).data
        assert np.max(np.abs(p.sum(axis=-1) - 1.0)) < 1e-9
        assert p.min() > 0.0 and p.max() < 1.0

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 7))
        p1 = softmax(T(x), axis=-1).data
        p2 = softmax(T(x + 123.456), axis=-1).data
        assert np.max(np.abs(p1 - p2)) < 1e-9


def _attention_case(rng, q_rows=2, kv_rows=2, t_q=3, t_k=4, d=6):
    return (rng.normal(size=(q_rows, t_q, d)), rng.normal(size=(kv_rows, t_k, d)),
            rng.normal(size=(kv_rows, t_k, d)))


def _fused_vs_unfused(fused, ref, arrays, w):
    """Outputs and input gradients of ``(op(*inputs) * w).sum()`` through the
    fused op and through the unfused reference graph."""
    out = []
    for op in (fused, ref):
        leaves = [T(a, grad=True) for a in arrays]
        y = op(*leaves)
        backward((y * Tensor(w)).sum())
        out.append((y.data, [leaf.grad for leaf in leaves]))
    return out


class TestLinear:
    def test_matches_unfused_graph(self):
        rng = np.random.default_rng(30)
        arrays = (rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5)), rng.normal(size=(5,)))
        (y, gs), (y_ref, gs_ref) = _fused_vs_unfused(linear, unfused.linear, arrays, rng.normal(size=(2, 3, 5)))
        assert np.max(np.abs(y - y_ref)) < 1e-12
        for g, g_ref in zip(gs, gs_ref):
            assert g.shape == g_ref.shape and np.max(np.abs(g - g_ref)) < 1e-12

    @pytest.mark.parametrize("x, w, b", [
        ((2, 3), (4, 5), (5,)),  # inner dimensions differ
        ((2, 4), (4, 5), (4,)),  # bias does not match the output width
        ((2, 4), (4, 5), (1, 5)),  # bias is not 1-d
        ((2, 4), (2, 4, 5), (5,)),  # a stacked weight with a 1-d bias
        ((3, 4), (2, 4, 5), (2, 5)),  # 3 rows do not split into 2 groups
        ((2, 4), (2, 4, 5), (3, 5)),  # 2 weights, 3 biases
        ((2, 4), (2, 3, 5), (2, 5)),  # stacked inner dimensions differ
        ((4, 4), (2, 1, 4, 5), (2, 1, 5)),  # weight is 4-d
    ])
    def test_shape_mismatch(self, x, w, b):
        with pytest.raises(ShapeError):
            linear(T(np.zeros(x)), T(np.zeros(w)), T(np.zeros(b)))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("x_shape, s", [((6, 1, 8), 2), ((3, 2, 8), 2), ((9, 8), 3), ((4, 8), 1)])
    def test_stacked_weight_is_per_group(self, dtype, x_shape, s):
        # slice i of an (S, k, n) weight and (S, n) bias maps the i-th of S
        # equal groups of the flattened rows, exactly as a call per slice
        rng = np.random.default_rng(31)
        x, w, b = (rng.normal(size=shape).astype(dtype) for shape in (x_shape, (s, 8, 5), (s, 5)))
        out = linear(Tensor(x), Tensor(w), Tensor(b)).data
        groups = x.reshape(s, -1, 8)
        want = np.concatenate([linear(Tensor(groups[i]), Tensor(w[i]), Tensor(b[i])).data for i in range(s)])
        assert out.shape == x_shape[:-1] + (5,) and out.dtype == dtype
        assert np.array_equal(out.reshape(-1, 5), want)

    def test_nan_raises(self):
        # inf + (-inf) in one output entry
        x = T([[1e308, 1e308]])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteError):
            linear(x, T([[10.0], [-10.0]]), T([0.0]))


class TestAttention:
    def test_zero_queries_average_the_values(self):
        rng = np.random.default_rng(31)
        _, k, v = _attention_case(rng)
        out = attention(T(np.zeros((2, 3, 6))), T(k), T(v), 2).data
        assert np.max(np.abs(out - v.mean(axis=1, keepdims=True))) < 1e-12

    def test_masked_keys_get_no_weight(self):
        rng = np.random.default_rng(32)
        q, k, v = _attention_case(rng)
        mask = np.zeros((2, 1, 1, 4))
        mask[:, :, :, 2:] = -1e9
        out = attention(T(q), T(k), T(v), 3, mask).data
        assert np.max(np.abs(out - attention(T(q), T(k[:, :2]), T(v[:, :2]), 3).data)) < 1e-12

    @pytest.mark.parametrize("q_rows, kv_rows, mask_shape", [
        (2, 2, None),
        (2, 2, (2, 1, 1, 4)),  # key padding
        (2, 2, (1, 1, 3, 4)),  # causal-style, shared by every row
        (3, 1, None),  # folded: one set of keys/values under three query rows
        (3, 1, (1, 1, 1, 4)),  # folded and masked
        (6, 2, None),  # two key sets, each folded under three query rows
        (6, 2, (2, 1, 1, 4)),  # the same with key padding per key set
    ])
    def test_matches_unfused_graph(self, q_rows, kv_rows, mask_shape):
        rng = np.random.default_rng(33)
        arrays = _attention_case(rng, q_rows, kv_rows)
        mask = None
        if mask_shape is not None:
            mask = np.where(rng.random(mask_shape) < 0.3, -1e9, 0.0)
            mask[..., 0] = 0.0  # every query keeps one key
        w = rng.normal(size=(q_rows, 3, 6))
        (y, gs), (y_ref, gs_ref) = _fused_vs_unfused(
            lambda q, k, v: attention(q, k, v, 2, mask),
            lambda q, k, v: unfused.attention(q, k, v, 2, mask), arrays, w)
        assert np.max(np.abs(y - y_ref)) < 1e-12
        for g, g_ref in zip(gs, gs_ref):
            assert g.shape == g_ref.shape and np.max(np.abs(g - g_ref)) < 1e-12

    @staticmethod
    def per_key_set(q, k, v, heads, mask):
        """Plain attention of each key set over its run of the query rows,
        head by head in numpy."""
        kb, d = k.shape[0], q.shape[-1]
        hd = d // heads
        runs = q.reshape(kb, -1, d)
        out = np.empty_like(runs)
        for i in range(kb):
            for h in range(heads):
                cols = slice(h * hd, (h + 1) * hd)
                s = runs[i][:, cols] @ k[i][:, cols].T / math.sqrt(hd)
                if mask is not None:
                    s = s + mask[i, 0]
                w = np.exp(s - s.max(axis=-1, keepdims=True))
                out[i][:, cols] = w / w.sum(axis=-1, keepdims=True) @ v[i][:, cols]
        return out.reshape(q.shape)

    @settings(deadline=None, max_examples=100)
    @given(st.data())
    def test_folded_key_sets_equal_attention_per_key_set(self, data):
        # query rows as an (N, d) stack or a (B, t, d) grid, under any kb dividing the rows
        lead = data.draw(st.one_of(st.tuples(st.integers(1, 12)), st.tuples(st.integers(1, 4), st.integers(1, 4))))
        rows = math.prod(lead)
        kb = data.draw(st.sampled_from([n for n in range(1, rows + 1) if rows % n == 0]))
        t_k, masked = data.draw(st.integers(1, 5)), data.draw(st.booleans())
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        q, k, v = rng.normal(size=lead + (6,)), rng.normal(size=(kb, t_k, 6)), rng.normal(size=(kb, t_k, 6))
        mask = None
        if masked:  # padded keys per key set; every set keeps its first key
            mask = np.where(rng.random((kb, 1, 1, t_k)) < 0.4, nm.MASK_VALUE, 0.0)
            mask[..., 0] = 0.0
        out = attention(T(q), T(k), T(v), 2, mask).data
        assert out.shape == q.shape
        assert np.max(np.abs(out - self.per_key_set(q, k, v, 2, mask))) < 1e-12

    @pytest.mark.parametrize("q, k, v, heads", [
        ((2, 3, 6), (2, 4, 6), (2, 4, 6), 4),  # heads do not divide d
        ((2, 3, 6), (2, 4, 6), (2, 5, 6), 2),  # keys and values differ
        ((2, 3, 6), (2, 4, 8), (2, 4, 8), 2),  # key width is not d
        ((3, 3, 6), (2, 4, 6), (2, 4, 6), 2),  # key batch does not divide B
        ((3, 3, 6), (0, 4, 6), (0, 4, 6), 2),  # no key set
        ((3, 6), (4, 6), (4, 6), 2),  # no batch axis on the keys
        ((5, 6), (2, 4, 6), (2, 4, 6), 2),  # key batch does not divide the query rows
        ((6,), (1, 4, 6), (1, 4, 6), 2),  # one row without a row axis
    ])
    def test_shape_mismatch(self, q, k, v, heads):
        with pytest.raises(ShapeError):
            attention(T(np.zeros(q)), T(np.zeros(k)), T(np.zeros(v)), heads)

    def test_nan_raises(self):
        # scores of +inf: softmax subtracts inf from inf
        big = np.full((1, 2, 2), 1e200)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteError):
            attention(T(big), T(big), T(np.ones((1, 2, 2))), 1)


@st.composite
def _lengths(draw, causal=False):
    """Query and key lengths 1..t of 1 to 6 rows, sometimes all equal."""
    rows, t = draw(st.integers(1, 6)), draw(st.integers(1, 8))

    def one_list():
        return draw(st.one_of(st.lists(st.integers(1, t), min_size=rows, max_size=rows),
                              st.integers(1, t).map(lambda n: [n] * rows)))

    q_lengths = np.array(one_list())
    return q_lengths, q_lengths if causal else np.array(one_list())


def _grid_area(q_lengths, k_lengths):
    return len(q_lengths) * q_lengths.max() * k_lengths.max()


class TestAttentionPlan:
    """``attention_plan`` places every real row once, in at most two groups
    of the least score area, and grouped attention is the padded grid's."""

    @staticmethod
    def check_slots(plan, lengths, slots, pos, at, width):
        """Each group row's real slots hold its batch row's stack rows in
        order and its padded slots repeat the last; every stack row is at
        exactly one real slot, which ``pos`` gives."""
        starts = np.cumsum(lengths) - lengths
        real = np.zeros(len(slots), bool)
        for grp in plan.groups:
            t = width(grp)
            block = slots[at(grp) : at(grp) + len(grp.rows) * t].reshape(len(grp.rows), t)
            for i, row in enumerate(grp.rows):
                n = lengths[row]
                assert block[i, :n].tolist() == list(range(starts[row], starts[row] + n))
                assert (block[i, n:] == starts[row] + n - 1).all()
                real[at(grp) + i * t : at(grp) + i * t + n] = True
        assert at(plan.groups[-1]) + len(plan.groups[-1].rows) * width(plan.groups[-1]) == len(slots)
        assert np.array_equal(np.sort(pos), np.flatnonzero(real))
        assert np.array_equal(slots[pos], np.arange(lengths.sum()))
        return real

    @settings(deadline=None, max_examples=150)
    @given(_lengths(), st.booleans())
    @example((np.array([3]), np.array([3])), True)  # a single row
    @example((np.array([2, 2, 2]), np.array([4, 4, 4])), False)  # all lengths equal
    def test_every_real_position_placed_once(self, lengths, causal):
        q_lengths, k_lengths = lengths
        if causal:
            k_lengths = q_lengths
        plan = attention_plan(q_lengths, k_lengths, causal)
        assert 1 <= len(plan.groups) <= 2
        assert sorted(np.concatenate([grp.rows for grp in plan.groups]).tolist()) == list(range(len(q_lengths)))
        q_real = self.check_slots(plan, q_lengths, plan.q_slots, plan.q_pos, lambda g: g.q_at, lambda g: g.t_q)
        assert np.array_equal(plan.q_pad, np.flatnonzero(~q_real))
        self.check_slots(plan, k_lengths, plan.k_slots, plan.k_pos, lambda g: g.k_at, lambda g: g.t_k)
        for grp in plan.groups:
            assert grp.t_q == q_lengths[grp.rows].max() and grp.t_k == k_lengths[grp.rows].max()

    @settings(deadline=None, max_examples=150)
    @given(_lengths())
    def test_area_is_the_least_over_cuts_of_the_sorted_rows(self, lengths):
        q_lengths, k_lengths = lengths
        plan = attention_plan(q_lengths, k_lengths)
        area = sum(len(grp.rows) * grp.t_q * grp.t_k for grp in plan.groups)
        order = np.lexsort((q_lengths, k_lengths))
        parts = [_grid_area(q_lengths[order], k_lengths[order])]
        parts += [_grid_area(q_lengths[order[:c]], k_lengths[order[:c]])
                  + _grid_area(q_lengths[order[c:]], k_lengths[order[c:]]) for c in range(1, len(order))]
        assert area == min(parts) <= _grid_area(q_lengths, k_lengths)
        assert len(plan.groups) == 1 or area < parts[0]  # a cut only when it pays

    @settings(deadline=None, max_examples=100)
    @given(_lengths(), st.booleans(), st.integers(0, 2**32 - 1))
    @example((np.array([3]), np.array([3])), True, 0)
    @example((np.array([2, 2, 2]), np.array([4, 4, 4])), False, 1)
    def test_matches_the_padded_grid(self, lengths, causal, seed):
        q_lengths, k_lengths = lengths
        if causal:
            k_lengths = q_lengths
        plan = attention_plan(q_lengths, k_lengths, causal)
        rng = np.random.default_rng(seed)
        arrays = (rng.normal(size=(q_lengths.sum(), 4)), rng.normal(size=(k_lengths.sum(), 4)),
                  rng.normal(size=(k_lengths.sum(), 4)))
        (y, gs), (y_ref, gs_ref) = _fused_vs_unfused(
            lambda q, k, v: attention(q, k, v, 2, None, plan),
            lambda q, k, v: padded.grid_attention(q, k, v, 2, None, plan),
            arrays, rng.normal(size=(q_lengths.sum(), 4)))
        assert np.max(np.abs(y - y_ref)) < 1e-12
        for g, g_ref in zip(gs, gs_ref):
            assert g.shape == g_ref.shape and np.max(np.abs(g - g_ref)) < 1e-12

    def test_rows_may_arrive_as_a_grid(self):
        # a batch without padding on one side hands that side over as its grid
        rng = np.random.default_rng(40)
        plan = attention_plan([3, 1], [4, 4])
        q, kv = rng.normal(size=(4, 6)), rng.normal(size=(2, 4, 6))
        out = attention(T(q), T(kv), T(kv), 2, None, plan).data
        flat = attention(T(q), T(kv.reshape(8, 6)), T(kv.reshape(8, 6)), 2, None, plan).data
        assert np.array_equal(out, flat)

    @pytest.mark.parametrize("q_lengths, k_lengths, causal", [
        ([], [], False),  # no rows
        ([1, 2], [1], False),  # unequal row counts
        ([0, 2], [1, 2], False),  # an empty row
        ([1, 2], [2, 2], True),  # causal with unequal lengths
        ([[1, 2]], [[1, 2]], False),  # not 1-d
    ])
    def test_bad_lengths(self, q_lengths, k_lengths, causal):
        with pytest.raises(ShapeError):
            attention_plan(q_lengths, k_lengths, causal)

    @pytest.mark.parametrize("q, k, v, mask", [
        ((4, 6), (5, 6), (5, 6), None),  # one key row too many
        ((3, 6), (4, 6), (4, 6), None),  # one query row too few
        ((4, 6), (4, 6), (4, 5), None),  # keys and values differ
        ((4, 6), (4, 6), (4, 6), np.zeros((1, 1, 1, 4))),  # a mask beside the plan
    ])
    def test_shape_mismatch_with_a_plan(self, q, k, v, mask):
        plan = attention_plan([3, 1], [2, 2])
        with pytest.raises(ShapeError):
            attention(T(np.zeros(q)), T(np.zeros(k)), T(np.zeros(v)), 2, mask, plan)


class TestLayerNorm:
    def test_constant_row(self):
        x = T([[5.0, 5.0, 5.0, 5.0]])
        g = T(np.ones(4))
        b = T(np.zeros(4))
        out = layer_norm(x, g, b).data
        assert np.allclose(out, 0.0, atol=1e-6)

    def test_already_normalized(self):
        out = layer_norm(T([[1.0, -1.0]]), T(np.ones(2)), T(np.zeros(2))).data
        assert np.allclose(out, [[1.0, -1.0]], atol=1e-4)

    def test_row_statistics(self):
        rng = np.random.default_rng(3)
        x = rng.normal(loc=3.0, scale=2.5, size=(5, 32))
        out = layer_norm(T(x), T(np.ones(32)), T(np.zeros(32))).data
        assert np.max(np.abs(out.mean(axis=-1))) < 1e-7
        assert np.max(np.abs(out.var(axis=-1) - 1.0)) < 1e-4

    def test_bad_gain_shape(self):
        with pytest.raises(ShapeError):
            layer_norm(T(np.zeros((2, 4))), T(np.ones(3)), T(np.zeros(4)))

    @pytest.mark.parametrize("x, gain, bias", [
        ((4, 4), (2, 4), (4,)),  # stacked gain, unstacked bias
        ((3, 4), (2, 4), (2, 4)),  # 3 rows do not split into 2 groups
        ((4, 4), (2, 3), (2, 3)),  # stacked width differs from the rows'
        ((4, 4), (1, 2, 4), (1, 2, 4)),  # gain is 3-d
    ])
    def test_bad_stacked_gain_shape(self, x, gain, bias):
        with pytest.raises(ShapeError):
            layer_norm(T(np.zeros(x)), T(np.ones(gain)), T(np.zeros(bias)))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("x_shape, s", [((6, 1, 8), 2), ((3, 2, 8), 2), ((9, 8), 3)])
    def test_stacked_gain_is_per_group(self, dtype, x_shape, s):
        rng = np.random.default_rng(32)
        x, gain, bias = (rng.normal(size=shape).astype(dtype) for shape in (x_shape, (s, 8), (s, 8)))
        out = layer_norm(Tensor(x), Tensor(gain), Tensor(bias)).data
        groups = x.reshape(s, -1, 8)
        want = np.concatenate([layer_norm(Tensor(groups[i]), Tensor(gain[i]), Tensor(bias[i])).data
                               for i in range(s)])
        assert out.shape == x_shape and out.dtype == dtype
        assert np.array_equal(out.reshape(-1, 8), want)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", [(10, 1, 64), (16, 41, 64), (37, 64)])
    def test_bit_identical_to_the_mean_formula(self, dtype, shape):
        rng = np.random.default_rng(5)
        x, g_out = (rng.normal(1.0, 2.0, size=shape).astype(dtype) for _ in range(2))
        gain, bias = (rng.normal(size=shape[-1]).astype(dtype) for _ in range(2))
        # the formula with ndarray.mean, forward and backward
        xc = x - x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5)
        xhat = xc * inv
        dxhat = g_out * gain
        dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        leaf = Tensor(x, requires_grad=True)
        out = layer_norm(leaf, Tensor(gain, requires_grad=True), Tensor(bias))
        assert out.dtype == dtype and np.array_equal(out.data, xhat * gain + bias)
        backward((out * Tensor(g_out)).sum())
        assert np.array_equal(leaf.grad, dx)


class TestRows:
    """``gather_rows`` and ``scatter_rows`` between a (B, t, d) grid and
    the (N, d) stack of its real rows."""

    real = np.array([[True, True, False], [True, False, False]])

    def test_round_trip(self):
        grid = np.arange(18.0).reshape(2, 3, 3)
        rows = gather_rows(T(grid), self.real)
        assert rows.data.tolist() == [grid[0, 0].tolist(), grid[0, 1].tolist(), grid[1, 0].tolist()]
        back = scatter_rows(rows, self.real).data
        assert np.array_equal(back[self.real], rows.data) and not back[~self.real].any()

    def test_each_is_the_others_backward(self):
        rng = np.random.default_rng(6)
        w_rows, w_grid = rng.normal(size=(3, 3)), rng.normal(size=(2, 3, 3))
        assert check_op_grad(lambda x: (scatter_rows(x, self.real) * T(w_grid)).sum(), w_rows) < 1e-8
        assert check_op_grad(lambda x: (gather_rows(x, self.real) * T(w_rows)).sum(), w_grid) < 1e-8

    @pytest.mark.parametrize("op,x", [(gather_rows, np.zeros((2, 2, 3))), (gather_rows, np.zeros((6, 3))),
                                      (scatter_rows, np.zeros((4, 3))), (scatter_rows, np.zeros((2, 3, 3)))])
    def test_shape_mismatch(self, op, x):
        with pytest.raises(ShapeError):
            op(T(x), self.real)

    def test_dropout_rows_keep_their_grid_mask(self):
        x = np.random.default_rng(7).normal(size=(2, 3, 4))
        rng_grid, rng_rows = np.random.default_rng(8), np.random.default_rng(8)
        on_grid = dropout(T(x), 0.5, rng_grid).data
        on_rows = dropout(T(x[self.real]), 0.5, rng_rows, self.real).data
        assert np.array_equal(on_rows, on_grid[self.real])
        assert rng_rows.bit_generator.state == rng_grid.bit_generator.state


class TestCrossEntropy:
    def test_uniform_logits(self):
        out = cross_entropy(T(np.zeros((1, 8))), np.array([3]), ignore_index=-1)
        assert abs(out.item() - math.log(8.0)) < 1e-9

    def test_near_one_hot(self):
        logits = np.zeros((1, 5))
        logits[0, 2] = 1000.0
        out = cross_entropy(T(logits), np.array([2]), ignore_index=-1)
        assert out.item() < 1e-9

    def test_two_way_closed_form(self):
        out = cross_entropy(T([[1.0, 0.0]]), np.array([0]), ignore_index=-1)
        assert abs(out.item() - math.log(1.0 + math.exp(-1.0))) < 1e-12

    def test_sum_over_non_ignored(self):
        logits = np.zeros((4, 6))
        targets = np.array([1, 2, 0, 0])
        out = cross_entropy(T(logits), targets, ignore_index=0)
        assert abs(out.item() - 2 * math.log(6.0)) < 1e-9

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy(T(np.zeros((1, 4))), np.array([4]), ignore_index=-1)

    def test_grad_is_probs_minus_onehot(self):
        rng = np.random.default_rng(4)
        logits = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        targets = np.array([0, 4, 2])
        backward(cross_entropy(logits, targets, ignore_index=-1))
        p = softmax(Tensor(logits.data), axis=-1).data
        onehot = np.zeros((3, 5))
        onehot[np.arange(3), targets] = 1.0
        assert np.max(np.abs(logits.grad - (p - onehot))) < 1e-12


    def test_no_weights_is_unchanged(self):
        # the unweighted sum and gradient as written before weights existed
        rng = np.random.default_rng(5)
        ld = rng.normal(size=(2, 4, 6))
        targets = np.array([[1, 5, 0, 2], [0, 0, 3, 4]])
        logits = Tensor(ld, requires_grad=True)
        out = cross_entropy(logits, targets, ignore_index=0, weights=None)
        backward(out)
        flat, tgt = ld.reshape(-1, 6), targets.reshape(-1)
        keep = tgt != 0
        m = flat.max(axis=-1, keepdims=True)
        lse = m[:, 0] + np.log(np.exp(flat - m).sum(axis=-1))
        rows, idx = np.arange(8), np.where(keep, tgt, 0)
        assert out.item() == ((lse - flat[rows, idx]) * keep).sum()
        p = np.exp(flat - lse[:, None])
        p[rows, idx] -= 1.0
        p *= keep[:, None]
        assert np.array_equal(logits.grad, p.reshape(ld.shape))

    def test_weights_scale_each_row(self):
        rng = np.random.default_rng(6)
        ld = rng.normal(size=(3, 4, 5))
        targets = np.array([[1, 2, 3, -1], [4, 0, -1, -1], [2, 2, 2, 2]])
        w = np.array([[0.5], [-2.0], [0.0]])
        out = cross_entropy(T(ld), targets, ignore_index=-1, weights=w)
        per_row = [cross_entropy(T(ld[i]), targets[i], ignore_index=-1).item() for i in range(3)]
        assert out.item() == pytest.approx(0.5 * per_row[0] - 2.0 * per_row[1], rel=1e-12)


class TestBackward:
    def test_sum_of_squares(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        backward((x * x).sum())
        assert np.allclose(x.grad, [2.0, 4.0], atol=1e-12)

    def test_non_scalar_loss(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with pytest.raises(ValueError):
            backward(x * x)

    def test_grad_accumulates_on_reuse(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        backward((x * x + x).sum())
        assert np.allclose(x.grad, [7.0])

    def test_deep_chain_no_recursion_blowup(self):
        x = Tensor(np.array([0.5]), requires_grad=True)
        y = x
        for _ in range(5000):
            y = y + x
        backward(y.sum())
        assert np.allclose(x.grad, [5001.0])

    def test_gradients_land_on_leaves_only(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        w = Tensor(np.array([3.0, 0.5]), requires_grad=True)
        const = Tensor(np.array([4.0, 4.0]))
        h = relu(x * w) + const
        loss = (h * h).sum()
        backward(loss)
        assert np.array_equal(x.grad, [2 * (3.0 + 4.0) * 3.0, 0.0])
        assert np.array_equal(w.grad, [2 * (3.0 + 4.0) * 1.0, 0.0])
        assert const.grad is None
        assert h.grad is None and loss.grad is None
        assert h._parents == () and loss._parents == ()

    def test_second_backward_raises_before_writing_a_gradient(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        h = x * x
        loss = h.sum()
        backward(loss)
        first = x.grad.copy()
        with pytest.raises(RuntimeError, match="already back-propagated"):
            backward(loss)
        # a new graph that reaches a spent node raises too, and no leaf gains a gradient
        y = Tensor(np.array([5.0, 6.0]), requires_grad=True)
        with pytest.raises(RuntimeError, match="already back-propagated"):
            backward((h * y).sum())
        assert np.array_equal(x.grad, first) and y.grad is None

    def test_shared_subgraph_in_one_pass(self):
        # a node reached along two paths still runs its closure once, with the summed gradient
        x = Tensor(np.array([2.0]), requires_grad=True)
        h = x * x
        backward((h + h * h).sum())
        assert np.allclose(x.grad, [(1 + 2 * 4.0) * 2 * 2.0])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_leaf_gradients_equal_the_retaining_pass(self, seed):
        rng = np.random.default_rng(seed)
        arrays = (rng.normal(size=(2, 3, 6)), rng.normal(size=(2, 4, 6)), rng.normal(size=(6, 6)),
                  rng.normal(size=(6,)), rng.normal(size=(6,)))
        grads = []
        for bw in (backward, retained.backward):
            q, kv, w, b, gain = (T(a, grad=True) for a in arrays)
            h = layer_norm(linear(attention(q, kv, kv, 2), w, b), gain, T(np.zeros(6)))
            bw((relu(h) * h).sum())
            grads.append([t.grad for t in (q, kv, w, b, gain)])
        for got, want in zip(*grads):
            assert np.array_equal(got, want)


class TestFiniteDifferences:
    """Every primitive against the central-difference oracle (h=1e-5)."""

    def test_add_broadcast(self):
        rng = np.random.default_rng(10)
        b = Tensor(rng.normal(size=(4,)))
        err = check_op_grad(lambda x: (x + b).sum(), rng.normal(size=(3, 4)))
        assert err < 1e-4

    def test_mul_broadcast(self):
        rng = np.random.default_rng(11)
        b = Tensor(rng.normal(size=(1, 4)))
        err = check_op_grad(lambda x: (x * b * x).sum(), rng.normal(size=(3, 4)))
        assert err < 1e-4

    def test_matmul_both_sides(self):
        rng = np.random.default_rng(12)
        a0 = rng.normal(size=(3, 4))
        b0 = rng.normal(size=(4, 2))
        w = Tensor(rng.normal(size=(2, 3)))
        err_a = check_op_grad(lambda a: matmul(matmul(a, Tensor(b0)), w).sum(), a0)
        err_b = check_op_grad(lambda b: matmul(matmul(Tensor(a0), b), w).sum(), b0)
        assert err_a < 1e-4 and err_b < 1e-4

    def test_matmul_batched(self):
        rng = np.random.default_rng(13)
        b0 = rng.normal(size=(2, 3, 4, 5))
        err = check_op_grad(
            lambda a: matmul(a, Tensor(b0)).sum(), rng.normal(size=(2, 3, 2, 4))
        )
        assert err < 1e-4

    def test_matmul_stacked_times_2d(self):
        rng = np.random.default_rng(14)
        a0 = rng.normal(size=(2, 3, 4))
        w0 = rng.normal(size=(4, 6))
        err = check_op_grad(lambda w: matmul(Tensor(a0), w).sum(), w0)
        assert err < 1e-4

    def test_linear_all_inputs(self):
        rng = np.random.default_rng(23)
        x0, w0, b0 = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5)), rng.normal(size=(5,))
        c = Tensor(rng.normal(size=(2, 3, 5)))
        err_x = check_op_grad(lambda x: (linear(x, Tensor(w0), Tensor(b0)) * c).sum(), x0)
        err_w = check_op_grad(lambda w: (linear(Tensor(x0), w, Tensor(b0)) * c).sum(), w0)
        err_b = check_op_grad(lambda b: (linear(Tensor(x0), Tensor(w0), b) * c).sum(), b0)
        assert max(err_x, err_w, err_b) < 1e-4

    def test_stacked_linear_all_inputs(self):
        # two groups of three rows, the group boundary inside the leading axis
        rng = np.random.default_rng(25)
        x0, w0, b0 = rng.normal(size=(3, 2, 4)), rng.normal(size=(2, 4, 5)), rng.normal(size=(2, 5))
        c = Tensor(rng.normal(size=(3, 2, 5)))
        err_x = check_op_grad(lambda x: (linear(x, Tensor(w0), Tensor(b0)) * c).sum(), x0)
        err_w = check_op_grad(lambda w: (linear(Tensor(x0), w, Tensor(b0)) * c).sum(), w0)
        err_b = check_op_grad(lambda b: (linear(Tensor(x0), Tensor(w0), b) * c).sum(), b0)
        assert max(err_x, err_w, err_b) < 1e-4

    def test_stacked_layer_norm_all_inputs(self):
        rng = np.random.default_rng(26)
        x0, g0, b0 = rng.normal(size=(3, 2, 6)), rng.normal(size=(3, 6)), rng.normal(size=(3, 6))
        w = Tensor(rng.normal(size=(3, 2, 6)))
        err_x = check_op_grad(lambda x: (layer_norm(x, Tensor(g0), Tensor(b0)) * w).sum(), x0)
        err_g = check_op_grad(lambda g: (layer_norm(Tensor(x0), g, Tensor(b0)) * w).sum(), g0)
        err_b = check_op_grad(lambda b: (layer_norm(Tensor(x0), Tensor(g0), b) * w).sum(), b0)
        assert max(err_x, err_g, err_b) < 1e-4

    @pytest.mark.parametrize("q_rows, kv_rows", [(2, 2), (3, 1), (6, 2)])
    def test_attention_all_inputs_masked(self, q_rows, kv_rows):
        # (2, 2): a padded key per row; (3, 1): folded rows under one key set;
        # (6, 2): three rows folded under each of two key sets
        rng = np.random.default_rng(24)
        q0, k0, v0 = _attention_case(rng, q_rows, kv_rows)
        mask = np.zeros((kv_rows, 1, 1, 4))
        mask[-1, :, :, -1] = -1e9
        c = Tensor(rng.normal(size=(q_rows, 3, 6)))
        errs = [
            check_op_grad(lambda q: (attention(q, Tensor(k0), Tensor(v0), 2, mask) * c).sum(), q0),
            check_op_grad(lambda k: (attention(Tensor(q0), k, Tensor(v0), 2, mask) * c).sum(), k0),
            check_op_grad(lambda v: (attention(Tensor(q0), Tensor(k0), v, 2, mask) * c).sum(), v0),
        ]
        assert max(errs) < 1e-4

    @pytest.mark.parametrize("q_shape", [(6, 6), (3, 2, 6)])
    def test_attention_folded_over_query_rows_masked(self, q_shape):
        # six query rows, three under each of two key sets (across the grid's rows for (3, 2, 6));
        # the second key set has two padded keys
        rng = np.random.default_rng(29)
        q0, k0, v0 = rng.normal(size=q_shape), rng.normal(size=(2, 4, 6)), rng.normal(size=(2, 4, 6))
        mask = np.zeros((2, 1, 1, 4))
        mask[1, :, :, 2:] = -1e9
        c = Tensor(rng.normal(size=q_shape))
        errs = [
            check_op_grad(lambda q: (attention(q, Tensor(k0), Tensor(v0), 2, mask) * c).sum(), q0),
            check_op_grad(lambda k: (attention(Tensor(q0), k, Tensor(v0), 2, mask) * c).sum(), k0),
            check_op_grad(lambda v: (attention(Tensor(q0), Tensor(k0), v, 2, mask) * c).sum(), v0),
        ]
        assert max(errs) < 1e-4

    @pytest.mark.parametrize("q_lengths, k_lengths, causal", [
        ([3, 1, 2], [2, 4, 1], False),  # two groups, padded keys
        ([1, 3, 2, 3], [1, 3, 2, 3], True),  # two causal groups
    ])
    def test_grouped_attention_all_inputs(self, q_lengths, k_lengths, causal):
        plan = attention_plan(q_lengths, k_lengths, causal)
        assert len(plan.groups) == 2
        rng = np.random.default_rng(27)
        q0, k0, v0 = (rng.normal(size=(sum(n), 6)) for n in (q_lengths, k_lengths, k_lengths))
        c = Tensor(rng.normal(size=q0.shape))
        errs = [
            check_op_grad(lambda q: (attention(q, Tensor(k0), Tensor(v0), 2, None, plan) * c).sum(), q0),
            check_op_grad(lambda k: (attention(Tensor(q0), k, Tensor(v0), 2, None, plan) * c).sum(), k0),
            check_op_grad(lambda v: (attention(Tensor(q0), Tensor(k0), v, 2, None, plan) * c).sum(), v0),
        ]
        assert max(errs) < 1e-4

    def test_softmax(self):
        rng = np.random.default_rng(15)
        w = Tensor(rng.normal(size=(7,)))
        err = check_op_grad(
            lambda x: (softmax(x, axis=-1) * w).sum(), rng.normal(size=(3, 7))
        )
        assert err < 1e-4

    def test_layer_norm_all_inputs(self):
        rng = np.random.default_rng(16)
        x0 = rng.normal(size=(3, 6))
        g0 = rng.normal(size=(6,))
        b0 = rng.normal(size=(6,))
        w = Tensor(rng.normal(size=(3, 6)))
        err_x = check_op_grad(
            lambda x: (layer_norm(x, Tensor(g0), Tensor(b0)) * w).sum(), x0
        )
        err_g = check_op_grad(
            lambda g: (layer_norm(Tensor(x0), g, Tensor(b0)) * w).sum(), g0
        )
        err_b = check_op_grad(
            lambda b: (layer_norm(Tensor(x0), Tensor(g0), b) * w).sum(), b0
        )
        assert max(err_x, err_g, err_b) < 1e-4

    def test_relu(self):
        rng = np.random.default_rng(17)
        err = check_op_grad(lambda x: (relu(x) * relu(x)).sum(), rng.normal(size=(5, 5)))
        assert err < 1e-4

    def test_embedding(self):
        rng = np.random.default_rng(18)
        ids = np.array([[0, 2, 2], [1, 0, 3]])
        w = Tensor(rng.normal(size=(2, 3, 4)))
        err = check_op_grad(
            lambda tab: (embedding(tab, ids) * w).sum(), rng.normal(size=(5, 4))
        )
        assert err < 1e-4

    def test_reshape_swapaxes(self):
        rng = np.random.default_rng(19)
        w = Tensor(rng.normal(size=(4, 3, 2)))
        err = check_op_grad(
            lambda x: (swapaxes(reshape(x, (2, 3, 4)), 0, 2) * w).sum(),
            rng.normal(size=(6, 4)),
        )
        assert err < 1e-4

    def test_cross_entropy(self):
        rng = np.random.default_rng(20)
        targets = np.array([1, 3, 0, 2])
        err = check_op_grad(
            lambda x: cross_entropy(x, targets, ignore_index=0),
            rng.normal(size=(4, 5)),
        )
        assert err < 1e-4

    def test_weighted_cross_entropy(self):
        rng = np.random.default_rng(22)
        targets = np.array([[1, 3, -1], [0, 2, 4]])
        weights = rng.normal(size=(2, 3))
        err = check_op_grad(
            lambda x: cross_entropy(x, targets, ignore_index=-1, weights=weights),
            rng.normal(size=(2, 3, 5)),
        )
        assert err < 1e-4

    def test_dropout_fixed_mask(self):
        x0 = np.random.default_rng(21).normal(size=(4, 4))

        def loss(x):
            rng = np.random.default_rng(99)
            d = dropout(x, 0.5, rng)
            return (d * d).sum()

        err = check_op_grad(loss, x0)
        assert err < 1e-4


class TestFiniteGuard:
    def test_overflow_raises(self):
        big = Tensor(np.array([1e308]))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            _ = big * big

    def test_nan_input_raises(self):
        with pytest.raises(NonFiniteError):
            Tensor(np.array([np.nan]))


class TestNoGrad:
    def test_no_graph_recorded(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with nm.no_grad():
            y = (x * x).sum()
        assert y._backward is None and not y.requires_grad

    def test_reenabled_after(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        with nm.no_grad():
            pass
        backward((x * x).sum())
        assert np.allclose(x.grad, [4.0])


def test_fd_helper_sanity():
    # the oracle itself: d/dx of x^3 at 2 is 12
    g = fd_grad(lambda a: float(a[0] ** 3), np.array([2.0]))
    assert abs(g[0] - 12.0) < 1e-6
    assert rel_err(np.array([1.0]), np.array([1.0])) == 0.0
