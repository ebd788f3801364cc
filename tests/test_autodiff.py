"""Engine tests: primitive values, taped gradients vs central differences, SGD, checkpoints."""

import json
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from gme import autodiff as ad


def test_softmax_equal_logits_is_uniform():
    out = oracles.softmax(ad.Tensor([[0.0, 0.0]]), [[1, 1]])
    np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-15)


def test_relu_values():
    out = oracles.relu(ad.Tensor([-1.0, 0.0, 2.5]))
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.5])


def test_leaky_relu_slope():
    out = oracles.leaky_relu(ad.Tensor([-2.0, 3.0]), negative_slope=0.2)
    np.testing.assert_allclose(out.data, [-0.4, 3.0], atol=1e-15)


def test_backward_linear_map():
    # loss = w . x with x = [1, 2] gives dloss/dw = x exactly
    w = ad.Parameter([3.0, -4.0], name="w")
    x = ad.Tensor([1.0, 2.0])
    with ad.Tape() as tape:
        loss = oracles.matmul(w, x)
    ad.backward(tape, loss)
    np.testing.assert_array_equal(w.grad, [1.0, 2.0])


def test_backward_relu_dead_branch_gets_zero():
    w = ad.Parameter([-1.0], name="w")
    with ad.Tape() as tape:
        loss = oracles.mean(oracles.relu(w))
    ad.backward(tape, loss)
    np.testing.assert_array_equal(w.grad, [0.0])


def test_backward_visits_each_node_once_and_accumulates_reuse():
    # y = w*w uses w twice; gradient must sum both paths: d(w^2)/dw = 2w
    w = ad.Parameter([1.5], name="w")
    with ad.Tape() as tape:
        loss = oracles.mean(oracles.mul(w, w))
    assert len(tape) == 2
    ad.backward(tape, loss)
    np.testing.assert_allclose(w.grad, [3.0], atol=1e-15)


def test_backward_rejects_vector_loss():
    w = ad.Parameter([1.0, 2.0], name="w")
    with ad.Tape() as tape:
        out = oracles.relu(w)
    with pytest.raises(ad.ShapeError):
        ad.backward(tape, out)


def test_unreachable_parameter_keeps_zero_gradient():
    used = ad.Parameter([2.0], name="used")
    unused = ad.Parameter([5.0], name="unused")
    with ad.Tape() as tape:
        loss = oracles.mean(oracles.mul(used, used))
    ad.backward(tape, loss)
    np.testing.assert_array_equal(unused.grad, [0.0])


def test_shape_mismatch_diagnostics_name_op_and_shapes():
    a = ad.Tensor(np.zeros((2, 3)))
    b = ad.Tensor(np.zeros((4,)))
    with pytest.raises(ad.ShapeError) as err:
        oracles.matmul(a, b)
    msg = str(err.value)
    assert "matmul" in msg and "(2, 3)" in msg and "(4,)" in msg
    with pytest.raises(ad.ShapeError) as err2:
        oracles.add(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((3, 2))))
    msg2 = str(err2.value)
    assert "add" in msg2 and "(2, 3)" in msg2 and "(3, 2)" in msg2


def test_untaped_ops_record_nothing():
    tape = ad.Tape()
    with tape:
        pass
    before = len(tape)
    oracles.relu(ad.Tensor([1.0]))
    assert len(tape) == before


class TestGradCheckOracle:
    """Central-difference oracle over every op the model graph uses."""

    def test_quadratic_bowl(self):
        w = ad.Parameter([3.0], name="w")

        def loss():
            return oracles.mean(oracles.mul(oracles.mul(w, w), 0.5))

        assert ad.grad_check(loss, [w]) < 1e-8

    def test_composite_network_all_ops(self):
        rng = np.random.default_rng(7)
        w1 = ad.Parameter(rng.normal(0, 0.4, (5, 4)), name="w1")
        b1 = ad.Parameter(rng.normal(0, 0.1, (4,)), name="b1")
        w2 = ad.Parameter(rng.normal(0, 0.4, (4, 4)), name="w2")
        v = ad.Parameter(rng.normal(0, 0.4, (8,)), name="v")
        x = np.asarray(rng.normal(0, 1.0, (6, 5)))
        target = np.asarray(rng.normal(0, 1.0, (4,)))

        mask = np.asarray([[1, 1], [0, 1], [0, 0]])  # the last query has no keys

        def loss():
            h = oracles.tanh(oracles.add(oracles.matmul(ad.Tensor(x), w1), b1))
            g = oracles.sigmoid(oracles.matmul(h, w2))
            top = oracles.gather(g, [0, 2, 4])
            merged = oracles.row_update(g, [1], oracles.gather(g, [3]))
            queries = oracles.gather(merged, [1, 5, 2])
            keys = oracles.gather(g, [0, 5])
            v_query = oracles.gather(v, np.arange(4)[:, None])
            v_key = oracles.gather(v, np.arange(4, 8))
            score = oracles.leaky_relu(
                oracles.add(oracles.matmul(queries, v_query), oracles.matmul(keys, v_key)), 0.2)
            alpha = oracles.softmax(score, mask)
            pooled = oracles.matmul(alpha, keys)
            mixed = oracles.add(oracles.mul(pooled, v_key), oracles.mean(top))
            return oracles.mean(oracles.absolute(oracles.sub(mixed, ad.Tensor(target))))

        params = [w1, b1, w2, v]
        assert ad.grad_check(loss, params) < 1e-4

    def test_dropout_gradient_with_pinned_mask(self):
        w = ad.Parameter(np.linspace(-1, 1, 6), name="w")

        def loss():
            rng = np.random.default_rng(123)  # re-seeded closure keeps the mask fixed
            return oracles.mean(oracles.dropout(oracles.mul(w, w), 0.5, rng))

        assert ad.grad_check(loss, [w]) < 1e-7


def test_softmax_sums_to_one_and_shift_invariant():
    rng = np.random.default_rng(42)
    for _ in range(200):
        logits = rng.normal(0, 5, size=(1, rng.integers(1, 12)))
        mask = np.ones(logits.shape)
        base = oracles.softmax(ad.Tensor(logits), mask).data
        assert abs(base.sum() - 1.0) < 1e-9
        shifted = oracles.softmax(ad.Tensor(logits + rng.normal(0, 100)), mask).data
        np.testing.assert_allclose(shifted, base, atol=1e-12)
        assert np.all(base > 0.0) and np.all(base < 1.0 + 1e-15)


def test_softmax_extreme_logits_stay_finite():
    out = oracles.softmax(ad.Tensor([[1000.0, 999.0, -1000.0]]), np.ones((1, 3))).data
    assert np.all(np.isfinite(out)) and abs(out.sum() - 1.0) < 1e-9


@settings(max_examples=40, deadline=None, derandomize=True)
@given(shapes=hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=3, max_side=4),
       op=st.sampled_from([oracles.add, oracles.sub, oracles.mul]),
       seed=st.integers(0, 2**32 - 1))
@example(shapes=hnp.BroadcastableShapes(((3, 1), (4,)), (3, 4)), op=oracles.add, seed=0)
@example(shapes=hnp.BroadcastableShapes(((3, 1), (4,)), (3, 4)), op=oracles.sub, seed=1)
@example(shapes=hnp.BroadcastableShapes(((3, 1), (4,)), (3, 4)), op=oracles.mul, seed=2)
def test_elementwise_gradients_under_broadcasting(shapes, op, seed):
    rng = np.random.default_rng(seed)
    (sa, sb), result = shapes
    a = ad.Parameter(rng.normal(0, 1, sa), name="a")
    b = ad.Parameter(rng.normal(0, 1, sb), name="b")
    weight = rng.normal(0, 1, result)
    assert op(a, b).shape == result

    def loss():
        out = op(a, b)
        return oracles.mean(oracles.mul(oracles.mul(out, out), weight))

    assert ad.grad_check(loss, [a, b]) < 1e-4


@st.composite
def masked_scores(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(0, 6))
    mask = draw(hnp.arrays(np.bool_, (rows, cols))).copy()
    mask[draw(st.integers(0, rows - 1))] = False  # every case holds an empty row
    scores = draw(hnp.arrays(np.float64, (rows, cols), elements=st.floats(-30, 30)))
    return scores, mask


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=masked_scores(), seed=st.integers(0, 2**32 - 1))
def test_masked_softmax_properties(case, seed):
    scores, mask = case
    rng = np.random.default_rng(seed)
    y = oracles.softmax(ad.Tensor(scores), mask).data
    live = mask.any(axis=1)
    assert np.all(y[~mask] == 0.0)  # empty rows and masked entries exactly 0
    np.testing.assert_allclose(y[live].sum(axis=1), 1.0, rtol=0, atol=1e-9)
    shift = rng.normal(0, 40, (len(scores), 1))
    shifted = oracles.softmax(ad.Tensor(scores + shift), mask).data
    np.testing.assert_allclose(shifted, y, rtol=0, atol=1e-12)

    if not scores.size:
        return  # no entries, nothing to differentiate
    x = ad.Parameter(scores.copy(), name="scores")
    weight = rng.normal(0, 1, scores.shape)
    assert ad.grad_check(lambda: oracles.mean(oracles.mul(oracles.softmax(x, mask), weight)), [x]) < 1e-4


def _same_bits(a, b):
    """Bitwise equality, except that any NaN matches any NaN."""
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


def test_sigmoid_is_bitwise_the_piecewise_form():
    tiny = np.finfo(np.float64).smallest_subnormal
    special = np.array([0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, 1e-300, -1e-300,
                        36.0, -36.0, 800.0, -800.0, np.inf, -np.inf, np.nan])
    noise = np.random.default_rng(11).normal(0, 10, 100_000)
    for d in (special, noise):
        got = oracles.sigmoid(ad.Tensor(d)).data
        assert _same_bits(got, oracles.piecewise_sigmoid(d))
    assert np.array_equal(oracles.sigmoid(ad.Tensor([-800.0, 0.0, 800.0])).data, [0.0, 0.5, 1.0])


def _lstm_gates(rng, hidden):
    shapes = (("wx", (1, hidden)), ("uh", (hidden, hidden)), ("b", (hidden,)))
    return [tuple(ad.Parameter(rng.normal(0, 0.6, shape), f"{gate}.{name}") for name, shape in shapes)
            for gate in ("input", "forget", "output", "candidate")]


def _lstm_loss(lstm, series, gates, weight):
    """(loss, states); the row sum keeps the loss defined for an empty series."""
    out = lstm(series, gates)
    return oracles.mean(oracles.matmul(np.ones(len(series)), oracles.mul(out, weight))), out


def _fused_against_taped(n, hidden, steps, seed, saturate=False):
    """Asserts equal outputs and gradients; returns the parameters and the loss closure.

    `saturate` scales the rows to 1e4..2e4 with a random sign per row, so most
    gates sit at 0 or 1 (or -1) and tanh(c) reaches +-1, makes the few quiet
    hours of the negative rows -0.0, and appends an all-zero row.
    """
    rng = np.random.default_rng(seed)
    gates = _lstm_gates(rng, hidden)
    params = [p for gate in gates for p in gate]
    if saturate:
        series = (rng.uniform(1e4, 2e4, (n, steps)) * (rng.random((n, steps)) < 0.97)
                  * rng.choice([-1.0, 1.0], (n, 1)))
        series, n = np.vstack([series, np.zeros((1, steps))]), n + 1
    else:
        series = rng.uniform(0, 6, (n, steps)) * (rng.random((n, steps)) < 0.7)  # quiet hours are 0
    weight = rng.normal(0, 1, (n, hidden))
    runs = []
    for lstm in (ad.lstm, oracles.taped_lstm):
        with ad.Tape() as tape:
            loss, out = _lstm_loss(lstm, series, gates, weight)
        ad.backward(tape, loss)
        runs.append((out.data.copy(), [p.grad.copy() for p in params]))
        for p in params:
            p.zero_grad()
    (fused, fused_grads), (taped, taped_grads) = runs
    assert np.array_equal(fused, taped)
    for p, a, b in zip(params, fused_grads, taped_grads):
        assert np.array_equal(a, b), p.name
    return params, lambda: _lstm_loss(ad.lstm, series, gates, weight)[0]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(0, 7), hidden=st.integers(1, 5), steps=st.integers(1, 24),
       seed=st.integers(0, 2**32 - 1))
def test_fused_lstm_equals_taped_loop_and_central_differences(n, hidden, steps, seed):
    params, loss = _fused_against_taped(n, hidden, steps, seed)
    assert ad.grad_check(loss, params) < 1e-4


def test_fused_lstm_equals_taped_loop_at_model_width():
    # At 1 to 7 rows, dh from the product with uh alone differs in bits from
    # the first H columns of the product with the stacked [uh; wx; b].
    for n in (1, 3, 7, 130):
        _fused_against_taped(n=n, hidden=50, steps=24, seed=5)
    # Bits only: saturated gates give central differences no signal.
    _fused_against_taped(n=130, hidden=50, steps=24, seed=5, saturate=True)


def test_lstm_states_match_logistic_and_tanh_formulas():
    """The exp-form gates give the states of logistic gates and a np.tanh candidate
    within 1e-12, through saturation, -0.0 and zero rows, without a warning."""
    rng = np.random.default_rng(26)
    gates = _lstm_gates(rng, 8)
    quantifier = SimpleNamespace(**dict(zip(("input_gate", "forget_gate", "output_gate", "candidate"),
                                            gates)))
    saturated = rng.uniform(1e4, 2e4, (4, 24)) * np.array([[1.0], [-1.0], [1.0], [-1.0]])
    series = np.vstack([rng.uniform(0, 6, (5, 24)), saturated, np.zeros((1, 24)), np.zeros((1, 24))])
    series[[1, 6, 7, 10], ::3] = -0.0
    for rows in (series, series[:0]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            untaped = ad.lstm(rows, gates).data
            with ad.Tape():
                taped = ad.lstm(rows, gates).data
        assert untaped.shape == (len(rows), 8) and untaped.tobytes() == taped.tobytes()
        with np.errstate(over="ignore"):
            want = np.array([oracles.lstm_state(quantifier, row) for row in rows]).reshape(-1, 8)
        np.testing.assert_allclose(untaped, want, rtol=0, atol=1e-12)
    # One unit whose gates saturate: at +1e4 the input and output gates are
    # exactly 1, the forget gate 0 and the candidate -1, so c = -1 and
    # h = tanh(-1); at -1e4 the input and output gates are 0, so h = 0.
    unit = [tuple(ad.Parameter(np.array(p), "p") for p in ([[s]], [[0.0]], [0.0]))
            for s in (1.0, -1.0, 1.0, -1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = ad.lstm(np.array([[1e4] * 24, [-1e4] * 24]), unit).data
    assert out[0, 0] == np.tanh(-1.0) and out[1, 0] == 0.0


def test_taped_lstm_keeps_gates_and_cell_state_one_block_a_step():
    n, hidden, steps = 200, 50, 24
    rng = np.random.default_rng(0)
    gates = _lstm_gates(rng, hidden)
    series = rng.uniform(0, 6, (n, steps))
    unit = n * hidden * 8  # bytes of one (n, H) float64 array
    tracemalloc.start()  # numpy reports its buffers to it
    try:
        base = tracemalloc.get_traced_memory()[0]
        with ad.Tape() as tape:
            loss = oracles.mean(ad.lstm(series, gates))
        held = tracemalloc.get_traced_memory()[0] - base
        largest = max(trace.size for trace in tracemalloc.take_snapshot().traces)
        tracemalloc.reset_peak()
        ad.backward(tape, loss)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert held <= (5 * steps + 8) * unit, held / unit
    assert peak <= (5 * steps + 24) * unit, peak / unit
    assert largest <= 4 * unit + 512, largest


def test_lstm_shape_errors_name_op_and_shapes():
    gates = _lstm_gates(np.random.default_rng(0), 3)
    with pytest.raises(ad.ShapeError, match=r"lstm: series of shape \(5,\)"):
        ad.lstm(np.zeros(5), gates)
    gates[2] = (gates[2][0], ad.Parameter(np.zeros((3, 4)), "output.uh"), gates[2][2])
    with pytest.raises(ad.ShapeError) as err:
        ad.lstm(np.zeros((2, 24)), gates)
    assert "lstm" in str(err.value) and "(3, 4)" in str(err.value) and "(3, 3)" in str(err.value)
    with pytest.raises(ad.ShapeError, match="lstm"):
        ad.lstm(np.zeros((2, 24)), gates[:3])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(a_vector=st.booleans(), b_vector=st.booleans(), m=st.integers(1, 4), k=st.integers(1, 4),
       p=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_matmul_gradients_in_every_rank_combination(a_vector, b_vector, m, k, p, seed):
    rng = np.random.default_rng(seed)
    a = ad.Parameter(rng.normal(0, 1, (k,) if a_vector else (m, k)), name="a")
    b = ad.Parameter(rng.normal(0, 1, (k,) if b_vector else (k, p)), name="b")
    weight = rng.normal(0, 1, oracles.matmul(a, b).shape)

    def loss():
        out = oracles.matmul(a, b)
        return oracles.mean(oracles.mul(oracles.mul(out, out), weight))

    assert ad.grad_check(loss, [a, b]) < 1e-4


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_gather_gradients_with_repeated_indices(data, seed):
    rng = np.random.default_rng(seed)
    rows, cols = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4))
    vector = data.draw(st.booleans())
    shape = (rows,) if vector else (rows, cols)
    picks = data.draw(st.lists(st.integers(0, rows - 1), min_size=1, max_size=6))
    idx = np.array(picks + picks[:1])  # at least one index repeats
    if vector and data.draw(st.booleans()):
        idx = idx[:, None]  # a column of indices into a vector gives a column
    x = ad.Parameter(rng.normal(0, 1, shape), name="x")
    weight = rng.normal(0, 1, oracles.gather(x, idx).shape)

    def loss():
        out = oracles.gather(x, idx)
        return oracles.mean(oracles.mul(oracles.mul(out, out), weight))

    assert ad.grad_check(loss, [x]) < 1e-4

    # `oracles.take_rows` reads a slice of a matrix as the gather of its indices does, and
    # writes back the same gradient
    lo = data.draw(st.integers(0, rows - 1))
    block = slice(lo, data.draw(st.integers(lo + 1, rows)))
    m = ad.Parameter(rng.normal(0, 1, (rows, cols)), name="m")
    weight = rng.normal(0, 1, m.data[block].shape)
    runs = []
    for take in (lambda: oracles.take_rows(m, block), lambda: oracles.gather(m, np.arange(rows)[block])):
        with ad.Tape() as tape:
            out = take()
            loss = oracles.mean(oracles.mul(oracles.mul(out, out), weight))
        ad.backward(tape, loss)
        runs.append((out.data, m.grad.copy()))
        m.zero_grad()
    assert np.array_equal(runs[0][0], runs[1][0]) and np.array_equal(runs[0][1], runs[1][1])


def test_take_rows_takes_a_slice_of_a_matrix_only():
    with pytest.raises(ad.ShapeError, match=r"take_rows: .*\(4,\)"):
        oracles.take_rows(np.zeros(4), slice(0, 2))
    with pytest.raises(ad.ShapeError, match=r"take_rows: .*\[0, 1\]"):
        oracles.take_rows(np.zeros((4, 2)), [0, 1])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_row_update_gradients(data, seed):
    rng = np.random.default_rng(seed)
    rows, cols = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4))
    order = data.draw(st.permutations(range(rows)))
    idx = order[:data.draw(st.integers(1, rows))]
    x = ad.Parameter(rng.normal(0, 1, (rows, cols)), name="x")
    new = ad.Parameter(rng.normal(0, 1, (len(idx), cols)), name="rows")
    weight = rng.normal(0, 1, (rows, cols))

    def loss():
        out = oracles.row_update(x, idx, new)
        return oracles.mean(oracles.mul(oracles.mul(out, out), weight))

    assert ad.grad_check(loss, [x, new]) < 1e-4


UNARY_OPS = {
    "relu": oracles.relu,
    "leaky_relu": lambda t: oracles.leaky_relu(t, 0.2),
    "tanh": oracles.tanh,
    "sigmoid": oracles.sigmoid,
    "absolute": oracles.absolute,
    "mean": oracles.mean,
    "dropout": lambda t: oracles.dropout(t, 0.6, np.random.default_rng(3)),  # re-seeded: pinned mask
}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(op=st.sampled_from(sorted(UNARY_OPS)),
       shape=hnp.array_shapes(min_dims=1, max_dims=2, max_side=4),
       seed=st.integers(0, 2**32 - 1))
def test_unary_gradients_away_from_kinks(op, shape, seed):
    rng = np.random.default_rng(seed)
    # |x| >= 0.05 keeps every entry far from the kink at 0 relative to the probe step
    x = ad.Parameter(rng.uniform(0.05, 3.0, shape) * rng.choice([-1.0, 1.0], shape), name="x")
    weight = rng.normal(0, 1, UNARY_OPS[op](x).shape)

    def loss():
        out = UNARY_OPS[op](x)
        return oracles.mean(oracles.mul(oracles.mul(out, out), weight))

    assert ad.grad_check(loss, [x]) < 1e-4


@settings(max_examples=40, deadline=None, derandomize=True)
@given(shapes=st.lists(hnp.array_shapes(min_dims=1, max_dims=2, max_side=5), min_size=1, max_size=2),
       weighted=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(shapes=[(1,), (2,)], weighted=True, seed=0)
def test_l1_loss_equals_the_per_op_chain_bit_for_bit(shapes, weighted, seed):
    """Value, errors and gradients equal mean(absolute(sub(pred, truth))) per term, ties
    included, weighted as GMEModel.loss once did: eta * e_1 + (1 - eta) * e_2 through
    `mul` and `add`, eta * e_1 alone, or a bare e_1 at weight 1.0."""
    rng = np.random.default_rng(seed)
    truths = [rng.normal(0, 1, shape) for shape in shapes]
    starts = [rng.normal(0, 1, shape) for shape in shapes]
    for start, truth in zip(starts, truths):
        ties = rng.random(truth.shape) < 0.3
        start[ties] = truth[ties]
    eta = rng.uniform(0, 1) if weighted or len(shapes) > 1 else 1.0
    weights = [eta, 1.0 - eta][:len(shapes)]
    scale = rng.normal(0, 2)  # the gradient reaching the loss node
    runs = []
    for fused in (True, False):
        preds = [ad.Parameter(start.copy(), name=f"pred{k}") for k, start in enumerate(starts)]
        with ad.Tape() as tape:
            if fused:
                total, errors = ad.l1_loss(list(zip(preds, truths, weights)))
            else:
                chains = [oracles.taped_l1(p, t) for p, t in zip(preds, truths)]
                errors = [float(e.data) for e in chains]
                total = chains[0] if weights == [1.0] else oracles.mul(chains[0], eta)
                if len(chains) > 1:
                    total = oracles.add(total, oracles.mul(chains[1], 1.0 - eta))
            loss = oracles.mul(total, scale)
        ad.backward(tape, loss)
        runs.append((total.data, errors, [p.grad for p in preds]))
    (fused, fused_errors, fused_grads), (chain, chain_errors, chain_grads) = runs
    assert _same_bits(fused, chain) and fused_errors == chain_errors
    for a, b, start, truth in zip(fused_grads, chain_grads, starts, truths):
        assert _same_bits(a, b) and np.all(a[start == truth] == 0.0)


def test_l1_loss_refuses_broadcasting_and_empty_input():
    with pytest.raises(ad.ShapeError, match=r"l1_loss: .*\(3, 1\).*\(3,\)"):
        ad.l1_loss([(ad.Tensor(np.zeros((3, 1))), np.zeros(3), 1.0)])
    with pytest.raises(ad.ShapeError, match="l1_loss"):
        ad.l1_loss([(ad.Tensor(np.ones(2)), np.ones(2), 0.5), (ad.Tensor(np.zeros(0)), np.zeros(0), 0.5)])


def _attention_params(rng, f, h):
    shapes = {"w_score": (f, h), "v": (2 * h,), "w_value": (h, h), "w_embed": (f, h), "b_embed": (h,)}
    return [ad.Parameter(rng.normal(0, 0.8, shape), name) for name, shape in shapes.items()]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(t=st.integers(1, 5), r=st.integers(0, 6), f=st.integers(1, 4), h=st.integers(1, 4),
       zero=st.sampled_from(["none", "one", "all"]), seed=st.integers(0, 2**32 - 1))
@example(t=3, r=0, f=2, h=3, zero="none", seed=0)
@example(t=3, r=4, f=2, h=3, zero="all", seed=1)
def test_attention_equals_the_per_op_chain_bit_for_bit(t, r, f, h, zero, seed):
    """Value, weights and every gradient equal the 15-op chain's.  The last target has no
    rival; `zero` puts one score (a zero target and a zero rival row, attended) or every
    score (v = 0) exactly at the rectifier's kink."""
    rng = np.random.default_rng(seed)
    xt, xr = rng.normal(0, 1, (t, f)), rng.normal(0, 1, (r, f))
    mask = rng.random((t, r)) < 0.6
    mask[-1] = False
    params = _attention_params(rng, f, h)
    states = ad.Parameter(rng.normal(0, 1, (r, h)), "states")
    if zero == "one" and r:
        xt[0], xr[0], mask[0, 0] = 0.0, 0.0, t > 1
    if zero == "all":
        params[1].data[...] = 0.0
    weight = rng.normal(0, 1, (t, h))
    runs = []
    for attention in (ad.attention, oracles.taped_attention):
        with ad.Tape() as tape:
            out, weights = attention(xt, xr, states, mask, params, 0.2)
            loss = oracles.mean(oracles.mul(out, weight))
        ad.backward(tape, loss)
        runs.append((out.data, weights, [p.grad.copy() for p in (*params, states)]))
        for p in (*params, states):
            p.zero_grad()
    (fused, fused_weights, fused_grads), (chain, chain_weights, chain_grads) = runs
    assert _same_bits(fused, chain) and _same_bits(fused_weights, chain_weights)
    for p, a, b in zip((*params, states), fused_grads, chain_grads):
        assert _same_bits(a, b), p.name

    scores = (xt @ params[0].data) @ params[1].data[:h, None] + (xr @ params[0].data) @ params[1].data[h:]
    if zero == "none" and np.all(np.abs(scores) > 1e-3):  # central differences straddle no kink
        def loss_fn():
            return oracles.mean(oracles.mul(ad.attention(xt, xr, states, mask, params, 0.2)[0], weight))

        assert ad.grad_check(loss_fn, [*params, states]) < 1e-4


def test_attention_shape_errors_name_the_shapes():
    rng = np.random.default_rng(0)
    t, r, f, h = 2, 4, 3, 5
    good = dict(target_x=np.zeros((t, f)), rival_x=np.zeros((r, f)), rival_states=np.zeros((r, h)),
                mask=np.ones((t, r)), params=_attention_params(rng, f, h), slope=0.2)
    ad.attention(**good)
    bad_v = [*good["params"][:1], ad.Parameter(np.zeros(2 * h + 1), "v"), *good["params"][2:]]
    for key, value, shape in (("mask", np.ones((t, r + 3)), "(2, 7)"),
                              ("rival_states", np.zeros((r, h + 1)), "(4, 6)"),
                              ("target_x", np.zeros(f), "(3,)"),
                              ("params", bad_v, "(11,)"),
                              ("params", [*good["params"][:4], np.zeros((h, 1))], "(5, 1)"),
                              ("params", good["params"][:4], "(5, 5), (3, 5)] need")):
        with pytest.raises(ad.ShapeError) as err:
            ad.attention(**{**good, key: value})
        assert "attention" in str(err.value) and shape in str(err.value), key


def _grads_of(params):
    grads = [p.grad.copy() for p in params]
    for p in params:
        p.zero_grad()
    return grads


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(0, 6), widths=st.lists(st.integers(1, 5), min_size=2, max_size=4),
       last=st.sampled_from([None, "tanh"]), seed=st.integers(0, 2**32 - 1))
@example(n=0, widths=[30, 6, 6, 6], last="tanh", seed=0)  # a prior-mlp set with no rivals
@example(n=7, widths=[9, 150, 50, 1], last=None, seed=1)  # the MLP baseline's layers
def test_affine_stack_equals_the_per_op_chain_bit_for_bit(n, widths, last, seed):
    """Value and every parameter gradient equal those of matmul, add, relu and tanh per op."""
    rng = np.random.default_rng(seed)
    layers = [(ad.Parameter(rng.normal(0, 0.8, (a, b)), f"w{i}"), ad.Parameter(rng.normal(0, 0.5, b), f"b{i}"))
              for i, (a, b) in enumerate(zip(widths, widths[1:]))]
    params = [p for pair in layers for p in pair]
    x, weight = rng.normal(0, 1, (n, widths[0])), rng.normal(0, 1, (n, widths[-1]))
    runs = []
    for stack in (ad.affine_stack, oracles.taped_affine_stack):
        with ad.Tape() as tape:
            out = stack(x, layers, last)
            loss = oracles.mean(oracles.matmul(np.ones(n), oracles.mul(out, weight)))  # defined at n = 0
        ad.backward(tape, loss)
        runs.append((len(tape), out.data, _grads_of(params)))
    (fused_nodes, fused, fused_grads), (_, chain, chain_grads) = runs
    assert fused_nodes == 4 and fused.shape == (n, widths[-1]) and _same_bits(fused, chain)
    for p, a, b in zip(params, fused_grads, chain_grads):
        assert _same_bits(a, b), p.name
    if n and len(widths) == 2:  # one layer has no ReLU kink for central differences to straddle
        assert ad.grad_check(lambda: oracles.mean(oracles.mul(ad.affine_stack(x, layers, last), weight)),
                             params) < 1e-4


def test_affine_stack_refusals_name_the_shapes():
    rng = np.random.default_rng(0)
    layers = [(ad.Parameter(rng.normal(0, 1, (3, 4)), "w1"), ad.Parameter(np.zeros(4), "b1")),
              (ad.Parameter(rng.normal(0, 1, (4, 2)), "w2"), ad.Parameter(np.zeros(2), "b2"))]
    assert ad.affine_stack(np.zeros((5, 3)), layers, None).shape == (5, 2)
    for x, stack, shape in ((np.zeros(3), layers, "(3,)"), (np.zeros((5, 4)), layers, "(5, 4)"),
                            (np.zeros((5, 3)), layers[::-1], "(4, 2)"),
                            (np.zeros((5, 3)), [(layers[0][0], np.zeros(3))], "(3,)"),
                            (np.zeros((5, 3)), [], "[]")):
        with pytest.raises(ad.ShapeError, match="affine_stack") as err:
            ad.affine_stack(x, stack, None)
        assert shape in str(err.value)
    with pytest.raises(ValueError, match="last"):
        ad.affine_stack(np.zeros((5, 3)), layers, "relu")


def _head_params(rng, w, h):
    shapes = {"proj_w": (w, h), "proj_b": (h,), "out_w": (h,), "out_b": (1,), "aux_w": (w,), "aux_b": (1,)}
    return [ad.Parameter(rng.normal(0, 0.8, shape), name) for name, shape in shapes.items()]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(n_roots=st.integers(1, 4), n_aux=st.integers(0, 4), w=st.integers(1, 4), h=st.integers(1, 4),
       ablation=st.sampled_from(["full", "pcm-only", "met-only"]), keep=st.sampled_from([1.0, 0.9, 0.5]),
       reach=st.sampled_from(["both", "pred", "aux"]), seed=st.integers(0, 2**32 - 1))
@example(n_roots=3, n_aux=0, w=4, h=3, ablation="full", keep=0.9, reach="both", seed=0)  # no aux node
@example(n_roots=3, n_aux=5, w=4, h=3, ablation="met-only", keep=0.9, reach="both", seed=1)
def test_head_equals_the_per_op_chain_bit_for_bit(n_roots, n_aux, w, h, ablation, keep, reach, seed):
    """Both outputs and every gradient equal the per-op chain's, with the roots' dropout mask
    drawn as `dropout` draws it from an equally seeded generator; `reach` lets the loss read
    one output only."""
    rng = np.random.default_rng(seed)
    params = _head_params(rng, w, h)
    pooled = ad.Parameter(rng.normal(0, 1, (n_roots, h)), "pooled") if ablation != "met-only" else None
    states = ad.Parameter(rng.normal(0, 1, (n_roots + n_aux, w)), "states") if ablation != "pcm-only" else None
    inputs = [t for t in (pooled, states, *params) if t is not None]
    weight, aux_weight = rng.normal(0, 1, n_roots), rng.normal(0, 1, n_aux)
    runs = []
    for fused in (True, False):
        drop = np.random.default_rng(seed + 1)
        with ad.Tape() as tape:
            if fused:
                mask = (drop.random((n_roots, w)) < keep) / keep if keep < 1.0 and states is not None else None
                pred, aux = ad.head(pooled, states, n_roots, mask, params)
            else:
                pred, aux = oracles.taped_head(pooled, states, n_roots, keep, drop, params)
            terms = [oracles.mean(oracles.mul(pred, weight))] if reach != "aux" or aux is None else []
            terms += [oracles.mean(oracles.mul(aux, aux_weight))] if aux is not None and reach != "pred" else []
            loss = terms[0] if len(terms) == 1 else oracles.add(*terms)
        ad.backward(tape, loss)
        runs.append((pred.data, None if aux is None else aux.data, _grads_of(inputs)))
    (fused, fused_aux, fused_grads), (chain, chain_aux, chain_grads) = runs
    assert _same_bits(fused, chain) and fused.shape == (n_roots,)
    assert (fused_aux is None) == (chain_aux is None) == (states is None or not n_aux)
    assert fused_aux is None or _same_bits(fused_aux, chain_aux)
    for p, a, b in zip(inputs, fused_grads, chain_grads):
        assert _same_bits(a, b), p.name


def test_head_refusals_name_the_shapes():
    rng = np.random.default_rng(0)
    params = _head_params(rng, 4, 3)
    good = dict(pooled=np.zeros((2, 3)), states=np.zeros((5, 4)), n_roots=2, keep_mask=np.ones((2, 4)),
                params=params)
    assert [t.shape for t in ad.head(**good)] == [(2,), (3,)]
    for key, value, shape in (("pooled", np.zeros((3, 3)), "(3, 3)"), ("states", np.zeros((1, 4)), "(1, 4)"),
                              ("states", np.zeros((5, 3)), "(5, 3)"), ("keep_mask", np.ones((2, 3)), "(2, 3)"),
                              ("params", params[:5], "(4,)]"), ("params", [*params[:5], np.zeros(2)], "(2,)]")):
        with pytest.raises(ad.ShapeError, match="head") as err:
            ad.head(**{**good, key: value})
        assert shape in str(err.value), key
    with pytest.raises(ad.ShapeError, match="head"):
        ad.head(**{**good, "pooled": None, "states": None})


def test_sgd_single_step():
    w = ad.Parameter([1.0], name="w")
    w.grad[...] = 2.0
    ad.sgd_step(ad.Parameters([w]), 0.02, step=0)
    np.testing.assert_allclose(w.data, [0.96], atol=1e-15)
    np.testing.assert_array_equal(w.grad, [0.0])


def test_sgd_rejects_nonfinite_gradient_atomically():
    w1 = ad.Parameter([1.0], name="w1")
    w2 = ad.Parameter([1.0], name="w2")
    w1.grad[...] = 1.0
    w2.grad[...] = np.nan
    with pytest.raises(ad.GradientError, match="w2"):
        ad.sgd_step(ad.Parameters([w1, w2]), 0.02, step=0)
    np.testing.assert_array_equal(w1.data, [1.0])  # refused step leaves w1 untouched
    np.testing.assert_array_equal(w1.grad, [1.0])


def test_sgd_step_takes_only_an_arena():
    w = ad.Parameter([1.0], name="w")
    with pytest.raises(TypeError, match="Parameters"):
        ad.sgd_step([w], 0.02, step=0)


def test_parameters_pack_values_and_gradients_as_views_in_order():
    rng = np.random.default_rng(5)
    shapes = {"a": (2, 3), "b": (4,), "c": (1,), "d": (3, 1)}
    params = [ad.Parameter(rng.normal(0, 1, shape), name) for name, shape in shapes.items()]
    for p in params:
        p.grad[...] = rng.normal(0, 1, p.data.shape)
    before = [(p.data.copy(), p.grad.copy()) for p in params]
    arena = ad.Parameters(params)
    assert isinstance(arena, tuple) and list(arena) == params
    assert arena.ends.tolist() == [6, 10, 11, 14]
    assert arena.data.shape == arena.grad.shape == (14,)
    np.testing.assert_array_equal(arena.data, np.concatenate([d.ravel() for d, _ in before]))
    np.testing.assert_array_equal(arena.grad, np.concatenate([g.ravel() for _, g in before]))
    for p, (data, grad), hi in zip(params, before, arena.ends.tolist()):
        lo = hi - p.data.size
        assert p.data.shape == p.grad.shape == data.shape
        np.testing.assert_array_equal(p.data, data)
        np.testing.assert_array_equal(p.grad, grad)
        p.data += 1.0
        p.zero_grad()
        np.testing.assert_array_equal(arena.data[lo:hi], data.ravel() + 1.0)
        assert not arena.grad[lo:hi].any()


def test_parameters_refuse_a_parameter_already_held():
    a, b, c = (ad.Parameter([float(k)], name) for k, name in enumerate("abc"))
    arena = ad.Parameters([a, b])
    with pytest.raises(ValueError, match="'b'"):
        ad.Parameters([c, b])
    assert not c.packed and np.shares_memory(b.data, arena.data)
    with pytest.raises(ValueError, match="'c'"):
        ad.Parameters([c, c])
    assert ad.Parameters([c])[0] is c and len(ad.Parameters([])) == 0


@settings(max_examples=40, deadline=None)
@given(sizes=st.lists(st.integers(0, 7), min_size=1, max_size=6),
       rate=st.floats(1e-6, 10.0), seed=st.integers(0, 2**32 - 1))
def test_sgd_step_equals_the_per_parameter_update(sizes, rate, seed):
    """The arena's one update leaves every value and gradient where the per-parameter
    oracle leaves them, bit for bit."""
    rng = np.random.default_rng(seed)
    values = [(rng.normal(0, 3, n), rng.normal(0, 3, n)) for n in sizes]
    sides = []
    for _ in range(2):
        params = [ad.Parameter(d.copy(), f"p{k}") for k, (d, _) in enumerate(values)]
        for p, (_, g) in zip(params, values):
            p.grad[...] = g
        sides.append(params)
    ad.sgd_step(ad.Parameters(sides[0]), rate, step=3)
    oracles.sgd_step(sides[1], rate, step=3)
    for p, q in zip(*sides):
        assert p.data.tobytes() == q.data.tobytes() and p.grad.tobytes() == q.grad.tobytes()


def _mini_training(seed: int) -> np.ndarray:
    rng = ad.derive_rng(seed, "mini")
    w = ad.Parameter(ad.glorot_uniform(rng, (3, 2)), name="w")
    b = ad.Parameter(np.zeros(2), name="b")
    xs = rng.normal(0, 1, (10, 4, 3))
    ys = rng.normal(0, 1, (10, 4, 2))
    params = ad.Parameters([w, b])
    for step in range(10):
        with ad.Tape() as tape:
            pred = ad.affine_stack(xs[step], [(w, b)], "tanh")
            loss = ad.l1_loss([(pred, ys[step], 1.0)])[0]
        ad.backward(tape, loss)
        ad.sgd_step(params, 0.05 * 0.9 ** (step // 2), step)
    return np.concatenate([w.data.ravel(), b.data.ravel()])


def test_glorot_fans_come_from_the_shape():
    """An (in, out) matrix draws within sqrt(6 / (in + out)), an (in,) vector within
    sqrt(6 / (in + 1))."""
    for shape, bound in (((3, 2), np.sqrt(6 / 5)), ((5,), np.sqrt(6 / 6))):
        expected = np.random.default_rng(4).uniform(-bound, bound, shape)
        got = ad.glorot_uniform(np.random.default_rng(4), shape)
        np.testing.assert_array_equal(got, expected)


def test_ten_step_determinism_is_bitwise():
    a = _mini_training(99)
    b = _mini_training(99)
    assert np.array_equal(a, b)
    c = _mini_training(100)
    assert not np.array_equal(a, c)


def test_grad_check_reports_nonfinite_perturbation():
    w = ad.Parameter([0.0], name="bad")

    def loss():
        # nan as soon as the perturbation pushes w negative
        with np.errstate(divide="ignore", invalid="ignore"):
            val = float(np.log(w.data + 0.0).sum())
        return oracles.add(oracles.mean(w), ad.Tensor(val))

    with pytest.raises(ad.GradientError, match="bad"):
        ad.grad_check(loss, [w])


def test_checkpoint_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(5)
    params = [
        ad.Parameter(rng.normal(0, 1, (3, 4)) * np.pi, name="layer.w"),
        ad.Parameter(rng.normal(0, 1, (4,)) / 3.0, name="layer.b"),
    ]
    path = tmp_path / "ck.json"
    ad.save_checkpoint(path, params, meta={"note": "roundtrip"})
    values, meta = ad.load_checkpoint(path)
    assert meta == {"note": "roundtrip"}
    for p in params:
        assert values[p.name].shape == p.data.shape
        assert np.array_equal(values[p.name], p.data)  # bitwise for finite floats
    ad.save_checkpoint(tmp_path / "ck2.json", params, meta={"note": "roundtrip"})
    assert (tmp_path / "ck.json").read_bytes() == (tmp_path / "ck2.json").read_bytes()


def test_checkpoint_rejects_wrong_format(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps({"format": "other", "version": 1, "parameters": []}))
    with pytest.raises(ValueError, match="gme-checkpoint"):
        ad.load_checkpoint(path)
    path2 = tmp_path / "badver.json"
    path2.write_text(json.dumps({"format": "gme-checkpoint", "version": 99, "parameters": []}))
    with pytest.raises(ValueError, match="version"):
        ad.load_checkpoint(path2)


def test_checkpoint_rejects_repeated_name_and_non_integer_version(tmp_path):
    params = [ad.Parameter([1.0], name="head.aux.b"), ad.Parameter([2.0], name="head.out.b")]
    path = tmp_path / "ck.json"
    ad.save_checkpoint(path, params)
    doc = json.loads(path.read_text())
    twice = {**doc, "parameters": [*doc["parameters"], doc["parameters"][0]]}
    path.write_text(json.dumps(twice))
    with pytest.raises(ValueError, match="'head.aux.b' appears twice"):
        ad.load_checkpoint(path)
    for version in (True, 1.0, "1"):
        path.write_text(json.dumps({**doc, "version": version}))
        with pytest.raises(ValueError, match="version"):
            ad.load_checkpoint(path)


def test_derive_rng_stable_and_label_separated():
    a = ad.derive_rng(1, "x").integers(0, 2**32, 4)
    b = ad.derive_rng(1, "x").integers(0, 2**32, 4)
    c = ad.derive_rng(1, "y").integers(0, 2**32, 4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_dropout_identity_when_keep_is_one():
    x = ad.Tensor([1.0, 2.0])
    assert oracles.dropout(x, 1.0, np.random.default_rng(0)) is x
    with pytest.raises(ValueError):
        oracles.dropout(x, 0.0, np.random.default_rng(0))


def test_independent_tapes_on_threads():
    import threading

    results = {}

    def work(key, seed):
        w = ad.Parameter([float(seed)], name=f"w{key}")
        with ad.Tape() as tape:
            loss = oracles.mean(oracles.mul(w, w))
        ad.backward(tape, loss)
        results[key] = w.grad.copy()

    threads = [threading.Thread(target=work, args=(i, i + 1)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for i in range(4):
        np.testing.assert_allclose(results[i], [2.0 * (i + 1)], atol=1e-15)
