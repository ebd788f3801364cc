"""Engine tests: primitive values, taped gradients vs central differences, SGD, checkpoints."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gme import autodiff as ad


def test_softmax_equal_logits_is_uniform():
    out = ad.softmax(ad.Tensor([[0.0, 0.0]]), [[1, 1]])
    np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-15)


def test_relu_values():
    out = ad.relu(ad.Tensor([-1.0, 0.0, 2.5]))
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.5])


def test_leaky_relu_slope():
    out = ad.leaky_relu(ad.Tensor([-2.0, 3.0]), negative_slope=0.2)
    np.testing.assert_allclose(out.data, [-0.4, 3.0], atol=1e-15)


def test_backward_linear_map():
    # loss = w . x with x = [1, 2] gives dloss/dw = x exactly
    w = ad.Parameter([3.0, -4.0], name="w")
    x = ad.Tensor([1.0, 2.0])
    with ad.Tape() as tape:
        loss = ad.matmul(w, x)
    ad.backward(tape, loss)
    np.testing.assert_array_equal(w.grad, [1.0, 2.0])


def test_backward_relu_dead_branch_gets_zero():
    w = ad.Parameter([-1.0], name="w")
    with ad.Tape() as tape:
        loss = ad.mean(ad.relu(w))
    ad.backward(tape, loss)
    np.testing.assert_array_equal(w.grad, [0.0])


def test_backward_visits_each_node_once_and_accumulates_reuse():
    # y = w*w uses w twice; gradient must sum both paths: d(w^2)/dw = 2w
    w = ad.Parameter([1.5], name="w")
    with ad.Tape() as tape:
        loss = ad.mean(ad.mul(w, w))
    assert len(tape) == 2
    ad.backward(tape, loss)
    np.testing.assert_allclose(w.grad, [3.0], atol=1e-15)


def test_backward_rejects_vector_loss():
    w = ad.Parameter([1.0, 2.0], name="w")
    with ad.Tape() as tape:
        out = ad.relu(w)
    with pytest.raises(ad.ShapeError):
        ad.backward(tape, out)


def test_unreachable_parameter_keeps_zero_gradient():
    used = ad.Parameter([2.0], name="used")
    unused = ad.Parameter([5.0], name="unused")
    with ad.Tape() as tape:
        loss = ad.mean(ad.mul(used, used))
    ad.backward(tape, loss)
    np.testing.assert_array_equal(unused.grad, [0.0])


def test_shape_mismatch_diagnostics_name_op_and_shapes():
    a = ad.Tensor(np.zeros((2, 3)))
    b = ad.Tensor(np.zeros((4,)))
    with pytest.raises(ad.ShapeError) as err:
        ad.matmul(a, b)
    msg = str(err.value)
    assert "matmul" in msg and "(2, 3)" in msg and "(4,)" in msg
    with pytest.raises(ad.ShapeError) as err2:
        ad.add(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((3, 2))))
    msg2 = str(err2.value)
    assert "add" in msg2 and "(2, 3)" in msg2 and "(3, 2)" in msg2


def test_untaped_ops_record_nothing():
    tape = ad.Tape()
    with tape:
        pass
    before = len(tape)
    ad.relu(ad.Tensor([1.0]))
    assert len(tape) == before


class TestGradCheckOracle:
    """Central-difference oracle over every op the model graph uses."""

    def test_quadratic_bowl(self):
        w = ad.Parameter([3.0], name="w")

        def loss():
            return ad.mean(ad.mul(ad.mul(w, w), 0.5))

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
            h = ad.tanh(ad.add(ad.matmul(ad.Tensor(x), w1), b1))
            g = ad.sigmoid(ad.matmul(h, w2))
            top = ad.take_rows(g, [0, 2, 4])
            merged = ad.row_update(g, [1], ad.take_rows(g, [3]))
            queries = ad.take_rows(merged, [1, 5, 2])
            keys = ad.take_rows(g, [0, 5])
            v_query = ad.take_rows(v, np.arange(4)[:, None])
            v_key = ad.take_rows(v, np.arange(4, 8))
            score = ad.leaky_relu(
                ad.add(ad.matmul(queries, v_query), ad.matmul(keys, v_key)), 0.2)
            alpha = ad.softmax(score, mask)
            pooled = ad.matmul(alpha, keys)
            mixed = ad.add(ad.mul(pooled, v_key), ad.mean(top))
            return ad.mean(ad.absolute(ad.sub(mixed, ad.Tensor(target))))

        params = [w1, b1, w2, v]
        assert ad.grad_check(loss, params) < 1e-4

    def test_dropout_gradient_with_pinned_mask(self):
        w = ad.Parameter(np.linspace(-1, 1, 6), name="w")

        def loss():
            rng = np.random.default_rng(123)  # re-seeded closure keeps the mask fixed
            return ad.mean(ad.dropout(ad.mul(w, w), 0.5, rng))

        assert ad.grad_check(loss, [w]) < 1e-7


def test_softmax_sums_to_one_and_shift_invariant():
    rng = np.random.default_rng(42)
    for _ in range(200):
        logits = rng.normal(0, 5, size=(1, rng.integers(1, 12)))
        mask = np.ones(logits.shape)
        base = ad.softmax(ad.Tensor(logits), mask).data
        assert abs(base.sum() - 1.0) < 1e-9
        shifted = ad.softmax(ad.Tensor(logits + rng.normal(0, 100)), mask).data
        np.testing.assert_allclose(shifted, base, atol=1e-12)
        assert np.all(base > 0.0) and np.all(base < 1.0 + 1e-15)


def test_softmax_extreme_logits_stay_finite():
    out = ad.softmax(ad.Tensor([[1000.0, 999.0, -1000.0]]), np.ones((1, 3))).data
    assert np.all(np.isfinite(out)) and abs(out.sum() - 1.0) < 1e-9


@settings(max_examples=40, deadline=None, derandomize=True)
@given(shapes=hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=3, max_side=4),
       op=st.sampled_from([ad.add, ad.sub, ad.mul]),
       seed=st.integers(0, 2**32 - 1))
@example(shapes=hnp.BroadcastableShapes(((3, 1), (4,)), (3, 4)), op=ad.add, seed=0)
@example(shapes=hnp.BroadcastableShapes(((3, 1), (4,)), (3, 4)), op=ad.sub, seed=1)
@example(shapes=hnp.BroadcastableShapes(((3, 1), (4,)), (3, 4)), op=ad.mul, seed=2)
def test_elementwise_gradients_under_broadcasting(shapes, op, seed):
    rng = np.random.default_rng(seed)
    (sa, sb), result = shapes
    a = ad.Parameter(rng.normal(0, 1, sa), name="a")
    b = ad.Parameter(rng.normal(0, 1, sb), name="b")
    weight = rng.normal(0, 1, result)
    assert op(a, b).shape == result

    def loss():
        out = op(a, b)
        return ad.mean(ad.mul(ad.mul(out, out), weight))

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
    y = ad.softmax(ad.Tensor(scores), mask).data
    live = mask.any(axis=1)
    assert np.all(y[~mask] == 0.0)  # empty rows and masked entries exactly 0
    np.testing.assert_allclose(y[live].sum(axis=1), 1.0, rtol=0, atol=1e-9)
    shift = rng.normal(0, 40, (len(scores), 1))
    shifted = ad.softmax(ad.Tensor(scores + shift), mask).data
    np.testing.assert_allclose(shifted, y, rtol=0, atol=1e-12)

    if not scores.size:
        return  # no entries, nothing to differentiate
    x = ad.Parameter(scores.copy(), name="scores")
    weight = rng.normal(0, 1, scores.shape)
    assert ad.grad_check(lambda: ad.mean(ad.mul(ad.softmax(x, mask), weight)), [x]) < 1e-4


def test_sgd_single_step():
    w = ad.Parameter([1.0], name="w")
    w.grad[...] = 2.0
    schedule = ad.SgdSchedule(initial_rate=0.02, decay_factor=0.96, decay_every=10)
    ad.sgd_step([w], schedule, step=0)
    np.testing.assert_allclose(w.data, [0.96], atol=1e-15)
    np.testing.assert_array_equal(w.grad, [0.0])


def test_sgd_schedule_decay_boundaries():
    s = ad.SgdSchedule(initial_rate=0.02, decay_factor=0.5, decay_every=3)
    assert s.rate(0) == s.rate(2) == 0.02
    assert s.rate(3) == pytest.approx(0.01)
    assert s.rate(6) == pytest.approx(0.005)


def test_sgd_rejects_nonfinite_gradient_atomically():
    w1 = ad.Parameter([1.0], name="w1")
    w2 = ad.Parameter([1.0], name="w2")
    w1.grad[...] = 1.0
    w2.grad[...] = np.nan
    with pytest.raises(ad.GradientError, match="w2"):
        ad.sgd_step([w1, w2], ad.SgdSchedule(), step=0)
    np.testing.assert_array_equal(w1.data, [1.0])  # refused step leaves w1 untouched


def test_schedule_validation():
    with pytest.raises(ValueError):
        ad.SgdSchedule(decay_every=0)
    with pytest.raises(ValueError):
        ad.SgdSchedule(decay_factor=1.5)
    with pytest.raises(ValueError):
        ad.SgdSchedule(initial_rate=0.0)


def _mini_training(seed: int) -> np.ndarray:
    rng = ad.derive_rng(seed, "mini")
    w = ad.Parameter(ad.glorot_uniform(rng, (3, 2), 3, 2), name="w")
    b = ad.Parameter(np.zeros(2), name="b")
    xs = rng.normal(0, 1, (10, 4, 3))
    ys = rng.normal(0, 1, (10, 4, 2))
    schedule = ad.SgdSchedule(0.05, 0.9, 2)
    for step in range(10):
        with ad.Tape() as tape:
            pred = ad.tanh(ad.add(ad.matmul(ad.Tensor(xs[step]), w), b))
            loss = ad.mean(ad.absolute(ad.sub(pred, ad.Tensor(ys[step]))))
        ad.backward(tape, loss)
        ad.sgd_step([w, b], schedule, step)
    return np.concatenate([w.data.ravel(), b.data.ravel()])


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
        return ad.add(ad.mean(w), ad.Tensor(val))

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


def test_derive_rng_stable_and_label_separated():
    a = ad.derive_rng(1, "x").integers(0, 2**32, 4)
    b = ad.derive_rng(1, "x").integers(0, 2**32, 4)
    c = ad.derive_rng(1, "y").integers(0, 2**32, 4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_dropout_identity_when_keep_is_one():
    x = ad.Tensor([1.0, 2.0])
    assert ad.dropout(x, 1.0, np.random.default_rng(0)) is x
    with pytest.raises(ValueError):
        ad.dropout(x, 0.0, np.random.default_rng(0))


def test_independent_tapes_on_threads():
    import threading

    results = {}

    def work(key, seed):
        w = ad.Parameter([float(seed)], name=f"w{key}")
        with ad.Tape() as tape:
            loss = ad.mean(ad.mul(w, w))
        ad.backward(tape, loss)
        results[key] = w.grad.copy()

    threads = [threading.Thread(target=work, args=(i, i + 1)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for i in range(4):
        np.testing.assert_allclose(results[i], [2.0 * (i + 1)], atol=1e-15)
