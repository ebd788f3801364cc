"""Model wiring tests: config, forward vs oracle, loss algebra, checkpoints."""

import dataclasses
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from gme import autodiff as ad
from gme.model import ABLATIONS, GMEModel, TrainConfig
from gme.toy import TOY_ENCODER, build_toy_market
from gme.training import build_contexts, train_model, warm_start_heads


def toy_bundle(seed=0, **config_kw):
    config = TrainConfig(tau=24, t_h=3, hidden=6, seed=seed, epochs=1, **config_kw)
    market = build_toy_market(seed)
    bundle = build_contexts(market, config, encoder_overrides=dict(TOY_ENCODER))
    return config, bundle


class TestTrainConfig:
    def test_defaults_are_valid(self):
        cfg = TrainConfig()
        assert cfg.tau == 24 and cfg.eta == 0.7 and cfg.pruning == "cate-jf"

    @pytest.mark.parametrize("kw", [
        {"tau": 0}, {"t_h": 0}, {"eta": 1.5}, {"pruning": "none"},
        {"quantifier": "gru"}, {"ablation": "both"}, {"hidden": 0},
        {"dropout_keep": 0.0}, {"learning_rate": -1.0}, {"learning_rate": 0.0},
        {"lr_decay": 1.5}, {"epochs": -1},
    ])
    def test_bad_values_rejected(self, kw):
        with pytest.raises(ValueError):
            TrainConfig(**kw)

    def test_json_roundtrip(self):
        cfg = TrainConfig(tau=48, quantifier="prior-mlp", seed=9)
        assert TrainConfig.from_json(cfg.to_json()) == cfg

    def test_unknown_json_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config"):
            TrainConfig.from_json({"tau": 24, "momentum": 0.9})


class TestForwardMatchesOracle:
    @pytest.mark.parametrize("ablation", ABLATIONS)
    @pytest.mark.parametrize("quantifier", ["recurrent", "prior-mlp"])
    def test_predictions_match_straight_line_mirror(self, ablation, quantifier):
        config, bundle = toy_bundle(seed=3, ablation=ablation, quantifier=quantifier)
        model = GMEModel(bundle.encoder.feature_dim, config)
        checked = 0
        for ctx in (*bundle.train, *bundle.test):
            got = model.predict(ctx)
            want = oracles.predict_target_set(model, ctx)
            np.testing.assert_allclose(got, want, atol=1e-12)
            checked += len(ctx.target_ids)
        assert checked >= 10

    def test_loss_matches_mirror(self):
        config, bundle = toy_bundle(seed=5)
        model = GMEModel(bundle.encoder.feature_dim, config)
        for ctx in bundle.train[:6]:
            result = model.forward(ctx)
            got = model.loss(result, ctx)
            want_total, want_p, want_l = oracles.joint_loss(model, ctx)
            assert float(got.total.data) == pytest.approx(want_total, abs=1e-12)
            assert got.loss_p == pytest.approx(want_p, abs=1e-12)
            assert got.loss_l == pytest.approx(want_l, abs=1e-12)

    def test_aux_predictions_match_mirror(self):
        config, bundle = toy_bundle(seed=7)
        model = GMEModel(bundle.encoder.feature_dim, config)
        ctx = next(c for c in bundle.train if c.tree.n_nodes > c.tree.n_roots)
        result = model.forward(ctx)
        np.testing.assert_allclose(result.aux_pred.data,
                                   oracles.aux_predictions(model, ctx), atol=1e-12)


class TestFusedAttention:
    def test_attention_forward_is_one_tape_node(self):
        config, bundle = toy_bundle(seed=3)
        model = GMEModel(bundle.encoder.feature_dim, config)
        ctx = next(c for c in bundle.train if c.graph.adjacency.any())
        states = model._rival_states(ctx)
        with ad.Tape() as tape:
            model.attention.forward(ctx.graph, ctx.target_features, ctx.rival_features, states)
        assert len(tape) == 1

    @pytest.mark.parametrize("quantifier", ["recurrent", "prior-mlp"])
    def test_training_steps_keep_the_per_op_chain_bits(self, monkeypatch, quantifier):
        """Three SGD steps leave every parameter bit for bit where the 15-op chain leaves it."""
        config, bundle = toy_bundle(seed=4, quantifier=quantifier, dropout_keep=0.9)
        runs = []
        for attention in (ad.attention, oracles.taped_attention):
            monkeypatch.setattr(ad, "attention", attention)
            model = GMEModel(bundle.encoder.feature_dim, config)
            rng = np.random.default_rng(0)
            nodes = []
            for step, ctx in enumerate(bundle.train[:3]):
                with ad.Tape() as tape:
                    losses = model.loss(model.forward(ctx, training=True, dropout_rng=rng), ctx)
                ad.backward(tape, losses.total)
                ad.sgd_step(model.parameters(), 0.05, step)
                nodes.append(len(tape))
            runs.append(([p.data.copy() for p in model.parameters()], nodes))
        (fused, fused_nodes), (chain, chain_nodes) = runs
        for a, b in zip(fused, chain):
            assert np.array_equal(a, b)
        assert [n + 14 for n in fused_nodes] == chain_nodes


class TestFusedHeadAndLoss:
    @pytest.mark.parametrize("ablation", ABLATIONS)
    @pytest.mark.parametrize("quantifier", ["recurrent", "prior-mlp"])
    def test_training_steps_equal_the_per_op_chain(self, ablation, quantifier):
        """Four SGD steps at dropout_keep 0.9 from one seeded generator: every prediction,
        error and gradient equals the per-op prior stack, head and loss bit for bit.  The
        first set has no rival (a 0-row prior stack) and no tree node past the roots."""
        config, bundle = toy_bundle(seed=4, quantifier=quantifier, ablation=ablation, dropout_keep=0.9)
        contexts = bundle.train[:4]
        assert not contexts[0].rival_rows.size and contexts[0].tree.n_nodes == contexts[0].tree.n_roots
        assert any(ctx.tree.n_nodes > ctx.tree.n_roots for ctx in contexts)
        runs = []
        for fused in (True, False):
            model = GMEModel(bundle.encoder.feature_dim, config)
            rng = np.random.default_rng(0)
            steps = []
            for step, ctx in enumerate(contexts):
                with ad.Tape() as tape:
                    if fused:
                        result = model.forward(ctx, training=True, dropout_rng=rng)
                        pred, aux = result.pred, result.aux_pred
                        total, loss_p, loss_l = model.loss(result, ctx)
                    else:
                        pred, aux = oracles.taped_forward(model, ctx, rng)
                        total, loss_p, loss_l = oracles.taped_loss(model, pred, aux, ctx)
                ad.backward(tape, total)
                outputs = [pred.data, np.zeros(0) if aux is None else aux.data, total.data]
                steps.append((outputs, (loss_p, loss_l), [p.grad.copy() for p in model.parameters()]))
                ad.sgd_step(model.parameters(), 0.05, step)
            runs.append(steps)
        for (outputs, errors, grads), (chain_outputs, chain_errors, chain_grads) in zip(*runs):
            assert errors == chain_errors
            for a, b in zip(outputs + grads, chain_outputs + chain_grads):
                assert a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))

    @pytest.mark.parametrize("quantifier", ["recurrent", "prior-mlp"])
    def test_a_training_step_records_one_node_per_layer(self, monkeypatch, quantifier):
        """One `train_model` step records the quantifier, attention, roll-up, head and loss
        under `full`, and one or two nodes fewer under each ablation (the per-op prior
        stack, head and loss made it 28, 14 and 17 nodes with prior-mlp, 20, 6 and 17
        with recurrent)."""
        nodes = {}
        backward = ad.backward

        def counting(tape, loss):
            nodes[ablation] = len(tape)
            return backward(tape, loss)

        monkeypatch.setattr(ad, "backward", counting)
        for ablation in ABLATIONS:
            config, bundle = toy_bundle(seed=4, quantifier=quantifier, ablation=ablation)
            ctx = bundle.train[2]  # rivals and a node past the roots
            assert ctx.rival_rows.size and ctx.tree.n_nodes > ctx.tree.n_roots
            train_model(GMEModel(bundle.encoder.feature_dim, config), [ctx])
        assert nodes == {"full": 5, "pcm-only": 4, "met-only": 3}


class TestAblationConsistency:
    def test_all_variants_share_initial_parameters(self):
        config, bundle = toy_bundle(seed=1)
        models = [GMEModel(bundle.encoder.feature_dim,
                           dataclasses.replace(config, ablation=a)) for a in ABLATIONS]
        base = models[0].parameters()
        for other in models[1:]:
            for pa, pb in zip(base, other.parameters()):
                assert pa.name == pb.name
                np.testing.assert_array_equal(pa.data, pb.data)

    def test_full_prediction_differs_from_single_branches(self):
        config, bundle = toy_bundle(seed=1)
        ctx = bundle.train[0]
        preds = {}
        for a in ABLATIONS:
            model = GMEModel(bundle.encoder.feature_dim,
                             dataclasses.replace(config, ablation=a))
            preds[a] = model.predict(ctx)
        assert not np.allclose(preds["full"], preds["pcm-only"])
        assert not np.allclose(preds["full"], preds["met-only"])


class TestForwardGuards:
    def test_empty_target_set_rejected(self):
        config, bundle = toy_bundle()
        model = GMEModel(bundle.encoder.feature_dim, config)
        ctx = dataclasses.replace(bundle.train[0], target_rows=np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError, match="empty target set"):
            model.forward(ctx)

    def test_training_without_dropout_rng_rejected(self):
        config, bundle = toy_bundle(dropout_keep=0.9)
        model = GMEModel(bundle.encoder.feature_dim, config)
        with pytest.raises(ValueError, match="dropout rng"):
            model.forward(bundle.train[0], training=True)

    def test_dropout_only_active_in_training(self):
        config, bundle = toy_bundle(dropout_keep=0.5)
        model = GMEModel(bundle.encoder.feature_dim, config)
        ctx = bundle.train[0]
        still = model.forward(ctx).pred.data
        np.testing.assert_array_equal(model.forward(ctx).pred.data, still)
        rng = np.random.default_rng(0)
        dropped = model.forward(ctx, training=True, dropout_rng=rng).pred.data
        assert not np.array_equal(dropped, still)

    def test_keep_one_makes_training_match_inference(self):
        config, bundle = toy_bundle(dropout_keep=1.0)
        model = GMEModel(bundle.encoder.feature_dim, config)
        ctx = bundle.train[0]
        a = model.forward(ctx, training=True, dropout_rng=np.random.default_rng(0))
        np.testing.assert_array_equal(a.pred.data, model.forward(ctx).pred.data)


class TestLossAlgebra:
    def scalar_ctx(self):
        return SimpleNamespace(truths=np.array([0.7]),
                               aux_truths=np.array([2.0, 4.0]))

    def test_hand_computed_joint_loss(self):
        config, bundle = toy_bundle(eta=0.7)
        model = GMEModel(bundle.encoder.feature_dim, config)
        result = SimpleNamespace(pred=ad.Tensor(np.array([2.0])),
                                 aux_pred=ad.Tensor(np.array([1.0, 2.0])))
        out = model.loss(result, self.scalar_ctx())
        assert out.loss_p == pytest.approx(1.3, abs=1e-15)
        assert out.loss_l == pytest.approx(1.5, abs=1e-15)
        assert float(out.total.data) == pytest.approx(0.7 * 1.3 + 0.3 * 1.5, abs=1e-15)

    def test_competition_only_ignores_eta(self):
        config, bundle = toy_bundle(ablation="pcm-only", eta=0.7)
        model = GMEModel(bundle.encoder.feature_dim, config)
        result = SimpleNamespace(pred=ad.Tensor(np.array([2.0])), aux_pred=None)
        out = model.loss(result, self.scalar_ctx())
        assert float(out.total.data) == pytest.approx(1.3, abs=1e-15)
        assert out.loss_l == 0.0

    def test_bare_tree_keeps_eta_weight(self):
        config, bundle = toy_bundle(eta=0.7)
        model = GMEModel(bundle.encoder.feature_dim, config)
        result = SimpleNamespace(pred=ad.Tensor(np.array([2.0])), aux_pred=None)
        out = model.loss(result, self.scalar_ctx())
        assert float(out.total.data) == pytest.approx(0.7 * 1.3, abs=1e-15)
        assert out.loss_l == 0.0

    @pytest.mark.parametrize("eta,dead_param", [(1.0, "head.aux.w"), (0.0, "head.out.w")])
    def test_extreme_eta_silences_one_branch(self, eta, dead_param):
        config, bundle = toy_bundle(eta=eta)
        model = GMEModel(bundle.encoder.feature_dim, config)
        ctx = next(c for c in bundle.train
                   if c.tree.n_nodes > c.tree.n_roots and np.any(model.predict(c) > 0))
        with ad.Tape() as tape:
            out = model.loss(model.forward(ctx), ctx)
            ad.backward(tape, out.total)
        grads = {p.name: p.grad.copy() for p in model.parameters()}
        for p in model.parameters():
            p.zero_grad()
        assert np.all(grads[dead_param] == 0.0)


class TestParameterArena:
    def test_the_model_packs_its_parameters_once_for_good(self):
        """parameters() is one arena in checkpoint order; it cannot be packed again, and
        every view still sits in its buffers after load_state, warm_start_heads and training."""
        config, bundle = toy_bundle()
        model = GMEModel(bundle.encoder.feature_dim, config)
        params = model.parameters()
        assert isinstance(params, ad.Parameters) and params is model.parameters() and len(params) == 36
        assert params[0].name == "competition.recurrent.input_gate.wx" and params[-1] is model.aux_b
        with pytest.raises(ValueError, match="already held"):
            ad.Parameters(model.parameters())
        with pytest.raises(ValueError, match="'head.out.b'"):
            ad.Parameters([model.out_b])

        def in_buffers():
            for p in params:
                assert np.shares_memory(p.data, params.data) and np.shares_memory(p.grad, params.grad), p.name
            np.testing.assert_array_equal(params.data, np.concatenate([p.data.ravel() for p in params]))

        in_buffers()
        model.load_state({p.name: p.data + 0.5 for p in params})
        in_buffers()
        warm_start_heads(model, bundle.train)
        in_buffers()
        before = params.data.copy()
        train_model(model, bundle.train)
        in_buffers()
        assert not np.array_equal(params.data, before) and not params.grad.any()

    @pytest.mark.parametrize("where", ["first entry of a middle parameter",
                                       "last entry of the parameter before it",
                                       "inside a 2-D parameter"])
    def test_refusal_names_the_parameter_and_changes_nothing(self, where):
        config, bundle = toy_bundle()
        model = GMEModel(bundle.encoder.feature_dim, config)
        params = model.parameters()
        params.grad[...] = np.random.default_rng(1).normal(0, 1, params.grad.size)
        mid = len(params) // 2
        k, index, bad = {"first entry of a middle parameter": (mid, 0, np.nan),
                         "last entry of the parameter before it": (mid - 1, -1, np.inf),
                         "inside a 2-D parameter": (params.index(model.attention.w_value), 9, -np.inf)}[where]
        p = params[k]
        assert p.data.ndim == 2 or where != "inside a 2-D parameter"
        p.grad.reshape(-1)[index] = bad
        before = [(q.data.tobytes(), q.grad.tobytes()) for q in params]
        message = f"non-finite gradient in parameter {p.name!r} at step 7"
        with pytest.raises(ad.GradientError) as err:
            ad.sgd_step(params, 0.05, step=7)
        assert str(err.value) == message
        assert [(q.data.tobytes(), q.grad.tobytes()) for q in params] == before
        with pytest.raises(ad.GradientError) as err:  # the per-parameter reference agrees
            oracles.sgd_step(params, 0.05, step=7)
        assert str(err.value) == message

    def test_one_step_allocates_under_two_bytes_an_entry(self):
        """The finiteness mask takes one byte an entry; a float64 temporary over the
        gradients (data -= rate * grad) would take eight."""
        config, bundle = toy_bundle()
        model = GMEModel(bundle.encoder.feature_dim, dataclasses.replace(config, hidden=50))
        params = model.parameters()
        params.grad[...] = np.random.default_rng(2).normal(0, 1, params.grad.size)
        tracemalloc.start()  # numpy reports its buffers to it
        try:
            base = tracemalloc.get_traced_memory()[0]
            ad.sgd_step(params, 0.05, step=0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert params.data.size > 20_000
        assert peak < 2 * params.data.size, peak / params.data.size


class TestCheckpointing:
    def test_state_roundtrip_restores_exactly(self):
        config, bundle = toy_bundle(seed=2)
        model = GMEModel(bundle.encoder.feature_dim, config)
        ctx = bundle.train[0]
        before = model.predict(ctx)
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "ckpt.json"
            ad.save_checkpoint(path, model.parameters(), meta={"config": config.to_json()})
            for p in model.parameters():
                p.data += 0.25
            assert not np.allclose(model.predict(ctx), before)
            values, meta = ad.load_checkpoint(path)
            model.load_state(values)
            np.testing.assert_array_equal(model.predict(ctx), before)
            assert TrainConfig.from_json(meta["config"]) == config

    def test_name_mismatch_rejected(self):
        config, bundle = toy_bundle()
        model = GMEModel(bundle.encoder.feature_dim, config)
        values = {p.name: p.data for p in model.parameters()}
        values.pop("head.out.w")
        values["head.out.weirdness"] = np.zeros(3)
        with pytest.raises(ValueError, match="checkpoint mismatch"):
            model.load_state(values)

    def test_shape_mismatch_rejected(self):
        config, bundle = toy_bundle()
        model = GMEModel(bundle.encoder.feature_dim, config)
        values = {p.name: p.data.copy() for p in model.parameters()}
        values["head.out.w"] = np.zeros(model.config.hidden + 1)
        with pytest.raises(ValueError, match="head.out.w"):
            model.load_state(values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected_before_any_copy(self, bad):
        config, bundle = toy_bundle()
        model = GMEModel(bundle.encoder.feature_dim, config)
        before = [p.data.copy() for p in model.parameters()]
        values = {p.name: p.data + 1.0 for p in model.parameters()}
        values["head.proj.w"][0, 0] = bad
        with pytest.raises(ValueError, match=r"head\.proj\.w.*non-finite"):
            model.load_state(values)
        for p, old in zip(model.parameters(), before):
            np.testing.assert_array_equal(p.data, old)


def test_same_seed_builds_identical_models():
    config, bundle = toy_bundle(seed=11)
    a = GMEModel(bundle.encoder.feature_dim, config)
    b = GMEModel(bundle.encoder.feature_dim, config)
    for pa, pb in zip(a.parameters(), b.parameters()):
        np.testing.assert_array_equal(pa.data, pb.data)
    names = [p.name for p in a.parameters()]
    assert len(names) == len(set(names))
