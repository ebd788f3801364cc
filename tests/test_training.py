"""Trainer tests: context building, the loop, evaluation metrics, baselines."""

import dataclasses
import json

import numpy as np
import pytest

import oracles
from gme import autodiff as ad
from gme import data as gd
from gme import training as gt
from gme.competition import PRUNING_MODES, build_competitiveness_graph
from gme.data import DAY, HOUR, InvestmentEvent, Market, ProjectRecord
from gme.model import ABLATIONS, QUANTIFIERS, GMEModel, TrainConfig
from gme.synth import SynthConfig, generate_market
from gme.toy import TOY_ENCODER, build_toy_market
from gme.training import (BASELINES, build_contexts, evaluate_model, evaluation_report,
                          fit_baseline, train_model)


def toy_setup(seed=0, **config_kw):
    kw = dict(tau=24, t_h=3, hidden=6, seed=seed, epochs=2)
    kw.update(config_kw)
    config = TrainConfig(**kw)
    market = build_toy_market(seed)
    bundle = build_contexts(market, config, encoder_overrides=dict(TOY_ENCODER))
    return config, market, bundle


class TestContextBuilding:
    def test_split_is_chronological_and_five_sixths(self):
        config, market, bundle = toy_setup()
        sets = gd.segment_target_sets(market, config.tz_offset)
        assert len(bundle.train) == int(len(sets) * 5 / 6)
        assert len(bundle.train) + len(bundle.test) == len(sets)
        last_train = bundle.train[-1].observation_time
        assert all(c.observation_time > last_train for c in bundle.test)

    def test_encoder_vocab_comes_from_train_span_only(self):
        base = 1_600_000_000
        projects, events = [], []
        for i in range(10):
            cat = "zzz-late" if i >= 8 else "art"
            projects.append(ProjectRecord(
                id=f"p{i}", published_time=base + i * DAY, category=cat,
                creator_type="individual", currency="USD", duration_days=14,
                goal=200.0, text="x"))
            events.append(InvestmentEvent(f"p{i}", base + i * DAY + HOUR, 5.0))
        market = Market(projects, events)
        bundle = build_contexts(market, TrainConfig(t_h=2))
        assert "zzz-late" not in bundle.encoder.categories
        assert "art" in bundle.encoder.categories

    def test_rivals_exclude_the_targets_themselves(self):
        _, _, bundle = toy_setup()
        for ctx in (*bundle.train, *bundle.test):
            assert not set(ctx.target_ids) & set(ctx.rival_ids)

    def test_rival_series_matches_direct_computation(self):
        _, market, bundle = toy_setup()
        ctx = next(c for c in bundle.train if c.rival_ids)
        for row, pid in zip(ctx.rival_series, ctx.rival_ids):
            np.testing.assert_array_equal(
                row, gd.hourly_series(market, [market.row[pid]], ctx.observation_time)[0])

    def test_aux_truths_match_definition(self):
        config, market, bundle = toy_setup()
        ctx = next(c for c in bundle.train if c.tree.n_nodes > c.tree.n_roots)
        for offset, p in enumerate(market.projects[ctx.tree.rows[ctx.tree.n_roots:]]):
            lo = ctx.observation_time
            log = market.log(p.id)
            raised = log.amounts[(log.times >= lo) & (log.times < lo + config.tau * HOUR)].sum()
            assert ctx.aux_truths[offset] == pytest.approx(np.log2(1 + raised), abs=1e-12)

    def test_truths_are_goal_normalized_early_ratios(self):
        config, market, bundle = toy_setup()
        ctx = bundle.train[0]
        for pid, truth in zip(ctx.target_ids, ctx.truths):
            p = market.projects[market.row[pid]]
            log = market.log(pid)
            raised = log.amounts[log.times < p.published_time + config.tau * HOUR].sum()
            assert truth == pytest.approx(np.log2(1 + raised / p.goal), abs=1e-12)

    def test_feature_inputs_are_rows_of_one_shared_matrix(self):
        config, market, bundle = toy_setup()
        features = bundle.encoder.encode(market.projects)

        def rows(ids):
            return [market.row[pid] for pid in ids]

        for ctx in (*bundle.train, *bundle.test):
            assert ctx.features is bundle.train[0].features
            np.testing.assert_array_equal(ctx.features, features)
            np.testing.assert_array_equal(ctx.target_features, features[rows(ctx.target_ids)])
            np.testing.assert_array_equal(
                ctx.rival_features, features[rows(ctx.rival_ids)].reshape(-1, features.shape[1]))
            observables = gd.observable_set(market, ctx.observation_time, config.t_h, config.tau)
            nodes, n_roots = ctx.tree.rows, ctx.tree.n_roots
            np.testing.assert_array_equal(nodes[:n_roots], rows(ctx.target_ids))
            assert np.isin(nodes[n_roots:], observables).all()
            np.testing.assert_array_equal(ctx.tree_init[:, :-1], features[nodes])
            amounts = gd.early_stage_amount(market, nodes[n_roots:], config.tau)
            np.testing.assert_array_equal(ctx.tree_init[:, -1], np.r_[np.zeros(n_roots), amounts])

    def test_rebuild_produces_identical_contexts(self):
        config, market, _ = toy_setup()
        a = build_contexts(market, config, encoder_overrides=dict(TOY_ENCODER))
        b = build_contexts(market, config, encoder_overrides=dict(TOY_ENCODER))
        for ca, cb in zip(a.train, b.train):
            assert ca.target_ids == cb.target_ids
            np.testing.assert_array_equal(ca.tree_init, cb.tree_init)
            np.testing.assert_array_equal(ca.graph.adjacency, cb.graph.adjacency)

    def test_single_set_market_rejected(self):
        p = ProjectRecord(id="only", published_time=1_600_000_000, category="art",
                          creator_type="individual", currency="USD",
                          duration_days=7, goal=100.0, text="x")
        with pytest.raises(gd.DataError, match="target sets"):
            build_contexts(Market([p], []), TrainConfig())


@pytest.fixture(scope="module")
def synth_contexts():
    market, _ = generate_market(SynthConfig(n_projects=240, days=16, seed=2))
    return market, build_contexts(market, TrainConfig(t_h=3))


def test_contexts_hold_edges_bins_and_the_records_ids(synth_contexts):
    """No tree or context stores an n x n array, and no tree array has n^2 entries;
    trends take one byte per rival; a project is held as its market row, and the
    ids read through the rows are the records' own strings, not copies."""
    market, bundle = synth_contexts
    contexts = (*bundle.train, *bundle.test)
    assert max(c.tree.n_nodes for c in contexts) >= 20
    for ctx in contexts:
        tree, n = ctx.tree, ctx.tree.n_nodes
        assert ctx.projects is market.projects
        for owner in (ctx, ctx.graph, tree):
            for f in dataclasses.fields(owner):
                value = getattr(owner, f.name)
                if isinstance(value, np.ndarray) and n > 1 and owner is not ctx.graph:
                    assert value.shape[-2:] != (n, n), f.name
                    assert owner is ctx or value.size < n * n, f.name
                if (owner, f.name) != (tree, "dropped_ids"):  # no per-project id tuple
                    assert not isinstance(value, (tuple, list)), f.name
                    assert not (isinstance(value, np.ndarray) and value.dtype.kind in "OUS"
                                and value is not market.projects), f.name
        assert ctx.rival_trend_bins.nbytes == ctx.rival_rows.size
        assert {ctx.target_rows.dtype, ctx.rival_rows.dtype, tree.rows.dtype} == {np.dtype(np.int32)}
        for ids, rows in ((ctx.target_ids, ctx.target_rows), (ctx.rival_ids, ctx.rival_rows)):
            assert type(ids) is tuple and len(ids) == rows.size
            assert all(pid is market.projects[r].id for pid, r in zip(ids, rows))
        assert all(pid is market.projects[market.row[pid]].id for pid in tree.dropped_ids)
        assert not set(tree.dropped_ids) & {p.id for p in market.projects[tree.rows]}


@pytest.mark.parametrize("bins", [6])
def test_rival_trends_are_one_hot_rows_of_the_bins(synth_contexts, bins):
    market, _ = synth_contexts
    bundle = build_contexts(market, TrainConfig(t_h=2))
    for ctx in (*bundle.train, *bundle.test):
        index = gd.prior_trend(market, ctx.rival_rows, ctx.observation_time)[1]
        np.testing.assert_array_equal(ctx.rival_trend_bins, index)
        assert ctx.rival_trend_bins.itemsize == 1
        trends = ctx.rival_trends
        assert trends.dtype == np.float64 and trends.shape == (ctx.rival_rows.size, bins)
        assert np.array_equal(trends, np.eye(bins)[index])


def every_running_rival(market, ctx, pruning):
    """The rows of the running projects outside ctx's set, and their graph under `pruning`."""
    running = gd.running_set(market, ctx.observation_time)
    rows = running[~np.isin(running, ctx.target_rows)]
    return rows, build_competitiveness_graph(ctx.target_rows, rows, pruning, market=market)


@pytest.mark.parametrize("pruning", PRUNING_MODES)
def test_contexts_hold_exactly_the_rivals_with_an_edge(pruning):
    config, market, bundle = toy_setup(pruning=pruning)
    dropped = 0
    for ctx in (*bundle.train, *bundle.test):
        rows, graph = every_running_rival(market, ctx, pruning)
        held = np.isin(rows, ctx.rival_rows)
        assert graph.adjacency[:, held].any(axis=0).all()  # every rival held has an edge
        assert not graph.adjacency[:, ~held].any()  # every rival left out has none
        np.testing.assert_array_equal(ctx.rival_rows, rows[held])
        np.testing.assert_array_equal(ctx.graph.adjacency, graph.adjacency[:, held])
        np.testing.assert_array_equal(
            ctx.rival_series, gd.hourly_series(market, rows[held], ctx.observation_time))
        dropped += np.count_nonzero(~held)
    assert (dropped == 0) == (pruning == "unpruned")


@pytest.mark.parametrize("quantifier", QUANTIFIERS)
@pytest.mark.parametrize("ablation", ABLATIONS)
def test_rivals_without_an_edge_change_no_prediction_or_gradient(quantifier, ablation):
    """Put the dropped rivals back into each context: predictions and every parameter's
    gradient agree within 1e-12, and bit for bit when the rivals are not read."""
    config, market, bundle = toy_setup(quantifier=quantifier, ablation=ablation, epochs=2)
    model = GMEModel(bundle.encoder.feature_dim, config)
    train_model(model, bundle.train)
    params = model.parameters()

    def scored(ctx):
        with ad.Tape() as tape:
            result = model.forward(ctx)
            ad.backward(tape, model.loss(result, ctx).total)
        grads = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
        for p in params:
            p.zero_grad()
        return result.pred.data, grads, result.attention

    widened = reached = 0
    for ctx in (*bundle.train, *bundle.test):
        rows, graph = every_running_rival(market, ctx, config.pruning)
        t = ctx.observation_time
        full = dataclasses.replace(
            ctx, rival_rows=rows, rival_series=gd.hourly_series(market, rows, t),
            rival_trend_bins=gd.prior_trend(market, rows, t)[1], graph=graph)
        widened += len(rows) > len(ctx.rival_rows)
        (pred, grads, alpha), (pred_full, grads_full, alpha_full) = scored(ctx), scored(full)
        reached += any(np.any(g) for p, g in zip(params, grads) if p.name.startswith("competition."))
        if ablation == "met-only":
            assert pred.tobytes() == pred_full.tobytes()
            assert all(g.tobytes() == h.tobytes() for g, h in zip(grads, grads_full))
            continue
        np.testing.assert_allclose(pred, pred_full, rtol=0, atol=1e-12)
        for p, g, h in zip(params, grads, grads_full):
            np.testing.assert_allclose(g, h, rtol=0, atol=1e-12, err_msg=p.name)
        held = np.isin(rows, ctx.rival_rows)
        np.testing.assert_allclose(alpha, alpha_full[:, held], rtol=0, atol=1e-12)
        assert not alpha_full[:, ~held].any()
    assert widened > 0
    assert (reached > 0) == (ablation != "met-only")  # gradients reach the rival branch


def test_build_contexts_calls_graph_series_and_trend_once_per_context(monkeypatch):
    """perfbench's tracer reads these calls: one each per context, the graph over
    every running project outside the set, and the tree builder returning the tree
    itself, whose counts it reads.  Its observers take the builders' positional
    arguments and read the len() of the row arrays among them, so each builder gets
    exactly its row arrays and settings by position and the market by keyword."""
    calls = {"graph": [], "series": 0, "trend": 0, "tree": []}
    graph, series, trend = gt.build_competitiveness_graph, gd.hourly_series, gd.prior_trend
    tree = gt.build_propagation_tree

    def counted_graph(*args, **kwargs):
        assert len(args) == 3 and set(kwargs) == {"market"}
        calls["graph"].append((args, kwargs["market"]))
        return graph(*args, **kwargs)

    def counted_tree(*args, **kwargs):
        assert len(args) == 4 and set(kwargs) == {"market"}
        calls["tree"].append((args, kwargs["market"], tree(*args, **kwargs)))
        return calls["tree"][-1][-1]

    def counter(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(gt, "build_competitiveness_graph", counted_graph)
    monkeypatch.setattr(gd, "hourly_series", counter("series", series))
    monkeypatch.setattr(gd, "prior_trend", counter("trend", trend))
    monkeypatch.setattr(gt, "build_propagation_tree", counted_tree)
    config, market, bundle = toy_setup(pruning="cate")
    contexts = (*bundle.train, *bundle.test)
    assert len(calls["graph"]) == calls["series"] == calls["trend"] == len(contexts)
    assert len(calls["tree"]) == len(contexts)
    for (graph_args, graph_market), (tree_args, tree_market, built), ctx in zip(
            calls["graph"], calls["tree"], contexts):
        (targets, rivals, mode), (roots, observables, t_h, tau) = graph_args, tree_args
        assert graph_market is market and tree_market is market
        assert (mode, t_h, tau) == ("cate", config.t_h, config.tau)
        running = gd.running_set(market, ctx.observation_time)
        outside = running[~np.isin(running, ctx.target_rows)]
        candidates = gd.observable_set(market, ctx.observation_time, config.t_h, config.tau)
        for given, want in ((targets, ctx.target_rows), (rivals, outside),
                            (roots, ctx.target_rows), (observables, candidates)):
            assert len(given) == len(want)
            np.testing.assert_array_equal(given, want)
        assert built is ctx.tree
        for name in ("n_nodes", "n_roots", "max_depth"):
            assert type(getattr(built, name)) is int, name
        assert type(built.dropped_ids) is tuple
        assert built.node_times.shape == built.depth.shape == (built.n_nodes,)
    assert sum(len(args[1]) for args, _ in calls["graph"]) > sum(c.rival_rows.size for c in contexts)


class TestTrainLoop:
    def test_loss_goes_down_on_the_toy_market(self):
        config, _, bundle = toy_setup(epochs=8)
        model = GMEModel(bundle.encoder.feature_dim, config)
        history = train_model(model, bundle.train)
        assert len(history) == 8
        first = history[0].loss_p + history[0].loss_l
        last = history[-1].loss_p + history[-1].loss_l
        assert last < first

    def test_training_is_bitwise_deterministic(self):
        config, _, bundle = toy_setup(epochs=3)
        runs = []
        for _ in range(2):
            model = GMEModel(bundle.encoder.feature_dim, config)
            history = train_model(model, bundle.train)
            runs.append((model, [(h.epoch, h.loss_p, h.loss_l) for h in history]))
        (ma, ha), (mb, hb) = runs
        assert ha == hb
        for pa, pb in zip(ma.parameters(), mb.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_warm_start_sets_mean_bias_and_zero_weights(self):
        from gme.training import warm_start_heads
        config, _, bundle = toy_setup()
        model = GMEModel(bundle.encoder.feature_dim, config)
        warm_start_heads(model, bundle.train)
        truths = np.concatenate([c.truths for c in bundle.train])
        aux = np.concatenate([c.aux_truths for c in bundle.train
                              if c.aux_truths.size])
        np.testing.assert_array_equal(model.out_w.data, 0.0)
        np.testing.assert_array_equal(model.aux_w.data, 0.0)
        assert model.out_b.data[0] == float(np.mean(truths))
        assert model.aux_b.data[0] == float(np.mean(aux))

    def test_zero_epochs_touch_nothing(self):
        config, _, bundle = toy_setup(epochs=0)
        model = GMEModel(bundle.encoder.feature_dim, config)
        before = [p.data.copy() for p in model.parameters()]
        assert train_model(model, bundle.train) == []
        for p, b in zip(model.parameters(), before):
            np.testing.assert_array_equal(p.data, b)

    def test_empty_context_list_rejected(self):
        config, _, bundle = toy_setup()
        model = GMEModel(bundle.encoder.feature_dim, config)
        with pytest.raises(ValueError, match="no training contexts"):
            train_model(model, [])

    def test_epoch_stats_are_mean_per_set_losses(self):
        """Two epochs replayed by hand at `config.rate(epoch)`: the same per-epoch mean
        losses, and the same trained parameters bit for bit, so the rate decays once an
        epoch."""
        config, _, bundle = toy_setup(epochs=2, dropout_keep=1.0, lr_decay=0.5)
        model = GMEModel(bundle.encoder.feature_dim, config)
        probe = GMEModel(bundle.encoder.feature_dim, config)
        history = train_model(model, bundle.train)
        # replay the same passes by hand on the twin model
        from gme.training import warm_start_heads
        warm_start_heads(probe, bundle.train)
        params = probe.parameters()
        step = 0
        for epoch in range(config.epochs):
            manual = []
            for ctx in bundle.train:
                with ad.Tape() as tape:
                    losses = probe.loss(probe.forward(ctx, training=True,
                                                      dropout_rng=None), ctx)
                    ad.backward(tape, losses.total)
                ad.sgd_step(params, config.rate(epoch), step)
                step += 1
                manual.append((losses.loss_p, losses.loss_l))
            lp = float(np.mean([m[0] for m in manual]))
            ll = float(np.mean([m[1] for m in manual]))
            assert history[epoch].loss_p == pytest.approx(lp, abs=1e-12)
            assert history[epoch].loss_l == pytest.approx(ll, abs=1e-12)
        for trained, replayed in zip(model.parameters(), params):
            np.testing.assert_array_equal(trained.data, replayed.data, err_msg=trained.name)

    @pytest.mark.parametrize("quantifier,ablation", [("prior-mlp", "full"), ("recurrent", "met-only")])
    def test_training_equals_a_replay_with_the_per_parameter_update(self, quantifier, ablation):
        """train_model's one arena update per step leaves every parameter where the
        per-parameter reference update leaves a twin replayed by hand, bit for bit,
        with dropout drawn from the same generator."""
        config, _, bundle = toy_setup(quantifier=quantifier, ablation=ablation, dropout_keep=0.9)
        model = GMEModel(bundle.encoder.feature_dim, config)
        twin = GMEModel(bundle.encoder.feature_dim, config)
        start = model.parameters().data.copy()
        train_model(model, bundle.train)
        gt.warm_start_heads(twin, bundle.train)
        rng = ad.derive_rng(config.seed, "dropout")
        step = 0
        for epoch in range(config.epochs):
            for ctx in bundle.train:
                with ad.Tape() as tape:
                    losses = twin.loss(twin.forward(ctx, training=True, dropout_rng=rng), ctx)
                ad.backward(tape, losses.total)
                oracles.sgd_step(list(twin.parameters()), config.rate(epoch), step)
                step += 1
        assert not np.array_equal(model.parameters().data, start)
        for trained, replayed in zip(model.parameters(), twin.parameters()):
            assert trained.data.tobytes() == replayed.data.tobytes(), trained.name
            assert not trained.grad.any() and not replayed.grad.any(), trained.name


class TestEvaluation:
    def test_metrics_are_the_definitional_formulas(self):
        config, _, bundle = toy_setup(epochs=1)
        model = GMEModel(bundle.encoder.feature_dim, config)
        train_model(model, bundle.train)
        report = evaluate_model(model, bundle.test)
        y = np.asarray([r["truth"] for r in report["predictions"]])
        yp = np.asarray([r["pred"] for r in report["predictions"]])
        assert report["mae"] == float(np.mean(np.abs(y - yp)))
        assert report["rmse"] == float(np.sqrt(np.mean((y - yp) ** 2)))
        assert report["rmse"] >= report["mae"]
        assert report["n_targets"] == sum(s["n_targets"] for s in report["per_set"])

    def test_report_is_json_serializable_and_stable(self):
        config, _, bundle = toy_setup(epochs=1)
        model = GMEModel(bundle.encoder.feature_dim, config)
        train_model(model, bundle.train)
        a = json.dumps(evaluate_model(model, bundle.test), indent=1)
        b = json.dumps(evaluate_model(model, bundle.test), indent=1)
        assert a == b

    def test_wrong_prediction_shape_rejected(self):
        _, _, bundle = toy_setup()
        with pytest.raises(ValueError, match="predictor returned"):
            evaluation_report(bundle.test, lambda ctx: np.zeros(99), {})

    def test_empty_context_list_rejected(self):
        with pytest.raises(ValueError, match="no contexts"):
            evaluation_report([], lambda ctx: np.zeros(1), {})


class TestBaselines:
    def test_mean_baseline_predicts_train_mean(self):
        config, _, bundle = toy_setup()
        predict = fit_baseline("mean", bundle.train, config)
        want = float(np.mean(np.concatenate([c.truths for c in bundle.train])))
        np.testing.assert_array_equal(predict(bundle.test[0]),
                                      np.full(len(bundle.test[0].target_ids), want))

    def test_linear_baseline_recovers_exact_linear_signal(self):
        config, _, bundle = toy_setup()
        rng = np.random.default_rng(17)
        dim = bundle.train[0].target_features.shape[1]
        w0, c0 = rng.normal(0, 1, dim), 0.8

        def relabel(ctx):
            return dataclasses.replace(ctx, truths=ctx.target_features @ w0 + c0)

        train = [relabel(c) for c in bundle.train]
        test = [relabel(c) for c in bundle.test]
        predict = fit_baseline("linear", train, config)
        for ctx in test:
            np.testing.assert_allclose(predict(ctx), ctx.truths, atol=1e-8)

    def test_mlp_baseline_trains_and_is_deterministic(self):
        config, _, bundle = toy_setup(epochs=2)
        a = fit_baseline("mlp", bundle.train, config)
        b = fit_baseline("mlp", bundle.train, config)
        for ctx in bundle.test:
            pa, pb = a(ctx), b(ctx)
            assert np.all(np.isfinite(pa))
            np.testing.assert_array_equal(pa, pb)

    def test_unknown_baseline_rejected(self):
        config, _, bundle = toy_setup()
        with pytest.raises(ValueError, match="baseline"):
            fit_baseline("boost", bundle.train, config)

    def test_baseline_names_are_stable(self):
        assert BASELINES == ("mean", "linear", "mlp")
