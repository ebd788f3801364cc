"""Acceptance gate: ten verifiable properties of the assembled system.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and fails loudly if its stated tolerance is breached.
"""

import dataclasses
import itertools
import json
import time

import numpy as np

import oracles
from test_competition import make_project as make_cat_project
from test_evolution import (HOUR, T0, chain_fixture, make_project,
                            random_tree_inputs, scan_tree_invariants)

from gme import autodiff as ad
from gme import competition as comp
from gme.cli import main as cli_main
from gme.evolution import GatedTreeUpdater, build_propagation_tree
from gme.model import GMEModel, TrainConfig
from gme.synth import SynthConfig, generate_market
from gme.toy import TOY_ENCODER, build_toy_market, run_toy_gradchecks
from gme.training import (build_contexts, evaluate_model, evaluation_report,
                          fit_baseline, train_model)

GRADCHECK_LIMIT = 1e-4
ORACLE_ATOL = 1e-12


def _report(number, slug, ok, details):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {slug}: {verdict} ({details})")
    assert ok, f"criterion {number} {slug}: {details}"


def test_01_gradient_fidelity():
    started = time.perf_counter()
    results = run_toy_gradchecks(seed=0)
    elapsed = time.perf_counter() - started
    worst = max(r["max_rel_err"] for r in results)
    live = min(r["n_live_entries"] for r in results)
    ok = worst < GRADCHECK_LIMIT and elapsed < 60.0 and live > 0
    _report(1, "gradient-fidelity", ok,
            f"max rel err {worst:.3e} over {len(results)} variants, "
            f"min live entries {live}, {elapsed:.1f}s")


def test_02_tree_invariants():
    rng = np.random.default_rng(4242)
    markets = nodes = edges = 0
    for i in range(1000):
        targets, obs, t_h, tau = random_tree_inputs(rng, t_h=i % 7 + 1)
        tree = build_propagation_tree(targets, obs, t_h, tau)
        scan_tree_invariants(tree)
        markets += 1
        nodes += tree.n_nodes
        edges += int(tree.adjacency.sum())

    tree, _ = chain_fixture(tau=24, t_h=3)
    depth = {tree.node_ids[i]: int(tree.depth[i]) for i in range(tree.n_nodes)}
    fixture_ok = depth == {"g": 0, "a": 1, "b": 2}
    _report(2, "tree-invariants", markets == 1000 and fixture_ok,
            f"{markets} markets, {nodes} nodes, {edges} edges, 0 violations; "
            f"3-node fixture depths a=1 b=2: {fixture_ok}")


def test_03_one_touch_hierarchy():
    rng = np.random.default_rng(911)
    width = 5
    updater = GatedTreeUpdater(width, np.random.default_rng(1))
    trees = violations = updates = 0
    for _ in range(1000):
        targets, obs, t_h, tau = random_tree_inputs(rng)
        tree = build_propagation_tree(targets, obs, t_h, tau)
        states = rng.normal(0, 1, (tree.n_nodes, width))
        counts = updater.propagate(tree, ad.Tensor(states)).counts
        for i in range(tree.n_nodes):
            non_leaf = i < tree.n_roots or tree.adjacency[i].any()
            if counts[i] != (1 if non_leaf else 0):
                violations += 1
        trees += 1
        updates += int(counts.sum())
    _report(3, "one-touch-hierarchy", violations == 0,
            f"{trees} trees, {updates} node updates, {violations} violations")


def test_04_formula_oracle_equivalence():
    combos = list(itertools.product(("full", "pcm-only", "met-only"),
                                    ("recurrent", "prior-mlp")))
    instances = 0
    worst = 0.0
    for seed in range(10):
        market = build_toy_market(seed)
        base = TrainConfig(tau=24, t_h=3, hidden=6, seed=seed, epochs=1)
        bundle = build_contexts(market, base, encoder_overrides=dict(TOY_ENCODER))
        contexts = list(bundle.train) + list(bundle.test)
        for j in range(10):
            ablation, quantifier = combos[(seed * 10 + j) % len(combos)]
            cfg = dataclasses.replace(base, ablation=ablation,
                                      quantifier=quantifier, seed=seed * 10 + j)
            model = GMEModel(bundle.encoder.feature_dim, cfg)
            ctx = contexts[j % len(contexts)]
            got = model.predict(ctx)
            want = oracles.predict_target_set(model, ctx)
            worst = max(worst, float(np.max(np.abs(got - want), initial=0.0)))
            instances += 1
    _report(4, "formula-oracle-equivalence",
            instances == 100 and worst < ORACLE_ATOL,
            f"{instances} instances, max component diff {worst:.2e} < 1e-12")


def test_05_attention_normalization():
    rng = np.random.default_rng(77)
    feat, hidden = 6, 3
    attn = comp.AttentionAggregator(feat, hidden, np.random.default_rng(5))
    w, v = attn.w_score.data, attn.v.data
    sets = 0
    worst_sum = 0.0
    worst_shift = 0.0
    while sets < 10_000:
        n_t, n_r = 10, int(rng.integers(1, 9))
        xt = rng.normal(0, 1.5, (n_t, feat))
        xr = rng.normal(0, 1.5, (n_r, feat))
        states = ad.Tensor(rng.normal(0, 1, (n_r, hidden)))
        adjacency = (rng.random((n_t, n_r)) < 0.8).astype(np.uint8)
        adjacency[:, 0] = 1  # no empty neighborhoods in this sweep
        graph = comp.CompetitivenessGraph(
            tuple(f"t{i}" for i in range(n_t)),
            tuple(f"r{i}" for i in range(n_r)), adjacency, "cate-jf")
        _, weights = attn.forward(graph, xt, xr, states)
        for g in range(n_t):
            cols = np.nonzero(adjacency[g])[0]
            alpha = weights[g, cols]
            worst_sum = max(worst_sum, abs(float(alpha.sum()) - 1.0))
            scores = np.asarray([v @ np.concatenate([xt[g] @ w, xr[c] @ w])
                                 for c in cols])
            act = np.where(scores > 0, scores, 0.2 * scores)
            shift = float(rng.normal(0, 40))
            exp = np.exp(act + shift - (act + shift).max())
            shifted = exp / exp.sum()
            worst_shift = max(worst_shift, float(np.max(np.abs(shifted - alpha))))
            sets += 1
    ok = worst_sum < 1e-9 and worst_shift < 1e-12
    _report(5, "attention-normalization", ok,
            f"{sets} neighbor sets, worst |sum-1| {worst_sum:.2e} < 1e-9, "
            f"worst shift deviation {worst_shift:.2e} < 1e-12")


def test_06_pruning_algebra():
    rng = np.random.default_rng(606)
    base = 1_600_000_000
    cats = ["art", "games", "food", "tech"]
    markets = 0
    for _ in range(100):
        n_t, n_r = int(rng.integers(1, 6)), int(rng.integers(0, 40))
        targets = [make_cat_project(f"t{i}", base + int(rng.integers(0, 86400)),
                                    cat=cats[rng.integers(0, 4)])
                   for i in range(n_t)]
        rivals = [make_cat_project(f"r{i}", base - int(rng.integers(0, 9 * 86400)),
                                   cat=cats[rng.integers(0, 4)])
                  for i in range(n_r)]
        adj = {m: comp.build_competitiveness_graph(targets, rivals, m).adjacency
               for m in comp.PRUNING_MODES}
        assert np.array_equal(adj["cate-jf"], adj["cate"] | adj["jf"])
        assert np.all(adj["cate-jf"] <= adj["unpruned"])
        markets += 1
    _report(6, "pruning-algebra", markets == 100,
            f"{markets} markets, union and subset identities exact")


def test_07_signal_recovery():
    started = time.perf_counter()
    kinds = ("full", "pcm-only", "met-only", "mean", "linear", "mlp")
    maes = {k: [] for k in kinds}
    for seed in range(5):
        market, _ = generate_market(SynthConfig(n_projects=800, days=60,
                                                seed=seed, kappa=0.6))
        config = TrainConfig(tau=24, t_h=5, quantifier="prior-mlp", epochs=40,
                             dropout_keep=1.0, seed=seed)
        bundle = build_contexts(market, config)
        for ablation in ("full", "pcm-only", "met-only"):
            cfg = dataclasses.replace(config, ablation=ablation)
            model = GMEModel(bundle.encoder.feature_dim, cfg)
            train_model(model, bundle.train)
            maes[ablation].append(evaluate_model(model, bundle.test)["mae"])
        for kind in ("mean", "linear", "mlp"):
            predict = fit_baseline(kind, bundle.train, config)
            report = evaluation_report(bundle.test, predict, config.to_json())
            maes[kind].append(report["mae"])
    elapsed = time.perf_counter() - started
    mean = {k: float(np.mean(v)) for k, v in maes.items()}
    vs_linear = 1.0 - mean["full"] / mean["linear"]
    vs_mlp = 1.0 - mean["full"] / mean["mlp"]
    ok = (vs_linear >= 0.05 and vs_mlp >= 0.05
          and mean["full"] <= mean["pcm-only"]
          and mean["full"] <= mean["met-only"]
          and elapsed < 900.0)
    _report(7, "signal-recovery", ok,
            f"mean MAE full {mean['full']:.4f} | pcm-only {mean['pcm-only']:.4f} "
            f"met-only {mean['met-only']:.4f} | linear {mean['linear']:.4f} "
            f"mlp {mean['mlp']:.4f}; full beats linear by {100*vs_linear:.1f}% "
            f"and mlp by {100*vs_mlp:.1f}% (need >=5%); {elapsed:.0f}s < 900s")


def test_08_quantifier_wall_clock():
    market, _ = generate_market(SynthConfig(n_projects=120, days=20, seed=8))
    seconds = {}
    for quantifier in ("recurrent", "prior-mlp"):
        config = TrainConfig(tau=24, t_h=5, quantifier=quantifier, epochs=10, seed=8)
        bundle = build_contexts(market, config)
        model = GMEModel(bundle.encoder.feature_dim, config)
        history = train_model(model, bundle.train)
        seconds[quantifier] = float(np.mean([h.seconds for h in history]))
    ok = seconds["prior-mlp"] < seconds["recurrent"]
    _report(8, "quantifier-wall-clock", ok,
            f"mean epoch seconds prior-mlp {seconds['prior-mlp']:.3f} "
            f"< recurrent {seconds['recurrent']:.3f} over 10 epochs")


def test_09_metric_oracle():
    market = build_toy_market(3)
    config = TrainConfig(tau=24, t_h=3, hidden=6, seed=3, epochs=1)
    bundle = build_contexts(market, config, encoder_overrides=dict(TOY_ENCODER))
    model = GMEModel(bundle.encoder.feature_dim, config)
    train_model(model, bundle.train)
    report = evaluate_model(model, bundle.test)
    y = np.asarray([r["truth"] for r in report["predictions"]])
    yp = np.asarray([r["pred"] for r in report["predictions"]])
    exact = (report["mae"] == float(np.mean(np.abs(y - yp)))
             and report["rmse"] == float(np.sqrt(np.mean((y - yp) ** 2))))

    rng = np.random.default_rng(909)
    checked = 0
    ordered = True
    for _ in range(50):
        stub = {ctx.label: rng.normal(0, 2, len(ctx.target_ids))
                for ctx in bundle.test}
        rep = evaluation_report(bundle.test, lambda c: stub[c.label],
                                config.to_json())
        rows = rep["per_set"] + [{"mae": rep["mae"], "rmse": rep["rmse"]}]
        for row in rows:
            ordered = ordered and row["rmse"] >= row["mae"] >= 0.0
            checked += 1
    _report(9, "metric-oracle", exact and ordered,
            f"definitional recomputation exact: {exact}; "
            f"rmse >= mae on {checked} report rows")


def test_10_determinism(tmp_path):
    data = tmp_path / "market"
    assert cli_main(["synth", "--n", "90", "--days", "14", "--seed", "11",
                     "--out", str(data)]) == 0
    flags = ["--projects", str(data / "projects.jsonl"),
             "--investments", str(data / "investments.jsonl"),
             "--epochs", "2", "--hidden", "8", "--seed", "5"]
    outs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        assert cli_main(["train", *flags, "--out", str(out)]) == 0
        outs.append(out)
    a, b = outs
    same_ckpt = (a / "checkpoint.json").read_bytes() == (b / "checkpoint.json").read_bytes()
    same_report = (a / "eval_report.json").read_bytes() == (b / "eval_report.json").read_bytes()

    evald = tmp_path / "eval_rt"
    assert cli_main(["eval", "--projects", str(data / "projects.jsonl"),
                     "--investments", str(data / "investments.jsonl"),
                     "--checkpoint", str(a / "checkpoint.json"),
                     "--encoder", str(a / "encoder.json"),
                     "--out", str(evald)]) == 0
    roundtrip = (evald / "eval_report.json").read_bytes() == \
        (a / "eval_report.json").read_bytes()
    ok = same_ckpt and same_report and roundtrip
    _report(10, "determinism", ok,
            f"checkpoint bytes equal: {same_ckpt}, report bytes equal: "
            f"{same_report}, eval roundtrip equal: {roundtrip}")
