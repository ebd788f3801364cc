"""Competitiveness-module tests: pruning algebra, quantifiers, attention oracle."""

import numpy as np
import pytest

import oracles
from gme import autodiff as ad
from gme import competition as comp
from gme.data import DAY, Market, ProjectRecord


def make_project(pid, t, cat="art"):
    return ProjectRecord(id=pid, published_time=t, category=cat, creator_type="individual",
                         currency="USD", duration_days=30, goal=100.0, text="x")


def graph_of(targets, rivals, mode):
    """The graph over a market of exactly `targets` and `rivals`, given as its rows."""
    market = Market([*targets, *rivals], [])

    def rows(records):
        return np.array([market.row[p.id] for p in records], dtype=np.intp)

    return comp.build_competitiveness_graph(rows(targets), rows(rivals), mode, market=market)


class TestPruning:
    BASE = 10_000_000

    def graph(self, mode, target, rivals):
        return graph_of([target], rivals, mode)

    def test_gap_two_days_different_category_connects(self):
        target = make_project("t", self.BASE, cat="art")
        rival = make_project("r", self.BASE - 2 * DAY, cat="games")
        g = self.graph("cate-jf", target, [rival])
        assert g.adjacency[0, 0] == 1

    def test_gap_four_days_same_category_connects(self):
        target = make_project("t", self.BASE, cat="art")
        rival = make_project("r", self.BASE - 4 * DAY, cat="art")
        assert self.graph("cate-jf", target, [rival]).adjacency[0, 0] == 1

    def test_gap_four_days_different_category_disconnects(self):
        target = make_project("t", self.BASE, cat="art")
        rival = make_project("r", self.BASE - 4 * DAY, cat="games")
        assert self.graph("cate-jf", target, [rival]).adjacency[0, 0] == 0

    def test_three_day_boundary_inclusive(self):
        target = make_project("t", self.BASE, cat="art")
        at_edge = make_project("r", self.BASE - 3 * DAY, cat="games")
        past_edge = make_project("r2", self.BASE - 3 * DAY - 1, cat="games")
        g = self.graph("jf", target, [at_edge, past_edge])
        assert g.adjacency[0, 0] == 1 and g.adjacency[0, 1] == 0

    def test_unpruned_connects_everything(self):
        target = make_project("t", self.BASE)
        rivals = [make_project(f"r{i}", self.BASE - i * DAY, cat="games") for i in range(1, 6)]
        g = self.graph("unpruned", target, rivals)
        assert g.adjacency.all()

    def test_empty_rival_set_keeps_shape(self):
        targets = [make_project(f"t{i}", self.BASE + i) for i in range(3)]
        for mode in comp.PRUNING_MODES:
            adjacency = graph_of(targets, [], mode).adjacency
            assert adjacency.shape == (3, 0) and adjacency.dtype == np.uint8, mode

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            self.graph("bogus", make_project("t", self.BASE), [])

    def test_edge_algebra_on_random_markets(self):
        rng = np.random.default_rng(202)
        for _ in range(120):
            n_t, n_r = int(rng.integers(1, 5)), int(rng.integers(0, 25))
            cats = ["art", "games", "food", "tech"]
            targets = [make_project(f"t{i}", self.BASE + int(rng.integers(0, DAY)),
                                    cat=cats[rng.integers(0, 4)]) for i in range(n_t)]
            rivals = [make_project(f"r{i}", self.BASE - int(rng.integers(0, 9 * DAY)),
                                   cat=cats[rng.integers(0, 4)]) for i in range(n_r)]
            adj = {m: graph_of(targets, rivals, m).adjacency
                   for m in comp.PRUNING_MODES}
            assert np.array_equal(adj["cate-jf"], adj["cate"] | adj["jf"])
            assert np.all(adj["cate-jf"] <= adj["unpruned"])
            assert np.all(adj["cate"] <= adj["cate-jf"])
            assert np.all(adj["jf"] <= adj["cate-jf"])


class TestRecurrentQuantifier:
    def test_zero_params_zero_input_fixed_point(self):
        q = comp.RecurrentQuantifier(4, np.random.default_rng(0))
        for p in q.parameters():
            p.data[...] = 0.0
        out = q.forward(np.zeros((3, 24)))
        np.testing.assert_array_equal(out.data, np.zeros((3, 4)))

    def test_single_step_matches_gate_arithmetic(self):
        # hidden width 1, one step: every gate value has a closed form
        q = comp.RecurrentQuantifier(1, np.random.default_rng(1))
        wi, wf, wo, wg = 0.3, -0.2, 0.5, 0.8
        for params, w in zip((q.input_gate, q.forget_gate, q.output_gate, q.candidate),
                             (wi, wf, wo, wg)):
            params[0].data[...] = w   # wx
            params[1].data[...] = 0.0  # uh
            params[2].data[...] = 0.1  # b
        x = 2.0
        series = np.full((1, 1), x)
        got = float(q.forward(series).data[0, 0])

        def sig(z):
            return 1.0 / (1.0 + np.exp(-z))

        i = sig(wi * x + 0.1)
        f = sig(wf * x + 0.1)
        o = sig(wo * x + 0.1)
        g = np.tanh(wg * x + 0.1)
        want = o * np.tanh(i * g)  # initial cell is zero so f drops out
        assert got == pytest.approx(want, abs=1e-12)

    def test_batch_rows_match_single_rows(self):
        q = comp.RecurrentQuantifier(6, np.random.default_rng(5))
        rng = np.random.default_rng(9)
        series = rng.uniform(0, 6, (5, 24))
        batch = q.forward(series).data
        for row in range(5):
            single = q.forward(series[row:row + 1]).data[0]
            np.testing.assert_allclose(batch[row], single, atol=1e-12)

    def test_forward_is_one_tape_node_and_untaped_states_agree(self):
        q = comp.RecurrentQuantifier(4, np.random.default_rng(2))
        series = np.random.default_rng(3).uniform(0, 6, (5, 24))
        with ad.Tape() as tape:
            taped = q.forward(series)
        assert len(tape) == 1
        untaped = q.forward(series)  # reuses one step's buffers instead of keeping all 24
        assert np.array_equal(untaped.data, taped.data)

    def test_deterministic_construction(self):
        a = comp.RecurrentQuantifier(4, ad.derive_rng(3, "q"))
        b = comp.RecurrentQuantifier(4, ad.derive_rng(3, "q"))
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa.data, pb.data)


class TestPriorQuantifier:
    def test_zero_weights_zero_state(self):
        q = comp.PriorQuantifier(5, np.random.default_rng(0))
        for w, b in q.layers:
            w.data[...] = 0.0
            b.data[...] = 0.0
        rng = np.random.default_rng(4)
        out = q.forward(rng.uniform(0, 5, (4, 30)))
        np.testing.assert_array_equal(out.data, np.zeros((4, 5)))

    def test_trend_bins_distinguish_equal_series(self):
        q = comp.PriorQuantifier(8, np.random.default_rng(11))
        series = np.random.default_rng(2).uniform(0, 4, 24)
        a = np.concatenate([series, np.eye(6)[0]])
        b = np.concatenate([series, np.eye(6)[4]])
        out = q.forward(np.stack([a, b])).data
        assert not np.allclose(out[0], out[1])

    def test_rows_are_independent_of_batch_order(self):
        q = comp.PriorQuantifier(7, np.random.default_rng(21))
        rng = np.random.default_rng(22)
        inputs = rng.uniform(0, 3, (6, 30))
        perm = rng.permutation(6)
        np.testing.assert_allclose(
            q.forward(inputs).data[perm], q.forward(inputs[perm]).data, atol=1e-12)

    def test_input_width_checked(self):
        q = comp.PriorQuantifier(4, np.random.default_rng(0))
        with pytest.raises(ad.ShapeError, match="width"):
            q.forward(np.zeros((2, 29)))


def _attention_fixture(n_targets=2, n_rivals=5, feat=9, hidden=4, seed=33, adjacency=None):
    rng = np.random.default_rng(seed)
    attn = comp.AttentionAggregator(feat, hidden, np.random.default_rng(seed + 1))
    xt = rng.normal(0, 1, (n_targets, feat))
    xr = rng.normal(0, 1, (n_rivals, feat))
    states = ad.Tensor(rng.normal(0, 1, (n_rivals, hidden)))
    if adjacency is None:
        adjacency = (rng.random((n_targets, n_rivals)) < 0.7).astype(np.uint8)
    graph = comp.CompetitivenessGraph(adjacency)
    return attn, graph, xt, xr, states


class TestAttention:
    def test_single_neighbor_gets_full_weight(self):
        adj = np.zeros((1, 3), dtype=np.uint8)
        adj[0, 1] = 1
        attn, graph, xt, xr, states = _attention_fixture(1, 3, adjacency=adj)
        pooled, weights = attn.forward(graph, xt, xr, states)
        np.testing.assert_allclose(weights, [[0.0, 1.0, 0.0]], atol=1e-15)
        want = states.data[1] @ attn.w_value.data
        np.testing.assert_allclose(pooled.data[0], want, atol=1e-12)

    def test_identical_neighbors_split_evenly(self):
        adj = np.ones((1, 2), dtype=np.uint8)
        attn, graph, xt, xr, states = _attention_fixture(1, 2, adjacency=adj)
        xr[1] = xr[0]
        pooled, weights = attn.forward(graph, xt, xr, states)
        np.testing.assert_allclose(weights, [[0.5, 0.5]], atol=1e-12)

    def test_isolated_target_uses_own_embedding(self):
        # target 0 has no neighbours, target 1 attends; also with no rivals at all
        for n_rivals, adj in ((2, np.asarray([[0, 0], [1, 1]], dtype=np.uint8)),
                              (0, np.zeros((2, 0), dtype=np.uint8))):
            attn, graph, xt, xr, states = _attention_fixture(2, n_rivals, adjacency=adj)
            pooled, weights = attn.forward(graph, xt, xr, states)
            np.testing.assert_array_equal(weights[0], np.zeros(n_rivals))
            own = xt @ attn.w_embed.data + attn.b_embed.data
            np.testing.assert_allclose(pooled.data[0], own[0], atol=1e-12)
            if n_rivals:
                pooled_1 = weights[1] @ (states.data @ attn.w_value.data)
                np.testing.assert_allclose(pooled.data[1], pooled_1, atol=1e-12)
            else:
                np.testing.assert_allclose(pooled.data[1], own[1], atol=1e-12)

    def test_three_neighbor_bruteforce_oracle(self):
        # brute-force scoring: v . [w x_g ; w x_i], leaky, explicit softmax
        for seed in range(8):
            attn, graph, xt, xr, states = _attention_fixture(
                2, 3, seed=seed, adjacency=np.ones((2, 3), dtype=np.uint8))
            pooled, weights = attn.forward(graph, xt, xr, states)
            w, v = attn.w_score.data, attn.v.data
            for g in range(2):
                scores = []
                for i in range(3):
                    joined = np.concatenate([xt[g] @ w, xr[i] @ w])
                    scores.append(v @ joined)
                scores = np.asarray(scores)
                act = np.where(scores > 0, scores, 0.2 * scores)
                alpha = np.exp(act) / np.exp(act).sum()
                want = np.zeros(attn.b_embed.data.shape)
                for i in range(3):
                    want += alpha[i] * (states.data[i] @ attn.w_value.data)
                np.testing.assert_allclose(weights[g], alpha, atol=1e-12)
                np.testing.assert_allclose(pooled.data[g], want, atol=1e-12)

    def test_weights_sum_to_one_and_logit_shift_invariance(self):
        rng = np.random.default_rng(60)
        for _ in range(300):
            k = int(rng.integers(1, 10))
            logits = rng.normal(0, 4, (1, k))
            mask = np.ones((1, k))
            alpha = oracles.softmax(oracles.leaky_relu(ad.Tensor(logits), 0.2), mask).data
            assert abs(alpha.sum() - 1.0) < 1e-9
            shifted = oracles.softmax(oracles.add(oracles.leaky_relu(ad.Tensor(logits), 0.2),
                                             float(rng.normal(0, 50))), mask).data
            np.testing.assert_allclose(shifted, alpha, atol=1e-12)

    def test_gradients_flow_through_attention(self):
        attn, graph, xt, xr, _ = _attention_fixture(2, 4, seed=77)
        rng = np.random.default_rng(78)
        state_data = rng.normal(0, 1, (4, attn.b_embed.data.size))

        def loss():
            pooled, _ = attn.forward(graph, xt, xr, ad.Tensor(state_data))
            return oracles.mean(oracles.absolute(pooled))

        assert ad.grad_check(loss, attn.parameters()) < 1e-4
