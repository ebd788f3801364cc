"""Propagation-tree tests: growth rules, invariant sweeps, gated roll-up oracle."""

import numpy as np
import pytest

from gme import autodiff as ad
from gme import evolution as evo
from gme.data import DataError, HOUR, ProjectRecord

T0 = 1_600_000_000


def make_project(pid, t):
    return ProjectRecord(id=pid, published_time=int(t), category="art",
                         creator_type="individual", currency="USD",
                         duration_days=30, goal=100.0, text="x")


def node(tree, pid):
    return tree.node_ids.index(pid)


def parents_of(tree, i):
    return np.nonzero(tree.adjacency[:, i])[0]


def chain_fixture(tau=24, t_h=3):
    g = make_project("g", T0)
    a = make_project("a", T0 - 30 * HOUR)
    b = make_project("b", T0 - 60 * HOUR)
    return evo.build_propagation_tree([g], [a, b], t_h, tau), (g, a, b)


class TestTreeGrowth:
    def test_two_hop_chain(self):
        tree, _ = chain_fixture()
        assert tree.node_ids == ("g", "a", "b")
        np.testing.assert_array_equal(tree.depth, [0, 1, 2])
        np.testing.assert_array_equal(np.argwhere(tree.adjacency), [[0, 1], [1, 2]])
        np.testing.assert_array_equal(tree.node_times[[0, 1]] - tree.node_times[[1, 2]],
                                      [30 * HOUR, 30 * HOUR])
        assert tree.adjacency[0, 2] == 0  # 60h gap is outside (24h, 48h)
        assert tree.dropped_ids == ()

    def test_window_is_strict_on_both_ends(self):
        g = make_project("g", T0)
        at_tau = make_project("lo", T0 - 24 * HOUR)
        above_tau = make_project("in_lo", T0 - 24 * HOUR - 1)
        below_double = make_project("in_hi", T0 - 48 * HOUR + 1)
        at_double = make_project("hi", T0 - 48 * HOUR)
        tree = evo.build_propagation_tree(
            [g], [at_tau, above_tau, below_double, at_double], 1, 24)
        attached = set(tree.node_ids[1:])
        assert attached == {"in_lo", "in_hi"}
        assert set(tree.dropped_ids) == {"lo", "hi"}

    def test_first_sweep_allows_multiple_root_parents(self):
        r1 = make_project("r1", T0)
        r2 = make_project("r2", T0 - 2 * HOUR)
        c = make_project("c", T0 - 30 * HOUR)  # 30h and 28h gaps, both in window
        tree = evo.build_propagation_tree([r1, r2], [c], 2, 24)
        ci = node(tree, "c")
        np.testing.assert_array_equal(parents_of(tree, ci), [0, 1])
        assert tree.depth[ci] == 1

    def test_later_sweeps_pick_single_smallest_gap_parent(self):
        g = make_project("g", T0)
        a1 = make_project("a1", T0 - 30 * HOUR)
        a2 = make_project("a2", T0 - 26 * HOUR)
        b = make_project("b", T0 - 55 * HOUR)  # gaps: 25h to a1, 29h to a2
        tree = evo.build_propagation_tree([g], [a1, a2, b], 3, 24)
        bi = node(tree, "b")
        assert tree.depth[bi] == 2
        np.testing.assert_array_equal(parents_of(tree, bi), [node(tree, "a1")])

    def test_equal_gap_tie_goes_to_earliest_attached(self):
        g = make_project("g", T0)
        a1 = make_project("a1", T0 - 30 * HOUR)
        a2 = make_project("a2", T0 - 30 * HOUR)  # same instant; id orders them
        b = make_project("b", T0 - 60 * HOUR)    # 30h gap to both
        tree = evo.build_propagation_tree([g], [a1, a2, b], 3, 24)
        np.testing.assert_array_equal(parents_of(tree, node(tree, "b")), [node(tree, "a1")])
        assert node(tree, "a1") < node(tree, "a2")

    def test_sweep_budget_limits_depth(self):
        tree, _ = chain_fixture(t_h=1)
        assert tree.node_ids == ("g", "a")
        assert tree.dropped_ids == ("b",)
        assert tree.max_depth == 1

    def test_same_sweep_nodes_cannot_parent_each_other(self):
        # both in (24h, 48h) of the root, and 26h apart from each other:
        # without the start-of-sweep snapshot, y would hang under x
        g = make_project("g", T0)
        x = make_project("x", T0 - 25 * HOUR)
        y = make_project("y", T0 - 47 * HOUR)
        tree = evo.build_propagation_tree([g], [x, y], 3, 24)
        np.testing.assert_array_equal(tree.depth, [0, 1, 1])
        np.testing.assert_array_equal(parents_of(tree, node(tree, "y")), [0])

    def test_input_validation(self):
        g = make_project("g", T0)
        with pytest.raises(ValueError, match="root"):
            evo.build_propagation_tree([], [g], 1, 24)
        with pytest.raises(ValueError, match="t_h"):
            evo.build_propagation_tree([g], [], 0, 24)
        with pytest.raises(ValueError, match="tau"):
            evo.build_propagation_tree([g], [], 1, 0)
        with pytest.raises(ValueError, match="duplicate"):
            evo.build_propagation_tree([g], [make_project("g", T0 - 30 * HOUR)], 1, 24)

    def test_rebuild_is_deterministic(self):
        rng = np.random.default_rng(7)
        targets, obs, t_h, tau = random_tree_inputs(rng)
        a = evo.build_propagation_tree(targets, obs, t_h, tau)
        b = evo.build_propagation_tree(targets, obs, t_h, tau)
        assert a.node_ids == b.node_ids
        np.testing.assert_array_equal(a.adjacency, b.adjacency)


def random_tree_inputs(rng, t_h=None):
    tau = int(rng.choice([24, 48]))
    if t_h is None:
        t_h = int(rng.integers(1, 8))
    n_roots = int(rng.integers(1, 4))
    targets = [make_project(f"t{i}", T0 - int(rng.integers(0, 6 * HOUR)))
               for i in range(n_roots)]
    t_ref = min(t.published_time for t in targets)
    obs = []
    if t_h >= 2:
        lo, hi = tau * HOUR + 1, tau * t_h * HOUR - 1
        stamps = rng.integers(lo, hi, size=int(rng.integers(0, 30)))
        if stamps.size > 4 and rng.random() < 0.5:
            stamps[1] = stamps[0]  # force at least one exact tie
        obs = [make_project(f"o{i}", t_ref - int(s)) for i, s in enumerate(stamps)]
    return targets, obs, t_h, tau


def scan_tree_invariants(tree):
    """Re-check every growth rule from the finished structure alone."""
    tau_s, n = tree.tau_hours * HOUR, tree.n_nodes
    t = tree.node_times
    assert tree.adjacency.shape == (n, n)
    assert set(np.unique(tree.adjacency)) <= {0, 1}
    assert np.all(tree.depth[:tree.n_roots] == 0)
    assert tree.max_depth <= tree.t_h

    for p, c in np.argwhere(tree.adjacency):
        assert tau_s < t[p] - t[c] < 2 * tau_s
        assert tree.depth[c] == tree.depth[p] + 1

    for c in range(tree.n_roots, n):
        k = tree.depth[c]
        in_window = [i for i in range(n)
                     if tree.depth[i] < k and tau_s < t[i] - t[c] < 2 * tau_s]
        assert in_window, f"node {c} attached without an eligible parent"
        assert all(tree.depth[i] == k - 1 for i in in_window)
        parents = parents_of(tree, c)
        if k == 1:
            np.testing.assert_array_equal(parents, sorted(in_window))
        else:
            gaps = np.asarray([t[i] - t[c] for i in in_window])
            best = in_window[int(np.argmin(gaps))]
            np.testing.assert_array_equal(parents, [best])

    dropped_idx = {pid for pid in tree.dropped_ids}
    assert not dropped_idx & set(tree.node_ids)


def test_growth_invariants_hold_on_random_markets():
    rng = np.random.default_rng(404)
    total_nodes = 0
    for _ in range(200):
        targets, obs, t_h, tau = random_tree_inputs(rng)
        tree = evo.build_propagation_tree(targets, obs, t_h, tau)
        assert tree.n_nodes + len(tree.dropped_ids) == len(targets) + len(obs)
        scan_tree_invariants(tree)
        for pid in tree.dropped_ids:
            t_c = next(p.published_time for p in obs if p.id == pid)
            reachable = [i for i in range(tree.n_nodes)
                         if tree.depth[i] < t_h
                         and tau * HOUR < tree.node_times[i] - t_c < 2 * tau * HOUR]
            assert not reachable, f"dropped {pid} had an eligible parent"
        total_nodes += tree.n_nodes
    assert total_nodes > 500  # the sweep actually grew trees


class TestInitStates:
    def test_roots_get_zero_amount_slot(self):
        tree, _ = chain_fixture()
        feats = {pid: np.full(3, i + 1.0) for i, pid in enumerate(tree.node_ids)}
        amounts = {"a": 2.5, "b": 7.0, "g": 99.0}
        s = evo.init_states(tree, feats, amounts)
        assert s.shape == (3, 4)
        np.testing.assert_array_equal(s[:, 3], [0.0, 2.5, 7.0])
        np.testing.assert_array_equal(s[0, :3], [1.0, 1.0, 1.0])

    def test_missing_feature_rejected(self):
        tree, _ = chain_fixture()
        with pytest.raises(DataError, match="'b'"):
            evo.init_states(tree, {"g": np.zeros(3), "a": np.zeros(3)}, {"a": 1.0})


def numpy_cell(upd, agg, h):
    def sig(z):
        return 1.0 / (1.0 + np.exp(-z))

    z = sig(agg @ upd.w_z.data + h @ upd.u_z.data)
    r = sig(agg @ upd.w_r.data + h @ upd.u_r.data)
    cand = np.tanh(agg @ upd.w_c.data + (r * h) @ upd.u_c.data)
    return (1.0 - z) * h + z * cand


class TestGatedRollUp:
    def test_chain_matches_sequential_oracle(self):
        tree, _ = chain_fixture()
        upd = evo.GatedTreeUpdater(4, np.random.default_rng(3))
        s = np.random.default_rng(4).normal(0, 1, (3, 4))
        roots, _, counts = upd.propagate(tree, s)

        b = upd.b_agg.data
        h_a = numpy_cell(upd, s[2] + b, s[1])       # a folds in leaf b
        h_g = numpy_cell(upd, h_a + b, s[0])        # root sees the refreshed a
        np.testing.assert_allclose(roots.data[0], h_g, atol=1e-12)
        np.testing.assert_array_equal(counts, [1, 1, 0])

    def test_fanout_sums_children(self):
        g = make_project("g", T0)
        c1 = make_project("c1", T0 - 30 * HOUR)
        c2 = make_project("c2", T0 - 40 * HOUR)
        tree = evo.build_propagation_tree([g], [c1, c2], 1, 24)
        upd = evo.GatedTreeUpdater(3, np.random.default_rng(8))
        s = np.random.default_rng(9).normal(0, 1, (3, 3))
        roots, _, counts = upd.propagate(tree, s)
        want = numpy_cell(upd, s[1] + s[2] + upd.b_agg.data, s[0])
        np.testing.assert_allclose(roots.data[0], want, atol=1e-12)
        np.testing.assert_array_equal(counts, [1, 0, 0])

    def test_shared_child_feeds_both_roots(self):
        r1 = make_project("r1", T0)
        r2 = make_project("r2", T0 - 2 * HOUR)
        c = make_project("c", T0 - 30 * HOUR)
        tree = evo.build_propagation_tree([r1, r2], [c], 1, 24)
        upd = evo.GatedTreeUpdater(3, np.random.default_rng(10))
        s = np.random.default_rng(11).normal(0, 1, (3, 3))
        roots = upd.propagate(tree, s).roots
        b = upd.b_agg.data
        np.testing.assert_allclose(roots.data[0], numpy_cell(upd, s[2] + b, s[0]), atol=1e-12)
        np.testing.assert_allclose(roots.data[1], numpy_cell(upd, s[2] + b, s[1]), atol=1e-12)

    def test_bare_root_updates_once_from_bias_alone(self):
        tree = evo.build_propagation_tree([make_project("g", T0)], [], 1, 24)
        upd = evo.GatedTreeUpdater(3, np.random.default_rng(12))
        s = np.random.default_rng(13).normal(0, 1, (1, 3))
        roots, _, counts = upd.propagate(tree, s)
        want = numpy_cell(upd, np.broadcast_to(upd.b_agg.data, (1, 3)), s)
        np.testing.assert_allclose(roots.data, want, atol=1e-12)
        np.testing.assert_array_equal(counts, [1])

    def test_every_node_touched_at_most_once(self):
        rng = np.random.default_rng(515)
        for _ in range(50):
            targets, obs, t_h, tau = random_tree_inputs(rng)
            tree = evo.build_propagation_tree(targets, obs, t_h, tau)
            upd = evo.GatedTreeUpdater(2, np.random.default_rng(1))
            s = rng.normal(0, 1, (tree.n_nodes, 2))
            counts = upd.propagate(tree, s).counts
            for i in range(tree.n_nodes):
                want = 1 if (i < tree.n_roots or tree.adjacency[i].any()) else 0
                assert counts[i] == want

    def test_wrong_state_width_rejected(self):
        tree, _ = chain_fixture()
        upd = evo.GatedTreeUpdater(4, np.random.default_rng(0))
        with pytest.raises(ad.ShapeError, match="propagate"):
            upd.propagate(tree, np.zeros((3, 5)))

    def test_gradients_through_roll_up(self):
        tree, _ = chain_fixture()
        upd = evo.GatedTreeUpdater(3, np.random.default_rng(21))
        s = np.random.default_rng(22).normal(0, 1, (3, 3))

        def loss():
            roots = upd.propagate(tree, s).roots
            return ad.mean(ad.absolute(roots))

        assert ad.grad_check(loss, upd.parameters()) < 1e-4

    def test_propagate_is_deterministic(self):
        targets, obs, t_h, tau = random_tree_inputs(np.random.default_rng(88))
        tree = evo.build_propagation_tree(targets, obs, t_h, tau)
        upd = evo.GatedTreeUpdater(2, np.random.default_rng(5))
        s = np.random.default_rng(6).normal(0, 1, (tree.n_nodes, 2))
        a = upd.propagate(tree, s).roots
        b = upd.propagate(tree, s).roots
        np.testing.assert_array_equal(a.data, b.data)
