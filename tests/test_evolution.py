"""Propagation-tree tests: growth rules, invariant sweeps, gated roll-up oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from gme import autodiff as ad
from gme import evolution as evo
from gme.data import HOUR, Market, ProjectRecord, observable_set, segment_target_sets
from gme.model import TrainConfig
from gme.synth import SynthConfig, generate_market

T0 = 1_600_000_000


def make_project(pid, t):
    return ProjectRecord(id=pid, published_time=int(t), category="art",
                         creator_type="individual", currency="USD",
                         duration_days=30, goal=100.0, text="x")


def grow(targets, observables, t_h, tau):
    """The tree over a market of exactly `targets` and `observables`, given as its rows."""
    market = Market([*targets, *observables], [])

    def rows(records):
        return np.array([market.row[p.id] for p in records], dtype=np.intp)

    return evo.build_propagation_tree(rows(targets), rows(observables), t_h, tau, market=market)


def node_ids(tree, records):
    """The id of each node's project; `records` are all the projects the tree was grown over."""
    return tuple(p.id for p in Market(records, []).projects[tree.rows])


def node(tree, records, pid):
    return node_ids(tree, records).index(pid)


def parents_of(tree, i):
    parent, child = tree.edges
    return parent[child == i]


def has_children(tree):
    """Per node: does any edge hang under it?"""
    return np.isin(np.arange(tree.n_nodes), tree.edges[0])


def chain_fixture(tau=24, t_h=3):
    g = make_project("g", T0)
    a = make_project("a", T0 - 30 * HOUR)
    b = make_project("b", T0 - 60 * HOUR)
    return grow([g], [a, b], t_h, tau), (g, a, b)


class TestTreeGrowth:
    def test_two_hop_chain(self):
        tree, records = chain_fixture()
        assert node_ids(tree, records) == ("g", "a", "b")
        np.testing.assert_array_equal(tree.depth, [0, 1, 2])
        np.testing.assert_array_equal(tree.edges, [[0, 1], [1, 2]])
        np.testing.assert_array_equal(tree.node_times[[0, 1]] - tree.node_times[[1, 2]],
                                      [30 * HOUR, 30 * HOUR])
        np.testing.assert_array_equal(parents_of(tree, 2), [1])  # 60h gap is outside (24h, 48h)
        assert tree.dropped_ids == ()

    def test_window_is_strict_on_both_ends(self):
        g = make_project("g", T0)
        at_tau = make_project("lo", T0 - 24 * HOUR)
        above_tau = make_project("in_lo", T0 - 24 * HOUR - 1)
        below_double = make_project("in_hi", T0 - 48 * HOUR + 1)
        at_double = make_project("hi", T0 - 48 * HOUR)
        records = [g, at_tau, above_tau, below_double, at_double]
        tree = grow(records[:1], records[1:], 1, 24)
        attached = set(node_ids(tree, records)[1:])
        assert attached == {"in_lo", "in_hi"}
        assert set(tree.dropped_ids) == {"lo", "hi"}

    def test_first_sweep_allows_multiple_root_parents(self):
        r1 = make_project("r1", T0)
        r2 = make_project("r2", T0 - 2 * HOUR)
        c = make_project("c", T0 - 30 * HOUR)  # 30h and 28h gaps, both in window
        tree = grow([r1, r2], [c], 2, 24)
        ci = node(tree, [r1, r2, c], "c")
        np.testing.assert_array_equal(parents_of(tree, ci), [0, 1])
        assert tree.depth[ci] == 1

    def test_later_sweeps_pick_single_smallest_gap_parent(self):
        g = make_project("g", T0)
        a1 = make_project("a1", T0 - 30 * HOUR)
        a2 = make_project("a2", T0 - 26 * HOUR)
        b = make_project("b", T0 - 55 * HOUR)  # gaps: 25h to a1, 29h to a2
        records = [g, a1, a2, b]
        tree = grow(records[:1], records[1:], 3, 24)
        bi = node(tree, records, "b")
        assert tree.depth[bi] == 2
        np.testing.assert_array_equal(parents_of(tree, bi), [node(tree, records, "a1")])

    def test_equal_gap_tie_goes_to_earliest_attached(self):
        g = make_project("g", T0)
        a1 = make_project("a1", T0 - 30 * HOUR)
        a2 = make_project("a2", T0 - 30 * HOUR)  # same instant; id orders them
        b = make_project("b", T0 - 60 * HOUR)    # 30h gap to both
        records = [g, a1, a2, b]
        tree = grow(records[:1], records[1:], 3, 24)
        np.testing.assert_array_equal(parents_of(tree, node(tree, records, "b")),
                                      [node(tree, records, "a1")])
        assert node(tree, records, "a1") < node(tree, records, "a2")

    def test_sweep_budget_limits_depth(self):
        tree, records = chain_fixture(t_h=1)
        assert node_ids(tree, records) == ("g", "a")
        assert tree.dropped_ids == ("b",)
        assert tree.max_depth == 1

    def test_same_sweep_nodes_cannot_parent_each_other(self):
        # both in (24h, 48h) of the root, and 26h apart from each other:
        # without the start-of-sweep snapshot, y would hang under x
        g = make_project("g", T0)
        x = make_project("x", T0 - 25 * HOUR)
        y = make_project("y", T0 - 47 * HOUR)
        tree = grow([g], [x, y], 3, 24)
        np.testing.assert_array_equal(tree.depth, [0, 1, 1])
        np.testing.assert_array_equal(parents_of(tree, node(tree, [g, x, y], "y")), [0])

    def test_input_validation(self):
        g = make_project("g", T0)
        with pytest.raises(ValueError, match="root"):
            grow([], [g], 1, 24)
        with pytest.raises(ValueError, match="t_h"):
            grow([g], [], 0, 24)
        with pytest.raises(ValueError, match="tau"):
            grow([g], [], 1, 0)

    def test_a_project_given_twice_is_refused(self):
        market = Market([make_project("g", T0), make_project("a", T0 - 30 * HOUR)], [])
        for targets, observables in (([1], [0, 1]), ([1, 1], [0]), ([1], [0, 0])):
            with pytest.raises(ValueError, match="twice"):
                evo.build_propagation_tree(np.array(targets), np.array(observables), 1, 24,
                                           market=market)

    def test_observables_in_any_order_give_the_same_tree(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            targets, obs, t_h, tau = random_tree_inputs(rng, t_h=4)
            want = grow(targets, obs, t_h, tau)
            got = grow(targets, [obs[i] for i in rng.permutation(len(obs))], t_h, tau)
            for name in ("node_times", "depth", "edges", "rows"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
            assert got.dropped_ids == want.dropped_ids

    def test_rebuild_is_deterministic(self):
        rng = np.random.default_rng(7)
        targets, obs, t_h, tau = random_tree_inputs(rng)
        a = grow(targets, obs, t_h, tau)
        b = grow(targets, obs, t_h, tau)
        np.testing.assert_array_equal(a.rows, b.rows)
        np.testing.assert_array_equal(a.edges, b.edges)


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


def scan_tree_invariants(tree, records, t_h, tau):
    """Re-check every growth rule from the finished structure and its inputs alone."""
    tau_s, n = tau * HOUR, tree.n_nodes
    t = tree.node_times
    assert tree.edges.shape[0] == 2 and tree.edges.dtype == np.int32
    # attachment order: by child, then parent, so no edge is listed twice
    keys = tree.edges[1].astype(np.int64) * n + tree.edges[0]
    assert np.all(np.diff(keys) > 0)
    assert np.all(tree.depth[:tree.n_roots] == 0)
    assert np.all(np.diff(tree.depth) >= 0)
    assert tree.max_depth <= t_h
    assert tree.rows.dtype == np.int32
    ids = node_ids(tree, records)
    assert ids[:tree.n_roots] == tuple(p.id for p in records[:tree.n_roots])

    for p, c in tree.edges.T:
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

    published = {p.id: p.published_time for p in records}
    np.testing.assert_array_equal(t, [published[pid] for pid in ids])
    assert len(set(ids)) == n
    assert not set(tree.dropped_ids) & set(ids)


def test_growth_invariants_hold_on_random_markets():
    rng = np.random.default_rng(404)
    total_nodes = 0
    for _ in range(200):
        targets, obs, t_h, tau = random_tree_inputs(rng)
        tree = grow(targets, obs, t_h, tau)
        assert tree.n_nodes + len(tree.dropped_ids) == len(targets) + len(obs)
        scan_tree_invariants(tree, targets + obs, t_h, tau)
        for pid in tree.dropped_ids:
            t_c = next(p.published_time for p in obs if p.id == pid)
            reachable = [i for i in range(tree.n_nodes)
                         if tree.depth[i] < t_h
                         and tau * HOUR < tree.node_times[i] - t_c < 2 * tau * HOUR]
            assert not reachable, f"dropped {pid} had an eligible parent"
        total_nodes += tree.n_nodes
    assert total_nodes > 500  # the sweep actually grew trees


def assert_grows_reference_tree(tree, market, targets, obs, t_h, tau):
    """`tree`, grown over `market`, is the one `oracles.grow_tree` grows one candidate at a time."""
    ids, node_times, depth, edges, dropped = oracles.grow_tree(targets, obs, t_h, tau)
    assert tuple(p.id for p in market.projects[tree.rows]) == ids
    assert tree.dropped_ids == dropped
    np.testing.assert_array_equal(tree.node_times, node_times)
    np.testing.assert_array_equal(tree.depth, depth)
    np.testing.assert_array_equal(tree.edges, edges)
    assert tree.depth.dtype == depth.dtype


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), t_h=st.integers(1, 7), tau=st.sampled_from([1, 24, 48]))
def test_growth_matches_per_candidate_reference(data, t_h, tau):
    # launches on a tau/4 grid, so equal times, equal gaps and window edges recur
    seconds = st.integers(0, 4 * t_h).map(lambda k: k * tau * HOUR // 4)
    roots = data.draw(st.lists(seconds, min_size=1, max_size=8))
    observed = data.draw(st.lists(seconds, max_size=40))
    targets = [make_project(f"t{i}", T0 - s) for i, s in enumerate(roots)]
    obs = [make_project(f"o{i}", T0 - s) for i, s in enumerate(observed)]
    tree = grow(targets, obs, t_h, tau)
    assert_grows_reference_tree(tree, Market(targets + obs, []), targets, obs, t_h, tau)


def test_synth_market_trees_match_per_candidate_reference():
    """Every target set of the seed-0 800-project, 60-day market, as `build_context` grows it."""
    market, _ = generate_market(SynthConfig(n_projects=800, days=60, seed=0))
    t_h, tau = TrainConfig.t_h, TrainConfig.tau
    sets = segment_target_sets(market, TrainConfig.tz_offset)
    for ts in sets:
        targets = np.arange(ts.rows.start, ts.rows.stop)
        obs = observable_set(market, ts.observation_time, t_h, tau)
        tree = evo.build_propagation_tree(targets, obs, t_h, tau, market=market)
        assert_grows_reference_tree(tree, market, list(market.projects[targets]),
                                    list(market.projects[obs]), t_h, tau)
    assert len(sets) == 95


class TestInitStates:
    def test_roots_get_zero_amount_slot(self):
        tree, _ = chain_fixture()
        s = evo.init_states(tree, np.array([99.0, 2.5, 7.0]))
        assert s.shape == (3,)
        np.testing.assert_array_equal(s, [0.0, 2.5, 7.0])


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
        tree = grow([g], [c1, c2], 1, 24)
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
        tree = grow([r1, r2], [c], 1, 24)
        upd = evo.GatedTreeUpdater(3, np.random.default_rng(10))
        s = np.random.default_rng(11).normal(0, 1, (3, 3))
        roots = upd.propagate(tree, s).roots
        b = upd.b_agg.data
        np.testing.assert_allclose(roots.data[0], numpy_cell(upd, s[2] + b, s[0]), atol=1e-12)
        np.testing.assert_allclose(roots.data[1], numpy_cell(upd, s[2] + b, s[1]), atol=1e-12)

    def test_bare_root_updates_once_from_bias_alone(self):
        tree = grow([make_project("g", T0)], [], 1, 24)
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
            tree = grow(targets, obs, t_h, tau)
            upd = evo.GatedTreeUpdater(2, np.random.default_rng(1))
            s = rng.normal(0, 1, (tree.n_nodes, 2))
            counts = upd.propagate(tree, s).counts
            want = has_children(tree)
            want[:tree.n_roots] = True
            np.testing.assert_array_equal(counts, want)

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
        tree = grow(targets, obs, t_h, tau)
        upd = evo.GatedTreeUpdater(2, np.random.default_rng(5))
        s = np.random.default_rng(6).normal(0, 1, (tree.n_nodes, 2))
        a = upd.propagate(tree, s).roots
        b = upd.propagate(tree, s).roots
        np.testing.assert_array_equal(a.data, b.data)


def _rollup_loss(rollup, states, levels, upd, weight):
    out = rollup(states, levels, upd.b_agg,
                 [(upd.w_z, upd.u_z), (upd.w_r, upd.u_r), (upd.w_c, upd.u_c)])
    return ad.mean(ad.mul(ad.mul(out, out), weight)), out


# launch hours on a 6 h grid over ten days, so chains reach depth t_h
LAUNCH_HOURS = st.lists(st.integers(0, 40).map(lambda k: 6 * k), max_size=14)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(roots=LAUNCH_HOURS.filter(bool), observed=LAUNCH_HOURS, t_h=st.integers(1, 5),
       width=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
@example(roots=[0], observed=[], t_h=1, width=3, seed=0)  # a bare root
@example(roots=[0, 6], observed=[36, 66], t_h=2, width=2, seed=1)  # one child, two root parents
@example(roots=[0], observed=[30, 60, 90, 120, 150], t_h=5, width=4, seed=2)  # depth t_h
def test_fused_rollup_equals_taped_chain(roots, observed, t_h, width, seed):
    targets = [make_project(f"t{i}", T0 - h * HOUR) for i, h in enumerate(roots)]
    obs = [make_project(f"o{i}", T0 - h * HOUR) for i, h in enumerate(observed)]
    tree = grow(targets, obs, t_h, 24)
    levels = evo.update_levels(tree)
    rng = np.random.default_rng(seed)
    upd = evo.GatedTreeUpdater(width, rng)
    upd.b_agg.data[...] = rng.normal(0, 0.5, width)
    states = rng.normal(0, 1, (tree.n_nodes, width))
    weight = rng.normal(0, 1, (tree.n_nodes, width))
    params = upd.parameters()
    runs = []
    for rollup in (ad.tree_gru, oracles.taped_rollup):
        with ad.Tape() as tape:
            loss, out = _rollup_loss(rollup, states, levels, upd, weight)
        ad.backward(tape, loss)
        runs.append((len(tape), out.data.copy(), [p.grad.copy() for p in params]))
        for p in params:
            p.zero_grad()
    (fused_nodes, fused, fused_grads), (taped_nodes, taped, taped_grads) = runs
    assert fused_nodes == 4 and taped_nodes == 3 + 21 * len(levels)
    assert np.array_equal(fused, taped)
    for p, a, b in zip(params, fused_grads, taped_grads):
        assert np.array_equal(a, b), p.name
    assert ad.grad_check(lambda: _rollup_loss(ad.tree_gru, states, levels, upd, weight)[0],
                         params) < 1e-4


@settings(max_examples=150, deadline=None, derandomize=True)
@given(roots=LAUNCH_HOURS.filter(bool), observed=LAUNCH_HOURS, t_h=st.integers(1, 5),
       tau=st.sampled_from([24, 48]))
@example(roots=[0], observed=[], t_h=1, tau=24)  # a bare root
@example(roots=[0], observed=[120], t_h=3, tau=24)  # a root whose candidate drops
@example(roots=[0, 6], observed=[36, 66], t_h=2, tau=24)  # one child, two root parents
@example(roots=[0, 6, 12], observed=[36, 42, 66, 96], t_h=4, tau=24)
def test_update_levels_equals_dense_schedule(roots, observed, t_h, tau):
    targets = [make_project(f"t{i}", T0 - h * HOUR) for i, h in enumerate(roots)]
    obs = [make_project(f"o{i}", T0 - h * HOUR) for i, h in enumerate(observed)]
    tree = grow(targets, obs, t_h, tau)
    levels, dense = evo.update_levels(tree), oracles.dense_levels(tree)
    assert len(levels) == len(dense)
    for (rows, block), (want_rows, want_block) in zip(levels, dense):
        assert np.array_equal(rows, want_rows)
        assert block.dtype == np.float64 and np.array_equal(block, want_block)


def test_two_root_candidate_sums_into_both_roots():
    r1, r2 = make_project("r1", T0), make_project("r2", T0 - 6 * HOUR)
    tree = grow([r1, r2], [make_project("c", T0 - 36 * HOUR)], 1, 24)
    np.testing.assert_array_equal(tree.edges, [[0, 1], [2, 2]])
    [(rows, block)] = evo.update_levels(tree)
    np.testing.assert_array_equal(rows, [0, 1])
    np.testing.assert_array_equal(block, [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])


def test_adjacency_is_the_dense_form_of_the_edges():
    tree = grow([make_project("r1", T0), make_project("r2", T0 - 6 * HOUR)],
                                      [make_project("c", T0 - 36 * HOUR),
                                       make_project("d", T0 - 66 * HOUR)], 2, 24)
    adjacency = tree.adjacency
    assert adjacency.dtype == np.uint8 and adjacency.shape == (4, 4)
    np.testing.assert_array_equal(np.argwhere(adjacency), [[0, 2], [1, 2], [2, 3]])
    with pytest.raises(AttributeError):
        tree.adjacency = adjacency


def test_propagate_records_two_tape_nodes():
    tree, _ = chain_fixture()
    upd = evo.GatedTreeUpdater(3, np.random.default_rng(0))
    with ad.Tape() as tape:
        upd.propagate(tree, np.ones((3, 3)))
    assert len(tape) == 2  # the roll-up and the block read of the roots


def test_tree_gru_shape_errors_name_the_op():
    upd = evo.GatedTreeUpdater(3, np.random.default_rng(0))
    gates = [(upd.w_z, upd.u_z), (upd.w_r, upd.u_r), (upd.w_c, upd.u_c)]
    level = (np.array([0]), np.array([[0, 1]]))
    bad = [
        (np.zeros(3), [level], upd.b_agg, gates),  # 1-D states
        (np.zeros((2, 4)), [level], upd.b_agg, gates),  # states wider than the gates
        (np.zeros((2, 3)), [level], upd.b_agg, gates[:2]),  # a gate missing
        (np.zeros((2, 3)), [(np.array([0]), np.array([[0, 1, 1]]))], upd.b_agg, gates),
        (np.zeros((2, 3)), [(np.array([0, 0]), np.zeros((2, 2)))], upd.b_agg, gates),
        (np.zeros((2, 3)), [(np.array([2]), np.zeros((1, 2)))], upd.b_agg, gates),
    ]
    for args in bad:
        with pytest.raises(ad.ShapeError, match="tree_gru"):
            ad.tree_gru(*args)
