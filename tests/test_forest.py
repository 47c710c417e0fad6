"""Optimal and approximate BSTs, bin mass splitting, forest optimization.

The oracle here enumerates every binary tree shape (Catalan-many) and
scores it by walking depths explicitly, so it shares no recurrence with
the production dynamic program.
"""

import math

import numpy as np
import pytest

from dictboost import forest
from dictboost.binning import BinGeometry, bin_starts
from dictboost.cli import _forest_distribution
from dictboost.core import MAX_KEY, AccessDistribution, DictboostError, SortedKeySet, entropy
from dictboost.forest import (
    BinAccessWeights,
    BstPlan,
    approx_bst,
    bin_weights,
    build_forest,
    forest_cost,
    optimal_bst,
    optimize_over_k,
    plan_cost_from_depths,
)

from dictboost.workloads import gen_clustered, gen_uniform

from conftest import TEN_KEYS


def all_shapes(i, j):
    """Every binary tree over key indices i..j (1-based), as (root, L, R)."""
    if i > j:
        yield None
        return
    for r in range(i, j + 1):
        for left in all_shapes(i, r - 1):
            for right in all_shapes(r + 1, j):
                yield (r, left, right)


def shape_cost(tree, lo, p, q, depth=0):
    """Expected comparisons of one explicit shape: key at depth d costs
    d+1, failure leaf at depth d costs d."""
    if tree is None:
        return q[lo - 1] * depth
    r, left, right = tree
    return (
        p[r - 1] * (depth + 1)
        + shape_cost(left, lo, p, q, depth + 1)
        + shape_cost(right, r + 1, p, q, depth + 1)
    )


def brute_force_min_cost(p, q):
    n = len(p)
    return min(shape_cost(t, 1, p, q) for t in all_shapes(1, n))


def random_weights(rng, n):
    w = rng.random(2 * n + 1)
    w /= w.sum()
    return w[:n].tolist(), w[n:].tolist()


class TestOptimalBst:
    def test_single_key(self):
        plan = optimal_bst([1.0], [0.0, 0.0])
        assert plan.cost == 1.0
        assert plan.key_depths == (0,)
        assert plan.leaf_depths == (1, 1)
        assert plan.root == 0

    def test_three_keys_concentrated_middle(self):
        plan = optimal_bst([0.25, 0.5, 0.25], [0.0] * 4)
        assert plan.root == 1
        assert plan.cost == pytest.approx(1.5)

    def test_matches_shape_enumeration(self):
        """The DP (with its root-monotonicity window) must hit the true
        minimum over all Catalan(n) shapes."""
        rng = np.random.default_rng(0)
        for trial in range(60):
            n = int(rng.integers(1, 8))
            p, q = random_weights(rng, n)
            want = brute_force_min_cost(p, q)
            got = optimal_bst(p, q)
            assert got.cost == pytest.approx(want, abs=1e-12), f"n={n} trial={trial}"
            # and its reported depths really do produce that cost
            assert plan_cost_from_depths(got, p, q) == pytest.approx(got.cost, abs=1e-12)

    def test_zero_mass_regions_still_give_valid_trees(self):
        plan = optimal_bst([0.0, 0.0, 1.0], [0.0] * 4)
        assert plan.cost == pytest.approx(1.0)
        assert plan.key_depths[2] == 0

    def test_absolute_weights_scale_linearly(self):
        p, q = [3.0, 1.0], [0.5, 0.5, 1.0]
        double = optimal_bst([2 * v for v in p], [2 * v for v in q])
        single = optimal_bst(p, q)
        assert double.cost == pytest.approx(2 * single.cost)

    def test_empty_and_invalid_inputs(self):
        for planner in (optimal_bst, approx_bst):
            assert planner([], [1.0]) == BstPlan(0.0, (), (0,), None)
            with pytest.raises(DictboostError):
                planner([0.5], [0.5])  # wrong q length
            with pytest.raises(DictboostError):
                planner([-0.1], [0.5, 0.6])
            with pytest.raises(DictboostError):
                planner([0.1], [0.5, -0.6])

    def test_size_cap_names_approx(self):
        n = forest.EXACT_MODE_MAX_N + 1
        with pytest.raises(DictboostError, match="approx") as err:
            optimal_bst([1.0] * n, [0.0] * (n + 1))
        assert str(n) in str(err.value)


class TestApproxBst:
    def test_never_beats_exact_and_stays_honest(self):
        rng = np.random.default_rng(1)
        for trial in range(80):
            n = int(rng.integers(1, 30))
            p, q = random_weights(rng, n)
            exact = optimal_bst(p, q)
            approx = approx_bst(p, q)
            assert approx.cost >= exact.cost - 1e-12
            assert plan_cost_from_depths(approx, p, q) == pytest.approx(
                approx.cost, abs=1e-12
            )

    def test_balanced_on_uniform_weights(self):
        n = 15
        p = [1.0 / n] * n
        plan = approx_bst(p, [0.0] * (n + 1))
        assert max(plan.key_depths) == 3  # a perfect tree over 15 keys
        assert plan.root == 7

    def test_depth_stays_logarithmic_in_the_positive_mass_case(self):
        rng = np.random.default_rng(5)
        n = 500
        p, q = random_weights(rng, n)
        plan = approx_bst(p, q)
        assert max(plan.key_depths) <= 4 * math.log2(n)


@pytest.mark.parametrize("planner", [optimal_bst, approx_bst], ids=["exact", "approx"])
def test_depths_form_one_tree(planner):
    """A failure leaf hangs below the deeper of its two neighbouring keys,
    so its depth is one more than theirs (-1 past either end); exactly one
    key sits at depth 0, and it is the root."""
    rng = np.random.default_rng(17)
    for trial in range(150):
        n = int(rng.integers(1, 40))
        w = rng.random(2 * n + 1) * (rng.random(2 * n + 1) < 0.6)  # zero atoms
        p, q = w[:n].tolist(), w[n:].tolist()
        plan = planner(p, q)
        kd = [-1, *plan.key_depths, -1]
        want = tuple(1 + max(kd[i], kd[i + 1]) for i in range(n + 1))
        assert plan.leaf_depths == want, f"n={n} trial={trial}"
        assert plan.key_depths.count(0) == 1
        assert plan.key_depths[plan.root] == 0


class TestEntropyBound:
    def test_single_tree_cost_within_entropy_plus_two(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            n = int(rng.integers(1, 60))
            p, q = random_weights(rng, n)
            h = entropy(list(p) + list(q))
            assert optimal_bst(p, q).cost <= h + 2.0 + 1e-9

    def test_skewed_distributions_get_cheap_trees(self):
        # nearly all mass on one key: cost must approach 1, entropy near 0
        n = 31
        p = [0.001] * n
        p[11] = 1.0 - sum(p) + p[11]
        plan = optimal_bst(p, [0.0] * (n + 1))
        h = entropy(p)
        assert plan.cost <= h + 2.0
        assert plan.key_depths[11] == 0


def reference_bin_weights(keys, k, dist):
    """The per-gap loop that split the miss mass before ``bin_weights`` used
    one flat slot array, kept verbatim as its oracle: each gap's mass goes
    to the bins its open interval overlaps, in proportion to the overlap,
    and ``q[0]`` (``q[n]``) sticks to the first (last) bin."""
    n = len(keys)
    starts = bin_starts(keys, k)
    p = dist.p
    q = dist.q
    uppers = BinGeometry(keys.lo, keys.hi, k).uppers().tolist()
    loads = np.diff(starts)

    p_parts = [p[int(starts[b]):int(starts[b + 1])].copy() for b in range(k)]
    q_parts = [np.zeros(int(loads[b]) + 1) for b in range(k)]

    # bin of each key rank: first b with starts[b] > rank
    key_bin = np.searchsorted(starts, np.arange(n), side="right")  # 1-based

    q_parts[0][0] += q[0]
    q_parts[k - 1][-1] += q[n]
    ks = keys.as_list()
    for i in range(1, n):
        mass = float(q[i])
        if mass == 0.0:
            continue
        bl = int(key_bin[i - 1])
        br = int(key_bin[i])
        if bl == br:
            q_parts[bl - 1][i - int(starts[bl - 1])] += mass
            continue
        a, c = ks[i - 1], ks[i]
        length = c - a
        for b in range(bl, br + 1):
            ov = min(c, uppers[b]) - max(a, uppers[b - 1])
            if ov <= 0:
                continue
            share = mass * (ov / length)
            if b == bl:
                q_parts[b - 1][-1] += share
            elif b == br:
                q_parts[b - 1][0] += share
            else:
                q_parts[b - 1][0] += share  # empty bin: single slot
    weights = [float(p_parts[b].sum() + q_parts[b].sum()) for b in range(k)]
    return BinAccessWeights(k=k, p_parts=p_parts, q_parts=q_parts, weights=weights)


# keys 49*j for j = 0..2000: at k = 2, 16, 40 and 64 some bin upper edges
# are keys, so a gap starting there overlaps its left key's bin by zero
EDGE_KEYS = [49 * j for j in range(2001)]


def _case_keys(name):
    rng = np.random.default_rng(11)
    if name == "two":
        return SortedKeySet([10, 20])
    if name == "one":
        return SortedKeySet([5])
    if name == "u64-ends":
        return SortedKeySet([0, MAX_KEY])
    if name == "random-u64":
        return SortedKeySet(np.unique(rng.integers(0, MAX_KEY, 300, dtype=np.uint64,
                                                   endpoint=True)))
    if name == "uniform":
        return gen_uniform(2000, 2**44, seed=12)
    if name == "clustered":
        return gen_clustered(2000, 0.001, seed=13)
    return SortedKeySet(EDGE_KEYS)


def _case_distribution(n, zero_gaps):
    rng = np.random.default_rng(n)
    w = rng.random(2 * n + 1)
    p, q = w[:n], w[n:]
    if zero_gaps:
        q[::3] = 0.0
        q[1::7] = -0.0  # allowed (not < 0); the loop stored +0.0 for it
    total = p.sum() + q.sum()
    return AccessDistribution(p / total, q / total)


def assert_same_parts(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.float64
        assert g.shape == w.shape
        assert g.tobytes() == w.tobytes()  # bit for bit, signed zeros included


class TestBinWeights:
    @pytest.mark.parametrize("zero_gaps", [False, True])
    @pytest.mark.parametrize("name", ["two", "one", "u64-ends", "random-u64", "uniform",
                                      "clustered", "edges-49j"])
    def test_equals_the_per_gap_loop(self, name, zero_gaps):
        keys = _case_keys(name)
        n = len(keys)
        dist = _case_distribution(n, zero_gaps)
        extra = [4, 8, 16, 40] if name == "edges-49j" else []
        ks = sorted({k for k in [1, 2, 3, 7, 64, n, *extra] if k <= n})
        for k in ks:
            got = bin_weights(keys, k, dist)
            want = reference_bin_weights(keys, k, dist)
            assert got.k == k
            assert_same_parts(got.p_parts, want.p_parts)
            assert_same_parts(got.q_parts, want.q_parts)
            assert got.weights == want.weights
            assert all(type(w) is float for w in got.weights)

    @pytest.mark.parametrize("k", [2, 16, 40, 64])
    def test_edge_keys_sit_on_bin_upper_edges(self, k):
        inner_uppers = BinGeometry(0, EDGE_KEYS[-1], k).uppers()[1:-1]
        assert np.isin(inner_uppers, EDGE_KEYS).any()

    def test_parts_are_read_only_views(self):
        keys = SortedKeySet(TEN_KEYS)
        dist = AccessDistribution([0.05] * 10, [0.5 / 11] * 11)
        bw = bin_weights(keys, 4, dist)
        assert [part.size for part in bw.p_parts] == [3, 5, 0, 2]
        for part in bw.p_parts + bw.q_parts:
            with pytest.raises(ValueError):
                part[...] = 1.0
        assert dist.p.flags.writeable
        assert all(np.shares_memory(part, dist.p) for part in bw.p_parts if part.size)


    def test_weights_sum_to_one_and_split_by_overlap(self):
        keys = SortedKeySet([10, 20])
        # all miss mass in the straddling gap (10, 20); boundary at 15
        dist = AccessDistribution([0.0, 0.0], [0.0, 1.0, 0.0])
        bw = bin_weights(keys, 2, dist)
        assert sum(bw.weights) == pytest.approx(1.0)
        assert bw.weights[0] == pytest.approx(0.5)
        assert bw.weights[1] == pytest.approx(0.5)

    def test_edge_gaps_stick_to_edge_bins(self):
        keys = SortedKeySet([10, 20])
        dist = AccessDistribution([0.0, 0.0], [0.3, 0.0, 0.7])
        bw = bin_weights(keys, 2, dist)
        assert bw.weights[0] == pytest.approx(0.3)
        assert bw.weights[1] == pytest.approx(0.7)

    def test_hit_mass_follows_the_key(self):
        keys = SortedKeySet(TEN_KEYS)
        p = [0.1] * 10
        dist = AccessDistribution(p, [0.0] * 11)
        bw = bin_weights(keys, 4, dist)
        assert bw.weights == pytest.approx([0.3, 0.5, 0.0, 0.2])

    def test_parts_match_weights(self):
        rng = np.random.default_rng(7)
        keys = SortedKeySet(np.unique(rng.integers(0, 10**6, 50, dtype=np.uint64)))
        n = len(keys)
        p, q = random_weights(rng, n)
        for k in [1, 2, 7, n]:
            bw = bin_weights(keys, k, AccessDistribution(p, q))
            assert sum(bw.weights) == pytest.approx(1.0)
            for b in range(k):
                assert bw.weights[b] == pytest.approx(
                    float(np.sum(bw.p_parts[b]) + np.sum(bw.q_parts[b]))
                )
            total_p = sum(float(np.sum(part)) for part in bw.p_parts)
            assert total_p == pytest.approx(sum(p))

    def test_distribution_size_must_match(self):
        keys = SortedKeySet(TEN_KEYS)
        with pytest.raises(DictboostError):
            bin_weights(keys, 2, AccessDistribution([1.0], [0.0, 0.0]))


class TestForest:
    def test_k1_forest_is_the_single_tree_plus_routing_charge(self):
        rng = np.random.default_rng(3)
        keys = SortedKeySet(np.unique(rng.integers(0, 10**6, 40, dtype=np.uint64)))
        p, q = random_weights(rng, len(keys))
        dist = AccessDistribution(p, q)
        forest = build_forest(keys, dist, k=1, mode="exact")
        single = optimal_bst(p, q)
        assert forest.total_cost == pytest.approx(1.0 + single.cost)

    def test_optimize_never_loses_to_k1_and_meets_entropy_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            keys = SortedKeySet(np.unique(rng.integers(0, 10**7, 60, dtype=np.uint64)))
            p, q = random_weights(rng, len(keys))
            dist = AccessDistribution(p, q)
            sweep = optimize_over_k(keys, dist, k_max=12, mode="exact")
            costs = dict(sweep.per_k)
            assert sweep.best.total_cost == pytest.approx(min(costs.values()))
            assert sweep.best.total_cost <= costs[1] + 1e-12
            assert sweep.best.total_cost <= sweep.entropy_bits + 2.0 + 1e-9

    def test_approx_forest_never_beats_exact(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            keys = SortedKeySet(np.unique(rng.integers(0, 10**7, 80, dtype=np.uint64)))
            p, q = random_weights(rng, len(keys))
            dist = AccessDistribution(p, q)
            exact = optimize_over_k(keys, dist, k_max=8, mode="exact")
            approx = optimize_over_k(keys, dist, k_max=8, mode="approx")
            assert approx.best.total_cost >= exact.best.total_cost - 1e-9

    def test_forest_cost_is_routing_plus_tree_costs(self):
        weights = [0.25, 0.75]
        plans = [BstPlan(0.5, (0,), (1, 1), 0), BstPlan(1.25, (0,), (1, 1), 0)]
        assert forest_cost(weights, plans) == pytest.approx(0.25 + 0.5 + 0.75 + 1.25)

    @pytest.mark.parametrize("mode, n", [("approx", 2000), ("exact", 400)])
    def test_sweep_equals_the_per_gap_loop(self, monkeypatch, mode, n):
        keys = gen_uniform(n, 2**44, seed=31)
        dist = _forest_distribution(n, "zipf", 1.1, 0.5)
        got = optimize_over_k(keys, dist, 64, mode)
        monkeypatch.setattr(forest, "bin_weights", reference_bin_weights)
        want = optimize_over_k(keys, dist, 64, mode)
        assert len(got.per_k) == 64
        assert got.per_k == want.per_k
        assert got.best.k == want.best.k

    @pytest.mark.parametrize("k_max", [0, -3])
    def test_k_max_below_one_is_rejected(self, k_max):
        keys = SortedKeySet(TEN_KEYS)
        dist = AccessDistribution([0.1] * 10, [0.0] * 11)
        with pytest.raises(DictboostError, match=f"k_max must be >= 1, got {k_max}"):
            optimize_over_k(keys, dist, k_max)

    def test_mode_validation(self):
        keys = SortedKeySet(TEN_KEYS)
        dist = AccessDistribution([0.1] * 10, [0.0] * 11)
        with pytest.raises(DictboostError):
            build_forest(keys, dist, 2, mode="sideways")
        with pytest.raises(DictboostError):
            optimize_over_k(SortedKeySet([]), dist, 4)
