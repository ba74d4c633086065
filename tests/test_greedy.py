"""Greedy construction: reference sweep, peeling variant, status chain."""

import dataclasses
import hashlib
import itertools
import json
import math
import re
import threading
import time
import tracemalloc
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayley_greedy import (
    CayleyTree,
    ForestState,
    GreedyOutcome,
    RandomSource,
    SmallestLabelRule,
    aldous_broder_sample,
    enumerate_all,
    enumeration_law,
    exact_chain_law,
    first_branch_law,
    first_branch_length,
    greedy_matching,
    greedy_peeling,
    max_independent_set,
    peel_markov,
    pitman_sample,
    pitman_sample_rooted,
    prufer_decode,
    sample_uniform,
    simulate_status_chain_many,
    tree_count,
    verify_symmetry_exact,
)
from cayley_greedy import greedy, stats
from cayley_greedy.greedy import (
    CHAIN_BLOCK,
    CHAIN_DELTA,
    ChainColumn,
    GreedyLaw,
    _P_DROP,
    _absorbed_rows,
    _blue_split_weights,
    _chain_block,
    _lane_delta,
    _step_matrix,
    chain_weights,
    greedy_exploration_steps,
    greedy_markov_peeling,
    law_to_json_dict,
    total_variation_exact,
)
from cayley_greedy.cli import OUTCOME_FIELDS, _csv, main
from cayley_greedy.stats import EmpiricalDistribution
from oracles import (
    StatusCounts,
    _root_avoiding_survival,
    adjacency,
    chain_transitions,
    full_absorbed_rows,
    greedy_reference,
    law_from_fractions,
    peeling_active_set,
    reference_chain_law,
    status_count_trace,
)
from strategies import parent_tables

CENTER_1 = CayleyTree(3, (3, 1))  # path 2-1-3, center 1, rooted at 3
CENTER_2 = CayleyTree(3, (2, 3))  # path 1-2-3, center 2
CENTER_3 = CayleyTree(3, (3, 3))  # star at 3


# ---------------------------------------------------------------------------
# Reference sweep
# ---------------------------------------------------------------------------

def test_reference_path_center_one():
    assert greedy_reference(CENTER_1, (1, 2, 3)) == {1}


def test_reference_path_center_two():
    assert greedy_reference(CENTER_2, (1, 2, 3)) == {1, 3}


def test_reference_two_vertices_any_order():
    t = CayleyTree(2, (2,))
    assert greedy_reference(t, (1, 2)) == {1}
    assert greedy_reference(t, (2, 1)) == {2}


def test_reference_requires_permutation():
    with pytest.raises(ValueError):
        greedy_reference(CENTER_1, (1, 1, 3))


def _is_independent(tree, vertices):
    return not any(v != tree.n and tree.parent_of(v) in vertices for v in vertices)


def _is_maximal(tree, vertices):
    adj = adjacency(tree)
    return all(
        v in vertices or any(w in vertices for w in adj[v])
        for v in range(1, tree.n + 1)
    )


def test_reference_result_independent_and_maximal_random():
    rng = RandomSource(314)
    for i in range(20):
        n = 2 + rng.integer(0, 40)
        t = sample_uniform(n, rng.child(i))
        order = (rng.child(1000 + i).generator.permutation(n) + 1).tolist()
        result = greedy_reference(t, order)
        assert _is_independent(t, result)
        assert _is_maximal(t, result)


def test_reference_label_order_law_invariant_under_reversal():
    # relabeling symmetry: over all trees of a given size, the size of the
    # greedy set has the same exact law whatever fixed inspection order is used
    n = 5
    identity = tuple(range(1, n + 1))
    reverse = tuple(range(n, 0, -1))
    law_a = Counter(len(greedy_reference(t, identity)) for t in enumerate_all(n))
    law_b = Counter(len(greedy_reference(t, reverse)) for t in enumerate_all(n))
    assert law_a == law_b


# ---------------------------------------------------------------------------
# Peeling variant
# ---------------------------------------------------------------------------

def test_peeling_outcome_center_1():
    out = greedy_peeling(CENTER_1)
    assert (out.size, out.steps, out.root_last) == (1, 2, 0)
    assert peeling_active_set(CENTER_1) == {1}


def test_peeling_outcome_center_2():
    out = greedy_peeling(CENTER_2)
    assert (out.size, out.steps, out.root_last) == (2, 2, 1)
    assert peeling_active_set(CENTER_2) == {1, 3}


def test_peeling_outcome_center_3():
    out = greedy_peeling(CENTER_3)
    assert (out.size, out.steps, out.root_last) == (2, 2, 0)
    assert peeling_active_set(CENTER_3) == {1, 2}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_peeling_equals_reference_exhaustive(n):
    order = tuple(range(1, n + 1))
    for t in enumerate_all(n):
        out = greedy_peeling(t)
        active = peeling_active_set(t)
        assert active == greedy_reference(t, order)
        assert _is_independent(t, active)
        assert _is_maximal(t, active)
        assert out.size == len(active)


def test_peeling_trace_conserves_total():
    rng = RandomSource(99)
    t = sample_uniform(40, rng)
    out = greedy_peeling(t)
    rows = status_count_trace(t)
    n = t.n
    for before, after in rows:
        assert sum(before) == n and sum(after) == n
        # statuses never revert: determined counts are monotone
        assert after.undetermined < before.undetermined
        assert all(a >= b for a, b in zip(after[1:], before[1:]))
    assert rows[-1][1].undetermined == 0
    assert out.size == rows[-1][1].active_white + rows[-1][1].active_blue


@pytest.mark.parametrize("n", range(1, 7))
def test_count_trace_ends_at_outcome(n):
    # the last row holds the set size, the row count is the stopping step,
    # and the root is last when it is the one undetermined white vertex
    for t in enumerate_all(n):
        rows = status_count_trace(t)
        before, after = rows[-1]
        root_last = before.undetermined == 1 and before.active_blue + before.blocked_blue == 0
        out = greedy_peeling(t)
        assert after.undetermined == 0
        assert (after.active_white + after.active_blue, len(rows), int(root_last)) == \
            (out.size, out.steps, out.root_last)


def test_exploration_steps_match_outcome():
    rng = RandomSource(123)
    for i in range(10):
        t = sample_uniform(2 + rng.integer(0, 30), rng.child(i))
        steps, out = greedy_exploration_steps(t)
        ref = greedy_peeling(t)
        assert (out.size, out.steps, out.root_last) == (ref.size, ref.steps, ref.root_last)
        assert len(steps) == out.steps - out.root_last
        # edges belong to the tree and children are all distinct
        assert all(t.parent_of(s.peeled) == s.parent for s in steps)
        assert len({s.peeled for s in steps}) == len(steps)


@st.composite
def _pruefer_trees(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    symbols = draw(st.lists(st.integers(1, n), min_size=max(n - 2, 0),
                            max_size=max(n - 2, 0)))
    return prufer_decode(symbols, n)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_pruefer_trees(), parent_tables(max_n=60).map(lambda t: CayleyTree(*t))))
def test_peeling_walks_agree_on_random_trees(t):
    # parent tables have free labels, increasing paths among them, which
    # stall the rounds of greedy_peeling and leave the work to its tail
    out = greedy_peeling(t)
    assert peeling_active_set(t) == greedy_reference(t, range(1, t.n + 1))
    _, explored = greedy_exploration_steps(t)
    assert (explored.size, explored.steps, explored.root_last) == \
        (out.size, out.steps, out.root_last)


# ---------------------------------------------------------------------------
# Status-chain transitions against the tree-backed construction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [3, 4, 5])
def test_chain_increments_match_trees_exactly(n):
    """Exact conditional increment frequencies over all trees equal the
    one-step law of the status chain, state by state."""
    grouped = defaultdict(Counter)
    for t in enumerate_all(n):
        for before, after in status_count_trace(t):
            grouped[before][after] += 1
    for state, counter in grouped.items():
        total = sum(counter.values())
        expected = dict(
            (target, prob) for prob, target in chain_transitions(state, n)
        )
        assert set(counter) == set(expected)
        for target, count in counter.items():
            assert Fraction(count, total) == expected[target]


def test_chain_transitions_start_state_n5():
    cols = chain_transitions(StatusCounts(5, 0, 0, 0, 0), 5)
    assert (Fraction(3, 5), StatusCounts(3, 1, 1, 0, 0)) in cols
    assert (Fraction(2, 5), StatusCounts(3, 0, 0, 1, 1)) in cols
    assert len(cols) == 2


def test_chain_transitions_terminal_rule():
    cols = chain_transitions(StatusCounts(1, 2, 3, 0, 0), 6)
    assert cols == [(Fraction(1), StatusCounts(0, 2, 3, 1, 0))]


def test_chain_transitions_blue_regime_example():
    # state (1, 1, 0, 1, 1) at n = 4: blue columns weigh 3/8 each,
    # the white active column 1/4, and the pair column vanishes
    cols = dict(
        (target, prob) for prob, target in chain_transitions(StatusCounts(1, 1, 0, 1, 1), 4)
    )
    assert cols[StatusCounts(0, 1, 1, 1, 1)] == Fraction(1, 4)
    assert cols[StatusCounts(0, 1, 0, 1, 2)] == Fraction(3, 8)
    assert cols[StatusCounts(0, 1, 0, 2, 1)] == Fraction(3, 8)


def test_chain_transitions_rejects_bad_states():
    with pytest.raises(ValueError):
        chain_transitions(StatusCounts(0, 2, 2, 1, 1), 6)
    with pytest.raises(ValueError):
        chain_transitions(StatusCounts(1, 1, 1, 2, 0), 5)


def test_chain_weights_sum_to_n():
    assert chain_weights(5, 0) == (3, 2)  # before the root connects
    assert chain_weights(3, 4) == (2, 5)  # after it
    assert chain_weights(1, 0) == (-1, 2)  # only the root left: root last
    for n in range(1, 11):
        states = [(u, aw, bw, c)
                  for u in range(1, n + 1) for c in [0, *range(2, n - u + 1)]
                  for aw in range(n - u - c + 1) for bw in [n - u - c - aw]]
        for u, aw, bw, c in states:
            pair, blue = chain_weights(u, c)
            assert pair + aw + bw + blue == n
        u, aw, bw, c = np.array(states).T
        pair, blue = chain_weights(u, c)
        assert (pair + aw + bw + blue == n).all()
        assert pair.tolist() == [chain_weights(int(x), int(y))[0] for x, y in zip(u, c)]


class _Unread:
    """A draw row that fails when a lane reads it."""

    def take(self, lanes):
        raise AssertionError("a lane read a draw past the preset ones")

    def __array__(self, *args, **kwargs):  # a row read whole, before any lane left
        self.take(None)


class PresetDraws:
    """Stands in for np.random.Generator: ``random((rows, width))`` hands out
    the preset rows in order, then rows that fail when read."""

    def __init__(self, rows):
        self.rows = [np.array(r, dtype=float) for r in rows]

    def random(self, shape):
        batch, self.rows = self.rows[:shape[0]], self.rows[shape[0]:]
        assert all(row.shape == shape[1:] for row in batch)
        return batch + [_Unread()] * (shape[0] - len(batch))


def test_chain_block_threshold_boundaries(monkeypatch):
    def below(t):
        return np.nextafter(t, 0)

    nan = float("nan")  # never read: the lane has retired
    # n = 4, lane by lane; a draw at a threshold takes the column above it.
    # From (4,0,0,0,0) the pair column lies below 1/2, the root connection at
    # or above; then 0.9 connects the root from (2,1,1,0,0) and takes the
    # blocked-blue parent from (2,0,0,1,1) and (1,0,0,2,1).  From (2,0,0,1,1)
    # the pair column lies below 1/4, the active-blue parent below
    # 1/4 + 3/8 = 5/8 (then 0.9 >= 1/3 takes the blocked-blue parent from
    # (1,0,0,1,2)), the blocked-blue parent at or above 5/8.
    lanes = [
        ([below(0.5), 0.9, nan], (2, 2, 0)),
        ([0.5, 0.9, 0.9], (3, 3, 0)),
        ([0.75, below(0.25), nan], (2, 2, 0)),
        ([0.75, 0.25, 0.9], (2, 3, 0)),
        ([0.75, below(0.625), 0.9], (2, 3, 0)),
        ([0.75, 0.625, 0.9], (3, 3, 0)),
    ]
    rows = np.array([draws for draws, _ in lanes]).T
    monkeypatch.setattr(greedy, "_DRAW_ROWS", 4)
    out = _chain_block(4, len(lanes), PresetDraws(rows))
    assert [tuple(int(x) for x in o) for o in zip(*out)] == [o for _, o in lanes]
    # the pair column, then the active-white parent (0.1 < 1/4), leave only
    # the root, whose forced root-last step reads no draw
    monkeypatch.setattr(greedy, "_DRAW_ROWS", 2)
    out = _chain_block(4, 1, PresetDraws([[0.1], [0.1]]))
    assert [int(x[0]) for x in out] == [2, 3, 1]


def _documented_thresholds(n, counts):
    """t0..t4 at ``counts`` by the float expressions of _chain_block's docstring."""
    u, aw, bw, ab, bb = (int(x) for x in counts)
    c = ab + bb
    t0 = chain_weights(u, c)[0] / n
    t1 = t0 + aw / n
    t2 = t1 + bw / n
    t3 = t2 + n * (c == 0) / n  # the guard: 1.0 before the root connects, then 0.0
    t4 = t3 + ab * (c + 1) / (n * max(c, 1))
    return [t0, t1, t2, t3, t4]


@pytest.mark.parametrize("n", [7, 97])
def test_chain_block_threshold_boundaries_at_inexact_quotients(n):
    # at these n the quotients are not dyadic, so a threshold rounded twice
    # can miss the documented one by an ulp.  Every draw sits on an edge of
    # its column's interval [t_(j-1), t_j): at fl(t_(j-1)), or one ulp below
    # fl(t_j), or one ulp below 1 for the last open column -- before the
    # root connects that is the root connection, as the guard lifts t3 and
    # t4 past every draw.  A lane's column path then fixes its outcome.
    rng = np.random.default_rng(n)
    lanes, covered = [], set()
    for _ in range(300):
        counts = np.array([n, 0, 0, 0, 0])
        draws = []
        while chain_weights(counts[0], counts[3] + counts[4])[0] >= 0:
            t = _documented_thresholds(n, counts)
            low, high = [0.0, *t], [*(min(x, 1.0) for x in t), 1.0]
            j = rng.choice([j for j in range(6) if low[j] < high[j]])
            at_low = bool(rng.random() < 0.5)
            draws.append(low[j] if at_low else np.nextafter(high[j], 0))
            covered.add((bool(counts[3] + counts[4]), int(j), at_low))
            counts += CHAIN_DELTA[:, j]
        e = int(counts[0] == 1)  # the forced root-last step reads no draw
        lanes.append((draws, (counts[1] + counts[3] + e, len(draws) + e, e)))
    regimes = [(False, range(4)), (True, [0, 1, 2, 4, 5])]
    assert covered == {(post, j, at_low) for post, cols in regimes
                       for j in cols for at_low in (False, True)}
    rows = np.full((max(len(d) for d, _ in lanes), len(lanes)), np.nan)  # nan: never read
    for i, (draws, _) in enumerate(lanes):
        rows[:len(draws), i] = draws
    out = _chain_block(n, len(lanes), PresetDraws(rows))
    assert [tuple(int(x) for x in o) for o in zip(*out)] == [o for _, o in lanes]


def test_simulate_status_chain_refuses_sizes_past_exact_floats(monkeypatch):
    # the lane rows hold multiples of n up to n*n in float64, exact only
    # while n*n < 2**53; a stand-in block shows the check runs before any
    # block at the refused size, and lets the largest allowed one through
    assert 94_906_265 ** 2 < 2 ** 53 <= 94_906_266 ** 2
    blocks = []

    def block(n, width, gen):
        blocks.append(n)
        zeros = np.zeros(width, np.int64)
        return zeros, zeros, zeros

    monkeypatch.setattr(greedy, "_chain_block", block)
    with pytest.raises(ValueError, match=r"n=94906266 above 94906265"):
        simulate_status_chain_many(94_906_266, 1, RandomSource(0))
    assert blocks == []
    simulate_status_chain_many(94_906_265, 1, RandomSource(0))
    assert blocks == [94_906_265]


def _chain(n, replicates):
    return [(a.dtype, a.tolist())
            for a in simulate_status_chain_many(n, replicates, RandomSource(3))]


def _law(law):
    return law.n, law.numerators, law.den


def _clt(n, replicates):
    return stats.clt_experiment(n, replicates, seed=4)


def _sweep(n, replicates, jobs):
    return stats.tree_sweep_experiment("max-is", n, replicates, seed=4, jobs=jobs)


#: every entry point that reads a size or count: its name, then ``.arg``
#: when the size under test is not n -> (call by keyword, valid sizes, the
#: least value); sample_uniform decodes in array passes from n = 500
SIZED_CALLS = {
    "CayleyTree": (lambda n: CayleyTree(n, [6] * 5), {"n": 6}, 1),
    "prufer_decode": (lambda n: prufer_decode([3, 1, 6, 6], n), {"n": 6}, 1),
    "sample_uniform_loop": (lambda n: sample_uniform(n, RandomSource(5)), {"n": 20}, 1),
    "sample_uniform_array": (lambda n: sample_uniform(n, RandomSource(5)), {"n": 600}, 1),
    "enumerate_all": (lambda n: list(enumerate_all(n)), {"n": 4}, 1),
    "pitman_sample_rooted": (lambda n: pitman_sample_rooted(n, RandomSource(5)), {"n": 20}, 1),
    "pitman_sample": (lambda n: pitman_sample(n, RandomSource(5)), {"n": 20}, 1),
    "aldous_broder_sample": (lambda n: aldous_broder_sample(n, RandomSource(5)), {"n": 20}, 1),
    "ForestState": (lambda n: ForestState(n).n, {"n": 6}, 1),
    "peel_markov": (lambda n: peel_markov(n, SmallestLabelRule(), RandomSource(5)),
                    {"n": 6}, 1),
    "first_branch_length": (lambda n: first_branch_length(n, RandomSource(5)), {"n": 10}, 2),
    "first_branch_law": (first_branch_law, {"n": 10}, 2),
    "greedy_markov_peeling": (lambda n: greedy_markov_peeling(n, RandomSource(5)),
                              {"n": 20}, 1),
    "simulate_status_chain_many": (_chain, {"n": 20, "replicates": 20}, 1),
    "simulate_status_chain_many.replicates": (_chain, {"n": 20, "replicates": 20}, 1),
    "exact_chain_law": (lambda n: _law(exact_chain_law(n)), {"n": 6}, 1),
    "enumeration_law": (lambda n: _law(enumeration_law(n)), {"n": 6}, 1),
    "clt_experiment": (_clt, {"n": 100, "replicates": 100}, 100),
    "clt_experiment.replicates": (_clt, {"n": 100, "replicates": 100}, 100),
    "tree_sweep_experiment": (_sweep, {"n": 10, "replicates": 3, "jobs": 1}, 1),
    "tree_sweep_experiment.replicates": (_sweep, {"n": 10, "replicates": 3, "jobs": 1}, 1),
    "tree_sweep_experiment.jobs": (_sweep, {"n": 10, "replicates": 3, "jobs": 1}, 1),
}


def _leaves(value):
    """The scalars of a result, through trees, dataclasses, tuples, lists and dicts."""
    if isinstance(value, CayleyTree):
        value = (value.n, value.parents)
    elif dataclasses.is_dataclass(value):
        value = dataclasses.astuple(value)
    elif isinstance(value, dict):
        value = [*value.items()]
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


@pytest.mark.parametrize("name", sorted(SIZED_CALLS))
def test_sizes_must_be_integers(name):
    # every size goes through trees._size: without it a float fails deep
    # inside, with a message that does not name the argument, the DP fails
    # on a numpy integer (no bit_length), and a numpy integer n leaked into
    # the trees that pitman_sample, aldous_broder_sample, prufer_decode and
    # peel_markov built
    call, sizes, least = SIZED_CALLS[name]
    arg = name.partition(".")[2] or "n"
    bad = sizes[arg] + 0.5
    with pytest.raises(TypeError, match=f"^{arg} must be an integer, got {re.escape(str(bad))}$"):
        call(**{**sizes, arg: bad})
    with pytest.raises(ValueError, match=f"^{arg} must be at least {least}, got {least - 1}$"):
        call(**{**sizes, arg: least - 1})
    result = call(**{k: np.int64(v) for k, v in sizes.items()})
    assert result == call(**sizes)
    assert not any(isinstance(x, np.generic) for x in _leaves(result))
    items = result if isinstance(result, (tuple, list)) else [result]
    for tree in [x for x in items if isinstance(x, CayleyTree)]:
        assert type(tree.n) is int and all(type(p) is int for p in tree.parents)


def test_simulate_status_chain_small_sizes():
    g, t, e = simulate_status_chain_many(1, 1, RandomSource(0))
    assert (g[0], t[0], e[0]) == (1, 1, 1)
    for seed in range(6):
        g, t, e = simulate_status_chain_many(2, 1, RandomSource(seed))
        assert (g[0], t[0], e[0]) == (1, 1, 0)


def test_simulate_status_chain_law_n3():
    sizes = Counter(simulate_status_chain_many(3, 20_000, RandomSource(1234))[0].tolist())
    assert abs(sizes[1] / 20_000 - 1 / 3) < 0.02
    assert abs(sizes[2] / 20_000 - 2 / 3) < 0.02


def test_batch_chain_reproducible_and_matches_exact_law():
    rng = RandomSource(777)
    g1, t1, e1 = simulate_status_chain_many(5, 60_000, rng)
    g2, t2, e2 = simulate_status_chain_many(5, 60_000, RandomSource(777))
    assert (g1 == g2).all() and (t1 == t2).all() and (e1 == e2).all()
    law = exact_chain_law(5)
    emp = EmpiricalDistribution.from_samples(g1.tolist())
    assert emp.tv_to(law.size_law()) < 0.01
    emp_t = EmpiricalDistribution.from_samples(t1.tolist())
    assert emp_t.tv_to(law.steps_law()) < 0.01
    assert abs(e1.mean() - float(law.root_last_probability())) < 0.01


def test_batch_chain_joint_law_matches_exact_n4():
    rng = RandomSource(778)
    g, t, e = simulate_status_chain_many(4, 60_000, rng)
    law = exact_chain_law(4)
    emp = Counter(zip(g.tolist(), t.tolist(), e.tolist()))
    for key, prob in law.joint.items():
        assert abs(emp.get(key, 0) / 60_000 - float(prob)) < 0.01


#: SHA-256 of the little-endian int64 bytes of sizes, steps and root_last,
#: in that order, from simulate_status_chain_many(n, replicates,
#: RandomSource(seed)) with CHAIN_BLOCK set to block; captured from the
#: kernel that ran a float cascade and one masked update per column over
#: every lane
CHAIN_SHA256 = {
    (1, 50, CHAIN_BLOCK, 11):
        "b29f00e8a4e67703038921af2188948b3afc00da5d0fb45a016c2121cd6b139a",
    (2, 50, CHAIN_BLOCK, 12):
        "cd7bc547ce39a81427cc882264ecf14a760ecc8384c3cacec35e8bc59255d014",
    (5, 3000, CHAIN_BLOCK, 13):
        "0b04d240ae870c943173dfefc5002d745ccf2ba8f4bc684c824c748014e1666d",
    (40, 3000, 1024, 14):  # two full blocks and a partial one
        "f62368d5e5ae6b4f649276692ceb7ccc639bd4b9e8a13200118cb2c424867b80",
    (2000, 300, CHAIN_BLOCK, 15):
        "7087a65e0007e2a529ed8ec1e5366627d79ced3c7f1619affdd2c6117980f4f9",
    (500, 10_000, CHAIN_BLOCK, 16):  # a full block and a partial one
        "3b8feae0684ee34251b8069265655b1845aa3cea1e96336a6efe8b45bd3439a9",
}


@pytest.mark.parametrize("case", sorted(CHAIN_SHA256))
def test_chain_golden_digest(case, monkeypatch):
    n, replicates, block, seed = case
    monkeypatch.setattr(greedy, "CHAIN_BLOCK", block)
    digest = hashlib.sha256()
    for out in simulate_status_chain_many(n, replicates, RandomSource(seed)):
        digest.update(out.astype("<i8").tobytes())
    assert digest.hexdigest() == CHAIN_SHA256[case]


def _masked_chain_block(n, width, gen, draw_rows=256):
    """The chain kernel before the column table, kept as the reference:
    the threshold cascade and one masked update per column, over every lane
    until the slowest one is absorbed."""
    u = np.full(width, n, dtype=np.int64)
    aw = np.zeros(width, dtype=np.int64)
    bw = np.zeros(width, dtype=np.int64)
    ab = np.zeros(width, dtype=np.int64)
    bb = np.zeros(width, dtype=np.int64)
    theta = np.zeros(width, dtype=np.int64)
    last = np.zeros(width, dtype=bool)
    live = u > 0
    while live.any():
        uniforms = gen.random((draw_rows, width))
        for j in range(draw_rows):
            c = ab + bb
            pre = (c == 0) & (u >= 2) & live
            reg2 = (c > 0) & live
            reg3 = (c == 0) & (u == 1) & live
            csafe = np.maximum(c, 1)
            x = uniforms[j]
            t1 = np.where(pre, u - 2, np.where(reg2, u - 1, 0)) / n
            t2 = t1 + aw / n
            t3 = t2 + bw / n
            t4 = t3 + np.where(pre, 2.0 / n, ab * (c + 1) / (csafe * n))
            col = np.full(width, 4, dtype=np.int8)
            col[x < t4] = 3
            col[x < t3] = 2
            col[x < t2] = 1
            col[x < t1] = 0
            col[pre & (col == 4)] = 3
            col[reg3] = 5
            col[~live] = 6
            for m, du, daw, dbw, dab, dbb in (
                (col == 0, 2, 1, 1, 0, 0),
                (col == 1, 1, 0, 1, 0, 0),
                (col == 2, 1, 1, 0, 0, 0),
                ((col == 3) & pre, 2, 0, 0, 1, 1),
                ((col == 3) & reg2, 1, 0, 0, 0, 1),
                (col == 4, 1, 0, 0, 1, 0),
                (col == 5, 1, 0, 0, 1, 0),
            ):
                u[m] -= du
                aw[m] += daw
                bw[m] += dbw
                ab[m] += dab
                bb[m] += dbb
            last[col == 5] = True
            theta[live] += 1
            live = u > 0
            if not live.any():
                break
    return aw + ab, theta, last.astype(np.int64)


class SlowDraws:
    """A generator whose every batch takes a millisecond more, so the chain
    kernel waits on its draw thread."""

    def __init__(self, gen):
        self.gen = gen

    def random(self, shape):
        time.sleep(0.001)
        return self.gen.random(shape)


@pytest.mark.parametrize("width,draw_rows", [(1, 256), (7, 3), (64, 256), (300, 5)])
def test_chain_block_equals_masked_reference(width, draw_rows, monkeypatch):
    # short draw batches make lanes retire across batch boundaries, and the
    # slow generator makes the kernel wait on its draw thread
    monkeypatch.setattr(greedy, "_DRAW_ROWS", draw_rows)
    for n in [*range(1, 41), 97, 250]:
        seed = [n, width, draw_rows]
        ref = _masked_chain_block(n, width, np.random.default_rng(seed), draw_rows)
        for gen in np.random.default_rng(seed), SlowDraws(np.random.default_rng(seed)):
            new = _chain_block(n, width, gen)
            for a, b in zip(new, ref):
                assert np.array_equal(a, b), (n, width, draw_rows, type(gen).__name__)


class CountingDraws:
    """A generator that notes the thread drawing each batch and raises on
    batch ``fail_at``."""

    def __init__(self, gen, fail_at=None):
        self.gen = gen
        self.fail_at = fail_at
        self.threads = []

    def random(self, shape):
        self.threads.append(threading.current_thread())
        if len(self.threads) == self.fail_at:
            raise RuntimeError(f"batch {self.fail_at}")
        return self.gen.random(shape)


def test_chain_draw_thread_ends_with_the_block(monkeypatch):
    # the draw thread is joined when the block returns and when a draw
    # raises, and the draw's exception reaches the caller; the calling
    # thread draws the first batch, the worker the others one batch ahead
    # of the rows read, and no more batches than n rows fill, so a block
    # of one batch starts no thread
    before = threading.enumerate()
    simulate_status_chain_many(500, 10_000, RandomSource(17))
    assert threading.enumerate() == before
    monkeypatch.setattr(greedy, "_DRAW_ROWS", 2)
    with pytest.raises(RuntimeError, match="batch 2"):
        _chain_block(40, 5, CountingDraws(np.random.default_rng(0), fail_at=2))
    assert threading.enumerate() == before
    for n in [2, 3, 40]:
        counted = CountingDraws(np.random.default_rng(n))
        _, theta, last = _chain_block(n, 5, counted)
        rows = int((theta - last).max())  # the forced root-last step reads no draw
        assert len(counted.threads) == min(-(-rows // 2) + 1, -(-n // 2)), n
        assert counted.threads[0] is threading.current_thread()
        assert threading.current_thread() not in counted.threads[1:]
        assert threading.enumerate() == before
    draws = greedy._draw_rows(np.random.default_rng(0), 1, 3)
    assert len(list(itertools.islice(draws, 4))) == 4  # whole batches
    with pytest.raises(AssertionError, match="more than 3 draw rows"):
        next(draws)
    assert threading.enumerate() == before


@pytest.mark.parametrize("draw_rows", [2, 3, 4, 5, 32])
@pytest.mark.parametrize("n", [9, 10, 41, 42])
def test_chain_block_skip_bound_is_tight(n, draw_rows, monkeypatch):
    # a draw of 0.0 takes the pair column whenever p > 0, so p falls by
    # _P_DROP a step, the fastest any lane can finish: such lanes all retire
    # in the step the skipped check comes back, next to lanes that take
    # other columns; short draw batches put that step on a batch boundary
    width = 12
    rows = np.random.default_rng([n, draw_rows]).random((n + 1, width))
    rows[:, :5] = 0.0
    monkeypatch.setattr(greedy, "_DRAW_ROWS", draw_rows)
    new = _chain_block(n, width, PresetDraws(rows))
    ref = _masked_chain_block(n, width, PresetDraws(rows), draw_rows)
    for a, b in zip(new, ref):
        assert np.array_equal(a, b), (n, draw_rows)
    fastest = 1 + (n - 2) // _P_DROP  # the first check after step 0
    assert (new[1][:5] == fastest + 1).all()  # the forced root-last step
    assert (new[2][:5] == 1).all()


def _lane(state, n):
    """_chain_block's lane coordinates (p, aw, bw, n*[c = 0], ab, c + 1,
    n*max(c, 1)) of ``state`` at size n."""
    u, aw, bw, ab, bb = state
    c = ab + bb
    return np.array([chain_weights(u, c)[0], aw, bw, n * (c == 0), ab, c + 1, n * max(c, 1)])


def test_step_matrix_reproduces_lane_table():
    # a draw that clears the first k thresholds has comparisons k ones then
    # zeros; with the row of ones appended, the product is table column k
    def pattern(k):
        return np.array([1.0] * k + [0.0] * (5 - k) + [1.0])

    assert _P_DROP == 2
    reached = set()
    for n in range(1, 9):
        step_matrix = _step_matrix(n)
        for state in (StatusCounts(*s) for s in itertools.product(range(n + 1), repeat=5)):
            u, aw, bw, ab, bb = state
            if sum(state) != n or u < 1 or (ab == 0) != (bb == 0):
                continue
            for col in _regime_columns(state):
                target = _lane(np.add(state, CHAIN_DELTA[:, col]), n)
                assert (_lane(state, n) + _lane_delta(n)[:, col] == target).all(), (state, col)
                if col == ChainColumn.ROOT_LAST:  # forced, applied when the lane retires
                    assert target[0] < 0 and target[3] == 0
                    continue
                moved = _lane(state, n) + step_matrix @ pattern(col)
                assert (moved == target).all(), (state, col)
                reached.add(int(col))
    assert reached == set(range(6))
    # one product over many lanes, as the kernel takes it, is exact, also at
    # the largest n the acceptance criteria run the chain at
    cols = np.random.default_rng(5).integers(0, 6, 10_000)
    comparisons = np.stack([pattern(k) for k in cols], axis=1)
    for n in [8, 10_000]:
        assert (_step_matrix(n) @ comparisons == _lane_delta(n)[:, cols]).all()


def _regime_columns(state):
    """chain_transitions' columns for ``state``, in its order."""
    if state.active_blue or state.blocked_blue:
        return [ChainColumn.PAIR, ChainColumn.ACTIVE_WHITE_PARENT,
                ChainColumn.BLOCKED_WHITE_PARENT, ChainColumn.ACTIVE_BLUE_PARENT,
                ChainColumn.BLOCKED_BLUE_PARENT]
    if state.undetermined == 1:
        return [ChainColumn.ROOT_LAST]
    return [ChainColumn.PAIR, ChainColumn.ACTIVE_WHITE_PARENT,
            ChainColumn.BLOCKED_WHITE_PARENT, ChainColumn.ROOT_CONNECTION]


@pytest.mark.parametrize("n", range(1, 9))
def test_chain_delta_matches_transitions(n):
    assert CHAIN_DELTA.shape == (5, len(ChainColumn))
    assert (CHAIN_DELTA.sum(axis=0) == 0).all()  # each column keeps the sum n
    checked = 0
    for state in (StatusCounts(*s) for s in itertools.product(range(n + 1), repeat=5)):
        u, aw, bw, ab, bb = state
        if sum(state) != n or u < 1 or (ab == 0) != (bb == 0):
            continue
        if ab == 0 and u >= 2:
            positive = u >= 3 and aw >= 1 and bw >= 1
        else:
            positive = (u >= 2 and aw >= 1 and bw >= 1) or (ab == 0 and u == 1)
        if not positive:  # chain_transitions drops zero-weight columns
            continue
        targets = [s for _, s in chain_transitions(state, n)]
        expected = [StatusCounts(*(int(v) for v in np.add(state, CHAIN_DELTA[:, k])))
                    for k in _regime_columns(state)]
        assert targets == expected, state
        checked += 1
    assert checked


def test_greedy_markov_peeling_matches_exact_law():
    rng = RandomSource(779)
    outs = [greedy_markov_peeling(4, rng.child(i))[1] for i in range(30_000)]
    law = exact_chain_law(4)
    emp = EmpiricalDistribution.from_samples(o.size for o in outs)
    assert emp.tv_to(law.size_law()) < 0.01
    for steps, out in (greedy_markov_peeling(9, rng.child(i)) for i in range(50)):
        assert len(steps) == out.steps - out.root_last


# (n, seed) -> ((peeled, parent, recolored) per step, (size, steps, root_last));
# pins how greedy_markov_peeling consumes its random stream
MARKOV_GOLDEN = {
    (6, 12): ([(1, 6, 1), (2, 5, 0), (3, 4, 0)], (3, 3, 0)),
    (9, 1): (
        [(1, 9, 1), (2, 9, 1), (3, 5, 0), (4, 9, 1), (6, 1, 1), (7, 2, 1), (8, 5, 0)],
        (5, 7, 0),
    ),
    (12, 5): (
        [(1, 2, 0), (3, 8, 0), (4, 3, 0), (5, 2, 0), (6, 4, 0), (7, 6, 0),
         (9, 11, 0), (10, 12, 1)],
        (6, 8, 0),
    ),
    (20, 31): (
        [(1, 11, 0), (2, 11, 0), (3, 7, 0), (4, 7, 0), (5, 8, 0), (6, 9, 0),
         (10, 8, 0), (12, 10, 0), (13, 8, 0), (14, 5, 0), (15, 7, 0), (16, 1, 0),
         (17, 14, 0), (18, 5, 0), (19, 12, 0)],
        (12, 16, 1),
    ),
}


@pytest.mark.parametrize("n,seed", sorted(MARKOV_GOLDEN))
def test_greedy_markov_peeling_golden(n, seed):
    steps, out = greedy_markov_peeling(n, RandomSource(seed))
    expected_steps, expected_out = MARKOV_GOLDEN[(n, seed)]
    assert [(s.peeled, s.parent, int(s.recolored_to_blue)) for s in steps] == expected_steps
    assert out == GreedyOutcome(*expected_out)


def test_greedy_markov_peeling_golden_digest_n10000():
    # a long run pins the scalar draws well past the small cases above;
    # taken when the draws went through Generator.integers and .random
    steps, out = greedy_markov_peeling(10_000, RandomSource(7))
    trace = [(s.peeled, s.parent, int(s.recolored_to_blue)) for s in steps]
    assert (len(steps), out.size, out.steps, out.root_last) == (6946, 5006, 6947, 1)
    assert hashlib.sha256(repr(trace).encode()).hexdigest() == (
        "b403b59d6ed4ef102bed507e13d9f9947c1db7943707e3c56c1e4c49302f81d9")


# ---------------------------------------------------------------------------
# Exact law
# ---------------------------------------------------------------------------

def test_exact_law_n2():
    law = exact_chain_law(2)
    assert law.joint == {(1, 1, 0): Fraction(1)}


def test_exact_law_n3():
    law = exact_chain_law(3)
    assert law.size_law() == {1: Fraction(1, 3), 2: Fraction(2, 3)}
    assert law.root_last_probability() == Fraction(1, 3)
    # complement-plus-indicator has the same law, exactly
    assert law.complement_law() == law.size_law()


def test_exact_law_n4_frozen_values():
    # independently derived by exhaustive enumeration of the 16 trees
    law = exact_chain_law(4)
    assert law.size_law() == {
        1: Fraction(1, 16), 2: Fraction(3, 4), 3: Fraction(3, 16)
    }
    assert law.steps_law() == {2: Fraction(3, 8), 3: Fraction(5, 8)}
    assert law.root_last_probability() == Fraction(1, 4)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_exact_law_equals_enumeration(n):
    assert exact_chain_law(n).joint == enumeration_law(n).joint


@pytest.mark.parametrize("n", range(1, 15))
def test_exact_law_equals_reference_chain(n):
    # the packed slot is n^n's bit length rounded up to whole bytes: 1 byte
    # up to n = 3, 7 bytes at n = 13, 14; 6^6 fills its 2 bytes exactly
    assert exact_chain_law(n).joint == reference_chain_law(n).joint


def test_exact_law_peak_memory():
    # only the layers u - 1 and u - 2 and the absorbed rows stay live
    tracemalloc.start()
    try:
        exact_chain_law(60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_enumeration_law_peak_memory():
    # one batch of 8^4 = 4096 parent tables is live at a time
    tracemalloc.start()
    try:
        enumeration_law(8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


#: SHA-256 of the sorted-key JSON of law_to_json_dict(exact_chain_law(n)),
#: captured from the tuple-keyed DP that assembled the law in Fractions
#: (n = 25, 60), and from GreedyLaw's Fraction-sum marginals (n = 40)
EXACT_LAW_SHA256 = {
    25: "53711ae8c93034de55f4e8d9cbdf57416f0d69a20ea4b1a4251ce69b9161f457",
    40: "134b9a2481f77c478d4f8069c68ef968878c50bc5890f0447c99e15f6adfa67b",
    60: "3f7886cc0e49596f1bad89794205cb64953dc78410ce23f22e84f390e8d17b5b",
}


@pytest.mark.parametrize("n", sorted(EXACT_LAW_SHA256))
def test_exact_law_golden_digest(n):
    law = exact_chain_law(n)
    text = json.dumps(law_to_json_dict(law), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == EXACT_LAW_SHA256[n]
    # a zero-probability key would add an entry to the marginals' JSON
    assert all(p > 0 for p in law.joint.values())


#: SHA-256 of exact_chain_law(n)'s denominator line and its "g,theta,e,num"
#: lines in sorted key order, captured from the DP that computed every
#: active-white count.  EXACT_LAW_SHA256 hashes only the marginals, so this
#: pins the steps each numerator sits under; the odd n has middle entries
#: in its odd-length rows
JOINT_LAW_SHA256 = {
    59: "30430b32b269edfd233e4f98e99a3054b48e03bda91aceca8773d90cea61a3e6",
    60: "fc5a626acded633d200d62b2ad6c8a60e4fa122064ba8815e23c8a269fcd9323",
}


@pytest.mark.parametrize("n", sorted(JOINT_LAW_SHA256))
def test_exact_joint_law_golden_digest(n):
    law = exact_chain_law(n)
    text = f"{law.den}\n" + "".join(
        f"{g},{theta},{e},{num}\n" for (g, theta, e), num in sorted(law.numerators.items()))
    assert hashlib.sha256(text.encode()).hexdigest() == JOINT_LAW_SHA256[n]


#: SHA-256 of the "g,theta,e,p/q" lines of the sorted enumeration_law(7).joint,
#: captured when each tree's outcome came through greedy_peeling
ENUMERATION_LAW_7_SHA256 = "3cac2424fc1cb1685c863906e400c2b8456cd6fae43547ccfee88e028d0563fd"


def test_enumeration_law_golden_digest():
    joint = enumeration_law(7).joint
    text = "".join(f"{g},{t},{e},{p.numerator}/{p.denominator}\n"
                   for (g, t, e), p in sorted(joint.items()))
    assert hashlib.sha256(text.encode()).hexdigest() == ENUMERATION_LAW_7_SHA256


@pytest.mark.parametrize("n", range(1, 8))
def test_enumeration_law_equals_peeling_tally(n):
    tally = Counter()
    for t in enumerate_all(n):
        out = greedy_peeling(t)
        tally[(out.size, out.steps, out.root_last)] += 1
    expected = {key: Fraction(count, tree_count(n)) for key, count in tally.items()}
    assert enumeration_law(n).joint == expected


def mean_variance(dist):
    """Exact mean and variance of a law given as value -> probability."""
    m = sum((Fraction(x) * p for x, p in dist.items()), start=Fraction(0))
    v = sum(((Fraction(x) - m) ** 2 * p for x, p in dist.items()), start=Fraction(0))
    return m, v


def _fraction_sum_summary(law):
    """Marginals as GreedyLaw formed them before its integer sums, one
    Fraction addition per joint key, kept as the reference."""
    def marginal(index):
        out = defaultdict(Fraction)
        for key, p in law.joint.items():
            out[key[index]] += p
        return dict(out)

    complement = defaultdict(Fraction)
    for (g, _, e), p in law.joint.items():
        complement[(law.n - g) + e] += p
    return {
        "size_law": marginal(0),
        "steps_law": marginal(1),
        "complement_law": dict(complement),
        "root_last_probability": sum(
            (p for k, p in law.joint.items() if k[2] == 1), start=Fraction(0)),
    }


def _library_summary(law):
    return {
        "size_law": law.size_law(),
        "steps_law": law.steps_law(),
        "complement_law": law.complement_law(),
        "root_last_probability": law.root_last_probability(),
    }


def _fractions_in(summary):
    for value in summary.values():
        if isinstance(value, dict):
            yield from value.values()
        else:
            yield value


@pytest.mark.parametrize("source,sizes", [
    (exact_chain_law, range(1, 31)),
    (enumeration_law, range(1, 8)),
], ids=["dp", "enumeration"])
def test_law_integer_sums_equal_fraction_sums(source, sizes):
    for n in sizes:
        law = source(n)
        got = _library_summary(law)
        assert got == _fraction_sum_summary(law), n
        assert all(type(x) is Fraction for x in _fractions_in(got)), n


@pytest.mark.parametrize("source,sizes", [
    (exact_chain_law, range(1, 13)),
    (enumeration_law, range(1, 8)),
], ids=["dp", "enumeration"])
def test_law_holds_integer_numerators_over_one_denominator(source, sizes):
    for n in sizes:
        law = source(n)
        nums, den = law.numerators, law.den
        assert type(den) is int and all(type(x) is int and x > 0 for x in nums.values()), n
        assert sum(nums.values()) == den, n
        joint = law.joint
        assert list(joint) == list(nums), n
        assert all(joint[key] == Fraction(num, den) for key, num in nums.items()), n
        if source is enumeration_law:
            assert den == tree_count(n), n


def test_law_integer_sums_over_an_lcm_no_term_has():
    # the common denominator 30 is none of the joint's denominators
    law = law_from_fractions(3, {(1, 2, 0): Fraction(1, 6), (2, 2, 0): Fraction(1, 10),
                                 (2, 3, 1): Fraction(11, 15)})
    assert law.den == 30
    assert _library_summary(law) == _fraction_sum_summary(law)
    assert law.size_law() == {1: Fraction(1, 6), 2: Fraction(5, 6)}
    assert law.root_last_probability() == Fraction(11, 15)


@pytest.mark.parametrize("n", [2, 5, 12, 30])
def test_law_short_of_one_does_not_normalize(n):
    law = exact_chain_law(n)
    numerators = dict(law.numerators)
    key = max(numerators, key=numerators.get)
    numerators[key] -= 1
    assert sum(numerators.values()) == law.den - 1
    with pytest.raises(AssertionError, match="does not normalize"):
        GreedyLaw(n, numerators, law.den)


def test_blue_split_weights_sum_to_factorial():
    # the common-denominator assembly needs integer weights over (c-1)!;
    # c = 1 is the root activating last, the one blue and active
    table = _blue_split_weights(60)
    assert sorted(table) == list(range(1, 61))
    assert table[1] == {1: 1}
    for c, weights in table.items():
        assert sum(weights.values()) == math.factorial(c - 1)
        assert all(w > 0 for w in weights.values())
    # symmetric under a -> c - a for every c >= 2; c = 1 is the one
    # exception, and it gives the symmetry its + E
    asymmetric = [c for c, weights in table.items()
                  if {c - a: w for a, w in weights.items()} != weights]
    assert asymmetric == [1]


#: each ChainColumn's change of (u, aw, bw, ab, bb), as Python ints
_DELTAS = {col: CHAIN_DELTA[:, col].tolist() for col in ChainColumn}


def _dp_moves(n, u, c, aw):
    """Moves out of the DP state (u, c, aw) as a multiset of (u', c',
    weight times n, aw'), from chain_weights and CHAIN_DELTA.  The two blue
    parent columns both land on (u - 1, c + 1, aw), so they are one move of
    the blue weight, as in the DP."""
    pair_w, blue_w = chain_weights(u, c)
    free = n - u - c
    if pair_w < 0:
        columns = [(ChainColumn.ROOT_LAST, n)]
    else:
        blue = ChainColumn.ACTIVE_BLUE_PARENT if c else ChainColumn.ROOT_CONNECTION
        columns = [(ChainColumn.PAIR, pair_w), (ChainColumn.ACTIVE_WHITE_PARENT, aw),
                   (ChainColumn.BLOCKED_WHITE_PARENT, free - aw), (blue, blue_w)]
    moves = Counter()
    for col, w in columns:
        if w:
            du, daw, _, dab, dbb = _DELTAS[col]
            moves[(u + du, c + dab + dbb, w, aw + daw)] += 1
    return moves


def test_dp_moves_commute_with_the_white_reflection():
    # the induction behind the palindromic rows: aw -> free - aw, with
    # free = n - u - c, maps the moves out of aw onto those out of free - aw,
    # weight for weight, once each target is reflected in its own row
    ab, bb = _DELTAS[ChainColumn.ACTIVE_BLUE_PARENT], _DELTAS[ChainColumn.BLOCKED_BLUE_PARENT]
    assert ab[:2] == bb[:2] and sum(ab[3:]) == sum(bb[3:]) == 1
    for n in range(1, 21):
        for u in range(1, n + 1):
            for c in [0, *range(2, n - u + 1)]:
                free = n - u - c
                for aw in range(free + 1):
                    reflected = Counter({
                        (u2, c2, w, n - u2 - c2 - aw2): k
                        for (u2, c2, w, aw2), k in _dp_moves(n, u, c, aw).items()
                    })
                    assert reflected == _dp_moves(n, u, c, free - aw), (n, u, c, aw)


@pytest.mark.parametrize("n, packed", [
    *((n, packed) for n in [*range(1, 13), 20, 40] for packed in (False, True)),
    (60, False), (60, True),
])
def test_absorbed_rows_are_palindromes(n, packed):
    # the oracle's row c is indexed by aw = 0..n - c, with or without the
    # step slots, and is a palindrome; the library keeps its lower half
    width = -(-(n ** n).bit_length() // 8) if packed else 0
    rows = full_absorbed_rows(n, width)
    assert all(len(ws) == n - c + 1 and ws == ws[::-1] for c, ws in rows.items())
    half = _absorbed_rows(n, width)
    assert half == {c: ws[:(n - c) // 2 + 1] for c, ws in rows.items()}


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 20, 40, 60])
def test_step_free_rows_give_the_size_and_root_last_marginal(n):
    # width 0 merges the step slots: each absorbed entry is its numerator
    # over n^n summed over the steps, and the joint law's assembly, with
    # every split of the oracle's full rows and no mirror, turns the rows
    # into the (size, root_last) law over the same denominator
    absorbed = full_absorbed_rows(n, 0)
    cmax = max(absorbed)
    top = math.factorial(cmax - 1)
    split = _blue_split_weights(cmax)
    marginal = defaultdict(int)
    for c, ws in absorbed.items():
        scale = top // math.factorial(c - 1)
        for aw, w in enumerate(ws):
            for a, s in split[c].items():
                marginal[(aw + a, int(c == 1))] += w * s * scale
    law = exact_chain_law(n)
    assert law.den == n ** n * top
    joint = law._sums(lambda key: (key[0], key[2]))
    assert {k: v for k, v in marginal.items() if v} == joint


def test_exact_law_cap(monkeypatch):
    with pytest.raises(ValueError):
        exact_chain_law(61)
    monkeypatch.setenv("CAYLEY_GREEDY_CAP", "61")
    assert exact_chain_law(61).n == 61


@pytest.mark.parametrize("value", ["0", "4"])
def test_cap_env_var_read_the_same_by_dp_and_enumeration(value, monkeypatch):
    monkeypatch.setenv("CAYLEY_GREEDY_CAP", value)
    n = int(value) + 1
    with pytest.raises(ValueError):
        next(iter(enumerate_all(n)))
    with pytest.raises(ValueError):
        enumeration_law(n)
    with pytest.raises(ValueError):
        exact_chain_law(n)
    monkeypatch.setenv("CAYLEY_GREEDY_CAP", str(n))
    assert exact_chain_law(n).n == n
    assert enumeration_law(n).n == n
    with pytest.raises(ValueError):
        next(iter(enumerate_all(0)))
    with pytest.raises(ValueError):
        enumeration_law(0)


def test_enumeration_law_mask_width(monkeypatch):
    # the walk's masks hold labels 0..n in a uint64: past n = 63 the
    # enumeration refuses before it decodes a batch, whatever the cap
    monkeypatch.setenv("CAYLEY_GREEDY_CAP", "64")
    with pytest.raises(ValueError, match="above 63"):
        enumeration_law(64)


def test_symmetry_exact_small():
    for n in (2, 3, 5, 8, 13, 21):
        check = verify_symmetry_exact(n)
        assert check.tv == 0
    assert verify_symmetry_exact(6, cross_check=True).tv == 0


def test_root_last_probability_values():
    values = [exact_chain_law(n).root_last_probability() for n in (2, 3, 4, 5)]
    assert values == [0, Fraction(1, 3), Fraction(1, 4), Fraction(33, 125)]


def test_root_last_conditioned_identity_runs():
    # P(root last) is the survival expectation of the chain conditioned
    # never to connect the root: each pre-connection step avoids the root
    # with probability 1 - 2/n, and conditioning renormalizes every such
    # step by the same factor
    for n in range(3, 26):
        assert _root_avoiding_survival(n) == exact_chain_law(n).root_last_probability()


def test_survival_expectation_coincides_at_n3():
    # at size three the stopping step is deterministically 2, so the naive
    # survival expectation over the unconditioned law also gives 1/3
    law = exact_chain_law(3)
    z = Fraction(1, 3)
    naive = sum(p * z ** (t - 1) for t, p in law.steps_law().items())
    assert naive == law.root_last_probability() == Fraction(1, 3)


def test_law_moments_match_enumeration_n6():
    law = exact_chain_law(6)
    outcomes = [greedy_peeling(t) for t in enumerate_all(6)]
    sizes = [out.size for out in outcomes]
    mean = Fraction(sum(sizes), tree_count(6))
    assert mean_variance(law.size_law())[0] == mean
    for values, marginal in ((sizes, law.size_law()),
                             ([out.steps for out in outcomes], law.steps_law())):
        empirical = {x: Fraction(c, tree_count(6)) for x, c in Counter(values).items()}
        assert mean_variance(marginal) == mean_variance(empirical)


def test_total_variation_exact():
    p = {1: Fraction(1, 2), 2: Fraction(1, 2)}
    q = {1: Fraction(1, 2), 3: Fraction(1, 2)}
    assert total_variation_exact(p, p) == 0
    assert total_variation_exact(p, q) == Fraction(1, 2)
    # exact on Fractions: a Fraction comes back, with no float rounding
    thirds = {0: Fraction(1, 3), 1: Fraction(1, 3), 2: Fraction(1, 3)}
    tv = total_variation_exact(thirds, {0: Fraction(1)})
    assert type(tv) is Fraction and tv == Fraction(2, 3)
    assert type(total_variation_exact(p, p)) is Fraction
    # floats give a float; a Fraction against a float law gives the float TV
    floats = {1: 0.5, 3: 0.5}
    assert type(total_variation_exact(floats, floats)) is float
    assert total_variation_exact(p, floats) == 0.5
    assert type(total_variation_exact(p, floats)) is float
    # an empty support has distance 0
    assert total_variation_exact({}, {}) == 0


# ---------------------------------------------------------------------------
# Greedy matching and maximum independent set
# ---------------------------------------------------------------------------

def test_matching_two_vertices():
    assert greedy_matching(CayleyTree(2, (2,)), [1]) == 1


def test_matching_path_three_any_order():
    for order in itertools.permutations([1, 2]):
        assert greedy_matching(CENTER_2, order) == 1


def test_matching_requires_edge_permutation():
    star = prufer_decode([5, 5, 5], 5)  # edges 1..4, all meeting the root 5
    for tree, order in [
        (CENTER_2, [1, 1]),
        (star, [1, 2, 3, 1]),  # a duplicate, met on the last edge
        (star, [0, 1, 2, 3]),  # 0 is not an edge id
        (star, [1, 2, 3, 5]),  # n is the root, not an edge id
        (star, [4, 2, 3, -1]),  # a negative id must not wrap around
        (star, [1, 2, 3]),  # one edge too short
        (star, [1, 2, 3, 4, 1]),  # one edge too long
        (star, [1.5, 2, 3, 4]),  # a float id must not be truncated to 1
    ]:
        with pytest.raises(ValueError, match="permutation"):
            greedy_matching(tree, order)


def _matching_loop(tree, order):
    """The greedy matching edge by edge: (kept edge ids, matched vertices)."""
    matched = set()
    kept = []
    for v in order:
        p = tree.parent_of(v)
        if v not in matched and p not in matched:
            matched.update((v, p))
            kept.append(v)
    return kept, matched


def test_matching_is_maximal_random():
    rng = RandomSource(888)
    for i in range(15):
        n = 3 + rng.integer(0, 25)
        t = sample_uniform(n, rng.child(i))
        order = (rng.child(100 + i).generator.permutation(n - 1) + 1).tolist()
        kept, matched = _matching_loop(t, order)
        assert len(kept) == greedy_matching(t, order)
        # maximality: every unkept edge touches a matched endpoint
        for v in range(1, n):
            assert v in matched or t.parent_of(v) in matched


@st.composite
def _tables_with_order(draw):
    n, parents = draw(parent_tables(max_n=60))
    return CayleyTree(n, parents), draw(st.permutations(range(1, n)))


@settings(max_examples=300, deadline=None)
@given(_tables_with_order())
def test_matching_equals_loop_on_parent_tables(case):
    t, order = case
    kept, _ = _matching_loop(t, order)
    assert greedy_matching(t, order) == len(kept)
    assert greedy_matching(t, np.array(order, dtype=np.int64)) == len(kept)


def _max_is_brute(tree):
    n = tree.n
    best = 0
    edges = list(enumerate(tree.parents, start=1))
    for mask in range(1 << n):
        chosen = {v for v in range(1, n + 1) if mask & (1 << (v - 1))}
        if all(not (a in chosen and b in chosen) for a, b in edges):
            best = max(best, len(chosen))
    return best


def _max_is_dp(tree):
    """Two-state tree DP (best set with / without v in v's subtree)."""
    n = tree.n
    children = [[] for _ in range(n + 1)]
    for v, p in enumerate(tree.parents, start=1):
        children[p].append(v)
    order = [n]  # breadth first, so children follow their parent
    for v in order:
        order.extend(children[v])
    incl = [1] * (n + 1)
    excl = [0] * (n + 1)
    for v in reversed(order):
        for ch in children[v]:
            incl[v] += excl[ch]
            excl[v] += max(incl[ch], excl[ch])
    return max(incl[n], excl[n])


def test_max_is_examples():
    assert max_independent_set(CENTER_2) == 2
    assert max_independent_set(prufer_decode([4, 4], 4)) == 3
    assert max_independent_set(CayleyTree(1, ())) == 1


def test_max_is_matches_brute_force_random():
    rng = RandomSource(901)
    for i in range(25):
        n = 2 + rng.integer(0, 9)
        t = sample_uniform(n, rng.child(i))
        assert max_independent_set(t) == _max_is_brute(t)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_max_is_equals_dp_exhaustive(n):
    for t in enumerate_all(n):
        assert max_independent_set(t) == _max_is_dp(t)


@settings(max_examples=400, deadline=None)
@given(parent_tables(max_n=60))
def test_max_is_equals_dp_on_parent_tables(table):
    t = CayleyTree(*table)
    assert max_independent_set(t) == _max_is_dp(t)


def _caterpillar(n):
    """Spine 1 -> 2 -> ... -> s -> n with s = n/2 - 1, and a leg of larger
    label on each spine vertex; the legs left over hang from the root."""
    s = n // 2 - 1
    spine = [v + 1 for v in range(1, s)] + [n]
    legs = [v - s if v - s <= s else n for v in range(s + 1, n)]
    return CayleyTree(n, spine + legs)


#: n = 2000 shapes on which a round settles only a few items, or all at once;
#: on the path of odd length the max-IS tail ends with the root, untaken so far
SHAPES = {
    "increasing path": CayleyTree(2000, [v + 1 for v in range(1, 2000)]),
    "increasing path, odd": CayleyTree(2001, [v + 1 for v in range(1, 2001)]),
    "decreasing path": CayleyTree(2000, [2000] + list(range(1, 1999))),
    "star": CayleyTree(2000, [2000] * 1999),
    "caterpillar": _caterpillar(2000),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_statistics_on_shapes_that_stall_the_rounds(shape):
    t = SHAPES[shape]
    n = t.n
    out = greedy_peeling(t)
    assert peeling_active_set(t) == greedy_reference(t, range(1, n + 1))
    _, walked = greedy_exploration_steps(t)
    assert (out.size, out.steps, out.root_last) == \
        (walked.size, walked.steps, walked.root_last)
    for order in (list(range(1, n)), list(range(n - 1, 0, -1))):
        assert greedy_matching(t, order) == len(_matching_loop(t, order)[0])
    assert max_independent_set(t) == _max_is_dp(t)


def _statistics(t, order):
    out = greedy_peeling(t)
    return (out.size, out.steps, out.root_last), greedy_matching(t, order), \
        max_independent_set(t)


@pytest.mark.parametrize("share", [greedy._STALL_SHARE, 0.0])
def test_statistics_only_read_the_parent_array(share, monkeypatch):
    # the trees' arrays are read-only, so a write would raise; share 0
    # sends everything after the first round to the tails
    uniform = sample_uniform(3000, RandomSource(12).child(0))
    cases = [(uniform, RandomSource(12).child(1).generator.permutation(np.arange(1, 3000)))]
    cases += [(t, np.arange(1, t.n)) for t in SHAPES.values()]
    want = [_statistics(t, order) for t, order in cases]
    monkeypatch.setattr(greedy, "_STALL_SHARE", share)
    for (t, order), expected in zip(cases, want):
        par = t.parent_array
        before = par.copy()
        assert _statistics(t, order) == expected
        assert not par.flags.writeable and np.array_equal(par, before)
        assert t.parent_array is par


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_write_outcomes_csv(tmp_path, capsys):
    text = _csv(OUTCOME_FIELDS, [
        {"n": 3, "replicate": 0, "G": 2, "theta": 2, "E": 1},
        {"n": 3, "replicate": 1},
    ])
    assert text == "n,replicate,G,theta,E\n3,0,2,2,1\n3,1,,,\n"
    # --out writes the bytes the command prints, with LF line ends
    path = tmp_path / "out.csv"
    argv = ["greedy", "--n", "30", "--replicates", "3", "--seed", "8"]
    assert main(argv + ["--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    assert path.read_bytes() == capsys.readouterr().out.encode()
    assert b"\r" not in path.read_bytes()


def test_law_to_json_dict():
    payload = law_to_json_dict(exact_chain_law(3))
    assert payload["n"] == 3
    assert payload["size_law"]["1"]["fraction"] == "1/3"
    assert abs(payload["size_law"]["2"]["float"] - 2 / 3) < 1e-15
    assert payload["root_last_probability"]["fraction"] == "1/3"
