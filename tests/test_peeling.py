"""Peeling explorations: forest state, containment counts, Markov property."""

import hashlib
from collections import Counter, defaultdict
from fractions import Fraction

import pytest

from cayley_greedy import (
    CayleyTree,
    ForestState,
    RandomSource,
    SmallestLabelRule,
    UniformRule,
    count_containing_trees,
    enumerate_all,
    first_branch_law,
    first_branch_length,
    peel_fixed_tree,
    peel_markov,
    prufer_decode,
    sample_uniform,
    tree_count,
)
from cayley_greedy import peeling
from cayley_greedy.cli import main
from cayley_greedy.peeling import PeelStep, _check_transition_weights
from cayley_greedy.stats import EmpiricalDistribution
from cayley_greedy.trees import format_trees
from oracles import first_repetition_law

PATH_2_1_3 = CayleyTree(3, (3, 1))  # edges 2-1 and 1-3, rooted at 3


# ---------------------------------------------------------------------------
# ForestState and attach
# ---------------------------------------------------------------------------

def test_attach_to_blue_two_vertices():
    state = ForestState(2)
    step = state.attach(1, 2)
    assert step.recolored_to_blue
    assert state.blue_size == 2
    assert state.edge_count == 1
    assert state.white_root_count == 0


def test_attach_white_keeps_color():
    state = ForestState(4)
    step = state.attach(1, 2)
    assert not step.recolored_to_blue
    assert state.blue_size == 1
    assert state.component_root(1) == 2
    assert not state.is_blue(1)


def test_attach_merged_component_turns_blue():
    state = ForestState(4)
    state.attach(1, 2)
    step = state.attach(2, 4)
    assert step.recolored_to_blue
    assert state.blue_size == 3
    assert state.is_blue(1) and state.is_blue(2)


def test_attach_errors():
    state = ForestState(4)
    state.attach(1, 2)
    with pytest.raises(ValueError):
        state.attach(1, 3)  # 1 is no longer a root
    with pytest.raises(ValueError):
        state.attach(2, 1)  # same component
    with pytest.raises(ValueError):
        ForestState(4).attach(4, 1)  # the blue vertex is not a white root


# ---------------------------------------------------------------------------
# Containment counting
# ---------------------------------------------------------------------------

def _brute_containment(n, edges):
    """Trees rooted at n whose parent map extends all (child, parent) pairs."""
    hits = 0
    for t in enumerate_all(n):
        if all(t.parent_of(c) == p for c, p in edges):
            hits += 1
    return hits


def test_count_isolated_forest():
    for n in (2, 3, 4, 5, 6):
        assert count_containing_trees(ForestState(n)) == tree_count(n)


def test_count_complete_tree_is_one():
    t = prufer_decode([2, 3], 4)
    state = ForestState(4)
    rule = SmallestLabelRule()
    for _ in range(3):
        v = rule.select(state)
        state.attach(v, t.parent_of(v))
    assert count_containing_trees(state) == 1


def test_count_single_white_edge_n4():
    state = ForestState(4)
    state.attach(1, 2)
    assert count_containing_trees(state) == 4
    assert _brute_containment(4, [(1, 2)]) == 4


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_count_matches_brute_force_random_forests(n):
    rng = RandomSource(500 + n)
    for trial in range(30):
        state = ForestState(n)
        edges = []
        depth = rng.integer(0, 4)  # up to three attaches
        for _ in range(depth):
            if state.white_root_count == 0:
                break
            v = state.white_root_at(rng.integer(0, state.white_root_count))
            while True:
                w = rng.integer(1, n + 1)
                if state.component_root(v) != state.component_root(w):
                    break
            state.attach(v, w)
            edges.append((v, w))
        assert count_containing_trees(state) == _brute_containment(n, edges)


# ---------------------------------------------------------------------------
# Exploring a fixed tree
# ---------------------------------------------------------------------------

def test_peel_fixed_tree_reaches_full_blue_tree():
    rng = RandomSource(77)
    for i, n in enumerate([2, 5, 30]):
        t = sample_uniform(n, rng.child(i))
        for rule in (SmallestLabelRule(), UniformRule(rng.child(100 + i))):
            steps = peel_fixed_tree(t, rule)
            # the peeled edges are exactly the tree's edges, whatever the rule
            assert sorted((s.peeled, s.parent) for s in steps) == sorted(
                zip(range(1, n), t.parents))


def _white_roots(state):
    return sorted(state.white_root_at(i) for i in range(state.white_root_count))


def test_forest_invariants_during_exploration():
    rng = RandomSource(78)
    n = 25
    t = sample_uniform(n, rng)
    state = ForestState(n)
    rule = SmallestLabelRule()
    assert n - state.edge_count == n
    assert _white_roots(state) == list(range(1, n))
    for k in range(1, n):
        v = rule.select(state)
        assert v in _white_roots(state)
        state.attach(v, t.parent_of(v))
        assert n - state.edge_count == n - k
        assert v not in _white_roots(state)
    assert state.white_root_count == 0


def test_peel_fixed_tree_smallest_label_trace():
    steps = peel_fixed_tree(PATH_2_1_3, SmallestLabelRule())
    assert steps[0].peeled == 1
    assert steps[0].parent == 3
    assert steps[0].recolored_to_blue


def test_peel_fixed_tree_two_vertices():
    steps = peel_fixed_tree(CayleyTree(2, (2,)), SmallestLabelRule())
    assert len(steps) == 1
    assert steps[0].peeled == 1 and steps[0].parent == 2
    assert steps[0].recolored_to_blue


# ---------------------------------------------------------------------------
# The Markov property of the exploration, exactly
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [3, 4, 5])
def test_exploration_transition_law_exact(n):
    """Conditional parent frequencies over all trees match the one-step law.

    For the deterministic smallest-label rule, group exploration steps by
    the forest reached so far; within a group, the observed parent of the
    peeled vertex must occur with exact frequency (L+m)/(L n) for blue
    parents and 1/n for compatible white parents, and the group size must
    equal the containment count of the forest.
    """
    observations = defaultdict(Counter)
    meta = {}
    for t in enumerate_all(n):
        state = ForestState(n)
        rule = SmallestLabelRule()
        edges = []
        for _ in range(n - 1):
            v = rule.select(state)
            key = tuple(sorted(edges))
            if key not in meta:
                # v is a white root, so its component is what v roots
                comp_v = frozenset(w for w in range(1, n + 1)
                                   if state.component_root(w) == v)
                meta[key] = (
                    state.blue_size,
                    len(comp_v),
                    frozenset(w for w in range(1, n + 1) if state.is_blue(w)),
                    comp_v,
                    count_containing_trees(state),
                    v,
                )
            parent = t.parent_of(v)
            observations[key][parent] += 1
            state.attach(v, parent)
            edges.append((v, parent))

    assert observations
    for key, counter in observations.items():
        ell, m, blues, comp_v, n_forest, v = meta[key]
        total = sum(counter.values())
        assert total == n_forest, "group size must equal the containment count"
        compatible = [w for w in range(1, n + 1) if w not in comp_v]
        assert set(counter) == set(compatible), "every compatible parent occurs"
        for parent in compatible:
            if parent in blues:
                expected = Fraction(ell + m, ell * n)
            else:
                expected = Fraction(1, n)
            assert Fraction(counter[parent], total) == expected


# ---------------------------------------------------------------------------
# Tree-free simulation of the exploration
# ---------------------------------------------------------------------------

def test_peel_markov_two_vertices_deterministic():
    for seed in range(5):
        steps, tree = peel_markov(2, SmallestLabelRule(), RandomSource(seed))
        assert tree.parents == (2,)
        assert steps[0].peeled == 1 and steps[0].parent == 2


def test_peel_markov_step_count_and_structure():
    rng = RandomSource(5150)
    steps, tree = peel_markov(25, UniformRule(rng.child(1)), rng.child(0))
    assert len(steps) == 24
    assert sorted((s.peeled, s.parent) for s in steps) == sorted(
        zip(range(1, 25), tree.parents))


# ---------------------------------------------------------------------------
# First branch of the smallest-label exploration
# ---------------------------------------------------------------------------

def _branch_length_by_exploration(tree):
    """Steps of the fixed-tree smallest-label exploration until 1 is blue."""
    state = ForestState(tree.n)
    rule = SmallestLabelRule()
    t = 0
    while not state.is_blue(1):
        v = rule.select(state)
        state.attach(v, tree.parent_of(v))
        t += 1
    return t


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_first_branch_law_matches_enumeration(n):
    counts = Counter(_branch_length_by_exploration(t) for t in enumerate_all(n))
    law = first_branch_law(n)
    enumerated = {k: Fraction(v, tree_count(n)) for k, v in counts.items()}
    assert enumerated == {k: p for k, p in law.items() if p}


def test_first_branch_law_n3_values():
    assert first_branch_law(3) == {1: Fraction(2, 3), 2: Fraction(1, 3)}


@pytest.mark.parametrize("n", [3, 5, 10, 40])
def test_first_branch_law_normalizes(n):
    assert sum(first_branch_law(n).values()) == 1


def test_first_branch_length_golden_digest():
    # taken at a fixed seed, so a change in stream use or in the one-step
    # law's draws shows up as a digest change
    lengths = [first_branch_length(10, RandomSource(5).child(i)) for i in range(50)]
    assert hashlib.sha256(repr(lengths).encode()).hexdigest() == (
        "ea286a068c35f4fff46dc0298546b80abe62b65bdd45bc72280959dace0ba396")


def test_first_branch_length_empirical():
    n = 6
    rng = RandomSource(606)
    emp = EmpiricalDistribution.from_samples(
        first_branch_length(n, rng.child(i)) for i in range(20_000)
    )
    assert emp.tv_to(first_branch_law(n)) < 0.02


def test_walk_law_proportional_to_branch_law():
    # the walk's first-repetition law equals (n-1)/n times the branch law
    # shifted by one (the walk counts the branch's vertices, the exploration
    # counts its edges), for every size
    for n in (3, 4, 7, 12):
        walk = first_repetition_law(n)
        branch = first_branch_law(n)
        for k in range(2, n + 1):
            assert walk[k] == Fraction(n - 1, n) * branch[k - 1]


def test_transition_weight_check_rejects_impossible_sizes():
    _check_transition_weights(5, 1, 4)
    _check_transition_weights(5, 4, 1)
    for ell, m in ((3, 3), (0, 2), (2, 0)):
        with pytest.raises(AssertionError):
            _check_transition_weights(5, ell, m)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _fixed_tree_trace(tree_file, capsys, *argv) -> str:
    """stdout of ``peel --fixed-tree tree_file --alg ab`` and ``argv``."""
    assert main(["peel", "--fixed-tree", str(tree_file), "--alg", "ab", *argv]) == 0
    return capsys.readouterr().out


def test_write_steps_csv(tmp_path, capsys):
    tree_file = tmp_path / "tree.txt"
    tree_file.write_text(format_trees([PATH_2_1_3]))
    text = _fixed_tree_trace(tree_file, capsys)
    assert text == "step,peeled,parent,recolored\n1,1,3,1\n2,2,1,1\n"
    # the same trace through --out, with LF line ends
    path = tmp_path / "steps.csv"
    assert _fixed_tree_trace(tree_file, capsys, "--out", str(path)) == ""
    assert path.read_bytes() == text.encode()


def test_peel_step_is_a_named_tuple(tmp_path, capsys, monkeypatch):
    step = PeelStep(peeled=3, parent=7, recolored_to_blue=True)
    assert step._fields == ("peeled", "parent", "recolored_to_blue")
    assert repr(step) == "PeelStep(peeled=3, parent=7, recolored_to_blue=True)"
    assert step == (3, 7, True)  # a tuple: equal to the plain tuple
    with pytest.raises(AttributeError):
        step.peeled = 4
    # the trace reads the fields by name and writes the flag as 0/1
    monkeypatch.setattr(peeling, "peel_fixed_tree",
                        lambda tree, rule: [step, PeelStep(1, 3, False)])
    tree_file = tmp_path / "tree.txt"
    tree_file.write_text(format_trees([PATH_2_1_3]))
    assert _fixed_tree_trace(tree_file, capsys) == (
        "step,peeled,parent,recolored\n1,3,7,1\n2,1,3,0\n"
    )
