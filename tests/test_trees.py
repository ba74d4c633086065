"""Trees: Pruefer correspondence, samplers, enumeration, serialization."""

import hashlib
import itertools
import pickle
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from cayley_greedy import (
    CayleyTree,
    RandomSource,
    SmallestLabelRule,
    UniformRule,
    aldous_broder_sample,
    enumerate_all,
    first_repetition_law,
    first_repetition_time,
    peel_markov,
    pitman_sample,
    pitman_sample_rooted,
    prufer_decode,
    prufer_encode,
    sample_uniform,
    tree_count,
)
from cayley_greedy.stats import EmpiricalDistribution, chi_square_uniform
from cayley_greedy.trees import (
    _key_sequence,
    prufer_from_string,
    prufer_to_string,
    read_trees,
    write_trees,
)
from strategies import parent_tables


# ---------------------------------------------------------------------------
# Pruefer correspondence
# ---------------------------------------------------------------------------

def test_decode_two_vertices():
    t = prufer_decode([], 2)
    assert t.n == 2
    assert t.parents == (2,)


def test_decode_three_vertices_center_one():
    # sequence [1]: edges {2-1} and {1-3}; rooted at 3 the parents are
    # parent(1) = 3, parent(2) = 1 (confirmed by the encode round trip below)
    t = prufer_decode([1], 3)
    assert t.parent_of(1) == 3
    assert t.parent_of(2) == 1
    assert prufer_encode(t) == [1]


def test_decode_star_center_four():
    t = prufer_decode([4, 4], 4)
    assert t.parents == (4, 4, 4)


def test_encode_examples():
    assert prufer_encode(CayleyTree(2, (2,))) == []
    assert prufer_encode(CayleyTree(4, (4, 4, 4))) == [4, 4]


def test_encode_requires_two_vertices():
    with pytest.raises(ValueError):
        prufer_encode(CayleyTree(1, ()))


def test_decode_rejects_bad_symbols():
    with pytest.raises(ValueError):
        prufer_decode([5], 4)
    with pytest.raises(ValueError):
        prufer_decode([0, 1], 4)
    with pytest.raises(ValueError):
        prufer_decode([1], 4)  # wrong length


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_round_trip_exhaustive(n):
    seen = set()
    for symbols in itertools.product(range(1, n + 1), repeat=max(n - 2, 0)):
        t = prufer_decode(list(symbols), n)
        assert tuple(prufer_encode(t)) == symbols
        seen.add(t.parents)
    assert len(seen) == tree_count(n)


@pytest.mark.parametrize("n", [10, 137, 10_000])
def test_round_trip_random(n):
    rng = RandomSource(2024)
    for i in range(3):
        t = sample_uniform(n, rng.child(i))
        assert prufer_decode(prufer_encode(t), n) == t


@settings(max_examples=200, deadline=None)
@given(parent_tables(max_n=200))
def test_round_trip_parent_tables(table):
    t = CayleyTree(*table)
    if t.n >= 2:
        assert prufer_decode(prufer_encode(t)) == t


def test_enumerate_counts():
    assert sum(1 for _ in enumerate_all(3)) == 3
    assert sum(1 for _ in enumerate_all(4)) == 16
    assert sum(1 for _ in enumerate_all(6)) == 6 ** 4


def test_enumerate_unique_and_valid():
    trees = list(enumerate_all(5))
    assert len(set(t.parents for t in trees)) == 125


def test_enumerate_cap():
    with pytest.raises(ValueError):
        next(iter(enumerate_all(10)))
    # the cap argument overrides
    assert sum(1 for _ in enumerate_all(2, cap=20)) == 1


def test_enumerate_cap_env_override(monkeypatch):
    monkeypatch.setenv("CAYLEY_GREEDY_CAP", "3")
    with pytest.raises(ValueError):
        next(iter(enumerate_all(4)))


# ---------------------------------------------------------------------------
# CayleyTree validation and serialization
# ---------------------------------------------------------------------------

def test_tree_rejects_cycles_and_bad_labels():
    with pytest.raises(ValueError):
        CayleyTree(3, (2, 1))  # 1 -> 2 -> 1 never reaches the root
    with pytest.raises(ValueError):
        CayleyTree(3, (4, 3))
    with pytest.raises(ValueError):
        CayleyTree(3, (3,))  # wrong length


def test_from_line_and_read_trees_reject_cycles_and_bad_labels(tmp_path):
    for line in ("3;2,1", "3;4,3"):  # a cycle, an out-of-range label
        with pytest.raises(ValueError):
            CayleyTree.from_line(line)
        path = tmp_path / "trees.txt"
        path.write_text("2;2\n" + line + "\n")
        with pytest.raises(ValueError):
            read_trees(str(path))


def test_tree_serialization_round_trip():
    t = prufer_decode([2, 2, 5], 5)
    assert CayleyTree.from_line(t.to_line()) == t
    assert CayleyTree.from_line("1;").n == 1
    assert CayleyTree.from_line("2;2").parents == (2,)


def test_prufer_string_round_trip():
    assert prufer_from_string(prufer_to_string([4, 1, 2])) == [4, 1, 2]
    assert prufer_from_string("") == []


def test_tree_file_round_trip(tmp_path):
    rng = RandomSource(64)
    batch = [sample_uniform(7, rng.child(i)) for i in range(4)]
    path = tmp_path / "trees.txt"
    write_trees(batch, str(path))
    assert read_trees(str(path)) == batch


# ---------------------------------------------------------------------------
# RandomSource
# ---------------------------------------------------------------------------

def test_random_source_reproducible():
    a = [RandomSource(99).uniform() for _ in range(5)]
    b = [RandomSource(99).uniform() for _ in range(5)]
    assert a == b


def test_random_source_children_insensitive_to_parent_draws():
    r1 = RandomSource(5)
    r1.uniform()
    r2 = RandomSource(5)
    assert r1.child(3).uniform() == r2.child(3).uniform()
    assert r1.child(1).uniform() != r1.child(2).uniform()
    # a child's draws do not depend on whether its parent's generator was
    # ever built: drawn from, built without a draw, or never built
    drawn, built, unbuilt = RandomSource(5), RandomSource(5), RandomSource(5)
    drawn.integer(0, 10)
    built.generator
    draws = [
        [(c.uniform(), c.integer(0, 1000)) for _ in range(4)]
        for c in (drawn.child(3).child(0), built.child(3).child(0),
                  unbuilt.child(3).child(0))
    ]
    assert draws[0] == draws[1] == draws[2]


def test_random_source_draws_golden_digest():
    # taken when the generator was built eagerly in the constructor; a
    # stream depends only on (seed, path), however it is built
    h = hashlib.sha256()
    for seed, path in [(0, ()), (5, (3,)), (2024, (1, 0)), (0x5EED, (7, 2, 9)),
                       (2**40 + 3, (123456,))]:
        r = RandomSource(seed, path)
        scalars = ([r.uniform() for _ in range(3)]
                   + [r.integer(1, 1000) for _ in range(3)])
        h.update(repr(scalars).encode())
        h.update(r.generator.random((4, 8)).tobytes())
        h.update(r.generator.permutation(10).tobytes())
    assert h.hexdigest() == (
        "062de466251616d7272cc87393752bf86b3864579e44396e68426fb7ca33001f")


def _stream_key(source):
    return source.generator.bit_generator.state["state"]["key"].tolist()


def _seed_sequence_key(seed, path):
    return np.random.SeedSequence(entropy=seed, spawn_key=path).generate_state(
        2, np.uint64).tolist()


def _seeds_and_paths(count):
    """Random (seed, path) pairs, with the word-boundary cases first."""
    cases = [(0, ()), (0, (0,)), (2**32 - 1, (2**32 - 1,)), (2**32, (2**32,)),
             (2**128, ()), (2**128 - 1, (1,)), (3 * 2**160 + 7, (0, 2**64 + 5)),
             (5, (2**32, 0, 2**96))]
    rnd = random.Random(20211)
    while len(cases) < count:
        seed = rnd.getrandbits(rnd.choice([1, 8, 31, 32, 33, 64, 127, 128, 129, 200]))
        path = tuple(rnd.getrandbits(rnd.choice([1, 4, 16, 32, 33, 70]))
                     for _ in range(rnd.randrange(5)))
        cases.append((seed, path))
    return cases


def test_philox_key_matches_seed_sequence():
    # SeedSequence is the oracle: seeds of 1-7 words (below and above the
    # four-word pool), path entries of 1-3 words, and empty paths
    for seed, path in _seeds_and_paths(2000):
        assert _stream_key(RandomSource(seed, path)) == _seed_sequence_key(seed, path), (
            seed, path)


def test_child_chain_equals_direct_construction():
    for seed, path in _seeds_and_paths(200):
        chained = RandomSource(seed)
        for index in path:
            chained = chained.child(index)
        direct = RandomSource(seed, path)
        assert chained.path == direct.path == path
        assert _stream_key(chained) == _stream_key(direct)
        # a directly built source with a path also caches its pool for children
        assert (_stream_key(RandomSource(seed, path).child(9))
                == _seed_sequence_key(seed, path + (9,)))
    a, b = RandomSource(77).child(4).child(0), RandomSource(77, (4, 0))
    assert [a.uniform() for _ in range(5)] == [b.uniform() for _ in range(5)]


@pytest.mark.parametrize("n_words, dtype", [(2, np.uint32), (4, np.uint32),
                                             (1, np.uint64), (4, np.uint64)])
def test_philox_key_refuses_other_state_requests(n_words, dtype):
    key = _key_sequence((1, 2**64 - 1))
    assert key.generate_state(2, np.uint64).tolist() == [1, 2**64 - 1]
    with pytest.raises(ValueError, match="generate_state"):
        key.generate_state(n_words, dtype)


def test_drawn_source_survives_pickle():
    source = RandomSource(2024).child(3)
    source.uniform()
    clone = pickle.loads(pickle.dumps(source))
    assert clone.path == (3,)
    assert [clone.uniform() for _ in range(4)] == [source.uniform() for _ in range(4)]
    assert clone.child(1).integer(0, 10**9) == source.child(1).integer(0, 10**9)


@pytest.mark.parametrize("build", [
    lambda: RandomSource(-1),
    lambda: RandomSource(1, (2, -1)),
    lambda: RandomSource(1).child(-1),
])
def test_random_source_rejects_negative_at_construction(build):
    with pytest.raises(ValueError, match="non-negative"):
        build()


def test_ab_exploration_builds_one_generator(monkeypatch):
    # built like the markov_peel workload: master.child(i), then
    # .child(0); only the stream drawn from gets a generator
    built = []
    philox = np.random.Philox

    def counting_philox(*args, **kwargs):
        built.append(args)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    master = RandomSource(17)
    child = master.child(3)
    peel_markov(4, SmallestLabelRule(), child.child(0))
    assert len(built) == 1


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

def _tree_frequencies(sampler, n, samples, seed):
    rng = RandomSource(seed)
    counts = Counter()
    for i in range(samples):
        counts[sampler(n, rng.child(i)).parents] += 1
    return counts


def test_sample_uniform_degenerate_sizes():
    rng = RandomSource(0)
    assert sample_uniform(1, rng).n == 1
    assert sample_uniform(2, rng).parents == (2,)


def test_sample_uniform_chi_square_n3():
    counts = _tree_frequencies(sample_uniform, 3, 30_000, seed=11)
    assert len(counts) == 3
    _, p = chi_square_uniform(list(counts.values()))
    assert p > 1e-3


def test_sample_uniform_chi_square_n4():
    counts = _tree_frequencies(sample_uniform, 4, 50_000, seed=12)
    assert len(counts) == 16
    _, p = chi_square_uniform(list(counts.values()))
    assert p > 1e-3


def test_pitman_two_vertices_root_uniform():
    # one Pitman step: V uniform on {1,2}, the other vertex attaches to it,
    # so the discovered root is uniform
    rng = RandomSource(21)
    roots = Counter(pitman_sample_rooted(2, rng.child(i))[1] for i in range(4000))
    assert set(roots) == {1, 2}
    _, p = chi_square_uniform([roots[1], roots[2]])
    assert p > 1e-3


def test_pitman_rooted_chi_square_n3():
    # nine equiprobable rooted trees on three vertices
    rng = RandomSource(22)
    counts = Counter()
    for i in range(90_000):
        parent, root = pitman_sample_rooted(3, rng.child(i))
        counts[(root, tuple(sorted(parent.items())))] += 1
    assert len(counts) == 9
    _, p = chi_square_uniform(list(counts.values()))
    assert p > 1e-3


def test_pitman_relabeled_uniform_n4():
    counts = _tree_frequencies(pitman_sample, 4, 50_000, seed=23)
    assert len(counts) == 16
    _, p = chi_square_uniform(list(counts.values()))
    assert p > 1e-3


def test_pitman_single_vertex():
    t = pitman_sample(1, RandomSource(1))
    assert t.n == 1


def test_aldous_broder_two_vertices():
    for i in range(5):
        assert aldous_broder_sample(2, RandomSource(i)).parents == (2,)


def test_aldous_broder_chi_square_n4():
    counts = _tree_frequencies(aldous_broder_sample, 4, 50_000, seed=31)
    assert len(counts) == 16
    _, p = chi_square_uniform(list(counts.values()))
    assert p > 1e-3


def _peel_markov_tree(n, rng):
    rule = UniformRule(rng.child(1)) if n % 2 else SmallestLabelRule()
    return peel_markov(n, rule, rng.child(0))[1]


@pytest.mark.parametrize("sampler", [
    sample_uniform, pitman_sample, aldous_broder_sample, _peel_markov_tree,
], ids=["prufer", "pitman", "aldous-broder", "peel-markov"])
def test_sampled_trees_pass_validation(sampler):
    # samplers skip validation; what they build must pass it anyway
    rng = RandomSource(808)
    for i, n in enumerate([1, 2, 3, 4, 7, 30, 31, 200, 1001]):
        t = sampler(n, rng.child(i))
        assert CayleyTree(t.n, t.parents) == t


# ---------------------------------------------------------------------------
# First repetition time of the walk
# ---------------------------------------------------------------------------

def test_first_repetition_law_n3_values():
    law = first_repetition_law(3)
    assert law == {1: Fraction(1, 3), 2: Fraction(4, 9), 3: Fraction(2, 9)}


@pytest.mark.parametrize("n", [2, 3, 5, 10, 25])
def test_first_repetition_law_normalizes(n):
    assert sum(first_repetition_law(n).values()) == 1


def test_first_repetition_time_matches_law():
    n = 10
    rng = RandomSource(41)
    emp = EmpiricalDistribution.from_samples(
        first_repetition_time(n, rng.child(i)) for i in range(100_000)
    )
    assert emp.tv_to(first_repetition_law(n)) < 0.01
