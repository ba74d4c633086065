"""Trees: Pruefer correspondence, samplers, enumeration, serialization."""

import hashlib
import itertools
import pickle
import random
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayley_greedy import (
    CayleyTree,
    RandomSource,
    SmallestLabelRule,
    UniformRule,
    aldous_broder_sample,
    enumerate_all,
    peel_markov,
    pitman_sample,
    pitman_sample_rooted,
    prufer_decode,
    sample_uniform,
    tree_count,
)
from cayley_greedy import trees
from cayley_greedy.stats import EmpiricalDistribution, chi_square_uniform
from cayley_greedy.trees import (
    _batch_decoder, _decode_parents, _parent_batches, format_trees, read_trees,
)
from oracles import first_repetition_law, first_repetition_time, prufer_encode
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
        assert prufer_decode(prufer_encode(t), t.n) == t


def test_enumerate_counts():
    assert sum(1 for _ in enumerate_all(3)) == 3
    assert sum(1 for _ in enumerate_all(4)) == 16
    assert sum(1 for _ in enumerate_all(6)) == 6 ** 4


@pytest.mark.parametrize("n", range(1, 8))
def test_parent_batches_decode_in_product_order(n):
    batches = list(_parent_batches(n))
    rows = [tuple(row) for batch in batches for row in batch.tolist()]
    sequences = itertools.product(range(1, n + 1), repeat=max(n - 2, 0))
    assert rows == [prufer_decode(list(seq), n).parents for seq in sequences]
    # at n = 7 the grid holds the trailing 4 symbols, 7^4 <= 8192 < 7^5
    assert len(batches) == (7 if n == 7 else 1)


@pytest.mark.parametrize("n", [8, 9])
def test_batch_decode_past_the_exhaustive_range(n):
    # n = 8 is the first size whose batches fix two leading symbols, and
    # n = 9 fixes three (9^4 <= 8192 < 9^5); the first, an inner and the
    # last prefix are decoded.  The inner one, (3, 6) and (4, 1, 1), is no
    # palindrome, so a prefix folded in reverse order shows
    lead, decode = _batch_decoder(n)
    assert lead == {8: 2, 9: 3}[n]
    prefixes = list(itertools.product(range(1, n + 1), repeat=lead))
    inner = len(prefixes) // 3
    for prefix in (prefixes[0], prefixes[inner], prefixes[-1]):
        tails = itertools.product(range(1, n + 1), repeat=n - 2 - lead)
        rows = [tuple(row) for row in decode(prefix).tolist()]
        assert rows == [prufer_decode([*prefix, *tail], n).parents for tail in tails], prefix
    if n == 8:
        batches = list(_parent_batches(n))
        assert len(batches) == len(prefixes)
        for i in (0, inner, -1):
            assert np.array_equal(batches[i], decode(prefixes[i]))


def test_parent_batches_mask_width(monkeypatch):
    # labels 1..n live as bits of a uint64, so n = 63 is the last size the
    # cap's override reaches; the first batch at n = 63 sets bit 63
    monkeypatch.setenv("CAYLEY_GREEDY_CAP", "64")
    with pytest.raises(ValueError, match="above 63"):
        next(iter(_parent_batches(64)))
    with pytest.raises(ValueError, match="above 63"):
        next(iter(enumerate_all(64)))
    first = next(iter(_parent_batches(63)))
    tails = itertools.product(range(1, 64), repeat=2)
    assert [tuple(row) for row in first.tolist()] == [
        prufer_decode([1] * 59 + list(tail), 63).parents for tail in tails]


def test_enumerate_unique_and_valid():
    trees = list(enumerate_all(5))
    assert len(set(t.parents for t in trees)) == 125


def test_enumerate_cap(monkeypatch):
    with pytest.raises(ValueError):
        next(iter(enumerate_all(10)))
    # the environment variable overrides
    monkeypatch.setenv("CAYLEY_GREEDY_CAP", "20")
    assert sum(1 for _ in enumerate_all(2)) == 1


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


@pytest.mark.parametrize("parents, vertex", [
    ((3.0, 3.0), 1), ((3.5, 3), 1), (("3", 3), 1), ((3, 2.0), 2)])
def test_tree_rejects_labels_that_are_not_integers(parents, vertex):
    label = parents[vertex - 1]
    with pytest.raises(TypeError, match=re.escape(
            f"parent of vertex {vertex} must be an integer label, got {label!r}")):
        CayleyTree(3, parents)


def test_tree_stores_integer_labels_as_python_ints():
    t = CayleyTree(3, (np.int64(3), np.uint8(3)))
    assert t.parents == (3, 3)
    assert all(type(p) is int for p in t.parents)
    assert t == CayleyTree(3, (3, 3))


def test_from_line_and_read_trees_reject_cycles_and_bad_labels(tmp_path):
    # a cycle, an out-of-range label, and empty parent fields; the file's
    # error names the file and the bad line's number
    for line in ("3;2,1", "3;4,3", "3;3,,3", "3;,3,3", "3;3,3,"):
        with pytest.raises(ValueError):
            CayleyTree.from_line(line)
        path = tmp_path / "trees.txt"
        path.write_text("2;2\n" + line + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 2: ")):
            read_trees(str(path))


def test_tree_serialization_round_trip():
    t = prufer_decode([2, 2, 5], 5)
    assert CayleyTree.from_line(t.to_line()) == t
    assert CayleyTree.from_line("1;").n == 1
    assert CayleyTree.from_line("2;2").parents == (2,)


def test_tree_file_round_trip(tmp_path):
    rng = RandomSource(64)
    batch = [sample_uniform(7, rng.child(i)) for i in range(4)]
    text = format_trees(batch)
    assert text == "".join(t.to_line() + "\n" for t in batch)
    path = tmp_path / "trees.txt"
    path.write_text(text)
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
        r = _source(seed, path)
        scalars = ([r.uniform() for _ in range(3)]
                   + [r.integer(1, 1000) for _ in range(3)])
        h.update(repr(scalars).encode())
        h.update(r.generator.random((4, 8)).tobytes())
        h.update(r.generator.permutation(10).tobytes())
    assert h.hexdigest() == (
        "062de466251616d7272cc87393752bf86b3864579e44396e68426fb7ca33001f")


def _source(seed, path):
    """RandomSource(seed).child(path[0]).child(path[1])..."""
    source = RandomSource(seed)
    for index in path:
        source = source.child(index)
    return source


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
        assert _stream_key(_source(seed, path)) == _seed_sequence_key(seed, path), (
            seed, path)


def test_child_of_a_keyed_source_reads_the_cached_pool():
    for seed, path in _seeds_and_paths(200):
        source = _source(seed, path)
        assert source.path == path
        # keying the source caches the pool along its path; a child made
        # afterwards absorbs only its own index into it
        assert _stream_key(source) == _seed_sequence_key(seed, path)
        assert (_stream_key(source.child(9))
                == _seed_sequence_key(seed, path + (9,)))
    a, b = RandomSource(77).child(4).child(0), _oracle(77, (4, 0))
    assert [a.uniform() for _ in range(5)] == [b.random() for _ in range(5)]


# ---------------------------------------------------------------------------
# Scalar draws from raw Philox words; numpy's Generator is the oracle
# ---------------------------------------------------------------------------

#: ranges that RandomSource.integer computes from raw words: one integer
#: draws nothing, 2 .. 2^32 - 1 integers run the Lemire method (2^31 + 1
#: rejects about half its draws), and 2^32 - 1 is the widest
RAW_RANGES = [(3, 4), (0, 2), (-1, 2), (5, 12), (0, 10**9), (7, 7 + 2**31 + 1),
              (0, 2**32 - 1)]
#: draws that go to numpy's integers and hand the stream to it
NUMPY_DRAWS = [(0, 2**32), (-5, 2**40 - 5), (np.int64(0), np.int64(10))]


def _oracle(seed, path=()):
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=path)))


def _philox_state(bit_generator):
    # numpy leaves a used half word in "uinteger"; only a pending one counts
    state = bit_generator.state
    return (state["state"]["counter"].tolist(), state["state"]["key"].tolist(),
            state["buffer"].tolist(), state["buffer_pos"],
            state["uinteger"] if state["has_uint32"] else None)


def _draw_both(source, oracle, op):
    """One scripted draw from both; op is (low, high), or None for a uniform."""
    if op is None:
        got, want = source.uniform(), oracle.random()
    else:
        got, want = source.integer(*op), int(oracle.integers(*op))
    assert type(got) is type(want) and got == want, op


def _script(rnd, count, ops):
    return [rnd.choice(ops) for _ in range(count)]


def test_range_of_one_draws_nothing_in_numpy():
    oracle = _oracle(3)
    oracle.integers(0, 10)
    before = _philox_state(oracle.bit_generator)
    assert int(oracle.integers(3, 4)) == 3
    assert _philox_state(oracle.bit_generator) == before


def test_raw_word_draws_equal_numpy_generator():
    rnd = random.Random(1414)
    for seed, path in [(0, ()), (5, (3,)), (2024, (1, 0)), (2**40 + 3, (123456,))]:
        source, oracle = _source(seed, path), _oracle(seed, path)
        for op in _script(rnd, 3000, RAW_RANGES + [None, None]):
            _draw_both(source, oracle, op)
        # the hand-off writes a pending half into numpy's state, and the two
        # bit generators then agree word for word
        assert (_philox_state(source.generator.bit_generator)
                == _philox_state(oracle.bit_generator))


def test_numpy_draws_take_over_the_stream():
    rnd = random.Random(1515)
    pending_at_hand_off = set()
    for case in range(12):
        source, oracle = RandomSource(31).child(case), _oracle(31, (case,))
        for op in _script(rnd, rnd.randrange(1, 40), RAW_RANGES + [None]):
            _draw_both(source, oracle, op)
        pending_at_hand_off.add(oracle.bit_generator.state["has_uint32"])
        _draw_both(source, oracle, NUMPY_DRAWS[case % len(NUMPY_DRAWS)])
        for low, high in [(4, 4), (5, 2)]:
            with pytest.raises(ValueError):
                source.integer(low, high)
            with pytest.raises(ValueError):
                oracle.integers(low, high)
        for op in _script(rnd, 200, RAW_RANGES + NUMPY_DRAWS + [None]):
            _draw_both(source, oracle, op)
    assert pending_at_hand_off == {0, 1}


@pytest.mark.parametrize("pending", [0, 1])
def test_generator_vector_draws_after_scalar_draws(pending):
    source, oracle = RandomSource(77).child(2), _oracle(77, (2,))
    # range 7 rejects with probability 7 / 2^32, so 4 + pending 32-bit
    # draws leave a half word pending exactly when pending is 1
    for op in [(0, 7), None] * (4 + pending):
        _draw_both(source, oracle, op)
    assert oracle.bit_generator.state["has_uint32"] == pending
    gen = source.generator
    assert gen.integers(0, 10, size=5).tolist() == oracle.integers(0, 10, size=5).tolist()
    assert gen.random(3).tolist() == oracle.random(3).tolist()
    assert gen.permutation(10).tolist() == oracle.permutation(10).tolist()
    for op in _script(random.Random(pending), 300, RAW_RANGES + NUMPY_DRAWS + [None]):
        _draw_both(source, oracle, op)


def test_drawn_source_survives_pickle():
    source, oracle = RandomSource(2024).child(3), _oracle(2024, (3,))
    _draw_both(source, oracle, None)
    _draw_both(source, oracle, (0, 10))
    assert oracle.bit_generator.state["has_uint32"] == 1  # a half word pending
    clone = pickle.loads(pickle.dumps(source))
    twin = pickle.loads(pickle.dumps(oracle))
    assert clone.path == (3,)
    for op in _script(random.Random(3), 300, RAW_RANGES + [None]):
        _draw_both(source, oracle, op)
        _draw_both(clone, twin, op)
    assert clone.child(1).integer(0, 10**9) == source.child(1).integer(0, 10**9)


# ---------------------------------------------------------------------------
# The shared bit generator: streams re-key it per batch of words
# ---------------------------------------------------------------------------

def test_interleaved_streams_each_equal_their_oracle():
    # every refill re-keys the one shared Philox; drawing the streams in a
    # random order shows that no refill disturbs another stream's words.
    # The refill writes the key as Python ints, so one stream has both key
    # words at or above 2^63, where a signed 64-bit conversion would fail
    high = next(i for i in itertools.count()
                if min(_seed_sequence_key(31, (i,))) >= 2**63)
    rnd = random.Random(1616)
    pairs = [(_source(seed, path), _oracle(seed, path))
             for seed, path in [(0, ()), (5, (3,)), (5, (3, 0)), (2024, (1, 0)),
                                (2**40 + 3, (123456,)), (31, (high,))]]
    for _ in range(6000):
        source, oracle = rnd.choice(pairs)
        _draw_both(source, oracle, rnd.choice(RAW_RANGES + [None, None]))
    for source, oracle in pairs:
        assert (_philox_state(source.generator.bit_generator)
                == _philox_state(oracle.bit_generator))


def test_long_stream_reads_past_the_batch_cap():
    # refills hold 2, 2, 4, 8, ... blocks, up to 256 blocks of four words;
    # about 2600 words of uniforms and then integers read 513 to 768
    # blocks, which an uncapped batch after the first 512 would overshoot
    source, oracle = RandomSource(88).child(1), _oracle(88, (1,))
    for _ in range(1500):
        _draw_both(source, oracle, None)
    for _ in range(2000):
        _draw_both(source, oracle, (0, 10**9))
    assert source._block == 512 + 256
    assert (_philox_state(source.generator.bit_generator)
            == _philox_state(oracle.bit_generator))
    assert source.generator.random(9).tolist() == oracle.random(9).tolist()


@pytest.mark.parametrize("words, pending", [
    (words, pending) for words in range(21) for pending in (False, True)
    if words or not pending])
def test_generator_hand_off_after_any_number_of_words(words, pending):
    # the hand-off rebuilds numpy's counter, buffer and buffer_pos from the
    # stream's position, at every offset within a block and a batch; with a
    # half pending, the last of the words was an integer draw
    source, oracle = RandomSource(404).child(words), _oracle(404, (words,))
    for _ in range(words - pending):
        _draw_both(source, oracle, None)
    if pending:
        _draw_both(source, oracle, (0, 7))
    assert oracle.bit_generator.state["has_uint32"] == pending
    assert (_philox_state(source.generator.bit_generator)
            == _philox_state(oracle.bit_generator))
    gen = source.generator
    assert gen.integers(0, 10, size=5).tolist() == oracle.integers(0, 10, size=5).tolist()
    assert gen.random(7).tolist() == oracle.random(7).tolist()
    for op in _script(random.Random(words), 50, RAW_RANGES + NUMPY_DRAWS + [None]):
        _draw_both(source, oracle, op)


def test_source_pickled_mid_batch():
    # pickled with words of its batch still unread: the clone reads them
    # first, then refills at the same block as the original
    source, oracle = RandomSource(31).child(8), _oracle(31, (8,))
    for _ in range(11):
        _draw_both(source, oracle, None)
    assert 0 < len(source._words) < 4 * source._block
    clone = pickle.loads(pickle.dumps(source))
    twin = pickle.loads(pickle.dumps(oracle))
    for op in _script(random.Random(8), 400, RAW_RANGES + [None]):
        _draw_both(clone, twin, op)
        _draw_both(source, oracle, op)
    assert (_philox_state(clone.generator.bit_generator)
            == _philox_state(twin.bit_generator))


@pytest.mark.parametrize("build", [
    lambda: RandomSource(2.9),
    lambda: RandomSource(5).child(1.7),
    lambda: RandomSource(5).child(1.0),
    lambda: RandomSource("3"),
])
def test_random_source_rejects_non_integers(build):
    # int() would truncate 2.9 to 2 and alias another stream;
    # SeedSequence raises TypeError for these too
    with pytest.raises(TypeError, match="^(seed|child index) must be an integer, got "):
        build()


def test_random_source_takes_numpy_integers():
    a = RandomSource(np.int64(5)).child(np.uint32(3))
    assert type(a.seed) is int and a.path == (3,)
    assert a.uniform() == _oracle(5, (3,)).random()


@pytest.mark.parametrize("build", [
    lambda: RandomSource(-1),
    lambda: RandomSource(1).child(2).child(-1),
    lambda: RandomSource(1).child(-1),
])
def test_random_source_rejects_negative_at_construction(build):
    with pytest.raises(ValueError, match="^(seed|child index) must be at least 0, got -1$"):
        build()


def test_ab_exploration_builds_one_generator(monkeypatch):
    # built like the markov_peel workload: master.child(i), then
    # .child(0); scalar draws read the one shared bit generator, which a
    # draw made before counting has built, and never build numpy's
    # Generator or a Philox of their own
    RandomSource(0).uniform()
    built = {"Philox": [], "Generator": []}
    for name, original in [("Philox", np.random.Philox),
                           ("Generator", np.random.Generator)]:
        def counting(*args, _log=built[name], _original=original, **kwargs):
            _log.append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.random, name, counting)
    master = RandomSource(17)
    child = master.child(3)
    peel_markov(4, SmallestLabelRule(), child.child(0))
    assert built["Philox"] == []
    peel_markov(6, UniformRule(master.child(4)), master.child(5))
    pitman_sample(20, master.child(6))
    first_repetition_time(20, master.child(7))
    assert built == {"Philox": [], "Generator": []}
    # a numpy integer n once made every parent draw's span an np.int64,
    # which the scalar path passed to a freshly built Generator
    peel_markov(np.int64(6), SmallestLabelRule(), master.child(8))
    assert built == {"Philox": [], "Generator": []}


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
# Pruefer decode in array passes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(3, 8))
def test_decode_parents_equals_loop_exhaustive(n, monkeypatch):
    # every sequence here settles within five passes (CHANGES.md records a
    # one-off run over all of n = 8, which settled within five as well)
    monkeypatch.setattr(trees, "_DECODE_PASSES", 5)
    sequences = np.array(list(itertools.product(range(1, n + 1), repeat=n - 2)))
    expected = np.concatenate(list(_parent_batches(n)))
    for symbols, want in zip(sequences, expected):
        assert _decode_parents(symbols, n).tolist() == want.tolist(), symbols


def _zigzag(n):
    """2, n - 1, 3, n - 2, ...: the most passes among the shapes tried."""
    low, high = list(range(2, n)), list(range(n - 1, 1, -1))
    return [x for pair in zip(low, high) for x in pair][:n - 2]


@st.composite
def _pruefer_sequences(draw):
    n = draw(st.integers(min_value=3, max_value=200))
    m = n - 2
    kind = draw(st.sampled_from(
        ["any", "zigzag", "decreasing", "increasing", "few symbols", "sorted"]))
    if kind == "zigzag":
        return n, _zigzag(n)
    if kind == "decreasing":
        return n, list(range(n - 1, n - 1 - m, -1))
    if kind == "increasing":
        return n, list(range(2, 2 + m))
    if kind == "few symbols":
        pool = draw(st.lists(st.integers(1, n), min_size=1, max_size=3))
        return n, draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m))
    symbols = draw(st.lists(st.integers(1, n), min_size=m, max_size=m))
    return n, sorted(symbols) if kind == "sorted" else symbols


@settings(max_examples=200, deadline=None)
@given(_pruefer_sequences())
def test_decode_parents_equals_loop(case):
    n, symbols = case
    par = _decode_parents(np.array(symbols, dtype=np.int64), n)
    assert par is not None
    assert par.tolist() == list(prufer_decode(symbols, n).parents)


@pytest.mark.parametrize("n", [1000, 10_000, 100_000])
def test_decode_parents_equals_loop_on_shapes(n):
    shapes = {
        "zigzag": _zigzag(n),
        "decreasing": list(range(n - 1, 1, -1)),
        "increasing": list(range(2, n)),
        "one symbol": [1] * (n - 2),
        "sorted": sorted(RandomSource(n).generator.integers(1, n + 1, n - 2).tolist()),
    }
    for name, symbols in shapes.items():
        par = _decode_parents(np.array(symbols, dtype=np.int64), n)
        if par is None:
            # past the pass cap: the zigzag and the decreasing sequence
            # need 19 passes at n = 10^5
            assert n == 100_000 and name in ("zigzag", "decreasing"), name
            continue
        assert par.tolist() == list(prufer_decode(symbols, n).parents), name


def test_sample_uniform_falls_back_past_the_pass_cap(monkeypatch):
    n = 2000
    want = [sample_uniform(n, RandomSource(5).child(i)) for i in range(3)]
    decoded = []

    def counting(symbols, n=None):
        decoded.append(len(symbols))
        return prufer_decode(symbols, n)

    monkeypatch.setattr(trees, "_DECODE_PASSES", 1)
    monkeypatch.setattr(trees, "prufer_decode", counting)
    got = [sample_uniform(n, RandomSource(5).child(i)) for i in range(3)]
    assert decoded == [n - 2] * 3
    assert got == want


def test_array_tree_equals_its_tuple_twin():
    n = 1000
    built = sample_uniform(n, RandomSource(3).child(0))
    twin = CayleyTree(n, built.parent_array.tolist())
    # each view is made from the other on first use: the decoded tree
    # holds no tuple, and the list-built one no array, until it is read
    assert type(built) is type(twin) is CayleyTree
    assert not hasattr(built, "_parents") and not hasattr(twin, "_array")
    assert built.parents == twin.parents and not hasattr(twin, "_array")
    assert built.parent_array.dtype == twin.parent_array.dtype == np.int64
    assert built.parents is built.parents and twin.parent_array is twin.parent_array
    assert built == twin and twin == built
    assert hash(built) == hash(twin)
    assert Counter([built, twin, built.parents, twin.parents]) == \
        Counter({twin: 2, twin.parents: 2})
    assert built.to_line() == twin.to_line()
    assert repr(built) == repr(twin)
    for tree in (built, twin):
        clone = pickle.loads(pickle.dumps(tree))
        assert clone == twin and hash(clone) == hash(twin)
        assert not clone.parent_array.flags.writeable


# ---------------------------------------------------------------------------
# First repetition time of the walk
# ---------------------------------------------------------------------------

def test_first_repetition_law_n3_values():
    law = first_repetition_law(3)
    assert law == {1: Fraction(1, 3), 2: Fraction(4, 9), 3: Fraction(2, 9)}


@pytest.mark.parametrize("n", [2, 3, 5, 10, 25])
def test_first_repetition_law_normalizes(n):
    assert sum(first_repetition_law(n).values()) == 1


def test_first_repetition_time_golden_digest():
    # taken when the walk drew through Generator.integers
    times = [first_repetition_time(30, RandomSource(4).child(i)) for i in range(200)]
    assert hashlib.sha256(repr(times).encode()).hexdigest() == (
        "2fdbec04c762aa809cdbae5356c04d15f397987c14936adcea173e2f362dc53d")


def test_first_repetition_time_matches_law():
    n = 10
    rng = RandomSource(41)
    emp = EmpiricalDistribution.from_samples(
        first_repetition_time(n, rng.child(i)) for i in range(100_000)
    )
    assert emp.tv_to(first_repetition_law(n)) < 0.01
