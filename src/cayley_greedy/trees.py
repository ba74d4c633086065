"""Labeled trees on {1..n}: construction, uniform sampling, enumeration.

Every tree is stored rooted at the vertex with the largest label n, as a
parent table.  Uniform sampling goes through Pruefer sequences; two
alternative samplers (Pitman's coalescing-forest construction and the
random-walk construction) are provided because their step-by-step behaviour
is of independent interest and both are exercised by the test suite.
"""

from __future__ import annotations

import functools
import itertools
import operator
import os
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

#: largest size accepted by :func:`enumerate_all` unless CAYLEY_GREEDY_CAP
#: overrides it (9**7 ~ 4.8M trees; ``enumeration_law(9)`` takes under a second).
DEFAULT_ENUMERATION_CAP = 9

_CAP_ENV_VAR = "CAYLEY_GREEDY_CAP"


def _size(value: int, least: int = 1, name: str = "n") -> int:
    """A size, count, seed or child index as a Python int (``operator.index``)
    of at least ``least``; else TypeError or ValueError, naming the argument
    ``name``.  The one check of the rule "an integer of at least k"."""
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


def _label(label: int, vertex: int) -> int:
    """Vertex ``vertex``'s parent label as a Python int (``operator.index``);
    else TypeError, naming the vertex and the label."""
    try:
        return operator.index(label)
    except TypeError:
        raise TypeError(f"parent of vertex {vertex} must be an integer label, "
                        f"got {label!r}") from None


def _cap(default: int) -> int:
    """The size cap: CAYLEY_GREEDY_CAP, a non-negative integer, if set, else ``default``."""
    value = os.environ.get(_CAP_ENV_VAR)
    if not value:
        return default
    if not value.strip().isdecimal():
        raise ValueError(f"{_CAP_ENV_VAR} must be a non-negative integer, got {value!r}")
    return int(value)


# Philox key derivation, word for word as numpy's SeedSequence does it
# (hash and mix constants from numpy.random.bit_generator):
#   1. hash the seed's first four 32-bit words, zero-padded, into a pool;
#   2. cross-mix the pool;
#   3. absorb the seed's further words, then each path entry's words, low
#      word first, each word mixed into all four pool words;
#   4. hash the pool into the two 64-bit key words.
# A root's pool after steps 1-3 is SeedSequence's own ``pool``.  Step 3 is
# sequential, so a child's pool is its parent's pool plus the child index's
# words, absorbed here.  The hash constant advances by one multiplication
# per hashed word and never depends on the data.
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_KEY_B1 = _INIT_B * _MULT_B & _MASK32
_KEY_B2 = _KEY_B1 * _MULT_B & _MASK32
_KEY_B3 = _KEY_B2 * _MULT_B & _MASK32
_KEY_B4 = _KEY_B3 * _MULT_B & _MASK32

#: the four pool words, then the next hash constant
_Pool = tuple[int, int, int, int, int]


def _absorb(state: _Pool, value: int) -> _Pool:
    """Mix the 32-bit words of a non-negative int into the pool, low word first.

    Zero counts as one word.  Each word is hashed four times, the constant
    ``c`` advancing each time, and each hash is mixed into one pool word;
    this is every child stream's hot path, so the four updates are written
    out.
    """
    p0, p1, p2, p3, c = state
    while True:
        w = value & _MASK32
        v = w ^ c
        c = c * _MULT_A & _MASK32
        v = v * c & _MASK32
        p0 = (_MIX_MULT_L * p0 - _MIX_MULT_R * (v ^ v >> 16)) & _MASK32
        p0 ^= p0 >> 16
        v = w ^ c
        c = c * _MULT_A & _MASK32
        v = v * c & _MASK32
        p1 = (_MIX_MULT_L * p1 - _MIX_MULT_R * (v ^ v >> 16)) & _MASK32
        p1 ^= p1 >> 16
        v = w ^ c
        c = c * _MULT_A & _MASK32
        v = v * c & _MASK32
        p2 = (_MIX_MULT_L * p2 - _MIX_MULT_R * (v ^ v >> 16)) & _MASK32
        p2 ^= p2 >> 16
        v = w ^ c
        c = c * _MULT_A & _MASK32
        v = v * c & _MASK32
        p3 = (_MIX_MULT_L * p3 - _MIX_MULT_R * (v ^ v >> 16)) & _MASK32
        p3 ^= p3 >> 16
        value >>= 32
        if not value:
            return p0, p1, p2, p3, c


def _philox_key(state: _Pool) -> tuple[int, int]:
    """Step 4: ``SeedSequence.generate_state(2, np.uint64)`` of the pool."""
    p0, p1, p2, p3, _ = state
    s0 = (p0 ^ _INIT_B) * _KEY_B1 & _MASK32
    s1 = (p1 ^ _KEY_B1) * _KEY_B2 & _MASK32
    s2 = (p2 ^ _KEY_B2) * _KEY_B3 & _MASK32
    s3 = (p3 ^ _KEY_B3) * _KEY_B4 & _MASK32
    return (s0 ^ s0 >> 16 | (s1 ^ s1 >> 16) << 32,
            s2 ^ s2 >> 16 | (s3 ^ s3 >> 16) << 32)


@functools.cache
def _shared_philox():
    """(Philox, its state dict, that dict's counter and key lists).

    Every stream reads its words through this one bit generator: a refill
    writes the stream's key and block index into the dict and assigns it.
    The dict holds Python-int lists where ``Philox.state`` returns uint64
    arrays; numpy's setter reads the same words from either, and takes
    about half the time from ints.  The dict is private, so its
    ``buffer_pos`` stays 4, which makes the next ``random_raw`` start a
    fresh block, and its ``has_uint32`` stays 0.  Made on the first draw:
    building it loads numpy.random, about 16 ms and a few MB that a run
    which never draws, such as an exact law, does not pay.
    """
    counter, key = [0] * 4, [0] * 2
    state = {"bit_generator": "Philox", "state": {"counter": counter, "key": key},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return np.random.Philox(key=0), state, counter, key


#: numpy's ``next_double``: the top 53 bits of a raw word times 2^-53
_DOUBLE_UNIT = 1.0 / 9007199254740992.0

#: blocks of four words per refill: the first holds 2, and later ones as
#: many as were read before, up to this cap
_MAX_BATCH_BLOCKS = 256


class RandomSource:
    """Seeded, splittable randomness based on the counter-based Philox generator.

    ``RandomSource(seed).child(i)`` derives a stream that depends only on
    ``(seed, i)`` (or more generally on the path of child indices), so
    replicate ``i`` of a sweep sees identical randomness no matter how the
    replicates are spread over workers.

    The stream of ``(seed, path)`` is Philox keyed with
    ``SeedSequence(entropy=seed, spawn_key=path).generate_state(2, uint64)``,
    but the key is derived here: each source caches its seed-sequence pool,
    a root's taken from ``SeedSequence(seed).pool``, and a child's pool is
    its parent's plus one absorbed index, so a child pays for its own index
    only.  A source that only spawns children, and is never drawn from,
    costs nothing.  ``child`` keeps a reference to its parent.  Seeds and
    child indices must be non-negative integers, as ``SeedSequence``
    requires; they are checked here, not at first draw, by :func:`_size`,
    the check that sizes and the CLI's counts go through too.

    Scalar draws are computed here from raw Philox words with numpy's own
    arithmetic, so they equal ``Generator.random()`` and
    ``Generator.integers(low, high)`` without numpy's per-call dispatch.
    The words come in batches from one Philox shared by every source of
    the process, re-keyed and set to the stream's block index for each
    batch, so no stream builds a bit generator of its own until
    :attr:`generator` is asked for.  The shared Philox is per-process state
    and not thread-safe; worker processes are safe, since each refill
    writes its full state.
    """

    __slots__ = ("seed", "_parent", "_index", "_pool", "_key", "_block",
                 "_words", "_half", "_generator")

    def __init__(self, seed: int):
        self._start(_size(seed, 0, "seed"), None, None)

    def _start(self, seed: int, parent: "RandomSource | None", index: int | None) -> None:
        """Set every slot: the stream at ``parent``'s child ``index``, or the
        root stream of ``seed``, with nothing drawn yet."""
        self.seed = seed
        self._parent = parent
        self._index = index
        self._pool = None
        self._key = None
        self._block = 0
        self._words = []
        self._half = None
        self._generator = None

    @property
    def path(self) -> tuple[int, ...]:
        """Child indices from the root source to this one."""
        if self._parent is None:
            return ()
        return self._parent.path + (self._index,)

    def _pool_state(self) -> _Pool:
        """Pool after the seed and path; cached here and in every ancestor."""
        state = self._pool
        if state is None:
            parent = self._parent
            if parent is None:
                # steps 1-3 hash four times per seed word, padded to four
                words = max(4, -(-self.seed.bit_length() // 32))
                state = (*np.random.SeedSequence(self.seed).pool.tolist(),
                         _INIT_A * pow(_MULT_A, 4 * words, 1 << 32) & _MASK32)
            else:
                state = _absorb(parent._pool_state(), self._index)
            self._pool = state
        return state

    def _stream_key(self) -> tuple[int, int]:
        """The stream's two Philox key words, derived on first use."""
        key = self._key
        if key is None:
            key = self._key = _philox_key(self._pool_state())
        return key

    def _refill(self) -> list[int]:
        """Read the stream's next batch of words; returns them reversed.

        Numpy's Philox increments its counter before it computes a block, so
        a counter set to ``b`` makes the next block the stream's block ``b``,
        counted from 0.  Only the counter's low word is written, which holds
        while a stream reads fewer than 2^64 blocks.
        """
        bitgen, state, counter, key = _shared_philox()
        block = self._block
        blocks = min(max(block, 2), _MAX_BATCH_BLOCKS)
        counter[0] = block
        key[0], key[1] = self._stream_key()
        bitgen.state = state
        words = bitgen.random_raw(4 * blocks)[::-1].tolist()
        self._block = block + blocks
        self._words = words
        return words

    @property
    def generator(self) -> np.random.Generator:
        """The stream's numpy generator, built on first use at the stream's position.

        Its Philox gets the stream's key and, if words were read, the
        counter, buffer and ``buffer_pos`` numpy would have after as many
        draws: the counter is set to the current block's, and the words
        used of that block are read again.  A pending half word goes where
        numpy's ``philox_next32`` looks first; ``random_raw`` never reads it.
        """
        if self._generator is None:
            bitgen = np.random.Philox(key=np.array(self._stream_key(), np.uint64))
            if self._block:
                pending = len(self._words)
                used = -pending % 4 or 4
                state = bitgen.state
                state["state"]["counter"][0] = self._block - (pending + used) // 4
                if self._half is not None:
                    state["has_uint32"], state["uinteger"] = 1, self._half
                    self._half = None
                bitgen.state = state
                bitgen.random_raw(used)
                self._words = []
            self._generator = np.random.Generator(bitgen)
        return self._generator

    def child(self, index: int) -> "RandomSource":
        """Deterministic sub-stream; independent of draws made from self."""
        child = object.__new__(RandomSource)  # the seed was checked at the root
        child._start(self.seed, self, _size(index, 0, "child index"))
        return child

    # scalar draws are the explorations' hot path: they read the slots, and
    # call a method only to refill the words

    def uniform(self) -> float:
        """One double in [0, 1), as numpy's ``next_double`` makes it."""
        words = self._words
        if not words:
            if self._generator is not None:
                return self._generator.random()
            words = self._refill()
        return (words.pop() >> 11) * _DOUBLE_UNIT

    def integer(self, low: int, high: int) -> int:
        """One integer in [low, high), as ``Generator.integers(low, high)``.

        For 2 to 2^32 - 1 integers this is numpy's buffered Lemire method on
        32-bit halves, which keeps a word's high half pending, with its
        threshold (2^32 - 1 - rng) % (rng + 1) for rng = high - 1 - low; one
        integer draws nothing, in numpy too.  Other ranges and argument
        types go to numpy, which raises for ``high <= low``, and so does
        every draw once :attr:`generator`, which takes over the stream's
        position, was built.
        """
        span = high - low
        if type(span) is int and self._generator is None:
            if 1 < span <= _MASK32:
                while True:
                    # philox_next32: the pending half, else a new word's low
                    # half with its high half kept
                    half = self._half
                    if half is None:
                        words = self._words
                        word = words.pop() if words else self._refill().pop()
                        self._half = word >> 32
                        half = word & _MASK32
                    else:
                        self._half = None
                    m = half * span
                    # the threshold is below span, so, as numpy does, it
                    # is computed only when m's low 32 bits are below span
                    low32 = m & _MASK32
                    if low32 >= span or low32 >= (_MASK32 + 1 - span) % span:
                        return low + (m >> 32)
            if span == 1:
                return low
        return int(self.generator.integers(low, high))

    def __repr__(self) -> str:  # pragma: no cover
        return f"RandomSource(seed={self.seed:#x}, path={self.path})"


class CayleyTree:
    """A labeled tree on vertices {1..n}, rooted at vertex n.

    ``parents[v - 1]`` is the parent of vertex ``v`` for ``1 <= v <= n - 1``;
    the root n has no parent.  :attr:`parent_array` holds the same table
    as a read-only int64 array.  A tree holds one of the two and makes the
    other on first use.  Instances are immutable and hashable.

    ``CayleyTree(n, parents)``, :meth:`from_line` and :func:`read_trees`
    store every label as a Python int (``operator.index``), check it is
    in 1..n, and reject cycles.  Trees the library builds itself
    (:func:`prufer_decode`, :func:`pitman_sample`,
    :func:`aldous_broder_sample` and ``peeling.peel_markov``) are valid by
    construction and come from :meth:`_trusted`, which skips that check;
    :func:`sample_uniform` at large n keeps its decoded parent array
    (:meth:`_from_array`).
    """

    __slots__ = ("n", "_parents", "_array")

    def __init__(self, n: int, parents: Sequence[int]):
        parents = tuple(map(_label, parents, itertools.count(1)))
        n = _size(n)
        if len(parents) != n - 1:
            raise ValueError(f"expected {n - 1} parent entries, got {len(parents)}")
        self.n = n
        self._parents = parents
        self._validate()

    @classmethod
    def _trusted(cls, n: int, parents: Sequence[int]) -> "CayleyTree":
        """A tree built by the library itself; no validation."""
        tree = object.__new__(cls)
        tree.n = n
        tree._parents = tuple(parents)
        return tree

    @classmethod
    def _from_array(cls, n: int, array: np.ndarray) -> "CayleyTree":
        """A tree built by the library from its int64 parent array, made read-only."""
        array.flags.writeable = False
        tree = object.__new__(cls)
        tree.n = n
        tree._array = array
        return tree

    def _validate(self) -> None:
        n = self.n
        for p in self._parents:
            if not 1 <= p <= n:
                raise ValueError(f"parent label {p} outside 1..{n}")
        # depth resolution doubles as a cycle check
        depth = [-1] * (n + 1)
        depth[n] = 0
        for v in range(1, n):
            path = []
            x = v
            while depth[x] < 0:
                path.append(x)
                x = self._parents[x - 1]
                if len(path) > n:
                    raise ValueError("parent map contains a cycle")
            d = depth[x]
            for y in reversed(path):
                d += 1
                depth[y] = d

    @property
    def parents(self) -> tuple[int, ...]:
        """The parent table as a tuple, made from :attr:`parent_array` on first use."""
        try:
            return self._parents
        except AttributeError:
            parents = self._parents = tuple(self._array.tolist())
            return parents

    @property
    def parent_array(self) -> np.ndarray:
        """``parents`` as a read-only int64 array, made on first use."""
        try:
            return self._array
        except AttributeError:
            array = self._array = np.fromiter(self._parents, np.int64, count=self.n - 1)
            array.flags.writeable = False
            return array

    def parent_of(self, v: int) -> int:
        if v == self.n:
            raise ValueError("the root has no parent")
        return self.parents[v - 1]

    def to_line(self) -> str:
        """Serialize as ``n;p(1),p(2),...,p(n-1)``."""
        return f"{self.n};{','.join(str(p) for p in self.parents)}"

    @classmethod
    def from_line(cls, line: str) -> "CayleyTree":
        head, _, tail = line.strip().partition(";")
        n = int(head)
        parents = [int(tok) for tok in tail.split(",")] if tail else []
        return cls(n, parents)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CayleyTree)
            and self.n == other.n
            and self.parents == other.parents
        )

    def __hash__(self) -> int:
        return hash((self.n, self.parents))

    def __reduce__(self):
        # from the tuple; a clone makes its read-only array on first use
        return CayleyTree._trusted, (self.n, self.parents)

    def __repr__(self) -> str:
        return f"CayleyTree(n={self.n}, parents={self.parents})"


def format_trees(trees: Iterable[CayleyTree]) -> str:
    """Tree file text, one :meth:`CayleyTree.to_line` per line; read back by
    :func:`read_trees`."""
    return "".join(t.to_line() + "\n" for t in trees)


def read_trees(filename: str) -> list[CayleyTree]:
    """The trees of a tree file; a malformed line's error names the file and line."""
    loaded = []
    with open(filename, encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    loaded.append(CayleyTree.from_line(line))
                except ValueError as err:
                    raise ValueError(f"{filename}, line {number}: {err}") from err
    return loaded


# --------------------------------------------------------------------------
# Pruefer correspondence
# --------------------------------------------------------------------------

def prufer_decode(symbols: Sequence[int], n: int) -> CayleyTree:
    """Tree corresponding to a Pruefer sequence, rooted at n.

    The sequence has length n - 2 with entries in 1..n; iterating over all
    such sequences enumerates all n^(n-2) labeled trees exactly once.
    """
    n = _size(n)
    if len(symbols) != max(n - 2, 0):
        raise ValueError(f"sequence length must be {max(n - 2, 0)} for n={n}")
    if n == 1:
        return CayleyTree._trusted(1, ())
    if n == 2:
        return CayleyTree._trusted(2, (2,))
    degree = [1] * (n + 1)
    for s in symbols:
        if not 1 <= s <= n:
            raise ValueError(f"symbol {s} outside 1..{n}")
        degree[s] += 1
    # classic pointer scan: the running leaf is always the smallest available;
    # its neighbour s stays in the remaining tree, which holds n, so s is
    # the leaf's parent in the tree rooted at n
    parents = [0] * (n - 1)
    ptr = 1
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    for s in symbols:
        parents[leaf - 1] = s
        degree[s] -= 1
        if degree[s] == 1 and s < ptr:
            leaf = s
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    # vertex n is never consumed in the loop, so it is the last leaf's parent
    parents[leaf - 1] = n
    return CayleyTree._trusted(n, parents)


#: the smallest n that :func:`sample_uniform` decodes with
#: :func:`_decode_parents`: the passes cost at least about 45 us, and the
#: pointer loop of :func:`prufer_decode`, with the ``tolist`` it needs,
#: was as fast at n = 500 and faster below in per-call timings; no
#: benchmark workload draws a tree below n = 10^4 to confirm it
_ARRAY_DECODE_MIN = 500

#: passes of :func:`_decode_parents` before it gives up.  Uniform sequences
#: settle in 3-5 passes at n = 10^2 to 10^5, and sixteen passes cost about
#: as much as the pointer loop at n = 10^4, so a sequence that needs more
#: (the zigzag 2, n - 1, 3, n - 2, ... takes 19 at n = 10^5) pays at most
#: about twice the loop when it falls back to it
_DECODE_PASSES = 16


def _decode_parents(symbols: np.ndarray, n: int) -> np.ndarray | None:
    """Parent table of ``prufer_decode(symbols, n)`` as an int64 array, in
    whole-array passes; None if the passes have not settled after
    :data:`_DECODE_PASSES`.  ``symbols`` is an int64 array of n - 2 >= 1
    labels in 1..n.

    Step j of the decode removes the smallest leaf x_j, and x_j's parent
    is a_j, the j-th symbol (a_(n-1) = n).  A vertex v becomes a leaf after
    step r(v), the last position of v in the sequence (0 if v does not
    appear); n is never removed.  So each v < n is removed either

    * at step r(v) + 1, when it is below the loop's pointer as it becomes a
      leaf (a *chain* vertex, needs r(v) >= 1), or
    * by the pointer, which removes the other (*pointer*) vertices in
      increasing label order in the steps that are left.

    v is a chain vertex iff r(v) >= 1 and fewer than m(r(v)) pointer
    vertices lie below v, where m(j) = j - #{chain u : r(u) < j} counts
    the pointer's steps among the first j.  The passes start with every v
    that has r(v) >= 1 as a chain vertex and re-evaluate this condition
    until the chain set stops changing.  The candidates have distinct r,
    so in sequence order a pass is two cumsums, one scatter and one gather.

    Any set that the condition maps to itself decodes correctly, so
    wherever the passes settle is right.  Its schedule (chain vertices at
    step r(v) + 1, pointer vertices in label order in the other steps)
    removes each vertex after it became a leaf: a pointer vertex with
    r(v) >= 1 has at least m(r(v)) pointer vertices below it, so its step
    comes after the first r(v).  And step j removes the smallest leaf
    left, x_j.  A leaf u < x_j still there at step j has r(u) < j, so it
    is not a chain vertex, which would have been removed at step
    r(u) + 1 <= j.  As a pointer vertex it goes before x_j if x_j is one,
    and if x_j is a chain vertex, u is one of the fewer than m(j - 1)
    pointer vertices below x_j, which take pointer steps among the first
    j - 1.  Only the decode's own schedule removes the smallest leaf at
    every step, so the two are the same.
    """
    m = n - 2
    steps = np.arange(1, m + 1)
    last = np.zeros(n + 1, dtype=np.int64)  # r(v) by label
    np.maximum.at(last, symbols, steps)
    is_last = last[symbols] == steps
    is_last &= symbols < n
    r = np.compress(is_last, steps)  # the candidates, in sequence order
    v = np.compress(is_last, symbols)
    below = v - 1
    chain = np.ones(r.size, dtype=bool)
    for _ in range(_DECODE_PASSES):
        by_label = np.zeros(n, dtype=bool)
        by_label[v] = chain
        # pointer vertices below v, against the pointer's steps up to r(v):
        # v - 1 - #{chain u < v} < r(v) - #{chain u : r(u) < r(v)}, where
        # chain(v) cancels between the inclusive counts of the two cumsums
        settled = below - by_label.cumsum()[v] < r - chain.cumsum()
        if np.array_equal(settled, chain):
            break
        chain = settled
    else:
        return None
    # a chain vertex goes at step r(v) + 1, whose symbol is at index r(v);
    # the pointer vertices take the other steps in label order
    chain_labels = np.compress(chain, v) - 1
    chain_steps = np.compress(chain, r)
    symbols = np.append(symbols, n)
    par = np.empty(n - 1, dtype=np.int64)
    par[chain_labels] = symbols[chain_steps]
    pointer = np.ones(n - 1, dtype=bool)
    pointer[chain_labels] = False
    free = np.ones(n - 1, dtype=bool)
    free[chain_steps] = False
    par[pointer] = symbols[free]
    return par


def sample_uniform(n: int, rng: RandomSource) -> CayleyTree:
    """Uniform tree among the n^(n-2) labeled trees, via i.i.d. Pruefer symbols.

    From :data:`_ARRAY_DECODE_MIN` on the symbols are decoded in array
    passes, and the tree keeps the parent array.
    """
    n = _size(n)
    if n <= 2:
        return prufer_decode([], n)
    symbols = rng.generator.integers(1, n + 1, size=n - 2)
    if n >= _ARRAY_DECODE_MIN:
        par = _decode_parents(symbols, n)
        if par is not None:
            return CayleyTree._from_array(n, par)
    return prufer_decode(symbols.tolist(), n)


#: trees decoded per batch by :func:`_parent_batches`: the trailing k symbols
#: of the sequence run over a grid of n^k rows, the largest that fits here
_BATCH_TREES = 8192

#: largest n whose labels 0..n fit the uint64 masks of :func:`_parent_batches`
#: and ``greedy.enumeration_law``, whatever the cap
_MASK_MAX_N = 63


def _parent_batches(n: int) -> Iterator[np.ndarray]:
    """Parent tables of every tree on {1..n}, a batch of rows at a time.

    Row ``i`` of a batch is the ``(n - 1,)`` parent table of
    :func:`prufer_decode`, and rows come in ``itertools.product`` order
    of the sequences.  For n >= 3 each batch fixes one prefix of the
    leading symbols, drawn from ``itertools.product``, and runs the
    trailing k symbols over a grid of n^k <= ``_BATCH_TREES`` rows, so no
    fixed-width int ever holds n^(n-2).

    Each row holds its labels as bits of a uint64 mask.  Step j of the
    decode removes the smallest leaf x_j and gives it parent a_j.  A vertex
    not yet removed has degree 1 + (its count in a_j..a_(n-2)), so x_j is
    the lowest set bit of ``~(removed | suffix_j)`` over labels 1..n-1,
    where ``suffix_j`` is the OR of the bits of a_j..a_(n-2).
    :func:`_batch_decoder` makes the grid's suffix masks once per call and
    folds each batch's prefix in as a constant; a step is a few 1-D integer
    operations on every row at once, the bit's index comes from
    ``np.frexp``, exact on powers of two, and the parents are scattered
    through flat offsets.  As in :func:`prufer_decode`, n is never removed,
    so the last vertex left beside it gets parent n.  Checks n (:func:`_size`),
    the cap and n <= ``_MASK_MAX_N`` on first use.
    """
    n = _size(n)
    limit = _cap(DEFAULT_ENUMERATION_CAP)
    if n > limit:
        raise ValueError(f"n={n} above the enumeration cap {limit}")
    if n > _MASK_MAX_N:
        raise ValueError(f"n={n} above {_MASK_MAX_N}, the largest size whose labels fit "
                         f"the 64-bit enumeration masks; {_CAP_ENV_VAR} cannot raise it")
    if n <= 2:
        yield np.full((1, n - 1), n, np.min_scalar_type(n))
        return
    lead, decode = _batch_decoder(n)
    for prefix in itertools.product(range(1, n + 1), repeat=lead):
        yield decode(prefix)


def _batch_decoder(n: int) -> tuple[int, Callable[[Sequence[int]], np.ndarray]]:
    """For n >= 3, the number of leading symbols each batch of
    :func:`_parent_batches` fixes, and the decode of the batch with a
    given prefix of them; the grid and its suffix masks are made here,
    once."""
    dtype = np.min_scalar_type(n)
    m = n - 2
    k = 0
    while k < m and n ** (k + 1) <= _BATCH_TREES:
        k += 1
    rows = n ** k
    labels = (1 << n) - 2  # bits 1..n-1
    # the trailing grid in product order, its last symbol running fastest,
    # one row per symbol
    powers = n ** np.arange(k - 1, -1, -1)
    grid = (np.arange(rows)[:, None] // powers % n + 1).T.astype(dtype)
    # absent[j]: labels 1..n-1 not among the symbols grid[j:]
    absent = [np.full(rows, labels, np.uint64)]
    for symbol in grid[::-1]:
        absent.insert(0, absent[0] & ~(np.uint64(1) << symbol))
    base = np.arange(-2, rows * (n - 1) - 2, n - 1)  # label x of row i at base[i] + x + 1

    def decode(prefix: Sequence[int]) -> np.ndarray:
        # a prefix step's suffix is its own symbols, a_j.., and the whole grid
        steps = [(a, absent[0] & np.uint64(labels & ~sum(1 << b for b in set(prefix[j:]))))
                 for j, a in enumerate(prefix)]
        parents = np.empty((rows, n - 1), dtype)
        flat = parents.reshape(-1)
        kept = np.full(rows, labels, np.uint64)  # labels not yet removed
        for a, not_suffix in [*steps, *zip(grid, absent)]:
            leaf = kept & not_suffix
            leaf &= -leaf  # the lowest set bit
            kept ^= leaf
            flat[base + np.frexp(leaf)[1]] = a  # frexp(2^x) has exponent x + 1
        flat[base + np.frexp(kept)[1]] = n
        return parents

    return m - k, decode


def enumerate_all(n: int) -> Iterator[CayleyTree]:
    """Every tree on {1..n} exactly once (n^(n-2) of them), in the
    ``itertools.product`` order of their Pruefer sequences.

    The trees are decoded a batch at a time by :func:`_parent_batches`.
    Refuses n above the cap; override with the CAYLEY_GREEDY_CAP
    environment variable.
    """
    n = _size(n)  # the trees hold a Python int
    for parents in _parent_batches(n):
        for row in parents.tolist():
            yield CayleyTree._trusted(n, row)


def tree_count(n: int) -> int:
    """n^(n-2), the number of labeled trees on n vertices."""
    n = _size(n)
    return n ** (n - 2) if n >= 2 else 1


# --------------------------------------------------------------------------
# Pitman's coalescing-forest sampler
# --------------------------------------------------------------------------

def pitman_sample_rooted(n: int, rng: RandomSource) -> tuple[dict[int, int], int]:
    """One of the n^(n-1) rooted labeled trees, uniformly.

    At step k a uniform vertex V_k is drawn, then a uniform root R_k among
    the n-k trees of the current forest not containing V_k, and the directed
    edge R_k -> V_k is added.  Returns (parent map, discovered root).
    """
    n = _size(n)
    parent: dict[int, int] = {}
    # union-find over components, plus the live root registry
    uf = list(range(n + 1))

    def find(x: int) -> int:
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    roots = list(range(1, n + 1))
    pos = {r: i for i, r in enumerate(roots)}
    for k in range(1, n):
        v = rng.integer(1, n + 1)
        vrep = find(v)
        # uniform root of a component not containing v; rejection is cheap
        # because exactly one of the n-k+1 live roots is excluded
        while True:
            r = roots[rng.integer(0, len(roots))]
            if find(r) != vrep:
                break
        parent[r] = v
        uf[find(r)] = vrep
        i = pos.pop(r)
        last = roots.pop()
        if last != r:
            roots[i] = last
            pos[last] = i
    return parent, roots[0]


def pitman_sample(n: int, rng: RandomSource) -> CayleyTree:
    """Pitman's construction relabeled so the discovered root becomes vertex n.

    Swapping the root label R with n maps the uniform rooted tree onto the
    rooted-at-n convention used everywhere else.
    """
    n = _size(n)  # the tree holds a Python int
    parent, root = pitman_sample_rooted(n, rng)

    def relabel(v: int) -> int:
        if v == root:
            return n
        if v == n:
            return root
        return v

    parents = [0] * (n - 1)
    for child, par in parent.items():
        parents[relabel(child) - 1] = relabel(par)
    return CayleyTree._trusted(n, parents)


# --------------------------------------------------------------------------
# Random-walk sampler on the complete graph with loops
# --------------------------------------------------------------------------

def aldous_broder_sample(n: int, rng: RandomSource) -> CayleyTree:
    """Uniform tree rooted at n from the lazy uniform walk on {1..n}.

    The walk starts at n and takes i.i.d. uniform steps (self-loops allowed);
    the first entrance into each vertex k contributes the edge from k to the
    vertex occupied just before.
    """
    n = _size(n)
    parents = [0] * (n - 1)
    seen = bytearray(n + 1)
    seen[n] = 1
    found = 1
    prev = n
    gen = rng.generator
    block = max(32, 4 * n)
    while found < n:
        steps = gen.integers(1, n + 1, size=block)
        for x in steps:
            x = int(x)
            if not seen[x]:
                seen[x] = 1
                parents[x - 1] = prev
                found += 1
                if found == n:
                    break
            prev = x
    return CayleyTree._trusted(n, parents)

