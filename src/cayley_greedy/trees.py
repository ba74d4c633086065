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
import os
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

#: largest size accepted by :func:`enumerate_all` unless overridden
#: (9**7 ~ 4.8M trees keeps exhaustive sweeps in the minutes range).
DEFAULT_ENUMERATION_CAP = 9

_CAP_ENV_VAR = "CAYLEY_GREEDY_CAP"


def _cap(default: int) -> int:
    value = os.environ.get(_CAP_ENV_VAR)
    return int(value) if value else default


# Philox key derivation, word for word as numpy's SeedSequence does it
# (hash and mix constants from numpy.random.bit_generator):
#   1. hash the seed's first four 32-bit words, zero-padded, into a pool;
#   2. cross-mix the pool;
#   3. absorb the seed's further words, then each path entry's words, low
#      word first, each word mixed into all four pool words;
#   4. hash the pool into the two 64-bit key words.
# Step 3 is sequential, so a child's pool is its parent's pool plus the
# child index's words.  The hash constant advances by one multiplication per
# hashed word and never depends on the data.
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


def _hashmix(value: int, hash_const: int) -> tuple[int, int]:
    """(hashed word, next hash constant)."""
    value ^= hash_const
    hash_const = hash_const * _MULT_A & _MASK32
    value = value * hash_const & _MASK32
    return value ^ (value >> 16), hash_const


def _mix(x: int, y: int) -> int:
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ (r >> 16)


def _seed_pool(seed: int) -> _Pool:
    """Pool after steps 1-3 for an empty path."""
    pool = []
    hash_const = _INIT_A
    for i in range(4):
        word, hash_const = _hashmix((seed >> 32 * i) & _MASK32, hash_const)
        pool.append(word)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                word, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], word)
    state = (*pool, hash_const)
    return _absorb(state, seed >> 128) if seed >> 128 else state


def _absorb(state: _Pool, value: int) -> _Pool:
    """Mix the 32-bit words of a non-negative int into the pool, low word first.

    Zero counts as one word.  This is every child stream's hot path, so the
    four pool updates of ``_mix(p, _hashmix(word, c))`` are written out.
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
def _key_sequence_type() -> type:
    """The ``ISeedSequence`` that hands ``np.random.Philox`` a derived key.

    Made on the first draw: subclassing it loads numpy.random, about 16 ms
    and a few MB that a run which never draws, such as an exact law, does
    not pay.
    """

    class PhiloxKey(np.random.bit_generator.ISeedSequence):
        # Philox asks its seed sequence for exactly generate_state(2, uint64);
        # any other request means numpy changed how it seeds Philox, and is
        # refused rather than answered with a different stream
        __slots__ = ("key",)

        def __init__(self, key: tuple[int, int]):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 2 or np.dtype(dtype) != np.uint64:
                raise ValueError(
                    f"a Philox key serves only generate_state(2, uint64), "
                    f"got generate_state({n_words}, {np.dtype(dtype)})"
                )
            return np.array(self.key, dtype=np.uint64)

        def __reduce__(self):
            return _key_sequence, (self.key,)

    return PhiloxKey


def _key_sequence(key: tuple[int, int]):
    """A seed sequence whose only state is the Philox key ``key``."""
    return _key_sequence_type()(key)


class RandomSource:
    """Seeded, splittable randomness based on the counter-based Philox generator.

    ``RandomSource(seed).child(i)`` derives a stream that depends only on
    ``(seed, i)`` (or more generally on the path of child indices), so
    replicate ``i`` of a sweep sees identical randomness no matter how the
    replicates are spread over workers.

    The stream of ``(seed, path)`` is Philox keyed with
    ``SeedSequence(entropy=seed, spawn_key=path).generate_state(2, uint64)``,
    but the key is derived here: each source caches its seed-sequence pool,
    and a child's pool is its parent's plus one absorbed index, so a child
    pays for its own index only.  The numpy generator is built on the first
    draw, for about 10 us in all, and a source that only spawns children,
    and is never drawn from, costs nothing.  ``child`` keeps a reference to
    its parent.  Negative seeds and path entries are rejected here, not at
    first draw.
    """

    __slots__ = ("seed", "_parent", "_tail", "_pool", "_generator")

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._parent = None
        self._tail = tuple(int(p) for p in path)
        if self.seed < 0 or any(p < 0 for p in self._tail):
            raise ValueError(
                f"seed and child indices must be non-negative, "
                f"got seed={self.seed} path={self._tail}"
            )
        self._pool = None
        self._generator = None

    @property
    def path(self) -> tuple[int, ...]:
        """Child indices from the root source to this one."""
        head = self._parent.path if self._parent is not None else ()
        return head + self._tail

    def _pool_state(self) -> _Pool:
        """Pool after the seed and path; cached here and in every ancestor."""
        state = self._pool
        if state is None:
            parent = self._parent
            state = _seed_pool(self.seed) if parent is None else parent._pool_state()
            for index in self._tail:
                state = _absorb(state, index)
            self._pool = state
        return state

    @property
    def generator(self) -> np.random.Generator:
        """The stream's numpy generator, built on first use."""
        if self._generator is None:
            key = _key_sequence(_philox_key(self._pool_state()))
            self._generator = np.random.Generator(np.random.Philox(key))
        return self._generator

    def child(self, index: int) -> "RandomSource":
        """Deterministic sub-stream; independent of draws made from self."""
        index = int(index)
        if index < 0:
            raise ValueError(
                f"seed and child indices must be non-negative, "
                f"got seed={self.seed} path={self.path + (index,)}"
            )
        child = object.__new__(RandomSource)
        child.seed = self.seed
        child._parent = self
        child._tail = (index,)
        child._pool = None
        child._generator = None
        return child

    # scalar draws are the explorations' hot path: they read the slot, and
    # go through the property only to build the generator

    def uniform(self) -> float:
        """One double in [0, 1)."""
        gen = self._generator
        if gen is None:
            gen = self.generator
        return float(gen.random())

    def integer(self, low: int, high: int) -> int:
        """One integer in [low, high)."""
        gen = self._generator
        if gen is None:
            gen = self.generator
        return int(gen.integers(low, high))

    def __repr__(self) -> str:  # pragma: no cover
        return f"RandomSource(seed={self.seed:#x}, path={self.path})"


class CayleyTree:
    """A labeled tree on vertices {1..n}, rooted at vertex n.

    ``parents[v - 1]`` is the parent of vertex ``v`` for ``1 <= v <= n - 1``;
    the root n has no parent.  Instances are immutable and hashable.

    ``CayleyTree(n, parents)``, :meth:`from_line` and :func:`read_trees`
    check labels and reject cycles.  Trees the library builds itself
    (:func:`prufer_decode`, :func:`pitman_sample`,
    :func:`aldous_broder_sample` and ``peeling.peel_markov``) are valid by
    construction and come from :meth:`_trusted`, which skips that check.
    """

    __slots__ = ("n", "parents")

    def __init__(self, n: int, parents: Sequence[int]):
        parents = tuple(parents)
        if n < 1:
            raise ValueError("need at least one vertex")
        if len(parents) != n - 1:
            raise ValueError(f"expected {n - 1} parent entries, got {len(parents)}")
        self.n = n
        self.parents = parents
        self._validate()

    @classmethod
    def _trusted(cls, n: int, parents: Sequence[int]) -> "CayleyTree":
        """A tree built by the library itself; no validation."""
        tree = object.__new__(cls)
        tree.n = n
        tree.parents = tuple(parents)
        return tree

    def _validate(self) -> None:
        n = self.n
        for p in self.parents:
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
                x = self.parents[x - 1]
                if len(path) > n:
                    raise ValueError("parent map contains a cycle")
            d = depth[x]
            for y in reversed(path):
                d += 1
                depth[y] = d

    def parent_of(self, v: int) -> int:
        if v == self.n:
            raise ValueError("the root has no parent")
        return self.parents[v - 1]

    def adjacency(self) -> list[list[int]]:
        """Undirected neighbour lists, 1-indexed."""
        out: list[list[int]] = [[] for _ in range(self.n + 1)]
        for v, p in enumerate(self.parents, start=1):
            out[p].append(v)
            out[v].append(p)
        return out

    def edges(self) -> Iterator[tuple[int, int]]:
        """Directed edges (child, parent)."""
        for v, p in enumerate(self.parents, start=1):
            yield v, p

    def to_line(self) -> str:
        """Serialize as ``n;p(1),p(2),...,p(n-1)``."""
        return f"{self.n};{','.join(str(p) for p in self.parents)}"

    @classmethod
    def from_line(cls, line: str) -> "CayleyTree":
        head, _, tail = line.strip().partition(";")
        n = int(head)
        parents = [int(tok) for tok in tail.split(",") if tok]
        return cls(n, parents)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CayleyTree)
            and self.n == other.n
            and self.parents == other.parents
        )

    def __hash__(self) -> int:
        return hash((self.n, self.parents))

    def __repr__(self) -> str:
        return f"CayleyTree(n={self.n}, parents={self.parents})"


def write_trees(trees: Iterable[CayleyTree], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for t in trees:
            fh.write(t.to_line() + "\n")


def read_trees(path: str) -> list[CayleyTree]:
    with open(path, encoding="utf-8") as fh:
        return [CayleyTree.from_line(line) for line in fh if line.strip()]


# --------------------------------------------------------------------------
# Pruefer correspondence
# --------------------------------------------------------------------------

def prufer_to_string(symbols: Sequence[int]) -> str:
    return ",".join(str(s) for s in symbols)


def prufer_from_string(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


def prufer_decode(symbols: Sequence[int], n: int | None = None) -> CayleyTree:
    """Tree corresponding to a Pruefer sequence, rooted at n.

    The sequence has length n - 2 with entries in 1..n; iterating over all
    such sequences enumerates all n^(n-2) labeled trees exactly once.
    """
    if n is None:
        n = len(symbols) + 2
    if n < 1:
        raise ValueError("need at least one vertex")
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


def prufer_encode(tree: CayleyTree) -> list[int]:
    """Inverse of :func:`prufer_decode`; requires n >= 2."""
    n = tree.n
    if n < 2:
        raise ValueError("encoding needs at least two vertices")
    if n == 2:
        return []
    adj = tree.adjacency()
    degree = [len(a) for a in adj]
    removed = bytearray(n + 1)
    out: list[int] = []
    ptr = 1
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    for _ in range(n - 2):
        nb = next(x for x in adj[leaf] if not removed[x])
        out.append(nb)
        removed[leaf] = 1
        degree[nb] -= 1
        if degree[nb] == 1 and nb < ptr:
            leaf = nb
        else:
            ptr += 1
            while degree[ptr] != 1 or removed[ptr]:
                ptr += 1
            leaf = ptr
    return out


def sample_uniform(n: int, rng: RandomSource) -> CayleyTree:
    """Uniform tree among the n^(n-2) labeled trees, via i.i.d. Pruefer symbols."""
    if n < 1:
        raise ValueError("need at least one vertex")
    if n <= 2:
        return prufer_decode([], n)
    symbols = rng.generator.integers(1, n + 1, size=n - 2)
    return prufer_decode(symbols.tolist(), n)


def enumerate_all(n: int, cap: int | None = None) -> Iterator[CayleyTree]:
    """Every tree on {1..n} exactly once (n^(n-2) of them), via Pruefer sequences.

    Refuses n above the cap; override with the CAYLEY_GREEDY_CAP environment
    variable or the ``cap`` argument.
    """
    limit = cap if cap is not None else _cap(DEFAULT_ENUMERATION_CAP)
    if n > limit:
        raise ValueError(f"n={n} above the enumeration cap {limit}")
    if n < 1:
        raise ValueError("need at least one vertex")
    if n <= 2:
        yield prufer_decode([], n)
        return
    for symbols in itertools.product(range(1, n + 1), repeat=n - 2):
        yield prufer_decode(symbols, n)


def tree_count(n: int) -> int:
    """n^(n-2), the number of labeled trees on n vertices."""
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
    if n < 1:
        raise ValueError("need at least one vertex")
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
    gen = rng.generator
    for k in range(1, n):
        v = int(gen.integers(1, n + 1))
        vrep = find(v)
        # uniform root of a component not containing v; rejection is cheap
        # because exactly one of the n-k+1 live roots is excluded
        while True:
            r = roots[int(gen.integers(0, len(roots)))]
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
    if n < 1:
        raise ValueError("need at least one vertex")
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


def first_repetition_time(n: int, rng: RandomSource) -> int:
    """First time the uniform walk started at n revisits an old vertex."""
    if n < 2:
        raise ValueError("need at least two vertices")
    seen = bytearray(n + 1)
    seen[n] = 1
    gen = rng.generator
    t = 0
    while True:
        t += 1
        x = int(gen.integers(1, n + 1))
        if seen[x]:
            return t
        seen[x] = 1


def first_repetition_law(n: int) -> dict[int, Fraction]:
    """Exact law of :func:`first_repetition_time`.

    P(T = k) = (k/n) * prod_{i=1}^{k-1} (1 - i/n) for 1 <= k <= n.
    """
    if n < 2:
        raise ValueError("need at least two vertices")
    law: dict[int, Fraction] = {}
    prod = Fraction(1)
    for k in range(1, n + 1):
        law[k] = Fraction(k, n) * prod
        prod *= Fraction(n - k, n)
    return law
