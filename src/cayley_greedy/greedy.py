"""Greedy maximal independent sets on labeled trees, as a peeling and as a chain.

The textbook greedy sweep inspects the vertices in label order, activates
each undetermined one and blocks its undetermined neighbours.  This module
computes the same set in two ways:

* the greedy peeling -- one walk (:func:`_greedy_walk`) that inspects the
  smallest undetermined label and touches only the inspected vertex and
  its parent.  It serves the explorations, whose parent comes from one of
  two sources: a fixed tree (:func:`greedy_exploration_steps`, the edge
  trace), or the exploration's one-step law, which needs no tree
  (:func:`greedy_markov_peeling`).  Its batched form,
  :func:`enumeration_law`, walks every tree of a batch at once, each
  row's statuses held as two bitmasks (active, determined) over its
  labels.  On a fixed tree the outcome alone comes from array rounds
  (:func:`greedy_peeling`, like :func:`greedy_matching` and
  :func:`max_independent_set`): each round settles every vertex whose
  status no longer waits on an open one, and a sequential tail settles
  what a stalled round leaves (:func:`_greedy_statuses`).  The walk and
  that tail read the inspected vertex's new status from
  :data:`_V_AFTER`; the batch reads the same rule off its masks (v turns
  active iff its parent's bit is not active), and
  ``test_enumeration_law_equals_peeling_tally`` ties it to
  :func:`greedy_peeling`.
* the status chain -- on a uniform tree, the five counts (undetermined,
  active-white, blocked-white, active-blue, blocked-blue) form a Markov
  chain whose transitions close over the counts alone, so the law of the
  outcome triple (set size, stopping step, root-last indicator) can be
  simulated in O(stopping step) with no tree at all
  (:func:`simulate_status_chain_many`) and computed exactly by dynamic
  programming (:func:`exact_chain_law`), which visits each state once in
  decreasing undetermined count and carries the stopping step packed in
  the slots of one integer.  Its transition rule is written once: column
  weights in :func:`chain_weights`, moves in :data:`CHAIN_DELTA`.

The sweep itself, the five-count chain in rationals, the per-step count
trace of a tree and the DP's pass over full rows are test oracles, in
``tests/oracles.py``.

Here *blue* means "in the component of the root n" exactly as in the
peeling exploration; the root-last indicator records the event that at
some step the root is the only undetermined vertex left, which forces an
extra active vertex and is the +1 correction in the complement symmetry
law(size) == law((n - size) + indicator).
"""

from __future__ import annotations

import math
from collections import defaultdict
from contextlib import closing
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Mapping, Sequence

import numpy as np

from .peeling import PeelStep
from .trees import (
    CayleyTree, RandomSource, _cap, _parent_batches, _size, tree_count,
)

#: largest size accepted by exact_chain_law unless CAYLEY_GREEDY_CAP overrides it
DEFAULT_LAW_CAP = 60


class VertexStatus(IntEnum):
    UNDETERMINED = 0
    ACTIVE = 1
    BLOCKED = 2


#: VertexStatus values as plain ints, for the status arrays of the walk and the rounds
_ACTIVE, _BLOCKED = int(VertexStatus.ACTIVE), int(VertexStatus.BLOCKED)

#: the inspected vertex's new status, indexed by its parent's status before
#: the step: undetermined or blocked, v becomes active; active, v is blocked
_V_AFTER = bytes((_ACTIVE, _BLOCKED, _ACTIVE))


@dataclass(frozen=True)
class GreedyOutcome:
    """Result of one greedy run: set size, stopping step, root-last flag."""

    size: int
    steps: int
    root_last: int


def _greedy_walk(
    n: int,
    parent: Callable[[int], int],
    blue: list[bool],
    steps: list[PeelStep],
) -> GreedyOutcome:
    """The greedy peeling, whatever supplies the parents.

    At each step the smallest-label undetermined vertex v is inspected and
    only v and its parent w = ``parent(v)`` change status:

    * v == n: the root is the last undetermined vertex; it becomes active.
    * w undetermined: v becomes active, w becomes blocked.
    * w blocked: v becomes active.  w active: v becomes blocked.

    v's new status is ``_V_AFTER`` of w's status before the step.
    ``blue`` is the color table (only ``blue[n]`` set at the start); v
    takes w's color.  Colors need no union-find: a white component of size
    >= 2 is rooted at a blocked vertex, which is never inspected again, so
    only the inspected vertex itself can turn blue.  ``steps`` collects a
    PeelStep per non-root inspection.
    """
    status = bytearray(n + 1)  # VertexStatus values
    undetermined = n
    inspections = 0
    root_last = 0
    ptr = 1
    while undetermined:
        while status[ptr]:
            ptr += 1
        v = ptr
        inspections += 1
        if v == n:
            root_last = 1
            status[v] = _ACTIVE
            undetermined -= 1
        else:
            w = parent(v)
            steps.append(PeelStep(peeled=v, parent=w, recolored_to_blue=blue[w]))
            blue[v] = blue[w]
            before = status[w]
            if not before:
                status[w] = _BLOCKED
                undetermined -= 1
            status[v] = _V_AFTER[before]
            undetermined -= 1
    return GreedyOutcome(size=status.count(_ACTIVE), steps=inspections, root_last=root_last)


#: the rounds of greedy_peeling, greedy_matching and max_independent_set
#: stop at the first round that leaves more than this share of the open
#: items open, and a sequential tail settles the rest.  A round costs a
#: few array passes over the open items, so while each settles at least
#: half of them the rounds cost O(n) in all.  Some inputs settle almost
#: nothing per round (two vertices on the path 1 -> 2 -> ... -> n), and
#: running their rounds to the end would cost O(n) per round, O(n^2) in all.
_STALL_SHARE = 0.5


def _greedy_statuses(par: np.ndarray) -> np.ndarray:
    """Final VertexStatus by label of the greedy peeling, in array rounds.

    ``par`` is the :attr:`~CayleyTree.parent_array` of a tree on
    n = ``par.size + 1`` vertices, and is only read.  The active set is
    the one the textbook sweep builds when it inspects the vertices in
    label order: v is active iff no neighbour of smaller label is.  Each
    round activates every open vertex whose open neighbours all have
    larger labels (its smaller ones are all blocked) and blocks their open
    neighbours.  When a round stalls (:data:`_STALL_SHARE`), the tail
    inspects the open vertices in label order as :func:`_greedy_walk`
    does: v takes ``_V_AFTER`` of its parent's status, and an open parent
    is blocked.
    """
    n = par.size + 1
    status = np.zeros(n + 1, dtype=np.uint8)  # VertexStatus by label
    child = np.arange(1, n)
    lo, hi = np.minimum(child, par), np.maximum(child, par)  # edges, both ends open
    open_ = np.arange(1, n + 1)
    while open_.size:
        has_smaller = np.zeros(n + 1, dtype=bool)
        has_smaller[hi] = True
        status[np.compress(~has_smaller[open_], open_)] = _ACTIVE
        status[np.compress(status[lo] == _ACTIVE, hi)] = _BLOCKED
        left = np.compress(status[open_] == 0, open_)
        stalled = left.size > _STALL_SHARE * open_.size
        open_ = left
        if stalled:
            break
        keep = status[lo] == 0
        keep &= status[hi] == 0
        lo, hi = np.compress(keep, lo), np.compress(keep, hi)
    if open_.size:
        st = bytearray(status.tobytes())
        labels = open_.tolist()
        # the root, if open, is the last label; zip stops before it
        for v, w in zip(labels, par[open_[open_ < n] - 1].tolist()):
            if st[v]:
                continue
            before = st[w]
            if not before:
                st[w] = _BLOCKED
            st[v] = _V_AFTER[before]
        if labels[-1] == n and not st[n]:  # the root, last undetermined vertex
            st[n] = _ACTIVE
        status = np.frombuffer(st, dtype=np.uint8)
    return status


def greedy_peeling(tree: CayleyTree) -> GreedyOutcome:
    """Outcome of the greedy peeling of the rooted tree, from its final statuses.

    The statuses come from the array rounds of :func:`_greedy_statuses`.  A
    vertex becomes active only when inspected, and the root is inspected
    only when it is the last undetermined vertex, so the root-last flag is
    1 iff the root is active.  The walk skips a vertex exactly when an
    active child of smaller label blocked it first, so the stopping step is
    n minus the number of such vertices.
    """
    n = tree.n
    par = tree.parent_array
    active = _greedy_statuses(par) == _ACTIVE
    skipped = np.zeros(n + 1, dtype=bool)
    skipped[np.compress(active[1:n] & (np.arange(1, n) < par), par)] = True
    return GreedyOutcome(
        size=int(np.count_nonzero(active)), steps=n - int(np.count_nonzero(skipped)),
        root_last=int(active[n]),
    )


def greedy_exploration_steps(tree: CayleyTree):
    """Edge trace of the greedy peeling of a fixed tree.

    Returns (steps, outcome) where steps lists one (peeled, parent,
    recolored) record per inspected vertex other than the root; inspecting
    the root adds no edge.
    """
    steps: list[PeelStep] = []
    return steps, _greedy_walk(tree.n, tree.parent_of, [False] * tree.n + [True], steps)


def greedy_markov_peeling(n: int, rng: RandomSource):
    """Greedy exploration without a tree, at vertex level.

    The inspected vertex is always an isolated white vertex (component size
    one), so its parent is blue with probability (L + 1)/n in total, each
    blue vertex being equally likely, and every other white vertex has
    probability 1/n.  Statuses update by the same walk as
    :func:`greedy_exploration_steps`; the exploration stops once nothing is
    undetermined, leaving a partial forest.

    Returns (steps, outcome); the outcome triple has the same law as the
    status chain (:func:`simulate_status_chain_many`).
    """
    n = _size(n)
    blue = [False] * n + [True]
    blue_members = [n]

    def parent(v: int) -> int:
        ell = len(blue_members)
        if rng.uniform() < (ell + 1) / n:
            w = blue_members[rng.integer(0, ell)]
            blue_members.append(v)  # v takes its blue parent's color
            return w
        while True:
            w = rng.integer(1, n + 1)
            if not blue[w] and w != v:
                return w

    steps: list[PeelStep] = []
    return steps, _greedy_walk(n, parent, blue, steps)


# --------------------------------------------------------------------------
# The status Markov chain
# --------------------------------------------------------------------------

class ChainColumn(IntEnum):
    """The status chain's columns; each regime lists its own in this order."""

    PAIR = 0  # undetermined parent: v active white, parent blocked white
    ACTIVE_WHITE_PARENT = 1  # v blocked white
    BLOCKED_WHITE_PARENT = 2  # v active white
    ROOT_CONNECTION = 3  # v active blue, the root blocked blue
    ACTIVE_BLUE_PARENT = 4  # v blocked blue
    BLOCKED_BLUE_PARENT = 5  # v active blue
    ROOT_LAST = 6  # the root, last undetermined, activates


#: effect of each column on (u, aw, bw, ab, bb): row per count, column per
#: ChainColumn; every column keeps the counts summing to n
CHAIN_DELTA = np.array([
    # pair  awp  bwp  root  abp  bbp  last
    [-2, -1, -1, -2, -1, -1, -1],  # undetermined
    [1, 0, 1, 0, 0, 0, 0],  # active white
    [1, 1, 0, 0, 0, 0, 0],  # blocked white
    [0, 0, 0, 1, 0, 1, 1],  # active blue
    [0, 0, 0, 1, 1, 0, 0],  # blocked blue
], dtype=np.int64)

#: the columns at which c = ab + bb leaves 0, so that [c = 0] falls by one
_LEAVES_ZERO_C = np.isin(
    np.arange(7), [ChainColumn.ROOT_CONNECTION, ChainColumn.ROOT_LAST]
).astype(np.int64)

#: CHAIN_DELTA on _chain_block's lane state (p, aw, bw, [c = 0], ab, c + 1,
#: max(c, 1)), where p = u - 1 - [c = 0] is the pair weight of
#: chain_weights and max(c, 1) = c + [c = 0]; the lanes hold the rows
#: [c = 0] and max(c, 1) times n (:func:`_lane_delta`)
_LANE_DELTA = np.stack([
    CHAIN_DELTA[0] + _LEAVES_ZERO_C,
    CHAIN_DELTA[1],
    CHAIN_DELTA[2],
    -_LEAVES_ZERO_C,
    CHAIN_DELTA[3],
    CHAIN_DELTA[3] + CHAIN_DELTA[4],
    CHAIN_DELTA[3] + CHAIN_DELTA[4] - _LEAVES_ZERO_C,
])


def _lane_delta(n: int) -> np.ndarray:
    """:data:`_LANE_DELTA` as _chain_block's lanes at size n hold it: the
    rows [c = 0] and max(c, 1) times n."""
    return _LANE_DELTA * np.array([[1], [1], [1], [n], [1], [1], [n]])


def _step_matrix(n: int) -> np.ndarray:
    """_chain_block's step at size n as one product: for a lane whose draw
    clears the first k of its five thresholds, this matrix times the
    comparison column (k ones, 5 - k zeros) with a sixth entry 1 appended
    is ``_lane_delta(n)[:, k]``, since column j is the difference of table
    columns j + 1 and j, and the last column is table column 0."""
    delta = _lane_delta(n)[:, :6]
    return np.column_stack([np.diff(delta, axis=1), delta[:, 0]]).astype(np.float64)


#: the most the pair weight p falls in one step of _chain_block
_P_DROP = -int(_LANE_DELTA[0, :6].min())


def chain_weights(u, c):
    """Weights times n of the pair column and the blue column, given c = ab + bb.

    Before the root connects (c == 0) they are u - 2 and 2, after it
    u - 1 and c + 1.  The active-white and blocked-white parent columns
    weigh aw and bw, so the four weights sum to n in both regimes.  The
    blue column is the root connection before, and after it splits
    ab : bb between the active-blue and blocked-blue parent columns.  A
    pair weight of -1 (c == 0, u == 1) marks the forced root-last column.
    Works on Python ints and on numpy arrays alike.
    """
    pre = c == 0
    return u - 1 - pre, c + 1 + pre


#: replicates per deterministic batch; a fixed block size keeps batched
#: results independent of how many workers process the blocks
CHAIN_BLOCK = 8192

#: draw rows per ``gen.random`` batch of :func:`_chain_block`, one per step
_DRAW_ROWS = 32

#: largest n whose float64 lane rows in :func:`_chain_block` stay exact
#: integers, n*n < 2**53
CHAIN_MAX_N = math.isqrt(2**53 - 1)


def simulate_status_chain_many(
    n: int,
    replicates: int,
    rng: RandomSource,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Replicates of the status chain, each giving (size, steps, root_last).

    Returns (sizes, steps, root_last) arrays of length ``replicates``.
    Replicates are processed in fixed-size blocks, each driven by its own
    child stream ``rng.child(block_index)``, so results are bit-for-bit
    reproducible for a given (seed, n, replicates) regardless of worker
    count or block scheduling.  Each block's ``Generator`` is built here,
    in the calling thread, and the block's draw thread reads only that
    one, so the results depend neither on thread timing nor on the CPU
    count.  ``n`` and ``replicates`` are positive integers
    (:func:`trees._size`); n above :data:`CHAIN_MAX_N` raises ValueError
    before any block runs.
    """
    n, replicates = _size(n), _size(replicates, name="replicates")
    if n > CHAIN_MAX_N:
        raise ValueError(f"n={n} above {CHAIN_MAX_N}: the status chain's float64 "
                         "lanes hold exact integers only while n*n < 2**53")
    sizes = np.empty(replicates, dtype=np.int64)
    steps = np.empty(replicates, dtype=np.int64)
    root_last = np.empty(replicates, dtype=np.int64)
    start = 0
    block_index = 0
    while start < replicates:
        w = min(CHAIN_BLOCK, replicates - start)
        g, t, e = _chain_block(n, w, rng.child(block_index).generator)
        sizes[start:start + w] = g
        steps[start:start + w] = t
        root_last[start:start + w] = e
        start += w
        block_index += 1
    return sizes, steps, root_last


def _draw_rows(gen: np.random.Generator, width: int, rows: int):
    """The rows of ``gen.random((_DRAW_ROWS, width))`` batches, in order,
    as many batches as ``rows`` rows fill.

    The first batch is drawn in the calling thread.  While the rows of
    batch k are read, one worker thread draws batch k + 1 if the ``rows``
    rows reach into it: numpy's fills release the GIL, so the draw leaves
    the caller's path, and a block of one batch starts no thread.  The
    batches are drawn one at a time and in order, so the rows are those of
    the same calls made inline.  At most one batch is drawn past the last
    row read.  An exception raised by a draw reaches the reader of that
    batch's first row; one raised by the batch drawn ahead and never read
    is dropped.  Reading past ``rows`` rows raises AssertionError.  Closing
    the generator joins the worker.
    """
    # imported here: concurrent.futures costs the CLI's start-up about 5 ms
    from concurrent.futures import ThreadPoolExecutor

    shape = (_DRAW_ROWS, width)
    left = -(-rows // _DRAW_ROWS)  # batches not yet drawn
    with ThreadPoolExecutor(max_workers=1) as worker:
        ahead = None
        while left:
            batch = gen.random(shape) if ahead is None else ahead.result()
            left -= 1
            ahead = worker.submit(gen.random, shape) if left else None
            yield from batch
    raise AssertionError(f"a chain block read more than {rows} draw rows")


def _chain_block(
    n: int, width: int, gen: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``width`` replicates of the status chain, one lane each.

    Lane i reads column i of each ``gen.random((_DRAW_ROWS, width))`` batch,
    one row per step, so the draws are fixed by the block and not by which
    lanes are still running.  A lane steps at most n times, and its
    forced root-last step reads no draw, so the block reads at most n
    rows.  A worker thread of :func:`_draw_rows` draws the next batch
    while the lanes step through this one, when those n rows reach into
    it; it reads only ``gen``, which nothing else may read during the
    call, and it is joined before the block returns or raises.  The lane
    state is seven float64 rows, (p, aw, bw, n*[c = 0], ab, c + 1,
    n*max(c, 1)), where p is the pair weight of :func:`chain_weights`
    (u - 2 before the root connects, u - 1 after) and c = ab + bb.  Every
    row holds exact integers while n*n < 2**53, so n <= :data:`CHAIN_MAX_N`, and every one moves linearly
    with the column (:data:`_LANE_DELTA`).  A step makes ten numpy calls
    over the live lanes, and the done check and the draw gather below only
    when they are due; the row views it reads are made once per block and
    again after each lane compaction:

    * Thresholds.  Five rows, summed in place row by row, from the weights
      of :func:`chain_weights`: one division of the first four lane rows
      by n gives p/n, aw/n, bw/n and a guard row; then t0 = p/n,
      t1 = t0 + aw/n, t2 = t1 + bw/n, t3 = t2 + guard and
      t4 = t3 + ab*(c+1)/(n*max(c,1)), whose last term is one product of
      the ab and c + 1 rows divided in place by the n*max(c, 1) row.  The
      guard is n/n = 1.0 exactly before the root connects, lifting the
      later thresholds past every draw (that regime's weights sum to n only
      in exact arithmetic, so float dust could leave a draw above
      t2 + 2/n), and 0/n = 0.0 after, which leaves t3 and t4 as they were.
      These are the thresholds that int64 lane rows gave, bit for bit: the
      counts are exact, and so is the guard; ab*(c+1) is rounded once, as
      the int64 product was when the division converted it; n*max(c,1) is
      exact in its row as in int64; and each division rounds its quotient
      once either way, so t3 and t4 add the same two operands.  The
      thresholds stay floats because integer ones would cut the same draws
      at other points and so change every seeded output.
    * Column.  The column is the number of thresholds at or below the
      draw: 0..3 before the root connects, 0, 1, 2, 4, 5 after.  The
      thresholds never decrease, so the comparison rows b1..b5 read
      1, ..., 1, 0, ..., 0, and the step telescopes:
      ``D[:, column] = D[:, 0] + sum_k b_k (D[:, k] - D[:, k-1])`` with
      D = ``_lane_delta(n)``.  The comparisons land in a float buffer whose
      sixth row is ones, and one product with :func:`_step_matrix`, built
      once per block, gives every lane's move.  Its terms are small
      integers and multiples of n times 0 or 1, so the sum is exact in any
      order the BLAS picks.
    * Lane compaction.  A lane is done once p < 0: u == 0 after the root
      connected, or only the root left (u == 1, c == 0), whose forced
      root-last step adds one active vertex and one step.  Done lanes write
      size (aw + ab, plus one when the guard is not 0), stopping step and
      root-last flag by their original index and leave the arrays.  p
      falls by at most :data:`_P_DROP` (2) a step, so after a check that
      finds the smallest p at m >= 0 no lane can finish before
      m // 2 + 1 more steps, and the check waits until then.  Until a lane
      has left, the live lanes are all of them and read the draw row as
      it is.
    """
    step_matrix = _step_matrix(n)
    state = np.zeros((7, width))  # rows p, aw, bw, n*[c == 0], ab, c + 1, n*max(c, 1)
    state[[0, 3, 5, 6]] = [[chain_weights(n, 0)[0]], [n], [1], [n]]
    lanes = np.arange(width)
    sizes = np.empty(width, dtype=np.int64)
    theta = np.empty(width, dtype=np.int64)
    last = np.empty(width, dtype=np.int64)
    # closing joins the draw thread also when the kernel or a draw raises
    with closing(_draw_rows(gen, width, n)) as draws:
        step = next_check = 0
        while lanes.size:
            full = lanes.size == width
            buf = np.ones((6, lanes.size))  # t0..t4, then b1..b5; the last row stays 1
            t = buf[:5]
            t03 = buf[:4]
            t0, t1, t2, t3, t4 = t
            p, ab, c1, m = state[0], state[4], state[5], state[6]
            head = state[:4]
            while True:
                if step == next_check:
                    p_min = int(p.min())
                    next_check = step + 1 + max(p_min, 0) // _P_DROP
                    if p_min < 0:
                        done = p < 0
                        final = state[:, done]
                        root_last = final[3] != 0
                        out = lanes[done]
                        sizes[out] = final[1] + final[4] + root_last
                        theta[out] = step + root_last
                        last[out] = root_last
                        keep = ~done
                        state = state[:, keep]
                        lanes = lanes[keep]
                        break
                row = next(draws)
                x = row if full else row.take(lanes)
                np.divide(head, n, out=t03)
                np.multiply(ab, c1, out=t4)
                t4 /= m
                t1 += t0
                t2 += t1
                t3 += t2
                t4 += t3
                np.less_equal(t, x, out=t)
                state += step_matrix @ buf
                step += 1
    return sizes, theta, last


# --------------------------------------------------------------------------
# Exact law by dynamic programming
# --------------------------------------------------------------------------

class GreedyLaw:
    """Exact joint law of (size, steps, root_last) for the status chain.

    ``numerators`` maps (size, steps, root_last) to an integer numerator
    over the one denominator ``den``, and they must sum to ``den``.  The
    marginals are sums of these integers, each made a Fraction once;
    :attr:`joint` gives every key's probability.
    """

    def __init__(self, n: int, numerators: dict[tuple[int, int, int], int], den: int):
        self.n = n
        self.numerators = numerators
        self.den = den
        total = sum(numerators.values())
        if total != den:
            raise AssertionError(f"law does not normalize: {total}/{den}")

    @property
    def joint(self) -> dict[tuple[int, int, int], Fraction]:
        """(size, steps, root_last) -> exact probability, built on each read."""
        return {key: Fraction(num, self.den) for key, num in self.numerators.items()}

    def _sums(self, value: Callable[[tuple[int, int, int]], int]) -> dict[int, int]:
        """Summed numerators, over the common denominator, by ``value(key)``."""
        out: dict[int, int] = defaultdict(int)
        for key, num in self.numerators.items():
            out[value(key)] += num
        return out

    def _law(self, value: Callable[[tuple[int, int, int]], int]) -> dict[int, Fraction]:
        return {x: Fraction(num, self.den) for x, num in self._sums(value).items()}

    def size_law(self) -> dict[int, Fraction]:
        return self._law(itemgetter(0))

    def steps_law(self) -> dict[int, Fraction]:
        return self._law(itemgetter(1))

    def root_last_probability(self) -> Fraction:
        return self._law(itemgetter(2)).get(1, Fraction(0))

    def complement_law(self) -> dict[int, Fraction]:
        """Law of (n - size) + root_last."""
        n = self.n
        return self._law(lambda key: (n - key[0]) + key[2])


def _blue_split_weights(cmax: int) -> dict[int, dict[int, int]]:
    """Integer weights for the law of the blue-active count given c blues.

    From the one active blue at c = 1 (the root, when it activates last)
    each blue arrival joins the opposite kind of its parent: given
    (a, c - a), the active count stays w.p. a/c and grows w.p. (c - a)/c.
    Weights at c are positive and sum to (c - 1)!, their denominator.
    """
    table = {1: {1: 1}}
    for c in range(1, cmax):
        nxt: dict[int, int] = defaultdict(int)
        for a, w in table[c].items():
            nxt[a] += w * a
            if c - a:
                nxt[a + 1] += w * (c - a)
        table[c + 1] = dict(nxt)
    return table


def _absorbed_rows(n: int, width: int) -> dict[int, list[int]]:
    """Forward pass of :func:`exact_chain_law`: absorbed half rows by blue count.

    Rows are keyed by (undetermined u, blue count c) and indexed by the
    active-white count aw; each entry packs the step axis into slots of
    ``width`` bytes, numerators over n^(n - u) at layer u (see
    :func:`exact_chain_law`).  ``width`` 0 merges the slots: the step-free
    law.  Layers are processed in decreasing u and each row is dropped as
    it is processed, so only layers u - 1 and u - 2 stay live besides the
    absorbed rows.

    Each row keeps only aw = 0..free // 2, with free = n - u - c: every
    full row is a palindrome, ws[aw] == ws[free - aw], since the start row
    [1] is one and the reflection aw -> free - aw maps the moves out of aw
    onto those out of free - aw weight for weight (the induction step that
    ``test_dp_moves_commute_with_the_white_reflection`` checks).  A kept
    entry w at aw moves:

    * pair: to aw + 1 of (u - 2, c), whose free is 2 more, so it is kept;
    * blue: to aw of the blue target, whose free is the same;
    * white stay: w * aw to aw of (u - 1, c);
    * white up: w * (free - aw) to aw + 1 of (u - 1, c) while
      aw < free // 2.  At aw == free // 2 with free odd, aw + 1 is the new
      middle entry, which also gets the mirror entry's stay move of the
      same weight, so the move counts twice; with free even, aw + 1 is in
      the upper half and the move is skipped.

    So each kept target gets exactly its moves of the full pass,
    ``full_absorbed_rows`` in ``tests/oracles.py``, which the tests
    compare these rows with.
    """
    shift = 8 * width
    # layers[u]: c -> packed weights by active_white; a row is made only
    # when it gets a nonzero weight.  c == 1 only in the root-last row of
    # layers[0], which collects the absorbed rows.
    layers: list[dict[int, list[int]]] = [{} for _ in range(n + 1)]
    layers[n][0] = [1]

    def row(u: int, c: int) -> list[int]:
        r = layers[u].get(c)
        if r is None:
            r = layers[u][c] = [0] * ((n - u - c) // 2 + 1)
        return r

    for u in range(n, 0, -1):
        layer = layers[u]
        while layer:
            c, ws = layer.popitem()
            pair_w, blue_w = chain_weights(u, c)
            if pair_w < 0:  # the root activates last
                layers[0][1] = [w * n for w in ws]
                continue
            # the blue column lands on (pair_w, blue_w): (u - 2, 2) when the
            # root connects, a two-vertex move, and (u - 1, c + 1) after
            blue = row(pair_w, blue_w)
            pair = row(u - 2, c) if pair_w else None
            free = n - u - c  # active_white + blocked_white
            white = row(u - 1, c) if free else None
            pair_w *= n  # two layers down: one more factor n
            if not c:  # the root connection, two layers down too
                blue_w *= n
            for aw, w in enumerate(ws):
                if not w:
                    continue
                shifted = w << shift  # one more two-vertex move
                if pair is not None:
                    pair[aw + 1] += shifted * pair_w
                if aw:
                    white[aw] += w * aw
                up = free - aw
                if up > aw + 1:  # aw < free // 2
                    white[aw + 1] += w * up
                elif up > aw:  # the middle of an odd row: the mirror's stay too
                    white[aw + 1] += 2 * w * up
                blue[aw] += (w if c else shifted) * blue_w
    return layers[0]


def _widen(x: int, slots: int, width: int, wide: int) -> int:
    """``x`` with each of its ``slots`` slots of ``width`` bytes padded to ``wide``."""
    raw = np.zeros((slots, wide), dtype=np.uint8)
    raw[:, :width] = np.frombuffer(
        x.to_bytes(slots * width, "little"), dtype=np.uint8
    ).reshape(slots, width)
    return int.from_bytes(raw.tobytes(), "little")


def exact_chain_law(n: int) -> GreedyLaw:
    """Exact joint law of (size, steps, root_last) by forward DP.

    The five counts reduce to the Markov triple (undetermined, active-white,
    blue-count): white counts determine each other through the total, and
    given the number of blue determined vertices the split into blue
    active / blue blocked is an independent exchange process
    (:func:`_blue_split_weights`).  Live states are rows: one list indexed
    by the active-white count per (undetermined u, blue-count c) pair, so
    each transition is a shifted add along a row.

    * Order.  Every move lowers u by 1 or 2, so the layers u = n, ..., 1
      are processed once each, in decreasing u (:func:`_absorbed_rows`),
      and paths of different lengths that reach the same state are merged.
      Each row is a palindrome in the active-white count, so only its
      lower half, aw <= (n - u - c) // 2, is computed.
    * Packed step axis.  Each row entry is one Python int.  Its slot d
      holds the weight of the paths with d two-vertex moves (the pair move
      and the root connection), which took theta = n - u - d steps, as a
      numerator over n^(n - u): every slot of layer u shares one
      denominator.  The slot width B is the bit length of n^n rounded up
      to whole bytes; no slot can exceed n^(n - u) <= n^n, so slots never
      carry into each other.  A move multiplies the int by its
      :func:`chain_weights` weight; a two-vertex move lands two layers
      down, so it also multiplies by n and shifts the int left by B.  The
      forced root-last move from (1, 0) multiplies the row by n.
    * Assembly.  Each absorbed half-row entry with c blues is widened, by
      byte padding, to slots of B2 >= bits(n^n * (cmax - 1)!), where cmax
      is the largest blue count, and multiplied by (cmax - 1)!/(c - 1)!;
      the widened half row is mirrored into the full row.  Its entry at aw
      is added, times each split weight of its own c at a, to size aw + a
      of the row of its root-last flag e (c == 1), up to size
      (n + e) // 2.  The split weights at c sum to (c - 1)!, so every slot
      then holds a numerator over n^n * (cmax - 1)!.  Each (e, size) int
      is unpacked once, slot d giving step n - d, and written under size
      and n + e - size, as (size, steps, e) has the law of
      (n + e - size, steps, e).  The tests assemble the unmirrored rows of
      ``full_absorbed_rows`` in ``tests/oracles.py`` as the check.

    Cross-checked against the full five-count chain and against exhaustive
    tree enumeration in the test suite.
    """
    n = _size(n)
    limit = _cap(DEFAULT_LAW_CAP)
    if n > limit:
        raise ValueError(f"n={n} above the exact-law cap {limit}")
    width = -(-(n ** n).bit_length() // 8)  # B, in bytes
    absorbed = _absorbed_rows(n, width)
    cmax = max(absorbed)
    top = math.factorial(cmax - 1)
    wide = -(-(n ** n * top).bit_length() // 8)  # B2, in bytes
    slots = n // 2 + 1  # at most n/2 two-vertex moves
    split = _blue_split_weights(cmax)
    # numer[e][g], g <= (n + e) // 2: slot d holds the numerator of
    # P(size g, steps n - d, root_last e) over n^n * top, and of size n + e - g
    numer = [[0] * (n // 2 + 1), [0] * ((n + 1) // 2 + 1)]
    for c, ws in absorbed.items():
        scale = top // math.factorial(c - 1)
        acc = numer[c == 1]
        sizes = len(acc)
        weights = sorted(split[c].items())
        row = [_widen(w, slots, width, wide) * scale if w else 0 for w in ws]
        row += row[::-1][1 - (n - c) % 2:]  # the full row, aw = 0..n - c
        for aw, w in enumerate(row[:sizes]):
            if w:
                for a, s in weights:
                    if aw + a >= sizes:
                        break
                    acc[aw + a] += w * s
    numerators = {}
    for e, acc in enumerate(numer):
        for g, x in enumerate(acc):
            packed = x.to_bytes(slots * wide, "little")
            for d in range(slots):
                num = int.from_bytes(packed[d * wide:(d + 1) * wide], "little")
                if num:
                    numerators[(g, n - d, e)] = numerators[(n + e - g, n - d, e)] = num
    return GreedyLaw(n, numerators, n ** n * top)


def enumeration_law(n: int) -> GreedyLaw:
    """Joint outcome law from exhaustive enumeration of all n^(n-2) trees.

    The walk of :func:`_greedy_walk` runs on each batch of parent tables
    from ``trees._parent_batches``, all rows at once, column by column for
    v = 1..n.  When v's column comes up every smaller label is already
    determined, so an undetermined parent has a larger label and the
    inspected vertices are exactly those still undetermined then.  Each
    row keeps its statuses as two uint64 masks, ``active`` and
    ``determined``, with a step counter: v is inspected iff
    its bit is not determined, it turns active iff its parent's bit is not
    active (``_V_AFTER``: an undetermined or blocked parent activates v),
    and the parent becomes determined, blocked unless it was active.  v's
    own determined bit is never read again, so it is not set.  The root's
    bit gives the root-last flag, and the size is the count of active bits
    plus that flag; the (size, steps, root_last) triples are
    tallied with ``bincount``.  Refuses the n that :func:`enumerate_all`
    refuses.
    """
    n = _size(n)
    one = np.uint64(1)
    counts = np.zeros((n + 1) * (n + 1) * 2, dtype=np.int64)  # by (g, theta, e)
    for parents in _parent_batches(n):
        rows = len(parents)
        active = np.zeros(rows, dtype=np.uint64)
        determined = np.zeros(rows, dtype=np.uint64)
        steps = np.zeros(rows, dtype=np.int64)
        for v, parent in enumerate(parents.T, start=1):
            bit = one << np.uint64(v)
            parent_bit = one << parent
            inspected = (determined & bit) == 0
            turns_active = inspected & ((active & parent_bit) == 0)
            determined |= parent_bit * inspected
            active |= bit * turns_active
            steps += inspected
        root_last = (determined >> np.uint64(n)) == 0
        steps += root_last
        sizes = np.bitwise_count(active).astype(np.int64) + root_last
        counts += np.bincount((sizes * (n + 1) + steps) * 2 + root_last,
                              minlength=counts.size)
    table = counts.reshape(n + 1, n + 1, 2)
    return GreedyLaw(n, {
        key: table[key].item()
        for key in zip(*(axis.tolist() for axis in np.nonzero(table)))
    }, tree_count(n))


def total_variation_exact(
    p: Mapping[int, float | Fraction], q: Mapping[int, float | Fraction]
) -> float | Fraction:
    """(1/2) sum |p - q| over the union support.

    Exact, a ``Fraction``, on ``Fraction`` inputs; on floats a float, summed
    term by term in a plain loop, so the result does not depend on whether
    ``sum()`` compensates its rounding.
    """
    acc = Fraction(0)  # the first float term turns it into a float
    for k in set(p) | set(q):
        acc += abs(p.get(k, 0) - q.get(k, 0))
    return acc / 2


@dataclass(frozen=True)
class SymmetryCheck:
    n: int
    tv: Fraction
    root_last_probability: Fraction


def verify_symmetry_exact(n: int, cross_check: bool = False) -> SymmetryCheck:
    """TV distance between law(size) and law((n - size) + root_last), exactly.

    The two laws agree exactly for every n, and the TV is 0 by
    construction: :func:`exact_chain_law` computes half of each row and
    writes each numerator under both sizes g and n + e - g.  With
    ``cross_check=True`` the DP joint law is compared against exhaustive
    enumeration (practical for n <= 8), the independent check.
    """
    law = exact_chain_law(n)
    if cross_check:
        enum = enumeration_law(n)
        if enum.joint != law.joint:
            raise AssertionError(f"DP law disagrees with enumeration at n={n}")
    tv = total_variation_exact(law.size_law(), law.complement_law())
    return SymmetryCheck(n=n, tv=tv, root_last_probability=law.root_last_probability())


# --------------------------------------------------------------------------
# Greedy matching and exact maximum independent set
# --------------------------------------------------------------------------

def greedy_matching(tree: CayleyTree, order: Sequence[int]) -> int:
    """Size of the maximal matching built greedily along ``order``, in array rounds.

    Edges are identified by their child vertex (1..n-1); an edge is kept
    whenever both endpoints are still unmatched when ``order`` reaches it.
    Each round keeps every open edge that comes first in ``order`` among
    the open edges at both of its endpoints (the earlier ones there are
    all dropped), then drops every open edge that touches a matched
    vertex.  When a round stalls (:data:`_STALL_SHARE`), the tail takes
    the open edges in order.  Raises ``ValueError`` unless ``order`` is a
    permutation of 1..n-1 with an integer dtype.
    """
    n = tree.n
    ids = np.asarray(order)
    if ids.shape != (n - 1,) or (ids.size and ids.dtype.kind not in "iu"):
        raise ValueError("order must be a permutation of the edge ids 1..n-1")
    if n < 2:
        return 0
    rank = np.full(n, -1, dtype=np.int64)  # position in order, by edge id
    if ids.min() >= 1 and ids.max() < n:
        rank[ids] = np.arange(n - 1)
    r = rank[1:]
    if r.min() < 0:
        raise ValueError("order must be a permutation of the edge ids 1..n-1")
    par = np.zeros(n, dtype=np.int64)
    par[1:] = tree.parent_array
    c, p = np.arange(1, n), par[1:]  # the open edges, by their two ends
    matched = np.zeros(n + 1, dtype=bool)
    size = 0
    while r.size:
        first = np.full(n + 1, n, dtype=np.int64)  # smallest open rank at a vertex
        first[c] = r
        np.minimum.at(first, p, r)
        kept = first[c] == r
        kept &= first[p] == r
        c_kept = np.compress(kept, c)
        matched[c_kept] = True
        matched[np.compress(kept, p)] = True
        size += c_kept.size
        live = matched[c]
        live |= matched[p]
        np.logical_not(live, out=live)
        before = r.size
        c, p, r = np.compress(live, c), np.compress(live, p), np.compress(live, r)
        if r.size > _STALL_SHARE * before:
            break
    if r.size:
        is_open = np.zeros(n - 1, dtype=bool)  # by rank
        is_open[r] = True
        edges = np.compress(is_open, ids)
        m = bytearray(matched.tobytes())
        for v, w in zip(edges.tolist(), par[edges].tolist()):
            if not m[v] and not m[w]:
                m[v] = 1
                m[w] = 1
                size += 1
    return size


def max_independent_set(tree: CayleyTree) -> int:
    """Exact maximum independent set size, by leaf removal in array rounds.

    A vertex is taken iff none of its children was taken; on a tree this
    greedy is optimal (some maximum set holds every leaf).  Each round
    takes every open vertex with no open children, whose children are then
    all untaken, and settles their parents as untaken.  When a round
    stalls (:data:`_STALL_SHARE`), the tail runs the leaf removal over the
    open vertices, children before parents: a scan in label order reaches
    each vertex once its open children are done, or climbs to a parent of
    smaller label as soon as that parent's last child is.  Works on any
    parent table, whatever its labels.
    """
    n = tree.n
    par = np.zeros(n + 1, dtype=np.int64)  # par[n] = 0: the root has none
    par[1:n] = tree.parent_array
    settled = np.zeros(n + 1, dtype=bool)
    open_ = np.arange(1, n + 1)
    size = 0
    while open_.size:
        busy = np.zeros(n + 1, dtype=bool)  # has an open child
        busy[par[open_]] = True
        take = np.compress(~busy[open_], open_)
        size += take.size
        settled[take] = True
        settled[par[take]] = True
        left = np.compress(~settled[open_], open_)
        stalled = left.size > _STALL_SHARE * open_.size
        open_ = left
        if stalled:
            break
    if open_.size:
        pending = np.bincount(par[open_], minlength=n + 1)  # open children
        pending[settled] = n  # never reaches 0, so the scan passes it by
        pending = pending.tolist()
        covered = bytearray(n + 1)  # a child was taken in the tail
        labels = open_.tolist()
        root_open = labels[-1] == n
        if root_open:
            labels.pop()
        # parents of the open non-root vertices, the only u the climb reaches
        parent = dict(zip(labels, par[open_].tolist()))
        for v in labels:
            if pending[v]:
                continue
            u = v
            while True:
                p = parent[u]
                if not covered[u]:
                    size += 1
                    covered[p] = 1
                pending[p] -= 1
                if pending[p] or p > v:
                    break
                u = p
        if root_open:
            size += not covered[n]
    return size


# --------------------------------------------------------------------------
# The exact law as JSON
# --------------------------------------------------------------------------

def fraction_to_json(x: Fraction) -> dict:
    """An exact probability as ``{"fraction": "p/q", "float": x}``."""
    return {"fraction": f"{x.numerator}/{x.denominator}", "float": float(x)}


def law_to_json_dict(law: GreedyLaw) -> dict:
    """JSON-ready view: size law as {value: {"fraction": "p/q", "float": x}}."""

    def fmt(mapping: dict[int, Fraction]) -> dict[str, dict]:
        return {str(k): fraction_to_json(v) for k, v in sorted(mapping.items())}

    return {
        "n": law.n,
        "size_law": fmt(law.size_law()),
        "steps_law": fmt(law.steps_law()),
        "complement_law": fmt(law.complement_law()),
        "root_last_probability": fraction_to_json(law.root_last_probability()),
    }
