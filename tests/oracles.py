"""Cross-check oracles: slow, direct formulations that the tests compare the
library against.

* :func:`greedy_reference` -- the textbook greedy sweep over the
  neighbour lists of :func:`adjacency`, against the active set of the
  greedy peeling as :func:`cayley_greedy.greedy_peeling` runs it,
  :func:`peeling_active_set`.
* :class:`StatusCounts`, :func:`chain_transitions` and
  :func:`reference_chain_law` -- the full five-count status chain in
  rationals, against the packed DP :func:`cayley_greedy.exact_chain_law`;
  :func:`status_count_trace` gives the same counts along one tree, and
  :func:`law_from_fractions` holds a law in rationals as a ``GreedyLaw``.
* :func:`_root_avoiding_survival` -- P(root last) by the chain conditioned
  never to connect the root.
* :func:`full_absorbed_rows` -- the exact DP's forward pass with every
  active-white count, against the half rows that the library keeps and
  mirrors.
* :func:`first_repetition_time` and :func:`first_repetition_law` -- the
  uniform walk's first revisit, whose law is the first-branch law shifted
  by one.
* :func:`prufer_encode` -- the inverse of :func:`cayley_greedy.prufer_decode`,
  for the round-trip tests.
* :func:`total_variation` -- the library's total variation sum, on laws
  checked to be normalized.
* :func:`drift`, :func:`jacobian`, :func:`ode_solution`,
  :func:`flow_matrix` and :func:`local_covariance` -- the fluid ODE and its
  linearization, from which ``tests/test_fluid.py`` integrates the
  absorption covariances that :mod:`cayley_greedy.fluid` gives in closed
  form.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from cayley_greedy.greedy import (
    CHAIN_DELTA,
    ChainColumn,
    GreedyLaw,
    VertexStatus,
    _greedy_statuses,
    chain_weights,
    greedy_exploration_steps,
    total_variation_exact,
)
from cayley_greedy.trees import CayleyTree, RandomSource


def adjacency(tree: CayleyTree) -> list[list[int]]:
    """Undirected neighbour lists, 1-indexed."""
    out: list[list[int]] = [[] for _ in range(tree.n + 1)]
    for v, p in enumerate(tree.parents, start=1):
        out[p].append(v)
        out[v].append(p)
    return out


def greedy_reference(tree: CayleyTree, order: Sequence[int]) -> frozenset[int]:
    """Maximal independent set built by inspecting vertices in ``order``.

    An undetermined vertex becomes active and immediately blocks all of its
    undetermined neighbours; determined vertices are skipped.
    """
    n = tree.n
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError("order must be a permutation of 1..n")
    adj = adjacency(tree)
    status = [VertexStatus.UNDETERMINED] * (n + 1)
    active = []
    for v in order:
        if status[v] != VertexStatus.UNDETERMINED:
            continue
        status[v] = VertexStatus.ACTIVE
        active.append(v)
        for w in adj[v]:
            if status[w] == VertexStatus.UNDETERMINED:
                status[w] = VertexStatus.BLOCKED
    return frozenset(active)


def peeling_active_set(tree: CayleyTree) -> frozenset[int]:
    """Active set of the greedy peeling from what
    :func:`cayley_greedy.greedy_peeling` runs: the final statuses of the
    array rounds, or, when a round stalls, the walk's statuses replayed
    from :func:`greedy_exploration_steps` as :func:`status_count_trace`
    does.  The peeled vertex v of a step turns active iff its parent is
    not active, and the root is active iff it was the last left."""
    status = _greedy_statuses(tree.parent_array)
    if status is not None:
        return frozenset(np.flatnonzero(status == VertexStatus.ACTIVE).tolist())
    steps, outcome = greedy_exploration_steps(tree)
    active = {tree.n} if outcome.root_last else set()
    for v, w, _ in steps:
        if w not in active:
            active.add(v)
    return frozenset(active)


# --------------------------------------------------------------------------
# The five-count status chain
# --------------------------------------------------------------------------

class StatusCounts(NamedTuple):
    """Vertex counts by status and color; always sums to n."""

    undetermined: int
    active_white: int
    blocked_white: int
    active_blue: int
    blocked_blue: int


def status_count_trace(tree: CayleyTree) -> list[tuple[StatusCounts, StatusCounts]]:
    """(before, after) :class:`StatusCounts` per inspection of the greedy peeling.

    Replays :func:`greedy_exploration_steps`: the peeled vertex v of each
    step takes the color of its parent w, given by the step's recolored
    flag; an undetermined w is blocked and v activated, else v gets the
    status opposite to w's.  A root-last outcome adds a final row in which
    the root, blue, activates.
    """
    n = tree.n
    steps, outcome = greedy_exploration_steps(tree)
    status = [VertexStatus.UNDETERMINED] * (n + 1)
    counts = [n, 0, 0, 0, 0]
    rows = []

    def determine(v: int, to: VertexStatus, blue: bool) -> None:
        status[v] = to
        counts[0] -= 1
        counts[to + 2 * blue] += 1  # active 1 or 3, blocked 2 or 4

    for v, w, blue in steps:
        before = StatusCounts(*counts)
        if status[w] == VertexStatus.UNDETERMINED:
            determine(w, VertexStatus.BLOCKED, blue)
        active_parent = status[w] == VertexStatus.ACTIVE
        determine(v, VertexStatus.BLOCKED if active_parent else VertexStatus.ACTIVE, blue)
        rows.append((before, StatusCounts(*counts)))
    if outcome.root_last:
        before = StatusCounts(*counts)
        determine(n, VertexStatus.ACTIVE, True)
        rows.append((before, StatusCounts(*counts)))
    return rows


def chain_transitions(
    state: StatusCounts, n: int
) -> list[tuple[Fraction, StatusCounts]]:
    """Exact one-step law of the status chain from ``state``.

    Column weights come from :func:`chain_weights` and moves from
    :data:`CHAIN_DELTA`; columns are listed in :class:`ChainColumn` order
    and zero-probability ones are dropped.  Probabilities always sum to
    exactly 1 (checked in rational arithmetic).
    """
    u, aw, bw, ab, bb = state
    if u < 1:
        raise ValueError("chain already absorbed")
    c = ab + bb
    if c and not (ab and bb):
        raise ValueError("blue actives and blue blockeds appear together")
    pair, blue = chain_weights(u, c)
    assert pair + aw + bw + blue == n, "weights must sum to n"
    k = max(c, 1)  # weights below are over n * k
    if pair < 0:  # only the root is left, and it activates
        weights = [0] * ChainColumn.ROOT_LAST + [n]
    else:  # the blue column connects the root, or splits ab : bb after that
        weights = [pair * k, aw * k, bw * k, blue * (c == 0), blue * ab, blue * bb, 0]
    cols = [
        (Fraction(w, n * k), StatusCounts(*(CHAIN_DELTA[:, col] + state).tolist()))
        for col, w in zip(ChainColumn, weights)
    ]
    assert sum(p for p, _ in cols) == 1
    return [(p, s) for p, s in cols if p]


def law_from_fractions(n: int, joint: Mapping[tuple[int, int, int], Fraction]) -> GreedyLaw:
    """The law of exact probabilities ``joint``, held as integer numerators
    over the lcm of their denominators."""
    den = math.lcm(*(p.denominator for p in joint.values()))
    return GreedyLaw(
        n, {key: p.numerator * (den // p.denominator) for key, p in joint.items()}, den)


def reference_chain_law(n: int) -> GreedyLaw:
    """Joint law from the full five-count chain, Fractions throughout.

    Slow but direct: used to cross-check :func:`exact_chain_law`.
    """
    if n == 1:
        return law_from_fractions(1, {(1, 1, 1): Fraction(1)})
    dist: dict[StatusCounts, Fraction] = {StatusCounts(n, 0, 0, 0, 0): Fraction(1)}
    joint: dict[tuple[int, int, int], Fraction] = defaultdict(Fraction)
    step = 0
    while dist:
        step += 1
        nxt: dict[StatusCounts, Fraction] = defaultdict(Fraction)
        for state, p in dist.items():
            root_last_here = (
                state.active_blue == 0
                and state.blocked_blue == 0
                and state.undetermined == 1
            )
            for q, target in chain_transitions(state, n):
                if target.undetermined == 0:
                    g = target.active_white + target.active_blue
                    joint[(g, step, int(root_last_here))] += p * q
                else:
                    nxt[target] += p * q
        dist = dict(nxt)
    return law_from_fractions(n, joint)


def _root_avoiding_survival(n: int) -> Fraction:
    """E[(1 - 2/n)^(T - 1)] for the chain conditioned to never connect the root.

    The conditioned chain lives on (undetermined, active-white) with the
    white column weights of :func:`chain_weights` before the root connects,
    (u-2), aw, bw, over the common denominator n - 2; with z = (n-2)/n the
    step-i contribution collapses to weight / n^i.
    """
    if n < 3:
        raise ValueError("conditioned chain needs n >= 3")
    states: dict[tuple[int, int], int] = {(n, 0): 1}
    acc = Fraction(0)
    step = 0
    while states:
        step += 1
        nxt: dict[tuple[int, int], int] = defaultdict(int)
        for (u, aw), w in states.items():
            bw = n - u - aw
            pair_w, _ = chain_weights(u, 0)
            if pair_w < 0:
                # terminal root activation: T = step, contributes z^(T-1)
                acc += Fraction(w, n ** (step - 1))
                continue
            if pair_w:
                nxt[(u - 2, aw + 1)] += w * pair_w
            if aw:
                nxt[(u - 1, aw)] += w * aw
            if bw:
                nxt[(u - 1, aw + 1)] += w * bw
        states = dict(nxt)
    return acc


def full_absorbed_rows(n: int, width: int) -> dict[int, list[int]]:
    """The absorbed rows of ``cayley_greedy.greedy._absorbed_rows`` in full.

    Rows are keyed by (undetermined u, blue count c) and indexed by every
    active-white count aw = 0..n - u - c; each entry packs the step axis
    into slots of ``width`` bytes, numerators over n^(n - u) at layer u.
    ``width`` 0 merges the slots: the step-free law.  Every move of each
    entry is made, so no row is mirrored: the tests check that the rows
    are palindromes and that the library's half rows are their lower
    halves.
    """
    shift = 8 * width
    # layers[u]: c -> packed weights by active_white; c == 1 only in the
    # root-last row of layers[0], which collects the absorbed rows
    layers: list[dict[int, list[int]]] = [{} for _ in range(n + 1)]
    layers[n][0] = [1]

    def row(u: int, c: int) -> list[int]:
        r = layers[u].get(c)
        if r is None:
            r = layers[u][c] = [0] * (n - u - c + 1)
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
                if free - aw:
                    white[aw + 1] += w * (free - aw)
                blue[aw] += (w if c else shifted) * blue_w
    return layers[0]


# --------------------------------------------------------------------------
# First repetition time of the uniform walk
# --------------------------------------------------------------------------

def first_repetition_time(n: int, rng: RandomSource) -> int:
    """First time the uniform walk started at n revisits an old vertex."""
    if n < 2:
        raise ValueError("need at least two vertices")
    seen = bytearray(n + 1)
    seen[n] = 1
    t = 0
    while True:
        t += 1
        x = rng.integer(1, n + 1)
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


# --------------------------------------------------------------------------
# Pruefer encoding
# --------------------------------------------------------------------------

def prufer_encode(tree: CayleyTree) -> list[int]:
    """Inverse of :func:`cayley_greedy.prufer_decode`; requires n >= 2."""
    n = tree.n
    if n < 2:
        raise ValueError("encoding needs at least two vertices")
    if n == 2:
        return []
    # the decode's pointer scan: what remains always holds n and the parent
    # of every vertex it holds, so a leaf's one remaining neighbour is its
    # parent.  The root's degree is its child count.
    parents = tree.parents
    degree = [1] * (n + 1)
    degree[n] = 0
    for p in parents:
        degree[p] += 1
    out = [0] * (n - 2)
    ptr = 1
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    for j in range(n - 2):
        p = out[j] = parents[leaf - 1]
        degree[p] -= 1
        if degree[p] == 1 and p < ptr:
            leaf = p
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    return out


# --------------------------------------------------------------------------
# Total variation of normalized laws
# --------------------------------------------------------------------------

#: how far from 1 the total mass of a law given to total_variation may be
NORMALIZATION_TOL = 1e-9


def total_variation(
    p: Mapping[int, float | Fraction], q: Mapping[int, float | Fraction],
) -> float | Fraction:
    """:func:`cayley_greedy.greedy.total_variation_exact` of two laws that
    must be normalized."""
    for name, dist in (("p", p), ("q", q)):
        s = float(sum(dist.values()))
        if abs(s - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"distribution {name} sums to {s}, not 1")
    return total_variation_exact(p, q)


# --------------------------------------------------------------------------
# The fluid ODE and its linearization
# --------------------------------------------------------------------------

def drift(u: float, a: float, b: float) -> tuple[float, float, float]:
    """Mean increment field (u', a', b') of the rescaled chain."""
    return (-2 * u - a - b, u + b, u + a)


def jacobian() -> np.ndarray:
    """Derivative of :func:`drift`, constant because the field is linear."""
    return np.array([[-2.0, -1.0, -1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])


def ode_solution(t: float) -> tuple[float, float, float]:
    """(u, a, b) at time ``t`` on the closed-form trajectory; they sum to 1."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    e = math.exp(-t)
    return 2 * e - 1, 1 - e, 1 - e


def flow_matrix(s: float) -> np.ndarray:
    """exp(s J) for the drift Jacobian J, which satisfies J @ J = -J, hence
    exp(sJ) = I + (1 - exp(-s)) J exactly."""
    return np.eye(3) + (1.0 - math.exp(-s)) * jacobian()


def local_covariance(s: float) -> np.ndarray:
    """Per-step covariance source along the trajectory (sum of jump outer
    products weighted by their limiting rates); symmetric for all s."""
    u, a, b = ode_solution(s)
    return np.array([
        [4 * u + a + b, -2 * u - b, -2 * u - a],
        [-2 * u - b, u + b, u],
        [-2 * u - a, u, u + a],
    ])
