"""Markovian peeling exploration of rooted labeled trees.

An exploration grows a colored forest from n isolated vertices to the full
tree, one edge per step.  The component of the root n is *blue*; all other
components are *white* and carry a well-defined root.  A *peeling rule*
selects, at each step, the white root to connect next; the edge always goes
from that root to its parent in the underlying tree.

When the underlying tree is uniform, the forest sequence is a Markov chain
whatever the rule: conditionally on the current forest with k edges, blue
size L, and a selected white root whose component has size m,

* each blue vertex is the parent with probability (L + m) / (L * n),
* each white vertex outside the selected component with probability 1 / n.

These weights come from counting exactly how many trees contain a given
forest (:func:`count_containing_trees`), which makes direct simulation of
the exploration possible without drawing the tree first
(:func:`peel_markov`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Protocol

from .trees import CayleyTree, RandomSource, _size


class PeelStep(NamedTuple):
    """One edge added by an exploration: ``peeled`` attaches below ``parent``."""

    peeled: int
    parent: int
    recolored_to_blue: bool


class ForestState:
    """Colored rooted forest over {1..n}, with quick-find component tracking.

    ``_rep[v]`` is the representative of v's component, and each
    representative knows its component's root vertex and members.
    Vertex n always sits in the unique blue component, so a vertex is blue
    exactly when it shares n's representative.  Merges relabel the smaller
    member list into the larger, so a vertex is relabeled O(log n) times and
    uniform sampling inside a component is O(1); the live white roots sit in
    a swap-remove registry for O(1) uniform choice.
    """

    __slots__ = ("n", "_rep", "_root", "_members", "_white_roots", "_white_pos")

    def __init__(self, n: int):
        self.n = n = _size(n)
        self._rep = list(range(n + 1))
        self._root = list(range(n + 1))  # tree-root vertex per representative
        self._members = [[v] for v in range(n + 1)]
        self._white_roots = list(range(1, n))
        self._white_pos = dict(zip(self._white_roots, range(n - 1)))

    # -- queries ------------------------------------------------------------

    def is_blue(self, v: int) -> bool:
        return self._rep[v] == self._rep[self.n]

    def component_root(self, v: int) -> int:
        return self._root[self._rep[v]]

    @property
    def blue_size(self) -> int:
        return len(self._members[self._rep[self.n]])

    @property
    def edge_count(self) -> int:
        """Edges so far: each attach removes exactly one white root."""
        return self.n - 1 - len(self._white_roots)

    @property
    def white_root_count(self) -> int:
        return len(self._white_roots)

    def white_root_at(self, index: int) -> int:
        return self._white_roots[index]

    # -- mutation -----------------------------------------------------------

    def attach(self, v1: int, v2: int) -> PeelStep:
        """Add the edge v1 -> v2; the merged component takes v2's color.

        v1 must currently be a white root and v2 must lie in a different
        component.  The blue size grows by v1's old component size exactly
        when v2 was blue.
        """
        if v1 not in self._white_pos:
            raise ValueError(f"vertex {v1} is not a white root")
        rep = self._rep
        r1 = rep[v1]
        r2 = rep[v2]
        if r1 == r2:
            raise ValueError(f"vertices {v1} and {v2} share a component")
        to_blue = r2 == rep[self.n]
        new_root = self._root[r2]
        # merge by size: the smaller member list is relabeled and folded in
        if len(self._members[r1]) < len(self._members[r2]):
            small, big = r1, r2
        else:
            small, big = r2, r1
        moved = self._members[small]
        for u in moved:
            rep[u] = big
        self._members[big].extend(moved)
        self._members[small] = []
        self._root[big] = new_root
        # v1 stops being a root; v2's component root is unchanged
        pos = self._white_pos.pop(v1)
        last = self._white_roots.pop()
        if last != v1:
            self._white_roots[pos] = last
            self._white_pos[last] = pos
        return PeelStep(v1, v2, to_blue)


def count_containing_trees(state: ForestState) -> int:
    """Exact number of rooted-at-n trees whose edge set extends the forest.

    A forest with k edges and blue size L is contained in L * n^(n-k-2)
    trees; the only negative exponent happens at k = n - 1 where the forest
    already is the full (blue) tree.
    """
    n = state.n
    k = state.edge_count
    ell = state.blue_size
    if k == n - 1:
        return 1
    return ell * n ** (n - k - 2)


# --------------------------------------------------------------------------
# Peeling rules
# --------------------------------------------------------------------------

class PeelingRule(Protocol):
    def select(self, state: ForestState) -> int:
        """Return the white root to peel next; state must have one."""
        ...


class UniformRule:
    """Peel a uniform white root.

    The rule owns its randomness: fix the stream up front and the rule
    becomes a deterministic function of the forest history, independent of
    the tree being explored.
    """

    def __init__(self, rng: RandomSource):
        self._rng = rng

    def select(self, state: ForestState) -> int:
        return state.white_root_at(self._rng.integer(0, state.white_root_count))


class SmallestLabelRule:
    """Peel the root of the component holding the smallest white vertex.

    Reuses one instance per exploration only: the scan pointer relies on
    white vertices never reappearing.
    """

    def __init__(self) -> None:
        self._ptr = 1

    def select(self, state: ForestState) -> int:
        while state.is_blue(self._ptr):
            self._ptr += 1
        return state.component_root(self._ptr)


def _check_transition_weights(n: int, ell: int, m: int) -> None:
    # per-vertex weights: ell blue vertices at (ell+m)/(ell*n) each and
    # n-ell-m compatible whites at 1/n each total exactly 1 only when the
    # blue component and v's component are non-empty and fit in n vertices
    if not (ell >= 1 and m >= 1 and ell + m <= n):
        raise AssertionError("transition probabilities do not sum to 1")


def _markov_attach(state: ForestState, v: int, rng: RandomSource) -> PeelStep:
    """Sample the parent of white root v from the exploration's one-step law.

    Two-stage draw: first blue-vs-white by the aggregated class weights,
    then a uniform member of the class.  Equivalent to the per-vertex law.
    """
    n = state.n
    rep = state._rep
    blue = rep[n]
    own = rep[v]
    blues = state._members[blue]
    ell = len(blues)
    m = len(state._members[own])
    _check_transition_weights(n, ell, m)
    if rng.uniform() < (ell + m) / n:
        parent = blues[rng.integer(0, ell)]
    else:
        # uniform white vertex outside v's component via rejection; given
        # that this class was drawn, the expected number of tries is
        # n / (n - ell - m), so the amortized cost per step is O(1)
        while True:
            parent = rng.integer(1, n + 1)
            if rep[parent] != blue and rep[parent] != own:
                break
    return state.attach(v, parent)


def peel_fixed_tree(tree: CayleyTree, rule: PeelingRule) -> list[PeelStep]:
    """Explore a known tree: peel rule's choice, attach it to its true parent.

    Whatever the rule, after n-1 steps the forest is the whole tree and
    every vertex is blue.
    """
    state = ForestState(tree.n)
    steps = []
    for _ in range(tree.n - 1):
        v = rule.select(state)
        steps.append(state.attach(v, tree.parent_of(v)))
    return steps


def peel_markov(
    n: int, rule: PeelingRule, rng: RandomSource
) -> tuple[list[PeelStep], CayleyTree]:
    """Run the exploration without a pre-drawn tree.

    Each peeled root's parent is sampled from the one-step law, so the
    assembled final tree is a uniform tree rooted at n, for any rule.
    """
    state = ForestState(n)
    n = state.n  # checked, a Python int
    steps = []
    parents = [0] * (n - 1)
    for _ in range(n - 1):
        v = rule.select(state)
        step = _markov_attach(state, v, rng)
        parents[v - 1] = step.parent
        steps.append(step)
    return steps, CayleyTree._trusted(n, parents)


def first_branch_length(n: int, rng: RandomSource) -> int:
    """Steps of the smallest-label exploration until vertex 1 turns blue.

    Simulated through the one-step law; equals min{i >= 0 : 1 is blue in
    the i-th forest}.
    """
    state = ForestState(_size(n, 2))
    rule = SmallestLabelRule()
    t = 0
    while not state.is_blue(1):
        v = rule.select(state)
        _markov_attach(state, v, rng)
        t += 1
    return t


def first_branch_law(n: int) -> dict[int, Fraction]:
    """Exact law of :func:`first_branch_length`.

    The component of vertex 1 grows by one vertex per step until it hooks
    onto the blue root, which at step k happens with probability (k+1)/n;
    hence P(T = k) = ((k+1)/n) * prod_{i=2}^{k} (1 - i/n) for 1 <= k <= n-1.
    (Counting the vertices of the finished branch instead of its edges
    shifts k by one and recovers the usual product formula.)
    """
    n = _size(n, 2)
    law: dict[int, Fraction] = {}
    prod = Fraction(1)
    for k in range(1, n):
        law[k] = Fraction(k + 1, n) * prod
        prod *= Fraction(n - (k + 1), n)
    return law
