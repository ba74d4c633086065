"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st


@st.composite
def parent_tables(draw, max_n):
    """(n, parents) of a valid tree on {1..n} rooted at n, with free labels.

    Non-root vertices join in a random order, each below a uniformly drawn
    vertex already placed, so a child's label may be above or below its
    parent's and every tree shape can occur.
    """
    n = draw(st.integers(min_value=1, max_value=max_n))
    placed = [n]
    parents = [0] * (n - 1)
    for v in draw(st.permutations(range(1, n))):
        parents[v - 1] = placed[draw(st.integers(0, len(placed) - 1))]
        placed.append(v)
    return n, parents
