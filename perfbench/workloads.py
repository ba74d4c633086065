"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed, and each call of
``round`` runs one fixed list of operations through the library's public
functions, checks every output, and returns the latency of each operation
and a fingerprint of the outputs.  Rounds of one run see identical inputs,
so their fingerprints must agree, and operation i of every round is the
same work.
"""

from __future__ import annotations

import tracemalloc
from collections import Counter
from time import perf_counter

import numpy as np

from cayley_greedy import fluid, greedy, peeling, stats, trees

import checks as ck
from layers import ENUM_LABEL


LADDER = (20, 40, 60)
TINY_LADDER = (10, 20)


class NullTracer:
    """Stands in for the tracer in the timed pass."""

    def begin_op(self, label: str) -> None:
        pass


class Workload:
    name = ""

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        #: the exact-law ladder; every workload names per-layer metrics by it
        self.ladder = TINY_LADDER if tiny else LADDER

    def warm_up(self) -> None:
        """Fill caches and finish lazy imports on a small input."""

    def round(self, checks: ck.Checks, tracer, clock=perf_counter):
        """Run one round; returns (operation latencies on ``clock``, in
        seconds, and a fingerprint of the outputs).

        ``tracer.begin_op(label)`` is called before each operation.
        """
        raise NotImplementedError

    def peak_memory_mb(self) -> float:
        """Traced-pass memory probe (only the exact-law workload has one)."""
        return 0.0


class TreeSweep(Workload):
    """Per-tree statistics at n = 10^4 (criteria 9-11): the O(n) tree and
    greedy loops do the work; no chain, no DP."""

    name = "tree_sweep"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        self.n = 2000 if tiny else 10_000
        self.replicates = 3 if tiny else 100
        self.master = trees.RandomSource(seed)

    def _op(self, i: int, n: int) -> tuple[int, int, int, int, int]:
        child = self.master.child(i)
        tree = trees.sample_uniform(n, child)
        order = child.generator.permutation(np.arange(1, n)).tolist()
        out = greedy.greedy_peeling(tree)
        m = greedy.greedy_matching(tree, order)
        mis = greedy.max_independent_set(tree)
        return out.size, out.steps, out.root_last, m, mis

    def warm_up(self) -> None:
        self._op(0, 100)

    def round(self, checks, tracer, clock=perf_counter):
        n = self.n
        times = []
        outputs = []
        for i in range(self.replicates):
            tracer.begin_op("tree")
            t0 = clock()
            out = self._op(i, n)
            times.append(clock() - t0)
            outputs.append(out)
            self.check_tree(checks, i, out)
        for stat, target, col in self.DENSITIES:
            mean = sum(o[col] for o in outputs) / (n * len(outputs))
            checks.band(f"mean {stat} density", mean,
                        ck.density_band(target, n, len(outputs)))
        return times, outputs

    #: (statistic, limit density, column of the op output)
    DENSITIES = (("greedy", 0.5, 0), ("matching", 0.375, 3),
                 ("max-IS", ck.MAX_IS_LIMIT, 4))

    def check_tree(self, checks, i: int, out) -> None:
        """Exact relations plus per-tree bands for one replicate.

        The greedy set is independent, so G <= maxIS.  On a tree the maximum
        matching has n - maxIS edges (Koenig), and a maximal matching has at
        least half as many, so (n - maxIS)/2 <= M <= n - maxIS.
        """
        n = self.n
        g, steps, e, m, mis = out
        nu = n - mis
        checks.check(f"tree {i}: G <= maxIS", g <= mis, f"G={g} maxIS={mis}")
        checks.check(f"tree {i}: nu/2 <= M <= nu", nu <= 2 * m and m <= nu,
                     f"M={m} nu={nu}")
        checks.check(f"tree {i}: G <= theta <= n", g <= steps <= n and e in (0, 1),
                     f"G={g} theta={steps} E={e}")
        for stat, target, col in self.DENSITIES:
            checks.band(f"tree {i}: {stat} density", out[col] / n,
                        ck.density_band(target, n, 1))


class ChainCLT(Workload):
    """The tree-free status chain in two shapes (criteria 2-4, 9): a wide
    block costs per lane, a narrow block costs per step."""

    name = "chain_clt"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        self.wide = (200, 300) if tiny else (500, 10_000)
        self.narrow = (500, 100) if tiny else (2000, 1_000)
        self.narrow_rng = trees.RandomSource(seed + 1)
        self.bands = ck.clt_bands(*self.wide)

    def warm_up(self) -> None:
        stats.clt_experiment(100, 100, seed=self.seed)
        greedy.simulate_status_chain_many(100, 100, self.narrow_rng)

    def round(self, checks, tracer, clock=perf_counter):
        tracer.begin_op("chain.wide")
        t0 = clock()
        reports = stats.clt_experiment(*self.wide, seed=self.seed)
        times = [clock() - t0]
        tracer.begin_op("chain.narrow")
        t0 = clock()
        n, r = self.narrow
        sizes, steps, last = greedy.simulate_status_chain_many(n, r, self.narrow_rng)
        times.append(clock() - t0)
        self.check(checks, reports, (sizes, steps, last))
        fingerprint = ([rep.observed for rep in reports],
                       sizes.tobytes(), steps.tobytes(), last.tobytes())
        return times, fingerprint

    def check(self, checks, reports, narrow) -> None:
        checks.equal("clt report statistics", sorted(r.statistic for r in reports),
                     sorted(self.bands))
        for rep in reports:
            if rep.statistic in self.bands:
                checks.band(f"wide {rep.statistic}", rep.observed,
                            self.bands[rep.statistic])
        n, r = self.narrow
        sizes, steps, last = narrow
        checks.check("narrow: 1 <= G <= theta, n/2 <= theta <= n, E in {0,1}",
                     bool(((sizes >= 1) & (sizes <= steps) & (2 * steps >= n)
                           & (steps <= n) & ((last == 0) | (last == 1))).all()))
        checks.band("narrow mean G/n", float(sizes.mean()) / n,
                    ck.chain_mean_band("size", n, r))
        checks.band("narrow mean theta/n", float(steps.mean()) / n,
                    ck.chain_mean_band("steps", n, r))


class ExactLaws(Workload):
    """Exact integer DP up to the n = 60 cap (criterion 1): big-integer
    arithmetic, plus 16807 tiny decodes and peelings; no RNG."""

    name = "exact_laws"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        self.enum_n = 7

    def warm_up(self) -> None:
        law = greedy.exact_chain_law(8)
        greedy.law_to_json_dict(law)
        greedy.total_variation_exact(law.size_law(), law.complement_law())
        greedy.enumeration_law(5)
        fluid.covariance_matrix()
        fluid.discrete_step_covariance()

    def round(self, checks, tracer, clock=perf_counter):
        times = []
        fingerprint = []
        for n in self.ladder:
            tracer.begin_op(f"law.n{n}")
            t0 = clock()
            law = greedy.exact_chain_law(n)
            payload = greedy.law_to_json_dict(law)
            tv = greedy.total_variation_exact(law.size_law(), law.complement_law())
            times.append(clock() - t0)
            checks.digest(f"exact law JSON n={n}", payload, f"exact_law.n{n}")
            checks.equal(f"symmetry TV n={n}", tv, 0)
            fingerprint.append(ck.digest(payload))
        tracer.begin_op(ENUM_LABEL)
        t0 = clock()
        enum = greedy.enumeration_law(self.enum_n)
        dp = greedy.exact_chain_law(self.enum_n)
        times.append(clock() - t0)
        checks.check(f"enumeration law == DP law at n={self.enum_n}",
                     enum.joint == dp.joint)
        checks.digest(f"enumeration law n={self.enum_n}",
                      ck.joint_law_payload(enum.joint), f"enumeration_law.n{self.enum_n}")
        tracer.begin_op("fluid")
        t0 = clock()
        cov = fluid.covariance_matrix()
        disc = fluid.discrete_step_covariance()
        times.append(clock() - t0)
        checks.band("fluid covariance entrywise error",
                    float(np.abs(cov - COVARIANCE_CLOSED_FORM).max()), (0.0, 1e-8))
        checks.band("discrete stopping-step variance error",
                    abs(float(disc[0, 0]) - ck.STEPS_VARIANCE_LIMIT), (0.0, 1e-10))
        fingerprint += [cov.tobytes(), disc.tobytes()]
        return times, fingerprint

    def peak_memory_mb(self) -> float:
        """tracemalloc peak of the largest exact law; slow, traced pass only."""
        tracemalloc.start()
        try:
            greedy.exact_chain_law(max(self.ladder))
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()


COVARIANCE_CLOSED_FORM = np.array([
    [3 / 4, -3 / 8, -3 / 8],
    [-3 / 8, 1 / 4, 1 / 8],
    [-3 / 8, 1 / 8, 1 / 4],
])


class MarkovPeel(Workload):
    """Many tiny tree-free explorations (criteria 7-8): child streams and
    scalar draws do most of the work."""

    name = "markov_peel"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        self.explorations = 100 if tiny else 500
        self.branch_n = 10
        self.branch_samples = 200 if tiny else 800
        self.greedy_n = 1000 if tiny else 10_000
        self.masters = {
            "unif": trees.RandomSource(seed * 8 + 1),
            "ab": trees.RandomSource(seed * 8 + 2),
            "branch": trees.RandomSource(seed * 8 + 3),
            "greedy": trees.RandomSource(seed * 8 + 4),
        }
        self.all_trees = [t.parents for t in trees.enumerate_all(4)]
        self.branch_law = peeling.first_branch_law(self.branch_n)

    def _explore(self, rule_name: str, i: int):
        child = self.masters[rule_name].child(i)
        rule = (peeling.UniformRule(child.child(1)) if rule_name == "unif"
                else peeling.SmallestLabelRule())
        return peeling.peel_markov(4, rule, child.child(0))

    def warm_up(self) -> None:
        for rule_name in ("unif", "ab"):
            self._explore(rule_name, 0)
        peeling.first_branch_length(self.branch_n, self.masters["branch"].child(0))
        greedy.greedy_markov_peeling(100, self.masters["greedy"].child(0))
        stats.chi_square_uniform([5] * 16)

    def round(self, checks, tracer, clock=perf_counter):
        times = []
        fingerprint = []
        for rule_name in ("unif", "ab"):
            counts = Counter()
            three_edges = 0
            for i in range(self.explorations):
                tracer.begin_op(f"peel.{rule_name}")
                t0 = clock()
                steps, tree = self._explore(rule_name, i)
                times.append(clock() - t0)
                counts[tree.parents] += 1
                three_edges += len(steps) == 3
            checks.equal(f"peel_markov {rule_name}: explorations with 3 edges",
                         three_edges, self.explorations)
            checks.equal(f"peel_markov {rule_name}: trees seen", len(counts), 16)
            _, p = stats.chi_square_uniform([counts[t] for t in self.all_trees])
            checks.band(f"peel_markov {rule_name}: chi-square p-value", p,
                        (ck.CHI_SQUARE_P_MIN, 1.0))
            fingerprint.append(sorted(counts.items()))
        lengths = []
        for i in range(self.branch_samples):
            tracer.begin_op("branch")
            lengths.append(peeling.first_branch_length(
                self.branch_n, self.masters["branch"].child(i)))
        tv = stats.EmpiricalDistribution.from_samples(lengths).tv_to(self.branch_law)
        checks.band("first-branch TV to exact law", tv,
                    (0.0, ck.first_branch_tv_bound(self.branch_samples)))
        fingerprint.append(lengths)
        n = self.greedy_n
        tracer.begin_op("greedy_markov")
        steps, out = greedy.greedy_markov_peeling(n, self.masters["greedy"].child(0))
        checks.equal("greedy markov: one edge per non-root inspection",
                     len(steps), out.steps - out.root_last)
        checks.band("greedy markov: G/n", out.size / n, ck.chain_mean_band("size", n, 1))
        checks.band("greedy markov: theta/n", out.steps / n,
                    ck.chain_mean_band("steps", n, 1))
        fingerprint.append((out.size, out.steps, out.root_last))
        return times, fingerprint


WORKLOADS = {w.name: w for w in (TreeSweep, ChainCLT, ExactLaws, MarkovPeel)}
