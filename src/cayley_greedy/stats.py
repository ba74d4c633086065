"""Statistical verification harness: distances, tests, experiment drivers.

Every driver is reproducible bit-for-bit from (seed, n, replicates): each
replicate or fixed-size replicate block derives its own child stream from
the master seed, and aggregation is order-independent, so worker count
never changes a result.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import fluid, greedy
from .trees import RandomSource, _size, sample_uniform

DEFAULT_SEED = 0x5EED

#: replicate count at which :func:`clt_experiment`'s bands have their base
#: half-widths; fewer replicates widen them by sqrt(CLT_BAND_REPLICATES / r)
CLT_BAND_REPLICATES = 10_000


@dataclass
class EmpiricalDistribution:
    """Integer-valued sample counts."""

    counts: Counter
    total: int

    @classmethod
    def from_samples(cls, samples: Iterable[int]) -> "EmpiricalDistribution":
        counts = Counter(int(s) for s in samples)
        return cls(counts=counts, total=sum(counts.values()))

    def as_probs(self) -> dict[int, float]:
        return {k: v / self.total for k, v in self.counts.items()}

    def tv_to(self, law: Mapping[int, float | Fraction]) -> float:
        """Total variation distance, in floats, to a reference law on the same lattice."""
        return greedy.total_variation_exact(
            self.as_probs(), {k: float(v) for k, v in law.items()})


def chi_square_uniform(counts: Sequence[int]) -> tuple[float, float]:
    """Chi-square statistic and p-value against the uniform law on k categories.

    Requires k >= 2 and expected count >= 5 per category; the p-value is the
    upper tail of the chi-square law with k - 1 degrees of freedom,
    ``scipy.special.chdtrc(k - 1, stat)``: the ufunc that
    ``scipy.stats.chi2.sf`` evaluates, so the same float, without loading
    ``scipy.stats``.
    """
    k = len(counts)
    if k < 2:
        raise ValueError("need at least two categories")
    n = int(sum(counts))
    expected = n / k
    if expected < 5:
        raise ValueError(f"expected count {expected:.2f} per category is below 5")
    stat = sum((c - expected) ** 2 for c in counts) / expected
    from scipy.special import chdtrc  # here, not at module level: CLI start-up

    return stat, float(chdtrc(k - 1, stat))


def gaussian_lattice_distance(
    law: Mapping[int, float | Fraction], mean: float, variance: float
) -> float:
    """Kolmogorov distance from an integer law to the lattice Gaussian.

    The largest gap, over every integer k from one below the smallest value
    of ``law`` to its largest value, between the law's CDF at k and the continuity-
    corrected Gaussian CDF Phi((k + 1/2 - mean)/sqrt(variance)).
    """
    lo = min(law)
    probs = np.zeros(max(law) - lo + 1)
    for k, p in law.items():
        probs[k - lo] = float(p)
    return _lattice_gap(lo, probs, mean, variance)


def _lattice_gap(lo: int, probs: np.ndarray, mean: float, variance: float) -> float:
    """max |cumsum(probs) - Phi((k + 1/2 - mean)/sd)| over k = lo - 1, lo, ...

    ``probs[i]`` is the mass at ``lo + i``, and the last entry is the
    largest value.  Beyond the support the gap is monotone: below it the
    CDF is 0 and the gap Phi(...) grows with k, so its largest value is at
    k = lo - 1; above it the CDF is 1 and the gap falls with k, so its
    largest value is at the largest value.  Both ends are compared.
    """
    from scipy.special import ndtr  # here, not at module level: CLI start-up

    k = np.arange(lo - 1, lo + probs.size)
    cdf = np.concatenate(([0.0], np.cumsum(probs)))
    model = ndtr((k + 0.5 - mean) / math.sqrt(variance))
    return float(np.abs(cdf - model).max())


def ks_gaussian(
    samples: np.ndarray, mean: float, variance: float
) -> tuple[float, float]:
    """Kolmogorov-Smirnov statistic and p-value of integer samples against
    the continuity-corrected N(mean, variance).

    Lattice contract: the samples are integers, and the statistic D is the
    :func:`gaussian_lattice_distance` of their empirical law, so the
    empirical CDF is compared with Phi((k + 1/2 - mean)/sqrt(variance)) at
    every integer k from one below the smallest sample to the largest, which
    covers the sup over all integers.  The p-value is
    ``scipy.stats.kstwo.sf(D, len(samples))``.  A continuous Gaussian CDF
    compared with a lattice sample sees a gap of about half a lattice step
    times the peak density, which rejects a correct law once the sample
    is large.

    This is the one library path that loads ``scipy.stats`` (about 0.8 s
    and 45 MB more than ``scipy.special``): the finite-n KS law ``kstwo`` is
    Python code inside ``scipy.stats`` with no ``scipy.special`` counterpart.
    """
    values = np.asarray(samples)
    if not np.issubdtype(values.dtype, np.integer):
        raise ValueError("ks_gaussian needs integer samples")
    import scipy.stats

    lo = int(values.min())
    probs = np.bincount(values - lo) / values.size
    stat = _lattice_gap(lo, probs, mean, variance)
    return stat, float(scipy.stats.kstwo.sf(stat, values.size))


@dataclass
class ExperimentReport:
    """One verified statistic; passes iff observed lies in [lower, upper].

    When only target/tolerance are given the band is target +/- tolerance.
    """

    n: int
    replicates: int
    seed: int
    statistic: str
    observed: float
    target: float
    tolerance: float
    lower: float = field(default=math.nan)
    upper: float = field(default=math.nan)
    passed: bool = field(init=False)

    def __post_init__(self) -> None:
        if math.isnan(self.lower):
            self.lower = self.target - self.tolerance
        if math.isnan(self.upper):
            self.upper = self.target + self.tolerance
        self.passed = self.lower <= self.observed <= self.upper


# --------------------------------------------------------------------------
# Experiment drivers
# --------------------------------------------------------------------------

def clt_experiment(
    n: int, replicates: int, seed: int = DEFAULT_SEED
) -> list[ExperimentReport]:
    """Gaussian-limit checks on the fast status-chain path.

    Reports, in order: sample variance of sqrt(n) (G/n - 1/2) against 1/16;
    KS p-value of G against the continuity-corrected N(n/2 + 1/8, n/16),
    the same limit on G's integer lattice (:func:`ks_gaussian`); sample
    variance of sqrt(n) (theta/n - ln 2) against 3/4 - ln 2, within 10% of
    it; fraction of runs where the root was the last undetermined vertex
    against 1/4.

    The three bands around a target have half-widths 0.0075, 10% of the
    limit and 0.02 at 10^4 replicates or more.  Below that, each half-width
    grows by sqrt(10^4 / replicates), as the sampling error does, so a
    smaller run of a correct chain passes as often as a full one; the KS
    band p > 0.01 is already calibrated for any sample size.

    The stopping-step target is not the continuous-time value 3/4
    (``fluid.covariance_matrix()[0, 0]``): the chain takes one transition
    per step, and the squared drift that this keeps in the step covariance
    lowers the limit to 3/4 - ln 2, the target read from
    ``fluid.stopping_step_variance``.
    """
    n, replicates = _size(n, 100), _size(replicates, 100, "replicates")
    rng = RandomSource(seed)
    sizes, steps, root_last = greedy.simulate_status_chain_many(n, replicates, rng)
    sqrt_n = math.sqrt(n)
    z_size = sqrt_n * (sizes / n - 0.5)
    z_steps = sqrt_n * (steps / n - math.log(2.0))
    # E[G] = (n + P(E))/2 and P(E) tends to 1/4
    _, ks_p = ks_gaussian(sizes, n / 2 + 1 / 8, n / 16)
    # exactly 1.0 from CLT_BAND_REPLICATES up, which leaves those bands unchanged
    widen = math.sqrt(max(1.0, CLT_BAND_REPLICATES / replicates))
    steps_limit = fluid.stopping_step_variance()
    return [
        ExperimentReport(
            n=n, replicates=replicates, seed=seed, statistic="size_variance",
            observed=float(z_size.var(ddof=1)), target=1 / 16,
            tolerance=0.0075 * widen,
        ),
        ExperimentReport(
            n=n, replicates=replicates, seed=seed, statistic="size_ks_pvalue",
            observed=ks_p, target=1.0, tolerance=1.0, lower=1e-2, upper=1.0,
        ),
        ExperimentReport(
            n=n, replicates=replicates, seed=seed, statistic="steps_variance",
            observed=float(z_steps.var(ddof=1)), target=steps_limit,
            tolerance=0.1 * steps_limit * widen,
        ),
        ExperimentReport(
            n=n, replicates=replicates, seed=seed, statistic="root_last_fraction",
            observed=float(root_last.mean()), target=0.25, tolerance=0.02 * widen,
        ),
    ]


#: bootstrap resamples behind symmetry_experiment_mc's TV threshold, and
#: the quantile of their TVs that the threshold is
BOOTSTRAP_ROUNDS = 200
BOOTSTRAP_QUANTILE = 0.99


def _bootstrap_tv_threshold(
    counts_a: Counter, counts_b: Counter, rng: RandomSource
) -> float:
    """99th-percentile TV between two resamples of the pooled empirical law."""
    support = sorted(set(counts_a) | set(counts_b))
    pooled = np.array([counts_a.get(k, 0) + counts_b.get(k, 0) for k in support],
                      dtype=np.float64)
    probs = pooled / pooled.sum()
    na = sum(counts_a.values())
    nb = sum(counts_b.values())
    gen = rng.generator
    tvs = np.empty(BOOTSTRAP_ROUNDS)
    for i in range(BOOTSTRAP_ROUNDS):
        xa = gen.multinomial(na, probs) / na
        xb = gen.multinomial(nb, probs) / nb
        tvs[i] = 0.5 * np.abs(xa - xb).sum()
    return float(np.quantile(tvs, BOOTSTRAP_QUANTILE))


def symmetry_experiment_mc(
    n: int,
    replicates: int,
    seed: int = DEFAULT_SEED,
) -> ExperimentReport:
    """Two-sample check that law(G) matches law((n - G) + E).

    Draws two independent replicate sets, from child streams 1 and 2,
    compares the empirical law of the set size from one against the
    empirical law of complement-plus-indicator from the other, and
    calibrates the TV threshold by bootstrap resampling of the pooled
    sample, from child stream 3.
    """
    n, replicates = _size(n), _size(replicates, name="replicates")
    rng = RandomSource(seed)
    sizes_a, _, _ = greedy.simulate_status_chain_many(n, replicates, rng.child(1))
    sizes_b, _, last_b = greedy.simulate_status_chain_many(n, replicates, rng.child(2))
    counts_a = Counter(sizes_a.tolist())
    counts_b = Counter(((n - sizes_b) + last_b).tolist())
    dist_a = EmpiricalDistribution(counts_a, replicates)
    tv = dist_a.tv_to(EmpiricalDistribution(counts_b, replicates).as_probs())
    threshold = _bootstrap_tv_threshold(counts_a, counts_b, rng.child(3))
    return ExperimentReport(
        n=n, replicates=replicates, seed=seed, statistic="symmetry_tv",
        observed=tv, target=0.0, tolerance=threshold, lower=0.0, upper=threshold,
    )


def _ratio_values(kind: str, n: int, seed: int, start: int, stop: int) -> list[float]:
    """Per-replicate normalized statistics; replicate i uses child stream i."""
    master = RandomSource(seed)
    values = []
    for i in range(start, stop):
        child = master.child(i)
        if kind == "matching":
            tree = sample_uniform(n, child)
            order = child.generator.permutation(np.arange(1, n))
            value = greedy.greedy_matching(tree, order)
        else:  # max-is; tree_sweep_experiment rejects any other kind
            value = greedy.max_independent_set(sample_uniform(n, child))
        values.append(value / n)
    return values


def sweep_workers(jobs: int, replicates: int, cpus: int | None) -> int:
    """Worker processes for a sweep: no more than the replicates or the CPUs."""
    return max(1, min(jobs, replicates, cpus or 1))


def tree_sweep_experiment(
    kind: str,
    n: int,
    replicates: int,
    seed: int = DEFAULT_SEED,
    jobs: int = 1,
) -> ExperimentReport:
    """Mean of a per-tree statistic over uniformly sampled trees.

    ``kind`` is one of ``matching`` (greedy matching density, limit 3/8)
    or ``max-is`` (maximum independent set density, limit ~0.5671 solving
    x e^x = 1), the CLI commands of the same names.  Replicate i samples
    its tree from child stream i.
    """
    targets = {
        "matching": (0.375, 0.005),
        "max-is": (0.5671, 0.005),
    }
    if kind not in targets:
        raise ValueError(f"unknown sweep kind {kind!r}")
    n, replicates = _size(n), _size(replicates, name="replicates")
    # the seed too, before a worker starts
    jobs, seed = _size(jobs, name="jobs"), _size(seed, 0, "seed")
    # the CPUs this process may run on (taskset, cpusets), not the machine's
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count()
    workers = sweep_workers(jobs, replicates, cpus)
    if workers == 1:
        values = _ratio_values(kind, n, seed, 0, replicates)
    else:
        import multiprocessing  # here, not at module level: CLI start-up
        from concurrent.futures import ProcessPoolExecutor

        bounds = np.linspace(0, replicates, workers + 1, dtype=int)
        # spawn, not fork: the parent already runs a BLAS thread
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
            chunks = pool.map(
                _ratio_values,
                [kind] * workers, [n] * workers, [seed] * workers,
                bounds[:-1].tolist(), bounds[1:].tolist(),
            )
        values = [v for chunk in chunks for v in chunk]
    target, tol = targets[kind]
    return ExperimentReport(
        n=n, replicates=replicates, seed=seed, statistic=f"{kind}_density",
        observed=float(np.mean(values)), target=target, tolerance=tol,
    )

