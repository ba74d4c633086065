"""Statistics layer: distances, tests, experiment drivers."""

import json
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from cayley_greedy import greedy, stats
from cayley_greedy import (
    EmpiricalDistribution,
    ExperimentReport,
    RandomSource,
    chi_square_uniform,
    clt_experiment,
    exact_chain_law,
    ks_gaussian,
    sample_uniform,
    simulate_status_chain_many,
    symmetry_experiment_mc,
    tree_sweep_experiment,
)
from cayley_greedy.cli import _emit_reports, main
from cayley_greedy.stats import (
    _bootstrap_tv_threshold,
    gaussian_lattice_distance,
    sweep_workers,
)
from oracles import total_variation


# ---------------------------------------------------------------------------
# Distances and tests
# ---------------------------------------------------------------------------

def test_total_variation_basics():
    p = {1: 0.5, 2: 0.5}
    assert total_variation(p, p) == 0
    assert total_variation({1: 1.0}, {2: 1.0}) == 1
    # Fractions stay exact; a Fraction against a float law gives a float
    half = {1: Fraction(1, 2), 2: Fraction(1, 2)}
    tv = total_variation(half, {1: Fraction(1, 3), 2: Fraction(2, 3)})
    assert type(tv) is Fraction and tv == Fraction(1, 6)
    assert total_variation(half, {1: 0.25, 3: 0.75}) == 0.75
    # an empty law has mass 0, not 1
    with pytest.raises(ValueError):
        total_variation({}, {})


def test_total_variation_rejects_unnormalized():
    with pytest.raises(ValueError):
        total_variation({1: 0.7}, {1: 1.0})
    with pytest.raises(ValueError):
        total_variation({1: 1.0}, {1: 0.5, 2: 0.6})


def test_total_variation_symmetry_law_n3():
    law = exact_chain_law(3)
    assert total_variation(law.size_law(), law.complement_law()) == 0


def test_total_variation_symmetric_and_triangle():
    rng = RandomSource(13)
    for i in range(10):
        gen = rng.child(i).generator
        dists = []
        for _ in range(3):
            raw = gen.random(4)
            raw /= raw.sum()
            dists.append({k: float(v) for k, v in enumerate(raw)})
        p, q, r = dists
        assert abs(total_variation(p, q) - total_variation(q, p)) < 1e-12
        assert total_variation(p, r) <= total_variation(p, q) + total_variation(q, r) + 1e-12


def test_chi_square_perfectly_uniform():
    stat, p = chi_square_uniform([50, 50, 50, 50])
    assert stat == 0
    assert p == 1


def test_chi_square_extreme():
    stat, p = chi_square_uniform([100, 0])
    assert stat == 100
    assert p < 1e-20


def test_chi_square_input_validation():
    with pytest.raises(ValueError):
        chi_square_uniform([100])
    with pytest.raises(ValueError):
        chi_square_uniform([4, 4])  # expected count below 5


def test_chi_square_monotone_in_statistic():
    # p-value decreases as the counts get more lopsided
    previous = 1.0
    for skew in range(0, 40, 10):
        _, p = chi_square_uniform([100 + skew, 100 - skew])
        assert p <= previous + 1e-12
        previous = p


@pytest.mark.parametrize("k", [2, 16, 343, 16807])
def test_chi_square_pvalue_equals_scipy_stats(k):
    # the p-value comes from scipy.special.chdtrc; scipy.stats.chi2.sf is
    # its oracle and must give the same float
    import scipy.stats

    gen = np.random.default_rng(k)
    vectors = [[5] * k, [5 + (i % 3) for i in range(k)],
               [100] + [5] * (k - 1), (5 + gen.poisson(6, size=k)).tolist()]
    for counts in vectors:
        stat, p = chi_square_uniform(counts)
        assert p == float(scipy.stats.chi2.sf(stat, k - 1))


def test_chi_square_loads_scipy_special_only():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from cayley_greedy.stats import chi_square_uniform; "
         "chi_square_uniform([5] * 16); "
         "print([m for m in ('scipy.special', 'scipy.stats') if m in sys.modules])"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.stdout.strip() == "['scipy.special']"


def test_ks_gaussian_sane():
    gen = RandomSource(55).generator
    good = np.rint(gen.normal(100.0, 5.0, size=4000)).astype(np.int64)
    _, p_good = ks_gaussian(good, 100.0, 25.0)
    assert p_good > 1e-2
    _, p_bad = ks_gaussian(good + 2, 100.0, 25.0)
    assert p_bad < 1e-6
    with pytest.raises(ValueError, match="integer"):
        ks_gaussian(good / 2, 50.0, 25.0 / 4)


def test_ks_gaussian_compares_at_every_integer_in_range():
    # a law on {0, 2}: the largest gap is at k = 1, where no sample lies;
    # there the model CDF is Phi(0) = 1/2 and the empirical CDF is 1/10
    samples = np.array([0] * 10 + [2] * 90)
    stat, _ = ks_gaussian(samples, 1.5, 0.25)
    assert stat == pytest.approx(0.4, abs=1e-12)
    law = {0: Fraction(1, 10), 2: Fraction(9, 10)}
    assert gaussian_lattice_distance(law, 1.5, 0.25) == pytest.approx(stat, abs=1e-15)
    # a point mass 9 sd above the mean: at k = 300 both CDFs are about 1,
    # and the whole gap, Phi((299.5 - mean)/sd) ~ 1, is at k = 299, one
    # below the smallest sample, where the empirical CDF is 0
    stat, _ = ks_gaussian(np.full(10_000, 300), 250.125, 31.25)
    assert stat == pytest.approx(1.0, abs=1e-12)
    assert gaussian_lattice_distance({300: Fraction(1)}, 250.125, 31.25) == stat


@pytest.fixture(scope="module")
def chain_sizes_500():
    """G from 10^4 status-chain runs at n = 500, as in the CLI example."""
    sizes, _, _ = simulate_status_chain_many(500, 10_000, RandomSource(42))
    return sizes


def test_ks_gaussian_accepts_the_chain(chain_sizes_500):
    n = 500
    _, p = ks_gaussian(chain_sizes_500, n / 2 + 1 / 8, n / 16)
    assert p > 1e-2


@pytest.mark.parametrize(
    "alternative", ["shift", "binomial", "wide", "point_mass", "truncated"]
)
def test_ks_gaussian_rejects_wrong_laws(chain_sizes_500, alternative):
    # the lattice test keeps its power: a shift by one vertex, the
    # Binomial(n, 1/2) of independent coin flips, a variance 1.2 times too
    # large, a point mass well above the mean, and the chain's sample cut
    # off below the mean are each rejected at the clt band p > 0.01, with
    # room; the last two have no mass in the lower tail at all
    n, replicates = 500, 10_000
    mean, variance = n / 2 + 1 / 8, n / 16
    gen = RandomSource(7).generator
    samples = {
        "shift": lambda: chain_sizes_500 + 1,
        "binomial": lambda: gen.binomial(n, 0.5, replicates),
        "wide": lambda: np.rint(
            gen.normal(mean, math.sqrt(1.2 * variance), replicates)
        ).astype(np.int64),
        "point_mass": lambda: np.full(replicates, 270),
        "truncated": lambda: chain_sizes_500[chain_sizes_500 > mean],
    }[alternative]()
    _, p = ks_gaussian(samples, mean, variance)
    assert p < 1e-4


def test_empirical_distribution():
    emp = EmpiricalDistribution.from_samples([1, 1, 2, 3])
    assert emp.total == 4
    assert emp.as_probs() == {1: 0.5, 2: 0.25, 3: 0.25}
    assert emp.tv_to({1: Fraction(1, 2), 2: Fraction(1, 4), 3: Fraction(1, 4)}) == 0


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def test_report_pass_band():
    r = ExperimentReport(n=10, replicates=5, seed=1, statistic="x",
                         observed=0.51, target=0.5, tolerance=0.02)
    assert r.passed and r.lower == 0.48 and r.upper == 0.52
    r2 = ExperimentReport(n=10, replicates=5, seed=1, statistic="x",
                          observed=0.55, target=0.5, tolerance=0.02)
    assert not r2.passed


def test_report_passed_is_not_an_argument():
    # the band decides it; a value passed in used to be silently overwritten
    with pytest.raises(TypeError):
        ExperimentReport(n=10, replicates=5, seed=1, statistic="x",
                         observed=0.9, target=0.5, tolerance=0.02, passed=True)


def test_report_explicit_band():
    r = ExperimentReport(n=10, replicates=5, seed=1, statistic="p",
                         observed=0.05, target=1.0, tolerance=1.0,
                         lower=0.01, upper=1.0)
    assert r.passed


def test_report_serialization(tmp_path, capsys):
    reports = [
        ExperimentReport(n=3, replicates=10, seed=7, statistic="a",
                         observed=1.0, target=1.0, tolerance=0.1),
    ]
    assert _emit_reports(reports, None) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["statistic"] == "a" and row["passed"] is True
    # one schema: the JSON keys and the CSV columns are the dataclass's
    # fields, the columns in the order of their declaration
    fields = ["n", "replicates", "seed", "statistic", "observed", "target",
              "tolerance", "lower", "upper", "passed"]
    assert list(row) == sorted(fields)
    assert _emit_reports(reports, None, "csv") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [",".join(fields), "3,10,7,a,1.0,1.0,0.1,0.9,1.1,True"]
    # --out writes the bytes the command prints, in both formats
    argv = ["clt", "--n", "100", "--replicates", "100", "--seed", "3"]
    for fmt in ("csv", "json"):
        path = tmp_path / f"r.{fmt}"
        main(argv + ["--format", fmt, "--out", str(path)])
        assert capsys.readouterr().out == ""
        main(argv + ["--format", fmt])
        assert path.read_bytes() == capsys.readouterr().out.encode()
        assert b"\r" not in path.read_bytes()


# ---------------------------------------------------------------------------
# Experiment drivers
# ---------------------------------------------------------------------------

def test_clt_experiment_shape_and_determinism():
    a = clt_experiment(200, 400, seed=5)
    b = clt_experiment(200, 400, seed=5)
    assert [r.statistic for r in a] == [
        "size_variance", "size_ks_pvalue", "steps_variance", "root_last_fraction",
    ]
    assert [r.observed for r in a] == [r.observed for r in b]
    assert all(r.seed == 5 for r in a)


def test_clt_experiment_input_validation():
    with pytest.raises(ValueError):
        clt_experiment(50, 1000)
    with pytest.raises(ValueError):
        clt_experiment(1000, 50)


def test_clt_experiment_moderate_run():
    reports = {r.statistic: r for r in clt_experiment(2000, 4000, seed=9)}
    # the size statistics concentrate well before the acceptance scale
    assert abs(reports["size_variance"].observed - 1 / 16) < 0.01
    assert abs(reports["root_last_fraction"].observed - 0.25) < 0.03
    # the rescaled stopping step concentrates near 3/4 - ln 2, far from 3/4
    assert abs(reports["steps_variance"].observed - (3 / 4 - math.log(2))) < 0.01
    steps = reports["steps_variance"]
    assert steps.passed
    assert steps.lower < 3 / 4 - math.log(2) < steps.upper < 3 / 4


def test_clt_experiment_observed_values_pinned():
    # captured from the chain kernel that ran one masked update per column;
    # pins the chain's random stream through the CLT driver
    reports = {r.statistic: r.observed for r in clt_experiment(500, 10_000, seed=42)}
    assert reports["size_variance"] == 0.06228855267526764
    assert reports["steps_variance"] == 0.05636679249924963
    assert reports["root_last_fraction"] == 0.2452
    # the lattice KS p-value also passes through scipy's KS distribution
    assert math.isclose(reports["size_ks_pvalue"], 0.8301079653582825, rel_tol=1e-6)


@pytest.mark.parametrize("seed", range(1, 11))
def test_clt_experiment_small_run_passes_a_correct_chain(seed):
    # bands fixed at the 10^4-replicate scale failed five of these ten seeds
    assert all(r.passed for r in clt_experiment(500, 1000, seed=seed))


@pytest.mark.parametrize("statistic, wrong, distort", [
    # every size deviation doubled: variance 4 * 1/16
    ("size_variance", 0.25, lambda g, t, e: (250 + 2 * (g - 250), t, e)),
    # a third of the runs root-last; 0.30 still lies in [0.187, 0.313]
    ("root_last_fraction", 0.33, lambda g, t, e: (g, t, np.arange(e.size) < 330)),
])
def test_clt_experiment_widened_bands_reject_a_wrong_chain(
    monkeypatch, statistic, wrong, distort
):
    chain = greedy.simulate_status_chain_many
    monkeypatch.setattr(greedy, "simulate_status_chain_many",
                        lambda n, r, rng: distort(*chain(n, r, rng)))
    report = {r.statistic: r for r in clt_experiment(500, 1000, seed=1)}[statistic]
    assert abs(report.observed - wrong) < 0.02
    assert not report.passed


def test_symmetry_experiment_mc_small_law():
    report = symmetry_experiment_mc(3, 50_000, seed=17)
    assert report.statistic == "symmetry_tv"
    assert report.passed, (report.observed, report.upper)


def test_symmetry_experiment_mc_n50():
    report = symmetry_experiment_mc(50, 200_000, seed=18)
    assert report.passed, (report.observed, report.upper)


def _two_sample_tv(n, replicates, seed, side_b):
    """TV between the set sizes of child stream 1 and ``side_b(n, sizes)``
    of child stream 2's, and the bootstrap threshold from child stream 3,
    as :func:`symmetry_experiment_mc` draws them."""
    rng = RandomSource(seed)
    a, _, _ = simulate_status_chain_many(n, replicates, rng.child(1))
    b, _, _ = simulate_status_chain_many(n, replicates, rng.child(2))
    counts_a = Counter(a.tolist())
    counts_b = Counter(side_b(n, b).tolist())
    emp_a = EmpiricalDistribution(counts_a, replicates)
    tv = emp_a.tv_to(EmpiricalDistribution(counts_b, replicates).as_probs())
    return tv, _bootstrap_tv_threshold(counts_a, counts_b, rng.child(3))


def test_symmetry_experiment_control():
    # the null behaviour of the test itself: both sides are set sizes
    tv, threshold = _two_sample_tv(40, 50_000, 19, lambda n, b: b)
    assert tv <= threshold


def test_symmetry_experiment_detects_asymmetry():
    # sanity: a deliberately broken comparison (complement without the
    # indicator correction) must exceed the bootstrap threshold at scale
    tv, threshold = _two_sample_tv(9, 200_000, 20, lambda n, b: n - b)
    assert tv > threshold


def test_tree_sweep_matching_loose():
    report = tree_sweep_experiment("matching", 500, 60, seed=23)
    assert report.statistic == "matching_density"
    assert abs(report.observed - 0.375) < 0.02


def test_tree_sweep_max_is_loose():
    report = tree_sweep_experiment("max-is", 500, 60, seed=24)
    assert abs(report.observed - 0.5671) < 0.02


def test_tree_sweep_greedy_tree_loose():
    master = RandomSource(25)
    densities = [greedy.greedy_peeling(sample_uniform(500, master.child(i))).size / 500
                 for i in range(60)]
    assert abs(float(np.mean(densities)) - 0.5) < 0.02


def test_tree_sweep_jobs_invariance(monkeypatch):
    # four CPUs in the affinity mask, so that jobs=3 runs the pool also on
    # a one-CPU machine
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    serial = tree_sweep_experiment("matching", 60, 24, seed=26, jobs=1)
    parallel = tree_sweep_experiment("matching", 60, 24, seed=26, jobs=3)
    assert serial.observed == parallel.observed


@pytest.mark.parametrize("affinity", [{0}, None])
def test_tree_sweep_counts_the_cpus_it_may_use(affinity, monkeypatch):
    # pinned to one CPU (taskset -c 0) of the four that os.cpu_count
    # counts, or with one CPU on a platform without affinity masks, jobs=3
    # runs serially: one call in this process, where a pool would pickle
    # the stand-in and fail
    calls = []

    def values(*args):
        calls.append(args)
        return [0.375] * (args[4] - args[3])

    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    else:
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
    monkeypatch.setattr(stats, "_ratio_values", values)
    tree_sweep_experiment("matching", 60, 24, seed=26, jobs=3)
    assert calls == [("matching", 60, 26, 0, 24)]


@pytest.mark.parametrize("jobs,replicates,cpus,expected", [
    (10**6, 3, 64, 3),        # never more workers than replicates
    (10**6, 10**6, 2, 2),     # nor more than the CPUs
    (3, 24, 8, 3),
    (4, 100, None, 1),        # CPU count unknown: run serially
    (1, 1, 8, 1),
])
def test_sweep_workers_clamp(jobs, replicates, cpus, expected):
    assert sweep_workers(jobs, replicates, cpus) == expected


def test_tree_sweep_unknown_kind():
    with pytest.raises(ValueError):
        tree_sweep_experiment("nope", 10, 10)


def test_tree_sweep_refuses_empty_runs():
    # no replicates once made a NaN report ("Mean of empty slice"), and no
    # jobs ran one worker
    with pytest.raises(ValueError, match="^replicates must be at least 1, got 0$"):
        tree_sweep_experiment("max-is", 10, 0)
    with pytest.raises(ValueError, match="^jobs must be at least 1, got 0$"):
        tree_sweep_experiment("max-is", 10, 10, jobs=0)
