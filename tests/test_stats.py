"""Statistics layer: distances, tests, experiment drivers."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from cayley_greedy import greedy
from cayley_greedy import (
    EmpiricalDistribution,
    ExperimentReport,
    RandomSource,
    chi_square_uniform,
    clt_experiment,
    exact_chain_law,
    ks_gaussian,
    simulate_status_chain_many,
    symmetry_experiment_mc,
    total_variation,
    tree_sweep_experiment,
)
from cayley_greedy.stats import (
    gaussian_lattice_distance,
    greedy_ratio_experiment,
    sweep_workers,
    write_reports_csv,
    write_reports_jsonl,
)


# ---------------------------------------------------------------------------
# Distances and tests
# ---------------------------------------------------------------------------

def test_total_variation_basics():
    p = {1: 0.5, 2: 0.5}
    assert total_variation(p, p) == 0
    assert total_variation({1: 1.0}, {2: 1.0}) == 1


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
    assert emp.prob(1) == 0.5
    assert emp.support() == [1, 2, 3]
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


def test_report_explicit_band():
    r = ExperimentReport(n=10, replicates=5, seed=1, statistic="p",
                         observed=0.05, target=1.0, tolerance=1.0,
                         lower=0.01, upper=1.0)
    assert r.passed


def test_report_serialization(tmp_path):
    reports = [
        ExperimentReport(n=3, replicates=10, seed=7, statistic="a",
                         observed=1.0, target=1.0, tolerance=0.1),
    ]
    jpath = tmp_path / "r.jsonl"
    cpath = tmp_path / "r.csv"
    write_reports_jsonl(reports, str(jpath))
    write_reports_csv(reports, str(cpath))
    row = json.loads(jpath.read_text().strip())
    assert row["statistic"] == "a" and row["passed"] is True
    lines = cpath.read_text().strip().splitlines()
    assert lines[0].startswith("n,replicates,seed,statistic")
    assert len(lines) == 2
    assert b"\r" not in cpath.read_bytes()  # LF line ends, as the CLI prints


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


def test_symmetry_experiment_control():
    report = symmetry_experiment_mc(40, 50_000, seed=19, control=True)
    assert report.statistic == "symmetry_tv_control"
    assert report.passed


def test_symmetry_experiment_detects_asymmetry():
    # sanity: a deliberately broken comparison (complement without the
    # indicator correction) must exceed the bootstrap threshold at scale
    from collections import Counter

    from cayley_greedy import simulate_status_chain_many
    from cayley_greedy.stats import _bootstrap_tv_threshold

    rng = RandomSource(20)
    n = 9
    a, _, _ = simulate_status_chain_many(n, 200_000, rng.child(1))
    b, _, _ = simulate_status_chain_many(n, 200_000, rng.child(2))
    counts_a = Counter(a.tolist())
    counts_b = Counter((n - b).tolist())  # indicator dropped on purpose
    emp_a = EmpiricalDistribution(counts_a, 200_000)
    tv = emp_a.tv_to(EmpiricalDistribution(counts_b, 200_000).as_probs())
    threshold = _bootstrap_tv_threshold(counts_a, counts_b, rng.child(3))
    assert tv > threshold


def test_tree_sweep_matching_loose():
    report = tree_sweep_experiment("matching", 500, 60, seed=23)
    assert report.statistic == "matching_density"
    assert abs(report.observed - 0.375) < 0.02


def test_tree_sweep_max_is_loose():
    report = tree_sweep_experiment("max-is", 500, 60, seed=24)
    assert abs(report.observed - 0.5671) < 0.02


def test_tree_sweep_greedy_tree_loose():
    report = tree_sweep_experiment("greedy-tree", 500, 60, seed=25)
    assert abs(report.observed - 0.5) < 0.02


def test_tree_sweep_jobs_invariance():
    serial = tree_sweep_experiment("matching", 60, 24, seed=26, jobs=1)
    parallel = tree_sweep_experiment("matching", 60, 24, seed=26, jobs=3)
    assert serial.observed == parallel.observed


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


def test_greedy_ratio_experiment():
    report = greedy_ratio_experiment(2000, 400, seed=27)
    assert abs(report.observed - 0.5) < 0.01
