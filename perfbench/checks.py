"""Output checks that feed the benchmark's failure count.

Monte Carlo outputs are checked against bands.  Where a workload uses the
sample size of an acceptance test, the test's band is reused; otherwise the
band is derived from the sample size as ``Z`` standard errors plus an
allowance for the finite-n bias.  Exact outputs are pinned by SHA-256 digest
of their canonical JSON form, because exact arithmetic must never change.
"""

from __future__ import annotations

import hashlib
import json
import math

#: standard errors per band; a two-sided normal tail of 6 sigma is ~2e-9,
#: so a correct program fails a band check about once per 10^8 checks
Z = 6.0

#: per-tree standard deviation of G/n, M/n and maxIS/n, times sqrt(n); the
#: measured values at n = 10^4 are 0.24, 0.16 and 0.14, and the chain
#: theory gives 1/4 for G/n, so 1/4 bounds all three
TREE_DENSITY_SD = 0.25

#: sqrt(n) * sd of theta/n: the stopping-step variance limit is 3/4 - ln 2
STEPS_SD = math.sqrt(0.75 - math.log(2.0))

#: allowance for finite-n bias of a mean density, in units of 1/n; the exact
#: law gives E[G]/n - 1/2 = 0.125/n and E[theta]/n - ln 2 = -0.125/n at n = 60
BIAS_PER_N = 1.0

MAX_IS_LIMIT = 0.5671432904097838  # the solution of x e^x = 1
STEPS_VARIANCE_LIMIT = 0.75 - math.log(2.0)


class Checks:
    """Counts attempted and failed checks and keeps the failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 50:
                self.messages.append(f"{name}: {detail}")
        return ok

    def band(self, name: str, value: float, band: tuple[float, float]) -> bool:
        lo, hi = band
        return self.check(name, lo <= value <= hi,
                          f"{value!r} outside [{lo!r}, {hi!r}]")

    def equal(self, name: str, got, want) -> bool:
        return self.check(name, got == want, f"{got!r} != {want!r}")

    def digest(self, name: str, payload, key: str) -> bool:
        got = digest(payload)
        want = PINNED_DIGESTS.get(key)
        return self.check(name, got == want, f"digest {got} != pinned {want}")


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def joint_law_payload(joint) -> list:
    """Canonical form of a joint law {(size, steps, root_last): Fraction}."""
    return [[g, t, e, f"{p.numerator}/{p.denominator}"]
            for (g, t, e), p in sorted(joint.items())]


# --------------------------------------------------------------------------
# Bands
# --------------------------------------------------------------------------

def density_band(target: float, n: int, samples: int) -> tuple[float, float]:
    """Mean of ``samples`` per-tree densities at size n (derived)."""
    half = Z * TREE_DENSITY_SD / math.sqrt(n * samples) + BIAS_PER_N / n
    return target - half, target + half


def chain_mean_band(stat: str, n: int, replicates: int) -> tuple[float, float]:
    """Mean of G/n ("size") or theta/n ("steps") over chain replicates
    (derived)."""
    if stat == "size":
        target, sd = 0.5, math.sqrt(1 / 16)
    else:
        target, sd = math.log(2.0), STEPS_SD
    half = Z * sd / math.sqrt(n * replicates) + BIAS_PER_N / n
    return target - half, target + half


def clt_bands(n: int, replicates: int) -> dict[str, tuple[float, float]]:
    """Bands for the four reports of ``clt_experiment``.

    At 10^4 replicates, the sample size of criteria 3-4, the size variance
    reuses criterion 3's band [0.055, 0.070], the stopping-step variance the
    companion test's 3/4 - ln 2 +/- 0.005 (not criterion 4's unattainable
    band), and the root-last fraction clt_experiment's own 1/4 +/- 0.02.  Otherwise
    each band is Z standard errors of the estimator plus a finite-n bias
    allowance.  The KS p-value is checked against the distance that the
    lattice of sqrt(n)(G/n - 1/2) (spacing n^-1/2) plus the DKW bound at
    false-alarm rate 1e-6 allow; the acceptance test's p > 0.01 assumes a
    continuous sample and fails for some seeds.
    """
    import scipy.stats

    r = replicates
    if r == 10_000:
        bands = {
            "size_variance": (0.055, 0.070),
            "steps_variance": (STEPS_VARIANCE_LIMIT - 0.005,
                               STEPS_VARIANCE_LIMIT + 0.005),
            "root_last_fraction": (0.23, 0.27),
        }
    else:
        rel = Z * math.sqrt(2 / (r - 1))
        sv = STEPS_VARIANCE_LIMIT
        rl = Z * math.sqrt(0.25 * 0.75 / r)
        bands = {
            "size_variance": (1 / 16 * (1 - rel), 1 / 16 * (1 + rel)),
            "steps_variance": (sv * (1 - rel) - 0.04 / n, sv * (1 + rel)),
            "root_last_fraction": (0.25 - rl, 0.25 + rl + 0.07 / n),
        }
    peak_density = 1 / math.sqrt(2 * math.pi / 16)
    d_max = peak_density / math.sqrt(n) + math.sqrt(math.log(2 / 1e-6) / (2 * r))
    bands["size_ks_pvalue"] = (float(scipy.stats.kstwo.sf(d_max, r)), 1.0)
    return bands


def first_branch_tv_bound(samples: int) -> float:
    """Criterion 8's TV < 0.01 at 10^5 samples, scaled by 1/sqrt(samples)."""
    return 0.01 * math.sqrt(100_000 / samples)


#: chi-square uniformity p-value floor; criterion 7's 1e-3 would fail one
#: seed in a thousand, too often for a benchmark run on many seeds
CHI_SQUARE_P_MIN = 1e-6


# --------------------------------------------------------------------------
# Pinned digests of exact outputs, taken on the seed commit
# --------------------------------------------------------------------------

PINNED_DIGESTS = {
    "exact_law.n10": "6240c6b3314da8f15f212d4cef62752bc0f9a6d3286e0af6f6f7bdefe9c276aa",
    "exact_law.n20": "e128044e5738219e746cd849b856533c8f7e53516e43f7e0d439b5471d3fcca5",
    "exact_law.n40": "b82ee5605786ba4f720636785a9045916babe382902da819ecb1ef4b206c0f2c",
    "exact_law.n60": "a645cb4f7eb45ac79d7ac5e6abf6974a1dab98bb7026b97b30f864738532b57e",
    "enumeration_law.n7": "a92913c8a03e4dc63b17a5fca5e801b172611714fec3b5ab999e7651c0bc8cd6",
}
