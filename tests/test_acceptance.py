"""Acceptance gate: every released build must pass all checks in this file.

Each test slices one group of checks out of the verification suites and
fails with the full list of offending checks, so a regression points at
the exact state and tolerance that broke.
"""

import numpy as np
import pytest

from entbound import measures
from entbound.measures import det_distill_one_copy, e_w, log_negativity
from entbound.states import rho_alpha
from entbound.suites import SUITE_NAMES, run_suite

# SDP solves that every suite together makes (verify --suite all).  A change
# that alters the count updates it here and says why.
SUITE_SOLVES = 456


@pytest.fixture(scope="session")
def suite_run():
    """Every suite's results by name, and the SDP solves they made."""
    solves = []
    real = measures.solve

    def counted(problem, config=None):
        solves.append(problem.sense)
        return real(problem, config)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "solve", counted)
        results = {name: run_suite(name) for name in SUITE_NAMES}
    return results, len(solves)


@pytest.fixture(scope="session")
def suites(suite_run):
    return suite_run[0]


def report(results, *groups, expect_at_least=1):
    sel = [r for r in results if r.group in groups]
    assert len(sel) >= expect_at_least
    bad = [r for r in sel if not r.passed]
    msg = "\n".join(
        f"  {r.name}: measured {r.measured:.6e}, bound {r.bound:.6e} ({r.detail})"
        for r in bad
    )
    assert not bad, f"{len(bad)}/{len(sel)} checks failed:\n{msg}"


def test_ac01_paper_exact_values(suites):
    report(suites["paper-values"], "paper-exact-values", expect_at_least=3)
    rho = rho_alpha(0.5)
    assert abs(e_w(rho).value_log2 - 0.584963) <= 1e-5
    assert abs(log_negativity(rho).value_log2 - 0.736966) <= 1e-6
    assert abs(det_distill_one_copy(rho).value_log2 - 0.584963) <= 1e-5


def test_ac02_log_negativity_curve_and_upper_bound(suites):
    report(suites["paper-values"], "en-curve", "ew-curve-bound", expect_at_least=20)


def test_ac03_fidelity_checks(suites):
    report(
        suites["paper-values"],
        "fidelity-named", "fidelity-k1", "fidelity-monotone",
        expect_at_least=16,
    )


def test_ac04_antisymmetric_state(suites):
    report(suites["paper-values"], "antisym", expect_at_least=2)


def test_ac05_strong_duality(suites):
    report(suites["duality"], "duality", expect_at_least=50)


def test_ac06_additivity(suites):
    report(suites["additivity"], "additivity", expect_at_least=21)


def test_ac07_sandwich_and_faithfulness(suites):
    report(
        suites["sandwich"],
        "sandwich-chain", "separable-zero", "nppt-witness",
        expect_at_least=60,
    )


def test_ac08_monotonicity_sampling(suites):
    report(suites["monotonicity"], "monotonicity", expect_at_least=30)


def test_ac09_separation_curve(suites):
    sel = [r for r in suites["paper-values"] if r.group == "fig1-separation"]
    assert len(sel) == 19
    report(suites["paper-values"], "fig1-separation", expect_at_least=19)


def test_ac10_pure_state_exactness(suites):
    report(suites["paper-values"], "pure-exact", expect_at_least=12)


def test_ac11_support_only_dependence(suites):
    report(suites["paper-values"], "support-only", expect_at_least=5)


def test_ac12_every_check_passes_from_the_counted_solves(suite_run):
    results, solves = suite_run
    checks = [r for rs in results.values() for r in rs]
    assert (sum(r.passed for r in checks), len(checks), solves) == (288, 288, SUITE_SOLVES)
