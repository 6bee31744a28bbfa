"""Acceptance gate: one test per pinned criterion, one printed line each.

Criterion 5 is implemented exactly as stated and is a strict expected
failure: the element-level identity it asserts (unipotent elements of a
stabilizer = radical of the stratum parabolic) is false for P strata with
kernel dimension >= 2 and Q strata with low-dimensional support, because the
stabilizer keeps an unconstrained diagonal block there.  The corrected
identity through the largest normal p-subgroup passes and is reported as
criterion 5s.  Details sit in the test docstrings and the check output.
"""

import pytest

from drinfeld.verify import run_acceptance


_RESULTS = {}


def _run(name):
    # criteria share the stabilizer sweep; run all once, in order
    if not _RESULTS:
        _RESULTS.update((r.name, r) for r in run_acceptance())
    result = _RESULTS[f"criterion {name}"]
    mark = "PASS" if result.ok else "FAIL"
    line = f"{result.name}: {mark} ({result.seconds:.2f}s)"
    if result.detail:
        line += f" -- {result.detail}"
    print(line)
    return result


def test_criterion_1_stratification_partitions():
    "Exact partition totals for P, Q, B over every pinned (q, n+1, m)."
    assert _run("1 stratification partitions").ok


def test_criterion_2_reciprocal_bruteforce():
    """All tables filtered by the reciprocal axioms equal the stratum-wise
    construction as sets; counts are 3 and 5, the values forced by the
    partition identity of criterion 1 (all three lines of k^2 contribute)."""
    assert _run("2 reciprocal brute force").ok


def test_criterion_3_incidence_equivalence():
    assert _run("3 incidence equivalence").ok


def test_criterion_4_stabilizer_theorem():
    assert _run("4 stabilizer theorem").ok


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the asserted identity is false as stated: the unipotent-element "
        "subset of Stab(x) strictly contains the radical for P strata with "
        "dim V' >= 2 and Q strata with dim V' <= n-1 (free diagonal block); "
        "the corrected normal-core identity is criterion 5s"
    ),
)
def test_criterion_5_unipotent_corollary_restated():
    """Literal restatement: unipotent_elements(Stab(x)) == radical of the
    stratum parabolic.  Runs honestly and fails at n+1 = 3 with witness
    |unipotent| = 16 vs |radical| = 4 on rational covector points."""
    assert _run("5 unipotent corollary (restated)").ok


def test_criterion_5s_unipotent_corollary_normal_core():
    "Largest normal p-subgroup of Stab(x) == radical, plus separation."
    assert _run("5s unipotent corollary (normal core)").ok


def test_criterion_6_twist_span_lemma():
    assert _run("6 twist-span lemma").ok


def test_criterion_7_spot_check():
    "|Stab| = 3 for a quartic dense point of the 2-dim space, d = 2 fires."
    assert _run("7 spot check PGL(2,2)").ok


def test_criterion_8_map_compatibilities():
    assert _run("8 map compatibilities").ok


def test_criterion_9_export_determinism():
    assert _run("9 export determinism").ok


_VERDICTS = [
    ("criterion 1 stratification partitions", True,
     "q=2 n+1=2 m=1: |P|=|Q|=3 |B|=3; q=2 n+1=2 m=2: |P|=|Q|=5 |B|=5;"
     " q=2 n+1=2 m=3: |P|=|Q|=9 |B|=9; q=2 n+1=3 m=1: |P|=|Q|=7 |B|=21 ..."),
    ("criterion 2 reciprocal brute force", True,
     "counts 3 (m=1) and 5 (m=2), set-equal to the construction"),
    ("criterion 3 incidence equivalence", True, "4078 families checked, tests always agree"),
    ("criterion 4 stabilizer theorem", True, "177 points, brute force == predicted throughout"),
    ("criterion 5 unipotent corollary (restated)", False,
     "unipotent elements (16) != radical (4) at q=2 n+1=3 m=1 for a PPoint in a"
     " stratum with an unconstrained block; separation sub-claim: ok"),
    ("criterion 5s unipotent corollary (normal core)", True, ""),
    ("criterion 6 twist-span lemma", True, ""),
    ("criterion 7 spot check PGL(2,2)", True,
     "|Stab| = 3 with the d = 2 branch firing on both 3-cycles"),
    ("criterion 8 map compatibilities", True, ""),
    ("criterion 9 export determinism", True, ""),
]


def test_verdicts_and_details_are_pinned():
    "Every criterion's verdict and witness, in order, exactly as pinned."
    _run("1 stratification partitions")
    assert [(r.name, r.ok, r.detail) for r in _RESULTS.values()] == _VERDICTS
