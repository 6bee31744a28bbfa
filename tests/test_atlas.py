import json

import pytest

from drinfeld import atlas as atlas_mod
from drinfeld import build_atlas, context_for, export
from drinfeld.atlas import VARIETIES, transitive_reduction
from drinfeld.counts import variety_total
from drinfeld.errors import InvariantViolation


def test_p_atlas_dim_two(ctx64):
    atlas = build_atlas("P", 2, ctx64, [1, 2])
    assert len(atlas.nodes) == 4  # the zero subspace and three lines
    assert len(atlas.closure) == 3
    assert atlas.total(1) == 3 and atlas.total(2) == 5
    zero_key = next(k for k, d in atlas.nodes if d == 1)
    assert zero_key == "0"
    assert atlas.counts[1]["0"] == 0 and atlas.counts[2]["0"] == 2
    line_counts = [atlas.counts[1][k] for k, d in atlas.nodes if d == 0]
    assert line_counts == [1, 1, 1]


def test_q_atlas_dim_two(ctx64):
    atlas = build_atlas("Q", 2, ctx64, [1, 2])
    assert len(atlas.nodes) == 4  # three lines and the full space
    assert atlas.total(1) == 3 and atlas.total(2) == 5
    # closure goes downward in the support order
    full_key = next(k for k, d in atlas.nodes if d == 1)
    assert all(a == full_key for a, b in atlas.closure)


def test_b_atlas_dim_two(ctx64):
    atlas = build_atlas("B", 2, ctx64, [1])
    assert len(atlas.nodes) == 4  # trivial flag and three one-member flags
    assert atlas.counts[1]["()"] == 0
    assert atlas.total(1) == 3


def test_b_atlas_dim_three_counts(ctx64):
    atlas = build_atlas("B", 3, ctx64, [1, 2])
    assert len(atlas.nodes) == 36
    assert atlas.total(1) == 21 and atlas.total(2) == 49


def test_atlas_empty_m_list(ctx64):
    atlas = build_atlas("P", 2, ctx64, [])
    obj = json.loads(export(atlas, "json"))
    assert obj["strata"][0]["counts"] == {}
    assert obj["variety"] == "P" and obj["q"] == 2 and obj["n"] == 1


def test_atlas_rejects_bad_variety(ctx64):
    with pytest.raises(ValueError):
        build_atlas("X", 2, ctx64, [1])


def test_atlas_rejects_oversized_request(ctx64):
    # (2^27 - 1)/(2^9 - 1) projective points is past the desk-scale bound
    with pytest.raises(ValueError):
        build_atlas("P", 3, ctx64, [9])


def test_export_json_schema(ctx64):
    atlas = build_atlas("P", 2, ctx64, [1])
    obj = json.loads(export(atlas, "json"))
    assert set(obj) == {"variety", "q", "n", "strata", "closure"}
    for entry in obj["strata"]:
        assert set(entry) == {"key", "dim_ambient_index", "counts"}
    assert all(len(pair) == 2 for pair in obj["closure"])


def test_export_dot_hasse(ctx64):
    atlas = build_atlas("P", 2, ctx64, [1])
    dot = export(atlas, "dot").decode()
    assert dot.count("->") == 3  # zero covers each line, nothing else
    assert dot.startswith("digraph P_strata {")
    atlas3 = build_atlas("P", 3, ctx64, [])
    dot3 = export(atlas3, "dot").decode()
    # Hasse edges: 0 -> 7 lines, 7 lines -> planes via containment (21)
    assert dot3.count("->") == 7 + 21


def test_transitive_reduction():
    nodes = [("a", 0), ("b", 0), ("c", 0)]
    pairs = [("a", "b"), ("b", "c"), ("a", "c")]
    assert transitive_reduction(nodes, pairs) == [("a", "b"), ("b", "c")]


def test_export_deterministic_bytes(ctx64):
    a1 = build_atlas("B", 2, ctx64, [1, 2], jobs=1)
    a2 = build_atlas("B", 2, ctx64, [1, 2], jobs=2)
    for fmt in ("json", "dot", "text"):
        assert export(a1, fmt) == export(a2, fmt)
        assert export(a1, fmt) == export(a1, fmt)


def test_p_slices_concatenate_to_the_enumeration():
    # each slice a count worker gets is built alone, from its positions; the
    # reference is the lead blocks with itertools.product tails, and at q = 3
    # a slice bound falls inside a block
    from itertools import product

    from drinfeld.atlas import _tasks_for
    from drinfeld.points import enumerate_functionals

    for p, n_plus_1, m in ((2, 4, 3), (3, 4, 2)):
        ctx = context_for(p, 1, n_plus_1, [m])
        els = ctx.subfield_elements(m)
        ref = [
            (ctx.zero,) * lead + (ctx.one,) + tail
            for lead in range(n_plus_1)
            for tail in product(els, repeat=n_plus_1 - lead - 1)
        ]
        tasks = _tasks_for("P", n_plus_1, ctx, m)
        assert len(tasks) > 1
        sliced = [c for _, _, lo, hi in tasks for c in enumerate_functionals(n_plus_1, ctx, m, lo, hi)]
        assert sliced == enumerate_functionals(n_plus_1, ctx, m) == ref


def test_export_rejects_unknown_format(ctx64):
    atlas = build_atlas("P", 2, ctx64, [])
    with pytest.raises(ValueError):
        export(atlas, "yaml")


def test_cache_roundtrip(tmp_path, ctx64, monkeypatch):
    cache = str(tmp_path / "cache")
    a1 = build_atlas("Q", 2, ctx64, [1, 2], cache_dir=cache)
    files = sorted(p.name for p in (tmp_path / "cache").iterdir())
    assert files == ["Q_q2_n1_m1.json", "Q_q2_n1_m2.json"]

    def no_count(*args, **kwargs):
        raise AssertionError("a valid cache file was counted again")

    monkeypatch.setattr(atlas_mod, "count_stratum_points", no_count)
    a2 = build_atlas("Q", 2, ctx64, [1, 2], cache_dir=cache)
    assert a1.counts == a2.counts
    assert export(a1, "json") == export(a2, "json")


def test_a_count_that_loses_a_point_is_an_invariant_violation(ctx64, monkeypatch):
    count = atlas_mod.count_stratum_points

    def one_lost(*args, **kwargs):
        counts = count(*args, **kwargs)
        counts[min(counts)] -= 1
        return counts

    monkeypatch.setattr(atlas_mod, "count_stratum_points", one_lost)
    with pytest.raises(InvariantViolation):
        build_atlas("P", 3, ctx64, [2])


def test_cache_ignores_stale_schema(tmp_path, ctx64):
    cache = str(tmp_path / "cache")
    build_atlas("Q", 2, ctx64, [1], cache_dir=cache)
    path = tmp_path / "cache" / "Q_q2_n1_m1.json"
    obj = json.loads(path.read_text())
    obj["schema_version"] = 999
    obj["counts"] = {"0,1": 12345}
    path.write_text(json.dumps(obj))
    atlas = build_atlas("Q", 2, ctx64, [1], cache_dir=cache)
    assert atlas.total(1) == 3  # recomputed, not the poisoned value


def test_no_cache_bypasses_files(tmp_path, ctx64, monkeypatch):
    # cache_dir=None writes no file, not even into the working directory
    monkeypatch.chdir(tmp_path)
    atlas = build_atlas("Q", 2, ctx64, [1], cache_dir=None)
    assert atlas.total(1) == 3
    assert list(tmp_path.iterdir()) == []


def test_q_totals_match_p_totals(ctx64, ctx729):
    # P and Q have dual stratifications with matching stratum counts, so
    # their totals agree; the blow-up side B is strictly larger in dim 3
    for ctx in (ctx64, ctx729):
        for n_plus_1 in (2, 3):
            ap = build_atlas("P", n_plus_1, ctx, [1, 2])
            aq = build_atlas("Q", n_plus_1, ctx, [1, 2])
            for m in (1, 2):
                assert ap.total(m) == aq.total(m)
    ab = build_atlas("B", 3, ctx64, [2])
    ap = build_atlas("P", 3, ctx64, [2])
    assert ab.total(2) == 49 > ap.total(2) == 21


@pytest.mark.parametrize(
    "q, n_plus_1, ms", [(2, 2, (1, 2, 3)), (2, 3, (1, 2, 3)), (3, 3, (1,)), (2, 4, (1, 2))]
)
def test_closed_form_totals_match_enumeration(q, n_plus_1, ms):
    ctx = context_for(q, 1, n_plus_1, ms)
    for variety in VARIETIES:
        atlas = build_atlas(variety, n_plus_1, ctx, list(ms))
        assert [atlas.total(m) for m in ms] == [
            variety_total(variety, n_plus_1, q, m) for m in ms
        ]
    # B by hand, from one dense point per quotient of each flag's chain
    by_hand = {(2, 3): [21, 49, 129], (3, 3): [52], (2, 4): [315, 1085]}
    if (q, n_plus_1) in by_hand:
        assert [variety_total("B", n_plus_1, q, m) for m in ms] == by_hand[q, n_plus_1]
