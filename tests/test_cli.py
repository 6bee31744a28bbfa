import json
import os
import subprocess
import sys

import pytest

from drinfeld import PPoint, context_for, omega_embed_b, q_enumerate
from drinfeld.points import field_to_obj, point_to_obj


def run_cli(args, stdin=None, timeout=None):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "drinfeld", *args],
        input=stdin,
        capture_output=True,
        env=env,
        timeout=timeout,
    )
    return proc


@pytest.fixture(scope="module")
def dense_point_json():
    ctx = context_for(2, 1, 2, [1, 2, 3])
    w = next(a for a in ctx.subfield_elements(2) if a not in (ctx.zero, ctx.one))
    x = PPoint(ctx, (ctx.one, w))
    return json.dumps(point_to_obj(x)).encode()


def test_classify_from_stdin(dense_point_json):
    proc = run_cli(["classify"], stdin=dense_point_json)
    assert proc.returncode == 0
    out = proc.stdout.decode()
    assert "variety: P" in out and "valid: true" in out and "stratum: 0" in out


def test_classify_json_output(tmp_path, dense_point_json):
    path = tmp_path / "point.json"
    path.write_bytes(dense_point_json)
    proc = run_cli(["classify", "--input", str(path), "--format", "json"])
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj == {"variety": "P", "valid": True, "stratum": "0"}


def test_classify_b_point(tmp_path):
    ctx = context_for(2, 1, 2, [1, 2])
    w = next(a for a in ctx.subfield_elements(2) if a not in (ctx.zero, ctx.one))
    x = omega_embed_b(PPoint(ctx, (ctx.one, w)))
    proc = run_cli(
        ["classify", "--format", "json"],
        stdin=json.dumps(point_to_obj(x)).encode(),
    )
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj == {"variety": "B", "valid": True, "stratum": "()"}


def test_classify_invalid_q_point():
    ctx = context_for(2, 1, 2, [1])
    obj = {
        "kind": "Q",
        "field": {"p": 2, "e": 1, "D": ctx.D, "modulus": list(ctx.modulus)},
        "data": {
            "n_plus_1": 2,
            "table": {"0,1": [1], "1,0": [1], "1,1": [0]},
        },
    }
    proc = run_cli(["classify", "--format", "json"], stdin=json.dumps(obj).encode())
    assert proc.returncode == 0
    result = json.loads(proc.stdout)
    assert result["valid"] is False
    assert result["reason"] == "addition"
    assert "stratum" not in result


def test_classify_bad_json():
    proc = run_cli(["classify"], stdin=b"{not json")
    assert proc.returncode == 2


def _assert_one_error_line(proc):
    assert proc.returncode == 2 and not proc.stdout
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines


def test_point_without_field_key_is_an_error(dense_point_json):
    obj = json.loads(dense_point_json)
    del obj["field"]
    for cmd in ("classify", "stabilizer"):
        _assert_one_error_line(run_cli([cmd], stdin=json.dumps(obj).encode()))
    obj = {"kind": "Q", "data": {"n_plus_1": 2, "table": {}}}
    _assert_one_error_line(run_cli(["classify"], stdin=json.dumps(obj).encode()))


def test_unreadable_input_file_is_an_error(tmp_path):
    # a missing file and a directory: one error line each, no traceback
    for path in (tmp_path / "missing.json", tmp_path):
        for cmd in ("classify", "stabilizer"):
            _assert_one_error_line(run_cli([cmd, "--input", str(path)]))


def test_main_in_process_is_the_same_after_an_error(tmp_path, dense_point_json, capsysbinary):
    # the argument parser is built once and shared: an error in between
    # leaves nothing behind
    from drinfeld import cli

    path = tmp_path / "point.json"
    path.write_bytes(dense_point_json)
    good = ["classify", "--input", str(path), "--format", "json"]
    runs = []
    for argv in (good, ["classify", "--input", str(tmp_path / "missing.json")], good):
        code = cli.main(argv)
        runs.append((code, *capsysbinary.readouterr()))
    assert runs[0] == runs[2] and runs[0][0] == 0 and runs[0][1]
    assert runs[1][0] == 2 and not runs[1][1] and runs[1][2].startswith(b"error:")


def test_point_json_not_an_object_is_an_error(dense_point_json):
    body = b"[" + dense_point_json + b"]"
    for cmd in ("classify", "stabilizer"):
        _assert_one_error_line(run_cli([cmd], stdin=body))


def _q_point_obj():
    ctx = context_for(2, 1, 2, [1])
    x = q_enumerate(ctx, 2, 1)[0]
    return point_to_obj(x)


def _classify_error(obj):
    _assert_one_error_line(run_cli(["classify", "--format", "json"],
                                   stdin=json.dumps(obj).encode()))


def test_point_json_coords_not_an_array_is_an_error(dense_point_json):
    obj = json.loads(dense_point_json)
    obj["data"]["coords"] = 5
    _classify_error(obj)


def test_point_json_table_not_an_object_is_an_error():
    obj = _q_point_obj()
    obj["data"]["table"] = [1, 2]
    _classify_error(obj)


def test_point_json_characteristic_not_an_integer_is_an_error(dense_point_json):
    obj = json.loads(dense_point_json)
    obj["field"]["p"] = "two"
    _classify_error(obj)


def test_point_json_vector_index_out_of_range_is_an_error():
    obj = _q_point_obj()
    table = obj["data"]["table"]
    table["2,0"] = table.pop("1,0")
    _classify_error(obj)


def test_point_json_negative_vector_index_is_an_error():
    # indexing with -1 would alias "-1,0" to "1,0", a plausible valid point
    obj = _q_point_obj()
    table = obj["data"]["table"]
    table["-1,0"] = table.pop("1,0")
    _classify_error(obj)


def _fast_error(obj):
    """classify and stabilizer each exit 2 with one error line within
    seconds; returns the two error lines."""
    lines = []
    for cmd in ("classify", "stabilizer"):
        proc = run_cli([cmd], stdin=json.dumps(obj).encode(), timeout=30)
        _assert_one_error_line(proc)
        lines.append(proc.stderr.decode())
    return lines


def _b_point_obj(n_plus_1, family):
    ctx = context_for(2, 1, 2, [1])
    data = {"n_plus_1": n_plus_1, "family": family}
    return {"kind": "B", "field": field_to_obj(ctx), "data": data}


def _b_plane_obj(p):
    """The B point over GF(p) at n+1 = 2 with functional (1, 0) on V, whose
    stratum is the line 0,1: every line carries (1,)."""
    family = {f"1,{a}": [[1]] for a in range(p)}
    family["0,1"] = [[1]]
    family["1,0;0,1"] = [[1], [0]]
    field = {"p": p, "e": 1, "D": 1, "modulus": [0, 1]}
    return {"kind": "B", "field": field, "data": {"n_plus_1": 2, "family": family}}


def test_b_point_with_too_many_subspaces_is_an_error():
    # 65,523 subspaces: past the desk-scale bound, refused before the rational
    # index, which tests every line against every subspace, is built
    lines = _fast_error(_b_plane_obj(65521))
    assert all("desk-scale" in line for line in lines)


def test_b_point_over_gf_1021_classifies():
    proc = run_cli(["classify", "--format", "json"],
                   stdin=json.dumps(_b_plane_obj(1021)).encode(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"stratum": "0,1", "valid": True, "variety": "B"}


def test_b_point_json_key_rows_not_reduced_is_an_error():
    # the full space with a row not reduced, then with its pivots out of order
    for key in ("1,1;0,1", "0,1;1,0"):
        obj = _b_plane_obj(2)
        obj["data"]["family"][key] = obj["data"]["family"].pop("1,0;0,1")
        assert all("echelon" in line for line in _fast_error(obj))


def test_point_json_zero_n_plus_1_is_an_error():
    # classify used to call this family valid, with stratum "()"
    _fast_error(_b_point_obj(0, {}))


def test_point_json_negative_n_plus_1_is_an_error():
    _fast_error(_b_point_obj(-2, {}))


def test_q_point_json_negative_n_plus_1_is_an_error():
    obj = _q_point_obj()
    obj["data"]["n_plus_1"] = -2
    # not an internal message such as "repeat argument cannot be negative"
    assert all("n_plus_1" in line for line in _fast_error(obj))


def test_b_point_json_too_few_subspaces_for_n_plus_1_is_an_error():
    # one functional cannot cover the subspaces of k^9; they are not built
    _fast_error(_b_point_obj(9, {",".join(["1"] + ["0"] * 8): [[1, 0]]}))


def test_q_point_json_too_few_vectors_for_n_plus_1_is_an_error():
    # one entry cannot cover the 2^30 - 1 nonzero vectors; they are not built
    obj = _q_point_obj()
    obj["data"] = {"n_plus_1": 30, "table": {",".join(["1"] + ["0"] * 29): [1, 0]}}
    _fast_error(obj)


def test_point_json_field_above_the_size_bound_is_an_error(dense_point_json):
    # p = 2^61 - 1 is prime; primality by trial division would not finish
    obj = json.loads(dense_point_json)
    obj["field"] = {"p": 2**61 - 1, "e": 1, "D": 1, "modulus": [0, 1]}
    _fast_error(obj)


def test_point_json_over_the_largest_prime_field_classifies(dense_point_json):
    # GF(65521) is the largest prime field within p^D <= 2^16
    obj = json.loads(dense_point_json)
    obj["field"] = {"p": 65521, "e": 1, "D": 1, "modulus": [0, 1]}
    obj["data"]["coords"] = [[1], [3]]
    proc = run_cli(["classify", "--format", "json"], stdin=json.dumps(obj).encode(),
                   timeout=30)
    assert proc.returncode == 0, proc.stderr
    # the point is k-rational: its kernel is the line through (1, -1/3)
    kernel = f"1,{-pow(3, -1, 65521) % 65521}"
    assert json.loads(proc.stdout) == {"stratum": kernel, "valid": True, "variety": "P"}
    # the next prime is past the bound
    obj["field"] = {"p": 65537, "e": 1, "D": 1, "modulus": [0, 1]}
    _fast_error(obj)


def test_count_with_a_field_above_the_size_bound_is_an_error():
    # k_17 over GF(2) needs an ambient field of 2^17 elements
    _assert_one_error_line(run_cli(
        ["count", "--variety", "P", "--n", "1", "--m", "17", "--no-cache"], timeout=30
    ))


def test_count_at_dimension_five():
    # the ambient field is k itself, GF(2): the P points over k number 2^5 - 1
    proc = run_cli(["count", "--variety", "P", "--n", "4", "--m", "1",
                    "--format", "json", "--no-cache"], timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["totals"] == {"1": 31}


def test_atlas_above_the_desk_scale_bound_is_an_error():
    # B at n+1 = 6 over k_2 has 4,488,645 points; B at n+1 = 5 has 27,808
    # flags and P at n+1 = 7 has 29,212 subspaces, as strata.  P at n+1 = 2001
    # and B at n+1 = 401 are refused from 2^(n+1) - 1 before their stratum
    # counts, which take minutes to form, are multiplied out
    for argv in (["count", "--variety", "B", "--n", "5", "--m", "2"],
                 ["count", "--variety", "B", "--n", "4", "--m", "1"],
                 ["strata", "--variety", "P", "--n", "6"],
                 ["count", "--variety", "P", "--n", "2000", "--m", "1"],
                 ["strata", "--variety", "B", "--n", "400"]):
        _assert_one_error_line(run_cli(argv + ["--no-cache"], timeout=30))


def test_stabilizer_past_the_group_bound_is_an_error(dense_point_json):
    # |PGL(8000, 2)| >= 2^(7999 * 8000) is refused before it is multiplied out
    obj = json.loads(dense_point_json)
    obj["field"] = {"p": 2, "e": 1, "D": 1, "modulus": [0, 1]}
    obj["data"]["coords"] = [[1]] * 8000
    _assert_one_error_line(run_cli(["stabilizer"], stdin=json.dumps(obj).encode(), timeout=30))


def test_stabilizer_output(dense_point_json):
    proc = run_cli(["stabilizer", "--format", "json"], stdin=dense_point_json)
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["order"] == 3
    assert obj["bruteforce_equals_predicted"] is True
    assert len(obj["members"]) == 3
    assert obj["unipotent"] == ["1,0;0,1"]


def test_strata_text(tmp_path):
    proc = run_cli(
        ["strata", "--variety", "P", "--n", "1", "--m", "1,2",
         "--format", "text", "--no-cache"]
    )
    assert proc.returncode == 0
    assert b"total" in proc.stdout and b"5" in proc.stdout


def test_count_json():
    proc = run_cli(
        ["count", "--variety", "Q", "--n", "1", "--m", "1,2",
         "--format", "json", "--no-cache"]
    )
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["totals"] == {"1": 3, "2": 5}


def test_count_rejects_out_of_range_arguments():
    base = ["--variety", "P", "--m", "1", "--no-cache"]
    for cmd in ("count", "strata"):
        _assert_one_error_line(run_cli([cmd, "--n", "-1"] + base))
        _assert_one_error_line(run_cli([cmd, "--n", "0"] + base))
        _assert_one_error_line(run_cli([cmd, "--n", "1", "--jobs", "0"] + base))


def test_strata_deterministic_across_jobs():
    base = ["strata", "--variety", "B", "--n", "2", "--m", "1,2", "--no-cache"]
    for fmt in ("json", "dot"):
        one = run_cli(base + ["--format", fmt, "--jobs", "1"])
        two = run_cli(base + ["--format", fmt, "--jobs", "2"])
        assert one.returncode == 0 and two.returncode == 0
        assert one.stdout == two.stdout


def test_count_p_over_several_slices_deterministic_across_jobs():
    # 820 points: two slices of the enumeration, one per worker at --jobs 2
    base = ["count", "--variety", "P", "--p", "3", "--n", "3", "--m", "2",
            "--format", "json", "--no-cache"]
    one = run_cli(base + ["--jobs", "1"], timeout=120)
    two = run_cli(base + ["--jobs", "2"], timeout=120)
    assert one.returncode == 0 and two.returncode == 0
    assert one.stdout == two.stdout
    assert json.loads(one.stdout)["totals"] == {"2": 820}


def test_strata_cache_dir(tmp_path):
    cache = str(tmp_path / "atlas-cache")
    args = ["strata", "--variety", "P", "--n", "1", "--m", "1",
            "--format", "json", "--cache-dir", cache]
    first = run_cli(args)
    assert first.returncode == 0
    assert os.path.isdir(cache) and os.listdir(cache) == ["P_q2_n1_m1.json"]
    second = run_cli(args)
    assert second.stdout == first.stdout


def _one_count_changed(obj):
    obj["counts"][sorted(obj["counts"])[0]] += 5
    return obj


def _counts_swapped(obj):
    # the dense stratum's 2 points trade places with a line's 1: the sum stays 5
    counts = obj["counts"]
    assert counts["0"] == 2 and counts["0,1"] == 1
    counts["0"], counts["0,1"] = 1, 2
    return obj


@pytest.mark.parametrize("m, damage", [
    pytest.param(1, lambda obj: {**obj, "counts": "abc"}, id="counts-not-an-object"),
    pytest.param(1, _one_count_changed, id="one-count-changed"),
    pytest.param(1, lambda obj: [obj], id="a-list"),
    pytest.param(1, lambda obj: b"\xff" + json.dumps(obj).encode(), id="not-utf-8"),
    pytest.param(2, _counts_swapped, id="counts-swapped-between-strata"),
])
def test_count_recounts_over_a_damaged_cache(tmp_path, m, damage):
    # P at (2, n=1) has 3 points over k_1 and 5 over k_2; a cache file that
    # does not hold the true counts is a miss, recounted and written again
    cache = str(tmp_path / "atlas-cache")
    args = ["count", "--variety", "P", "--n", "1", "--m", str(m),
            "--format", "json", "--cache-dir", cache]
    first = run_cli(args)
    assert first.returncode == 0
    assert json.loads(first.stdout)["totals"] == {str(m): {1: 3, 2: 5}[m]}
    path = os.path.join(cache, f"P_q2_n1_m{m}.json")
    with open(path, "rb") as fh:
        good = fh.read()
    body = damage(json.loads(good))
    with open(path, "wb") as fh:
        fh.write(body if isinstance(body, bytes) else json.dumps(body).encode())
    again = run_cli(args)
    assert again.returncode == 0, again.stderr
    assert again.stdout == first.stdout
    with open(path, "rb") as fh:
        assert fh.read() == good


def test_count_with_a_cache_dir_that_is_a_file_is_an_error(tmp_path):
    cache = tmp_path / "atlas-cache"
    cache.write_text("")
    proc = run_cli(["count", "--variety", "P", "--n", "1", "--m", "1", "--cache-dir", str(cache)])
    _assert_one_error_line(proc)
    assert str(cache) in proc.stderr.decode()


def test_strata_with_a_cache_file_that_is_a_directory_is_an_error(tmp_path):
    path = tmp_path / "P_q2_n1_m1.json"
    path.mkdir()
    proc = run_cli(["strata", "--variety", "P", "--n", "1", "--m", "1", "--cache-dir", str(tmp_path)])
    _assert_one_error_line(proc)
    assert str(path) in proc.stderr.decode()
    assert sorted(os.listdir(tmp_path)) == ["P_q2_n1_m1.json"] and path.is_dir()


@pytest.mark.parametrize("argv", [
    ["count", "--variety", "Q", "--n", "1", "--m", "1", "--no-cache"],
    ["strata", "--variety", "P", "--n", "1", "--m", "1", "--no-cache"],
    ["verify", "--suites", "atlas", "--max-n", "1"],
])
def test_more_jobs_than_the_bound_make_no_pool(argv, monkeypatch, capsys):
    # a pool starts all its workers at once, so the bound is checked before
    # any is asked for; the pool here raises if it is made at all
    from drinfeld import atlas, cli
    from drinfeld.counts import MAX_JOBS

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was made")

    monkeypatch.setattr(atlas, "ProcessPoolExecutor", no_pool)
    assert cli.main(argv + ["--jobs", str(MAX_JOBS + 1)]) == 2
    out, err = capsys.readouterr()
    assert not out and err.count("\n") == 1 and f"--jobs must be at most {MAX_JOBS}" in err


def test_the_pool_has_no_more_workers_than_tasks(monkeypatch):
    # Q at n+1 = 2 over GF(2) counts 4 strata, one task each; past the bound,
    # build_atlas refuses before it counts
    from drinfeld import atlas
    from drinfeld.counts import MAX_JOBS

    sizes = []

    def recording_pool(max_workers, **kwargs):
        sizes.append(max_workers)
        raise RuntimeError("no pool")

    monkeypatch.setattr(atlas, "ProcessPoolExecutor", recording_pool)
    ctx = context_for(2, 1, 2, [1])
    with pytest.raises(ValueError, match=f"at most {MAX_JOBS}"):
        atlas.build_atlas("Q", 2, ctx, [1], jobs=MAX_JOBS + 1)
    with pytest.raises(RuntimeError, match="no pool"):
        atlas.count_stratum_points("Q", 2, ctx, 1, jobs=MAX_JOBS)
    assert sizes == [4]


def test_strata_no_cache_leaves_cache_dir_absent(tmp_path):
    cache = str(tmp_path / "atlas-cache")
    proc = run_cli(["strata", "--variety", "P", "--n", "1", "--m", "1",
                    "--cache-dir", cache, "--no-cache"])
    assert proc.returncode == 0
    assert not os.path.exists(cache)


def test_verify_passes_at_dim_two():
    proc = run_cli(["verify", "--max-n", "1", "--max-m", "2",
                    "--perturbations", "50"])
    assert proc.returncode == 0, proc.stdout.decode()
    assert b"[FAIL]" not in proc.stdout


def test_verify_equivariance_at_dim_three_skips_groups_past_the_cap():
    # PGL(4,2) has 20,160 elements, past the suite's group-size cap
    proc = run_cli(["verify", "--max-n", "3", "--suites", "action.classify_equivariance"],
                   timeout=60)
    assert proc.returncode == 0, proc.stdout.decode()
    assert b"1/1 checks passed" in proc.stdout


def test_verify_rejects_out_of_range_arguments():
    # 2^61 - 1 is prime, too large for the field bound and for trial division;
    # --max-n 4 would build all 27,808 flags of k^5, and --max-n 300 is refused
    # before the flags of k^301 are counted; --max-m 5 over GF(2) and --max-m 4
    # over GF(3) need the fields GF(2^60) and GF(3^12), past 2^16
    for args in (["--max-n", "0"], ["--max-m", "0"], ["--perturbations", "-1"],
                 ["--jobs", "0"], ["--q", "2305843009213693951"], ["--max-n", "4"],
                 ["--max-n", "300"], ["--max-m", "5"], ["--q", "3", "--max-m", "4"]):
        proc = run_cli(["verify", "--suites", "field"] + args, timeout=30)
        assert proc.returncode == 2 and not proc.stdout
        assert proc.stderr.decode().startswith("configuration error:")


def test_options_a_command_does_not_read_are_rejected():
    for argv in (["classify", "--p", "3"], ["stabilizer", "--seed", "1"],
                 ["count", "--variety", "P", "--n", "1", "--seed", "1"],
                 ["strata", "--variety", "P", "--n", "1", "--seed", "1"],
                 ["verify", "--e", "2"]):
        proc = run_cli(argv, stdin=b"")
        assert proc.returncode == 2 and not proc.stdout, argv


def test_count_rejects_dot_format():
    # count has no DOT export: a text table under --format dot would be a
    # plausible but wrong answer
    proc = run_cli(["count", "--variety", "P", "--n", "1", "--format", "dot"])
    assert proc.returncode == 2 and not proc.stdout
    assert b"--format" in proc.stderr


def test_verify_option_prefix_is_not_an_abbreviation():
    # with abbreviations allowed, --p would be read as --perturbations
    proc = run_cli(["verify", "--suites", "field", "--max-n", "1", "--p", "3"])
    assert proc.returncode == 2 and b"--p" in proc.stderr and not proc.stdout


def test_verify_unknown_suite_is_config_error():
    proc = run_cli(["verify", "--suites", "nonsense"])
    assert proc.returncode == 2


def test_verify_reports_failures_with_exit_one(monkeypatch, capsys):
    from drinfeld import cli
    from drinfeld.verify import CheckResult

    def fake_verify_all(cfg):
        return [
            CheckResult("points.partition_P", True, 0.1),
            CheckResult("points.b_two_tests_agree", False, 0.2, "witness here"),
        ]

    monkeypatch.setattr(cli, "verify_all", fake_verify_all)
    code = cli.main(["verify"])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL] points.b_two_tests_agree" in out and "witness here" in out
    assert "1/2 checks passed" in out


def test_verify_single_suite():
    proc = run_cli(["verify", "--suites", "field", "--max-n", "1"])
    assert proc.returncode == 0
    out = proc.stdout.decode()
    assert "field.ring_axioms" in out and "points" not in out
