"""Golden digests of CLI output: a refactor that keeps these passing prints
byte-identical exports, classifications and stabilizers.

Every command runs in-process through cli.main; each case hashes the exit
codes and stdout of its runs with sha256.
"""

import hashlib
import json
import random

from drinfeld import all_subspaces, b_enumerate, cli, context_for
from drinfeld.points import enumerate_functionals, point_to_obj, subspace_str

GOLDEN = {
    "count P 2 2 1,2": "d97d4a5a9c8e3a8dc30b0f2dc4cab655e5a2d960a62374cb6fb865f7540971c6",
    "strata P 2 2 1,2": "dcc68db98afca61f7ce4c92f38001edc0e95d35e11f4b03db9389ba03bc64fc9",
    "count Q 2 2 1,2": "ed1848185ee5b2091d7c3f426b0ee0b3100be750ffb879aa49652608efbff740",
    "strata Q 2 2 1,2": "c6797001c40febf03b0bb92651bec3d3fc679f7f067c3491abf8cea3bb8a0b33",
    "count B 2 2 1,2": "23e6395b9e62885c3052eb15dae8839bfb84c5c0efe484e61f003eed6e77cc03",
    "strata B 2 2 1,2": "6b3b00d2dfded13e80d8c34a0a009b8ac872151333927b9113813b46c995681b",
    "count P 3 2 1": "a2333621bce63c87e6dd58b019b5813d9582ae7bfcbd2b57456f09444c569423",
    "strata P 3 2 1": "f272e534818c3d11be301ee73e0022706778b1342d79aa74072933a19f51d44c",
    "count Q 3 2 1": "29507a894ecadc2277982f15025a8a0675dbe47ed8d06c5799e9163484a06c4a",
    "strata Q 3 2 1": "db2a8be0b1c7a9a738f571e913bf25b0629d6c79f575398e1c9ca623a64afcb0",
    "count B 3 2 1": "ff08e5941ce029f7b7c68042c6f7070b7c0b2d43d3f6f3e9de08d6ba6ed55e44",
    "strata B 3 2 1": "33bf95e5c2312e66f488eaf3cb939086bb7cba246eda6c212ae342731246cdf3",
    "count B 2 3 1": "39f6fe9aa4983b3c48f614bcb27222e55328149767a09523499bfb007b517124",
    "classify B points": "55bf16e59fa32baf65475a516ee5cf9c210236762557542294a5e6a0fc979c05",
    "classify B perturbed": "109c78495c84881740aa179be351903b635498c364d2db1d9a6d2b6e51acfd8e",
    "stabilizer B points": "f8ec2581d0db7a21067c5b499c92749abeaf40d9f72f12e5dee51a56a2cf2c12",
}


def _digest(runs, capsysbinary):
    "sha256 of each run's exit code and stdout; every run must exit 0."
    h = hashlib.sha256()
    for argv in runs:
        code = cli.main(argv)
        out, err = capsysbinary.readouterr()
        assert code == 0, (argv, err)
        h.update(f"{code}\n".encode() + out)
    return h.hexdigest()


def _atlas_cases():
    for p, n, m in ((2, 2, "1,2"), (3, 2, "1")):
        for variety in ("P", "Q", "B"):
            args = ["--variety", variety, "--p", str(p), "--n", str(n), "--m", m, "--no-cache"]
            yield f"count {variety} {p} {n} {m}", ["count", *args, "--format", "json"]
            yield f"strata {variety} {p} {n} {m}", ["strata", *args, "--format", "dot"]
    yield "count B 2 3 1", ["count", "--variety", "B", "--p", "2", "--n", "3", "--m", "1",
                            "--no-cache", "--format", "json"]


def _point_files(tmp_path):
    """JSON files of every B point at (q, n+1, m) = (2, 3, 1), and of 20 families
    made from them by replacing one functional, drawn with a fixed seed."""
    ctx = context_for(2, 1, 3, [1])
    pts = b_enumerate(ctx, 3, 1)
    subs = [W for W in all_subspaces(3, ctx, include_zero=False) if W.dim > 1]
    rng = random.Random(20)
    perturbed = []
    for _ in range(20):
        obj = point_to_obj(rng.choice(pts))
        W = rng.choice(subs)
        func = rng.choice(enumerate_functionals(W.dim, ctx, 1))
        obj["data"]["family"][subspace_str(W, ctx)] = [list(a.coeffs) for a in func]
        perturbed.append(obj)

    def write(name, objs):
        paths = []
        for i, obj in enumerate(objs):
            path = tmp_path / f"{name}{i}.json"
            path.write_text(json.dumps(obj))
            paths.append(str(path))
        return paths

    return write("point", [point_to_obj(x) for x in pts]), write("perturbed", perturbed)


def test_cli_outputs_match_golden_digests(tmp_path, capsysbinary):
    digests = {name: _digest([argv], capsysbinary) for name, argv in _atlas_cases()}
    points, perturbed = _point_files(tmp_path)
    assert len(points) == 21
    digests["classify B points"] = _digest(
        [["classify", "--input", path, "--format", "json"] for path in points], capsysbinary
    )
    digests["classify B perturbed"] = _digest(
        [["classify", "--input", path, "--format", "json"] for path in perturbed], capsysbinary
    )
    digests["stabilizer B points"] = _digest(
        [["stabilizer", "--input", points[i], "--format", "json"] for i in (0, 10, 20)],
        capsysbinary,
    )
    assert digests == GOLDEN
