"""Command-line interface: flags, formats, determinism, exit codes."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from cayley_greedy import CayleyTree
from cayley_greedy.cli import main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def test_sample_tree_prufer(capsys):
    code, out = run(["sample-tree", "--n", "6", "--count", "4", "--seed", "3"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    for line in lines:
        assert CayleyTree.from_line(line).n == 6


@pytest.mark.parametrize("method", ["prufer", "pitman", "aldous-broder"])
def test_sample_tree_methods_deterministic(method, capsys):
    args = ["sample-tree", "--n", "5", "--count", "3", "--method", method,
            "--seed", "0x5EED"]
    code1, out1 = run(args, capsys)
    code2, out2 = run(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("method", ["prufer", "pitman", "aldous-broder"])
def test_sample_tree_one_vertex(method, capsys):
    code, out = run(["sample-tree", "--n", "1", "--method", method], capsys)
    assert (code, out) == (0, "1;\n")


def test_enumerate(capsys):
    code, out = run(["enumerate", "--n", "3"], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 3


def test_peel_markov_ab(capsys):
    code, out = run(["peel", "--n", "5", "--alg", "ab", "--seed", "11"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "step,peeled,parent,recolored"
    assert len(lines) == 5  # header + n-1 steps


def test_peel_markov_greedy(capsys):
    code, out = run(["peel", "--n", "6", "--alg", "greedy", "--seed", "12"], capsys)
    assert code == 0
    assert out == "step,peeled,parent,recolored\n1,1,5,0\n2,2,5,0\n3,3,6,1\n4,4,2,0\n"


def test_peel_fixed_tree(tmp_path, capsys):
    tree_file = tmp_path / "tree.txt"
    tree_file.write_text("3;3,1\n")
    code, out = run(
        ["peel", "--fixed-tree", str(tree_file), "--alg", "ab", "--n", "3"], capsys
    )
    assert code == 0
    assert out.strip().splitlines()[1] == "1,1,3,1"


def test_peel_fixed_tree_greedy(tmp_path, capsys):
    tree_file = tmp_path / "tree.txt"
    tree_file.write_text("3;2,3\n")
    code, out = run(
        ["peel", "--fixed-tree", str(tree_file), "--alg", "greedy", "--n", "3"],
        capsys,
    )
    assert code == 0
    # inspecting 1 blocks its parent 2; inspecting the root adds no edge
    assert out.strip().splitlines()[1:] == ["1,1,2,0"]


def test_greedy_outcomes_csv(capsys):
    code, out = run(
        ["greedy", "--n", "40", "--replicates", "5", "--seed", "21"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,replicate,G,theta,E,M,maxIS"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "40" and first[5] == "" and first[6] == ""


def test_chain_outcomes_json(capsys):
    code, out = run(
        ["chain", "--n", "150", "--replicates", "4", "--seed", "22",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 4
    assert all(set(r) >= {"G", "theta", "E"} for r in rows)


def test_exact_law_json(capsys):
    code, out = run(["exact-law", "--n", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["size_law"]["2"]["fraction"] == "2/3"
    assert payload["root_last_probability"]["fraction"] == "1/3"


def test_verify_symmetry_exact(capsys):
    code, out = run(["verify-symmetry", "--exact", "--n", "8"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["tv"] == "0/1"


def test_verify_symmetry_mc(capsys):
    code, out = run(
        ["verify-symmetry", "--mc", "--n", "12", "--replicates", "20000",
         "--seed", "23"],
        capsys,
    )
    assert code == 0
    assert json.loads(out.strip())["passed"] is True


def test_clt_reports(capsys):
    code, out = run(
        ["clt", "--n", "1000", "--replicates", "2000", "--seed", "42",
         "--format", "json"],
        capsys,
    )
    rows = [json.loads(line) for line in out.strip().splitlines()]
    by_name = {r["statistic"]: r for r in rows}
    assert code == 0
    assert by_name["size_variance"]["passed"] is True
    assert by_name["size_ks_pvalue"]["passed"] is True
    assert by_name["root_last_fraction"]["passed"] is True
    assert by_name["steps_variance"]["passed"] is True


def test_fluid_json(capsys):
    code, out = run(["fluid"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["t_star"] - 0.693147180559945) < 1e-12
    assert abs(payload["M"][0][0] - 0.75) < 1e-8
    assert abs(payload["varG"] - 0.0625) < 1e-8
    assert abs(payload["varTheta"] - 0.75) < 1e-8
    assert abs(payload["covAB"] + 0.0625) < 1e-8


def test_matching_report(capsys):
    code, out = run(
        ["matching", "--n", "800", "--replicates", "60", "--seed", "24"], capsys
    )
    payload = json.loads(out)
    assert payload["statistic"] == "matching_density"
    assert code == 0 if payload["passed"] else 1


def test_max_is_report(capsys):
    code, out = run(
        ["max-is", "--n", "800", "--replicates", "60", "--seed", "25"], capsys
    )
    payload = json.loads(out)
    assert payload["statistic"] == "max-is_density"


#: SHA-256 of the stdout of the tree sweeps, pinned so that faster per-tree
#: statistics keep every seeded output byte-identical
SWEEP_SHA256 = {
    "greedy --n 2000 --replicates 50 --seed 3":
        "e33e006ad4bb1319e1961d208da4786eade0fca09acf66000219649c95141bbc",
    "matching --n 800 --replicates 60 --seed 24":
        "0daecf5bb882eeeef9e4e9294f3d383a37aedc985a9fd4d11c7d639cfaa22193",
    "max-is --n 800 --replicates 60 --seed 25":
        "dc2f469f6e5e5e254bee09ce94063a98f07ec213f9573e946009bf2968be7ed8",
}


@pytest.mark.parametrize("argv", sorted(SWEEP_SHA256))
def test_tree_sweep_golden_digest(argv, capsys):
    code, out = run(argv.split(), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_SHA256[argv]


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "law.json"
    code, _ = run(["exact-law", "--n", "4", "--out", str(out_path)], capsys)
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["size_law"]["2"]["fraction"] == "3/4"


def test_byte_identical_reruns(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        run(["chain", "--n", "100", "--replicates", "20", "--seed", "9",
             "--out", str(path)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_bad_flags_exit_two():
    with pytest.raises(SystemExit) as err:
        main(["sample-tree", "--n", "4", "--method", "bogus"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


def test_missing_mode_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["verify-symmetry", "--n", "5"])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["greedy", "--n", "5", "--replicates", "-3"],
    ["sample-tree", "--n", "5", "--count", "-2"],
    ["matching", "--n", "50", "--replicates", "2", "--jobs", "0"],
])
def test_nonpositive_counts_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith("must be a positive integer, got "
                                                  + argv[-1])


@pytest.mark.parametrize("argv", [
    ["enumerate", "--n", "3", "--format", "json"],
    ["exact-law", "--n", "3", "--format", "csv"],
    ["peel", "--n", "5", "--markov"],
])
def test_flags_that_do_nothing_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2


def _bad_input_cases(tmp_path):
    two = tmp_path / "two.txt"
    two.write_text("3;3,1\n3;3,2\n")
    return {
        "missing tree file": ["peel", "--fixed-tree", str(tmp_path / "missing.txt")],
        "two trees": ["peel", "--fixed-tree", str(two), "--alg", "ab"],
        "peel without n": ["peel", "--alg", "ab"],
        "unwritable out": ["exact-law", "--n", "3",
                           "--out", str(tmp_path / "no-such-dir" / "law.json")],
    }


@pytest.mark.parametrize("case", ["missing tree file", "two trees",
                                  "peel without n", "unwritable out"])
def test_bad_input_exits_two_with_one_line(case, tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(_bad_input_cases(tmp_path)[case])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("cayley-greedy: error: ")


def test_bad_input_prints_no_traceback(tmp_path):
    argv = _bad_input_cases(tmp_path)["missing tree file"]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from cayley_greedy.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("cayley-greedy: error: ")


def test_cli_import_leaves_scipy_unloaded():
    # chi_square_uniform and ks_gaussian import scipy when called, not at start-up
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, cayley_greedy.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.stdout.strip() == "False"
