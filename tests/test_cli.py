"""Command-line interface: flags, formats, determinism, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


#: SHA-256 of the stdout and of the "final tree:" stderr line of Markov
#: explorations at fixed seeds; streams that are never drawn from are not
#: built, and that must not change what the drawn ones give
PEEL_SHA256 = {
    "peel --n 4 --alg unif --seed 7": (
        "328aed879b6d9c1b7544fd5994c989df3bd055e753bb46e96cdf3295aa0e7870",
        "9e48f816ad5b4ec50f25e46380f33ac699aa988d66319904d6946086e47a9c54"),
    "peel --n 8 --alg ab --seed 11": (
        "f583ef7cf3c8cc005d74cc93e75e9b09845b18e13bf352e64e219c772adeb8e8",
        "6513b5a2e165d21f8fc29ccd71a4db0c89f163262686a79f92757c688435dc49"),
}


@pytest.mark.parametrize("argv", sorted(PEEL_SHA256))
def test_peel_markov_golden_digest(argv, capsys):
    assert main(argv.split()) == 0
    captured = capsys.readouterr()
    final = [line for line in captured.err.splitlines() if line.startswith("final tree:")]
    assert len(final) == 1
    digests = tuple(hashlib.sha256(text.encode()).hexdigest()
                    for text in (captured.out, final[0]))
    assert digests == PEEL_SHA256[argv]


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
    assert lines[0] == "n,replicate,G,theta,E"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "40" and len(first) == 5 and all(first)


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
    # the constants are exact closed forms, so they print exactly
    assert payload["M"][0] == [0.75, -0.375, -0.375]
    assert payload["varG"] == 0.0625
    assert payload["varTheta"] == 0.75
    assert payload["covAB"] == -0.0625


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
        "f4d03b42d63e342860c36dc952314ff74d49a37fd2ada6ea787d050a362659e6",
    "matching --n 800 --replicates 60 --seed 24":
        "0daecf5bb882eeeef9e4e9294f3d383a37aedc985a9fd4d11c7d639cfaa22193",
    "max-is --n 800 --replicates 60 --seed 25":
        "dc2f469f6e5e5e254bee09ce94063a98f07ec213f9573e946009bf2968be7ed8",
}


#: SHA-256 of the stdout of the tree files, the report and outcome tables in
#: both formats and the two-sample symmetry TV, pinned so that the tables
#: stay byte-identical when their writers change
OUTPUT_SHA256 = {
    "verify-symmetry --mc --n 12 --replicates 20000 --seed 9":
        "3261d9b8540c220a01a8daa0c83132357dbc8bce490ecd56ec25e82671a4dac9",
    "clt --n 1000 --replicates 2000 --seed 42 --format json":
        "776922d199c6a48aae52a9292dff45e73cdacde6ac039a3b7202bf3b7be35f3e",
    "clt --n 1000 --replicates 2000 --seed 42 --format csv":
        "0dd3c430c13b543d57ee8916b69fa7539485dd00024f934d62c6cbecabbd2e69",
    "enumerate --n 5":
        "8e04d12516e198fa2a41e9a9a5acac533f17dc39108afd75078c4172edb46a6a",
    "sample-tree --n 50 --count 30 --seed 3 --method prufer":
        "2ed3cd8054f79601a5f6293d3dfba0e7b70d8db44cbc3abc4301d27254880548",
    "sample-tree --n 50 --count 30 --seed 3 --method aldous-broder":
        "4daa447a2ebee980401775e7c7a2fbe33a2578ce7f64c3bdc8f0674e51dc4def",
    "greedy --n 30 --replicates 3 --seed 8 --format json":
        "a1442de2524797621fc9c8d573f8a64c2c2b4efc99b32fb8ee2fb012f37c92f2",
    "chain --n 150 --replicates 4 --seed 22 --format json":
        "46df52aaf4b8c024873991affe4769afa5844e9c1272db581f650d0cc0beebfd",
}


@pytest.mark.parametrize("argv", sorted(SWEEP_SHA256))
def test_tree_sweep_golden_digest(argv, capsys):
    code, out = run(argv.split(), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_SHA256[argv]


@pytest.mark.parametrize("argv", sorted(OUTPUT_SHA256))
def test_output_golden_digest(argv, capsys):
    code, out = run(argv.split(), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == OUTPUT_SHA256[argv]


def test_pitman_sample_tree_golden_digest(capsys):
    # taken when the Pitman sampler drew through Generator.integers
    argv = "sample-tree --method pitman --n 50 --count 30 --seed 3"
    code, out = run(argv.split(), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "98b28f8ecb856b4cb2f68a4f2d15dbb41a5088ef1c77c73b33ee7c741b70f70e")


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
    ["greedy", "--n", "5", "--replicates", "0"],
    ["sample-tree", "--n", "5", "--count", "0"],
])
def test_nonpositive_counts_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    flag, value = argv[-2].removeprefix("--"), argv[-1]
    assert captured.err.splitlines() == [
        f"cayley-greedy: error: {flag} must be at least 1, got {value}"]


#: one subcommand of each parser that takes --seed
SEEDED_COMMANDS = [
    ["sample-tree", "--n", "4"],
    ["peel", "--n", "4"],
    ["greedy", "--n", "4", "--replicates", "2"],
    ["chain", "--n", "4", "--replicates", "2"],
    ["verify-symmetry", "--n", "4", "--mc", "--replicates", "2"],
    ["clt", "--n", "100", "--replicates", "100"],
    ["matching", "--n", "4", "--replicates", "2"],
    ["max-is", "--n", "4", "--replicates", "2"],
]


@pytest.mark.parametrize("argv", SEEDED_COMMANDS + [pytest.param(
    ["matching", "--n", "50", "--replicates", "4", "--jobs", "2"], id="matching-jobs-2",
)], ids=lambda a: a[0])
def test_negative_seed_exits_two(argv, capsys, monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool started before the seed was checked")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    with pytest.raises(SystemExit) as err:
        main(argv + ["--seed", "-1"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "cayley-greedy: error: seed must be at least 0, got -1"]


@pytest.mark.parametrize("argv", [
    ["enumerate", "--n", "3", "--format", "json"],
    ["exact-law", "--n", "3", "--format", "csv"],
    ["peel", "--n", "5", "--markov"],
    # deterministic commands read no seed
    ["enumerate", "--n", "3", "--seed", "5"],
    ["exact-law", "--n", "3", "--seed", "5"],
    # the exact check draws no random numbers
    ["verify-symmetry", "--exact", "--n", "5", "--seed", "3"],
    ["verify-symmetry", "--exact", "--n", "5", "--replicates", "10"],
])
def test_flags_that_do_nothing_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


def test_cross_check_with_mc_is_rejected(capsys):
    # --cross-check compares the exact law with enumeration; the Monte Carlo
    # check has nothing to cross-check
    with pytest.raises(SystemExit) as err:
        main(["verify-symmetry", "--mc", "--n", "10", "--replicates", "200",
              "--cross-check"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "cayley-greedy: error: --cross-check does nothing with --mc: it compares "
        "the exact law with enumeration"]


def test_exact_symmetry_refusal_leaves_the_mc_defaults(capsys):
    # --exact refuses --seed and --replicates; --mc without them still runs
    # 1000 replicates from the default seed
    assert main(["verify-symmetry", "--mc", "--n", "4"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "seed: 0x5eed\n"
    report = json.loads(captured.out)
    assert (report["replicates"], report["seed"]) == (1000, 0x5EED)


def _bad_input_cases(tmp_path):
    """Case name -> (argv, environment variables set for the run)."""
    two = tmp_path / "two.txt"
    two.write_text("3;3,1\n3;3,2\n")
    one = tmp_path / "one.txt"
    one.write_text("3;3,1\n")
    empty_field = tmp_path / "empty-field.txt"
    empty_field.write_text("3;3,,3\n")
    return {
        "missing tree file": (["peel", "--fixed-tree", str(tmp_path / "missing.txt")], {}),
        "two trees": (["peel", "--fixed-tree", str(two), "--alg", "ab"], {}),
        "fixed tree of another size": (["peel", "--fixed-tree", str(one), "--alg", "ab",
                                        "--n", "4"], {}),
        "empty parent field": (["peel", "--fixed-tree", str(empty_field), "--alg", "ab"], {}),
        "peel without n": (["peel", "--alg", "ab"], {}),
        "seed with a fixed tree": (["peel", "--fixed-tree", str(one), "--alg", "ab",
                                    "--seed", "5"], {}),
        "unwritable out": (["exact-law", "--n", "3",
                            "--out", str(tmp_path / "no-such-dir" / "law.json")], {}),
        "cap not an integer": (["enumerate", "--n", "3"], {"CAYLEY_GREEDY_CAP": "abc"}),
        "negative cap": (["exact-law", "--n", "3"], {"CAYLEY_GREEDY_CAP": "-1"}),
        # labels past 63 do not fit the enumeration's 64-bit masks
        "enumeration past the mask width": (["enumerate", "--n", "64"],
                                            {"CAYLEY_GREEDY_CAP": "64"}),
        # n*n past 2**53 is not exact in the chain's float64 lanes
        "chain past exact floats": (["chain", "--n", "94906266", "--replicates", "1"], {}),
        # every size goes through one check, whose message names the argument
        "greedy with no vertices": (["greedy", "--n", "0"], {}),
        "exact law with no vertices": (["exact-law", "--n", "0"], {}),
        "clt below its size": (["clt", "--n", "50"], {}),
    }


@pytest.mark.parametrize("case", ["missing tree file", "two trees",
                                  "fixed tree of another size", "empty parent field",
                                  "peel without n", "seed with a fixed tree",
                                  "unwritable out", "cap not an integer",
                                  "negative cap", "enumeration past the mask width",
                                  "chain past exact floats", "greedy with no vertices",
                                  "exact law with no vertices",
                                  "clt below its size"])
def test_bad_input_exits_two_with_one_line(case, tmp_path, capsys, monkeypatch):
    argv, env = _bad_input_cases(tmp_path)[case]
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("cayley-greedy: error: ")
    # a bad environment variable is named, with its value
    assert all(name in lines[0] and value in lines[0] for name, value in env.items())


def test_bad_input_prints_no_traceback(tmp_path):
    argv, _ = _bad_input_cases(tmp_path)["missing tree file"]
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
    # chi_square_uniform and ks_gaussian import scipy when called, not at
    # start-up; numpy.random loads on a stream's first draw, and the process
    # pool only for a sweep with more than one worker
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, cayley_greedy.cli; "
         "print([m for m in ('scipy', 'numpy.random', 'concurrent.futures.process',"
         " 'multiprocessing') if m in sys.modules])"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# Flag grammar
# ---------------------------------------------------------------------------

#: each subcommand's own flags (--out is left out: it writes files); fluid
#: takes no other, so every flag drawn for it is foreign
COMMAND_FLAGS = {
    "sample-tree": ["--n", "--seed", "--count", "--method"],
    "enumerate": ["--n"],
    "peel": ["--n", "--seed", "--alg", "--fixed-tree"],
    "greedy": ["--n", "--seed", "--replicates", "--format"],
    "chain": ["--n", "--seed", "--replicates", "--format"],
    "exact-law": ["--n"],
    "verify-symmetry": ["--n", "--seed", "--replicates", "--exact", "--mc",
                        "--cross-check"],
    "clt": ["--n", "--seed", "--replicates", "--format"],
    "matching": ["--n", "--seed", "--replicates", "--jobs"],
    "max-is": ["--n", "--seed", "--replicates", "--jobs"],
    "fluid": [],
}

#: every flag with the values tried for it; sizes stay tiny and --jobs
#: never asks for a second process
FLAG_VALUES = {
    "--n": ["-1", "0", "1", "2", "3", "5", "0x3", "x"],
    "--seed": ["0", "7", "-1", "0x1F", "-0x2", "abc"],
    "--replicates": ["1", "3", "0", "-2"],
    "--count": ["1", "3", "0", "-2"],
    "--jobs": ["1", "0", "-1"],
    "--method": ["prufer", "pitman", "aldous-broder", "bogus"],
    "--alg": ["unif", "ab", "greedy", "bogus"],
    "--format": ["csv", "json", "xml"],
    "--fixed-tree": ["no-such-tree-file.txt"],
    "--exact": [],
    "--mc": [],
    "--cross-check": [],
}

#: a valid size, put first in three lines out of four so that commands
#: run to the end; clt refuses fewer than 100 vertices or replicates
SIZES = {"clt": ["--n", "100", "--replicates", "100"]}


def flag_use(flags):
    """(flag, value) with a value of the flag's own; None leaves it out."""
    return st.sampled_from(flags).flatmap(lambda flag: st.tuples(
        st.just(flag), st.sampled_from([*FLAG_VALUES[flag], None])))


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from([*COMMAND_FLAGS, "bogus"]))
    argv = [command]
    if draw(st.integers(0, 3)) > 0:
        argv += SIZES.get(command, ["--n", draw(st.sampled_from(["1", "4"]))])
    # the command's own flags, then in a quarter of the lines any flag at all
    own = COMMAND_FLAGS.get(command) or sorted(FLAG_VALUES)
    flags = draw(st.lists(flag_use(own), max_size=3))
    if draw(st.integers(0, 3)) == 0:
        flags.append(draw(flag_use(sorted(FLAG_VALUES))))
    for flag, value in flags:
        argv += [flag] if value is None else [flag, value]
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=command_lines())
def test_flag_grammar_never_raises(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().splitlines()[-1].startswith("cayley-greedy")
