import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from commcoh import cli, linalg, structure
from commcoh.cli import main, parse_algebra, render_text
from commcoh.field import make_field
from commcoh.algebra import AlgebraPresentation
from commcoh.cochain import CochainSpace
from commcoh.cohomology import CohomologyResult
from commcoh.linalg import Matrix
from oracles import shift_first_map1_coordinate

GF2 = make_field(1)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_algebra(tmp_path, name, algebra):
    path = tmp_path / name
    path.write_text(json.dumps(algebra.to_json()))
    return str(path)


def square_file(tmp_path):
    a = AlgebraPresentation(GF2, 3, ["x", "y", "w"], {(0, 0): {1: 1}})
    return write_algebra(tmp_path, "square.json", a)


def broken_file(tmp_path):
    # [u,u] = v together with [u,v] = u fails the Jacobi identity
    a = AlgebraPresentation(GF2, 2, ["u", "v"], {(0, 0): {1: 1}, (0, 1): {0: 1}})
    return write_algebra(tmp_path, "broken.json", a)


# ------------------------------------------------------------------
# happy paths, one per subcommand
# ------------------------------------------------------------------


def test_check_builder(capsys):
    code, out, _ = run(capsys, "check", "--algebra", "heisenberg:1")
    assert code == 0
    assert "jacobi_ok: yes" in out
    assert "is_lie: yes" in out


def test_cohomology_dims(capsys):
    code, out, _ = run(capsys, "cohomology", "--algebra", "dim2", "--max-degree", "4")
    assert code == 0
    for n in range(5):
        assert f"degree={n}" in out or f"degree: {n}" in out
    assert "dimH=3" in out


def test_cohomology_json_matches_text_run(capsys):
    argv = ["cohomology", "--algebra", "heisenberg:1", "--max-degree", "3", "--format", "json"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert [b["dimH"] for b in payload["degrees"]] == [1, 2, 4, 6]


@pytest.mark.parametrize(
    "algebra, flavor, dims",
    [
        ("abelian:0", "comm", [1, 0, 0, 0]),
        ("abelian:0", "alt", [1, 0, 0, 0]),
        ("abelian:0", "leibniz", [1, 0, 0, 0]),
        ("abelian:1", "comm", [1, 1, 1, 1]),
        ("abelian:1", "alt", [1, 1, 0, 0]),
        ("abelian:1", "leibniz", [1, 1, 1, 1]),
    ],
)
def test_cohomology_of_dimension_zero_and_one(capsys, algebra, flavor, dims):
    code, out, _ = run(
        capsys, "cohomology", "--algebra", algebra, "--flavor", flavor,
        "--max-degree", "3", "--format", "json",
    )
    assert code == 0
    assert [b["dimH"] for b in json.loads(out)["degrees"]] == dims


def test_cocycles2_lists_extensions(capsys):
    code, out, _ = run(capsys, "cocycles2", "--algebra", "heisenberg:1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dimH"] == 4
    assert len(payload["central_extensions"]) == 4
    assert all(e["dim"] == 4 and e["splits"] is False for e in payload["central_extensions"])


def test_cupring(capsys):
    code, out, _ = run(capsys, "cupring", "--algebra", "dim2", "--max-degree", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dims"] == [1, 1, 2, 2, 3]


def test_morse_heisenberg_fast_path(capsys):
    code, out, _ = run(capsys, "morse", "--algebra", "heisenberg:1", "--max-degree", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["agrees"] is True
    assert payload["reduced_dims"][:4] == [1, 2, 4, 6]
    assert "matching" not in payload  # gated behind --reps


def test_morse_checks_field_degree(capsys, monkeypatch):
    # the Heisenberg matching is built over GF(2); every other field parses
    # like any algebra and goes through the greedy matching
    for bad in ("17", "0"):
        code, _, err = run(capsys, "morse", "--algebra", "heisenberg:1", "--field-degree", bad)
        assert code == 1 and "field degree" in err
    fast = []
    real = cli.heisenberg_matching
    monkeypatch.setattr(cli, "heisenberg_matching", lambda *a: fast.append(a) or real(*a))
    for degree in ("2", "1"):
        code, _, _ = run(capsys, "morse", "--algebra", "heisenberg:1", "--field-degree", degree)
        assert code == 0
    assert fast == [(1, 3)]


def test_morse_without_reps_reads_no_label(capsys, monkeypatch):
    argv = ["morse", "--algebra", "zassenhaus-e:2", "--module", "adjoint", "--format", "json"]
    code, with_reps, _ = run(capsys, *argv, "--reps")
    assert code == 0
    full = json.loads(with_reps)

    def no_label(self, flat):
        raise AssertionError("a label was made but never printed")

    monkeypatch.setattr(CochainSpace, "label", no_label)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    del full["matching"], full["unmatched_labels"]
    assert out == json.dumps(full, indent=2) + "\n"


def test_basis_names_may_not_hold_label_delimiters(capsys, tmp_path):
    data = {
        "field": GF2.to_json(),
        "dim": 4,
        "basis": ["a,b", "c", "a", "b,c"],
        "brackets": [],
    }
    path = tmp_path / "commas.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "morse", "--algebra", str(path), "--max-degree", "3")
    assert code == 1
    assert err.startswith("error: basis name 'a,b' contains one of")


def test_morse_reps_includes_matching(capsys):
    code, out, _ = run(
        capsys, "morse", "--algebra", "dim2", "--max-degree", "3", "--reps", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["agrees"] is True
    assert payload["matching"]
    assert payload["unmatched_labels"]


def test_sequence(capsys):
    code, out, _ = run(capsys, "sequence", "--algebra", "heisenberg:2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True


def test_compare(capsys):
    code, out, _ = run(capsys, "compare", "--algebra", "heisenberg:1", "--max-degree", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    row = payload["degrees"][2]
    assert row["alt_to_comm"]["rank"] == 2
    assert row["comm_to_leibniz"]["injective"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--algebra", "zassenhaus-e:3", "--max-degree", "2"],
        ["check", "--algebra", "zassenhaus-e:3"],
    ],
    ids=["compare", "check"],
)
def test_a_command_checks_the_jacobi_identity_once(capsys, monkeypatch, argv):
    # compare asks once itself and once per alternating comparison; check asks
    # for the violations and then whether the algebra is Lie
    calls = []
    jacobi = AlgebraPresentation.jacobi_violations
    monkeypatch.setattr(
        AlgebraPresentation, "jacobi_violations", lambda self: calls.append(self) or jacobi(self)
    )
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert len(calls) == 1


RECORDED = {
    # the bytes of the two-step inclusions, alternating -> symmetric -> tensor
    "compare_zassenhaus_e3": ("compare", "--algebra", "zassenhaus-e:3", "--max-degree", "3"),
    # the bytes of the four-term sequence over GF(2) and over GF(8)
    "sequence_heisenberg2": ("sequence", "--algebra", "heisenberg:2"),
    "sequence_zassenhaus_f3": ("sequence", "--algebra", "zassenhaus-f:3"),
    "sequence_zassenhaus_f4": ("sequence", "--algebra", "zassenhaus-f:4", "--cap", "5000000"),
}


@pytest.mark.parametrize("recorded", list(RECORDED))
def test_compare_prints_the_recorded_bytes(capsys, monkeypatch, recorded):
    # every verdict of compare and sequence is a rank, and exactness a rank and
    # a zero composition, so the bytes hold with subspace equality gone
    def no_equality(self, other):
        raise AssertionError("a verdict compared two subspaces")

    monkeypatch.setattr(linalg.Subspace, "__eq__", no_equality)
    want = (Path(__file__).parent / f"{recorded}.json").read_text()
    code, out, err = run(capsys, *RECORDED[recorded], "--format", "json")
    assert code == 0, err
    assert out == want


def test_a_sequence_that_is_not_exact_exits_2(capsys, monkeypatch):
    # no defect, but map2 after map1 is nonzero (see
    # test_exactness_needs_a_zero_composition_besides_the_ranks)
    shift_first_map1_coordinate(monkeypatch, 3)
    code, out, _ = run(capsys, "sequence", "--algebra", "heisenberg:1", "--format", "json")
    payload = json.loads(out)
    assert code == 2
    assert payload["defects"] == [] and payload["exact_at_H1_dual"] is False
    assert payload["ok"] is False


def test_a_comparison_with_unrecognized_classes_exits_2(capsys, monkeypatch):
    # every image misses, so every rank reads 0 (see
    # test_unrecognized_images_are_defects_with_zero_columns)
    monkeypatch.setattr(CohomologyResult, "class_coordinates", lambda self, vec: None)
    argv = ("compare", "--algebra", "heisenberg:1", "--max-degree", "2", "--format", "json")
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert json.loads(out)["degrees"][2]["comm_to_leibniz"]["rank"] == 0


def test_basechange(capsys):
    code, out, _ = run(
        capsys, "basechange", "--algebra", "dim2", "--field-degree", "2", "--max-degree", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["all_match"] is True


def test_scan_lie_has_three_flavors(capsys):
    code, out, _ = run(capsys, "scan", "--algebra", "dim2", "--max-degree", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["is_lie"] is True
    assert set(payload["degrees"][0]) == {"degree", "symmetric", "tensor", "alternating"}


# ------------------------------------------------------------------
# file input and output
# ------------------------------------------------------------------


def test_algebra_from_file_and_out(capsys, tmp_path):
    path = square_file(tmp_path)
    dest = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "scan", "--algebra", path, "--max-degree", "2", "--out", str(dest), "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["is_lie"] is False
    assert "alternating" not in payload["degrees"][0]
    assert json.loads(dest.read_text()) == payload


def test_a_payload_is_dumped_once_for_the_out_file_and_stdout(capsys, tmp_path, monkeypatch):
    dumps, calls = json.dumps, []
    monkeypatch.setattr(json, "dumps", lambda *args, **kw: calls.append(1) or dumps(*args, **kw))
    dest = tmp_path / "ring.json"
    argv = ["cupring", "--algebra", "heisenberg:1", "--max-degree", "3", "--out", str(dest)]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert (code, len(calls)) == (0, 1)
    assert dest.read_bytes() == out.encode()
    code, text, _ = run(capsys, *argv)
    assert (code, len(calls)) == (0, 2)
    assert dest.read_bytes() == out.encode() and text != out


@pytest.mark.parametrize("module", ["adjoint", "dual"])
def test_check_on_a_nonzero_square_ideal(capsys, tmp_path, module):
    # [x, x] = y: the square ideal is span(y), so check runs its centrality
    # test on a nonzero square; payload recorded before these layers moved
    # onto packed rows, less the violation lists that were always empty
    code, out, _ = run(
        capsys, "check", "--algebra", square_file(tmp_path), "--module", module, "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {
        "algebra": {"dim": 3, "field_degree": 1, "basis": ["x", "y", "w"]},
        "jacobi_ok": True,
        "is_lie": False,
        "square_ideal_dim": 1,
        "module": {"dim": 3},
    }


def test_module_from_file(capsys, tmp_path):
    mod = tmp_path / "mod.json"
    # a two-dimensional module over the one-dimensional algebra, nilpotent action
    mod.write_text(json.dumps({"dim": 2, "actions": [[["0", "1"], ["0", "0"]]]}))
    code, out, _ = run(
        capsys, "cohomology", "--algebra", "abelian:1", "--module", str(mod),
        "--max-degree", "3", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert [b["dimH"] for b in payload["degrees"]] == [1, 1, 1, 1]


# ------------------------------------------------------------------
# failure modes and exit codes
# ------------------------------------------------------------------


def test_unknown_builder_exits_1(capsys):
    code, _, err = run(capsys, "cohomology", "--algebra", "nosuch:3")
    assert code == 1
    assert "unknown algebra" in err


def test_non_integer_builder_parameter_is_an_unknown_algebra(capsys):
    expected = (
        "error: unknown algebra {!r}; expected dim2, abelian:d, heisenberg:l, "
        "zassenhaus-e:n, zassenhaus-f:n, or a JSON file path\n"
    )
    for text in ("heisenberg:1,2", "heisenberg:x", "abelian:2,x"):
        code, out, err = run(capsys, "cohomology", "--algebra", text)
        assert (code, out, err) == (1, "", expected.format(text)), text


def test_jacobi_violation_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "cohomology", "--algebra", broken_file(tmp_path))
    assert code == 2
    assert "Jacobi" in err


def test_alternating_needs_lie_exits_1(capsys, tmp_path):
    code, _, err = run(
        capsys, "cohomology", "--algebra", square_file(tmp_path), "--flavor", "alt"
    )
    assert code == 1
    assert "alternating" in err


def test_zassenhaus_f_rejects_field_degree(capsys):
    code, _, err = run(
        capsys, "cohomology", "--algebra", "zassenhaus-f:2", "--field-degree", "2"
    )
    assert code == 1
    assert "field" in err


def test_basechange_needs_extension(capsys):
    code, _, err = run(capsys, "basechange", "--algebra", "dim2", "--field-degree", "1")
    assert code == 1


def test_degree_cap_blocks(capsys):
    code, _, err = run(
        capsys, "cohomology", "--algebra", "dim2", "--max-degree", "6", "--degree-cap", "4"
    )
    assert code == 1
    assert "degree" in err.lower()


def test_degree_cap_fails_before_any_work(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("work began before the degree cap was checked")

    for name in ("cohomology", "ring_table", "complex_from_cochains", "heisenberg_matching"):
        monkeypatch.setattr(cli, name, no_work)
    # the handlers import the structure maps when they run
    for name in ("base_change", "comparison_comm_to_leibniz"):
        monkeypatch.setattr(structure, name, no_work)
    h8 = (
        "error: H^8 needs cochains of degree 9, but degree 9 exceeds the cap 8; "
        "raise it with --degree-cap\n"
    )
    for argv, want in (
        (["cohomology", "--algebra", "heisenberg:1", "--flavor", "leibniz", "--max-degree", "8"],
         h8),
        (["cohomology", "--algebra", "zassenhaus-e:3", "--max-degree", "8"], h8),
        (["cupring", "--algebra", "heisenberg:1", "--max-degree", "8"], h8),
        (["scan", "--max-degree", "8"], h8),
        (["compare", "--max-degree", "8"], h8),
        (["basechange", "--field-degree", "2", "--max-degree", "8"], h8),
        (
            ["cohomology", "--max-degree", "4", "--degree-cap", "4"],
            "error: H^4 needs cochains of degree 5, but degree 5 exceeds the cap 4; "
            "raise it with --degree-cap\n",
        ),
        (
            ["morse", "--algebra", "heisenberg:1", "--max-degree", "9"],
            "error: the complex to degree 9 needs cochains of degree 9, but degree 9 exceeds "
            "the cap 8; raise it with --degree-cap\n",
        ),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", want), argv


def test_a_builder_past_the_entry_cap_exits_1_before_it_builds(capsys):
    # the d x d bracket table is checked first, so a runaway size neither loops over
    # its d^2 pairs nor runs out of memory, and --cap lets a large algebra through
    for argv, d in (
        (["check", "--algebra", "zassenhaus-e:16"], 65535),
        (["cohomology", "--algebra", "abelian:30000000", "--max-degree", "0"], 30000000),
        (["cohomology", "--algebra", "zassenhaus-f:10", "--max-degree", "0"], 1023),
    ):
        code, out, err = run(capsys, *argv)
        want = f"error: {d} x {d} = {d * d} entries exceeds the cap 1000000\n"
        assert (code, out, err) == (1, "", want), argv
    code, out, _ = run(
        capsys, "cohomology", "--algebra", "abelian:1001", "--max-degree", "0", "--cap", "1002001"
    )
    assert code == 0 and "dimH=1" in out


def test_a_zassenhaus_n_past_the_cap_exits_1_before_it_computes_2_to_the_n(capsys):
    # 2^n for this n would take about 12 GB; it is a cap refusal, not an internal error
    n = 100_000_000_000
    for name in ("zassenhaus-e", "zassenhaus-f"):
        code, out, err = run(capsys, "check", "--algebra", f"{name}:{n}")
        want = f"error: (2^{n} - 1) x (2^{n} - 1) entries exceeds the cap 1000000\n"
        assert (code, out, err) == (1, "", want)


def test_bad_cap_and_unwritable_out_exit_1(capsys, tmp_path):
    code, _, err = run(capsys, "cohomology", "--algebra", "dim2", "--cap", "0")
    assert (code, err) == (1, "error: entry cap must be positive, got 0\n")
    code, _, err = run(capsys, "cohomology", "--algebra", "dim2", "--degree-cap", "-1")
    assert code == 1 and "degree cap" in err
    out = tmp_path / "missing" / "out.json"
    code, _, err = run(capsys, "cohomology", "--algebra", "dim2", "--out", str(out))
    assert code == 1 and err.startswith("error: ")


def test_closed_pipe_exits_quietly():
    # the reader is gone before the command prints, as with `| head -0`
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "commcoh.cli", "cupring", "--algebra", "heisenberg:1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (0, b"")


@pytest.mark.parametrize(
    "argv, want",
    [
        (["cohomology", "--algebra", "heisenberg:1", "--max-degree", "2", "--reps", "--format", "json"], 0),
        (["cohomology", "--algebra", "heisenberg:1", "--max-degree", "2", "--reps"], 0),
        (["cupring", "--algebra", "heisenberg:1", "--max-degree", "2", "--out", "{tmp}/out.json"], 0),
        (["cohomology", "--max-degree", "x"], 1),
        (["cohomology", "--algebra", "{broken}"], 2),
    ],
    ids=["json", "text", "out", "usage-error", "validation-failure"],
)
def test_a_process_prints_and_exits_as_main_returns(capsys, tmp_path, argv, want):
    # the exit hook that freezes the heap changes no byte of output and no exit code
    argv = [a.format(tmp=tmp_path, broken=broken_file(tmp_path)) for a in argv]
    code, out, err = run(capsys, *argv)
    written = (tmp_path / "out.json").read_bytes() if "--out" in argv else None
    (tmp_path / "out.json").unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "commcoh.cli", *argv], capture_output=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (want, out.encode(), err.encode())
    assert code == want and (out or want) and (err or not want)
    if written is not None:
        assert (tmp_path / "out.json").read_bytes() == written


def test_main_leaves_one_exit_hook_however_often_it_runs():
    # main registers gc.freeze as it finds it, so a counting stand-in counts the hooks
    # that run at exit; the printing hook, registered first, runs after them.  Two calls
    # add one callback slot to the interpreter's atexit array, not one per call.
    out = run_fresh(
        "import atexit, contextlib, gc, io; calls = []; freeze = gc.freeze; "
        "gc.freeze = lambda: calls.append(1) or freeze(); "
        "atexit.register(lambda: print(len(calls))); from commcoh.cli import main; "
        "slots = atexit._ncallbacks(); quiet = contextlib.redirect_stdout(io.StringIO()); "
        "quiet.__enter__(); codes = [main(['cohomology', '--max-degree', '1']) for _ in range(2)]; "
        "quiet.__exit__(None, None, None); print(codes, atexit._ncallbacks() - slots)"
    )
    assert out.split("\n") == ["[0, 0] 1", "1", ""]


def test_missing_file_exits_1(capsys, tmp_path):
    code, _, err = run(capsys, "check", "--algebra", "does-not-exist.json")
    assert code == 1
    missing = str(tmp_path / "missing.json")
    for argv in (["--algebra", missing], ["--algebra", "dim2", "--module", missing]):
        code, out, err = run(capsys, "cohomology", *argv)
        assert (code, out) == (1, "")
        assert err == f"error: [Errno 2] No such file or directory: {missing!r}\n"


def test_malformed_file_exits_1(capsys, tmp_path):
    # brackets written as a dict instead of a list of entries
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps({
        "field": {"characteristic": 2, "degree": 1, "modulus": 2},
        "dim": 2,
        "basis": ["u", "v"],
        "brackets": {"0,0": {"1": "1"}},
    }))
    code, _, err = run(capsys, "check", "--algebra", str(path))
    assert code == 1
    assert "brackets" in err


def test_malformed_bracket_entry_exits_1(capsys, tmp_path):
    path = tmp_path / "badentry.json"
    path.write_text(json.dumps({
        "field": {"characteristic": 2, "degree": 1, "modulus": 2},
        "dim": 2,
        "basis": ["u", "v"],
        "brackets": [{"j": 1, "value": {"0": "1"}}],
    }))
    code, _, err = run(capsys, "check", "--algebra", str(path))
    assert code == 1
    assert "malformed" in err


def test_bad_inputs_exit_1_as_user_errors(capsys, tmp_path):
    bad_module = tmp_path / "module.json"
    bad_module.write_text(json.dumps({"dim": 1}))
    not_an_object = tmp_path / "list.json"
    not_an_object.write_text(json.dumps([1, 2]))
    # a dimension that is not an int, and basis names that are not a list of strings
    bad_algebras = []
    for name, dim, basis in (("dim", "3", ["x", "y", "z"]), ("ints", 2, [1, 2]), ("str", 2, "ab")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({
            "field": {"characteristic": 2, "degree": 1, "modulus": 2},
            "dim": dim,
            "basis": basis,
            "brackets": [],
        }))
        bad_algebras.append(["cohomology", "--algebra", str(path)])
    # a module dimension or a bracket index that is a float, a string or a bool
    bad_modules = []
    for n, dim in enumerate((1.9, "1", True)):
        path = tmp_path / f"module{n}.json"
        path.write_text(json.dumps({"dim": dim, "actions": [[["0"]], [["0"]]]}))
        bad_modules.append(["cohomology", "--algebra", "dim2", "--module", str(path)])
    for n, i in enumerate((0.7, "0", True)):
        path = tmp_path / f"bracket{n}.json"
        data = {
            "field": {"characteristic": 2, "degree": 1, "modulus": 2},
            "dim": 2,
            "basis": ["a", "b"],
            "brackets": [{"i": i, "j": 1, "value": {"0": "1"}}],
        }
        path.write_text(json.dumps(data))
        bad_algebras.append(["cohomology", "--algebra", str(path)])
    # a bracket target key or a hex value in another integer spelling, and a bool field degree;
    # each file with the canonical spelling in its place passes `check`
    spellings = [
        (11, {"1_0": "1"}, {"10": "1"}),
        (2, {" 0": "1"}, {"0": "1"}),
        (2, {"0": " 1"}, {"0": "1"}),
        (2, {"0": "0x1"}, {"0": "1"}),
    ]
    for n, (dim, value, canonical) in enumerate(spellings):
        for name, val in ((f"spelling{n}", value), (f"canonical{n}", canonical)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({
                "field": {"characteristic": 2, "degree": 1, "modulus": 2},
                "dim": dim,
                "basis": [f"x{t}" for t in range(dim)],
                "brackets": [{"i": 0, "j": 1, "value": val}],
            }))
            argv = ["check", "--algebra", str(path)]
            if val is canonical:
                assert run(capsys, *argv)[0] == 0, argv
            else:
                bad_algebras.append(argv)
    for n, degree in enumerate((True, 1.0, "1")):
        path = tmp_path / f"degree{n}.json"
        path.write_text(json.dumps({
            "field": {"characteristic": 2, "degree": degree, "modulus": 2},
            "dim": 1,
            "basis": ["x"],
            "brackets": [],
        }))
        bad_algebras.append(["check", "--algebra", str(path)])
    for argv in [
        ["cohomology", "--algebra", "nosuch:3"],
        ["cohomology", "--algebra", "heisenberg:x"],
        ["cohomology", "--algebra", "dim2", "--module", str(bad_module)],
        ["check", "--algebra", str(not_an_object)],
    ] + bad_algebras + bad_modules:
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert err.startswith("error:"), argv


def test_a_negative_module_dimension_exits_1(capsys, tmp_path):
    # check once printed "dim": -1 with exit 0, and cohomology and morse failed on a shift
    path = tmp_path / "negative.json"
    path.write_text(json.dumps({"dim": -1, "actions": []}))
    for command in ("check", "cohomology", "morse"):
        code, out, err = run(capsys, command, "--algebra", "abelian:0", "--module", str(path))
        assert (code, out, err) == (1, "", "error: negative module dimension\n"), command


def test_usage_errors_exit_1_and_help_exits_0(capsys):
    for argv, reason in (
        (["cohomology", "--max-degree", "x"], "argument --max-degree"),
        (["cohomology", "--bogus"], "unrecognized arguments: --bogus"),
        (["morse", "--max-degree", "-1"], "argument --max-degree"),
        (["nosuch"], "invalid choice"),
        ([], "required: command"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert reason in err, argv
    for argv in (["--help"], ["morse", "--help"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "usage:" in out, argv


# every option a subcommand used to parse and then ignore
IGNORED = {
    "check": ("--flavor", "--max-degree", "--reps"),
    "cocycles2": ("--max-degree", "--reps"),
    "cupring": ("--module", "--flavor", "--reps"),
    "sequence": ("--module", "--flavor", "--max-degree", "--reps"),
    "compare": ("--flavor", "--reps"),
    "basechange": ("--reps",),
    "scan": ("--flavor", "--reps"),
}
OPTION_VALUES = {"--module": ["adjoint"], "--flavor": ["leibniz"], "--max-degree": ["2"], "--reps": []}


def test_each_subcommand_rejects_the_options_it_does_not_read(capsys):
    assert sum(len(options) for options in IGNORED.values()) == 17
    for command, options in IGNORED.items():
        for option in options:
            argv = [command, "--algebra", "dim2", option, *OPTION_VALUES[option]]
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, ""), argv
            assert f"unrecognized arguments: {option}" in err, argv


def test_unknown_and_missing_modules_say_what_they_are(capsys, tmp_path):
    code, _, err = run(capsys, "cohomology", "--module", "nosuch")
    assert code == 1
    assert err == (
        "error: unknown module 'nosuch'; expected trivial, adjoint, dual, or a JSON file path\n"
    )
    missing = tmp_path / "missing.json"
    code, _, err = run(capsys, "cohomology", "--module", str(missing))
    assert code == 1
    assert err.startswith("error: ") and "No such file" in err and str(missing) in err


@pytest.mark.parametrize(
    "argv",
    [
        ["cohomology", "--algebra", "heisenberg:1", "--flavor", "leibniz", "--max-degree", "5"],
        ["scan", "--algebra", "heisenberg:1", "--module", "adjoint", "--max-degree", "3"],
        ["basechange", "--algebra", "heisenberg:1", "--field-degree", "3", "--max-degree", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_dimension_commands_eliminate_only_for_ranks(capsys, monkeypatch, argv):
    # kernels, images and solves run _rref, and a quotient needs a kernel and an
    # image; ranks run _echelon alone
    def no_work(*args, **kwargs):
        raise AssertionError("a kernel, image, quotient or transpose on the dimensions path")

    monkeypatch.setattr(linalg, "_rref", no_work)
    monkeypatch.setattr(linalg.Matrix, "transpose", no_work)
    code, _, err = run(capsys, *argv)
    assert code == 0, err


@pytest.mark.parametrize(
    "argv",
    [
        ["cohomology", "--algebra", "zassenhaus-f:3", "--module", "adjoint", "--max-degree", "3",
         "--reps"],
        ["cocycles2", "--algebra", "heisenberg:2", "--module", "adjoint"],
    ],
    ids=lambda argv: argv[0],
)
def test_representative_commands_do_no_image_or_transpose(capsys, monkeypatch, argv):
    # Z is a kernel and B's pivots are the independent rows that its rank
    # found, so building representatives takes no image and no transpose
    def no_work(*args, **kwargs):
        raise AssertionError("an image or a transpose on the representatives path")

    for module in (linalg, importlib.import_module("commcoh.cohomology")):
        monkeypatch.setattr(module, "image_basis", no_work)
    monkeypatch.setattr(linalg.Matrix, "transpose", no_work)
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert "representatives" in out


def test_a_pivot_of_b_off_the_cocycles_is_not_blamed_on_the_user(capsys, monkeypatch):
    # the row profile of d_1 names a lane off Z^2's pivots in place of one of B^2's
    # pivots (see test_a_built_subspace_that_disagrees_with_the_ranks_is_a_complex_error)
    module = importlib.import_module("commcoh.cohomology")
    real = module.independent_rows

    def profile(d):
        rows = real(d)
        if d.nrows != 18 or d.ncols != 9:  # d_1 of heisenberg:1 adjoint
            return rows
        return rows[1:] + [17]  # Z^2 has no pivot at 17, its last lane

    monkeypatch.setattr(module, "independent_rows", profile)
    argv = ["cohomology", "--algebra", "heisenberg:1", "--module", "adjoint", "--max-degree", "2"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out
    code, out, err = run(capsys, *argv, "--reps")
    assert code == 3
    assert err.startswith("internal error: ComplexError") and "not a pivot of Z" in err
    assert "Traceback" not in err and out == ""


def test_a_corrupted_differential_is_not_blamed_on_the_user(capsys, monkeypatch):
    # d_1 plus a unit entry in each of its first rows, so d_2 d_1 != 0 (see
    # test_the_square_zero_check_catches_a_corrupted_differential)
    module = importlib.import_module("commcoh.cohomology")
    real = module.differential_matrix

    def corrupted(algebra, mod, degree, flavor):
        d = real(algebra, mod, degree, flavor)
        if degree != 1:
            return d
        rows = [r ^ (1 << i if i < d.ncols else 0) for i, r in enumerate(d.packed_rows())]
        return Matrix.from_packed(d.field, rows, d.ncols)

    monkeypatch.setattr(module, "differential_matrix", corrupted)
    argv = ["cohomology", "--algebra", "heisenberg:1", "--module", "adjoint", "--max-degree", "2"]
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert err.startswith("internal error: ComplexError")
    assert "Traceback" not in err and out == ""


def test_internal_key_error_is_not_blamed_on_the_user(capsys, monkeypatch):
    def broken(args):
        raise KeyError("h2_10")

    monkeypatch.setattr("commcoh.cli.cmd_cohomology", broken)
    code, out, err = run(capsys, "cohomology", "--algebra", "dim2")
    assert code == 3
    assert err.startswith("internal error: KeyError")
    assert "Traceback" not in err and out == ""


# ------------------------------------------------------------------
# odds and ends
# ------------------------------------------------------------------


def test_parse_algebra_flavors_of_spelling():
    assert parse_algebra("zassenhaus_e:2", 1).dim == 3  # basis e_{-1} .. e_{2^n - 3}
    assert parse_algebra("heisenberg:2", 1).dim == 5
    with pytest.raises(ValueError):
        parse_algebra("abelian", 1)


def test_render_text_shapes():
    lines = render_text({"a": 1, "b": [1, 2], "c": {"x": True}, "d": [{"y": 2}], "e": {}})
    text = "\n".join(lines)
    assert "a: 1" in text
    assert "b: [1, 2]" in text
    assert "c: x=yes" in text
    assert "- y=2" in text
    assert "e: {}" in text
    # lists of lists and empty lists, as a dict entry and as a list item: only a
    # dict entry puts a list of scalars on its own line
    nested = {"f": [[1, 2], []], "g": [], "h": [[[3]], {"z": [4]}]}
    assert render_text(nested) == [
        "f:", "  -", "    - 1", "    - 2", "  -",
        "g: []",
        "h:", "  -", "    -", "      - 3", "  -", "    z: [4]",
    ]


def test_console_script_installed():
    exe = shutil.which("commcoh")
    if exe is None:
        pytest.skip("package not installed with scripts on PATH")
    proc = subprocess.run(
        [exe, "cohomology", "--algebra", "dim2", "--max-degree", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "dimH" in proc.stdout


# ------------------------------------------------------------------
# what importing the package loads
# ------------------------------------------------------------------

# commcoh.__all__ before the structure maps were loaded on first access
PUBLIC_NAMES = {
    "AlgebraPresentation", "AxiomError", "BasedComplex", "Cochain", "CochainSpace",
    "CohomologyResult", "DegreeCapError", "FiniteField", "GF2", "Matching", "Matrix",
    "ModulePresentation", "MorseError", "NotACocycleError", "PresentationError", "RingTable",
    "SizeCapError", "Subspace", "abelian", "adjoint_module",
    "algebra", "alternating_invariant_forms", "base_change", "central_extension",
    "coboundary_witness", "cochain", "cochain_space", "cohomology",
    "comparison_comm_to_leibniz", "comparison_lie_to_comm", "complex_from_cochains",
    "contract", "cup", "degree_cap_override", "delta",
    "differential_matrix", "dim2", "dual_module", "entry_cap_override", "evaluate",
    "exact_sequence_check", "field", "greedy_matching", "heisenberg", "heisenberg_matching",
    "image_basis", "import_algebra", "import_module",
    "include_cochain", "inclusion_matrix", "kernel_basis",
    "lie_derivative", "linalg", "make_field", "module_from_actions", "morse",
    "morse_complex", "quotient_basis", "rank", "ring_table", "solve",
    "trivial_module", "validate_matching", "zassenhaus_e", "zassenhaus_f",
}


def run_fresh(code: str) -> str:
    """Standard output of `code` in a new interpreter without site-packages."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return proc.stdout


def test_cli_start_up_loads_no_unused_module():
    loaded = run_fresh(
        "import commcoh.cli, sys; "
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'typing', 'pathlib', "
        "'commcoh.structure') if m in sys.modules))"
    )
    assert loaded.split() == []


def test_every_public_name_resolves():
    out = run_fresh(
        "import json, sys, commcoh; "
        "before = 'commcoh.structure' in sys.modules; "
        "attrs = [n for n in commcoh.__all__ if getattr(commcoh, n, None) is not None]; "
        "star = {}; exec('from commcoh import *', star); "
        "print(json.dumps([before, commcoh.__all__, attrs, sorted(star), dir(commcoh)]))"
    )
    before, names, attrs, star, listed = json.loads(out)
    assert not before
    assert set(names) == PUBLIC_NAMES and len(names) == len(PUBLIC_NAMES)
    assert set(attrs) == PUBLIC_NAMES
    assert set(star) - {"__builtins__"} == PUBLIC_NAMES
    assert PUBLIC_NAMES <= set(listed)
