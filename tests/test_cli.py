"""CLI contract: formats, determinism, exit codes, error JSON."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

import orbitent.moment
import orbitent.report
from orbitent import apply_local, build_state, random_local_unitaries, save_state
from orbitent.cli import _build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    save_state(build_state([[0, 1], [1, 0]]), path)
    return str(path)


@pytest.fixture
def ghz_file(tmp_path):
    c = np.zeros((2, 2, 2)); c[0, 0, 0] = c[1, 1, 1] = 1
    path = tmp_path / "ghz.json"
    save_state(build_state(c), path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_bell_text(capsys, bell_file):
    code, out, err = run(capsys, "analyze", "--input", bell_file)
    assert code == 0 and not err
    assert "degeneracy D" in out and "3" in out
    assert "separable" in out and "no" in out


def test_analyze_bell_json_fields(capsys, bell_file):
    code, out, _ = run(capsys, "analyze", "--input", bell_file,
                       "--format", "json", "--oracle", "verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["orbit_dim"] == 3
    assert doc["coadjoint_dim"] == 0
    assert doc["degeneracy"] == 3
    assert doc["separable"] is False
    assert doc["oracle"]["consistent"] is True


def test_analyze_single_party_text_has_no_oracle_label(capsys, tmp_path):
    path = tmp_path / "qutrit.json"
    save_state(build_state([1.0, 1j, 0.0]), path)
    code, out, _ = run(capsys, "analyze", "--input", str(path))
    assert code == 0
    assert "numerical oracle" not in out


def test_analyze_json_is_byte_deterministic(capsys, ghz_file):
    _, first, _ = run(capsys, "analyze", "--input", ghz_file,
                      "--format", "json", "--oracle", "verify")
    _, second, _ = run(capsys, "analyze", "--input", ghz_file,
                       "--format", "json", "--oracle", "verify")
    assert first == second


def test_analyze_ghz_bounds_with_oracle(capsys, ghz_file):
    code, out, _ = run(capsys, "analyze", "--input", ghz_file,
                       "--format", "json", "--oracle", "verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["degeneracy"] == {"low": 3, "high": 9}
    assert 3 <= doc["oracle"]["degeneracy"] <= 9


def test_analyze_output_roundtrips(capsys, bell_file):
    _, out, _ = run(capsys, "analyze", "--input", bell_file, "--format", "json")
    doc = json.loads(out)
    again = json.dumps(doc, indent=2, sort_keys=True)
    assert json.loads(again) == doc


def test_schmidt_command(capsys, bell_file):
    code, out, _ = run(capsys, "schmidt", "--input", bell_file,
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["multiplicities"] == [2]
    assert doc["kernel_dim"] == 0
    assert doc["canonical_state"]["dims"] == [2, 2]
    assert len(doc["left_unitary"]) == 2


def test_schmidt_rejects_tripartite(capsys, ghz_file):
    code, _, err = run(capsys, "schmidt", "--input", ghz_file)
    assert code == 1
    assert json.loads(err)["error"] == "NotBipartite"


def test_canonical_command(capsys, bell_file):
    code, out, _ = run(capsys, "canonical", "--input", bell_file,
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["state"]["dims"] == [2, 2]
    assert len(doc["local_unitaries"]) == 2


def test_canonical_three_parties_takes_cluster_tol(capsys, tmp_path):
    c = np.zeros((2, 2, 2))
    c[0, 0, 0], c[1, 1, 1] = np.sqrt(0.5 + 1e-7), np.sqrt(0.5 - 1e-7)
    path = tmp_path / "near_ghz.json"
    save_state(build_state(c), path)
    code, _, err = run(capsys, "canonical", "--input", str(path))
    assert code == 2
    assert json.loads(err)["error"] == "AmbiguousClustering"
    code, out, err = run(capsys, "canonical", "--input", str(path),
                         "--cluster-tol", "1e-5", "--format", "json")
    assert code == 0 and not err
    assert len(json.loads(out)["local_unitaries"]) == 3


def _schmidt_file(tmp_path, name, weights, rng=None):
    """A (3,5) state with the given Schmidt weights, in random local bases
    when ``rng`` is given, saved as ``name``."""
    c = np.zeros((3, 5))
    c[range(3), range(3)] = np.sqrt(weights)
    state = build_state(c)
    if rng is not None:
        state = apply_local(state, random_local_unitaries((3, 5), rng=rng))
    path = tmp_path / name
    save_state(state, path)
    return str(path)


def test_tolerances_do_not_set_the_routes_against_each_other(capsys, tmp_path):
    """(3,5) states run the oracle under every mode.  With Schmidt weights
    (0.5, 0.25 +- 5e-6), a coarse cluster tolerance merges the pair for
    both routes.  With weights (0.9, 0.1 - 1e-5, 1e-5), both routes count
    the small weight's directions in D at the fixed rank cut, and no flag
    can move that cut."""
    near_pair = _schmidt_file(tmp_path, "near_pair.json", [0.5, 0.25 + 5e-6, 0.25 - 5e-6])
    small = _schmidt_file(tmp_path, "small_weight.json", [0.9, 0.1 - 1e-5, 1e-5], rng=3)
    code, out, _ = run(capsys, "analyze", "--input", small, "--rank-tol", "1e-3")
    assert code == 1 and not out  # a usage error, not a D read at another cut
    for path, tolerances, expected in [(near_pair, ("--cluster-tol", "1e-3"), (24, 20, 4)),
                                       (small, (), (26, 24, 2))]:
        for oracle in ("off", "verify"):
            code, out, err = run(capsys, "analyze", "--input", path,
                                 "--oracle", oracle, *tolerances, "--format", "json")
            assert code == 0 and not err
            doc = json.loads(out)
            assert (doc["orbit_dim"], doc["coadjoint_dim"], doc["degeneracy"]) == expected


def test_ks_check_two_qubits(capsys):
    code, out, _ = run(capsys, "ks-check", "--dims", "2,2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 4
    assert all(r["verdict"] == "symplectic" for r in doc["rows"])


def test_ks_check_refuses_64_qubits_by_its_enumeration_guard(capsys):
    code, out, err = run(capsys, "ks-check", "--dims", ",".join(["2"] * 64))
    assert code == 1 and not out
    assert json.loads(err) == {
        "error": "EnumerationTooLarge",
        "message": f"dense tensor of size {2**64} exceeds 1000000"}


def test_ks_check_bosonic_single_dim_means_two_particles(capsys):
    code, out, _ = run(capsys, "ks-check", "--dims", "3",
                       "--symmetry", "bosonic", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["dims"] == [3, 3]
    verdicts = [r["verdict"] for r in doc["rows"]]
    assert verdicts.count("symplectic") == 3
    assert verdicts.count("not_symplectic") == 3
    witnesses = [r["witness"] for r in doc["rows"] if r["witness"]]
    assert len(witnesses) == 3


def test_ks_check_fermionic_c4(capsys):
    code, out, _ = run(capsys, "ks-check", "--dims", "4",
                       "--symmetry", "fermionic", "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert len(doc["rows"]) == 6
    assert all(r["verdict"] == "symplectic" for r in doc["rows"])


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "--count", "5", "--dims", "2,2",
                       "--seed", "7", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] == 5 and doc["failed"] == 0


def test_verify_covers_every_symmetry_class(capsys):
    for dims, symmetry in [("3", "bosonic"), ("4,4,4", "fermionic"),
                           ("2,3", "distinguishable")]:
        code, out, _ = run(capsys, "verify", "--count", "5", "--dims", dims,
                           "--symmetry", symmetry, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] == 5 and doc["mode"] == "none"


@pytest.mark.parametrize("argv, message", [
    (("verify", "--dims", "4,4,4,4,4", "--symmetry", "fermionic"),
     "the antisymmetric space of 5 particles in dimension 4 is trivial"),
    (("ks-check", "--dims", "4,4,4,4,4", "--symmetry", "fermionic"),
     "the antisymmetric space of 5 particles in dimension 4 is trivial"),
    (("verify", "--dims", "0"), "every local dimension must be >= 2"),
    (("verify", "--dims", "1"), "every local dimension must be >= 2"),
    (("ks-check", "--dims", "1"), "every local dimension must be >= 2"),
])
def test_bad_dims_exit_1_with_one_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out
    assert json.loads(err) == {"error": "DimensionMismatch", "message": message}


def test_document_with_a_zero_dim_exits_1_with_dimension_mismatch(capsys, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"symmetry": "distinguishable", "dims": [2, 0],
                                "coeffs": [[], []]}))
    code, out, err = run(capsys, "analyze", "--input", str(path))
    assert code == 1 and not out
    assert json.loads(err) == {"error": "DimensionMismatch",
                               "message": "every local dimension must be >= 2"}


def test_analyze_verify_inconsistency_carries_the_state(capsys, bell_file,
                                                       monkeypatch):
    import orbitent.report
    monkeypatch.setattr(orbitent.report, "orbit_dimension_bipartite",
                        lambda clustering, n: 4)
    code, _, err = run(capsys, "analyze", "--input", bell_file,
                       "--oracle", "verify")
    assert code == 1
    doc = json.loads(err)
    assert doc["error"] == "Inconsistency"
    assert doc["record"]["mode"] == "exact"
    assert doc["record"]["state"]["dims"] == [2, 2]


def test_verify_refusal_names_the_first_refused_state(capsys):
    # state 803 of this seed is refused; verify analyzes states in chunks,
    # and a refused chunk is replayed state by state
    code, out, err = run(capsys, "verify", "--count", "1000", "--dims", "3,3",
                         "--seed", "46", "--format", "json")
    assert code == 2 and not out
    assert json.loads(err) == {
        "error": "AmbiguousClustering",
        "message": "eigenvalue 7.886e-08 lies within a factor 10 of the "
                   "threshold 6.840e-08; adjust the tolerance"}


@pytest.mark.parametrize("option, value", [
    ("--count", "0"), ("--count", "-1"), ("--seed", "-1")])
def test_verify_refuses_a_count_or_seed_out_of_range(capsys, option, value):
    argv = {"--count": "3", "--seed": "0", option: value}
    code, out, err = run(capsys, "verify", "--dims", "2,2",
                         *(item for pair in argv.items() for item in pair))
    assert code == 1 and not out
    doc = json.loads(err)
    assert doc["error"] == "ValueError" and option in doc["message"]


def test_verify_seed_determinism(capsys):
    _, first, _ = run(capsys, "verify", "--count", "3", "--dims", "2,2,2",
                      "--seed", "9", "--format", "json")
    _, second, _ = run(capsys, "verify", "--count", "3", "--dims", "2,2,2",
                       "--seed", "9", "--format", "json")
    assert first == second


def test_missing_file_exits_1_with_json_error(capsys):
    code, _, err = run(capsys, "analyze", "--input", "/nonexistent.json")
    assert code == 1
    doc = json.loads(err)
    assert "error" in doc and "message" in doc


def test_malformed_document_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"symmetry": "distinguishable", "dims": [2, 2]}')
    code, _, err = run(capsys, "analyze", "--input", str(bad))
    assert code == 1
    assert json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize("text", [
    "[" * 100000,  # the JSON decoder runs out of stack
    json.dumps({"symmetry": "distinguishable", "dims": [1] * 900,
                "coeffs": json.loads("[" * 900 + "1" + "]" * 900)}),
], ids=["decoder", "parser"])
def test_deeply_nested_document_exits_1_with_json_error(capsys, tmp_path,
                                                        text):
    deep = tmp_path / "deep.json"
    deep.write_text(text)
    code, out, err = run(capsys, "analyze", "--input", str(deep),
                         "--format", "json")
    assert code == 1 and not out
    assert json.loads(err)["error"] == "ValueError"


def test_ambiguous_clustering_exits_2(capsys, tmp_path):
    p1 = np.sqrt(0.5 + 2.5e-8)
    p2 = np.sqrt(0.5 - 2.5e-8)
    state = build_state(np.diag([p1, p2]))
    path = tmp_path / "near.json"
    save_state(state, path)
    code, _, err = run(capsys, "analyze", "--input", str(path))
    assert code == 2
    assert json.loads(err)["error"] == "AmbiguousClustering"


def test_bad_tolerance_exits_1(capsys, bell_file):
    code, _, err = run(capsys, "analyze", "--input", bell_file,
                       "--cluster-tol", "0.5")
    assert code == 1
    assert json.loads(err)["error"] == "ValueError"


def test_a_request_too_large_for_memory_exits_1(capsys, monkeypatch):
    """An allocation numpy refuses, such as the reduced matrices of
    ``verify --dims 1000000``, leaves as one JSON error on stderr."""
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 14.6 TiB")
    monkeypatch.setattr(orbitent.report, "reduced_matrices", refuse)
    code, out, err = run(capsys, "verify", "--dims", "2,2", "--count", "1")
    assert code == 1 and not out
    assert json.loads(err) == {"error": "MemoryError",
                               "message": "Unable to allocate 14.6 TiB"}


def test_one_party_too_large_for_its_reduced_matrix_is_refused(capsys, monkeypatch):
    """A party of dim 10^6 would need a 16 TB reduced matrix: the closed
    forms refuse it, naming the bytes, before building anything of it."""
    def unreached(*args, **kwargs):
        raise AssertionError("the reduced matrices of a refused stack were built")
    monkeypatch.setattr(orbitent.moment, "party_rows", unreached)
    code, out, err = run(capsys, "verify", "--dims", "1000000", "--count", "1")
    assert code == 1 and not out
    assert json.loads(err) == {
        "error": "EnumerationTooLarge",
        "message": f"the reduced matrices need {16 * 10**12} bytes for a stack of 1 "
                   f"at dims (1000000,), above the budget of {2**28} bytes"}


def test_refusals_end_with_what_the_user_can_do(capsys, tmp_path):
    """A clustering refusal points at the tolerance, which --cluster-tol
    moves; a rank refusal names the fixed rank cut, which nothing moves."""
    near = tmp_path / "near.json"
    save_state(build_state(np.diag(np.sqrt([0.5 + 2.5e-8, 0.5 - 2.5e-8]))), near)
    code, _, err = run(capsys, "analyze", "--input", str(near))
    assert code == 2
    assert json.loads(err) == {
        "error": "AmbiguousClustering",
        "message": "spectral gap 5.000e-08 lies within a factor 10 of the threshold "
                   "5.000e-08; adjust the tolerance"}
    # Bell (x) |0> plus a small random part: a metric eigenvalue near the cut
    c = np.zeros((2, 2, 2)); c[0, 1, 0] = c[1, 0, 0] = 1 / np.sqrt(2)
    rng = np.random.default_rng(0)
    u = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    close = tmp_path / "close.json"
    save_state(build_state(c + 1e-4 * u / np.linalg.norm(u)), close)
    code, _, err = run(capsys, "analyze", "--input", str(close), "--oracle", "verify")
    assert code == 2
    doc = json.loads(err)
    assert doc["error"] == "RankUnstable"
    assert re.fullmatch(
        r"orbit Gram matrix: singular value \d\.\d{3}e-\d\d lies within a factor 10 "
        r"of the threshold \d\.\d{3}e-\d\d; the rank cut RANK_TOL = 1e-08 is fixed, "
        r"so the refusal is final", doc["message"]), doc["message"]


def test_cluster_tol_flag_reaches_the_report(capsys, bell_file):
    code, out, _ = run(capsys, "analyze", "--input", bell_file,
                       "--cluster-tol", "1e-6", "--format", "json")
    assert code == 0
    assert '"tolerance": 1e-06' in out


def test_env_var_leaves_default_tolerance(capsys, bell_file, monkeypatch):
    monkeypatch.setenv("ORBITENT_DEFAULT_TOL", "1e-6")
    code, out, _ = run(capsys, "analyze", "--input", bell_file,
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["clusterings"][0]["tolerance"] == 1e-7


def test_commands_take_only_the_tolerances_they_use(capsys, bell_file):
    assert run(capsys, "ks-check", "--dims", "2,2",
               "--cluster-tol", "1e-3")[0] == 1
    assert run(capsys, "ks-check", "--dims", "2,2", "--rank-tol", "1e-3")[0] == 1
    # the oracle's rank cut is fixed: no command takes a rank tolerance
    assert run(capsys, "analyze", "--input", bell_file, "--rank-tol", "1e-8")[0] == 1
    assert run(capsys, "verify", "--dims", "2,2", "--count", "1",
               "--rank-tol", "1e-8")[0] == 1
    for command in ("schmidt", "canonical"):
        assert run(capsys, command, "--input", bell_file,
                   "--rank-tol", "1e-3")[0] == 1
        assert run(capsys, command, "--input", bell_file,
                   "--cluster-tol", "1e-3")[0] == 0


def test_usage_error_exits_1(capsys):
    assert main(["analyze"]) == 1  # missing --input


def test_boson_convention_flag(capsys, tmp_path):
    from orbitent import BOSONIC, symmetrize
    pair = symmetrize(np.outer([1, 0, 0], [0, 1, 0]), BOSONIC)
    path = tmp_path / "pair.json"
    save_state(pair, path)
    _, out_a, _ = run(capsys, "analyze", "--input", str(path),
                      "--format", "json",
                      "--boson-convention", "symmetric-simple-tensor")
    _, out_b, _ = run(capsys, "analyze", "--input", str(path),
                      "--format", "json",
                      "--boson-convention", "product-of-same-vector")
    assert json.loads(out_a)["separable"] is True
    assert json.loads(out_b)["separable"] is False


def _readme_flags():
    """README's "Flags per command" table as {command: {option: choices}},
    the choices None where the table names a value (``FILE``, ``X``); the
    ``--format`` sentence above the table adds to every command."""
    section = README.read_text(encoding="utf-8").split("Flags per command", 1)[1]
    common = re.match(r" \(every command also takes `([^`]*)`\)", section).group(1)
    table = {}
    for line in section.splitlines():
        if not line.startswith("| `"):
            if table:
                break
            continue
        command, flags = re.split(r"(?<!\\)\|", line)[1:3]
        options = re.findall(r"`(--[^`]*)`", flags) + [common]
        table[command.strip().strip("`")] = dict(map(_readme_flag, options))
    return table


def _readme_flag(text):
    name, _, value = text.replace("\\|", "|").partition(" ")
    return name, tuple(value.split("|")) if "|" in value else None


def _parser_flags():
    """{command: {option: choices}} of the parser, help excluded."""
    subparsers = next(a for a in _build_parser()._actions if a.choices)
    return {command: {a.option_strings[-1]: a.choices and tuple(a.choices)
                      for a in sub._actions if a.dest != "help"}
            for command, sub in subparsers.choices.items()}


def test_readme_flags_table_matches_the_parser():
    """Every option of every command, and every choice of each, appears
    in the table, and nothing else does."""
    assert _readme_flags() == _parser_flags()
