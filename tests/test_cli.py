"""CLI contract: formats, determinism, exit codes, error JSON."""

import json

import numpy as np
import pytest

from orbitent import build_state, save_state
from orbitent.cli import main


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


def test_analyze_oracle_only_labels_every_count_oracle(capsys, bell_file):
    code, out, _ = run(capsys, "analyze", "--input", bell_file,
                       "--oracle", "only")
    assert code == 0
    for label in ("orbit dim", "coadjoint dim", "degeneracy D"):
        line = next(l for l in out.splitlines() if l.startswith(label))
        assert "(numerical oracle)" in line


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
        assert doc["passed"] == 5 and doc["mode"] == "coadjoint"


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
    # the rank tolerance is checked even when the oracle does not run
    code, _, err = run(capsys, "analyze", "--input", bell_file,
                       "--oracle", "off", "--rank-tol", "0.5")
    assert code == 1
    assert json.loads(err)["error"] == "ValueError"


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
