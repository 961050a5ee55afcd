"""`orbitent analyze` pinned, text and JSON, on one document per route and
class, with the oracle off and verifying: the route's notes, the
separability rule's note, the integers and the clusterings."""

import json

import pytest

from orbitent.cli import main

COADJOINT = "(dim(mu(O)) = sum_k (N_k^2 - 1) - (sum_{k,n} m_kn^2 - M))"
BIPARTITE_ORBIT = "(dim(O) = 2N^2 - 2 m0^2 - sum m_n^2 - 1)"
BIPARTITE_D = "(D = sum_{n>=1} m_n^2 - 1)"
SINGLE = "(one party: dim(O) = dim(mu(O)) = 2(N - 1), D = 0)"
BOUNDS = "(max_k S_k - 1 <= D <= sum_k S_k - M,  S_k = sum m_kn^2)"
ORACLE = "(numerical oracle)"
DISTINGUISHABLE = "(separable iff every party has sum_{n>=1} m_kn^2 = 1)"
FERMIONIC = "(single Slater iff reduced rank = particle count)"
PRODUCT = "(v^(x)M iff reduced rank = 1)"
SIMPLE = "(D = 0 implies yes; rank <= 2 decides 2 bosons)"


def clustering(kernel, *blocks):
    return {"blocks": [{"multiplicity": m, "value": v} for v, m in blocks],
            "kernel": kernel, "tolerance": 1e-07}


def interval(low, high):
    return {"low": low, "high": high}


# name: (document, boson convention or None, text lines but the oracle line,
#        JSON but the oracle, oracle (r, s, D), whether the route has a
#        closed form, so that the oracle stays off when not asked for)
CASES = {
    "two-equal-parties": (
        {"symmetry": "distinguishable", "dims": [3, 3],
         "coeffs_flat": [2, 0, 0, 0, 1, 0, 0, 0, 1]},
        None,
        ["state: dims [3, 3], symmetry distinguishable",
         "reduced-spectrum clusters (relative tol 1e-07):",
         "  party 1: kernel 0 | 0.666667 x1, 0.166667 x2",
         "  party 2: kernel 0 | 0.666667 x1, 0.166667 x2",
         f"orbit dim            12   {BIPARTITE_ORBIT}",
         f"coadjoint dim         8   {COADJOINT}",
         f"degeneracy D          4   {BIPARTITE_D}",
         f"separable            no   {DISTINGUISHABLE}"],
        {"dims": [3, 3], "symmetry": "distinguishable", "orbit_dim": 12,
         "coadjoint_dim": 8, "degeneracy": 4, "separable": False,
         "clusterings": [clustering(0, (2 / 3, 1), (1 / 6, 2))] * 2},
        (12, 8, 4), True),
    "one-party": (
        {"symmetry": "distinguishable", "dims": [3],
         "coeffs_flat": [1, [0, 1], 0]},
        None,
        ["state: dims [3], symmetry distinguishable",
         "reduced-spectrum clusters (relative tol 1e-07):",
         "  party 1: kernel 2 | 1 x1",
         f"orbit dim             4   {SINGLE}",
         f"coadjoint dim         4   {COADJOINT}",
         f"degeneracy D          0   {SINGLE}",
         f"separable           yes   {DISTINGUISHABLE}"],
        {"dims": [3], "symmetry": "distinguishable", "orbit_dim": 4,
         "coadjoint_dim": 4, "degeneracy": 0, "separable": True,
         "clusterings": [clustering(2, (1.0, 1))]},
        (4, 4, 0), True),
    "three-parties-generic": (
        {"symmetry": "distinguishable", "dims": [2, 2, 2],
         "coeffs_flat": [3, 0, 0, 1, 0, 2, 1, 0]},
        None,
        ["state: dims [2, 2, 2], symmetry distinguishable",
         "reduced-spectrum clusters (relative tol 1e-07):",
         "  party 1: kernel 0 | 0.666667 x1, 0.333333 x1",
         "  party 2: kernel 0 | 0.866667 x1, 0.133333 x1",
         "  party 3: kernel 0 | 0.666667 x1, 0.333333 x1",
         f"orbit dim        [7, 9]   {BOUNDS}",
         f"coadjoint dim         6   {COADJOINT}",
         f"degeneracy D     [1, 3]   {BOUNDS}",
         f"separable            no   {DISTINGUISHABLE}"],
        {"dims": [2, 2, 2], "symmetry": "distinguishable",
         "orbit_dim": interval(7, 9), "coadjoint_dim": 6,
         "degeneracy": interval(1, 3), "separable": False,
         "clusterings": [clustering(0, (2 / 3, 1), (1 / 3, 1)),
                         clustering(0, (13 / 15, 1), (2 / 15, 1)),
                         clustering(0, (2 / 3, 1), (1 / 3, 1))]},
        (9, 6, 3), True),
    "three-parties-ghz": (
        {"symmetry": "distinguishable", "dims": [2, 2, 2],
         "coeffs_flat": [1, 0, 0, 0, 0, 0, 0, 1]},
        None,
        ["state: dims [2, 2, 2], symmetry distinguishable",
         "reduced-spectrum clusters (relative tol 1e-07):",
         "  party 1: kernel 0 | 0.5 x2",
         "  party 2: kernel 0 | 0.5 x2",
         "  party 3: kernel 0 | 0.5 x2",
         f"orbit dim        [3, 9]   {BOUNDS}",
         f"coadjoint dim         0   {COADJOINT}",
         f"degeneracy D     [3, 9]   {BOUNDS}",
         f"separable            no   {DISTINGUISHABLE}"],
        {"dims": [2, 2, 2], "symmetry": "distinguishable",
         "orbit_dim": interval(3, 9), "coadjoint_dim": 0,
         "degeneracy": interval(3, 9), "separable": False,
         "clusterings": [clustering(0, (0.5, 2))] * 3},
        (7, 0, 7), True),
    "three-parties-product": (  # the bounds meet: one integer each
        {"symmetry": "distinguishable", "dims": [2, 2, 2],
         "coeffs_flat": [1, 0, 0, 0, 0, 0, 0, 0]},
        None,
        ["state: dims [2, 2, 2], symmetry distinguishable",
         "reduced-spectrum clusters (relative tol 1e-07):",
         "  party 1: kernel 1 | 1 x1",
         "  party 2: kernel 1 | 1 x1",
         "  party 3: kernel 1 | 1 x1",
         f"orbit dim             6   {BOUNDS}",
         f"coadjoint dim         6   {COADJOINT}",
         f"degeneracy D          0   {BOUNDS}",
         f"separable           yes   {DISTINGUISHABLE}"],
        {"dims": [2, 2, 2], "symmetry": "distinguishable", "orbit_dim": 6,
         "coadjoint_dim": 6, "degeneracy": 0, "separable": True,
         "clusterings": [clustering(1, (1.0, 1))] * 3},
        (6, 6, 0), True),
    "unequal-parties": (
        {"symmetry": "distinguishable", "dims": [3, 5],
         "coeffs_flat": [1, 0, 0, 0, 0, 0, 1] + [0] * 8},
        None,
        ["state: dims [3, 5], symmetry distinguishable",
         "reduced-spectrum clusters (relative tol 1e-07):",
         "  party 1: kernel 1 | 0.5 x2",
         "  party 2: kernel 3 | 0.5 x2",
         f"orbit dim            19   {ORACLE}",
         f"coadjoint dim        16   {COADJOINT}",
         f"degeneracy D          3   {ORACLE}",
         f"separable            no   {DISTINGUISHABLE}"],
        {"dims": [3, 5], "symmetry": "distinguishable", "orbit_dim": 19,
         "coadjoint_dim": 16, "degeneracy": 3, "separable": False,
         "clusterings": [clustering(1, (0.5, 2)), clustering(3, (0.5, 2))]},
        (19, 16, 3), False),
    "bosons-symmetric-simple-tensor": (
        {"symmetry": "bosonic", "dims": [3, 3],
         "coeffs_flat": [0, 1, 0, 1, 0, 0, 0, 0, 0]},
        "symmetric-simple-tensor",
        ["state: dims [3, 3], symmetry bosonic",
         "reduced-spectrum clusters (relative tol 1e-07):",
         "  party 1: kernel 1 | 0.5 x2",
         "  party 2: kernel 1 | 0.5 x2",
         f"orbit dim             6   {ORACLE}",
         f"coadjoint dim         4   {COADJOINT}",
         f"degeneracy D          2   {ORACLE}",
         f"separable           yes   {SIMPLE}",
         "boson convention: symmetric-simple-tensor"],
        {"dims": [3, 3], "symmetry": "bosonic", "orbit_dim": 6,
         "coadjoint_dim": 4, "degeneracy": 2, "separable": True,
         "clusterings": [clustering(1, (0.5, 2))] * 2,
         "boson_convention": "symmetric-simple-tensor"},
        (6, 4, 2), False),
    "bosons-product-of-same-vector": (
        {"symmetry": "bosonic", "dims": [3, 3],
         "coeffs_flat": [0, 1, 0, 1, 0, 0, 0, 0, 0]},
        "product-of-same-vector",
        ["state: dims [3, 3], symmetry bosonic",
         "reduced-spectrum clusters (relative tol 1e-07):",
         "  party 1: kernel 1 | 0.5 x2",
         "  party 2: kernel 1 | 0.5 x2",
         f"orbit dim             6   {ORACLE}",
         f"coadjoint dim         4   {COADJOINT}",
         f"degeneracy D          2   {ORACLE}",
         f"separable            no   {PRODUCT}",
         "boson convention: product-of-same-vector"],
        {"dims": [3, 3], "symmetry": "bosonic", "orbit_dim": 6,
         "coadjoint_dim": 4, "degeneracy": 2, "separable": False,
         "clusterings": [clustering(1, (0.5, 2))] * 2,
         "boson_convention": "product-of-same-vector"},
        (6, 4, 2), False),
    "three-bosons-undetermined": (
        {"symmetry": "bosonic", "dims": [2, 2, 2],
         "coeffs_flat": [1, 0, 0, 0, 0, 0, 0, 1]},
        None,
        ["state: dims [2, 2, 2], symmetry bosonic",
         "reduced-spectrum clusters (relative tol 1e-07):",
         "  party 1: kernel 0 | 0.5 x2",
         "  party 2: kernel 0 | 0.5 x2",
         "  party 3: kernel 0 | 0.5 x2",
         f"orbit dim             3   {ORACLE}",
         f"coadjoint dim         0   {COADJOINT}",
         f"degeneracy D          3   {ORACLE}",
         f"separable      undetermined   {SIMPLE}",
         "boson convention: symmetric-simple-tensor"],
        {"dims": [2, 2, 2], "symmetry": "bosonic", "orbit_dim": 3,
         "coadjoint_dim": 0, "degeneracy": 3, "separable": None,
         "clusterings": [clustering(0, (0.5, 2))] * 3,
         "boson_convention": "symmetric-simple-tensor"},
        (3, 0, 3), False),
    "fermions": (
        {"symmetry": "fermionic", "dims": [4, 4],
         "coeffs_flat": [0, 1, 0, 0, -1] + [0] * 11},
        None,
        ["state: dims [4, 4], symmetry fermionic",
         "reduced-spectrum clusters (relative tol 1e-07):",
         "  party 1: kernel 2 | 0.5 x2",
         "  party 2: kernel 2 | 0.5 x2",
         f"orbit dim             8   {ORACLE}",
         f"coadjoint dim         8   {COADJOINT}",
         f"degeneracy D          0   {ORACLE}",
         f"separable           yes   {FERMIONIC}"],
        {"dims": [4, 4], "symmetry": "fermionic", "orbit_dim": 8,
         "coadjoint_dim": 8, "degeneracy": 0, "separable": True,
         "clusterings": [clustering(2, (0.5, 2))] * 2},
        (8, 8, 0), False),
}


def _approx(expected):
    """``expected`` with every float compared to 1e-12, relative."""
    if isinstance(expected, dict):
        return {key: _approx(value) for key, value in expected.items()}
    if isinstance(expected, list):
        return [_approx(value) for value in expected]
    if isinstance(expected, float):
        return pytest.approx(expected, rel=1e-12)
    return expected


@pytest.mark.parametrize("oracle", ["off", "verify"])
@pytest.mark.parametrize("name", list(CASES))
def test_analyze_text_and_json(capsys, tmp_path, name, oracle):
    document, convention, lines, doc, (r, s, d), closed = CASES[name]
    path = tmp_path / "state.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    argv = ["analyze", "--input", str(path), "--oracle", oracle]
    if convention:
        argv += ["--boson-convention", convention]
    ranks = None
    if oracle == "verify" or not closed:
        ranks = {"orbit_dim": r, "symplectic_rank": s, "degeneracy": d,
                 "consistent": True}
        lines = lines + [f"oracle         r={r} s={s} D={d}, "
                         "consistent with closed forms: True"]

    assert main(argv) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("\n".join(lines) + "\n", "")
    assert main(argv + ["--format", "json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == _approx(dict(doc, oracle=ranks))
    assert list(json.loads(out)) == sorted(dict(doc, oracle=ranks))  # sort_keys
