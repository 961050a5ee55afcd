"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is pinned here: rank and multiplicity results are
integer-exact after thresholding, and the symplectic-form identity holds
to 1e-10.
"""

import functools
import json

import numpy as np
import pytest

from orbitent import (
    BOSONIC,
    DISTINGUISHABLE,
    FERMIONIC,
    analyze_state,
    apply_local,
    build_state,
    degeneracy_rank,
    fubini_study_omega,
    highest_weight_vector,
    random_local_unitaries,
    random_product_state,
    random_state,
    rep_action,
    su_basis,
    verify_against_formula,
    weight_table,
)
from orbitent.cli import main as cli_main

OMEGA_TOL = 1e-10


def criterion(num, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {num}: {description}")
                raise
            print(f"[PASS] criterion {num}: {description}")
        return wrapper
    return deco


def bell_state(sign):
    return build_state([[0, 1], [sign, 0]])


def ghz_state():
    c = np.zeros((2, 2, 2))
    c[0, 0, 0] = c[1, 1, 1] = 1
    return build_state(c)


def w_state():
    c = np.zeros((2, 2, 2))
    c[1, 0, 0] = c[0, 1, 0] = c[0, 0, 1] = 1
    return build_state(c)


@criterion(1, "Bell states: closed form (3, 0, 3) and oracle (3, 0, 3)")
def test_criterion_1_bell_states():
    for sign in (1.0, -1.0):
        state = bell_state(sign)
        report = analyze_state(state)
        assert report.orbit_dim == 3
        assert report.coadjoint_dim == 0
        assert report.degeneracy == 3
        assert degeneracy_rank(state).as_tuple() == (3, 0, 3)


@criterion(2, "two-qubit product states: D = 0, separable, oracle (4, 4, 0)")
def test_criterion_2_product_states():
    rng = np.random.default_rng(202)
    states = [build_state([[1, 0], [0, 0]])]
    states += [random_product_state((2, 2), rng=rng) for _ in range(5)]
    for state in states:
        report = analyze_state(state)
        assert report.degeneracy == 0
        assert report.separable is True
        assert degeneracy_rank(state).as_tuple() == (4, 4, 0)


@criterion(3, "formula-oracle equivalence: 100 random 2x2 and 50 random 3x3 "
              "states, zero mismatches")
def test_criterion_3_formula_oracle_equivalence():
    rng = np.random.default_rng(303)
    for _ in range(100):
        record = verify_against_formula(random_state((2, 2), rng=rng))
        assert record.passed and record.mode == "exact"
    for _ in range(50):
        record = verify_against_formula(random_state((3, 3), rng=rng))
        assert record.passed and record.mode == "exact"


@criterion(4, "three-qubit bounds: GHZ [3, 9], W [1, 3], oracle D in bounds "
              "for GHZ, W and 50 random states")
def test_criterion_4_three_qubit_bounds():
    ghz_report = analyze_state(ghz_state())
    assert ghz_report.degeneracy == (3, 9)
    w_report = analyze_state(w_state())
    assert w_report.degeneracy == (1, 3)
    assert 3 <= degeneracy_rank(ghz_state()).degeneracy <= 9
    assert 1 <= degeneracy_rank(w_state()).degeneracy <= 3
    rng = np.random.default_rng(404)
    for _ in range(50):
        record = verify_against_formula(random_state((2, 2, 2), rng=rng))
        assert record.passed
        low = record.expected["degeneracy_low"]
        high = record.expected["degeneracy_high"]
        assert low <= record.observed["degeneracy"] <= high


def _ks_rows(capsys, dims, symmetry):
    code = cli_main(["ks-check", "--dims", dims, "--symmetry", symmetry,
                     "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)["rows"]


@criterion(5, "Kostant-Sternberg concordance: ks-check verdicts equal the "
              "oracle D = 0 test on [2,2], Sym2(C3), Wedge2(C4)")
def test_criterion_5_ks_concordance(capsys):
    cases = [
        ("2,2", DISTINGUISHABLE, (2, 2), 4, 4),
        ("3", BOSONIC, (3, 3), 6, 3),
        ("4", FERMIONIC, (4, 4), 6, 6),
    ]
    for dims_arg, symmetry, dims, total, symplectic_count in cases:
        rows = _ks_rows(capsys, dims_arg, symmetry)
        assert len(rows) == total
        verdicts = [r["verdict"] == "symplectic" for r in rows]
        assert sum(verdicts) == symplectic_count
        table = weight_table(dims, symmetry)
        assert [w.label for w in table] == [r["label"] for r in rows]
        for wv, row_symplectic in zip(table, verdicts):
            oracle_flat = degeneracy_rank(wv.state).degeneracy == 0
            assert row_symplectic == oracle_flat


@criterion(6, "separability: 20 random product states classified separable "
              "with D = 0, 20 oracle-entangled states classified entangled")
def test_criterion_6_separability():
    rng = np.random.default_rng(606)
    product_dims = [(2, 2), (3, 3), (2, 2, 2), (3, 3, 3), (2, 2, 2, 2),
                    (2, 3), (3, 2, 2)]
    for i in range(20):
        dims = product_dims[i % len(product_dims)]
        state = random_product_state(dims, rng=rng)
        report = analyze_state(state)
        assert report.separable is True
        assert report.degeneracy == 0
    entangled_dims = [(2, 2), (3, 3), (2, 2, 2)]
    found = 0
    while found < 20:
        dims = entangled_dims[found % len(entangled_dims)]
        state = random_state(dims, rng=rng)
        if degeneracy_rank(state).degeneracy == 0:
            continue  # rejection sampling on the oracle verdict
        report = analyze_state(state)
        assert report.separable is False
        found += 1


def _report_integers(report):
    profile = tuple(c.profile() for c in report.clusterings)
    oracle = None
    if report.oracle is not None:
        oracle = (report.oracle["orbit_dim"], report.oracle["symplectic_rank"],
                  report.oracle["degeneracy"])
    return (report.orbit_dim, report.coadjoint_dim, report.degeneracy,
            report.separable, profile, oracle)


@criterion(7, "local-unitary invariance: all report integers identical "
              "across 20 orbits x 5 random tuples")
def test_criterion_7_local_unitary_invariance():
    rng = np.random.default_rng(707)
    dims_pool = [(2, 2)] * 8 + [(3, 3)] * 6 + [(2, 2, 2)] * 6
    for dims in dims_pool:
        state = random_state(dims, rng=rng)
        base = _report_integers(analyze_state(state, oracle="verify"))
        for _ in range(5):
            g = random_local_unitaries(dims, rng=rng)
            moved = analyze_state(apply_local(state, g), oracle="verify")
            assert _report_integers(moved) == base


@criterion(8, "symplectic-form identity to 1e-10 over 1000 random triples; "
              "symplectic form rank always even")
def test_criterion_8_symplectic_form_identity():
    rng = np.random.default_rng(808)
    dims_pool = [(2, 2), (3, 2), (2, 2, 2), (4,)]
    bases = {dims: su_basis(dims) for dims in dims_pool}
    for trial in range(1000):
        dims = dims_pool[trial % len(dims_pool)]
        state = random_state(dims, rng=rng)
        basis = bases[dims]
        ia, ib = rng.integers(0, len(basis.elements), size=2)
        specs = []
        for el in (basis.elements[ia], basis.elements[ib]):
            mats = [None] * len(dims)
            mats[el.party] = el.matrix
            specs.append(tuple(mats))
        a, b = specs
        primary = fubini_study_omega(state, a, b)  # raises above 1e-10 skew
        # independent recomputation of both sides at the pinned tolerance
        av = rep_action(a, state)
        bv = rep_action(b, state)
        lhs = -float(np.imag(np.vdot(av, bv)))
        comm = rep_action(a, bv) - rep_action(b, av)
        rhs = float(np.real(0.5j * np.vdot(comm, state.coeffs)))
        assert abs(lhs - rhs) < OMEGA_TOL
        assert primary == pytest.approx(lhs, abs=1e-12)
    rng2 = np.random.default_rng(809)
    for dims in [(2, 2), (3, 3), (2, 2, 2)]:
        for _ in range(5):
            rank = degeneracy_rank(random_state(dims, rng=rng2))
            assert rank.symplectic_rank % 2 == 0


@criterion(9, "highest-weight orbits have D = 0: products (M <= 4, N <= 4), "
              "Sym2 and Wedge2 for N <= 4")
def test_criterion_9_highest_weight_orbits():
    for n in (2, 3, 4):
        for m in (1, 2, 3, 4):
            hw = highest_weight_vector((n,) * m)
            assert degeneracy_rank(hw.state).degeneracy == 0
    for n in (2, 3, 4):
        sym = highest_weight_vector((n, n), BOSONIC)
        assert degeneracy_rank(sym.state).degeneracy == 0
        wedge = highest_weight_vector((n, n), FERMIONIC)
        assert degeneracy_rank(wedge.state).degeneracy == 0
    # mixed dims stay symplectic too
    hw = highest_weight_vector((2, 3, 4))
    assert degeneracy_rank(hw.state).degeneracy == 0
