import math

import numpy as np
import pytest

from bicoef import caratheodory
from bicoef.bounds import bounds_for
from bicoef.harness import (CSV_HEADER, VIOLATION_TOL, EmpiricalExtremum, _induce,
                            extremal_search, falsify)
from bicoef.operators import AlphaParams, BetaParams, CoefficientTuple


# ------------------------------------------------------------------ falsify

def test_alpha_campaign_has_no_violations():
    summary = falsify(AlphaParams(1, 1, 1), 5000, seed=1)
    assert summary.violations == ()
    assert summary.n_admissible > 0
    assert summary.min_a2_margin >= -VIOLATION_TOL
    assert summary.min_a3_margin >= -VIOLATION_TOL


def test_beta_campaign_max_a2_respects_bound():
    summary = falsify(BetaParams(0, 1, 1), 5000, seed=2)
    assert summary.violations == ()
    assert summary.max_a2_abs <= math.sqrt(2 / 3) + 1e-9


def _csv_rows(summary):
    lines = list(summary.csv_lines())
    assert lines[0] == ",".join(CSV_HEADER)
    return [dict(zip(CSV_HEADER, line.split(","))) for line in lines[1:]]


def test_single_sample_single_atom_schema():
    summary = falsify(AlphaParams(1, 1, 1), 1, seed=7, atom_count=1)
    rows = _csv_rows(summary)
    assert len(rows) == 1
    row = rows[0]
    assert row["index"] == "0" and row["seed"] == "7" and row["family"] == "alpha"
    # single atom is extremal: |p1| = |p2| = 2
    p1 = complex(float(row["p1_re"]), float(row["p1_im"]))
    p2 = complex(float(row["p2_re"]), float(row["p2_im"]))
    assert abs(abs(p1) - 2) < 1e-12
    assert abs(abs(p2) - 2) < 1e-12
    assert row["admissible"] in ("true", "false")
    assert (row["admissible"] == "true") == (row["filter_reason"] == "")
    again = falsify(AlphaParams(1, 1, 1), 1, seed=7, atom_count=1)
    assert _csv_rows(again) == rows


def test_campaign_counts_are_consistent():
    summary = falsify(BetaParams(0.5, 1, 1), 3000, seed=3)
    assert (summary.n_admissible + summary.n_fail_modulus
            + summary.n_fail_toeplitz) == summary.n_samples
    assert summary.n_fail_toeplitz > 0  # the tighter filter does fire


def test_toeplitz_filter_is_tighter_than_modulus():
    mod = falsify(AlphaParams(0.5, 1, 0.5), 3000, seed=4, filter_mode="modulus")
    toe = falsify(AlphaParams(0.5, 1, 0.5), 3000, seed=4, filter_mode="toeplitz")
    assert toe.n_admissible <= mod.n_admissible
    assert mod.n_fail_toeplitz == 0


def test_margins_only_asserted_for_admissible_records():
    summary = falsify(AlphaParams(1, 1, 1), 2000, seed=5)
    rows = _csv_rows(summary)
    assert sum(row["admissible"] == "true" for row in rows) == summary.n_admissible
    for row in rows:
        if row["admissible"] == "true":
            assert float(row["a2_margin"]) >= -VIOLATION_TOL
            assert float(row["a3_margin"]) >= -VIOLATION_TOL


def test_csv_is_bitwise_deterministic(tmp_path):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    falsify(BetaParams(0.5, 2, 3), 800, seed=11).write_csv(p1)
    falsify(BetaParams(0.5, 2, 3), 800, seed=11).write_csv(p2)
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    lines = b1.decode("utf-8").splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 801
    # '.' decimal separator, no locale leakage
    assert ";" not in lines[1]


def test_campaign_prefix_stability():
    small = falsify(AlphaParams(1, 1, 1), 50, seed=9)
    big = falsify(AlphaParams(1, 1, 1), 500, seed=9)
    small_rows = list(small.csv_lines())[1:]
    big_rows = list(big.csv_lines())[1:51]
    assert small_rows == big_rows


def test_summary_json_roundtrip():
    import json
    summary = falsify(AlphaParams(0.25, 2, 0), 1000, seed=13)
    blob = json.dumps(summary.to_json_dict())
    back = json.loads(blob)
    assert back["n_admissible"] == summary.n_admissible
    assert back["violations"] == []


def test_falsify_rejects_empty_campaign():
    with pytest.raises(ValueError):
        falsify(AlphaParams(1, 1, 1), 0, seed=1)


def test_falsify_rejects_wrong_params_type():
    with pytest.raises(TypeError):
        falsify(object(), 10, seed=1)


# ----------------------------------------------------------------- extremal

def test_single_evaluation_budget():
    res = extremal_search(AlphaParams(1, 1, 1), "a2", budget=1, seed=0)
    assert isinstance(res, EmpiricalExtremum)
    assert res.evaluations == 1
    assert res.best_tuple is not None
    assert res.gap >= -VIOLATION_TOL


def test_extremal_alpha_approaches_bound():
    res = extremal_search(AlphaParams(1, 1, 1), "a2", budget=4000, seed=1)
    bound = math.sqrt(2 / 3)
    assert res.achieved <= bound + 1e-9
    assert res.gap >= -VIOLATION_TOL
    assert res.achieved > 0.75  # the search should get close to 0.8165


def test_extremal_beta_respects_min_arm():
    res = extremal_search(BetaParams(0.5, 1, 1), "a2", budget=3000, seed=2)
    assert res.achieved <= 0.5 + 1e-9
    assert res.gap >= -VIOLATION_TOL


def test_extremal_objective_a3():
    res = extremal_search(AlphaParams(1, 1, 1), "a3", budget=3000, seed=3)
    assert res.achieved <= res.bound + 1e-9
    assert res.objective == "a3"


def test_extremal_monotone_in_budget():
    prev = 0.0
    for budget in (50, 200, 800, 3200):
        res = extremal_search(AlphaParams(1, 1, 1), "a2", budget=budget, seed=5)
        assert res.achieved >= prev - 1e-15
        assert res.evaluations == budget
        prev = res.achieved


def test_extremal_validates_arguments():
    with pytest.raises(ValueError):
        extremal_search(AlphaParams(1, 1, 1), "a4", budget=10, seed=0)
    with pytest.raises(ValueError):
        extremal_search(AlphaParams(1, 1, 1), "a2", budget=0, seed=0)


# ------------------------------------------- the search against its old loop

def _reference_search(params, objective, budget, seed, atom_count, restarts):
    """The two-closure loop of the earlier extremal_search, kept as the
    reference for the generator that replaced it; it also appends the
    evaluation count at each restart to ``restarts``."""
    rep = bounds_for(params)
    bound = rep.a2_bound if objective == "a2" else rep.a3_bound
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    evals = 0
    best_val = None
    best_tuple = None
    best_atoms = None
    first_tuple = None

    def evaluate(v, theta):
        nonlocal evals, first_tuple
        evals += 1
        w = np.exp(v - v.max())
        t = w / w.sum()
        atoms = tuple(zip(t.tolist(), (theta % (2.0 * np.pi)).tolist()))
        c = caratheodory.herglotz(atoms, order=2).coeff_prefix()
        a2, a3, q1, q2 = _induce(params, c[0], c[1])
        tup = CoefficientTuple(complex(c[0]), complex(c[1]), complex(q1), complex(q2))
        if first_tuple is None:
            first_tuple = tup
        verdict = caratheodory.is_admissible_prefix([q1, q2])
        if verdict != caratheodory.PASS:
            return None, tup, atoms
        val = abs(a2) if objective == "a2" else abs(a3)
        return float(val), tup, atoms

    def consider(val, tup, atoms):
        nonlocal best_val, best_tuple, best_atoms
        if val is not None and (best_val is None or val > best_val):
            best_val, best_tuple, best_atoms = val, tup, atoms

    while evals < budget:
        restarts.append(evals)
        v = rng.normal(0.0, 1.0, atom_count)
        theta = rng.uniform(0.0, 2.0 * np.pi, atom_count)
        cur_val, cur_tup, cur_atoms = evaluate(v, theta)
        consider(cur_val, cur_tup, cur_atoms)
        step = 0.6
        while step > 1e-3 and evals < budget:
            improved = False
            for j in range(2 * atom_count):
                for sgn in (1.0, -1.0):
                    if evals >= budget:
                        break
                    v2, th2 = v.copy(), theta.copy()
                    if j < atom_count:
                        v2[j] += sgn * step
                    else:
                        th2[j - atom_count] += sgn * step
                    val2, tup2, atoms2 = evaluate(v2, th2)
                    consider(val2, tup2, atoms2)
                    if val2 is not None and (cur_val is None or val2 > cur_val):
                        v, theta, cur_val = v2, th2, val2
                        improved = True
                        break
                if evals >= budget:
                    break
            if not improved:
                step *= 0.5

    achieved = best_val if best_val is not None else 0.0
    return EmpiricalExtremum(
        best_tuple=best_tuple if best_tuple is not None else first_tuple,
        achieved=achieved, bound=bound, gap=bound - achieved,
        evaluations=evals, objective=objective, best_atoms=best_atoms)


def _search_with_points(monkeypatch, search, *args, **kwargs):
    """search's result and the atoms of every point it evaluated, in order."""
    points, herglotz = [], caratheodory.herglotz

    def recording(atoms, order):
        points.append(atoms)
        return herglotz(atoms, order=order)

    with monkeypatch.context() as m:
        m.setattr(caratheodory, "herglotz", recording)
        return search(*args, **kwargs), points


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("atom_count", [1, 3])
@pytest.mark.parametrize("objective", ["a2", "a3"])
@pytest.mark.parametrize("params", [AlphaParams(0.5, 1, 1), BetaParams(0.5, 2, 0.5)],
                         ids=["alpha", "beta"])
def test_search_matches_the_two_closure_loop(monkeypatch, params, objective,
                                             atom_count, seed):
    restarts = []
    # 450 ends mid-sweep for one atom (restarts every 41 evaluations)
    expected = _search_with_points(monkeypatch, _reference_search, params, objective,
                                   450, seed, atom_count, restarts)
    assert _search_with_points(monkeypatch, extremal_search, params, objective, 450,
                               seed, atom_count=atom_count) == expected
    budgets = [1]
    if len(restarts) > 1:   # the last evaluation before the second restart, and at it
        budgets += [restarts[1], restarts[1] + 1]
    for budget in budgets:
        assert (extremal_search(params, objective, budget, seed, atom_count=atom_count)
                == _reference_search(params, objective, budget, seed, atom_count, []))
    if atom_count == 1:
        # a single atom's paired prefix never passes: the first tuple stands
        result, points = expected
        assert result.best_atoms is None and result.achieved == 0.0
        first = extremal_search(params, objective, 1, seed, atom_count=1)
        assert result.best_tuple == first.best_tuple
