"""Randomized falsification campaigns and derivative-free extremal search.

A campaign draws positive-real-part prefixes from the atom sampler, induces
the paired element's coefficients, filters at the prefix level, and compares
achieved |a2|, |a3| of survivors against the closed-form bounds.  Violations
beyond VIOLATION_TOL would falsify either the implementation or the bound
transcription, so the default campaigns must report none.

Campaigns are deterministic per (seed, n_samples): sample i depends only on
the seed and i, never on n_samples, and CSV rows appear in index order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import caratheodory
from .bounds import BoundReport, bounds_for
from .operators import (AlphaParams, BetaParams, CoefficientTuple,
                        induce_q_alpha, induce_q_beta)

__all__ = [
    "CampaignSummary",
    "EmpiricalExtremum",
    "falsify",
    "extremal_search",
    "VIOLATION_TOL",
    "CSV_HEADER",
]

VIOLATION_TOL = 1e-9
HIST_BINS = 20

CSV_HEADER = ("family", "seed", "index", "alpha", "beta", "lambda", "mu",
              "p1_re", "p1_im", "p2_re", "p2_im",
              "q1_re", "q1_im", "q2_re", "q2_im",
              "admissible", "filter_reason",
              "a2_abs", "a3_abs", "a2_bound", "a3_bound",
              "a2_margin", "a3_margin")


def _induce(params, p1, p2):
    induce = induce_q_alpha if params.family == "alpha" else induce_q_beta
    return induce(p1, p2, params)


@dataclass(frozen=True)
class CampaignSummary:
    """Aggregate result of one campaign; per-sample data stays in arrays."""

    params: AlphaParams | BetaParams
    n_samples: int
    seed: int
    filter_mode: str
    atom_count: int
    bounds: BoundReport
    n_admissible: int
    n_fail_modulus: int
    n_fail_toeplitz: int
    violations: tuple[tuple[int, str, float], ...]   # (index, coefficient, margin)
    max_a2_abs: float | None
    max_a3_abs: float | None
    min_a2_margin: float | None
    min_a3_margin: float | None
    a2_margin_hist: tuple[tuple[float, ...], tuple[int, ...]]   # (edges, counts)
    a3_margin_hist: tuple[tuple[float, ...], tuple[int, ...]]
    _arrays: dict = field(repr=False, compare=False, default_factory=dict)

    def csv_lines(self) -> Iterator[str]:
        """CSV rows in index order; floats use shortest round-trip form."""
        yield ",".join(CSV_HEADER)
        fam = self.params.family
        alpha = repr(self.params.alpha) if fam == "alpha" else ""
        beta = repr(self.params.beta) if fam == "beta" else ""
        prefix = f"{fam},{self.seed},"
        mid = f",{alpha},{beta},{self.params.lam!r},{self.params.mu!r},"
        a = self._arrays
        # .tolist() hands back Python scalars; numpy scalar reprs are not CSV-safe
        p1, p2 = a["p1"].tolist(), a["p2"].tolist()
        q1, q2 = a["q1"].tolist(), a["q2"].tolist()
        a2a, a3a = a["a2_abs"].tolist(), a["a3_abs"].tolist()
        m2, m3 = a["a2_margin"].tolist(), a["a3_margin"].tolist()
        adm = a["admissible"].tolist()
        fmod, ftoe = a["fail_modulus"].tolist(), a["fail_toeplitz"].tolist()
        b2, b3 = repr(self.bounds.a2_bound), repr(self.bounds.a3_bound)
        for i in range(self.n_samples):
            reason = "modulus" if fmod[i] else "toeplitz" if ftoe[i] else ""
            yield (f"{prefix}{i}{mid}"
                   f"{p1[i].real!r},{p1[i].imag!r},{p2[i].real!r},{p2[i].imag!r},"
                   f"{q1[i].real!r},{q1[i].imag!r},{q2[i].real!r},{q2[i].imag!r},"
                   f"{'true' if adm[i] else 'false'},{reason},"
                   f"{a2a[i]!r},{a3a[i]!r},{b2},{b3},{m2[i]!r},{m3[i]!r}")

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            for line in self.csv_lines():
                fh.write(line + "\n")

    def to_json_dict(self) -> dict:
        return {
            "family": self.params.family,
            "params": {self.params.family: getattr(self.params, self.params.family),
                       "lambda": self.params.lam, "mu": self.params.mu},
            "n_samples": self.n_samples,
            "seed": self.seed,
            "filter": self.filter_mode,
            "atom_count": self.atom_count,
            "a2_bound": self.bounds.a2_bound,
            "a3_bound": self.bounds.a3_bound,
            "n_admissible": self.n_admissible,
            "n_fail_modulus": self.n_fail_modulus,
            "n_fail_toeplitz": self.n_fail_toeplitz,
            "violations": [list(v) for v in self.violations],
            "max_a2_abs": self.max_a2_abs,
            "max_a3_abs": self.max_a3_abs,
            "min_a2_margin": self.min_a2_margin,
            "min_a3_margin": self.min_a3_margin,
            "a2_margin_hist": {"edges": list(self.a2_margin_hist[0]),
                               "counts": list(self.a2_margin_hist[1])},
            "a3_margin_hist": {"edges": list(self.a3_margin_hist[0]),
                               "counts": list(self.a3_margin_hist[1])},
        }


def _margin_hist(margins: np.ndarray, bound: float):
    counts, edges = np.histogram(margins, bins=HIST_BINS, range=(0.0, max(bound, 1e-300)))
    return tuple(float(e) for e in edges), tuple(int(c) for c in counts)


def falsify(params, n_samples: int, seed: int, *,
            filter_mode: str = "toeplitz", atom_count: int = 3) -> CampaignSummary:
    """Run one falsification campaign against the matching coefficient bound.

    Draws prefixes via the atom sampler, induces the paired element, filters
    samples whose induced (q1, q2) prefix is inadmissible, and compares
    survivors' |a2|, |a3| against the closed-form bounds.  The violation list
    must come back empty if the bounds (and this transcription) are correct.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rep = bounds_for(params)
    _, _, coeffs = caratheodory.sample_batch(seed, n_samples, atom_count, order=2)
    p1, p2 = coeffs[:, 0], coeffs[:, 1]
    a2, a3, q1, q2 = _induce(params, p1, p2)
    admissible, fail_mod, fail_toe = caratheodory.admissibility_mask_k2(
        q1, q2, mode=filter_mode)
    a2_abs, a3_abs = np.abs(a2), np.abs(a3)
    a2_margin = rep.a2_bound - a2_abs
    a3_margin = rep.a3_bound - a3_abs

    violations = []
    bad = admissible & ((a2_margin < -VIOLATION_TOL) | (a3_margin < -VIOLATION_TOL))
    for i in np.flatnonzero(bad):
        if a2_margin[i] < -VIOLATION_TOL:
            violations.append((int(i), "a2", float(a2_margin[i])))
        if a3_margin[i] < -VIOLATION_TOL:
            violations.append((int(i), "a3", float(a3_margin[i])))

    n_adm = int(admissible.sum())
    if n_adm:
        max_a2 = float(a2_abs[admissible].max())
        max_a3 = float(a3_abs[admissible].max())
        min_m2 = float(a2_margin[admissible].min())
        min_m3 = float(a3_margin[admissible].min())
    else:
        max_a2 = max_a3 = min_m2 = min_m3 = None
    h2 = _margin_hist(a2_margin[admissible], rep.a2_bound)
    h3 = _margin_hist(a3_margin[admissible], rep.a3_bound)

    arrays = {"p1": p1, "p2": p2, "q1": q1, "q2": q2,
              "admissible": admissible, "fail_modulus": fail_mod,
              "fail_toeplitz": fail_toe, "a2_abs": a2_abs, "a3_abs": a3_abs,
              "a2_margin": a2_margin, "a3_margin": a3_margin}
    return CampaignSummary(
        params=params, n_samples=n_samples, seed=seed,
        filter_mode=filter_mode, atom_count=atom_count, bounds=rep,
        n_admissible=n_adm, n_fail_modulus=int(fail_mod.sum()),
        n_fail_toeplitz=int(fail_toe.sum()), violations=tuple(violations),
        max_a2_abs=max_a2, max_a3_abs=max_a3,
        min_a2_margin=min_m2, min_a3_margin=min_m3,
        a2_margin_hist=h2, a3_margin_hist=h3, _arrays=arrays)


def _search_points(rng, atom_count: int):
    """The points x = (v, theta) of the search, in order; send() each score.

    A restart draws x from rng.  Each coordinate is tried at +step, then at
    -step; the first improvement moves x, and the sweep goes on to the next
    coordinate.  A sweep with none halves the step; once the step is <= 1e-3
    the search restarts.  A score is None where x fails the filter.
    """
    while True:
        x = np.concatenate([rng.normal(0.0, 1.0, atom_count),
                            rng.uniform(0.0, 2.0 * np.pi, atom_count)])
        cur = yield x
        step = 0.6
        while step > 1e-3:
            improved = False
            for j in range(x.size):
                for sgn in (1.0, -1.0):
                    x2 = x.copy()
                    x2[j] += sgn * step
                    val = yield x2
                    if val is not None and (cur is None or val > cur):
                        x, cur, improved = x2, val, True
                        break
            if not improved:
                step *= 0.5


@dataclass(frozen=True)
class EmpiricalExtremum:
    """Best admissible sample found by the search, with its gap to the bound.

    ``achieved`` is an empirical lower bound on the class extremum; the gap
    must never be significantly negative, and the search asserts nothing
    about how small it gets (no sharp extremal value is known).
    """

    best_tuple: CoefficientTuple
    achieved: float
    bound: float
    gap: float
    evaluations: int
    objective: str
    best_atoms: tuple[tuple[float, float], ...] | None


def extremal_search(params, objective: str, budget: int, seed: int, *,
                    atom_count: int = 3) -> EmpiricalExtremum:
    """Maximize |a2| or |a3| over atom mixtures, subject to induced
    admissibility of the paired prefix.

    Multi-start coordinate search: raw weight logits live on the simplex via
    softmax, angles on the torus; each coordinate is nudged by a shrinking
    step and the first improvement is taken.  The evaluation sequence for a
    given seed is independent of the budget, so results are monotone
    nondecreasing in it.
    """
    if objective not in ("a2", "a3"):
        raise ValueError(f"objective must be 'a2' or 'a3', got {objective!r}")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if atom_count < 1:
        raise ValueError("atom_count must be >= 1")
    rep = bounds_for(params)
    bound = rep.a2_bound if objective == "a2" else rep.a3_bound
    points = _search_points(np.random.default_rng(seed), atom_count)
    x = next(points)
    best_val = best_tuple = best_atoms = None
    for _ in range(budget):
        v, theta = x[:atom_count], x[atom_count:]
        w = np.exp(v - v.max())
        t = w / w.sum()
        atoms = tuple(zip(t.tolist(), (theta % (2.0 * np.pi)).tolist()))
        c = caratheodory.herglotz(atoms, order=2).coeff_prefix()
        a2, a3, q1, q2 = _induce(params, c[0], c[1])
        tup = CoefficientTuple(complex(c[0]), complex(c[1]), complex(q1), complex(q2))
        val = None
        if caratheodory.is_admissible_prefix([q1, q2]) == caratheodory.PASS:
            val = float(abs(a2) if objective == "a2" else abs(a3))
            if best_val is None or val > best_val:
                best_val, best_tuple, best_atoms = val, tup, atoms
        elif best_tuple is None:   # the first tuple, until an evaluation passes
            best_tuple = tup
        x = points.send(val)
    achieved = best_val if best_val is not None else 0.0
    return EmpiricalExtremum(
        best_tuple=best_tuple, achieved=achieved, bound=bound,
        gap=bound - achieved, evaluations=budget, objective=objective,
        best_atoms=best_atoms)
