"""Randomized falsification campaigns and derivative-free extremal search.

A campaign draws positive-real-part prefixes from the atom sampler, induces
the paired element's coefficients, filters at the prefix level, and compares
achieved |a2|, |a3| of survivors against the closed-form bounds.  Violations
beyond VIOLATION_TOL would falsify either the implementation or the bound
transcription, so the default campaigns must report none.

Campaigns are deterministic per (seed, n_samples): sample i depends only on
the seed and i, never on n_samples, and CSV rows appear in index order.  A
campaign runs in chunks of CHUNK samples and folds each chunk into its
summary, so its memory is flat in n_samples.  The CSV is not kept: the
summary replays the same chunks from its own fields when it writes the rows.
"""

from __future__ import annotations

from dataclasses import dataclass
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
NEAR_BOUNDARY = 10   # an admissible margin <= NEAR_BOUNDARY * VIOLATION_TOL is near the bound
HIST_BINS = 20
HIST_KEYS = ("edges", "counts", "underflow")
# Samples per chunk.  Measured from 2^13 to 2^17: up to 2^15 a campaign ran
# equally fast, larger chunks ran slower, and peak RSS grows with the chunk.
CHUNK = 1 << 14

CSV_HEADER = ("family", "seed", "index", "alpha", "beta", "lambda", "mu",
              "p1_re", "p1_im", "p2_re", "p2_im",
              "q1_re", "q1_im", "q2_re", "q2_im",
              "admissible", "filter_reason",
              "a2_abs", "a3_abs", "a2_bound", "a3_bound",
              "a2_margin", "a3_margin")


def _induce(params, p1, p2):
    induce = induce_q_alpha if params.family == "alpha" else induce_q_beta
    return induce(p1, p2, params)


def _campaign_chunks(params, bounds: BoundReport, n_samples: int, seed: int,
                     filter_mode: str, atom_count: int):
    """(start, arrays) for each chunk of at most CHUNK samples, in order.

    Row j of each array in arrays is sample start + j.  The one kernel of
    both falsify and the CSV replay.
    """
    rngs = caratheodory.streams(seed)
    for start in range(0, n_samples, CHUNK):
        _, _, coeffs = caratheodory.sample_batch(
            rngs, min(CHUNK, n_samples - start), atom_count)
        p1, p2 = coeffs[:, 0], coeffs[:, 1]
        a2, a3, q1, q2 = _induce(params, p1, p2)
        admissible, fail_mod, fail_toe = caratheodory.admissibility_mask_k2(
            q1, q2, mode=filter_mode)
        a2_abs, a3_abs = np.abs(a2), np.abs(a3)
        yield start, {"p1": p1, "p2": p2, "q1": q1, "q2": q2,
                      "admissible": admissible, "fail_modulus": fail_mod,
                      "fail_toeplitz": fail_toe, "a2_abs": a2_abs, "a3_abs": a3_abs,
                      "a2_margin": bounds.a2_bound - a2_abs,
                      "a3_margin": bounds.a3_bound - a3_abs}


@dataclass(frozen=True)
class CampaignSummary:
    """Aggregate result of one campaign; csv_lines replays its samples."""

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
    # (edges, counts, underflow): counts over [0, bound], underflow below 0
    a2_margin_hist: tuple[tuple[float, ...], tuple[int, ...], int]
    a3_margin_hist: tuple[tuple[float, ...], tuple[int, ...], int]
    # admissible samples with margin <= NEAR_BOUNDARY * VIOLATION_TOL
    a2_near_boundary: int
    a3_near_boundary: int

    def csv_lines(self) -> Iterator[str]:
        """CSV rows in index order; floats use shortest round-trip form.

        The rows are recomputed, chunk by chunk, from the summary's params,
        bounds, seed, n_samples, filter_mode and atom_count.
        """
        yield ",".join(CSV_HEADER)
        fam = self.params.family
        alpha = repr(self.params.alpha) if fam == "alpha" else ""
        beta = repr(self.params.beta) if fam == "beta" else ""
        prefix = f"{fam},{self.seed},"
        mid = f",{alpha},{beta},{self.params.lam!r},{self.params.mu!r},"
        b2, b3 = repr(self.bounds.a2_bound), repr(self.bounds.a3_bound)
        for start, a in _campaign_chunks(self.params, self.bounds, self.n_samples,
                                         self.seed, self.filter_mode, self.atom_count):
            # .tolist() hands back Python scalars; numpy scalar reprs are not CSV-safe
            p1, p2 = a["p1"].tolist(), a["p2"].tolist()
            q1, q2 = a["q1"].tolist(), a["q2"].tolist()
            a2a, a3a = a["a2_abs"].tolist(), a["a3_abs"].tolist()
            m2, m3 = a["a2_margin"].tolist(), a["a3_margin"].tolist()
            adm = a["admissible"].tolist()
            fmod, ftoe = a["fail_modulus"].tolist(), a["fail_toeplitz"].tolist()
            for i in range(len(adm)):
                reason = "modulus" if fmod[i] else "toeplitz" if ftoe[i] else ""
                yield (f"{prefix}{start + i}{mid}"
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
            "a2_margin_hist": dict(zip(HIST_KEYS, self.a2_margin_hist)),
            "a3_margin_hist": dict(zip(HIST_KEYS, self.a3_margin_hist)),
            "near_boundary": {"a2": self.a2_near_boundary, "a3": self.a3_near_boundary},
            "tolerances": {"violation_tol": VIOLATION_TOL,
                           "modulus_tol": caratheodory.MODULUS_TOL,
                           "eig_tol": caratheodory.EIG_TOL},
        }


def falsify(params, n_samples: int, seed: int, *,
            filter_mode: str = "toeplitz", atom_count: int = 3) -> CampaignSummary:
    """Run one falsification campaign against the matching coefficient bound.

    Draws prefixes via the atom sampler, induces the paired element, filters
    samples whose induced (q1, q2) prefix is inadmissible, and compares
    survivors' |a2|, |a3| against the closed-form bounds.  The violation list
    must come back empty if the bounds (and this transcription) are correct.
    Each chunk of CHUNK samples is folded into the counts, extrema,
    histograms and violations before the next is drawn.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rep = bounds_for(params)
    bounds = {"a2": rep.a2_bound, "a3": rep.a3_bound}
    near = NEAR_BOUNDARY * VIOLATION_TOL
    n_adm = n_mod = n_toe = 0
    violations = []
    top = {c: -np.inf for c in bounds}
    low = {c: np.inf for c in bounds}
    hist = {c: np.zeros(HIST_BINS, dtype=np.int64) for c in bounds}
    edges, underflow, n_near = {}, dict.fromkeys(bounds, 0), dict.fromkeys(bounds, 0)
    for start, a in _campaign_chunks(params, rep, n_samples, seed, filter_mode,
                                     atom_count):
        admissible = a["admissible"]
        n_adm += int(admissible.sum())
        n_mod += int(a["fail_modulus"].sum())
        n_toe += int(a["fail_toeplitz"].sum())
        bad = admissible & ((a["a2_margin"] < -VIOLATION_TOL)
                            | (a["a3_margin"] < -VIOLATION_TOL))
        for i in np.flatnonzero(bad):
            for c in bounds:
                if a[f"{c}_margin"][i] < -VIOLATION_TOL:
                    violations.append((start + int(i), c, float(a[f"{c}_margin"][i])))
        for c, bound in bounds.items():
            margin = a[f"{c}_margin"][admissible]
            if margin.size:
                top[c] = np.maximum(top[c], a[f"{c}_abs"][admissible].max())
                low[c] = np.minimum(low[c], margin.min())
            # no overflow bin, as margin <= bound
            counts, edges[c] = np.histogram(margin, bins=HIST_BINS, range=(0.0, bound))
            hist[c] += counts
            underflow[c] += int((margin < 0.0).sum())
            n_near[c] += int((margin <= near).sum())

    def extremum(value):
        return float(value) if n_adm else None

    def margin_hist(c):
        return (tuple(edges[c].tolist()), tuple(hist[c].tolist()), underflow[c])

    return CampaignSummary(
        params=params, n_samples=n_samples, seed=seed,
        filter_mode=filter_mode, atom_count=atom_count, bounds=rep,
        n_admissible=n_adm, n_fail_modulus=n_mod, n_fail_toeplitz=n_toe,
        violations=tuple(violations),
        max_a2_abs=extremum(top["a2"]), max_a3_abs=extremum(top["a3"]),
        min_a2_margin=extremum(low["a2"]), min_a3_margin=extremum(low["a3"]),
        a2_margin_hist=margin_hist("a2"), a3_margin_hist=margin_hist("a3"),
        a2_near_boundary=n_near["a2"], a3_near_boundary=n_near["a3"])


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
        p1, p2 = caratheodory.herglotz(atoms)
        a2, a3, q1, q2 = _induce(params, p1, p2)
        val = None
        if caratheodory.is_admissible_prefix([q1, q2]) == caratheodory.PASS:
            val = float(abs(a2) if objective == "a2" else abs(a3))
        improved = val is not None and (best_val is None or val > best_val)
        if improved:
            best_val, best_atoms = val, atoms
        if improved or best_tuple is None:   # the first tuple, until one passes
            best_tuple = CoefficientTuple(complex(p1), complex(p2),
                                          complex(q1), complex(q2))
        x = points.send(val)
    achieved = best_val if best_val is not None else 0.0
    return EmpiricalExtremum(
        best_tuple=best_tuple, achieved=achieved, bound=bound,
        gap=bound - achieved, evaluations=budget, objective=objective,
        best_atoms=best_atoms)
