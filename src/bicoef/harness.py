"""Randomized falsification campaigns and their largest admissible |a2|, |a3|.

Both run on one scoring kernel, ``_score``: rows of atom weights and angles
go to their prefixes (p1, p2), the paired element's (q1, q2) and (a2, a3),
the prefix-level filter, and |a2|, |a3|.  A campaign scores the atom
sampler's batches and compares the |a2|, |a3| of survivors against the
closed-form bounds.  Violations beyond VIOLATION_TOL would falsify either the
implementation or the bound transcription, so the default campaigns must
report none.  The extremal record is the campaign's first admissible sample
of largest |a2| or |a3|, found in one scan of the same chunks.

Campaigns are deterministic per (seed, n_samples): sample i depends only on
the seed and i, never on n_samples, and CSV rows appear in index order.  A
campaign runs in chunks of CHUNK samples and folds each chunk into its
summary, so its memory is CHUNK x atoms, flat in n_samples; so is the
extremal scan's.  The CSV is not kept: the summary replays the same chunks
from its own fields when it writes the rows.  The writer splits the rows
into one contiguous range per CPU that the process may run on (at most one
per CHUNK rows) and formats all but the first range in forked workers, each
into an anonymous part file in TMPDIR, which together take up to the CSV's
size there; the caller appends the parts in order, so the bytes equal those
one process writes.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import shutil
import signal
import tempfile
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
# Samples per chunk, of falsify and extremal_search alike, whose memory is
# CHUNK x atoms.  Peak RSS grows with the chunk: at 2^12 the benchmark's
# campaigns peaked 5 MB (11%) lower than at 2^14 and ran up to 3% slower,
# and a 1e4-sample extremal run peaked 1.1 MB above a one-sample run, where
# at 2^14, as one chunk, it peaked 2.3 MB (6%) above.  Above 2^15 campaigns
# ran slower.
CHUNK = 1 << 12
# CSV rows per .tolist() call and per write; with a chunk's worth of Python
# floats and complexes at once, a forked CSV worker outgrew the serial writer.
SLICE = 1024

CSV_HEADER = ("family", "seed", "index", "alpha", "beta", "lambda", "mu",
              "p1_re", "p1_im", "p2_re", "p2_im",
              "q1_re", "q1_im", "q2_re", "q2_im",
              "admissible", "filter_reason",
              "a2_abs", "a3_abs", "a2_bound", "a3_bound",
              "a2_margin", "a3_margin")


def _induce(params, p1, p2):
    induce = induce_q_alpha if params.family == "alpha" else induce_q_beta
    return induce(p1, p2, params)


def _score(params, weights, angles, filter_mode: str = "toeplitz") -> dict:
    """The scoring kernel of falsify and extremal_search.

    Maps (count, m) arrays of atom weights and angles to count-row arrays:
    the prefixes p1, p2, the paired q1, q2, the filter masks and |a2|, |a3|.
    A row depends only on its own weights and angles, bit for bit, whatever
    the batch it is scored in.
    """
    coeffs = caratheodory._mixture_coeffs(weights, angles)
    p1, p2 = coeffs[:, 0], coeffs[:, 1]
    a2, a3, q1, q2 = _induce(params, p1, p2)
    admissible, fail_mod, fail_toe = caratheodory.admissibility_mask_k2(
        q1, q2, mode=filter_mode)
    return {"p1": p1, "p2": p2, "q1": q1, "q2": q2,
            "admissible": admissible, "fail_modulus": fail_mod,
            "fail_toeplitz": fail_toe, "a2_abs": np.abs(a2), "a3_abs": np.abs(a3)}


def _campaign_chunks(params, bounds: BoundReport, n_samples: int, seed: int,
                     filter_mode: str, atom_count: int):
    """(start, arrays) for each chunk of at most CHUNK samples, in order.

    Row j of each array in arrays is sample start + j: its atom weights and
    angles, its _score row and its margins.  The one source of falsify,
    extremal_search and the CSV replay.
    """
    rngs = caratheodory.streams(seed)
    for start in range(0, n_samples, CHUNK):
        weights, angles = caratheodory.sample_batch(
            rngs, min(CHUNK, n_samples - start), atom_count)
        a = _score(params, weights, angles, filter_mode)
        a["weights"], a["angles"] = weights, angles
        a["a2_margin"] = bounds.a2_bound - a["a2_abs"]
        a["a3_margin"] = bounds.a3_bound - a["a3_abs"]
        yield start, a


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

    def csv_lines(self, start: int = 0, stop: int | None = None) -> Iterator[str]:
        """The header, then the CSV rows of samples start to stop - 1 (stop
        defaults to n_samples) in index order; floats use shortest
        round-trip form.

        The rows are recomputed, chunk by chunk, from the summary's params,
        bounds, seed, n_samples, filter_mode and atom_count; the chunks below
        start are scored and skipped.
        """
        stop = self.n_samples if stop is None else stop
        yield ",".join(CSV_HEADER)
        fam = self.params.family
        alpha = repr(self.params.alpha) if fam == "alpha" else ""
        beta = repr(self.params.beta) if fam == "beta" else ""
        prefix = f"{fam},{self.seed},"
        mid = f",{alpha},{beta},{self.params.lam!r},{self.params.mu!r},"
        b2, b3 = repr(self.bounds.a2_bound), repr(self.bounds.a3_bound)
        for first, a in _campaign_chunks(self.params, self.bounds, self.n_samples,
                                         self.seed, self.filter_mode, self.atom_count):
            if first >= stop:
                break
            end = min(stop - first, len(a["p1"]))
            # .tolist() hands back Python scalars (numpy scalar reprs are not
            # CSV-safe); SLICE rows at a time, as those objects outweigh the chunk
            for lo in range(max(start - first, 0), end, SLICE):
                r = slice(lo, min(lo + SLICE, end))
                p1, p2 = a["p1"][r].tolist(), a["p2"][r].tolist()
                q1, q2 = a["q1"][r].tolist(), a["q2"][r].tolist()
                a2a, a3a = a["a2_abs"][r].tolist(), a["a3_abs"][r].tolist()
                m2, m3 = a["a2_margin"][r].tolist(), a["a3_margin"][r].tolist()
                adm = a["admissible"][r].tolist()
                fmod, ftoe = a["fail_modulus"][r].tolist(), a["fail_toeplitz"][r].tolist()
                base = first + lo
                for i in range(len(adm)):
                    reason = "modulus" if fmod[i] else "toeplitz" if ftoe[i] else ""
                    yield (f"{prefix}{base + i}{mid}"
                           f"{p1[i].real!r},{p1[i].imag!r},{p2[i].real!r},{p2[i].imag!r},"
                           f"{q1[i].real!r},{q1[i].imag!r},{q2[i].real!r},{q2[i].imag!r},"
                           f"{'true' if adm[i] else 'false'},{reason},"
                           f"{a2a[i]!r},{a3a[i]!r},{b2},{b3},{m2[i]!r},{m3[i]!r}")

    def write_csv(self, fh) -> None:
        """Write the header and every row of csv_lines to the binary file fh.

        The rows 0 to n_samples - 1 are split into P contiguous ranges of
        about equal size, P being the number of CPUs this process may run on
        (sched_getaffinity), but at most one per CHUNK rows, and 1 where the
        platform has no fork.  The caller writes range 0 into fh; for each
        further range a forked worker writes it into an anonymous temporary
        file in TMPDIR, which the caller then appends to fh in order.  So the
        bytes are those of one process writing every row, and the part files
        take up to the CSV's own size in TMPDIR while the call runs.  Raises
        OSError when a worker fails.  Every worker is killed and reaped, and
        every part file closed, before the call returns or raises.
        """
        n = self.n_samples
        p = _csv_workers(n)
        edges = [n * k // p for k in range(p + 1)]
        me = os.getpid()
        parts, pids = [], {}   # the part file of each range k >= 1; unreaped workers
        try:
            for k in range(1, p):
                parts.append(tempfile.TemporaryFile())
                # fork, not spawn: a worker starts with the summary and numpy in
                # place, where a fresh interpreter takes ~0.2 s to import them
                pid = os.fork()
                if pid == 0:
                    _run_worker(self, parts[-1], edges[k], edges[k + 1], me)
                pids[k] = pid
            _write_lines(fh, self.csv_lines(0, edges[1]))
            for k, part in enumerate(parts, 1):
                code = os.waitstatus_to_exitcode(os.waitpid(pids[k], 0)[1])
                del pids[k]
                if code != 0:
                    # a worker that failed on its own left its error in its part
                    detail = (os.pread(part.fileno(), 1000, 0).decode(errors="replace")
                              if code == 1 else "")
                    raise OSError(f"the CSV worker for rows {edges[k]} to {edges[k + 1] - 1} "
                                  f"failed: {detail or f'exit status {code}'}")
                part.seek(0)
                shutil.copyfileobj(part, fh)
        finally:
            for pid in pids.values():
                with contextlib.suppress(ProcessLookupError, ChildProcessError):
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
            for part in parts:
                part.close()

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


def _csv_workers(n_rows: int) -> int:
    """P of write_csv: the CPUs this process may run on, at most one per
    CHUNK rows; 1 where the platform has no fork or no sched_getaffinity."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(len(os.sched_getaffinity(0)), -(-n_rows // CHUNK))


def _write_lines(fh, lines: Iterator[str], parent: int | None = None) -> None:
    """Write lines to the binary file fh, SLICE lines at a time; with parent
    set, stop early once that process is no longer this one's parent."""
    while block := list(itertools.islice(lines, SLICE)):
        if parent is not None and os.getppid() != parent:
            raise ChildProcessError(f"process {parent} is gone")
        fh.write(("\n".join(block) + "\n").encode("utf-8"))


def _run_worker(summary: CampaignSummary, part, start: int, stop: int,
                parent: int) -> None:
    """The forked CSV worker of write_csv: rows start to stop - 1 into the
    binary file part.  Never returns: it leaves through os._exit, 0 on
    success, 1 with the error's text in place of the rows on any exception
    (an exit that skips the handlers and buffers it shares with its parent).
    """
    code = 1
    try:
        rows = itertools.islice(summary.csv_lines(start, stop), 1, None)   # no header
        _write_lines(part, rows, parent)
        part.flush()
        code = 0
    except BaseException as exc:
        with contextlib.suppress(BaseException):
            os.ftruncate(part.fileno(), 0)
            os.pwrite(part.fileno(), (str(exc) or type(exc).__name__).encode(), 0)
    finally:
        os._exit(code)


def falsify(params, n_samples: int, seed: int, *,
            filter_mode: str = "toeplitz", atom_count: int = 3) -> CampaignSummary:
    """Run one falsification campaign against the matching coefficient bound.

    Draws atom mixtures from the sampler and scores them with the kernel
    that extremal_search shares: the paired element is induced, samples
    whose (q1, q2) prefix is inadmissible are filtered out, and survivors'
    |a2|, |a3| are compared against the closed-form bounds.  The violation list
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


@dataclass(frozen=True)
class EmpiricalExtremum:
    """The campaign's first admissible sample of largest |a2| or |a3|, with
    its gap to the bound.

    ``achieved`` is an empirical lower bound on the class extremum; the gap
    must never be significantly negative, and nothing is asserted about how
    small it gets.  ``best_index`` is the sample's index in the campaign of
    the same params, seed, atom count and ``evaluations`` samples, so
    ``best_tuple`` is the p1..q2 of that campaign's CSV row ``best_index``
    and ``achieved`` its ``max_a2_abs`` or ``max_a3_abs``.  Where no sample
    passes the filter, the record is sample 0, with ``achieved`` 0.0 and
    ``best_atoms`` None.  The record is rebuilt once, from the sample's
    atoms, through ``herglotz`` and ``is_admissible_prefix``, which give its
    kernel row.
    """

    best_tuple: CoefficientTuple
    achieved: float
    bound: float
    gap: float
    evaluations: int
    objective: str
    best_atoms: tuple[tuple[float, float], ...] | None
    best_index: int


def extremal_search(params, objective: str, budget: int, seed: int, *,
                    atom_count: int = 3) -> EmpiricalExtremum:
    """Largest |a2| or |a3| over the admissible samples of the "toeplitz"
    campaign of budget samples at seed and atom_count.

    One scan of the campaign's chunks: np.argmax within a chunk, then a
    strict > across chunks, keeps the first index of the largest value; a
    sample that fails the filter scores nothing.  Sample i depends only on
    (seed, i), so the result is monotone nondecreasing in the budget, and
    its memory is CHUNK x atoms, as in falsify.
    """
    if objective not in ("a2", "a3"):
        raise ValueError(f"objective must be 'a2' or 'a3', got {objective!r}")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if atom_count < 1:
        raise ValueError("atom_count must be >= 1")
    rep = bounds_for(params)
    bound = rep.a2_bound if objective == "a2" else rep.a3_bound
    for start, a in _campaign_chunks(params, rep, budget, seed, "toeplitz", atom_count):
        scores = np.where(a["admissible"], a[f"{objective}_abs"], -np.inf)
        j = int(np.argmax(scores))
        if start == 0 or scores[j] > best:   # sample 0 stands until one passes
            best, index = scores[j], start + j
            atoms = tuple(zip(a["weights"][j].tolist(), a["angles"][j].tolist()))
    # the record, rebuilt through the public one-point functions, which
    # perfbench's traced suite requires in every extremal run
    c = caratheodory.herglotz(atoms)
    a2, a3, q1, q2 = _induce(params, c[:1], c[1:])   # one-row arrays: the kernel's bits
    passed = caratheodory.is_admissible_prefix([q1[0], q2[0]]) == caratheodory.PASS
    achieved = float(abs(a2 if objective == "a2" else a3)[0]) if passed else 0.0
    return EmpiricalExtremum(
        best_tuple=CoefficientTuple(complex(c[0]), complex(c[1]),
                                    complex(q1[0]), complex(q2[0])),
        achieved=achieved, bound=bound, gap=bound - achieved, evaluations=budget,
        objective=objective, best_atoms=atoms if passed else None, best_index=index)
