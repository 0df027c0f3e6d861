"""Randomized falsification campaigns and their largest admissible |a2|, |a3|.

A campaign scores the atom sampler's batches in its chunk generator, the one
scoring kernel: rows of atom weights and angles go to their prefixes (p1,
p2), the paired element's (q1, q2) and (a2, a3), the prefix-level filter,
and |a2|, |a3| with their margins to the closed-form bounds.  Violations
beyond VIOLATION_TOL times the bound would falsify either the
implementation or the bound transcription, so the default campaigns must
report none.  falsify's fold is the one reduction over a campaign; with the
counts, histograms and violations it keeps the first admissible sample of
largest |a2| and of largest |a3|, the argmax that extremal_search reads its
record from, in one CoefficientSummary per coefficient.

Campaigns are deterministic per (seed, n_samples): sample i depends only on
the seed and i, never on n_samples, and CSV rows appear in index order.  A
campaign runs in chunks of CHUNK samples and folds each chunk into its
summary, so its memory is CHUNK x atoms per process, flat in n_samples.
falsify's fold and write_csv split the chunks by one rule, _split: one
contiguous range of whole chunks per CPU that the process may run on, at
most one per FOLD_SAMPLES samples for the fold and one per CHUNK rows for
the CSV.  The caller runs the first range and forked workers the others,
each into an anonymous part file in TMPDIR; the caller merges the partial
folds, and appends the CSV parts, in range order, so the summary and the
bytes are those of one process, whatever the worker count.  The CSV is not
kept: write_csv walks the kernel's chunks of each range again, as the
fold does, and _csv_blocks formats each chunk's rows from CSV_HEADER's
columns, SLICE rows per string, writing their float cells with one orjson
call, byte for byte as repr writes them.  The CSV's parts take up to its
size in TMPDIR while it is written.
"""

import contextlib
import itertools
import os
import pickle
import shutil
import signal
import tempfile
from typing import Iterator, NamedTuple

import numpy as np

from . import caratheodory
from .bounds import BoundReport, bounds_for
from .operators import (AlphaParams, BetaParams, CoefficientTuple,
                        induce_q_alpha, induce_q_beta)

__all__ = [
    "CampaignSummary",
    "CoefficientSummary",
    "EmpiricalExtremum",
    "falsify",
    "extremal_search",
    "VIOLATION_TOL",
    "CSV_HEADER",
]

VIOLATION_TOL = 1e-9   # relative: a margin below -VIOLATION_TOL * bound is a violation
NEAR_BOUNDARY = 10   # an admissible margin <= NEAR_BOUNDARY * VIOLATION_TOL * bound is near it
HIST_BINS = 20
HIST_KEYS = ("edges", "counts", "underflow")
# Samples per chunk, of falsify and extremal_search alike, whose memory is
# CHUNK x atoms.  Peak RSS grows with the chunk: at 2^12 the benchmark's
# campaigns peaked 5 MB (11%) lower than at 2^14 and ran up to 3% slower,
# and a 1e4-sample extremal run peaked 1.1 MB above a one-sample run, where
# at 2^14, as one chunk, it peaked 2.3 MB (6%) above.  Above 2^15 campaigns
# ran slower.
CHUNK = 1 << 12
# Samples per fold worker of falsify, at least: the fork's break-even.  On a
# 2-vCPU Xeon VM, in process, alpha 0.5 / 1 / 1 campaigns in alternating
# pairs, each labelled by a fork probe (a parent and its child each spin 50
# ms: 50 ms in all where the vCPUs run in parallel, 100 where they share
# one), two processes against one took, in the parallel phase, 11.6 against
# 10.6 ms at 32768 samples (7 of 15 won), 13.4 against 12.8 and 14.8
# against 16.9 at 40960 (6 of 15, 11 of 14), 14.3 against 15.5 at 49152 (16
# of 21) and 18.2 against 21.7 at 65536 (14 of 15); in the serialised phase,
# 19.7 against 11.4 at 32768 (0 of 5) and 26.0 against 16.9 at 40960 (0 of
# 2).  So two processes break even near 40960 samples in the parallel phase
# and lose in the serialised one: six chunks per worker keeps the fold in
# one process up to that break-even.
FOLD_SAMPLES = 24576
# CSV rows per string and per write; with a chunk's worth of rows at once (as
# Python floats), a forked CSV worker outgrew the serial writer.
SLICE = 1024

CSV_HEADER = ("family", "seed", "index", "alpha", "beta", "lambda", "mu",
              "p1_re", "p1_im", "p2_re", "p2_im",
              "q1_re", "q1_im", "q2_re", "q2_im",
              "admissible", "filter_reason",
              "a2_abs", "a3_abs", "a2_bound", "a3_bound",
              "a2_margin", "a3_margin")
# The names of CSV_HEADER that start a run of cells in _csv_blocks, which
# writes each run of a chunk's rows as one string: the float blocks p1_re to
# q2_im, a2_abs and a3_abs, and a2_margin and a3_margin, and the admissible
# flag with its filter_reason; every other column is a run of one.
_ROW_RUNS = ("family", "seed", "index", "alpha", "beta", "lambda", "mu", "p1_re",
             "admissible", "a2_abs", "a2_bound", "a3_bound", "a2_margin")


def _violated(margin, bound):
    return margin < -VIOLATION_TOL * bound


def _induce(params, p1, p2):
    """induce_q_alpha or induce_q_beta by the class of ``params``: both take
    the one system, and perfbench's traced suite requires each name called."""
    induce = induce_q_alpha if params.family == "alpha" else induce_q_beta
    return induce(p1, p2, params)


def _campaign_chunks(params, bounds: BoundReport, n_samples: int, seed: int,
                     filter_mode: str, atom_count: int, first: int = 0,
                     stop: int | None = None):
    """The scoring kernel: (start, arrays) for each chunk of at most CHUNK
    samples, in order, from the chunk that holds sample first on, through
    the last chunk that starts below stop (default n_samples); the one
    source of falsify and the CSV rows.

    Row j of each array is sample start + j: its atom weights and angles,
    prefixes p1, p2, paired q1, q2, filter masks, |a2|, |a3| and margins,
    bit for bit the same whatever the chunk it is scored in.  The streams
    are moved past the whole chunks below first, which are not made.
    """
    rngs = caratheodory.streams(seed)
    for start in range(0, n_samples if stop is None else stop, CHUNK):
        count = min(CHUNK, n_samples - start)
        if start + CHUNK <= first:
            caratheodory._skip_batch(rngs, count, atom_count)
            continue
        weights, angles = caratheodory.sample_batch(rngs, count, atom_count)
        coeffs = caratheodory._mixture_coeffs(weights, angles)
        p1, p2 = coeffs[:, 0], coeffs[:, 1]
        a2, a3, q1, q2 = _induce(params, p1, p2)
        admissible, fail_mod, fail_toe = caratheodory.admissibility_mask_k2(
            q1, q2, mode=filter_mode)
        a2, a3 = np.abs(a2), np.abs(a3)   # the complex arrays are not kept
        yield start, {"weights": weights, "angles": angles, "p1": p1, "p2": p2,
                      "q1": q1, "q2": q2, "admissible": admissible,
                      "fail_modulus": fail_mod, "fail_toeplitz": fail_toe,
                      "a2_abs": a2, "a3_abs": a3,
                      "a2_margin": bounds.a2_bound - a2, "a3_margin": bounds.a3_bound - a3}


class CoefficientSummary(NamedTuple):
    """One coefficient's fold over a campaign's admissible samples.

    With one atom, p2 = p1^2 / 2 and |p1| = 2, so every sample has the same
    exact |a3|: the a3 argmax is then the first sample whose rounded |a3| is
    largest, a rounding tie-break that any last-bit change of the kernel moves.
    """

    max_abs: float | None   # the largest admissible |a|; None where no sample passed
    # (index, ((weight, angle), ...)) of the first sample, and CSV row, of that |a|
    argmax: tuple[int, tuple[tuple[float, float], ...]] | None
    # (edges, counts, underflow): counts over [0, bound], underflow below 0
    margin_hist: tuple[tuple[float, ...], tuple[int, ...], int]
    near_boundary: int   # admissible samples near the bound, as NEAR_BOUNDARY says


class CampaignSummary(NamedTuple):
    """Aggregate result of one campaign; write_csv formats its kernel chunks."""

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
    a2: CoefficientSummary
    a3: CoefficientSummary

    def write_csv(self, fh) -> None:
        """Write the header, then each sample's row in index order, to the
        binary file fh; floats read as repr writes them.

        _split splits the rows into ranges of whole chunks, at most one per
        CHUNK rows.  Each range walks the kernel's chunks of its samples, as
        falsify's fold does, and formats them with _csv_blocks: the caller
        writes range 0 into fh, and a forked worker each further range into
        an anonymous part file in TMPDIR, which the caller appends to fh in
        order.  So the bytes are those of one process, and the parts take up
        to the CSV's own size in TMPDIR while the call runs.  Raises OSError
        when a worker fails; every worker is killed and reaped, and every
        part closed, before the call returns or raises.
        """
        p, b = self.params, self.bounds
        # the family's shape column holds its value, the other one is blank
        constants = {"family": p.family, "seed": str(self.seed), "alpha": "", "beta": "",
                     p.family: repr(getattr(p, p.family)), "lambda": repr(p.lam),
                     "mu": repr(p.mu), "a2_bound": repr(b.a2_bound), "a3_bound": repr(b.a3_bound)}

        def rows(part, start, stop, parent=None):
            for first, a in _campaign_chunks(p, b, self.n_samples, self.seed,
                                             self.filter_mode, self.atom_count,
                                             first=start, stop=stop):
                for block in _csv_blocks(first, a, constants):
                    _check_parent(parent)
                    part.write(block.encode())

        edges = _split(self.n_samples, CHUNK)
        with _forked(edges, rows, "CSV worker for rows") as parts:
            fh.write((",".join(CSV_HEADER) + "\n").encode())
            rows(fh, 0, edges[1])
            for part in parts:
                shutil.copyfileobj(part, fh)

    def to_json_dict(self) -> dict:
        payload = {
            "family": self.params.family,
            "params": {self.params.family: getattr(self.params, self.params.family),
                       "lambda": self.params.lam, "mu": self.params.mu},
            "n_samples": self.n_samples,
            "seed": self.seed,
            "filter": self.filter_mode,
            "atom_count": self.atom_count,
            "n_admissible": self.n_admissible,
            "n_fail_modulus": self.n_fail_modulus,
            "n_fail_toeplitz": self.n_fail_toeplitz,
            "violations": [list(v) for v in self.violations],
            "argmax": {}, "near_boundary": {},
            "tolerances": {"violation_tol": VIOLATION_TOL,
                           "violation_tol_relative_to": "bound",
                           "modulus_tol": caratheodory.MODULUS_TOL,
                           "eig_tol": caratheodory.EIG_TOL},
        }
        for c in ("a2", "a3"):
            s, bound = getattr(self, c), getattr(self.bounds, f"{c}_bound")
            # the least margin is the bound less max_abs, as fl(b - x) does not increase with x
            payload |= {f"{c}_bound": bound, f"max_{c}_abs": s.max_abs,
                        f"min_{c}_margin": None if s.max_abs is None else bound - s.max_abs,
                        f"{c}_margin_hist": dict(zip(HIST_KEYS, s.margin_hist))}
            payload["argmax"][c] = None if s.argmax is None else s.argmax[0]
            payload["near_boundary"][c] = s.near_boundary
        return payload


def _csv_blocks(first: int, a: dict, constants: dict[str, str]) -> Iterator[str]:
    """The CSV rows of the kernel's chunk a, whose row 0 is sample first: one
    string per SLICE rows, each row ending in a newline.  constants holds
    the cells that every row of the campaign shares, by column name.

    Each string's rows are zipped from one iterator of strings per run of
    columns (_ROW_RUNS): the constants, the index, the admissible and
    filter_reason pair, and three float blocks (p1 to q2 by real and
    imaginary part, |a2| and |a3|, and the margins) that _float_cells writes.
    """
    count = len(a["p1"])
    # SLICE rows at a time, as their strings outweigh the chunk
    for lo in range(0, count, SLICE):
        r = slice(lo, min(lo + SLICE, count))
        cols = {name: itertools.repeat(cell) for name, cell in constants.items()}
        cols["index"] = map(str, range(first + r.start, first + r.stop))
        # each float block fills the run of columns from its first name on
        cols["p1_re"] = _float_cells(np.stack(
            [a[name][r] for name in ("p1", "p2", "q1", "q2")], axis=1).view(np.float64))
        cols["a2_abs"] = _float_cells(np.stack((a["a2_abs"][r], a["a3_abs"][r]), axis=1))
        cols["a2_margin"] = _float_cells(
            np.stack((a["a2_margin"][r], a["a3_margin"][r]), axis=1))
        # the failure masks are disjoint: 0 passed, 1 modulus, 2 toeplitz;
        # admissible and filter_reason, in one string
        fails = (a["fail_modulus"][r] + 2 * a["fail_toeplitz"][r]).tolist()
        cols["admissible"] = map(("true,", "false,modulus", "false,toeplitz").__getitem__,
                                 fails)
        rows = map(",".join, zip(*(cols[name] for name in _ROW_RUNS)))
        yield "\n".join(rows) + "\n"


def _float_cells(block: np.ndarray) -> list[str]:
    """The cells of each row of the 2-D float array block, as repr writes
    them, comma-joined: one string per row.

    One orjson.dumps call writes the whole block straight from its buffer,
    which must be C-contiguous (as np.stack makes it): orjson rejects any
    other array.  The rows are split out of its text.  orjson writes the
    shortest round-trip form, as repr does, and its text equals repr's for
    every finite x with 1e-4 <= |x| < 1e16; outside that range it writes
    0.00001, 1e16 and null where repr writes 1e-05, 1e+16, nan and inf, so a
    row with a cell there is rebuilt from repr.  orjson is imported here, by
    the CSV path alone: its import costs a CLI child some 9 ms.
    """
    import orjson
    rows = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].decode().split("],[")
    magnitude = np.abs(block)
    outside = ~((magnitude >= 1e-4) & (magnitude < 1e16)).all(axis=1)
    for i in np.flatnonzero(outside).tolist():
        rows[i] = ",".join(map(repr, block[i].tolist()))
    return rows


def _split(n_samples: int, per_worker: int) -> list[int]:
    """The P + 1 edges of P contiguous ranges of whole chunks that cover
    samples 0 to n_samples - 1, for falsify's fold and write_csv alike.  P is
    the CPUs this process may run on (sched_getaffinity, so taskset limits
    them), at most one per per_worker samples, and at least 1; 1 where the
    platform has no fork or no sched_getaffinity."""
    cpus = (len(os.sched_getaffinity(0))
            if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else 1)
    p, n_chunks = max(1, min(cpus, n_samples // per_worker)), -(-n_samples // CHUNK)
    return [min(n_samples, CHUNK * (n_chunks * k // p)) for k in range(p + 1)]


def _check_parent(parent: int | None) -> None:
    """Raise ChildProcessError where parent is set and is no longer this
    process's parent: a worker whose caller died stops at its next check."""
    if parent is not None and os.getppid() != parent:
        raise ChildProcessError(f"process {parent} is gone")


@contextlib.contextmanager
def _forked(edges: list[int], work, what: str):
    """Run work(part, edges[k], edges[k + 1], parent) for each range k >= 1
    in a forked worker, into an anonymous temporary file part in TMPDIR;
    parent is the caller's pid, for _check_parent.  The block runs range 0
    itself, then reads the parts from the iterator it is given: each part,
    in range order, rewound once its worker has exited 0.  A failed worker
    raises OSError naming what and its range.  Every worker is killed and
    reaped, and every part closed, when the block is left.
    """
    me = os.getpid()
    parts, pids = [], {}   # the part file of each range k >= 1; unreaped workers
    try:
        for k in range(1, len(edges) - 1):
            parts.append(tempfile.TemporaryFile())
            # fork, not spawn: a worker starts with its arguments and numpy in
            # place, where a fresh interpreter takes ~0.2 s to import them;
            # under the CLI that heap is frozen (cli.main), so a worker's
            # collections neither traverse nor copy the pages it shares
            pid = os.fork()
            if pid == 0:
                _run_worker(work, parts[-1], edges[k], edges[k + 1], me)
            pids[k] = pid

        def finished():
            for k, part in enumerate(parts, 1):
                code = os.waitstatus_to_exitcode(os.waitpid(pids[k], 0)[1])
                del pids[k]
                if code != 0:
                    # a worker that failed on its own left its error in its part
                    detail = (os.pread(part.fileno(), 1000, 0).decode(errors="replace")
                              if code == 1 else "")
                    raise OSError(f"the {what} {edges[k]} to {edges[k + 1] - 1} "
                                  f"failed: {detail or f'exit status {code}'}")
                part.seek(0)
                yield part

        yield finished()
    finally:
        for pid in pids.values():
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for part in parts:
            part.close()


def _run_worker(work, part, start: int, stop: int, parent: int) -> None:
    """A forked worker of _forked: work(part, start, stop, parent).  Never
    returns: it leaves through os._exit, 0 on success, 1 with the error's
    text in place of its output on any exception (an exit that skips the
    handlers and buffers it shares with its parent).
    """
    code = 1
    try:
        work(part, start, stop, parent)
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

    Scores the sampler's atom mixtures in the campaign's chunks: the paired
    element is induced, samples whose (q1, q2) prefix is inadmissible are
    filtered out, and survivors' |a2|, |a3| are compared against the
    closed-form bounds.  The violation list must come back empty if the
    bounds (and this transcription) are correct.

    The chunks are split by _split into ranges of whole chunks, at most one
    per FOLD_SAMPLES samples.  The caller folds range 0 and a forked worker
    each further range, into a part file in TMPDIR; the caller merges the
    folds in range order (see _merge), so the summary does not depend on the
    worker count.  Each process folds one chunk at a time, so memory is
    CHUNK x atoms per process.  Raises OSError when a worker fails.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rep = bounds_for(params)
    hist_edges = {c: np.linspace(0.0, bound, HIST_BINS + 1)
                  for c, bound in (("a2", rep.a2_bound), ("a3", rep.a3_bound))}
    edges = _split(n_samples, FOLD_SAMPLES)

    def fold(start, stop, parent=None):
        return _fold(_campaign_chunks(params, rep, n_samples, seed, filter_mode,
                                      atom_count, first=start, stop=stop), hist_edges, parent)

    with _forked(edges, lambda part, *run: pickle.dump(fold(*run), part),
                 "campaign worker for samples") as parts:
        folds = [fold(0, edges[1])]
        folds += map(pickle.load, parts)
    counts, violations, coefficients = _merge(folds)
    return CampaignSummary(
        params=params, n_samples=n_samples, seed=seed,
        filter_mode=filter_mode, atom_count=atom_count, bounds=rep,
        n_admissible=int(counts[0]), n_fail_modulus=int(counts[1]),
        n_fail_toeplitz=int(counts[2]),
        violations=tuple(sorted(violations)),   # by index, then "a2" before "a3"
        **{c: CoefficientSummary(
            max_abs=float(s["top"]) if counts[0] else None, argmax=s["argmax"],
            margin_hist=(tuple(hist_edges[c].tolist()), tuple(s["hist"].tolist()),
                         s["underflow"]),
            near_boundary=s["near"]) for c, s in coefficients.items()})


def _fold(chunks, hist_edges: dict[str, np.ndarray], parent: int | None = None):
    """The fold of scored chunks, in order, against hist_edges, each
    coefficient's margin bin edges over [0, bound]: the counts (admissible,
    modulus fails, toeplitz fails), the violations (index, coefficient,
    margin) and, per coefficient, "top" and "argmax" (the first admissible
    sample of largest |a| and its atoms: np.argmax within a chunk, then a
    strict > across chunks), "hist" (the margin counts over [0, bound], as
    _histogram), "underflow" (margins below 0) and "near" (margins near the
    bound, as NEAR_BOUNDARY says).  Checks parent before each chunk.
    """
    counts, violations = np.zeros(3, dtype=np.int64), []
    coefficients = {c: {"top": -np.inf, "argmax": None, "underflow": 0, "near": 0,
                        "hist": np.zeros(HIST_BINS, dtype=np.int64)} for c in hist_edges}
    for start, a in chunks:
        _check_parent(parent)
        rows = np.flatnonzero(a["admissible"])
        counts += (rows.size, np.count_nonzero(a["fail_modulus"]),
                   np.count_nonzero(a["fail_toeplitz"]))
        for c, edges in hist_edges.items():
            s, bound = coefficients[c], edges[-1]
            x, margin = a[f"{c}_abs"][rows], a[f"{c}_margin"][rows]
            bad = _violated(margin, bound)
            violations += zip((start + rows[bad]).tolist(), itertools.repeat(c),
                              margin[bad].tolist())
            if rows.size and x[j := int(np.argmax(x))] > s["top"]:
                s["top"], i = x[j], int(rows[j])
                s["argmax"] = (start + i, tuple(zip(a["weights"][i].tolist(),
                                                    a["angles"][i].tolist())))
            s["hist"] += _histogram(margin, edges)
            s["underflow"] += int(np.count_nonzero(margin < 0.0))
            s["near"] += int(np.count_nonzero(margin <= NEAR_BOUNDARY * VIOLATION_TOL * bound))
    return counts, violations, coefficients


def _histogram(x, edges: np.ndarray) -> np.ndarray:
    """np.histogram(x, bins=HIST_BINS, range=(0.0, bound))[0], edges being
    its bin edges over [0, bound], by numpy's own rule for equal bins,
    inlined (numpy/lib/_histograms_impl.py): keep x in [0, bound], take bin
    x / bound * HIST_BINS (numpy's (x - 0) / bound * HIST_BINS: x - 0.0 is
    x), then move it by one where x falls outside its edges, and count.
    Divide, then scale, as numpy does: HIST_BINS / bound overflows for
    bounds below about 1.1e-307.  On a chunk's 1700 admissible margins it
    took 26 us where np.histogram took 48 (2-CPU Xeon).
    """
    bound = edges[-1]
    x = x[(x >= 0.0) & (x <= bound)]
    i = (x / bound * HIST_BINS).astype(np.intp)
    i[i == HIST_BINS] -= 1   # x == bound: the last bin holds its right edge
    i[x < edges[i]] -= 1
    i[(x >= edges[i + 1]) & (i != HIST_BINS - 1)] += 1
    return np.bincount(i, minlength=HIST_BINS)


def _merge(folds: list):
    """One fold from the _fold results of consecutive ranges, in order: the
    counts add, the violations concatenate, and a strict > keeps the first
    top across ranges, as across chunks."""
    counts, violations, coefficients = folds[0]
    for later_counts, later_violations, later_coefficients in folds[1:]:
        counts += later_counts
        violations += later_violations
        for c, s in later_coefficients.items():
            if s["top"] > coefficients[c]["top"]:
                coefficients[c] |= {"top": s["top"], "argmax": s["argmax"]}
            for key in ("hist", "underflow", "near"):
                coefficients[c][key] += s[key]
    return counts, violations, coefficients


class EmpiricalExtremum(NamedTuple):
    """The campaign's first admissible sample of largest |a2| or |a3|, with
    its gap to the bound.

    ``achieved`` is an empirical lower bound on the class extremum; the gap
    must never be significantly negative (``violated``, by falsify's rule),
    and nothing is asserted about how small it gets.  ``best_index`` is the
    ``a2.argmax`` or ``a3.argmax`` index of falsify's campaign of the same
    params, seed, atom count and ``evaluations`` samples, so ``best_tuple``
    is the p1..q2 of that campaign's CSV row ``best_index`` and ``achieved``
    its ``a2.max_abs`` or ``a3.max_abs``.  Where no sample passes the
    filter, the record is sample 0, with ``achieved`` 0.0 and ``best_atoms``
    None.  The record is rebuilt once, from the sample's atoms, through
    ``herglotz`` and ``is_admissible_prefix``, which give its kernel row.
    """

    best_tuple: CoefficientTuple
    achieved: float
    bound: float
    gap: float
    evaluations: int
    objective: str
    best_atoms: tuple[tuple[float, float], ...] | None
    best_index: int

    @property
    def violated(self) -> bool:
        """Whether the gap is a violation of the bound, as falsify counts one."""
        return _violated(self.gap, self.bound)


def extremal_search(params, objective: str, budget: int, seed: int, *,
                    atom_count: int = 3) -> EmpiricalExtremum:
    """Largest |a2| or |a3| over the admissible samples of the "toeplitz"
    campaign of budget samples at seed and atom_count.

    The record is the objective's argmax in that campaign's falsify summary;
    a sample that fails the filter scores nothing.  Sample i depends only on
    (seed, i), so the result is monotone nondecreasing in the budget, and
    its memory is CHUNK x atoms per process, as in falsify.
    """
    if objective not in ("a2", "a3"):
        raise ValueError(f"objective must be 'a2' or 'a3', got {objective!r}")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    summary = falsify(params, budget, seed, atom_count=atom_count)
    bound = getattr(summary.bounds, f"{objective}_bound")
    index, atoms = getattr(summary, objective).argmax or (0, None)
    if atoms is None:   # nothing passed: sample 0, row 0 of the campaign's streams
        weights, angles = caratheodory.sample_batch(caratheodory.streams(seed), 1, atom_count)
        atoms = tuple(zip(weights[0].tolist(), angles[0].tolist()))
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
