import hashlib
import io
import json
import math
import os
import select
import signal
import sys
import tempfile
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bicoef import caratheodory, harness
from bicoef.bounds import bounds_for
from bicoef.cli import main
from bicoef.harness import (CHUNK, CSV_HEADER, HIST_BINS, SLICE, VIOLATION_TOL,
                            CampaignSummary, CoefficientSummary, EmpiricalExtremum,
                            _campaign_chunks, extremal_search, falsify)
from bicoef.operators import AlphaParams, BetaParams, CoefficientTuple
from oracles import csv_lines_row_by_row


# ------------------------------------------------------------------ falsify

def test_alpha_campaign_has_no_violations():
    summary = falsify(AlphaParams(1, 1, 1), 5000, seed=1)
    assert summary.violations == ()
    assert summary.n_admissible > 0
    payload = summary.to_json_dict()
    assert payload["min_a2_margin"] >= -VIOLATION_TOL
    assert payload["min_a3_margin"] >= -VIOLATION_TOL


def test_beta_campaign_max_a2_respects_bound():
    summary = falsify(BetaParams(0, 1, 1), 5000, seed=2)
    assert summary.violations == ()
    assert summary.a2.max_abs <= math.sqrt(2 / 3) + 1e-9


def _csv_lines(summary):
    """The lines of the CSV that summary.write_csv writes, without their
    newlines."""
    fh = io.BytesIO()
    summary.write_csv(fh)
    return fh.getvalue().decode().splitlines()


def _csv_rows(summary):
    lines = _csv_lines(summary)
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


# One small campaign per class, pinned: the counts (admissible, modulus
# fails, toeplitz fails), each histogram's counts and underflow, the near
# boundary counts, the argmax indices and the sha256 of the admissible column
# of the CSV as a packed bitmap exactly; max |a2|, max |a3|, min a2 margin and
# min a3 margin to 1e-12 relative, as the last bits of exp and einsum may
# differ across platforms.  Regenerate only on purpose, with a CHANGES.md note.
GOLDEN = {
    "alpha": (AlphaParams(0.5, 1, 1), {
        "counts": (2092, 2588, 320),
        "a2_hist": ((24, 64, 88, 114, 134, 159, 149, 151, 172, 156,
                     131, 146, 143, 107, 100, 82, 66, 57, 35, 14), 0),
        "a3_hist": ((0, 0, 0, 0, 0, 0, 0, 0, 44, 177,
                     259, 344, 328, 315, 213, 164, 110, 79, 40, 19), 0),
        "near_boundary": (0, 0), "argmax": (2334, 2159),
        "admissible_sha256": "f7c86d16df6c91a8fc900872c0b5e6e994abc8793f5041e094ef90d4f20fcd01",
        "extrema": (0.44502970888332605, 0.33159746086166997,
                    0.0021838866166318804, 0.2517358724716633)}),
    "beta": (BetaParams(0.5, 2, 0.5), {
        "counts": (2075, 0, 2925),
        "a2_hist": ((0, 0, 0, 31, 128, 165, 191, 161, 195, 178,
                     162, 137, 159, 143, 122, 92, 82, 68, 43, 18), 0),
        "a3_hist": ((0, 0, 0, 0, 0, 66, 102, 127, 140, 169,
                     180, 205, 239, 203, 170, 185, 117, 96, 54, 22), 0),
        "near_boundary": (0, 0), "argmax": (1865, 2159),
        "admissible_sha256": "284be62684828fea1d10dd8093fd41a493ca60655bbdc35e378dfd23fee12f46",
        "extrema": (0.32979987228396795, 0.22097607596207758,
                    0.07020012771603207, 0.0753202203342187)}),
}


@pytest.mark.parametrize("family", GOLDEN)
def test_golden_digest_of_a_small_campaign(family):
    params, want = GOLDEN[family]
    s = falsify(params, 5000, seed=1)
    column = CSV_HEADER.index("admissible")
    bits = [line.split(",")[column] == "true" for line in _csv_lines(s)[1:]]
    assert (s.n_admissible, s.n_fail_modulus, s.n_fail_toeplitz) == want["counts"]
    assert s.a2.margin_hist[1:] == want["a2_hist"] and s.a3.margin_hist[1:] == want["a3_hist"]
    assert (s.a2.near_boundary, s.a3.near_boundary) == want["near_boundary"]
    assert (s.a2.argmax[0], s.a3.argmax[0]) == want["argmax"]
    assert hashlib.sha256(np.packbits(bits).tobytes()).hexdigest() == want["admissible_sha256"]
    payload = s.to_json_dict()
    got = (s.a2.max_abs, s.a3.max_abs, payload["min_a2_margin"], payload["min_a3_margin"])
    for value, pinned in zip(got, want["extrema"]):
        assert abs(value - pinned) <= 1e-12 * abs(pinned)


@pytest.mark.parametrize("alpha", [1.0, 1e-302, sys.float_info.min])
def test_margin_histograms_span_zero_to_the_bound(alpha):
    # tiny bounds included: the bins are bound / HIST_BINS wide, however small
    summary = falsify(AlphaParams(alpha, 1, 0), 500, seed=1)
    for bound, (edges, counts, underflow) in (
            (summary.bounds.a2_bound, summary.a2.margin_hist),
            (summary.bounds.a3_bound, summary.a3.margin_hist)):
        assert edges[0] == 0.0 and edges[-1] == bound and len(counts) == HIST_BINS
        assert sum(counts) + underflow == summary.n_admissible
        assert max(counts) < summary.n_admissible


# the smaller bound 1x to 100x the smallest normal float: the real-part
# class's |a2| linear arm at beta = 1 - 2^-53, and the angular class's bounds
# at tiny alpha
@pytest.mark.parametrize("params", [
    *(BetaParams(0.9999999999999999, lam, mu) for lam in (4.9e291, 1e291, 1e290)
      for mu in (0.0, 1.0)),
    AlphaParams(3e-308, 1.0, 0.0), AlphaParams(1e-306, 1.0, 0.0), AlphaParams(1e-306, 3.0, 1.0),
], ids=repr)
@pytest.mark.parametrize("atom_count", [1, 2, 3])
@pytest.mark.parametrize("filter_mode", ["modulus", "toeplitz"])
def test_campaigns_just_above_the_smallest_normal_bound_are_clean(params, atom_count,
                                                                  filter_mode):
    summary = falsify(params, 5000, seed=1, filter_mode=filter_mode, atom_count=atom_count)
    rep = summary.bounds
    assert sys.float_info.min <= min(rep.a2_bound, rep.a3_bound) <= 100 * sys.float_info.min
    assert summary.violations == ()


@given(st.floats(min_value=5e-324, max_value=1e308),
       st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=50),
       st.lists(st.floats(), max_size=20))
@example(5e-324, [], [])
@example(1e-322, [0.5], [])
@example(sys.float_info.min, [0.5], [])
@example(1e308, [1.0, 0.95], [1.7976931348623157e308])
def test_the_fold_histogram_is_numpys(bound, fractions, values):
    try:
        edges = np.histogram_bin_edges(np.empty(0), HIST_BINS, (0.0, bound))
    except ValueError:
        # some subnormal bounds have no HIST_BINS distinct edges, as
        # np.histogram says; bounds_for refuses every subnormal bound, so
        # falsify never bins margins against one
        with pytest.raises(ValueError, match="Too many bins"):
            np.histogram(np.empty(0), bins=HIST_BINS, range=(0.0, bound))
        assert bound < 1e-320
        return
    # every edge, its neighbours and the bound, NaN, the infinities, -0.0,
    # values below 0 and above the bound, and fractions of the bound
    x = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                        [bound, -0.0, -bound, np.nan, np.inf, -np.inf],
                        np.array(fractions) * bound, values])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = harness._histogram(x, edges)
    assert got.tolist() == np.histogram(x, bins=HIST_BINS, range=(0.0, bound))[0].tolist()


def _kernel_arrays(summary):
    """The per-sample arrays of a campaign, its chunks joined."""
    chunks = [a for _, a in _campaign_chunks(
        summary.params, summary.bounds, summary.n_samples, summary.seed,
        summary.filter_mode, summary.atom_count)]
    return {key: np.concatenate([a[key] for a in chunks]) for key in chunks[0]}


def _halved_bounds(params):
    rep = bounds_for(params)
    return rep._replace(a2_bound=rep.a2_bound / 2, a3_bound=rep.a3_bound / 2)


def test_violations_against_halved_bounds(monkeypatch, capsys):
    # both bounds are attained in the limit for beta = 0, lam = 1, mu = 0,
    # so halving them makes samples violate each
    monkeypatch.setattr(harness, "bounds_for", _halved_bounds)
    argv = ["falsify", "--family", "beta", "--beta", "0", "--lambda", "1",
            "--mu", "0", "-n", "400", "--seed", "1"]
    summary = falsify(BetaParams(0, 1, 0), 400, seed=1)
    arrays = _kernel_arrays(summary)
    bounds = {"a2": summary.bounds.a2_bound, "a3": summary.bounds.a3_bound}
    want = sorted((int(i), c) for c in bounds for i in np.flatnonzero(
        arrays["admissible"] & (arrays[f"{c}_margin"] < -VIOLATION_TOL * bounds[c])))
    # ascending index, "a2" before "a3" at the same index, admissible rows only
    assert [(i, c) for i, c, _ in summary.violations] == want
    assert len({i for i, _ in want}) < len(want)   # some index violates both
    for i, c, margin in summary.violations:
        assert margin == bounds[c] - arrays[f"{c}_abs"][i]
        assert margin < -VIOLATION_TOL * bounds[c]
    for _, counts, underflow in (summary.a2.margin_hist, summary.a3.margin_hist):
        assert underflow > 0
        assert sum(counts) + underflow == summary.n_admissible

    assert main(argv + ["--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["violations"] == [list(v) for v in summary.violations]
    assert payload["a2_margin_hist"]["underflow"] == summary.a2.margin_hist[2]
    assert payload["a3_margin_hist"]["underflow"] == summary.a3.margin_hist[2]
    # near the bound: admissible margins <= 10 VIOLATION_TOL bound, the violations too
    assert payload["near_boundary"] == {c: int(np.sum(
        arrays["admissible"] & (arrays[f"{c}_margin"] <= 10 * VIOLATION_TOL * bounds[c])))
        for c in bounds}
    assert payload["near_boundary"]["a2"] >= sum(c == "a2" for _, c, _ in summary.violations)
    assert payload["tolerances"] == {"violation_tol": VIOLATION_TOL,
                                     "violation_tol_relative_to": "bound",
                                     "modulus_tol": caratheodory.MODULUS_TOL,
                                     "eig_tol": caratheodory.EIG_TOL}
    assert main(argv) == 1
    assert f"violations {len(summary.violations)}" in capsys.readouterr().out.splitlines()


def test_violations_against_halved_bounds_far_below_the_tolerance(monkeypatch):
    # bounds of about 1e-12 lie far below VIOLATION_TOL, so an absolute
    # tolerance would pass samples at twice the bound and call them all near it
    monkeypatch.setattr(harness, "bounds_for", _halved_bounds)
    summary = falsify(AlphaParams(1e-12, 1, 0), 20000, seed=1)
    bounds = {"a2": summary.bounds.a2_bound, "a3": summary.bounds.a3_bound}
    assert bounds["a2"] < 1e-9 and summary.a2.max_abs > 1.9 * bounds["a2"]
    assert {c for _, c, _ in summary.violations} == {"a2", "a3"}
    for _, c, margin in summary.violations:
        assert margin < -VIOLATION_TOL * bounds[c]
    assert summary.a2.near_boundary < summary.n_admissible


def _unchunked_summary(params, n_samples, seed):
    """The summary falsify should give, reduced from one batch of all
    n_samples, and the least admissible margin of each coefficient."""
    rep = harness.bounds_for(params)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "CHUNK", n_samples)
        [(_, s)] = _campaign_chunks(params, rep, n_samples, seed, "toeplitz", 3)
    admissible = s["admissible"]
    records, violations, least = {}, [], {}
    for c, bound in (("a2", rep.a2_bound), ("a3", rep.a3_bound)):
        margin = bound - s[f"{c}_abs"]
        violations += [(int(i), c, float(margin[i])) for i in np.flatnonzero(
            admissible & (margin < -VIOLATION_TOL * bound))]
        kept = margin[admissible]
        counts, edges = np.histogram(kept, bins=HIST_BINS, range=(0.0, bound))
        j = int(np.argmax(np.where(admissible, s[f"{c}_abs"], -np.inf)))
        records[c] = CoefficientSummary(
            max_abs=float(s[f"{c}_abs"][admissible].max()) if kept.size else None,
            argmax=(j, tuple(zip(s["weights"][j].tolist(), s["angles"][j].tolist())))
                   if kept.size else None,
            margin_hist=(tuple(edges.tolist()), tuple(counts.tolist()), int((kept < 0).sum())),
            near_boundary=int((kept <= 10 * VIOLATION_TOL * bound).sum()))
        least[c] = float(kept.min()) if kept.size else None
    summary = CampaignSummary(
        params=params, n_samples=n_samples, seed=seed, filter_mode="toeplitz",
        atom_count=3, bounds=rep, n_admissible=int(admissible.sum()),
        n_fail_modulus=int(s["fail_modulus"].sum()),
        n_fail_toeplitz=int(s["fail_toeplitz"].sum()),
        violations=tuple(sorted(violations)), **records)
    return summary, least


def _split_into(p):
    """A stand-in for harness._split that makes p ranges of whole chunks of
    harness.CHUNK samples, by its own edge rule: empty ones where p
    outnumbers the chunks."""
    def split(n_samples, per_worker):
        n_chunks = -(-n_samples // harness.CHUNK)
        return [min(n_samples, harness.CHUNK * (n_chunks * k // p)) for k in range(p + 1)]
    return split


@given(st.integers(1, 10 ** 7), st.integers(1, 10 ** 6))
@example(CHUNK, CHUNK)
@example(2 * CHUNK + 1, CHUNK)
@example(10, 1)
def test_split_makes_ranges_of_whole_chunks(n, per_worker):
    edges = harness._split(n, per_worker)
    p = len(edges) - 1
    assert edges[0] == 0 and edges[-1] == n
    assert all(lo <= hi for lo, hi in zip(edges, edges[1:]))
    assert all(edge % CHUNK == 0 for edge in edges[1:-1])
    assert 1 <= p <= max(1, min(len(os.sched_getaffinity(0)), n // per_worker))


@pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 7],
                         ids=["CHUNK-1", "CHUNK", "CHUNK+1", "2CHUNK+7"])
def test_chunked_campaign_equals_one_unchunked_batch(monkeypatch, n):
    monkeypatch.setattr(harness, "bounds_for", _halved_bounds)
    params = BetaParams(0, 1, 0)
    expected, least = _unchunked_summary(params, n, seed=3)
    # one process, and forked folds of whole chunks: at 2 and 3 workers the
    # CHUNK edge is a worker edge, and where n <= CHUNK workers outnumber chunks
    for workers in (1, 2, 3):
        monkeypatch.setattr(harness, "_split", _split_into(workers))
        summary = falsify(params, n, seed=3)
        assert summary == expected, workers
    # the least margins as the minimum over the margins, not the bound less the maximum
    payload = summary.to_json_dict()
    assert {c: payload[f"min_{c}_margin"] for c in least} == least
    indices = [i for i, _, _ in summary.violations]
    if n > 2 * CHUNK:   # violations on both sides of a chunk and worker boundary
        assert min(indices) < CHUNK <= max(indices)


def test_csv_rows_do_not_depend_on_the_chunking(monkeypatch):
    monkeypatch.setattr(harness, "bounds_for", _halved_bounds)
    params = BetaParams(0, 1, 0)
    short = _csv_lines(falsify(params, CHUNK + 1, seed=3))
    long = _csv_lines(falsify(params, 2 * CHUNK + 7, seed=3))
    assert len(short) == CHUNK + 2 and len(long) == 2 * CHUNK + 8
    assert long[:len(short)] == short
    index = CSV_HEADER.index("index")
    assert [row.split(",")[index] for row in long[1:]] == [str(i) for i in range(2 * CHUNK + 7)]


def _peak_bytes(fn):
    """Peak traced memory while fn runs; tracemalloc sees numpy's buffers."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_campaign_memory_is_flat_in_n(monkeypatch):
    # one process, as tracemalloc sees no forked worker
    monkeypatch.setattr(harness, "_split", _split_into(1))
    params = BetaParams(0.5, 2, 0.5)
    small, large = (_peak_bytes(lambda: falsify(params, k * CHUNK, seed=1)) for k in (2, 8))
    assert large <= 1.25 * small


def _write_csv(summary, path):
    with open(path, "wb") as fh:
        summary.write_csv(fh)


def test_csv_memory_is_flat_in_n(monkeypatch, tmp_path):
    # smaller chunks: under tracemalloc the writer runs about 8 times slower;
    # one process, as tracemalloc sees no forked worker
    monkeypatch.setattr(harness, "CHUNK", 1024)
    monkeypatch.setattr(harness, "_split", _split_into(1))
    params = BetaParams(0.5, 2, 0.5)
    summaries = [falsify(params, k * 1024, seed=1) for k in (2, 8)]
    small, large = (_peak_bytes(lambda: _write_csv(s, tmp_path / "x.csv")) for s in summaries)
    assert large <= 1.25 * small


_ALPHA = AlphaParams(0.5, 1, 1)   # integer lam and mu: their CSV cells read "1"


# both classes, alpha = 1 (phi2 = 0), both filters, one atom and three
@pytest.fixture(scope="module", params=[
    (_ALPHA, 1, "toeplitz", 3), (_ALPHA, CHUNK - 1, "toeplitz", 3),
    (_ALPHA, CHUNK + 1, "toeplitz", 3), (_ALPHA, 2 * CHUNK + 7, "toeplitz", 3),
    (AlphaParams(1, 1, 1), CHUNK + 1, "modulus", 1),
    (BetaParams(0.5, 2, 0.5), CHUNK + 1, "modulus", 3),
    (BetaParams(0, 1, 0), CHUNK + 1, "toeplitz", 1),
    (AlphaParams(0.001, 30, 0), CHUNK + 1, "toeplitz", 3),
], ids=["1", "CHUNK-1", "CHUNK+1", "2CHUNK+7", "alpha1-modulus-1atom",
        "beta-modulus-3atoms", "beta-toeplitz-1atom", "alpha-repr-fallback"])
def csv_case(request):
    """A campaign and the bytes of the row-by-row reference formatter, one
    line each, which write_csv must reproduce.  Every |a2| of the last one
    lies below 1e-4, so every row of it, in the forked workers too, is
    written through _float_cells' repr fallback."""
    params, n, filter_mode, atom_count = request.param
    summary = falsify(params, n, seed=5, filter_mode=filter_mode, atom_count=atom_count)
    return summary, "".join(line + "\n" for line in csv_lines_row_by_row(summary)).encode()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_write_csv_is_the_row_oracle_whatever_the_workers(monkeypatch, tmp_path, csv_case,
                                                          workers):
    # ranges of whole chunks: a worker's range that ends in a short chunk (2
    # and 3 workers on 2 CHUNK + 7 rows), a one-row range (3 workers on
    # CHUNK + 1 rows), and empty ones where workers outnumber the chunks
    summary, expected = csv_case
    monkeypatch.setattr(harness, "_split", _split_into(workers))
    _write_csv(summary, tmp_path / "x.csv")
    assert (tmp_path / "x.csv").read_bytes() == expected


def test_csv_blocks_of_each_chunk_are_its_rows_of_the_whole():
    n = 3 * CHUNK + 5
    summary = falsify(AlphaParams(0.5, 1, 1), n, seed=5)
    lines = list(csv_lines_row_by_row(summary))
    # the cells every row shares, as the reference writes them in row 0
    constants = {name: cell for name, cell in zip(CSV_HEADER, lines[1].split(","))
                 if name in ("family", "seed", "alpha", "beta", "lambda", "mu",
                             "a2_bound", "a3_bound")}
    chunks = list(_campaign_chunks(summary.params, summary.bounds, n, summary.seed,
                                   summary.filter_mode, summary.atom_count))
    # whole chunks, then the short last chunk
    assert [first for first, _ in chunks] == [0, CHUNK, 2 * CHUNK, 3 * CHUNK]
    for first, a in chunks:
        count = len(a["p1"])
        blocks = list(harness._csv_blocks(first, a, constants))
        # SLICE rows per block, fewer in the last block of a short chunk,
        # each row ending in a newline
        assert [block.count("\n") for block in blocks] == [
            min(SLICE, count - lo) for lo in range(0, count, SLICE)]
        assert all(block.endswith("\n") for block in blocks)
        assert "".join(blocks) == "".join(
            line + "\n" for line in lines[1 + first:1 + first + count])


@pytest.mark.parametrize("first", [0, 1, CHUNK - 1, CHUNK, 2 * CHUNK + SLICE // 2,
                                   3 * CHUNK, 3 * CHUNK + 5])
def test_kernel_chunks_from_first_are_chunks_of_the_whole(first):
    # the chunks below first draw only the weights; the angle stream is
    # advanced by the count of its values, which the atom count scales
    params, n = BetaParams(0.5, 2, 0.5), 3 * CHUNK + 5
    rep = bounds_for(params)
    for atom_count in (1, 3, 9):
        whole = list(_campaign_chunks(params, rep, n, 5, "toeplitz", atom_count))
        tail = list(_campaign_chunks(params, rep, n, 5, "toeplitz", atom_count, first=first))
        assert [start for start, _ in tail] == [start for start, _ in whole[first // CHUNK:]]
        for (_, got), (_, want) in zip(tail, whole[first // CHUNK:]):
            assert got.keys() == want.keys()
            for key in want:   # bitwise: -0.0 is not 0.0
                assert got[key].shape == want[key].shape, (atom_count, key)
                assert got[key].tobytes() == want[key].tobytes(), (atom_count, key)


@given(st.lists(st.floats(), min_size=1, max_size=12))
@example([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324])
@example([1e-4, math.nextafter(1e-4, 0), math.nextafter(1e-4, 1)])
@example([1e16, math.nextafter(1e16, 0), math.nextafter(1e16, math.inf)])
@example([-1e16, -math.nextafter(1e16, 0), -1e-4, -math.nextafter(1e-4, 0)])
@example([1 + 2 ** -17, 2 ** 49 + 0.25])
def test_float_cells_are_the_reprs(xs):
    # orjson's text where it equals repr's, repr's where it does not; one
    # column and one row, so the rows are split where the block has one cell or many
    assert harness._float_cells(np.array(xs).reshape(-1, 1)) == list(map(repr, xs))
    assert harness._float_cells(np.array([xs])) == [",".join(map(repr, xs))]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


# The two fork rounds of falsify --out, falsify's fold and write_csv: each
# one's module-level hook, and the name of its ranges in a worker's error
_ROUNDS = {"fold": ("_campaign_chunks", "samples"), "csv": ("_csv_blocks", "rows")}


def _stand_in(monkeypatch, round_, workers, act):
    """Split each fork round into that many ranges of whole chunks of 1000
    samples, and put a stand-in on the round's hook that, in that round
    alone, returns act(real, first): real() calls the real hook, and first
    is the first sample of the call, of the fold's range or of the CSV's
    chunk.  In the other round the stand-in is the real hook, as the CSV
    round walks _campaign_chunks too; the round running is the last one to
    call _split, the fold's with FOLD_SAMPLES."""
    name = _ROUNDS[round_][0]
    real, split, running = getattr(harness, name), _split_into(workers), []

    def recording_split(n_samples, per_worker):
        running.append("fold" if per_worker == harness.FOLD_SAMPLES else "csv")
        return split(n_samples, per_worker)

    def hook(*args, **kwargs):
        if running[-1] != round_:
            return real(*args, **kwargs)
        return act(lambda: real(*args, **kwargs),
                   kwargs["first"] if round_ == "fold" else args[0])

    monkeypatch.setattr(harness, name, hook)
    monkeypatch.setattr(harness, "CHUNK", 1000)
    monkeypatch.setattr(harness, "_split", recording_split)


def _empty_tmpdir(monkeypatch, tmp_path):
    """A fresh, empty TMPDIR for the part files."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    return tmp_path / "tmp"


@pytest.mark.parametrize("round_", _ROUNDS)
def test_a_failed_worker_is_one_usage_error(monkeypatch, tmp_path, capsys, round_):
    def act(real, first):
        if first > 0:   # in a worker
            raise OSError(28, "No space left on device")
        return real()

    _stand_in(monkeypatch, round_, 3, act)
    tmpdir = _empty_tmpdir(monkeypatch, tmp_path)
    code = main(["falsify", "--family", "beta", "--beta", "0.5", "-n", "3000",
                 "--out", str(tmp_path / "x.csv")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("bicoef: ")
    assert f"{_ROUNDS[round_][1]} 1000 to 1999" in captured.err
    assert "No space left on device" in captured.err
    assert _no_child_left()
    assert list(tmpdir.iterdir()) == []


@pytest.mark.parametrize("error", [KeyboardInterrupt, RuntimeError])
@pytest.mark.parametrize("round_", _ROUNDS)
def test_an_interrupted_round_leaves_no_worker(monkeypatch, tmp_path, round_, error):
    def act(real, first):
        if first == 0:   # the caller's own range, with workers running
            raise error
        return real()

    _stand_in(monkeypatch, round_, 3, act)
    tmpdir = _empty_tmpdir(monkeypatch, tmp_path)
    with pytest.raises(error):
        _write_csv(falsify(BetaParams(0.5, 2, 0.5), 3000, seed=1), tmp_path / "x.csv")
    assert _no_child_left()
    assert list(tmpdir.iterdir()) == []


@pytest.mark.parametrize("round_", _ROUNDS)
def test_an_orphaned_worker_stops_within_a_chunk(monkeypatch, round_):
    # the caller dies at once, as under SIGKILL, while its worker folds
    # chunks or formats one chunk's rows forever; the worker must notice at
    # its next chunk or block of rows.  It writes its pid, then one line per
    # chunk or block it is handed once orphaned
    read_end, write_end = os.pipe()
    caller = []

    def act(real, first):
        if first == 0:
            os._exit(0)
        os.write(write_end, b"%d\n" % os.getpid())
        return forever(real)

    def forever(real):
        while True:
            for item in real():
                if os.getppid() != caller[0]:
                    os.write(write_end, b"orphaned\n")
                yield item

    _stand_in(monkeypatch, round_, 2, act)
    pid = os.fork()
    if pid == 0:
        try:
            caller.append(os.getpid())
            with open(os.devnull, "wb") as fh:
                falsify(BetaParams(0.5, 2, 0.5), 3000, seed=1).write_csv(fh)
        finally:
            os._exit(1)
    os.close(write_end)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
    # the worker holds the write end until it exits: end of file is its exit
    out, done, deadline = b"", False, time.monotonic() + 60
    while not done and len(out) < 1000 and time.monotonic() < deadline:
        if select.select([read_end], [], [], 1)[0]:
            data = os.read(read_end, 1000)
            out, done = out + data, not data
    os.close(read_end)
    worker, *orphaned = out.splitlines()
    if not done:
        os.kill(int(worker), signal.SIGKILL)
    assert done and orphaned in ([], [b"orphaned"])


@pytest.mark.parametrize("edge", ["a2", "a3"])
def test_a_margin_of_exactly_minus_the_tolerance_is_no_violation(monkeypatch, edge):
    # the relative edge, exact: the bound is a power of two below the largest
    # admissible |a|, and tol = (|a| - bound) / bound, so the margin is -tol bound
    other = "a3" if edge == "a2" else "a2"
    params = BetaParams(0.5, 2, 0.5)   # maxima below 1: no bound is 1, where tol bound = tol
    arrays = _kernel_arrays(falsify(params, 400, seed=1))
    admissible = np.flatnonzero(arrays["admissible"])
    j = int(admissible[np.argmax(arrays[f"{edge}_abs"][admissible])])
    top = float(arrays[f"{edge}_abs"][j])
    # sample j lies beyond the other bound by at least that bound, so by more than tol times it
    bounds = {edge: 2.0 ** math.floor(math.log2(top)),
              other: 2.0 ** math.floor(math.log2(arrays[f"{other}_abs"][j])) / 2}
    tol = (top - bounds[edge]) / bounds[edge]
    assert bounds[edge] - top == -tol * bounds[edge] and bounds[edge] != 1 and tol < 1
    rep = bounds_for(params)._replace(a2_bound=bounds["a2"], a3_bound=bounds["a3"])
    monkeypatch.setattr(harness, "VIOLATION_TOL", tol)
    monkeypatch.setattr(harness, "bounds_for", lambda p: rep)
    summary = falsify(params, 400, seed=1)
    assert summary.to_json_dict()[f"min_{edge}_margin"] == -tol * bounds[edge]
    assert (j, other) in [(i, c) for i, c, _ in summary.violations]
    assert edge not in [c for _, c, _ in summary.violations]


def test_a_margin_of_exactly_ten_tolerances_is_near_the_boundary(monkeypatch):
    # the relative edge, exact, one coefficient at a time: its bound is the power
    # of two above its largest admissible |a|, and tol = (bound - |a|) / (10 bound),
    # so the margin is 10 tol bound; the other bound is twice as far and near nothing
    params = BetaParams(0.5, 2, 0.5)   # maxima below 1/2: no bound is 1
    arrays = _kernel_arrays(falsify(params, 400, seed=1))
    top = {c: float(arrays[f"{c}_abs"][arrays["admissible"]].max()) for c in ("a2", "a3")}
    for edge, other in (("a2", "a3"), ("a3", "a2")):
        bounds = {edge: 2.0 ** math.ceil(math.log2(top[edge])),
                  other: 2.0 ** math.ceil(math.log2(top[other])) * 2}
        tol = (bounds[edge] - top[edge]) / bounds[edge] / 10
        assert 10 * tol * bounds[edge] == bounds[edge] - top[edge] and bounds[edge] != 1
        rep = bounds_for(params)._replace(a2_bound=bounds["a2"], a3_bound=bounds["a3"])
        monkeypatch.setattr(harness, "VIOLATION_TOL", tol)
        monkeypatch.setattr(harness, "bounds_for", lambda p: rep)
        summary = falsify(params, 400, seed=1)
        assert summary.to_json_dict()[f"min_{edge}_margin"] == 10 * tol * bounds[edge]
        assert getattr(summary, edge).near_boundary == 1
        assert getattr(summary, other).near_boundary == 0


_EXTREMAL = ["extremal", "--family", "beta", "--beta", "0.5", "--lambda", "2",
             "--mu", "0.5", "--budget", "400", "--seed", "1", "--json"]


def test_extremal_exits_1_on_a_gap_beyond_the_tolerance(monkeypatch, capsys):
    monkeypatch.setattr(harness, "bounds_for", _halved_bounds)
    assert main(_EXTREMAL) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["gap"] < -VIOLATION_TOL * payload["bound"]


@pytest.mark.parametrize("at_edge", [True, False], ids=["edge", "past-the-edge"])
def test_extremal_exits_0_on_a_gap_of_exactly_minus_the_tolerance(monkeypatch, capsys,
                                                                  at_edge):
    # the relative edge, exact, as for falsify above: the bound is the power of
    # two below the largest admissible |a2| and tol = (|a2| - bound) / bound;
    # one ulp less tolerance puts the same gap past the edge
    params = BetaParams(0.5, 2, 0.5)
    arrays = _kernel_arrays(falsify(params, 400, seed=1))
    top = float(arrays["a2_abs"][arrays["admissible"]].max())
    bound = 2.0 ** math.floor(math.log2(top))
    tol = (top - bound) / bound
    assert bound - top == -tol * bound and bound != 1 and tol < 1
    rep = bounds_for(params)._replace(a2_bound=bound)
    monkeypatch.setattr(harness, "bounds_for", lambda p: rep)
    monkeypatch.setattr(harness, "VIOLATION_TOL", tol if at_edge else np.nextafter(tol, 0))
    assert main(_EXTREMAL) == (0 if at_edge else 1)
    payload = json.loads(capsys.readouterr().out)
    assert payload["gap"] == -tol * bound and payload["bound"] == bound


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
    _write_csv(falsify(BetaParams(0.5, 2, 3), 800, seed=11), p1)
    _write_csv(falsify(BetaParams(0.5, 2, 3), 800, seed=11), p2)
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
    small_rows = _csv_lines(small)[1:]
    big_rows = _csv_lines(big)[1:51]
    assert small_rows == big_rows


def test_summary_json_roundtrip():
    summary = falsify(AlphaParams(0.25, 2, 0), 1000, seed=13)
    blob = json.dumps(summary.to_json_dict())
    back = json.loads(blob)
    assert back["n_admissible"] == summary.n_admissible
    assert back["violations"] == []
    assert back["argmax"] == {"a2": summary.a2.argmax[0], "a3": summary.a3.argmax[0]}
    # a single atom's paired prefix never passes the toeplitz filter
    none = falsify(AlphaParams(0.5, 1, 1), 10, seed=13, atom_count=1)
    assert none.n_admissible == 0 and none.a2.argmax is none.a3.argmax is None
    back = json.loads(json.dumps(none.to_json_dict()))
    assert back["argmax"] == {"a2": None, "a3": None}
    keys = ("max_a2_abs", "max_a3_abs", "min_a2_margin", "min_a3_margin")
    assert [back[k] for k in keys] == [None] * 4
    # a largest |a2| of 0.0 is a value: its least margin is the bound
    zero = summary._replace(a2=summary.a2._replace(max_abs=0.0))
    assert zero.to_json_dict()["min_a2_margin"] == summary.bounds.a2_bound


@pytest.mark.parametrize("chunk", [CHUNK, 7], ids=["CHUNK", "7"])
def test_argmax_is_the_first_of_tied_samples(monkeypatch, chunk):
    # a single atom under the modulus filter: 11 of these 4000 samples share
    # the largest |a2| bits, the first at index 49; chunks of 7 put the ties
    # in different chunks, and 2 or 3 workers (edges at samples 2002, and 1330
    # and 2667) in different workers, where only a strict > keeps the first
    params = BetaParams(0.5, 2, 0.5)
    arrays = _kernel_arrays(falsify(params, 4000, 1, filter_mode="modulus", atom_count=1))
    scores = np.where(arrays["admissible"], arrays["a2_abs"], -np.inf)
    ties = np.flatnonzero(scores == scores.max())
    assert len(ties) == 11 and ties[0] == 49 and ties[-1] > 2667
    monkeypatch.setattr(harness, "CHUNK", chunk)
    for workers in (1, 2, 3):
        monkeypatch.setattr(harness, "_split", _split_into(workers))
        summary = falsify(params, 4000, 1, filter_mode="modulus", atom_count=1)
        assert summary.a2.argmax == (49, tuple(zip(arrays["weights"][49].tolist(),
                                                   arrays["angles"][49].tolist()))), workers


@pytest.mark.parametrize("params", [AlphaParams(0.9, 5, 0), AlphaParams(0.5, 4, 0.5),
                                    BetaParams(0.5, 2, 0.5), BetaParams(0.8, 1, 0)],
                         ids=repr)
def test_one_atom_campaigns_have_one_exact_a3(params):
    # one atom: p2 = p1^2 / 2 and |p1| = 2, so a3 = (phi1 p2 + c p1^2) / (2 lam + mu),
    # c the p1^2 coefficient, is 4 |phi1 / 2 + c| / (2 lam + mu) at every
    # sample, and the a3 argmax only breaks a tie of roundings
    lam, mu = Fraction(params.lam), Fraction(params.mu)
    if params.family == "alpha":
        phi1 = Fraction(params.alpha)
        phi2 = phi1 * (phi1 - 1) / 2
    else:
        phi1, phi2 = 1 - Fraction(params.beta), Fraction(0)
    c = phi2 - (mu - 1) * (lam + mu / 2) * phi1 ** 2 / (lam + mu) ** 2
    exact = 4 * abs(phi1 / 2 + c) / (2 * lam + mu)
    summary = falsify(params, 10_000, 3, filter_mode="modulus", atom_count=1)
    arrays = _kernel_arrays(summary)
    a3 = arrays["a3_abs"][arrays["admissible"]]
    assert summary.n_admissible == a3.size > 0
    tol = 8 * Fraction(math.ulp(float(exact)))   # the largest error seen was 3.7 ulps
    for x in (a3.min(), a3.max()):
        assert abs(Fraction(float(x)) - exact) <= tol
    assert summary.a3.max_abs == a3.max()


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
    for budget in (50, 200, 800, 3200, CHUNK + 1):
        res = extremal_search(AlphaParams(1, 1, 1), "a2", budget=budget, seed=5)
        assert res.achieved >= prev - 1e-15
        assert res.evaluations == budget
        prev = res.achieved


def test_extremal_validates_arguments():
    with pytest.raises(ValueError):
        extremal_search(AlphaParams(1, 1, 1), "a4", budget=10, seed=0)
    with pytest.raises(ValueError):
        extremal_search(AlphaParams(1, 1, 1), "a2", budget=0, seed=0)


# ------------------------------------- the kernel and the extremal record

@pytest.mark.parametrize("budget", [1, CHUNK, CHUNK + 1], ids=["1", "CHUNK", "CHUNK+1"])
@pytest.mark.parametrize("atom_count", [1, 3])
@pytest.mark.parametrize("objective", ["a2", "a3"])
@pytest.mark.parametrize("params", [AlphaParams(0.5, 1, 1), BetaParams(0.5, 2, 0.5)],
                         ids=["alpha", "beta"])
def test_extremal_is_the_maximum_of_falsify(params, objective, atom_count, budget):
    res = extremal_search(params, objective, budget, 3, atom_count=atom_count)
    summary = falsify(params, budget, 3, atom_count=atom_count)
    argmax = getattr(summary, objective).argmax
    assert res.evaluations == budget
    assert res.best_index == (0 if argmax is None else argmax[0])
    line = list(csv_lines_row_by_row(summary))[1 + res.best_index]
    row = dict(zip(CSV_HEADER, line.split(",")))
    assert row["index"] == str(res.best_index)
    assert res.best_tuple == CoefficientTuple(*(
        complex(float(row[f"{k}_re"]), float(row[f"{k}_im"])) for k in ("p1", "p2", "q1", "q2")))
    if argmax is None:   # a single atom's paired prefix never passes: sample 0 stands
        assert summary.n_admissible == 0
        assert res.achieved == 0.0 and res.best_atoms is None
    else:
        # the one-point rebuild reproduces the kernel's maximum, which it
        # would not where the kernel's |a2| or |a3| erred downward
        assert row["admissible"] == "true"
        assert res.achieved == getattr(summary, objective).max_abs
        assert float(row[f"{objective}_abs"]) == res.achieved
        assert res.best_atoms == argmax[1]


@pytest.mark.parametrize("atom_count", [1, 3])
@pytest.mark.parametrize("chunk", [1, 7])
def test_extremal_does_not_depend_on_the_chunking(monkeypatch, chunk, atom_count):
    # one sample per chunk puts every comparison across chunks
    params = AlphaParams(1, 1, 1)
    expected = [extremal_search(params, objective, 300, 4, atom_count=atom_count)
                for objective in ("a2", "a3")]
    monkeypatch.setattr(harness, "CHUNK", chunk)
    assert [extremal_search(params, objective, 300, 4, atom_count=atom_count)
            for objective in ("a2", "a3")] == expected


@pytest.mark.parametrize("atom_count", [1, 3, 5])
@pytest.mark.parametrize("params", [AlphaParams(0.5, 1, 1), BetaParams(0.5, 2, 0.5)],
                         ids=["alpha", "beta"])
def test_kernel_rows_do_not_depend_on_the_batch(monkeypatch, params, atom_count):
    # campaign rows scored in chunks from one row to a whole chunk and one
    # more, as the chunking and the extremal record's one-row rebuild score
    # them; every column, |a2| and |a3| included, of each row equals the
    # row of one whole chunk
    n = CHUNK + 1
    rep = bounds_for(params)

    def rows(chunk):
        monkeypatch.setattr(harness, "CHUNK", chunk)
        chunks = [a for _, a in _campaign_chunks(params, rep, n, atom_count, "toeplitz",
                                                 atom_count)]
        return {key: np.concatenate([a[key] for a in chunks]) for key in chunks[0]}

    whole = rows(n)
    for size in (1, 2, 3, 64, CHUNK - 1, CHUNK):
        parts = rows(size)
        for key, column in whole.items():
            assert np.array_equal(parts[key], column), (size, key)


def test_search_memory_is_linear_in_the_atom_count():
    # extremal reads its record from falsify's fold, so its memory is
    # CHUNK x atoms, here five samples of m atoms: with the atom tuples of
    # both argmax records, about 500 B per atom
    m = 20_000
    peak = _peak_bytes(lambda: extremal_search(BetaParams(0.5, 2, 0.5), "a2", 5, 1,
                                               atom_count=m))
    assert peak <= 1000 * m
