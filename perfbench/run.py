"""bicoef benchmark: three CLI workloads end to end, and a traced run per layer.

Run from the root of a bicoef checkout:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 36 --trace 0

``--trace 0`` runs the workload as child ``python -m bicoef.cli ...``
processes, one at a time (a closed loop with one client), for ``--seconds``
and reports the end-to-end metrics.  ``--trace 1`` runs the layer suite in
this process with every public layer function wrapped (see layers.py) and
reports the per-layer metrics.  Every output is checked.  A provenance line
comes first; the last line of stdout is the JSON result.  See README.md.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# One BLAS/OpenMP thread unless the caller chose otherwise, here and in every
# child: numpy's idle BLAS pool competes with the timed process for the
# host's few cores, and starting it adds a noisy ~0.1 s to every import.
# Set before numpy is imported.
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse
import collections
import contextlib
import gc
import hashlib
import io
import json
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import NamedTuple

from layers import LayerError, Tracer, span_cost_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_RUNS = 5        # workload children per end-to-end run, however short --seconds is
REFERENCE_S = 0.33  # median reference() time in runs on the host the benchmark was defined on

BETA = ("--family", "beta", "--beta", "0.5", "--lambda", "2", "--mu", "0.5")
ALPHA = ("--family", "alpha", "--alpha", "0.5", "--lambda", "1", "--mu", "1")


class Workload(NamedTuple):
    argv: tuple          # CLI arguments without size, seed and --out
    size_flag: str
    size: int            # samples (falsify) or evaluations (extremal)
    csv: bool
    called: tuple        # layer functions the workload must call
    layers: tuple        # (metric, "incl" | "self", functions) per traced layer


def _falsify_layers(suffix):
    return (
        ("caratheodory.sample_batch.ns_per_sample" + suffix, "incl",
         ("caratheodory.sample_batch",)),
        ("caratheodory.admissibility_mask_k2.ns_per_sample" + suffix, "incl",
         ("caratheodory.admissibility_mask_k2",)),
        ("operators.induce_q.ns_per_sample" + suffix, "incl",
         ("operators.induce_q_alpha", "operators.induce_q_beta")),
        ("harness.falsify.self_ns_per_sample" + suffix, "self", ("harness.falsify",)),
    )


FALSIFY_CALLS = ("cli.main", "harness.falsify", "caratheodory.sample_batch",
                 "caratheodory.admissibility_mask_k2")

# Why these three: campaign sends every sample through the batched eigvalsh
# filter and writes no CSV; campaign_csv is the write path and the other
# class, with half the samples stopped by the modulus check; extremal is the
# scalar path that bypasses the vectorized kernel.  Each child takes about a
# second on one core, so a run takes the median of some 25 children: one
# child's time varies by about 20% on a shared host, the median of 25 by a
# few percent.
WORKLOADS = {
    "campaign": Workload(
        ("falsify", *BETA, "--json"), "-n", 250_000, False,
        FALSIFY_CALLS + ("operators.induce_q_beta",), _falsify_layers("")),
    "campaign_csv": Workload(
        ("falsify", *ALPHA, "--json"), "-n", 50_000, True,
        FALSIFY_CALLS + ("operators.induce_q_alpha", "harness.CampaignSummary.write_csv"),
        _falsify_layers("_csv") + (("harness.write_csv.ns_per_row", "incl",
                           ("harness.CampaignSummary.write_csv",)),)),
    "extremal": Workload(
        ("extremal", *BETA, "--objective", "a2", "--json"), "--budget", 10_000, False,
        ("cli.main", "harness.extremal_search", "caratheodory.herglotz",
         "caratheodory.is_admissible_prefix", "operators.induce_q_beta"),
        (("caratheodory.herglotz.ns_per_eval", "incl", ("caratheodory.herglotz",)),
         ("caratheodory.is_admissible_prefix.ns_per_eval", "incl",
          ("caratheodory.is_admissible_prefix",)),
         ("operators.induce_q.ns_per_eval", "incl",
          ("operators.induce_q_alpha", "operators.induce_q_beta")),
         ("harness.extremal_search.self_ns_per_eval", "self", ("harness.extremal_search",)))),
}

# The traced suite, run whatever --workload names, so that every per-layer
# metric is measured on the workload that exercises it.  campaign runs at
# 1e4, 1e5 and 1e6 samples (the first two with suffixed metric names) so that
# each campaign layer has a figure at three working-set sizes.
SUITE = (("campaign", 10_000, "_n1e4"), ("campaign", 100_000, "_n1e5"),
         ("campaign", 1_000_000, ""), ("campaign_csv", None, ""), ("extremal", None, ""))


def argv_for(name, seed, size=None, out=None):
    w = WORKLOADS[name]
    argv = [*w.argv, w.size_flag, str(size or w.size), "--seed", str(seed)]
    if w.csv:
        argv += ["--out", str(out)]
    return argv


# --------------------------------------------------------------------------
# output checks

def _check_csv(path, payload, n):
    from bicoef.harness import CSV_HEADER
    data = Path(path).read_bytes()
    lines = data.split(b"\n")
    errs = []
    if lines[0].decode() != ",".join(CSV_HEADER):
        errs.append("CSV header differs from CSV_HEADER")
    if lines[-1] != b"" or len(lines) - 1 != n + 1:
        errs.append(f"CSV has {len(lines) - 1} lines, expected {n + 1}")
    col = CSV_HEADER.index("admissible")
    admissible = sum(1 for row in lines[1:-1] if row.split(b",")[col] == b"true")
    if admissible != payload["n_admissible"]:
        errs.append(f"CSV has {admissible} admissible rows, JSON says {payload['n_admissible']}")
    return errs, hashlib.sha256(data).hexdigest()


def _check_falsify(payload, n, csv_path):
    from bicoef.harness import VIOLATION_TOL
    errs = []
    if payload["violations"] != []:
        errs.append(f"violations: {payload['violations'][:3]}")
    counts = (payload["n_admissible"], payload["n_fail_modulus"], payload["n_fail_toeplitz"])
    if payload["n_samples"] != n or sum(counts) != n:
        errs.append(f"sample counts {counts} do not add up to n = {n}")
    for k in ("a2", "a3"):
        top = payload[f"max_{k}_abs"]
        if top is None or not top <= payload[f"{k}_bound"] + VIOLATION_TOL:
            errs.append(f"max |{k}| = {top!r} exceeds the bound {payload[f'{k}_bound']!r}")
    keys = ("n_samples", "n_admissible", "n_fail_modulus", "n_fail_toeplitz",
            "max_a2_abs", "max_a3_abs", "min_a2_margin", "min_a3_margin")
    fingerprint = [payload[k] for k in keys]
    if csv_path is not None:
        csv_errs, digest = _check_csv(csv_path, payload, n)
        errs += csv_errs
        fingerprint.append(digest)
    return errs, fingerprint


def _check_extremal(payload, budget, _csv_path):
    from bicoef.harness import VIOLATION_TOL
    errs = []
    if payload["evaluations"] != budget:
        errs.append(f"{payload['evaluations']} evaluations, budget {budget}")
    if not payload["gap"] >= -VIOLATION_TOL:
        errs.append(f"negative gap {payload['gap']!r}")
    return errs, [payload["achieved"], payload["gap"], payload["evaluations"]]


def check_output(name, size, code, stdout, csv_path):
    """(problems, payload, fingerprint) for one run of a workload."""
    if code != 0:
        return [f"exit code {code}"], None, None
    try:
        payload = json.loads(stdout)
    except ValueError:
        return ["output is not JSON"], None, None
    check = _check_extremal if name == "extremal" else _check_falsify
    try:
        errs, fingerprint = check(payload, size, csv_path if WORKLOADS[name].csv else None)
    except (KeyError, TypeError, IndexError, OSError) as exc:
        return [f"malformed output: {exc!r}"], None, None
    return errs, payload, fingerprint


class Tally:
    """Attempted and failed runs, and the first output seen for each input."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.fingerprints = {}

    def record(self, label, errs, key=None, fingerprint=None):
        self.attempted += 1
        if fingerprint is not None:
            first = self.fingerprints.setdefault(key, fingerprint)
            if first != fingerprint:
                errs = errs + ["output differs from an earlier run of the same input"]
        if errs:
            self.failed += 1
            for e in errs:
                print(f"perfbench: {label}: {e}", file=sys.stderr)


# --------------------------------------------------------------------------
# running bicoef

class Child(NamedTuple):
    code: int
    wall_s: float
    cpu_s: float
    maxrss_bytes: int
    stdout: str


class Spawner:
    """The spawn.py helper, which runs each child and times it from spawn to
    reap.  Start it before importing numpy, so that it stays small: a child's
    peak RSS can be no lower than its spawner's (see spawn.py)."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("spawn.py"))],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     cwd=ROOT, text=True)

    def run(self, argv, env, stdout, stderr):
        self.proc.stdin.write(json.dumps({"argv": argv, "env": env, "stdout": str(stdout),
                                          "stderr": str(stderr)}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"spawn.py exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self):
        """Stop the helper, which kills and reaps a child still running."""
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait()


SPAWNER = None    # set by main()


def run_child(argv, tmp):
    """One `python -m bicoef.cli` child, timed from spawn to reap."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    out, err = tmp / "child.out", tmp / "child.err"
    r = SPAWNER.run([sys.executable, "-m", "bicoef.cli", *argv], env, out, err)
    if r["code"] != 0:
        sys.stderr.write(err.read_text(errors="replace")[-2000:])
    return Child(r["code"], r["wall_s"], r["cpu_s"], r["maxrss_bytes"],
                 out.read_text(errors="replace"))


def run_inprocess(argv):
    """(exit code, wall seconds, stdout) of bicoef.cli.main(argv) in this process."""
    main = sys.modules["bicoef.cli"].main    # the traced wrapper while a Tracer is active
    buf = io.StringIO()
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    except Exception:    # an uncaught error is a failed run, counted by the caller
        traceback.print_exc()
        code = -1
    return code, time.perf_counter() - start, buf.getvalue()


def run_workload_child(name, seed, tmp, tally, size=None):
    csv = tmp / f"{name}.csv"
    size = size or WORKLOADS[name].size
    child = run_child(argv_for(name, seed, size, csv), tmp)
    errs, _, fingerprint = check_output(name, size, child.code, child.stdout, csv)
    tally.record(f"{name} child", errs, (name, size), fingerprint)
    csv.unlink(missing_ok=True)
    return child


def setup_run(tmp, tally):
    """A `bicoef --version` child: interpreter start, imports, parser."""
    import bicoef
    child = run_child(["--version"], tmp)
    ok = child.code == 0 and child.stdout.strip() == bicoef.__version__
    tally.record("setup", [] if ok else [f"--version gave {child.stdout!r}"])
    return child


class Reference:
    """A fixed piece of work, independent of bicoef, that measures how fast
    the host runs right now.

    It mixes what the workloads do: an interpreter loop, float formatting
    (the CSV writer), batched 3x3 eigvalsh (the campaign filter) and one
    eigvalsh call per 3x3 matrix (the extremal search).  Timed next to
    each child, it tracks the host's slow phases, which last from seconds to
    minutes on a shared host and move a child's wall time by up to 40%.
    """

    def __init__(self):
        import numpy as np
        a = np.random.default_rng(0).standard_normal((20_000, 3, 3))
        self._np = np
        self._a = a + a.transpose(0, 2, 1)
        self()    # warm-up

    def __call__(self):
        np = self._np
        start = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i * i % 7
        for i in range(30_000):
            ",".join(f"{x:.17g}" for x in (i * 0.1, i * 0.2, i * 0.3))
        for _ in range(4):
            np.linalg.eigvalsh(self._a)
            np.abs(np.fft.fft(self._a.reshape(-1)))
        for m in self._a[:3000]:
            np.linalg.eigvalsh(m)
        return time.perf_counter() - start


# --------------------------------------------------------------------------
# the two kinds of run

def end_to_end(name, seed, seconds, tmp, tally, raw):
    """The end-to-end metrics; raw gets the same figures unscaled.

    Each round runs a set-up child, the reference and a workload child, so
    that set-up is sampled across the whole run and each child has a
    reference timed next to it.  Each child's time is scaled by
    REFERENCE_S / (its round's reference time): the figures are those of the
    host on a typical phase, and a slow phase slows both the child and its
    reference.  A run reports the median over its rounds.
    """
    reference = Reference()
    setup_run(tmp, tally)    # warm-up, not timed: compiles bytecode,
    run_workload_child(name, seed, tmp, tally)    # fills the page cache
    setup, runs, refs = [], [], []
    deadline = time.perf_counter() + seconds
    while len(runs) < MIN_RUNS or time.perf_counter() < deadline:
        setup.append(setup_run(tmp, tally).wall_s)
        refs.append(reference())
        runs.append(run_workload_child(name, seed, tmp, tally))
    size = WORKLOADS[name].size
    walls = [r.wall_s for r in runs]
    raw.update({
        "items_per_s": statistics.median(size / w for w in walls),
        "setup_s": statistics.median(setup),
        "reference_s": statistics.median(refs),
        "rounds": len(runs),
    })
    return {
        "items_per_s": statistics.median(size / w * ref / REFERENCE_S
                                         for w, ref in zip(walls, refs)),
        "peak_rss_mb": statistics.median(r.maxrss_bytes / 1e6 for r in runs),
        "success_rate": (tally.attempted - tally.failed) / tally.attempted,
        "setup_s": statistics.median(s * REFERENCE_S / ref for s, ref in zip(setup, refs)),
    }


def traced_run(name, size, suffix, seed, tmp, tally, values):
    """One traced in-process run; appends its layer metrics to values.

    Returns the share of the traced wall time that the named layers account
    for, and the tracing overhead: the spans times the wrapper's calibrated
    cost, over the wall time less that.  (Timing an untraced run of the same
    call instead measures the host's run-to-run noise, which is far larger.)
    """
    w = WORKLOADS[name]
    size = size or w.size
    csv = tmp / f"{name}.csv"
    with Tracer() as tracer:
        code, wall, stdout = run_inprocess(argv_for(name, seed, size, csv))
    errs, payload, fingerprint = check_output(name, size, code, stdout, csv)
    tally.record(f"{name} traced n={size}", errs, (name, size), fingerprint)
    csv_bytes = csv.stat().st_size if w.csv and csv.exists() else 0
    csv.unlink(missing_ok=True)
    tracer.require([f for _, _, fns in w.layers for f in fns], w.called, name)
    prof = tracer.profile()
    layer_ns = 0
    for metric, kind, fns in w.layers:
        ns = sum(prof[f][1 if kind == "incl" else 2] for f in fns if f in prof)
        layer_ns += ns
        values[metric + suffix].append(ns / size)
    if payload is not None and name == "campaign_csv":
        values["harness.write_csv.bytes_per_row"].append(csv_bytes / size)
        for key, metric in (("n_admissible", "admissible_fraction"),
                            ("n_fail_modulus", "fail_modulus_fraction"),
                            ("n_fail_toeplitz", "fail_toeplitz_fraction")):
            values[f"caratheodory.{metric}"].append(payload[key] / size)
    if payload is not None and name == "extremal":
        calls = prof["caratheodory.is_admissible_prefix"][0]
        passed = tracer.verdicts["caratheodory.is_admissible_prefix", "PASS"]
        values["harness.extremal_search.evaluations"].append(payload["evaluations"])
        values["harness.extremal_search.pass_fraction"].append(passed / calls)
        values["harness.extremal_search.achieved"].append(payload["achieved"])
    cost_ns = len(tracer.spans) * span_cost_ns()
    return layer_ns / (wall * 1e9), cost_ns / (wall * 1e9 - cost_ns)


def traced(name, seed, seconds, tmp, tally, _raw):
    setup_rss = statistics.median(setup_run(tmp, tally).maxrss_bytes for _ in range(3))
    values = collections.defaultdict(list)
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for suite_name, suite_size, suffix in SUITE:
            accounted, overhead = traced_run(suite_name, suite_size, suffix, seed, tmp,
                                             tally, values)
            if (suite_name, suffix) == (name, ""):
                values["trace.accounted_fraction"].append(accounted)
                values["trace.overhead_fraction"].append(overhead)
        child = run_workload_child(name, seed, tmp, tally)
        values["cli.cpu_s"].append(child.cpu_s)
        if name != "campaign":
            child = run_workload_child("campaign", seed, tmp, tally)
        values["harness.rss_bytes_per_sample"].append(
            (child.maxrss_bytes - setup_rss) / WORKLOADS["campaign"].size)
        now = time.perf_counter()
        if (now - start) + (now - pass_start) > seconds:    # another pass would overrun
            break
    return {metric: statistics.median(vals) for metric, vals in values.items()}


# --------------------------------------------------------------------------
# provenance

def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu():
    info = {"model": None, "l2": None, "l3": None}
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            if key.strip() == "model name":
                info["model"] = value.strip()
            elif key.strip() == "cache size":
                info["l3"] = value.strip()
            if info["model"] and info["l3"]:
                break
    if shutil.which("lscpu"):
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10,
                                 env={**os.environ, "LC_ALL": "C"}).stdout
            for line in out.splitlines():
                key, _, value = line.partition(":")
                if key.strip() in ("L2 cache", "L3 cache"):
                    info[key.strip()[:2].lower()] = value.strip()
    return info


def thread_env(nproc):
    """The BLAS/OpenMP thread settings; any above nproc is an error."""
    env = {var: os.environ.get(var) for var in THREAD_VARS}
    for var, value in env.items():
        first = (value or "").split(",")[0].strip()
        if first.isdigit() and int(first) > nproc:
            sys.exit(f"perfbench: {var}={value} asks for more threads than nproc = {nproc}")
    return env


def provenance(args, nproc):
    import bicoef
    import numpy as np
    w = WORKLOADS[args.workload]
    return {
        "git_commit": _git_commit(),
        "bicoef": bicoef.__version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": nproc,
        "cpu": _cpu(),
        "thread_env": thread_env(nproc),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": ["python", "-m", "bicoef.cli", *argv_for(args.workload, args.seed, out="<tmp>.csv")],
        "size": w.size,
        # what falsify keeps per sample: p1, p2, q1, q2, |a2|, |a3|, two
        # margins and three masks; compare harness.rss_bytes_per_sample
        "harness.array_bytes_per_sample": 4 * np.dtype(complex).itemsize
        + 4 * np.dtype(float).itemsize + 3 * np.dtype(bool).itemsize,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind: kill and reap the running child, remove the temp dir
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    if not (SRC / "bicoef" / "__init__.py").is_file():
        sys.exit(f"perfbench: no bicoef source at {SRC / 'bicoef'}; "
                 "run from the root of a bicoef checkout")
    global SPAWNER
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        SPAWNER = Spawner()    # before numpy is imported
        try:
            _measure(args, Path(tmp))
        finally:
            SPAWNER.close()


def _measure(args, tmp):
    sys.path.insert(0, str(SRC))
    import bicoef
    if Path(bicoef.__file__).resolve().parent != SRC / "bicoef":
        sys.exit(f"perfbench: imported bicoef from {bicoef.__file__}, not from {SRC}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    nproc = len(os.sched_getaffinity(0))
    prov = provenance(args, nproc)
    tally = Tally()
    raw = {}
    run = traced if args.trace else end_to_end
    try:
        values = run(args.workload, args.seed, args.seconds, tmp, tally, raw)
    except LayerError as exc:
        sys.exit(f"perfbench: {exc}")
    if set(values) != set(units):
        sys.exit(f"perfbench: measured {sorted(set(values) - set(units))} and missed "
                 f"{sorted(set(units) - set(values))} against BENCHMARK.json")
    print(json.dumps({"provenance": prov}))
    if raw:
        print(json.dumps({"unscaled": raw}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))


if __name__ == "__main__":
    main()
