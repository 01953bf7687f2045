"""Cost-search benchmark for naimark-lab.

    python3 costbench/run.py --workload haar-scan --seed 1 --seconds 15 --trace 0
    python3 costbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Runs one workload in this process (or, with `all`, each workload in its own
child process, one after the other) against the library under `src/` of the
checkout this file sits in. Set-up imports the library, builds the inputs
from --seed and runs the first operation once. The timed phase then repeats
whole rounds of the workload's operations until --seconds have passed; every
round runs the same operations on the same inputs. The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and `metrics`,
which holds the end-to-end metrics with --trace 0 and the per-layer metrics
with --trace 1. Lines before it start with '#' and repeat the metrics, with
the machine and versions. A traced run also writes its spans to
costbench/out/. The exit code is 0 when every check passed.
"""

from __future__ import annotations

import os
import sys
import time

T_START = time.perf_counter()
# Pinned before numpy is first imported: the thread count of OpenBLAS is read
# once, at load time, and threadpoolctl is not a dependency.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def process_age() -> float:
    """Seconds from the start of this process to now, at clock-tick resolution."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime", encoding="ascii") as fh:
            uptime = float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))


def git_sha() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(argv, names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*names, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args, names) -> int:
    code = 0
    for name in names:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = max(code, subprocess.run(argv, check=False).returncode)
    return code


# Other tenants share this host's cores: its speed swings by 20-40% within
# seconds to tens of seconds, and wall time and process CPU time stretch
# alike. So a fixed kernel that calls no library code, doing the same kind
# of work as the operations (small SVDs and eigvalsh calls and Python loops,
# from checks.py), is timed between operations, at most REF_EVERY_S apart.
# Each operation's times are scaled by REF_S over the median of the kernel
# samples taken from REF_WINDOW_S before it starts to REF_WINDOW_S after it
# ends: they read as seconds on this host at its reference speed.
REF_S = 0.010
REF_EVERY_S = 0.25
REF_WINDOW_S = 1.0


class Reference:
    def __init__(self):
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((8, 8)) + 1j * np.eye(8))
        self.basis, self.rows = q, q[:4, :2] / np.linalg.norm(q[:4, :2], axis=0)
        self.ends: list[float] = []
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        for _ in range(40):
            checks.svd_cost(self.basis, self.rows, 4)
            checks.merge_parallel_rows(self.rows)
            for A in self.basis.reshape(8, 4, 2):
                lam = np.clip(np.linalg.eigvalsh(A.T @ A.conj()), 1e-300, 1.0)
                float(-(lam * np.log2(lam)).sum())
        self.ends.append(time.perf_counter())
        self.samples.append(self.ends[-1] - t0)

    def between_operations(self) -> None:
        if not self.ends or time.perf_counter() - self.ends[-1] >= REF_EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.ends, start - REF_WINDOW_S)
        hi = bisect.bisect_right(self.ends, end + REF_WINDOW_S)
        return REF_S / statistics.median(self.samples[lo:hi])


def execute(tr, op, errors):
    """One operation: the timed library calls, then the untimed checks."""
    from workloads import Outcome

    c0, t0 = time.process_time(), time.perf_counter()
    try:
        res = tr.call(op.kind, op.run)
    except Exception as exc:  # a fault of the library: the operation failed
        print(f"# FAILED {op.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return time.perf_counter() - t0, time.process_time() - c0, Outcome(None, failed=True)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    try:
        out = op.check(res)
    except checks.CheckFailed as exc:
        errors.append(f"{op.label}: {exc}")
        out = Outcome(None)
    return wall, cpu, out


def optimizer_counts(reports) -> dict:
    hits = sum(sum(h <= min(r.history) + 1e-6 for h in r.history) for r in reports)
    return {
        "optimize.restarts": sum(r.restarts_run for r in reports),
        "optimize.converged_ratio": sum(r.converged for r in reports) / len(reports),
        "optimize.restart_hit_ratio": hits / sum(len(r.history) for r in reports),
    }


def per_layer(tr, spec, reports) -> dict:
    """Every per-layer metric of BENCHMARK.json, probing the layers not reached."""
    import workloads

    values, probed = {}, []
    for m in spec["per_layer"]:
        for suffix, scale in ((".call_s", 1.0), (".call_us", 1e6)):
            if m["name"].endswith(suffix):
                span = m["name"][: -len(suffix)]
                if not tr.durations(span):
                    probed += workloads.probe(tr, span, OUT)
                values[m["name"]] = statistics.median(tr.durations(span)) * scale
    values.update(optimizer_counts(reports or probed))
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}


def main(argv=None) -> int:
    try:
        spec = load_spec()
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    args = parse_args(argv, names)
    if args.workload == "all":
        return run_all(args, names)
    startup = max(0.0, process_age() - (time.perf_counter() - T_START))  # before this file ran
    if not os.path.isfile(os.path.join(SRC, "naimark_lab", "__init__.py")):
        print(f"error: no library sources at {os.path.relpath(SRC)}/naimark_lab", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import scipy

    import naimark_lab
    import tracing
    import workloads

    if not os.path.abspath(naimark_lab.__file__).startswith(SRC + os.sep):
        print(f"error: naimark_lab imported from {naimark_lab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    print(f"# costbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# blas threads: " + " ".join(f"{v}={os.environ[v]}" for v in BLAS_VARS))
    print(f"# machine: {platform.platform()}; {cpu_model()}; cores={os.cpu_count()} usable={len(os.sched_getaffinity(0))}")
    print(f"# versions: python {platform.python_version()}, numpy {np.__version__}, scipy {scipy.__version__}")
    print(f"# git: {git_sha()}")

    os.makedirs(OUT, exist_ok=True)
    tr = tracing.Tracer() if args.trace else tracing.NullTracer()
    errors: list[str] = []
    ops = workloads.WORKLOADS[args.workload](tr, args.seed, OUT)
    execute(tr, ops[0], errors)  # warm-up, not counted
    setup_s = startup + time.perf_counter() - T_START

    ref = Reference()
    rounds, starts = [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        rounds.append([])
        starts.append([])
        for op in ops:
            ref.between_operations()
            starts[-1].append(time.perf_counter())
            rounds[-1].append(execute(tr, op, errors))
    ref.sample()
    first = [out.cost for _, _, out in rounds[0]]
    for r in rounds[1:]:
        if [out.cost for _, _, out in r] != first:
            errors.append("a repeated round returned other costs than the first: seeded runs must agree bit for bit")

    # Each operation's median over the rounds, so that the spells of the host
    # that hit a minority of the rounds are left out.
    def per_op(k: int) -> list[float]:
        cols = zip(*([res[k] * ref.scale(t, t + res[0]) for res, t in zip(r, rt)] for r, rt in zip(rounds, starts)))
        return [statistics.median(col) for col in cols]

    def raw_per_op(k: int) -> list[float]:
        return [statistics.median(col) for col in zip(*([res[k] for res in r] for r in rounds))]

    wall, cpu, raw = per_op(0), per_op(1), raw_per_op(0)
    costs = [c for c in first if c is not None]
    print(f"# reference kernel: median {statistics.median(ref.samples):.6f} s over {len(ref.samples)} samples")
    print(f"# unscaled: ops_per_s = {len(ops) / sum(raw):.6g}, op_p50_s = {statistics.median(raw):.6g}")
    e2e = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(ops) / sum(wall), "1/s"),
        "op_p50_s": (statistics.median(wall), "s"),
        "cpu_s": (sum(cpu), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "mean_cost_ebits": (sum(costs) / len(costs), "ebit"),
    }
    attempted = len(rounds) * len(ops)
    failed = sum(out.failed for r in rounds for _, _, out in r)
    print(f"# rounds={len(rounds)} operations/round={len(ops)} attempted={attempted} failed={failed}")
    for name, (value, unit) in e2e.items():
        print(f"# {name} = {value:.6g} {unit}")

    if args.trace:
        reports = [rep for _, _, out in rounds[0] for rep in out.reports]
        metrics = per_layer(tr, spec, reports)
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tr.write(path)
        print(f"# spans written to {os.path.relpath(path, ROOT)}")
        for name, m in metrics.items():
            print(f"# {name} = {m['value']:.6g} {m['unit']}")
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]} for m in spec["end_to_end"]}
    for err in errors:
        print(f"# CHECK FAILED {err}", file=sys.stderr)
    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
