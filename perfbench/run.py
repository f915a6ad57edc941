"""tqsl benchmark: one workload per invocation, closed loop.

    python3 perfbench/run.py --workload gue-sweep --seed 0 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory. Load is a closed loop: one process and one caller, each pass
starting only after the previous one finished. A pass runs every item of
the workload once and writes its CSVs (and summary.json for the CLI
runners) into ``.perfbench_out/``, which is removed on exit.

An untimed warm-up pass goes first; its output is checked in full against
the goldens (see workloads.check_item), and every later pass must write
byte-identical files. Any failure makes ``correct`` false and the exit
code 1.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` spends half of ``--seconds`` on untraced passes and half on
traced ones, and reports the per-layer metrics plus ``trace.overhead_s``.
Every time in the JSON result is scaled to reference host speed with the
kernel in reference.py, run on either side of each pass and before each
set-up probe; the measured times are printed beside the scaled ones. The last line of stdout
is the JSON result; the lines above it name every metric with its unit,
and give the run's environment.
"""
import os

# Pinned before numpy is imported: with 2 cores, BLAS threading swung the
# d=64 trajectory between 16 ms and 600 ms from run to run.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from reference import REF_SECONDS, reference_kernel  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    accepted_moves,
    check_item,
    load_goldens,
    make_inputs,
    pick_items,
    pool,
    run_pass,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
SHOWN_PROBLEMS = 10

# (row, span labels whose self time it sums, the workload it should lead on)
LAYER_ROWS = (
    ("trajectory", ("dynamics.sample_trajectory",), "gue-sweep"),
    ("reports", ("bounds.bound_series", "bounds.csv_row", "experiments.run"), "gue-sweep"),
    ("optimizer", ("bounds.correction_samples", "linalg.expm_i_hermitian", "bounds.optimize_basis"), "gue-optimize"),
    ("spin-oracle", ("ensembles.spin_chain_evolved_state",), "spin-chain"),
    ("mixed-correction", ("uncertainty.correction_k_mixed",), "mixed-sweep"),
    ("sampling", ("ensembles.sample_gue", "ensembles.random_basis"), "gue-sweep"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="tqsl benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_tqsl():
    """The package from this checkout's src/, or None."""
    sys.path.insert(0, str(SRC))
    try:
        import tqsl
    except ImportError as err:
        print(f"cannot import tqsl from {SRC}: {err}", file=sys.stderr)
        return None
    if Path(tqsl.__file__).resolve().parent != SRC / "tqsl":
        print(f"tqsl imported from {tqsl.__file__}, not from {SRC}", file=sys.stderr)
        return None
    return tqsl


def setup_seconds(workload: str, seed: int) -> tuple:
    """Fresh-process set-up times (start, import tqsl, build the inputs),
    each with the reference kernel time measured just before it."""
    times, refs = [], []
    for _ in range(SETUP_PROBES):
        refs.append(reference_kernel())
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]) - start)
    return times, refs


def scaled(times: list, refs: list) -> list:
    """Times at reference host speed (see reference.py)."""
    return [t / r * REF_SECONDS for t, r in zip(times, refs)]


def digests(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def quartiles(values: list) -> tuple:
    return tuple(statistics.quantiles(values, n=4)) if len(values) > 1 else tuple(values * 3)


def git_commit() -> str:
    """HEAD of this checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def provenance(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Bench:
    """One workload's passes, with the correctness gate applied to each."""

    def __init__(self, tqsl, workload, seed: int):
        self.tqsl = tqsl
        self.workload = workload
        goldens = load_goldens(workload)
        self.items = pick_items(pool(goldens), workload, seed)
        self.goldens = {item: goldens[str(item)] for item in self.items}
        self.inputs = make_inputs(workload, self.items)
        self.out = OUT / workload.name
        self.reference = None  # file digests of the warm-up pass
        self.wrong = set()  # items whose warm-up output failed the gate
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, timer):
        """One pass, timed by ``timer``; returns (seconds, runs, bytes written)."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        with timer() as elapsed:
            runs = run_pass(self.tqsl, self.workload, self.inputs, self.out)
        self._gate(runs)
        written = sum(p.stat().st_size for p in self.out.iterdir())
        return elapsed[0], runs, written

    def _gate(self, runs: dict) -> None:
        self.attempted += len(self.items)
        got = digests(self.out)
        bad = set()
        for item in self.items:
            run = runs.get(item, {"flags": ["error:missing run"]})
            if self.reference is None:
                problems = check_item(self.workload, item, run, self.out, self.goldens[item])
            else:
                problems = [f for f in run["flags"] if f.startswith("error:")]
                name = f"{self.workload.csv_prefix}_seed{item}.csv"
                if got.get(name) != self.reference.get(name):
                    problems.append(f"{name} differs from the warm-up pass")
                elif item in self.wrong:
                    problems.append("same wrong output as the warm-up pass")
            if problems:
                bad.add(item)
                self.problems.extend(f"item {item}: {p}" for p in problems)
        if self.reference is not None and got != self.reference and not bad:
            bad.add(None)
            self.problems.append("output files differ from the warm-up pass")
        self.failed += len(bad)
        if self.reference is None:
            self.reference = got
            self.wrong = bad


@contextmanager
def wall_timer():
    """Yields a one-element list that holds the block's duration on exit."""
    elapsed = [0.0]
    start = time.perf_counter()
    try:
        yield elapsed
    finally:
        elapsed[0] = time.perf_counter() - start


def measure(bench, budget: float, timer=wall_timer, on_pass=None) -> tuple:
    """Closed loop: passes back to back, as many as fit in ``budget`` seconds
    judging by the last pass, and at least one. The reference kernel runs
    before every pass and after the last; returns the pass times and, for
    each pass, the mean kernel time on either side of it."""
    walls, refs = [], [reference_kernel()]
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + walls[-1] + refs[-1] <= budget:
        elapsed, runs, written = bench.run(timer)
        walls.append(elapsed)
        refs.append(reference_kernel())
        if on_pass is not None:
            on_pass(runs, written, (refs[-2] + refs[-1]) / 2)
    return walls, [(a + b) / 2 for a, b in zip(refs, refs[1:])]


def end_to_end(bench, args) -> dict:
    setup, setup_refs = setup_seconds(args.workload, args.seed)
    bench.run(wall_timer)  # warm-up and full gate
    walls, refs = measure(bench, args.seconds)
    walls_ref = scaled(walls, refs)
    setup_ref = scaled(setup, setup_refs)
    rows = bench.workload.rows_per_pass()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"host: reference kernel {statistics.median(refs):.6f} s, nominal {REF_SECONDS} s; "
          "times below are at reference speed, [measured] in brackets")
    q1, med, q3 = quartiles(walls_ref)
    m1, mmed, m3 = quartiles(walls)
    print(f"wall_s {med:.6f} s  (q1 {q1:.6f}, q3 {q3:.6f}, {len(walls)} passes) "
          f"[{mmed:.6f} s, q1 {m1:.6f}, q3 {m3:.6f}]")
    print(f"rows_per_s {rows / med:.3f} 1/s  ({rows} rows in the median pass) [{rows / mmed:.3f} 1/s]")
    print(f"setup_s {statistics.median(setup_ref):.6f} s  ({len(setup)} fresh processes) "
          "[" + ", ".join(f"{s:.4f}" for s in setup) + " s]")
    print(f"peak_rss_mb {peak:.3f} MB")
    return {"wall_s": med, "rows_per_s": rows / med,
            "setup_s": statistics.median(setup_ref), "peak_rss_mb": peak}


def layer_values(tracer, runs: dict, written: int) -> dict:
    """Every per-layer figure of one traced pass, by metric name."""
    values = {f"{label}.self_s": t for label, t in tracer.self_s.items()}
    for key, n in tracer.calls.items():
        values[f"{key}.n" if key in tracer.classes else f"{key}.calls"] = n
    values.update({f"{key}.raised": n for key, n in tracer.raised.items()})
    # Each optimizer candidate is one expm_i_hermitian rotation of the basis.
    candidates = tracer.calls["linalg.expm_i_hermitian"]
    moves = sum(accepted_moves(r.get("basis_id")) for r in runs.values())
    values.update({
        "states.validate_s": tracer.validate_s,
        "experiments.bytes_written": written,
        "bounds.optimize_basis.candidates": candidates,
        "bounds.optimize_basis.accept_ratio": moves / candidates if candidates else 0.0,
    })
    return values


def per_layer(bench, args) -> dict:
    bench.run(wall_timer)  # warm-up and full gate
    plain = scaled(*measure(bench, args.seconds / 2))
    tracer = Tracer()
    passes = []

    def snapshot(runs, written, ref):
        values = layer_values(tracer, runs, written)
        passes.append({k: v / ref * REF_SECONDS if k.endswith("_s") else v for k, v in values.items()})
        tracer.reset()

    with tracer.installed():
        traced = scaled(*measure(bench, args.seconds / 2, tracer.root, snapshot))
    names = sorted({name for p in passes for name in p})
    metrics = {}
    for name in names:
        values = [p.get(name, 0) for p in passes]
        metrics[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
        if not name.endswith("_s") and len(set(values)) > 1:
            print(f"warning: {name} differs between traced passes: {values}", file=sys.stderr)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    _print_layers(metrics, traced, plain, args.workload)
    return metrics


def _print_layers(metrics: dict, traced: list, plain: list, workload: str) -> None:
    total = statistics.median(traced)
    print(f"traced pass {total:.6f} s over {len(traced)} passes; "
          f"untraced {statistics.median(plain):.6f} s over {len(plain)} passes")
    for name, value in sorted(metrics.items()):
        share = f"  {100 * value / total:5.1f}%" if name.endswith(".self_s") else ""
        print(f"  {name} {value:.6g}{share}")
    shares = {row: sum(metrics.get(f"{lbl}.self_s", 0.0) for lbl in spans) / total
              for row, spans, _ in LAYER_ROWS}
    for row, _, lead in LAYER_ROWS:
        print(f"  row {row:18s} {100 * shares[row]:5.1f}%  (leads on {lead})")
    top = max(shares, key=shares.get)
    leads = [row for row, _, lead in LAYER_ROWS if lead == workload]
    verdict = "expected" if top in leads else "NOT one of " + ", ".join(leads)
    print(f"largest row on {workload}: {top} ({verdict})")


def main(argv=None) -> int:
    args = parse_args(argv)
    tqsl = import_tqsl()
    if tqsl is None:
        return 2
    bench = Bench(tqsl, WORKLOADS[args.workload], args.seed)
    reference_kernel()  # its first call pays one-off costs
    try:
        measured = per_layer(bench, args) if args.trace else end_to_end(bench, args)
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {
        # A layer a workload never enters reads 0; an end-to-end metric must be measured.
        m["name"]: {"value": measured.get(m["name"], 0) if args.trace else measured[m["name"]],
                    "unit": m["unit"]}
        for m in declared["per_layer" if args.trace else "end_to_end"]
    }
    for problem in bench.problems[:SHOWN_PROBLEMS]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"failed_frac {bench.failed / bench.attempted:.6f}  "
          f"({bench.failed} of {bench.attempted} item runs)")
    print("env " + json.dumps(provenance(args), sort_keys=True))
    correct = bench.failed == 0
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
