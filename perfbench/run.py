"""curvcert benchmark: end-to-end and per-layer metrics of certification.

Run from the repository root:

    python3 perfbench/run.py --workload zoo2d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60 --trace 0

One single-threaded process imports the program from this checkout's
``src/`` and runs closed-loop passes of one workload (see workloads.py
and NOTES.md):

* ``setup_s``: median over SETUP_PROBES cold processes of the seconds to
  import curvcert and build every space, target, Neumann field and test
  density of the workload.  Half of the probes run before the passes and
  half after, so that the median spans the host's speed over the run.
* ``pass_s``: median wall seconds of one pass; passes run after a
  warm-up pass until ``--seconds`` of passes are measured (at least one).
* ``nodes_per_s``: quadrature nodes of the pass's weak-identity
  evaluations (interior plus boundary, at the stated counts) per second.
* ``peak_rss_mb``: peak resident set size of the process, read right
  after the first timed pass.

Every pass's outputs are checked; ``attempted``/``failed`` count the
checks.  ``--trace 1`` instead runs one untraced and one traced pass and
prints the per-layer metrics of layers.py.  ``--workload all`` runs every
workload in one process, interleaved round by round, and prints each
workload's metrics.  The last line of standard output is one JSON object.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

# Pinned before numpy is imported, so BLAS and OpenMP stay on one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 10
PROBE_TIMEOUT_S = 60
WORKLOADS = ("zoo2d", "ball3", "dense_family")
E2E_UNITS = {"setup_s": "s", "pass_s": "s", "nodes_per_s": "1/s",
             "peak_rss_mb": "MB"}


def _pin_threads() -> dict:
    before = {v: os.environ.get(v) for v in THREAD_VARS}
    for v in THREAD_VARS:
        os.environ[v] = "1"
    return before


def _import_program():
    """Import curvcert from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "curvcert", "__init__.py")):
        raise SystemExit(f"error: no curvcert sources under {SRC}")
    sys.path.insert(0, SRC)
    import curvcert
    if os.path.dirname(os.path.abspath(curvcert.__file__)) != \
            os.path.join(SRC, "curvcert"):
        raise SystemExit(f"error: curvcert imported from {curvcert.__file__}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def machine_facts(pinned_from: dict) -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "thread_vars_before_pinning": pinned_from,
    }


def setup_probe(workload: str, seed: int) -> float:
    """Body of one cold set-up process: import and build, timed."""
    t0 = time.perf_counter()
    _import_program()
    import workloads
    workloads.build(workload, seed)
    return time.perf_counter() - t0


def cold_setup_seconds(workload: str, seed: int, count: int) -> list:
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    out = []
    for _ in range(count):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


class Runner:
    """Passes of one workload, with timings and check outcomes."""

    def __init__(self, name, seed):
        import workloads
        self.name = name
        self.workload = workloads.build(name, seed)
        self.pass_s = []
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.json_identical = 0
        self.peak_rss_mb = None

    def warmup(self):
        try:
            self.workload.warmup()
        except Exception as exc:  # the timed passes count the failure
            print(f"{self.name}: warm-up raised {exc!r}", file=sys.stderr)

    def one_pass(self) -> float:
        t0 = time.perf_counter()
        results = self.workload.run_pass()
        elapsed = time.perf_counter() - t0
        oc = self.workload.check(results)
        self.pass_s.append(elapsed)
        self.attempted += oc.attempted
        self.failed += oc.failed
        self.failures.extend(oc.failures)
        self.json_identical = oc.json_identical
        if self.peak_rss_mb is None:
            self.peak_rss_mb = _peak_rss_mb()
        return elapsed

    def e2e_metrics(self, setup_values) -> dict:
        pass_s = statistics.median(self.pass_s)
        values = {"setup_s": statistics.median(setup_values),
                  "pass_s": pass_s,
                  "nodes_per_s": self.workload.nodes_per_pass / pass_s,
                  "peak_rss_mb": self.peak_rss_mb}
        return {k: {"value": v, "unit": E2E_UNITS[k]}
                for k, v in values.items()}

    def describe(self, setup_values) -> list:
        q1, q3 = _quartiles(self.pass_s)
        share = self.failed / self.attempted if self.attempted else 1.0
        lines = [f"[{self.name}] passes={len(self.pass_s)} "
                 f"pass_s q1={q1:.4f} q3={q3:.4f} "
                 f"all={[round(v, 4) for v in self.pass_s]}",
                 f"[{self.name}] setup_s samples="
                 f"{[round(v, 4) for v in setup_values]}",
                 f"[{self.name}] failed_share={share:.6g} ratio "
                 f"({self.failed}/{self.attempted} output checks)",
                 f"[{self.name}] nodes_per_pass="
                 f"{self.workload.nodes_per_pass}"]
        for m, v in self.e2e_metrics(setup_values).items():
            lines.append(f"[{self.name}] {m} = {v['value']:.6g} {v['unit']}")
        lines += [f"[{self.name}] FAILED {f}" for f in self.failures[:20]]
        return lines


def _write_out(name: str, doc: dict):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return path


def run_untraced(name, seed, seconds, facts):
    setup_values = cold_setup_seconds(name, seed, SETUP_PROBES // 2)
    runner = Runner(name, seed)
    runner.warmup()
    while not runner.pass_s or sum(runner.pass_s) < seconds:
        runner.one_pass()
    setup_values += cold_setup_seconds(name, seed, SETUP_PROBES // 2)
    for line in runner.describe(setup_values):
        print(line)
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": runner.e2e_metrics(setup_values)}
    _write_out(f"run-{name}-seed{seed}.json",
               {"machine": facts, "pass_s": runner.pass_s,
                "setup_s": setup_values, "failures": runner.failures,
                "result": result})
    return result


def run_traced(name, seed, facts):
    import layers
    setup_tracer = layers.Tracer()
    setup_tracer.install()
    try:
        runner = Runner(name, seed)
    finally:
        setup_tracer.uninstall()
    runner.warmup()
    untraced = runner.one_pass()
    tracer = layers.Tracer()
    tracer.install()
    try:
        traced = runner.one_pass()
    finally:
        tracer.uninstall()
    kernels = layers.jet_kernel_timings()
    metrics = layers.per_layer_metrics(setup_tracer, tracer,
                                       runner.json_identical,
                                       traced / untraced - 1.0, kernels)
    for m, v in metrics.items():
        print(f"[{name}] {m} = {v['value']:.6g} {v['unit']}")
    print(f"[{name}] untraced pass {untraced:.4f} s, traced pass "
          f"{traced:.4f} s")
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    path = _write_out(f"trace-{name}-seed{seed}.json",
                      {"machine": facts, "failures": runner.failures,
                       "spans_setup": layers.span_table(setup_tracer),
                       "spans_pass": layers.span_table(tracer),
                       "result": result})
    print(f"[{name}] span table written to {os.path.relpath(path, ROOT)}")
    return result


def run_all(seed, seconds, facts):
    """Every workload in one process, passes interleaved round by round.

    Round 1 runs the workloads in order of increasing memory footprint,
    so each workload's peak_rss_mb is the process high-water mark right
    after its first pass; later rounds rotate the order.
    """
    setup = {n: cold_setup_seconds(n, seed, SETUP_PROBES) for n in WORKLOADS}
    runners = [Runner(n, seed) for n in ("zoo2d", "dense_family", "ball3")]
    for r in runners:
        r.warmup()
    t0 = time.perf_counter()
    rnd = 0
    while rnd == 0 or time.perf_counter() - t0 < seconds:
        k = rnd % len(runners)
        for r in runners[k:] + runners[:k]:
            r.one_pass()
        rnd += 1
    metrics, attempted, failed = {}, 0, 0
    for r in sorted(runners, key=lambda r: WORKLOADS.index(r.name)):
        for line in r.describe(setup[r.name]):
            print(line)
        for m, v in r.e2e_metrics(setup[r.name]).items():
            metrics[f"{r.name}.{m}"] = v
        share = r.failed / r.attempted if r.attempted else 1.0
        metrics[f"{r.name}.failed_share"] = {"value": share, "unit": "ratio"}
        attempted += r.attempted
        failed += r.failed
    print(f"rounds={rnd}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    pinned_from = _pin_threads()
    if args.setup_probe:
        if args.workload == "all":
            ap.error("--setup-probe needs one workload")
        print(repr(setup_probe(args.workload, args.seed)))
        return 0
    _import_program()
    facts = machine_facts(pinned_from)
    print("machine: " + json.dumps(facts, sort_keys=True))
    if args.workload == "all":
        if args.trace:
            ap.error("--trace 1 needs one workload")
        result = run_all(args.seed, args.seconds, facts)
    elif args.trace:
        result = run_traced(args.workload, args.seed, facts)
    else:
        result = run_untraced(args.workload, args.seed, args.seconds, facts)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
