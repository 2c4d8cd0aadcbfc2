"""Benchmark for markovgeo: one closed-loop client driving the public API.

    python3 perfbench/run.py --workload divergence --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one child process each

A run builds round 0 of the workload's queries from the seed (set-up), warms up
on other inputs, then runs whole rounds, a fresh round each time, until the
time spent inside queries is closest to ``--seconds``. Every output is checked
after its query, untimed. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 1`` the run instead executes round 0 twice, first untraced and
then traced, and reports per-layer busy seconds and call counts of the traced
pass together with the traced pass's overhead. See README.md.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# One BLAS thread: the client is a single closed loop on one core, which keeps
# the figures steady on a shared 2-core machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (numpy reads the thread settings on import)

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("divergence", "estimate", "project", "geometry")

TRACED_FUNCTIONS = (
    "graph.build_graph",
    "spectral.perron",
    "coordinates.tbar",
    "coordinates.taubar",
    "divergence.f_divergence",
    "divergence.bregman_divergence",
    "divergence.nagaoka_divergence",
    "divergence.induced_tensor_gram",
    "divergence.null_space_dimension",
    "potential.phibar",
    "potential.phibar_gradient",
    "potential.phibar_hessian",
    "potential.restricted_hessian",
    "inference.sample_trajectory",
    "inference.empirical_pair_measure",
    "inference.mle_transition",
    "inference.project_to_M",
    "inference.goodness_of_fit_statistic",
)
TRACED_COUNTS = (
    "inference.transitions_sampled",
    "inference.project_to_M_iterations",
    "inference.project_to_M_stalls",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import markovgeo from this checkout's src/ and nowhere else, and the modules that use it."""
    if not (SRC / "markovgeo" / "__init__.py").is_file():
        sys.exit(f"run.py: markovgeo sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import markovgeo

    if Path(markovgeo.__file__).resolve().parent != SRC / "markovgeo":
        sys.exit(f"run.py: imported markovgeo from {markovgeo.__file__}, not from {SRC}")


class Session:
    """Runs queries one after another and keeps what the metrics need."""

    def __init__(self, workload, check_failure, meter):
        self.workload = workload
        self.check_failure = check_failure
        self.meter = meter
        # per attempted query, in order: its (start, end) on the thread's CPU
        # clock, and whether it completed
        self.spans = []
        self.completed = []
        self.failed = 0
        self.wrong = 0
        self.counts = Counter()

    @property
    def attempted(self):
        return len(self.spans)

    def round(self, queries, label, tracer=None):
        """Run one round of queries, each followed by its checks."""
        for i, query in enumerate(queries):
            if tracer is not None:
                tracer.query_id = f"{label}.{i}"
            start = time.thread_time()
            try:
                output = self.workload.run(query)
            except Exception as exc:  # a failed query is counted, and the run goes on
                output = None
                self.failed += 1
                print(f"query {label}.{i} failed: {exc!r}", file=sys.stderr)
            self.spans.append((start, time.thread_time()))
            self.completed.append(output is not None)
            if output is None:
                continue
            self._check(f"query {label}.{i}", self.workload.check, query, output)
            if tracer is not None:
                self.counts.update(self.workload.counts(query, output))
            output = None  # so that it is not held through the next query

    def cpu_and_nominal(self):
        """CPU seconds and nominal seconds of every attempted query (see speed.py)."""
        measured = np.array([self.meter.measure(a, b, self.workload.speed_mix) for a, b in self.spans])
        return measured[:, 0], measured[:, 0] * measured[:, 1]

    def finish(self):
        self._check("run", self.workload.finish)

    def _check(self, what, fn, *args):
        try:
            fn(*args)
        except self.check_failure as exc:
            self.wrong += 1
            print(f"{what} is wrong: {exc}", file=sys.stderr)


def run_workload(args):
    meter = speed.SpeedMeter()
    meter.start()  # samples the speed from here to the end, set-up included
    try:
        return measure_workload(args, meter)
    finally:
        meter.stop()


def measure_workload(args, meter):
    import_program()

    import checks
    import workloads
    from tracing import Tracer

    workload = workloads.WORKLOADS[args.workload]()
    index = WORKLOAD_NAMES.index(args.workload)

    def round_inputs(k):
        return workload.make_round(np.random.default_rng([args.seed, index, k]))

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()  # so that graph construction in set-up is traced
    queries = round_inputs(0)
    if tracer is not None:
        tracer.uninstall()
    for query in workload.warmup_round(np.random.default_rng([args.seed, index, 2**32 - 1])):
        workload.run(query)
    setup_cpu, setup_factor = meter.measure(0.0, time.thread_time(), workload.speed_mix)
    setup_s = setup_cpu * setup_factor

    session = Session(workload, checks.CheckFailure, meter)
    if tracer is None:
        rounds = 0
        while True:
            session.round(queries, str(rounds))
            rounds += 1
            if session.cpu_and_nominal()[1].sum() * (1.0 + 0.5 / rounds) >= args.seconds:
                break
            queries = round_inputs(rounds)
        session.finish()
        cpu, nominal = session.cpu_and_nominal()
        done = nominal[np.asarray(session.completed)]
        metrics = {
            "queries_per_s": (done.size / nominal.sum(), "queries/s"),
            "query_p50_ms": (1e3 * float(np.percentile(done, 50)), "ms"),
            "query_tail_ms": (1e3 * float(np.percentile(done, workload.tail_percentile)), "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"{args.workload} cpu_s {cpu.sum():.6g} s over {rounds} rounds, setup_cpu_s {setup_cpu:.6g} s")
    else:
        session.round(queries, "0")
        tracer.install()
        try:
            session.round(queries, "0t", tracer)
        finally:
            tracer.uninstall()
        session.finish()
        nominal = session.cpu_and_nominal()[1]
        plain, traced = nominal[: len(queries)].sum(), nominal[len(queries) :].sum()
        metrics = {}
        for name in TRACED_FUNCTIONS:
            calls, seconds = tracer.totals.get(name, (0, 0.0))
            metrics[f"{name}_s"] = (seconds, "s")
            metrics[f"{name}_calls"] = (calls, "count")
        for name in TRACED_COUNTS:
            metrics[name] = (session.counts[name], "count")
        metrics["trace.overhead_pct"] = (100.0 * (traced / plain - 1.0), "%")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(f"{args.workload} attempted {session.attempted} failed {session.failed} wrong {session.wrong}")
    return {
        "correct": session.wrong == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(args):
    """Every workload in its own child process, so each set-up is cold."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        command += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            sys.exit(f"run.py: workload {name} exited with code {child.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def main(argv=None):
    args = parse_args(argv)
    result = run_all(args) if args.workload == "all" else run_workload(args)
    line = json.dumps(result)
    if args.workload != "all":
        OUT.mkdir(exist_ok=True)
        (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)


if __name__ == "__main__":
    main()
