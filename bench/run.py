#!/usr/bin/env python3
"""Seeded benchmark of locc-forge, end to end and per module.

Usage, from the repository root:

    python3 bench/run.py --workload synth-large --seed 1 --seconds 27 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 27
    python3 bench/selftest.py

Workloads: synth-large, edge-small, simulate, cli-files (see workloads.py
for what each one stresses and why).  Load comes from one client in a
closed loop: each operation starts when the previous one has finished.
The timed phase repeats passes over the seed's operations until
``--seconds`` have passed; it completes at least one pass.  BLAS runs
on one thread.  Every operation goes through the correctness gate
(gate.py); a failed operation counts in ``failed``, and ``correct`` is true
only when no operation failed, every pass gave the same output digests
and, with ``--trace 1``, the traced operations gave the same digests as the
untraced ones.

``--trace 0`` reports (units in BENCHMARK.json):

    setup_s      process start to first timed operation: the median of
                 three fresh ``import numpy, locc_forge`` subprocesses plus
                 the median of three in-process set-ups (inputs, any
                 set-up synthesis, one warm-up operation)
    ops_per_s    operations per pass divided by the sum of each operation's
                 latency
    op_ms.p50    median operation latency
    op_ms.tail   latency at the highest percentile with ten samples beyond
                 it (the percentile and sample count are printed)
    peak_rss_mb  peak resident memory of this process, or of the largest
                 child process for cli-files

An operation's latency is its median over the passes, so a short slowdown
of a shared machine moves it little.  Every time in these metrics is scaled
to a nominal machine speed by a reference kernel timed around it, because
the speed of a shared host drifts by up to a factor of two over minutes
(speed.py); the unscaled values are printed in the report line.

``--trace 1`` runs the timed phase twice, for half the time each: untraced,
then with every public function of the six modules wrapped (spans.py).  It
reports the per-module metrics (``<module>.self_ms`` is self time per
operation; ``*.ms`` without ``cli.`` is milliseconds per operation;
``*.us`` is microseconds per call; ``cli.*.ms`` is per call), the exact
counts, ``trials_per_s``, ``protocol_bytes`` per pass, ``fail_share`` and
``trace.overhead`` (untraced ops_per_s over traced ops_per_s, minus one)
and ``contract_fail_share``, the share of the seed's edge-small pairs
without their floor that break the synthesize => verify contract (the
reproducer in ROADMAP.md), measured untimed after the timed phases.
The spans are written to ``.bench_out/spans-<workload>-seed<seed>.json``.

The last line of standard output is the JSON result; the lines before it
describe the environment, the input digest and every operation's output
digest, so two commits can be checked for identical inputs and outputs.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are pinned before numpy is imported, here and in children.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# verify must run at its default tolerance.
os.environ.pop("LOCC_FORGE_TOL", None)

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import time
from collections import Counter

import gate  # the benchmark's own modules; workloads needs locc_forge first
import spans
import speed

WORKLOAD_NAMES = ("synth-large", "edge-small", "simulate", "cli-files")
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_ms.p50": "ms", "op_ms.tail": "ms",
              "peak_rss_mb": "MB"}
MODULE_NAMES = ("numkit", "bipartite", "majorize", "synth", "simulate", "cli")
CLI_COMMANDS = ("feasibility", "synthesize", "verify", "simulate", "reduce-bob")
SETUP_REPEATS = 3
TAIL_BEYOND = 10


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def use_sources() -> None:
    """Import locc_forge from this checkout's src/, here and in children."""
    if not os.path.isfile(os.path.join(SRC, "locc_forge", "__init__.py")):
        fail(f"no locc_forge sources under {SRC}; run from a full checkout")
    if SRC not in sys.path:
        sys.path[:0] = [SRC, BENCH]
        os.environ["PYTHONPATH"] = os.pathsep.join(
            [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p])


def environment(np) -> dict:
    """Versions, BLAS and its thread count, cores and the warm-up done."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:  # ask the loaded OpenBLAS itself; absent elsewhere
        import ctypes
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(handle, sym):
                    getter = getattr(handle, sym)
                    getter.restype = ctypes.c_int
                    threads = getter()
                    break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "load": "closed loop, 1 client, 1 process",
        "warmup": "one untimed run of the pass's first operation after each set-up",
    }


def median_import_s(ref: speed.SpeedRef) -> tuple[float, float]:
    """Fresh-process start-up: interpreter plus numpy and locc_forge imports.

    Returns the median seconds scaled to the nominal speed, and unscaled.
    """
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        first = ref.mark()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy, locc_forge"], check=True,
                       timeout=60)
        raw.append(time.perf_counter() - t0)
        scaled.append(raw[-1] * ref.scale(first, ref.mark()))
    return statistics.median(scaled), statistics.median(raw)


def op_latency(samples: list[float]) -> float:
    """An operation's latency: its median over the passes."""
    return statistics.median(samples)


class Phase:
    """Results of one timed phase: latencies, failures, digests and counts."""

    def __init__(self):
        self.latencies: list[float] = []
        # Per operation, its latency in each pass at the nominal speed, and
        # unscaled.
        self.by_op: list[list[float]] = []
        self.by_op_raw: list[list[float]] = []
        self.failed = 0
        self.reasons: Counter = Counter()
        self.first_digests: list[str] | None = None
        self.deterministic = True
        self.pass_counts: Counter = Counter()
        self.passes = 0
        self.trials = 0
        self.trial_time = 0.0
        self.command_times: dict[str, list[float]] = {}


def run_op(wl, op, spans_path=None):
    """Run and gate one operation; an exception is a failed operation."""
    t0 = time.perf_counter()
    try:
        out = wl.run(op, spans_path)
    except Exception as exc:  # any exception from the package fails the op
        dt = time.perf_counter() - t0
        name = type(exc).__name__
        return dt, [f"{name}: {exc}"], gate.digest_of(name, str(exc)), {}
    dt = time.perf_counter() - t0
    try:
        return (dt, *wl.check(op, out))
    except Exception as exc:  # output the gate cannot read fails the op
        name = type(exc).__name__
        return dt, [f"malformed output: {name}: {exc}"], gate.digest_of(name, str(exc)), {}


def timed_phase(wl, seconds: float, ref: speed.SpeedRef, tracer=None, child_spans=None,
                workdir=None) -> Phase:
    """Passes over ``wl.ops`` until ``seconds`` have passed.

    The first pass always completes; a later one stops at the first
    operation that ends after ``seconds``.  With ``child_spans`` each operation's subprocess is traced and its spans
    are appended to that list.
    """
    phase = Phase()
    start = time.perf_counter()
    while True:
        digests, counts = [], Counter()
        for i, op in enumerate(wl.ops):
            spans_path = None
            if tracer is not None:
                tracer.op = len(phase.latencies)
            if child_spans is not None:
                spans_path = os.path.join(workdir, "child-spans.json")
            first = ref.mark()
            dt, reasons, digest, op_counts = run_op(wl, op, spans_path)
            scale = ref.scale(first, ref.mark())
            if spans_path is not None and os.path.exists(spans_path):
                offset = len(child_spans)
                for rec in spans.load_spans(spans_path):
                    rec[3] = rec[3] + offset if rec[3] >= 0 else -1
                    rec[4] = len(phase.latencies)
                    child_spans.append(rec)
                os.remove(spans_path)
            phase.latencies.append(dt)
            if phase.passes == 0:
                phase.by_op.append([])
                phase.by_op_raw.append([])
            phase.by_op[i].append(dt * scale)
            phase.by_op_raw[i].append(dt)
            if reasons:
                phase.failed += 1
                phase.reasons[f"{op.label}: {reasons[0]}"] += 1
            if "trials" in op_counts:
                phase.trials += op_counts["trials"]
                phase.trial_time += dt
            if hasattr(op, "command"):
                phase.command_times.setdefault(op.command, []).append(dt)
            counts.update(op_counts)
            digests.append(digest)
            if phase.passes and time.perf_counter() - start >= seconds:
                break
        if phase.first_digests is None:
            phase.first_digests, phase.pass_counts = digests, counts
        elif digests != phase.first_digests[:len(digests)]:
            phase.deterministic = False
        if len(digests) == len(wl.ops):
            phase.passes += 1
        if time.perf_counter() - start >= seconds:
            return phase


def latency_metrics(by_op: list[list[float]]) -> tuple[dict, dict]:
    """Throughput, median and tail of the operation latencies in ``by_op``.

    Every operation runs once per pass; each of its samples is replaced by
    its latency (``op_latency``), which keeps the sample count.
    """
    lat = sorted(op_latency(ts) for ts in by_op for _ in ts)
    n = len(lat)
    idx = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    info = {"samples": n, "tail_percentile": 100.0 * (idx + 1) / n,
            "tail_samples_beyond": n - idx - 1}
    return {
        "ops_per_s": len(by_op) / sum(op_latency(ts) for ts in by_op),
        "op_ms.p50": 1e3 * statistics.median(lat),
        "op_ms.tail": 1e3 * lat[idx],
    }, info


def layer_metrics(records: list, phase: Phase, untraced: Phase, startup_ms: float) -> dict:
    """Per-module metrics of a traced phase (see the module docstring)."""
    summary = spans.summarize(records)
    n_ops = len(phase.latencies)
    get = lambda name, key: summary.get(name, {}).get(key, 0)
    per_op_ms = lambda name: 1e3 * get(name, "s") / n_ops
    per_op = lambda name: get(name, "calls") / n_ops
    per_call = lambda name, key="s", scale=1e6: scale * get(name, key) / max(get(name, "calls"), 1)

    names = [r[0] for r in records]
    in_estimate = [False] * len(records)
    encode_s = 0.0
    for i, rec in enumerate(records):
        parent = rec[3]
        in_estimate[i] = rec[0] == "simulate.estimate" or (parent >= 0 and in_estimate[parent])
        if rec[0] == "cli.json_dumps" and parent >= 0 and names[parent] == "cli.cmd_synthesize":
            encode_s += rec[2] - rec[1]
    trials = get("simulate.estimate", "count")
    states_in_estimate = sum(1 for n, e in zip(names, in_estimate)
                             if e and n == "bipartite.state_new")
    encodes = max(get("cli.cmd_synthesize", "calls"), 1)

    m = {
        "numkit.svd.calls": per_op("numkit.svd"),
        "numkit.svd.ms": per_op_ms("numkit.svd"),
        "numkit.pinv.ms": per_op_ms("numkit.pinv"),
        "numkit.psd_sqrt.ms": per_op_ms("numkit.psd_sqrt"),
        "bipartite.state_new.calls": per_op("bipartite.state_new"),
        "bipartite.state_new.us": per_call("bipartite.state_new"),
        "bipartite.state_new.per_trial": states_in_estimate / trials if trials else 0.0,
        "bipartite.schmidt.ms": per_op_ms("bipartite.schmidt"),
        "bipartite.squared_spectrum.calls": per_op("bipartite.squared_spectrum"),
        "majorize.bistochastic_link.ms": per_op_ms("majorize.bistochastic_link"),
        "majorize.birkhoff.ms": per_op_ms("majorize.birkhoff"),
        "majorize.birkhoff.terms": per_call("majorize.birkhoff", "count", 1.0),
        "majorize.caratheodory_prune.ms": per_op_ms("majorize.caratheodory_prune"),
        "majorize.caratheodory_prune.dropped": get("majorize.caratheodory_prune", "count") / n_ops,
        "majorize.compare.calls": per_op("majorize.compare"),
        "synth.feasibility.ms": per_op_ms("synth.feasibility"),
        "synth.synthesize.ms": per_op_ms("synth.synthesize"),
        "synth.deterministic_stage.ms": per_op_ms("synth.deterministic_stage"),
        "synth.final_contraction.ms": per_op_ms("synth.final_contraction"),
        "synth.intermediate_vector.ms": per_op_ms("synth.intermediate_vector"),
        "synth.outcomes": per_call("synth.synthesize", "count", 1.0),
        "simulate.verify.ms": per_op_ms("simulate.verify"),
        "simulate.estimate.us_per_trial": 1e6 * get("simulate.estimate", "s") / trials
        if trials else 0.0,
        "simulate.run_once.us": per_call("simulate.run_once"),
        "simulate.branch_weights.us": per_call("simulate.branch_weights"),
        "simulate.trial_rng.us": per_call("simulate.trial_rng"),
        "cli.encode.ms": 1e3 * (get("cli.protocol_to_dict", "s") + encode_s) / encodes,
        "cli.decode.ms": per_call("cli.load_protocol", scale=1e3),
        "cli.load_state.ms": per_call("cli.load_state", scale=1e3),
        "cli.startup.ms": startup_ms,
    }
    for command in CLI_COMMANDS:
        times = phase.command_times.get(command, [])
        m[f"cli.{command}.ms"] = 1e3 * statistics.fmean(times) if times else 0.0
    for module in MODULE_NAMES:
        self_s = sum(agg["self_s"] for name, agg in summary.items()
                     if name.startswith(module + "."))
        m[f"{module}.self_ms"] = 1e3 * self_s / n_ops
    m["trials_per_s"] = untraced.trials / untraced.trial_time if untraced.trial_time else 0.0
    m["protocol_bytes"] = untraced.pass_counts.get("protocol_bytes", 0)
    attempted = len(untraced.latencies)
    m["fail_share"] = untraced.failed / attempted
    ops_per_s = lambda p: latency_metrics(p.by_op)[0]["ops_per_s"]
    m["trace.overhead"] = ops_per_s(untraced) / ops_per_s(phase) - 1.0
    return m


def run_workload(args) -> int:
    import numpy as np

    import workloads

    env = environment(np)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = os.path.join(out_dir, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        cls = workloads.WORKLOADS[args.workload]
        ref = speed.SpeedRef()
        import_s, import_raw_s = median_import_s(ref)
        setup_times, setup_scaled = [], []
        for _ in range(SETUP_REPEATS):
            first = ref.mark()
            t0 = time.perf_counter()
            wl = cls(args.seed, workdir)
            run_op(wl, wl.ops[0])
            setup_times.append(time.perf_counter() - t0)
            setup_scaled.append(setup_times[-1] * ref.scale(first, ref.mark()))
        setup_s = import_s + statistics.median(setup_scaled)
        setup_raw_s = import_raw_s + statistics.median(setup_times)
        input_digest = gate.digest_of(*wl.input_parts())

        in_process = args.workload != "cli-files"
        if args.trace:
            untraced = timed_phase(wl, args.seconds / 2, ref)
            startup_ms = 0.0
            if in_process:
                tracer = spans.Tracer()
                tracer.install()
                try:
                    traced = timed_phase(wl, args.seconds / 2, ref, tracer=tracer)
                finally:
                    tracer.uninstall()
                records = tracer.spans
            else:
                starts = []
                for _ in range(SETUP_REPEATS):
                    t0 = time.perf_counter()
                    subprocess.run([sys.executable, "-m", "locc_forge", "--version"],
                                   capture_output=True, check=True, timeout=60)
                    starts.append(time.perf_counter() - t0)
                startup_ms = 1e3 * statistics.median(starts)
                records = []
                traced = timed_phase(wl, args.seconds / 2, ref, child_spans=records,
                                     workdir=workdir)
            spans_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json")
            spans.dump(records, spans_path)
            phases = (untraced, traced)
            same_digests = traced.first_digests == untraced.first_digests
            metrics = layer_metrics(records, traced, untraced, startup_ms)
            metrics["contract_fail_share"] = workloads.contract_fail_share(args.seed, run_op)
            units = LAYER_UNITS
        else:
            phase = timed_phase(wl, args.seconds, ref)
            phases = (phase,)
            same_digests = True
            metrics, info = latency_metrics(phase.by_op)
            info["passes"] = phase.passes
            info["unscaled"] = {**latency_metrics(phase.by_op_raw)[0], "setup_s": setup_raw_s}
            usage = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
            metrics["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024.0
            metrics["setup_s"] = setup_s
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.latencies) for p in phases)
    failed = sum(p.failed for p in phases)
    deterministic = all(p.deterministic for p in phases)
    first = phases[0]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "setup": {"import_s": import_raw_s, "setup_runs_s": setup_times},
        "speed": {"nominal_kernel_ms": 1e3 * speed.NOMINAL_S,
                  "kernel_ms_median": 1e3 * statistics.median(ref.samples),
                  "kernel_samples": len(ref.samples)},
        "input_digest": input_digest,
        "output_digest": gate.digest_of(first.first_digests),
        "ops_per_pass": len(wl.ops),
        "passes": [p.passes for p in phases],
        "deterministic_across_passes": deterministic,
        "traced_digests_match": same_digests,
        "fail_share": failed / attempted,
        "failures": dict(first.reasons.most_common(20)),
        "trials_per_s": first.trials / first.trial_time if first.trial_time else None,
        "protocol_bytes_per_pass": first.pass_counts.get("protocol_bytes"),
    }
    if not args.trace:
        report["latency"] = info
    print(json.dumps({"report": report}))
    print(json.dumps({"op_labels": [op.label for op in wl.ops],
                      "output_digests": [d[:16] for d in first.first_digests],
                      "op_latencies_ms_scaled": [[round(1e3 * t, 3) for t in ts]
                                                 for ts in first.by_op]}))
    for name, value in metrics.items():
        print(f"{name:40s} {value:>16.6g} {units[name]}")
    result = {
        "correct": failed == 0 and deterministic and same_digests,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


LAYER_UNITS = {
    "numkit.svd.calls": "count", "numkit.svd.ms": "ms", "numkit.pinv.ms": "ms",
    "numkit.psd_sqrt.ms": "ms",
    "bipartite.state_new.calls": "count", "bipartite.state_new.us": "us",
    "bipartite.state_new.per_trial": "count", "bipartite.schmidt.ms": "ms",
    "bipartite.squared_spectrum.calls": "count",
    "majorize.bistochastic_link.ms": "ms", "majorize.birkhoff.ms": "ms",
    "majorize.birkhoff.terms": "count", "majorize.caratheodory_prune.ms": "ms",
    "majorize.caratheodory_prune.dropped": "count", "majorize.compare.calls": "count",
    "synth.feasibility.ms": "ms", "synth.synthesize.ms": "ms",
    "synth.deterministic_stage.ms": "ms", "synth.final_contraction.ms": "ms",
    "synth.intermediate_vector.ms": "ms", "synth.outcomes": "count",
    "simulate.verify.ms": "ms", "simulate.estimate.us_per_trial": "us",
    "simulate.run_once.us": "us", "simulate.branch_weights.us": "us",
    "simulate.trial_rng.us": "us",
    "cli.encode.ms": "ms", "cli.decode.ms": "ms", "cli.load_state.ms": "ms",
    "cli.startup.ms": "ms",
    **{f"cli.{c}.ms": "ms" for c in CLI_COMMANDS},
    **{f"{m}.self_ms": "ms" for m in MODULE_NAMES},
    "trials_per_s": "1/s", "protocol_bytes": "bytes", "fail_share": "share",
    "trace.overhead": "share", "contract_fail_share": "share",
}


def run_all(args) -> int:
    """Run every workload in its own process and print all metrics in one table."""
    results = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                fail(f"{name} (trace {trace}) exited with {proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            results.setdefault(name, {}).update(json.loads(lines[-1])["metrics"])
            if trace == 0:
                head = json.loads(lines[0])["report"]
                results[name]["correct"] = json.loads(lines[-1])["correct"]
                results[name]["input_digest"] = head["input_digest"][:16]
    names = list(results[WORKLOAD_NAMES[0]])
    print(f"{'metric':40s} {'unit':>6s} " + " ".join(f"{w:>14s}" for w in WORKLOAD_NAMES))
    for metric in names:
        cells = []
        for w in WORKLOAD_NAMES:
            v = results[w][metric]
            cells.append(f"{v['value']:>14.6g}" if isinstance(v, dict) else f"{str(v):>14s}")
        unit = results[WORKLOAD_NAMES[0]][metric]
        unit = unit["unit"] if isinstance(unit, dict) else ""
        print(f"{metric:40s} {unit:>6s} " + " ".join(cells))
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    use_sources()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
