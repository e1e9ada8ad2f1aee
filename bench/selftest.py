#!/usr/bin/env python3
"""Self-test of the benchmark: python3 bench/selftest.py (from the repo root).

Runs every workload on a cut-down schedule, traced and untraced, and checks
that:

* the result line has the contract's keys and every metric BENCHMARK.json
  names, each with its unit, the named metrics are printed by name, and
  every operation passed the gate;
* the same seed gives the same input digest, a different seed a different
  one, and the traced run reproduces the untraced output digests;
* the correctness gate counts deliberately corrupted output as a failure:
  a protocol with one perturbed operator, a Monte Carlo estimate off by
  more than five standard errors, a corrupted protocol file given to the
  ``verify`` command, and a protocol returned or p_max > 0 reported for a
  pair whose p_max is 0;
* without the package sources next to it the benchmark exits non-zero and
  prints no result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys

import run  # pins BLAS threads before numpy loads

run.use_sources()

import numpy as np

import locc_forge as lf

import gate
import workloads

SEED = 7
CHECKS: list[tuple[str, bool]] = []


def check(name: str, ok: bool) -> None:
    CHECKS.append((name, bool(ok)))
    print(f"{'ok  ' if ok else 'FAIL'} {name}")


def shrink() -> None:
    """Cut every workload down to a few operations."""
    workloads.SynthLarge.SCHEDULE = workloads.SynthLarge.SCHEDULE[:2]
    workloads.EdgeSmall.PAIRS = 12
    workloads.Simulate.SCHEDULE = tuple((d, s, k, 50) for d, s, k, _ in
                                        workloads.Simulate.SCHEDULE[:3])
    workloads.CliFiles.SCHEDULE = workloads.CliFiles.SCHEDULE[:2]


def run_bench(name: str, seed: int, trace: int) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", str(seed), "--seconds", "0.01",
                         "--trace", str(trace)])
    check(f"{name} trace {trace}: exit code 0", code == 0)
    return out.getvalue().strip().splitlines()


def check_output(name: str, lines: list[str], spec: list[dict], trace: int) -> None:
    result = json.loads(lines[-1])
    check(f"{name} trace {trace}: result keys",
          set(result) == {"correct", "attempted", "failed", "metrics"}
          and result["attempted"] >= 1 and isinstance(result["failed"], int))
    check(f"{name} trace {trace}: every operation correct",
          result["correct"] is True and result["failed"] == 0)
    expected = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(f"{name} trace {trace}: every metric with its unit", got == expected)
    printed = {line.split()[0]: line.split()[-1] for line in lines[2:-1]}
    check(f"{name} trace {trace}: every metric printed by name and unit",
          all(printed.get(k) == u for k, u in expected.items()))
    if name == "edge-small" and trace == 0:
        report = json.loads(lines[0])["report"]
        check("edge-small: fail_share reported", "fail_share" in report)


def check_workloads() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check("BENCHMARK.json names the four workloads",
          [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES))
    for name in run.WORKLOAD_NAMES:
        plain = run_bench(name, SEED, 0)
        traced = run_bench(name, SEED, 1)
        check_output(name, plain, spec["end_to_end"], 0)
        check_output(name, traced, spec["per_layer"], 1)
        head0, head1 = (json.loads(x[0])["report"] for x in (plain, traced))
        check(f"{name}: same seed, same input digest",
              head0["input_digest"] == head1["input_digest"])
        check(f"{name}: traced outputs equal untraced outputs",
              head1["traced_digests_match"] and head0["output_digest"] == head1["output_digest"])
        workdir = os.path.join(run.ROOT, ".bench_out", "selftest-inputs")
        os.makedirs(workdir, exist_ok=True)
        try:
            digests = [gate.digest_of(*workloads.WORKLOADS[name](s, workdir).input_parts())
                       for s in (SEED, SEED, SEED + 1)]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        check(f"{name}: input digest repeats for a seed and changes with it",
              digests[0] == digests[1] != digests[2])


def check_gate() -> None:
    rng = np.random.default_rng(0)
    a, b = workloads.dense_pair(3, "prob-max", rng)
    sa, sb = workloads.pair_states(a, b, 3, "sq", rng)
    op = workloads.PairOp("gate", sa, sb, None)
    p_max, p, protocol, report = workloads.PairWorkload().run(op)
    reasons, _, _ = workloads.PairWorkload().check(op, (p_max, p, protocol, report))
    check("gate passes the synthesized protocol", reasons == [])

    first = protocol.outcomes[0]
    bad = dataclasses.replace(
        protocol,
        outcomes=(dataclasses.replace(first, M=first.M * 1.001),) + protocol.outcomes[1:],
    )
    bad_out = (p_max, p, bad, lf.verify(bad, sa, sb))
    reasons, _, _ = workloads.PairWorkload().check(op, bad_out)
    check("gate fails a protocol with one perturbed operator", reasons != [])
    reasons = gate.protocol_reasons(protocol, report, p_max * 0.5)
    check("gate fails a protocol whose p_total is not the requested p", reasons != [])

    a0, b0 = np.array([0.6, 0.4, 0.0]), np.array([0.5, 0.3, 0.2])
    op0 = workloads.PairOp("gate-infeasible", workloads.make_state(a0, 3, 3, rng),
                           workloads.make_state(b0, 3, 3, rng), None, True)
    out0 = workloads.PairWorkload().run(op0)
    check("gate passes a p_max = 0 pair that synthesize refuses",
          workloads.PairWorkload().check(op0, out0)[0] == [])
    reasons, _, _ = workloads.PairWorkload().check(op0, (0.0, p, protocol, None))
    check("gate fails a protocol returned for a p_max = 0 pair", reasons != [])
    reasons, _, _ = workloads.PairWorkload().check(op0, (0.25,) + out0[1:])
    check("gate fails a p_max = 0 pair reported with p_max > 0", reasons != [])

    trials = 400
    window = gate.estimate_window(protocol.p_total, trials)
    check("gate passes an estimate at p_total",
          gate.estimate_reasons(protocol.p_total, 1.0, protocol.p_total, trials) == [])
    off = protocol.p_total + 1.01 * window
    off = off if off <= 1.0 else protocol.p_total - 1.01 * window
    check("gate fails an estimate beyond five standard errors",
          gate.estimate_reasons(off, 1.0, protocol.p_total, trials) != [])

    workdir = os.path.join(run.ROOT, ".bench_out", "selftest-cli")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.CliFiles(SEED, workdir)
        synth, verify = (next(o for o in wl.ops if o.command == c)
                         for c in ("synthesize", "verify"))
        reasons, _, _ = wl.check(synth, wl.run(synth))
        check("gate passes the CLI-written protocol", reasons == [])
        with open(synth.expect["path"], encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["stage1"]["outcomes"][0]["M"][0][0][0] += 1e-3
        with open(synth.expect["path"], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        reasons, _, _ = wl.check(verify, wl.run(verify))
        check("gate fails the verify command on a corrupted protocol file", reasons != [])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_bare_directory() -> None:
    """Only BENCHMARK.json and bench/: the benchmark must refuse to run."""
    bare = os.path.join(run.ROOT, ".bench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "edge-small",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check("without the sources: non-zero exit and no result",
          proc.returncode != 0 and '"correct"' not in proc.stdout)


def main() -> int:
    check_gate()
    check_bare_directory()
    shrink()
    check_workloads()
    failed = [name for name, ok in CHECKS if not ok]
    print(f"{len(CHECKS) - len(failed)} of {len(CHECKS)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
