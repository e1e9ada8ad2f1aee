"""The four benchmark workloads: seeded inputs, one operation each, its gate.

Every workload turns ``--seed`` into a fixed list of operations (one
*pass*).  The timed phase runs whole passes, in order, until its time is
up, so every run covers the same mix of sizes and kinds and the counts per
pass repeat exactly.  The package only ever sees the generated states,
probabilities and trial counts.

Why these workloads:

* ``synth-large``: feasibility -> synthesize -> verify on dense spectra at
  d = 16..40.  Birkhoff extraction and ``verify`` do most of the work; the
  CLI and ``estimate`` do none.
* ``edge-small``: the same operation on many d = 2..8 pairs with sparse
  Dirichlet(0.1) spectra floored at about 1e-3, ties, rank drops, dB > dA
  and p_max = 0 pairs (on those, synthesize must refuse p > 0).  Per-call
  validation and small SVDs dominate.  Every operation succeeds on these
  inputs; the same pairs without the floor, which break the synthesize =>
  verify contract, are measured by ``contract_fail_share``.
* ``simulate``: one ``estimate`` call per operation on protocols built in
  set-up at d = 2..16, trial counts chosen so every size takes a similar
  share of the time.  ``run_once`` and ``trial_rng`` dominate; majorization
  is absent.
* ``cli-files``: one ``python -m locc_forge`` subprocess per operation on
  state files at d = 4..24, writing protocol JSON and reading it back.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

import locc_forge as lf

import gate

# Share of p_max requested by the "prob-frac" kind.
FRACTION = 0.5
# The CLI reports of reduce-bob carry the residual of the identity it builds.
IDENTITY_TOL = 1e-9


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def make_state(spec, da: int, db: int, rng: np.random.Generator):
    """State in random local bases whose squared Schmidt coefficients are ``spec``."""
    core = np.zeros((da, db), dtype=complex)
    k = len(spec)
    core[np.arange(k), np.arange(k)] = np.sqrt(spec)
    return lf.BipartiteState(haar_unitary(da, rng) @ core @ haar_unitary(db, rng))


def dims(d: int, shape: str) -> tuple[int, int]:
    return {"sq": (d, d), "wide": (d, d + 3), "tall": (d + 3, d)}[shape]


def sorted_desc(x) -> np.ndarray:
    return np.sort(np.asarray(x, dtype=float))[::-1]


def majorized_by(b: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A spectrum majorized by ``b``: a random mix of three permutations of it."""
    w = rng.dirichlet(np.ones(3))
    return sorted_desc(sum(wk * b[rng.permutation(len(b))] for wk in w))


def reference_pmax(a, b) -> float:
    """Tail-ratio maximum probability, computed here from the spectra."""
    ta = np.cumsum(sorted_desc(a)[::-1])[::-1]
    tb = np.cumsum(sorted_desc(b)[::-1])[::-1]
    ratios = [x / y for x, y in zip(ta, tb) if y > 0]
    return float(min(1.0, *ratios))


def dense_pair(d: int, kind: str, rng: np.random.Generator):
    """Dirichlet(1) spectra; ``det`` pairs have a majorized by b."""
    b = sorted_desc(rng.dirichlet(np.ones(d)))
    a = majorized_by(b, rng) if kind == "det" else sorted_desc(rng.dirichlet(np.ones(d)))
    return a, b


def pair_states(a, b, d: int, shape: str, rng: np.random.Generator):
    da, db = dims(d, shape)
    return make_state(a, da, db, rng), make_state(b, da, db, rng)


def request_of(kind: str) -> float | None:
    """Share of p_max to request, or None for ``"max"``."""
    return FRACTION if kind == "prob-frac" else None


# ---------------------------------------------------------------------------
# library operation: feasibility -> synthesize -> verify
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairOp:
    label: str
    a: object
    b: object
    fraction: float | None
    # p_max = 0 by construction: synthesize must refuse every p > 0.
    infeasible: bool = False


class PairWorkload:
    """Shared operation of ``synth-large`` and ``edge-small``."""

    ops: list

    def input_parts(self) -> list:
        return [x for op in self.ops for x in (op.label, op.fraction, op.a.amp, op.b.amp)]

    def run(self, op: PairOp, spans_path=None):
        report = lf.feasibility(op.a, op.b, "max")
        if op.infeasible:
            try:
                protocol = lf.synthesize(op.a, op.b, FRACTION)
            except lf.InfeasibleError as exc:
                return report.p_max, FRACTION, None, exc
            return report.p_max, FRACTION, protocol, None
        p = "max" if op.fraction is None else op.fraction * report.p_max
        protocol = lf.synthesize(op.a, op.b, p)
        return report.p_max, p, protocol, lf.verify(protocol, op.a, op.b)

    def check(self, op: PairOp, out):
        p_max, p, protocol, report = out
        if op.infeasible:
            reasons = gate.infeasible_reasons(p_max, protocol, report)
            return reasons, gate.digest_of(repr(p_max), repr(report)), {}
        reasons = gate.protocol_reasons(protocol, report, p_max if p == "max" else p)
        digest = gate.digest_of(repr(p_max), gate.protocol_digest(protocol))
        return reasons, digest, {}


class SynthLarge(PairWorkload):
    name = "synth-large"
    # One pass, cheapest first.  Deterministic and "max" pairs, whose
    # outcome count varies with the draw, sit at d <= 20; the dearer sizes
    # are "prob-frac" pairs, whose outcome count is d(d-1)/2 + 1 for every
    # draw, so the pass costs about the same for every seed.  The median
    # falls in the block of three d = 28 pairs and the tail in the block of
    # three d = 32 pairs for any 3 to 10 passes per run.
    SCHEDULE = (
        (16, "sq", "det"),
        (16, "wide", "prob-max"),
        (20, "tall", "det"),
        (20, "sq", "prob-max"),
        (28, "sq", "prob-frac"),
        (28, "wide", "prob-frac"),
        (28, "tall", "prob-frac"),
        (32, "sq", "prob-frac"),
        (32, "wide", "prob-frac"),
        (32, "tall", "prob-frac"),
        (40, "sq", "prob-frac"),
    )

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 1])
        self.ops = []
        for d, shape, kind in self.SCHEDULE:
            a, b = dense_pair(d, kind, rng)
            sa, sb = pair_states(a, b, d, shape, rng)
            self.ops.append(PairOp(f"d{d}-{shape}-{kind}", sa, sb, request_of(kind)))


class EdgeSmall(PairWorkload):
    name = "edge-small"
    PAIRS = 420
    # Least squared Schmidt coefficient of the sparse spectra, about.  Without
    # it, Dirichlet(0.1) draws coefficients down to 1e-300, and synthesize
    # returns protocols that verify rejects (see ROADMAP.md), so the
    # timed operations keep it; contract_fail_share measures the pairs
    # without it.
    FLOOR = 1e-3

    def spectra(self, variant: int, d: int, rng: np.random.Generator):
        def sparse(n):
            # A random floor per coefficient, so that no two tails tie.
            x = rng.dirichlet(0.1 * np.ones(n)) + self.floor * rng.uniform(1.0, 2.0, n)
            return sorted_desc(x / x.sum())
        if variant == 3:  # ties and rank drops: integer weights 0..2
            def tied():
                w = rng.integers(0, 3, d).astype(float)
                w[0] += w.sum() == 0
                return sorted_desc(w / w.sum())
            return tied(), tied()
        if variant == 4:  # source of lower rank: p_max = 0
            r = int(rng.integers(1, d)) if d > 1 else 1
            return np.concatenate([sparse(r), np.zeros(d - r)]), sparse(d)
        if variant == 5:  # deterministic pair
            b = sparse(d)
            return majorized_by(b, rng), b
        return sparse(d), sparse(d)

    def __init__(self, seed: int, workdir: str | None, floor: float = FLOOR):
        rng = np.random.default_rng([seed, 2])
        self.floor = floor
        self.ops = []
        for i in range(self.PAIRS):
            d = 2 + i % 7  # sizes cycle so every seed has the same size mix
            variant = i % 6
            a, b = self.spectra(variant, d, rng)
            da, db = (d, d + int(rng.integers(1, 4))) if i % 3 == 2 else (d, d)
            sa, sb = make_state(a, da, db, rng), make_state(b, da, db, rng)
            fraction = FRACTION if (i // 6) % 2 else None
            self.ops.append(PairOp(f"d{d}-{da}x{db}-v{variant}", sa, sb, fraction,
                                   reference_pmax(a, b) == 0.0))


def contract_fail_share(seed: int, run_op) -> float:
    """Share of edge-small's pairs, without the floor, that break the contract.

    This is the reproducer of the broken contract in ROADMAP.md, on this
    seed's pairs: every pair, those with p_max = 0 too, goes through
    feasibility -> synthesize -> verify, and a failure is a protocol that
    verify rejects, a p_total other than the requested p, or an exception.
    It is reported, not gated, and is not part of the timed operations.
    """
    wl = EdgeSmall(seed, None, floor=0.0)
    ops = [dataclasses.replace(op, infeasible=False) for op in wl.ops]
    return sum(1 for op in ops if run_op(wl, op)[1]) / len(ops)


# ---------------------------------------------------------------------------
# simulate: one estimate call per operation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EstimateOp:
    label: str
    a: object
    b: object
    protocol: object
    trials: int
    seed: int
    setup_reasons: tuple = ()


class Simulate:
    name = "simulate"
    # (d, shape, kind, trials): trial counts shrink as the outcome count
    # grows so that every size takes a similar share of the time.
    SCHEDULE = (
        (2, "sq", "prob-max", 900),
        (3, "wide", "det", 800),
        (4, "sq", "prob-frac", 700),
        (6, "tall", "det", 500),
        (8, "sq", "prob-frac", 300),
        (10, "wide", "prob-frac", 200),
        (12, "sq", "prob-frac", 150),
        (14, "tall", "prob-frac", 110),
        (16, "sq", "prob-frac", 80),
    )
    # Probabilistic pairs are drawn until p_max lies in this range, so the
    # 5-sigma window on p_hat is meaningful at these trial counts.
    PMAX_RANGE = (0.2, 0.95)

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 3])
        self.ops = []
        for i, (d, shape, kind, trials) in enumerate(self.SCHEDULE):
            while True:
                a, b = dense_pair(d, kind, rng)
                lo, hi = self.PMAX_RANGE
                if kind == "det" or lo <= reference_pmax(a, b) <= hi:
                    break
            sa, sb = pair_states(a, b, d, shape, rng)
            fraction = request_of(kind)
            p_max = lf.feasibility(sa, sb, "max").p_max
            p = "max" if fraction is None else fraction * p_max
            protocol = lf.synthesize(sa, sb, p)
            reasons = gate.protocol_reasons(
                protocol, lf.verify(protocol, sa, sb), p_max if p == "max" else p
            )
            self.ops.append(EstimateOp(f"d{d}-{shape}-{kind}", sa, sb, protocol, trials,
                                       seed * 1000 + i, tuple(reasons)))

    def input_parts(self) -> list:
        return [x for op in self.ops for x in (op.label, op.trials, op.seed, op.a.amp, op.b.amp)]

    def run(self, op: EstimateOp, spans_path=None):
        return lf.estimate(op.protocol, op.a, op.b, trials=op.trials, seed=op.seed)

    def check(self, op: EstimateOp, res):
        reasons = list(op.setup_reasons) + gate.estimate_reasons(
            res.p_hat, res.mean_success_fidelity, op.protocol.p_total, op.trials
        )
        digest = gate.digest_of([repr(x) for x in res], gate.protocol_digest(op.protocol))
        return reasons, digest, {"trials": op.trials}


# ---------------------------------------------------------------------------
# cli-files: one subprocess per operation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CliOp:
    label: str
    command: str
    argv: tuple
    expect: dict


def _matrix_json(m) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def write_state(state, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"dims": list(state.dims), "matrix": _matrix_json(state.amp)}, fh)


class CliFiles:
    name = "cli-files"
    # (d, shape, kind, simulate trials or 0 for no protocol, reduce-bob?)
    SCHEDULE = (
        (4, "sq", "det", 400, True),
        (8, "wide", "prob-max", 300, False),
        (12, "sq", "prob-frac", 200, True),
        (16, "tall", "prob-frac", 100, False),
        (24, "sq", "prob-max", 0, True),
    )

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 4])
        self.ops = []
        self.amps = []
        for i, (d, shape, kind, trials, reduce) in enumerate(self.SCHEDULE):
            a, b = dense_pair(d, kind, rng)
            sa, sb = pair_states(a, b, d, shape, rng)
            files = {k: os.path.join(workdir, f"{k}{i}.json") for k in "ABPO"}
            write_state(sa, files["A"])
            write_state(sb, files["B"])
            self.amps += [sa.amp, sb.amp]
            p_max = lf.max_probability(sa, sb)
            label = f"d{d}-{shape}-{kind}"
            pair = (files["A"], files["B"])
            self.ops.append(CliOp(label + ":feasibility", "feasibility",
                                  ("feasibility", *pair, "--p", "max"), {"p_max": p_max}))
            if trials:
                fraction = request_of(kind)
                p_arg = "max" if fraction is None else repr(float(fraction * p_max))
                p_total = p_max if fraction is None else float(p_arg)
                self.ops += [
                    CliOp(label + ":synthesize", "synthesize",
                          ("synthesize", *pair, "--p", p_arg, "-o", files["P"]),
                          {"p_total": p_total, "path": files["P"]}),
                    CliOp(label + ":verify", "verify", ("verify", files["P"], *pair), {}),
                    CliOp(label + ":simulate", "simulate",
                          ("simulate", files["P"], *pair, "--trials", str(trials),
                           "--seed", str(seed * 1000 + i)),
                          {"p_total": p_total, "trials": trials}),
                ]
            if reduce:
                g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                contraction = 0.7 * g / np.linalg.norm(g, 2)
                self.amps.append(contraction)
                with open(files["O"], "w", encoding="utf-8") as fh:
                    json.dump({"matrix": _matrix_json(contraction)}, fh)
                self.ops.append(CliOp(label + ":reduce-bob", "reduce-bob",
                                      ("reduce-bob", files["O"], files["A"]), {}))

    def input_parts(self) -> list:
        # Paths differ between checkouts, so only names and values enter.
        return [[op.label, op.command, [os.path.basename(x) for x in op.argv]]
                for op in self.ops] + self.amps

    def command(self, op: CliOp, spans_path: str | None) -> list[str]:
        if spans_path is None:
            return [sys.executable, "-m", "locc_forge", *op.argv]
        child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")
        return [sys.executable, child, spans_path, *op.argv]

    def run(self, op: CliOp, spans_path: str | None = None):
        if op.command == "synthesize" and os.path.exists(op.expect["path"]):
            os.remove(op.expect["path"])  # the gate must read this run's file
        proc = subprocess.run(self.command(op, spans_path), capture_output=True, timeout=120)
        return proc.returncode, proc.stdout

    def check(self, op: CliOp, out):
        code, stdout = out
        counts = {}
        expected_code = 0
        if op.command == "feasibility" and op.expect["p_max"] == 0.0:
            expected_code = 1
        reasons = [] if code == expected_code else [
            f"{op.command} exited with {code}, expected {expected_code}"]
        try:
            if op.command == "synthesize":
                with open(op.expect["path"], "rb") as fh:
                    body = fh.read()
                counts["protocol_bytes"] = len(body)
                meta = json.loads(body)["meta"]
                if abs(meta["p_total"] - op.expect["p_total"]) > gate.P_ATOL:
                    reasons.append(f"protocol p_total {meta['p_total']!r} differs from "
                                   f"requested {op.expect['p_total']!r}")
                return reasons, gate.digest_of(code, body), counts
            report = json.loads(stdout)
            if op.command == "feasibility":
                if abs(report["p_max"] - op.expect["p_max"]) > gate.P_ATOL:
                    reasons.append(f"CLI p_max {report['p_max']!r} differs from the library's "
                                   f"{op.expect['p_max']!r}")
            elif op.command == "verify":
                if report["passed"] is not True or report["tol"] != 1e-9:
                    reasons.append(f"verify report passed={report['passed']} "
                                   f"tol={report['tol']} max_residual={report['max_residual']}")
            elif op.command == "simulate":
                counts["trials"] = op.expect["trials"]
                reasons += gate.estimate_reasons(report["p_hat"], report["mean_success_fidelity"],
                                                 op.expect["p_total"], report["trials"])
            elif op.command == "reduce-bob":
                if not report["residual"] <= IDENTITY_TOL or not {"N", "U"} <= report.keys():
                    reasons.append(f"reduce-bob residual {report['residual']!r}")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            reasons.append(f"malformed {op.command} output: {type(exc).__name__}: {exc}")
        return reasons, gate.digest_of(code, stdout), counts


WORKLOADS = {w.name: w for w in (SynthLarge, EdgeSmall, Simulate, CliFiles)}
