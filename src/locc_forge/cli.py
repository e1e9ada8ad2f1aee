"""Command-line front end.

Five subcommands (``feasibility``, ``synthesize``, ``verify``, ``simulate``,
``reduce-bob``) operating on JSON files.  Machine-readable JSON goes to
stdout (or to ``-o PATH``), a one-line human summary goes to stderr.

Exit codes: 0 success/feasible, 1 infeasible or verification failed,
2 malformed input.

States are stored as ``{"dims": [dA, dB], "matrix": [[[re, im], ...], ...]}``
with row-major matrices and complex entries as ``[re, im]`` pairs; protocols
carry the stage-1 outcomes, the completion operator, the optional stage-2
operators and a meta block.  Floats are serialized via ``repr`` and therefore
round-trip exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .bipartite import NORM_ATOL, BipartiteState
from .errors import InfeasibleError, LoccForgeError
from .numkit import opnorm
from .simulate import VERIFY_TOL, estimate, verify
from .synth import (
    LoccProtocol,
    StageOneOutcome,
    StageTwo,
    feasibility,
    reduce_bob,
    synthesize,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_BAD_INPUT = 2


class CliInputError(LoccForgeError):
    """File-level problem: unreadable, unparsable or wrongly shaped input (not a
    ``ValueError``, which ``protocol_from_dict`` would wrap a second time)."""


# ---------------------------------------------------------------------------
# JSON <-> numpy
# ---------------------------------------------------------------------------

def matrix_to_json(m: np.ndarray) -> list:
    a = np.asarray(m, dtype=complex)
    return np.stack((a.real, a.imag), -1).tolist()


def matrix_from_json(obj) -> np.ndarray:
    try:
        a = np.array(obj, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise CliInputError(f"malformed matrix: {exc}") from exc
    if a.ndim != 3 or a.shape[2] != 2:
        raise CliInputError(f"matrix must be rows x cols of [re, im] pairs, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise CliInputError("matrix contains non-finite entries")
    return a.view(complex)[..., 0]


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliInputError(f"{path} is not valid JSON: {exc}") from exc


def _dims(value, where: str) -> tuple[int, int]:
    if not (isinstance(value, (list, tuple)) and len(value) == 2
            and all(type(n) is int and n > 0 for n in value)):
        raise CliInputError(f"{where}: dims must be two positive integers, got {value!r}")
    return value[0], value[1]


def load_state(path: str, renormalize: bool = False) -> BipartiteState:
    doc = _read_json(path)
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise CliInputError(f"{path}: expected an object with a 'matrix' field")
    amp = matrix_from_json(doc["matrix"])
    if "dims" in doc:
        dims = _dims(doc["dims"], path)
        if dims != amp.shape:
            raise CliInputError(f"{path}: dims {dims} do not match matrix shape {amp.shape}")
    norm = float(np.linalg.norm(amp))
    if norm == 0.0:
        raise CliInputError(f"{path}: zero amplitude matrix")
    if abs(norm * norm - 1.0) > NORM_ATOL and not renormalize:
        raise CliInputError(
            f"{path}: state norm^2 = {norm * norm!r} is off by more than {NORM_ATOL:g} "
            "(pass --renormalize to accept)"
        )
    return BipartiteState(amp / norm)


def save_state(state: BipartiteState, path: str) -> None:
    doc = {"dims": list(state.dims), "matrix": matrix_to_json(state.amp)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_operator(path: str) -> np.ndarray:
    doc = _read_json(path)
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise CliInputError(f"{path}: expected an object with a 'matrix' field")
    return matrix_from_json(doc["matrix"])


def protocol_to_dict(protocol: LoccProtocol) -> dict:
    stage2 = None
    if protocol.stage2 is not None:
        s2 = protocol.stage2
        stage2 = {
            "p": s2.p,
            "N": matrix_to_json(s2.N),
            "V": matrix_to_json(s2.V),
            "N_fail": matrix_to_json(s2.N_fail),
        }
    s1 = protocol.outcomes
    return {
        "stage1": {
            "outcomes": [{"q": q, "M": m, "U": u} for q, m, u in zip(
                s1.q.tolist(), matrix_to_json(s1.M), matrix_to_json(s1.U))],
            "M0": matrix_to_json(protocol.M0),
        },
        "stage2": stage2,
        "meta": {
            "p_total": protocol.p_total,
            "dims": list(protocol.dims),
            "tool_version": __version__,
            "source_digest": protocol.source_digest,
            "target_digest": protocol.target_digest,
        },
    }


def protocol_from_dict(doc: dict) -> LoccProtocol:
    """The protocol of a file's document; ``LoccProtocol`` checks its shapes and weights."""
    try:
        stage1 = doc["stage1"]
        meta = doc.get("meta", {})
        if not isinstance(meta, dict):
            raise CliInputError("malformed protocol file: meta must be an object")
        m0 = matrix_from_json(stage1["M0"])
        da, db = _dims(meta.get("dims", m0.shape), "malformed protocol file")
        outcomes = tuple(
            StageOneOutcome(q=float(o["q"]), M=matrix_from_json(o["M"]), U=matrix_from_json(o["U"]))
            for o in stage1["outcomes"]
        )
        s2 = doc.get("stage2")
        stage2 = None if s2 is None else StageTwo(
            float(s2["p"]), *(matrix_from_json(s2[name]) for name in ("N", "V", "N_fail"))
        )
        return LoccProtocol(
            outcomes=outcomes,
            M0=m0,
            stage2=stage2,
            dims=(da, db),
            p_total=float(meta.get("p_total", 1.0 if stage2 is None else stage2.p)),
            source_digest=meta.get("source_digest"),
            target_digest=meta.get("target_digest"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CliInputError(f"malformed protocol file: {exc}") from exc


def load_protocol(path: str) -> LoccProtocol:
    return protocol_from_dict(_read_json(path))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _finite_or_null(payload: dict) -> dict:
    """``payload`` with each non-finite float, at the top or in a list, as None (JSON null)."""
    def fix(v):
        return None if isinstance(v, float) and not math.isfinite(v) else v
    return {k: [*map(fix, v)] if isinstance(v, list) else fix(v) for k, v in payload.items()}


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, allow_nan=False)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise CliInputError(f"cannot write {out_path}: {exc}") from exc
    else:
        print(text)


def _parse_p(raw: str):
    if raw == "max":
        return "max"
    try:
        return float(raw)
    except ValueError as exc:
        raise CliInputError(f"--p expects a float or 'max', got {raw!r}") from exc


def cmd_feasibility(args) -> int:
    a = load_state(args.source, args.renormalize)
    b = load_state(args.target, args.renormalize)
    p = _parse_p(args.p)
    report = feasibility(a, b, p)
    _emit(report.as_dict(), args.output)
    feasible = report.super_maj_ok_at_p and (
        report.p_max > 0.0 if p == "max" else True
    )
    print(
        f"p_max = {report.p_max:.6g}, deterministic: "
        f"{'yes' if report.deterministic_ok else 'no'}, feasible at requested p: "
        f"{'yes' if feasible else 'no'}",
        file=sys.stderr,
    )
    return EXIT_OK if feasible else EXIT_INFEASIBLE


def cmd_synthesize(args) -> int:
    a = load_state(args.source, args.renormalize)
    b = load_state(args.target, args.renormalize)
    p = _parse_p(args.p)
    protocol = synthesize(a, b, p)
    _emit(protocol_to_dict(protocol), args.output)
    stage2 = "none" if protocol.stage2 is None else f"p = {protocol.stage2.p:.6g}"
    print(
        f"{len(protocol.outcomes)} stage-1 outcome(s), stage 2: {stage2}, "
        f"total success probability {protocol.p_total:.6g}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    tol = _tol(args.tol)
    protocol = load_protocol(args.protocol)
    a = load_state(args.source, args.renormalize)
    b = load_state(args.target, args.renormalize)
    for digest, state, name in (
        (protocol.source_digest, a, "source"),
        (protocol.target_digest, b, "target"),
    ):
        if digest and digest != state.digest:
            print(f"note: {name} state digest differs from the protocol meta", file=sys.stderr)
    report = verify(protocol, a, b, tol=tol)
    _emit(_finite_or_null(report.as_dict()), args.output)
    print(
        f"max residual {report.max_residual:.3e} vs tol {tol:.3e}: "
        f"{'PASS' if report.passed else 'FAIL'}",
        file=sys.stderr,
    )
    return EXIT_OK if report.passed else EXIT_INFEASIBLE


def cmd_simulate(args) -> int:
    protocol = load_protocol(args.protocol)
    a = load_state(args.source, args.renormalize)
    b = load_state(args.target, args.renormalize)
    result = estimate(protocol, a, b, trials=args.trials, seed=args.seed)
    payload = {
        "p_hat": result.p_hat,
        "mean_success_fidelity": result.mean_success_fidelity,
        "stderr": result.stderr,
        "trials": args.trials,
        "seed": args.seed,
    }
    _emit(_finite_or_null(payload), args.output)
    print(
        f"p_hat = {result.p_hat:.4f} +/- {result.stderr:.4f} "
        f"({args.trials} trials, seed {args.seed}), "
        f"mean success fidelity {result.mean_success_fidelity:.6f}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_reduce_bob(args) -> int:
    m = load_operator(args.operator)
    psi = load_state(args.state, args.renormalize)
    n, u = reduce_bob(m, psi)
    residual = opnorm(psi.amp @ m.T - n @ psi.amp @ u.T)
    _emit({"N": matrix_to_json(n), "U": matrix_to_json(u), "residual": residual}, args.output)
    print(f"identity residual {residual:.3e}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _tol(flag: float | None) -> float:
    """``--tol`` if given, else ``LOCC_FORGE_TOL``, else ``VERIFY_TOL``; finite and non-negative."""
    raw = os.environ.get("LOCC_FORGE_TOL", VERIFY_TOL) if flag is None else flag
    try:
        tol = float(raw)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol >= 0.0):
        source = "LOCC_FORGE_TOL" if flag is None else "--tol"
        raise CliInputError(f"{source} must be a finite, non-negative float, got {raw!r}")
    return tol


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("-o", "--output", help="write the JSON report here instead of stdout")
    p.add_argument(
        "--renormalize",
        action="store_true",
        help="accept state files whose norm is off and rescale them",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locc-forge",
        description=(
            "Decide, synthesize, verify and simulate LOCC transformations "
            "between bipartite pure states."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("feasibility", help="majorization feasibility report for A -> B")
    p.add_argument("source", help="source state JSON file")
    p.add_argument("target", help="target state JSON file")
    p.add_argument("--p", default="max", help="success probability, a float or 'max'")
    _add_common(p)
    p.set_defaults(func=cmd_feasibility)

    p = sub.add_parser("synthesize", help="build the explicit protocol for A -> B")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--p", default="max", help="success probability, a float or 'max'")
    _add_common(p)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("verify", help="check all identities of a protocol file")
    p.add_argument("protocol", help="protocol JSON file")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument(
        "--tol",
        type=float,
        help=f"residual tolerance (default {VERIFY_TOL:g}, or LOCC_FORGE_TOL)",
    )
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="Monte Carlo run of a protocol file")
    p.add_argument("protocol")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "reduce-bob",
        help="rewrite a Bob-side contraction as an Alice contraction plus Bob unitary",
    )
    p.add_argument("operator", help="operator JSON file ({'matrix': ...})")
    p.add_argument("state", help="square bipartite state JSON file")
    _add_common(p)
    p.set_defaults(func=cmd_reduce_bob)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleError as exc:
        payload = {"error": {"type": "infeasible", "message": str(exc)}}
        if exc.p_max is not None:
            payload["error"]["p_max"] = exc.p_max
        print(json.dumps(payload))
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except LoccForgeError as exc:
        print(json.dumps({"error": {"type": "invalid-input", "message": str(exc)}}))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
