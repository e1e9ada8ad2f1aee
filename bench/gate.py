"""Correctness gate applied to every benchmark operation, and output digests.

A gate function returns the list of reasons an operation failed; an empty
list means it passed.  Nothing here loosens the package's own checks:
``verify`` is always called without a ``tol`` argument, so it applies its
default of 1e-9.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

# A protocol's p_total must equal the requested (or maximal) p this closely.
P_ATOL = 1e-12
# A successful trial must end on the target state this closely.
FIDELITY_ATOL = 1e-9
# Monte Carlo window, in standard errors of the estimator at the exact p.
ESTIMATE_SIGMAS = 5.0


def protocol_reasons(protocol, report, p_expected: float) -> list[str]:
    """A synthesized protocol must pass ``verify`` and deliver the asked p."""
    reasons = []
    if not report.passed:
        reasons.append(f"verify rejected the protocol (max residual {report.max_residual:.3e})")
    if abs(protocol.p_total - p_expected) > P_ATOL:
        reasons.append(f"p_total {protocol.p_total!r} differs from requested {p_expected!r}")
    return reasons


def infeasible_reasons(p_max: float, protocol, error) -> list[str]:
    """A pair with p_max = 0: reported as such, and synthesize raises InfeasibleError."""
    reasons = []
    if p_max != 0.0:
        reasons.append(f"p_max {p_max!r} reported for a pair whose p_max is 0")
    if protocol is not None or error is None:
        reasons.append("synthesize returned a protocol for an infeasible request")
    return reasons


def estimate_window(p_total: float, trials: int) -> float:
    """Half-width of the accepted p_hat window around the exact p_total."""
    return ESTIMATE_SIGMAS * math.sqrt(max(p_total * (1.0 - p_total), 0.0) / trials)


def estimate_reasons(p_hat: float, fidelity: float, p_total: float, trials: int) -> list[str]:
    """``p_hat`` within 5 standard errors of ``p_total``; successes hit the target."""
    reasons = []
    if not abs(p_hat - p_total) <= estimate_window(p_total, trials):
        reasons.append(f"p_hat {p_hat!r} outside 5 stderr of p_total {p_total!r} ({trials} trials)")
    if p_hat > 0.0 and not fidelity >= 1.0 - FIDELITY_ATOL:
        reasons.append(f"mean success fidelity {fidelity!r} below 1 - {FIDELITY_ATOL}")
    return reasons


def _update_array(h, a) -> None:
    a = np.ascontiguousarray(a)
    h.update(repr((a.dtype.str, a.shape)).encode())
    h.update(a.tobytes())


def protocol_digest(protocol) -> str:
    """SHA-256 over every operator's bytes, the weights and p_total."""
    h = hashlib.sha256()
    for out in protocol.outcomes:
        h.update(np.float64(out.q).tobytes())
        _update_array(h, out.M)
        _update_array(h, out.U)
    _update_array(h, protocol.M0)
    s2 = protocol.stage2
    if s2 is not None:
        h.update(np.float64(s2.p).tobytes())
        for op in (s2.N, s2.V, s2.N_fail):
            _update_array(h, op)
    h.update(np.float64(protocol.p_total).tobytes())
    return h.hexdigest()


def digest_of(*parts) -> str:
    """SHA-256 of a sequence of arrays, bytes and JSON-able values."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            _update_array(h, part)
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()
