import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from locc_forge.bipartite import from_schmidt
from locc_forge.cli import (
    _tol,
    load_protocol,
    load_state,
    matrix_from_json,
    matrix_to_json,
    protocol_from_dict,
    protocol_to_dict,
    save_state,
)
from locc_forge.simulate import VERIFY_TOL, verify
from locc_forge.synth import synthesize

from helpers import fold_into_m0

BELL = from_schmidt([0.5, 0.5], 2, 2)
SKEW = from_schmidt([0.8, 0.2], 2, 2)


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "locc_forge", *args],
        capture_output=True,
        text=True,
    )
    return proc


@pytest.fixture
def state_files(tmp_path):
    bell_path = tmp_path / "bell.json"
    skew_path = tmp_path / "skew.json"
    save_state(BELL, str(bell_path))
    save_state(SKEW, str(skew_path))
    return str(bell_path), str(skew_path)


def test_matrix_roundtrip_exact():
    rng = np.random.default_rng(71)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    again = matrix_from_json(json.loads(json.dumps(matrix_to_json(m))))
    assert np.array_equal(m, again)


def test_protocol_roundtrip_exact(tmp_path):
    proto = synthesize(SKEW, BELL, 0.4)
    doc = json.loads(json.dumps(protocol_to_dict(proto)))
    again = protocol_from_dict(doc)
    assert np.array_equal(proto.M0, again.M0)
    assert np.array_equal(proto.outcomes[0].M, again.outcomes[0].M)
    assert np.array_equal(proto.stage2.N, again.stage2.N)
    assert proto.p_total == again.p_total
    assert proto.source_digest == again.source_digest


def test_feasibility_exit_codes(state_files, tmp_path):
    bell_path, skew_path = state_files
    proc = run_cli("feasibility", bell_path, skew_path, "--p", "max")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert abs(doc["p_max"] - 1.0) <= 1e-10

    proc = run_cli("feasibility", skew_path, bell_path, "--p", "0.5")
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert abs(doc["p_max"] - 0.4) <= 1e-12

    bad = tmp_path / "trunc.json"
    bad.write_text('{"dims": [2, 2], "matrix": [[[0.7')
    proc = run_cli("feasibility", str(bad), bell_path)
    assert proc.returncode == 2


def test_feasibility_exit_code_on_tiny_schmidt_tails(tmp_path):
    # p_max is 7.9e-6 here, so p = 0.5 is infeasible and synthesize refuses
    # it, although every tail sum differs by less than SUM_TOL.
    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    save_state(from_schmidt([0.6, 0.4 - 1.9e-16, 1.9e-16], 3, 3), str(a_path))
    save_state(from_schmidt([0.7, 0.3 - 2.4e-11, 2.4e-11], 3, 3), str(b_path))
    proc = run_cli("feasibility", str(a_path), str(b_path), "--p", "0.5")
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["super_maj_ok_at_p"] is False
    assert doc["p_max"] < 1e-5


def test_missing_file_exits_2(state_files):
    bell_path, _ = state_files
    proc = run_cli("feasibility", "nope.json", bell_path)
    assert proc.returncode == 2


def test_synthesize_verify_pipeline(state_files, tmp_path):
    bell_path, skew_path = state_files
    proto_path = tmp_path / "proto.json"
    proc = run_cli("synthesize", skew_path, bell_path, "--p", "0.4", "-o", str(proto_path))
    assert proc.returncode == 0

    proc = run_cli("verify", str(proto_path), skew_path, bell_path)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["passed"]
    assert doc["max_residual"] <= 1e-9

    # a protocol round-tripped through the file verifies bit-identically to
    # the dense operators of the in-memory object it was serialized from; the
    # in-memory object itself is checked in its Schmidt frame, whose
    # residuals bound the dense ones
    in_memory_proto = synthesize(load_state(skew_path), load_state(bell_path), 0.4)
    resaved = tmp_path / "resaved.json"
    resaved.write_text(json.dumps(protocol_to_dict(in_memory_proto)))
    loaded = load_protocol(str(resaved))
    dense_proto = dataclasses.replace(in_memory_proto, outcomes=tuple(in_memory_proto.outcomes))
    in_memory = verify(dense_proto, SKEW, BELL)
    reloaded = verify(loaded, SKEW, BELL)
    assert reloaded.max_residual == in_memory.max_residual
    assert reloaded.as_dict() == in_memory.as_dict()
    framed = verify(in_memory_proto, SKEW, BELL)
    assert framed.passed == reloaded.passed
    assert framed.max_residual >= reloaded.max_residual - 1e-14


def test_verify_detects_corruption(state_files, tmp_path):
    bell_path, skew_path = state_files
    proto_path = tmp_path / "proto.json"
    run_cli("synthesize", skew_path, bell_path, "--p", "0.4", "-o", str(proto_path))

    doc = json.loads(proto_path.read_text())
    doc["stage1"]["outcomes"][0]["M"][0][0][0] += 1e-3
    corrupted = tmp_path / "corrupted.json"
    corrupted.write_text(json.dumps(doc))

    proc = run_cli("verify", str(corrupted), skew_path, bell_path)
    assert proc.returncode == 1
    assert not json.loads(proc.stdout)["passed"]


def test_verify_fails_an_outcome_folded_into_m0(state_files, tmp_path):
    bell_path, skew_path = state_files
    proto = synthesize(BELL, SKEW, 1.0)
    path = tmp_path / "folded.json"
    path.write_text(json.dumps(protocol_to_dict(fold_into_m0(proto, 0))))
    proc = run_cli("verify", str(path), bell_path, skew_path)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["completeness_residual"] >= proto.outcomes.q[0] - 1e-12


def test_infeasible_synthesize_exit_code(state_files):
    bell_path, skew_path = state_files
    proc = run_cli("synthesize", skew_path, bell_path, "--p", "0.5")
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["error"]["type"] == "infeasible"
    assert abs(doc["error"]["p_max"] - 0.4) <= 1e-12


def test_simulate_command(state_files, tmp_path):
    bell_path, skew_path = state_files
    proto_path = tmp_path / "proto.json"
    run_cli("synthesize", skew_path, bell_path, "--p", "0.4", "-o", str(proto_path))
    proc = run_cli(
        "simulate", str(proto_path), skew_path, bell_path, "--trials", "2000", "--seed", "42"
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert 0.35 <= doc["p_hat"] <= 0.45
    assert doc["mean_success_fidelity"] >= 1.0 - 1e-9

    again = run_cli(
        "simulate", str(proto_path), skew_path, bell_path, "--trials", "2000", "--seed", "42"
    )
    assert json.loads(again.stdout) == doc


def _strict_json(text):
    """Parse ``text``, refusing the NaN and Infinity that JSON does not have."""
    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


def test_simulate_and_verify_write_non_finite_values_as_null(state_files, tmp_path):
    bell_path, skew_path = state_files
    proto_path = tmp_path / "p0.json"
    run_cli("synthesize", skew_path, bell_path, "--p", "0", "-o", str(proto_path))
    proc = run_cli("simulate", str(proto_path), skew_path, bell_path, "--trials", "100")
    assert proc.returncode == 0
    doc = _strict_json(proc.stdout)
    assert doc["p_hat"] == 0.0
    assert doc["mean_success_fidelity"] is None

    # Every M zero and M0 = I: the intermediate state is 0, so the flow
    # balance (and the largest residual) is inf and the protocol fails.
    doc = json.loads(proto_path.read_text())
    zero, ident = matrix_to_json(np.zeros((2, 2))), matrix_to_json(np.eye(2))
    for out in doc["stage1"]["outcomes"]:
        out["M"] = zero
    doc["stage1"]["M0"] = ident
    zeroed = tmp_path / "zeroed.json"
    zeroed.write_text(json.dumps(doc))
    proc = run_cli("verify", str(zeroed), skew_path, bell_path)
    assert proc.returncode == 1
    report = _strict_json(proc.stdout)
    assert report["substochastic_balance_residual"] is None
    assert report["max_residual"] is None
    assert report["passed"] is False


def test_simulate_negative_seed_exits_2(state_files, tmp_path):
    bell_path, skew_path = state_files
    proto_path = tmp_path / "proto.json"
    run_cli("synthesize", skew_path, bell_path, "--p", "0.4", "-o", str(proto_path))
    proc = run_cli("simulate", str(proto_path), skew_path, bell_path, "--seed", "-1")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["type"] == "invalid-input"
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_unwritable_output_path_exits_2(state_files, tmp_path, where):
    bell_path, skew_path = state_files
    out = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
    proc = run_cli("synthesize", skew_path, bell_path, "-o", str(out))
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["type"] == "invalid-input"
    assert proc.stderr.startswith("error: cannot write")
    assert "Traceback" not in proc.stderr


def test_states_of_other_dimensions_exit_2(state_files, tmp_path):
    bell_path, skew_path = state_files
    proto_path, three = tmp_path / "proto.json", tmp_path / "three.json"
    run_cli("synthesize", skew_path, bell_path, "--p", "0.4", "-o", str(proto_path))
    save_state(from_schmidt([0.5, 0.3, 0.2], 3, 3), str(three))
    for command in ("simulate", "verify"):
        proc = run_cli(command, str(proto_path), str(three), str(three))
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"]["type"] == "invalid-input"
        assert "error: state dimensions do not match" in proc.stderr
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "command, edit",
    [
        ("verify", lambda doc: doc["meta"].update(dims=[2])),
        ("simulate", lambda doc: doc.update(meta=[])),
        ("simulate", lambda doc: doc["stage1"].update(M0=[[[1.0, 0.0]]])),
        ("verify", lambda doc: doc["stage1"].update(M0=[[[1.0, 0.0]]])),
        ("verify", lambda doc: doc["stage1"]["outcomes"][0].update(q=-0.5)),
        ("verify", lambda doc: doc["stage1"]["outcomes"][0].update(q=float("nan"))),
        ("verify", lambda doc: doc["stage1"]["outcomes"][0].update(q=1.5)),
        ("verify", lambda doc: doc["stage2"].update(p=-0.1)),
        ("verify", lambda doc: doc["meta"].update(p_total=float("inf"))),
        ("verify", lambda doc: doc["meta"].update(p_total=0.9)),
        ("simulate", lambda doc: doc["meta"].update(p_total=0.9)),
        ("simulate", lambda doc: doc["stage1"]["outcomes"][0].update(q=-0.5)),
        ("verify", lambda doc: doc["stage1"]["outcomes"][0]["M"][0][0].__setitem__(0, float("nan"))),
        ("verify", lambda doc: doc["stage1"]["outcomes"][0]["M"][0][0].append(7.0)),
        ("verify", lambda doc: doc["stage1"]["outcomes"][0]["M"][0][0].__setitem__(0, 10**400)),
    ],
    ids=["short-dims", "meta-list", "small-M0-simulate", "small-M0-verify",
         "negative-q", "nan-q", "q-above-1", "negative-p", "inf-p_total",
         "p_total-not-stage2", "p_total-not-stage2-simulate",
         "negative-q-simulate", "nan-M-entry", "triple-M-entry", "huge-int-M-entry"],
)
def test_malformed_protocol_exits_2(state_files, tmp_path, command, edit):
    bell_path, skew_path = state_files
    doc = protocol_to_dict(synthesize(SKEW, BELL, 0.4))
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    proc = run_cli(command, str(path), skew_path, bell_path)
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["type"] == "invalid-input"
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_state_dims_must_be_two_positive_ints(state_files, tmp_path):
    bell_path, _ = state_files
    path = tmp_path / "dims.json"
    path.write_text(json.dumps({"dims": 5, "matrix": matrix_to_json(BELL.amp)}))
    proc = run_cli("feasibility", str(path), bell_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_reduce_bob_command(state_files, tmp_path):
    bell_path, _ = state_files
    op_path = tmp_path / "op.json"
    op_path.write_text(json.dumps({"matrix": matrix_to_json(np.eye(2))}))
    proc = run_cli("reduce-bob", str(op_path), bell_path)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["residual"] <= 1e-12


def test_reduce_bob_command_on_rectangular_state(tmp_path):
    state_path, op_path = tmp_path / "wide.json", tmp_path / "op.json"
    save_state(from_schmidt([0.7, 0.3], 2, 3), str(state_path))
    op_path.write_text(json.dumps({"matrix": matrix_to_json(np.diag([1.0, 0.5j, -0.25]))}))
    proc = run_cli("reduce-bob", str(op_path), str(state_path))
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["residual"] <= 1e-12


def test_renormalize_gate(tmp_path):
    amp = np.diag([np.sqrt(0.5), np.sqrt(0.5)]) * (1.0 + 1e-4)
    path = tmp_path / "off.json"
    path.write_text(json.dumps({"dims": [2, 2], "matrix": matrix_to_json(amp)}))
    with pytest.raises(Exception):
        load_state(str(path))
    state = load_state(str(path), renormalize=True)
    assert abs(np.linalg.norm(state.amp) - 1.0) <= 1e-12

    proc = run_cli("feasibility", str(path), str(path))
    assert proc.returncode == 2
    proc = run_cli("feasibility", str(path), str(path), "--renormalize")
    assert proc.returncode == 0


def test_tol_env_override(state_files, tmp_path, monkeypatch):
    bell_path, skew_path = state_files
    proto_path = tmp_path / "proto.json"
    run_cli("synthesize", skew_path, bell_path, "--p", "0.4", "-o", str(proto_path))
    doc = json.loads(proto_path.read_text())
    doc["stage1"]["outcomes"][0]["M"][0][0][0] += 1e-6
    nudged = tmp_path / "nudged.json"
    nudged.write_text(json.dumps(doc))

    proc = subprocess.run(
        [sys.executable, "-m", "locc_forge", "verify", str(nudged), skew_path, bell_path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1

    import os

    env = dict(os.environ, LOCC_FORGE_TOL="1e-3")
    proc = subprocess.run(
        [sys.executable, "-m", "locc_forge", "verify", str(nudged), skew_path, bell_path],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0


def test_default_tolerance_is_verify_tol(monkeypatch):
    monkeypatch.delenv("LOCC_FORGE_TOL", raising=False)
    assert _tol(None) == VERIFY_TOL == verify.__defaults__[0]
    monkeypatch.setenv("LOCC_FORGE_TOL", "1e-3")
    assert _tol(None) == 1e-3
    assert _tol(0.5) == 0.5


@pytest.mark.parametrize(
    "env_tol, args",
    [("abc", ()), ("inf", ()), ("-1e-9", ()), (None, ("--tol", "nan")), (None, ("--tol", "-1"))],
    ids=["env-abc", "env-inf", "env-negative", "flag-nan", "flag-negative"],
)
def test_bad_tolerance_exits_2(state_files, tmp_path, env_tol, args):
    import os

    bell_path, skew_path = state_files
    proto_path = tmp_path / "proto.json"
    proto_path.write_text(json.dumps(protocol_to_dict(synthesize(SKEW, BELL, 0.4))))
    env = dict(os.environ)
    env.pop("LOCC_FORGE_TOL", None)
    if env_tol is not None:
        env["LOCC_FORGE_TOL"] = env_tol
    proc = subprocess.run(
        [sys.executable, "-m", "locc_forge", "verify", str(proto_path), skew_path, bell_path,
         *args],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["type"] == "invalid-input"
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    if env_tol is not None:
        # Only verify reads the tolerance; other subcommands ignore it.
        proc = subprocess.run(
            [sys.executable, "-m", "locc_forge", "feasibility", bell_path, skew_path],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
