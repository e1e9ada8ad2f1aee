"""In-memory span tracer that wraps locc_forge's public functions from outside.

The tracer never edits the package.  ``install`` replaces each traced
function at every module attribute that refers to it, which is where its
callers look it up: ``synth`` imports ``pinv`` and ``svd`` by name,
``majorize.birkhoff`` is looked up on the module, ``cli`` imports
``synthesize`` by name.  ``BipartiteState`` construction is traced by
wrapping the class's ``__init__``, and the JSON encoder/decoder that ``cli``
uses is traced through a stand-in for its ``json`` module.

Each span records its name, start, end, parent span and the benchmark
operation it belongs to.  Spans stay in memory until ``dump`` writes them.
A few spans also carry a count taken from the call's arguments or result
(Birkhoff terms, outcomes per protocol, terms dropped by pruning, trials).
"""

from __future__ import annotations

import functools
import json
import time
import types
from collections import defaultdict

# (module, attribute) pairs to wrap; the span name is "<module>.<attribute>".
# numkit.as_matrix and numkit.rect_diag are not wrapped: they are trivial
# helpers called from almost every function, so wrapping them would mostly
# measure the wrapper; their time counts as the caller's self time.
TARGETS = {
    "numkit": ("svd", "pinv", "psd_sqrt", "hermitian_eigs", "transposition_unitary",
               "opnorm", "unitarity_defect"),
    "bipartite": ("schmidt", "squared_spectrum", "schmidt_rank", "apply_local",
                  "fidelity", "from_schmidt"),
    "majorize": ("compare", "bistochastic_link", "birkhoff", "caratheodory_prune"),
    "synth": ("max_probability", "feasibility", "intermediate_vector", "uhlmann_decompose",
              "deterministic_stage", "final_contraction", "synthesize", "reduce_bob",
              "substochastic_matrix"),
    "simulate": ("verify", "branch_weights", "trial_rng", "run_once", "estimate"),
    "cli": ("main", "cmd_feasibility", "cmd_synthesize", "cmd_verify", "cmd_simulate",
            "cmd_reduce_bob", "load_state", "load_operator", "load_protocol",
            "protocol_to_dict", "protocol_from_dict"),
}
MODULES = tuple(TARGETS)

# Counts recorded on a span from (args, kwargs, result).
COUNTS = {
    "majorize.birkhoff": lambda args, kw, res: len(res.terms),
    "majorize.caratheodory_prune": lambda args, kw, res: len(args[0].terms) - len(res.terms),
    "synth.synthesize": lambda args, kw, res: len(res.outcomes),
    "simulate.estimate": lambda args, kw, res: kw["trials"] if "trials" in kw else args[3],
}


class Tracer:
    """Collects spans ``[name, start, end, parent, op, count]`` in a list."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, count = self.spans, self._stack, COUNTS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                rec[5] = count(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target at every module attribute that names it."""
        import locc_forge
        from locc_forge import bipartite, cli

        mods = [locc_forge] + [getattr(locc_forge, m) for m in MODULES]
        for mod_name, attrs in TARGETS.items():
            home = getattr(locc_forge, mod_name)
            for attr in attrs:
                original = getattr(home, attr)
                wrapper = self.wrap(f"{mod_name}.{attr}", original)
                for mod in mods:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
        state = bipartite.BipartiteState
        self._patch(state, "__init__", self.wrap("bipartite.state_new", state.__init__))
        fake_json = types.ModuleType("json")
        fake_json.__dict__.update(vars(json))
        fake_json.dumps = self.wrap("cli.json_dumps", json.dumps)
        fake_json.load = self.wrap("cli.json_load", json.load)
        self._patch(cli, "json", fake_json)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


def summarize(spans: list[list]) -> dict:
    """Per span name: calls, inclusive seconds, self seconds, summed count.

    Self time is a span's duration minus the time its direct children
    cover; children of one span never overlap because calls nest.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0})
    for s, c in zip(spans, child):
        agg = out[s[0]]
        agg["calls"] += 1
        agg["s"] += s[2] - s[1]
        agg["self_s"] += s[2] - s[1] - c
        if s[5] is not None:
            agg["count"] += s[5]
    return dict(out)


def dump(records: list[list], path: str) -> None:
    """Write spans as columns (times in microseconds from the first span)."""
    t0 = records[0][1] if records else 0.0
    names = sorted({s[0] for s in records})
    index = {n: i for i, n in enumerate(names)}
    doc = {
        "names": names,
        "columns": ["name", "start_us", "end_us", "parent", "op", "count"],
        "spans": [
            [index[s[0]], round((s[1] - t0) * 1e6, 3), round((s[2] - t0) * 1e6, 3),
             s[3], s[4], s[5]]
            for s in records
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def load_spans(path: str) -> list[list]:
    """Read a file written by ``dump`` back into span records."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    names = doc["names"]
    return [[names[n], a * 1e-6, b * 1e-6, parent, op, count]
            for n, a, b, parent, op, count in doc["spans"]]
