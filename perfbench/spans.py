"""Span recorder for the traced run, installed from outside the program.

:func:`install` wraps each layer's public functions and methods where
callers find them: a module-level function is replaced in every loaded
``repro`` module that imported it (``lineage_of_cq`` in both
``repro.lineage.build`` and ``repro.core.pdb``), a method on its class.
Each call records a span ``(id, parent, name, start, end, attrs)``; the
parent comes from a context variable, so nesting follows the call stack
within a thread or asyncio task. Spans stay in memory and are written as
JSON lines at the end.

Clocks are ``time.monotonic()``, which is system-wide on Linux, so the
benchmark can cut a server's spans to its own measurement window.

:func:`layer_metrics` turns spans into the per-layer metrics: a layer's
time is its spans' self time (duration minus direct children), summed
and divided by the operations in the window.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

_current: "contextvars.ContextVar[Optional[int]]" = contextvars.ContextVar(
    "perfbench_span", default=None
)

#: (defining module, function, span name)
FUNCTIONS = (
    ("repro.server.protocol", "decode_request", "server.decode"),
    ("repro.server.protocol", "encode", "server.encode"),
    ("repro.relational.shm", "publish", "shm.publish"),
    ("repro.logic.parser", "parse_sentence", "logic.parse"),
    ("repro.logic.cq", "parse_cq", "logic.parse"),
    ("repro.logic.cq", "parse_ucq", "logic.parse"),
    ("repro.lineage.build", "lineage_of_cq", "lineage.ground"),
    ("repro.lineage.build", "lineage_of_ucq", "lineage.ground"),
    ("repro.lineage.build", "lineage_of_sentence", "lineage.ground"),
    ("repro.lifted.engine", "lifted_probability", "lifted.probability"),
    ("repro.plans.safe_plan", "safe_plan", "plans.build"),
    ("repro.plans.plan", "execute_boolean", "plans.rows"),
    ("repro.plans.vectorized", "execute_boolean_columnar", "plans.columnar"),
    ("repro.plans.bounds", "extensional_bounds", "plans.bounds"),
    ("repro.plans.bounds", "oblivious_database", "plans.oblivious"),
    ("repro.booleans.forms", "to_dnf", "booleans.dnf"),
    ("repro.wmc.dpll", "compile_decision_dnnf", "wmc.compile"),
    ("repro.wmc.karp_luby", "karp_luby", "wmc.kl"),
    ("repro.kc.differentiate", "differentiate", "kc.differentiate"),
)

#: (module, class, method, span name)
METHODS = (
    ("repro.server.service", "QueryServer", "_handle_request", "server.request"),
    ("repro.server.ladder", "MethodLadder", "evaluate", "ladder.evaluate"),
    ("repro.server.ladder", "MethodLadder", "_try_exact", "ladder.try_exact"),
    ("repro.server.ladder", "MethodLadder", "_try_bounds", "ladder.try_bounds"),
    ("repro.server.ladder", "MethodLadder", "_sampled", "ladder.try_sampled"),
    ("repro.server.ladder", "MethodLadder", "_query_answer", "ladder.answer"),
    ("repro.server.ladder", "MethodLadder", "_conditioned", "ladder.conditioned"),
    ("repro.server.pool", "WorkerPool", "submit", "pool.roundtrip"),
    ("repro.engine.session", "EngineSession", "query", "engine.query"),
    ("repro.engine.session", "EngineSession", "lineage", "engine.lineage"),
    ("repro.core.tid", "TupleIndependentDatabase", "fingerprint", "tid.fingerprint"),
    ("repro.core.tid", "TupleIndependentDatabase", "set_fact", "tid.write"),
    ("repro.core.tid", "TupleIndependentDatabase", "add_fact", "tid.write"),
    ("repro.lifted.engine", "LiftedEngine", "probability", "lifted.probability"),
    ("repro.wmc.dpll", "DPLLCounter", "run", "wmc.dpll"),
    ("repro.condition.core", "ConditionedScenario", "compile", "condition.compile"),
    ("repro.condition.core", "ConditionedScenario", "posterior", "condition.posterior"),
    ("repro.condition.core", "ConditionedScenario", "sample_posterior", "condition.posterior"),
    ("repro.condition.core", "ConditionedScenario", "whatif", "condition.whatif"),
)


def _shm_bytes(handle: Any) -> int:
    return handle.interner_nbytes + sum(
        shard.rows * (len(shard.attributes) + 1) * 8 for shard in handle.shards
    )


#: Span name -> attributes taken from the call's result.
_RESULT_ATTRS: Dict[str, Callable[[Any], Dict[str, Any]]] = {
    "lineage.ground": lambda r: {"variables": r.variable_count},
    "booleans.dnf": lambda r: {"clauses": len(r)},
    "wmc.dpll": lambda r: {"expansions": r.statistics.shannon_expansions},
    "wmc.kl": lambda r: {"samples": r.samples},
    "shm.publish": lambda r: {"bytes": _shm_bytes(r.handle)},
    "ladder.evaluate": lambda r: {"rung": r.rung},
}


class Recorder:
    """In-memory spans plus the hooks that feed them."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, Optional[int], str, float, float, Optional[dict]]] = []
        self.snapshots: List[dict] = []
        self.sessions: List[Any] = []
        self._ids = itertools.count(1)
        self._kernel: Optional[Callable[[], Any]] = None

    # -- recording ---------------------------------------------------------------

    def _kernel_counts(self) -> Tuple[int, int, int]:
        stats = self._kernel()  # type: ignore[misc]
        return stats.intern_hits, stats.cofactor_hits, stats.cofactor_misses

    def _record(self, sid, parent, name, start, kernel0, attrs) -> None:
        end = time.monotonic()
        if kernel0 is not None:
            k1 = self._kernel_counts()
            attrs = dict(attrs or {})
            attrs["intern_hits"] = k1[0] - kernel0[0]
            attrs["cofactor_hits"] = k1[1] - kernel0[1]
            attrs["cofactor_misses"] = k1[2] - kernel0[2]
        self.spans.append((sid, parent, name, start, end, attrs))

    def wrap(self, fn: Callable, name: str) -> Callable:
        extract = _RESULT_ATTRS.get(name)
        recorder = self

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                parent = _current.get()
                sid = next(recorder._ids)
                token = _current.set(sid)
                start = time.monotonic()
                attrs = None
                try:
                    return await fn(*args, **kwargs)
                except BaseException as error:
                    attrs = {"error": type(error).__name__}
                    raise
                finally:
                    _current.reset(token)
                    recorder._record(sid, parent, name, start, None, attrs)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = _current.get()
            sid = next(recorder._ids)
            token = _current.set(sid)
            kernel0 = recorder._kernel_counts() if parent is None else None
            start = time.monotonic()
            attrs = None
            try:
                result = fn(*args, **kwargs)
                if extract is not None:
                    attrs = extract(result)
                return result
            except BaseException as error:
                attrs = {"error": type(error).__name__}
                raise
            finally:
                _current.reset(token)
                recorder._record(sid, parent, name, start, kernel0, attrs)

        return wrapper

    def wrap_submit(self, fn: Callable, name: str) -> Callable:
        """A pool submit: the span ends when the worker's reply arrives."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = _current.get()
            sid = next(recorder._ids)
            start = time.monotonic()
            future = fn(*args, **kwargs)
            future.add_done_callback(
                lambda _: recorder._record(sid, parent, name, start, None, None)
            )
            return future

        return wrapper

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        # Modules imported later take the wrapper from the defining module;
        # the scan below replaces the references already imported.
        for module in {m for m, *_ in FUNCTIONS + METHODS}:
            importlib.import_module(module)
        from repro.booleans.kernel import kernel_statistics
        from repro.engine.session import EngineSession
        from repro.obs.metrics import MetricsRegistry

        self._kernel = kernel_statistics
        for module_name, attr, span in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapped = self.wrap(original, span)
            for name, module in list(sys.modules.items()):
                if (name == "repro" or name.startswith("repro.")) and getattr(
                    module, attr, None
                ) is original:
                    setattr(module, attr, wrapped)
        for module_name, cls_name, attr, span in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(raw.__func__, span)))
            elif span == "pool.roundtrip":
                setattr(cls, attr, self.wrap_submit(raw, span))
            else:
                setattr(cls, attr, self.wrap(raw, span))

        # Keep every session, and snapshot their cache counters whenever
        # /metrics is rendered, so a scrape brackets the counts.
        init = EngineSession.__init__
        recorder = self

        @functools.wraps(init)
        def session_init(session: Any, *args: Any, **kwargs: Any) -> None:
            init(session, *args, **kwargs)
            recorder.sessions.append(session)

        EngineSession.__init__ = session_init  # type: ignore[method-assign]
        render = MetricsRegistry.render_text

        @functools.wraps(render)
        def render_text(registry: Any) -> str:
            recorder.snapshots.append(
                {"t": time.monotonic(), "cache": recorder.cache_counts()}
            )
            return render(registry)

        MetricsRegistry.render_text = render_text  # type: ignore[method-assign]

    def cache_counts(self) -> Dict[str, int]:
        out = {"hits": 0, "misses": 0, "evictions": 0}
        for session in self.sessions:
            stats = session.cache_info()
            out["hits"] += stats.hits
            out["misses"] += stats.misses
            out["evictions"] += stats.evictions
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            for sid, parent, name, start, end, attrs in self.spans:
                handle.write(
                    json.dumps({"id": sid, "parent": parent, "name": name,
                                "t0": start, "t1": end, "attrs": attrs}) + "\n"
                )
            for snapshot in self.snapshots:
                handle.write(json.dumps({"snapshot": snapshot}) + "\n")


def load(path: str, tag: str) -> Tuple[List[dict], List[dict]]:
    """Spans and snapshots from a dump; ids are prefixed with *tag* so
    dumps of several processes can be analysed together."""
    spans, snapshots = [], []
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if "snapshot" in record:
                snapshots.append(record["snapshot"])
                continue
            record["id"] = f"{tag}:{record['id']}"
            if record["parent"] is not None:
                record["parent"] = f"{tag}:{record['parent']}"
            spans.append(record)
    return spans, snapshots


def as_records(recorder: Recorder) -> List[dict]:
    return [
        {"id": sid, "parent": parent, "name": name, "t0": t0, "t1": t1, "attrs": attrs}
        for sid, parent, name, t0, t1, attrs in recorder.spans
    ]


# -- per-layer metrics --------------------------------------------------------------

_TIMES = {
    "server.decode_ms": ("server.decode",),
    "server.encode_ms": ("server.encode",),
    "engine.query_ms": ("engine.query", "engine.lineage"),
    "tid.fingerprint_ms": ("tid.fingerprint",),
    "tid.write_ms": ("tid.write",),
    "logic.parse_ms": ("logic.parse",),
    "lineage.ground_ms": ("lineage.ground",),
    "lifted.ms": ("lifted.probability",),
    "plans.build_ms": ("plans.build",),
    "plans.rows_ms": ("plans.rows",),
    "plans.columnar_ms": ("plans.columnar",),
    "plans.bounds_ms": ("plans.bounds",),
    "plans.oblivious_ms": ("plans.oblivious",),
    "booleans.dnf_ms": ("booleans.dnf",),
    "wmc.dpll_ms": ("wmc.dpll",),
    "wmc.compile_ms": ("wmc.compile",),
    "wmc.kl_ms": ("wmc.kl",),
    "kc.differentiate_ms": ("kc.differentiate",),
    "condition.posterior_ms": ("condition.posterior",),
    "condition.whatif_ms": ("condition.whatif",),
}
_CALLS = {
    "tid.fingerprint_calls": "tid.fingerprint",
    "logic.parse_calls": "logic.parse",
    "lineage.ground_calls": "lineage.ground",
    "lifted.calls": "lifted.probability",
    "wmc.dpll_calls": "wmc.dpll",
    "kc.differentiate_calls": "kc.differentiate",
}
_SUMS = {
    "lineage.variables": ("lineage.ground", "variables"),
    "booleans.dnf_clauses": ("booleans.dnf", "clauses"),
    "wmc.shannon_expansions": ("wmc.dpll", "expansions"),
    "wmc.kl_samples": ("wmc.kl", "samples"),
    "booleans.intern_hits": (None, "intern_hits"),
    "booleans.cofactor_hits": (None, "cofactor_hits"),
    "booleans.cofactor_misses": (None, "cofactor_misses"),
}


def _rung_start(evaluate: dict, children: Dict[int, List[dict]]) -> float:
    """When the rung that answered started its own work."""
    below: List[dict] = []
    stack = list(children.get(evaluate["id"], ()))
    while stack:
        span = stack.pop()
        below.append(span)
        stack.extend(children.get(span["id"], ()))
    rung = (evaluate.get("attrs") or {}).get("rung")
    wanted = {
        "exact": ("ladder.answer", "condition.posterior"),
        "bounds": ("ladder.try_bounds",),
        "sampled": ("ladder.try_sampled", "condition.posterior"),
    }.get(rung, ())
    starts = [s["t0"] for s in below if s["name"] in wanted]
    return max(starts) if starts else evaluate["t1"]


def layer_metrics(
    spans: Sequence[dict], windows: Sequence[Tuple[float, float]], ops: int
) -> Dict[str, float]:
    """Self times per operation and counts per run, from windowed spans.

    Spans that run once at set-up (shared-memory publish, scenario
    compile) are taken whole, outside the windows, per set-up.
    """
    by_id = {s["id"]: s for s in spans}
    inside = [s for s in spans if any(w0 <= s["t0"] <= w1 for w0, w1 in windows)]
    w0 = min(w[0] for w in windows)
    children: Dict[int, List[dict]] = {}
    for span in inside:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for span in inside:
        kids = children.get(span["id"], ())
        own = (span["t1"] - span["t0"]) - sum(k["t1"] - k["t0"] for k in kids)
        self_s[span["name"]] = self_s.get(span["name"], 0.0) + own
        parent = by_id.get(span["parent"])
        if parent is None or parent["name"] != span["name"]:
            calls[span["name"]] = calls.get(span["name"], 0) + 1
    per_op = 1e3 / max(ops, 1)
    out: Dict[str, float] = {}
    for metric, names in _TIMES.items():
        out[metric] = sum(self_s.get(n, 0.0) for n in names) * per_op
    out["ladder.evaluate_ms"] = sum(
        t for n, t in self_s.items() if n.startswith("ladder.")
    ) * per_op
    for metric, name in _CALLS.items():
        out[metric] = float(calls.get(name, 0))
    out["lifted.nonliftable"] = float(sum(
        1 for s in inside
        if s["name"] == "lifted.probability" and (s["attrs"] or {}).get("error")
    ))
    for metric, (name, key) in _SUMS.items():
        total = 0
        for span in inside:
            attrs = span["attrs"] or {}
            if key not in attrs or (name is not None and span["name"] != name):
                continue
            parent = by_id.get(span["parent"])
            if parent is not None and parent["name"] == span["name"]:
                continue
            total += attrs[key]
        out[metric] = float(total)
    kl_s = sum(s["t1"] - s["t0"] for s in inside if s["name"] == "wmc.kl")
    out["wmc.kl_samples_per_s"] = out["wmc.kl_samples"] / kl_s if kl_s else 0.0
    evaluates = [s for s in inside if s["name"] == "ladder.evaluate"]
    out["ladder.gate_ms"] = sum(
        _rung_start(s, children) - s["t0"] for s in evaluates
    ) * per_op
    out["pool.roundtrip_ms"] = total_ms(spans, windows, "pool.roundtrip") / max(ops, 1)
    publishes = [s for s in spans if s["name"] == "shm.publish"]
    out["shm.publish_ms"] = (
        sum(s["t1"] - s["t0"] for s in publishes) * 1e3 / len(publishes)
        if publishes else 0.0
    )
    out["shm.bytes"] = float(max(
        [(s["attrs"] or {}).get("bytes", 0) for s in publishes] or [0]
    ))
    compiles = [s for s in spans if s["name"] == "condition.compile" and s["t0"] < w0]
    out["condition.compile_ms"] = sum(s["t1"] - s["t0"] for s in compiles) * 1e3
    return out


def total_ms(
    spans: Sequence[dict], windows: Sequence[Tuple[float, float]], name: str
) -> float:
    """Summed wall time of the spans called *name* inside the windows."""
    return 1e3 * sum(
        s["t1"] - s["t0"]
        for s in spans
        if s["name"] == name and any(w0 <= s["t0"] <= w1 for w0, w1 in windows)
    )
