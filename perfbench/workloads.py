"""The four workloads: set-up, measured loop, checks and metrics.

Each workload function takes the seed, the run length, the trace flag
and a working directory, and returns ``(result, report)``: the result
object the benchmark prints last, and human-readable lines printed
before it.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import selectors
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import common
import inputs
import oracle
import spans
from common import Connection, ServerProcess, median, percentile

#: Set-ups per run; setup_s is their median. Serving set-up includes a
#: warm-up pass of seconds, so it is repeated fewer times.
SETUPS = 5
SERVE_SETUPS = 3
#: Session LRU entries for the serving workloads (per worker in processes
#: mode). The hot set needs about 150. The rest holds first-seen entries
#: long enough that hot entries are not evicted between Zipf draws, and
#: fills within a threads-mode run, so peak memory does not grow with
#: throughput.
SERVE_CACHE = 512
#: Session LRU entries for update_stream. Every write changes the
#: fingerprint, so entries for earlier versions are never read again, yet
#: a lifted answer holds up to about 0.7 MB. The cache must fill early in
#: the run, or peak memory counts the rounds a run happens to reach; 64
#: entries fill within the first four rounds (the default 256 takes about
#: sixteen, longer than a run).
UPDATE_CACHE = 64
#: Absolute tolerance for exact answers against the oracle.
EXACT_TOL = 1e-9
#: Binomial margin, in standard deviations, on the sampled-coverage check.
COVERAGE_Z = 3.0

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("first_seen_p50_ms", "ms"),
    ("cq_p50_ms", "ms"),
    ("ucq_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("server.wait_ms", "ms"), ("server.decode_ms", "ms"), ("server.encode_ms", "ms"),
    ("server.coalesced", "count"), ("server.requests", "count"),
    ("server.overloaded", "count"), ("server.timeouts", "count"),
    ("ladder.evaluate_ms", "ms"), ("ladder.gate_ms", "ms"),
    ("ladder.exact", "count"), ("ladder.bounds", "count"), ("ladder.sampled", "count"),
    ("ladder.deadline_exceeded", "count"), ("ladder.cq_abs_error_mean", "probability"),
    ("pool.roundtrip_ms", "ms"), ("pool.requeued", "count"), ("pool.restarts", "count"),
    ("pool.crashes", "count"),
    ("shm.publish_ms", "ms"), ("shm.bytes", "B"),
    ("engine.query_ms", "ms"), ("engine.hits", "count"), ("engine.misses", "count"),
    ("engine.evictions", "count"), ("engine.hit_ratio", "ratio"),
    ("tid.fingerprint_ms", "ms"), ("tid.fingerprint_calls", "count"), ("tid.write_ms", "ms"),
    ("logic.parse_ms", "ms"), ("logic.parse_calls", "count"),
    ("lineage.ground_ms", "ms"), ("lineage.ground_calls", "count"),
    ("lineage.variables", "count"),
    ("lifted.ms", "ms"), ("lifted.calls", "count"), ("lifted.nonliftable", "count"),
    ("plans.build_ms", "ms"), ("plans.rows_ms", "ms"), ("plans.columnar_ms", "ms"),
    ("plans.bounds_ms", "ms"), ("plans.oblivious_ms", "ms"),
    ("booleans.dnf_ms", "ms"), ("booleans.dnf_clauses", "count"),
    ("booleans.intern_hits", "count"), ("booleans.cofactor_hits", "count"),
    ("booleans.cofactor_misses", "count"),
    ("wmc.dpll_ms", "ms"), ("wmc.dpll_calls", "count"), ("wmc.shannon_expansions", "count"),
    ("wmc.compile_ms", "ms"), ("wmc.kl_ms", "ms"), ("wmc.kl_samples", "count"),
    ("wmc.kl_samples_per_s", "1/s"),
    ("kc.differentiate_ms", "ms"), ("kc.differentiate_calls", "count"),
    ("condition.compile_ms", "ms"), ("condition.posterior_ms", "ms"),
    ("condition.whatif_ms", "ms"),
    ("trace.coverage", "ratio"), ("trace.overhead", "ratio"),
)

#: /metrics series behind the server-side counters.
SERVER_COUNTERS = {
    "server.requests": "server_requests_total",
    "server.coalesced": "server_coalesced_total",
    "server.overloaded": "server_overloaded_total",
    "server.timeouts": "server_timeouts_total",
    "ladder.exact": "server_rung_exact_total",
    "ladder.bounds": "server_rung_bounds_total",
    "ladder.sampled": "server_rung_sampled_total",
    "pool.requeued": "server_requeued_total",
    "pool.restarts": "server_worker_restarts_total",
    "pool.crashes": "server_worker_crashes_total",
}


@dataclass
class Outcome:
    """One measured operation."""

    request: Optional[inputs.Request]
    latency_s: float
    response: dict
    first_seen: bool = False
    write: bool = False
    forces: Dict = field(default_factory=dict)


@dataclass
class Check:
    """Correctness bookkeeping for one run."""

    failed: int = 0
    wrong: List[str] = field(default_factory=list)
    sampled: int = 0
    sampled_within: int = 0
    sampled_budget: Tuple[float, float] = (0.0, 0.0)
    cq_errors: List[float] = field(default_factory=list)

    def verdict(self) -> bool:
        if self.wrong:
            return False
        if self.sampled:
            eps, delta = self.sampled_budget
            n = self.sampled
            allowed = n * delta + COVERAGE_Z * (n * delta * (1 - delta)) ** 0.5
            return n - self.sampled_within <= allowed
        return True


def check_answer(check: Check, outcome: Outcome, reference: float) -> None:
    """Hold one answer to the guarantee its rung states."""
    response = outcome.response
    p = response["probability"]
    rung = response.get("rung", "exact")
    label = f"{outcome.request.text!r} ({rung})"
    if inputs.query_class(outcome.request.spec) == "cq":
        check.cq_errors.append(abs(p - reference))
    if rung == "exact":
        if abs(p - reference) > EXACT_TOL:
            check.wrong.append(f"{label}: {p!r} != reference {reference!r}")
    elif rung == "bounds":
        low, high = response["bounds"]["lower"], response["bounds"]["upper"]
        if not low - EXACT_TOL <= reference <= high + EXACT_TOL:
            check.wrong.append(f"{label}: [{low}, {high}] misses {reference!r}")
        elif abs(p - reference) > (high - low) / 2 + EXACT_TOL:
            check.wrong.append(f"{label}: estimate {p!r} off by more than half the width")
    else:
        eps, delta = response["epsilon"], response["delta"]
        check.sampled += 1
        check.sampled_budget = (eps, delta)
        if response.get("method") == "monte-carlo":
            within = abs(p - reference) <= eps
        else:
            within = abs(p - reference) <= eps * reference
        check.sampled_within += int(within)


def write_csvs(facts: inputs.Facts, directory: Path) -> List[Path]:
    """Write the generated database with the program's own CSV writer."""
    from repro.core.tid import TupleIndependentDatabase
    from repro.relational.io import save_tid

    db = TupleIndependentDatabase()
    for name, rows in facts.items():
        relation = db.add_relation(name, tuple(f"a{i}" for i in range(len(next(iter(rows))))))
        for values, probability in rows.items():
            relation.add(values, probability)
    return save_tid(db, directory)


def latency_metrics(outcomes: List[Outcome], elapsed_s: float) -> Dict[str, float]:
    """Throughput over every operation; latencies over queries only (a
    write returns in microseconds, and its cost shows on the next read)."""
    reads = [o for o in outcomes if not o.write]
    ms = [o.latency_s * 1e3 for o in reads]

    def p50(selected: List[Outcome]) -> float:
        return median([o.latency_s * 1e3 for o in selected])

    return {
        "throughput_ops_s": len(outcomes) / elapsed_s,
        "latency_p50_ms": median(ms),
        "latency_p99_ms": percentile(ms, 0.99),
        "first_seen_p50_ms": p50([o for o in reads if o.first_seen]),
        "cq_p50_ms": p50([o for o in reads if inputs.query_class(o.request.spec) == "cq"]),
        "ucq_p50_ms": p50([o for o in reads if inputs.query_class(o.request.spec) == "ucq"]),
    }


def result(check: Check, attempted: int, metrics: Dict[str, float], units) -> dict:
    return {
        "correct": check.verdict(),
        "attempted": attempted,
        "failed": check.failed,
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in units
        },
    }


def _counters_line(before: Dict[str, float], after: Dict[str, float]) -> str:
    parts = []
    for label, series in (
        ("overloaded", "server_overloaded_total"),
        ("timeout", "server_timeouts_total"),
        ("worker_crashes", "server_worker_crashes_total"),
        ("requeued", "server_requeued_total"),
        ("restarts", "server_worker_restarts_total"),
    ):
        parts.append(f"{label}={common.delta(after, before, series):g}")
    return "counters: " + " ".join(parts)


# -- serving workloads -------------------------------------------------------------


@dataclass
class Served:
    server: ServerProcess
    csv_dir: Path
    scenario_ids: List[str]
    setup_s: float
    warm: List[Outcome]


def _serve_setup(seed: int, mode: str, work: Path, traced: Optional[Path]) -> Tuple[Served, inputs.ServeInputs]:
    gc.collect()
    start = time.monotonic()
    mix = inputs.serve_inputs(seed)
    csv_dir = work / "db"
    csvs = write_csvs(mix.facts, csv_dir)
    server = ServerProcess(
        common.serve_argv(csvs, mode, seed, traced, ("--cache-size", str(SERVE_CACHE))),
        work / "server.log",
    )
    try:
        conn = Connection(server.port)
        ids = []
        for specs in mix.scenarios:
            response = conn.request({"op": "condition", "constraints": specs})
            if not response.get("ok"):
                raise RuntimeError(f"scenario install failed: {response}")
            ids.append(response["scenario"])
        warm = []
        for request in mix.hot:
            t0 = time.perf_counter()
            response = conn.request(request.payload(ids))
            if not response.get("ok"):
                raise RuntimeError(f"warm-up request failed: {response}")
            warm.append(Outcome(request, time.perf_counter() - t0, response,
                                forces=_forces(mix, request)))
        conn.close()
    except BaseException:
        server.stop()
        raise
    return Served(server, csv_dir, ids, time.monotonic() - start, warm), mix


def _forces(mix: inputs.ServeInputs, request: inputs.Request) -> Dict:
    forces = dict(mix.scenario_pins[request.scenario]) if request.scenario is not None else {}
    forces.update(request.force)
    return forces


def _serve_loop(served: Served, mix: inputs.ServeInputs, seed: int, seconds: float) -> Tuple[List[Outcome], Tuple[float, float]]:
    """Two connections in a closed loop, driven by one thread.

    Each connection has one request outstanding and sends its next one
    when the reply arrives. Both run rounds of SERVE_ROUND requests in
    lock step: one that ends its round waits for the other. Connection 0
    ends each round with a first-seen request and connection 1 with one
    more hot draw. So two misses never share the interpreter lock (when
    both connections sent them, misses filled half of each connection's
    time, and the first-seen median moved with how often they met), and
    every run holds one
    first-seen request per 2 * SERVE_ROUND requests, which keeps
    latency_p99_ms at the same place among the first-seen costs.

    A single selector thread keeps the client's own CPU use and
    interpreter-lock hand-offs out of the measured latencies. It polls
    without blocking and yields the CPU between polls: a client that
    sleeps lets its virtual CPU halt between replies, and waking it puts
    the host's scheduling delay into every round trip (see README).
    """
    cumulative = []
    total = 0.0
    for weight in mix.weights:
        total += weight
        cumulative.append(total)
    conns = [Connection(served.server.port) for _ in range(2)]
    rngs = [random.Random(f"serve-zipf:{seed}:{index}") for index in range(2)]
    positions = [0, 0]
    pending: List[Tuple[inputs.Request, float, bool]] = [None, None]  # type: ignore[list-item]
    outcomes: List[Outcome] = []
    selector = selectors.DefaultSelector()

    def send(index: int) -> None:
        first = index == 0 and positions[index] == inputs.SERVE_ROUND - 1
        if first:
            request = next(mix.fresh)
        else:
            request = rngs[index].choices(mix.hot, cum_weights=cumulative)[0]
        positions[index] = (positions[index] + 1) % inputs.SERVE_ROUND
        pending[index] = (request, time.perf_counter(), first)
        conns[index].send(request.payload(served.scenario_ids))

    start = time.monotonic()
    stop_at = start + seconds
    try:
        for index, conn in enumerate(conns):
            selector.register(conn.sock, selectors.EVENT_READ, index)
            send(index)
        waiting: List[int] = []  # connections that ended the current round
        last_reply = time.monotonic()
        running = True
        while running:
            events = selector.select(0)
            if not events:
                if time.monotonic() - last_reply > common.REQUEST_TIMEOUT_S:
                    raise TimeoutError("no reply within the request timeout")
                os.sched_yield()
                continue
            last_reply = time.monotonic()
            for key, _ in events:
                index = key.data
                response = conns[index].receive()
                request, t0, first = pending[index]
                outcomes.append(Outcome(request, time.perf_counter() - t0, response,
                                        first_seen=first, forces=_forces(mix, request)))
                if positions[index]:
                    send(index)
                    continue
                waiting.append(index)
                if len(waiting) == len(conns):
                    waiting.clear()
                    if time.monotonic() >= stop_at:
                        running = False
                    else:
                        for other in range(len(conns)):
                            send(other)
        end = time.monotonic()
    finally:
        selector.close()
        for conn in conns:
            conn.close()
    return outcomes, (start, end)


def _check_answers(check: Check, csv_dir: Path, outcomes: List[Outcome]) -> None:
    """Hold every server answer to the oracle's reference."""
    db = oracle.Database.from_csv_dir(str(csv_dir))
    cache: Dict[tuple, float] = {}
    for outcome in outcomes:
        if not outcome.response.get("ok"):
            check.failed += 1
            continue
        request = outcome.request
        key = (request.key, tuple(sorted(outcome.forces.items())))
        if key not in cache:
            cache[key] = oracle.reference(db, request.spec, outcome.forces)
        check_answer(check, outcome, cache[key])


def serve_workload(mode: str):
    def run(seed: int, seconds: float, trace: bool, work: Path):
        check = Check()
        report: List[str] = []
        if not trace:
            setups = []
            for attempt in range(SERVE_SETUPS):
                served, mix = _serve_setup(seed, mode, work, None)
                setups.append(served.setup_s)
                if attempt < SERVE_SETUPS - 1:
                    served.server.stop()
            try:
                before = common.scrape_metrics(served.server.port)
                outcomes, (w0, w1) = _serve_loop(served, mix, seed, seconds)
                after = common.scrape_metrics(served.server.port)
                rss = served.server.peak_rss_mb()
            finally:
                served.server.stop()
            _check_answers(check, served.csv_dir, served.warm + outcomes)
            metrics = latency_metrics(outcomes, w1 - w0)
            metrics.update(setup_s=median(setups), peak_rss_mb=rss)
            report.append(_counters_line(before, after))
            return result(check, len(outcomes), metrics, END_TO_END), report

        # Traced run: half the time untraced, half traced, same inputs.
        served, mix = _serve_setup(seed, mode, work, None)
        try:
            plain, (p0, p1) = _serve_loop(served, mix, seed, seconds / 2)
        finally:
            served.server.stop()
        _check_answers(check, served.csv_dir, served.warm + plain)
        dump = work / "spans.jsonl"
        served, mix = _serve_setup(seed, mode, work, dump)
        try:
            before = common.scrape_metrics(served.server.port)
            traced, (w0, w1) = _serve_loop(served, mix, seed, seconds / 2)
            after = common.scrape_metrics(served.server.port)
        finally:
            served.server.stop()
        _check_answers(check, served.csv_dir, served.warm + traced)
        records, snapshots = spans.load(str(dump), "server")
        layers = _server_layers(records, [(w0, w1)], traced, before, after)
        cache0, cache1 = snapshots[-2]["cache"], snapshots[-1]["cache"]
        layers.update(_engine_counts(cache0, cache1))
        layers["trace.overhead"] = 1.0 - (len(traced) / (w1 - w0)) / (len(plain) / (p1 - p0))
        report.append(_counters_line(before, after))
        return result(check, len(plain) + len(traced), layers, PER_LAYER), report

    return run


def _engine_counts(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, float]:
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return {
        "engine.hits": hits,
        "engine.misses": misses,
        "engine.evictions": after["evictions"] - before["evictions"],
        "engine.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }


def _server_layers(records, windows, outcomes: List[Outcome], before, after) -> Dict[str, float]:
    ops = len(outcomes)
    layers = spans.layer_metrics(records, windows, ops)
    client_ms = sum(o.latency_s for o in outcomes) * 1e3
    below = spans.total_ms(records, windows, "ladder.evaluate") + spans.total_ms(
        records, windows, "pool.roundtrip"
    )
    layers["server.wait_ms"] = (client_ms - below) / max(ops, 1)
    layers["trace.coverage"] = spans.total_ms(records, windows, "server.request") / client_ms
    for metric, series in SERVER_COUNTERS.items():
        layers[metric] = common.delta(after, before, series)
    layers["ladder.deadline_exceeded"] = float(
        sum(1 for o in outcomes if o.response.get("deadline_exceeded"))
    )
    return layers


# -- deadline_ladder -----------------------------------------------------------------


def _ladder_server(csvs: List[Path], seed: int, work: Path, traced: Optional[Path], warmup: inputs.Request) -> ServerProcess:
    server = ServerProcess(common.serve_argv(csvs, "threads", seed, traced), work / "server.log")
    try:
        conn = Connection(server.port)
        response = conn.request(warmup.payload([]))
        conn.close()
        if not response.get("ok"):
            raise RuntimeError(f"warm-up failed: {response}")
    except BaseException:
        server.stop()
        raise
    return server


def ladder_workload(seed: int, seconds: float, trace: bool, work: Path):
    check = Check()
    report: List[str] = []
    csv_dir = work / "db"

    def setup(traced: Optional[Path]) -> Tuple[ServerProcess, List[Path], inputs.LadderInputs, float]:
        gc.collect()
        start = time.monotonic()
        ladder = inputs.ladder_inputs(seed)
        csvs = write_csvs(ladder.facts, csv_dir)
        server = _ladder_server(csvs, seed, work, traced, ladder.warmup)
        return server, csvs, ladder, time.monotonic() - start

    def loop(seconds: float, dumps: Optional[List[Path]]):
        """Serial requests, whole rounds; a new server per epoch so no
        query repeats within a server's lifetime. Restarts are not timed."""
        traced = dumps[0] if dumps else None
        server, csvs, ladder, setup_s = setup(traced)
        outcomes: List[Outcome] = []
        windows: List[Tuple[float, float]] = []
        peaks: List[float] = []
        scrapes: List[Tuple[Dict, Dict]] = []
        measured = 0.0
        epoch = 0
        try:
            while measured < seconds:
                if epoch:
                    peaks.append(server.peak_rss_mb())
                    server.stop()
                    traced = None if dumps is None else work / f"spans{epoch}.jsonl"
                    if dumps is not None:
                        dumps.append(traced)
                    server = _ladder_server(csvs, seed, work, traced, ladder.warmup)
                before = common.scrape_metrics(server.port)
                conn = Connection(server.port)
                start = time.monotonic()
                for round_ in ladder.rounds:
                    for request in round_:
                        t0 = time.perf_counter()
                        response = conn.request_polled(request.payload([]))
                        outcomes.append(Outcome(request, time.perf_counter() - t0, response, first_seen=True))
                    if measured + time.monotonic() - start >= seconds:
                        break
                end = time.monotonic()
                conn.close()
                scrapes.append((before, common.scrape_metrics(server.port)))
                windows.append((start, end))
                measured += end - start
                epoch += 1
            peaks.append(server.peak_rss_mb())
        finally:
            server.stop()
        return outcomes, windows, measured, setup_s, max(peaks), scrapes

    if not trace:
        setups = []
        for _ in range(SETUPS - 1):
            server, _, _, setup_s = setup(None)
            setups.append(setup_s)
            server.stop()
        outcomes, windows, measured, setup_s, rss, scrapes = loop(seconds, None)
        setups.append(setup_s)
        _check_answers(check, csv_dir, outcomes)
        metrics = latency_metrics(outcomes, measured)
        metrics.update(setup_s=median(setups), peak_rss_mb=rss)
        report.append(_summary_ladder(check, outcomes))
        report.append(_counters_line(_sum_scrapes(scrapes, 0), _sum_scrapes(scrapes, 1)))
        return result(check, len(outcomes), metrics, END_TO_END), report

    plain, _, plain_s, _, _, _ = loop(seconds / 2, None)
    dumps = [work / "spans0.jsonl"]
    traced, windows, traced_s, _, _, scrapes = loop(seconds / 2, dumps)
    _check_answers(check, csv_dir, plain + traced)
    records: List[dict] = []
    for index, dump in enumerate(dumps):
        records.extend(spans.load(str(dump), f"s{index}")[0])
    before, after = _sum_scrapes(scrapes, 0), _sum_scrapes(scrapes, 1)
    layers = _server_layers(records, windows, traced, before, after)
    layers["trace.overhead"] = 1.0 - (len(traced) / traced_s) / (len(plain) / plain_s)
    layers["ladder.cq_abs_error_mean"] = statistics.fmean(check.cq_errors) if check.cq_errors else 0.0
    report.append(_summary_ladder(check, plain + traced))
    report.append(_counters_line(before, after))
    return result(check, len(plain) + len(traced), layers, PER_LAYER), report


def _sum_scrapes(scrapes: List[Tuple[Dict, Dict]], side: int) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for pair in scrapes:
        for name, value in pair[side].items():
            total[name] = total.get(name, 0.0) + value
    return total


def _summary_ladder(check: Check, outcomes: List[Outcome]) -> str:
    rungs: Dict[str, int] = {}
    for outcome in outcomes:
        rung = outcome.response.get("rung", "error")
        rungs[rung] = rungs.get(rung, 0) + 1
    error = statistics.fmean(check.cq_errors) if check.cq_errors else float("nan")
    return (
        f"ladder: rungs {rungs}, cq_abs_error_mean={error:.6g}, "
        f"sampled within eps {check.sampled_within}/{check.sampled}, "
        f"deadline_exceeded={sum(1 for o in outcomes if o.response.get('deadline_exceeded'))}"
    )


# -- update_stream ---------------------------------------------------------------------


def update_workload(seed: int, seconds: float, trace: bool, work: Path):
    from repro.core.pdb import Method
    from repro.engine.session import EngineSession
    from repro.relational.io import load_tid

    check = Check()
    report: List[str] = []
    csv_dir = work / "db"

    def setup():
        gc.collect()
        start = time.monotonic()
        csvs = write_csvs(inputs.update_facts(seed), csv_dir)
        session = EngineSession(load_tid(csvs), seed=seed, cache_size=UPDATE_CACHE)
        # Touch the auto and safe-plan routes once so lazy imports are
        # paid here, not by the first measured read.
        session.query("R('c0'),S('c0',y)")
        session.query("R('c0'),S('c0',y)", Method.SAFE_PLAN)
        return session, time.monotonic() - start

    def loop(session, seconds: float) -> Tuple[List[Outcome], float]:
        outcomes: List[Outcome] = []
        seen = set()
        rounds = inputs.update_rounds(seed)
        gc.collect()
        start = time.monotonic()
        while time.monotonic() - start < seconds:
            for op in next(rounds):
                if op.kind == "write":
                    name, values = op.fact
                    t0 = time.perf_counter()
                    if op.add:
                        session.add_fact(name, values, op.probability)
                    else:
                        session.tid.set_fact(name, values, op.probability)
                    latency = time.perf_counter() - t0
                    outcomes.append(Outcome(None, latency, {"ok": True, "op": op}, write=True))
                    continue
                request = op.request
                method = Method(request.method or "auto")
                t0 = time.perf_counter()
                try:
                    answer = session.query(request.text, method)
                    response = {"ok": True, "probability": answer.probability,
                                "rung": "exact" if answer.exact else "sampled"}
                except Exception as error:  # counted as a failed operation
                    response = {"ok": False, "error": repr(error)}
                latency = time.perf_counter() - t0
                outcomes.append(Outcome(request, latency, response,
                                        first_seen=request.key not in seen))
                seen.add(request.key)
        return outcomes, time.monotonic() - start

    def verify(outcomes: List[Outcome]) -> None:
        db = oracle.Database.from_csv_dir(str(csv_dir))
        for outcome in outcomes:
            if outcome.write:
                op = outcome.response["op"]
                db.set(op.fact, op.probability)
                continue
            if not outcome.response.get("ok"):
                check.failed += 1
                continue
            if outcome.response["rung"] != "exact":
                check.wrong.append(f"{outcome.request.text!r}: inexact answer")
                continue
            check_answer(check, outcome, oracle.reference(db, outcome.request.spec))

    if not trace:
        setups = []
        for _ in range(SETUPS):
            session, setup_s = setup()
            setups.append(setup_s)
        outcomes, elapsed = loop(session, seconds)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        verify(outcomes)
        metrics = latency_metrics(outcomes, elapsed)
        writes = [o.latency_s * 1e3 for o in outcomes if o.write]
        metrics.update(setup_s=median(setups), peak_rss_mb=rss)
        report.append(f"update: {len(writes)} writes, write p50 {median(writes):.4g} ms")
        return result(check, len(outcomes), metrics, END_TO_END), report

    session, _ = setup()
    plain, plain_s = loop(session, seconds / 2)
    verify(plain)
    recorder = spans.Recorder()
    recorder.install()
    session, _ = setup()
    cache0 = recorder.cache_counts()
    w0 = time.monotonic()
    traced, traced_s = loop(session, seconds / 2)
    w1 = time.monotonic()
    cache1 = recorder.cache_counts()
    verify(traced)
    records = spans.as_records(recorder)
    layers = spans.layer_metrics(records, [(w0, w1)], len(traced))
    layers.update(_engine_counts(cache0, cache1))
    roots = sum(
        r["t1"] - r["t0"] for r in records if r["parent"] is None and w0 <= r["t0"] <= w1
    )
    layers["trace.coverage"] = roots / sum(o.latency_s for o in traced)
    layers["trace.overhead"] = 1.0 - (len(traced) / traced_s) / (len(plain) / plain_s)
    return result(check, len(plain) + len(traced), layers, PER_LAYER), report


WORKLOADS: Dict[str, Callable] = {
    "serve_threads": serve_workload("threads"),
    "serve_procs": serve_workload("processes"),
    "update_stream": update_workload,
    "deadline_ladder": ladder_workload,
}
