"""Seeded inputs: databases, request mixes and write streams.

Everything here is a pure function of the workload seed. Queries are
built as oracle specs (see :mod:`oracle`) and rendered to the engine's
query text, so the text the program receives and the structure the
oracle evaluates come from one place.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

Facts = Dict[str, Dict[tuple, float]]

# -- query specs and their text --------------------------------------------------


def v(name: str) -> Tuple[str, str]:
    return ("v", name)


def c(value: str) -> Tuple[str, str]:
    return ("c", value)


def _term(term: Tuple[str, str]) -> str:
    return term[1] if term[0] == "v" else f"'{term[1]}'"


def _atom(rel: str, *terms: Tuple[str, str]) -> tuple:
    return (rel, tuple(terms))


def render(spec: tuple) -> str:
    """The engine's query text for an oracle spec."""
    kind = spec[0]
    if kind == "cq":
        return ",".join(
            f"{rel}({','.join(_term(t) for t in terms)})" for rel, terms in spec[1]
        )
    if kind == "ucq_rt":
        r, s, t, a, b = spec[1:]
        left = "x" if a is None else f"'{a}'"
        right = "u" if b is None else f"'{b}'"
        return f"{r}({left}),{s}({left},y) | {t}({right}),{s}({right},v)"
    r, s, t = spec[1:]
    if kind == "h0":
        return f"{r}(x),{s}(x,y),{t}(y)"
    if kind == "h1":
        return f"{r}(x),{s}(x,y) | {s}(u,v),{t}(v)"
    raise ValueError(kind)


def query_class(spec: tuple) -> str:
    """``cq`` or ``ucq``: the shape class latency metrics are split by."""
    return "cq" if spec[0] in ("cq", "h0") else "ucq"


def fact_text(fact: Tuple[str, tuple]) -> str:
    name, values = fact
    return f"{name}({','.join(repr(str(x)) for x in values)})"


@dataclass
class Request:
    """One request: its wire payload plus what the oracle needs."""

    spec: tuple
    method: Optional[str] = None
    scenario: Optional[int] = None  # index into the installed scenarios
    force: Dict[Tuple[str, tuple], bool] = field(default_factory=dict)
    deadline_ms: Optional[float] = None

    @property
    def text(self) -> str:
        return render(self.spec)

    @property
    def key(self) -> tuple:
        return (
            self.text,
            self.method,
            self.scenario,
            tuple(sorted(self.force.items())),
        )

    def payload(self, scenario_ids: List[str]) -> dict:
        out: dict = {"query": self.text}
        if self.method is not None:
            out["method"] = self.method
        if self.scenario is not None:
            out["scenario"] = scenario_ids[self.scenario]
        if self.force:
            out["force"] = {fact_text(f): value for f, value in self.force.items()}
        if self.deadline_ms is not None:
            out["deadline_ms"] = self.deadline_ms
        return out


def _rng(seed: int, purpose: str) -> random.Random:
    return random.Random(f"{purpose}:{seed}")


# -- serve_threads / serve_procs ------------------------------------------------

#: Large part: R(x), T(x) over SERVE_DOMAIN constants, S with
#: SERVE_OUT_DEGREE random targets per source plus one permutation edge,
#: so every constant has at least one S edge on each side.
SERVE_DOMAIN = 300
SERVE_OUT_DEGREE = 4
#: Small part: U(x), W(x,y), V(y) over 4 elements; H0/H1 lineages have
#: 4 + 16 + 4 = 24 variables, under the engine's 40-variable exact limit.
SMALL_DOMAIN = 4
HOT_SET = 64
ZIPF_EXPONENT = 1.1
#: Requests per round on each connection: ROUND - 1 Zipf draws from the
#: hot set, then one first-seen parametric request on connection 0 and one
#: more Zipf draw on connection 1.
SERVE_ROUND = 30


@dataclass
class ServeInputs:
    facts: Facts
    scenarios: List[List[str]]  # constraint specs, one list per scenario
    scenario_pins: List[Dict[Tuple[str, tuple], bool]]
    hot: List[Request]
    weights: List[float]
    fresh: Iterator[Request]


def serve_inputs(seed: int) -> ServeInputs:
    rng = _rng(seed, "serve-db")
    names = [f"c{i}" for i in range(SERVE_DOMAIN)]
    facts: Facts = {"R": {}, "S": {}, "T": {}, "U": {}, "V": {}, "W": {}}
    for x in names:
        facts["R"][(x,)] = rng.uniform(0.1, 0.9)
        facts["T"][(x,)] = rng.uniform(0.1, 0.9)
    targets = list(names)
    rng.shuffle(targets)
    for x, first in zip(names, targets):
        for y in {first, *rng.sample(names, SERVE_OUT_DEGREE)}:
            facts["S"][(x, y)] = rng.uniform(0.1, 0.9)
    small = [f"s{i}" for i in range(SMALL_DOMAIN)]
    for x in small:
        facts["U"][(x,)] = rng.uniform(0.05, 0.3)
        facts["V"][(x,)] = rng.uniform(0.05, 0.3)
        for y in small:
            facts["W"][(x, y)] = rng.uniform(0.05, 0.3)

    edges = sorted(facts["S"])
    q = _rng(seed, "serve-mix")

    def safe_cq(shape: int) -> tuple:
        a, b = q.choice(names), q.choice(names)
        if shape == 0:
            atoms = [_atom("R", c(a)), _atom("S", c(a), v("y"))]
        elif shape == 1:
            atoms = [_atom("S", v("x"), c(b)), _atom("T", c(b))]
        elif shape == 2:
            atoms = [_atom("R", c(a)), _atom("S", c(a), v("y")), _atom("T", v("y"))]
        else:
            atoms = [_atom("R", v("x")), _atom("S", v("x"), c(b)), _atom("T", c(b))]
        return ("cq", atoms)

    def safe_ucq(same: bool) -> tuple:
        a = q.choice(names)
        b = a if same else q.choice(names)
        return ("ucq_rt", "R", "S", "T", a, b)

    h0 = ("h0", "U", "W", "V")
    h1 = ("h1", "U", "W", "V")

    # Scenarios: Γ asserts and denies stored facts; pins are what the
    # oracle applies. Each scenario touches both parts of the database.
    scenarios: List[List[str]] = []
    pins: List[Dict[Tuple[str, tuple], bool]] = []
    for _ in range(2):
        r_fact = ("R", (q.choice(names),))
        s_fact = ("S", q.choice(edges))
        u_fact = ("U", (q.choice(small),))
        pin = {r_fact: True, s_fact: False, u_fact: True}
        pins.append(pin)
        scenarios.append(
            [("+" if value else "-") + fact_text(f) for f, value in pin.items()]
        )

    hot: List[Request] = []
    seen = set()

    def add(request: Request) -> None:
        if request.key not in seen:
            seen.add(request.key)
            hot.append(request)

    while len(hot) < 28:
        add(Request(safe_cq(len(hot) % 4)))
    while len(hot) < 36:
        add(Request(safe_cq(len(hot) % 4), method="safe-plan"))
    while len(hot) < 48:
        add(Request(safe_ucq(len(hot) % 4 == 0)))
    # H1 goes straight to DPLL: on the ladder, the lifted attempt's
    # inclusion-exclusion runs for seconds before giving up (README).
    add(Request(h0))
    add(Request(h0, method="dpll"))
    add(Request(h1, method="dpll"))
    for index, pin in enumerate(pins):
        (_, (a,)), (_, (_, sy)) = list(pin)[:2]
        add(Request(("cq", [_atom("R", c(a)), _atom("S", c(a), v("y"))]), scenario=index))
        add(Request(("cq", [_atom("S", v("x"), c(sy)), _atom("T", c(sy))]), scenario=index))
        add(Request(h0, scenario=index))
        add(Request(("cq", [_atom("T", c(q.choice(names)))]), scenario=index))
    while len(hot) < HOT_SET:
        index = len(hot) % len(pins)
        forced = ("T", (q.choice(names),))
        spec = ("cq", [_atom("S", v("x"), c(forced[1][0])), _atom("T", c(forced[1][0]))])
        add(Request(spec, scenario=index, force={forced: True}))
    # A fixed permutation, not the workload seed, sets each class's Zipf
    # ranks, so every seed draws the same mix of request classes.
    random.Random("hot-order").shuffle(hot)
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(hot))]

    def fresh() -> Iterator[Request]:
        # First-seen parametric requests: never in the hot set, never
        # repeated, so each one misses every cache. Per four: a ladder CQ,
        # a safe-plan CQ (cheapest), a ladder CQ, a ladder UCQ (dearest), so
        # the first-seen median falls inside the ladder-CQ block. Each shape
        # takes two constants: 300^2 distinct requests per shape outlast any
        # run. The seed picks only the constants.
        tail = _rng(seed, "serve-fresh")
        for step in itertools.count():
            a, b = tail.choice(names), tail.choice(names)
            kind = step % 4
            if kind == 3:
                request = Request(("ucq_rt", "R", "S", "T", a, b))
            else:
                shape = (step // 4) % 2 if kind == 1 else kind // 2
                atoms = [
                    [_atom("R", c(a)), _atom("S", c(a), v("y")), _atom("T", c(b))],
                    [_atom("R", c(a)), _atom("S", v("x"), c(b)), _atom("T", c(b))],
                ][shape]
                request = Request(("cq", atoms), method="safe-plan" if kind == 1 else None)
            if request.key not in seen:
                seen.add(request.key)
                yield request

    return ServeInputs(facts, scenarios, pins, hot, weights, fresh())


# -- update_stream ---------------------------------------------------------------

#: R(x), T(x) over UPDATE_DOMAIN constants; S holds every pair except a
#: seeded reserve of UPDATE_RESERVE pairs that the stream inserts later,
#: so inserts never grow the domain: 2*130 + 130^2 - 1,690 = 15,470 facts,
#: above the engine's 5,000-fact columnar threshold. Small marginals keep
#: whole-relation answers inside (0.2, 0.8).
UPDATE_DOMAIN = 130
UPDATE_RESERVE = 1690


def _update_pairs(seed: int) -> Tuple[List[tuple], List[tuple]]:
    """(stored S pairs, reserved pairs in insertion order)."""
    names = [f"c{i}" for i in range(UPDATE_DOMAIN)]
    pairs = [(x, y) for x in names for y in names]
    _rng(seed, "update-reserve").shuffle(pairs)
    return pairs[UPDATE_RESERVE:], pairs[:UPDATE_RESERVE]


def update_facts(seed: int) -> Facts:
    rng = _rng(seed, "update-db")
    facts: Facts = {"R": {}, "S": {}, "T": {}}
    for i in range(UPDATE_DOMAIN):
        facts["R"][(f"c{i}",)] = rng.uniform(0.001, 0.01)
        facts["T"][(f"c{i}",)] = rng.uniform(0.001, 0.01)
    for pair in sorted(_update_pairs(seed)[0]):
        facts["S"][pair] = rng.uniform(0.001, 0.02)
    return facts


@dataclass
class Op:
    """A write (``fact``, ``probability``, ``add``) or a read (``request``)."""

    kind: str  # "write" | "read"
    request: Optional[Request] = None
    fact: Optional[Tuple[str, tuple]] = None
    probability: float = 0.0
    add: bool = False


def update_rounds(seed: int) -> Iterator[List[Op]]:
    """Rounds of 15 ops: 5 writes (set_fact on R, S and T, one insert of a
    reserved S pair), each followed by a constant-selective read; the three
    whole-relation reads (R-S, S-T and the liftable UCQ); one whole-relation
    safe-plan read and one constant UCQ that follow no write.

    Only the first read after a write pays for re-fingerprinting the
    database. Per round the reads fall into cost blocks (safe plan,
    constant UCQ, four single-constant CQs after writes, a constant UCQ
    after a write, three whole-relation reads), so that each latency
    median falls inside a block, not between two.
    """
    rng = _rng(seed, "update-ops")
    names = [f"c{i}" for i in range(UPDATE_DOMAIN)]
    stored, reserved = _update_pairs(seed)
    reserve = iter(reserved)

    def write(name: str, values: tuple, high: float, add: bool = False) -> Op:
        return Op("write", fact=(name, values), probability=rng.uniform(0.001, high), add=add)

    def read(spec: tuple, method: Optional[str] = None) -> Op:
        return Op("read", Request(spec, method=method))

    def rs(a: str) -> tuple:
        return ("cq", [_atom("R", c(a)), _atom("S", c(a), v("y"))])

    def st(b: str) -> tuple:
        return ("cq", [_atom("S", v("x"), c(b)), _atom("T", c(b))])

    whole_rs = ("cq", [_atom("R", v("x")), _atom("S", v("x"), v("y"))])
    while True:
        a, b, d, e = (rng.choice(names) for _ in range(4))
        yield [
            write("R", (a,), 0.01),
            read(rs(a)),
            read(whole_rs),
            write("S", rng.choice(stored), 0.02),
            read(st(b)),
            read(("cq", [_atom("S", v("x"), v("y")), _atom("T", v("y"))])),
            write("T", (e,), 0.01),
            read(rs(e)),
            read(("ucq_rt", "R", "S", "T", None, None)),
            write("S", rng.choice(stored), 0.02),
            read(st(a)),
            read(whole_rs, method="safe-plan"),
            write("S", next(reserve), 0.02, add=True),
            read(("ucq_rt", "R", "S", "T", a, d)),
            read(("ucq_rt", "R", "S", "T", b, e)),
        ]


# -- deadline_ladder -------------------------------------------------------------

#: Block shapes (blocks, side): every S edge lies inside one side x side
#: block, so lineages have 48 and 60 variables (above the exact limit of
#: 40) while the oracle enumerates at most 2^3 subsets per block.
BLOCK_SHAPES = ((6, 2), (4, 3))
#: Rounds of requests one server lifetime can answer without repeating a
#: query; the server restarts (outside the measured time) after each epoch.
LADDER_EPOCH_ROUNDS = 8
#: One round: (query kind, block shape index). Seven CQs and three
#: UCQs, so the overall median falls inside the CQ cluster and the UCQ
#: median inside the smaller-block UCQs, not between two clusters.
LADDER_ROUND = (
    ("h0", 0), ("h0", 1), ("h0", 0), ("h0", 1), ("h0", 0), ("h0", 1), ("h0", 1),
    ("h1", 0), ("h1", 0), ("h1", 1),
)
LADDER_DEADLINE_MS = 50.0


def _block_triple(facts: Facts, tag: str, blocks: int, side: int, rng: random.Random) -> None:
    r, s, t = f"R{tag}", f"S{tag}", f"T{tag}"
    facts[r], facts[s], facts[t] = {}, {}, {}
    for block in range(blocks):
        xs = [f"x{block}_{i}" for i in range(side)]
        ys = [f"y{block}_{i}" for i in range(side)]
        for x in xs:
            facts[r][(x,)] = rng.uniform(0.05, 0.3)
        for y in ys:
            facts[t][(y,)] = rng.uniform(0.05, 0.3)
        for x in xs:
            for y in ys:
                facts[s][(x, y)] = rng.uniform(0.05, 0.3)


@dataclass
class LadderInputs:
    facts: Facts
    rounds: List[List[Request]]
    warmup: Request


def ladder_inputs(seed: int) -> LadderInputs:
    """One epoch: each request names its own relation triple."""
    rng = _rng(seed, "ladder-db")
    facts: Facts = {}
    rounds: List[List[Request]] = []
    for index in range(LADDER_EPOCH_ROUNDS):
        round_: List[Request] = []
        for slot, (kind, shape) in enumerate(LADDER_ROUND):
            tag = f"{index}_{slot}"
            _block_triple(facts, tag, *BLOCK_SHAPES[shape], rng)
            spec = (kind, f"R{tag}", f"S{tag}", f"T{tag}")
            round_.append(Request(spec, deadline_ms=LADDER_DEADLINE_MS))
        rounds.append(round_)
    _block_triple(facts, "w", *BLOCK_SHAPES[0], rng)
    warmup = Request(("h0", "Rw", "Sw", "Tw"), deadline_ms=LADDER_DEADLINE_MS)
    return LadderInputs(facts, rounds, warmup)
