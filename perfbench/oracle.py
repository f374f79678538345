"""Independent reference probabilities for the benchmark's queries.

Nothing here imports the program under test. The oracle reads the CSV
files the benchmark wrote (header row, values, trailing ``P`` column) and
evaluates the benchmark's query shapes with its own formulas:

* hierarchical self-join-free CQs by the independent-project recursion
  ``P = 1 - prod_a (1 - P(q[x := a]))`` on a root variable;
* the liftable UCQ ``R(x),S(x,y) | T(u),S(u,v)`` (whole or with
  constants) in closed form;
* H0 ``R(x),S(x,y),T(y)`` and H1 ``R(x),S(x,y) | S(u,v),T(v)`` by
  enumerating the subsets of the unary relation ``R`` inside each
  connected block of ``S``, with ``S`` and ``T`` folded in as products,
  and a product over independent blocks;
* per-fact pinning to probability 0 or 1, which is how conditioning on
  fact assertions and denials, and what-if forces, act on a
  tuple-independent database.

Queries are plain data: an atom is ``(relation, terms)`` and a term is
``("v", name)`` or ``("c", value)``. A spec is one of
``("cq", atoms)``, ``("ucq_rt", R, S, T, a, b)``, ``("h0", R, S, T)`` or
``("h1", R, S, T)``.

``python3 perfbench/oracle.py`` checks every formula against
possible-world enumeration on small random instances and exits 1 on any
disagreement larger than 1e-12.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
import random
import sys
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

Fact = Tuple[str, Tuple[str, ...]]
Term = Tuple[str, str]
Atom = Tuple[str, Tuple[Term, ...]]


class Database:
    """Relations as ``{name: {values: probability}}`` plus lazy indexes."""

    def __init__(self, relations: Optional[Dict[str, Dict[tuple, float]]] = None):
        self.relations: Dict[str, Dict[tuple, float]] = relations or {}
        self._index: Dict[tuple, Dict[str, List[tuple]]] = {}

    @classmethod
    def from_csv_dir(cls, directory: str) -> "Database":
        relations: Dict[str, Dict[tuple, float]] = {}
        for entry in sorted(os.listdir(directory)):
            if not entry.endswith(".csv"):
                continue
            with open(os.path.join(directory, entry), newline="") as handle:
                rows = csv.reader(handle)
                header = next(rows)
                if header[-1].strip().lower() != "p":
                    raise ValueError(f"{entry}: last column must be P")
                table = relations.setdefault(entry[: -len(".csv")], {})
                for row in rows:
                    if row:
                        table[tuple(v.strip() for v in row[:-1])] = float(row[-1])
        return cls(relations)

    def probability(self, fact: Fact) -> float:
        return self.relations.get(fact[0], {}).get(fact[1], 0.0)

    def set(self, fact: Fact, probability: float) -> None:
        self.relations.setdefault(fact[0], {})[fact[1]] = probability
        self._index.clear()

    def pinned(self, forces: Mapping[Fact, bool]) -> "Database":
        """A copy with each forced fact's probability set to 1 or 0."""
        relations = {name: dict(rows) for name, rows in self.relations.items()}
        for (name, values), value in forces.items():
            relations.setdefault(name, {})[values] = 1.0 if value else 0.0
        return Database(relations)

    def matching(self, name: str, position: int, value: str) -> List[tuple]:
        """Tuples of *name* whose column *position* holds *value*."""
        key = (name, position)
        index = self._index.get(key)
        if index is None:
            index = {}
            for values in self.relations.get(name, {}):
                index.setdefault(values[position], []).append(values)
            self._index[key] = index
        return index.get(value, [])


# -- hierarchical conjunctive queries ------------------------------------------


def _variables(atom: Atom) -> set:
    return {t[1] for t in atom[1] if t[0] == "v"}


def _components(atoms: Sequence[Atom]) -> List[List[Atom]]:
    remaining = list(atoms)
    out: List[List[Atom]] = []
    while remaining:
        group = [remaining.pop()]
        names = _variables(group[0])
        changed = True
        while changed:
            changed = False
            for atom in list(remaining):
                if _variables(atom) & names:
                    remaining.remove(atom)
                    group.append(atom)
                    names |= _variables(atom)
                    changed = True
        out.append(group)
    return out


def _substitute(atoms: Sequence[Atom], name: str, value: str) -> List[Atom]:
    return [
        (rel, tuple(("c", value) if t == ("v", name) else t for t in terms))
        for rel, terms in atoms
    ]


def _candidates(db: Database, atom: Atom, name: str) -> set:
    """Values the variable *name* takes in tuples matching *atom*."""
    rel, terms = atom
    constants = [(i, t[1]) for i, t in enumerate(terms) if t[0] == "c"]
    if constants:
        rows: Iterable[tuple] = db.matching(rel, constants[0][0], constants[0][1])
    else:
        rows = db.relations.get(rel, {})
    positions = [i for i, t in enumerate(terms) if t == ("v", name)]
    out = set()
    for values in rows:
        if all(values[i] == c for i, c in constants):
            if all(values[p] == values[positions[0]] for p in positions):
                out.add(values[positions[0]])
    return out


def cq_probability(db: Database, atoms: Sequence[Atom]) -> float:
    """P(q) for a hierarchical, self-join-free Boolean CQ."""
    product = 1.0
    for group in _components(atoms):
        product *= _connected_cq(db, group)
    return product


def _connected_cq(db: Database, atoms: Sequence[Atom]) -> float:
    names = set().union(*(_variables(a) for a in atoms))
    if not names:
        product = 1.0
        for rel, terms in atoms:
            product *= db.probability((rel, tuple(t[1] for t in terms)))
        return product
    roots = [n for n in sorted(names) if all(n in _variables(a) for a in atoms)]
    if not roots:
        raise ValueError("query is not hierarchical")
    root = roots[0]
    values = None
    for atom in atoms:
        found = _candidates(db, atom, root)
        values = found if values is None else values & found
    miss = 1.0
    for value in sorted(values or ()):
        miss *= 1.0 - cq_probability(db, _substitute(atoms, root, value))
    return 1.0 - miss


# -- the liftable UCQ R(x),S(x,y) | T(u),S(u,v) --------------------------------


def _some_edge(db: Database, s: str, x: str) -> float:
    miss = 1.0
    for values in db.matching(s, 0, x):
        miss *= 1.0 - db.relations[s][values]
    return 1.0 - miss


def ucq_rt_probability(
    db: Database, r: str, s: str, t: str, a: Optional[str], b: Optional[str]
) -> float:
    """P(R(a),S(a,y) | T(b),S(b,v)); ``None`` constants mean variables.

    Both constants are given or neither is. Per source value x the two
    disjuncts share S(x, .), so P_x = P(R(x) or T(x)) * P(some S(x, .)),
    and distinct sources are independent.
    """
    def unary(name: str, x: str) -> float:
        return db.probability((name, (x,)))

    def both(x: str) -> float:
        either = 1.0 - (1.0 - unary(r, x)) * (1.0 - unary(t, x))
        return either * _some_edge(db, s, x)

    if a is None and b is None:
        miss = 1.0
        for x in sorted({values[0] for values in db.relations.get(s, {})}):
            miss *= 1.0 - both(x)
        return 1.0 - miss
    if a == b:
        return both(a)
    left = unary(r, a) * _some_edge(db, s, a)
    right = unary(t, b) * _some_edge(db, s, b)
    return 1.0 - (1.0 - left) * (1.0 - right)


# -- H0 / H1 by subset enumeration over independent blocks ---------------------


def _blocks(db: Database, s: str) -> List[Tuple[List[str], List[str]]]:
    """Connected components of the bipartite S graph as (xs, ys)."""
    parent: Dict[tuple, tuple] = {}

    def find(node: tuple) -> tuple:
        while parent.setdefault(node, node) != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for x, y in db.relations.get(s, {}):
        parent[find(("x", x))] = find(("y", y))
    groups: Dict[tuple, Tuple[List[str], List[str]]] = {}
    for node in list(parent):
        xs, ys = groups.setdefault(find(node), ([], []))
        (xs if node[0] == "x" else ys).append(node[1])
    return [(sorted(xs), sorted(ys)) for xs, ys in groups.values()]


def _block_h(db: Database, r: str, s: str, t: str, xs, ys, union: bool) -> float:
    """P(H0) (``union=False``) or P(H1) on one block of S."""
    edges = db.relations.get(s, {})
    rp = [db.probability((r, (x,))) for x in xs]
    tp = [db.probability((t, (y,))) for y in ys]
    miss = [[1.0 - edges.get((x, y), 0.0) for y in ys] for x in xs]
    total = 0.0
    for chosen in itertools.product((False, True), repeat=len(xs)):
        weight = 1.0
        for p, inside in zip(rp, chosen):
            weight *= p if inside else 1.0 - p
        if weight == 0.0:
            continue
        false = 1.0
        for j, ty in enumerate(tp):
            in_a = 1.0
            out_a = 1.0
            for i, inside in enumerate(chosen):
                if inside:
                    in_a *= miss[i][j]
                else:
                    out_a *= miss[i][j]
            if union:
                # every S(x, y) from R-chosen x absent, and T(y) absent or
                # no S(., y) at all
                false *= in_a * ((1.0 - ty) + ty * out_a)
            else:
                false *= 1.0 - ty * (1.0 - in_a)
        total += weight * (1.0 - false)
    return total


def h_probability(db: Database, r: str, s: str, t: str, union: bool) -> float:
    miss = 1.0
    for xs, ys in _blocks(db, s):
        miss *= 1.0 - _block_h(db, r, s, t, xs, ys, union)
    return 1.0 - miss


# -- dispatch ------------------------------------------------------------------


def reference(db: Database, spec: tuple, forces: Optional[Mapping[Fact, bool]] = None) -> float:
    """The reference probability of *spec*, with *forces* pinned first."""
    if forces:
        db = db.pinned(forces)
    kind = spec[0]
    if kind == "cq":
        return cq_probability(db, spec[1])
    if kind == "ucq_rt":
        return ucq_rt_probability(db, *spec[1:])
    if kind in ("h0", "h1"):
        return h_probability(db, *spec[1:], union=kind == "h1")
    raise ValueError(f"unknown query spec {kind!r}")


# -- possible-world check --------------------------------------------------------


def _satisfied(world: set, atoms: Sequence[Atom], binding: Dict[str, str]) -> bool:
    if not atoms:
        return True
    rel, terms = atoms[0]
    for name, values in world:
        if name != rel or len(values) != len(terms):
            continue
        local = dict(binding)
        ok = True
        for term, value in zip(terms, values):
            if term[0] == "c":
                ok = term[1] == value
            elif local.setdefault(term[1], value) != value:
                ok = False
            if not ok:
                break
        if ok and _satisfied(world, atoms[1:], local):
            return True
    return False


def _as_ucq(spec: tuple) -> List[List[Atom]]:
    """The spec as a list of CQ bodies, for world-by-world evaluation."""
    v, c = (lambda n: ("v", n)), (lambda n: ("c", n))
    kind = spec[0]
    if kind == "cq":
        return [list(spec[1])]
    if kind == "ucq_rt":
        r, s, t, a, b = spec[1:]
        left = v("x") if a is None else c(a)
        right = v("u") if b is None else c(b)
        return [
            [(r, (left,)), (s, (left, v("y")))],
            [(t, (right,)), (s, (right, v("w")))],
        ]
    r, s, t = spec[1:]
    if kind == "h0":
        return [[(r, (v("x"),)), (s, (v("x"), v("y"))), (t, (v("y"),))]]
    return [
        [(r, (v("x"),)), (s, (v("x"), v("y")))],
        [(s, (v("u"), v("w"))), (t, (v("w"),))],
    ]


def brute_force(db: Database, spec: tuple, forces: Optional[Mapping[Fact, bool]] = None) -> float:
    """P(spec) by enumerating every possible world of *db*."""
    if forces:
        db = db.pinned(forces)
    facts = [
        ((name, values), p)
        for name, rows in sorted(db.relations.items())
        for values, p in sorted(rows.items())
        if p > 0.0
    ]
    bodies = _as_ucq(spec)
    total = 0.0
    for bits in itertools.product((False, True), repeat=len(facts)):
        weight = 1.0
        world = set()
        for inside, (fact, p) in zip(bits, facts):
            weight *= p if inside else 1.0 - p
            if inside:
                world.add(fact)
        if weight and any(_satisfied(world, body, {}) for body in bodies):
            total += weight
    return total


def _random_instance(rng: random.Random, xs: int, ys: int, edges: int) -> Database:
    relations: Dict[str, Dict[tuple, float]] = {"R": {}, "S": {}, "T": {}}
    domain = [f"c{i}" for i in range(max(xs, ys))]
    for x in rng.sample(domain[:xs], max(1, xs - 1)):
        relations["R"][(x,)] = round(rng.uniform(0.05, 0.95), 3)
    for y in rng.sample(domain[:ys], max(1, ys - 1)):
        relations["T"][(y,)] = round(rng.uniform(0.05, 0.95), 3)
    pairs = [(x, y) for x in domain[:xs] for y in domain[:ys]]
    for pair in rng.sample(pairs, min(edges, len(pairs))):
        relations["S"][pair] = round(rng.uniform(0.05, 0.95), 3)
    return Database(relations)


def self_check(instances: int = 60, seed: int = 0) -> float:
    """Worst disagreement between the formulas and world enumeration."""
    rng = random.Random(seed)
    v, c = (lambda n: ("v", n)), (lambda n: ("c", n))
    worst = 0.0
    for _ in range(instances):
        db = _random_instance(rng, rng.randint(2, 4), rng.randint(2, 4), rng.randint(3, 7))
        a, b = rng.choice(["c0", "c1"]), rng.choice(["c0", "c1"])
        specs = [
            ("cq", [("R", (v("x"),)), ("S", (v("x"), v("y")))]),
            ("cq", [("S", (v("x"), v("y"))), ("T", (v("y"),))]),
            ("cq", [("R", (c(a),)), ("S", (c(a), v("y"))), ("T", (v("y"),))]),
            ("cq", [("R", (v("x"),)), ("S", (v("x"), c(b))), ("T", (c(b),))]),
            ("cq", [("R", (c(a),)), ("S", (c(a), c(b)))]),
            ("ucq_rt", "R", "S", "T", None, None),
            ("ucq_rt", "R", "S", "T", a, b),
            ("h0", "R", "S", "T"),
            ("h1", "R", "S", "T"),
        ]
        facts = [(n, vals) for n, rows in db.relations.items() for vals in rows]
        forces = {fact: rng.random() < 0.5 for fact in rng.sample(facts, 2)}
        for spec in specs:
            for pins in (None, forces):
                gap = abs(reference(db, spec, pins) - brute_force(db, spec, pins))
                worst = max(worst, gap)
    return worst


def main() -> int:
    worst = self_check()
    ok = worst <= 1e-12 and math.isfinite(worst)
    print(f"oracle vs possible worlds: worst gap {worst:.3g} ({'ok' if ok else 'FAILED'})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
