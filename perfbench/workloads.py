"""Seeded inputs and engine-independent oracles for the repo benchmark.

Every generator draws from a ``random.Random`` seeded by the caller, so
the same seed gives byte-identical files.  The oracles here share no code
with the program under test: closures are Warshall's algorithm over
Python integer bitsets, the social answer is a hash join plus two
anti-joins, and outputs are rendered with plain string formatting.
"""

import json
import random

TC_PROGRAM = "T(X, Y) :- G(X, Y).\nT(X, Y) :- G(X, Z), T(Z, Y).\n"

SOCIAL_PROGRAM = (
    "Fof(X, Z) :- Lives(X, c0), F(X, Y), F(Y, Z), Likes(Z, t0).\n"
    "Rec(X, Z) :- Fof(X, Z), !F(X, Z), !Blocked(Z).\n")


def vname(i):
    return "v%d" % i


def pname(i):
    return "p%d" % i


def fact(pred, *args):
    return "%s(%s)." % (pred, ", ".join(args))


def render(facts):
    """Fact lines sorted the way Instance.pp sorts them: by predicate,
    then lexicographically by (symbol) arguments."""
    return "".join(fact(p, *args) + "\n" for p, args in sorted(facts))


# --- graphs ------------------------------------------------------------------

def dag_edge(rng, n):
    a, b = rng.randrange(n), rng.randrange(n)
    while a == b:
        a, b = rng.randrange(n), rng.randrange(n)
    return (min(a, b), max(a, b))


def dag_graph(rng, n, m, closure=None):
    """m distinct edges on n vertices, all from a lower to a higher index.
    With ``closure``, redraw until the transitive closure has within 1.5%
    of that many facts: the closure size drives every cost of the
    workload, so pinning it keeps runs with different seeds comparable."""
    while True:
        edges = set()
        while len(edges) < m:
            edges.add(dag_edge(rng, n))
        edges = sorted(edges)
        if closure is None:
            return edges
        size = sum(bin(r).count("1") for r in closure_bits(n, edges))
        if abs(size - closure) <= 0.015 * closure:
            return edges


def closure_bits(n, edges):
    """Warshall's transitive closure: reach[i] is the bitset of vertices
    reachable from i in one or more steps."""
    reach = [0] * n
    for a, b in edges:
        reach[a] |= 1 << b
    for k in range(n):
        bit, rk = 1 << k, reach[k]
        for i in range(n):
            if reach[i] & bit:
                reach[i] |= rk
    return reach


def bits(x):
    out, i = [], 0
    while x:
        if x & 1:
            out.append(i)
        x >>= 1
        i += 1
    return out


def tc_facts(n, edges, names):
    reach = closure_bits(n, edges)
    return [("T", (names[a], names[b])) for a in range(n) for b in bits(reach[a])]


def edge_facts(edges, names):
    return [("G", (names[a], names[b])) for a, b in edges]


def reachable(succ, v):
    """Vertices reachable from v in one or more steps over adjacency sets."""
    seen, stack = set(), list(succ.get(v, ()))
    while stack:
        x = stack.pop()
        if x not in seen:
            seen.add(x)
            stack.extend(succ.get(x, ()))
    return seen


# --- the social network ------------------------------------------------------

def social_edb(rng, people, follows, cities, topics, likes, blocked_frac):
    """Follows F (``follows`` per person), one Lives city each, ``likes``
    Likes topics each, and a Blocked subset."""
    f, lives, lk, blocked = [], [], [], []
    for p in range(people):
        for q in rng.sample(range(people - 1), follows):
            f.append((p, q + 1 if q >= p else q))
        lives.append((p, rng.randrange(cities)))
        for t in rng.sample(range(topics), likes):
            lk.append((p, t))
        if rng.random() < blocked_frac:
            blocked.append(p)
    return {"F": f, "Lives": lives, "Likes": lk, "Blocked": blocked}


def social_text(edb):
    out = []
    out.extend(fact("F", pname(a), pname(b)) for a, b in edb["F"])
    out.extend(fact("Lives", pname(p), "c%d" % c) for p, c in edb["Lives"])
    out.extend(fact("Likes", pname(p), "t%d" % t) for p, t in edb["Likes"])
    out.extend(fact("Blocked", pname(p)) for p in edb["Blocked"])
    return "\n".join(out) + "\n"


def successors(edges):
    succ = {}
    for a, b in edges:
        succ.setdefault(a, set()).add(b)
    return succ


def social_rec(edb):
    """The Rec answers: a hash join for Fof (friends of friends of a c0
    resident who like t0), then anti-joins against F and Blocked."""
    resident = [p for p, c in edb["Lives"] if c == 0]
    likes0 = {p for p, t in edb["Likes"] if t == 0}
    blocked = set(edb["Blocked"])
    succ = successors(edb["F"])
    return [("Rec", (pname(x), pname(z)))
            for x in resident
            for z in {z for y in succ.get(x, ()) for z in succ.get(y, ())
                      if z in likes0}
            if z not in succ.get(x, ()) and z not in blocked]


# --- server schedules --------------------------------------------------------

class LiveEdges:
    """A set of edges with O(1) uniform choice, for retracting live edges."""

    def __init__(self, edges):
        self.items = list(edges)
        self.index = {e: i for i, e in enumerate(self.items)}

    def __contains__(self, e):
        return e in self.index

    def add(self, e):
        self.index[e] = len(self.items)
        self.items.append(e)

    def remove(self, e):
        i = self.index.pop(e)
        last = self.items.pop()
        if i < len(self.items):
            self.items[i] = last
            self.index[last] = i

    def choice(self, rng):
        return self.items[rng.randrange(len(self.items))]


def schedule(rng, live, new_edge, query_key, mix, temp):
    """An endless closed-loop request schedule of (kind, arg) pairs:
    ``mix`` gives the shares of (materialized query, demand query, write).
    Asserts add an edge that is not live, and retracts remove one that an
    earlier assert added, so every write has a known effect on the base
    facts.  A write asserts while fewer than ``temp`` added edges are
    live, retracts while more are, and either at even odds at ``temp``.
    So half the writes are asserts, and the graph drawn for the seed stays
    under the writes: the cost of every operation stays put over a run
    instead of drifting as the graph is rewritten.  ``live`` (a
    LiveEdges) is advanced as the schedule is drawn."""
    q, d, _ = mix
    added = LiveEdges(())
    while True:
        r = rng.random()
        n = len(added.items)
        if r < q:
            yield ("query", query_key(rng))
        elif r < q + d:
            yield ("demand", query_key(rng))
        elif n < temp or (n == temp and rng.random() < 0.5):
            e = new_edge(rng)
            while e in live:
                e = new_edge(rng)
            live.add(e)
            added.add(e)
            yield ("assert", e)
        else:
            e = added.choice(rng)
            added.remove(e)
            live.remove(e)
            yield ("retract", e)


def apply_edge(succ, kind, e):
    a, b = e
    if kind == "assert":
        succ.setdefault(a, set()).add(b)
    else:
        succ[a].discard(b)


class Dag:
    """The oracle side of TC served over a DAG."""

    def __init__(self, n, edges, names):
        self.n, self.succ, self.names = n, successors(edges), names

    def apply(self, kind, e):
        apply_edge(self.succ, kind, e)

    def answer(self, v):
        return {fact("T", self.names[v], self.names[w]) for w in reachable(self.succ, v)}

    def view(self):
        edges = [(a, b) for a, bs in self.succ.items() for b in bs]
        return {fact(p, *args) for p, args in tc_facts(self.n, edges, self.names)}


# --- workloads ----------------------------------------------------------------

# shares of (materialized query, demand query, write); writes are half
# asserts, half retracts
MIX = (0.55, 0.05, 0.40)
# edges added by asserts that are live at a time, give or take one
TEMP_EDGES = 64


def request(kind, text):
    """One protocol request line (see lib/server/protocol.mli)."""
    if kind == "query":
        obj = {"op": "query", "atom": text}
    elif kind == "demand":
        obj = {"op": "query", "atom": text, "via": "demand"}
    else:
        obj = {"op": kind, "facts": text}
    return json.dumps(obj, separators=(",", ":")) + "\n"


class Batch:
    """A ``run`` invocation and the exact stdout it must produce."""

    def __init__(self, program, facts, engine, answer, expected):
        self.program, self.facts = program, facts
        self.engine, self.answer, self.expected = engine, answer, expected


# the shapes drawn so far, by (n, m, closure)
SHAPES = {}


def dag_shape(n, m, closure):
    """The DAG that every seed shares at one size, drawn once from a fixed
    seed."""
    key = (n, m, closure)
    if key not in SHAPES:
        SHAPES[key] = dag_graph(random.Random("dag-shape"), n, m, closure)
    return SHAPES[key]


class DagServe:
    """TC served over a DAG: the program, its base facts, an oracle
    factory and an endless request schedule from its own seed.  The DAG's
    shape is the same for every seed, and the seed names its vertices
    (vertex i is called names[i]): the cost of a demand query or a DRed
    retract depends on the shape, and one shape keeps the runs of
    different seeds comparable."""

    program = TC_PROGRAM
    probe = 0  # the vertex of the query that times a cold start
    view_atom = "T(X, Y)"

    def __init__(self, rng, n, m, closure):
        self.n = n
        self.edges = dag_shape(n, m, closure)
        order = list(range(n))
        rng.shuffle(order)
        self.names = [vname(i) for i in order]
        self.facts = render(edge_facts(self.edges, self.names))
        self.seed = rng.randrange(1 << 30)

    def oracle(self):
        return Dag(self.n, self.edges, self.names)

    def atom(self, v):
        return "T(%s, Y)" % self.names[v]

    def requests(self):
        """(kind, arg, line) triples; kind is query, demand, assert or
        retract, arg the query vertex or the edge."""
        rng = random.Random(self.seed)
        n = self.n
        for kind, arg in schedule(rng, LiveEdges(self.edges), lambda r: dag_edge(r, n),
                                  lambda r: r.randrange(n), MIX, TEMP_EDGES):
            if kind in ("query", "demand"):
                text = self.atom(arg)
            else:
                text = fact("G", self.names[arg[0]], self.names[arg[1]])
            yield kind, arg, request(kind, text)


def tc_batch(serve):
    edges, names = serve.edges, serve.names
    return Batch(TC_PROGRAM, serve.facts, "seminaive", None,
                 render(edge_facts(edges, names) + tc_facts(serve.n, edges, names)))


# name -> sizes; "tiny" is for the benchmark's own tests
SIZES = {
    "full": {"dag": (1000, 3000, 42000), "people": 20000},
    "tiny": {"dag": (40, 120, None), "people": 400},
}

NAMES = ("social-ingest", "serve-mixed")


def build(name, seed, scale="full"):
    """(batch, serve) for one workload; the same (name, seed, scale) gives
    byte-identical inputs."""
    size = SIZES[scale]
    rng = random.Random("%s:%d" % (name, seed))
    if name == "serve-mixed":
        serve = DagServe(rng, *size["dag"])
        return tc_batch(serve), serve
    if name == "social-ingest":
        people = size["people"]
        edb = social_edb(rng, people, follows=5, cities=people // 200,
                         topics=people // 100, likes=2, blocked_frac=0.5)
        batch = Batch(SOCIAL_PROGRAM, social_text(edb), "stratified", "Rec",
                      render(social_rec(edb)))
        return batch, DagServe(rng, *size["dag"])
    raise KeyError(name)
