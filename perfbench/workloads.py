"""The benchmark's four workloads and the seeded generators behind them.

A workload is a list of Invocations: the argv given to
`python -m hurwitz.cli`, what a correct run prints, and which inputs
the traced pass replays through the layers. Generated inputs depend
only on the seed. The generators never import the package: graphs are
valid by construction, and their expected divisors come from what was
built, not from hurwitz.stablemap.
"""

import json
import random
from dataclasses import dataclass, field

from reference import covered


@dataclass
class Invocation:
    argv: list
    kind: str      # compute | table | crosscheck | branch-divisor
    expect: dict   # what a correct run prints; see checks.py
    replay: dict = field(default_factory=dict)  # inputs for the layer replay


@dataclass
class Workload:
    name: str
    invocations: list
    # seconds one pass took at the parent commit on a 2-CPU x86 machine;
    # sets how many passes a run of --seconds makes, so that parent and
    # change always measure the same invocations
    nominal_pass_s: float


def _compute(g, d, method):
    argv = ["compute", "-g", str(g), "-d", str(d), "--method", method]
    valid = (
        g >= 0 and d >= 1
        and not (method == "recursion" and g > 2)
        and not (method in ("closed-form", "elsv-g0") and g > 0)
    )
    if not valid:
        return Invocation(argv, "compute", {"status": "invalid-input"})
    return Invocation(argv, "compute",
                      {"status": "ok", "genus": g, "degree": d,
                       "method": method},
                      {"cells": [[g, d, method]]})


# table-character and crosscheck run by name but are not in
# BENCHMARK.json: each pass is one multi-second compute-bound process, and
# on a 2-CPU machine whose speed drifts by up to 1.9x over tens of seconds
# their ten-seed spreads reached 0.38, beyond the largest bound allowed.
# lookups carries their character and oracle work in the meantime.

# --- table-character --------------------------------------------------
# Why: the partitions, character and series modules do over 95% of the
# work and no other route runs. A faster character log (one-variable
# content polynomials) must show its gain here. The inputs are fixed;
# the seed does not change them.
def table_character(seed, workdir):
    gmax, dmax = 5, 12
    inv = Invocation(
        ["table", "--method", "character", "--gmax", str(gmax),
         "--dmax", str(dmax), "--format", "json"],
        "table", {"gmax": gmax, "dmax": dmax},
        {"cells": [[g, d, "character"] for g in range(gmax + 1)
                   for d in range(1, dmax + 1)]},
    )
    return Workload("table-character", [inv], 3.0)


# --- crosscheck -------------------------------------------------------
# Why: every route and the cross-check plumbing in cli run here. The
# oracle walk is about 75% of the time (cell (1,4), r=8, alone takes
# 1.5 s) and character work is small, so a faster oracle or thinner
# table plumbing shows here. It is the widest range that fits today:
# adding (0,5) or (2,4) costs 30 s or 62 s of oracle time.
def crosscheck(seed, workdir):
    gmax, dmax = 1, 4
    inv = Invocation(
        ["crosscheck", "--gmax", str(gmax), "--dmax", str(dmax)],
        "crosscheck", {"gmax": gmax, "dmax": dmax},
        {"crosscheck": [gmax, dmax]},
    )
    return Workload("crosscheck", [inv], 2.0)


# --- lookups ----------------------------------------------------------
# Why: every request pays interpreter start and cold caches, the
# opposite of the warm caches table-character builds up, so work moved
# into import or into a whole-range batch shows here as worse setup_s or
# latency. It is also the only workload where recursion and intersection
# do real work (h1 at d=150 about 0.4 s cold, elsv-g0 at d=11 about
# 0.35 s). Each stratum fixes a method and a band of cost; the seed
# draws the cells inside it, so the total work of a pass barely depends
# on the seed.
#
# Ranges: character g<=3, d<=12; recursion g<=2, d<=150 (genus 2 only
# up to d=20, the end of the stored reference table: no second route
# reaches h2 beyond it); closed-form d<=400; elsv-g0 3<=d<=11; oracle
# d<=4, r<=8. Deep recursion (d>=500, a RecursionError today) stays out
# only because a fixed version would take seconds per request. Requests
# whose outcome depends on the oracle bound stay out, because that bound
# is due to be re-derived.
_ORACLE_CELLS = [(g, d) for d in range(1, 5) for g in range(5)
                 if 2 * g - 2 + 2 * d <= 8 and (g, d) != (1, 4)]

_LOOKUP_STRATA = [
    # (count, method, genus range, degree range)
    (6, "character", (0, 3), (1, 9)),
    (4, "character", (2, 3), (12, 12)),
    (4, "recursion", (0, 1), (1, 60)),
    (2, "recursion", (2, 2), (10, 20)),
    (1, "recursion", (0, 0), (145, 150)),
    (1, "recursion", (1, 1), (145, 150)),
    (8, "closed-form", (0, 0), (1, 400)),
    (4, "elsv-g0", (0, 0), (3, 9)),
    (1, "elsv-g0", (0, 0), (11, 11)),
]


def _invalid_lookup(rng, variant):
    # requests that must exit 2 by design
    if variant == 0:
        return _compute(rng.randint(3, 6), rng.randint(1, 12), "recursion")
    if variant == 1:
        return _compute(rng.randint(1, 4), rng.randint(1, 400),
                        "closed-form")
    if variant == 2:
        return _compute(rng.randint(1, 4), rng.randint(3, 11), "elsv-g0")
    method = rng.choice(["character", "recursion", "closed-form"])
    if variant == 3:
        return _compute(rng.randint(-3, -1), rng.randint(1, 12), method)
    return _compute(rng.randint(0, 3), rng.randint(-2, 0), method)


def lookups(seed, workdir):
    rng = random.Random(f"lookups:{seed}")
    invs = []
    for count, method, (g_lo, g_hi), (d_lo, d_hi) in _LOOKUP_STRATA:
        for _ in range(count):
            g = rng.randint(g_lo, g_hi)
            d = rng.randint(d_lo, d_hi)
            invs.append(_compute(g, d, method))
    for g, d in rng.sample(_ORACLE_CELLS, 3) + [(1, 4)]:
        invs.append(_compute(g, d, "oracle"))
    for variant in range(5):
        invs.append(_invalid_lookup(rng, variant))
    rng.shuffle(invs)
    for inv in invs:
        cells = inv.replay.get("cells")
        if cells and not covered(*cells[0][:2]):
            raise AssertionError(f"no reference for {inv.argv}")
    return Workload("lookups", invs, 9.0)


# --- branch-divisor ---------------------------------------------------
# Why: the only workload where stablemap runs. On large graphs loading
# and validation dominate (10k components: load_graph 0.51 s, validate
# 0.18 s, branch_divisor 0.23 s, which validates again), and peak_rss_mb
# moves only here. Rejected inputs exercise validation without
# evaluation. A directory or binary --input ends in a traceback with
# exit 1 instead of 2 today; those inputs stay, and count as failures.
# Component counts and target genera are fixed per document, so that the
# largest one, which sets peak_rss_mb, is alike for every seed; the seed
# draws the structure.
_VALID_SIZES = (2, 6, 30, 150, 600, 2500, 10000)


def _random_partition(rng, n):
    parts = []
    while n:
        part = rng.randint(1, n)
        parts.append(part)
        n -= part
    return sorted(parts, reverse=True)


class _GraphMaker:
    """A valid stable-map graph, built with its expected branch divisor."""

    def __init__(self, rng, n_components, target_genus, prefix="c"):
        self.rng = rng
        self.h = target_genus
        n_points = max(12, n_components // 3)
        self.points = [f"p{i}" for i in range(n_points)]
        self.divisor = {}
        self.components = []
        self.nodes = []
        n_contracted = (n_components * 3) // 10 if n_components > 2 else 0
        n_dominant = n_components - n_contracted
        ids = [f"{prefix}{i}" for i in range(n_components)]
        rng.shuffle(ids)
        dominant = [self._dominant(cid) for cid in ids[:n_dominant]]
        for i in range(1, n_dominant):  # spanning tree
            self._node(dominant[i], dominant[rng.randrange(i)])
        for _ in range(n_dominant // 8):  # cycles
            self._node(rng.choice(dominant), rng.choice(dominant))
        for _ in range(n_dominant // 20):  # self-nodes
            cid = rng.choice(dominant)
            self._node(cid, cid)
        by_image = {}
        for cid in ids[n_dominant:]:
            genus = rng.choice((0, 1, 2))
            image = rng.choice(self.points)
            self.components.append(
                {"kind": "contracted", "id": cid, "genus": genus,
                 "image": image})
            self._add(image, 2 * genus - 2)
            peers = by_image.setdefault(image, [])
            anchor = (rng.choice(peers) if peers and rng.random() < 0.3
                      else rng.choice(dominant))
            self._node(cid, anchor, image)
            peers.append(cid)
            if genus == 0:  # stability: at least three node branches
                if rng.random() < 0.5:
                    self._node(cid, cid, image)
                else:
                    self._node(cid, rng.choice(dominant), image)
                    self._node(cid, rng.choice(dominant), image)
            elif rng.random() < 0.2:
                self._node(cid, cid, image)
        rng.shuffle(self.components)
        rng.shuffle(self.nodes)
        self.degree = sum(c.get("degree", 0) for c in self.components)
        self.source_genus = (sum(c["genus"] for c in self.components)
                             + len(self.nodes) - n_components + 1)
        self.rh_degree = (2 * self.source_genus - 2
                          - self.degree * (2 * self.h - 2))
        self.divisor = {p: c for p, c in self.divisor.items() if c}
        if sum(self.divisor.values()) != self.rh_degree or \
                min(self.divisor.values(), default=0) < 0:
            raise AssertionError("generator built an inconsistent graph")

    def _add(self, point, amount):
        self.divisor[point] = self.divisor.get(point, 0) + amount

    def _node(self, a, b, image=None):
        image = image or self.rng.choice(self.points)
        self.nodes.append({"branches": [a, b], "image": image})
        self._add(image, 2)

    def _dominant(self, cid):
        rng = self.rng
        degree = rng.choice((1, 1, 2, 2, 3, 4))
        free = rng.sample(self.points, 12)  # enough for any padding
        profiles = [(free.pop(), _random_partition(rng, degree))
                    for _ in range(rng.randint(0, 3))]
        extra = sum(degree - len(p) for _, p in profiles)
        # Riemann-Hurwitz: 2g - 2 = degree (2h - 2) + extra; pad with
        # simple branch points until g is a nonnegative integer
        while degree > 1 and (extra % 2 or
                              degree * (self.h - 1) + 1 + extra // 2 < 0):
            profiles.append((free.pop(), [2] + [1] * (degree - 2)))
            extra += 1
        genus = degree * (self.h - 1) + 1 + extra // 2
        entry = {"kind": "dominant", "id": cid, "genus": genus,
                 "degree": degree}
        if profiles:
            entry["ramification"] = [{"point": p, "profile": prof}
                                     for p, prof in profiles]
        for point, prof in profiles:
            self._add(point, degree - len(prof))
        self.components.append(entry)
        return cid

    def document(self):
        return {"target_genus": self.h, "components": self.components,
                "nodes": self.nodes}

    def expected_output(self):
        return {
            "status": "ok",
            "target_genus": self.h,
            "map_degree": self.degree,
            "source_genus": self.source_genus,
            "divisor": dict(sorted(self.divisor.items())),
            "divisor_degree": self.rh_degree,
            "expected_degree": self.rh_degree,
            "degree_check": "ok",
            "effective": True,
        }


def branch_divisor(seed, workdir):
    rng = random.Random(f"branch-divisor:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    invs = []

    def add(name, payload, expect):
        path = workdir / name
        if isinstance(payload, bytes):
            path.write_bytes(payload)
        elif payload is None:
            path.mkdir(exist_ok=True)
        else:
            path.write_text(payload)
        invs.append(Invocation(["branch-divisor", "--input", str(path)],
                               "branch-divisor", expect,
                               {"graph": str(path)}))

    for i, n in enumerate(_VALID_SIZES):
        graph = _GraphMaker(rng, n, i % 3)
        add(f"valid-{n}.json", json.dumps(graph.document()),
            graph.expected_output())
    rejected = {"status": "invalid-input"}
    h = rng.randint(0, 2)
    left = _GraphMaker(rng, 300, h, "a").document()
    right = _GraphMaker(rng, 300, h, "b").document()
    left["components"] += right["components"]
    left["nodes"] += right["nodes"]
    add("disconnected.json", json.dumps(left), rejected)
    doc = _GraphMaker(rng, 1000, rng.randint(0, 2)).document()
    victim = rng.choice([c for c in doc["components"]
                         if c["kind"] == "dominant"])
    victim["genus"] += 1
    add("riemann-hurwitz.json", json.dumps(doc), rejected)
    text = json.dumps(_GraphMaker(rng, 50, rng.randint(0, 2)).document())
    add("malformed.json", text[:rng.randint(len(text) // 4,
                                            3 * len(text) // 4)], rejected)
    add("binary.json", b"\xff\xfe\xfa" + rng.randbytes(4096), rejected)
    add("directory.json", None, rejected)
    rng.shuffle(invs)
    return Workload("branch-divisor", invs, 3.0)


WORKLOADS = {
    "table-character": table_character,
    "crosscheck": crosscheck,
    "lookups": lookups,
    "branch-divisor": branch_divisor,
}
