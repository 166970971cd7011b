"""Random valid stable-map graphs for property tests.

The generator picks ramification profiles first and solves each dominant
component's genus from Riemann-Hurwitz (padding with extra ramification
when the right side would force a negative genus or the wrong parity),
joins all components into a connected dual graph, makes contracted
components that touch share an image point, and repairs stability by
attaching extra nodes. The `reference_violations` call at the end is
the generator's own guard: everything returned is a valid graph by
construction. It is the tests' walk of the rules, written apart from
the package, so a fault in the package's validator fails the tests'
own comparisons, not the generator.
`connected_by_search` and `map_degree` are the parts of that walk
that other tests read too.

`graph_to_dict` writes a graph as the JSON document that
`hurwitz.stablemap.graph_from_dict` reads, with the keys in the order
of docs/fixtures. The package only reads graph documents; the tests
write theirs with this writer.

`collision_limit` makes a valid graph of another sort: the stable limit
of a cover whose branch points collide, built from permutations alone,
with the branch divisor the limit must have.

`mutate_document` makes the invalid side: a seeded copy of a graph
document with a few edits at random places, for tests that pin how
every fault reads. `misplaced_documents` moves a whole object to where
another kind of object belongs.

Only integer randomness is used, so a seeded random.Random reproduces
the same graphs and documents on every run.
"""

import copy
import random
from collections import Counter, deque

from hurwitz.character import enumerate_partitions
from hurwitz.stablemap import (
    ContractedComponent,
    DominantComponent,
    Node,
    StableMapGraph,
)


class _Labels:
    """Fresh point labels, occasionally reusing an earlier one."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.count = 0
        self.pool: list[str] = []

    def point(self, avoid=()) -> str:
        reusable = [p for p in self.pool if p not in avoid]
        if reusable and self.rng.randrange(4) == 0:
            return self.rng.choice(reusable)
        self.count += 1
        label = f"q{self.count}"
        self.pool.append(label)
        return label


def _random_dominant(rng, cid, target_genus, labels):
    degree = rng.randint(1, 4)
    parts_all = enumerate_partitions(degree)
    nontrivial = [p for p in parts_all if p != (1,) * degree]
    profiles: list[tuple[str, tuple[int, ...]]] = []
    used: set[str] = set()

    def attach(profile):
        point = labels.point(avoid=used)
        used.add(point)
        profiles.append((point, profile))

    for _ in range(rng.randint(0, 2)):
        attach(rng.choice(parts_all))

    def weight():
        return sum(e - 1 for _point, prof in profiles for e in prof)

    # solve 2g - 2 = degree*(2*target_genus - 2) + weight for g >= 0:
    # pad until the right side reaches -2, then fix its parity
    base = degree * (2 * target_genus - 2)
    while base + weight() < -2:
        attach(rng.choice(nontrivial))
    if (base + weight()) % 2:
        attach((2,) + (1,) * (degree - 2))
    genus = (base + weight() + 2) // 2
    return {
        "kind": "dominant",
        "id": cid,
        "genus": genus,
        "degree": degree,
        "ram": tuple(profiles),
    }


def _find(parent, x):
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def random_valid_graph(rng: random.Random) -> StableMapGraph:
    target_genus = rng.choice((0, 0, 0, 1, 2))
    labels = _Labels(rng)

    drafts = [
        _random_dominant(rng, f"A{k + 1}", target_genus, labels)
        for k in range(rng.randint(1, 3))
    ]
    for k in range(rng.randint(0, 2)):
        drafts.append({
            "kind": "contracted",
            "id": f"B{k + 1}",
            "genus": rng.choice((0, 0, 1, 1, 2)),
        })
    rng.shuffle(drafts)

    # spanning tree for connectedness, then a few extra edges for cycles
    # and self-nodes
    edges = [(i, rng.randrange(i)) for i in range(1, len(drafts))]
    for _ in range(rng.randint(0, 2)):
        edges.append((rng.randrange(len(drafts)), rng.randrange(len(drafts))))

    # stability repair: contracted genus 0 needs three branches, genus 1
    # one; partners are dominant components (or the component itself, as
    # a self-node) so image grouping below stays untouched
    dominant_idx = [i for i, s in enumerate(drafts) if s["kind"] == "dominant"]

    def branches(i):
        return sum((a == i) + (b == i) for a, b in edges)

    for i, draft in enumerate(drafts):
        if draft["kind"] != "contracted":
            continue
        needed = {0: 3, 1: 1}.get(draft["genus"], 0)
        while branches(i) < needed:
            if rng.randrange(3) == 0:
                edges.append((i, i))
            else:
                edges.append((i, rng.choice(dominant_idx)))

    # contracted components joined by a node must share their image:
    # union-find over contracted-contracted edges, one label per group
    parent = list(range(len(drafts)))
    for a, b in edges:
        if drafts[a]["kind"] == drafts[b]["kind"] == "contracted":
            parent[_find(parent, a)] = _find(parent, b)
    group_image: dict[int, str] = {}
    for i, draft in enumerate(drafts):
        if draft["kind"] == "contracted":
            root = _find(parent, i)
            if root not in group_image:
                group_image[root] = labels.point()
            draft["image"] = group_image[root]

    nodes = []
    for a, b in edges:
        if drafts[a]["kind"] == "contracted":
            image = drafts[a]["image"]
        elif drafts[b]["kind"] == "contracted":
            image = drafts[b]["image"]
        else:
            image = labels.point()
        nodes.append(Node(branches=(drafts[a]["id"], drafts[b]["id"]),
                          image=image))

    components = []
    for draft in drafts:
        if draft["kind"] == "dominant":
            components.append(DominantComponent(
                id=draft["id"], genus=draft["genus"],
                degree=draft["degree"], ramification=draft["ram"],
            ))
        else:
            components.append(ContractedComponent(
                id=draft["id"], genus=draft["genus"], image=draft["image"],
            ))
    graph = StableMapGraph(
        target_genus=target_genus,
        components=tuple(components),
        nodes=tuple(nodes),
    )
    problems = reference_violations(graph)
    if problems:
        raise AssertionError(f"generator produced an invalid graph: {problems}")
    return graph


def connected_by_search(graph):
    """Reference: breadth-first search from the first component over the
    nodes whose branches both name components; duplicate ids never
    count as connected."""
    ids = [c.id for c in graph.components]
    if not ids or len(set(ids)) != len(ids):
        return False
    neighbours = {cid: [] for cid in ids}
    for a, b in (node.branches for node in graph.nodes):
        if a in neighbours and b in neighbours:
            neighbours[a].append(b)
            neighbours[b].append(a)
    seen, queue = {ids[0]}, deque([ids[0]])
    while queue:
        for other in neighbours[queue.popleft()]:
            if other not in seen:
                seen.add(other)
                queue.append(other)
    return len(seen) == len(ids)


def map_degree(graph):
    """The sum of the dominant components' degrees."""
    return sum(c.degree for c in graph.components
               if isinstance(c, DominantComponent))


def reference_violations(graph):
    """Reference: every rule violation, worded as validate words it, in a
    walk of its own: the rules on the whole graph in their documented
    order, then each component's rules in that order, component by
    component, then each node's image against its contracted branches.
    A repeated id counts its node branches once for all its components,
    and its last component decides its image."""
    components, nodes = graph.components, graph.nodes
    ids = Counter(c.id for c in components)
    found = []
    if graph.target_genus < 0:
        found.append("target genus must be nonnegative")
    if not components:
        found.append("graph has no components")
    found += [f"duplicate component id '{cid}'"
              for cid in sorted(ids) if ids[cid] > 1]
    found += [f"node {k} references unknown component '{cid}'"
              for k, node in enumerate(nodes)
              for cid in node.branches if cid not in ids]
    if components and not connected_by_search(graph):
        found.append("dual graph is disconnected")
    degree = map_degree(graph)
    if components and degree < 1:
        found.append(f"total degree is {degree}: at least one dominant "
                     "component is required")
    branches = Counter(cid for node in nodes for cid in node.branches)
    for comp in components:
        name = f"component '{comp.id}'"
        if comp.genus < 0:
            found.append(f"{name}: genus must be nonnegative")
        if isinstance(comp, ContractedComponent):
            # stability: three node branches on genus 0, one on genus 1
            need = {0: 3, 1: 1}.get(comp.genus, 0)
            have = branches[comp.id]
            if have < need:
                count = "no" if comp.genus == 1 else have
                found.append(f"{name}: contracted genus-{comp.genus} "
                             f"component has {count} node branch"
                             f"{'' if have == 1 else 'es'}, needs at "
                             f"least {need}")
            continue
        if comp.degree < 1:
            found.append(f"{name}: degree must be at least 1")
            continue
        points, partitions = [], True
        for point, profile in comp.ramification:
            if point in points:
                found.append(f"{name}: point '{point}' listed more than "
                             "once")
                partitions = False
            points.append(point)
            if (sum(profile) != comp.degree or min(profile, default=1) < 1
                    or list(profile) != sorted(profile, reverse=True)):
                found.append(f"{name}: profile "
                             f"[{', '.join(map(str, profile))}] over point "
                             f"'{point}' is not a partition of {comp.degree}")
                partitions = False
        if partitions and comp.genus >= 0:
            rhs = comp.degree * (2 * graph.target_genus - 2) + sum(
                sum(profile) - len(profile)
                for _, profile in comp.ramification)
            if 2 * comp.genus - 2 != rhs:
                found.append(f"{name}: Riemann-Hurwitz fails (2g-2 = "
                             f"{2 * comp.genus - 2}, degree and profiles "
                             f"give {rhs})")
    last = {c.id: c for c in components}
    for k, node in enumerate(nodes):
        for cid in node.branches:
            comp = last.get(cid)
            if isinstance(comp, ContractedComponent) and \
                    comp.image != node.image:
                found.append(f"node {k} lies over '{node.image}' but its "
                             f"branch on '{cid}' is contracted to "
                             f"'{comp.image}'")
    return found


def graph_to_dict(graph: StableMapGraph) -> dict:
    """The JSON document of `graph`: each object's keys in the documented
    order, an empty ramification left out, and the nodes always written.
    """
    components = []
    for comp in graph.components:
        if isinstance(comp, ContractedComponent):
            components.append({"kind": "contracted", "id": comp.id,
                               "genus": comp.genus, "image": comp.image})
            continue
        entry = {"kind": "dominant", "id": comp.id, "genus": comp.genus,
                 "degree": comp.degree}
        if comp.ramification:
            entry["ramification"] = [
                {"point": point, "profile": list(profile)}
                for point, profile in comp.ramification]
        components.append(entry)
    nodes = [{"branches": list(node.branches), "image": node.image}
             for node in graph.nodes]
    return {"target_genus": graph.target_genus, "components": components,
            "nodes": nodes}


# values a mutation may put in place of any field, entry or document
ODD_VALUES = (None, True, False, 0, 1, -1, 2, 1.5, "", "p", "q1", "A",
              [], [2], [1, 1], ["A", "B"], {}, {"point": "q"})


def _slots(container):
    # (container, key) for every dict field and list entry, in document
    # order, depth first
    keys = container if isinstance(container, dict) else range(len(container))
    for key in list(keys):
        yield container, key
        if isinstance(container[key], (dict, list)):
            yield from _slots(container[key])


def mutate_document(data, rng: random.Random):
    """A copy of the JSON document `data` with one to three edits, each
    at a random field or list entry: delete it, replace it by a value
    from ODD_VALUES, nudge an integer by one, duplicate a list entry,
    add an unknown field beside it, or copy another slot's value into
    it. The document itself may be replaced too.
    """
    box = [copy.deepcopy(data)]
    for _ in range(rng.randint(1, 3)):
        slots = list(_slots(box))
        container, key = rng.choice(slots)
        value = container[key]
        edit = rng.randrange(6)
        if edit == 0 and container is not box:
            del container[key]
        elif edit == 2 and type(value) is int:
            container[key] = value + rng.choice((-1, 1))
        elif edit == 3 and isinstance(container, list) and container is not box:
            container.insert(key, copy.deepcopy(value))
        elif edit == 4 and isinstance(container, dict):
            container["extra"] = rng.choice(ODD_VALUES)
        elif edit == 5:
            source, other = rng.choice(slots)
            container[key] = copy.deepcopy(source[other])
        else:
            container[key] = copy.deepcopy(rng.choice(ODD_VALUES))
    return box[0]


def misplaced_documents(data) -> dict:
    """Copies of the JSON document `data`, each with one object where
    another kind belongs, keyed by what moved: its first node among the
    components, its first component among the nodes, that component
    among its own ramification entries, and that component's "kind" at
    the top level. The first component must be dominant, with a
    ramification list, and there must be a node.
    """
    component, node = data["components"][0], data["nodes"][0]
    moved = {name: copy.deepcopy(data) for name in (
        "node in components", "component in nodes",
        "component in ramification", "kind at top level")}
    moved["node in components"]["components"].append(copy.deepcopy(node))
    moved["component in nodes"]["nodes"].append(copy.deepcopy(component))
    moved["component in ramification"]["components"][0][
        "ramification"].append(copy.deepcopy(component))
    moved["kind at top level"]["kind"] = component["kind"]
    return moved


def _classes(points, pairs):
    """The classes of `points` joined by `pairs`, each a sorted list,
    in order of their least element."""
    parent = {x: x for x in points}
    for a, b in pairs:
        parent[_find(parent, a)] = _find(parent, b)
    classes = {}
    for x in sorted(points):
        classes.setdefault(_find(parent, x), []).append(x)
    return list(classes.values())


def collision_limit(rng: random.Random, g: int, d: int, points: int = 1):
    """The stable limit of a connected genus-g, degree-d cover of the
    line when 2 to 5 of its r = 2g + 2d - 2 simple branch points come
    together at one point "p", as a graph document, with the branch
    divisor the limit must have: k at "p" for k collided points, and 1
    at each other branch point "q<j>". With points=2 (needs r >= 4) two
    disjoint runs collide at once, one at "p" and one at "p2", and the
    divisor is k at "p", k' at "p2" and 1 elsewhere. Needs d >= 2; uses
    no `hurwitz` function.

    The cover is a factorization t_1...t_r = 1 into transpositions that
    generate a transitive group: a spanning tree and g more
    transpositions, followed by the same list reversed, then shuffled
    by braid moves, which keep the product and the group. A block of k
    consecutive t_i collides with monodromy sigma, their product. The
    dominant components are the orbits of each block's sigma and the
    other t_j, with sigma's cycle type over the block's point and
    (2, 1, ...) over each t_j they contain. Each orbit B of a block gets
    a bubble contracted to its point, of genus h with
    2h - 2 = -|B| + k_B - (cycles of sigma on B), k_B the block's
    transpositions on B, glued by one node to the dominant component of
    each of those cycles. Stabilizing drops a genus-0 bubble with one
    node and turns one with two nodes into a single node between the two
    dominant branches.
    """
    sheets = range(d)
    tree = [(x, rng.randrange(x)) for x in range(1, d)]
    extra = [tuple(rng.sample(sheets, 2)) for _ in range(g)]
    half = tree + extra
    rng.shuffle(half)
    factors = half + half[::-1]
    r = len(factors)
    for _ in range(3 * r):
        # (t_i, t_i+1) -> (t_i t_i+1 t_i, t_i)
        i = rng.randrange(r - 1)
        a, b = factors[i]
        swap = {a: b, b: a}
        c, e = factors[i + 1]
        factors[i:i + 2] = [(swap.get(c, c), swap.get(e, e)), (a, b)]

    # the start and length of the run that collides at each point
    if points == 1:
        k = rng.randint(2, min(5, r))
        runs = {"p": (rng.randrange(r - k + 1), k)}
    else:
        k = rng.randint(2, min(5, r - 2))
        k2 = rng.randint(2, min(5, r - k))
        # the factors before, between and after the runs
        first, second = sorted(rng.sample(range(r - k - k2 + 2), 2))
        runs = {"p": (first, k), "p2": (second - 1 + k, k2)}
    blocks = {point: factors[start:start + k]
              for point, (start, k) in runs.items()}
    starts = {start + 1: point for point, (start, _) in runs.items()}
    others = {j: t for j, t in enumerate(factors, 1)
              if not any(start < j <= start + k
                         for start, k in runs.values())}
    cycles, joins = {}, list(others.values())
    for point, block in blocks.items():
        sigma = list(sheets)
        for a, b in block:
            sigma = [b if y == a else a if y == b else y for y in sigma]
        cycles[point] = _classes(sheets, enumerate(sigma))
        joins += enumerate(sigma)

    orbits = _classes(sheets, joins)
    owner = {x: f"A{n}" for n, orbit in enumerate(orbits, 1) for x in orbit}
    components = []
    for n, orbit in enumerate(orbits, 1):
        ramification = []
        for j in range(1, r + 1):
            if j in starts:
                at = sorted((len(c) for c in cycles[starts[j]]
                             if c[0] in orbit), reverse=True)
                if at[0] > 1:
                    ramification.append({"point": starts[j], "profile": at})
            if j in others and others[j][0] in orbit:
                profile = [2] + [1] * (len(orbit) - 2)
                ramification.append({"point": f"q{j}", "profile": profile})
        weight = sum(sum(e["profile"]) - len(e["profile"])
                     for e in ramification)
        entry = {"kind": "dominant", "id": f"A{n}",
                 "genus": (weight - 2 * len(orbit) + 2) // 2,
                 "degree": len(orbit)}
        if ramification:
            entry["ramification"] = ramification
        components.append(entry)

    nodes = []
    bubbles = [(point, bubble) for point, block in blocks.items()
               for bubble in _classes(sheets, block)]
    for n, (point, bubble) in enumerate(bubbles, 1):
        ends = [owner[c[0]] for c in cycles[point] if c[0] in bubble]
        k_b = sum(a in bubble for a, _ in blocks[point])
        genus = (k_b - len(bubble) - len(ends) + 2) // 2
        if genus == 0 and len(ends) == 1:
            continue
        if genus == 0 and len(ends) == 2:
            nodes.append({"branches": ends, "image": point})
            continue
        components.append({"kind": "contracted", "id": f"B{n}",
                           "genus": genus, "image": point})
        nodes += [{"branches": [f"B{n}", end], "image": point}
                  for end in ends]

    divisor = {f"q{j}": 1 for j in others}
    divisor.update((point, len(block)) for point, block in blocks.items())
    document = {"target_genus": 0, "components": components}
    if nodes:
        document["nodes"] = nodes
    return document, divisor
