"""One invocation of the traced pass, in a fresh interpreter.

    python replay.py main   '<request JSON>'
    python replay.py layers '<request JSON>'

`main` imports hurwitz.cli and runs cli.main(argv) in-process with
stdout captured, timing the import and the call, then reads
cache_info() from the package's cached public functions (null where a
function has none). `layers` sends the same inputs through each layer's
public functions bottom-up, one span per call: partitions, then the
character counts and the connected log, the recursions, the
psi-integral sum, the oracle count, and graph loading, validation and
evaluation. Spans are recorded here, around the calls, not inside the
package. Prints one JSON object on stdout.
"""

import sys
import time

_perf = time.perf_counter


def run_main(raw):
    start = _perf()
    from hurwitz import cli
    imported = _perf()

    import contextlib
    import io
    import json
    request = json.loads(raw)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        called = _perf()
        try:
            cli.main(request["argv"])
        except (SystemExit, Exception):
            pass  # the CLI run exits or dies here too; stdout is compared
        finished = _perf()
    return {
        "stdout": captured.getvalue(),
        "import_s": imported - start,
        "main_s": finished - called,
        "cache": _cache_counts(),
    }


def _cache_counts():
    from hurwitz import character, recursion
    groups = {
        "character": (character.factorization_count,
                      character.connected_hurwitz),
        "recursion": (recursion.h0_recursion, recursion.h1_recursion,
                      recursion.h2_recursion, recursion.h0_closed),
    }
    counts = {}
    for layer, functions in groups.items():
        infos = [getattr(f, "cache_info", None) for f in functions]
        if any(info is None for info in infos):
            counts[f"{layer}.cache_hits"] = None
            counts[f"{layer}.cache_misses"] = None
            continue
        infos = [info() for info in infos]
        counts[f"{layer}.cache_hits"] = sum(i.hits for i in infos)
        counts[f"{layer}.cache_misses"] = sum(i.misses for i in infos)
    return counts


class Recorder:
    def __init__(self):
        self.origin = _perf()
        self.spans = []   # [name, start_s, duration_s]
        self.counts = {}

    def span(self, name, fn, *args):
        start = _perf()
        result = fn(*args)
        end = _perf()
        self.spans.append([name, start - self.origin, end - start])
        return result

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount


def run_layers(raw):
    import json

    import hurwitz
    from hurwitz import oracle, stablemap

    rec = Recorder()
    seen_degrees = set()

    def partition_stats(d):
        enumerated = 0
        for a in range(1, d + 1):
            if a in seen_degrees:
                continue
            seen_degrees.add(a)
            for lam in hurwitz.enumerate_partitions(a):
                hurwitz.irrep_dimension(lam)
                hurwitz.content_sum(lam)
                enumerated += 1
        return enumerated

    def disconnected_box(d, r):
        for a in range(1, d + 1):
            for k in range(r + 1):
                hurwitz.factorization_count(a, k)

    def cell(g, d, method):
        r = 2 * g - 2 + 2 * d
        if method == "character":
            rec.count("partitions.enumerated",
                      rec.span("partitions.stats_s", partition_stats, d))
            rec.span("character.disconnected_s", disconnected_box, d, r)
            rec.span("character.connected_s", hurwitz.connected_hurwitz,
                     g, d)
        elif method == "recursion":
            steps = (hurwitz.h0_recursion, hurwitz.h1_recursion,
                     hurwitz.h2_recursion)
            for genus in range(g + 1):
                rec.span(f"recursion.h{genus}_s", steps[genus], d)
        elif method == "closed-form":
            rec.span("recursion.closed_form_s", hurwitz.h0_closed, d)
        elif method == "elsv-g0":
            if d >= 3:  # degrees 1 and 2 are pinned constants
                rec.span("intersection.psi_sum_s", hurwitz.elsv_genus0, d)
                rec.count("intersection.calls")
        elif method == "oracle":
            rec.span("oracle.count_s", oracle.count_factorizations, d, r)
            rec.count("oracle.calls")
        else:
            raise ValueError(f"unknown method {method!r}")

    def graph(path):
        try:
            g = rec.span("stablemap.load_s", stablemap.load_graph, path)
        except (OSError, UnicodeDecodeError, ValueError):
            rec.count("stablemap.rejected")
            return
        rec.count("stablemap.components", len(g.components))
        if rec.span("stablemap.validate_s", stablemap.validate, g):
            rec.count("stablemap.rejected")
            return
        rec.span("stablemap.divisor_s", stablemap.branch_divisor, g)
        rec.span("stablemap.genus_s", lambda: (
            stablemap.arithmetic_genus(g),
            stablemap.riemann_hurwitz_degree(g)))

    replay = json.loads(raw)["replay"]
    for g, d, method in replay.get("cells", []):
        cell(g, d, method)
    if "crosscheck" in replay:
        g_max, d_max = replay["crosscheck"]
        for g in range(g_max + 1):
            for d in range(1, d_max + 1):
                for m in hurwitz.applicable_methods(g, d):
                    cell(g, d, m.value.replace("_", "-"))
    if "graph" in replay:
        graph(replay["graph"])
    return {"spans": rec.spans, "counts": rec.counts}


if __name__ == "__main__":
    mode, raw = sys.argv[1], sys.argv[2]
    result = run_main(raw) if mode == "main" else run_layers(raw)
    import json
    print(json.dumps(result))
