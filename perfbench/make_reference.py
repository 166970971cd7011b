"""Regenerate or verify perfbench/reference.json, the stored table of
Hurwitz numbers the benchmark checks genus >= 2 outputs against.

Every stored value is computed here by a route of this file's own, the
exponential formula over content polynomials: the degree-n part of the
disconnected series is the Laurent polynomial
Z_n(q) = sum over partitions of n of (dim / n!)^2 q^content, its
logarithm F is taken by the recurrence
F_n = Z_n - (1/n) sum_{k<n} k F_k Z_{n-k}, and
H_{g,d} = sum_c [q^c] F_d * c^r with r = 2g - 2 + 2d. Partitions, hook
lengths and contents are computed here too, so nothing is shared with
the package. A value is stored only when a second, independent route of
the package agrees with it exactly: the genus-2 recursion where it
applies, and the character route otherwise.

The genus-0 and genus-1 closed forms the benchmark uses at run time are
checked against this route as well.

    PYTHONPATH=src python3 perfbench/make_reference.py          # write
    PYTHONPATH=src python3 perfbench/make_reference.py --check  # verify
"""

import argparse
import json
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent

# (genus, degree) cells stored: genus 2 to 5 of the character workloads
# (d <= 12) and the genus-2 recursion lookups (d <= 20); genus 0 and 1
# have closed forms in reference.py
CELLS = sorted(
    {(g, d) for g in range(2, 6) for d in range(1, 13)}
    | {(2, d) for d in range(1, 21)}
)


def _partitions(n, largest):
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first, *rest)


def _dimension_and_content(lam):
    columns = [sum(1 for part in lam if part > j) for j in range(lam[0])]
    hooks = 1
    content = 0
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= row - j + columns[j] - i - 1
            content += j - i
    return factorial(sum(lam)) // hooks, content


def _times(p, q):
    out = {}
    for a, x in p.items():
        for b, y in q.items():
            out[a + b] = out.get(a + b, 0) + x * y
    return out


def connected_content_polynomials(d_max):
    """F_1 .. F_{d_max} as {content: Fraction} dictionaries."""
    z = [None]
    for n in range(1, d_max + 1):
        poly = {}
        scale = factorial(n) ** 2
        for lam in _partitions(n, n):
            dim, c = _dimension_and_content(lam)
            poly[c] = poly.get(c, 0) + Fraction(dim * dim, scale)
        z.append(poly)
    f = [None]
    for n in range(1, d_max + 1):
        poly = dict(z[n])
        for k in range(1, n):
            for c, v in _times(f[k], z[n - k]).items():
                poly[c] = poly.get(c, 0) - Fraction(k, n) * v
        f.append(poly)
    return f


def content_route_values():
    d_max = max(d for _, d in CELLS)
    f = connected_content_polynomials(d_max)
    values = {}
    for g in range(6):
        for d in range(1, d_max + 1):
            r = 2 * g - 2 + 2 * d
            values[(g, d)] = sum(
                (v * c ** r for c, v in f[d].items()), Fraction(0)
            )
    return values


def package_value(g, d):
    import hurwitz
    if g == 2:
        return hurwitz.h2_recursion(d)
    return hurwitz.connected_hurwitz(g, d)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="verify the stored file instead of writing it")
    args = parser.parse_args()

    ours = content_route_values()
    for (g, d), value in ours.items():
        closed = {0: reference.genus0, 1: reference.genus1}.get(g)
        if closed and closed(d) != value:
            sys.exit(f"closed form disagrees at ({g}, {d})")
    table = {}
    for g, d in CELLS:
        if package_value(g, d) != ours[(g, d)]:
            sys.exit(f"routes disagree at ({g}, {d}); nothing written")
        table[f"{g},{d}"] = reference.format_rational(ours[(g, d)])
    text = json.dumps({"values": table}, indent=1, sort_keys=True) + "\n"
    path = HERE / "reference.json"
    if args.check:
        if path.read_text() != text:
            sys.exit(f"{path.name} differs from the regenerated table")
        print(f"{path.name}: {len(table)} values verified")
    else:
        path.write_text(text)
        print(f"wrote {len(table)} values to {path.name}")


if __name__ == "__main__":
    main()
