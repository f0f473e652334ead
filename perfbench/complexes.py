"""Generated input complexes and the homology oracle that gates them.

The generators write hexad's complex file format (`name`, `vertices`,
`facet` lines) after a seeded random relabelling of the vertices, so one
seed always gives the same file and different seeds give the same complex
with its simplices in a different order.

The oracle computes H_k(X; Z) from the facets alone with its own
transform-free Smith reduction, so a generated complex is checked without
using the code the benchmark times.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations


def grid_torus(n):
    """(n_vertices, facets) of the n x n grid torus T_n, 6 n^2 simplices."""
    if n < 3:
        raise ValueError("the grid torus needs n >= 3")

    def v(i, j):
        return (i % n) * n + (j % n)

    facets = []
    for i in range(n):
        for j in range(n):
            facets.append((v(i, j), v(i + 1, j), v(i + 1, j + 1)))
            facets.append((v(i, j), v(i, j + 1), v(i + 1, j + 1)))
    return n * n, facets


def barycentric_subdivision(simplices):
    """(n_vertices, facets) of the barycentric subdivision.

    `simplices` lists every simplex of a complex as a vertex tuple.  The
    new vertices are those simplices; the facets are the maximal flags,
    one per ordering of the vertices of each maximal simplex.
    """
    simps = sorted(set(tuple(sorted(s)) for s in simplices))
    index = {s: i for i, s in enumerate(simps)}
    maximal = [s for s in simps
               if not any(len(t) > len(s) and set(s) <= set(t) for t in simps)]
    facets = []
    for top in maximal:
        for order in permutations(top):
            facets.append(tuple(index[tuple(sorted(order[:i + 1]))]
                                for i in range(len(order))))
    return len(simps), facets


def relabel(n_vertices, facets, rng):
    perm = list(range(n_vertices))
    rng.shuffle(perm)
    return [tuple(sorted(perm[v] for v in f)) for f in facets]


def complex_text(name, n_vertices, facets):
    lines = ["name %s" % name, "vertices %d" % n_vertices]
    lines += ["facet " + " ".join(str(v) for v in f) for f in facets]
    return "\n".join(lines) + "\n"


def generate(name, n_vertices, facets, seed):
    """File text of the complex after the relabelling that `seed` picks."""
    rng = random.Random("%s/%d" % (name, seed))
    return complex_text(name, n_vertices, relabel(n_vertices, facets, rng))


# ---------------------------------------------------------------------------
# oracle

def closure(facets):
    by_dim = {}
    for f in facets:
        f = tuple(sorted(f))
        for k in range(1, len(f) + 1):
            for s in combinations(f, k):
                by_dim.setdefault(k - 1, set()).add(s)
    return [sorted(by_dim[k]) for k in range(len(by_dim))]


def _boundary_rows(lower, upper):
    index = {s: i for i, s in enumerate(lower)}
    rows = [[0] * len(upper) for _ in lower]
    for j, s in enumerate(upper):
        for i in range(len(s)):
            rows[index[s[:i] + s[i + 1:]]][j] = -1 if i % 2 else 1
    return rows


def smith_diagonal(rows):
    """Nonzero invariant factors of an integer matrix, d_1 | d_2 | ..."""
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if a else 0
    diag = []
    t = 0
    while t < min(m, n):
        entries = [(abs(a[i][j]), i, j) for i in range(t, m)
                   for j in range(t, n) if a[i][j]]
        if not entries:
            break
        _, pi, pj = min(entries)
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        while True:
            p = a[t][t]
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // p
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // p
                    for row in a:
                        row[j] -= q * row[t]
            rest = [(abs(a[i][t]), i, t) for i in range(t + 1, m) if a[i][t]]
            rest += [(abs(a[t][j]), t, j) for j in range(t + 1, n) if a[t][j]]
            if not rest:
                break
            _, pi, pj = min(rest)
            a[t], a[pi] = a[pi], a[t]
            for row in a:
                row[t], row[pj] = row[pj], row[t]
        diag.append(abs(a[t][t]))
        t += 1
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            x, y = diag[i], diag[i + 1]
            if y % x:
                g = _gcd(x, y)
                diag[i], diag[i + 1] = g, x * y // g
                changed = True
    return diag


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def homology(facets):
    """[(rank, torsion factors)] of H_k(X; Z) for k = 0..dim."""
    simps = closure(facets)
    dim = len(simps) - 1
    diags = [[]] + [smith_diagonal(_boundary_rows(simps[k - 1], simps[k]))
                    for k in range(1, dim + 1)] + [[]]
    out = []
    for k in range(dim + 1):
        rank = len(simps[k]) - len(diags[k]) - len(diags[k + 1])
        out.append((rank, tuple(d for d in diags[k + 1] if d > 1)))
    return out


def parse_facets(text):
    """(n_vertices, facets) read back from a generated complex file."""
    n_vertices = None
    facets = []
    for line in text.splitlines():
        toks = line.split()
        if toks and toks[0] == "vertices":
            n_vertices = int(toks[1])
        elif toks and toks[0] == "facet":
            facets.append(tuple(int(v) for v in toks[1:]))
    return n_vertices, facets
