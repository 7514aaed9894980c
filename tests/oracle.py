"""Independent reference implementations for the test suite.

Everything here is written directly from the definitions with plain
Python sets and exhaustive iteration, and deliberately shares no code
with the package: no bitmasks, no pruning, no flow kernel.  Slow on
purpose; only run at sizes where slow is fine.
"""

import itertools


def compositions(total, parts):
    """Weak compositions as tuples, any order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def double_neighborhoods(n, edges):
    """Left neighborhoods of the bipartite double, as sets of right labels."""
    nbrs = {i: {i} for i in range(1, n + 1)}
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def brute_draconian(n, edges):
    """The draconian set from the literal definition: every weak composition
    of n-1, every nonempty subset of [n]."""
    nbrs = double_neighborhoods(n, edges)
    out = set()
    for c in compositions(n - 1, n):
        ok = True
        for size in range(1, n + 1):
            for subset in itertools.combinations(range(1, n + 1), size):
                weight = sum(c[i - 1] for i in subset)
                union = set().union(*(nbrs[i] for i in subset))
                if weight >= len(union):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.add(c)
    return out


def brute_transportation(allowed, row_sums, col_sums):
    """Is there a nonnegative integer matrix with these margins supported on
    allowed cells?  Exhaustive search over row fillings."""
    rows = len(row_sums)
    cols = len(col_sums)
    if sum(row_sums) != sum(col_sums):
        return False

    def fill(r, remaining_cols):
        if r == rows:
            return all(x == 0 for x in remaining_cols)
        choices = [
            range(min(row_sums[r], remaining_cols[j]) + 1) if (r, j) in allowed else (0,)
            for j in range(cols)
        ]
        for split in itertools.product(*choices):
            if sum(split) != row_sums[r]:
                continue
            nxt = tuple(x - y for x, y in zip(remaining_cols, split))
            if fill(r + 1, nxt):
                return True
        return False

    return fill(0, tuple(col_sums))


def components(n, edges):
    """Vertex blocks by repeated merging over the edge list."""
    label = list(range(n + 1))
    for _ in range(n):
        for u, v in edges:
            label[u] = label[v] = min(label[u], label[v])
    blocks = {}
    for v in range(1, n + 1):
        blocks.setdefault(label[v], []).append(v)
    return sorted(tuple(b) for b in blocks.values())


def blocks(n, edges):
    """Biconnected blocks as sorted vertex tuples, from the definition: the
    maximal vertex sets whose induced subgraph is connected and stays
    connected after deleting any one vertex.  One edge qualifies, and so
    does one vertex, which survives as a block only when it is isolated."""
    nbrs = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)

    def connected(vs):
        start = min(vs)
        reached, todo = {start}, [start]
        while todo:
            for w in nbrs[todo.pop()] & vs - reached:
                reached.add(w)
                todo.append(w)
        return reached == vs

    def biconnected(vs):
        if len(vs) <= 2:
            return connected(vs)
        return connected(vs) and all(connected(vs - {v}) for v in vs)

    good = [set(s) for size in range(1, n + 1)
            for s in itertools.combinations(range(1, n + 1), size) if biconnected(set(s))]
    return sorted(tuple(sorted(s)) for s in good if not any(s < t for t in good))


def block_edges(n, edges, e):
    """The edges of the block holding edge e, from the cycle definition:
    two edges share a block iff some cycle holds both.  A cycle through
    e = ab is e plus a simple a-b path of two or more edges, so the block
    is e together with every edge of every such path; a bridge is alone."""
    a, b = e
    nbrs = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    out = {frozenset(e)}

    def walk(path):
        for w in nbrs[path[-1]] - set(path):
            if w == b and len(path) > 1:
                out.update(frozenset(p) for p in zip(path, path[1:] + [b]))
            elif w != b:
                walk(path + [w])

    walk([a])
    return out


def automorphisms(n, edges):
    """Every permutation of 1..n that maps the edge set onto itself, as a
    tuple whose (v-1)-th entry is the image of v; tries all n! of them."""
    edge_set = {frozenset(e) for e in edges}
    # a permutation is injective on pairs, so edges into edges is onto
    return [
        p for p in itertools.permutations(range(1, n + 1))
        if all(frozenset((p[u - 1], p[v - 1])) in edge_set for u, v in edges)
    ]


def least_mask(n, edges):
    """The smallest edge-subset mask over all n! relabelings, bit k being
    the k-th pair of combinations(1..n, 2)."""
    bit = {frozenset(p): 1 << k
           for k, p in enumerate(itertools.combinations(range(1, n + 1), 2))}
    return min(
        sum(bit[frozenset((p[u - 1], p[v - 1]))] for u, v in edges)
        for p in itertools.permutations(range(1, n + 1))
    )


def random_graph(rng, n, p=0.5):
    """Edge list of a random graph on 1..n with edge probability p."""
    return [
        (u, v)
        for u, v in itertools.combinations(range(1, n + 1), 2)
        if rng.random() < p
    ]
