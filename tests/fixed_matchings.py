"""The reference enumeration of the matchings a point permutation fixes.

Not a test module (pytest collects only ``test_*.py``): the tests import it
as the plain enumeration that ``oracle._fixed_tally`` and the sector and
mirror recurrences are held to.
"""


def enumerate_invariant_pairings(point_count: int, element: tuple[int, ...]):
    """Yield the partner tables fixed by a point permutation.

    Chords are added a whole orbit at a time: the smallest unmatched point
    is joined to a candidate partner and the chord's orbit under the
    permutation is closed, rejecting any overlap.  Equivalent to filtering
    ``diagram.enumerate_pairings`` by invariance, but explores only the
    fixed subspace.  One plain recursion collects the matchings into a
    list, which is yielded from once the first one is asked for.
    """
    if point_count % 2 != 0:
        raise ValueError(f"point count must be even, got {point_count}")
    p = [-1] * point_count

    def close_orbit(a, b):
        added = []
        x, y = a, b
        while True:
            if p[x] == -1 and p[y] == -1 and x != y:
                p[x], p[y] = y, x
                added.append(x)
            elif p[x] != y:
                for u in added:
                    v = p[u]
                    p[u] = p[v] = -1
                return None
            x, y = element[x], element[y]
            if (x, y) == (a, b) or (x, y) == (b, a):
                return added

    found = []

    def fill(a):
        # every point below a is matched
        while a < point_count and p[a] != -1:
            a += 1
        if a == point_count:
            found.append(tuple(p))
            return
        for b in range(a + 1, point_count):
            if p[b] != -1:
                continue
            added = close_orbit(a, b)
            if added is None:
                continue
            fill(a + 1)
            for u in added:
                v = p[u]
                p[u] = p[v] = -1

    fill(0)
    yield from found
