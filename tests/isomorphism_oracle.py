"""The relabeling scan and the backtracking isomorphism search, kept as
the references that the walk engine in ``loopkit.core`` is tested against.

``canonical_key`` scans all (n-1)! relabelings fixing 0; ``isomorphic``
backtracks over the images of a generating sequence, propagating each
choice through products and re-checking the whole table at the end.
Neither shares code with the engine.
"""

from itertools import permutations

from loopkit.perms import Perm


def canonical_key(q):
    """Lexicographically minimal flattened table over relabelings fixing 0.

    Two loops are isomorphic exactly when their keys are equal, since any
    isomorphism fixes the identity element.
    """
    n = q.order
    rows = q.rows
    if n == 1:
        return (0,)
    best = None
    inv = [0] * n
    for p in permutations(range(1, n)):
        sigma = (0,) + p
        for i, v in enumerate(sigma):
            inv[v] = i
        cur = []
        append = cur.append
        abort = False
        decided = best is None
        for i in range(n):
            src = rows[inv[i]]
            for j in range(n):
                v = sigma[src[inv[j]]]
                if not decided:
                    b = best[len(cur)]
                    if v > b:
                        abort = True
                        break
                    if v < b:
                        decided = True
                append(v)
            if abort:
                break
        if not abort:
            best = cur
    return tuple(best)


def isomorphic(q1, q2):
    """An isomorphism q1 -> q2 as a Perm, or None (orders must agree).

    Each unassigned element in turn tries every unused image, and each
    assignment is propagated through the partial multiplication closure.
    """
    n = q1.order

    img = [-1] * n
    used = [False] * n
    img[0] = 0
    used[0] = True

    def close(newly):
        """Propagate images through products; returns trail or None on clash."""
        trail = []
        queue = list(newly)
        while queue:
            x = queue.pop()
            for y in range(n):
                if img[y] < 0:
                    continue
                for a, b in ((x, y), (y, x)):
                    z = q1.rows[a][b]
                    w = q2.rows[img[a]][img[b]]
                    if img[z] < 0:
                        if used[w]:
                            undo(trail)
                            return None
                        img[z] = w
                        used[w] = True
                        trail.append(z)
                        queue.append(z)
                    elif img[z] != w:
                        undo(trail)
                        return None
        return trail

    def undo(trail):
        for z in trail:
            used[img[z]] = False
            img[z] = -1

    def extend():
        try:
            x = next(x for x in range(n) if img[x] < 0)
        except StopIteration:
            return True
        for w in range(n):
            if used[w]:
                continue
            img[x] = w
            used[w] = True
            trail = close([x])
            if trail is not None:
                if extend():
                    return True
                undo(trail)
            used[w] = False
            img[x] = -1
        return False

    if not extend():
        return None
    for x in range(n):
        for y in range(n):
            if img[q1.rows[x][y]] != q2.rows[img[x]][img[y]]:
                return None
    return Perm(img)
