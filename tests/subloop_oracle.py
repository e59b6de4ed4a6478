"""Subloops through the table's methods, closing under both divisions as
well as multiplication, kept as the reference that the
multiplication-only closures of ``loopkit.structure`` are tested against.
"""

from loopkit.structure import SubloopSet


def is_subloop(q, s):
    """Whether s holds 0 and is closed under mul, ldiv and rdiv."""
    mem = set(s.members())
    return 0 in mem and all(
        op(x, y) in mem for op in (q.mul, q.ldiv, q.rdiv) for x in mem for y in mem
    )


def subloop_generated(q, seed):
    """The least set holding 0 and the seed that is closed under mul,
    ldiv and rdiv, by iterating to a fixed point."""
    mem = {0, *seed}
    while True:
        grown = mem | {op(x, y) for op in (q.mul, q.ldiv, q.rdiv) for x in mem for y in mem}
        if grown == mem:
            return SubloopSet.from_members(q.order, mem)
        mem = grown
