"""The Mlt-stabilizer normality test, kept as the reference that
``loopkit.structure.is_normal_subloop`` is tested against.

It builds Inn Q as the stabilizer of the identity in the full
multiplication group and checks that every inner mapping maps s onto
itself.
"""

from loopkit import perms, structure
from loopkit.errors import NotASubloop


def is_normal_subloop(q, s):
    """Invariance of s under every element of Inn Q."""
    if not structure.is_subloop(q, s):
        raise NotASubloop(f"{s!r} is not a subloop")
    for p in perms.inn(q).elements:
        img = 0
        for x in s.members():
            img |= 1 << p.images[x]
        if img != s.mask:
            return False
    return True
