"""Shared fixtures: small corpora and named loops."""

import pytest

from loopkit import perms, structure
from loopkit.core import LoopTable
from loopkit.search import SearchSpec, search
from loopkit.tables import chein_double, cyclic, dihedral

# A nonassociative loop of order 5 (checked in tests): trivial nuclei,
# one proper subloop {0, 1}.
Q5_ROWS = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


@pytest.fixture(scope="session")
def q5():
    return LoopTable(Q5_ROWS)


@pytest.fixture(scope="session")
def z4():
    return cyclic(4)


@pytest.fixture(scope="session")
def z6():
    return cyclic(6)


@pytest.fixture(scope="session")
def s3():
    return dihedral(3)


@pytest.fixture(scope="session")
def d8():
    return dihedral(4)


@pytest.fixture(scope="session")
def m12(s3):
    """Nonassociative Moufang loop of order 12 (doubled S3)."""
    return chein_double(s3)


@pytest.fixture(scope="session")
def cc6():
    """The nonassociative conjugacy closed loop of order 6."""
    res = search(SearchSpec(order=6, required=("cc",), forbidden=("associative",), mode="first"))
    assert res.found
    return res.found[0]


@pytest.fixture(scope="session")
def corpus5():
    """Every reduced table of order 1 through 5, with ids."""
    out = []
    for n in range(1, 6):
        res = search(SearchSpec(order=n, mode="collect"))
        out.extend((f"order{n}-{i}", q) for i, q in enumerate(res.found))
    return out


@pytest.fixture(scope="session")
def classes6():
    """Order-6 loops up to isomorphism, with ids."""
    res = search(SearchSpec(order=6, mode="collect", isomorphs="up_to_iso"))
    return [(f"order6-{i}", q) for i, q in enumerate(res.found)]


@pytest.fixture(scope="session")
def small_classes(classes6):
    """The 120 loops of order 1 to 6 up to isomorphism."""
    smaller = [q for n in range(1, 6)
               for q in search(SearchSpec(n, mode="collect", isomorphs="up_to_iso")).found]
    return smaller + [q for _id, q in classes6]


@pytest.fixture()
def holders_runs(monkeypatch):
    """A one-item list that counts the a that ``structure.holders`` tests,
    each a per-element run of the compiled checker."""
    runs = [0]
    real = structure.holders

    def counting(q, prog, among, others):
        among = tuple(among)
        runs[0] += len(among)
        return real(q, prog, among, others)

    monkeypatch.setattr(structure, "holders", counting)
    return runs


@pytest.fixture()
def chain_builds(monkeypatch):
    """A one-item list that counts the stabilizer chains ``perms._chain``
    builds."""
    builds = [0]
    real = perms._chain

    def counting(generators):
        builds[0] += 1
        return real(generators)

    monkeypatch.setattr(perms, "_chain", counting)
    return builds
