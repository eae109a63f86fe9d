from hypothesis import given
from hypothesis import strategies as st

from coversphere.unionfind import UnionFind


@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, 10),
    st.lists(st.tuples(st.integers(0, n + 9), st.integers(0, n + 9)),
             max_size=60))))
def test_matches_naive_partition(case):
    n, extra, unions = case
    uf = UnionFind(n)
    uf.add(extra)
    keys = range(n + extra)
    naive = [{x} for x in keys]
    for a, b in unions:
        a, b = a % len(keys), b % len(keys)
        root = uf.union(a, b)
        assert root == uf.find(a) == uf.find(b)
        merged = naive[a] | naive[b]
        for x in merged:
            naive[x] = merged
    for x in keys:
        cls = naive[x]
        assert all(uf.find(y) == uf.find(x) for y in cls)
        assert uf.size[uf.find(x)] == len(cls)
    assert uf.non_roots() == {x: uf.find(x) for x in keys if uf.find(x) != x}
    roots = {uf.find(x) for x in keys}
    assert len(roots) == len({frozenset(c) for c in naive})
