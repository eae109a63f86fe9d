"""Union-find over dense int keys, held in flat int lists.

Keys are the ints ``0 .. len(uf) - 1``.  ``find`` walks ``parent`` with
path halving and ``union`` links by size, after Tarjan, "Efficiency of a
good but not linear set union algorithm", J. ACM 22 (1975).  ``link``
threads every class into one cycle, so ``members`` lists a class without
keeping a container per key.  Ints in flat lists give the cyclic garbage
collector nothing to traverse, however many keys there are.
"""

from __future__ import annotations


class UnionFind:
    __slots__ = ("parent", "size", "link")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n         # class size, valid at roots
        self.link = list(range(n))  # next key in the same class, cyclically

    def add(self, n: int):
        """Append n singletons."""
        start = len(self.parent)
        keys = range(start, start + n)
        self.parent.extend(keys)
        self.link.extend(keys)
        self.size.extend([1] * n)

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def union(self, a: int, b: int) -> int:
        """Merge the classes of a and b; return the new root."""
        a, b = self.find(a), self.find(b)
        if a == b:
            return a
        size = self.size
        if size[a] < size[b]:
            a, b = b, a
        self.parent[b] = a
        size[a] += size[b]
        link = self.link
        link[a], link[b] = link[b], link[a]
        return a

    def members(self, x: int) -> list:
        """Every key in x's class, starting from x."""
        link = self.link
        out = [x]
        y = link[x]
        while y != x:
            out.append(y)
            y = link[y]
        return out
