"""Union-find over dense int keys, held in flat int arrays.

Keys are the ints ``0 .. len(uf) - 1``.  ``find`` walks ``parent`` with
path halving and ``union`` links by size, after Tarjan, "Efficiency of a
good but not linear set union algorithm", J. ACM 22 (1975).  ``link``
threads every class into one cycle, so ``members`` lists a class without
keeping a container per key.  The three tables are ``array('i')``: four
bytes a key and no int objects, and arrays are not containers the cyclic
garbage collector tracks, so its passes do not grow with the key count.
"""

from __future__ import annotations

from array import array
from itertools import compress, count
from operator import ne


class UnionFind:
    __slots__ = ("parent", "size", "link")

    def __init__(self, n: int):
        self.parent = array("i", range(n))
        self.size = array("i", [1]) * n     # class size, valid at roots
        self.link = array("i", range(n))    # next key in the class, cyclically

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

    def non_roots(self) -> dict:
        """{key: the root of its class} for every key that is not a root."""
        parent = self.parent
        moved = compress(range(len(parent)), map(ne, parent, count()))
        return {x: self.find(x) for x in moved}

    def members(self, x: int) -> list:
        """Every key in x's class, starting from x."""
        link = self.link
        out = [x]
        y = link[x]
        while y != x:
            out.append(y)
            y = link[y]
        return out
