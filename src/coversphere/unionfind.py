"""Union-find over dense int keys, held in flat int arrays.

Keys are the ints ``0 .. len(uf) - 1``.  ``find`` walks ``parent`` with
path halving and ``union`` links by size, after Tarjan, "Efficiency of a
good but not linear set union algorithm", J. ACM 22 (1975).  Both tables
are ``array('i')``: four bytes a key and no int objects, and arrays are
not containers the cyclic garbage collector tracks, so its passes do not
grow with the key count.
"""

from __future__ import annotations

from array import array
from itertools import compress, count
from operator import ne
from struct import pack


class UnionFind:
    __slots__ = ("parent", "size")

    def __init__(self, n: int):
        self.parent = array("i", range(n))
        self.size = array("i", [1]) * n     # class size, valid at roots

    def add(self, n: int):
        """Append n singletons: their keys packed as the bytes of ints,
        and a run of sizes made by repeating one entry, both quicker than
        extending an array int by int."""
        start = len(self.parent)
        self.parent.frombytes(pack("%di" % n, *range(start, start + n)))
        self.size += array("i", [1]) * n

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
        return a

    def non_roots(self) -> dict:
        """{key: the root of its class} for every key that is not a root."""
        parent = self.parent
        moved = compress(range(len(parent)), map(ne, parent, count()))
        return {x: self.find(x) for x in moved}
