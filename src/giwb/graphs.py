"""Small simple graphs over bit-row adjacency, with graph6 and edge-list I/O.

Vertices are the integers ``0 .. n-1`` and every vertex set is an ``int``
bitmask (bit ``i`` set means vertex ``i`` is in the set).  Graphs are
immutable and capped at 64 vertices: the exhaustive harness never goes past
tiny orders and fixed-width rows keep every operation exact and allocation
free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

MAX_VERTICES = 64

# A vertex set is just an int bitmask; the alias is for signatures.
VertexMask = int


class GraphFormatError(ValueError):
    """Raised for malformed graph6 or edge-list input."""


def bits(mask: int) -> tuple[int, ...]:
    """Vertex indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return tuple(out)


def mask_of(vertices) -> int:
    """Bitmask with the given vertex indices set."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph: ``adj[i]`` is the neighbor bitmask of ``i``."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if not (0 <= self.n <= MAX_VERTICES):
            raise ValueError(f"vertex count {self.n} outside 0..{MAX_VERTICES}")
        if len(self.adj) != self.n:
            raise ValueError("adjacency row count does not match n")
        full = (1 << self.n) - 1
        for i, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"adjacency row {i} has bits beyond n")
            if row >> i & 1:
                raise ValueError(f"self-loop at vertex {i}")
        for i in range(self.n):
            for j in bits(self.adj[i]):
                if not self.adj[j] >> i & 1:
                    raise ValueError(f"asymmetric adjacency between {i} and {j}")

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as pairs ``(u, v)`` with ``u < v``, lexicographic."""
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1) << (u + 1)
            for v in bits(rest):
                yield (u, v)

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def has_isolated_vertex(self) -> bool:
        return any(row == 0 for row in self.adj)

    def remove_edge(self, u: int, v: int) -> "Graph":
        if not self.has_edge(u, v):
            raise ValueError(f"({u}, {v}) is not an edge")
        adj = list(self.adj)
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
        return Graph(self.n, tuple(adj))

    def remove_vertex(self, v: int) -> "Graph":
        return induced_subgraph(self, self.full_mask & ~(1 << v))


def from_edges(n: int, edges) -> Graph:
    """Graph on ``n`` vertices with the given ``(u, v)`` edges."""
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


# graph6 interchange (one graph per line, printable chars 63..126)

def parse_graph6(line: str) -> Graph:
    """Decode one graph6 line into a Graph.

    Accepts the optional ``>>graph6<<`` prefix.  Raises GraphFormatError
    naming the byte offset of the first offending byte.
    """
    text = line.strip()
    if text.startswith(">>graph6<<"):
        text = text[len(">>graph6<<"):]
    if not text:
        raise GraphFormatError("empty graph6 line")
    data = [ord(c) for c in text]
    for off, byte in enumerate(data):
        if not 63 <= byte <= 126:
            raise GraphFormatError(f"byte {off}: {byte} outside graph6 range 63..126")
    if data[0] == 126:  # multi-byte vertex count
        if len(data) < 4:
            raise GraphFormatError("byte 0: truncated multi-byte vertex count")
        if data[1] == 126:
            raise GraphFormatError("byte 1: 8-byte vertex counts exceed the 64-vertex cap")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body, body_off = data[4:], 4
    else:
        n = data[0] - 63
        body, body_off = data[1:], 1
    if n > MAX_VERTICES:
        raise GraphFormatError(f"byte 0: {n} vertices exceeds the {MAX_VERTICES}-vertex cap")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) < need:
        raise GraphFormatError(
            f"byte {body_off + len(body)}: truncated bit body "
            f"(need {need} chars, got {len(body)})")
    if len(body) > need:
        raise GraphFormatError(f"byte {body_off + need}: trailing bytes after bit body")
    # The body read as one bit stream: x(i, j) for columns j = 1 .. n-1 and
    # i < j, six bits per byte, then zero padding to the last byte's end.
    stream = 0
    for byte in body:
        stream = stream << 6 | (byte - 63)
    pad = 6 * need - nbits
    if stream & ((1 << pad) - 1):
        raise GraphFormatError(f"byte {body_off + need - 1}: nonzero padding bit")
    adj = [0] * n
    k = 6 * need
    for j in range(1, n):
        k -= j  # column j is stream bits k .. k + j - 1, x(0, j) the highest
        for b in bits(stream >> k & ((1 << j) - 1)):
            i = j - 1 - b
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return Graph(n, tuple(adj))


def to_graph6(g: Graph) -> str:
    """Encode a Graph as one graph6 line (inverse of parse_graph6)."""
    if g.n <= 62:
        head = chr(63 + g.n)
    else:
        head = "~" + chr(63 + (g.n >> 12)) + chr(63 + (g.n >> 6 & 63)) + chr(63 + (g.n & 63))
    nbits = g.n * (g.n - 1) // 2
    need = (nbits + 5) // 6
    stream = 0
    for j in range(1, g.n):
        col = g.adj[j]
        for i in range(j):
            stream = stream << 1 | (col >> i & 1)
    stream <<= 6 * need - nbits
    return head + "".join(chr(63 + (stream >> s & 63))
                          for s in range(6 * need - 6, -1, -6))


def is_significant(line: str) -> bool:
    """True unless ``line`` is blank or a ``#`` comment."""
    line = line.strip()
    return bool(line) and not line.startswith("#")


def parse_counted(text: str, what: str) -> tuple[int, list[tuple[int, str]]]:
    """Front end of the ``n <count>`` formats (edge lists, hypergraphs):
    the vertex count and the significant lines after the header, stripped
    and numbered as in ``text``."""
    lines = [(no, ln.strip()) for no, ln in enumerate(text.splitlines(), 1)
             if is_significant(ln)]
    if not lines:
        raise GraphFormatError(f"empty {what} input")
    no, first = lines[0]
    head = first.split()
    if len(head) != 2 or head[0] != "n":
        raise GraphFormatError(f"line {no}: expected 'n <count>', got {first!r}")
    try:
        n = int(head[1])
    except ValueError:
        raise GraphFormatError(f"line {no}: unparsable vertex count {head[1]!r}") from None
    if not 0 <= n <= MAX_VERTICES:
        raise GraphFormatError(f"line {no}: vertex count {n} outside 0..{MAX_VERTICES}")
    return n, lines[1:]


def parse_edge_list(text: str) -> Graph:
    """Parse the human-authoring format: ``n <count>`` then ``u v`` lines.

    Duplicate edge lines collapse; self-loops and out-of-range vertices are
    rejected.
    """
    n, lines = parse_counted(text, "edge-list")
    adj = [0] * n
    for ln_no, ln in lines:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {ln_no}: expected 'u v', got {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {ln_no}: unparsable token in {ln!r}") from None
        if u == v:
            raise GraphFormatError(f"line {ln_no}: self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"line {ln_no}: vertex out of range in {ln!r}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


# Elementary structural operations

def complement(g: Graph) -> Graph:
    """Same vertices, edges exactly the nonadjacent distinct pairs."""
    full = g.full_mask
    return Graph(g.n, tuple((full & ~g.adj[i]) & ~(1 << i) for i in range(g.n)))


def induced_subgraph(g: Graph, subset: VertexMask) -> Graph:
    """Subgraph on the vertices of ``subset``, reindexed to 0..|subset|-1."""
    if subset & ~g.full_mask:
        raise ValueError("subset has bits beyond n")
    keep = bits(subset)
    index = {v: i for i, v in enumerate(keep)}
    adj = [0] * len(keep)
    for v in keep:
        for u in bits(g.adj[v] & subset):
            adj[index[v]] |= 1 << index[u]
    return Graph(len(keep), tuple(adj))


def neighbor_set(g: Graph, subset: VertexMask) -> VertexMask:
    """Union of the neighbor rows over ``subset`` (may intersect ``subset``)."""
    if subset & ~g.full_mask:
        raise ValueError("subset has bits beyond n")
    out = 0
    for v in bits(subset):
        out |= g.adj[v]
    return out


def connected_components(g: Graph) -> list[VertexMask]:
    """Vertex partition into connected components, by lowest contained vertex."""
    seen = 0
    parts = []
    for v in range(g.n):
        if seen >> v & 1:
            continue
        comp = 1 << v
        frontier = 1 << v
        while frontier:
            nxt = neighbor_set(g, frontier) & ~comp
            comp |= nxt
            frontier = nxt
        parts.append(comp)
        seen |= comp
    return parts


def component_count(g: Graph) -> int:
    return len(connected_components(g))


def bridges(g: Graph) -> set[tuple[int, int]]:
    """Edges whose removal increases the component count.

    Computed definitionally (remove and recount): at desk scale this is its
    own oracle.
    """
    base = component_count(g)
    return {e for e in g.edges() if component_count(g.remove_edge(*e)) > base}
