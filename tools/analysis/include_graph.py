"""Include-graph extraction for src/ and testing/.

Every `#include "module/header.h"` in a scanned file is one edge. The graph
is file-level (with line numbers, so layering findings are clickable) and
rolls up to module-level (module = first path component under src/; the
top-level testing/ tree is the one module "testing"), which is what the
layering check and the DOT/deps.json reports consume.
"""

from cpp_source import LIBRARY_TREES

TESTING_MODULE = "testing"


class IncludeEdge:
    def __init__(self, from_file, line, to_path):
        self.from_file = from_file  # e.g. "src/core/amalur.cc"
        self.line = line
        self.to_path = to_path      # e.g. "cost/amalur_cost_model.h"

    @property
    def from_module(self):
        parts = self.from_file.split("/")
        if parts[0] == TESTING_MODULE:
            return TESTING_MODULE
        return parts[1] if len(parts) > 2 and parts[0] == "src" else None

    @property
    def to_module(self):
        return self.to_path.split("/")[0] if "/" in self.to_path else None


def extract_edges(sources):
    """All quoted-include edges from the given src/ and testing/
    SourceFiles. System includes (<...>) are not part of the layering graph
    — the hygiene pass owns those."""
    edges = []
    for source in sources:
        if not source.rel.startswith(tuple(t + "/" for t in LIBRARY_TREES)):
            continue
        for lineno, kind, path in source.includes:
            if kind != '"':
                continue
            edges.append(IncludeEdge(source.rel, lineno, path))
    return edges


def module_graph(edges):
    """Rolls file edges up to {(from_module, to_module): [IncludeEdge...]},
    self-edges (intra-module includes) excluded."""
    graph = {}
    for edge in edges:
        a, b = edge.from_module, edge.to_module
        if a is None or b is None or a == b:
            continue
        graph.setdefault((a, b), []).append(edge)
    return graph


def find_cycle(nodes, successors):
    """Returns one cycle as a list of nodes [n0, n1, ..., n0], or None.
    Deterministic: nodes and successors are visited in sorted order."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in nodes}
    stack = []

    def visit(node):
        color[node] = GRAY
        stack.append(node)
        for succ in sorted(successors.get(node, ())):
            if succ not in color:
                continue
            if color[succ] == GRAY:
                return stack[stack.index(succ):] + [succ]
            if color[succ] == WHITE:
                cycle = visit(succ)
                if cycle:
                    return cycle
        stack.pop()
        color[node] = BLACK
        return None

    for node in sorted(nodes):
        if color[node] == WHITE:
            cycle = visit(node)
            if cycle:
                return cycle
    return None
