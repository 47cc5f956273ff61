#include "core/integration_graph.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/status.h"

namespace amalur {
namespace core {

namespace {

/// Orders a node's outgoing edges: join children first (they stay in the
/// parent's shard), union siblings after (they open new shards), each group
/// in declaration order — this is what makes the emitted source order
/// shard-major.
struct Adjacency {
  std::vector<size_t> join_edges;
  std::vector<size_t> union_edges;
};

}  // namespace

Result<IntegrationGraphPlan> PlanIntegrationGraph(
    const std::vector<IntegrationEdge>& edges,
    const std::vector<std::string>& declared_sources) {
  if (edges.empty()) {
    return Status::InvalidArgument("an integration graph needs >= 1 edge");
  }
  const std::set<std::string> declared(declared_sources.begin(),
                                       declared_sources.end());

  // ---- Per-edge validation: endpoints, self-loops, duplicates, kinds.
  // Dimensions may have several join parents (conformed dimensions), so the
  // in-degree is tracked but only capped for facts below.
  std::set<std::pair<std::string, std::string>> seen_pairs;
  std::map<std::string, size_t> in_degree;
  std::map<std::string, size_t> union_in_degree;
  std::set<std::string> nodes;
  for (size_t e = 0; e < edges.size(); ++e) {
    const IntegrationEdge& edge = edges[e];
    for (const std::string* endpoint : {&edge.left, &edge.right}) {
      if (endpoint->empty()) {
        return Status::InvalidArgument("edge ", e,
                                       " has an empty source name");
      }
      if (!declared.empty() && declared.count(*endpoint) == 0) {
        return Status::InvalidArgument(
            "edge ", e, " references source '", *endpoint,
            "', which is not among the spec's sources");
      }
      nodes.insert(*endpoint);
      in_degree.emplace(*endpoint, 0);
      union_in_degree.emplace(*endpoint, 0);
    }
    if (edge.left == edge.right) {
      return Status::InvalidArgument("edge ", e, " joins source '", edge.left,
                                     "' to itself");
    }
    auto ordered = std::minmax(edge.left, edge.right);
    if (!seen_pairs.insert({ordered.first, ordered.second}).second) {
      return Status::InvalidArgument("duplicate edge between '", edge.left,
                                     "' and '", edge.right, "'");
    }
    if (edges.size() > 1 && edge.kind == rel::JoinKind::kFullOuterJoin) {
      return Status::InvalidArgument(
          "edge ", e, " ('", edge.left, "' -> '", edge.right, "'): the ",
          rel::JoinKindToString(edge.kind),
          " relationship is only valid on single-edge (pairwise) specs; "
          "graph edges are left/inner joins or unions");
    }
    ++in_degree[edge.right];
    if (edge.kind == rel::JoinKind::kUnion) ++union_in_degree[edge.right];
  }
  // A union-edge child is a fact shard; a fact joins the graph through
  // exactly one parent edge — only dimensions may be conformed.
  for (const auto& [name, unions] : union_in_degree) {
    if (unions > 0 && in_degree[name] > 1) {
      return Status::InvalidArgument(
          "source '", name,
          "' is a fact shard (a union-edge child) with several parent "
          "edges; only dimensions may be conformed");
    }
  }
  for (const std::string& name : declared_sources) {
    if (nodes.count(name) == 0) {
      return Status::InvalidArgument(
          "integration graph is disconnected: source '", name,
          "' appears in no edge");
    }
  }

  // ---- Root discovery. Exactly one node may have no parent; zero roots is
  // a cycle through every node, several roots a disconnected forest.
  std::vector<std::string> roots;
  for (const auto& [name, degree] : in_degree) {
    if (degree == 0) roots.push_back(name);
  }
  if (roots.empty()) {
    return Status::InvalidArgument("integration graph contains a cycle");
  }
  if (roots.size() > 1) {
    return Status::InvalidArgument(
        "integration graph is disconnected: '", roots[0], "' and '", roots[1],
        "' are both roots (no edge path connects them)");
  }

  // ---- Depth-first traversal from the root, join children before union
  // siblings. A node with several parents (a conformed dimension) is
  // *deferred* until its last parent edge arrives, then visited once — its
  // parent edges are emitted together in declaration order, so every
  // emitted edge's endpoints are both already indexed and parents precede
  // children (the layout `DeriveGraph` requires). Unreached nodes have a
  // parent edge but no path from the root: a cycle component.
  std::map<std::string, Adjacency> adjacency;
  for (size_t e = 0; e < edges.size(); ++e) {
    Adjacency& adj = adjacency[edges[e].left];
    (edges[e].kind == rel::JoinKind::kUnion ? adj.union_edges
                                            : adj.join_edges)
        .push_back(e);
  }

  IntegrationGraphPlan plan;
  std::map<std::string, size_t> index_of;
  std::map<std::string, size_t> remaining_parents;
  std::map<std::string, std::vector<size_t>> pending_edges;
  for (const auto& [name, degree] : in_degree) {
    remaining_parents[name] = degree;
  }
  std::set<std::string> facts{roots[0]};

  // Iterative DFS; the explicit stack holds edge indices to expand.
  const auto visit_node = [&](const std::string& name) {
    index_of[name] = plan.sources.size();
    plan.sources.push_back(name);
  };
  visit_node(roots[0]);
  std::vector<size_t> stack;
  const auto push_children = [&](const std::string& name) {
    auto it = adjacency.find(name);
    if (it == adjacency.end()) return;
    // Reverse push so the stack pops in declaration order, joins first.
    for (auto rit = it->second.union_edges.rbegin();
         rit != it->second.union_edges.rend(); ++rit) {
      stack.push_back(*rit);
    }
    for (auto rit = it->second.join_edges.rbegin();
         rit != it->second.join_edges.rend(); ++rit) {
      stack.push_back(*rit);
    }
  };
  push_children(roots[0]);
  while (!stack.empty()) {
    const size_t e = stack.back();
    stack.pop_back();
    const IntegrationEdge& edge = edges[e];
    if (edge.kind == rel::JoinKind::kUnion) {
      if (facts.count(edge.left) == 0) {
        return Status::InvalidArgument(
            "union edge '", edge.left, "' -> '", edge.right, "': '",
            edge.left, "' is a dimension; union edges stack fact shards only");
      }
      facts.insert(edge.right);
    }
    pending_edges[edge.right].push_back(e);
    if (--remaining_parents[edge.right] > 0) continue;  // conformed: defer
    visit_node(edge.right);
    std::vector<size_t>& arrived = pending_edges[edge.right];
    std::sort(arrived.begin(), arrived.end());  // declaration order
    for (size_t pe : arrived) {
      plan.edges.push_back(edges[pe]);
      plan.metadata_edges.push_back(
          {index_of[edges[pe].left], index_of[edge.right], edges[pe].kind});
    }
    push_children(edge.right);
  }
  if (plan.sources.size() != nodes.size()) {
    for (const std::string& name : nodes) {
      if (index_of.count(name) == 0) {
        return Status::InvalidArgument(
            "integration graph contains a cycle involving source '", name,
            "'");
      }
    }
  }
  return plan;
}

}  // namespace core
}  // namespace amalur
