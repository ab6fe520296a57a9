#include "graph/graph_store.h"

#include <algorithm>

#include "common/time_utils.h"

namespace aiql {

void GraphStore::AddEdge(const Event& event) {
  GraphEdge edge;
  edge.event = event;
  edge.subject = NodeOf(EntityType::kProcess, event.subject);
  edge.object = NodeOf(event.object_type, event.object);
  uint32_t index = static_cast<uint32_t>(edges_.size());
  out_[edge.subject].push_back(index);
  in_[edge.object].push_back(index);
  edges_.push_back(edge);
}

GraphStore::GraphStore(const AuditDatabase* db) {
  // The node bases and the edges come from one read view; the view holds
  // the database's state lock only while they are copied.
  ReadView view = db->OpenReadView();
  entities_ = &view.entities();
  const EntityStore& es = *entities_;
  file_base_ = static_cast<NodeId>(es.processes().size());
  net_base_ = file_base_ + static_cast<NodeId>(es.files().size());
  num_nodes_ = net_base_ + es.networks().size();

  out_.resize(num_nodes_);
  in_.resize(num_nodes_);

  for (const auto& [key, partition] : view.partitions()) {
    (void)key;
    for (size_t row = 0; row < partition->size(); ++row) {
      AddEdge(partition->Row(row));
    }
  }
}

GraphStore::GraphStore(const EntityStore* entities,
                       const ProvenanceResult& result)
    : entities_(entities) {
  const EntityStore& es = *entities_;
  file_base_ = static_cast<NodeId>(es.processes().size());
  net_base_ = file_base_ + static_cast<NodeId>(es.files().size());
  num_nodes_ = result.nodes.size();

  // Node ids stay in the store's global NodeOf space (so callers can map
  // entities to nodes without a translation table), but the adjacency
  // arrays only extend to the highest id the subgraph actually touches —
  // not to the whole entity store.
  NodeId max_node = 0;
  for (const ProvenanceEdge& edge : result.edges) {
    max_node = std::max(max_node,
                        NodeOf(EntityType::kProcess, edge.event.subject));
    max_node = std::max(
        max_node, NodeOf(edge.event.object_type, edge.event.object));
  }
  if (!result.edges.empty()) {
    out_.resize(static_cast<size_t>(max_node) + 1);
    in_.resize(static_cast<size_t>(max_node) + 1);
  }

  // Provenance edges are already cause -> effect; the underlying events
  // keep their subject/object orientation, which is what the property
  // graph stores.
  for (const ProvenanceEdge& edge : result.edges) {
    AddEdge(edge.event);
  }
}

std::string ProvenanceToDot(const ProvenanceResult& result,
                            const EntityStore& entities) {
  auto escape = [](const std::string& text) {
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  };

  std::string dot = "digraph provenance {\n  rankdir=LR;\n";
  for (size_t i = 0; i < result.nodes.size(); ++i) {
    const ProvenanceNode& node = result.nodes[i];
    const char* shape = node.type == EntityType::kProcess ? "box"
                        : node.type == EntityType::kFile  ? "note"
                                                          : "ellipse";
    dot += "  n" + std::to_string(i) + " [shape=" + shape + ", label=\"" +
           escape(entities.EntityName(node.type, node.id)) + "\"";
    if (i < result.num_roots) dot += ", peripheries=2";
    dot += "];\n";
  }
  for (const ProvenanceEdge& edge : result.edges) {
    dot += "  n" + std::to_string(edge.from) + " -> n" +
           std::to_string(edge.to) + " [label=\"" +
           OpTypeToString(edge.event.op) + " @ " +
           FormatTimestamp(edge.event.start_ts) + "\"];\n";
  }
  dot += "}\n";
  return dot;
}

}  // namespace aiql
