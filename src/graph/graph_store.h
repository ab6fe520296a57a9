// Property-graph view of the audit data — the Neo4j stand-in substrate.
//
// Entities become nodes, events become edges carrying (op, timestamps,
// amount, agent). Nodes keep adjacency lists in both directions. As in
// Neo4j, node properties can be index-looked-up (we reuse the entity
// store's attribute postings), but edge pattern matching proceeds by
// traversal/expansion — there is no hash-join machinery, which is exactly
// the weakness the paper's Fig. 5 exposes on multi-step behaviors.
//
// A GraphStore can also be built from a provenance tracking result
// (engine/provenance.h): the recovered dependency graph becomes a small
// traversable property graph over the same node-id space, and can be
// exported as Graphviz DOT for the analyst.

#ifndef AIQL_GRAPH_GRAPH_STORE_H_
#define AIQL_GRAPH_GRAPH_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/provenance.h"
#include "storage/database.h"

namespace aiql {

/// Dense graph node id: processes, then files, then networks.
using NodeId = uint32_t;

/// One event edge (subject node -> object node).
struct GraphEdge {
  Event event;      ///< the original event (timestamps, op, amount, ...)
  NodeId subject = 0;
  NodeId object = 0;
};

/// Immutable property graph built from a sealed database or a provenance
/// tracking result.
class GraphStore {
 public:
  /// Builds the full graph of a database's sealed partitions. The node
  /// bases (entity counts) and the edges are copied out of one read view,
  /// so they agree with each other even while a writer ingests. Traversal
  /// still reads `entities()` afterwards, outside any view (pattern
  /// compilation, attribute lookups, projection), so while the graph is
  /// queried the caller must not ingest into `db`: interning a new entity
  /// may grow the tables those reads index.
  explicit GraphStore(const AuditDatabase* db);

  /// Builds the dependency subgraph a provenance track recovered. Only the
  /// recovered entities and events become nodes and edges; `entities` must
  /// outlive the store (it is the store the track ran against — a database
  /// or a snapshot entity store).
  GraphStore(const EntityStore* entities, const ProvenanceResult& result);

  const EntityStore& entities() const { return *entities_; }

  /// Entities in the graph: every store entity for the database form,
  /// the recovered entities for the provenance-subgraph form (whose node
  /// ids still live in the global NodeOf space).
  size_t num_nodes() const { return num_nodes_; }
  size_t num_edges() const { return edges_.size(); }

  NodeId NodeOf(EntityType type, EntityId id) const {
    switch (type) {
      case EntityType::kProcess:
        return id;
      case EntityType::kFile:
        return file_base_ + id;
      case EntityType::kNetwork:
        return net_base_ + id;
    }
    return 0;
  }
  EntityType NodeType(NodeId node) const {
    if (node >= net_base_) return EntityType::kNetwork;
    if (node >= file_base_) return EntityType::kFile;
    return EntityType::kProcess;
  }
  EntityId NodeEntity(NodeId node) const {
    if (node >= net_base_) return node - net_base_;
    if (node >= file_base_) return node - file_base_;
    return node;
  }

  const std::vector<GraphEdge>& edges() const { return edges_; }
  /// Edge indexes leaving `node` (node is the subject). Nodes beyond the
  /// adjacency range (possible for the provenance-subgraph form, whose
  /// arrays stop at the highest referenced id) have no edges.
  const std::vector<uint32_t>& OutEdges(NodeId node) const {
    static const std::vector<uint32_t> kNoEdges;
    return node < out_.size() ? out_[node] : kNoEdges;
  }
  /// Edge indexes entering `node` (node is the object).
  const std::vector<uint32_t>& InEdges(NodeId node) const {
    static const std::vector<uint32_t> kNoEdges;
    return node < in_.size() ? in_[node] : kNoEdges;
  }

 private:
  void AddEdge(const Event& event);

  const EntityStore* entities_;
  NodeId file_base_ = 0;
  NodeId net_base_ = 0;
  size_t num_nodes_ = 0;
  std::vector<GraphEdge> edges_;
  std::vector<std::vector<uint32_t>> out_;
  std::vector<std::vector<uint32_t>> in_;
};

/// Renders a provenance result as a Graphviz DOT digraph: entities as
/// typed nodes (box = process, note = file, ellipse = connection; the
/// depth-0 roots double-ringed), events as edges labeled with operation and
/// start time, ordered cause -> effect.
std::string ProvenanceToDot(const ProvenanceResult& result,
                            const EntityStore& entities);

}  // namespace aiql

#endif  // AIQL_GRAPH_GRAPH_STORE_H_
