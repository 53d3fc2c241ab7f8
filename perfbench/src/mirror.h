// The update generator's own copy of a document: a plain pointer-free
// tree with pre ranks recomputed after each structural change, so every
// update target it hands out is valid in the server's current snapshot.
// It shares no code with the store's splice logic.
#ifndef PFBENCH_MIRROR_H_
#define PFBENCH_MIRROR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace pathfinder {
class StringPool;
namespace xml {
class Document;
}
}  // namespace pathfinder

namespace pfbench {

/// One generated node-level update, in wire terms.
struct UpdateOp {
  enum Kind { kReplace, kInsert, kDelete } kind = kReplace;
  uint32_t target = 0;  // pre rank in the snapshot the update applies to
  std::string value;    // kReplace
  std::string xml;      // kInsert (appended as the target's last child)
  uint32_t nodes_after = 0;  // expected node count after the update
  bool structural() const { return kind != kReplace; }
};

class Mirror {
 public:
  Mirror(const pathfinder::xml::Document& doc,
         const pathfinder::StringPool& pool);

  uint32_t num_nodes() const { return static_cast<uint32_t>(order_.size()); }

  /// Draw the next update and apply it to the mirror. `structural`
  /// picks an insert (even calls) or a delete (odd calls) of a small
  /// repeatable element subtree, else a same-shape replace of a text
  /// leaf.
  UpdateOp Next(bool structural, Rng* rng);

 private:
  struct Node {
    uint8_t kind;  // xml::NodeKind
    int parent;
    std::string name;
    std::string value;
    std::vector<int> attrs;
    std::vector<int> children;
  };

  void Renumber();
  int SubtreeNodes(int n) const;
  void Serialize(int n, std::string* out) const;
  static bool Repeatable(const std::string& name);
  /// A random repeatable element with 2..max_nodes nodes.
  int PickSmallElement(Rng* rng, int max_nodes) const;
  int Clone(int n, int parent);

  std::vector<Node> nodes_;
  std::vector<int> order_;  // pre rank -> node index
  std::vector<uint32_t> pre_;  // node index -> pre rank (live nodes)
  std::vector<int> texts_;  // pre-ordered live text nodes
  int structural_calls_ = 0;
};

}  // namespace pfbench

#endif  // PFBENCH_MIRROR_H_
