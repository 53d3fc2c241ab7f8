#include "mirror.h"

#include <utility>

#include "base/string_pool.h"
#include "xml/document.h"

namespace pfbench {

namespace {

using pathfinder::xml::NodeKind;

constexpr uint8_t K(NodeKind k) { return static_cast<uint8_t>(k); }

void Escape(const std::string& s, bool attr, std::string* out) {
  for (char c : s) {
    switch (c) {
      case '&': *out += "&amp;"; break;
      case '<': *out += "&lt;"; break;
      case '>': *out += "&gt;"; break;
      case '"':
        *out += attr ? "&quot;" : "\"";
        break;
      default: *out += c;
    }
  }
}

}  // namespace

Mirror::Mirror(const pathfinder::xml::Document& doc,
               const pathfinder::StringPool& pool) {
  std::vector<std::pair<int, uint32_t>> open;  // node, last pre inside
  for (uint32_t v = 0; v < doc.num_nodes(); ++v) {
    while (!open.empty() && open.back().second < v) open.pop_back();
    Node n;
    n.kind = K(doc.kind(v));
    n.parent = open.empty() ? -1 : open.back().first;
    if (n.kind == K(NodeKind::kElem) || n.kind == K(NodeKind::kAttr) ||
        n.kind == K(NodeKind::kPi)) {
      n.name = std::string(pool.Get(doc.prop(v)));
    }
    if (n.kind != K(NodeKind::kElem) && n.kind != K(NodeKind::kDoc)) {
      n.value = std::string(pool.Get(doc.value(v)));
    }
    int idx = static_cast<int>(nodes_.size());
    if (n.parent >= 0) {
      Node& p = nodes_[n.parent];
      (n.kind == K(NodeKind::kAttr) ? p.attrs : p.children).push_back(idx);
    }
    nodes_.push_back(std::move(n));
    if (doc.size(v) > 0) open.emplace_back(idx, v + doc.size(v));
  }
  Renumber();
}

void Mirror::Renumber() {
  order_.clear();
  texts_.clear();
  pre_.assign(nodes_.size(), 0);
  std::vector<std::pair<int, size_t>> stack{{0, 0}};  // node, next child
  pre_[0] = 0;
  order_.push_back(0);
  while (!stack.empty()) {
    auto& [n, next] = stack.back();
    if (next == 0) {
      for (int a : nodes_[n].attrs) {
        pre_[a] = static_cast<uint32_t>(order_.size());
        order_.push_back(a);
      }
    }
    if (next == nodes_[n].children.size()) {
      stack.pop_back();
      continue;
    }
    int c = nodes_[n].children[next++];
    pre_[c] = static_cast<uint32_t>(order_.size());
    order_.push_back(c);
    if (nodes_[c].kind == K(NodeKind::kText)) texts_.push_back(c);
    stack.emplace_back(c, 0);
  }
}

int Mirror::SubtreeNodes(int n) const {
  int total = 1 + static_cast<int>(nodes_[n].attrs.size());
  for (int c : nodes_[n].children) total += SubtreeNodes(c);
  return total;
}

void Mirror::Serialize(int n, std::string* out) const {
  const Node& node = nodes_[n];
  switch (node.kind) {
    case K(NodeKind::kText):
      Escape(node.value, false, out);
      return;
    case K(NodeKind::kComment):
      *out += "<!--" + node.value + "-->";
      return;
    case K(NodeKind::kPi):
      *out += "<?" + node.name + " " + node.value + "?>";
      return;
    default:
      break;
  }
  *out += "<" + node.name;
  for (int a : node.attrs) {
    *out += " " + nodes_[a].name + "=\"";
    Escape(nodes_[a].value, true, out);
    *out += "\"";
  }
  *out += ">";
  for (int c : node.children) Serialize(c, out);
  *out += "</" + node.name + ">";
}

bool Mirror::Repeatable(const std::string& name) {
  // Elements the XMark DTD lets repeat (a '*' or '+' child of their
  // parent): copying or removing one keeps the document valid, so no
  // query meets a shape the schema rules out (say, an item with two
  // locations as an order-by key).
  static const char* const kNames[] = {
      "item",   "mail",          "category", "edge",     "person",
      "interest", "watch",       "open_auction", "bidder", "closed_auction",
      "listitem", "incategory"};
  for (const char* n : kNames) {
    if (name == n) return true;
  }
  return false;
}

int Mirror::PickSmallElement(Rng* rng, int max_nodes) const {
  for (;;) {
    int n = order_[rng->Below(order_.size())];
    const Node& node = nodes_[n];
    if (node.kind != K(NodeKind::kElem) || !Repeatable(node.name)) continue;
    int size = SubtreeNodes(n);
    if (size >= 2 && size <= max_nodes) return n;
  }
}

int Mirror::Clone(int n, int parent) {
  int idx = static_cast<int>(nodes_.size());
  Node copy = nodes_[n];
  copy.parent = parent;
  copy.attrs.clear();
  copy.children.clear();
  nodes_.push_back(std::move(copy));
  for (int a : std::vector<int>(nodes_[n].attrs)) {
    nodes_[idx].attrs.push_back(Clone(a, idx));
  }
  for (int c : std::vector<int>(nodes_[n].children)) {
    nodes_[idx].children.push_back(Clone(c, idx));
  }
  return idx;
}

UpdateOp Mirror::Next(bool structural, Rng* rng) {
  constexpr int kMaxSubtree = 64;
  UpdateOp op;
  if (!structural) {
    int t = texts_[rng->Below(texts_.size())];
    op.kind = UpdateOp::kReplace;
    op.target = pre_[t];
    op.value = SameShapeValue(nodes_[t].value, rng);
    nodes_[t].value = op.value;
  } else if (structural_calls_++ % 2 == 0) {
    // Insert a copy of a small repeatable element as the last child of
    // its parent: the copy is well-typed because its original is.
    int e = PickSmallElement(rng, kMaxSubtree);
    int parent = nodes_[e].parent;
    op.kind = UpdateOp::kInsert;
    op.target = pre_[parent];
    Serialize(e, &op.xml);
    int copy = Clone(e, parent);
    nodes_[parent].children.push_back(copy);
    Renumber();
  } else {
    int e = PickSmallElement(rng, kMaxSubtree);
    op.kind = UpdateOp::kDelete;
    op.target = pre_[e];
    auto& siblings = nodes_[nodes_[e].parent].children;
    for (size_t i = 0; i < siblings.size(); ++i) {
      if (siblings[i] == e) {
        siblings.erase(siblings.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
    Renumber();
  }
  op.nodes_after = num_nodes();
  return op;
}

}  // namespace pfbench
