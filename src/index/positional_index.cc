#include "index/positional_index.h"

#include <algorithm>
#include <numeric>

namespace dataspread {

namespace {
constexpr size_t kLeafCap = 64;    // max payloads per leaf
constexpr size_t kFanout = 32;     // max children per internal node
constexpr size_t kLeafMin = kLeafCap / 4;
constexpr size_t kFanoutMin = kFanout / 4;
}  // namespace

/// A leaf holds payloads. An internal node holds its children and, in a
/// parallel array, the element count under each: navigation and PositionOf
/// sum one contiguous array instead of visiting every sibling node.
struct PositionalIndex::Node {
  bool leaf = true;
  Node* parent = nullptr;                       // null at the root
  std::vector<uint64_t> values;                 // leaf payloads
  std::vector<std::unique_ptr<Node>> children;  // internal children
  std::vector<size_t> counts;                   // elements under children[i]

  /// Entries held: payloads of a leaf, children of an internal node.
  size_t size() const { return leaf ? values.size() : children.size(); }
  /// Elements in this subtree.
  size_t Count() const {
    return leaf ? values.size()
                : std::accumulate(counts.begin(), counts.end(), size_t{0});
  }
  /// Index of the child holding position `*pos`, which is rebased into that
  /// child. With `at_end` a position equal to a child's count stays in the
  /// child (the insert rule: appends go to the rightmost leaf).
  size_t ChildFor(size_t* pos, bool at_end) const {
    size_t i = 0;
    for (; i + 1 < counts.size(); ++i) {
      if (*pos < counts[i] || (at_end && *pos == counts[i])) break;
      *pos -= counts[i];
    }
    return i;
  }
  /// Appends `child` with its subtree count.
  void Adopt(std::unique_ptr<Node> child, size_t count) {
    child->parent = this;
    children.push_back(std::move(child));
    counts.push_back(count);
  }

  static std::unique_ptr<Node> Leaf() {
    auto n = std::make_unique<Node>();
    n->leaf = true;
    return n;
  }
  static std::unique_ptr<Node> Internal() {
    auto n = std::make_unique<Node>();
    n->leaf = false;
    return n;
  }
};

struct PositionalIndex::InsertOutcome {
  std::unique_ptr<Node> split;  // right sibling if the node overflowed
};

PositionalIndex::PositionalIndex(Mode mode)
    : root_(Node::Leaf()), locate_(mode == kLocatePayloads) {}
PositionalIndex::~PositionalIndex() = default;
PositionalIndex::PositionalIndex(PositionalIndex&&) noexcept = default;
PositionalIndex& PositionalIndex::operator=(PositionalIndex&&) noexcept = default;

Result<uint64_t> PositionalIndex::Get(size_t pos) const {
  if (pos >= size_) {
    return Status::OutOfRange("position " + std::to_string(pos) + " >= " +
                              std::to_string(size_));
  }
  const Node* node = root_.get();
  while (!node->leaf) node = node->children[node->ChildFor(&pos, false)].get();
  return node->values[pos];
}

Status PositionalIndex::Set(size_t pos, uint64_t payload) {
  if (pos >= size_) {
    return Status::OutOfRange("position " + std::to_string(pos) + " >= " +
                              std::to_string(size_));
  }
  Node* node = root_.get();
  while (!node->leaf) node = node->children[node->ChildFor(&pos, false)].get();
  if (locate_) leaf_of_[node->values[pos]] = nullptr;
  node->values[pos] = payload;
  if (locate_) Locate(node, pos, pos + 1);
  return Status::OK();
}

void PositionalIndex::Locate(Node* leaf, size_t from, size_t to) {
  if (!locate_) return;
  to = std::min(to, leaf->values.size());
  for (size_t k = from; k < to; ++k) {
    uint64_t payload = leaf->values[k];
    if (payload >= leaf_of_.size()) leaf_of_.resize(payload + 1, nullptr);
    leaf_of_[payload] = leaf;
  }
}

Result<size_t> PositionalIndex::PositionOf(uint64_t payload) const {
  if (!locate_) {
    return Status::InvalidArgument(
        "PositionOf needs an index built with kLocatePayloads");
  }
  if (payload >= leaf_of_.size() || leaf_of_[payload] == nullptr) {
    return Status::NotFound("payload " + std::to_string(payload) +
                            " is not in the index");
  }
  const Node* node = leaf_of_[payload];
  auto it = std::find(node->values.begin(), node->values.end(), payload);
  if (it == node->values.end()) {
    return Status::Internal("positional locator points at the wrong leaf");
  }
  size_t pos = static_cast<size_t>(it - node->values.begin());
  // Climb to the root: every left sibling on the way precedes the payload.
  for (const Node* parent = node->parent; parent != nullptr;
       node = parent, parent = parent->parent) {
    for (size_t k = 0; parent->children[k].get() != node; ++k) {
      pos += parent->counts[k];
    }
  }
  return pos;
}

PositionalIndex::InsertOutcome PositionalIndex::InsertRec(Node* node, size_t pos,
                                                          uint64_t payload) {
  if (node->leaf) {
    node->values.insert(node->values.begin() + static_cast<ptrdiff_t>(pos), payload);
    if (node->values.size() <= kLeafCap) {
      Locate(node, pos, pos + 1);
      return {};
    }
    auto right = Node::Leaf();
    size_t half = node->values.size() / 2;
    right->values.assign(node->values.begin() + static_cast<ptrdiff_t>(half),
                         node->values.end());
    node->values.resize(half);
    Locate(node, pos, pos + 1);  // no-op when the payload moved right
    Locate(right.get());
    return {std::move(right)};
  }
  // Internal: a position equal to a child's count goes to the end of that
  // child (the earlier one), so appends go to the rightmost leaf.
  size_t i = node->ChildFor(&pos, true);
  InsertOutcome out = InsertRec(node->children[i].get(), pos, payload);
  node->counts[i] += 1;
  if (!out.split) return {};
  size_t split_count = out.split->Count();
  node->counts[i] -= split_count;
  out.split->parent = node;
  node->children.insert(node->children.begin() + static_cast<ptrdiff_t>(i) + 1,
                        std::move(out.split));
  node->counts.insert(node->counts.begin() + static_cast<ptrdiff_t>(i) + 1,
                      split_count);
  if (node->children.size() <= kFanout) return {};
  auto right = Node::Internal();
  size_t half = node->children.size() / 2;
  for (size_t j = half; j < node->children.size(); ++j) {
    right->Adopt(std::move(node->children[j]), node->counts[j]);
  }
  node->children.resize(half);
  node->counts.resize(half);
  return {std::move(right)};
}

Status PositionalIndex::InsertAt(size_t pos, uint64_t payload) {
  if (pos > size_) {
    return Status::OutOfRange("insert position " + std::to_string(pos) + " > " +
                              std::to_string(size_));
  }
  InsertOutcome out = InsertRec(root_.get(), pos, payload);
  if (out.split) {
    auto new_root = Node::Internal();
    size_t left_count = root_->Count();
    size_t right_count = out.split->Count();
    new_root->Adopt(std::move(root_), left_count);
    new_root->Adopt(std::move(out.split), right_count);
    root_ = std::move(new_root);
  }
  size_ += 1;
  return Status::OK();
}

void PositionalIndex::PushBack(uint64_t payload) {
  Status s = InsertAt(size_, payload);
  (void)s;  // Appending at size_ cannot fail.
}

uint64_t PositionalIndex::EraseRec(Node* node, size_t pos) {
  if (node->leaf) {
    uint64_t v = node->values[pos];
    node->values.erase(node->values.begin() + static_cast<ptrdiff_t>(pos));
    if (locate_) leaf_of_[v] = nullptr;
    return v;
  }
  size_t i = node->ChildFor(&pos, false);
  Node* child = node->children[i].get();
  uint64_t v = EraseRec(child, pos);
  node->counts[i] -= 1;

  // Light rebalancing: merge an underfull child into a neighbour when the
  // combined size fits, otherwise leave it (splits guarantee halves, so the
  // tree height stays O(log of max size ever)).
  size_t min_size = child->leaf ? kLeafMin : kFanoutMin;
  if (child->size() < min_size && node->children.size() > 1) {
    size_t j = (i + 1 < node->children.size()) ? i + 1 : i - 1;
    size_t left = std::min(i, j);
    size_t right = std::max(i, j);
    Node* l = node->children[left].get();
    Node* r = node->children[right].get();
    if (l->leaf == r->leaf) {
      size_t cap = l->leaf ? kLeafCap : kFanout;
      size_t l_size = l->size();
      if (l_size + r->size() <= cap) {
        if (l->leaf) {
          l->values.insert(l->values.end(), r->values.begin(), r->values.end());
          Locate(l, l_size);
        } else {
          for (size_t k = 0; k < r->children.size(); ++k) {
            l->Adopt(std::move(r->children[k]), r->counts[k]);
          }
        }
        node->counts[left] += node->counts[right];
        node->children.erase(node->children.begin() + static_cast<ptrdiff_t>(right));
        node->counts.erase(node->counts.begin() + static_cast<ptrdiff_t>(right));
      }
    }
  }
  return v;
}

void PositionalIndex::MaybeShrinkRoot() {
  while (!root_->leaf && root_->children.size() == 1) {
    root_ = std::move(root_->children[0]);
    root_->parent = nullptr;
  }
}

Result<uint64_t> PositionalIndex::EraseAt(size_t pos) {
  if (pos >= size_) {
    return Status::OutOfRange("position " + std::to_string(pos) + " >= " +
                              std::to_string(size_));
  }
  uint64_t v = EraseRec(root_.get(), pos);
  size_ -= 1;
  MaybeShrinkRoot();
  return v;
}

void PositionalIndex::Visit(size_t begin, size_t count,
                            const std::function<void(size_t, uint64_t)>& fn) const {
  if (begin >= size_ || count == 0) return;
  size_t end = std::min(size_, begin + count);
  auto walk = [&](auto&& self, const Node* node, size_t base) -> void {
    if (node->leaf) {
      size_t lo = begin > base ? begin - base : 0;
      size_t hi = std::min(node->values.size(), end - base);
      for (size_t k = lo; k < hi; ++k) fn(base + k, node->values[k]);
      return;
    }
    size_t child_base = base;
    for (size_t k = 0; k < node->children.size(); ++k) {
      if (child_base >= end) break;
      if (child_base + node->counts[k] > begin) {
        self(self, node->children[k].get(), child_base);
      }
      child_base += node->counts[k];
    }
  };
  walk(walk, root_.get(), 0);
}

std::vector<uint64_t> PositionalIndex::GetRange(size_t begin, size_t count) const {
  std::vector<uint64_t> out;
  out.reserve(std::min(count, size_ > begin ? size_ - begin : 0));
  Visit(begin, count, [&out](size_t, uint64_t v) { out.push_back(v); });
  return out;
}

void PositionalIndex::Build(const std::vector<uint64_t>& payloads) {
  Clear();
  if (payloads.empty()) return;
  // Bottom-up bulk load: fill leaves to 3/4 capacity, then stack internals.
  const size_t per_leaf = kLeafCap * 3 / 4;
  std::vector<std::unique_ptr<Node>> level;
  for (size_t i = 0; i < payloads.size(); i += per_leaf) {
    auto leaf = Node::Leaf();
    size_t n = std::min(per_leaf, payloads.size() - i);
    leaf->values.assign(payloads.begin() + static_cast<ptrdiff_t>(i),
                        payloads.begin() + static_cast<ptrdiff_t>(i + n));
    Locate(leaf.get());
    level.push_back(std::move(leaf));
  }
  const size_t per_node = kFanout * 3 / 4;
  while (level.size() > 1) {
    std::vector<std::unique_ptr<Node>> next;
    for (size_t i = 0; i < level.size(); i += per_node) {
      auto internal = Node::Internal();
      size_t n = std::min(per_node, level.size() - i);
      for (size_t j = 0; j < n; ++j) {
        size_t count = level[i + j]->Count();
        internal->Adopt(std::move(level[i + j]), count);
      }
      next.push_back(std::move(internal));
    }
    level = std::move(next);
  }
  root_ = std::move(level[0]);
  size_ = payloads.size();
}

void PositionalIndex::Clear() {
  root_ = Node::Leaf();
  size_ = 0;
  leaf_of_.clear();
}

size_t PositionalIndex::height() const {
  size_t h = 1;
  const Node* node = root_.get();
  while (!node->leaf) {
    h += 1;
    node = node->children[0].get();
  }
  return h;
}

}  // namespace dataspread
