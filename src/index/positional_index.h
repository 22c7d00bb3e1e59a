#ifndef DATASPREAD_INDEX_POSITIONAL_INDEX_H_
#define DATASPREAD_INDEX_POSITIONAL_INDEX_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/result.h"

namespace dataspread {

/// The paper's *positional index* (§3): an ordered sequence addressed by
/// position, supporting logarithmic get / insert-at / erase-at.
///
/// Implemented as a counted B+-tree: internal nodes hold children and rely on
/// per-subtree element counts for navigation (there are no keys — position is
/// implicit). This is what makes "interface-oriented operations, e.g., ordered
/// presentation, efficient": fetching the N-th..(N+k)-th displayed tuples of a
/// table, or inserting a spreadsheet row in the middle of a million, costs
/// O(log n + k) instead of the O(n) of a shifted array (see OffsetArray, the
/// ablation baseline).
///
/// Payloads are opaque 64-bit handles (storage slots, sheet axis ids, ...).
///
/// The reverse direction — the position of a given payload — is O(log n)
/// when the index is built with kLocatePayloads: every node links to its
/// parent, and a dense locator maps each payload to the leaf holding it, so
/// PositionOf scans one leaf, then climbs to the root adding the counts of
/// the left siblings on the way (DESIGN.md §10). The locator costs 8 B per
/// payload value and requires payloads to be *unique, dense* small integers
/// (a table's row ids); indexes that never ask for positions (the sheet
/// axes) leave it off and pay nothing.
class PositionalIndex {
 public:
  enum Mode { kPositionOnly, kLocatePayloads };

  explicit PositionalIndex(Mode mode = kPositionOnly);
  ~PositionalIndex();

  PositionalIndex(const PositionalIndex&) = delete;
  PositionalIndex& operator=(const PositionalIndex&) = delete;
  PositionalIndex(PositionalIndex&&) noexcept;
  PositionalIndex& operator=(PositionalIndex&&) noexcept;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Payload at `pos` in [0, size()).
  Result<uint64_t> Get(size_t pos) const;
  /// Replaces the payload at `pos`.
  Status Set(size_t pos, uint64_t payload);
  /// Inserts so the new element lands at `pos`; pos in [0, size()].
  Status InsertAt(size_t pos, uint64_t payload);
  /// Appends at the end.
  void PushBack(uint64_t payload);
  /// Removes and returns the payload at `pos`.
  Result<uint64_t> EraseAt(size_t pos);

  /// Position of `payload`, O(log n). Requires kLocatePayloads (fails
  /// otherwise); NotFound when the payload is not in the index.
  Result<size_t> PositionOf(uint64_t payload) const;

  /// Calls `fn(position, payload)` for positions [begin, begin+count) clipped
  /// to size(). O(log n + count).
  void Visit(size_t begin, size_t count,
             const std::function<void(size_t, uint64_t)>& fn) const;
  /// Convenience window fetch (the pane read path).
  std::vector<uint64_t> GetRange(size_t begin, size_t count) const;

  /// Replaces the whole content in O(n) by bulk-loading leaves bottom-up.
  void Build(const std::vector<uint64_t>& payloads);

  /// Removes everything.
  void Clear();

  /// Tree height (1 = single leaf); exposed for tests of logarithmic shape.
  size_t height() const;

 private:
  struct Node;

  // Split-aware recursive helpers; defined in the .cc.
  struct InsertOutcome;
  InsertOutcome InsertRec(Node* node, size_t pos, uint64_t payload);
  uint64_t EraseRec(Node* node, size_t pos);
  void MaybeShrinkRoot();
  /// Points the locator entries of `leaf`'s payloads [from, to) at it
  /// (kLocatePayloads only).
  void Locate(Node* leaf, size_t from = 0, size_t to = SIZE_MAX);

  std::unique_ptr<Node> root_;
  size_t size_ = 0;
  bool locate_;
  std::vector<Node*> leaf_of_;  // payload -> leaf holding it (kLocatePayloads)
};

}  // namespace dataspread

#endif  // DATASPREAD_INDEX_POSITIONAL_INDEX_H_
