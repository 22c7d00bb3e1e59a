#ifndef DATASPREAD_INDEX_KEY_INDEX_H_
#define DATASPREAD_INDEX_KEY_INDEX_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "types/value.h"

namespace dataspread {

/// The key→row-id half of the paper's key↔location mapping: a flat
/// open-addressing hash table of (64-bit key hash, row id) slots with linear
/// probing, load ≤ 0.75 and backward-shift deletion (no tombstones).
///
/// Keys are not stored. A probe whose hash matches a slot asks the caller
/// whether that row's key really equals the probe key — the table reads it
/// back from storage — so every key type costs the same 16 B per slot and
/// takes the same code path. Erase is by (hash, row id) and never needs the
/// key. DESIGN.md §10.
class KeyIndex {
 public:
  /// The slot hash of `key`: Value::Hash() through a 64-bit finalizer, so
  /// near-identity hashes (INT keys) still spread over the low bits the
  /// table indexes by. Consistent with Value::operator== like Value::Hash.
  static uint64_t HashOf(const Value& key);

  size_t size() const { return size_; }
  /// Slots allocated (a power of two, or 0 before the first insert).
  size_t capacity() const { return slots_.size(); }

  /// Sizes the table for `n` entries without a rehash on the way.
  void Reserve(size_t n);
  /// Removes every entry and frees the slots.
  void Clear();

  /// The row id of the entry with hash `hash` for which `matches(rid)` is
  /// true, or nullopt. `matches` runs only on full 64-bit hash matches.
  template <typename Matches>
  std::optional<uint64_t> Find(uint64_t hash, Matches&& matches) const {
    if (slots_.empty()) return std::nullopt;
    for (size_t i = hash & mask_;; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.rid == kEmpty) return std::nullopt;
      if (slot.hash == hash && matches(slot.rid)) return slot.rid;
    }
  }

  /// Adds (hash, rid). The caller has already rejected duplicate keys.
  void Insert(uint64_t hash, uint64_t rid);
  /// Removes the entry (hash, rid); false if it is not there.
  bool Erase(uint64_t hash, uint64_t rid);

 private:
  struct Slot {
    uint64_t hash;
    uint64_t rid;
  };
  static constexpr uint64_t kEmpty = ~uint64_t{0};  // rid of a free slot

  /// Reallocates to `capacity` slots (a power of two) and reinserts.
  void Rehash(size_t capacity);

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace dataspread

#endif  // DATASPREAD_INDEX_KEY_INDEX_H_
