#include "index/key_index.h"

#include <algorithm>

namespace dataspread {

namespace {

constexpr size_t kMinCapacity = 16;

/// Smallest power-of-two slot count that holds `n` entries at load ≤ 0.75.
size_t CapacityFor(size_t n) {
  size_t capacity = kMinCapacity;
  while (capacity / 4 * 3 < n) capacity *= 2;
  return capacity;
}

}  // namespace

uint64_t KeyIndex::HashOf(const Value& key) {
  // splitmix64's finalizer.
  uint64_t z = static_cast<uint64_t>(key.Hash());
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void KeyIndex::Reserve(size_t n) {
  size_t capacity = CapacityFor(n);
  if (capacity > slots_.size()) Rehash(capacity);
}

void KeyIndex::Clear() {
  std::vector<Slot>().swap(slots_);
  mask_ = 0;
  size_ = 0;
}

void KeyIndex::Rehash(size_t capacity) {
  std::vector<Slot> old;
  old.swap(slots_);
  slots_.assign(capacity, Slot{0, kEmpty});
  mask_ = capacity - 1;
  for (const Slot& slot : old) {
    if (slot.rid == kEmpty) continue;
    size_t i = slot.hash & mask_;
    while (slots_[i].rid != kEmpty) i = (i + 1) & mask_;
    slots_[i] = slot;
  }
}

void KeyIndex::Insert(uint64_t hash, uint64_t rid) {
  if (slots_.size() / 4 * 3 < size_ + 1) {
    Rehash(std::max(kMinCapacity, slots_.size() * 2));
  }
  size_t i = hash & mask_;
  while (slots_[i].rid != kEmpty) i = (i + 1) & mask_;
  slots_[i] = Slot{hash, rid};
  size_ += 1;
}

bool KeyIndex::Erase(uint64_t hash, uint64_t rid) {
  if (slots_.empty()) return false;
  size_t hole = hash & mask_;
  while (!(slots_[hole].hash == hash && slots_[hole].rid == rid)) {
    if (slots_[hole].rid == kEmpty) return false;
    hole = (hole + 1) & mask_;
  }
  // Backward shift: pull each later entry of the probe run into the hole
  // unless its home slot lies cyclically in (hole, j] — there it is already
  // reachable without crossing the hole.
  for (size_t j = (hole + 1) & mask_; slots_[j].rid != kEmpty;
       j = (j + 1) & mask_) {
    size_t home = slots_[j].hash & mask_;
    bool reachable = hole <= j ? (hole < home && home <= j)
                               : (hole < home || home <= j);
    if (reachable) continue;
    slots_[hole] = slots_[j];
    hole = j;
  }
  slots_[hole].rid = kEmpty;
  size_ -= 1;
  return true;
}

}  // namespace dataspread
