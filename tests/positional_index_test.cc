#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <unordered_map>
#include <vector>

#include "index/key_index.h"
#include "index/offset_array.h"
#include "index/positional_index.h"

namespace dataspread {
namespace {

TEST(PositionalIndexTest, EmptyIndex) {
  PositionalIndex idx;
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_TRUE(idx.empty());
  EXPECT_FALSE(idx.Get(0).ok());
  EXPECT_FALSE(idx.EraseAt(0).ok());
  EXPECT_EQ(idx.height(), 1u);
}

TEST(PositionalIndexTest, PushBackAndGet) {
  PositionalIndex idx;
  for (uint64_t i = 0; i < 1000; ++i) idx.PushBack(i * 10);
  EXPECT_EQ(idx.size(), 1000u);
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_EQ(idx.Get(i).value(), i * 10) << i;
  }
  EXPECT_FALSE(idx.Get(1000).ok());
}

TEST(PositionalIndexTest, InsertAtFront) {
  PositionalIndex idx;
  for (uint64_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(idx.InsertAt(0, i).ok());
  }
  // Values come back reversed.
  for (uint64_t i = 0; i < 300; ++i) {
    ASSERT_EQ(idx.Get(i).value(), 299 - i);
  }
}

TEST(PositionalIndexTest, InsertInMiddle) {
  PositionalIndex idx;
  idx.PushBack(1);
  idx.PushBack(3);
  ASSERT_TRUE(idx.InsertAt(1, 2).ok());
  EXPECT_EQ(idx.Get(0).value(), 1u);
  EXPECT_EQ(idx.Get(1).value(), 2u);
  EXPECT_EQ(idx.Get(2).value(), 3u);
  EXPECT_FALSE(idx.InsertAt(7, 9).ok());
}

TEST(PositionalIndexTest, EraseReturnsPayloadAndShifts) {
  PositionalIndex idx;
  for (uint64_t i = 0; i < 10; ++i) idx.PushBack(i);
  EXPECT_EQ(idx.EraseAt(3).value(), 3u);
  EXPECT_EQ(idx.size(), 9u);
  EXPECT_EQ(idx.Get(3).value(), 4u);
  EXPECT_EQ(idx.Get(8).value(), 9u);
}

TEST(PositionalIndexTest, SetReplacesPayload) {
  PositionalIndex idx;
  idx.PushBack(1);
  idx.PushBack(2);
  ASSERT_TRUE(idx.Set(1, 99).ok());
  EXPECT_EQ(idx.Get(1).value(), 99u);
  EXPECT_FALSE(idx.Set(5, 0).ok());
}

TEST(PositionalIndexTest, BuildBulkLoads) {
  std::vector<uint64_t> payloads(100000);
  for (size_t i = 0; i < payloads.size(); ++i) payloads[i] = i * 3;
  PositionalIndex idx;
  idx.Build(payloads);
  EXPECT_EQ(idx.size(), payloads.size());
  EXPECT_EQ(idx.Get(0).value(), 0u);
  EXPECT_EQ(idx.Get(99999).value(), 99999u * 3);
  EXPECT_EQ(idx.Get(4242).value(), 4242u * 3);
}

TEST(PositionalIndexTest, HeightIsLogarithmic) {
  std::vector<uint64_t> payloads(1u << 20);
  for (size_t i = 0; i < payloads.size(); ++i) payloads[i] = i;
  PositionalIndex idx;
  idx.Build(payloads);
  // fanout ~32 over 1M leaves of ~48: expect height ≤ 6.
  EXPECT_LE(idx.height(), 6u);
}

TEST(PositionalIndexTest, VisitRange) {
  PositionalIndex idx;
  for (uint64_t i = 0; i < 10000; ++i) idx.PushBack(i);
  std::vector<uint64_t> seen;
  idx.Visit(5000, 100, [&](size_t pos, uint64_t v) {
    EXPECT_EQ(pos, v);
    seen.push_back(v);
  });
  ASSERT_EQ(seen.size(), 100u);
  EXPECT_EQ(seen.front(), 5000u);
  EXPECT_EQ(seen.back(), 5099u);
  // Clipped at the end.
  EXPECT_EQ(idx.GetRange(9990, 100).size(), 10u);
  // Out of range.
  EXPECT_TRUE(idx.GetRange(20000, 5).empty());
}

TEST(PositionalIndexTest, ClearResets) {
  PositionalIndex idx;
  for (uint64_t i = 0; i < 500; ++i) idx.PushBack(i);
  idx.Clear();
  EXPECT_EQ(idx.size(), 0u);
  idx.PushBack(7);
  EXPECT_EQ(idx.Get(0).value(), 7u);
}

TEST(PositionalIndexTest, MoveSemantics) {
  PositionalIndex a;
  a.PushBack(1);
  a.PushBack(2);
  PositionalIndex b = std::move(a);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(b.Get(1).value(), 2u);
}

/// Property test: the counted B+-tree behaves exactly like the shifting
/// array baseline under a random operation mix (parameterized by seed).
class PositionalIndexPropertyTest : public ::testing::TestWithParam<uint32_t> {
};

TEST_P(PositionalIndexPropertyTest, MatchesOffsetArrayReference) {
  PositionalIndex tree;
  OffsetArray reference;
  std::mt19937 rng(GetParam());
  for (int step = 0; step < 4000; ++step) {
    int action = static_cast<int>(rng() % 100);
    if (action < 50 || reference.size() == 0) {
      size_t pos = rng() % (reference.size() + 1);
      uint64_t payload = rng();
      ASSERT_TRUE(tree.InsertAt(pos, payload).ok());
      ASSERT_TRUE(reference.InsertAt(pos, payload).ok());
    } else if (action < 75) {
      size_t pos = rng() % reference.size();
      ASSERT_EQ(tree.EraseAt(pos).value(), reference.EraseAt(pos).value());
    } else if (action < 90) {
      size_t pos = rng() % reference.size();
      ASSERT_EQ(tree.Get(pos).value(), reference.Get(pos).value());
    } else {
      size_t pos = rng() % reference.size();
      uint64_t payload = rng();
      ASSERT_TRUE(tree.Set(pos, payload).ok());
      ASSERT_TRUE(reference.Set(pos, payload).ok());
    }
    ASSERT_EQ(tree.size(), reference.size());
  }
  // Full-content equality at the end.
  std::vector<uint64_t> tree_all = tree.GetRange(0, tree.size());
  std::vector<uint64_t> ref_all = reference.GetRange(0, reference.size());
  EXPECT_EQ(tree_all, ref_all);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PositionalIndexPropertyTest,
                         ::testing::Values(1u, 7u, 13u, 99u, 2024u));

TEST(OffsetArrayTest, BasicParity) {
  OffsetArray arr;
  arr.PushBack(5);
  ASSERT_TRUE(arr.InsertAt(0, 4).ok());
  EXPECT_EQ(arr.Get(0).value(), 4u);
  EXPECT_EQ(arr.EraseAt(1).value(), 5u);
  EXPECT_EQ(arr.size(), 1u);
  EXPECT_FALSE(arr.Get(9).ok());
}

// ---------------------------------------------------------------------------
// PositionOf: the row locator (parent links + payload → leaf map) must stay
// exact through every structural change of the tree.
// ---------------------------------------------------------------------------

TEST(PositionOfTest, NeedsTheLocator) {
  PositionalIndex plain;
  plain.PushBack(0);
  EXPECT_EQ(plain.PositionOf(0).status().code(), StatusCode::kInvalidArgument);
  PositionalIndex located(PositionalIndex::kLocatePayloads);
  EXPECT_EQ(located.PositionOf(0).status().code(), StatusCode::kNotFound);
  located.PushBack(3);
  located.PushBack(1);
  EXPECT_EQ(located.PositionOf(1).value(), 1u);
  EXPECT_EQ(located.PositionOf(2).status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(located.Set(0, 2).ok());
  EXPECT_EQ(located.PositionOf(2).value(), 0u);
  EXPECT_EQ(located.PositionOf(3).status().code(), StatusCode::kNotFound);
}

/// A randomized tape of insert / erase / set / Build / Clear / move bursts
/// against a std::vector model. After every burst every live payload's
/// PositionOf must equal its model position and every retired payload must
/// be NotFound; each single op also checks the payload it touched. Payloads
/// are dense ids, recycled through a free list so stale locator entries get
/// reused. Builds of up to 40k payloads take the tree to height 4, and the
/// bursts then split and merge leaves and internals at that height.
class PositionOfTapeTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(PositionOfTapeTest, MatchesVectorModel) {
  std::mt19937 rng(GetParam());
  PositionalIndex tree(PositionalIndex::kLocatePayloads);
  std::vector<uint64_t> model;
  std::vector<uint64_t> free_ids;
  std::vector<uint64_t> retired;  // ids not in the tree right now
  uint64_t next_id = 0;
  auto fresh = [&]() -> uint64_t {
    if (!free_ids.empty() && rng() % 2 == 0) {
      size_t k = rng() % free_ids.size();
      uint64_t id = free_ids[k];
      free_ids[k] = free_ids.back();
      free_ids.pop_back();
      return id;
    }
    return next_id++;
  };
  auto check_one = [&](uint64_t payload, size_t pos) {
    auto found = tree.PositionOf(payload);
    ASSERT_TRUE(found.ok()) << payload;
    ASSERT_EQ(found.value(), pos) << payload;
  };
  std::vector<size_t> heights_seen(8, 0);
  for (int step = 0; step < 240; ++step) {
    int action = static_cast<int>(rng() % 100);
    size_t burst = 1 + rng() % 400;
    if (action < 36 || model.empty()) {
      for (size_t k = 0; k < burst; ++k) {
        // Half the inserts cluster in one region to force splits there.
        size_t pos = rng() % 2 == 0 ? rng() % (model.size() + 1)
                                    : std::min(model.size(), size_t{17});
        uint64_t id = fresh();
        ASSERT_TRUE(tree.InsertAt(pos, id).ok());
        model.insert(model.begin() + static_cast<ptrdiff_t>(pos), id);
        check_one(id, pos);
      }
    } else if (action < 72) {
      for (size_t k = 0; k < burst && !model.empty(); ++k) {
        size_t pos = rng() % 2 == 0 ? rng() % model.size()
                                    : model.size() / 2;
        uint64_t id = tree.EraseAt(pos).value();
        ASSERT_EQ(id, model[pos]);
        model.erase(model.begin() + static_cast<ptrdiff_t>(pos));
        free_ids.push_back(id);
        EXPECT_FALSE(tree.PositionOf(id).ok());
        if (pos < model.size()) check_one(model[pos], pos);
      }
    } else if (action < 86) {
      for (size_t k = 0; k < burst && !model.empty(); ++k) {
        size_t pos = rng() % model.size();
        uint64_t id = fresh();
        ASSERT_TRUE(tree.Set(pos, id).ok());
        free_ids.push_back(model[pos]);
        model[pos] = id;
        check_one(id, pos);
      }
    } else if (action < 92) {
      size_t n = rng() % 4 == 0 ? 40000 : rng() % 5000;
      free_ids.insert(free_ids.end(), model.begin(), model.end());
      model.clear();
      for (size_t k = 0; k < n; ++k) model.push_back(fresh());
      tree.Build(model);
    } else if (action < 95) {
      tree.Clear();
      free_ids.insert(free_ids.end(), model.begin(), model.end());
      model.clear();
    } else {
      PositionalIndex moved(std::move(tree));
      tree = PositionalIndex();
      tree = std::move(moved);
    }
    heights_seen[std::min<size_t>(tree.height(), 7)] += 1;
    ASSERT_EQ(tree.size(), model.size());
    for (size_t pos = 0; pos < model.size(); ++pos) check_one(model[pos], pos);
    for (uint64_t id : free_ids) {
      ASSERT_FALSE(tree.PositionOf(id).ok()) << id;
    }
    ASSERT_EQ(tree.GetRange(0, tree.size()), model);
  }
  for (size_t h = 1; h <= 4; ++h) {
    EXPECT_GT(heights_seen[h], 0u) << "height " << h << " never reached";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PositionOfTapeTest,
                         ::testing::Values(3u, 17u, 2026u));

// ---------------------------------------------------------------------------
// KeyIndex: the flat (hash, row id) table under the primary key.
// ---------------------------------------------------------------------------

TEST(KeyIndexTest, FinalizerSpreadsNearIdentityHashes) {
  // INT keys past 2^53 hash by identity; the slot hash must not keep their
  // shared low bits.
  size_t distinct_low = 0;
  std::vector<bool> seen(1024, false);
  for (int64_t i = 0; i < 256; ++i) {
    uint64_t h = KeyIndex::HashOf(Value::Int((int64_t{1} << 60) + (i << 21)));
    if (!seen[h & 1023]) distinct_low += 1;
    seen[h & 1023] = true;
  }
  EXPECT_GT(distinct_low, 200u);
  EXPECT_EQ(KeyIndex::HashOf(Value::Int(7)), KeyIndex::HashOf(Value::Real(7.0)));
}

/// Every hash forced into the same low bits, and pairs sharing the full
/// 64-bit hash: Find must fall through to `matches` and erase must keep
/// the rest of the probe run reachable (backward shift).
TEST(KeyIndexTest, CollidingHashesStayReachable) {
  KeyIndex index;
  std::vector<uint64_t> hash_of(200);
  for (uint64_t rid = 0; rid < hash_of.size(); ++rid) {
    hash_of[rid] = ((rid / 2) << 40) | 0x5;  // rids 2k, 2k+1 share a hash
    index.Insert(hash_of[rid], rid);
  }
  auto find = [&](uint64_t rid) {
    return index.Find(hash_of[rid], [&](uint64_t r) { return r == rid; });
  };
  for (uint64_t rid = 0; rid < hash_of.size(); ++rid) {
    ASSERT_EQ(find(rid), std::optional<uint64_t>(rid));
  }
  for (uint64_t rid = 0; rid < hash_of.size(); rid += 3) {
    ASSERT_TRUE(index.Erase(hash_of[rid], rid));
    ASSERT_FALSE(index.Erase(hash_of[rid], rid));
  }
  for (uint64_t rid = 0; rid < hash_of.size(); ++rid) {
    ASSERT_EQ(find(rid).has_value(), rid % 3 != 0) << rid;
  }
  EXPECT_EQ(index.size(), hash_of.size() - (hash_of.size() + 2) / 3);
}

TEST(KeyIndexTest, ReserveAvoidsRehashAndBoundsLoad) {
  KeyIndex index;
  index.Reserve(1000000);
  EXPECT_EQ(index.capacity(), size_t{1} << 21);  // 32 MB of 16-byte slots
  for (uint64_t rid = 0; rid < 1000000; ++rid) {
    index.Insert(KeyIndex::HashOf(Value::Int(static_cast<int64_t>(rid))), rid);
  }
  EXPECT_EQ(index.capacity(), size_t{1} << 21);
  index.Insert(1, 1000000);
  index.Clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.capacity(), 0u);
  EXPECT_FALSE(index.Find(1, [](uint64_t) { return true; }).has_value());
}

/// Random tape against a map model, with 6-bit hashes so probe runs are
/// long and full-hash collisions are common.
TEST(KeyIndexTest, RandomTapeMatchesModel) {
  std::mt19937 rng(5);
  KeyIndex index;
  std::unordered_map<uint64_t, uint64_t> key_of;  // rid -> key (the "storage")
  std::unordered_map<uint64_t, uint64_t> rid_of;  // key -> rid (the model)
  auto hash = [](uint64_t key) { return key % 64; };
  uint64_t next_rid = 0;
  for (int step = 0; step < 20000; ++step) {
    uint64_t key = rng() % 3000;
    auto matches = [&](uint64_t rid) { return key_of.at(rid) == key; };
    std::optional<uint64_t> found = index.Find(hash(key), matches);
    auto it = rid_of.find(key);
    ASSERT_EQ(found.has_value(), it != rid_of.end());
    if (found) ASSERT_EQ(*found, it->second);
    if (it == rid_of.end()) {
      index.Insert(hash(key), next_rid);
      key_of[next_rid] = key;
      rid_of[key] = next_rid++;
    } else if (rng() % 2 == 0) {
      ASSERT_TRUE(index.Erase(hash(key), it->second));
      key_of.erase(it->second);
      rid_of.erase(it);
    }
    ASSERT_EQ(index.size(), rid_of.size());
  }
}

}  // namespace
}  // namespace dataspread
