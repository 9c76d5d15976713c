// ConflictClassMap declaration surface (DESIGN.md §13): key-range rules,
// the uniform hash partition, the unclassified sentinel, fingerprint
// stability, and the class-mask stamping on Batch.
#include "smr/conflict_class.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "smr/batch.hpp"

namespace psmr::smr {
namespace {

Command cmd(Key key) {
  Command c;
  c.type = OpType::kUpdate;
  c.key = key;
  return c;
}

TEST(ConflictClassMapTest, EmptyMapClassifiesNothing) {
  ConflictClassMap map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.num_classes(), 0u);
  EXPECT_EQ(map.class_of_key(0), ConflictClassMap::kUnclassified);
  EXPECT_EQ(map.class_mask_of(cmd(42)), ConflictClassMap::kUnclassifiedBit);
}

TEST(ConflictClassMapTest, RangeRulesFirstMatchWins) {
  ConflictClassMap map;
  map.add_range(0, 99, 0);
  map.add_range(50, 199, 1);  // overlaps; first rule wins on 50..99
  EXPECT_EQ(map.num_classes(), 2u);
  EXPECT_EQ(map.class_of_key(10), 0u);
  EXPECT_EQ(map.class_of_key(75), 0u);
  EXPECT_EQ(map.class_of_key(150), 1u);
  EXPECT_EQ(map.class_of_key(200), ConflictClassMap::kUnclassified);
}

TEST(ConflictClassMapTest, UniformPartitionIsTotalAndDeterministic) {
  const auto map = ConflictClassMap::uniform(4);
  EXPECT_EQ(map.num_classes(), 4u);
  for (Key k = 0; k < 1000; ++k) {
    const auto cls = map.class_of_key(k);
    ASSERT_LT(cls, 4u);
    EXPECT_EQ(cls, ConflictClassMap::uniform(4).class_of_key(k));
  }
}

TEST(ConflictClassMapTest, WorkerBindingIsPure) {
  EXPECT_EQ(ConflictClassMap::worker_of_class(5, 4), 1u);
  EXPECT_EQ(ConflictClassMap::worker_of_class(5, 8), 5u);
  EXPECT_EQ(ConflictClassMap::worker_of_class(0, 1), 0u);
}

TEST(ConflictClassMapTest, FingerprintDistinguishesMaps) {
  ConflictClassMap a;
  a.add_range(0, 9, 0);
  ConflictClassMap b;
  b.add_range(0, 9, 1);
  ConflictClassMap a2;
  a2.add_range(0, 9, 0);
  EXPECT_NE(a.fingerprint(), 0u);
  EXPECT_EQ(a.fingerprint(), a2.fingerprint());
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  EXPECT_NE(a.fingerprint(), ConflictClassMap().fingerprint());
  EXPECT_NE(ConflictClassMap::uniform(2).fingerprint(),
            ConflictClassMap::uniform(3).fingerprint());
}

TEST(ConflictClassMapTest, BatchStampSetsClassMaskAndFingerprint) {
  auto map = std::make_shared<ConflictClassMap>();
  map->add_range(0, 9, 0);
  map->add_range(10, 19, 3);
  Batch b({cmd(5), cmd(12), cmd(5000)});
  b.set_sequence(1);
  EXPECT_EQ(b.class_mask(), 0u);  // never stamped
  EXPECT_EQ(b.class_map_fingerprint(), 0u);
  b.stamp(map);
  EXPECT_EQ(b.class_mask(), (std::uint64_t{1} << 0) | (std::uint64_t{1} << 3) |
                                ConflictClassMap::kUnclassifiedBit);
  EXPECT_EQ(b.class_map_fingerprint(), map->fingerprint());
  EXPECT_EQ(compute_class_mask(b, *map), b.class_mask());
}

}  // namespace
}  // namespace psmr::smr
