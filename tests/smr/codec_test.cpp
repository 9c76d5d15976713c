#include "smr/codec.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace psmr::smr {
namespace {

Batch sample_batch(std::size_t n, bool with_bitmap, const BitmapConfig& cfg) {
  util::Xoshiro256 rng(n + 1);
  std::vector<Command> cmds;
  for (std::size_t i = 0; i < n; ++i) {
    Command c;
    c.type = static_cast<OpType>(rng.next_below(4));
    c.key = rng();
    c.value = rng();
    c.client_id = rng.next_below(1000);
    c.sequence = i + 1;
    c.cost_ns = static_cast<std::uint32_t>(rng.next_below(10'000));
    cmds.push_back(c);
  }
  Batch b(std::move(cmds));
  b.set_sequence(77);
  b.set_proxy_id(3);
  if (with_bitmap) b.build_bitmap(cfg);
  return b;
}

TEST(Codec, RoundTripPreservesEverything) {
  BitmapConfig cfg;
  cfg.bits = 102400;
  for (std::size_t n : {0u, 1u, 7u, 100u, 200u}) {
    const Batch original = sample_batch(n, /*with_bitmap=*/true, cfg);
    const auto bytes = encode_batch(original);
    const auto decoded = decode_batch(bytes, cfg);
    ASSERT_TRUE(decoded.has_value()) << "n=" << n;
    EXPECT_EQ(decoded->sequence(), original.sequence());
    EXPECT_EQ(decoded->proxy_id(), original.proxy_id());
    ASSERT_EQ(decoded->size(), original.size());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(decoded->commands()[i], original.commands()[i]);
    }
  }
}

TEST(Codec, DigestRebuiltBitIdentical) {
  // The digest is not shipped; the decoder's rebuild must be bit-identical
  // to what the proxy computed — otherwise replicas could disagree.
  BitmapConfig cfg;
  cfg.bits = 1024000;
  const Batch original = sample_batch(150, true, cfg);
  const auto decoded = decode_batch(encode_batch(original), cfg);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_TRUE(decoded->has_bitmap());
  EXPECT_EQ(decoded->bloom().bitmap(), original.bloom().bitmap());
}

TEST(Codec, NoBitmapStaysAbsent) {
  BitmapConfig cfg;
  const Batch original = sample_batch(10, false, cfg);
  const auto decoded = decode_batch(encode_batch(original), cfg);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(decoded->has_bitmap());
}

TEST(Codec, RejectsTruncation) {
  BitmapConfig cfg;
  const auto bytes = encode_batch(sample_batch(5, false, cfg));
  for (std::size_t cut = 0; cut < bytes.size(); cut += 3) {
    const auto decoded =
        decode_batch(std::span(bytes.data(), cut), cfg);
    EXPECT_FALSE(decoded.has_value()) << "cut=" << cut;
  }
}

TEST(Codec, RejectsBadMagic) {
  BitmapConfig cfg;
  auto bytes = encode_batch(sample_batch(3, false, cfg));
  bytes[0] ^= 0xff;
  EXPECT_FALSE(decode_batch(bytes, cfg).has_value());
}

TEST(Codec, RejectsTrailingGarbage) {
  BitmapConfig cfg;
  auto bytes = encode_batch(sample_batch(3, false, cfg));
  bytes.push_back(0);
  EXPECT_FALSE(decode_batch(bytes, cfg).has_value());
}

TEST(Codec, RejectsBadOpType) {
  BitmapConfig cfg;
  auto bytes = encode_batch(sample_batch(1, false, cfg));
  // Command block starts after magic(4) + version(1) + seq(8) + proxy(8) +
  // attempt(4) + flag(1) + count(4) = 30; first byte is the op type. 4 is
  // the first value past OpType::kRemove.
  for (const std::uint8_t bad : {std::uint8_t{4}, std::uint8_t{17}}) {
    bytes[30] = bad;
    EXPECT_FALSE(decode_batch(bytes, cfg).has_value()) << "op type " << int{bad};
  }
}

TEST(Codec, RandomMutationsNeverCrashOrFalselyDecode) {
  // Robustness sweep: flip random bytes of a valid encoding. decode_batch
  // must either reject the input or return a structurally sane batch
  // (mutations in command payload bytes are indistinguishable from data).
  util::Xoshiro256 rng(97);
  BitmapConfig cfg;
  cfg.bits = 1024;
  const auto original = encode_batch(sample_batch(20, true, cfg));
  for (int trial = 0; trial < 2000; ++trial) {
    auto mutated = original;
    const int flips = 1 + static_cast<int>(rng.next_below(4));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.next_below(mutated.size())] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    }
    const auto decoded = decode_batch(mutated, cfg);
    if (decoded.has_value()) {
      EXPECT_LE(decoded->size(), 1u << 24);
      for (const Command& c : decoded->commands()) {
        EXPECT_LE(static_cast<int>(c.type), static_cast<int>(OpType::kRemove));
      }
    }
  }
}

TEST(Codec, RandomGarbageRejected) {
  util::Xoshiro256 rng(98);
  BitmapConfig cfg;
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::uint8_t> junk(rng.next_below(200));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng());
    const auto decoded = decode_batch(junk, cfg);
    // Nearly always rejected (the magic alone filters 1 - 2^-32); if the
    // stars align, the result must still be structurally sane.
    if (decoded.has_value()) {
      EXPECT_LE(decoded->size(), 1u << 24);
    }
  }
}

TEST(Codec, SizeIsLinearInCommands) {
  BitmapConfig cfg;
  const auto small = encode_batch(sample_batch(10, true, cfg));
  const auto large = encode_batch(sample_batch(200, true, cfg));
  EXPECT_LT(large.size(), small.size() * 25);  // no m-sized bitmap payload
}

}  // namespace
}  // namespace psmr::smr
