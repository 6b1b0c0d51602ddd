// Property suite: the slicing-by-8 Crc32 against the byte-at-a-time
// table loop it replaced. Random lengths (0 to 4 KiB), start offsets
// that cover every alignment, and sums chained through random split
// points and seeds must give bit-identical values.

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "proptest/proptest.h"

namespace hpm {
namespace {

using proptest::Property;

/// The reference: one table lookup per byte, reflected IEEE polynomial.
uint32_t BytewiseCrc32(const unsigned char* p, size_t n, uint32_t seed) {
  static const std::array<uint32_t, 256> kTable = [] {
    std::array<uint32_t, 256> table{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
    return table;
  }();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) c = kTable[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

struct CrcCase {
  std::string buffer;       // the data sits at [offset, offset + length)
  size_t offset = 0;
  size_t length = 0;
  uint32_t seed = 0;
  std::vector<size_t> splits;  // ascending, inside [0, length]
};

CrcCase GenCase(Random& rng) {
  CrcCase c;
  c.offset = rng.Uniform(16);
  c.length = rng.Uniform(4097);
  c.buffer.resize(c.offset + c.length);
  for (char& b : c.buffer) b = static_cast<char>(rng.Uniform(256));
  c.seed = rng.Uniform(4) == 0 ? 0 : static_cast<uint32_t>(rng.NextUint64());
  const size_t pieces = rng.Uniform(6);
  for (size_t i = 0; i < pieces; ++i) {
    c.splits.push_back(rng.Uniform(c.length + 1));
  }
  std::sort(c.splits.begin(), c.splits.end());
  return c;
}

std::string CheckCase(const CrcCase& c) {
  const auto* data =
      reinterpret_cast<const unsigned char*>(c.buffer.data()) + c.offset;
  const uint32_t want = BytewiseCrc32(data, c.length, c.seed);
  const uint32_t whole = Crc32(data, c.length, c.seed);
  if (whole != want) {
    return "whole sum " + std::to_string(whole) + " != reference " +
           std::to_string(want);
  }
  // Chained: each piece continues from the previous piece's sum.
  uint32_t chained = c.seed;
  size_t from = 0;
  for (size_t split : c.splits) {
    chained = Crc32(data + from, split - from, chained);
    from = split;
  }
  chained = Crc32(data + from, c.length - from, chained);
  if (chained != want) {
    return "chained sum " + std::to_string(chained) + " != reference " +
           std::to_string(want);
  }
  return "";
}

TEST(PropCrc32, SlicingMatchesTheBytewiseReference) {
  Property<CrcCase> property("crc32-slicing-vs-bytewise", GenCase,
                             CheckCase);
  property.WithPrinter([](const CrcCase& c) {
    return "offset " + std::to_string(c.offset) + ", length " +
           std::to_string(c.length) + ", seed " + std::to_string(c.seed) +
           ", " + std::to_string(c.splits.size()) + " splits";
  });
  proptest::RunnerOptions options;
  options.num_cases = 500;
  const proptest::RunResult result = property.Run(options);
  EXPECT_TRUE(result.ok) << result.message;
}

}  // namespace
}  // namespace hpm
