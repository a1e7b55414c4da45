// Property tests for the shared LZ77 parser: tokens must reconstruct the
// input exactly and respect the configured window/length limits.
#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/compress/lz77.h"

namespace imk {
namespace {

Bytes Reconstruct(ByteSpan input, const std::vector<Lz77Token>& tokens) {
  Bytes out;
  for (const Lz77Token& token : tokens) {
    out.insert(out.end(), input.begin() + token.literal_start,
               input.begin() + token.literal_start + token.literal_len);
    for (uint32_t i = 0; i < token.match_len; ++i) {
      out.push_back(out[out.size() - token.match_dist]);
    }
  }
  return out;
}

Bytes RandomStructured(size_t size, uint64_t seed) {
  Rng rng(seed);
  Bytes data;
  while (data.size() < size) {
    if (rng.NextBelow(3) == 0 && !data.empty()) {
      // Repeat an earlier slice.
      const size_t start = rng.NextBelow(data.size());
      const size_t len = 1 + rng.NextBelow(std::min<size_t>(64, data.size() - start));
      for (size_t i = 0; i < len && data.size() < size; ++i) {
        data.push_back(data[start + i]);
      }
    } else {
      data.push_back(static_cast<uint8_t>(rng.Next()));
    }
  }
  return data;
}

struct Lz77Case {
  const char* name;
  Lz77Params params;
};

// Print a case by its name: the default byte dump includes the address of
// `name`, which changes from run to run and would leak into the test ids.
void PrintTo(const Lz77Case& c, std::ostream* os) { *os << c.name; }

class Lz77ParamTest : public ::testing::TestWithParam<Lz77Case> {};

TEST_P(Lz77ParamTest, TokensReconstructInput) {
  const Lz77Params& params = GetParam().params;
  for (uint64_t seed : {1u, 2u, 3u}) {
    const Bytes input = RandomStructured(20000, seed);
    const std::vector<Lz77Token> tokens = Lz77Parse(ByteSpan(input), params);
    EXPECT_EQ(Reconstruct(ByteSpan(input), tokens), input) << GetParam().name;
  }
}

TEST_P(Lz77ParamTest, TokensRespectLimits) {
  const Lz77Params& params = GetParam().params;
  const Bytes input = RandomStructured(50000, 7);
  uint64_t cursor = 0;
  for (const Lz77Token& token : Lz77Parse(ByteSpan(input), params)) {
    EXPECT_EQ(token.literal_start + token.literal_len,
              cursor + token.literal_len);  // literals are contiguous
    cursor += token.literal_len;
    if (token.match_len != 0) {
      EXPECT_GE(token.match_len, params.min_match);
      EXPECT_LE(token.match_len, params.max_match);
      EXPECT_GE(token.match_dist, 1u);
      EXPECT_LE(token.match_dist, params.window_size);
      EXPECT_LE(token.match_dist, cursor);  // never reaches before the start
    }
    cursor += token.match_len;
  }
  EXPECT_EQ(cursor, input.size());
}

INSTANTIATE_TEST_SUITE_P(
    Variants, Lz77ParamTest,
    ::testing::Values(Lz77Case{"lz4ish", {65535, 4, 0xffffffff, 8, false}},
                      Lz77Case{"lzoish", {65535, 3, 257, 4, false}},
                      Lz77Case{"gzipish", {32 * 1024, 3, 258, 32, true}},
                      Lz77Case{"zstdish", {256 * 1024, 4, 0xffffffff, 48, true}},
                      Lz77Case{"tiny_window", {64, 3, 16, 4, false}},
                      Lz77Case{"deep_lazy", {1 << 20, 4, 4096, 128, true}}),
    [](const ::testing::TestParamInfo<Lz77Case>& info) { return info.param.name; });

TEST(Lz77Test, EmptyAndTinyInputs) {
  Lz77Params params;
  EXPECT_TRUE(Lz77Parse({}, params).empty());
  const Bytes one = {42};
  auto tokens = Lz77Parse(ByteSpan(one), params);
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].literal_len, 1u);
  EXPECT_EQ(tokens[0].match_len, 0u);
}

TEST(Lz77Test, AllSameByteCompressesToOneMatch) {
  Lz77Params params;
  const Bytes input(1000, 7);
  auto tokens = Lz77Parse(ByteSpan(input), params);
  // One literal run then one (or very few) long matches.
  EXPECT_LE(tokens.size(), 4u);
  EXPECT_EQ(Reconstruct(ByteSpan(input), tokens), input);
}

}  // namespace
}  // namespace imk
