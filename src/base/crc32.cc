#include "src/base/crc32.h"

#include <algorithm>
#include <array>
#include <cstring>

namespace imk {
namespace {

// Slice-by-8 tables: table[0] is the classic byte-at-a-time table; table[k]
// gives the contribution of a byte processed k positions earlier, so eight
// bytes can be folded into the crc with eight independent lookups per
// iteration instead of a serial dependency chain per byte.
constexpr std::array<std::array<uint32_t, 256>, 8> MakeTables() {
  std::array<std::array<uint32_t, 256>, 8> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (uint32_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      tables[k][i] = tables[0][tables[k - 1][i] & 0xff] ^ (tables[k - 1][i] >> 8);
    }
  }
  return tables;
}

constexpr std::array<std::array<uint32_t, 256>, 8> kTables = MakeTables();

}  // namespace

uint32_t Crc32Update(uint32_t crc, ByteSpan data) {
  crc = ~crc;
  const uint8_t* p = data.data();
  size_t n = data.size();
  while (n >= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = kTables[7][lo & 0xff] ^ kTables[6][(lo >> 8) & 0xff] ^
          kTables[5][(lo >> 16) & 0xff] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xff] ^ kTables[2][(hi >> 8) & 0xff] ^
          kTables[1][(hi >> 16) & 0xff] ^ kTables[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = kTables[0][(crc ^ *p++) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

uint32_t Crc32(ByteSpan data) { return Crc32Update(0, data); }

std::vector<uint32_t> StampChunkCrcs(ByteSpan data) {
  std::vector<uint32_t> crcs;
  crcs.reserve((data.size() + kCrcChunkBytes - 1) / kCrcChunkBytes);
  for (uint64_t offset = 0; offset < data.size(); offset += kCrcChunkBytes) {
    crcs.push_back(Crc32(data.subspan(offset, std::min(kCrcChunkBytes, data.size() - offset))));
  }
  return crcs;
}

bool ChunkCrcOk(ByteSpan data, const std::vector<uint32_t>& crcs, size_t index) {
  const uint64_t offset = index * kCrcChunkBytes;
  return Crc32(data.subspan(offset, std::min(kCrcChunkBytes, data.size() - offset))) ==
         crcs[index];
}

bool AllChunkCrcsOk(ByteSpan data, const std::vector<uint32_t>& crcs) {
  for (size_t i = 0; i < crcs.size(); ++i) {
    if (!ChunkCrcOk(data, crcs, i)) {
      return false;
    }
  }
  return true;
}

}  // namespace imk
