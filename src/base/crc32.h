// CRC-32 (IEEE 802.3 polynomial), used as the integrity check in image
// containers (bzImage payload) and as the guest-visible checksum the synthetic
// kernel reports at the end of init.
#ifndef IMKASLR_SRC_BASE_CRC32_H_
#define IMKASLR_SRC_BASE_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/base/bytes.h"

namespace imk {

// One-shot CRC-32 of `data`.
uint32_t Crc32(ByteSpan data);

// Incremental form: feed `data` into a running crc (start from 0).
uint32_t Crc32Update(uint32_t crc, ByteSpan data);

// Chunked integrity stamps over a shared image buffer: one CRC-32 per
// kCrcChunkBytes slice (the last slice may be short). A cache stamps once
// when it builds the buffer, then re-checks one chunk (or all of them) each
// time it hands the buffer out, so a probe costs one chunk, not the image.
constexpr uint64_t kCrcChunkBytes = 256 * 1024;
std::vector<uint32_t> StampChunkCrcs(ByteSpan data);
// True when chunk `index` of `data` still matches `crcs[index]`.
bool ChunkCrcOk(ByteSpan data, const std::vector<uint32_t>& crcs, size_t index);
// True when every chunk still matches.
bool AllChunkCrcsOk(ByteSpan data, const std::vector<uint32_t>& crcs);

}  // namespace imk

#endif  // IMKASLR_SRC_BASE_CRC32_H_
