// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78): the
// checksum guarding every session-journal record and the whole-table
// snapshot CRC (TableContentsCrc) that every service step and status
// computes. It runs through the SIMD dispatch (common/simd.h): the SSE4.2
// `crc32` instruction, 8 bytes at a time, on CPUs with the AVX2 tier or
// better, and a byte-at-a-time table elsewhere or under
// FALCON_SIMD_LEVEL=scalar. Every tier returns the same value. The
// polynomial matches what storage systems (RocksDB, LevelDB, ext4) use so
// torn-record detection behaves identically.
#ifndef FALCON_COMMON_CRC32C_H_
#define FALCON_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace falcon {

/// Extends `crc` (a previous Crc32c result, or 0 for a fresh stream) with
/// `data`. The running state is kept pre/post-inverted internally, so
/// chained calls equal one call over the concatenation.
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n);

/// CRC32C of one buffer.
inline uint32_t Crc32c(const void* data, size_t n) {
  return Crc32cExtend(0, data, n);
}

inline uint32_t Crc32c(std::string_view s) {
  return Crc32cExtend(0, s.data(), s.size());
}

}  // namespace falcon

#endif  // FALCON_COMMON_CRC32C_H_
