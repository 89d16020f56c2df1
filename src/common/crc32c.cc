#include "common/crc32c.h"

#include "common/simd.h"

namespace falcon {

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n) {
  return simd::Active().crc32c_extend(crc, data, n);
}

}  // namespace falcon
