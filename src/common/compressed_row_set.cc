#include "common/compressed_row_set.h"

#include <algorithm>
#include <cstring>

#include "common/simd.h"

namespace falcon {
namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

// h * kFnvPrime^n (mod 2^64) — folds a run of n zero words into the FNV
// stream in O(log n).
uint64_t MulPrimePow(uint64_t h, size_t n) {
  uint64_t base = kFnvPrime;
  while (n != 0) {
    if (n & 1) h *= base;
    base *= base;
    n >>= 1;
  }
  return h;
}

// Popcount / fused |a ∩ b| over word ranges — routed through the
// runtime-dispatched SIMD tier (AVX-512 VPOPCNTDQ / AVX2 PSHUFB popcount /
// scalar fallback). These two kernels dominate bitmap-container counting.
size_t PopcountWords(const uint64_t* w, size_t n) {
  return simd::PopcountWords(w, n);
}

size_t AndCountWords(const uint64_t* a, const uint64_t* b, size_t n) {
  return simd::AndCountWords(a, b, n);
}

// Number of runs of consecutive set bits across a word range.
size_t RunsOfWords(const uint64_t* w, size_t n) {
  size_t runs = 0;
  uint64_t carry = 0;  // Bit 63 of the previous word.
  for (size_t i = 0; i < n; ++i) {
    uint64_t x = w[i];
    // A run starts at every set bit whose predecessor is clear.
    runs += static_cast<size_t>(std::popcount(x & ~((x << 1) | carry)));
    carry = x >> 63;
  }
  return runs;
}

// Encoded byte sizes (the standard Roaring space rule).
size_t ArrayBytes(size_t card) { return 2 * card; }
size_t RunBytes(size_t runs) { return 4 * runs; }
constexpr size_t kBitmapBytes = 8192;

// True iff run encoding is the smallest of the three for a container of
// `card` rows in `runs` runs.
bool RunsWin(size_t card, size_t runs) {
  return RunBytes(runs) < std::min(ArrayBytes(card), kBitmapBytes);
}

}  // namespace

// ---------------------------------------------------------------------------
// Container primitives
// ---------------------------------------------------------------------------

size_t CompressedRowSet::FindContainer(uint16_t key) const {
  size_t lo = 0, hi = containers_.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (containers_[mid].key < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return (lo < containers_.size() && containers_[lo].key == key)
             ? lo
             : containers_.size();
}

CompressedRowSet::Container& CompressedRowSet::GetOrCreate(uint16_t key) {
  size_t lo = 0, hi = containers_.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (containers_[mid].key < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < containers_.size() && containers_[lo].key == key) {
    return containers_[lo];
  }
  Container c;
  c.key = key;
  return *containers_.insert(containers_.begin() + static_cast<ptrdiff_t>(lo),
                             std::move(c));
}

size_t CompressedRowSet::ChunkWords(uint16_t key) const {
  size_t base = static_cast<size_t>(key) * kWordsPerChunk;
  size_t total = num_words();
  FALCON_DCHECK(base < total);
  return std::min(kWordsPerChunk, total - base);
}

void CompressedRowSet::Decode(const Container& c, uint64_t* words) {
  std::memset(words, 0, kWordsPerChunk * sizeof(uint64_t));
  switch (c.type) {
    case Type::kArray:
      for (uint16_t v : c.vals) words[v >> 6] |= uint64_t{1} << (v & 63);
      break;
    case Type::kBitmap:
      std::memcpy(words, c.bits.data(), kWordsPerChunk * sizeof(uint64_t));
      break;
    case Type::kRun:
      for (size_t i = 0; i + 1 < c.vals.size(); i += 2) {
        uint32_t start = c.vals[i];
        uint32_t end = start + c.vals[i + 1];  // Inclusive.
        size_t w0 = start >> 6, w1 = end >> 6;
        uint64_t first = ~uint64_t{0} << (start & 63);
        uint64_t last = ~uint64_t{0} >> (63 - (end & 63));
        if (w0 == w1) {
          words[w0] |= first & last;
        } else {
          words[w0] |= first;
          for (size_t w = w0 + 1; w < w1; ++w) words[w] = ~uint64_t{0};
          words[w1] |= last;
        }
      }
      break;
  }
}

CompressedRowSet::Container CompressedRowSet::BuildFromWords(
    uint16_t key, const uint64_t* words, size_t nwords, bool try_runs) {
  Container c;
  c.key = key;
  c.card = static_cast<uint32_t>(PopcountWords(words, nwords));
  if (c.card == 0) return c;
  size_t runs = try_runs ? RunsOfWords(words, nwords) : 0;
  if (try_runs && RunsWin(c.card, runs)) {
    c.type = Type::kRun;
    c.vals.reserve(2 * runs);
    // Walk set-bit intervals word by word.
    uint32_t run_start = 0;
    bool in_run = false;
    for (size_t w = 0; w < nwords; ++w) {
      uint64_t x = words[w];
      uint32_t bit_base = static_cast<uint32_t>(w * 64);
      if (in_run && x != ~uint64_t{0}) {
        // Run may end inside this word; handled by the scan below.
      }
      while (x != 0 || in_run) {
        if (!in_run) {
          int b = std::countr_zero(x);
          run_start = bit_base + static_cast<uint32_t>(b);
          in_run = true;
          // Clear the run's bits within this word to find its end.
          x |= (b == 0) ? 0 : ((uint64_t{1} << b) - 1);  // Fill below start.
          x = ~x;                                        // Now zeros are set bits.
          if (x == 0) break;                             // Run spans past word.
          int e = std::countr_zero(x);
          c.vals.push_back(static_cast<uint16_t>(run_start & 0xFFFF));
          c.vals.push_back(static_cast<uint16_t>(bit_base + e - 1 - run_start));
          in_run = false;
          x = words[w] & (~uint64_t{0} << e);  // Remaining bits of the word.
        } else {
          // Run continues from a previous word: find the first clear bit.
          uint64_t inv = ~x;
          if (inv == 0) break;  // Whole word set; run continues.
          int e = std::countr_zero(inv);
          c.vals.push_back(static_cast<uint16_t>(run_start & 0xFFFF));
          c.vals.push_back(static_cast<uint16_t>(bit_base + e - 1 - run_start));
          in_run = false;
          x &= ~uint64_t{0} << e;
        }
      }
    }
    if (in_run) {
      uint32_t last = static_cast<uint32_t>(nwords * 64 - 1);
      // Trim to the highest set bit (the tail word may be partial).
      uint64_t tail = words[nwords - 1];
      last = static_cast<uint32_t>((nwords - 1) * 64 + 63 -
                                   std::countl_zero(tail));
      c.vals.push_back(static_cast<uint16_t>(run_start & 0xFFFF));
      c.vals.push_back(static_cast<uint16_t>(last - run_start));
    }
    return c;
  }
  if (c.card <= kArrayMaxCard) {
    c.type = Type::kArray;
    c.vals.reserve(c.card);
    for (size_t w = 0; w < nwords; ++w) {
      uint64_t x = words[w];
      while (x) {
        int b = std::countr_zero(x);
        c.vals.push_back(static_cast<uint16_t>(w * 64 + static_cast<size_t>(b)));
        x &= x - 1;
      }
    }
  } else {
    c.type = Type::kBitmap;
    c.bits.assign(kWordsPerChunk, 0);
    std::memcpy(c.bits.data(), words, nwords * sizeof(uint64_t));
  }
  return c;
}

void CompressedRowSet::ToBitmap(Container& c) {
  if (c.type == Type::kBitmap) return;
  std::vector<uint64_t> words(kWordsPerChunk, 0);
  Decode(c, words.data());
  c.bits = std::move(words);
  c.vals.clear();
  c.vals.shrink_to_fit();
  c.type = Type::kBitmap;
}

void CompressedRowSet::ToArray(Container& c) {
  if (c.type == Type::kArray) return;
  FALCON_DCHECK(c.card <= kArrayMaxCard);
  std::vector<uint16_t> vals;
  vals.reserve(c.card);
  if (c.type == Type::kBitmap) {
    for (size_t w = 0; w < kWordsPerChunk; ++w) {
      uint64_t x = c.bits[w];
      while (x) {
        int b = std::countr_zero(x);
        vals.push_back(static_cast<uint16_t>(w * 64 + static_cast<size_t>(b)));
        x &= x - 1;
      }
    }
  } else {  // kRun
    for (size_t i = 0; i + 1 < c.vals.size(); i += 2) {
      uint32_t start = c.vals[i];
      uint32_t end = start + c.vals[i + 1];
      for (uint32_t v = start; v <= end; ++v) {
        vals.push_back(static_cast<uint16_t>(v));
      }
    }
  }
  c.vals = std::move(vals);
  c.bits.clear();
  c.bits.shrink_to_fit();
  c.type = Type::kArray;
}

void CompressedRowSet::UnRun(Container& c) {
  if (c.type != Type::kRun) return;
  if (c.card > kArrayMaxCard) {
    ToBitmap(c);
  } else {
    ToArray(c);
  }
}

void CompressedRowSet::NormalizeAfterRemoval(Container& c) {
  if (c.type == Type::kBitmap && c.card <= kArrayMaxCard) ToArray(c);
}

// ---------------------------------------------------------------------------
// Point operations
// ---------------------------------------------------------------------------

void CompressedRowSet::Set(size_t row) {
  FALCON_DCHECK(row < universe_size_);
  uint16_t key = static_cast<uint16_t>(row >> 16);
  uint16_t low = static_cast<uint16_t>(row & 0xFFFF);
  Container& c = GetOrCreate(key);
  UnRun(c);
  if (c.type == Type::kBitmap) {
    uint64_t& w = c.bits[low >> 6];
    uint64_t mask = uint64_t{1} << (low & 63);
    if (!(w & mask)) {
      w |= mask;
      ++c.card;
    }
    return;
  }
  auto it = std::lower_bound(c.vals.begin(), c.vals.end(), low);
  if (it != c.vals.end() && *it == low) return;
  if (c.card == kArrayMaxCard) {  // Promotion: the insert would overflow.
    ToBitmap(c);
    c.bits[low >> 6] |= uint64_t{1} << (low & 63);
    ++c.card;
    return;
  }
  c.vals.insert(it, low);
  ++c.card;
}

void CompressedRowSet::Clear(size_t row) {
  FALCON_DCHECK(row < universe_size_);
  uint16_t key = static_cast<uint16_t>(row >> 16);
  uint16_t low = static_cast<uint16_t>(row & 0xFFFF);
  size_t idx = FindContainer(key);
  if (idx == containers_.size()) return;
  Container& c = containers_[idx];
  if (c.type == Type::kRun) {
    // Cheap miss test before paying the re-encode.
    bool present = false;
    for (size_t i = 0; i + 1 < c.vals.size() && c.vals[i] <= low; i += 2) {
      if (low <= static_cast<uint32_t>(c.vals[i]) + c.vals[i + 1]) {
        present = true;
        break;
      }
    }
    if (!present) return;
    UnRun(c);
  }
  if (c.type == Type::kBitmap) {
    uint64_t& w = c.bits[low >> 6];
    uint64_t mask = uint64_t{1} << (low & 63);
    if (!(w & mask)) return;
    w &= ~mask;
    --c.card;
    NormalizeAfterRemoval(c);
  } else {
    auto it = std::lower_bound(c.vals.begin(), c.vals.end(), low);
    if (it == c.vals.end() || *it != low) return;
    c.vals.erase(it);
    --c.card;
  }
  if (c.card == 0) {
    containers_.erase(containers_.begin() + static_cast<ptrdiff_t>(idx));
  }
}

bool CompressedRowSet::Test(size_t row) const {
  FALCON_DCHECK(row < universe_size_);
  uint16_t key = static_cast<uint16_t>(row >> 16);
  uint16_t low = static_cast<uint16_t>(row & 0xFFFF);
  size_t idx = FindContainer(key);
  if (idx == containers_.size()) return false;
  const Container& c = containers_[idx];
  switch (c.type) {
    case Type::kBitmap:
      return (c.bits[low >> 6] >> (low & 63)) & 1;
    case Type::kArray:
      return std::binary_search(c.vals.begin(), c.vals.end(), low);
    case Type::kRun:
      for (size_t i = 0; i + 1 < c.vals.size() && c.vals[i] <= low; i += 2) {
        if (low <= static_cast<uint32_t>(c.vals[i]) + c.vals[i + 1]) {
          return true;
        }
      }
      return false;
  }
  return false;
}

void CompressedRowSet::SetAll() {
  containers_.clear();
  if (universe_size_ == 0) return;
  size_t nchunks = (universe_size_ + kChunkRows - 1) / kChunkRows;
  containers_.reserve(nchunks);
  for (size_t k = 0; k < nchunks; ++k) {
    Container c;
    c.key = static_cast<uint16_t>(k);
    c.type = Type::kRun;
    size_t rows =
        std::min(kChunkRows, universe_size_ - k * kChunkRows);
    c.card = static_cast<uint32_t>(rows);
    c.vals = {0, static_cast<uint16_t>(rows - 1)};
    containers_.push_back(std::move(c));
  }
}

size_t CompressedRowSet::First() const {
  if (containers_.empty()) return universe_size_;
  const Container& c = containers_.front();
  size_t base = static_cast<size_t>(c.key) << 16;
  switch (c.type) {
    case Type::kArray:
    case Type::kRun:
      return base + c.vals.front();
    case Type::kBitmap:
      for (size_t w = 0; w < kWordsPerChunk; ++w) {
        if (c.bits[w]) {
          return base + w * 64 +
                 static_cast<size_t>(std::countr_zero(c.bits[w]));
        }
      }
      break;
  }
  return universe_size_;
}

// ---------------------------------------------------------------------------
// Dense conversions
// ---------------------------------------------------------------------------

CompressedRowSet CompressedRowSet::FromDense(const RowSet& dense) {
  CompressedRowSet out(dense.universe_size());
  size_t total_words = dense.universe_size() == 0 ? 0 : out.num_words();
  std::vector<uint64_t> buf(kWordsPerChunk);
  for (size_t base = 0; base < total_words; base += kWordsPerChunk) {
    size_t nwords = std::min(kWordsPerChunk, total_words - base);
    bool any = false;
    for (size_t i = 0; i < nwords; ++i) {
      buf[i] = dense.word(base + i);
      any |= buf[i] != 0;
    }
    if (!any) continue;
    Container c = BuildFromWords(static_cast<uint16_t>(base / kWordsPerChunk),
                                 buf.data(), nwords, /*try_runs=*/true);
    out.containers_.push_back(std::move(c));
  }
  return out;
}

CompressedRowSet CompressedRowSet::FromSorted(size_t universe_size,
                                              std::span<const uint32_t> rows) {
  CompressedRowSet out(universe_size);
  // One container per chunk of rows sharing a high half, encoded by the
  // same rule BuildFromWords(try_runs=true) applies to its words.
  for (size_t begin = 0; begin < rows.size();) {
    FALCON_DCHECK(rows[begin] < universe_size);
    uint32_t key = rows[begin] >> 16;
    size_t end = begin + 1;
    size_t runs = 1;
    for (; end < rows.size() && (rows[end] >> 16) == key; ++end) {
      FALCON_DCHECK(rows[end] > rows[end - 1]);
      runs += rows[end] != rows[end - 1] + 1;
    }
    Container c;
    c.key = static_cast<uint16_t>(key);
    c.card = static_cast<uint32_t>(end - begin);
    if (RunsWin(c.card, runs)) {
      c.type = Type::kRun;
      c.vals.reserve(2 * runs);
      size_t run_begin = begin;
      for (size_t i = begin + 1; i <= end; ++i) {
        if (i < end && rows[i] == rows[i - 1] + 1) continue;
        c.vals.push_back(static_cast<uint16_t>(rows[run_begin] & 0xFFFF));
        c.vals.push_back(static_cast<uint16_t>(rows[i - 1] - rows[run_begin]));
        run_begin = i;
      }
    } else if (c.card <= kArrayMaxCard) {
      c.type = Type::kArray;
      c.vals.reserve(c.card);
      for (size_t i = begin; i < end; ++i) {
        c.vals.push_back(static_cast<uint16_t>(rows[i] & 0xFFFF));
      }
    } else {
      c.type = Type::kBitmap;
      c.bits.assign(kWordsPerChunk, 0);
      for (size_t i = begin; i < end; ++i) {
        uint32_t low = rows[i] & 0xFFFF;
        c.bits[low >> 6] |= uint64_t{1} << (low & 63);
      }
    }
    out.containers_.push_back(std::move(c));
    begin = end;
  }
  return out;
}

RowSet CompressedRowSet::ToDense() const {
  RowSet out(universe_size_);
  std::vector<uint64_t> buf(kWordsPerChunk);
  for (const Container& c : containers_) {
    Decode(c, buf.data());
    size_t base = static_cast<size_t>(c.key) * kWordsPerChunk;
    size_t nwords = ChunkWords(c.key);
    for (size_t i = 0; i < nwords; ++i) out.SetWord(base + i, buf[i]);
  }
  return out;
}

void CompressedRowSet::CopyWords(size_t word_begin, size_t word_count,
                                 uint64_t* out) const {
  FALCON_DCHECK(word_begin + word_count <= num_words());
  std::memset(out, 0, word_count * sizeof(uint64_t));
  if (word_count == 0) return;
  std::vector<uint64_t> buf(kWordsPerChunk);
  size_t word_end = word_begin + word_count;
  for (const Container& c : containers_) {
    size_t base = static_cast<size_t>(c.key) * kWordsPerChunk;
    if (base >= word_end || base + kWordsPerChunk <= word_begin) continue;
    Decode(c, buf.data());
    size_t lo = std::max(base, word_begin);
    size_t hi = std::min(base + ChunkWords(c.key), word_end);
    for (size_t w = lo; w < hi; ++w) out[w - word_begin] = buf[w - base];
  }
}

void CompressedRowSet::RunOptimize() {
  std::vector<uint64_t> buf(kWordsPerChunk);
  for (Container& c : containers_) {
    if (c.type == Type::kRun) continue;
    Decode(c, buf.data());
    size_t nwords = ChunkWords(c.key);
    if (RunsWin(c.card, RunsOfWords(buf.data(), nwords))) {
      c = BuildFromWords(c.key, buf.data(), nwords, /*try_runs=*/true);
    }
  }
}

size_t CompressedRowSet::HeapBytes() const {
  size_t bytes = containers_.capacity() * sizeof(Container);
  for (const Container& c : containers_) {
    bytes += c.vals.capacity() * sizeof(uint16_t) +
             c.bits.capacity() * sizeof(uint64_t);
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// Compressed ∘ compressed kernels
// ---------------------------------------------------------------------------

namespace {

// Sorted-array intersection, routed through the dispatched SIMD tier
// (SSE4.2 PCMPESTRM merge, galloping on lopsided inputs — the crossover
// lives in the kernel layer; see simd.h).
void IntersectArrays(const std::vector<uint16_t>& a,
                     const std::vector<uint16_t>& b,
                     std::vector<uint16_t>* out) {
  out->resize(std::min(a.size(), b.size()) + simd::kIntersectSlack);
  size_t n = simd::IntersectU16(a.data(), a.size(), b.data(), b.size(),
                                out->data());
  out->resize(n);
}

size_t IntersectArraysCount(const std::vector<uint16_t>& a,
                            const std::vector<uint16_t>& b) {
  return simd::IntersectU16Count(a.data(), a.size(), b.data(), b.size());
}

bool BitmapTest(const std::vector<uint64_t>& bits, uint16_t v) {
  return (bits[v >> 6] >> (v & 63)) & 1;
}

// |array ∩ runs|: merge walk over two sorted sequences (values vs run
// intervals) — O(|vals| + |runs|), no chunk decode.
size_t ArrayRunCount(const std::vector<uint16_t>& vals,
                     const std::vector<uint16_t>& runs) {
  size_t n = 0;
  size_t ri = 0;
  for (size_t i = 0; i < vals.size() && ri + 1 < runs.size();) {
    uint32_t v = vals[i];
    uint32_t start = runs[ri];
    uint32_t end = start + runs[ri + 1];  // Inclusive.
    if (v < start) {
      ++i;
    } else if (v > end) {
      ri += 2;
    } else {
      ++n;
      ++i;
    }
  }
  return n;
}

// |runs_a ∩ runs_b|: interval intersection merge — O(|a| + |b|).
size_t RunRunCount(const std::vector<uint16_t>& a,
                   const std::vector<uint16_t>& b) {
  size_t n = 0;
  size_t i = 0, j = 0;
  while (i + 1 < a.size() && j + 1 < b.size()) {
    uint32_t sa = a[i], ea = sa + a[i + 1];
    uint32_t sb = b[j], eb = sb + b[j + 1];
    uint32_t lo = std::max(sa, sb);
    uint32_t hi = std::min(ea, eb);
    if (lo <= hi) n += hi - lo + 1;
    if (ea < eb) {
      i += 2;
    } else if (eb < ea) {
      j += 2;
    } else {
      i += 2;
      j += 2;
    }
  }
  return n;
}

// |runs ∩ bitmap words|: edge-masked popcounts per run, SIMD popcount for
// the interior words — no chunk decode.
size_t RunBitmapCountWords(const std::vector<uint16_t>& runs,
                           const uint64_t* words) {
  size_t n = 0;
  for (size_t i = 0; i + 1 < runs.size(); i += 2) {
    uint32_t start = runs[i];
    uint32_t end = start + runs[i + 1];  // Inclusive.
    size_t w0 = start >> 6, w1 = end >> 6;
    uint64_t first = ~uint64_t{0} << (start & 63);
    uint64_t last = ~uint64_t{0} >> (63 - (end & 63));
    if (w0 == w1) {
      n += static_cast<size_t>(std::popcount(words[w0] & first & last));
    } else {
      n += static_cast<size_t>(std::popcount(words[w0] & first));
      n += simd::PopcountWords(words + w0 + 1, w1 - w0 - 1);
      n += static_cast<size_t>(std::popcount(words[w1] & last));
    }
  }
  return n;
}

}  // namespace

// Decode scratch that only materializes (8KB, zero-filled) when a run
// container actually needs expanding — the common array/bitmap mixes never
// touch it, which matters on sparse hot paths.
const uint64_t* CompressedRowSet::DecodeLazy(const Container& c,
                                             std::vector<uint64_t>& buf) {
  if (buf.empty()) buf.resize(kWordsPerChunk);
  Decode(c, buf.data());
  return buf.data();
}

void CompressedRowSet::And(const CompressedRowSet& other) {
  FALCON_DCHECK(universe_size_ == other.universe_size_);
  std::vector<Container> out;
  out.reserve(std::min(containers_.size(), other.containers_.size()));
  std::vector<uint64_t> buf_a, buf_b;
  size_t i = 0, j = 0;
  while (i < containers_.size() && j < other.containers_.size()) {
    Container& a = containers_[i];
    const Container& b = other.containers_[j];
    if (a.key < b.key) {
      ++i;
    } else if (b.key < a.key) {
      ++j;
    } else {
      Container r;
      r.key = a.key;
      if (a.type == Type::kArray && b.type == Type::kArray) {
        r.type = Type::kArray;
        IntersectArrays(a.vals, b.vals, &r.vals);
        r.card = static_cast<uint32_t>(r.vals.size());
      } else if (a.type == Type::kArray && b.type == Type::kBitmap) {
        r.type = Type::kArray;
        for (uint16_t v : a.vals) {
          if (BitmapTest(b.bits, v)) r.vals.push_back(v);
        }
        r.card = static_cast<uint32_t>(r.vals.size());
      } else if (a.type == Type::kBitmap && b.type == Type::kArray) {
        r.type = Type::kArray;
        for (uint16_t v : b.vals) {
          if (BitmapTest(a.bits, v)) r.vals.push_back(v);
        }
        r.card = static_cast<uint32_t>(r.vals.size());
      } else {
        // A run side (or bitmap×bitmap): go through decoded words.
        const uint64_t* wa =
            a.type == Type::kBitmap ? a.bits.data() : DecodeLazy(a, buf_a);
        const uint64_t* wb =
            b.type == Type::kBitmap ? b.bits.data() : DecodeLazy(b, buf_b);
        size_t nwords = ChunkWords(a.key);
        std::vector<uint64_t> anded(nwords);
        for (size_t w = 0; w < nwords; ++w) anded[w] = wa[w] & wb[w];
        r = BuildFromWords(a.key, anded.data(), nwords, /*try_runs=*/false);
      }
      if (r.card > 0) out.push_back(std::move(r));
      ++i;
      ++j;
    }
  }
  containers_ = std::move(out);
}

size_t CompressedRowSet::AndCount(const CompressedRowSet& other) const {
  FALCON_DCHECK(universe_size_ == other.universe_size_);
  size_t n = 0;
  size_t i = 0, j = 0;
  while (i < containers_.size() && j < other.containers_.size()) {
    const Container& a = containers_[i];
    const Container& b = other.containers_[j];
    if (a.key < b.key) {
      ++i;
    } else if (b.key < a.key) {
      ++j;
    } else {
      // Every type pairing counts directly on the encoded forms — the old
      // decode-to-8KB-scratch path (and its two zero-filled allocations per
      // call) is gone, which is what flipped sparse compressed AndCount
      // below dense.
      if (a.type == Type::kArray && b.type == Type::kArray) {
        n += IntersectArraysCount(a.vals, b.vals);
      } else if (a.type == Type::kArray && b.type == Type::kBitmap) {
        n += simd::ArrayBitmapCount(a.vals.data(), a.vals.size(),
                                    b.bits.data());
      } else if (a.type == Type::kBitmap && b.type == Type::kArray) {
        n += simd::ArrayBitmapCount(b.vals.data(), b.vals.size(),
                                    a.bits.data());
      } else if (a.type == Type::kBitmap && b.type == Type::kBitmap) {
        n += AndCountWords(a.bits.data(), b.bits.data(), ChunkWords(a.key));
      } else if (a.type == Type::kRun && b.type == Type::kRun) {
        n += RunRunCount(a.vals, b.vals);
      } else if (a.type == Type::kRun) {
        n += b.type == Type::kArray ? ArrayRunCount(b.vals, a.vals)
                                    : RunBitmapCountWords(a.vals,
                                                          b.bits.data());
      } else {  // b.type == kRun
        n += a.type == Type::kArray ? ArrayRunCount(a.vals, b.vals)
                                    : RunBitmapCountWords(b.vals,
                                                          a.bits.data());
      }
      ++i;
      ++j;
    }
  }
  return n;
}

void CompressedRowSet::AndNot(const CompressedRowSet& other) {
  FALCON_DCHECK(universe_size_ == other.universe_size_);
  std::vector<Container> out;
  out.reserve(containers_.size());
  std::vector<uint64_t> buf_a, buf_b;  // Lazy decode scratch (runs only).
  size_t j = 0;
  for (size_t i = 0; i < containers_.size(); ++i) {
    Container& a = containers_[i];
    while (j < other.containers_.size() && other.containers_[j].key < a.key) {
      ++j;
    }
    if (j == other.containers_.size() || other.containers_[j].key != a.key) {
      out.push_back(std::move(a));  // No overlap: keep as is.
      continue;
    }
    const Container& b = other.containers_[j];
    Container r;
    r.key = a.key;
    if (a.type == Type::kArray &&
        (b.type == Type::kArray || b.type == Type::kBitmap ||
         b.type == Type::kRun)) {
      r.type = Type::kArray;
      if (b.type == Type::kArray) {
        r.vals.reserve(a.vals.size());
        std::set_difference(a.vals.begin(), a.vals.end(), b.vals.begin(),
                            b.vals.end(), std::back_inserter(r.vals));
      } else if (b.type == Type::kBitmap) {
        for (uint16_t v : a.vals) {
          if (!BitmapTest(b.bits, v)) r.vals.push_back(v);
        }
      } else {
        DecodeLazy(b, buf_b);
        for (uint16_t v : a.vals) {
          if (!BitmapTest(buf_b, v)) r.vals.push_back(v);
        }
      }
      r.card = static_cast<uint32_t>(r.vals.size());
    } else {
      const uint64_t* wa =
          a.type == Type::kBitmap ? a.bits.data() : DecodeLazy(a, buf_a);
      const uint64_t* wb =
          b.type == Type::kBitmap ? b.bits.data() : DecodeLazy(b, buf_b);
      size_t nwords = ChunkWords(a.key);
      std::vector<uint64_t> diff(nwords);
      for (size_t w = 0; w < nwords; ++w) diff[w] = wa[w] & ~wb[w];
      r = BuildFromWords(a.key, diff.data(), nwords, /*try_runs=*/false);
    }
    if (r.card > 0) out.push_back(std::move(r));
  }
  containers_ = std::move(out);
}

void CompressedRowSet::Or(const CompressedRowSet& other) {
  FALCON_DCHECK(universe_size_ == other.universe_size_);
  std::vector<Container> out;
  out.reserve(containers_.size() + other.containers_.size());
  std::vector<uint64_t> buf_a, buf_b;  // Lazy decode scratch (runs only).
  size_t i = 0, j = 0;
  while (i < containers_.size() || j < other.containers_.size()) {
    bool take_a = j == other.containers_.size() ||
                  (i < containers_.size() &&
                   containers_[i].key < other.containers_[j].key);
    bool take_b = i == containers_.size() ||
                  (j < other.containers_.size() &&
                   other.containers_[j].key < containers_[i].key);
    if (take_a) {
      out.push_back(std::move(containers_[i++]));
      continue;
    }
    if (take_b) {
      out.push_back(other.containers_[j++]);  // Copy.
      continue;
    }
    Container& a = containers_[i];
    const Container& b = other.containers_[j];
    Container r;
    r.key = a.key;
    if (a.type == Type::kArray && b.type == Type::kArray &&
        a.vals.size() + b.vals.size() <= kArrayMaxCard) {
      r.type = Type::kArray;
      r.vals.reserve(a.vals.size() + b.vals.size());
      std::set_union(a.vals.begin(), a.vals.end(), b.vals.begin(),
                     b.vals.end(), std::back_inserter(r.vals));
      r.card = static_cast<uint32_t>(r.vals.size());
    } else {
      const uint64_t* wa =
          a.type == Type::kBitmap ? a.bits.data() : DecodeLazy(a, buf_a);
      const uint64_t* wb =
          b.type == Type::kBitmap ? b.bits.data() : DecodeLazy(b, buf_b);
      size_t nwords = ChunkWords(a.key);
      std::vector<uint64_t> ored(nwords);
      for (size_t w = 0; w < nwords; ++w) ored[w] = wa[w] | wb[w];
      r = BuildFromWords(a.key, ored.data(), nwords, /*try_runs=*/false);
    }
    if (r.card > 0) out.push_back(std::move(r));
    ++i;
    ++j;
  }
  containers_ = std::move(out);
}

bool CompressedRowSet::IsSubsetOf(const CompressedRowSet& other) const {
  FALCON_DCHECK(universe_size_ == other.universe_size_);
  std::vector<uint64_t> buf_a, buf_b;  // Lazy decode scratch (runs only).
  size_t j = 0;
  for (const Container& a : containers_) {
    while (j < other.containers_.size() && other.containers_[j].key < a.key) {
      ++j;
    }
    if (j == other.containers_.size() || other.containers_[j].key != a.key) {
      return false;  // a has rows in a chunk other lacks entirely.
    }
    const Container& b = other.containers_[j];
    if (a.card > b.card) return false;
    if (a.type == Type::kArray) {
      if (b.type == Type::kArray) {
        if (!std::includes(b.vals.begin(), b.vals.end(), a.vals.begin(),
                           a.vals.end())) {
          return false;
        }
      } else if (b.type == Type::kBitmap) {
        for (uint16_t v : a.vals) {
          if (!BitmapTest(b.bits, v)) return false;
        }
      } else {
        DecodeLazy(b, buf_b);
        for (uint16_t v : a.vals) {
          if (!BitmapTest(buf_b, v)) return false;
        }
      }
    } else {
      const uint64_t* wa =
          a.type == Type::kBitmap ? a.bits.data() : DecodeLazy(a, buf_a);
      const uint64_t* wb =
          b.type == Type::kBitmap ? b.bits.data() : DecodeLazy(b, buf_b);
      size_t nwords = ChunkWords(a.key);
      for (size_t w = 0; w < nwords; ++w) {
        if (wa[w] & ~wb[w]) return false;
      }
    }
  }
  return true;
}

bool CompressedRowSet::DisjointWith(const CompressedRowSet& other) const {
  FALCON_DCHECK(universe_size_ == other.universe_size_);
  std::vector<uint64_t> buf_a, buf_b;  // Lazy decode scratch (runs only).
  size_t i = 0, j = 0;
  while (i < containers_.size() && j < other.containers_.size()) {
    const Container& a = containers_[i];
    const Container& b = other.containers_[j];
    if (a.key < b.key) {
      ++i;
    } else if (b.key < a.key) {
      ++j;
    } else {
      if (a.type == Type::kArray && b.type != Type::kRun) {
        for (uint16_t v : a.vals) {
          bool hit = b.type == Type::kArray
                         ? std::binary_search(b.vals.begin(), b.vals.end(), v)
                         : BitmapTest(b.bits, v);
          if (hit) return false;
        }
      } else if (b.type == Type::kArray && a.type != Type::kRun) {
        for (uint16_t v : b.vals) {
          if (BitmapTest(a.bits, v)) return false;
        }
      } else {
        const uint64_t* wa =
            a.type == Type::kBitmap ? a.bits.data() : DecodeLazy(a, buf_a);
        const uint64_t* wb =
            b.type == Type::kBitmap ? b.bits.data() : DecodeLazy(b, buf_b);
        size_t nwords = ChunkWords(a.key);
        for (size_t w = 0; w < nwords; ++w) {
          if (wa[w] & wb[w]) return false;
        }
      }
      ++i;
      ++j;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Mixed kernels (dense operand)
// ---------------------------------------------------------------------------

void CompressedRowSet::And(const RowSet& dense) {
  FALCON_DCHECK(universe_size_ == dense.universe_size());
  std::vector<Container> out;
  out.reserve(containers_.size());
  std::vector<uint64_t> buf;  // Lazy decode scratch.
  for (Container& c : containers_) {
    size_t base = static_cast<size_t>(c.key) * kWordsPerChunk;
    size_t nwords = ChunkWords(c.key);
    Container r;
    r.key = c.key;
    if (c.type == Type::kArray) {
      r.type = Type::kArray;
      for (uint16_t v : c.vals) {
        if (dense.Test((static_cast<size_t>(c.key) << 16) + v)) {
          r.vals.push_back(v);
        }
      }
      r.card = static_cast<uint32_t>(r.vals.size());
    } else {
      const uint64_t* wc =
          c.type == Type::kBitmap ? c.bits.data() : DecodeLazy(c, buf);
      std::vector<uint64_t> anded(nwords);
      for (size_t w = 0; w < nwords; ++w) anded[w] = wc[w] & dense.word(base + w);
      r = BuildFromWords(c.key, anded.data(), nwords, /*try_runs=*/false);
    }
    if (r.card > 0) out.push_back(std::move(r));
  }
  containers_ = std::move(out);
}

void CompressedRowSet::AndNot(const RowSet& dense) {
  FALCON_DCHECK(universe_size_ == dense.universe_size());
  std::vector<Container> out;
  out.reserve(containers_.size());
  std::vector<uint64_t> buf;  // Lazy decode scratch.
  for (Container& c : containers_) {
    size_t base = static_cast<size_t>(c.key) * kWordsPerChunk;
    size_t nwords = ChunkWords(c.key);
    Container r;
    r.key = c.key;
    if (c.type == Type::kArray) {
      r.type = Type::kArray;
      for (uint16_t v : c.vals) {
        if (!dense.Test((static_cast<size_t>(c.key) << 16) + v)) {
          r.vals.push_back(v);
        }
      }
      r.card = static_cast<uint32_t>(r.vals.size());
    } else {
      const uint64_t* wc =
          c.type == Type::kBitmap ? c.bits.data() : DecodeLazy(c, buf);
      std::vector<uint64_t> diff(nwords);
      for (size_t w = 0; w < nwords; ++w) {
        diff[w] = wc[w] & ~dense.word(base + w);
      }
      r = BuildFromWords(c.key, diff.data(), nwords, /*try_runs=*/false);
    }
    if (r.card > 0) out.push_back(std::move(r));
  }
  containers_ = std::move(out);
}

void CompressedRowSet::Or(const RowSet& dense) {
  FALCON_DCHECK(universe_size_ == dense.universe_size());
  size_t total_words = num_words();
  std::vector<uint64_t> buf(kWordsPerChunk);
  std::vector<Container> out;
  out.reserve(containers_.size());
  size_t ci = 0;
  for (size_t base = 0; base < total_words; base += kWordsPerChunk) {
    uint16_t key = static_cast<uint16_t>(base / kWordsPerChunk);
    size_t nwords = std::min(kWordsPerChunk, total_words - base);
    bool dense_any = false;
    for (size_t w = 0; w < nwords; ++w) dense_any |= dense.word(base + w) != 0;
    bool have = ci < containers_.size() && containers_[ci].key == key;
    if (!dense_any) {
      if (have) out.push_back(std::move(containers_[ci++]));
      continue;
    }
    if (have) {
      Decode(containers_[ci], buf.data());
      ++ci;
    } else {
      std::memset(buf.data(), 0, kWordsPerChunk * sizeof(uint64_t));
    }
    for (size_t w = 0; w < nwords; ++w) buf[w] |= dense.word(base + w);
    Container r = BuildFromWords(key, buf.data(), nwords, /*try_runs=*/false);
    if (r.card > 0) out.push_back(std::move(r));
  }
  containers_ = std::move(out);
}

size_t CompressedRowSet::AndCount(const RowSet& dense) const {
  FALCON_DCHECK(universe_size_ == dense.universe_size());
  size_t n = 0;
  for (const Container& c : containers_) {
    size_t base = static_cast<size_t>(c.key) * kWordsPerChunk;
    const uint64_t* dw = dense.word_data() + base;
    switch (c.type) {
      case Type::kArray:
        // Row indices within a chunk never reach past the tail words, so
        // the gathered membership test stays in bounds on partial chunks.
        n += simd::ArrayBitmapCount(c.vals.data(), c.vals.size(), dw);
        break;
      case Type::kBitmap:
        n += simd::AndCountWords(c.bits.data(), dw, ChunkWords(c.key));
        break;
      case Type::kRun:
        // Edge-masked popcounts per run over the dense words — no decode.
        n += RunBitmapCountWords(c.vals, dw);
        break;
    }
  }
  return n;
}

bool CompressedRowSet::IsSubsetOf(const RowSet& dense) const {
  FALCON_DCHECK(universe_size_ == dense.universe_size());
  std::vector<uint64_t> buf;  // Lazy decode scratch.
  for (const Container& c : containers_) {
    size_t base = static_cast<size_t>(c.key) * kWordsPerChunk;
    size_t row_base = static_cast<size_t>(c.key) << 16;
    if (c.type == Type::kArray) {
      for (uint16_t v : c.vals) {
        if (!dense.Test(row_base + v)) return false;
      }
      continue;
    }
    const uint64_t* wc =
        c.type == Type::kBitmap ? c.bits.data() : DecodeLazy(c, buf);
    size_t nwords = ChunkWords(c.key);
    for (size_t w = 0; w < nwords; ++w) {
      if (wc[w] & ~dense.word(base + w)) return false;
    }
  }
  return true;
}

bool CompressedRowSet::ContainsAll(const RowSet& dense) const {
  FALCON_DCHECK(universe_size_ == dense.universe_size());
  size_t total_words = num_words();
  std::vector<uint64_t> buf;  // Lazy decode scratch.
  size_t ci = 0;
  for (size_t base = 0; base < total_words; base += kWordsPerChunk) {
    uint16_t key = static_cast<uint16_t>(base / kWordsPerChunk);
    size_t nwords = std::min(kWordsPerChunk, total_words - base);
    while (ci < containers_.size() && containers_[ci].key < key) ++ci;
    bool have = ci < containers_.size() && containers_[ci].key == key;
    if (!have) {
      for (size_t w = 0; w < nwords; ++w) {
        if (dense.word(base + w) != 0) return false;
      }
      continue;
    }
    const Container& c = containers_[ci];
    const uint64_t* wc =
        c.type == Type::kBitmap ? c.bits.data() : DecodeLazy(c, buf);
    for (size_t w = 0; w < nwords; ++w) {
      if (dense.word(base + w) & ~wc[w]) return false;
    }
  }
  return true;
}

bool CompressedRowSet::DisjointWith(const RowSet& dense) const {
  FALCON_DCHECK(universe_size_ == dense.universe_size());
  std::vector<uint64_t> buf;  // Lazy decode scratch.
  for (const Container& c : containers_) {
    size_t base = static_cast<size_t>(c.key) * kWordsPerChunk;
    size_t row_base = static_cast<size_t>(c.key) << 16;
    if (c.type == Type::kArray) {
      for (uint16_t v : c.vals) {
        if (dense.Test(row_base + v)) return false;
      }
      continue;
    }
    const uint64_t* wc =
        c.type == Type::kBitmap ? c.bits.data() : DecodeLazy(c, buf);
    size_t nwords = ChunkWords(c.key);
    for (size_t w = 0; w < nwords; ++w) {
      if (wc[w] & dense.word(base + w)) return false;
    }
  }
  return true;
}

void CompressedRowSet::AndInto(RowSet& dense) const {
  FALCON_DCHECK(universe_size_ == dense.universe_size());
  size_t total_words = dense.num_words();
  std::vector<uint64_t> buf;  // Lazy decode scratch.
  size_t ci = 0;
  for (size_t base = 0; base < total_words; base += kWordsPerChunk) {
    uint16_t key = static_cast<uint16_t>(base / kWordsPerChunk);
    size_t nwords = std::min(kWordsPerChunk, total_words - base);
    while (ci < containers_.size() && containers_[ci].key < key) ++ci;
    bool have = ci < containers_.size() && containers_[ci].key == key;
    if (!have) {
      for (size_t w = 0; w < nwords; ++w) dense.SetWord(base + w, 0);
      continue;
    }
    const Container& c = containers_[ci];
    const uint64_t* wc =
        c.type == Type::kBitmap ? c.bits.data() : DecodeLazy(c, buf);
    for (size_t w = 0; w < nwords; ++w) {
      dense.SetWord(base + w, dense.word(base + w) & wc[w]);
    }
  }
}

CompressedRowSet CompressedRowSet::Complement() const {
  CompressedRowSet out(universe_size_);
  size_t total_words = num_words();
  if (total_words == 0) return out;
  std::vector<uint64_t> buf(kWordsPerChunk);
  size_t ci = 0;
  for (size_t base = 0; base < total_words; base += kWordsPerChunk) {
    uint16_t key = static_cast<uint16_t>(base / kWordsPerChunk);
    size_t nwords = std::min(kWordsPerChunk, total_words - base);
    while (ci < containers_.size() && containers_[ci].key < key) ++ci;
    if (ci < containers_.size() && containers_[ci].key == key) {
      Decode(containers_[ci], buf.data());
      for (size_t w = 0; w < nwords; ++w) buf[w] = ~buf[w];
    } else {
      std::memset(buf.data(), 0xFF, nwords * sizeof(uint64_t));
    }
    // Trim bits beyond the universe in the final word.
    size_t tail = universe_size_ & 63;
    if (tail != 0 && base + nwords == total_words) {
      buf[nwords - 1] &= (uint64_t{1} << tail) - 1;
    }
    // Complements are interval-shaped (the complement of a sparse posting
    // is almost-all-ones): let BuildFromWords pick runs.
    Container r = BuildFromWords(key, buf.data(), nwords, /*try_runs=*/true);
    if (r.card > 0) out.containers_.push_back(std::move(r));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Equality and hashing
// ---------------------------------------------------------------------------

bool CompressedRowSet::operator==(const CompressedRowSet& other) const {
  if (universe_size_ != other.universe_size_) return false;
  if (containers_.size() != other.containers_.size()) return false;
  std::vector<uint64_t> buf_a, buf_b;  // Lazy decode scratch (runs only).
  for (size_t i = 0; i < containers_.size(); ++i) {
    const Container& a = containers_[i];
    const Container& b = other.containers_[i];
    if (a.key != b.key || a.card != b.card) return false;
    if (a.type == b.type) {
      if (a.type == Type::kBitmap ? a.bits != b.bits : a.vals != b.vals) {
        return false;
      }
      continue;
    }
    // Mixed encodings of possibly-equal bits: compare canonically.
    DecodeLazy(a, buf_a);
    DecodeLazy(b, buf_b);
    if (std::memcmp(buf_a.data(), buf_b.data(),
                    kWordsPerChunk * sizeof(uint64_t)) != 0) {
      return false;
    }
  }
  return true;
}

bool CompressedRowSet::operator==(const RowSet& dense) const {
  if (universe_size_ != dense.universe_size()) return false;
  size_t total_words = num_words();
  std::vector<uint64_t> buf(kWordsPerChunk);
  size_t ci = 0;
  for (size_t base = 0; base < total_words; base += kWordsPerChunk) {
    uint16_t key = static_cast<uint16_t>(base / kWordsPerChunk);
    size_t nwords = std::min(kWordsPerChunk, total_words - base);
    bool have = ci < containers_.size() && containers_[ci].key == key;
    if (have) {
      Decode(containers_[ci], buf.data());
      ++ci;
    } else {
      std::memset(buf.data(), 0, nwords * sizeof(uint64_t));
    }
    for (size_t w = 0; w < nwords; ++w) {
      if (buf[w] != dense.word(base + w)) return false;
    }
  }
  return ci == containers_.size();
}

uint64_t CompressedRowSet::Hash() const {
  uint64_t h = kFnvOffset;
  size_t cursor = 0;  // Next logical word to fold in.
  std::vector<uint64_t> buf(kWordsPerChunk);
  size_t total_words = num_words();
  for (const Container& c : containers_) {
    size_t base = static_cast<size_t>(c.key) * kWordsPerChunk;
    h = MulPrimePow(h, base - cursor);  // Zero-word gap.
    Decode(c, buf.data());
    size_t nwords = ChunkWords(c.key);
    for (size_t w = 0; w < nwords; ++w) {
      h ^= buf[w];
      h *= kFnvPrime;
    }
    cursor = base + nwords;
  }
  return MulPrimePow(h, total_words - cursor);
}

}  // namespace falcon
