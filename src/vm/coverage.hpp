// Basic-block coverage support (paper §6.1, "Improving Coverage").
//
// The tracker records executed instruction offsets per module in dense
// bitmaps sized from the module text length: `Record` is two shifts and an
// OR — no hashing, no tree walk, no allocation — so coverage collection is
// safe to leave on during throughput campaigns. Block-level coverage is
// derived later by projecting the bitmap onto a CFG's block starts, the way
// gcov-style tooling attributes execution to blocks. `Merge` is a bitwise
// OR, which makes campaign-wide union coverage order-independent (and
// therefore deterministic across worker counts).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace lfi::vm {

/// OR `src` restricted to bit offsets [lo, hi] (inclusive, lo <= hi) into
/// `dst`; both arrays must hold word hi / 64. A span inside one 64-bit word
/// is a single masked OR — the superblock engine's per-segment coverage
/// settle, inlined into its span loop.
inline void OrSpanBits(uint64_t* dst, const uint64_t* src, uint32_t lo,
                       uint32_t hi) {
  size_t w0 = lo >> 6, w1 = hi >> 6;
  uint64_t first = ~uint64_t{0} << (lo & 63);
  uint64_t last = ~uint64_t{0} >> (63 - (hi & 63));
  if (w0 == w1) {
    dst[w0] |= src[w0] & first & last;
    return;
  }
  dst[w0] |= src[w0] & first;
  for (size_t w = w0 + 1; w < w1; ++w) dst[w] |= src[w];
  dst[w1] |= src[w1] & last;
}

/// Executed-offset bitmap for one module: bit i == "the instruction at text
/// offset i was executed". Sized from the module's text length, one bit per
/// byte of text (offsets are byte offsets into the code section).
class CoverageBitmap {
 public:
  CoverageBitmap() = default;
  explicit CoverageBitmap(size_t text_bytes) { Resize(text_bytes); }

  /// Grow to cover `text_bytes` offsets; never shrinks, set bits survive.
  void Resize(size_t text_bytes) {
    if (text_bytes > bits_) {
      bits_ = text_bytes;
      words_.resize((bits_ + 63) / 64, 0);
    }
  }

  size_t size_bits() const { return bits_; }

  void Set(uint32_t offset) {
    if (offset < bits_) words_[offset >> 6] |= uint64_t{1} << (offset & 63);
  }

  /// OR `word` into word `index` (bits index*64 .. index*64+63). The wire
  /// decoder rebuilds a bitmap this way from its non-zero words; `index`
  /// must be below words().size().
  void OrWord(size_t index, uint64_t word) { words_[index] |= word; }

  /// The backing words, bit i of the bitmap at words()[i / 64] bit i % 64.
  /// Bits at or past size_bits() are always clear.
  const std::vector<uint64_t>& words() const { return words_; }

  bool Test(uint32_t offset) const {
    return offset < bits_ &&
           (words_[offset >> 6] >> (offset & 63) & uint64_t{1}) != 0;
  }

  /// Number of set bits.
  size_t Count() const;

  /// Number of bits set in this bitmap but not in `other` — the "new
  /// coverage" a scenario adds over a corpus-union bitmap (explorer
  /// fitness). Word-wise AND-NOT popcount, no allocation.
  /// Mismatched sizes clamp rather than assert: `other` is treated as
  /// all-clear past its size (a shorter union bitmap — e.g. a
  /// freshly-default-constructed one — makes every bit here fresh), and
  /// bits `other` has past this bitmap's size are irrelevant by
  /// definition. So CountNotIn({}) == Count().
  size_t CountNotIn(const CoverageBitmap& other) const;

  bool Empty() const { return Count() == 0; }

  /// Bitwise-OR `other` into this bitmap, growing as needed.
  void Merge(const CoverageBitmap& other);

  /// Zero all bits, keeping the sizing.
  void Clear() { words_.assign(words_.size(), 0); }

  /// Invoke `fn(offset)` for every set bit, ascending.
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t word = words_[w];
      while (word != 0) {
        uint32_t bit = static_cast<uint32_t>(__builtin_ctzll(word));
        fn(static_cast<uint32_t>(w * 64 + bit));
        word &= word - 1;
      }
    }
  }

  /// Set bits as a sorted offset list (report/serialization use).
  std::vector<uint32_t> ToOffsets() const;

  friend bool operator==(const CoverageBitmap& a, const CoverageBitmap& b);
  friend class CoverageTracker;

 private:
  size_t bits_ = 0;
  std::vector<uint64_t> words_;
};

bool operator==(const CoverageBitmap& a, const CoverageBitmap& b);
inline bool operator!=(const CoverageBitmap& a, const CoverageBitmap& b) {
  return !(a == b);
}

/// Per-module coverage bitmaps, indexed by the loader's dense module index.
/// The owning machine sizes each module's bitmap from its text length when
/// coverage is enabled (and when modules load), so the per-instruction
/// `Record` is a pure bitmap store.
class CoverageTracker {
 public:
  /// Size (or grow) the bitmap for `module_index` to `text_bytes`.
  void EnsureModule(size_t module_index, size_t text_bytes) {
    if (module_index >= modules_.size()) modules_.resize(module_index + 1);
    modules_[module_index].Resize(text_bytes);
  }

  /// Hot path: mark text offset `offset` of module `module_index` executed.
  void Record(size_t module_index, uint32_t offset) {
    if (module_index < modules_.size()) modules_[module_index].Set(offset);
  }

  /// The words of `module_index`'s bitmap, for the superblock engine's
  /// in-place span ORs (OrSpanBits with the module's instruction-start
  /// bits), or nullptr when the module has no bitmap. The owning machine
  /// sizes every bitmap to its module's whole text, so no span needs
  /// clamping.
  uint64_t* covering_words(size_t module_index,
                           [[maybe_unused]] size_t text_bytes) {
    if (module_index >= modules_.size()) return nullptr;
    CoverageBitmap& bm = modules_[module_index];
    assert(bm.bits_ >= text_bytes);
    return bm.words_.empty() ? nullptr : bm.words_.data();
  }

  const CoverageBitmap& executed(size_t module_index) const {
    static const CoverageBitmap empty;
    return module_index < modules_.size() ? modules_[module_index] : empty;
  }

  bool was_executed(size_t module_index, uint32_t offset) const {
    return module_index < modules_.size() && modules_[module_index].Test(offset);
  }

  size_t module_count() const { return modules_.size(); }

  /// Executed offsets in one module / across all modules.
  size_t covered(size_t module_index) const {
    return module_index < modules_.size() ? modules_[module_index].Count() : 0;
  }
  size_t covered_total() const;

  /// Union `other` into this tracker (bitwise OR per module, growing as
  /// needed). Order-independent: campaign workers can be merged in any
  /// order and produce the same aggregate.
  void Merge(const CoverageTracker& other);

  /// Zero every bitmap, keeping module sizing (machine reuse across runs).
  void Clear() {
    for (CoverageBitmap& bm : modules_) bm.Clear();
  }

 private:
  std::vector<CoverageBitmap> modules_;
};

}  // namespace lfi::vm
