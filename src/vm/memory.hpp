// Virtual address space: a small set of mapped regions with bounds checks.
//
// Layout of the synthetic platform (all processes share module mappings,
// each process owns its stack/heap/TLS):
//   0x0100'0000 + i*0x0010'0000   code of module i (read-only)
//   code_base   + 0x0008'0000     data of module i (read-write, shared)
//   0x4000'0000                   process stack (grows down)
//   0x5000'0000                   process heap (bump allocated)
//   0x6000'0000                   process TLS (errno and friends)
//   0xE000'0000 + 16*id           native interposition stubs (no backing)
//
// An out-of-range access is the synthetic SIGSEGV.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace lfi::vm {

inline constexpr uint64_t kModuleBase = 0x0100'0000;
inline constexpr uint64_t kModuleSpacing = 0x0010'0000;
inline constexpr uint64_t kModuleDataDelta = 0x0008'0000;
inline constexpr uint64_t kStackBase = 0x4000'0000;
inline constexpr uint64_t kStackSize = 1 << 20;
inline constexpr uint64_t kHeapBase = 0x5000'0000;
inline constexpr uint64_t kTlsBase = 0x6000'0000;
inline constexpr uint64_t kTlsSize = 4096;
inline constexpr uint64_t kNativeStubBase = 0xE000'0000;
inline constexpr uint64_t kNativeStubSpacing = 16;
/// Sentinel return address: RET to this address exits the process cleanly.
inline constexpr uint64_t kExitSentinel = 0xDEAD'0000'0000;

inline uint64_t ModuleCodeBase(size_t index) {
  return kModuleBase + index * kModuleSpacing;
}
inline uint64_t ModuleDataBase(size_t index) {
  return ModuleCodeBase(index) + kModuleDataDelta;
}
/// Candidate module index for an address in the module band (addr must be
/// >= kModuleBase; callers still bounds-check against the loaded module
/// count and the segment sizes). The single home of the layout arithmetic
/// shared by Loader::module_at and the interpreter's fast memory path.
inline size_t ModuleIndexOf(uint64_t addr) {
  return static_cast<size_t>((addr - kModuleBase) / kModuleSpacing);
}
inline bool IsNativeStubAddress(uint64_t addr) {
  return addr >= kNativeStubBase && addr < kNativeStubBase + (1u << 20);
}
inline size_t NativeStubIndex(uint64_t addr) {
  return static_cast<size_t>((addr - kNativeStubBase) / kNativeStubSpacing);
}

/// Page-granular write tracking over one memory segment, as two bitmaps
/// that one Mark call per write keeps together:
///   - the snapshot journal: pages written since the last capture or
///     restore. Inert until Enable()d, cleared by ClearAll. This is what
///     makes Machine::RestoreTo O(dirty pages): restore copies back only
///     the pages a scenario actually wrote.
///   - the written set: pages written since the segment buffer was last
///     zeroed. Live from construction with a segment size and never
///     cleared until its pages are zeroed, so every page outside it is
///     still zero. This is what lets Process::Recycle clean a segment by
///     zeroing only those pages.
class DirtyMap {
 public:
  static constexpr uint64_t kPageBits = 12;  // 4 KiB pages
  static constexpr uint64_t kPageSize = uint64_t{1} << kPageBits;

  /// A map with no written set (journal only, e.g. module data).
  DirtyMap() = default;
  /// A map over a freshly zeroed segment of `bytes` bytes: empty written
  /// set, journal off.
  explicit DirtyMap(uint64_t bytes)
      : written_pages_(PageCount(bytes)),
        written_((written_pages_ + 63) / 64, 0) {}

  /// Start journaling a segment of `bytes` bytes. A fresh journal starts
  /// all-clean; re-enabling an already-enabled journal over the same size
  /// keeps its marks — snapshot tree captures layer on one journal and
  /// clear it explicitly once the dirty pages are copied out, so an Enable
  /// that silently wiped marks would lose writes recorded in between.
  /// Enabling at a different size rebuilds the journal all-clean.
  void Enable(uint64_t bytes) {
    uint64_t pages = PageCount(bytes);
    if (!words_.empty() && pages == pages_) return;
    pages_ = pages;
    words_.assign((pages_ + 63) / 64, 0);
  }
  /// Stop journaling; the written set keeps recording.
  void Disable() {
    pages_ = 0;
    words_.clear();
  }
  bool enabled() const { return !words_.empty(); }

  /// Record a write of [off, off+len) within the segment, into the written
  /// set and (when enabled) the journal. Out-of-range pages are clamped
  /// (the caller already bounds-checked the access against the segment).
  void Mark(uint64_t off, uint64_t len) {
    uint64_t limit = std::max(pages_, written_pages_);
    if (len == 0 || limit == 0) return;
    uint64_t first = off >> kPageBits;
    uint64_t last = std::min((off + len - 1) >> kPageBits, limit - 1);
    for (uint64_t p = first; p <= last; ++p) {
      uint64_t bit = uint64_t{1} << (p & 63);
      if (p < written_pages_) written_[p >> 6] |= bit;
      if (p < pages_) words_[p >> 6] |= bit;
    }
  }

  /// Clear the journal.
  void ClearAll() { std::fill(words_.begin(), words_.end(), 0); }
  /// Forget the written set, once the caller has zeroed every page in it
  /// (Process::Recycle).
  void ClearWritten() { std::fill(written_.begin(), written_.end(), 0); }

  /// Invoke fn(page_index) for every journal-dirty page, ascending.
  template <typename Fn>
  void ForEachDirtyPage(Fn&& fn) const {
    ForEachSet(words_, pages_, fn);
  }
  /// Invoke fn(page_index) for every page in the written set, ascending.
  template <typename Fn>
  void ForEachWrittenPage(Fn&& fn) const {
    ForEachSet(written_, written_pages_, fn);
  }

  size_t DirtyCount() const;

 private:
  static uint64_t PageCount(uint64_t bytes) {
    return (bytes + kPageSize - 1) >> kPageBits;
  }
  template <typename Fn>
  static void ForEachSet(const std::vector<uint64_t>& words, uint64_t pages,
                         Fn&& fn) {
    for (size_t w = 0; w < words.size(); ++w) {
      uint64_t word = words[w];
      while (word != 0) {
        uint64_t bit = static_cast<uint64_t>(__builtin_ctzll(word));
        uint64_t page = w * 64 + bit;
        if (page < pages) fn(page);
        word &= word - 1;
      }
    }
  }

  uint64_t pages_ = 0;  // journal
  std::vector<uint64_t> words_;
  uint64_t written_pages_ = 0;  // written set
  std::vector<uint64_t> written_;
};

/// Identifies one node of a vm::SnapshotTree (index into its node vector).
using SnapshotId = uint32_t;
inline constexpr SnapshotId kNoSnapshot = ~SnapshotId{0};

/// Sparse page-image store: the set of pages one snapshot tree node
/// captured, with their contents at capture time. A node's delta holds
/// exactly the pages written between its parent's capture and its own (a
/// full node holds every page), so the content of page p at node N is
/// found in the first delta containing p on the walk N -> root: the
/// per-page newest-writer layering that lets nested snapshot windows
/// share unchanged pages instead of copying full images.
///
/// Every slot is DirtyMap::kPageSize bytes; the trailing partial page of a
/// non-page-multiple segment is zero-padded on capture and clamped on
/// copy-back.
struct PageDelta {
  std::vector<uint32_t> pages;  // ascending page indices
  std::vector<uint8_t> bytes;   // pages.size() * DirtyMap::kPageSize

  /// Pointer to the stored image of `page_index`, or nullptr when this
  /// delta did not capture that page. O(log pages).
  const uint8_t* page(uint32_t page_index) const;
  size_t page_count() const { return pages.size(); }
};

/// Capture the journal's dirty pages of `mem` (sized `bytes`) into a
/// delta. Does not clear the journal: tree capture clears explicitly once
/// every segment has been copied out.
PageDelta CaptureDirtyPages(const DirtyMap& dirty, const uint8_t* mem,
                            uint64_t bytes);

/// Capture every page of `mem` (root nodes, and segments whose journal was
/// not live across the whole parent->child window).
PageDelta CaptureAllPages(const uint8_t* mem, uint64_t bytes);

/// One process memory segment (stack, heap or TLS): a fixed-size byte
/// buffer that starts all zero. The storage comes from calloc, so a fresh
/// megabyte segment costs only the pages the process goes on to write
/// (a large calloc is normally a fresh anonymous mapping, which the kernel
/// zero-fills on first touch) instead of a whole-buffer fill. Neither
/// copyable nor movable: the owning process's AddressSpace maps it.
class Segment {
 public:
  explicit Segment(uint64_t bytes);
  Segment(const Segment&) = delete;
  Segment& operator=(const Segment&) = delete;

  uint8_t* data() { return data_.get(); }
  const uint8_t* data() const { return data_.get(); }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  uint8_t* begin() { return data(); }
  uint8_t* end() { return data() + size_; }

 private:
  struct Free {
    void operator()(uint8_t* p) const;
  };
  std::unique_ptr<uint8_t[], Free> data_;
  size_t size_ = 0;
};

/// One mapped region. `backing` must outlive the AddressSpace and must not
/// be resized while mapped. `dirty` (optional) is the segment's dirty
/// journal; AddressSpace::write records into it so snapshot restores see
/// writes that bypass the interpreter's fast path (kernel, native stubs,
/// the reference engine).
struct Region {
  uint64_t base = 0;
  uint64_t size = 0;
  uint8_t* backing = nullptr;
  bool writable = false;
  DirtyMap* dirty = nullptr;
};

class AddressSpace {
 public:
  void map(Region region);

  /// Region containing [addr, addr+len), or nullptr.
  const Region* find(uint64_t addr, uint64_t len) const;

  bool read(uint64_t addr, void* out, uint64_t len) const;
  bool write(uint64_t addr, const void* src, uint64_t len);

  bool read_u64(uint64_t addr, uint64_t* out) const;
  bool write_u64(uint64_t addr, uint64_t value);

 private:
  std::vector<Region> regions_;  // sorted by base
};

}  // namespace lfi::vm
