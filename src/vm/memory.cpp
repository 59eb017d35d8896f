#include "vm/memory.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>

namespace lfi::vm {

void AddressSpace::map(Region region) {
  auto it = std::lower_bound(
      regions_.begin(), regions_.end(), region.base,
      [](const Region& r, uint64_t base) { return r.base < base; });
  regions_.insert(it, std::move(region));
}

const Region* AddressSpace::find(uint64_t addr, uint64_t len) const {
  // First region with base > addr, then step back one.
  auto it = std::upper_bound(
      regions_.begin(), regions_.end(), addr,
      [](uint64_t a, const Region& r) { return a < r.base; });
  if (it == regions_.begin()) return nullptr;
  --it;
  // Overflow-safe containment: `addr + len` can wrap for addresses near
  // 2^64 (e.g. a register holding -4), which must fault, not alias the
  // region with the highest base.
  uint64_t off = addr - it->base;
  if (off > it->size || it->size - off < len) return nullptr;
  return &*it;
}

bool AddressSpace::read(uint64_t addr, void* out, uint64_t len) const {
  const Region* r = find(addr, len);
  if (!r) return false;
  if (len != 0) std::memcpy(out, r->backing + (addr - r->base), len);
  return true;
}

bool AddressSpace::write(uint64_t addr, const void* src, uint64_t len) {
  const Region* r = find(addr, len);
  if (!r || !r->writable) return false;
  if (len != 0) {
    std::memcpy(const_cast<uint8_t*>(r->backing) + (addr - r->base), src, len);
  }
  if (r->dirty) r->dirty->Mark(addr - r->base, len);
  return true;
}

size_t DirtyMap::DirtyCount() const {
  size_t count = 0;
  for (uint64_t word : words_) {
    count += static_cast<size_t>(__builtin_popcountll(word));
  }
  return count;
}

Segment::Segment(uint64_t bytes)
    : data_(static_cast<uint8_t*>(std::calloc(bytes, 1))), size_(bytes) {
  if (bytes > 0 && data_ == nullptr) throw std::bad_alloc();
}

void Segment::Free::operator()(uint8_t* p) const { std::free(p); }

const uint8_t* PageDelta::page(uint32_t page_index) const {
  auto it = std::lower_bound(pages.begin(), pages.end(), page_index);
  if (it == pages.end() || *it != page_index) return nullptr;
  return bytes.data() +
         static_cast<size_t>(it - pages.begin()) * DirtyMap::kPageSize;
}

namespace {
void AppendPage(PageDelta* out, const uint8_t* mem, uint64_t bytes,
                uint64_t page) {
  uint64_t off = page << DirtyMap::kPageBits;
  if (off >= bytes) return;
  out->pages.push_back(static_cast<uint32_t>(page));
  size_t slot = out->bytes.size();
  out->bytes.resize(slot + DirtyMap::kPageSize, 0);
  std::memcpy(out->bytes.data() + slot, mem + off,
              std::min(DirtyMap::kPageSize, bytes - off));
}
}  // namespace

PageDelta CaptureDirtyPages(const DirtyMap& dirty, const uint8_t* mem,
                            uint64_t bytes) {
  PageDelta out;
  out.pages.reserve(dirty.DirtyCount());
  dirty.ForEachDirtyPage([&](uint64_t page) {
    AppendPage(&out, mem, bytes, page);
  });
  return out;
}

PageDelta CaptureAllPages(const uint8_t* mem, uint64_t bytes) {
  PageDelta out;
  uint64_t pages = (bytes + DirtyMap::kPageSize - 1) >> DirtyMap::kPageBits;
  out.pages.reserve(pages);
  for (uint64_t p = 0; p < pages; ++p) AppendPage(&out, mem, bytes, p);
  return out;
}

bool AddressSpace::read_u64(uint64_t addr, uint64_t* out) const {
  return read(addr, out, 8);
}

bool AddressSpace::write_u64(uint64_t addr, uint64_t value) {
  return write(addr, &value, 8);
}

}  // namespace lfi::vm
