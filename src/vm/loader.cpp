#include "vm/loader.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace lfi::vm {

static_assert(sso::kMaxCodeBytes == kModuleDataDelta);
static_assert(sso::kMaxDataBytes == kModuleSpacing - kModuleDataDelta);
static_assert(sso::kMaxTlsBytes == kTlsSize);

Result<size_t> Loader::Load(sso::SharedObject object) {
  if (Status st = sso::CheckLimits(object); !st.ok()) return Err(st.error());
  auto mod = std::make_unique<LoadedModule>();
  mod->index = modules_.size();
  mod->code_base = ModuleCodeBase(mod->index);
  mod->data_base = ModuleDataBase(mod->index);
  mod->object = std::move(object);
  mod->data_runtime = mod->object.data;
  // Modules whose TLS slices together overrun the segment still load:
  // guest TLS accesses are bounds-checked against the segment like any
  // other access, so an overrun slice faults in the guest.
  mod->tls_base = tls_cursor_;
  tls_cursor_ += mod->object.tls_size;
  // Apply relative relocations: function-pointer slots in the data section.
  for (const auto& [data_off, code_off] : mod->object.data_relocs) {
    uint64_t addr = mod->code_base + code_off;
    for (int i = 0; i < 8; ++i) {
      mod->data_runtime[data_off + static_cast<uint32_t>(i)] =
          static_cast<uint8_t>(addr >> (8 * i));
    }
  }
  mod->plt.assign(mod->object.imports.size(), std::nullopt);
  mod->plt_generation = 0;
  // Intern every export into the machine symbol table and fill the dense
  // export map (first definition in load order wins, matching the search
  // order the string-based resolver used).
  for (const isa::Symbol& sym : mod->object.exports) {
    SymbolId id = symbols_.Intern(sym.name);
    if (id >= export_addr_.size()) export_addr_.resize(id + 1, 0);
    if (export_addr_[id] == 0) export_addr_[id] = mod->code_base + sym.offset;
  }
  // Pre-intern imports so PLT misses resolve by id, never by string.
  mod->import_ids.reserve(mod->object.imports.size());
  for (const std::string& import : mod->object.imports) {
    mod->import_ids.push_back(symbols_.Intern(import));
  }
  code_cache_.EnsureModule(mod->index, mod->object);
  modules_.push_back(std::move(mod));
  ++generation_;
  ++module_generation_;
  return modules_.size() - 1;
}

uint64_t Loader::RegisterNative(std::string_view name, NativeFn fn) {
  return RegisterNative(symbols_.Intern(name), std::move(fn));
}

uint64_t Loader::RegisterNative(SymbolId id, NativeFn fn) {
  ++generation_;
  if (id >= native_by_id_.size()) native_by_id_.resize(id + 1, kNoNative);
  if (native_by_id_[id] != kNoNative) {
    size_t slot = native_by_id_[id];
    natives_[slot].fn = std::move(fn);
    return kNativeStubBase + slot * kNativeStubSpacing;
  }
  size_t slot = natives_.size();
  natives_.push_back({&symbols_.name(id), std::move(fn)});
  native_by_id_[id] = slot;
  return kNativeStubBase + slot * kNativeStubSpacing;
}

void Loader::ClearNatives() {
  natives_.clear();
  std::fill(native_by_id_.begin(), native_by_id_.end(), kNoNative);
  ++generation_;
}

void Loader::SetInterpositionEnabled(bool enabled) {
  if (interpose_enabled_ != enabled) {
    interpose_enabled_ = enabled;
    ++generation_;
  }
}

Target Loader::Resolve(size_t module_index, uint16_t import_index) const {
  const LoadedModule& mod = *modules_[module_index];
  if (mod.plt_generation != generation_) {
    mod.plt.assign(mod.object.imports.size(), std::nullopt);
    mod.plt_generation = generation_;
  }
  if (import_index >= mod.plt.size()) return Target{};
  auto& slot = mod.plt[import_index];
  if (!slot) slot = ResolveId(mod.import_ids[import_index]);
  return *slot;
}

Target Loader::ResolveId(SymbolId id) const {
  if (interpose_enabled_ && id < native_by_id_.size() &&
      native_by_id_[id] != kNoNative) {
    size_t slot = native_by_id_[id];
    return Target{Target::Kind::Native,
                  kNativeStubBase + slot * kNativeStubSpacing, slot};
  }
  return ResolveNextId(id);
}

Target Loader::ResolveNextId(SymbolId id) const {
  if (id < export_addr_.size() && export_addr_[id] != 0) {
    return Target{Target::Kind::Code, export_addr_[id], 0};
  }
  return Target{};
}

Target Loader::ResolveName(std::string_view name) const {
  SymbolId id = symbols_.Find(name);
  return id == kNoSymbol ? Target{} : ResolveId(id);
}

Target Loader::ResolveNextName(std::string_view name) const {
  SymbolId id = symbols_.Find(name);
  return id == kNoSymbol ? Target{} : ResolveNextId(id);
}

const LoadedModule* Loader::module_named(std::string_view name) const {
  for (const auto& mod : modules_) {
    if (mod->object.name == name) return mod.get();
  }
  return nullptr;
}

std::string Loader::Symbolize(uint64_t addr) const {
  if (IsNativeStubAddress(addr)) {
    size_t id = NativeStubIndex(addr);
    if (id < natives_.size()) return "stub`" + *natives_[id].name;
    return "stub`?";
  }
  const LoadedModule* mod = module_at(addr);
  if (!mod) return Hex(addr);
  uint32_t off = static_cast<uint32_t>(addr - mod->code_base);
  const isa::Symbol* sym = mod->object.symbol_at(off);
  if (!sym) return mod->object.name + "`" + Hex(off);
  if (sym->offset == off) return sym->name;
  return Format("%s+0x%x", sym->name.c_str(), off - sym->offset);
}

const NativeFn* Loader::native(size_t id) const {
  // Switched-off stubs are gone as far as execution is concerned: a call
  // through a stale stub address faults as if they were cleared.
  return interpose_enabled_ && id < natives_.size() ? &natives_[id].fn
                                                     : nullptr;
}

const std::string& Loader::native_name(size_t id) const {
  static const std::string empty;
  return id < natives_.size() ? *natives_[id].name : empty;
}

}  // namespace lfi::vm
