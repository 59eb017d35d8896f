// The dynamic loader: module mapping, symbol resolution, interposition.
//
// This is the LD_PRELOAD analogue (paper §5.1). Native interposition stubs
// registered by the LFI controller are searched *before* loaded modules, so
// a stub shadows the library function of the same name — including calls
// made from inside other libraries, since every CALL_SYM resolves through
// here (the PLT behaviour the paper relies on). ResolveNext() is the
// dlsym(RTLD_NEXT, ...) analogue a stub uses to reach the original.
//
// Every symbol name is interned into the per-machine SymbolTable at load /
// register time; resolution proper is indexed by dense SymbolId (export and
// native tables are flat vectors), so after install no per-call resolution
// ever hashes or compares a string. The string-taking Resolve*Name entry
// points are thin resolve-once wrappers kept for setup-time callers.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sso/sso.hpp"
#include "util/interner.hpp"
#include "vm/code_cache.hpp"
#include "vm/memory.hpp"

namespace lfi::vm {

class Process;

/// The machine-wide name interner and its dense id type (one table per
/// Machine, owned by its Loader).
using SymbolTable = util::SymbolTable;
using SymbolId = util::SymbolId;
using util::kNoSymbol;

/// What a stub tells the VM to do after it ran.
struct NativeAction {
  enum class Kind { Return, TailCall };
  Kind kind = Kind::Return;
  int64_t value = 0;    // Return: placed in R0
  uint64_t target = 0;  // TailCall: jump target (original function)

  static NativeAction Ret(int64_t v) { return {Kind::Return, v, 0}; }
  static NativeAction Tail(uint64_t addr) { return {Kind::TailCall, 0, addr}; }
};

/// Call-side view handed to a native stub: argument access, memory access,
/// the symbolized backtrace, and the identity of the intercepted function.
class NativeFrame {
 public:
  NativeFrame(Process& proc, const std::string& symbol)
      : proc_(proc), symbol_(symbol) {}

  Process& process() { return proc_; }
  const std::string& symbol() const { return symbol_; }

  /// Argument i of the intercepted call (stack layout: no frame built yet).
  int64_t arg(int i) const;
  /// Overwrite argument i in place (argument-modification faults, §4).
  bool set_arg(int i, int64_t v);

  /// Innermost-first backtrace: (return address, enclosing symbol) pairs.
  std::vector<std::pair<uint64_t, std::string>> backtrace() const;

 private:
  Process& proc_;
  const std::string& symbol_;
};

using NativeFn = std::function<NativeAction(NativeFrame&)>;

/// Resolution target of a symbol: either module code or a native stub.
struct Target {
  enum class Kind { Code, Native, Unresolved };
  Kind kind = Target::Kind::Unresolved;
  uint64_t addr = 0;   // Code: virtual address; Native: stub address
  size_t native_id = 0;
};

struct LoadedModule {
  sso::SharedObject object;
  size_t index = 0;
  uint64_t code_base = 0;
  uint64_t data_base = 0;
  std::vector<uint8_t> data_runtime;  // relocated copy of the data section
  uint32_t tls_base = 0;              // module's slice of the TLS segment
  std::vector<SymbolId> import_ids;   // imports pre-interned at load
  // Lazily-bound PLT cache, invalidated when interposition changes.
  mutable std::vector<std::optional<Target>> plt;
  mutable uint64_t plt_generation = 0;
  /// Dirty-page journal over data_runtime, enabled from the machine's
  /// checkpoint on. Module data is shared by all processes, so the
  /// journal lives with the module, not with a process.
  DirtyMap data_dirty;
};

class Loader {
 public:
  /// Map a shared object; modules are searched in load order.
  /// Returns the module index, or sso::CheckLimits' error for an object
  /// that does not fit the module layout (nothing is mapped then).
  Result<size_t> Load(sso::SharedObject object);

  /// Register an interposition stub for `name`. Returns its stub address
  /// (usable as a function pointer). Re-registering replaces the stub.
  uint64_t RegisterNative(std::string_view name, NativeFn fn);
  /// Same, for an already-interned name (no string-table lookup).
  uint64_t RegisterNative(SymbolId id, NativeFn fn);
  /// Remove all interposition stubs (keeps modules loaded).
  void ClearNatives();
  /// Toggle interposition without unregistering: while off, every name
  /// resolves to its original and no stub runs (core::Controller::Reset
  /// parks a plan's stubs this way).
  void SetInterpositionEnabled(bool enabled);
  bool interposition_enabled() const { return interpose_enabled_; }

  // -- symbol interning ------------------------------------------------------
  /// The machine-wide name table. All exports and imports are interned at
  /// Load time; RegisterNative interns too, so any resolvable name has an
  /// id. Resolve a name once, keep the id, and resolve by id afterwards.
  SymbolTable& symbols() { return symbols_; }
  const SymbolTable& symbols() const { return symbols_; }
  SymbolId Intern(std::string_view name) { return symbols_.Intern(name); }

  // -- resolution ------------------------------------------------------------
  /// Resolve import `import_index` of `module_index` (PLT-cached).
  Target Resolve(size_t module_index, uint16_t import_index) const;
  /// Resolve an interned symbol: natives first (if enabled), then the
  /// load-order export table. Pure array indexing.
  Target ResolveId(SymbolId id) const;
  /// Resolve skipping natives — dlsym(RTLD_NEXT): the original function.
  Target ResolveNextId(SymbolId id) const;
  /// String wrappers for setup-time callers (one table lookup, then ids).
  Target ResolveName(std::string_view name) const;
  Target ResolveNextName(std::string_view name) const;

  // -- introspection ---------------------------------------------------------
  const std::vector<std::unique_ptr<LoadedModule>>& modules() const {
    return modules_;
  }
  const LoadedModule* module_named(std::string_view name) const;
  /// Module containing a code address, or nullptr. Module code bases are
  /// a fixed arithmetic progression and text never exceeds the module
  /// spacing (asserted in Load), so containment is O(1).
  const LoadedModule* module_at(uint64_t addr) const {
    if (addr < kModuleBase) return nullptr;
    size_t index = ModuleIndexOf(addr);
    if (index >= modules_.size()) return nullptr;
    const LoadedModule* mod = modules_[index].get();
    return addr - mod->code_base < mod->object.code.size() ? mod : nullptr;
  }
  /// Symbolize a code address ("libc.so`read+0x12" style name, or hex).
  std::string Symbolize(uint64_t addr) const;

  const NativeFn* native(size_t id) const;
  const std::string& native_name(size_t id) const;

  /// Decoded per-module instruction streams, built once at Load time
  /// (module text is immutable). The VM's fast path fetches from here.
  const CodeCache& code_cache() const { return code_cache_; }

  /// Total TLS bytes assigned to modules so far.
  uint32_t tls_used() const { return tls_cursor_; }

  /// Resolution generation: bumped whenever symbol resolution could
  /// change (Load, RegisterNative, ClearNatives, interposition toggles).
  /// PLT and stub-original caches key on it.
  uint64_t generation() const { return generation_; }
  /// Module-set generation: bumped only by Load. Everything derived from
  /// the loaded modules alone — a process's AddressSpace, the superblock
  /// engine's module binding — keys on it, so installing a plan's stubs
  /// rebuilds nothing per process.
  uint64_t module_generation() const { return module_generation_; }

 private:
  static constexpr size_t kNoNative = SIZE_MAX;

  std::vector<std::unique_ptr<LoadedModule>> modules_;
  struct Native {
    const std::string* name;  // stable: owned by symbols_
    NativeFn fn;
  };
  std::vector<Native> natives_;
  CodeCache code_cache_;
  SymbolTable symbols_;
  /// SymbolId -> first export in load order (0 = none; code addresses are
  /// never 0 because module code bases start above the null page).
  std::vector<uint64_t> export_addr_;
  /// SymbolId -> native slot, or kNoNative.
  std::vector<size_t> native_by_id_;
  bool interpose_enabled_ = true;
  uint64_t generation_ = 1;  // bumped whenever resolution could change
  uint64_t module_generation_ = 1;  // bumped whenever a module loads
  uint32_t tls_cursor_ = 0;  // next module TLS slice (module-relative)
};

}  // namespace lfi::vm
