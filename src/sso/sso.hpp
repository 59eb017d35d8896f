// SSO — the Synthetic Shared Object format.
//
// The ELF/PE analogue of the reproduction: a container for one shared
// library's code and data, its dynamic symbol table (exported functions —
// what the LFI profiler enumerates), an import table (the PLT names a
// CALL_SYM goes through), an optional local symbol table (removed by
// Strip(), since LFI must work on stripped binaries), the list of needed
// libraries (what `ldd` reports), and the module's TLS reservation.
//
// Binary layout (little-endian):
//   magic "SSO1" | u32 version | str name | u32 tls_size
//   | bytes code | bytes data | symtab exports | symtab locals
//   | strtab imports | strtab needed
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "isa/codebuilder.hpp"
#include "util/result.hpp"

namespace lfi::sso {

/// Load limits of the synthetic platform's module layout (vm/memory.hpp,
/// static_assert'ed there): code must end at or before the module's data
/// base, data before the next module's code, and one module's TLS slice
/// must fit the process TLS segment. CheckLimits holds them; Parse and
/// vm::Loader::Load both refuse an object beyond them, so every loaded
/// object maps without overlap.
inline constexpr uint64_t kMaxCodeBytes = 0x8'0000;
inline constexpr uint64_t kMaxDataBytes = 0x8'0000;
inline constexpr uint32_t kMaxTlsBytes = 4096;

struct SharedObject;
/// The load limits above, plus relocations that stay inside the data
/// section and point into code, and exports inside code.
Status CheckLimits(const SharedObject& so);

struct SharedObject {
  std::string name;                  // e.g. "libc.so"
  std::vector<uint8_t> code;
  std::vector<uint8_t> data;
  uint32_t tls_size = 0;
  std::vector<isa::Symbol> exports;  // dynamic symbols: always present
  std::vector<isa::Symbol> locals;   // debug symbols: removed by Strip()
  std::vector<std::string> imports;  // CALL_SYM index -> name
  std::vector<std::string> needed;   // dependency library names

  /// Relative relocations: at load time, data[first..first+8) receives the
  /// absolute virtual address of code offset `second` (function-pointer
  /// tables for indirect calls — the construct the profiler cannot follow).
  std::vector<std::pair<uint32_t, uint32_t>> data_relocs;

  /// Exported symbol lookup by name.
  const isa::Symbol* find_export(std::string_view fn) const;

  /// Nearest symbol (export or local) at or before `offset`; used for
  /// symbolizing stack traces and disassembly listings.
  const isa::Symbol* symbol_at(uint32_t offset) const;

  /// Remove local (debug) symbols, as `strip` would.
  void Strip() { locals.clear(); }

  /// Serialize to the on-disk format.
  std::vector<uint8_t> Serialize() const;

  /// Parse the on-disk format. Validates magic/version and string bounds,
  /// and every invariant Loader::Load relies on: section sizes and TLS
  /// within the load limits, relocations and export offsets inside their
  /// sections. Bytes from outside the process (files, serve frames) only
  /// reach the loader through here.
  static Result<SharedObject> Parse(const std::vector<uint8_t>& bytes);

  /// Full text disassembly (function-annotated), for debugging and the
  /// paper's Figure-2-style listings.
  std::string Disassembly() const;
};

/// Convenience: wrap a finished CodeUnit into a SharedObject.
SharedObject FromCodeUnit(std::string name, isa::CodeUnit unit,
                          std::vector<std::string> needed = {});

}  // namespace lfi::sso
