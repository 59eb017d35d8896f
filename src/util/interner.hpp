// Symbol interning: dense integer IDs for function-name strings.
//
// Every layer that used to key on `std::string` function names on a per-call
// path (loader resolution, trigger state, coverage aggregation, injection
// records) resolves the name to a `SymbolId` ONCE — at load/install time —
// and indexes flat arrays afterwards. The hot-path invariant this buys:
// after stub install, no string is hashed or compared per intercepted call.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace lfi::util {

/// Dense, 0-based handle for an interned name. IDs are assigned in first-
/// intern order and are stable for the lifetime of their SymbolTable.
using SymbolId = uint32_t;

/// "Not interned" sentinel (never a valid index).
inline constexpr SymbolId kNoSymbol = UINT32_MAX;

/// A thread-safe name <-> dense-id table. Interning the same name from any
/// number of threads yields the same id (resolve-once semantics); `name()`
/// references stay valid forever, so resolved ids can be used lock-free.
///
/// The table is an install-time structure: per-call code never touches it —
/// it holds the ids (array indices) resolved up front.
class SymbolTable {
 public:
  SymbolTable() = default;
  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;

  /// Return the id for `name`, interning it on first sight.
  SymbolId Intern(std::string_view name);

  /// Return the id for `name`, or kNoSymbol if it was never interned.
  SymbolId Find(std::string_view name) const;

  /// The interned name for `id`; empty string for kNoSymbol / out of range.
  /// The reference is stable (names are never moved or freed).
  const std::string& name(SymbolId id) const;

  /// Number of distinct names interned so far.
  size_t size() const;

  /// How many Intern and Find calls the table has served: the string
  /// lookups an install path pays, which tests bound per installed plan.
  uint64_t lookups() const;

 private:
  mutable std::mutex mu_;
  mutable uint64_t lookups_ = 0;
  std::map<std::string, SymbolId, std::less<>> ids_;
  std::deque<std::string> names_;  // indexed by SymbolId; addresses stable
};

}  // namespace lfi::util
