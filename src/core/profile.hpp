// Fault profiles (paper §3.3).
//
// The profiler's output: per exported function, the possible error return
// values and, for each, the side effects that accompany it (errno-style
// TLS writes, global writes, output-argument writes). Serialized as the
// paper's XML format:
//
//   <profile library="libc.so">
//     <function name="close">
//       <error-codes retval="-1">
//         <side-effect type="TLS" module="libc.so" offset="0">9</side-effect>
//         ...
//       </error-codes>
//     </function>
//   </profile>
//
// Note on values: the paper's sample lists kernel-side constants (-9 for
// EBADF); we record the value actually stored in the TLS location (+9),
// which is what an injector must write. EXPERIMENTS.md discusses this.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/interner.hpp"
#include "util/result.hpp"

namespace lfi::core {

struct ProfileSideEffect {
  enum class Type { Tls, Global, Arg };
  Type type = Type::Tls;
  std::string module;       // owner of the TLS/global offset
  uint32_t offset = 0;      // module-relative (Tls / Global)
  int arg_index = 0;        // Arg
  std::vector<int64_t> values;  // possible stored values, sorted
};

const char* SideEffectTypeName(ProfileSideEffect::Type t);

/// Where an error code came from (the paper's doc-vs-binary distinction):
/// `Analyzed` codes were recovered from the binary by reverse constant
/// propagation — the function can actually return them — while `Assumed`
/// codes were written by hand or imported from documentation and may be
/// infeasible for this implementation. Feasible-only generation draws only
/// from analyzed codes when a function has any.
enum class Provenance : uint8_t { Assumed = 0, Analyzed = 1 };

struct ProfileErrorCode {
  int64_t retval = 0;
  Provenance provenance = Provenance::Assumed;
  std::vector<ProfileSideEffect> side_effects;
};

/// One profile-drawn fault: (retval, errno value stored by its TLS side
/// effect, if any).
using Injectable = std::pair<int64_t, std::optional<int64_t>>;

struct FunctionProfile {
  std::string name;
  std::vector<ProfileErrorCode> error_codes;
  bool incomplete = false;  // analysis hit indirect control flow

  const ProfileErrorCode* error_code(int64_t retval) const;
  /// Flatten into injectable (retval, errno-value) pairs: one per TLS
  /// side-effect value, or a single (retval, nullopt) when none.
  /// With `feasible_only`, restrict to constprop-verified (Analyzed) error
  /// codes when the function has at least one — unanalyzed functions fall
  /// back to the full set, so hand-written profiles keep working.
  std::vector<Injectable> injectables(bool feasible_only = false) const;
  /// Any error code carrying Analyzed provenance?
  bool has_analyzed_codes() const;
};

struct FaultProfile {
  std::string library;
  std::vector<FunctionProfile> functions;

  const FunctionProfile* function(std::string_view name) const;

  std::string ToXml() const;
  static Result<FaultProfile> FromXml(std::string_view xml);
};

/// Resolve-once view over a profile set: interns every profiled function
/// name into `symbols` and maps SymbolId -> (FunctionProfile, its
/// injectables under the `feasible_only` gate), so install paths look
/// profiles up by dense id (array index) instead of a linear string scan
/// per function. The first profile containing a function wins, matching
/// the search order of the string API. A Controller builds one per
/// profile set and shares it with every TriggerEngine it installs, so a
/// plan install never re-walks the profiles. The index borrows the
/// profiles — it must not outlive them.
class ProfileIndex {
 public:
  struct Entry {
    const FunctionProfile* profile = nullptr;
    std::vector<Injectable> injectables;
  };

  ProfileIndex(const std::vector<FaultProfile>& profiles,
               util::SymbolTable& symbols, bool feasible_only = false);

  /// The entry for a profiled function, or nullptr.
  const Entry* find(util::SymbolId id) const {
    return id < by_id_.size() && by_id_[id].profile ? &by_id_[id] : nullptr;
  }
  const FunctionProfile* function(util::SymbolId id) const {
    const Entry* entry = find(id);
    return entry ? entry->profile : nullptr;
  }

 private:
  std::vector<Entry> by_id_;
};

}  // namespace lfi::core
