// Trigger evaluation (paper §4, §5.1).
//
// "Every time a function is intercepted, the relevant triggers are
// evaluated and, if any is true, the associated fault(s) is/are injected."
// The engine is VM-independent: the backtrace is supplied lazily by the
// caller, so it is only materialized when some trigger actually has
// stack-trace conditions (keeping per-call overhead low — Table 3/4).
//
// Function names are interned once per trigger when the engine is armed,
// into the SymbolTable a ProfileIndex was built against; per-function
// state lives in a flat vector, one entry per distinct planned function.
// An engine is re-armed in place for each new plan (Rearm), reusing its
// storage, and is then indistinguishable from a fresh one. A stub
// resolves its FunctionState* once at install time, and
// OnCall(FunctionState&, ...) is then pure index arithmetic — the hot-path
// invariant is that no string is hashed or compared and no map is walked
// per intercepted call. The string-taking entry points are thin
// resolve-once wrappers kept for setup-time callers and tests.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/profile.hpp"
#include "core/scenario.hpp"
#include "util/interner.hpp"
#include "util/rng.hpp"

namespace lfi::core {

/// A symbolized backtrace: innermost-first (return address, enclosing
/// function) pairs.
using Backtrace = std::vector<std::pair<uint64_t, std::string>>;
using BacktraceProvider = std::function<Backtrace()>;

struct InjectionDecision {
  bool has_retval = false;
  int64_t retval = 0;
  std::optional<int32_t> errno_value;
  bool call_original = false;
  const std::vector<ArgModification>* modifications = nullptr;
  size_t trigger_index = 0;  // index into the plan's trigger list
};

class TriggerEngine {
 private:
  /// Per-trigger mutable state (fire counts, rotation cursor).
  struct TriggerState {
    size_t plan_index = 0;
    int fired = 0;
    size_t rotate_index = 0;
  };
  /// A plain call-count trigger, evaluated by cursor against the strictly
  /// increasing call count — no per-call map lookup.
  struct IndexedTrigger {
    uint64_t inject_call = 0;
    TriggerState state;
  };

 public:
  /// Build against a shared profile index: planned function names are
  /// interned into `symbols`, the table `profiles` was built against, and
  /// profile draws come from the index's injectables. The index must
  /// outlive the engine.
  TriggerEngine(const Plan& plan, util::SymbolTable& symbols,
                const ProfileIndex& profiles);

  /// Standalone engine over a private table and index. With
  /// `feasible_only`, profile draws (Rotate cycling and uniform random
  /// picks) are restricted to constprop-verified error codes for
  /// functions that have any (FunctionProfile::injectables's gate);
  /// triggers with an explicit retval are unaffected.
  TriggerEngine(const Plan& plan, const std::vector<FaultProfile>& profiles,
                bool feasible_only = false);

  /// Arm the engine for `plan` against the same table and index, exactly as
  /// if it had been constructed for it: the RNG is reseeded and every count
  /// starts at zero. The list is copied into the previous plan's storage,
  /// trigger i keeps its symbol id when it names the same function as the
  /// previous plan's trigger i, and every FunctionState handle is
  /// invalidated.
  void Rearm(const Plan& plan);
  /// Whether the armed trigger list equals `plan`'s field for field (a
  /// random faultload's plans differ only in their seed).
  bool SameTriggers(const Plan& plan) const { return plan.triggers == triggers_; }
  /// Rearm for a plan with the armed trigger list: reseed the RNG with
  /// `seed` and zero every count, fire count and cursor; every handle
  /// stays valid. This is the Controller's re-arm path.
  void Restart(uint64_t seed);

  /// Opaque per-function handle; lets a stub skip the name lookup on the
  /// hot path (resolved once at install time). The trigger plumbing is
  /// engine-internal; callers read the identity and the call count.
  class FunctionState {
   public:
    uint64_t call_count() const { return call_count_; }
    /// The function's id in the engine's symbol table.
    util::SymbolId symbol() const { return symbol_; }
    /// True if any trigger on the function needs a backtrace to evaluate.
    bool needs_backtrace() const { return any_stack_conditions_; }

   private:
    friend class TriggerEngine;

    util::SymbolId symbol_ = util::kNoSymbol;
    uint64_t call_count_ = 0;
    /// Call-count triggers without stack conditions, sorted by target
    /// count and consumed by `cursor_` as the count advances; evaluating a
    /// call costs O(general triggers), not O(all triggers) — this keeps
    /// 1,000-trigger plans at the paper's negligible overhead (§6.4).
    std::vector<IndexedTrigger> indexed_;
    size_t cursor_ = 0;  // first indexed_ entry not yet passed
    /// Everything else: evaluated on every call, in plan order.
    std::vector<TriggerState> general_;
    /// (retval, errno) pairs injectable per the fault profile; owned by
    /// the ProfileIndex, nullptr when the function is not profiled.
    const std::vector<Injectable>* injectables_ = nullptr;
    bool any_stack_conditions_ = false;
  };

  /// Every planned function's handle, one per distinct function in order
  /// of first appearance in the plan.
  std::span<FunctionState> function_states() { return {state_.data(), live_}; }

  /// Resolve a function's state handle once; nullptr when the plan has no
  /// triggers for it.
  FunctionState* state_for(std::string_view function);

  /// Hot path: evaluate the triggers for one intercepted call through a
  /// pre-resolved handle. The plan's trigger order decides priority; the
  /// first firing trigger wins.
  std::optional<InjectionDecision> OnCall(FunctionState& state,
                                          const BacktraceProvider& backtrace);
  /// Resolve-once wrapper over the hot path (setup-time callers, tests).
  std::optional<InjectionDecision> OnCall(const std::string& function,
                                          const BacktraceProvider& backtrace);

  /// True if any trigger on `function` needs a backtrace to evaluate.
  bool needs_backtrace(std::string_view function) const;
  /// All function names with at least one trigger.
  std::vector<std::string> functions() const;

  uint64_t call_count(std::string_view function) const;

 private:
  bool Matches(const FunctionTrigger& trigger, const FunctionState& st,
               const BacktraceProvider& backtrace) const;
  std::optional<InjectionDecision> Fire(const FunctionTrigger& trigger,
                                        TriggerState& ts, FunctionState& st);
  const FunctionState* find_state(std::string_view function) const;

  /// The armed plan's triggers (OnCall indexes them by plan position).
  std::vector<FunctionTrigger> triggers_;
  /// Standalone engines own their table and index; shared-index engines
  /// leave these empty.
  std::unique_ptr<util::SymbolTable> own_symbols_;
  std::unique_ptr<ProfileIndex> own_profiles_;
  util::SymbolTable* symbols_ = nullptr;
  const ProfileIndex* profiles_ = nullptr;
  /// Symbol id of each plan trigger's function.
  std::vector<util::SymbolId> trigger_symbols_;
  /// Symbol id -> state_ slot while arming; kNoSlot everywhere in between.
  std::vector<uint32_t> slot_of_;
  /// Per-function state; the first live_ entries belong to the armed plan,
  /// the rest keep their storage for later plans. Resized only by Rearm,
  /// so FunctionState addresses are stable while a plan is armed.
  std::vector<FunctionState> state_;
  size_t live_ = 0;
  mutable Rng rng_;
};

}  // namespace lfi::core
