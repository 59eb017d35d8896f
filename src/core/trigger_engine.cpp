#include "core/trigger_engine.hpp"

#include <algorithm>

namespace lfi::core {

namespace {
constexpr uint32_t kNoSlot = UINT32_MAX;
}  // namespace

TriggerEngine::TriggerEngine(const Plan& plan, util::SymbolTable& symbols,
                             const ProfileIndex& profiles)
    : symbols_(&symbols), profiles_(&profiles) {
  Rearm(plan);
}

TriggerEngine::TriggerEngine(const Plan& plan,
                             const std::vector<FaultProfile>& profiles,
                             bool feasible_only)
    : own_symbols_(std::make_unique<util::SymbolTable>()),
      own_profiles_(std::make_unique<ProfileIndex>(profiles, *own_symbols_,
                                                   feasible_only)),
      symbols_(own_symbols_.get()),
      profiles_(own_profiles_.get()) {
  Rearm(plan);
}

void TriggerEngine::Restart(uint64_t seed) {
  rng_ = Rng(seed);
  // Same list: the per-function layout is already right; zero the counts.
  auto unfired = [](TriggerState& ts) {
    ts.fired = 0;
    ts.rotate_index = 0;
  };
  for (FunctionState& st : function_states()) {
    st.call_count_ = 0;
    st.cursor_ = 0;
    for (IndexedTrigger& t : st.indexed_) unfired(t.state);
    for (TriggerState& t : st.general_) unfired(t);
  }
}

void TriggerEngine::Rearm(const Plan& plan) {
  rng_ = Rng(plan.seed);
  // One intern per trigger, skipped where the previous plan's trigger at
  // the same index named the same function (triggers_ is still that list).
  trigger_symbols_.resize(plan.triggers.size());
  for (size_t i = 0; i < plan.triggers.size(); ++i) {
    const std::string& function = plan.triggers[i].function;
    if (i >= triggers_.size() || triggers_[i].function != function) {
      trigger_symbols_[i] = symbols_->Intern(function);
    }
  }
  triggers_ = plan.triggers;

  // slot_of_ maps a table id to its state_ entry (first-appearance order).
  live_ = 0;
  for (util::SymbolId id : trigger_symbols_) {
    if (id >= slot_of_.size()) slot_of_.resize(id + 1, kNoSlot);
    if (slot_of_[id] != kNoSlot) continue;
    slot_of_[id] = static_cast<uint32_t>(live_);
    if (live_ == state_.size()) state_.emplace_back();
    FunctionState& st = state_[live_++];
    st.symbol_ = id;
    st.call_count_ = 0;
    st.indexed_.clear();
    st.cursor_ = 0;
    st.general_.clear();
    const ProfileIndex::Entry* entry = profiles_->find(id);
    st.injectables_ = entry ? &entry->injectables : nullptr;
    st.any_stack_conditions_ = false;
  }
  for (size_t i = 0; i < triggers_.size(); ++i) {
    const FunctionTrigger& t = triggers_[i];
    FunctionState& st = state_[slot_of_[trigger_symbols_[i]]];
    TriggerState ts{i, 0, 0};
    // Plain call-count triggers are kept sorted by their fire count and
    // consumed by a cursor; they cost nothing on calls that do not match.
    // Anything with a stack condition or a non-counting mode is evaluated
    // per call.
    if (t.mode == FunctionTrigger::Mode::CallCount && t.stacktrace.empty()) {
      st.indexed_.push_back(IndexedTrigger{t.inject_call, ts});
    } else {
      st.general_.push_back(ts);
    }
    if (!t.stacktrace.empty()) st.any_stack_conditions_ = true;
  }
  auto by_call = [](const IndexedTrigger& a, const IndexedTrigger& b) {
    return a.inject_call < b.inject_call;
  };
  for (FunctionState& st : function_states()) {
    slot_of_[st.symbol_] = kNoSlot;
    // Stable: triggers with the same fire count stay in plan order. The
    // common already-sorted case skips stable_sort's scratch buffer.
    if (!std::is_sorted(st.indexed_.begin(), st.indexed_.end(), by_call)) {
      std::stable_sort(st.indexed_.begin(), st.indexed_.end(), by_call);
    }
  }
}

TriggerEngine::FunctionState* TriggerEngine::state_for(
    std::string_view function) {
  return const_cast<FunctionState*>(find_state(function));
}

const TriggerEngine::FunctionState* TriggerEngine::find_state(
    std::string_view function) const {
  util::SymbolId id = symbols_->Find(function);
  if (id == util::kNoSymbol) return nullptr;
  for (size_t i = 0; i < live_; ++i) {
    if (state_[i].symbol_ == id) return &state_[i];
  }
  return nullptr;
}

bool TriggerEngine::needs_backtrace(std::string_view function) const {
  const FunctionState* st = find_state(function);
  return st != nullptr && st->any_stack_conditions_;
}

std::vector<std::string> TriggerEngine::functions() const {
  std::vector<std::string> out;
  out.reserve(live_);
  for (size_t i = 0; i < live_; ++i) {
    out.push_back(symbols_->name(state_[i].symbol_));
  }
  return out;
}

uint64_t TriggerEngine::call_count(std::string_view function) const {
  const FunctionState* st = find_state(function);
  return st == nullptr ? 0 : st->call_count_;
}

bool TriggerEngine::Matches(const FunctionTrigger& trigger,
                            const FunctionState& st,
                            const BacktraceProvider& backtrace) const {
  switch (trigger.mode) {
    case FunctionTrigger::Mode::CallCount:
      if (st.call_count_ != trigger.inject_call) return false;
      break;
    case FunctionTrigger::Mode::Probability:
      if (!rng_.chance(trigger.probability)) return false;
      break;
    case FunctionTrigger::Mode::Always:
    case FunctionTrigger::Mode::Rotate:
      break;
  }
  if (!trigger.stacktrace.empty()) {
    Backtrace bt = backtrace ? backtrace() : Backtrace{};
    if (bt.size() < trigger.stacktrace.size()) return false;
    for (size_t i = 0; i < trigger.stacktrace.size(); ++i) {
      const FrameCondition& cond = trigger.stacktrace[i];
      if (cond.address) {
        if (bt[i].first != *cond.address) return false;
      } else if (bt[i].second != cond.symbol) {
        return false;
      }
    }
  }
  return true;
}

std::optional<InjectionDecision> TriggerEngine::Fire(
    const FunctionTrigger& trigger, TriggerState& ts, FunctionState& st) {
  InjectionDecision d;
  d.trigger_index = ts.plan_index;
  d.call_original = trigger.call_original;
  d.modifications = &trigger.modifications;
  if (trigger.retval) {
    d.has_retval = true;
    d.retval = *trigger.retval;
    d.errno_value = trigger.errno_value;
  } else if (st.injectables_ != nullptr && !st.injectables_->empty()) {
    // Draw the fault from the profile: rotating for exhaustive scenarios,
    // uniformly at random otherwise (§4).
    const std::vector<Injectable>& codes = *st.injectables_;
    Injectable pick;
    if (trigger.mode == FunctionTrigger::Mode::Rotate) {
      pick = codes[ts.rotate_index % codes.size()];
      ++ts.rotate_index;
    } else {
      pick = codes[rng_.below(codes.size())];
    }
    d.has_retval = true;
    d.retval = pick.first;
    if (pick.second) d.errno_value = static_cast<int32_t>(*pick.second);
    if (trigger.errno_value) d.errno_value = trigger.errno_value;
  } else {
    // No explicit fault and no profile codes: evaluate-and-pass-through
    // (the overhead-measurement configuration, §6.4).
    d.call_original = true;
  }
  ++ts.fired;
  return d;
}

std::optional<InjectionDecision> TriggerEngine::OnCall(
    FunctionState& st, const BacktraceProvider& backtrace) {
  ++st.call_count_;

  // Indexed call-count triggers: the call count is strictly increasing, so
  // a cursor over the sorted targets replaces the old per-call map lookup
  // (amortized O(1), pure index arithmetic).
  size_t i = st.cursor_;
  while (i < st.indexed_.size() &&
         st.indexed_[i].inject_call < st.call_count_) {
    ++i;
  }
  st.cursor_ = i;
  // General triggers and indexed triggers compose in plan order; to keep
  // the hot path cheap we give indexed triggers priority within their
  // count, then fall back to general evaluation.
  for (; i < st.indexed_.size() && st.indexed_[i].inject_call == st.call_count_;
       ++i) {
    TriggerState& ts = st.indexed_[i].state;
    const FunctionTrigger& trigger = triggers_[ts.plan_index];
    if (trigger.max_injections >= 0 && ts.fired >= trigger.max_injections) {
      continue;
    }
    return Fire(trigger, ts, st);
  }
  for (TriggerState& ts : st.general_) {
    const FunctionTrigger& trigger = triggers_[ts.plan_index];
    if (trigger.max_injections >= 0 && ts.fired >= trigger.max_injections) {
      continue;
    }
    if (!Matches(trigger, st, backtrace)) continue;
    return Fire(trigger, ts, st);
  }
  return std::nullopt;
}

std::optional<InjectionDecision> TriggerEngine::OnCall(
    const std::string& function, const BacktraceProvider& backtrace) {
  FunctionState* st = state_for(function);
  if (!st) return std::nullopt;
  return OnCall(*st, backtrace);
}

}  // namespace lfi::core
