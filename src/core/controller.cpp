#include "core/controller.hpp"

#include <algorithm>

#include "core/replay.hpp"
#include "libc/libc_builder.hpp"
#include "vm/memory.hpp"

namespace lfi::core {

/// Per-stub cached state, resolved once at install time: the function's
/// dense ids (machine symbol table for loader resolution, log interner for
/// records), its profile entry, the engine state handle, and whether
/// trigger evaluation needs backtraces. Nothing here requires a string
/// lookup per intercepted call.
struct Controller::StubState {
  Controller* controller = nullptr;  // the stub closure's only capture
  vm::SymbolId symbol = vm::kNoSymbol;       // machine-wide id (loader)
  util::SymbolId log_symbol = util::kNoSymbol;  // id in the injection log
  const FunctionProfile* profile = nullptr;  // may be null
  TriggerEngine::FunctionState* engine_state = nullptr;
  bool needs_backtrace = false;
  // dlsym(RTLD_NEXT) result, resolved lazily on first pass-through and
  // cached for the loader generation it was resolved under.
  uint64_t original_addr = 0;
  uint64_t resolved_generation = 0;
};

Controller::Controller(vm::Machine& machine, ControllerOptions opts)
    : machine_(machine), opts_(opts) {
  log_.set_enabled(opts_.log_enabled);
  log_.set_capacity(opts_.log_capacity);
}

Controller::~Controller() = default;

namespace {

/// Locate the TLS side-effect slot for (function profile, retval): the
/// module-relative errno location the injector must write. Falls back to
/// libc's errno (offset 0) when the profile has no TLS effect.
std::pair<std::string, uint32_t> ErrnoLocation(const FunctionProfile* profile,
                                               int64_t retval) {
  if (profile) {
    const ProfileErrorCode* ec = profile->error_code(retval);
    if (ec) {
      for (const ProfileSideEffect& se : ec->side_effects) {
        if (se.type == ProfileSideEffect::Type::Tls) {
          return {se.module, se.offset};
        }
      }
    }
    // Any TLS effect on any error code of this function.
    for (const ProfileErrorCode& other : profile->error_codes) {
      for (const ProfileSideEffect& se : other.side_effects) {
        if (se.type == ProfileSideEffect::Type::Tls) {
          return {se.module, se.offset};
        }
      }
    }
  }
  return {libc::kLibcName, 0};
}

}  // namespace

Status Controller::Install(const Plan& plan,
                           std::vector<FaultProfile> profiles) {
  return Install(plan, std::make_shared<const std::vector<FaultProfile>>(
                           std::move(profiles)));
}

Status Controller::Install(
    const Plan& plan,
    std::shared_ptr<const std::vector<FaultProfile>> profiles) {
  static const auto kNoProfiles =
      std::make_shared<const std::vector<FaultProfile>>();
  if (!profiles) profiles = kNoProfiles;
  // registered_ implies engine_: a profile set change clears both.
  if (registered_ && profiles == profiles_ && engine_->SameTriggers(plan)) {
    Rearm(plan);
    return Status::Ok();
  }
  // Drop any previous installation first: stale stubs in the loader would
  // otherwise keep pointers into the stub states rebuilt below.
  Uninstall();
  // The profile index is per (controller, profile set): a campaign hands
  // every scenario the same shared set, so it is built once.
  if (profiles != profiles_ || !profile_index_) {
    engine_.reset();  // it points into the profile index
    profiles_ = std::move(profiles);
    profile_index_ = std::make_unique<ProfileIndex>(
        *profiles_, machine_.symbols(), opts_.feasible_only);
    ++profile_index_builds_;
  }
  // Planned names are interned into the machine's symbol table: the stubs
  // below only ever touch dense ids and cached pointers.
  if (engine_) {
    engine_->Rearm(plan);
  } else {
    engine_ = std::make_unique<TriggerEngine>(plan, machine_.symbols(),
                                              *profile_index_);
  }
  installed_ = armed_ = registered_ = true;
  std::span<TriggerEngine::FunctionState> functions =
      engine_->function_states();
  stubs_.resize(functions.size());
  for (size_t i = 0; i < functions.size(); ++i) {
    TriggerEngine::FunctionState& fn = functions[i];
    StubState& state = stubs_[i];
    state = StubState{};
    state.controller = this;
    state.symbol = fn.symbol();
    if (state.symbol >= log_ids_.size()) {
      log_ids_.resize(state.symbol + 1, util::kNoSymbol);
    }
    util::SymbolId& log_id = log_ids_[state.symbol];
    if (log_id == util::kNoSymbol) {
      log_id = log_.Intern(machine_.symbols().name(state.symbol));
    }
    state.log_symbol = log_id;
    state.engine_state = &fn;
    state.needs_backtrace = fn.needs_backtrace();
    state.profile = profile_index_->function(state.symbol);
    // One pointer: small enough for std::function's inline storage, so
    // registering a stub allocates nothing.
    machine_.loader().RegisterNative(
        state.symbol, [stub = &state](vm::NativeFrame& frame) {
          return stub->controller->OnStubCall(*stub, frame);
        });
  }
  ArmSeus(plan);
  return Status::Ok();
}

void Controller::Rearm(const Plan& plan) {
  // The registered stubs already serve this trigger list: reset the
  // engine's counts and RNG and switch the stubs back on.
  Disarm();
  engine_->Restart(plan.seed);
  machine_.loader().SetInterpositionEnabled(true);
  installed_ = armed_ = true;
  ArmSeus(plan);
}

vm::NativeAction Controller::OnStubCall(StubState& state,
                                        vm::NativeFrame& frame) {
  vm::Loader& loader = machine_.loader();
  auto original = [&]() -> uint64_t {
    if (state.resolved_generation != loader.generation()) {
      vm::Target t = loader.ResolveNextId(state.symbol);
      state.original_addr = t.kind == vm::Target::Kind::Code ? t.addr : 0;
      state.resolved_generation = loader.generation();
    }
    return state.original_addr;
  };

  BacktraceProvider bt_provider;
  if (state.needs_backtrace) {
    bt_provider = [&frame]() { return frame.backtrace(); };
  }
  auto decision = engine_->OnCall(*state.engine_state, bt_provider);
  if (!decision) {
    uint64_t target = original();
    if (target == 0) {
      // No original exists; behave like a failed call.
      return vm::NativeAction::Ret(-1);
    }
    return vm::NativeAction::Tail(target);
  }

  InjectionRecord record;
  record.function = state.log_symbol;
  record.call_number = state.engine_state->call_count();
  record.trigger_index = decision->trigger_index;
  record.call_original = decision->call_original;

  // Argument modifications (1-based indices, as in the paper).
  if (decision->modifications) {
    for (const ArgModification& m : *decision->modifications) {
      int64_t cur = frame.arg(m.argument - 1);
      int64_t next = m.Apply(cur);
      frame.set_arg(m.argument - 1, next);
      record.modified_args.emplace_back(m.argument, next);
    }
  }

  // errno side effect: write the TLS slot named by the profile.
  if (decision->errno_value) {
    auto [module_name, offset] = ErrnoLocation(state.profile, decision->retval);
    const vm::LoadedModule* mod = loader.module_named(module_name);
    if (!mod) mod = loader.module_named(libc::kLibcName);
    if (mod) {
      int64_t v = *decision->errno_value;
      frame.process().write_mem(vm::kTlsBase + mod->tls_base + offset, &v, 8);
    }
    record.errno_value = decision->errno_value;
  }

  // Remaining §3.2 side effects of the injected error code: module globals
  // and output arguments ("apply side_effects" in the paper's stub). The
  // errno TLS slot was handled above; other TLS slots, globals, and pointer
  // arguments are written here.
  if (decision->has_retval && state.profile) {
    if (const ProfileErrorCode* ec =
            state.profile->error_code(decision->retval)) {
      for (const ProfileSideEffect& se : ec->side_effects) {
        if (se.values.empty()) continue;
        // Prefer the value matching the injected errno; fall back to the
        // first profiled value.
        int64_t v = se.values.front();
        if (decision->errno_value &&
            std::find(se.values.begin(), se.values.end(),
                      *decision->errno_value) != se.values.end()) {
          v = *decision->errno_value;
        }
        switch (se.type) {
          case ProfileSideEffect::Type::Tls:
            break;  // errno path above
          case ProfileSideEffect::Type::Global: {
            const vm::LoadedModule* mod = loader.module_named(se.module);
            if (mod) {
              frame.process().write_mem(mod->data_base + se.offset, &v, 8);
            }
            break;
          }
          case ProfileSideEffect::Type::Arg: {
            // Write the error detail through the output pointer.
            uint64_t ptr = static_cast<uint64_t>(frame.arg(se.arg_index));
            if (ptr != 0) frame.process().write_mem(ptr, &v, 8);
            break;
          }
        }
      }
    }
  }

  record.has_retval = decision->has_retval;
  record.retval = decision->retval;
  if (first_injection_instructions_ == 0) {
    // Sum per-process counts rather than reading the machine's round-settled
    // total, which is stale mid-quantum.
    for (const auto& proc : machine_.processes()) {
      first_injection_instructions_ += proc->instructions();
    }
  }
  if (opts_.log_backtraces && log_.enabled()) {
    for (const auto& [addr, sym] : frame.backtrace()) {
      record.backtrace.push_back(sym);
    }
  }
  log_.Add(std::move(record));

  if (decision->call_original) {
    uint64_t target = original();
    if (target != 0) return vm::NativeAction::Tail(target);
  }
  return vm::NativeAction::Ret(decision->has_retval ? decision->retval : 0);
}

void Controller::ArmSeus(const Plan& plan) {
  seus_ = plan.seus;
  seu_landed_ = 0;
  for (const SeuFault& seu : seus_) {
    machine_.ArmInstructionStop(
        seu.at_instruction, [this, seu](vm::Machine&) { ApplySeu(seu); });
  }
}

void Controller::ApplySeu(const SeuFault& seu) {
  vm::Process* proc = machine_.process(seu.pid);
  // A flip aimed at a dead or never-created process has no hardware to
  // land in; record nothing. (Deterministic: process lifetimes are.)
  if (!proc || (proc->state() != vm::ProcState::Runnable &&
                proc->state() != vm::ProcState::Blocked)) {
    return;
  }
  if (seu.window_end != 0) {
    const vm::LoadedModule* wmod =
        machine_.loader().module_named(seu.window_module);
    if (!wmod) return;
    uint64_t rel = proc->pc() - wmod->code_base;
    if (proc->pc() < wmod->code_base || rel < seu.window_begin ||
        rel >= seu.window_end) {
      return;
    }
  }
  uint64_t mask = 1ull << seu.bit;
  switch (seu.target) {
    case SeuFault::Target::Reg: {
      if (seu.reg < 0 || seu.reg >= isa::kNumRegs) return;
      isa::Reg r = static_cast<isa::Reg>(seu.reg);
      proc->set_reg(r, proc->reg(r) ^ static_cast<int64_t>(mask));
      break;
    }
    case SeuFault::Target::Stack:
    case SeuFault::Target::Heap: {
      uint64_t base = seu.target == SeuFault::Target::Stack ? vm::kStackBase
                                                            : vm::kHeapBase;
      uint64_t word = 0;
      // read/write through the AddressSpace: bounds-checked, and the
      // write marks the dirty journal so snapshot restores undo the flip.
      if (!proc->read_mem(base + seu.offset, &word, 8)) return;
      word ^= mask;
      if (!proc->write_mem(base + seu.offset, &word, 8)) return;
      break;
    }
    case SeuFault::Target::Data: {
      const vm::LoadedModule* mod =
          machine_.loader().module_named(seu.module);
      if (!mod) return;
      uint64_t word = 0;
      if (!proc->read_mem(mod->data_base + seu.offset, &word, 8)) return;
      word ^= mask;
      if (!proc->write_mem(mod->data_base + seu.offset, &word, 8)) return;
      break;
    }
  }
  ++seu_landed_;
  if (first_injection_instructions_ == 0) {
    // Same rule as stub injections: sum the per-process counts, which the
    // engines settle at every budget boundary — and an instruction stop
    // is exactly such a boundary.
    for (const auto& p : machine_.processes()) {
      first_injection_instructions_ += p->instructions();
    }
  }
}

void Controller::Disarm() {
  if (!installed_) return;  // Reset() then Install(): disarm once
  installed_ = false;
  machine_.loader().SetInterpositionEnabled(false);
  machine_.ClearInstructionStops();
  seus_.clear();
}

void Controller::Uninstall() {
  Disarm();
  registered_ = false;
  machine_.loader().ClearNatives();
  machine_.loader().SetInterpositionEnabled(true);
}

void Controller::Reset() {
  Disarm();
  armed_ = false;
  log_.Clear();
  first_injection_instructions_ = 0;
  seu_landed_ = 0;
}

}  // namespace lfi::core
