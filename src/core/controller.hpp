// The LFI controller (paper §5).
//
// Takes fault profiles plus a fault scenario, synthesizes interception
// stubs for every function the scenario names, and installs them in the
// loader's preload slot — the LD_PRELOAD shim. Each stub:
//   1. evaluates the function's triggers (call count, probability, stack
//      trace) via the TriggerEngine;
//   2. if no injection is due, tail-jumps to the original function,
//      resolved dlsym(RTLD_NEXT)-style and cached (§5.1's stub listing);
//   3. otherwise applies argument modifications in place, writes the errno
//      TLS side effect at the location the fault profile names, records
//      the injection in the log, and either returns the fault value
//      directly or still passes the (modified) call through.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/injection_log.hpp"
#include "core/profile.hpp"
#include "core/replay.hpp"
#include "core/scenario.hpp"
#include "core/trigger_engine.hpp"
#include "util/result.hpp"
#include "vm/machine.hpp"

namespace lfi::core {

struct ControllerOptions {
  /// Record injections in the log (disable for overhead measurements).
  bool log_enabled = true;
  /// Capture symbolized backtraces into log records (costs a stack walk).
  bool log_backtraces = true;
  /// Cap on log records (0 = unlimited).
  size_t log_capacity = 100000;
  /// Restrict profile-drawn injections to constprop-verified (Analyzed)
  /// error codes for functions that have any; unanalyzed functions keep
  /// their full code set. Rides in CampaignOptions so campaigns, the
  /// explorer, and fabric workers all gate the same way.
  bool feasible_only = false;
};

class Controller {
 public:
  explicit Controller(vm::Machine& machine, ControllerOptions opts = {});
  ~Controller();

  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  /// Synthesize and install interposition stubs for `plan`.
  /// Call before creating the process under test (like LD_PRELOAD, the shim
  /// must be in place when the program starts — though re-resolution makes
  /// late installs work too). When the profile set is the last Install's
  /// and the plan's trigger list equals the registered one field for
  /// field, Install re-arms in place: it reseeds the engine, zeroes its
  /// counts and cursors, re-arms the plan's SEUs and switches the
  /// registered stubs back on, and copies, interns and registers nothing.
  /// Either way the result is the state a fresh controller would reach.
  Status Install(const Plan& plan, std::vector<FaultProfile> profiles);

  /// Same, sharing an immutable profile set instead of copying it — the
  /// campaign runner installs the same profiles once per scenario, so the
  /// per-install deep copy matters there.
  Status Install(const Plan& plan,
                 std::shared_ptr<const std::vector<FaultProfile>> profiles);

  /// Remove all stubs (the loader then resolves to the originals again).
  void Uninstall();

  /// Return to the pre-Install state: no stub is active (the registered
  /// stubs stay in the loader but interposition is off, so calls resolve
  /// to the originals and a fault-free gap can run before the next
  /// Install), the trigger engine is disarmed (engine() is nullptr until
  /// the next Install), the armed SEU stops are dropped and the injection
  /// log is cleared (sequence numbers restart). The profile index, the
  /// engine and the stub states stay allocated for the next Install; the
  /// engine is rebuilt only when the profile set changes. Pairs with
  /// vm::Machine::Reset and RestoreTo for scenario-to-scenario reuse.
  void Reset();

  /// How many times Install built a ProfileIndex: once per distinct
  /// profile set handed in, not once per plan.
  uint64_t profile_index_builds() const { return profile_index_builds_; }

  InjectionLog& log() { return log_; }
  const InjectionLog& log() const { return log_; }
  TriggerEngine* engine() { return armed_ ? engine_.get() : nullptr; }

  /// Machine-wide instruction count (sum over processes) at the moment the
  /// first fault was injected; 0 when nothing injected since the last
  /// Reset(). Exact and engine-invariant: injections happen at native-stub
  /// boundaries, where every engine has settled its per-process counts.
  /// The explorer uses this to place fork windows at the instant a corpus
  /// parent's faults start mattering.
  uint64_t first_injection_instructions() const {
    return first_injection_instructions_;
  }

  /// Replay plan reproducing this run's injections (paper §5.2). Armed
  /// SEU flips carry over verbatim: they are already instruction-precise,
  /// so re-running them reproduces the same landings deterministically.
  Plan GenerateReplay() const {
    Plan plan = GenerateReplayPlan(log_);
    plan.seus = seus_;
    return plan;
  }

  /// How many of the plan's SEU flips actually landed (reached their
  /// instant while their process was alive and passed the pc-window gate).
  uint32_t seu_landed() const { return seu_landed_; }

 private:
  struct StubState;

  /// Install for a plan whose trigger list the registered stubs serve:
  /// restart the engine and switch the stubs back on.
  void Rearm(const Plan& plan);
  /// Switch the stubs off and drop the armed SEU stops; a no-op when
  /// nothing was installed since.
  void Disarm();
  /// Arm the plan's SEU flips as precise machine instruction stops.
  void ArmSeus(const Plan& plan);
  /// Stop callback: flip the addressed bit if the gate admits it.
  void ApplySeu(const SeuFault& seu);
  /// The body of every interposition stub.
  vm::NativeAction OnStubCall(StubState& state, vm::NativeFrame& frame);

  vm::Machine& machine_;
  ControllerOptions opts_;
  /// The profile set of the last Install and its index over the machine's
  /// symbol table (declared before engine_, which points into it).
  std::shared_ptr<const std::vector<FaultProfile>> profiles_;
  std::unique_ptr<ProfileIndex> profile_index_;
  uint64_t profile_index_builds_ = 0;
  /// Built on the first Install after a profile set change, re-armed by
  /// every other Install.
  std::unique_ptr<TriggerEngine> engine_;
  bool armed_ = false;
  /// Machine SymbolId -> injection-log id, interned on first sight (log
  /// ids survive log_.Clear()).
  std::vector<util::SymbolId> log_ids_;
  /// Whether stubs may be active or SEU stops armed, which Disarm must
  /// undo. Starts true: the first Install clears whatever was registered
  /// before it.
  bool installed_ = true;
  /// Whether the loader holds stubs_ for the engine's trigger list (active
  /// or not): Install re-arms instead of registering.
  bool registered_ = false;
  InjectionLog log_;
  uint64_t first_injection_instructions_ = 0;
  /// One per planned function. Registered stubs point into this vector,
  /// so Install resizes it only after Uninstall has cleared them.
  std::vector<StubState> stubs_;
  std::vector<SeuFault> seus_;
  uint32_t seu_landed_ = 0;
};

}  // namespace lfi::core
