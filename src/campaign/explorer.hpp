// Coverage-guided campaign exploration: the closed loop over the campaign
// engine.
//
// The paper (§4) generates fault scenarios open-loop — an exhaustive or
// random plan, run once. The explorer turns that into an evolutionary
// search: each round's scenarios run as one campaign, every scenario is
// scored by how many instruction offsets it covers that no corpus member
// covered before (CoverageBitmap diff against the corpus-union bitmap),
// and winners are kept and mutated into the next round's population.
// Which winners get mutated is the pluggable part: parent selection goes
// through a campaign::Fitness policy (fitness.hpp) — uniform coverage
// fitness by default, or CFG-distance fitness that steers mutation toward
// still-uncovered error-handling blocks.
// Crashes are deduplicated by triage hash (campaign/triage.hpp) and each
// unique crash is shrunk to a minimal reproducer by replay-based delta
// debugging (core::MinimizePlan) against a PlanRunner oracle.
//
// Determinism: round populations are built on the coordinating thread
// from seeded RNG streams (DeriveSeed of the explorer seed, round, and
// slot), campaign results are jobs-invariant by the runner's contract,
// scoring walks results in index order, and each crash's minimization is
// deterministic on its own (its slot's warm oracle resets before every
// run) — so the whole exploration (union bitmap, crash-hash set,
// minimized plans) is bit-identical for any --jobs count.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "campaign/fitness.hpp"
#include "campaign/runner.hpp"
#include "core/replay.hpp"
#include "util/rng.hpp"

namespace lfi::campaign {

/// One exploration round's outcome, as the CLI prints it. All fields are
/// jobs-invariant (no wall-clock anywhere).
struct RoundStats {
  size_t round = 0;           // 0-based
  size_t scenarios = 0;       // population size this round
  size_t crashes = 0;         // crashed scenarios this round
  size_t new_crash_buckets = 0;  // previously-unseen triage hashes
  size_t winners = 0;         // scenarios that added new coverage
  size_t new_offsets = 0;     // offsets first covered this round
  size_t union_offsets = 0;   // cumulative corpus-union popcount
  size_t corpus_size = 0;     // corpus after this round

  /// The round's report line (ExplorerReport::ToText, `lfi explore`).
  std::string ToText() const;
};

/// One deduplicated crash with its replay and minimized reproducer.
struct CrashReport {
  uint64_t hash = 0;          // triage bucket (site + injected-fault set)
  uint64_t site_hash = 0;     // signal + fault frames (minimizer target)
  std::string signature;      // human-readable label
  std::string scenario_name;  // first witness
  size_t first_round = 0;
  size_t count = 0;           // crashed scenarios in this bucket
  core::Plan replay;          // full §5.2 replay plan of the first witness
  core::Plan minimized;       // 1-minimal reproducer (== replay when
                              // minimization is off or failed)
  /// Fault window the witness ran with (call counts in the replay are
  /// relative to its install point, so reproduction needs the same
  /// window). Equals the campaign warmup unless fork_windows placed it.
  uint64_t window = 0;
  size_t minimize_runs = 0;   // oracle executions spent shrinking
  /// Re-verified after minimization: the minimized plan, run fresh,
  /// crashes at the same site.
  bool reproduces = false;
};

struct ExplorerOptions {
  /// Exploration rounds; round 0 runs the seed corpus.
  size_t rounds = 3;
  /// Scenario budget per round (population size).
  size_t scenarios_per_round = 16;
  /// Master seed: drives seed-corpus generation and all mutation RNG.
  uint64_t seed = 1;
  /// Injection probability for generated random plans (seeding + fresh
  /// immigrants).
  double seed_probability = 0.1;
  /// Fraction of each evolved round that is fresh random plans instead of
  /// mutants — keeps the search from inbreeding on early winners.
  double fresh_fraction = 0.25;
  /// Fraction of each evolved round spent on the deterministic arg-fault
  /// sweep: canonical argument corruptions (shrunken lengths, bogus
  /// handles, zeroed arguments) applied call-original over the profiled
  /// functions in a fixed order, one candidate per slot, continuing where
  /// the previous round stopped. Pass-through faults reach real kernel
  /// error paths that no replace-the-call faultload can execute, which is
  /// where the explorer out-covers one-shot generation.
  double sweep_fraction = 0.34;
  /// Parent-selection policy for mutation (fitness.hpp). Coverage is the
  /// original uniform choice; CfgDistance biases toward corpus members
  /// close (in CFG edges) to uncovered error-handling blocks. Admission
  /// stays fresh-coverage-based in both modes, and either policy is
  /// bit-identical across jobs counts, execution modes, and the fabric.
  FitnessKind fitness = FitnessKind::Coverage;
  /// Shrink each unique crash to a minimal reproducer after the rounds.
  bool minimize_crashes = true;
  /// Fork mutated children from their corpus parent's trigger point: each
  /// admitted plan records the (quantum-floored) instruction instant of
  /// its first injection, and its mutants open their fault window there
  /// instead of at the campaign-wide warmup — under --snapshot the worker
  /// restores a window-local node, so children skip the parent's whole
  /// fault-free prefix. Changes search semantics (triggers can no longer
  /// fire before the parent's window), so it is off by default and
  /// independent of execution mode: the same fork-windows exploration is
  /// bit-identical under cold and snapshot execution.
  bool fork_windows = false;
  /// Campaign execution knobs (jobs, entry, budgets, controller). The
  /// explorer forces track_coverage / collect_scenario_coverage /
  /// collect_replays on — they are its inputs.
  CampaignOptions campaign;
  /// External round executor — the serve fabric's coordinator, or any
  /// other ScenarioDispatch. When set, every round's population runs
  /// through it instead of an internally-built CampaignRunner; it must be
  /// configured with Explorer::DispatchOptions(campaign) so the results
  /// carry the per-scenario bitmaps and replays the explorer consumes.
  /// Crash minimization still runs in-process (the ddmin oracle needs a
  /// private machine). Not owned.
  ScenarioDispatch* dispatch = nullptr;
  /// Per-round progress callback (CLI progress lines).
  std::function<void(const RoundStats&)> on_round;
};

struct ExplorerReport {
  std::vector<RoundStats> rounds;
  /// Corpus-union coverage per module name — the merged bitmap of every
  /// corpus member (identical across jobs counts).
  std::map<std::string, vm::CoverageBitmap> coverage;
  /// Surviving corpus: every plan that added coverage, in the
  /// deterministic order it was admitted.
  std::vector<core::Plan> corpus;
  /// Unique crashes in first-seen order.
  std::vector<CrashReport> crashes;

  size_t union_offsets() const;
  /// Human-readable summary (jobs-invariant: no timing).
  std::string ToText() const;
};

class Explorer {
 public:
  Explorer(MachineSetup setup, std::vector<core::FaultProfile> profiles,
           ExplorerOptions options = {});

  /// Run the exploration loop. `initial_corpus` (e.g. loaded from a
  /// corpus directory) seeds round 0 when non-empty; otherwise round 0 is
  /// seeded from GenerateExhaustive plus independently-seeded
  /// GenerateRandom plans.
  ExplorerReport Explore(std::vector<core::Plan> initial_corpus = {});

  const ExplorerOptions& options() const { return options_; }

  /// The campaign options an external round dispatcher must be built
  /// with: `base` plus the collection flags the explorer depends on
  /// (track_coverage, collect_scenario_coverage, collect_replays) — the
  /// same forcing Explore() applies to its internal runner.
  static CampaignOptions DispatchOptions(CampaignOptions base);

 private:
  /// One deterministic arg-fault sweep candidate: fail nothing, corrupt
  /// one argument of one call and let it through.
  struct SweepCandidate {
    std::string function;
    uint64_t inject_call = 1;
    core::ArgModification mod;
  };

  std::vector<Scenario> SeedPopulation(
      const std::vector<core::Plan>& initial) const;
  /// `windows[i]` is corpus[i]'s fork window (parallel vectors); mutants
  /// inherit their parent's window when fork_windows is on.
  std::vector<Scenario> EvolvePopulation(const std::vector<core::Plan>& corpus,
                                         const std::vector<uint64_t>& windows,
                                         size_t round) const;
  /// The fixed sweep order: stages (shrink length-ish arg, poison arg 1,
  /// zero arg 2) x calls {2,3,1,4} x profiled functions.
  std::vector<SweepCandidate> BuildSweep() const;
  core::Plan SweepPlan(const SweepCandidate& candidate, uint64_t seed) const;
  /// One seeded mutation of `parent` (possibly splicing in `other`).
  /// Returns the operator name through `op_name` for scenario labels.
  core::Plan Mutate(const core::Plan& parent, const core::Plan& other,
                    Rng& rng, const char** op_name) const;

  MachineSetup setup_;
  std::vector<core::FaultProfile> profiles_;
  ExplorerOptions options_;
  /// Parent-selection policy (options_.fitness), built once in the ctor.
  std::unique_ptr<Fitness> fitness_;
  /// Fixed sweep order, built once — it depends only on the profiles.
  std::vector<SweepCandidate> sweep_;
};

}  // namespace lfi::campaign
