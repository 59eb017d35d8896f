#include "campaign/explorer.hpp"

#include <algorithm>

#include "campaign/triage.hpp"
#include "core/scenario_gen.hpp"
#include "util/strings.hpp"

namespace lfi::campaign {

namespace {

/// Independent, well-spread RNG stream for (explorer seed, round, slot).
Rng SlotRng(uint64_t seed, size_t round, size_t slot) {
  return Rng(DeriveSeed(DeriveSeed(seed, round), slot));
}

const core::FunctionProfile* FindFunction(
    const std::vector<core::FaultProfile>& profiles, const std::string& name) {
  for (const core::FaultProfile& profile : profiles) {
    if (const core::FunctionProfile* fn = profile.function(name)) return fn;
  }
  return nullptr;
}

}  // namespace

size_t ExplorerReport::union_offsets() const {
  size_t total = 0;
  for (const auto& [mod, bitmap] : coverage) total += bitmap.Count();
  return total;
}

std::string RoundStats::ToText() const {
  return Format(
      "round %zu: %zu scenarios, %zu crashed (%zu new buckets), "
      "%zu winners, +%zu offsets, union %zu offsets, corpus %zu\n",
      round + 1, scenarios, crashes, new_crash_buckets, winners, new_offsets,
      union_offsets, corpus_size);
}

std::string ExplorerReport::ToText() const {
  std::string out;
  for (const RoundStats& rs : rounds) out += rs.ToText();
  out += Format("explorer: %zu unique crash bucket(s), union %zu offsets, "
                "corpus %zu plan(s)\n",
                crashes.size(), union_offsets(), corpus.size());
  for (const CrashReport& cr : crashes) {
    out += Format(
        "  crash %016llx: %s | %zu hit(s), first %s (round %zu) | "
        "replay %zu -> minimized %zu trigger(s)%s%s\n",
        (unsigned long long)cr.hash, cr.signature.c_str(), cr.count,
        cr.scenario_name.c_str(), cr.first_round + 1, cr.replay.triggers.size(),
        cr.minimized.triggers.size(),
        cr.minimize_runs > 0
            ? Format(" in %zu replay(s)", cr.minimize_runs).c_str()
            : "",
        cr.reproduces ? ", reproduces" : ", NOT re-verified");
  }
  return out;
}

Explorer::Explorer(MachineSetup setup,
                   std::vector<core::FaultProfile> profiles,
                   ExplorerOptions options)
    : setup_(std::move(setup)),
      profiles_(std::move(profiles)),
      options_(std::move(options)) {
  if (options_.rounds == 0) options_.rounds = 1;
  if (options_.scenarios_per_round == 0) options_.scenarios_per_round = 1;
  fitness_ = MakeFitness(options_.fitness, setup_);
  sweep_ = BuildSweep();
}

std::vector<Scenario> Explorer::SeedPopulation(
    const std::vector<core::Plan>& initial) const {
  std::vector<Scenario> population;
  if (!initial.empty()) {
    // Caller-provided corpus (e.g. --corpus-dir): run all of it as round
    // 0 — even past the per-round budget — so a resumed run re-earns
    // every plan's coverage instead of silently dropping findings; top up
    // with fresh randoms when it is smaller than the budget.
    for (size_t i = 0; i < initial.size(); ++i) {
      Scenario s;
      s.name = Format("r1-%zu-corpus", i);
      s.plan = initial[i];
      population.push_back(std::move(s));
    }
  } else {
    // Paper generators as the seed: one exhaustive rotate plan (covers
    // every profiled error code once) plus independently-seeded randoms.
    Scenario exhaustive;
    exhaustive.name = "r1-0-exhaustive";
    exhaustive.plan = core::GenerateExhaustive(profiles_);
    population.push_back(std::move(exhaustive));
  }
  for (size_t i = population.size(); i < options_.scenarios_per_round; ++i) {
    Scenario s;
    s.name = Format("r1-%zu-random", i);
    s.plan = core::GenerateRandom(profiles_, options_.seed_probability,
                                  SlotRng(options_.seed, 0, i).next());
    population.push_back(std::move(s));
  }
  return population;
}

core::Plan Explorer::Mutate(const core::Plan& parent, const core::Plan& other,
                            Rng& rng, const char** op_name) const {
  // Every mutant gets a fresh plan seed: probability triggers then draw a
  // new (still fully deterministic) stream, so a re-run mutant explores
  // new timings even when its trigger set is unchanged.
  switch (rng.below(4)) {
    case 0: {  // trigger splicing: parent prefix + other suffix
      *op_name = "splice";
      core::Plan child;
      child.seed = rng.next();
      size_t cut_a = parent.triggers.empty()
                         ? 0
                         : rng.below(parent.triggers.size() + 1);
      size_t cut_b = other.triggers.empty()
                         ? 0
                         : rng.below(other.triggers.size() + 1);
      child.triggers.assign(parent.triggers.begin(),
                            parent.triggers.begin() + static_cast<long>(cut_a));
      child.triggers.insert(child.triggers.end(),
                            other.triggers.begin() + static_cast<long>(cut_b),
                            other.triggers.end());
      if (child.triggers.empty()) child.triggers = parent.triggers;
      return child;
    }
    case 1: {  // error-code swap: pin one trigger to a profiled pair
      *op_name = "swap-code";
      core::Plan child = parent;
      child.seed = rng.next();
      if (!child.triggers.empty()) {
        core::FunctionTrigger& t =
            child.triggers[rng.below(child.triggers.size())];
        if (const core::FunctionProfile* fn =
                FindFunction(profiles_, t.function)) {
          auto injectables =
              fn->injectables(options_.campaign.controller.feasible_only);
          if (!injectables.empty()) {
            auto [retval, errno_value] =
                injectables[rng.below(injectables.size())];
            t.retval = retval;
            t.errno_value = errno_value
                                ? std::optional<int32_t>(
                                      static_cast<int32_t>(*errno_value))
                                : std::nullopt;
          }
        }
      }
      return child;
    }
    case 2: {  // argument fault: corrupt an argument, pass the call through
      // The paper's <modify> fault (§4). Unlike replace-the-call faults,
      // the (corrupted) call still reaches libc and the kernel, so *real*
      // error paths execute — the errno-store branches in the wrappers are
      // unreachable by any retval-injection faultload, which is where the
      // explorer finds coverage one-shot random never can.
      *op_name = "arg-fault";
      core::Plan child = parent;
      child.seed = rng.next();
      if (!child.triggers.empty()) {
        core::FunctionTrigger& t =
            child.triggers[rng.below(child.triggers.size())];
        if (t.mode != core::FunctionTrigger::Mode::CallCount) {
          t.mode = core::FunctionTrigger::Mode::CallCount;
          t.inject_call = 1 + rng.below(4);
        }
        t.max_injections = 1;
        t.call_original = true;
        t.retval = 0;  // ignored on pass-through; keeps errno writes off
        t.errno_value = std::nullopt;
        core::ArgModification m;
        m.argument = 1 + static_cast<int>(rng.below(3));
        switch (rng.below(3)) {
          case 0:  // bogus handle / pointer
            m.op = core::ArgModification::Op::Set;
            m.value = -1;
            break;
          case 1:  // zero it out
            m.op = core::ArgModification::Op::Set;
            m.value = 0;
            break;
          default:  // shrink a count (short read/write)
            m.op = core::ArgModification::Op::Sub;
            m.value = 1 + static_cast<int64_t>(rng.below(8));
            break;
        }
        t.modifications.assign(1, m);
      }
      return child;
    }
    default: {  // call-count / probability perturbation
      *op_name = "perturb";
      core::Plan child = parent;
      child.seed = rng.next();
      if (!child.triggers.empty()) {
        core::FunctionTrigger& t =
            child.triggers[rng.below(child.triggers.size())];
        switch (t.mode) {
          case core::FunctionTrigger::Mode::CallCount: {
            int64_t delta = rng.range(-3, 3);
            int64_t next = static_cast<int64_t>(t.inject_call) + delta;
            t.inject_call = next < 1 ? 1 : static_cast<uint64_t>(next);
            break;
          }
          case core::FunctionTrigger::Mode::Probability: {
            double factor = 0.5 + rng.uniform() * 1.5;  // [0.5, 2)
            t.probability = std::min(1.0, std::max(0.01, t.probability * factor));
            break;
          }
          case core::FunctionTrigger::Mode::Always:
          case core::FunctionTrigger::Mode::Rotate: {
            // Narrow a broad trigger to one precise early call — the shape
            // minimized reproducers take, and a good source of distinct
            // timings.
            t.mode = core::FunctionTrigger::Mode::CallCount;
            t.inject_call = 1 + rng.below(8);
            t.max_injections = 1;
            break;
          }
        }
      }
      return child;
    }
  }
}

std::vector<Explorer::SweepCandidate> Explorer::BuildSweep() const {
  std::vector<std::string> functions;
  for (const core::FaultProfile& profile : profiles_) {
    for (const core::FunctionProfile& fn : profile.functions) {
      if (!fn.error_codes.empty()) functions.push_back(fn.name);
    }
  }
  struct Stage {
    int argument;
    core::ArgModification::Op op;
    int64_t value;
  };
  // Stage order encodes fault likelihood: shortened I/O counts first (the
  // classic partial read/write), then poisoned handles, then zeroed
  // pointers/sizes. Within a stage, call 2 leads — protocols are usually
  // past setup by then, so mid-stream corruption bites hardest.
  static constexpr Stage kStages[] = {
      {3, core::ArgModification::Op::Sub, 9},
      {1, core::ArgModification::Op::Set, -1},
      {2, core::ArgModification::Op::Set, 0},
  };
  static constexpr uint64_t kCalls[] = {2, 3, 1, 4};
  std::vector<SweepCandidate> out;
  for (const Stage& stage : kStages) {
    for (uint64_t call : kCalls) {
      for (const std::string& fn : functions) {
        SweepCandidate c;
        c.function = fn;
        c.inject_call = call;
        c.mod.argument = stage.argument;
        c.mod.op = stage.op;
        c.mod.value = stage.value;
        out.push_back(std::move(c));
      }
    }
  }
  return out;
}

core::Plan Explorer::SweepPlan(const SweepCandidate& candidate,
                               uint64_t seed) const {
  core::Plan plan;
  plan.seed = seed;
  core::FunctionTrigger t;
  t.function = candidate.function;
  t.mode = core::FunctionTrigger::Mode::CallCount;
  t.inject_call = candidate.inject_call;
  t.max_injections = 1;
  t.call_original = true;
  t.retval = 0;  // ignored on pass-through; keeps errno writes off
  t.modifications.push_back(candidate.mod);
  plan.triggers.push_back(std::move(t));
  return plan;
}

std::vector<Scenario> Explorer::EvolvePopulation(
    const std::vector<core::Plan>& corpus,
    const std::vector<uint64_t>& windows, size_t round) const {
  const size_t budget = options_.scenarios_per_round;
  std::vector<Scenario> population;
  size_t fresh =
      static_cast<size_t>(static_cast<double>(budget) * options_.fresh_fraction);
  size_t sweep_n =
      static_cast<size_t>(static_cast<double>(budget) * options_.sweep_fraction);
  if (sweep_.empty()) sweep_n = 0;
  size_t havoc_n = budget > fresh + sweep_n ? budget - fresh - sweep_n : 0;
  if (corpus.empty()) havoc_n = 0;  // nothing to mutate; slots go fresh

  for (size_t k = 0; k < budget; ++k) {
    Rng rng = SlotRng(options_.seed, round, k);
    Scenario s;
    if (k < havoc_n) {
      // The fitness policy picks the parent; the splice partner stays a
      // uniform draw in every mode. Each policy consumes a fixed number of
      // RNG values, so the mutation stream that follows is aligned no
      // matter which policy ran.
      size_t parent_index = fitness_->SelectParent(corpus.size(), rng);
      const core::Plan& parent = corpus[parent_index];
      const core::Plan& other = corpus[rng.below(corpus.size())];
      const char* op = "mutate";
      s.plan = Mutate(parent, other, rng, &op);
      s.name = Format("r%zu-%zu-%s", round + 1, k, op);
      // Fork the child from the parent's trigger point: its fault window
      // opens where the parent's faults started mattering, so snapshot
      // trees restore the shared prefix instead of re-running it.
      if (options_.fork_windows) s.warmup_instructions = windows[parent_index];
    } else if (k < havoc_n + sweep_n) {
      // Deterministic sweep: continue the enumeration where the previous
      // round left off (rounds 1.. are the evolved ones).
      size_t index = ((round - 1) * sweep_n + (k - havoc_n)) % sweep_.size();
      s.plan = SweepPlan(sweep_[index], rng.next());
      s.name = Format("r%zu-%zu-sweep-%s-c%llu", round + 1, k,
                      sweep_[index].function.c_str(),
                      (unsigned long long)sweep_[index].inject_call);
    } else {
      s.plan = core::GenerateRandom(profiles_, options_.seed_probability,
                                    rng.next());
      s.name = Format("r%zu-%zu-fresh", round + 1, k);
    }
    population.push_back(std::move(s));
  }
  return population;
}

CampaignOptions Explorer::DispatchOptions(CampaignOptions base) {
  base.track_coverage = true;
  base.collect_scenario_coverage = true;
  base.collect_replays = true;
  return base;
}

ExplorerReport Explorer::Explore(std::vector<core::Plan> initial_corpus) {
  ExplorerReport report;

  CampaignOptions copts = DispatchOptions(options_.campaign);
  // The internal runner is built (lazily) only when no external dispatch
  // was supplied; through the fabric, every round's population goes out
  // over the wire instead.
  std::unique_ptr<CampaignRunner> runner;
  if (!options_.dispatch) {
    runner = std::make_unique<CampaignRunner>(setup_, profiles_, copts);
  }
  ScenarioDispatch& dispatch =
      options_.dispatch ? *options_.dispatch
                        : static_cast<ScenarioDispatch&>(*runner);

  std::vector<core::Plan> corpus;
  // corpus[i]'s fork window (parallel to `corpus`): the quantum-floored
  // instant of its first injection when fork_windows is on, else the
  // campaign-wide warmup.
  std::vector<uint64_t> corpus_windows;
  // corpus[i]'s own per-module coverage (parallel again), retained only
  // when the fitness policy scores members by what they cover; empty maps
  // otherwise.
  std::vector<std::map<std::string, vm::CoverageBitmap>> corpus_coverage;
  std::map<std::string, vm::CoverageBitmap>& unioned = report.coverage;
  std::map<uint64_t, size_t> buckets;  // crash_hash -> index into crashes

  for (size_t round = 0; round < options_.rounds; ++round) {
    std::vector<Scenario> population;
    if (round == 0) {
      population = SeedPopulation(initial_corpus);
    } else {
      // Let the fitness policy rescore the corpus against what is still
      // uncovered before this round's parents are chosen.
      fitness_->BeginRound(corpus_coverage, unioned);
      population = EvolvePopulation(corpus, corpus_windows, round);
    }
    CampaignReport creport = dispatch.Run(population);

    RoundStats rs;
    rs.round = round;
    rs.scenarios = population.size();
    // Results are index-ordered and jobs-invariant, so scoring them in
    // order (first-come wins ties for "who covered it first") is
    // deterministic for any worker count.
    for (const ScenarioResult& r : creport.results) {
      size_t fresh_offsets = 0;
      for (const auto& [mod, bitmap] : r.coverage) {
        fresh_offsets += bitmap.CountNotIn(unioned[mod]);
      }
      const uint64_t scenario_window =
          population[r.index].warmup_instructions.value_or(
              copts.warmup_instructions);
      if (fresh_offsets > 0) {
        for (const auto& [mod, bitmap] : r.coverage) {
          unioned[mod].Merge(bitmap);
        }
        corpus.push_back(population[r.index].plan);
        // The admitted plan's fork window: the quantum floor of its first
        // injection instant, never receding below the window it already
        // ran with. Derived from mode- and engine-invariant data, so the
        // whole exploration stays bit-identical across execution modes.
        uint64_t window = scenario_window;
        if (options_.fork_windows && r.first_injection_instructions > 0) {
          uint64_t floored = vm::Machine::kQuantum *
                             ((r.first_injection_instructions - 1) /
                              vm::Machine::kQuantum);
          window = std::max(window, floored);
        }
        corpus_windows.push_back(window);
        corpus_coverage.push_back(
            fitness_->wants_corpus_coverage()
                ? r.coverage
                : std::map<std::string, vm::CoverageBitmap>{});
        rs.new_offsets += fresh_offsets;
        ++rs.winners;
      }
      if (r.status == ScenarioStatus::Crashed) {
        ++rs.crashes;
        auto [it, inserted] =
            buckets.try_emplace(r.crash_hash, report.crashes.size());
        if (inserted) {
          CrashReport cr;
          cr.hash = r.crash_hash;
          cr.site_hash = r.crash_site_hash;
          cr.signature = CrashSignature(r.signal, r.fault_frames);
          cr.scenario_name = r.name;
          cr.first_round = round;
          cr.count = 1;
          cr.replay = r.replay;
          cr.minimized = r.replay;
          cr.window = scenario_window;
          report.crashes.push_back(std::move(cr));
          ++rs.new_crash_buckets;
        } else {
          ++report.crashes[it->second].count;
        }
      }
    }
    rs.union_offsets = report.union_offsets();
    rs.corpus_size = corpus.size();
    report.rounds.push_back(rs);
    if (options_.on_round) options_.on_round(rs);
  }
  report.corpus = std::move(corpus);

  // Shrink each unique crash to a 1-minimal reproducer. Crashes are
  // independent, so they minimize in parallel on one warm PlanRunner per
  // worker slot, built on first use and dropped when Explore returns. A
  // slot's oracle serves its crashes in order; every run resets (or
  // exactly restores) machine and controller first, the contract campaign
  // workers rely on, so a warm oracle minimizes like a fresh one.
  if (options_.minimize_crashes && !report.crashes.empty()) {
    auto shared_profiles =
        std::make_shared<const std::vector<core::FaultProfile>>(profiles_);
    CampaignOptions oracle_opts = options_.campaign;
    oracle_opts.track_coverage = false;
    oracle_opts.collect_scenario_coverage = false;
    oracle_opts.collect_replays = false;
    std::vector<std::unique_ptr<PlanRunner>> oracles(report.crashes.size());
    ParallelFor(report.crashes.size(), options_.campaign.jobs,
                [&](size_t slot, size_t i) {
      CrashReport& cr = report.crashes[i];
      if (!oracles[slot]) {
        oracles[slot] =
            std::make_unique<PlanRunner>(setup_, shared_profiles, oracle_opts);
      }
      PlanRunner& oracle = *oracles[slot];
      core::MinimizeStats stats;
      cr.minimized = core::MinimizePlan(
          cr.replay,
          [&](const core::Plan& candidate) {
            ScenarioResult r = oracle.Run(candidate, "plan", cr.window);
            return r.status == ScenarioStatus::Crashed &&
                   r.crash_site_hash == cr.site_hash;
          },
          &stats);
      cr.minimize_runs = stats.oracle_runs;
      // Re-verify: the shipped reproducer must stand alone (at the
      // witness's fault window — replay call counts are relative to the
      // install point).
      ScenarioResult check = oracle.Run(cr.minimized, "plan", cr.window);
      cr.reproduces = check.status == ScenarioStatus::Crashed &&
                      check.crash_site_hash == cr.site_hash;
    });
  }
  return report;
}

}  // namespace lfi::campaign
