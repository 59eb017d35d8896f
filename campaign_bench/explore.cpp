// pidgin-explore: coverage-guided Explorer rounds on Pidgin, dispatched
// through a serve::FabricCoordinator with two forked local workers, cold
// execution, crash minimization on. The measured unit is one whole
// Explorer::Explore call; every repetition must reproduce the first.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>

#include "apps/pidgin.hpp"
#include "apps/workloads.hpp"
#include "bench.hpp"
#include "campaign/explorer.hpp"
#include "core/scenario_gen.hpp"
#include "libc/libc_builder.hpp"
#include "serve/coordinator.hpp"
#include "serve/wire.hpp"
#include "serve/worker.hpp"

namespace lfi::bench {

namespace {

constexpr size_t kWorkers = 2;
constexpr size_t kRounds = 30;
constexpr size_t kScenariosPerRound = 128;
/// Plans run through both machine setups for the target-identity check.
constexpr size_t kSetupSample = 32;
/// Fault-free scenarios sent through the fabric at set-up, so both workers
/// build their machines before the measured phase.
constexpr size_t kWarmScenarios = 16;

/// Passes rounds to the fabric. Counts scenarios and SetupErrors always;
/// when tracing, also records a dispatch span per round and keeps each
/// round's population and report for the codec and worker-side replays.
class RoundDispatch : public campaign::ScenarioDispatch {
 public:
  RoundDispatch(campaign::ScenarioDispatch& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  campaign::CampaignReport Run(
      const std::vector<campaign::Scenario>& scenarios) override {
    campaign::CampaignReport report =
        Timed(tracer_, Span::Dispatch, [&] { return inner_.Run(scenarios); });
    scenarios_ += scenarios.size();
    setup_errors_ += report.setup_errors;
    if (tracer_ != nullptr) {
      populations_.push_back(scenarios);
      reports_.push_back(report);
    }
    return report;
  }

  size_t scenarios() const { return scenarios_; }
  size_t setup_errors() const { return setup_errors_; }
  const std::vector<std::vector<campaign::Scenario>>& populations() const {
    return populations_;
  }
  const std::vector<campaign::CampaignReport>& reports() const {
    return reports_;
  }

 private:
  campaign::ScenarioDispatch& inner_;
  Tracer* tracer_;
  size_t scenarios_ = 0;
  size_t setup_errors_ = 0;
  std::vector<std::vector<campaign::Scenario>> populations_;
  std::vector<campaign::CampaignReport> reports_;
};

/// The fabric and everything built before the first measured Explore.
/// Destruction shuts the fabric down and reaps the workers, so no exit
/// path leaves a child running.
struct ExploreSetup {
  ExploreSetup() = default;
  ExploreSetup(const ExploreSetup&) = delete;
  ExploreSetup& operator=(const ExploreSetup&) = delete;
  ~ExploreSetup() { (void)Reap(); }

  /// Shut the fabric down (the workers exit on Shutdown or EOF) and wait
  /// for every worker; returns their summed peak RSS in MiB.
  double Reap();

  std::vector<serve::LocalWorker> workers;
  size_t adopted = 0;  // workers[0, adopted) have their socket in `fabric`
  std::vector<core::FaultProfile> profiles;
  serve::TargetSpec spec;
  campaign::MachineSetup setup;
  campaign::CampaignOptions options;  // explorer campaign options (cold)
  std::unique_ptr<serve::FabricCoordinator> fabric;
};

double ExploreSetup::Reap() {
  fabric.reset();
  for (size_t i = adopted; i < workers.size(); ++i) ::close(workers[i].fd);
  double mb = 0;
  for (const serve::LocalWorker& worker : workers) {
    int status = 0;
    struct rusage usage = {};
    if (wait4(worker.pid, &status, 0, &usage) == worker.pid) {
      mb += static_cast<double>(usage.ru_maxrss) / 1024.0;
    }
  }
  workers.clear();
  adopted = 0;
  return mb;
}

campaign::CampaignOptions ExploreCampaignOptions() {
  campaign::CampaignOptions opts;
  opts.entry = apps::kPidginEntry;
  opts.jobs = 1;  // the CLI default: minimization runs on one thread
  return opts;
}

/// Forks the workers first, before this process has started any thread.
Status BuildExplore(Tracer* tracer, ExploreSetup* es) {
  for (size_t i = 0; i < kWorkers; ++i) {
    auto worker = serve::SpawnLocalWorker();
    if (!worker.ok()) return Err(worker.error());
    es->workers.push_back(worker.value());
  }
  es->profiles = Timed(tracer, Span::Profile, [] {
    return apps::ProfileStandardLibs({libc::BuildLibc()});
  });
  auto setup = Timed(tracer, Span::Target, [&] {
    es->spec.modules.push_back(libc::BuildLibc().Serialize());
    es->spec.modules.push_back(apps::BuildPidgin().Serialize());
    return serve::MakeSetup(es->spec);
  });
  if (!setup.ok()) return Err(setup.error());
  es->setup = std::move(setup).take();
  es->options = ExploreCampaignOptions();
  es->fabric = std::make_unique<serve::FabricCoordinator>(
      es->spec, es->profiles,
      campaign::Explorer::DispatchOptions(es->options));
  for (const serve::LocalWorker& worker : es->workers) {
    ++es->adopted;  // AddWorkerFd owns the socket even when it fails
    Status st = Timed(tracer, Span::Handshake, [&] {
      return es->fabric->AddWorkerFd(worker.fd, "bench");
    });
    if (!st.ok()) return st;
  }
  std::vector<campaign::Scenario> warm(kWarmScenarios);
  for (campaign::Scenario& s : warm) s.name = "warm";
  (void)es->fabric->Run(warm);
  return Status::Ok();
}

campaign::ExplorerOptions MakeExplorerOptions(const ExploreSetup& es,
                                              uint64_t seed,
                                              campaign::ScenarioDispatch* dispatch) {
  campaign::ExplorerOptions eo;
  eo.rounds = kRounds;
  eo.scenarios_per_round = kScenariosPerRound;
  eo.seed = seed;
  eo.fitness = campaign::FitnessKind::Coverage;
  eo.minimize_crashes = true;
  eo.campaign = es.options;
  eo.dispatch = dispatch;
  return eo;
}

size_t MinimizeRuns(const campaign::ExplorerReport& report) {
  size_t runs = 0;
  for (const campaign::CrashReport& cr : report.crashes) {
    runs += cr.minimize_runs;
  }
  return runs;
}

/// The checks every run makes, outside the timed phase.
void CheckExplore(const ExploreSetup& es, const campaign::ExplorerReport& report,
                  uint64_t seed, Outcome* out) {
  size_t unreproduced = 0;
  for (const campaign::CrashReport& cr : report.crashes) {
    unreproduced += cr.reproduces ? 0 : 1;
  }
  if (unreproduced > 0) {
    out->Fail(unreproduced, "minimized crash plans do not reproduce");
  }

  // Re-running the corpus in-process must give the reported union.
  campaign::CampaignOptions copts =
      campaign::Explorer::DispatchOptions(es.options);
  std::vector<campaign::Scenario> corpus(report.corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    corpus[i].name = "corpus-" + std::to_string(i);
    corpus[i].plan = report.corpus[i];
  }
  campaign::CampaignRunner runner(es.setup, es.profiles, copts);
  campaign::CampaignReport rerun = runner.Run(corpus);
  for (const auto& [mod, bitmap] : rerun.coverage) {
    auto it = report.coverage.find(mod);
    const size_t reported = it == report.coverage.end() ? 0 : it->second.Count();
    if (bitmap.Count() != reported ||
        (reported > 0 && bitmap != it->second)) {
      out->Fail(corpus.size(), "corpus rerun union differs in " + mod);
    }
  }

  // The wire-built target must behave exactly like the in-process one.
  auto shared =
      std::make_shared<const std::vector<core::FaultProfile>>(es.profiles);
  campaign::PlanRunner wire_built(es.setup, shared, copts);
  campaign::PlanRunner in_process(apps::PidginMachineSetup(), shared, copts);
  size_t mismatches = 0;
  for (size_t i = 0; i < kSetupSample; ++i) {
    core::Plan plan = core::GenerateRandom(
        es.profiles, 0.1, campaign::DeriveSeed(~seed, i));
    campaign::ScenarioResult a = wire_built.Run(plan);
    campaign::ScenarioResult b = in_process.Run(plan);
    if (!SameOutcome(a, b) || a.coverage != b.coverage) ++mismatches;
  }
  if (mismatches > 0) {
    out->Fail(mismatches, "MakeSetup(spec) differs from PidginMachineSetup()");
  }
}

void CheckFabricHealthy(const ExploreSetup& es, Outcome* out) {
  if (es.fabric->live_workers() != kWorkers) {
    out->Fail(0, "a fabric worker was lost (rounds fell back in-process)");
  }
}

Outcome Measure(const Options& options) {
  Outcome out;
  const Clock::time_point setup_begin = Clock::now();
  ExploreSetup es;
  if (Status st = BuildExplore(nullptr, &es); !st.ok()) {
    out.Fail(0, "fabric set-up failed: " + st.error());
    return out;
  }
  const double setup_s = SecondsSince(setup_begin);
  if (options.mode == Mode::Setup) {
    out.Add("setup_s", setup_s, "s");
    return out;
  }

  RoundDispatch dispatch(*es.fabric, nullptr);
  campaign::Explorer explorer(es.setup, es.profiles,
                              MakeExplorerOptions(es, options.seed, &dispatch));
  campaign::ExplorerReport first;
  std::string first_text;
  std::vector<double> rates;
  const Clock::time_point begin = Clock::now();
  do {
    const size_t before = dispatch.scenarios();
    const Clock::time_point t = Clock::now();
    campaign::ExplorerReport report = explorer.Explore();
    const double wall = SecondsSince(t);
    const size_t ran = dispatch.scenarios() - before;
    rates.push_back(static_cast<double>(ran) / wall);
    std::fprintf(stderr, "pidgin-explore repetition %zu: %.0f scenarios/s\n",
                 rates.size(), rates.back());
    out.attempted += ran;
    std::string text = report.ToText();
    if (rates.size() == 1) {
      first = std::move(report);
      first_text = std::move(text);
    } else if (text != first_text) {
      out.Fail(ran, "an Explore repetition diverged from the first");
    }
  } while (rates.size() < 3 || SecondsSince(begin) < options.seconds);
  if (dispatch.setup_errors() > 0) {
    out.Fail(dispatch.setup_errors(), "scenarios ended SetupError");
  }
  CheckFabricHealthy(es, &out);
  CheckExplore(es, first, options.seed, &out);

  const double worker_rss = es.Reap();
  out.Add("scenarios_per_s", Median(rates), "1/s");
  out.Add("setup_s", setup_s, "s");
  out.Add("peak_rss_mb", SelfPeakRssMb() + worker_rss, "MB");
  out.Add("union_offsets", static_cast<double>(first.union_offsets()), "count");
  out.Add("crash_buckets", static_cast<double>(first.crashes.size()), "count");
  return out;
}

/// Encode and decode each round's traffic the way the coordinator cuts it
/// into batches; returns total frame bytes (payload + 9-byte header).
uint64_t TimeCodec(const RoundDispatch& dispatch, Tracer* tracer, Outcome* out) {
  constexpr uint64_t kHeader = 9;
  uint64_t bytes = 0;
  for (size_t round = 0; round < dispatch.populations().size(); ++round) {
    const auto& population = dispatch.populations()[round];
    const auto& results = dispatch.reports()[round].results;
    const size_t n = population.size();
    const size_t batch = std::clamp<size_t>(
        (n + kWorkers * 4 - 1) / (kWorkers * 4), 1, 64);
    for (size_t start = 0; start < n; start += batch) {
      const size_t end = std::min(n, start + batch);
      serve::BatchMsg msg;
      serve::BatchResultMsg reply;
      std::map<std::string, vm::CoverageBitmap> unioned;
      for (size_t i = start; i < end; ++i) {
        msg.indices.push_back(i);
        msg.scenarios.push_back(population[i]);
        reply.results.push_back(results[i]);
        for (const auto& [mod, bitmap] : results[i].coverage) {
          unioned[mod].Merge(bitmap);
        }
      }
      for (auto& [mod, bitmap] : unioned) {
        reply.coverage.emplace_back(mod, std::move(bitmap));
      }
      Tracer::Scope span(*tracer, Span::Codec);
      std::vector<uint8_t> request = serve::EncodeBatch(msg);
      std::vector<uint8_t> response = serve::EncodeBatchResult(reply);
      bool ok = serve::DecodeBatch(request).ok() &&
                serve::DecodeBatchResult(response).ok();
      bytes += request.size() + response.size() + 2 * kHeader;
      if (!ok) out->Fail(end - start, "wire round trip failed");
    }
  }
  return bytes;
}

Outcome Trace(const Options& options) {
  Outcome out;
  Tracer tracer;
  ExploreSetup es;
  if (Status st = BuildExplore(&tracer, &es); !st.ok()) {
    out.Fail(0, "fabric set-up failed: " + st.error());
    return out;
  }
  Timed(&tracer, Span::Generate, [&] {
    for (size_t i = 0; i < kScenariosPerRound; ++i) {
      (void)core::GenerateRandom(es.profiles, 0.1,
                                 campaign::DeriveSeed(options.seed, i));
    }
  });

  // Untraced Explore before and after the traced one: their mean is the
  // baseline for the tracing overhead.
  RoundDispatch plain(*es.fabric, nullptr);
  campaign::Explorer untraced(es.setup, es.profiles,
                              MakeExplorerOptions(es, options.seed, &plain));
  Clock::time_point t = Clock::now();
  const std::string untraced_text = untraced.Explore().ToText();
  double untraced_s = SecondsSince(t);

  RoundDispatch dispatch(*es.fabric, &tracer);
  std::vector<Clock::time_point> round_ends;
  campaign::ExplorerOptions eo = MakeExplorerOptions(es, options.seed, &dispatch);
  eo.on_round = [&](const campaign::RoundStats&) {
    round_ends.push_back(Clock::now());
  };
  campaign::Explorer explorer(es.setup, es.profiles, eo);
  const Clock::time_point explore_begin = Clock::now();
  campaign::ExplorerReport report;
  {
    Tracer::Scope span(tracer, Span::Explore);
    report = explorer.Explore();
  }
  const Clock::time_point explore_end = Clock::now();
  tracer.Record(Span::Minimize, round_ends.back(), explore_end);
  const double explore_s =
      std::chrono::duration<double>(explore_end - explore_begin).count();
  t = Clock::now();
  if (untraced.Explore().ToText() != untraced_text) {
    out.Fail(plain.scenarios() / 2, "an untraced Explore repetition diverged");
  }
  untraced_s = (untraced_s + SecondsSince(t)) / 2;
  out.attempted += dispatch.scenarios();
  if (report.ToText() != untraced_text) {
    out.Fail(dispatch.scenarios(), "traced Explore diverged from untraced");
  }
  if (dispatch.setup_errors() > 0) {
    out.Fail(dispatch.setup_errors(), "scenarios ended SetupError");
  }
  CheckFabricHealthy(es, &out);

  const double dispatch_s = tracer.Total(Span::Dispatch);
  const double minimize_s = tracer.Total(Span::Minimize);
  const double rounds_s =
      std::chrono::duration<double>(round_ends.back() - explore_begin).count();
  const double self_s = rounds_s - dispatch_s;
  const size_t rounds = round_ends.size();

  const uint64_t bytes = TimeCodec(dispatch, &tracer, &out);
  const double scenarios = static_cast<double>(dispatch.scenarios());

  // Worker side: replay every captured round cold on one traced machine;
  // it must reproduce the fabric's results scenario for scenario.
  auto profiles =
      std::make_shared<const std::vector<core::FaultProfile>>(es.profiles);
  StepwiseRunner stepwise(es.setup, profiles,
                      campaign::Explorer::DispatchOptions(es.options), &tracer);
  size_t mismatches = 0;
  t = Clock::now();
  for (size_t round = 0; round < dispatch.populations().size(); ++round) {
    const auto& population = dispatch.populations()[round];
    const auto& results = dispatch.reports()[round].results;
    for (size_t i = 0; i < population.size(); ++i) {
      campaign::ScenarioResult r = stepwise.Run(population[i]);
      if (!SameOutcome(r, results[i]) || r.coverage != results[i].coverage) {
        ++mismatches;
      }
    }
  }
  const double replay_s = SecondsSince(t);
  out.attempted += stepwise.counts().scenarios;
  if (mismatches > 0) {
    out.Fail(mismatches, "worker-side replay diverged from the fabric");
  }
  CheckExplore(es, report, options.seed, &out);
  es.Reap();
  if (!options.trace_out.empty() && !tracer.Write(options.trace_out)) {
    out.Fail(0, "cannot write " + options.trace_out);
  }

  const StepCounts& c = stepwise.counts();
  const double per = 1e6 / static_cast<double>(c.scenarios);
  out.Add("core.profile_ms", tracer.Total(Span::Profile) * 1e3, "ms");
  out.Add("core.generate_us",
          tracer.Total(Span::Generate) * 1e6 / kScenariosPerRound, "us");
  out.Add("campaign.warm_ms", tracer.Total(Span::Warm) * 1e3, "ms");
  out.Add("serve.handshake_ms",
          tracer.Total(Span::Handshake) * 1e3 /
              static_cast<double>(tracer.Count(Span::Handshake)),
          "ms");
  out.Add("vm.run_us", tracer.Total(Span::Run) * per, "us");
  out.Add("vm.instr_per_s",
          static_cast<double>(c.run_instructions) / tracer.Total(Span::Run),
          "1/s");
  out.Add("core.install_us", tracer.Total(Span::Install) * per, "us");
  out.Add("vm.restore_us", tracer.Total(Span::Restore) * per, "us");
  out.Add("vm.reset_us", tracer.Total(Span::Reset) * per, "us");
  out.Add("campaign.collect_us", tracer.Total(Span::Collect) * per, "us");
  out.Add("campaign.fallback_rate", 0, "frac");
  out.Add("serve.dispatch_ms", dispatch_s * 1e3 / static_cast<double>(rounds),
          "ms");
  out.Add("serve.codec_us", tracer.Total(Span::Codec) * 1e6 / scenarios, "us");
  out.Add("campaign.explorer_self_ms",
          self_s * 1e3 / static_cast<double>(rounds), "ms");
  out.Add("campaign.minimize_ms", minimize_s * 1e3, "ms");
  out.Add("vm.instructions", static_cast<double>(c.instructions), "count");
  out.Add("kernel.calls", static_cast<double>(c.kernel_calls), "count");
  out.Add("core.intercepted_calls", static_cast<double>(c.intercepted_calls),
          "count");
  out.Add("core.injections", static_cast<double>(c.injections), "count");
  out.Add("campaign.minimize_runs", static_cast<double>(MinimizeRuns(report)),
          "count");
  out.Add("serve.bytes_per_scenario", static_cast<double>(bytes) / scenarios,
          "B");
  out.Add("share.vm.restore", tracer.Total(Span::Restore) / replay_s, "frac");
  out.Add("share.vm.reset", tracer.Total(Span::Reset) / replay_s, "frac");
  out.Add("share.core.install", tracer.Total(Span::Install) / replay_s, "frac");
  out.Add("share.vm.run", tracer.Total(Span::Run) / replay_s, "frac");
  out.Add("share.campaign.collect", tracer.Total(Span::Collect) / replay_s,
          "frac");
  out.Add("share.serve.dispatch", dispatch_s / explore_s, "frac");
  out.Add("share.campaign.minimize", minimize_s / explore_s, "frac");
  out.Add("share.campaign.explorer_self", self_s / explore_s, "frac");
  out.Add("trace.overhead_frac", explore_s / untraced_s - 1, "frac");
  // Inside Explore, only dispatch and the minimization tail are timed calls.
  out.Add("trace.unattributed_frac", self_s / explore_s, "frac");
  return out;
}

}  // namespace

Outcome RunExploreWorkload(const Options& options) {
  return options.mode == Mode::Trace ? Trace(options) : Measure(options);
}

}  // namespace lfi::bench
