#include "campaign/campaign.hpp"

#include <algorithm>
#include <thread>

#include "util/strings.hpp"

namespace lfi::campaign {

const char* ScenarioStatusName(ScenarioStatus status) {
  switch (status) {
    case ScenarioStatus::Exited: return "exited";
    case ScenarioStatus::Crashed: return "CRASHED";
    case ScenarioStatus::Deadlocked: return "deadlocked";
    case ScenarioStatus::BudgetSpent: return "budget-spent";
    case ScenarioStatus::SetupError: return "setup-error";
  }
  return "?";
}

void CampaignReport::Aggregate() {
  scenarios = results.size();
  crashes = deadlocks = budget_spent = setup_errors = 0;
  snapshot_fallbacks = 0;
  total_injections = 0;
  total_instructions = 0;
  cpu_seconds = 0;
  for (const ScenarioResult& r : results) {
    switch (r.status) {
      case ScenarioStatus::Crashed: ++crashes; break;
      case ScenarioStatus::Deadlocked: ++deadlocks; break;
      case ScenarioStatus::BudgetSpent: ++budget_spent; break;
      case ScenarioStatus::SetupError: ++setup_errors; break;
      case ScenarioStatus::Exited: break;
    }
    if (r.snapshot_fallback) ++snapshot_fallbacks;
    total_injections += r.injections;
    total_instructions += r.instructions;
    cpu_seconds += r.seconds;
  }
}

std::string CampaignReport::ToText() const {
  std::string out;
  out += Format(
      "campaign: %zu scenarios | %zu crashed, %zu deadlocked, %zu "
      "budget-spent, %zu setup errors\n",
      scenarios, crashes, deadlocks, budget_spent, setup_errors);
  out += Format(
      "          %llu injections, %llu instructions, %.2fs wall "
      "(%.2fs cpu, %.1fx parallelism)\n",
      (unsigned long long)total_injections,
      (unsigned long long)total_instructions, wall_seconds, cpu_seconds,
      wall_seconds > 0 ? cpu_seconds / wall_seconds : 0.0);
  if (!coverage.empty()) {
    size_t offsets = 0;
    for (const auto& [mod, bitmap] : coverage) offsets += bitmap.Count();
    out += Format("          union coverage: %zu offsets across %zu modules\n",
                  offsets, coverage.size());
  }
  if (snapshot_requested) {
    // A fallback-heavy "fast path" run is really a cold run; surface it.
    out += Format("          snapshot fallbacks (ran cold): %zu of %zu\n",
                  snapshot_fallbacks, scenarios);
  }
  for (const ScenarioResult& r : results) {
    if (r.status == ScenarioStatus::Exited) continue;
    out += Format("  [%zu] %s: %s", r.index, r.name.c_str(),
                  ScenarioStatusName(r.status));
    if (r.status == ScenarioStatus::Crashed) {
      out += Format(" (%s, %zu injections)", r.fault_message.c_str(),
                    r.injections);
    }
    out += "\n";
  }
  return out;
}

uint64_t DeriveSeed(uint64_t base, uint64_t index) {
  uint64_t z = base + 0x9E3779B97F4A7C15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void ParallelFor(size_t count, int jobs,
                 const std::function<void(size_t slot, size_t i)>& fn) {
  size_t workers = jobs > 0 ? static_cast<size_t>(jobs)
                            : std::max(1u, std::thread::hardware_concurrency());
  workers = std::min(workers, count);
  if (workers <= 1) {
    for (size_t i = 0; i < count; ++i) fn(0, i);
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      for (size_t i = w; i < count; i += workers) fn(w, i);
    });
  }
  for (std::thread& t : pool) t.join();
}

}  // namespace lfi::campaign
