// Shared test utilities: tiny program/library builders, run harnesses, the
// reader fixture, and the one report comparator per report type.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "apps/workloads.hpp"
#include "campaign/explorer.hpp"
#include "campaign/runner.hpp"
#include "campaign/seu.hpp"
#include "core/scenario_gen.hpp"
#include "isa/codebuilder.hpp"
#include "isa/harden.hpp"
#include "libc/libc_builder.hpp"
#include "serve/wire.hpp"
#include "sso/sso.hpp"
#include "vm/machine.hpp"

namespace lfi::test {

struct RunResult {
  vm::ProcState state = vm::ProcState::Exited;
  int64_t exit_code = 0;
  vm::Signal signal = vm::Signal::None;
  std::string fault;
};

/// Run `entry` of an already-configured machine to completion.
inline RunResult RunEntry(vm::Machine& machine, const std::string& entry) {
  auto pid = machine.CreateProcess(entry);
  RunResult r;
  if (!pid.ok()) {
    r.state = vm::ProcState::Faulted;
    r.fault = pid.error();
    return r;
  }
  auto info = machine.RunToCompletion(pid.value());
  r.state = info.state;
  r.exit_code = info.exit_code;
  r.signal = info.signal;
  r.fault = info.fault_message;
  return r;
}

/// Run `entry` of `app` on a fresh machine with libc loaded.
inline RunResult RunProgram(sso::SharedObject app, const std::string& entry) {
  vm::Machine machine;
  machine.Load(libc::BuildLibc()).value();
  machine.Load(std::move(app)).value();
  return RunEntry(machine, entry);
}

// ---- the reader fixture ----------------------------------------------------

/// A demo target with an unchecked read(): open /cfg, read 64 bytes,
/// abort on a negative count (the classic LFI victim).
inline sso::SharedObject BuildReaderApp() {
  using isa::Reg;
  isa::CodeBuilder b;
  uint32_t path = b.emit_data({'/', 'c', 'f', 'g', 0});
  uint32_t buf = b.reserve_data(128);
  b.begin_function("main");
  b.sub_ri(Reg::SP, 16);
  b.mov_ri(Reg::R2, libc::O_RDONLY);
  b.lea_data(Reg::R1, static_cast<int32_t>(path));
  b.push(Reg::R2);
  b.push(Reg::R1);
  b.call_sym("open");
  b.add_ri(Reg::SP, 16);
  b.store(Reg::BP, -8, Reg::R0);
  b.load(Reg::R1, Reg::BP, -8);
  b.lea_data(Reg::R2, static_cast<int32_t>(buf));
  b.mov_ri(Reg::R3, 64);
  b.push(Reg::R3);
  b.push(Reg::R2);
  b.push(Reg::R1);
  b.call_sym("read");
  b.add_ri(Reg::SP, 24);
  auto ok = b.new_label();
  b.cmp_ri(Reg::R0, 0);
  b.jge(ok);
  b.call_sym("abort");
  b.bind(ok);
  b.load(Reg::R1, Reg::BP, -8);
  b.push(Reg::R1);
  b.call_sym("close");
  b.add_ri(Reg::SP, 8);
  b.mov_ri(Reg::R0, 0);
  b.leave_ret();
  b.end_function();
  return sso::FromCodeUnit("readerapp.so", b.Finish(), {libc::kLibcName});
}

/// The reader target as a fabric spec: libc, the reader, a 64-byte /cfg.
inline serve::TargetSpec ReaderSpec() {
  serve::TargetSpec spec;
  spec.modules.push_back(libc::BuildLibc().Serialize());
  spec.modules.push_back(BuildReaderApp().Serialize());
  spec.files.emplace_back("/cfg", std::vector<uint8_t>(64, 'x'));
  return spec;
}

/// The machine setup of `spec`, built the way fabric workers build it.
inline campaign::MachineSetup SetupOf(const serve::TargetSpec& spec) {
  auto setup = serve::MakeSetup(spec);
  EXPECT_TRUE(setup.ok()) << setup.error();
  return setup.ok() ? std::move(setup).take() : campaign::MachineSetup();
}

inline campaign::MachineSetup ReaderSetup() { return SetupOf(ReaderSpec()); }

/// `count` independently seeded random libc faultloads named s0, s1, ...
inline std::vector<campaign::Scenario> RandomScenarios(size_t count, double p,
                                                       uint64_t base) {
  const std::vector<core::FaultProfile>& profiles = apps::LibcProfiles();
  std::vector<campaign::Scenario> scenarios;
  for (size_t i = 0; i < count; ++i) {
    campaign::Scenario s;
    s.name = "s" + std::to_string(i);
    s.plan = core::GenerateRandom(profiles, p, campaign::DeriveSeed(base, i));
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

// ---- report comparators ----------------------------------------------------
// One per report type. Each compares every field that may depend only on
// the scenarios, never on how they were executed: timing (seconds,
// wall_seconds, cpu_seconds) and restore telemetry (restore_pages,
// restore_nodes_walked) depend on scheduling and are left out. Snapshot
// fallbacks exist only under snapshot execution, so they are compared only
// when both sides ran with it.

inline void ExpectSameScenario(const campaign::ScenarioResult& a,
                               const campaign::ScenarioResult& b,
                               bool both_snapshot) {
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.exit_code, b.exit_code);
  EXPECT_EQ(a.signal, b.signal);
  EXPECT_EQ(a.fault_message, b.fault_message);
  EXPECT_EQ(a.injections, b.injections);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.covered_offsets, b.covered_offsets);
  EXPECT_EQ(a.covered_by_module, b.covered_by_module);
  EXPECT_EQ(a.coverage, b.coverage);
  EXPECT_EQ(a.fault_frames, b.fault_frames);
  EXPECT_EQ(a.crash_site_hash, b.crash_site_hash);
  EXPECT_EQ(a.crash_hash, b.crash_hash);
  EXPECT_EQ(a.replay.ToXml(), b.replay.ToXml());
  EXPECT_EQ(a.first_injection_instructions, b.first_injection_instructions);
  EXPECT_EQ(a.state_digest, b.state_digest);
  EXPECT_EQ(a.seu_landed, b.seu_landed);
  if (both_snapshot) {
    EXPECT_EQ(a.snapshot_fallback, b.snapshot_fallback);
  }
}

inline void ExpectSameCampaign(const campaign::CampaignReport& a,
                               const campaign::CampaignReport& b) {
  const bool both_snapshot = a.snapshot_requested && b.snapshot_requested;
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i) {
    SCOPED_TRACE("scenario " + std::to_string(i) + " " + a.results[i].name);
    ExpectSameScenario(a.results[i], b.results[i], both_snapshot);
  }
  EXPECT_EQ(a.scenarios, b.scenarios);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.deadlocks, b.deadlocks);
  EXPECT_EQ(a.budget_spent, b.budget_spent);
  EXPECT_EQ(a.setup_errors, b.setup_errors);
  EXPECT_EQ(a.total_injections, b.total_injections);
  EXPECT_EQ(a.total_instructions, b.total_instructions);
  EXPECT_EQ(a.coverage, b.coverage);  // union bitmaps, module by module
  if (both_snapshot) {
    EXPECT_EQ(a.snapshot_fallbacks, b.snapshot_fallbacks);
  }
}

/// An SEU campaign: the campaign fields (state digests and landed flips
/// included) plus the classified report, which is what the CLI prints.
inline void ExpectSameSeuCampaign(const campaign::CampaignReport& a,
                                  const campaign::CampaignReport& b,
                                  const campaign::GoldenRun& golden) {
  ExpectSameCampaign(a, b);
  EXPECT_EQ(
      campaign::ClassifyCampaign(a, golden, isa::kSeuDetectExitCode).ToText(),
      campaign::ClassifyCampaign(b, golden, isa::kSeuDetectExitCode).ToText());
}

/// An exploration: the printed summary (every round's stats and each
/// crash bucket's line), the union bitmaps, the corpus in admission order,
/// and each crash's identity, window and reproducers.
inline void ExpectSameExplorer(const campaign::ExplorerReport& a,
                               const campaign::ExplorerReport& b) {
  EXPECT_EQ(a.ToText(), b.ToText());
  EXPECT_EQ(a.coverage, b.coverage);
  ASSERT_EQ(a.corpus.size(), b.corpus.size());
  for (size_t i = 0; i < a.corpus.size(); ++i) {
    EXPECT_EQ(a.corpus[i].ToXml(), b.corpus[i].ToXml()) << "corpus " << i;
  }
  ASSERT_EQ(a.crashes.size(), b.crashes.size());
  for (size_t i = 0; i < a.crashes.size(); ++i) {
    SCOPED_TRACE("crash " + std::to_string(i));
    const campaign::CrashReport& ca = a.crashes[i];
    const campaign::CrashReport& cb = b.crashes[i];
    EXPECT_EQ(ca.hash, cb.hash);
    EXPECT_EQ(ca.window, cb.window);
    EXPECT_EQ(ca.replay.ToXml(), cb.replay.ToXml());
    EXPECT_EQ(ca.minimized.ToXml(), cb.minimized.ToXml());
    EXPECT_EQ(ca.minimize_runs, cb.minimize_runs);
    EXPECT_EQ(ca.reproduces, cb.reproduces);
  }
}

}  // namespace lfi::test
