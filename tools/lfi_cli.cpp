// The `lfi` command-line tool — the paper's two-command workflow (§6.1:
// "it requires issuing two commands, one for profiling and one for running
// the tests"), plus utilities for working with synthetic binaries:
//
//   lfi demo-assets <dir>
//   lfi profile <target.sso> [deps...] -o profile.xml
//   lfi generate --random 0.3 --seed 9 profile.xml -o plan.xml
//   lfi test --app <app.sso> --plan plan.xml --profile profile.xml
//
// `lfi` with no arguments prints every subcommand's flags. Exit codes from
// `lfi test`: 0 = target exited cleanly, 3 = target crashed under
// injection (a finding!) or otherwise failed to exit, 1 = usage/setup
// error.
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "apps/seu_guest.hpp"
#include "apps/workloads.hpp"
#include "campaign/explorer.hpp"
#include "campaign/runner.hpp"
#include "campaign/seu.hpp"
#include "core/profiler.hpp"
#include "core/scenario_gen.hpp"
#include "isa/codebuilder.hpp"
#include "isa/harden.hpp"
#include "kernel/kernel_image.hpp"
#include "libc/libc_builder.hpp"
#include "serve/coordinator.hpp"
#include "serve/worker.hpp"
#include "util/strings.hpp"
#include "vm/machine.hpp"

using namespace lfi;

namespace {

/// Read a whole file into `out`: bytes (std::vector<uint8_t>) or text.
template <typename Container>
bool ReadFile(const std::string& path, Container* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out->assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  return true;
}

bool WriteFile(const std::string& path, const void* data, size_t size) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
  return out.good();
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "lfi: %s\n", message.c_str());
  return 1;
}

Result<sso::SharedObject> LoadSso(const std::string& path) {
  std::vector<uint8_t> bytes;
  if (!ReadFile(path, &bytes)) return Err("cannot read " + path);
  return sso::SharedObject::Parse(bytes);
}

/// Load fault-profile XML files into `out`.
Status LoadProfiles(const std::vector<std::string>& paths,
                    std::vector<core::FaultProfile>* out) {
  for (const std::string& path : paths) {
    std::string text;
    if (!ReadFile(path, &text)) return Err("cannot read " + path);
    auto profile = core::FaultProfile::FromXml(text);
    if (!profile.ok()) return Err(path + ": " + profile.error());
    out->push_back(std::move(profile).take());
  }
  return Status::Ok();
}

/// Load and validate one plan XML file.
Result<core::Plan> LoadPlan(const std::string& path) {
  std::string text;
  if (!ReadFile(path, &text)) return Err("cannot read " + path);
  auto plan = core::Plan::FromXml(text);
  if (!plan.ok()) return Err(path + ": " + plan.error());
  return plan;
}

// Every numeric flag parses through the strict util::Parse{Uint,Double}-
// backed helpers (util/strings.hpp). The old strtoull/strtod paths
// accepted signed wraps ("--jobs -5" became 18446744073709551611), leading
// whitespace, partial parses ("--seed 12x" became 12), and — for strtod —
// were locale-dependent (a comma-decimal locale rejected "--random 0.5").
using lfi::ParseCountFlag;
using lfi::ParseProbabilityFlag;

/// A demo application with an unchecked read() for `lfi test` to break.
sso::SharedObject BuildDemoApp() {
  isa::CodeBuilder b;
  uint32_t path = b.emit_data({'/', 'e', 't', 'c', '/', 'c', 'f', 'g', 0});
  uint32_t buf = b.reserve_data(128);
  b.begin_function("main");
  b.sub_ri(isa::Reg::SP, 16);
  b.mov_ri(isa::Reg::R2, libc::O_RDONLY);
  b.lea_data(isa::Reg::R1, static_cast<int32_t>(path));
  b.push(isa::Reg::R2);
  b.push(isa::Reg::R1);
  b.call_sym("open");
  b.add_ri(isa::Reg::SP, 16);
  b.store(isa::Reg::BP, -8, isa::Reg::R0);
  b.load(isa::Reg::R1, isa::Reg::BP, -8);
  b.lea_data(isa::Reg::R2, static_cast<int32_t>(buf));
  b.mov_ri(isa::Reg::R3, 64);
  b.push(isa::Reg::R3);
  b.push(isa::Reg::R2);
  b.push(isa::Reg::R1);
  b.call_sym("read");
  b.add_ri(isa::Reg::SP, 24);
  // BUG: result not checked; negative counts abort (models a memcpy).
  auto ok = b.new_label();
  b.cmp_ri(isa::Reg::R0, 0);
  b.jge(ok);
  b.call_sym("abort");
  b.bind(ok);
  b.load(isa::Reg::R1, isa::Reg::BP, -8);
  b.push(isa::Reg::R1);
  b.call_sym("close");
  b.add_ri(isa::Reg::SP, 8);
  b.mov_ri(isa::Reg::R0, 0);
  b.leave_ret();
  b.end_function();
  return sso::FromCodeUnit("demoapp.so", b.Finish(), {libc::kLibcName});
}

int CmdDemoAssets(const std::vector<std::string>& args) {
  if (args.empty()) return Fail("demo-assets: missing output directory");
  const std::string dir = args[0];
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Fail("cannot create " + dir + ": " + ec.message());
  struct Asset {
    std::string file;
    sso::SharedObject object;
  };
  std::vector<Asset> assets;
  assets.push_back({dir + "/libc.sso", libc::BuildLibc()});
  assets.push_back({dir + "/kernel.sso", kernel::BuildKernelImage()});
  assets.push_back({dir + "/demoapp.sso", BuildDemoApp()});
  for (const Asset& a : assets) {
    std::vector<uint8_t> bytes = a.object.Serialize();
    if (!WriteFile(a.file, bytes.data(), bytes.size())) {
      return Fail("cannot write " + a.file);
    }
    std::printf("wrote %s (%zu bytes, %zu exports)\n", a.file.c_str(),
                bytes.size(), a.object.exports.size());
  }
  return 0;
}

int CmdDisasm(const std::vector<std::string>& args) {
  if (args.empty()) return Fail("disasm: missing .sso file");
  auto so = LoadSso(args[0]);
  if (!so.ok()) return Fail(so.error());
  std::printf("%s", so.value().Disassembly().c_str());
  return 0;
}

/// Target image shared by the test/campaign/seu/explore subcommands: libc,
/// the user libs and the app (load order, app last) plus the VFS files to
/// seed, built once; workers load copies via setup().
struct TargetImage {
  std::shared_ptr<const std::vector<sso::SharedObject>> modules;
  std::shared_ptr<const std::vector<std::string>> files;

  campaign::MachineSetup setup() const {
    return [modules = modules, files = files](vm::Machine& machine) {
      for (const sso::SharedObject& so : *modules) machine.Load(so).value();
      for (const std::string& path : *files) {
        machine.kernel().add_file(path, std::vector<uint8_t>(256, 'x'));
      }
    };
  }

  /// Serializable form of the target for the campaign fabric: the exact
  /// module images and VFS files setup() loads, as wire bytes, so worker
  /// machines and local machines are built from one source.
  serve::TargetSpec spec() const {
    serve::TargetSpec spec;
    for (const sso::SharedObject& so : *modules) {
      spec.modules.push_back(so.Serialize());
    }
    for (const std::string& path : *files) {
      spec.files.emplace_back(path, std::vector<uint8_t>(256, 'x'));
    }
    return spec;
  }
};

TargetImage MakeTarget(std::vector<sso::SharedObject> libs,
                       std::vector<std::string> files) {
  libs.insert(libs.begin(), libc::BuildLibc());
  return {std::make_shared<const std::vector<sso::SharedObject>>(
              std::move(libs)),
          std::make_shared<const std::vector<std::string>>(std::move(files))};
}

/// Parsed --workers/--connect state.
struct FabricSpec {
  uint64_t workers = 0;  // local worker processes to fork
  std::vector<std::pair<std::string, uint16_t>> connect;  // lfi serve daemons
};

/// --connect host:port[,host:port...]
Status ParseConnectList(const std::string& value, FabricSpec* spec) {
  size_t begin = 0;
  while (begin <= value.size()) {
    size_t end = value.find(',', begin);
    if (end == std::string::npos) end = value.size();
    std::string item = value.substr(begin, end - begin);
    size_t colon = item.rfind(':');
    if (colon == std::string::npos || colon == 0) {
      return Err("--connect needs host:port entries, got \"" + item + "\"");
    }
    auto port = ParseCountFlag("--connect", item.substr(colon + 1), 65535);
    if (!port.ok() || port.value() == 0) {
      return Err("--connect needs host:port entries, got \"" + item + "\"");
    }
    spec->connect.emplace_back(item.substr(0, colon),
                               static_cast<uint16_t>(port.value()));
    begin = end + 1;
    if (end == value.size()) break;
  }
  if (spec->connect.empty()) return Err("--connect needs host:port entries");
  return Status::Ok();
}

// ---- flag tables ---------------------------------------------------------
// Every subcommand but demo-assets and disasm parses through one table:
// test, campaign, seu and explore start from the shared execution flags
// (ExecFlags) and add their own. The same tables generate the usage text,
// so a flag cannot be parsed and undocumented.

/// How a flag applies its value (empty for a switch).
using Apply = std::function<Status(const std::string&)>;

/// One command-line flag: its spelling, the placeholder the usage text
/// shows for its value (nullptr for a switch), and how it applies.
struct Flag {
  const char* name;
  const char* value;
  Apply apply;
};

/// Walk `args` against `flags`: a valued flag takes the next argument as
/// its value, and every other argument must name a flag — except, when
/// `positional` is given, one that does not start with '-', which is
/// collected there.
Status ParseFlags(const std::vector<std::string>& args,
                  const std::vector<Flag>& flags,
                  std::vector<std::string>* positional = nullptr) {
  for (size_t i = 0; i < args.size(); ++i) {
    auto flag = std::find_if(flags.begin(), flags.end(), [&](const Flag& f) {
      return args[i] == f.name;
    });
    if (flag == flags.end()) {
      if (positional == nullptr || args[i].rfind('-', 0) == 0) {
        return Err("unknown argument " + args[i]);
      }
      positional->push_back(args[i]);
      continue;
    }
    std::string value;
    if (flag->value != nullptr) {
      if (i + 1 == args.size()) return Err(args[i] + " needs a value");
      value = args[++i];
    }
    if (auto st = flag->apply(value); !st.ok()) return st;
  }
  return Status::Ok();
}

/// "  <command> [--flag value] [--switch]...", wrapped under 80 columns.
std::string Usage(const char* command, const std::vector<Flag>& flags) {
  std::string out = std::string("  ") + command;
  size_t column = out.size();
  for (const Flag& f : flags) {
    std::string item = std::string(" [") + f.name;
    if (f.value != nullptr) item += std::string(" ") + f.value;
    item += "]";
    if (column + item.size() > 79) {
      out += "\n      ";
      column = 6;
    }
    out += item;
    column += item.size();
  }
  return out + "\n";
}

Apply Store(std::string* out) {
  return [out](const std::string& v) {
    *out = v;
    return Status::Ok();
  };
}

Apply Append(std::vector<std::string>* out) {
  return [out](const std::string& v) {
    out->push_back(v);
    return Status::Ok();
  };
}

Apply Set(bool* out, bool value = true) {
  return [out, value](const std::string&) {
    *out = value;
    return Status::Ok();
  };
}

/// A strict count (ParseCountFlag) in [0, max], or [1, max] when
/// `positive`.
template <typename T>
Apply Count(const char* flag, T* out, uint64_t max = UINT64_MAX,
            bool positive = false) {
  return [=](const std::string& v) -> Status {
    auto n = ParseCountFlag(flag, v, max);
    if (!n.ok()) return Err(n.error());
    if (positive && n.value() == 0) {
      return Err(std::string(flag) + " must be > 0");
    }
    *out = static_cast<T>(n.value());
    return Status::Ok();
  };
}

/// A strict probability in [0, 1] (ParseProbabilityFlag).
Apply Probability(const char* flag, double* out) {
  return [=](const std::string& v) -> Status {
    auto p = ParseProbabilityFlag(flag, v);
    if (!p.ok()) return Err(p.error());
    *out = p.value();
    return Status::Ok();
  };
}

/// An output path: a real value, not a flag or a dash-led name (a misparse
/// would create a file or directory named "--foo" or "-x").
Apply StorePath(const char* flag, const char* what, std::string* out) {
  return [=](const std::string& v) -> Status {
    if (v.empty() || v[0] == '-') {
      return Err(std::string(flag) + " needs " + what + ", got \"" + v + "\"");
    }
    *out = v;
    return Status::Ok();
  };
}

/// Which subcommands take a shared execution flag.
enum Command : unsigned {
  kCampaign = 1u << 0,
  kSeu = 1u << 1,
  kExplore = 1u << 2,
  kTest = 1u << 3,
  kScenarioSets = kCampaign | kSeu | kExplore,
  kAllCommands = kScenarioSets | kTest,
};

/// The execution knobs the running subcommands share: the target, its
/// fault profiles, the seed, the campaign options, and the fabric. test
/// takes only the target and its profiles.
struct ExecArgs {
  std::string app_path;
  std::vector<std::string> lib_paths, profile_paths, vfs_files;
  uint64_t seed = 1;
  campaign::CampaignOptions opts;
  FabricSpec fabric;
};

/// The shared execution flags `command` takes, bound to `a`.
std::vector<Flag> ExecFlags(Command command, ExecArgs& a) {
  const std::pair<unsigned, Flag> table[] = {
      {kAllCommands, {"--app", "sso", Store(&a.app_path)}},
      {kAllCommands, {"--entry", "sym", Store(&a.opts.entry)}},
      {kAllCommands, {"--lib", "sso", Append(&a.lib_paths)}},
      {kAllCommands, {"--file", "path", Append(&a.vfs_files)}},
      {kCampaign | kExplore | kTest,
       {"--profile", "xml", Append(&a.profile_paths)}},
      {kScenarioSets, {"--seed", "n", Count("--seed", &a.seed)}},
      {kScenarioSets,
       {"--jobs", "N", Count("--jobs", &a.opts.jobs, campaign::kMaxJobs)}},
      {kScenarioSets,
       {"--warmup", "instructions",
        Count("--warmup", &a.opts.warmup_instructions)}},
      {kScenarioSets, {"--snapshot", nullptr, Set(&a.opts.snapshot)}},
      {kScenarioSets,
       {"--exec", "superblock|reference",
        [&a](const std::string& v) -> Status {
          auto mode = vm::ParseExecMode(v);
          if (!mode) {
            return Err("unknown --exec engine \"" + v +
                       "\" (superblock or reference)");
          }
          a.opts.exec_mode = *mode;
          return Status::Ok();
        }}},
      {kCampaign | kExplore,
       {"--feasible-only", nullptr, Set(&a.opts.controller.feasible_only)}},
      {kScenarioSets,
       {"--workers", "N", Count("--workers", &a.fabric.workers, 64)}},
      {kScenarioSets,
       {"--connect", "host:port[,host:port...]",
        [&a](const std::string& v) { return ParseConnectList(v, &a.fabric); }}},
  };
  std::vector<Flag> flags;
  for (const auto& [commands, flag] : table) {
    if (commands & command) flags.push_back(flag);
  }
  return flags;
}

/// libc + the --lib objects + the --app object, seeded with --file paths.
Result<TargetImage> LoadTarget(const ExecArgs& a) {
  std::vector<sso::SharedObject> libs;
  for (const std::string& path : a.lib_paths) {
    auto so = LoadSso(path);
    if (!so.ok()) return Err(so.error());
    libs.push_back(std::move(so).take());
  }
  auto app = LoadSso(a.app_path);
  if (!app.ok()) return Err(app.error());
  libs.push_back(std::move(app).take());
  return MakeTarget(std::move(libs), a.vfs_files);
}

struct ProfileArgs {
  std::string out_path;
  core::ProfilerOptions popts;
};

std::vector<Flag> ProfileFlags(ProfileArgs& a) {
  return {
      {"-o", "profile.xml",
       StorePath("-o", "an output file path", &a.out_path)},
      // Per-query G' exploration budget: when a function's state walk
      // exceeds it, its returns degrade to "unknown" instead of hanging
      // the profiler on adversarial control flow.
      {"--max-states", "N",
       Count("--max-states", &a.popts.analysis.max_states, UINT64_MAX, true)},
  };
}

int CmdProfile(const std::vector<std::string>& args) {
  ProfileArgs a;
  std::vector<std::string> inputs;
  if (auto st = ParseFlags(args, ProfileFlags(a), &inputs); !st.ok()) {
    return Fail("profile: " + st.error());
  }
  if (inputs.empty()) return Fail("profile: missing target .sso");

  std::vector<sso::SharedObject> objects;
  for (const std::string& path : inputs) {
    auto so = LoadSso(path);
    if (!so.ok()) return Fail(so.error());
    objects.push_back(std::move(so).take());
  }
  sso::SharedObject kernel_img = kernel::BuildKernelImage();
  analysis::Workspace ws;
  ws.SetKernel(&kernel_img);
  for (const auto& so : objects) ws.AddModule(&so);

  core::Profiler profiler(ws, a.popts);
  auto profile = profiler.ProfileLibrary(objects[0]);
  if (!profile.ok()) return Fail(profile.error());
  std::string xml = profile.value().ToXml();
  if (a.out_path.empty()) {
    std::printf("%s", xml.c_str());
  } else if (!WriteFile(a.out_path, xml.data(), xml.size())) {
    return Fail("cannot write " + a.out_path);
  }
  std::fprintf(stderr,
               "profiled %zu functions in %.2f ms (%llu G' states)\n",
               profiler.stats().functions_profiled,
               profiler.stats().total_time.count() / 1e6,
               (unsigned long long)profiler.stats().states_explored);
  return 0;
}

struct GenerateArgs {
  double probability = -1;
  bool exhaustive = false;
  uint64_t seed = 1;
  std::string out_path;
};

std::vector<Flag> GenerateFlags(GenerateArgs& a) {
  return {
      {"--random", "p", Probability("--random", &a.probability)},
      {"--exhaustive", nullptr, Set(&a.exhaustive)},
      // The seed is the reproducibility anchor of a generated plan; a
      // silently-coerced "--seed abc" (0) or "--seed 12x" (12) would
      // produce a plan nobody can regenerate from their notes.
      {"--seed", "n", Count("--seed", &a.seed)},
      {"-o", "plan.xml", StorePath("-o", "an output file path", &a.out_path)},
  };
}

int CmdGenerate(const std::vector<std::string>& args) {
  GenerateArgs a;
  std::vector<std::string> inputs;
  if (auto st = ParseFlags(args, GenerateFlags(a), &inputs); !st.ok()) {
    return Fail("generate: " + st.error());
  }
  if (inputs.empty()) return Fail("generate: missing profile.xml");
  if (!a.exhaustive && a.probability < 0) {
    return Fail("generate: need --random <p> or --exhaustive");
  }
  std::vector<core::FaultProfile> profiles;
  if (auto st = LoadProfiles(inputs, &profiles); !st.ok()) {
    return Fail(st.error());
  }
  core::Plan plan = a.exhaustive
                        ? core::GenerateExhaustive(profiles)
                        : core::GenerateRandom(profiles, a.probability, a.seed);
  std::string xml = plan.ToXml();
  if (a.out_path.empty()) {
    std::printf("%s", xml.c_str());
  } else if (!WriteFile(a.out_path, xml.data(), xml.size())) {
    return Fail("cannot write " + a.out_path);
  }
  std::fprintf(stderr, "generated %zu triggers\n", plan.triggers.size());
  return 0;
}

struct TestArgs {
  ExecArgs exec;
  std::string plan_path, replay_out;
};

std::vector<Flag> TestFlags(TestArgs& a) {
  std::vector<Flag> flags = ExecFlags(kTest, a.exec);
  flags.insert(flags.end(), {
      {"--plan", "xml", Store(&a.plan_path)},
      {"--replay-out", "xml",
       StorePath("--replay-out", "an output file path", &a.replay_out)},
  });
  return flags;
}

// lfi test: run the target once under one plan on a campaign::PlanRunner;
// print the injection log, then the verdict (exit codes: file header).
int CmdTest(const std::vector<std::string>& args) {
  TestArgs a;
  if (auto st = ParseFlags(args, TestFlags(a)); !st.ok()) {
    return Fail("test: " + st.error());
  }
  if (a.exec.app_path.empty() || a.plan_path.empty()) {
    return Fail("test: need --app and --plan");
  }
  auto target = LoadTarget(a.exec);
  if (!target.ok()) return Fail(target.error());
  auto plan = LoadPlan(a.plan_path);
  if (!plan.ok()) return Fail(plan.error());
  std::vector<core::FaultProfile> profiles;
  if (auto st = LoadProfiles(a.exec.profile_paths, &profiles); !st.ok()) {
    return Fail(st.error());
  }

  campaign::CampaignOptions& opts = a.exec.opts;
  opts.max_instructions = 100'000'000;
  opts.collect_replays = true;
  campaign::PlanRunner runner(
      target.value().setup(),
      std::make_shared<const std::vector<core::FaultProfile>>(
          std::move(profiles)),
      opts);
  campaign::ScenarioResult result = runner.Run(plan.value());
  if (result.status == campaign::ScenarioStatus::SetupError) {
    return Fail(result.fault_message);
  }

  std::printf("-- injection log --\n%s", runner.log().ToText().c_str());
  if (!a.replay_out.empty()) {
    std::string xml = result.replay.ToXml();
    if (!WriteFile(a.replay_out, xml.data(), xml.size())) {
      return Fail("cannot write " + a.replay_out);
    }
    std::printf("replay script written to %s\n", a.replay_out.c_str());
  }
  if (result.status == campaign::ScenarioStatus::Exited) {
    std::printf("target exited with code %lld after %zu injections\n",
                (long long)result.exit_code, result.injections);
    return 0;
  }
  if (result.status == campaign::ScenarioStatus::Crashed) {
    std::printf("TARGET CRASHED: %s (%s) after %zu injections\n",
                vm::SignalName(result.signal), result.fault_message.c_str(),
                result.injections);
  } else {
    std::printf("target stopped (%s) after %zu injections\n",
                campaign::ScenarioStatusName(result.status),
                result.injections);
  }
  return 3;
}

void PrintFabricStats(const serve::FabricStats& fs) {
  std::fprintf(stderr,
               "fabric: %zu worker(s), %zu lost | %zu batch(es) dispatched, "
               "%zu retried | %zu scenario(s) remote, %zu local\n",
               fs.workers_connected, fs.workers_lost, fs.batches_dispatched,
               fs.batches_retried, fs.scenarios_remote, fs.scenarios_local);
}

/// The scenario executor the execution flags ask for: the fabric
/// coordinator when --workers/--connect named workers, else an in-process
/// runner. Reports are byte-identical either way (test- and
/// CI-enforced), so callers are path-agnostic.
struct Dispatch {
  std::unique_ptr<serve::FabricCoordinator> fabric;
  std::unique_ptr<campaign::CampaignRunner> runner;

  campaign::ScenarioDispatch& get() {
    if (fabric) return *fabric;
    return *runner;
  }
  void PrintStats() const {
    if (fabric) PrintFabricStats(fabric->stats());
  }
};

/// Build the dispatch for `target`. Worker trouble is never fatal:
/// unreachable daemons are reported on stderr and the coordinator itself
/// degrades to in-process execution when nothing is live — and everything
/// fabric-related prints to stderr, because stdout must stay byte-identical
/// between distributed and single-process runs (CI diffs them).
Dispatch BuildDispatch(const FabricSpec& fspec, const TargetImage& target,
                       std::vector<core::FaultProfile> profiles,
                       const campaign::CampaignOptions& opts) {
  Dispatch dispatch;
  if (fspec.workers == 0 && fspec.connect.empty()) {
    dispatch.runner = std::make_unique<campaign::CampaignRunner>(
        target.setup(), std::move(profiles), opts);
    return dispatch;
  }
  // Fork the local workers before anything spawns a thread (the
  // coordinator's Run does): fork in a threaded process is undefined
  // behavior territory.
  std::vector<serve::LocalWorker> spawned;
  for (uint64_t i = 0; i < fspec.workers; ++i) {
    auto worker = serve::SpawnLocalWorker();
    if (!worker.ok()) {
      std::fprintf(stderr, "lfi: fabric: %s\n", worker.error().c_str());
      continue;
    }
    spawned.push_back(worker.value());
  }
  dispatch.fabric = std::make_unique<serve::FabricCoordinator>(
      target.spec(), std::move(profiles), opts);
  serve::FabricCoordinator& fabric = *dispatch.fabric;
  for (const serve::LocalWorker& worker : spawned) {
    if (auto st = fabric.AddWorkerFd(worker.fd, Format("pid-%d", worker.pid));
        !st.ok()) {
      std::fprintf(stderr, "lfi: fabric: %s\n", st.error().c_str());
    }
  }
  for (const auto& [host, port] : fspec.connect) {
    if (auto st = fabric.ConnectWorker(host, port); !st.ok()) {
      std::fprintf(stderr, "lfi: fabric: %s\n", st.error().c_str());
    }
  }
  if (fabric.live_workers() == 0) {
    std::fprintf(stderr,
                 "lfi: fabric: no reachable workers; running in-process\n");
  }
  return dispatch;
}

// lfi serve: a campaign fabric worker daemon. Hosts a machine pool and
// executes scenario batches for campaign/seu/explore coordinators
// (--workers forks anonymous local workers; --connect dials daemons
// started here).
std::vector<Flag> ServeFlags(serve::WorkerConfig& config, bool& once) {
  return {
      {"--port", "N", Count("--port", &config.port, 65535)},
      {"--jobs", "N", Count("--jobs", &config.jobs, campaign::kMaxJobs)},
      {"--once", nullptr, Set(&once)},
      // Deterministic crash hook for tests/CI: hard-close the connection
      // after N scenarios, like a kill -9 at a reproducible instant.
      {"--abort-after", "N",
       Count("--abort-after", &config.abort_after_scenarios)},
  };
}

int CmdServe(const std::vector<std::string>& args) {
  serve::WorkerConfig config;
  bool once = false;
  if (auto st = ParseFlags(args, ServeFlags(config, once)); !st.ok()) {
    return Fail("serve: " + st.error());
  }
  serve::WorkerServer server(config);
  auto port = server.Listen();
  if (!port.ok()) return Fail(port.error());
  // The port line is the daemon's contract with scripts (CI scrapes it);
  // flush so a piped reader sees it before the first campaign arrives.
  std::printf("lfi serve: listening on 127.0.0.1:%u\n", port.value());
  std::fflush(stdout);
  if (once) {
    if (auto st = server.ServeOnce(); !st.ok()) {
      std::fprintf(stderr, "lfi: serve: %s\n", st.error().c_str());
      return 1;
    }
    return 0;
  }
  server.ServeForever();
  return 0;
}

struct CampaignArgs {
  ExecArgs exec;
  double probability = -1;
  bool exhaustive = false;
  uint64_t scenarios = 0;
  std::string coverage_out;
};

std::vector<Flag> CampaignFlags(CampaignArgs& a) {
  std::vector<Flag> flags = ExecFlags(kCampaign, a.exec);
  flags.insert(flags.end(), {
      {"--random", "p", Probability("--random", &a.probability)},
      {"--exhaustive", nullptr, Set(&a.exhaustive)},
      {"--scenarios", "N", Count("--scenarios", &a.scenarios, 1'000'000)},
      {"--budget", "instructions",
       Count("--budget", &a.exec.opts.max_instructions, UINT64_MAX, true)},
      {"--coverage", "report.txt",
       [&a, store = StorePath("--coverage", "an output file path",
                              &a.coverage_out)](const std::string& v) {
         a.exec.opts.track_coverage = true;
         return store(v);
       }},
  });
  return flags;
}

// lfi campaign: generate a scenario set and fan it out across workers.
// Exit codes: 0 = no findings, 3 = at least one scenario crashed the
// target (findings!), 1 = usage/setup error.
int CmdCampaign(const std::vector<std::string>& args) {
  CampaignArgs a;
  if (auto st = ParseFlags(args, CampaignFlags(a)); !st.ok()) {
    return Fail("campaign: " + st.error());
  }
  const campaign::CampaignOptions& opts = a.exec.opts;
  if (a.exec.app_path.empty()) return Fail("campaign: need --app");
  if (!a.exhaustive && a.probability < 0) {
    return Fail("campaign: need --random <p> or --exhaustive");
  }

  // Build the target image once; workers load copies.
  auto target = LoadTarget(a.exec);
  if (!target.ok()) return Fail(target.error());

  std::vector<core::FaultProfile> profiles;
  if (auto st = LoadProfiles(a.exec.profile_paths, &profiles); !st.ok()) {
    return Fail(st.error());
  }

  // Scenario set: one exhaustive plan (rotate triggers are RNG-free, so
  // replicas would be byte-identical), or N independently-seeded random
  // plans (seeds derived from --seed, one stream per scenario).
  size_t count = 1;
  if (a.exhaustive) {
    if (a.scenarios > 1) {
      std::fprintf(stderr,
                   "lfi: campaign: --exhaustive is deterministic; running 1 "
                   "scenario (ignoring --scenarios %llu)\n",
                   (unsigned long long)a.scenarios);
    }
  } else {
    count = a.scenarios > 0 ? static_cast<size_t>(a.scenarios) : 64;
  }
  std::vector<campaign::Scenario> scenarios;
  for (size_t i = 0; i < count; ++i) {
    campaign::Scenario s;
    if (a.exhaustive) {
      s.name = "exhaustive";
      s.plan = core::GenerateExhaustive(profiles);
    } else {
      s.name = Format("random-p%g-%zu", a.probability, i);
      s.plan = core::GenerateRandom(profiles, a.probability,
                                    campaign::DeriveSeed(a.exec.seed, i));
    }
    scenarios.push_back(std::move(s));
  }

  Dispatch dispatch =
      BuildDispatch(a.exec.fabric, target.value(), std::move(profiles), opts);
  campaign::CampaignReport report = dispatch.get().Run(scenarios);
  dispatch.PrintStats();
  std::printf("%s", report.ToText().c_str());
  if (opts.track_coverage) {
    // Project the aggregated union bitmaps onto each module's CFG block
    // starts and dump per-module block coverage.
    std::string dump;
    for (const auto& [module, bitmap] : report.coverage) {
      std::printf("coverage %s: %zu offsets\n", module.c_str(),
                  bitmap.Count());
      const sso::SharedObject* image = nullptr;
      for (const sso::SharedObject& so : *target.value().modules) {
        if (so.name == module) {
          image = &so;
          break;
        }
      }
      if (image == nullptr) continue;  // e.g. the kernel image
      auto [covered, total] = apps::BlockCoverage(*image, bitmap);
      double pct =
          total == 0 ? 0.0
                     : 100.0 * static_cast<double>(covered) /
                           static_cast<double>(total);
      dump += Format("%s blocks %zu/%zu %.1f%% offsets %zu\n", module.c_str(),
                     covered, total, pct, bitmap.Count());
    }
    if (!WriteFile(a.coverage_out, dump.data(), dump.size())) {
      return Fail("cannot write " + a.coverage_out);
    }
    // Status goes to stderr: stdout stays byte-identical across --jobs
    // counts (the CI determinism check diffs it).
    std::fprintf(stderr, "block-coverage report written to %s\n",
                 a.coverage_out.c_str());
  }
  return report.crashes > 0 ? 3 : 0;
}

struct SeuArgs {
  ExecArgs exec;
  std::string guest, sdc_out;
  uint64_t flips = 64, rounds = 4;
  bool sdc_search = false;
  bool reg = true, stack = true, heap = false, data = false;
};

std::vector<Flag> SeuFlags(SeuArgs& a) {
  std::vector<Flag> flags = ExecFlags(kSeu, a.exec);
  flags.insert(flags.end(), {
      {"--guest", "none|dwc|cfcss|tmr", Store(&a.guest)},
      {"--flips", "N", Count("--flips", &a.flips, 1'000'000, true)},
      {"--targets", "reg,stack,heap,data",
       [&a](const std::string& list) -> Status {
         a.reg = a.stack = a.heap = a.data = false;
         size_t begin = 0;
         while (begin <= list.size()) {
           size_t end = list.find(',', begin);
           if (end == std::string::npos) end = list.size();
           std::string item = list.substr(begin, end - begin);
           if (item == "reg") a.reg = true;
           else if (item == "stack") a.stack = true;
           else if (item == "heap") a.heap = true;
           else if (item == "data") a.data = true;
           else {
             return Err("--targets wants reg,stack,heap,data; got \"" + item +
                        "\"");
           }
           if (end == list.size()) break;
           begin = end + 1;
         }
         if (!a.reg && !a.stack && !a.heap && !a.data) {
           return Err("--targets needs at least one target");
         }
         return Status::Ok();
       }},
      {"--budget", "instructions",
       Count("--budget", &a.exec.opts.max_instructions, UINT64_MAX, true)},
      {"--sdc-search", nullptr, Set(&a.sdc_search)},
      {"--rounds", "N", Count("--rounds", &a.rounds, 1'000'000, true)},
      {"--sdc-out", "dir",
       StorePath("--sdc-out", "a directory path", &a.sdc_out)},
  });
  return flags;
}

/// The built-in SEU evaluation guest under `name` hardening.
Result<TargetImage> GuestTarget(const std::string& name,
                                std::vector<std::string> files) {
  apps::HardeningMode mode;
  if (name == "none") mode = apps::HardeningMode::None;
  else if (name == "dwc") mode = apps::HardeningMode::Dwc;
  else if (name == "cfcss") mode = apps::HardeningMode::Cfcss;
  else if (name == "tmr") mode = apps::HardeningMode::Tmr;
  else {
    return Err("unknown --guest \"" + name + "\" (none, dwc, cfcss, or tmr)");
  }
  auto guest = apps::BuildSeuGuest(mode);
  if (!guest.ok()) return Err(guest.error());
  std::vector<sso::SharedObject> libs;
  libs.push_back(std::move(guest).take());
  return MakeTarget(std::move(libs), std::move(files));
}

// lfi seu: single-event-upset campaign — flip one bit per scenario and
// classify each run against the fault-free golden run. Targets either an
// .sso app (--app) or the built-in hardened evaluation guest (--guest
// none|dwc|cfcss|tmr). Everything on stdout is jobs- and engine-invariant
// (CI diffs it); exit codes: 0 = no silent corruption, 3 = at least one
// SDC flip found, 1 = usage/setup error.
int CmdSeu(const std::vector<std::string>& args) {
  SeuArgs a;
  if (auto st = ParseFlags(args, SeuFlags(a)); !st.ok()) {
    return Fail("seu: " + st.error());
  }
  if (a.exec.app_path.empty() == a.guest.empty()) {
    return Fail("seu: need exactly one of --app <sso> or --guest "
                "none|dwc|cfcss|tmr");
  }
  auto target = a.guest.empty() ? LoadTarget(a.exec)
                                : GuestTarget(a.guest, a.exec.vfs_files);
  if (!target.ok()) return Fail("seu: " + target.error());

  campaign::CampaignOptions opts = a.exec.opts;
  opts.collect_state_digest = true;
  // No fault profiles: SEU campaigns perturb state directly; the trigger
  // machinery stays idle.
  Dispatch dispatch = BuildDispatch(a.exec.fabric, target.value(), {}, opts);

  // Golden run: the same scenario with no faults. Every flip is judged
  // against its exit code and architectural state digest.
  campaign::Scenario golden_scenario;
  golden_scenario.name = "golden";
  campaign::CampaignReport golden_report =
      dispatch.get().Run({golden_scenario});
  if (golden_report.results.empty()) return Fail("seu: golden run produced no result");
  campaign::GoldenRun golden =
      campaign::GoldenFrom(golden_report.results.front());
  if (golden.status != campaign::ScenarioStatus::Exited) {
    return Fail("seu: golden run did not exit cleanly; cannot classify flips");
  }
  std::printf("golden: exit=%lld instructions=%llu digest=%016llx\n",
              (long long)golden.exit_code,
              (unsigned long long)golden.instructions,
              (unsigned long long)golden.state_digest);

  campaign::SeuSweepSpec space;
  space.instants_from = 0;
  space.instants_to = golden.instructions > 0 ? golden.instructions - 1 : 0;
  space.samples = static_cast<size_t>(a.flips);
  space.seed = a.exec.seed;
  space.regs = a.reg;
  space.stack = a.stack;
  space.heap = a.heap;
  space.data = a.data;
  if (a.data) {
    const sso::SharedObject& app_so = target.value().modules->back();
    space.data_module = app_so.name;
    space.data_bytes = app_so.data.size();
    if (space.data_bytes < 8) {
      return Fail("seu: --targets data, but " + app_so.name +
                  " has no flippable data section");
    }
  }

  campaign::SeuCampaignReport report;
  std::vector<campaign::Scenario> sdc_scenarios;
  if (a.sdc_search) {
    campaign::SeuSearchOptions sopts;
    sopts.rounds = static_cast<size_t>(a.rounds);
    sopts.per_round = static_cast<size_t>(a.flips);
    sopts.detect_exit_code = isa::kSeuDetectExitCode;
    campaign::SeuSearchResult found =
        campaign::SdcDirectedSearch(dispatch.get(), space, golden, sopts);
    report = std::move(found.report);
    sdc_scenarios = std::move(found.sdc_scenarios);
    std::printf("sdc-search: %zu round(s)\n", found.rounds_run);
  } else {
    std::vector<campaign::Scenario> sweep = campaign::BuildSeuSweep(space);
    campaign::CampaignReport raw = dispatch.get().Run(sweep);
    report = campaign::ClassifyCampaign(raw, golden, isa::kSeuDetectExitCode);
    for (size_t i = 0; i < report.verdicts.size(); ++i) {
      if (report.verdicts[i].outcome == campaign::SeuOutcome::Sdc) {
        sdc_scenarios.push_back(sweep[i]);
      }
    }
  }
  std::printf("%s", report.ToText().c_str());
  dispatch.PrintStats();

  // Persist SDC reproducers as plan XML (replayable with `lfi test`-style
  // tooling or a follow-up sweep): one file per silent corruption.
  if (!a.sdc_out.empty() && !sdc_scenarios.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(a.sdc_out, ec);
    if (ec) return Fail("cannot create " + a.sdc_out + ": " + ec.message());
    for (size_t i = 0; i < sdc_scenarios.size(); ++i) {
      std::string xml = sdc_scenarios[i].plan.ToXml();
      std::string path = a.sdc_out + Format("/sdc-%04zu.xml", i);
      if (!WriteFile(path, xml.data(), xml.size())) {
        return Fail("cannot write " + path);
      }
    }
    std::fprintf(stderr, "%zu sdc reproducer(s) -> %s\n",
                 sdc_scenarios.size(), a.sdc_out.c_str());
  }
  return report.counts.sdc > 0 ? 3 : 0;
}

/// Regular files in `dir` named `<prefix>...xml`, sorted by path (the
/// explore corpus layout: plan-NNNN.xml and crash-<hash>.xml).
std::vector<std::string> ListCorpusFiles(const std::string& dir,
                                         const std::string& prefix) {
  namespace fs = std::filesystem;
  std::vector<std::string> out;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    std::string name = e.path().filename().string();
    if (e.is_regular_file() && name.rfind(prefix, 0) == 0 &&
        name.size() > 4 && name.substr(name.size() - 4) == ".xml") {
      out.push_back(e.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

struct ExploreArgs {
  ExecArgs exec;
  campaign::ExplorerOptions eopts;
  std::string corpus_dir;
};

std::vector<Flag> ExploreFlags(ExploreArgs& a) {
  campaign::ExplorerOptions& e = a.eopts;
  std::vector<Flag> flags = ExecFlags(kExplore, a.exec);
  flags.insert(flags.end(), {
      {"--rounds", "N", Count("--rounds", &e.rounds, 1'000'000, true)},
      {"--budget", "scenarios-per-round",
       Count("--budget", &e.scenarios_per_round, 1'000'000, true)},
      {"--instructions", "N",
       Count("--instructions", &a.exec.opts.max_instructions, UINT64_MAX,
             true)},
      {"--corpus-dir", "dir",
       StorePath("--corpus-dir", "a directory path", &a.corpus_dir)},
      {"--probability", "p",
       Probability("--probability", &e.seed_probability)},
      {"--no-minimize", nullptr, Set(&e.minimize_crashes, false)},
      {"--fork-windows", nullptr, Set(&e.fork_windows)},
      {"--fitness", "coverage|cfg-distance",
       [&e](const std::string& v) -> Status {
         auto kind = campaign::ParseFitnessKind(v);
         if (!kind) {
           return Err("unknown --fitness \"" + v +
                      "\" (coverage or cfg-distance)");
         }
         e.fitness = *kind;
         return Status::Ok();
       }},
  });
  return flags;
}

// lfi explore: coverage-guided, multi-round campaign exploration with
// crash triage and replay-based minimization. Exit codes: 0 = no unique
// crashes, 3 = findings, 1 = usage/setup error.
//
// Everything printed to stdout is jobs-invariant (round stats, crash
// buckets, corpus contents) — CI diffs --jobs 1 against --jobs N.
int CmdExplore(const std::vector<std::string>& args) {
  ExploreArgs a;
  if (auto st = ParseFlags(args, ExploreFlags(a)); !st.ok()) {
    return Fail("explore: " + st.error());
  }
  campaign::ExplorerOptions& eopts = a.eopts;
  const std::string& corpus_dir = a.corpus_dir;
  if (a.exec.app_path.empty()) return Fail("explore: need --app");

  auto target = LoadTarget(a.exec);
  if (!target.ok()) return Fail(target.error());
  std::vector<core::FaultProfile> profiles;
  if (auto st = LoadProfiles(a.exec.profile_paths, &profiles); !st.ok()) {
    return Fail(st.error());
  }

  // Resume from a persisted corpus: plan-*.xml files, sorted by name so
  // the seed population order is deterministic.
  std::vector<core::Plan> initial_corpus;
  namespace fs = std::filesystem;
  if (!corpus_dir.empty() && fs::is_directory(corpus_dir)) {
    for (const std::string& path : ListCorpusFiles(corpus_dir, "plan-")) {
      auto plan = LoadPlan(path);
      if (!plan.ok()) return Fail(plan.error());
      initial_corpus.push_back(std::move(plan).take());
    }
    if (!initial_corpus.empty()) {
      std::printf("resuming from %zu corpus plan(s) in %s\n",
                  initial_corpus.size(), corpus_dir.c_str());
    }
  }

  eopts.seed = a.exec.seed;
  eopts.campaign = a.exec.opts;
  eopts.on_round = [](const campaign::RoundStats& rs) {
    std::printf("%s", rs.ToText().c_str());
    std::fflush(stdout);
  };
  // Every exploration round fans out through the dispatch, configured with
  // the explorer's forced collection flags; crash minimization stays
  // in-process either way.
  Dispatch dispatch =
      BuildDispatch(a.exec.fabric, target.value(), profiles,
                    campaign::Explorer::DispatchOptions(eopts.campaign));
  eopts.dispatch = &dispatch.get();
  campaign::Explorer explorer(target.value().setup(), std::move(profiles),
                              eopts);
  campaign::ExplorerReport report =
      explorer.Explore(std::move(initial_corpus));
  dispatch.PrintStats();

  // Round lines were already printed live; print the crash summary.
  for (const campaign::CrashReport& cr : report.crashes) {
    std::printf(
        "crash %016llx: %s | %zu hit(s), first %s (round %zu) | replay %zu "
        "-> minimized %zu trigger(s)%s\n",
        (unsigned long long)cr.hash, cr.signature.c_str(), cr.count,
        cr.scenario_name.c_str(), cr.first_round + 1,
        cr.replay.triggers.size(), cr.minimized.triggers.size(),
        cr.reproduces ? ", reproduces" : "");
  }

  // Persist the corpus + minimized reproducers as plan XML.
  if (!corpus_dir.empty()) {
    std::error_code ec;
    fs::create_directories(corpus_dir, ec);
    if (ec) return Fail("cannot create " + corpus_dir + ": " + ec.message());
    // Drop stale plan/crash files first (collected before removing — no
    // deletion under a live directory_iterator): the directory must equal
    // this run's report, or the next resume would seed from a mix of two
    // corpora and stale reproducers would linger as phantom findings.
    for (const char* prefix : {"plan-", "crash-"}) {
      for (const std::string& path : ListCorpusFiles(corpus_dir, prefix)) {
        fs::remove(path, ec);
      }
    }
    for (size_t i = 0; i < report.corpus.size(); ++i) {
      std::string xml = report.corpus[i].ToXml();
      std::string path = corpus_dir + Format("/plan-%04zu.xml", i);
      if (!WriteFile(path, xml.data(), xml.size())) {
        return Fail("cannot write " + path);
      }
    }
    for (const campaign::CrashReport& cr : report.crashes) {
      std::string xml = cr.minimized.ToXml();
      std::string path =
          corpus_dir + Format("/crash-%016llx.xml", (unsigned long long)cr.hash);
      if (!WriteFile(path, xml.data(), xml.size())) {
        return Fail("cannot write " + path);
      }
    }
    // Status to stderr: stdout stays byte-identical across --jobs counts.
    std::fprintf(stderr, "corpus (%zu plans, %zu crash reproducers) -> %s\n",
                 report.corpus.size(), report.crashes.size(),
                 corpus_dir.c_str());
  }
  return report.crashes.empty() ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    ProfileArgs profile_args;
    GenerateArgs generate_args;
    TestArgs test_args;
    CampaignArgs campaign_args;
    SeuArgs seu_args;
    ExploreArgs explore_args;
    serve::WorkerConfig serve_config;
    bool serve_once = false;
    std::printf(
        "usage: lfi <command> [args]\n"
        "  demo-assets <dir>     write demo libc/kernel/app binaries\n"
        "  disasm <lib.sso>      disassemble a synthetic shared object\n"
        "%s%s%s%s%s%s%s",
        Usage("profile <sso...>", ProfileFlags(profile_args)).c_str(),
        Usage("generate <profile.xml...>", GenerateFlags(generate_args))
            .c_str(),
        Usage("test", TestFlags(test_args)).c_str(),
        Usage("campaign", CampaignFlags(campaign_args)).c_str(),
        Usage("explore", ExploreFlags(explore_args)).c_str(),
        Usage("seu", SeuFlags(seu_args)).c_str(),
        Usage("serve", ServeFlags(serve_config, serve_once)).c_str());
    return 1;
  }
  std::string cmd = args[0];
  args.erase(args.begin());
  if (cmd == "demo-assets") return CmdDemoAssets(args);
  if (cmd == "disasm") return CmdDisasm(args);
  if (cmd == "profile") return CmdProfile(args);
  if (cmd == "generate") return CmdGenerate(args);
  if (cmd == "test") return CmdTest(args);
  if (cmd == "campaign") return CmdCampaign(args);
  if (cmd == "explore") return CmdExplore(args);
  if (cmd == "seu") return CmdSeu(args);
  if (cmd == "serve") return CmdServe(args);
  return Fail("unknown command: " + cmd);
}
