// Quickstart: the two-command LFI workflow from §6.1 —
//   1. profile the target application's libraries,
//   2. run the tests under a fault scenario.
//
// We profile the synthetic libc, print the §3.3-style close() profile,
// generate a random scenario, run a small file-copy program under it, and
// dump the injection log and the replay script.
#include <cstdio>

#include "core/controller.hpp"
#include "core/profiler.hpp"
#include "core/scenario_gen.hpp"
#include "isa/codebuilder.hpp"
#include "kernel/kernel_image.hpp"
#include "libc/libc_builder.hpp"
#include "vm/machine.hpp"

using namespace lfi;
using isa::CodeBuilder;
using isa::Reg;

namespace {

/// A minimal program: copy 64 bytes from /in to /out, checking nothing.
sso::SharedObject BuildCopyTool() {
  CodeBuilder b;
  uint32_t in_path = b.emit_data({'/', 'i', 'n', 0});
  uint32_t out_path = b.emit_data({'/', 'o', 'u', 't', 0});
  uint32_t buf = b.reserve_data(128);
  b.begin_function("main");
  b.sub_ri(Reg::SP, 16);
  b.mov_ri(Reg::R2, libc::O_RDONLY);
  b.lea_data(Reg::R1, static_cast<int32_t>(in_path));
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
  b.mov_ri(Reg::R2, libc::O_CREAT);
  b.lea_data(Reg::R1, static_cast<int32_t>(out_path));
  b.push(Reg::R2);
  b.push(Reg::R1);
  b.call_sym("open");
  b.add_ri(Reg::SP, 16);
  b.mov_rr(Reg::R1, Reg::R0);
  b.lea_data(Reg::R2, static_cast<int32_t>(buf));
  b.mov_ri(Reg::R3, 64);
  b.push(Reg::R3);
  b.push(Reg::R2);
  b.push(Reg::R1);
  b.call_sym("write");
  b.add_ri(Reg::SP, 24);
  b.load(Reg::R1, Reg::BP, -8);
  b.push(Reg::R1);
  b.call_sym("close");
  b.add_ri(Reg::SP, 8);
  b.leave_ret();
  b.end_function();
  return sso::FromCodeUnit("copytool.so", b.Finish(), {libc::kLibcName});
}

}  // namespace

int main() {
  // ---- Step 1: profile (the first of the paper's two commands). --------------
  std::printf("== Step 1: profiling libc (static binary analysis) ==\n");
  sso::SharedObject kernel = kernel::BuildKernelImage();
  sso::SharedObject libc_so = libc::BuildLibc();
  analysis::Workspace ws;
  ws.SetKernel(&kernel);
  ws.AddModule(&libc_so);
  core::Profiler profiler(ws);
  auto profile = profiler.ProfileLibrary(libc_so);
  if (!profile.ok()) {
    std::printf("profiling failed: %s\n", profile.error().c_str());
    return 1;
  }
  std::printf("profiled %zu exported functions\n\n",
              profile.value().functions.size());

  // The §3.3 sample: close() returns -1 with errno EBADF/EIO/EINTR.
  FILE* out = stdout;
  const core::FunctionProfile* close_fn = profile.value().function("close");
  if (close_fn) {
    core::FaultProfile snippet;
    snippet.library = profile.value().library;
    snippet.functions.push_back(*close_fn);
    std::fprintf(out, "close() profile (compare paper §3.3):\n%s\n",
                 snippet.ToXml().c_str());
  }

  // ---- Step 2: generate a scenario and run the target under it. -------------
  std::printf("== Step 2: fault injection run ==\n");
  std::vector<core::FaultProfile> profiles = {std::move(profile).take()};
  core::Plan plan = core::GenerateRandom(profiles, 0.3, /*seed=*/9);
  std::printf("generated random scenario with %zu triggers (p=0.3)\n",
              plan.triggers.size());

  vm::Machine machine;
  machine.Load(libc::BuildLibc()).value();
  machine.Load(BuildCopyTool()).value();
  machine.kernel().add_file("/in", std::vector<uint8_t>(64, 'x'));

  core::Controller controller(machine);
  if (auto st = controller.Install(plan, profiles); !st.ok()) {
    std::printf("install failed: %s\n", st.error().c_str());
    return 1;
  }
  auto pid = machine.CreateProcess("main");
  if (!pid.ok()) {
    std::printf("%s\n", pid.error().c_str());
    return 1;
  }
  auto info = machine.RunToCompletion(pid.value());
  std::printf("process state: %s (exit=%lld)\n",
              info.state == vm::ProcState::Exited ? "exited" : "faulted",
              (long long)info.exit_code);

  std::printf("\n== Injection log ==\n%s", controller.log().ToText().c_str());
  std::printf("\n== Replay script ==\n%s",
              controller.GenerateReplay().ToXml().c_str());
  return 0;
}
