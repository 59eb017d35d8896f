#include <gtest/gtest.h>

#include <limits>

#include "kernel/kernel_image.hpp"
#include "kernel/kernel_runtime.hpp"
#include "kernel/syscalls.hpp"

namespace lfi::kernel {
namespace {

// ---- syscall table ------------------------------------------------------------

TEST(Syscalls, TableOrderedAndUnique) {
  const auto& table = SyscallTable();
  std::set<uint16_t> numbers;
  for (const auto& spec : table) {
    EXPECT_TRUE(numbers.insert(static_cast<uint16_t>(spec.number)).second)
        << spec.name;
  }
}

TEST(Syscalls, FindByNumber) {
  const SyscallSpec* spec = FindSyscall(static_cast<uint16_t>(Sys::CLOSE));
  ASSERT_NE(spec, nullptr);
  EXPECT_EQ(spec->name, "close");
  EXPECT_EQ(FindSyscall(9999), nullptr);
}

TEST(Syscalls, CloseErrorsMatchPaperExample) {
  // §3.3: close can fail with EBADF, EIO, EINTR on Linux.
  const SyscallSpec* spec = FindSyscall(static_cast<uint16_t>(Sys::CLOSE));
  ASSERT_NE(spec, nullptr);
  EXPECT_EQ(spec->errors, (std::vector<int32_t>{E_BADF, E_IO, E_INTR}));
}

TEST(Syscalls, ErrorIndexLookup) {
  const SyscallSpec* spec = FindSyscall(static_cast<uint16_t>(Sys::READ));
  ASSERT_NE(spec, nullptr);
  EXPECT_EQ(ErrorIndex(*spec, E_BADF), 0);
  EXPECT_EQ(ErrorIndex(*spec, E_AGAIN), 3);
  EXPECT_EQ(ErrorIndex(*spec, E_NOMEM), -1);
}

TEST(Syscalls, HandlerNames) {
  const SyscallSpec* spec = FindSyscall(static_cast<uint16_t>(Sys::ALLOC));
  ASSERT_NE(spec, nullptr);
  EXPECT_EQ(HandlerName(*spec), "sys_alloc");
}

// ---- kernel image --------------------------------------------------------------

TEST(KernelImage, ExportsOneHandlerPerSyscall) {
  sso::SharedObject img = BuildKernelImage();
  EXPECT_EQ(img.name, std::string(kKernelImageName));
  for (const auto& spec : SyscallTable()) {
    EXPECT_NE(img.find_export(HandlerName(spec)), nullptr) << spec.name;
  }
}

TEST(KernelImage, HandlersContainErrnoConstants) {
  // The profiler's kernel analysis depends on the -errno constants being
  // literally present in handler code (§3.1).
  sso::SharedObject img = BuildKernelImage();
  const isa::Symbol* close_h = img.find_export("sys_close");
  ASSERT_NE(close_h, nullptr);
  auto instrs = isa::Disassemble(img.code, close_h->offset,
                                 close_h->offset + close_h->size);
  ASSERT_TRUE(instrs.ok());
  std::set<int64_t> constants;
  for (const auto& ins : instrs.value()) {
    if (ins.op == isa::Opcode::MOV_RI && ins.a == isa::Reg::R0) {
      constants.insert(ins.imm);
    }
  }
  EXPECT_TRUE(constants.count(-E_BADF));
  EXPECT_TRUE(constants.count(-E_IO));
  EXPECT_TRUE(constants.count(-E_INTR));
}

TEST(KernelImage, HandlersStartWithKcall) {
  sso::SharedObject img = BuildKernelImage();
  for (const auto& spec : SyscallTable()) {
    const isa::Symbol* sym = img.find_export(HandlerName(spec));
    auto first = isa::DecodeOne(img.code, sym->offset);
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first.value().op, isa::Opcode::KCALL) << spec.name;
    EXPECT_EQ(first.value().u16, static_cast<uint16_t>(spec.number));
  }
}

// ---- runtime -------------------------------------------------------------------

/// A minimal KernelContext: flat memory at [0, 64K), direct registers.
class FakeContext : public KernelContext {
 public:
  FakeContext() : mem_(64 * 1024, 0) {}

  int64_t reg(isa::Reg r) const override {
    return regs_[static_cast<size_t>(r)];
  }
  void set_reg(isa::Reg r, int64_t v) override {
    regs_[static_cast<size_t>(r)] = v;
  }
  bool read_mem(uint64_t addr, void* out, uint64_t len) override {
    if (addr + len > mem_.size()) return false;
    memcpy(out, mem_.data() + addr, len);
    return true;
  }
  bool write_mem(uint64_t addr, const void* src, uint64_t len) override {
    if (addr + len > mem_.size()) return false;
    memcpy(mem_.data() + addr, src, len);
    return true;
  }
  uint64_t alloc_heap(uint64_t size) override {
    if (heap_ + size > 32 * 1024) return 0;
    uint64_t at = 0x4000 + heap_;
    heap_ += size;
    return at;
  }
  int pid() const override { return 1; }
  void request_exit(int64_t code) override { exit_code_ = code; }

  void put_string(uint64_t addr, const std::string& s) {
    memcpy(mem_.data() + addr, s.c_str(), s.size() + 1);
  }
  int64_t regs_[isa::kNumRegs] = {};
  std::vector<uint8_t> mem_;
  uint64_t heap_ = 0;
  int64_t exit_code_ = -1;
};

uint16_t N(Sys s) { return static_cast<uint16_t>(s); }

// A pipe is a ring that wraps and grows: uneven writes and reads make the
// queued bytes wrap the ring's end, then a write queues more than the ring
// holds while wrapped. Every byte comes out in order. A write whose source
// runs off guest memory queues the bytes before the fault and fails EIO.
TEST(KernelRuntime, PipeKeepsByteOrderAcrossWrapAndGrowth) {
  KernelRuntime k;
  FakeContext ctx;
  ctx.regs_[1] = 0x100;
  ASSERT_EQ(k.Invoke(N(Sys::PIPE), ctx).kind, KResult::Kind::Ok);
  int64_t rfd = 0, wfd = 0;
  memcpy(&rfd, ctx.mem_.data() + 0x100, 8);
  memcpy(&wfd, ctx.mem_.data() + 0x108, 8);
  EXPECT_EQ(rfd, 3);  // 0-2 are reserved
  EXPECT_EQ(wfd, 4);
  uint8_t next_in = 0, next_out = 0;
  auto put = [&](int64_t n) {
    for (int64_t i = 0; i < n; ++i) ctx.mem_[0x1000 + i] = next_in++;
    ctx.regs_[1] = wfd;
    ctx.regs_[2] = 0x1000;
    ctx.regs_[3] = n;
    KResult r = k.Invoke(N(Sys::WRITE), ctx);
    ASSERT_EQ(r.kind, KResult::Kind::Ok);
    ASSERT_EQ(r.value, n);
  };
  auto take = [&](int64_t n) {
    ctx.regs_[1] = rfd;
    ctx.regs_[2] = 0x2000;
    ctx.regs_[3] = n;
    KResult r = k.Invoke(N(Sys::READ), ctx);
    ASSERT_EQ(r.kind, KResult::Kind::Ok);
    ASSERT_EQ(r.value, n);
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(ctx.mem_[0x2000 + i], next_out++) << "byte " << i;
    }
  };
  put(48);
  take(40);  // 8 queued at offset 40 of the 64-byte ring
  put(48);   // the write wraps the ring's end
  put(8);    // the free space starts past the wrap
  put(20);   // grows while wrapped
  take(84);
  ctx.mem_[ctx.mem_.size() - 3] = next_in++;
  ctx.mem_[ctx.mem_.size() - 2] = next_in++;
  ctx.mem_[ctx.mem_.size() - 1] = next_in++;
  ctx.regs_[1] = wfd;
  ctx.regs_[2] = static_cast<int64_t>(ctx.mem_.size() - 3);
  ctx.regs_[3] = 8;
  KResult r = k.Invoke(N(Sys::WRITE), ctx);
  EXPECT_EQ(r.kind, KResult::Kind::Fail);
  EXPECT_EQ(r.error, E_IO);
  take(3);
}

TEST(KernelRuntime, OpenMissingFileFailsENOENT) {
  KernelRuntime kr;
  FakeContext ctx;
  ctx.put_string(100, "/nope");
  ctx.set_reg(isa::Reg::R1, 100);
  ctx.set_reg(isa::Reg::R2, 0);
  KResult r = kr.Invoke(N(Sys::OPEN), ctx);
  EXPECT_EQ(r.kind, KResult::Kind::Fail);
  EXPECT_EQ(r.error, E_NOENT);
}

TEST(KernelRuntime, OpenCreatReadWriteRoundTrip) {
  KernelRuntime kr;
  FakeContext ctx;
  ctx.put_string(100, "/f");
  ctx.set_reg(isa::Reg::R1, 100);
  ctx.set_reg(isa::Reg::R2, 0x40);  // O_CREAT
  KResult open = kr.Invoke(N(Sys::OPEN), ctx);
  ASSERT_EQ(open.kind, KResult::Kind::Ok);
  int64_t fd = open.value;
  EXPECT_GE(fd, 3);

  ctx.put_string(200, "hello");
  ctx.set_reg(isa::Reg::R1, fd);
  ctx.set_reg(isa::Reg::R2, 200);
  ctx.set_reg(isa::Reg::R3, 5);
  KResult wr = kr.Invoke(N(Sys::WRITE), ctx);
  ASSERT_EQ(wr.kind, KResult::Kind::Ok);
  EXPECT_EQ(wr.value, 5);

  // Seek back and read.
  ctx.set_reg(isa::Reg::R1, fd);
  ctx.set_reg(isa::Reg::R2, 0);
  ctx.set_reg(isa::Reg::R3, 0);  // SEEK_SET
  ASSERT_EQ(kr.Invoke(N(Sys::LSEEK), ctx).kind, KResult::Kind::Ok);
  ctx.set_reg(isa::Reg::R1, fd);
  ctx.set_reg(isa::Reg::R2, 300);
  ctx.set_reg(isa::Reg::R3, 16);
  KResult rd = kr.Invoke(N(Sys::READ), ctx);
  ASSERT_EQ(rd.kind, KResult::Kind::Ok);
  EXPECT_EQ(rd.value, 5);
  EXPECT_EQ(memcmp(ctx.mem_.data() + 300, "hello", 5), 0);
}

/// Open "/f" (created, holding "hello") and return its fd.
int64_t OpenHelloFile(KernelRuntime& kr, FakeContext& ctx) {
  kr.add_file("/f", {'h', 'e', 'l', 'l', 'o'});
  ctx.put_string(100, "/f");
  ctx.set_reg(isa::Reg::R1, 100);
  ctx.set_reg(isa::Reg::R2, 0);
  KResult open = kr.Invoke(N(Sys::OPEN), ctx);
  EXPECT_EQ(open.kind, KResult::Kind::Ok);
  return open.value;
}

KResult Lseek(KernelRuntime& kr, FakeContext& ctx, int64_t fd, int64_t offset,
              int64_t whence) {
  ctx.set_reg(isa::Reg::R1, fd);
  ctx.set_reg(isa::Reg::R2, offset);
  ctx.set_reg(isa::Reg::R3, whence);
  return kr.Invoke(N(Sys::LSEEK), ctx);
}

KResult Write(KernelRuntime& kr, FakeContext& ctx, int64_t fd,
              uint64_t count) {
  ctx.set_reg(isa::Reg::R1, fd);
  ctx.set_reg(isa::Reg::R2, 200);
  ctx.set_reg(isa::Reg::R3, static_cast<int64_t>(count));
  return kr.Invoke(N(Sys::WRITE), ctx);
}

int64_t StatSize(KernelRuntime& kr, FakeContext& ctx) {
  ctx.put_string(100, "/f");
  ctx.set_reg(isa::Reg::R1, 100);
  ctx.set_reg(isa::Reg::R2, 500);
  EXPECT_EQ(kr.Invoke(N(Sys::STAT), ctx).kind, KResult::Kind::Ok);
  int64_t size = 0;
  memcpy(&size, ctx.mem_.data() + 500, 8);
  return size;
}

// A count that wraps size + count past the file cap used to pass the
// bound and write far beyond the file's buffer.
TEST(KernelRuntime, WriteWithWrappingCountFailsENOSPC) {
  KernelRuntime kr;
  FakeContext ctx;
  int64_t fd = OpenHelloFile(kr, ctx);
  ASSERT_EQ(Lseek(kr, ctx, fd, 0, 2).value, 5);  // SEEK_END
  KResult r = Write(kr, ctx, fd, ~uint64_t{0} - 2);
  EXPECT_EQ(r.kind, KResult::Kind::Fail);
  EXPECT_EQ(r.error, E_NOSPC);
  EXPECT_EQ(StatSize(kr, ctx), 5);
}

// lseek far past the end, then a 1-byte write: the bound must count the
// position, or the write resizes the file to 2^62 + 1 bytes.
TEST(KernelRuntime, SeekFarThenWriteFailsENOSPC) {
  KernelRuntime kr;
  FakeContext ctx;
  int64_t fd = OpenHelloFile(kr, ctx);
  KResult seek = Lseek(kr, ctx, fd, int64_t{1} << 62, 0);  // SEEK_SET
  ASSERT_EQ(seek.kind, KResult::Kind::Ok);
  EXPECT_EQ(seek.value, int64_t{1} << 62);
  KResult r = Write(kr, ctx, fd, 1);
  EXPECT_EQ(r.kind, KResult::Kind::Fail);
  EXPECT_EQ(r.error, E_NOSPC);
  EXPECT_EQ(StatSize(kr, ctx), 5);
  // A write that ends exactly at the cap is still allowed.
  ASSERT_EQ(Lseek(kr, ctx, fd, (64 << 20) - 1, 0).kind, KResult::Kind::Ok);
  EXPECT_EQ(Write(kr, ctx, fd, 1).value, 1);
  EXPECT_EQ(StatSize(kr, ctx), 64 << 20);
}

// base + offset overflowing int64 is EINVAL, and leaves the position alone.
TEST(KernelRuntime, LseekOverflowFailsEINVAL) {
  KernelRuntime kr;
  FakeContext ctx;
  int64_t fd = OpenHelloFile(kr, ctx);
  const int64_t max = std::numeric_limits<int64_t>::max();
  KResult end = Lseek(kr, ctx, fd, max, 2);  // SEEK_END: 5 + max
  EXPECT_EQ(end.kind, KResult::Kind::Fail);
  EXPECT_EQ(end.error, E_INVAL);
  ASSERT_EQ(Lseek(kr, ctx, fd, max, 0).value, max);  // SEEK_SET
  KResult cur = Lseek(kr, ctx, fd, 1, 1);  // SEEK_CUR: max + 1
  EXPECT_EQ(cur.kind, KResult::Kind::Fail);
  EXPECT_EQ(cur.error, E_INVAL);
  EXPECT_EQ(Lseek(kr, ctx, fd, 0, 1).value, max);
}

TEST(KernelRuntime, ReadBadFdFails) {
  KernelRuntime kr;
  FakeContext ctx;
  ctx.set_reg(isa::Reg::R1, 42);
  KResult r = kr.Invoke(N(Sys::READ), ctx);
  EXPECT_EQ(r.kind, KResult::Kind::Fail);
  EXPECT_EQ(r.error, E_BADF);
}

TEST(KernelRuntime, CloseBadFdFails) {
  KernelRuntime kr;
  FakeContext ctx;
  ctx.set_reg(isa::Reg::R1, 42);
  KResult r = kr.Invoke(N(Sys::CLOSE), ctx);
  EXPECT_EQ(r.kind, KResult::Kind::Fail);
  EXPECT_EQ(r.error, E_BADF);
}

TEST(KernelRuntime, FdExhaustionEMFILE) {
  KernelRuntime kr;
  FakeContext ctx;
  kr.add_file("/f", {1, 2, 3});
  ctx.put_string(100, "/f");
  ctx.set_reg(isa::Reg::R1, 100);
  ctx.set_reg(isa::Reg::R2, 0);
  KResult last;
  for (int i = 0; i < 70; ++i) last = kr.Invoke(N(Sys::OPEN), ctx);
  EXPECT_EQ(last.kind, KResult::Kind::Fail);
  EXPECT_EQ(last.error, E_MFILE);
}

TEST(KernelRuntime, StatReportsSize) {
  KernelRuntime kr;
  FakeContext ctx;
  kr.add_file("/f", std::vector<uint8_t>(123, 7));
  ctx.put_string(100, "/f");
  ctx.set_reg(isa::Reg::R1, 100);
  ctx.set_reg(isa::Reg::R2, 500);
  KResult r = kr.Invoke(N(Sys::STAT), ctx);
  ASSERT_EQ(r.kind, KResult::Kind::Ok);
  int64_t size = 0;
  memcpy(&size, ctx.mem_.data() + 500, 8);
  EXPECT_EQ(size, 123);
}

TEST(KernelRuntime, UnlinkRemoves) {
  KernelRuntime kr;
  FakeContext ctx;
  kr.add_file("/f", {1});
  ctx.put_string(100, "/f");
  ctx.set_reg(isa::Reg::R1, 100);
  EXPECT_EQ(kr.Invoke(N(Sys::UNLINK), ctx).kind, KResult::Kind::Ok);
  EXPECT_FALSE(kr.has_file("/f"));
  EXPECT_EQ(kr.Invoke(N(Sys::UNLINK), ctx).error, E_NOENT);
}

TEST(KernelRuntime, AllocFailsWithENOMEMAtCap) {
  KernelRuntime kr;
  FakeContext ctx;
  ctx.set_reg(isa::Reg::R1, 16 * 1024);
  EXPECT_EQ(kr.Invoke(N(Sys::ALLOC), ctx).kind, KResult::Kind::Ok);
  ctx.set_reg(isa::Reg::R1, 64 * 1024);  // beyond FakeContext's 32K heap
  KResult r = kr.Invoke(N(Sys::ALLOC), ctx);
  EXPECT_EQ(r.kind, KResult::Kind::Fail);
  EXPECT_EQ(r.error, E_NOMEM);
}

TEST(KernelRuntime, PipeWriteReadAcrossEnds) {
  KernelRuntime kr;
  FakeContext ctx;
  ctx.set_reg(isa::Reg::R1, 100);
  ASSERT_EQ(kr.Invoke(N(Sys::PIPE), ctx).kind, KResult::Kind::Ok);
  int64_t rfd = 0, wfd = 0;
  memcpy(&rfd, ctx.mem_.data() + 100, 8);
  memcpy(&wfd, ctx.mem_.data() + 108, 8);

  ctx.put_string(200, "msg");
  ctx.set_reg(isa::Reg::R1, wfd);
  ctx.set_reg(isa::Reg::R2, 200);
  ctx.set_reg(isa::Reg::R3, 3);
  ASSERT_EQ(kr.Invoke(N(Sys::WRITE), ctx).value, 3);

  ctx.set_reg(isa::Reg::R1, rfd);
  ctx.set_reg(isa::Reg::R2, 300);
  ctx.set_reg(isa::Reg::R3, 16);
  KResult rd = kr.Invoke(N(Sys::READ), ctx);
  EXPECT_EQ(rd.value, 3);
  EXPECT_EQ(memcmp(ctx.mem_.data() + 300, "msg", 3), 0);
}

TEST(KernelRuntime, EmptyPipeBlocksWhileWriterOpen) {
  KernelRuntime kr;
  FakeContext ctx;
  ctx.set_reg(isa::Reg::R1, 100);
  ASSERT_EQ(kr.Invoke(N(Sys::PIPE), ctx).kind, KResult::Kind::Ok);
  int64_t rfd = 0;
  memcpy(&rfd, ctx.mem_.data() + 100, 8);
  ctx.set_reg(isa::Reg::R1, rfd);
  ctx.set_reg(isa::Reg::R2, 300);
  ctx.set_reg(isa::Reg::R3, 8);
  EXPECT_EQ(kr.Invoke(N(Sys::READ), ctx).kind, KResult::Kind::Block);
}

TEST(KernelRuntime, PipeEofAfterWriterCloses) {
  KernelRuntime kr;
  FakeContext ctx;
  ctx.set_reg(isa::Reg::R1, 100);
  ASSERT_EQ(kr.Invoke(N(Sys::PIPE), ctx).kind, KResult::Kind::Ok);
  int64_t rfd = 0, wfd = 0;
  memcpy(&rfd, ctx.mem_.data() + 100, 8);
  memcpy(&wfd, ctx.mem_.data() + 108, 8);
  ctx.set_reg(isa::Reg::R1, wfd);
  ASSERT_EQ(kr.Invoke(N(Sys::CLOSE), ctx).kind, KResult::Kind::Ok);
  ctx.set_reg(isa::Reg::R1, rfd);
  ctx.set_reg(isa::Reg::R2, 300);
  ctx.set_reg(isa::Reg::R3, 8);
  KResult rd = kr.Invoke(N(Sys::READ), ctx);
  EXPECT_EQ(rd.kind, KResult::Kind::Ok);
  EXPECT_EQ(rd.value, 0);  // EOF
}

TEST(KernelRuntime, WriteToReaderlessPipeEPIPE) {
  KernelRuntime kr;
  FakeContext ctx;
  ctx.set_reg(isa::Reg::R1, 100);
  ASSERT_EQ(kr.Invoke(N(Sys::PIPE), ctx).kind, KResult::Kind::Ok);
  int64_t rfd = 0, wfd = 0;
  memcpy(&rfd, ctx.mem_.data() + 100, 8);
  memcpy(&wfd, ctx.mem_.data() + 108, 8);
  ctx.set_reg(isa::Reg::R1, rfd);
  ASSERT_EQ(kr.Invoke(N(Sys::CLOSE), ctx).kind, KResult::Kind::Ok);
  ctx.set_reg(isa::Reg::R1, wfd);
  ctx.set_reg(isa::Reg::R2, 200);
  ctx.set_reg(isa::Reg::R3, 1);
  KResult r = kr.Invoke(N(Sys::WRITE), ctx);
  EXPECT_EQ(r.kind, KResult::Kind::Fail);
  EXPECT_EQ(r.error, E_PIPE);
}

TEST(KernelRuntime, ConnectRefusedWithoutListener) {
  KernelRuntime kr;
  FakeContext ctx;
  KResult sock = kr.Invoke(N(Sys::SOCKET), ctx);
  ASSERT_EQ(sock.kind, KResult::Kind::Ok);
  ctx.set_reg(isa::Reg::R1, sock.value);
  ctx.set_reg(isa::Reg::R2, 80);
  KResult r = kr.Invoke(N(Sys::CONNECT), ctx);
  EXPECT_EQ(r.kind, KResult::Kind::Fail);
  EXPECT_EQ(r.error, E_CONNREFUSED);
}

TEST(KernelRuntime, SocketSendRecvThroughHostHooks) {
  KernelRuntime kr;
  kr.listen(80);
  FakeContext ctx;
  KResult sock = kr.Invoke(N(Sys::SOCKET), ctx);
  ASSERT_EQ(sock.kind, KResult::Kind::Ok);
  int64_t fd = sock.value;
  ctx.set_reg(isa::Reg::R1, fd);
  ctx.set_reg(isa::Reg::R2, 80);
  ASSERT_EQ(kr.Invoke(N(Sys::CONNECT), ctx).kind, KResult::Kind::Ok);

  ctx.put_string(200, "GET /");
  ctx.set_reg(isa::Reg::R1, fd);
  ctx.set_reg(isa::Reg::R2, 200);
  ctx.set_reg(isa::Reg::R3, 5);
  ASSERT_EQ(kr.Invoke(N(Sys::SEND), ctx).value, 5);
  auto sent = kr.socket_sent(1, fd);
  EXPECT_EQ(std::string(sent.begin(), sent.end()), "GET /");

  ASSERT_TRUE(kr.feed_socket(1, fd, {'O', 'K'}));
  ctx.set_reg(isa::Reg::R1, fd);
  ctx.set_reg(isa::Reg::R2, 300);
  ctx.set_reg(isa::Reg::R3, 16);
  EXPECT_EQ(kr.Invoke(N(Sys::RECV), ctx).value, 2);
}

TEST(KernelRuntime, ExitRecordedAndWaitReturnsIt) {
  KernelRuntime kr;
  FakeContext ctx;
  kr.on_process_exit(7, 42);
  ctx.set_reg(isa::Reg::R1, 7);
  KResult r = kr.Invoke(N(Sys::WAIT), ctx);
  EXPECT_EQ(r.kind, KResult::Kind::Ok);
  EXPECT_EQ(r.value, 42);
  EXPECT_EQ(kr.exit_code(7), 42);
}

TEST(KernelRuntime, WaitForRunningBlocks) {
  KernelRuntime kr;
  FakeContext ctx;
  ctx.set_reg(isa::Reg::R1, 3);
  EXPECT_EQ(kr.Invoke(N(Sys::WAIT), ctx).kind, KResult::Kind::Block);
}

TEST(KernelRuntime, ProcessExitClosesFds) {
  KernelRuntime kr;
  FakeContext ctx;
  kr.add_file("/f", {1});
  ctx.put_string(100, "/f");
  ctx.set_reg(isa::Reg::R1, 100);
  ctx.set_reg(isa::Reg::R2, 0);
  ASSERT_EQ(kr.Invoke(N(Sys::OPEN), ctx).kind, KResult::Kind::Ok);
  EXPECT_EQ(kr.open_fd_count(1), 1u);
  kr.on_process_exit(1, 0);
  EXPECT_EQ(kr.open_fd_count(1), 0u);
}

TEST(KernelRuntime, GetpidAndYield) {
  KernelRuntime kr;
  FakeContext ctx;
  EXPECT_EQ(kr.Invoke(N(Sys::GETPID), ctx).value, 1);
  EXPECT_EQ(kr.Invoke(N(Sys::YIELD), ctx).kind, KResult::Kind::Ok);
}

TEST(KernelRuntime, UnknownSyscallENOSYS) {
  KernelRuntime kr;
  FakeContext ctx;
  KResult r = kr.Invoke(999, ctx);
  EXPECT_EQ(r.kind, KResult::Kind::Fail);
  EXPECT_EQ(r.error, E_NOSYS);
}

TEST(KernelRuntime, ExitRequestsContextExit) {
  KernelRuntime kr;
  FakeContext ctx;
  ctx.set_reg(isa::Reg::R1, 5);
  kr.Invoke(N(Sys::EXIT), ctx);
  EXPECT_EQ(ctx.exit_code_, 5);
}

}  // namespace
}  // namespace lfi::kernel
