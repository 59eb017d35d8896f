#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "util/errno_table.hpp"

namespace lfi::libc {
namespace {

using isa::CodeBuilder;
using isa::Reg;
using test::RunEntry;

/// Harness: build an app that runs `body` and returns R0 as the exit code.
class LibcTest : public ::testing::Test {
 public:
  template <typename Body>
  test::RunResult Run(Body&& body, vm::Machine* use = nullptr) {
    CodeBuilder b;
    path_slot_ = b.emit_data(CStr("/tmp/file"));
    missing_slot_ = b.emit_data(CStr("/missing"));
    buf_slot_ = b.reserve_data(256);
    b.begin_function("main");
    b.sub_ri(Reg::SP, 32);
    body(b, *this);
    b.leave_ret();
    b.end_function();
    vm::Machine local;
    vm::Machine& machine = use ? *use : local;
    machine.Load(BuildLibc()).value();
    machine.kernel().add_file("/tmp/file", {'h', 'e', 'l', 'l', 'o'});
    machine.Load(sso::FromCodeUnit("app.so", b.Finish(), {kLibcName})).value();
    return RunEntry(machine, "main");
  }

  static std::vector<uint8_t> CStr(const char* s) {
    std::vector<uint8_t> v;
    for (; *s; ++s) v.push_back(static_cast<uint8_t>(*s));
    v.push_back(0);
    return v;
  }

  uint32_t path_slot_ = 0;
  uint32_t missing_slot_ = 0;
  uint32_t buf_slot_ = 0;
};

TEST_F(LibcTest, OpenReadCloseHappyPath) {
  auto r = Run([](CodeBuilder& b, LibcTest& t) {
    b.mov_ri(Reg::R2, O_RDONLY);
    b.lea_data(Reg::R1, static_cast<int32_t>(t.path_slot_));
    b.push(Reg::R2);
    b.push(Reg::R1);
    b.call_sym("open");
    b.add_ri(Reg::SP, 16);
    b.store(Reg::BP, -8, Reg::R0);  // fd
    // read(fd, buf, 64) -> 5
    b.load(Reg::R1, Reg::BP, -8);
    b.lea_data(Reg::R2, static_cast<int32_t>(t.buf_slot_));
    b.mov_ri(Reg::R3, 64);
    b.push(Reg::R3);
    b.push(Reg::R2);
    b.push(Reg::R1);
    b.call_sym("read");
    b.add_ri(Reg::SP, 24);
    b.store(Reg::BP, -16, Reg::R0);  // bytes read
    b.load(Reg::R1, Reg::BP, -8);
    b.push(Reg::R1);
    b.call_sym("close");
    b.add_ri(Reg::SP, 8);
    b.load(Reg::R0, Reg::BP, -16);
  });
  EXPECT_EQ(r.state, vm::ProcState::Exited) << r.fault;
  EXPECT_EQ(r.exit_code, 5);
}

TEST_F(LibcTest, OpenMissingSetsErrnoENOENT) {
  auto r = Run([](CodeBuilder& b, LibcTest& t) {
    b.mov_ri(Reg::R2, O_RDONLY);
    b.lea_data(Reg::R1, static_cast<int32_t>(t.missing_slot_));
    b.push(Reg::R2);
    b.push(Reg::R1);
    b.call_sym("open");
    b.add_ri(Reg::SP, 16);
    b.store(Reg::BP, -8, Reg::R0);
    b.call_sym("geterrno");
    b.mov_rr(Reg::R1, Reg::R0);
    b.load(Reg::R2, Reg::BP, -8);
    // exit code = errno * 100 + (-retval)
    b.mul_ri(Reg::R1, 100);
    b.neg(Reg::R2);
    b.add_rr(Reg::R1, Reg::R2);
    b.mov_rr(Reg::R0, Reg::R1);
  });
  EXPECT_EQ(r.exit_code, E_NOENT * 100 + 1);  // errno=ENOENT, retval=-1
}

TEST_F(LibcTest, ReadBadFdSetsErrnoEBADF) {
  auto r = Run([](CodeBuilder& b, LibcTest& t) {
    b.mov_ri(Reg::R1, 55);
    b.lea_data(Reg::R2, static_cast<int32_t>(t.buf_slot_));
    b.mov_ri(Reg::R3, 8);
    b.push(Reg::R3);
    b.push(Reg::R2);
    b.push(Reg::R1);
    b.call_sym("read");
    b.add_ri(Reg::SP, 24);
    b.call_sym("geterrno");
  });
  EXPECT_EQ(r.exit_code, E_BADF);
}

TEST_F(LibcTest, WriteAppendsToFile) {
  vm::Machine machine;
  auto r = Run(
      [](CodeBuilder& b, LibcTest& t) {
        b.mov_ri(Reg::R2, O_WRONLY | O_TRUNC);
        b.lea_data(Reg::R1, static_cast<int32_t>(t.path_slot_));
        b.push(Reg::R2);
        b.push(Reg::R1);
        b.call_sym("open");
        b.add_ri(Reg::SP, 16);
        b.store(Reg::BP, -8, Reg::R0);
        b.load(Reg::R1, Reg::BP, -8);
        b.lea_data(Reg::R2, static_cast<int32_t>(t.path_slot_));  // any bytes
        b.mov_ri(Reg::R3, 4);
        b.push(Reg::R3);
        b.push(Reg::R2);
        b.push(Reg::R1);
        b.call_sym("write");
        b.add_ri(Reg::SP, 24);
      },
      &machine);
  EXPECT_EQ(r.exit_code, 4);
  EXPECT_EQ(machine.kernel().file_contents("/tmp/file").size(), 4u);
}

TEST_F(LibcTest, MallocReturnsDistinctHeapPointers) {
  auto r = Run([](CodeBuilder& b, LibcTest&) {
    b.mov_ri(Reg::R1, 64);
    b.push(Reg::R1);
    b.call_sym("malloc");
    b.add_ri(Reg::SP, 8);
    b.store(Reg::BP, -8, Reg::R0);
    b.mov_ri(Reg::R1, 64);
    b.push(Reg::R1);
    b.call_sym("malloc");
    b.add_ri(Reg::SP, 8);
    b.load(Reg::R1, Reg::BP, -8);
    b.sub_rr(Reg::R0, Reg::R1);  // second - first > 0
  });
  EXPECT_GE(r.exit_code, 64);
}

TEST_F(LibcTest, MallocBeyondCapReturnsNullAndENOMEM) {
  auto r = Run([](CodeBuilder& b, LibcTest&) {
    b.mov_ri(Reg::R1, 1LL << 40);
    b.push(Reg::R1);
    b.call_sym("malloc");
    b.add_ri(Reg::SP, 8);
    b.store(Reg::BP, -8, Reg::R0);
    b.call_sym("geterrno");
    b.mov_rr(Reg::R1, Reg::R0);
    b.load(Reg::R2, Reg::BP, -8);
    b.add_rr(Reg::R1, Reg::R2);  // NULL + ENOMEM = ENOMEM
    b.mov_rr(Reg::R0, Reg::R1);
  });
  EXPECT_EQ(r.exit_code, E_NOMEM);
}

TEST_F(LibcTest, CallocMultipliesThroughMalloc) {
  auto r = Run([](CodeBuilder& b, LibcTest&) {
    b.mov_ri(Reg::R1, 1LL << 30);
    b.mov_ri(Reg::R2, 1LL << 30);
    b.push(Reg::R2);
    b.push(Reg::R1);
    b.call_sym("calloc");  // 2^60 bytes: fails
    b.add_ri(Reg::SP, 16);
  });
  EXPECT_EQ(r.exit_code, 0);  // NULL
}

TEST_F(LibcTest, LseekSetAndEnd) {
  auto r = Run([](CodeBuilder& b, LibcTest& t) {
    b.mov_ri(Reg::R2, O_RDONLY);
    b.lea_data(Reg::R1, static_cast<int32_t>(t.path_slot_));
    b.push(Reg::R2);
    b.push(Reg::R1);
    b.call_sym("open");
    b.add_ri(Reg::SP, 16);
    b.store(Reg::BP, -8, Reg::R0);
    // lseek(fd, 0, SEEK_END) == 5
    b.load(Reg::R1, Reg::BP, -8);
    b.mov_ri(Reg::R2, 0);
    b.mov_ri(Reg::R3, 2);
    b.push(Reg::R3);
    b.push(Reg::R2);
    b.push(Reg::R1);
    b.call_sym("lseek");
    b.add_ri(Reg::SP, 24);
  });
  EXPECT_EQ(r.exit_code, 5);
}

TEST_F(LibcTest, StatMissingFails) {
  auto r = Run([](CodeBuilder& b, LibcTest& t) {
    b.lea_data(Reg::R1, static_cast<int32_t>(t.missing_slot_));
    b.mov_ri(Reg::R2, 0);
    b.push(Reg::R2);
    b.push(Reg::R1);
    b.call_sym("stat");
    b.add_ri(Reg::SP, 16);
  });
  EXPECT_EQ(r.exit_code, -1);
}

TEST_F(LibcTest, ReaddirReturnsBufferOnData) {
  auto r = Run([](CodeBuilder& b, LibcTest& t) {
    b.mov_ri(Reg::R2, O_RDONLY);
    b.lea_data(Reg::R1, static_cast<int32_t>(t.path_slot_));
    b.push(Reg::R2);
    b.push(Reg::R1);
    b.call_sym("open");
    b.add_ri(Reg::SP, 16);
    b.lea_data(Reg::R2, static_cast<int32_t>(t.buf_slot_));
    b.push(Reg::R2);
    b.push(Reg::R0);
    b.call_sym("readdir");
    b.add_ri(Reg::SP, 16);
    // Non-NULL (equals the buffer address): normalize to 1.
    auto null_case = b.new_label();
    b.cmp_ri(Reg::R0, 0);
    b.je(null_case);
    b.mov_ri(Reg::R0, 1);
    b.bind(null_case);
  });
  EXPECT_EQ(r.exit_code, 1);
}

TEST_F(LibcTest, ReaddirBadFdReturnsNull) {
  auto r = Run([](CodeBuilder& b, LibcTest& t) {
    b.mov_ri(Reg::R1, 77);
    b.lea_data(Reg::R2, static_cast<int32_t>(t.buf_slot_));
    b.push(Reg::R2);
    b.push(Reg::R1);
    b.call_sym("readdir64");
    b.add_ri(Reg::SP, 16);
  });
  EXPECT_EQ(r.exit_code, 0);
}

TEST_F(LibcTest, ExitTerminatesWithCode) {
  auto r = Run([](CodeBuilder& b, LibcTest&) {
    b.mov_ri(Reg::R1, 9);
    b.push(Reg::R1);
    b.call_sym("exit");
    b.add_ri(Reg::SP, 8);
    b.mov_ri(Reg::R0, 1);  // unreachable
  });
  EXPECT_EQ(r.state, vm::ProcState::Exited);
  EXPECT_EQ(r.exit_code, 9);
}

TEST_F(LibcTest, AbortRaisesSigabrt) {
  auto r = Run([](CodeBuilder& b, LibcTest&) { b.call_sym("abort"); });
  EXPECT_EQ(r.state, vm::ProcState::Faulted);
  EXPECT_EQ(r.signal, vm::Signal::Abort);
}

TEST_F(LibcTest, SocketConnectRefused) {
  auto r = Run([](CodeBuilder& b, LibcTest&) {
    b.call_named("socket", {});
    b.mov_rr(Reg::R1, Reg::R0);
    b.mov_ri(Reg::R2, 8080);
    b.push(Reg::R2);
    b.push(Reg::R1);
    b.call_sym("connect");
    b.add_ri(Reg::SP, 16);
    b.call_sym("geterrno");
  });
  EXPECT_EQ(r.exit_code, E_CONNREFUSED);
}

TEST(LibcMeta, PrototypesCoverAllExports) {
  sso::SharedObject so = BuildLibc();
  const auto& protos = LibcPrototypes();
  for (const isa::Symbol& sym : so.exports) {
    EXPECT_TRUE(protos.count(sym.name)) << sym.name;
  }
}

TEST(LibcMeta, FaultloadGroupsExistInLibc) {
  sso::SharedObject so = BuildLibc();
  for (const auto* group :
       {&FileIoFunctions(), &MemoryFunctions(), &SocketFunctions()}) {
    for (const std::string& fn : *group) {
      EXPECT_NE(so.find_export(fn), nullptr) << fn;
    }
  }
}

TEST(LibcMeta, ErrnoLivesAtTlsOffsetZero) {
  sso::SharedObject so = BuildLibc();
  EXPECT_GE(so.tls_size, 8u);
}

}  // namespace
}  // namespace lfi::libc
