#include "kernel/kernel_runtime.hpp"

#include <algorithm>
#include <utility>

namespace lfi::kernel {

namespace {
// open() flag bits (libc exposes the same values).
constexpr int64_t kO_WRONLY = 1;
constexpr int64_t kO_RDWR = 2;
constexpr int64_t kO_CREAT = 0x40;
constexpr int64_t kO_TRUNC = 0x200;
constexpr int64_t kO_APPEND = 0x400;
}  // namespace

void ByteQueue::Reserve(uint64_t bytes) {
  if (bytes <= ring_.size()) return;
  uint64_t cap = std::max<uint64_t>(ring_.size(), 64);
  while (cap < bytes) cap *= 2;
  std::vector<uint8_t> grown(cap);
  const uint64_t first = std::min(size_, ring_.size() - head_);
  std::copy_n(ring_.begin() + static_cast<ptrdiff_t>(head_), first,
              grown.begin());
  std::copy_n(ring_.begin(), size_ - first,
              grown.begin() + static_cast<ptrdiff_t>(first));
  ring_ = std::move(grown);
  head_ = 0;
}

KernelRuntime::KernelRuntime() = default;

KernelRuntime::State KernelRuntime::CaptureState() const { return state_; }

void KernelRuntime::RestoreState(const State& state) { state_ = state; }

KernelRuntime::File* KernelRuntime::FindFile(const std::string& path) {
  return const_cast<File*>(std::as_const(*this).FindFile(path));
}

const KernelRuntime::File* KernelRuntime::FindFile(
    const std::string& path) const {
  const std::vector<uint32_t>& order = state_.files_by_path;
  auto it = std::lower_bound(
      order.begin(), order.end(), path, [&](uint32_t slot, const std::string& p) {
        return state_.files[slot].path < p;
      });
  if (it == order.end() || state_.files[*it].path != path) return nullptr;
  return &state_.files[*it];
}

uint32_t KernelRuntime::FileSlot(const std::string& path) {
  std::vector<uint32_t>& order = state_.files_by_path;
  auto it = std::lower_bound(
      order.begin(), order.end(), path, [&](uint32_t slot, const std::string& p) {
        return state_.files[slot].path < p;
      });
  if (it != order.end() && state_.files[*it].path == path) return *it;
  const auto slot = static_cast<uint32_t>(state_.files.size());
  File& file = state_.files.Add();
  file.path = path;
  file.exists = false;
  order.insert(it, slot);
  return slot;
}

std::vector<uint8_t>& KernelRuntime::FileData(const OpenFile& f) {
  File& file = state_.files[f.id];
  file.exists = true;
  return file.data;
}

void KernelRuntime::add_file(const std::string& path,
                             std::vector<uint8_t> contents) {
  File& file = state_.files[FileSlot(path)];
  file.data = std::move(contents);
  file.exists = true;
}

bool KernelRuntime::has_file(const std::string& path) const {
  const File* file = FindFile(path);
  return file != nullptr && file->exists;
}

std::vector<uint8_t> KernelRuntime::file_contents(
    const std::string& path) const {
  const File* file = FindFile(path);
  return file != nullptr && file->exists ? file->data : std::vector<uint8_t>{};
}

bool KernelRuntime::feed_socket(int pid, int64_t fd,
                                const std::vector<uint8_t>& bytes) {
  OpenFile* f = GetFd(pid, fd);
  if (!f || f->kind != FdKind::Socket) return false;
  state_.sockets[f->id].rx.PushFrom(
      bytes.size(), [&](uint8_t* dst, uint64_t off, uint64_t len) {
        std::copy_n(bytes.begin() + static_cast<ptrdiff_t>(off), len, dst);
        return true;
      });
  return true;
}

std::vector<uint8_t> KernelRuntime::socket_sent(int pid, int64_t fd) const {
  const ProcTable* proc = FindProc(pid);
  if (proc == nullptr) return {};
  for (const OpenFile& f : proc->fds) {
    if (f.fd == fd) {
      return f.kind == FdKind::Socket ? state_.sockets[f.id].tx
                                      : std::vector<uint8_t>{};
    }
  }
  return {};
}

void KernelRuntime::on_process_exit(int pid, int64_t code) {
  ProcTable& proc = Proc(pid);
  for (const OpenFile& f : proc.fds) Release(f);
  proc.fds.clear();
  proc.exited = true;
  proc.exit_code = code;
}

std::optional<int64_t> KernelRuntime::exit_code(int pid) const {
  const ProcTable* proc = FindProc(pid);
  if (proc == nullptr || !proc->exited) return std::nullopt;
  return proc->exit_code;
}

size_t KernelRuntime::open_fd_count(int pid) const {
  const ProcTable* proc = FindProc(pid);
  return proc == nullptr ? 0 : proc->fds.size();
}

KernelRuntime::ProcTable* KernelRuntime::FindProc(int pid) {
  return const_cast<ProcTable*>(std::as_const(*this).FindProc(pid));
}

const KernelRuntime::ProcTable* KernelRuntime::FindProc(int pid) const {
  if (pid < 0 || static_cast<size_t>(pid) >= state_.procs.size()) {
    return nullptr;
  }
  return &state_.procs[static_cast<size_t>(pid)];
}

KernelRuntime::ProcTable& KernelRuntime::Proc(int pid) {
  const size_t index = static_cast<size_t>(std::max(pid, 0));
  while (state_.procs.size() <= index) state_.procs.Add();
  return state_.procs[index];
}

KernelRuntime::OpenFile* KernelRuntime::GetFd(int pid, int64_t fd) {
  ProcTable* proc = FindProc(pid);
  if (proc == nullptr) return nullptr;
  for (OpenFile& f : proc->fds) {
    if (f.fd == fd) return &f;
  }
  return nullptr;
}

int64_t KernelRuntime::AllocFd(int pid, OpenFile file) {
  ProcTable& proc = Proc(pid);
  if (proc.fds.size() >= static_cast<size_t>(kMaxFdsPerProcess)) return -1;
  // next_fd is above every open descriptor, so appending keeps fds sorted.
  file.fd = proc.next_fd++;
  proc.fds.push_back(file);
  return file.fd;
}

void KernelRuntime::Release(const OpenFile& f) {
  if (f.kind == FdKind::PipeRead) {
    state_.pipes[f.id].readers--;
  } else if (f.kind == FdKind::PipeWrite) {
    state_.pipes[f.id].writers--;
  } else if (f.kind == FdKind::Socket) {
    state_.sockets[f.id].connected = false;
  }
}

void KernelRuntime::CloseFd(int pid, int64_t fd) {
  ProcTable* proc = FindProc(pid);
  if (proc == nullptr) return;
  for (auto it = proc->fds.begin(); it != proc->fds.end(); ++it) {
    if (it->fd == fd) {
      Release(*it);
      proc->fds.erase(it);
      return;
    }
  }
}

bool KernelRuntime::ReadPath(KernelContext& ctx, uint64_t addr) {
  path_.clear();
  for (uint64_t i = 0; i < 4096; ++i) {
    char c = 0;
    if (!ctx.read_mem(addr + i, &c, 1)) return false;
    if (c == '\0') return true;
    path_.push_back(c);
  }
  return false;  // unterminated
}

KResult KernelRuntime::Invoke(uint16_t number, KernelContext& ctx) {
  ++state_.kcalls;
  switch (static_cast<Sys>(number)) {
    case Sys::EXIT:
      ctx.request_exit(ctx.reg(isa::Reg::R1));
      return KResult::Ok(0);
    case Sys::OPEN: return DoOpen(ctx);
    case Sys::CLOSE: return DoClose(ctx);
    case Sys::READ: return DoRead(ctx);
    case Sys::WRITE: return DoWrite(ctx);
    case Sys::LSEEK: return DoLseek(ctx);
    case Sys::STAT: return DoStat(ctx);
    case Sys::UNLINK: return DoUnlink(ctx);
    case Sys::FSYNC: return DoFsync(ctx);
    case Sys::ALLOC: return DoAlloc(ctx);
    case Sys::FREE: return DoFree(ctx);
    case Sys::PIPE: return DoPipe(ctx);
    case Sys::SPAWN: return DoSpawn(ctx);
    case Sys::SOCKET: return DoSocket(ctx);
    case Sys::CONNECT: return DoConnect(ctx);
    case Sys::SEND: return DoSend(ctx);
    case Sys::RECV: return DoRecv(ctx);
    case Sys::GETPID: return KResult::Ok(ctx.pid());
    case Sys::YIELD: return KResult::Ok(0);
    case Sys::WAIT: return DoWait(ctx);
  }
  return KResult::Fail(E_NOSYS);
}

namespace {
/// Guest-memory adapters for ByteQueue and bulk copies: offset `off` of a
/// transfer maps to guest address `base + off`.
auto GuestReader(KernelContext& ctx, uint64_t base) {
  return [&ctx, base](uint8_t* dst, uint64_t off, uint64_t len) {
    return ctx.read_mem(base + off, dst, len);
  };
}
auto GuestWriter(KernelContext& ctx, uint64_t base) {
  return [&ctx, base](const uint8_t* src, uint64_t off, uint64_t len) {
    return ctx.write_mem(base + off, src, len);
  };
}
/// Copy `len` guest bytes at `base` into `dst` in one read; on a fault,
/// byte by byte, so exactly the bytes before the faulting one land.
bool ReadGuest(KernelContext& ctx, uint64_t base, uint8_t* dst, uint64_t len) {
  if (len == 0 || ctx.read_mem(base, dst, len)) return true;
  for (uint64_t i = 0; i < len; ++i) {
    if (!ctx.read_mem(base + i, dst + i, 1)) return false;
  }
  return true;
}
}  // namespace

KResult KernelRuntime::DoOpen(KernelContext& ctx) {
  if (!ReadPath(ctx, static_cast<uint64_t>(ctx.reg(isa::Reg::R1)))) {
    return KResult::Fail(E_ACCES);
  }
  int64_t flags = ctx.reg(isa::Reg::R2);
  const File* found = FindFile(path_);
  if ((found == nullptr || !found->exists) && !(flags & kO_CREAT)) {
    return KResult::Fail(E_NOENT);
  }
  OpenFile f;
  f.kind = FdKind::File;
  f.id = FileSlot(path_);
  File& file = state_.files[f.id];
  if (!file.exists) {
    file.exists = true;
  } else if (flags & kO_TRUNC) {
    file.data.clear();
  }
  f.pos = (flags & kO_APPEND) ? file.data.size() : 0;
  (void)kO_WRONLY;
  (void)kO_RDWR;
  int64_t fd = AllocFd(ctx.pid(), f);
  if (fd < 0) return KResult::Fail(E_MFILE);
  return KResult::Ok(fd);
}

KResult KernelRuntime::DoClose(KernelContext& ctx) {
  int64_t fd = ctx.reg(isa::Reg::R1);
  if (!GetFd(ctx.pid(), fd)) return KResult::Fail(E_BADF);
  CloseFd(ctx.pid(), fd);
  return KResult::Ok(0);
}

KResult KernelRuntime::DoRead(KernelContext& ctx) {
  int64_t fd = ctx.reg(isa::Reg::R1);
  uint64_t buf = static_cast<uint64_t>(ctx.reg(isa::Reg::R2));
  uint64_t count = static_cast<uint64_t>(ctx.reg(isa::Reg::R3));
  OpenFile* f = GetFd(ctx.pid(), fd);
  if (!f) return KResult::Fail(E_BADF);
  if (f->kind == FdKind::File) {
    const auto& data = FileData(*f);
    if (f->pos >= data.size()) return KResult::Ok(0);
    uint64_t n = std::min<uint64_t>(count, data.size() - f->pos);
    if (n && !ctx.write_mem(buf, data.data() + f->pos, n)) {
      return KResult::Fail(E_IO);
    }
    f->pos += n;
    return KResult::Ok(static_cast<int64_t>(n));
  }
  if (f->kind == FdKind::PipeRead) {
    Pipe& p = state_.pipes[f->id];
    if (p.buf.empty()) {
      if (p.writers == 0) return KResult::Ok(0);  // EOF
      return KResult::Block();
    }
    uint64_t n = std::min<uint64_t>(count, p.buf.size());
    if (!p.buf.PopTo(n, GuestWriter(ctx, buf))) return KResult::Fail(E_IO);
    return KResult::Ok(static_cast<int64_t>(n));
  }
  return KResult::Fail(E_BADF);  // read() on a socket/pipe-write end
}

KResult KernelRuntime::DoWrite(KernelContext& ctx) {
  int64_t fd = ctx.reg(isa::Reg::R1);
  uint64_t buf = static_cast<uint64_t>(ctx.reg(isa::Reg::R2));
  uint64_t count = static_cast<uint64_t>(ctx.reg(isa::Reg::R3));
  OpenFile* f = GetFd(ctx.pid(), fd);
  if (!f) return KResult::Fail(E_BADF);
  if (f->kind == FdKind::File) {
    auto& data = FileData(*f);
    // The file ends at pos + count, which must stay under the cap. Written
    // without the sum so a guest-chosen count or far-seeked pos cannot wrap
    // it past the check into a huge resize.
    constexpr uint64_t kMaxFileBytes = 64u << 20;
    if (count > kMaxFileBytes || f->pos > kMaxFileBytes - count) {
      return KResult::Fail(E_NOSPC);
    }
    if (f->pos + count > data.size()) data.resize(f->pos + count);
    if (!ReadGuest(ctx, buf, data.data() + f->pos, count)) {
      return KResult::Fail(E_IO);
    }
    f->pos += count;
    return KResult::Ok(static_cast<int64_t>(count));
  }
  if (f->kind == FdKind::PipeWrite) {
    Pipe& p = state_.pipes[f->id];
    if (p.readers == 0) return KResult::Fail(E_PIPE);
    if (p.buf.size() >= kPipeCapacity) return KResult::Block();
    uint64_t n = std::min<uint64_t>(count, kPipeCapacity - p.buf.size());
    if (!p.buf.PushFrom(n, GuestReader(ctx, buf))) return KResult::Fail(E_IO);
    return KResult::Ok(static_cast<int64_t>(n));
  }
  return KResult::Fail(E_BADF);
}

KResult KernelRuntime::DoLseek(KernelContext& ctx) {
  int64_t fd = ctx.reg(isa::Reg::R1);
  int64_t offset = ctx.reg(isa::Reg::R2);
  int64_t whence = ctx.reg(isa::Reg::R3);  // 0=SET, 1=CUR, 2=END
  OpenFile* f = GetFd(ctx.pid(), fd);
  if (!f || f->kind != FdKind::File) return KResult::Fail(E_BADF);
  const auto& data = FileData(*f);
  int64_t base = whence == 0   ? 0
                 : whence == 1 ? static_cast<int64_t>(f->pos)
                 : whence == 2 ? static_cast<int64_t>(data.size())
                               : -1;
  int64_t target = 0;
  if (base < 0 || __builtin_add_overflow(base, offset, &target) ||
      target < 0) {
    return KResult::Fail(E_INVAL);
  }
  f->pos = static_cast<uint64_t>(target);
  return KResult::Ok(static_cast<int64_t>(f->pos));
}

KResult KernelRuntime::DoStat(KernelContext& ctx) {
  if (!ReadPath(ctx, static_cast<uint64_t>(ctx.reg(isa::Reg::R1)))) {
    return KResult::Fail(E_ACCES);
  }
  const File* file = FindFile(path_);
  if (file == nullptr || !file->exists) return KResult::Fail(E_NOENT);
  // stat() reports the size through the output pointer in R2 (if non-null).
  uint64_t out = static_cast<uint64_t>(ctx.reg(isa::Reg::R2));
  if (out != 0) {
    int64_t size = static_cast<int64_t>(file->data.size());
    if (!ctx.write_mem(out, &size, 8)) return KResult::Fail(E_ACCES);
  }
  return KResult::Ok(static_cast<int64_t>(file->data.size()));
}

KResult KernelRuntime::DoUnlink(KernelContext& ctx) {
  if (!ReadPath(ctx, static_cast<uint64_t>(ctx.reg(isa::Reg::R1)))) {
    return KResult::Fail(E_ACCES);
  }
  File* file = FindFile(path_);
  if (file == nullptr || !file->exists) return KResult::Fail(E_NOENT);
  file->exists = false;
  file->data.clear();
  return KResult::Ok(0);
}

KResult KernelRuntime::DoFsync(KernelContext& ctx) {
  int64_t fd = ctx.reg(isa::Reg::R1);
  OpenFile* f = GetFd(ctx.pid(), fd);
  if (!f || f->kind != FdKind::File) return KResult::Fail(E_BADF);
  return KResult::Ok(0);
}

KResult KernelRuntime::DoAlloc(KernelContext& ctx) {
  uint64_t size = static_cast<uint64_t>(ctx.reg(isa::Reg::R1));
  uint64_t addr = ctx.alloc_heap(size);
  if (addr == 0) return KResult::Fail(E_NOMEM);
  return KResult::Ok(static_cast<int64_t>(addr));
}

KResult KernelRuntime::DoFree(KernelContext& ctx) {
  // The bump allocator does not reclaim; free() validates its argument only.
  uint64_t addr = static_cast<uint64_t>(ctx.reg(isa::Reg::R1));
  if (addr == 0) return KResult::Ok(0);
  return KResult::Ok(0);
}

KResult KernelRuntime::DoPipe(KernelContext& ctx) {
  uint64_t out = static_cast<uint64_t>(ctx.reg(isa::Reg::R1));
  if (out == 0) return KResult::Fail(E_FAULT);
  const auto pipe_id = static_cast<uint32_t>(state_.pipes.size());
  state_.pipes.Add();
  OpenFile rd;
  rd.kind = FdKind::PipeRead;
  rd.id = pipe_id;
  OpenFile wr;
  wr.kind = FdKind::PipeWrite;
  wr.id = pipe_id;
  int64_t rfd = AllocFd(ctx.pid(), rd);
  if (rfd < 0) return KResult::Fail(E_MFILE);
  int64_t wfd = AllocFd(ctx.pid(), wr);
  if (wfd < 0) {
    CloseFd(ctx.pid(), rfd);
    return KResult::Fail(E_MFILE);
  }
  state_.pipes[pipe_id].readers = 1;
  state_.pipes[pipe_id].writers = 1;
  if (!ctx.write_mem(out, &rfd, 8) || !ctx.write_mem(out + 8, &wfd, 8)) {
    return KResult::Fail(E_FAULT);
  }
  return KResult::Ok(0);
}

KResult KernelRuntime::DoSpawn(KernelContext& ctx) {
  if (!spawn_) return KResult::Fail(E_AGAIN);
  if (!ReadPath(ctx, static_cast<uint64_t>(ctx.reg(isa::Reg::R1)))) {
    return KResult::Fail(E_NOENT);
  }
  auto pid = spawn_(path_);
  if (!pid.ok()) return KResult::Fail(E_NOENT);
  // The child inherits the parent's open pipe descriptors (fork-lite):
  // duplicate the parent's fd table entries that refer to pipes. Both
  // tables are ascending, so the child's stays sorted.
  ProcTable& child = Proc(pid.value());
  const ProcTable& parent = Proc(ctx.pid());  // after child: no regrowth
  for (const OpenFile& file : parent.fds) {
    if (file.kind == FdKind::PipeRead || file.kind == FdKind::PipeWrite) {
      child.fds.push_back(file);
      child.next_fd = std::max(child.next_fd, file.fd + 1);
      Pipe& p = state_.pipes[file.id];
      if (file.kind == FdKind::PipeRead) p.readers++;
      else p.writers++;
    }
  }
  return KResult::Ok(pid.value());
}

KResult KernelRuntime::DoSocket(KernelContext& ctx) {
  const auto sock_id = static_cast<uint32_t>(state_.sockets.size());
  state_.sockets.Add();
  OpenFile f;
  f.kind = FdKind::Socket;
  f.id = sock_id;
  int64_t fd = AllocFd(ctx.pid(), f);
  if (fd < 0) return KResult::Fail(E_MFILE);
  return KResult::Ok(fd);
}

KResult KernelRuntime::DoConnect(KernelContext& ctx) {
  int64_t fd = ctx.reg(isa::Reg::R1);
  int64_t port = ctx.reg(isa::Reg::R2);
  OpenFile* f = GetFd(ctx.pid(), fd);
  if (!f || f->kind != FdKind::Socket) return KResult::Fail(E_BADF);
  const std::vector<int64_t>& listening = state_.listening;
  if (std::find(listening.begin(), listening.end(), port) == listening.end()) {
    return KResult::Fail(E_CONNREFUSED);
  }
  state_.sockets[f->id].connected = true;
  return KResult::Ok(0);
}

KResult KernelRuntime::DoSend(KernelContext& ctx) {
  int64_t fd = ctx.reg(isa::Reg::R1);
  uint64_t buf = static_cast<uint64_t>(ctx.reg(isa::Reg::R2));
  uint64_t count = static_cast<uint64_t>(ctx.reg(isa::Reg::R3));
  OpenFile* f = GetFd(ctx.pid(), fd);
  if (!f || f->kind != FdKind::Socket) return KResult::Fail(E_BADF);
  Socket& s = state_.sockets[f->id];
  if (s.reset) return KResult::Fail(E_CONNRESET);
  if (!s.connected) return KResult::Fail(E_PIPE);
  for (uint64_t i = 0; i < count; ++i) {
    uint8_t byte = 0;
    if (!ctx.read_mem(buf + i, &byte, 1)) return KResult::Fail(E_CONNRESET);
    s.tx.push_back(byte);
  }
  return KResult::Ok(static_cast<int64_t>(count));
}

KResult KernelRuntime::DoRecv(KernelContext& ctx) {
  int64_t fd = ctx.reg(isa::Reg::R1);
  uint64_t buf = static_cast<uint64_t>(ctx.reg(isa::Reg::R2));
  uint64_t count = static_cast<uint64_t>(ctx.reg(isa::Reg::R3));
  OpenFile* f = GetFd(ctx.pid(), fd);
  if (!f || f->kind != FdKind::Socket) return KResult::Fail(E_BADF);
  Socket& s = state_.sockets[f->id];
  if (s.reset) return KResult::Fail(E_CONNRESET);
  if (s.rx.empty()) return KResult::Ok(0);  // no data: synthetic EOF
  uint64_t n = std::min<uint64_t>(count, s.rx.size());
  if (!s.rx.PopTo(n, GuestWriter(ctx, buf))) {
    return KResult::Fail(E_CONNRESET);
  }
  return KResult::Ok(static_cast<int64_t>(n));
}

KResult KernelRuntime::DoWait(KernelContext& ctx) {
  int pid = static_cast<int>(ctx.reg(isa::Reg::R1));
  if (const ProcTable* proc = FindProc(pid); proc && proc->exited) {
    return KResult::Ok(proc->exit_code);
  }
  // Unknown pid vs still-running is distinguished by the scheduler having
  // registered the pid at spawn; the runtime only sees exit records, so a
  // never-spawned pid blocks forever — the Machine run loop detects global
  // deadlock and reports it. Known-bad pids (negative) fail fast.
  if (pid < 0) return KResult::Fail(E_CHILD);
  return KResult::Block();
}

}  // namespace lfi::kernel
