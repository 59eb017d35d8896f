#include "kernel/kernel_runtime.hpp"

#include <algorithm>

namespace lfi::kernel {

namespace {
// open() flag bits (libc exposes the same values).
constexpr int64_t kO_WRONLY = 1;
constexpr int64_t kO_RDWR = 2;
constexpr int64_t kO_CREAT = 0x40;
constexpr int64_t kO_TRUNC = 0x200;
constexpr int64_t kO_APPEND = 0x400;
}  // namespace

KernelRuntime::KernelRuntime() = default;

void KernelRuntime::Checkpoint() { checkpoint_ = CaptureState(); }

void KernelRuntime::Reset() {
  if (checkpoint_) {
    RestoreState(*checkpoint_);
    return;
  }
  // No checkpoint: drop per-run state but keep the configured filesystem
  // and listening ports (the historical contract — configuration done
  // before the implicit first-CreateProcess checkpoint must survive).
  fds_.clear();
  next_fd_.clear();
  pipes_.clear();
  sockets_.clear();
  exited_.clear();
  kcalls_ = 0;
}

KernelRuntime::State KernelRuntime::CaptureState() const {
  return State{files_,   listening_, fds_,    next_fd_,
               pipes_,   sockets_,   exited_, kcalls_};
}

void KernelRuntime::RestoreState(const State& state) {
  files_ = state.files;
  listening_ = state.listening;
  fds_ = state.fds;
  next_fd_ = state.next_fd;
  pipes_ = state.pipes;
  sockets_ = state.sockets;
  exited_ = state.exited;
  kcalls_ = state.kcalls;
}

void KernelRuntime::add_file(const std::string& path,
                             std::vector<uint8_t> contents) {
  files_[path] = std::move(contents);
}

bool KernelRuntime::has_file(const std::string& path) const {
  return files_.count(path) > 0;
}

std::vector<uint8_t> KernelRuntime::file_contents(
    const std::string& path) const {
  auto it = files_.find(path);
  return it == files_.end() ? std::vector<uint8_t>{} : it->second;
}

bool KernelRuntime::feed_socket(int pid, int64_t fd,
                                const std::vector<uint8_t>& bytes) {
  OpenFile* f = GetFd(pid, fd);
  if (!f || f->kind != FdKind::Socket) return false;
  Socket& s = sockets_[static_cast<size_t>(f->sock_id)];
  s.rx.insert(s.rx.end(), bytes.begin(), bytes.end());
  return true;
}

std::vector<uint8_t> KernelRuntime::socket_sent(int pid, int64_t fd) const {
  auto pit = fds_.find(pid);
  if (pit == fds_.end()) return {};
  auto fit = pit->second.find(fd);
  if (fit == pit->second.end() || fit->second.kind != FdKind::Socket) return {};
  return sockets_[static_cast<size_t>(fit->second.sock_id)].tx;
}

void KernelRuntime::on_process_exit(int pid, int64_t code) {
  auto it = fds_.find(pid);
  if (it != fds_.end()) {
    std::vector<int64_t> open;
    for (const auto& [fd, file] : it->second) open.push_back(fd);
    for (int64_t fd : open) CloseFd(pid, fd);
    fds_.erase(pid);
  }
  exited_[pid] = code;
}

std::optional<int64_t> KernelRuntime::exit_code(int pid) const {
  auto it = exited_.find(pid);
  if (it == exited_.end()) return std::nullopt;
  return it->second;
}

size_t KernelRuntime::open_fd_count(int pid) const {
  auto it = fds_.find(pid);
  return it == fds_.end() ? 0 : it->second.size();
}

KernelRuntime::OpenFile* KernelRuntime::GetFd(int pid, int64_t fd) {
  auto pit = fds_.find(pid);
  if (pit == fds_.end()) return nullptr;
  auto fit = pit->second.find(fd);
  return fit == pit->second.end() ? nullptr : &fit->second;
}

int64_t KernelRuntime::AllocFd(int pid, OpenFile file) {
  if (fds_[pid].size() >= static_cast<size_t>(kMaxFdsPerProcess)) return -1;
  int64_t fd = next_fd_.count(pid) ? next_fd_[pid] : 3;  // 0-2 reserved
  next_fd_[pid] = fd + 1;
  fds_[pid].emplace(fd, std::move(file));
  return fd;
}

void KernelRuntime::CloseFd(int pid, int64_t fd) {
  OpenFile* f = GetFd(pid, fd);
  if (!f) return;
  if (f->kind == FdKind::PipeRead) {
    pipes_[static_cast<size_t>(f->pipe_id)].readers--;
  } else if (f->kind == FdKind::PipeWrite) {
    pipes_[static_cast<size_t>(f->pipe_id)].writers--;
  } else if (f->kind == FdKind::Socket) {
    sockets_[static_cast<size_t>(f->sock_id)].connected = false;
  }
  fds_[pid].erase(fd);
}

std::optional<std::string> KernelRuntime::ReadPath(KernelContext& ctx,
                                                   uint64_t addr) {
  std::string path;
  for (uint64_t i = 0; i < 4096; ++i) {
    char c = 0;
    if (!ctx.read_mem(addr + i, &c, 1)) return std::nullopt;
    if (c == '\0') return path;
    path.push_back(c);
  }
  return std::nullopt;  // unterminated
}

KResult KernelRuntime::Invoke(uint16_t number, KernelContext& ctx) {
  ++kcalls_;
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

KResult KernelRuntime::DoOpen(KernelContext& ctx) {
  auto path = ReadPath(ctx, static_cast<uint64_t>(ctx.reg(isa::Reg::R1)));
  if (!path) return KResult::Fail(E_ACCES);
  int64_t flags = ctx.reg(isa::Reg::R2);
  auto it = files_.find(*path);
  if (it == files_.end()) {
    if (!(flags & kO_CREAT)) return KResult::Fail(E_NOENT);
    files_[*path] = {};
    it = files_.find(*path);
  } else if (flags & kO_TRUNC) {
    it->second.clear();
  }
  OpenFile f;
  f.kind = FdKind::File;
  f.path = *path;
  f.pos = (flags & kO_APPEND) ? it->second.size() : 0;
  (void)kO_WRONLY;
  (void)kO_RDWR;
  int64_t fd = AllocFd(ctx.pid(), std::move(f));
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
    const auto& data = files_[f->path];
    if (f->pos >= data.size()) return KResult::Ok(0);
    uint64_t n = std::min<uint64_t>(count, data.size() - f->pos);
    if (n && !ctx.write_mem(buf, data.data() + f->pos, n)) {
      return KResult::Fail(E_IO);
    }
    f->pos += n;
    return KResult::Ok(static_cast<int64_t>(n));
  }
  if (f->kind == FdKind::PipeRead) {
    Pipe& p = pipes_[static_cast<size_t>(f->pipe_id)];
    if (p.buf.empty()) {
      if (p.writers == 0) return KResult::Ok(0);  // EOF
      return KResult::Block();
    }
    uint64_t n = std::min<uint64_t>(count, p.buf.size());
    for (uint64_t i = 0; i < n; ++i) {
      uint8_t byte = p.buf.front();
      p.buf.pop_front();
      if (!ctx.write_mem(buf + i, &byte, 1)) return KResult::Fail(E_IO);
    }
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
    auto& data = files_[f->path];
    // The file ends at pos + count, which must stay under the cap. Written
    // without the sum so a guest-chosen count or far-seeked pos cannot wrap
    // it past the check into a huge resize.
    constexpr uint64_t kMaxFileBytes = 64u << 20;
    if (count > kMaxFileBytes || f->pos > kMaxFileBytes - count) {
      return KResult::Fail(E_NOSPC);
    }
    if (f->pos + count > data.size()) data.resize(f->pos + count);
    for (uint64_t i = 0; i < count; ++i) {
      uint8_t byte = 0;
      if (!ctx.read_mem(buf + i, &byte, 1)) return KResult::Fail(E_IO);
      data[f->pos + i] = byte;
    }
    f->pos += count;
    return KResult::Ok(static_cast<int64_t>(count));
  }
  if (f->kind == FdKind::PipeWrite) {
    Pipe& p = pipes_[static_cast<size_t>(f->pipe_id)];
    if (p.readers == 0) return KResult::Fail(E_PIPE);
    if (p.buf.size() >= kPipeCapacity) return KResult::Block();
    uint64_t n = std::min<uint64_t>(count, kPipeCapacity - p.buf.size());
    for (uint64_t i = 0; i < n; ++i) {
      uint8_t byte = 0;
      if (!ctx.read_mem(buf + i, &byte, 1)) return KResult::Fail(E_IO);
      p.buf.push_back(byte);
    }
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
  const auto& data = files_[f->path];
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
  auto path = ReadPath(ctx, static_cast<uint64_t>(ctx.reg(isa::Reg::R1)));
  if (!path) return KResult::Fail(E_ACCES);
  auto it = files_.find(*path);
  if (it == files_.end()) return KResult::Fail(E_NOENT);
  // stat() reports the size through the output pointer in R2 (if non-null).
  uint64_t out = static_cast<uint64_t>(ctx.reg(isa::Reg::R2));
  if (out != 0) {
    int64_t size = static_cast<int64_t>(it->second.size());
    if (!ctx.write_mem(out, &size, 8)) return KResult::Fail(E_ACCES);
  }
  return KResult::Ok(static_cast<int64_t>(it->second.size()));
}

KResult KernelRuntime::DoUnlink(KernelContext& ctx) {
  auto path = ReadPath(ctx, static_cast<uint64_t>(ctx.reg(isa::Reg::R1)));
  if (!path) return KResult::Fail(E_ACCES);
  auto it = files_.find(*path);
  if (it == files_.end()) return KResult::Fail(E_NOENT);
  files_.erase(it);
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
  pipes_.push_back(Pipe{});
  int pipe_id = static_cast<int>(pipes_.size() - 1);
  OpenFile rd;
  rd.kind = FdKind::PipeRead;
  rd.pipe_id = pipe_id;
  OpenFile wr;
  wr.kind = FdKind::PipeWrite;
  wr.pipe_id = pipe_id;
  int64_t rfd = AllocFd(ctx.pid(), rd);
  if (rfd < 0) return KResult::Fail(E_MFILE);
  int64_t wfd = AllocFd(ctx.pid(), wr);
  if (wfd < 0) {
    CloseFd(ctx.pid(), rfd);
    return KResult::Fail(E_MFILE);
  }
  pipes_[static_cast<size_t>(pipe_id)].readers = 1;
  pipes_[static_cast<size_t>(pipe_id)].writers = 1;
  if (!ctx.write_mem(out, &rfd, 8) || !ctx.write_mem(out + 8, &wfd, 8)) {
    return KResult::Fail(E_FAULT);
  }
  return KResult::Ok(0);
}

KResult KernelRuntime::DoSpawn(KernelContext& ctx) {
  if (!spawn_) return KResult::Fail(E_AGAIN);
  auto symbol = ReadPath(ctx, static_cast<uint64_t>(ctx.reg(isa::Reg::R1)));
  if (!symbol) return KResult::Fail(E_NOENT);
  auto pid = spawn_(*symbol);
  if (!pid.ok()) return KResult::Fail(E_NOENT);
  // The child inherits the parent's open pipe descriptors (fork-lite):
  // duplicate the parent's fd table entries that refer to pipes.
  for (const auto& [fd, file] : fds_[ctx.pid()]) {
    if (file.kind == FdKind::PipeRead || file.kind == FdKind::PipeWrite) {
      fds_[pid.value()].emplace(fd, file);
      next_fd_[pid.value()] =
          std::max(next_fd_.count(pid.value()) ? next_fd_[pid.value()] : 3,
                   fd + 1);
      Pipe& p = pipes_[static_cast<size_t>(file.pipe_id)];
      if (file.kind == FdKind::PipeRead) p.readers++;
      else p.writers++;
    }
  }
  return KResult::Ok(pid.value());
}

KResult KernelRuntime::DoSocket(KernelContext& ctx) {
  sockets_.push_back(Socket{});
  OpenFile f;
  f.kind = FdKind::Socket;
  f.sock_id = static_cast<int>(sockets_.size() - 1);
  int64_t fd = AllocFd(ctx.pid(), f);
  if (fd < 0) return KResult::Fail(E_MFILE);
  return KResult::Ok(fd);
}

KResult KernelRuntime::DoConnect(KernelContext& ctx) {
  int64_t fd = ctx.reg(isa::Reg::R1);
  int64_t port = ctx.reg(isa::Reg::R2);
  OpenFile* f = GetFd(ctx.pid(), fd);
  if (!f || f->kind != FdKind::Socket) return KResult::Fail(E_BADF);
  if (std::find(listening_.begin(), listening_.end(), port) ==
      listening_.end()) {
    return KResult::Fail(E_CONNREFUSED);
  }
  sockets_[static_cast<size_t>(f->sock_id)].connected = true;
  return KResult::Ok(0);
}

KResult KernelRuntime::DoSend(KernelContext& ctx) {
  int64_t fd = ctx.reg(isa::Reg::R1);
  uint64_t buf = static_cast<uint64_t>(ctx.reg(isa::Reg::R2));
  uint64_t count = static_cast<uint64_t>(ctx.reg(isa::Reg::R3));
  OpenFile* f = GetFd(ctx.pid(), fd);
  if (!f || f->kind != FdKind::Socket) return KResult::Fail(E_BADF);
  Socket& s = sockets_[static_cast<size_t>(f->sock_id)];
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
  Socket& s = sockets_[static_cast<size_t>(f->sock_id)];
  if (s.reset) return KResult::Fail(E_CONNRESET);
  if (s.rx.empty()) return KResult::Ok(0);  // no data: synthetic EOF
  uint64_t n = std::min<uint64_t>(count, s.rx.size());
  for (uint64_t i = 0; i < n; ++i) {
    uint8_t byte = s.rx.front();
    s.rx.pop_front();
    if (!ctx.write_mem(buf + i, &byte, 1)) return KResult::Fail(E_CONNRESET);
  }
  return KResult::Ok(static_cast<int64_t>(n));
}

KResult KernelRuntime::DoWait(KernelContext& ctx) {
  int pid = static_cast<int>(ctx.reg(isa::Reg::R1));
  auto it = exited_.find(pid);
  if (it != exited_.end()) return KResult::Ok(it->second);
  // Unknown pid vs still-running is distinguished by the scheduler having
  // registered the pid at spawn; the runtime only sees exit records, so a
  // never-spawned pid blocks forever — the Machine run loop detects global
  // deadlock and reports it. Known-bad pids (negative) fail fast.
  if (pid < 0) return KResult::Fail(E_CHILD);
  return KResult::Block();
}

}  // namespace lfi::kernel
