// KernelRuntime: native semantics behind the KCALL instruction.
//
// The kernel *image* (kernel_image.hpp) is what the profiler analyzes; this
// class is what actually happens when a handler executes its KCALL. It owns
// the machine-wide state: an in-memory filesystem, pipes, loopback sockets,
// the process exit table, and the spawn hook. Per-process state (registers,
// memory, heap) is reached through the KernelContext interface, implemented
// by vm::Process — keeping this module independent of the VM.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "isa/isa.hpp"
#include "kernel/syscalls.hpp"
#include "util/result.hpp"

namespace lfi::kernel {

/// Window into the calling process, implemented by vm::Process.
class KernelContext {
 public:
  virtual ~KernelContext() = default;

  virtual int64_t reg(isa::Reg r) const = 0;
  virtual void set_reg(isa::Reg r, int64_t v) = 0;
  virtual bool read_mem(uint64_t addr, void* out, uint64_t len) = 0;
  virtual bool write_mem(uint64_t addr, const void* src, uint64_t len) = 0;
  /// Bump allocation from the process heap; 0 when the heap cap is hit.
  virtual uint64_t alloc_heap(uint64_t size) = 0;
  virtual int pid() const = 0;
  virtual void request_exit(int64_t code) = 0;
};

/// Outcome of a native operation.
struct KResult {
  enum class Kind { Ok, Fail, Block } kind = Kind::Ok;
  int64_t value = 0;       // success return value
  int32_t error = 0;       // errno on Fail

  static KResult Ok(int64_t v) { return {Kind::Ok, v, 0}; }
  static KResult Fail(int32_t err) { return {Kind::Fail, 0, err}; }
  static KResult Block() { return {Kind::Block, 0, 0}; }
};

/// File descriptor kinds.
enum class FdKind { File, PipeRead, PipeWrite, Socket };

/// A FIFO of bytes (pipe contents, a socket's receive queue): a ring over
/// storage that only grows. A queue assigned from another keeps its
/// storage when that is large enough, so a pipe restored by a snapshot
/// writes into the capacity it already had.
class ByteQueue {
 public:
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void clear() { head_ = size_ = 0; }
  /// Append `n` bytes read by `read(dst, offset, len)` (a false return is
  /// a fault at that offset). Bytes before a fault stay queued, as a
  /// byte-at-a-time copy would leave them; returns false on a fault.
  template <typename Read>
  bool PushFrom(uint64_t n, Read&& read);
  /// Remove up to `n` bytes, handing them to `write(src, offset, len)` in
  /// order. A false return is a fault at that offset: the bytes before it
  /// and the faulting byte itself are consumed; returns false.
  template <typename Write>
  bool PopTo(uint64_t n, Write&& write);

 private:
  /// Grow the ring to hold `bytes`, unwrapping the contents.
  void Reserve(uint64_t bytes);

  std::vector<uint8_t> ring_;  // capacity: ring_.size(), a power of two
  uint64_t head_ = 0;
  uint64_t size_ = 0;
};

/// A vector whose slots past size() keep their storage: copy-assignment
/// copies element-wise into the slots it already has, and Add() reuses a
/// spare slot. A copy (a snapshot) holds only the live slots. This is what
/// lets a kernel state be restored without allocating once it is warm.
template <typename T>
class Slots {
 public:
  Slots() = default;
  Slots(const Slots& other) : items_(other.begin(), other.end()),
                              size_(other.size_) {}
  Slots& operator=(const Slots& other) {
    if (this == &other) return *this;
    for (size_t i = 0; i < other.size_; ++i) {
      if (i < items_.size()) items_[i] = other.items_[i];
      else items_.push_back(other.items_[i]);
    }
    size_ = other.size_;
    return *this;
  }
  Slots(Slots&&) noexcept = default;
  Slots& operator=(Slots&&) noexcept = default;

  size_t size() const { return size_; }
  T& operator[](size_t i) { return items_[i]; }
  const T& operator[](size_t i) const { return items_[i]; }
  const T* begin() const { return items_.data(); }
  const T* end() const { return items_.data() + size_; }
  /// Append a slot in its cleared state (T::Clear keeps storage).
  T& Add() {
    if (size_ == items_.size()) items_.emplace_back();
    else items_[size_].Clear();
    return items_[size_++];
  }
  /// Drop every slot (storage stays for later Adds).
  void clear() { size_ = 0; }

 private:
  std::vector<T> items_;
  size_t size_ = 0;
};

class KernelRuntime {
 public:
  /// One open descriptor. `id` indexes the state's files, pipes or sockets
  /// by kind; a file is named by its slot, so the descriptor holds no path.
  struct OpenFile {
    int64_t fd = 0;
    FdKind kind = FdKind::File;
    uint32_t id = 0;
    uint64_t pos = 0;  // File
  };

  /// One in-memory file. Unlinking keeps the slot (and its name) with
  /// `exists` off, because descriptors refer to files by name: I/O on a
  /// descriptor of an unlinked file recreates it empty.
  struct File {
    std::string path;
    std::vector<uint8_t> data;
    bool exists = true;
    void Clear() {
      path.clear();
      data.clear();
      exists = true;
    }
  };

  /// One process's kernel-side state, indexed by pid. A cleared slot is
  /// indistinguishable from a pid the kernel never saw.
  struct ProcTable {
    std::vector<OpenFile> fds;  // ascending fd
    int64_t next_fd = 3;        // 0-2 reserved
    bool exited = false;
    int64_t exit_code = 0;
    void Clear() {
      fds.clear();
      next_fd = 3;
      exited = false;
      exit_code = 0;
    }
  };

  struct Pipe {
    ByteQueue buf;
    int readers = 0;
    int writers = 0;
    void Clear() {
      buf.clear();
      readers = writers = 0;
    }
  };

  struct Socket {
    ByteQueue rx;
    std::vector<uint8_t> tx;
    bool connected = false;
    bool reset = false;
    void Clear() {
      rx.clear();
      tx.clear();
      connected = reset = false;
    }
  };

  /// The kernel's complete mutable state: filesystem, listening ports,
  /// per-pid tables, pipes, sockets and the kcall counter. One
  /// representation serves the live kernel and every vm::Machine snapshot
  /// node, the checkpoint root included: a restored machine resumes with
  /// its descriptors and counters exactly as they were, and restoring
  /// into a warm kernel reuses its storage.
  struct State {
    Slots<File> files;
    /// File slots ordered by path, for lookup by name.
    std::vector<uint32_t> files_by_path;
    std::vector<int64_t> listening;
    Slots<ProcTable> procs;  // index: pid
    Slots<Pipe> pipes;
    Slots<Socket> sockets;
    uint64_t kcalls = 0;
  };

  KernelRuntime();

  /// Execute KCALL `number` on behalf of `ctx`. Arguments are in R1..R5.
  KResult Invoke(uint16_t number, KernelContext& ctx);

  /// Copy out / reinstate the complete mutable state. vm::Machine's
  /// checkpoint and snapshot nodes hold these; restoring one is what makes
  /// a kernel reusable across campaign scenarios.
  State CaptureState() const;
  void RestoreState(const State& state);

  // -- host-side configuration ---------------------------------------------
  /// Create / overwrite a file in the in-memory FS.
  void add_file(const std::string& path, std::vector<uint8_t> contents);
  bool has_file(const std::string& path) const;
  /// Contents of a file (empty if missing).
  std::vector<uint8_t> file_contents(const std::string& path) const;

  /// Mark a TCP-like port as listening, so connect() to it succeeds.
  void listen(int64_t port) { state_.listening.push_back(port); }

  /// Queue bytes that a subsequent recv() on `(pid, fd)` will observe.
  bool feed_socket(int pid, int64_t fd, const std::vector<uint8_t>& bytes);
  /// Bytes sent so far through `(pid, fd)`.
  std::vector<uint8_t> socket_sent(int pid, int64_t fd) const;

  /// Hook used by SYS_SPAWN: resolve a symbol name to a new process, return
  /// its pid. Installed by vm::Machine.
  using SpawnHook = std::function<Result<int>(const std::string& symbol)>;
  void set_spawn_hook(SpawnHook hook) { spawn_ = std::move(hook); }

  /// Called by the scheduler when a process terminates: releases its fds
  /// (closing pipe ends) and records the exit code for wait().
  void on_process_exit(int pid, int64_t code);

  /// Exit code of a terminated process, if any.
  std::optional<int64_t> exit_code(int pid) const;

  /// Per-process open descriptor count (testing / leak checks).
  size_t open_fd_count(int pid) const;

  /// Total number of KCALLs serviced (used by efficiency accounting).
  uint64_t kcall_count() const { return state_.kcalls; }

 private:
  // Syscall implementations (args already fetched from ctx).
  KResult DoOpen(KernelContext& ctx);
  KResult DoClose(KernelContext& ctx);
  KResult DoRead(KernelContext& ctx);
  KResult DoWrite(KernelContext& ctx);
  KResult DoLseek(KernelContext& ctx);
  KResult DoStat(KernelContext& ctx);
  KResult DoUnlink(KernelContext& ctx);
  KResult DoFsync(KernelContext& ctx);
  KResult DoAlloc(KernelContext& ctx);
  KResult DoFree(KernelContext& ctx);
  KResult DoPipe(KernelContext& ctx);
  KResult DoSpawn(KernelContext& ctx);
  KResult DoSocket(KernelContext& ctx);
  KResult DoConnect(KernelContext& ctx);
  KResult DoSend(KernelContext& ctx);
  KResult DoRecv(KernelContext& ctx);
  KResult DoWait(KernelContext& ctx);

  /// Read a NUL-terminated string (capped) from process memory into
  /// path_; false on a fault or a missing terminator.
  bool ReadPath(KernelContext& ctx, uint64_t addr);

  /// File slot named `path`, or nullptr when it never existed.
  File* FindFile(const std::string& path);
  const File* FindFile(const std::string& path) const;
  /// File slot named `path`, created (not existing) on first sight.
  uint32_t FileSlot(const std::string& path);
  /// The file behind a descriptor, recreated empty if it was unlinked.
  std::vector<uint8_t>& FileData(const OpenFile& f);

  /// The pid's table, or nullptr for a pid the kernel has no slot for.
  ProcTable* FindProc(int pid);
  const ProcTable* FindProc(int pid) const;
  /// The pid's table, adding cleared slots up to it.
  ProcTable& Proc(int pid);
  OpenFile* GetFd(int pid, int64_t fd);
  int64_t AllocFd(int pid, OpenFile file);
  void CloseFd(int pid, int64_t fd);
  /// Release a descriptor's hold on its pipe or socket.
  void Release(const OpenFile& f);

  State state_;
  SpawnHook spawn_;
  std::string path_;  // ReadPath scratch

  static constexpr int64_t kMaxFdsPerProcess = 64;
  static constexpr size_t kPipeCapacity = 65536;
};

template <typename Read>
bool ByteQueue::PushFrom(uint64_t n, Read&& read) {
  Reserve(size_ + n);
  const uint64_t mask = ring_.size() - 1;
  uint64_t done = 0;
  while (done < n) {
    // The free space from the tail runs to the end of storage, then wraps.
    const uint64_t tail = (head_ + size_) & mask;
    const uint64_t len = std::min(n - done, ring_.size() - tail);
    if (!read(ring_.data() + tail, done, len)) {
      // Find the faulting byte: everything before it is queued.
      for (uint64_t i = 0; i < len; ++i) {
        if (!read(ring_.data() + tail + i, done + i, 1)) return false;
        ++size_;
      }
    } else {
      size_ += len;
    }
    done += len;
  }
  return true;
}

template <typename Write>
bool ByteQueue::PopTo(uint64_t n, Write&& write) {
  n = std::min(n, size_);
  const uint64_t mask = ring_.size() - 1;
  uint64_t done = 0;
  while (done < n) {
    const uint64_t len = std::min(n - done, ring_.size() - head_);
    if (!write(ring_.data() + head_, done, len)) {
      for (uint64_t i = 0; i < len; ++i) {
        const bool ok = write(ring_.data() + head_, done + i, 1);
        head_ = (head_ + 1) & mask;
        --size_;
        if (!ok) return false;
      }
    } else {
      head_ = (head_ + len) & mask;
      size_ -= len;
    }
    done += len;
  }
  return true;
}

}  // namespace lfi::kernel
