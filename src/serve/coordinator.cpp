#include "serve/coordinator.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <netdb.h>
#include <poll.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <map>
#include <mutex>
#include <thread>

namespace lfi::serve {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// connect(2) with EINTR handling. A signal can interrupt a blocking
/// connect after the handshake is already in flight; re-calling connect
/// then fails with EALREADY/EISCONN, so the correct recovery is to poll
/// for writability and read the final status from SO_ERROR.
int ConnectRetryEintr(int fd, const struct sockaddr* addr, socklen_t len) {
  if (::connect(fd, addr, len) == 0) return 0;
  if (errno != EINTR) return -1;
  struct pollfd p = {};
  p.fd = fd;
  p.events = POLLOUT;
  int rc;
  do {
    rc = ::poll(&p, 1, -1);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) return -1;
  int so_error = 0;
  socklen_t so_len = sizeof(so_error);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &so_len) < 0) {
    return -1;
  }
  if (so_error != 0) {
    errno = so_error;
    return -1;
  }
  return 0;
}

/// Batches a connection keeps in flight, so a worker's next batch is
/// already buffered while the coordinator decodes its last reply.
constexpr size_t kPipelineDepth = 2;
/// Total dispatch attempts per batch (first send + retries + steals)
/// before it falls through to the local runner.
constexpr int kMaxBatchAttempts = 3;
/// Bounds of a guided batch (FabricOptions::batch_size == 0).
constexpr size_t kMinGuidedBatch = 4;
constexpr size_t kMaxGuidedBatch = 64;
/// "No batch" from RunState::Claim, and the placeholder for a reply owed
/// to a round that has already ended (read and dropped).
constexpr size_t kNone = SIZE_MAX;

/// Owns an eventfd for one Run.
struct EventFd {
  int fd = ::eventfd(0, EFD_CLOEXEC);
  EventFd() = default;
  ~EventFd() {
    if (fd >= 0) ::close(fd);
  }
  EventFd(const EventFd&) = delete;
  EventFd& operator=(const EventFd&) = delete;
};

}  // namespace

/// Per-Run shared state. One mutex guards all of it: batch bookkeeping is
/// tiny compared to batch execution, so contention is irrelevant.
struct FabricCoordinator::RunState {
  struct Batch {
    size_t start = 0;
    size_t count = 0;
    int attempts = 0;  // dispatches so far (first send + retries + steals)
    int inflight = 0;  // copies currently out on a connection
    bool done = false; // a full reply has been applied
  };

  const std::vector<campaign::Scenario>* scenarios = nullptr;
  /// Batches are cut from the front of the scenario list as they are
  /// claimed. A deque so cutting one never moves the others.
  std::deque<Batch> batches;
  size_t next = 0;        // first scenario not yet in a batch
  size_t batch_size = 0;  // fixed batch size; 0 = guided
  size_t live = 1;        // live connections when the round began
  /// Set once every batch has its first reply (or has run out of
  /// attempts); `wake` is signalled at the same moment, so threads waiting
  /// only on duplicate copies stop waiting.
  bool over = false;
  int wake = -1;
  std::vector<campaign::ScenarioResult> results;
  std::vector<uint8_t> filled;
  std::map<std::string, vm::CoverageBitmap> coverage;
  std::mutex mu;

  /// Size of the next fresh batch. Guided: half of the remaining work per
  /// live worker, so the round's last batches, and any copy of them, are
  /// small.
  size_t NextBatchSize() const {
    size_t left = scenarios->size() - next;
    size_t size = batch_size;
    if (size == 0) {
      size = std::clamp<size_t>((left + 2 * live - 1) / (2 * live),
                                kMinGuidedBatch, kMaxGuidedBatch);
    }
    return std::min(size, left);
  }

  /// Pick the next batch for a connection: a requeued batch, else a fresh
  /// one, else (only when `may_steal`) a copy of an in-flight batch — the
  /// least duplicated, latest cut, because it finishes last. kNone when
  /// there is nothing to do.
  size_t Claim(bool may_steal) {
    size_t steal = kNone;
    for (size_t b = 0; b < batches.size(); ++b) {
      const Batch& batch = batches[b];
      if (batch.done || batch.attempts >= kMaxBatchAttempts) continue;
      if (batch.inflight == 0) return b;
      if (steal == kNone || batch.inflight <= batches[steal].inflight) {
        steal = b;
      }
    }
    if (next < scenarios->size()) {
      Batch batch;
      batch.start = next;
      batch.count = NextBatchSize();
      next += batch.count;
      batches.push_back(batch);
      return batches.size() - 1;
    }
    return may_steal ? steal : kNone;
  }

  /// Ends the round once no batch can still produce a first reply.
  void CheckOver() {
    if (over || next < scenarios->size()) return;
    for (const Batch& batch : batches) {
      if (!batch.done &&
          (batch.inflight > 0 || batch.attempts < kMaxBatchAttempts)) {
        return;
      }
    }
    over = true;
    if (wake >= 0) (void)::eventfd_write(wake, 1);
  }
};

FabricCoordinator::FabricCoordinator(TargetSpec target,
                                     std::vector<core::FaultProfile> profiles,
                                     campaign::CampaignOptions options,
                                     FabricOptions fabric)
    : target_(std::move(target)),
      profiles_(std::move(profiles)),
      options_(std::move(options)),
      fabric_(fabric) {}

FabricCoordinator::~FabricCoordinator() {
  for (Connection& conn : connections_) {
    if (conn.fd < 0) continue;
    // A worker that still owes replies may be blocked writing one; it
    // sees the close instead of a Shutdown it would never read.
    if (conn.alive && conn.stale == 0) {
      (void)WriteFrame(conn.fd, MsgType::Shutdown, {});
    }
    ::close(conn.fd);
    conn.fd = -1;
  }
}

Status FabricCoordinator::Handshake(Connection& conn) {
  int one = 1;
  ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  std::vector<uint8_t> hello;
  PutU32(hello, kWireVersion);
  if (auto st = WriteFrame(conn.fd, MsgType::Hello, hello); !st.ok()) {
    return st;
  }
  auto reply = ReadFrame(conn.fd, fabric_.batch_timeout_ms);
  if (!reply.ok()) return Err(reply.error());
  if (reply.value().type != MsgType::Hello) {
    return Err("fabric: expected Hello from worker");
  }
  Reader r(reply.value().payload);
  uint32_t version = 0;
  if (!r.U32(&version) || version != kWireVersion) {
    return Err("fabric: worker protocol version mismatch");
  }
  ConfigureMsg msg;
  msg.target = target_;
  msg.profiles = profiles_;
  msg.options = options_;
  // Each worker process runs its batches on one machine; fabric
  // parallelism comes from the worker *count*. `lfi serve --jobs` can
  // override this worker-side.
  msg.options.jobs = 1;
  if (auto st = WriteFrame(conn.fd, MsgType::Configure, EncodeConfigure(msg));
      !st.ok()) {
    return st;
  }
  auto ack = ReadFrame(conn.fd, fabric_.batch_timeout_ms);
  if (!ack.ok()) return Err(ack.error());
  if (ack.value().type == MsgType::Error) {
    Reader er(ack.value().payload);
    std::string message;
    (void)er.Str(&message);
    return Err("fabric: worker rejected configure: " + message);
  }
  if (ack.value().type != MsgType::ConfigureOk) {
    return Err("fabric: expected ConfigureOk from worker");
  }
  return Status::Ok();
}

Status FabricCoordinator::AddWorkerFd(int fd, std::string label) {
  Connection conn;
  conn.fd = fd;
  conn.label = std::move(label);
  if (auto st = Handshake(conn); !st.ok()) {
    ::close(fd);
    return st;
  }
  conn.alive = true;
  connections_.push_back(std::move(conn));
  ++stats_.workers_connected;
  return Status::Ok();
}

Status FabricCoordinator::ConnectWorker(const std::string& host,
                                        uint16_t port) {
  struct addrinfo hints = {};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* res = nullptr;
  std::string service = std::to_string(port);
  int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &res);
  if (rc != 0) {
    return Err("fabric: resolve " + host + ": " + gai_strerror(rc));
  }
  int fd = -1;
  std::string err = "fabric: no addresses for " + host;
  for (struct addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      err = std::string("fabric: socket: ") + strerror(errno);
      continue;
    }
    if (ConnectRetryEintr(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    err = "fabric: connect " + host + ":" + service + ": " + strerror(errno);
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) return Err(std::move(err));
  return AddWorkerFd(fd, host + ":" + service);
}

size_t FabricCoordinator::live_workers() const {
  size_t n = 0;
  for (const Connection& conn : connections_) {
    if (conn.alive) ++n;
  }
  return n;
}

campaign::CampaignRunner& FabricCoordinator::LocalRunner() {
  if (!local_runner_) {
    auto setup = MakeSetup(target_);
    // A spec the coordinator itself built cannot normally fail to parse;
    // if it somehow does, an empty machine yields SetupError per scenario,
    // which is also what a worker would have reported.
    campaign::MachineSetup fallback =
        setup.ok() ? std::move(setup).take()
                   : campaign::MachineSetup([](vm::Machine&) {});
    local_runner_ = std::make_unique<campaign::CampaignRunner>(
        std::move(fallback), profiles_, options_);
  }
  return *local_runner_;
}

void FabricCoordinator::WorkerLoop(size_t conn_index, RunState& state) {
  Connection& conn = connections_[conn_index];
  const int timeout_ms =
      fabric_.batch_timeout_ms > 0 ? fabric_.batch_timeout_ms : -1;
  // Replies this connection owes, oldest first: a batch of this round, or
  // kNone for a copy whose round already ended (read and dropped).
  std::deque<size_t> owed(conn.stale, kNone);
  conn.stale = 0;
  // RunBatch frames not yet fully written. Writes never block: the loop
  // keeps reading replies while a frame drains, so a worker blocked on
  // writing a large reply can never wait on a coordinator blocked on
  // writing a large batch.
  std::vector<uint8_t> out;
  size_t out_pos = 0;

  for (;;) {
    std::vector<std::pair<size_t, size_t>> claimed;  // (start, count)
    bool over = false;
    {
      std::lock_guard<std::mutex> lock(state.mu);
      // Nothing new goes out until the copies of earlier rounds are read.
      const bool draining = !owed.empty() && owed.front() == kNone;
      while (!draining && owed.size() < kPipelineDepth) {
        // Steal only when idle: a copy is straggler cover, never a queue.
        size_t b = state.Claim(owed.empty());
        if (b == kNone) break;
        RunState::Batch& batch = state.batches[b];
        if (batch.inflight > 0) {
          ++stats_.batches_stolen;
        } else if (batch.attempts > 0) {
          ++stats_.batches_retried;
        }
        ++batch.attempts;
        ++batch.inflight;
        ++stats_.batches_dispatched;
        owed.push_back(b);
        claimed.emplace_back(batch.start, batch.count);
      }
      over = state.over;
    }
    for (const auto& [start, count] : claimed) {
      BatchMsg msg;
      for (size_t i = start; i < start + count; ++i) {
        msg.indices.push_back(i);
        msg.scenarios.push_back((*state.scenarios)[i]);
      }
      AppendFrame(out, MsgType::RunBatch, EncodeBatch(msg));
    }
    if (owed.empty()) return;  // nothing left this thread can do
    if (over && out_pos == out.size()) {
      // Everything owed is a copy of a batch that already has its reply.
      // Leave it for the next Run on this connection to read and drop.
      conn.stale = owed.size();
      return;
    }

    struct pollfd fds[2] = {};
    fds[0].fd = conn.fd;
    fds[0].events = POLLIN;
    if (out_pos < out.size()) fds[0].events |= POLLOUT;
    fds[1].fd = over ? -1 : state.wake;
    fds[1].events = POLLIN;
    int ready = ::poll(fds, 2, timeout_ms);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) break;  // poll failure or reply timeout
    if (fds[0].revents & POLLOUT) {
      ssize_t n = ::send(conn.fd, out.data() + out_pos, out.size() - out_pos,
                         MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        break;  // peer gone
      }
      if (n > 0) out_pos += static_cast<size_t>(n);
      if (out_pos == out.size()) {
        out.clear();
        out_pos = 0;
      }
    }
    if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;

    // A reply: the worker answers in order, so it is for owed.front(). It
    // is read whole; the worker writes it without reading in between.
    auto reply = ReadFrame(conn.fd, timeout_ms);
    if (!reply.ok() || reply.value().type != MsgType::BatchResult) break;
    const size_t b = owed.front();
    if (b == kNone) {
      owed.pop_front();
      continue;
    }
    auto decoded = DecodeBatchResult(reply.value().payload);
    if (!decoded.ok()) break;
    std::lock_guard<std::mutex> lock(state.mu);
    RunState::Batch& batch = state.batches[b];
    // First full reply wins; a stolen batch's duplicate (identical by
    // determinism, so nothing is lost) is dropped.
    if (!batch.done) {
      bool valid = decoded.value().results.size() == batch.count;
      for (const campaign::ScenarioResult& res : decoded.value().results) {
        if (res.index < batch.start ||
            res.index >= batch.start + batch.count) {
          valid = false;
        }
      }
      // A worker that misaddresses results is not trustworthy.
      if (!valid) break;
      for (campaign::ScenarioResult& res : decoded.value().results) {
        size_t idx = res.index;
        if (!state.filled[idx]) {
          state.results[idx] = std::move(res);
          state.filled[idx] = 1;
        }
      }
      for (auto& [mod, bitmap] : decoded.value().coverage) {
        state.coverage[mod].Merge(bitmap);
      }
      batch.done = true;
      stats_.scenarios_remote += batch.count;
    }
    --batch.inflight;
    owed.pop_front();
    state.CheckOver();
  }

  // The stream cannot be resynchronized after a failure mid-exchange:
  // drop the worker, put its batches back, let someone else run them.
  std::lock_guard<std::mutex> lock(state.mu);
  for (size_t b : owed) {
    if (b != kNone) --state.batches[b].inflight;
  }
  conn.alive = false;
  ::close(conn.fd);
  conn.fd = -1;
  ++stats_.workers_lost;
  state.CheckOver();
}

campaign::CampaignReport FabricCoordinator::Run(
    const std::vector<campaign::Scenario>& scenarios) {
  Clock::time_point begin = Clock::now();
  campaign::CampaignReport report;
  report.snapshot_requested = options_.snapshot;
  if (scenarios.empty()) {
    report.Aggregate();
    return report;
  }

  RunState state;
  state.scenarios = &scenarios;
  state.results.resize(scenarios.size());
  state.filled.assign(scenarios.size(), 0);

  size_t live = live_workers();
  if (live > 0) {
    // Contiguous index-range batches, cut as connections claim them.
    EventFd wake;
    state.batch_size = fabric_.batch_size;
    state.live = live;
    state.wake = wake.fd;
    std::vector<std::thread> threads;
    for (size_t c = 0; c < connections_.size(); ++c) {
      if (!connections_[c].alive) continue;
      threads.emplace_back([this, c, &state] { WorkerLoop(c, state); });
    }
    for (std::thread& t : threads) t.join();
  }

  // Everything the fabric could not place — failed batches, batches that
  // ran out of attempts, or the whole campaign when no worker is
  // reachable — runs in-process on a machine built from the same target
  // spec. Graceful degradation, not partial reports.
  std::vector<size_t> missing;
  for (size_t i = 0; i < scenarios.size(); ++i) {
    if (!state.filled[i]) missing.push_back(i);
  }
  if (!missing.empty()) {
    std::vector<campaign::Scenario> local;
    local.reserve(missing.size());
    for (size_t idx : missing) local.push_back(scenarios[idx]);
    campaign::CampaignReport sub = LocalRunner().Run(local);
    for (size_t i = 0; i < missing.size(); ++i) {
      state.results[missing[i]] = std::move(sub.results[i]);
      state.results[missing[i]].index = missing[i];
      state.filled[missing[i]] = 1;
    }
    for (auto& [mod, bitmap] : sub.coverage) {
      state.coverage[mod].Merge(bitmap);
    }
    stats_.scenarios_local += missing.size();
  }

  report.results = std::move(state.results);
  report.coverage = std::move(state.coverage);
  report.Aggregate();
  report.wall_seconds = Seconds(begin, Clock::now());
  return report;
}

}  // namespace lfi::serve
