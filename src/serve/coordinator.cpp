#include "serve/coordinator.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <netdb.h>
#include <poll.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
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
/// Total dispatch attempts per batch (first send + retries) before it
/// falls through to the local runner.
constexpr int kMaxBatchAttempts = 3;
/// Bounds of a guided batch.
constexpr size_t kMinGuidedBatch = 4;
constexpr size_t kMaxGuidedBatch = 64;
/// Reply deadline per frame; a worker that blows it is treated as dead
/// (the stream cannot be resynchronized mid-protocol).
constexpr int kReplyTimeoutMs = 120'000;
/// "No batch" from RunState::Claim.
constexpr size_t kNone = SIZE_MAX;

}  // namespace

/// Per-Run shared state. One mutex guards all of it: batch bookkeeping is
/// tiny compared to batch execution, so contention is irrelevant.
struct FabricCoordinator::RunState {
  struct Batch {
    size_t start = 0;
    size_t count = 0;
    int attempts = 0;  // dispatches so far (first send + retries)
  };

  const std::vector<campaign::Scenario>* scenarios = nullptr;
  /// Batches are cut from the front of the scenario list as they are
  /// claimed. A deque so cutting one never moves the others.
  std::deque<Batch> batches;
  /// Batches a failed worker lost that have attempts left, oldest first.
  std::deque<size_t> requeued;
  size_t next = 0;       // first scenario not yet in a batch
  size_t live = 1;       // live connections when the round began
  size_t in_flight = 0;  // batches out on some connection
  /// Signalled when a batch is requeued or the last one in flight lands,
  /// so idle threads take the requeued work or see the round complete.
  std::condition_variable changed;
  std::vector<campaign::ScenarioResult> results;
  std::vector<uint8_t> filled;
  std::map<std::string, vm::CoverageBitmap> coverage;
  std::mutex mu;

  /// Size of the next fresh batch: half of the remaining work per live
  /// worker, so the round's last batches are small.
  size_t NextBatchSize() const {
    size_t left = scenarios->size() - next;
    size_t size = std::clamp<size_t>((left + 2 * live - 1) / (2 * live),
                                     kMinGuidedBatch, kMaxGuidedBatch);
    return std::min(size, left);
  }

  /// Pick the next batch for a connection: a requeued batch, else a fresh
  /// one. kNone when there is nothing to do.
  size_t Claim() {
    if (!requeued.empty()) {
      size_t b = requeued.front();
      requeued.pop_front();
      return b;
    }
    if (next == scenarios->size()) return kNone;
    Batch batch;
    batch.start = next;
    batch.count = NextBatchSize();
    next += batch.count;
    batches.push_back(batch);
    return batches.size() - 1;
  }

  /// Claim a batch for a connection and count it out: kNone when there is
  /// nothing to do.
  size_t Dispatch(FabricStats& stats) {
    size_t b = Claim();
    if (b == kNone) return b;
    Batch& batch = batches[b];
    if (batch.attempts > 0) ++stats.batches_retried;
    ++batch.attempts;
    ++in_flight;
    ++stats.batches_dispatched;
    return b;
  }
};

FabricCoordinator::FabricCoordinator(TargetSpec target,
                                     std::vector<core::FaultProfile> profiles,
                                     campaign::CampaignOptions options)
    : target_(std::move(target)),
      profiles_(std::move(profiles)),
      options_(std::move(options)) {}

FabricCoordinator::~FabricCoordinator() {
  for (Connection& conn : connections_) {
    if (conn.fd < 0) continue;
    if (conn.alive) (void)WriteFrame(conn.fd, MsgType::Shutdown, {});
    ::close(conn.fd);
    conn.fd = -1;
  }
}

Status FabricCoordinator::Handshake(Connection& conn) {
  int one = 1;
  ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (auto st = WriteFrame(conn.fd, MsgType::Hello, Encode(HelloMsg{}));
      !st.ok()) {
    return st;
  }
  auto reply = ReadFrame(conn.fd, kReplyTimeoutMs);
  if (!reply.ok()) return Err(reply.error());
  if (reply.value().type != MsgType::Hello) {
    return Err("fabric: expected Hello from worker");
  }
  auto hello = Decode<HelloMsg>(reply.value().payload);
  if (!hello.ok() || hello.value().version != kWireVersion) {
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
  if (auto st = WriteFrame(conn.fd, MsgType::Configure, Encode(msg));
      !st.ok()) {
    return st;
  }
  auto ack = ReadFrame(conn.fd, kReplyTimeoutMs);
  if (!ack.ok()) return Err(ack.error());
  if (ack.value().type == MsgType::Error) {
    auto error = Decode<ErrorMsg>(ack.value().payload);
    return Err("fabric: worker rejected configure: " +
               (error.ok() ? error.value().message : error.error()));
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

void FabricCoordinator::WorkerLoop(size_t conn_index, size_t first_batch,
                                   RunState& state) {
  Connection& conn = connections_[conn_index];
  // Batches in flight on this connection, oldest first; the last `fresh`
  // are not framed yet.
  std::deque<size_t> owed;
  if (first_batch != kNone) owed.push_back(first_batch);
  size_t fresh = owed.size();
  // RunBatch frames not yet fully written. Writes never block: the loop
  // keeps reading replies while a frame drains, so a worker blocked on
  // writing a large reply can never wait on a coordinator blocked on
  // writing a large batch.
  std::vector<uint8_t> out;
  size_t out_pos = 0;

  for (;;) {
    std::vector<std::pair<size_t, size_t>> claimed;  // (start, count)
    {
      std::unique_lock<std::mutex> lock(state.mu);
      for (;;) {
        while (owed.size() < kPipelineDepth) {
          size_t b = state.Dispatch(stats_);
          if (b == kNone) break;
          owed.push_back(b);
          ++fresh;
        }
        if (!owed.empty()) break;
        // Idle: a batch still in flight elsewhere may yet be requeued
        // here if its worker fails.
        if (state.in_flight == 0) return;
        state.changed.wait(lock);
      }
      for (size_t i = owed.size() - fresh; i < owed.size(); ++i) {
        claimed.emplace_back(state.batches[owed[i]].start,
                             state.batches[owed[i]].count);
      }
      fresh = 0;
    }
    for (const auto& [start, count] : claimed) {
      BatchMsg msg;
      for (size_t i = start; i < start + count; ++i) {
        msg.indices.push_back(i);
        msg.scenarios.push_back((*state.scenarios)[i]);
      }
      AppendFrame(out, MsgType::RunBatch, EncodeBatch(msg));
    }

    struct pollfd pfd = {};
    pfd.fd = conn.fd;
    pfd.events = POLLIN;
    if (out_pos < out.size()) pfd.events |= POLLOUT;
    int ready = ::poll(&pfd, 1, kReplyTimeoutMs);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) break;  // poll failure or reply timeout
    if (pfd.revents & POLLOUT) {
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
    if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;

    // A reply: the worker answers in order, so it is for owed.front(). It
    // is read whole; the worker writes it without reading in between.
    auto reply = ReadFrame(conn.fd, kReplyTimeoutMs);
    if (!reply.ok() || reply.value().type != MsgType::BatchResult) break;
    auto decoded = DecodeBatchResult(reply.value().payload);
    if (!decoded.ok()) break;
    std::lock_guard<std::mutex> lock(state.mu);
    const RunState::Batch& batch = state.batches[owed.front()];
    bool valid = decoded.value().results.size() == batch.count;
    for (const campaign::ScenarioResult& res : decoded.value().results) {
      if (res.index < batch.start || res.index >= batch.start + batch.count) {
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
    stats_.scenarios_remote += batch.count;
    owed.pop_front();
    if (--state.in_flight == 0) state.changed.notify_all();
  }

  // The stream cannot be resynchronized after a failure mid-exchange:
  // drop the worker, put its batches back, let someone else run them.
  std::lock_guard<std::mutex> lock(state.mu);
  for (size_t b : owed) {
    if (state.batches[b].attempts < kMaxBatchAttempts) {
      state.requeued.push_back(b);
    }
  }
  state.in_flight -= owed.size();
  conn.alive = false;
  ::close(conn.fd);
  conn.fd = -1;
  ++stats_.workers_lost;
  state.changed.notify_all();
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
    // Contiguous index-range batches, cut as connections claim them. Each
    // connection's first batch is claimed here, before any thread runs,
    // so a connection scheduled late still gets its share of the round.
    state.live = live;
    std::vector<std::pair<size_t, size_t>> firsts;  // (connection, batch)
    for (size_t c = 0; c < connections_.size(); ++c) {
      if (connections_[c].alive) firsts.emplace_back(c, state.Dispatch(stats_));
    }
    std::vector<std::thread> threads;
    for (const auto& [c, b] : firsts) {
      threads.emplace_back([this, c, b, &state] { WorkerLoop(c, b, state); });
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
