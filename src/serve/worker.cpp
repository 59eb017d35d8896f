#include "serve/worker.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/runner.hpp"
#include "serve/wire.hpp"

namespace lfi::serve {

namespace {

Status SendError(int fd, const std::string& message) {
  return WriteFrame(fd, MsgType::Error, Encode(ErrorMsg{message}));
}

}  // namespace

WorkerServer::~WorkerServer() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

Result<uint16_t> WorkerServer::Listen() {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Err(std::string("serve: socket: ") + strerror(errno));
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    std::string err = std::string("serve: bind: ") + strerror(errno);
    ::close(fd);
    return Err(std::move(err));
  }
  if (::listen(fd, 8) < 0) {
    std::string err = std::string("serve: listen: ") + strerror(errno);
    ::close(fd);
    return Err(std::move(err));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) < 0) {
    std::string err = std::string("serve: getsockname: ") + strerror(errno);
    ::close(fd);
    return Err(std::move(err));
  }
  listen_fd_ = fd;
  return static_cast<uint16_t>(ntohs(addr.sin_port));
}

void WorkerServer::ServeForever() {
  for (;;) {
    // Serve errors (a coordinator vanishing, a port scanner) end one
    // conversation, not the daemon.
    (void)ServeOnce();
  }
}

Status WorkerServer::ServeOnce() {
  if (listen_fd_ < 0) return Err("serve: not listening");
  int fd;
  do {
    fd = ::accept(listen_fd_, nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return Err(std::string("serve: accept: ") + strerror(errno));
  return ServeConnection(fd);
}

Status WorkerServer::ServeConnection(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  std::unique_ptr<campaign::CampaignRunner> runner;
  uint64_t scenarios_run = 0;
  Status outcome;

  for (;;) {
    auto frame = ReadFrame(fd);
    if (!frame.ok()) {
      outcome = Err(frame.error());
      break;
    }
    switch (frame.value().type) {
      case MsgType::Hello: {
        if (auto st = WriteFrame(fd, MsgType::Hello, Encode(HelloMsg{}));
            !st.ok()) {
          outcome = st;
          goto done;
        }
        break;
      }
      case MsgType::Configure: {
        auto msg = Decode<ConfigureMsg>(frame.value().payload);
        if (!msg.ok()) {
          (void)SendError(fd, msg.error());
          outcome = Err(msg.error());
          goto done;
        }
        auto setup = MakeSetup(msg.value().target);
        if (!setup.ok()) {
          (void)SendError(fd, setup.error());
          outcome = Err(setup.error());
          goto done;
        }
        campaign::CampaignOptions options = msg.value().options;
        if (config_.jobs > 0) options.jobs = config_.jobs;
        runner = std::make_unique<campaign::CampaignRunner>(
            std::move(setup).take(), std::move(msg.value().profiles),
            options);
        if (auto st = WriteFrame(fd, MsgType::ConfigureOk, {}); !st.ok()) {
          outcome = st;
          goto done;
        }
        break;
      }
      case MsgType::RunBatch: {
        if (!runner) {
          (void)SendError(fd, "serve: RunBatch before Configure");
          outcome = Err("serve: RunBatch before Configure");
          goto done;
        }
        auto msg = DecodeBatch(frame.value().payload);
        if (!msg.ok()) {
          (void)SendError(fd, msg.error());
          outcome = Err(msg.error());
          goto done;
        }
        campaign::CampaignReport report = runner->Run(msg.value().scenarios);
        scenarios_run += report.results.size();
        BatchResultMsg reply;
        reply.results = std::move(report.results);
        for (size_t i = 0; i < reply.results.size(); ++i) {
          // Results come back batch-local (0..n-1); re-tag with the
          // campaign-global indices so the coordinator can place them.
          reply.results[i].index =
              static_cast<size_t>(msg.value().indices[i]);
        }
        for (auto& [mod, bitmap] : report.coverage) {
          reply.coverage.emplace_back(mod, std::move(bitmap));
        }
        // The crash-test hook: drop the connection on the floor after the
        // configured scenario count, *without* answering — the coordinator
        // sees exactly what a SIGKILLed worker produces (EOF mid-batch)
        // and must re-run this batch elsewhere.
        if (config_.abort_after_scenarios != 0 &&
            scenarios_run >= config_.abort_after_scenarios) {
          outcome = Err("serve: aborted by abort_after_scenarios");
          goto done;
        }
        if (config_.batch_delay_ms != 0) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(config_.batch_delay_ms));
        }
        if (auto st = WriteFrame(fd, MsgType::BatchResult,
                                 EncodeBatchResult(reply));
            !st.ok()) {
          outcome = st;
          goto done;
        }
        break;
      }
      case MsgType::Shutdown:
        outcome = Status::Ok();
        goto done;
      default:
        (void)SendError(fd, "serve: unexpected message");
        outcome = Err("serve: unexpected message");
        goto done;
    }
  }

done:
  ::close(fd);
  return outcome;
}

Result<LocalWorker> SpawnLocalWorker(const WorkerConfig& config) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) < 0) {
    return Err(std::string("serve: socketpair: ") + strerror(errno));
  }
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return Err(std::string("serve: fork: ") + strerror(errno));
  }
  if (pid == 0) {
    // Child: become a worker on our end of the pair, then vanish without
    // running parent-side destructors or atexit handlers (we share the
    // parent's image; cleanup is the parent's business).
    ::close(fds[0]);
    WorkerServer worker(config);
    (void)worker.ServeConnection(fds[1]);
    ::_exit(0);
  }
  ::close(fds[1]);
  LocalWorker out;
  out.pid = static_cast<int>(pid);
  out.fd = fds[0];
  return out;
}

}  // namespace lfi::serve
