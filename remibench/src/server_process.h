// The serving workloads' server: remi::Service behind an EventServer in a
// forked child, so its CPU time and peak RSS are its own.

#pragma once

#include <sys/types.h>

#include <string>
#include <utility>
#include <vector>

#include "service/service.h"

namespace remibench {

/// What the child serves: a default tenant plus named ones (all RKF2).
struct ServerSpec {
  std::string default_kb;
  std::vector<std::pair<std::string, std::string>> tenants;  ///< name, path
  int nproc = 1;
};

/// The one server configuration every workload shares: remi_server's
/// defaults (epoll core, 4 dispatch threads, max_in_flight 4, max_queued
/// 16, no brownout) with mining.num_threads = nproc.
remi::ServiceOptions ServingOptions(int nproc);

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Forks the server and returns once it has answered its first ping.
  /// setup_seconds() then covers KB open, Service creation, tenant
  /// attaches and server start, up to that first answer.
  remi::Status Start(const ServerSpec& spec);

  /// Asks the child to drain and waits until it has exited.
  void Stop();

  pid_t pid() const { return pid_; }
  int port() const { return port_; }
  double setup_seconds() const { return setup_seconds_; }

 private:
  pid_t pid_ = -1;
  int control_fd_ = -1;
  int port_ = 0;
  double setup_seconds_ = 0.0;
};

}  // namespace remibench
