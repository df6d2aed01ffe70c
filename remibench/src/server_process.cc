#include "server_process.h"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>

#include "client.h"
#include "service/event_server.h"
#include "util.h"

namespace remibench {

remi::ServiceOptions ServingOptions(int nproc) {
  remi::ServiceOptions options;
  options.mining.num_threads = nproc;
  return options;
}

namespace {

/// The child's whole life: open, attach, serve until the control pipe
/// closes, drain, exit. Never returns.
[[noreturn]] void ServeInChild(const ServerSpec& spec, int control_fd,
                               int report_fd) {
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  std::signal(SIGPIPE, SIG_IGN);
  remi::KbSpec kb_spec;
  kb_spec.path = spec.default_kb;
  auto service = remi::Service::Open(kb_spec, ServingOptions(spec.nproc));
  if (!service.ok()) _exit(3);
  for (const auto& [name, path] : spec.tenants) {
    remi::KbSpec tenant;
    tenant.path = path;
    if (!(*service)->AttachKb(name, tenant).ok()) _exit(4);
  }
  remi::EventServer server(service->get(), remi::EventServerOptions{});
  if (!server.Start().ok()) _exit(5);
  const int port = server.port();
  if (write(report_fd, &port, sizeof(port)) != sizeof(port)) _exit(6);
  close(report_fd);
  char byte;
  while (read(control_fd, &byte, 1) > 0) {
  }
  server.Drain(5.0);
  _exit(0);
}

}  // namespace

remi::Status ServerProcess::Start(const ServerSpec& spec) {
  int control[2];
  int report[2];
  if (pipe(control) != 0 || pipe(report) != 0) {
    return remi::Status::IoError("pipe failed");
  }
  const double start = NowSeconds();
  pid_ = fork();
  if (pid_ < 0) return remi::Status::IoError("fork failed");
  if (pid_ == 0) {
    close(control[1]);
    close(report[0]);
    ServeInChild(spec, control[0], report[1]);
  }
  close(control[0]);
  close(report[1]);
  control_fd_ = control[1];

  pollfd pfd{report[0], POLLIN, 0};
  int port = 0;
  const bool reported = poll(&pfd, 1, 120000) == 1 &&
                        read(report[0], &port, sizeof(port)) == sizeof(port);
  close(report[0]);
  if (!reported) {
    Stop();
    return remi::Status::IoError("server child failed to start");
  }
  port_ = port;
  for (int attempt = 0; attempt < 1000; ++attempt) {
    const std::string pong = ProbeFrame(port_, Kind::kPing, "");
    if (FindStatus(pong) == "OK") {
      setup_seconds_ = NowSeconds() - start;
      return remi::Status::OK();
    }
    usleep(1000);
  }
  Stop();
  return remi::Status::IoError("server never answered a ping");
}

void ServerProcess::Stop() {
  if (pid_ <= 0) return;
  if (control_fd_ >= 0) close(control_fd_);
  control_fd_ = -1;
  int status = 0;
  for (int waited_ms = 0; waited_ms < 20000; waited_ms += 10) {
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return;
    }
    usleep(10000);
  }
  kill(pid_, SIGKILL);
  waitpid(pid_, &status, 0);
  pid_ = -1;
}

}  // namespace remibench
