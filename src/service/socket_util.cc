#include "service/socket_util.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <cerrno>

#include "util/io_hooks.h"

namespace remi {

AcceptErrorAction ClassifyAcceptError(int err) {
  switch (err) {
    case EINTR:
    case ECONNABORTED:
    case EAGAIN:
#if defined(EWOULDBLOCK) && EWOULDBLOCK != EAGAIN
    case EWOULDBLOCK:
#endif
      return AcceptErrorAction::kRetry;
    // Linux accept(2) documents that already-pending network errors on
    // the new socket are reported through accept: the listener is fine.
    case EPERM:
    case EPROTO:
    case ENOPROTOOPT:
    case EHOSTDOWN:
#ifdef ENONET
    case ENONET:
#endif
    case EHOSTUNREACH:
    case ENETDOWN:
    case ENETUNREACH:
      return AcceptErrorAction::kRetryCounted;
    case EMFILE:
    case ENFILE:
    case ENOBUFS:
    case ENOMEM:
      return AcceptErrorAction::kRetryAfterBackoff;
    case EBADF:
    case EINVAL:
    case ENOTSOCK:
    case EOPNOTSUPP:
    case EFAULT:
      return AcceptErrorAction::kFatal;
    default:
      return AcceptErrorAction::kRetryAfterBackoff;
  }
}

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

bool SetNoDelay(int fd) {
  const int one = 1;
  return setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) == 0;
}

bool SendAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = io::Hooks().Send(fd, data.data() + sent,
                                       data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      // EAGAIN on a blocking socket is a send-timeout (or injected
      // noise); the bytes are still deliverable, so retry like EINTR.
      if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace remi
