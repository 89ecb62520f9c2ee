#include "serve/client.h"

#include <errno.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

namespace repro::serve {

Client::~Client() { Close(); }

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

status::Status Client::Connect(const std::string& socket_path) {
  Close();
  sockaddr_un addr;
  PEEGA_RETURN_IF_ERROR(UnixAddress(socket_path, &addr), "client");
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return status::IoError("client: socket() failed: " +
                           std::string(std::strerror(errno)));
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string detail = std::strerror(errno);
    Close();
    return status::Unavailable("client: connect(" + socket_path +
                               ") failed: " + detail);
  }
  return status::Status::Ok();
}

status::Status Client::Send(const obs::Json& request) {
  if (fd_ < 0) return status::Unavailable("client: not connected");
  const std::string line = EncodeLine(request);
  size_t sent = 0;
  while (sent < line.size()) {
    // MSG_NOSIGNAL: a server that closed mid-drain must surface as a
    // Status, not as a SIGPIPE killing the embedding process.
    const ssize_t n = ::send(fd_, line.data() + sent, line.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) {
        return status::Unavailable("client: server closed the connection");
      }
      return status::IoError("client: write failed: " +
                             std::string(std::strerror(errno)));
    }
    sent += static_cast<size_t>(n);
  }
  return status::Status::Ok();
}

status::StatusOr<obs::Json> Client::ReadResponse() {
  if (fd_ < 0) return status::Unavailable("client: not connected");
  for (;;) {
    const size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      const std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      obs::Json response;
      std::string error;
      if (!obs::Json::Parse(line, &response, &error)) {
        return status::InvalidInput("client: bad response JSON: " +
                                    error);
      }
      return response;
    }
    char buf[4096];
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n > 0) {
      buffer_.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0) {
      return status::Unavailable("client: server closed the connection");
    }
    return status::IoError("client: read failed: " +
                           std::string(std::strerror(errno)));
  }
}

status::StatusOr<obs::Json> Client::Call(const obs::Json& request) {
  PEEGA_RETURN_IF_ERROR(Send(request), "client call");
  return ReadResponse();
}

}  // namespace repro::serve
