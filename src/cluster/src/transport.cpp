#include "tlrwse/cluster/transport.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace tlrwse::cluster {

namespace {

[[noreturn]] void throw_errno(TransportError::Kind kind,
                              const std::string& what) {
  throw TransportError(kind, what + ": " + std::strerror(errno));
}

/// Socket send buffer: room for a whole apply frame (a few hundred KB at
/// survey sizes), so a pipelined request sits complete on the socket while
/// the worker computes and a reply is written without waiting for the
/// reader. The kernel caps it at net.core.wmem_max.
constexpr int kSendBufferBytes = 1 << 20;

void size_send_buffer(int fd) {
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &kSendBufferBytes,
               sizeof(kSendBufferBytes));
}

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

// --- Channel --------------------------------------------------------------

void Channel::send(const Frame& request) {
  std::lock_guard<std::mutex> lock(held_mu_);
  held_.push_back(request);
}

Frame Channel::receive() {
  Frame request;
  {
    std::lock_guard<std::mutex> lock(held_mu_);
    if (held_.empty()) {
      throw TransportError(TransportError::Kind::kProtocol,
                           "channel: receive without a sent request");
    }
    request = std::move(held_.front());
    held_.pop_front();
  }
  return call(request);
}

// --- LocalChannel ---------------------------------------------------------

LocalChannel::LocalChannel(FrameHandler handler)
    : handler_(std::move(handler)) {}

Frame LocalChannel::call(const Frame& request) {
  if (dead_.load(std::memory_order_relaxed)) {
    throw TransportError(TransportError::Kind::kClosed,
                         "local channel: peer killed");
  }
  // Round-trip through the byte encoding so local tests certify the same
  // path the sockets use, not a shortcut around it.
  const std::vector<std::uint8_t> bytes = encode_frame(request);
  Frame decoded;
  const std::size_t used = decode_frame(bytes, decoded);
  if (used != bytes.size()) {
    throw TransportError(TransportError::Kind::kProtocol,
                         "local channel: re-decode consumed wrong length");
  }
  Frame reply = handler_(decoded);
  if (dead_.load(std::memory_order_relaxed)) {
    // Killed while the handler ran: the reply never made it onto the wire.
    throw TransportError(TransportError::Kind::kClosed,
                         "local channel: peer killed mid-call");
  }
  const std::vector<std::uint8_t> reply_bytes = encode_frame(reply);
  Frame out;
  if (decode_frame(reply_bytes, out) != reply_bytes.size()) {
    throw TransportError(TransportError::Kind::kProtocol,
                         "local channel: reply re-decode failed");
  }
  return out;
}

void LocalChannel::close() { kill(); }

// --- SocketChannel --------------------------------------------------------

SocketChannel::SocketChannel(int fd, int timeout_ms)
    : fd_(fd), timeout_ms_(timeout_ms) {}

SocketChannel::~SocketChannel() {
  poison();
  ::close(fd_);
}

void SocketChannel::poison() noexcept {
  if (!closed_.exchange(true)) ::shutdown(fd_, SHUT_RDWR);
}

std::unique_ptr<SocketChannel> SocketChannel::connect_unix(
    const std::string& path, int timeout_ms) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno(TransportError::Kind::kClosed, "socket(unix)");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    throw TransportError(TransportError::Kind::kProtocol,
                         "unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    throw_errno(TransportError::Kind::kClosed, "connect(" + path + ")");
  }
  size_send_buffer(fd);
  return std::unique_ptr<SocketChannel>(new SocketChannel(fd, timeout_ms));
}

void SocketChannel::write_all(const std::uint8_t* data, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t w =
        ::send(fd_, data + sent, n - sent, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw_errno(TransportError::Kind::kClosed, "send");
    }
    sent += static_cast<std::size_t>(w);
  }
}

Frame SocketChannel::read_frame() {
  Frame out;
  for (;;) {
    // A whole frame may already be buffered from a previous oversized read.
    try {
      const std::size_t used = decode_frame(buf_, out);
      if (used > 0) {
        buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(used));
        return out;
      }
    } catch (const WireError& e) {
      throw TransportError(TransportError::Kind::kProtocol, e.what());
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, timeout_ms_);
    if (pr < 0) {
      if (errno == EINTR) continue;
      throw_errno(TransportError::Kind::kClosed, "poll");
    }
    if (pr == 0) {
      throw TransportError(TransportError::Kind::kTimeout,
                           "transport: reply timed out");
    }
    std::uint8_t chunk[64 * 1024];
    const ssize_t r = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw_errno(TransportError::Kind::kClosed, "recv");
    }
    if (r == 0) {
      throw TransportError(TransportError::Kind::kClosed,
                           "transport: peer closed connection");
    }
    buf_.insert(buf_.end(), chunk, chunk + r);
  }
}

Frame SocketChannel::call(const Frame& request) {
  std::lock_guard<std::mutex> lock(call_mu_);
  send(request);
  return receive();
}

void SocketChannel::send(const Frame& request) {
  const std::vector<std::uint8_t> bytes = encode_frame(request);
  std::lock_guard<std::mutex> lock(send_mu_);
  if (closed_.load()) {
    throw TransportError(TransportError::Kind::kClosed,
                         "transport: channel closed");
  }
  try {
    write_all(bytes.data(), bytes.size());
  } catch (const TransportError&) {
    poison();
    throw;
  }
}

Frame SocketChannel::receive() {
  std::lock_guard<std::mutex> lock(recv_mu_);
  if (closed_.load()) {
    throw TransportError(TransportError::Kind::kClosed,
                         "transport: channel closed");
  }
  try {
    return read_frame();
  } catch (const TransportError&) {
    // Stream state is unknown after a failure; poison the channel so the
    // caller re-routes to a replica instead of reading a stale reply.
    poison();
    throw;
  }
}

void SocketChannel::close() { poison(); }

// --- SocketServer ---------------------------------------------------------

SocketServer::SocketServer(int listen_fd, FrameHandler handler)
    : listen_fd_(listen_fd), handler_(std::move(handler)) {
  accept_thread_ = std::thread([this] { accept_loop(); });
}

SocketServer::~SocketServer() { stop(); }

std::unique_ptr<SocketServer> SocketServer::listen_unix(
    const std::string& path, FrameHandler handler) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno(TransportError::Kind::kClosed, "socket(unix)");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    throw TransportError(TransportError::Kind::kProtocol,
                         "unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 64) != 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    throw_errno(TransportError::Kind::kClosed, "bind/listen(" + path + ")");
  }
  return std::unique_ptr<SocketServer>(
      new SocketServer(fd, std::move(handler)));
}

void SocketServer::accept_loop() {
  for (;;) {
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      return;  // listen fd closed by stop()
    }
    if (stopping_.load(std::memory_order_relaxed)) {
      ::close(conn);
      return;
    }
    size_send_buffer(conn);
    std::lock_guard<std::mutex> lock(conns_mu_);
    conn_fds_.push_back(conn);
    conn_threads_.emplace_back([this, conn] { serve_connection(conn); });
  }
}

void SocketServer::serve_connection(int fd) {
  // Deregister-then-close under the mutex so stop() never shutdown()s a
  // recycled descriptor.
  const auto release = [this, fd] {
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      std::erase(conn_fds_, fd);
    }
    ::close(fd);
  };
  std::vector<std::uint8_t> buf;
  std::uint8_t chunk[64 * 1024];
  while (!stopping_.load(std::memory_order_relaxed)) {
    const ssize_t r = ::recv(fd, chunk, sizeof(chunk), 0);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;  // peer hung up, stop() woke us, or socket error
    buf.insert(buf.end(), chunk, chunk + r);
    for (;;) {
      Frame request;
      std::size_t used = 0;
      try {
        used = decode_frame(buf, request);
      } catch (const WireError&) {
        release();
        return;  // garbage stream: drop the connection
      }
      if (used == 0) break;  // need more bytes
      buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(used));
      Frame reply;
      try {
        reply = handler_(request);
      } catch (const std::exception& e) {
        ErrorMsg err;
        err.code = WireErrorCode::kInternal;
        err.message = e.what();
        reply = err.to_frame();
      }
      const std::vector<std::uint8_t> bytes = encode_frame(reply);
      std::size_t sent = 0;
      while (sent < bytes.size()) {
        const ssize_t w = ::send(fd, bytes.data() + sent,
                                 bytes.size() - sent, MSG_NOSIGNAL);
        if (w < 0 && errno == EINTR) continue;
        if (w < 0) {
          release();
          return;
        }
        sent += static_cast<std::size_t>(w);
      }
    }
  }
  release();
}

void SocketServer::stop() {
  if (stopping_.exchange(true)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  // shutdown() wakes the accept thread; the descriptor is closed only
  // after it has exited, since that thread still reads listen_fd_.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  close_fd(listen_fd_);
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    // Wake any thread parked in recv(); it sees stopping_ and exits.
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    threads = std::move(conn_threads_);
    conn_threads_.clear();
  }
  for (auto& t : threads) {
    if (t.joinable()) t.join();
  }
}

}  // namespace tlrwse::cluster
