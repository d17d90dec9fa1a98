// Frame transports between the frontend and its workers.
//
// Channel is the client side: call() sends one frame and blocks for the
// reply; send()/receive() split that exchange so one thread can put the
// next request on the connection while another waits for the last reply
// (replies come back in request order). Two implementations exist with
// identical semantics:
//
//  - LocalChannel: in-process, wraps a handler function but still routes
//    every frame through encode_frame/decode_frame, so tests over it
//    exercise the exact byte path the sockets carry. kill() makes it
//    behave like a dead worker (kClosed), which is how the failure tests
//    simulate a crash deterministically.
//  - SocketChannel: a connected Unix stream socket. send() and receive()
//    run concurrently on the two directions of the stream, so a worker
//    finds its next request already written when it finishes the current
//    one.
//
// SocketServer is the worker side: accepts connections and feeds each
// frame to the handler, one at a time per connection, writing the
// handler's reply back. A handler exception becomes a kError frame, never
// a dropped connection.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "tlrwse/cluster/wire.hpp"

namespace tlrwse::cluster {

/// Thrown when the *connection* fails (peer death, timeout, malformed
/// stream) as opposed to the peer returning a typed ErrorMsg.
class TransportError : public std::runtime_error {
 public:
  enum class Kind { kClosed, kTimeout, kProtocol };

  TransportError(Kind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}
  [[nodiscard]] Kind kind() const noexcept { return kind_; }

 private:
  Kind kind_;
};

/// Request/reply exchanges with a worker. call() is safe from one thread
/// at a time; send() and receive() from one sending and one receiving
/// thread (the frontend's WorkerClient), not mixed with call().
class Channel {
 public:
  virtual ~Channel() = default;
  /// Sends `request` and blocks for the peer's reply frame. Throws
  /// TransportError if the connection dies or times out mid-call.
  virtual Frame call(const Frame& request) = 0;
  /// Puts `request` on the connection without waiting for its reply.
  /// The default holds it for receive().
  virtual void send(const Frame& request);
  /// Blocks for the reply to the oldest request sent and not yet
  /// received. The default runs call() on the held request, so a channel
  /// that overrides neither exchanges one frame at a time.
  virtual Frame receive();
  /// Best-effort close; subsequent exchanges throw kClosed.
  virtual void close() = 0;

 private:
  std::mutex held_mu_;
  std::deque<Frame> held_;  // sent, not yet exchanged (default send/receive)
};

using FrameHandler = std::function<Frame(const Frame&)>;

/// In-process channel for deterministic tests: frames round-trip through
/// the real encode/decode path into `handler` on the caller's thread.
class LocalChannel final : public Channel {
 public:
  explicit LocalChannel(FrameHandler handler);

  Frame call(const Frame& request) override;
  void close() override;

  /// Simulates a worker crash: every subsequent call() throws kClosed,
  /// exactly what a SocketChannel raises when its peer process dies.
  void kill() { dead_.store(true, std::memory_order_relaxed); }

 private:
  FrameHandler handler_;
  std::atomic<bool> dead_{false};
};

/// Blocking Unix stream-socket channel. Reads poll with
/// `timeout_ms` so a hung peer surfaces as kTimeout instead of a wedged
/// frontend. Any transport failure shuts the socket down in both
/// directions: the stream position is unknown, and a thread blocked on
/// the other direction wakes with kClosed instead of reading a stale reply.
class SocketChannel final : public Channel {
 public:
  ~SocketChannel() override;

  static std::unique_ptr<SocketChannel> connect_unix(const std::string& path,
                                                     int timeout_ms = 30000);

  Frame call(const Frame& request) override;
  void send(const Frame& request) override;
  Frame receive() override;
  void close() override;

 private:
  SocketChannel(int fd, int timeout_ms);

  void write_all(const std::uint8_t* data, std::size_t n);
  /// Reads until `buf_` holds a whole frame or the poll deadline passes.
  Frame read_frame();
  /// Marks the channel closed and shuts the socket down both ways.
  void poison() noexcept;

  std::mutex call_mu_;  // one call() at a time
  std::mutex send_mu_;  // one writer
  std::mutex recv_mu_;  // one reader; guards buf_
  const int fd_;
  const int timeout_ms_;
  std::atomic<bool> closed_{false};
  std::vector<std::uint8_t> buf_;
};

/// Worker-side listener: an accept thread plus one thread per connection,
/// each reading frames and writing `handler`'s replies until the peer
/// hangs up. stop() closes the listening socket and joins everything.
class SocketServer {
 public:
  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;
  ~SocketServer();

  static std::unique_ptr<SocketServer> listen_unix(const std::string& path,
                                                   FrameHandler handler);

  void stop();

 private:
  SocketServer(int listen_fd, FrameHandler handler);

  void accept_loop();
  void serve_connection(int fd);

  int listen_fd_;
  FrameHandler handler_;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::mutex conns_mu_;
  std::vector<std::thread> conn_threads_;
  std::vector<int> conn_fds_;  // live connections, for wake-up on stop()
};

}  // namespace tlrwse::cluster
