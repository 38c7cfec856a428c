#include "service/transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <istream>
#include <list>
#include <ostream>
#include <utility>

#include "util/backoff.hpp"
#include "util/check.hpp"

namespace edea::service {

// --- stdio -----------------------------------------------------------------

bool StdioStream::read_line(std::string& line) {
  return static_cast<bool>(std::getline(in_, line));
}

bool StdioStream::write_line(const std::string& line) {
  const std::lock_guard<std::mutex> lock(write_mutex_);
  out_ << line << '\n';
  out_.flush();
  return out_.good();
}

bool StdioStream::write_lines(const std::vector<std::string>& lines) {
  // One flush for the whole batch - an interactive peer still sees every
  // reply, just without a syscall per line.
  const std::lock_guard<std::mutex> lock(write_mutex_);
  for (const std::string& line : lines) {
    out_ << line << '\n';
  }
  out_.flush();
  return out_.good();
}

void StdioTransport::serve(const std::function<void(Stream&)>& handler) {
  StdioStream stream(in_, out_);
  handler(stream);
}

// --- sockets ---------------------------------------------------------------

namespace {

/// Stream over a connected TCP socket. Owns the fd.
class SocketStream : public Stream {
 public:
  explicit SocketStream(int fd) : fd_(fd) {
    // Nagle holds back small segments while earlier ones are unACKed -
    // exactly the shape of a pipelined session's steady state (single
    // refill requests, single streamed replies), where it serializes the
    // wire at RTT granularity. Batching is done explicitly up here
    // (write_lines corks whole frames into one send), so the kernel-side
    // delay only adds latency. Best effort: a socket that refuses the
    // option still works, just slower.
    const int nodelay = 1;
    (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &nodelay,
                       sizeof(nodelay));
  }
  ~SocketStream() override {
    if (fd_ >= 0) ::close(fd_);
  }

  SocketStream(const SocketStream&) = delete;
  SocketStream& operator=(const SocketStream&) = delete;

  bool read_line(std::string& line) override {
    for (;;) {
      // Only bytes not yet scanned can hold the next '\n'.
      const auto* newline = static_cast<const char*>(std::memchr(
          buffer_.data() + scanned_, '\n', buffer_.size() - scanned_));
      if (newline != nullptr) {
        const auto end = static_cast<std::size_t>(newline - buffer_.data());
        line.assign(buffer_, cursor_, end - cursor_);
        cursor_ = scanned_ = end + 1;
        return true;
      }
      scanned_ = buffer_.size();
      if (peer_closed_) {
        // A final line without a trailing '\n' is still a line.
        if (cursor_ == buffer_.size()) return false;
        line.assign(buffer_, cursor_);
        cursor_ = scanned_ = buffer_.size();
        return true;
      }
      // Compact once per recv, not once per line: only the partial line
      // after the cursor moves, so a pipelined burst reads in linear time.
      buffer_.erase(0, cursor_);
      scanned_ -= cursor_;
      cursor_ = 0;
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n > 0) {
        buffer_.append(chunk, static_cast<std::size_t>(n));
      } else if (n == 0) {
        peer_closed_ = true;
      } else if (errno != EINTR) {
        peer_closed_ = true;  // connection error reads as EOF
      }
    }
  }

  bool write_line(const std::string& line) override {
    // The framing buffer is a member, not a local: one session writes
    // thousands of replies, and reallocating a fresh string per line was
    // a measurable heap churn. clear() keeps the capacity.
    write_buffer_.clear();
    write_buffer_.append(line);
    write_buffer_.push_back('\n');
    return send_all();
  }

  bool write_lines(const std::vector<std::string>& lines) override {
    // Corked: the whole batch becomes one send(2) (modulo short writes),
    // so a drained frame costs one packet, not one per reply.
    write_buffer_.clear();
    for (const std::string& line : lines) {
      write_buffer_.append(line);
      write_buffer_.push_back('\n');
    }
    return send_all();
  }

  void close_write() override { ::shutdown(fd_, SHUT_WR); }

 private:
  /// Sends write_buffer_ fully, absorbing short writes and EINTR.
  bool send_all() {
    std::size_t sent = 0;
    while (sent < write_buffer_.size()) {
      // MSG_NOSIGNAL: a peer that hung up must surface as a failed write,
      // not a process-killing SIGPIPE.
      const ssize_t n = ::send(fd_, write_buffer_.data() + sent,
                               write_buffer_.size() - sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  int fd_;
  std::string buffer_;
  std::size_t cursor_ = 0;   ///< start of the first unread line in buffer_
  std::size_t scanned_ = 0;  ///< buffer_ bytes searched for '\n' already
  std::string write_buffer_;
  bool peer_closed_ = false;
};

[[noreturn]] void throw_errno(const std::string& what) {
  throw ResourceError(what + ": " + std::strerror(errno));
}

}  // namespace

SocketTransport::SocketTransport(SocketTransportOptions options)
    : options_(options) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw_errno("socket()");

  // Restarting the server on the same port must not trip over the old
  // socket lingering in TIME_WAIT - the CI persistence leg does exactly
  // that restart.
  const int reuse = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse,
                     sizeof(reuse));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = saved;
    throw_errno("bind(127.0.0.1:" + std::to_string(options_.port) + ")");
  }
  if (::listen(listen_fd_, options_.backlog) != 0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = saved;
    throw_errno("listen()");
  }

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = saved;
    throw_errno("getsockname()");
  }
  port_ = ntohs(bound.sin_port);
}

SocketTransport::~SocketTransport() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void SocketTransport::shutdown() noexcept {
  // shutdown(2) on the listening socket wakes a blocked accept(2) with an
  // error (Linux semantics; this transport is POSIX/Linux by design). The
  // fd itself stays open so serve()'s loop - not a racing destructor -
  // observes the wake-up; the destructor closes it.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
}

void SocketTransport::serve(const std::function<void(Stream&)>& handler) {
  // A finished session's thread keeps its stack until it is joined, so
  // each accept joins the sessions that have ended since the last one:
  // memory follows the live connections, not every connection ever made.
  struct Session {
    std::atomic<bool> done{false};
    std::thread thread;
  };
  std::list<Session> sessions;  // stable addresses: each thread flags its own
  std::size_t accepted = 0;
  while (options_.max_sessions == 0 || accepted < options_.max_sessions) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // shutdown() or a fatal accept error: stop accepting
    }
    ++accepted;
    sessions.remove_if([](Session& s) {
      if (!s.done.load(std::memory_order_acquire)) return false;
      s.thread.join();
      return true;
    });
    Session& session = sessions.emplace_back();
    session.thread = std::thread([fd, &handler, &done = session.done] {
      {
        SocketStream stream(fd);
        try {
          handler(stream);
        } catch (...) {
          // A throwing handler must not terminate the process; the
          // connection is torn down and the next session is unaffected.
        }
      }
      done.store(true, std::memory_order_release);
    });
  }
  for (Session& s : sessions) s.thread.join();
}

std::unique_ptr<Stream> connect_socket(const std::string& host,
                                       std::uint16_t port, int retry_ms) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string numeric = host == "localhost" ? "127.0.0.1" : host;
  EDEA_REQUIRE(::inet_pton(AF_INET, numeric.c_str(), &addr.sin_addr) == 1,
               "connect_socket host must be a numeric IPv4 address or "
               "'localhost', got '" +
                   host + "'");

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(retry_ms);
  // Jittered exponential backoff between attempts (25ms nominal base,
  // capped at 4x): concurrent clients racing a server that is still
  // binding spread their retries out instead of hammering in lockstep.
  // The jitter is deliberately unseeded per call (clock-derived seed
  // would break nothing, but determinism buys nothing here either);
  // the deadline, not the schedule, bounds total waiting.
  Rng rng(0x636f6e6e65637421ull ^ (static_cast<std::uint64_t>(port) << 16));
  BackoffOptions policy;
  policy.max_shift = 2;
  int attempt = 0;
  for (;;) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw_errno("socket()");
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return std::make_unique<SocketStream>(fd);
    }
    const int saved = errno;
    ::close(fd);
    const auto now = std::chrono::steady_clock::now();
    const bool retryable = saved == ECONNREFUSED || saved == EINTR;
    if (!retryable || now >= deadline) {
      errno = saved;
      throw_errno("connect(" + numeric + ":" + std::to_string(port) + ")");
    }
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
    const std::int64_t delay = std::min<std::int64_t>(
        jittered_backoff_ms(++attempt, 25, rng, policy), remaining.count());
    std::this_thread::sleep_for(std::chrono::milliseconds(std::max<std::int64_t>(1, delay)));
  }
}

}  // namespace edea::service
