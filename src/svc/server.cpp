#include "svc/server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <map>
#include <vector>

#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

namespace coca::svc {

namespace {

using Clock = std::chrono::steady_clock;

/// Byte bound of a session's replay log (see DaemonOptions).
constexpr std::size_t kReplayLogBytes = std::size_t{4} << 20;

/// Gather-list capacity of one flush (Daemon::gather).
constexpr int kFlushIovecs = 256;

std::uint16_t read_u16(std::span<const std::uint8_t> b, std::size_t off) {
  return static_cast<std::uint16_t>(b[off] | (b[off + 1] << 8));
}

std::uint32_t read_u32(std::span<const std::uint8_t> b, std::size_t off) {
  return static_cast<std::uint32_t>(b[off]) |
         (static_cast<std::uint32_t>(b[off + 1]) << 8) |
         (static_cast<std::uint32_t>(b[off + 2]) << 16) |
         (static_cast<std::uint32_t>(b[off + 3]) << 24);
}

Bytes u32_payload(std::uint32_t v) {
  return Bytes{static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
               static_cast<std::uint8_t>(v >> 16),
               static_cast<std::uint8_t>(v >> 24)};
}

Bytes text_payload(const std::string& s) {
  return Bytes(s.begin(), s.end());
}

}  // namespace

/// One round retained for replay: the kDeliver frames exactly as they were
/// (or would have been) sent, as payload *views* -- retention pins receive
/// slabs instead of copying bytes -- plus the barrier count.
struct LoggedRound {
  std::uint32_t round = 0;
  std::uint32_t count = 0;
  std::vector<Frame> frames;  // kDeliver headers + payload views
  std::size_t bytes = 0;      // headers + payloads, for the byte bound
};

/// One agreement session, owned by the daemon-wide registry and named by
/// its resume token. `conn` is the attached connection, or nullptr while
/// the session is detached awaiting a kResume.
struct Daemon::Session {
  std::uint64_t token = 0;
  std::int32_t ordinal = 0;  // daemon-wide open order (fault matching)
  int n = 0;
  int t = 0;
  std::vector<Frame> staged;  // kMsg frames of the round in flight
  std::uint64_t rounds_committed = 0;
  std::deque<LoggedRound> log;  // rounds [committed - log.size(), committed)
  std::size_t log_bytes = 0;
  Conn* conn = nullptr;
  std::uint32_t sid = 0;  // session id on the attached connection
  Clock::time_point last_activity;
};

struct Daemon::Conn {
  Fd fd;
  FrameDecoder decoder;

  /// One queued outbound frame: fixed header + payload view, with a write
  /// cursor for partial sends. The payload is the *view into the receive
  /// slab* that came off the wire (moved, never copied): a relayed message
  /// is a rewritten 24-byte header plus an iovec over the original
  /// received bytes, so the daemon's routing fast path touches no payload
  /// byte and allocates nothing per message apart from the queue node.
  struct OutFrame {
    std::array<std::uint8_t, kHeaderSize> header;
    net::Payload payload;
    std::size_t off = 0;  // bytes of (header + payload) already written
  };
  std::deque<OutFrame> out;
  bool want_writable = false;

  std::map<std::uint32_t, Session*> sessions;
};

Daemon::Daemon(DaemonOptions options) : options_(std::move(options)) {
  require(!options_.uds_path.empty() || options_.tcp,
          "Daemon: need a UDS path or TCP enabled");
  options_.fault_plan.validate();
  fault_fuse_ = WireFaultFuse(options_.fault_plan);
  if (!options_.uds_path.empty()) {
    uds_listener_ = listen_uds(options_.uds_path);
    set_nonblocking(uds_listener_.get());
    loop_.add(uds_listener_.get(), EPOLLIN,
              [this](std::uint32_t) { accept_ready(uds_listener_); });
  }
  if (options_.tcp) {
    tcp_listener_ = listen_tcp_loopback(options_.tcp_port);
    set_nonblocking(tcp_listener_.get());
    tcp_port_ = local_port(tcp_listener_.get());
    loop_.add(tcp_listener_.get(), EPOLLIN,
              [this](std::uint32_t) { accept_ready(tcp_listener_); });
  }
}

Daemon::~Daemon() {
  stop();
  if (!options_.uds_path.empty()) ::unlink(options_.uds_path.c_str());
}

void Daemon::start() {
  require(!thread_.joinable(), "Daemon::start: already running");
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { loop(); });
}

void Daemon::stop() {
  request_stop();
  if (thread_.joinable()) thread_.join();
}

void Daemon::request_stop() {
  stop_.store(true, std::memory_order_relaxed);
  loop_.wake();
}

void Daemon::run() {
  stop_.store(false, std::memory_order_relaxed);
  loop();
}

void Daemon::loop() {
  // Poll granularity: fine enough that idle kills land within ~1/4 of the
  // configured timeout, coarse enough to not spin when quiet.
  int tick_ms = std::clamp(options_.idle_timeout_ms / 4, 10, 1000);
  if (options_.resume_grace_ms > 0) {
    tick_ms = std::min(tick_ms,
                       std::clamp(options_.resume_grace_ms / 4, 10, 1000));
  }
  while (!stop_.load(std::memory_order_relaxed)) {
    loop_.poll(tick_ms);
    sweep_idle();
  }
  // Orderly teardown on the loop thread: every conn closes here, so no
  // other thread ever touched connection state.
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& [fd, c] : conns_) fds.push_back(fd);
  for (const int fd : fds) close_conn(fd);
  sessions_.clear();
}

void Daemon::accept_ready(Fd& listener) {
  for (;;) {
    const int fd = ::accept4(listener.get(), nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; the listener stays armed
    }
    set_nonblocking(fd);
    set_nodelay(fd);
    set_socket_buffers(fd);
    auto conn = std::make_unique<Conn>();
    conn->fd = Fd(fd);
    conns_.emplace(fd, std::move(conn));
    loop_.add(fd, EPOLLIN,
              [this, fd](std::uint32_t events) { conn_ready(fd, events); });
    stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
  }
}

void Daemon::conn_ready(int fd, std::uint32_t events) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& c = *it->second;

  if (events & (EPOLLHUP | EPOLLERR)) {
    close_conn(fd);
    return;
  }
  if (events & EPOLLOUT) {
    flush(c);
    if (conns_.find(fd) == conns_.end()) return;  // flush may close
  }
  if ((events & EPOLLIN) == 0) return;

  for (;;) {
    // Zero-copy receive: the socket fills the decoder's pool slab directly;
    // decoded frame payloads are views into that same slab.
    const std::span<std::uint8_t> w = c.decoder.writable(FrameDecoder::kReadMin);
    const ssize_t got = ::read(fd, w.data(), w.size());
    if (got > 0) {
      stats_.bytes_received.fetch_add(static_cast<std::uint64_t>(got),
                                      std::memory_order_relaxed);
      c.decoder.commit(static_cast<std::size_t>(got));
      while (std::optional<Frame> f = c.decoder.next()) {
        stats_.frames_received.fetch_add(1, std::memory_order_relaxed);
        handle_frame(c, std::move(*f));
        if (conns_.find(fd) == conns_.end()) return;  // frame closed us
      }
      if (c.decoder.failed()) {
        stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        close_conn(fd);
        return;
      }
      continue;
    }
    if (got == 0) {  // peer closed
      close_conn(fd);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    close_conn(fd);
    return;
  }
}

void Daemon::erase_session(Session& s, bool count_closed) {
  if (s.conn != nullptr) s.conn->sessions.erase(s.sid);
  if (count_closed) {
    stats_.sessions_closed.fetch_add(1, std::memory_order_relaxed);
  }
  sessions_.erase(s.token);  // deletes s
}

void Daemon::handle_frame(Conn& c, Frame f) {
  const std::uint32_t sid = f.header.session;
  const auto session_error = [&](const std::string& reason) {
    stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    const int cfd = c.fd.get();  // send may close (and destroy) the conn
    FrameHeader h;
    h.type = FrameType::kError;
    h.session = sid;
    h.round = f.header.round;
    send_frame(c, h, text_payload(reason));
    if (conns_.find(cfd) == conns_.end()) return;
    const auto it = c.sessions.find(sid);
    if (it != c.sessions.end()) erase_session(*it->second, true);
  };

  switch (f.header.type) {
    case FrameType::kOpen: {
      if (f.payload.size() != 4) {
        session_error("kOpen payload must be u16 n, u16 t");
        return;
      }
      if (c.sessions.contains(sid)) {
        session_error("session id already open on this connection");
        return;
      }
      auto s = std::make_unique<Session>();
      s->n = read_u16(f.payload, 0);
      s->t = read_u16(f.payload, 2);
      if (s->n < 1 || s->t < 0 || s->t >= s->n) {
        session_error("kOpen with invalid n/t");
        return;
      }
      s->token = next_token_++;
      s->ordinal = next_ordinal_++;
      s->conn = &c;
      s->sid = sid;
      s->last_activity = Clock::now();
      const std::uint64_t token = s->token;
      c.sessions.emplace(sid, s.get());
      sessions_.emplace(token, std::move(s));
      stats_.sessions_opened.fetch_add(1, std::memory_order_relaxed);
      FrameHeader h;
      h.type = FrameType::kOpenAck;
      h.session = sid;
      send_frame(c, h, encode_u64_payload(token));
      return;
    }
    case FrameType::kMsg: {
      const auto it = c.sessions.find(sid);
      if (it == c.sessions.end()) {
        session_error("kMsg for unknown session");
        return;
      }
      it->second->last_activity = Clock::now();
      it->second->staged.push_back(std::move(f));
      return;
    }
    case FrameType::kCommit: {
      const auto it = c.sessions.find(sid);
      if (it == c.sessions.end()) {
        session_error("kCommit for unknown session");
        return;
      }
      if (f.payload.size() != 4) {
        session_error("kCommit payload must be u32 count");
        return;
      }
      handle_commit(c, *it->second, std::move(f));
      return;
    }
    case FrameType::kClose: {
      const auto it = c.sessions.find(sid);
      if (it != c.sessions.end()) erase_session(*it->second, true);
      FrameHeader h;
      h.type = FrameType::kClosed;
      h.session = sid;
      send_frame(c, h, {});
      return;
    }
    case FrameType::kPing: {
      // Connection-level liveness: echoed verbatim, touches no session
      // clock (a pinging-but-idle session still idles out).
      FrameHeader h;
      h.type = FrameType::kPong;
      h.session = sid;
      h.round = f.header.round;
      send_frame(c, h, {});
      return;
    }
    case FrameType::kResume: {
      handle_resume(c, std::move(f));
      return;
    }
    default:
      // kOpenAck/kDeliver/kClosed/kError/kResumeAck/kPong are
      // server->client only.
      session_error("unexpected client frame type");
      return;
  }
}

void Daemon::handle_commit(Conn& c, Session& s, Frame f) {
  const int cfd = c.fd.get();  // a failed flush destroys the conn
  const std::uint32_t sid = s.sid;
  const std::uint32_t round = f.header.round;
  const std::uint32_t count = read_u32(f.payload, 0);
  if (count != s.staged.size()) {
    stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    FrameHeader h;
    h.type = FrameType::kError;
    h.session = sid;
    h.round = round;
    send_frame(c, h,
               text_payload("kCommit count " + std::to_string(count) +
                            " != " + std::to_string(s.staged.size()) +
                            " staged messages"));
    if (conns_.find(cfd) == conns_.end()) return;
    erase_session(s, true);
    return;
  }

  const WireFaultPlan& plan = options_.fault_plan;
  const auto take = [&](WireFaultPlan::Kind kind) {
    const int i = fault_fuse_.take(plan, kind, s.ordinal, round);
    if (i >= 0) stats_.injected_faults.fetch_add(1, std::memory_order_relaxed);
    return i;
  };

  // Injected read stall: the daemon sits on the commit before processing
  // it. Client heartbeats see silence; nothing is lost.
  if (const int i = take(WireFaultPlan::Kind::kStallRead); i >= 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(plan.entries[i].delay_ms));
  }

  // Route + retain: the round's kDeliver frames are built once -- each a
  // rewritten header plus the original received payload view (no encode,
  // no memcpy) -- logged for replay, and queued to the connection as view
  // copies (refcount bumps). The whole round is corked and shipped in one
  // gather batch, so a round costs O(1) writev calls instead of one per
  // message.
  LoggedRound lr;
  lr.round = round;
  lr.count = count;
  lr.frames.reserve(s.staged.size());
  for (Frame& m : s.staged) {
    Frame d;
    d.header = m.header;
    d.header.type = FrameType::kDeliver;
    d.payload = std::move(m.payload);
    lr.bytes += kHeaderSize + d.payload.size();
    lr.frames.push_back(std::move(d));
  }
  s.staged.clear();
  for (const Frame& d : lr.frames) {
    queue_frame(c, d.header, net::Payload(d.payload));  // view copy
  }
  FrameHeader h;
  h.type = FrameType::kCommit;
  h.session = sid;
  h.round = round;
  queue_frame(c, h, u32_payload(count));

  if (options_.replay_log_rounds > 0 && options_.resume_grace_ms > 0) {
    s.log_bytes += lr.bytes;
    s.log.push_back(std::move(lr));
    // Evict oldest rounds past either bound, but always keep the newest:
    // a kill-before-flush of the current round must stay replayable.
    while (s.log.size() > 1 &&
           (s.log.size() >
                static_cast<std::size_t>(options_.replay_log_rounds) ||
            s.log_bytes > kReplayLogBytes)) {
      s.log_bytes -= s.log.front().bytes;
      s.log.pop_front();
    }
  }
  s.last_activity = Clock::now();
  ++s.rounds_committed;
  stats_.rounds_committed.fetch_add(1, std::memory_order_relaxed);

  // Fault interpretation at the flush boundary. A kill drops the queued
  // round with the connection (the session detaches and the round waits in
  // the replay log); a truncation tears a frame at an arbitrary byte.
  if (take(WireFaultPlan::Kind::kKillBeforeFlush) >= 0) {
    close_conn(c.fd.get());
    return;
  }
  if (const int i = take(WireFaultPlan::Kind::kTruncateFrame); i >= 0) {
    flush_prefix(c, plan.entries[i].truncate_bytes);
    close_conn(c.fd.get());
    return;
  }
  if (const int i = take(WireFaultPlan::Kind::kDelayFlush); i >= 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(plan.entries[i].delay_ms));
  }
  flush(c);
  if (conns_.find(cfd) == conns_.end()) return;  // flush may close
  if (take(WireFaultPlan::Kind::kKillAfterFlush) >= 0) close_conn(cfd);
}

void Daemon::handle_resume(Conn& c, Frame f) {
  const std::uint32_t sid = f.header.session;
  const auto reject = [&](const std::string& reason) {
    stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    FrameHeader h;
    h.type = FrameType::kError;
    h.session = sid;
    send_frame(c, h, text_payload(reason));
  };

  const std::optional<ResumeInfo> info = decode_resume(f.payload);
  if (!info) {
    reject("kResume payload must be u64 token, u64 completed, u16 n, u16 t");
    return;
  }
  stats_.reconnects.fetch_add(1, std::memory_order_relaxed);
  if (f.header.flags & kResumeFlagHeartbeat) {
    stats_.heartbeats_missed.fetch_add(1, std::memory_order_relaxed);
  }
  if (options_.resume_grace_ms <= 0) {
    reject("session resumption is disabled on this daemon");
    return;
  }
  if (c.sessions.contains(sid)) {
    reject("kResume for a session id already bound on this connection");
    return;
  }

  Session* s = nullptr;
  const auto it = sessions_.find(info->token);
  if (it == sessions_.end()) {
    // Unknown token: this daemon never issued it (it restarted) or the
    // grace window expired. Adoption re-creates the session at the
    // client's declared base; the client re-drives the in-flight round, so
    // a daemon restart costs one round of re-send, not the run.
    if (!options_.adopt_unknown_resume) {
      reject("unknown resume token");
      return;
    }
    if (info->n < 1 || info->t >= info->n) {  // u16 fields; t >= 0 for free
      reject("kResume with invalid n/t");
      return;
    }
    auto fresh = std::make_unique<Session>();
    fresh->token = info->token;
    next_token_ = std::max(next_token_, info->token + 1);
    fresh->ordinal = next_ordinal_++;
    fresh->n = info->n;
    fresh->t = info->t;
    fresh->rounds_committed = info->completed;
    s = fresh.get();
    sessions_.emplace(info->token, std::move(fresh));
    stats_.sessions_opened.fetch_add(1, std::memory_order_relaxed);
  } else {
    s = it->second.get();
    if (s->n != info->n || s->t != info->t) {
      reject("kResume n/t does not match the session");
      return;
    }
    if (info->completed > s->rounds_committed) {
      // A stale token re-used for a different run, or a desynced client:
      // claiming rounds the daemon never committed is never replayable.
      reject("kResume round " + std::to_string(info->completed) +
             " is ahead of committed " +
             std::to_string(s->rounds_committed) + " (stale resume state)");
      return;
    }
    if (info->completed + s->log.size() < s->rounds_committed) {
      reject("kResume round " + std::to_string(info->completed) +
             " is beyond replay retention (oldest retained " +
             std::to_string(s->rounds_committed - s->log.size()) + ")");
      return;
    }
    if (s->conn != nullptr && s->conn != &c) {
      // Double reconnect: the newest connection wins the binding.
      s->conn->sessions.erase(s->sid);
    }
    s->staged.clear();  // a torn round's partial kMsg batch is re-sent whole
  }

  s->conn = &c;
  s->sid = sid;
  s->last_activity = Clock::now();
  c.sessions[sid] = s;
  stats_.resumed_sessions.fetch_add(1, std::memory_order_relaxed);

  // Ack carries the daemon's committed count, then the gap rounds replay
  // in order -- all corked into one flush with the ack.
  FrameHeader ack;
  ack.type = FrameType::kResumeAck;
  ack.session = sid;
  queue_frame(c, ack, encode_u64_payload(s->rounds_committed));
  std::uint64_t logical = s->rounds_committed - s->log.size();
  for (const LoggedRound& lr : s->log) {
    if (logical++ < info->completed) continue;
    for (const Frame& d : lr.frames) {
      FrameHeader h = d.header;
      h.session = sid;
      queue_frame(c, h, net::Payload(d.payload));  // view copy
    }
    FrameHeader barrier;
    barrier.type = FrameType::kCommit;
    barrier.session = sid;
    barrier.round = lr.round;
    queue_frame(c, barrier, u32_payload(lr.count));
    stats_.replayed_rounds.fetch_add(1, std::memory_order_relaxed);
    stats_.replayed_bytes.fetch_add(lr.bytes, std::memory_order_relaxed);
  }
  flush(c);
}

void Daemon::queue_frame(Conn& c, const FrameHeader& h, net::Payload payload) {
  require(payload.size() <= kMaxFramePayload,
          "Daemon::queue_frame: payload too big");
  Conn::OutFrame of;
  of.header = encode_header(h, static_cast<std::uint32_t>(payload.size()));
  of.payload = std::move(payload);
  c.out.push_back(std::move(of));
}

void Daemon::send_frame(Conn& c, const FrameHeader& h, net::Payload payload) {
  queue_frame(c, h, std::move(payload));
  flush(c);
}

int Daemon::gather(const Conn& c, ::iovec* iov) {
  // Up to 128 queued frames (256 iovecs) per sendmsg: a whole committed
  // round of kDeliver frames plus the barrier normally leaves in one
  // syscall (IOV_MAX is 1024 on Linux; 256 keeps the stack array at 4 KiB).
  int iovcnt = 0;
  for (const Conn::OutFrame& of : c.out) {
    if (iovcnt + 2 > kFlushIovecs) break;
    std::size_t off = of.off;
    if (off < kHeaderSize) {
      iov[iovcnt].iov_base = const_cast<std::uint8_t*>(of.header.data()) + off;
      iov[iovcnt].iov_len = kHeaderSize - off;
      ++iovcnt;
      off = 0;
    } else {
      off -= kHeaderSize;
    }
    if (off < of.payload.size()) {
      iov[iovcnt].iov_base =
          const_cast<std::uint8_t*>(of.payload.data()) + off;
      iov[iovcnt].iov_len = of.payload.size() - off;
      ++iovcnt;
    }
  }
  return iovcnt;
}

void Daemon::flush(Conn& c) {
  const int fd = c.fd.get();
  while (!c.out.empty()) {
    iovec iov[kFlushIovecs];
    const int iovcnt = gather(c, iov);
    if (iovcnt == 0) {  // fully-written frames at the front
      c.out.pop_front();
      continue;
    }
    // sendmsg for MSG_NOSIGNAL: a client that vanished mid-write is an
    // EPIPE close, never a SIGPIPE to the daemon process.
    ::msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
    const ssize_t wrote = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_conn(fd);
      return;
    }
    // Advance cursors through the queue front.
    std::size_t left = static_cast<std::size_t>(wrote);
    while (left > 0 && !c.out.empty()) {
      Conn::OutFrame& of = c.out.front();
      const std::size_t total = kHeaderSize + of.payload.size();
      const std::size_t take = std::min(left, total - of.off);
      of.off += take;
      left -= take;
      if (of.off == total) c.out.pop_front();
    }
  }
  const bool want = !c.out.empty();
  if (want != c.want_writable) {
    c.want_writable = want;
    loop_.modify(fd, want ? (EPOLLIN | EPOLLOUT) : EPOLLIN);
  }
}

void Daemon::flush_prefix(Conn& c, std::size_t budget) {
  // Best-effort single write of the queue's first `budget` bytes: the
  // caller closes the connection right after, so the client observes a
  // frame torn at an arbitrary byte (possibly mid-header).
  iovec iov[kFlushIovecs];
  const int iovcnt = clip_iovecs(iov, gather(c, iov), budget);
  if (iovcnt == 0) return;
  ::msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
  (void)::sendmsg(c.fd.get(), &msg, MSG_NOSIGNAL);
}

void Daemon::close_conn(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& c = *it->second;
  for (auto& [sid, s] : c.sessions) {
    if (options_.resume_grace_ms > 0) {
      // Detach: the session survives the connection, awaiting a kResume
      // within the grace window. The staged (uncommitted) round is dropped
      // -- the client re-sends it whole after resuming.
      s->conn = nullptr;
      s->sid = 0;
      s->staged.clear();
      s->last_activity = Clock::now();
    } else {
      stats_.sessions_closed.fetch_add(1, std::memory_order_relaxed);
      sessions_.erase(s->token);
    }
  }
  loop_.remove(fd);
  conns_.erase(it);  // Fd dtor closes
}

void Daemon::sweep_idle() {
  const auto now = Clock::now();
  // Collect first: killing a session sends kError, which may close a conn
  // and detach (mutate) other sessions mid-iteration.
  std::vector<std::uint64_t> idle_tokens;
  std::vector<std::uint64_t> expired_tokens;
  const auto idle_deadline =
      now - std::chrono::milliseconds(options_.idle_timeout_ms);
  const auto grace_deadline =
      now - std::chrono::milliseconds(options_.resume_grace_ms);
  for (const auto& [token, s] : sessions_) {
    if (s->conn != nullptr) {
      if (options_.idle_timeout_ms > 0 && s->last_activity < idle_deadline) {
        idle_tokens.push_back(token);
      }
    } else if (s->last_activity < grace_deadline) {
      expired_tokens.push_back(token);
    }
  }
  for (const std::uint64_t token : idle_tokens) {
    const auto it = sessions_.find(token);
    if (it == sessions_.end()) continue;
    Session& s = *it->second;
    if (s.conn != nullptr) {
      FrameHeader h;
      h.type = FrameType::kError;
      h.session = s.sid;
      send_frame(*s.conn, h, text_payload("session idle timeout"));
    }
    const auto again = sessions_.find(token);  // send may detach/erase
    if (again == sessions_.end()) continue;
    stats_.sessions_idle_killed.fetch_add(1, std::memory_order_relaxed);
    erase_session(*again->second, true);
  }
  for (const std::uint64_t token : expired_tokens) {
    const auto it = sessions_.find(token);
    if (it == sessions_.end() || it->second->conn != nullptr) continue;
    erase_session(*it->second, true);
  }
}

}  // namespace coca::svc
