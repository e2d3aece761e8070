#include "svc/client.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

namespace coca::svc {

namespace {

using Clock = std::chrono::steady_clock;

/// Upper bound on session open/close handshakes.
constexpr int kHandshakeTimeoutMs = 10'000;
/// Root of the reconnect backoff's jitter stream.
constexpr std::uint64_t kJitterSeed = 0xC0CA;

Bytes u32_payload(std::uint32_t v) {
  return Bytes{static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
               static_cast<std::uint8_t>(v >> 16),
               static_cast<std::uint8_t>(v >> 24)};
}

std::int64_t ms_since(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               start)
      .count();
}

}  // namespace

// ---------------------------------------------------------------------------
// WireClient

WireClient::WireClient(Fd fd, Target target, ClientOptions options)
    : options_(std::move(options)), target_(std::move(target)),
      fd_(std::move(fd)) {
  options_.fault_plan.validate();
  fault_fuse_ = WireFaultFuse(options_.fault_plan);
  set_socket_buffers(fd_.get());
  reader_ = std::thread([this] { reader_loop(); });
}

std::unique_ptr<WireClient> WireClient::connect_uds_path(
    const std::string& path, ClientOptions options) {
  Target t;
  t.uds_path = path;
  return std::unique_ptr<WireClient>(
      new WireClient(connect_uds(path), std::move(t), std::move(options)));
}

std::unique_ptr<WireClient> WireClient::connect_tcp(std::uint16_t port,
                                                    ClientOptions options) {
  Target t;
  t.tcp = true;
  t.port = port;
  return std::unique_ptr<WireClient>(new WireClient(
      connect_tcp_loopback(port), std::move(t), std::move(options)));
}

WireClient::~WireClient() {
  // Unblock the reader wherever it is -- a blocking read (EOF via
  // shutdown), a bounded poll (stopping_ check on wake), or a backoff
  // sleep (client_cv_) -- and join. Sessions still alive observe the
  // shutdown through their dead flag.
  stopping_.store(true, std::memory_order_relaxed);
  {
    std::scoped_lock lk(send_mu_, mu_);
    ::shutdown(fd_.get(), SHUT_RDWR);
    client_cv_.notify_all();
  }
  if (reader_.joinable()) reader_.join();
}

bool WireClient::disconnected() const {
  std::lock_guard lk(mu_);
  return disconnected_;
}

void WireClient::reader_loop() {
  FrameDecoder decoder;
  for (;;) {
    bool heartbeat = false;
    const std::string reason = read_stream(decoder, &heartbeat);
    if (stopping_.load(std::memory_order_relaxed) ||
        !options_.recovery.enabled) {
      fail_all(reason);
      return;
    }
    // The byte stream is starting over: clear any torn frame (and sticky
    // failure) so the slab returns to the pool instead of leaking across
    // the reconnect.
    decoder.reset();
    if (!reconnect_and_resume(reason, heartbeat)) return;
  }
}

std::string WireClient::read_stream(FrameDecoder& decoder, bool* heartbeat) {
  const RecoveryOptions& rec = options_.recovery;
  const bool probing = rec.enabled && rec.heartbeat_interval_ms > 0;
  auto last_alive = Clock::now();  // last inbound byte or probe sent
  int pings_unanswered = 0;
  std::uint32_t ping_seq = 0;
  for (;;) {
    if (stopping_.load(std::memory_order_relaxed)) {
      return "client shutting down";
    }
    // With recovery on, the poll is bounded so a destructor racing a
    // reconnect's fd swap can never strand the reader in an unbounded
    // block on a socket nobody will shut down.
    int timeout_ms = -1;
    if (rec.enabled) {
      timeout_ms = 500;
      if (probing) {
        const auto due =
            last_alive + std::chrono::milliseconds(rec.heartbeat_interval_ms);
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                              due - Clock::now())
                              .count();
        timeout_ms = static_cast<int>(std::clamp<std::int64_t>(left, 1, 500));
      }
    }
    ::pollfd pfd{fd_.get(), POLLIN, 0};
    const int pr = ::poll(&pfd, 1, timeout_ms);
    if (pr < 0) {
      if (errno == EINTR) continue;
      return std::string("socket poll failed: ") + std::strerror(errno);
    }
    if (pr == 0) {
      if (probing &&
          Clock::now() - last_alive >=
              std::chrono::milliseconds(rec.heartbeat_interval_ms)) {
        if (pings_unanswered >= rec.heartbeat_misses) {
          stats_.heartbeats_missed.fetch_add(
              static_cast<std::uint64_t>(pings_unanswered),
              std::memory_order_relaxed);
          *heartbeat = true;
          return "heartbeat timeout: " + std::to_string(pings_unanswered) +
                 " probes unanswered";
        }
        FrameHeader h;
        h.type = FrameType::kPing;
        h.round = ++ping_seq;
        const auto hdr = encode_header(h, 0);
        ::iovec iov{const_cast<std::uint8_t*>(hdr.data()), hdr.size()};
        {
          std::lock_guard slk(send_mu_);
          write_all(&iov, 1);  // best effort; silence is the real signal
        }
        ++pings_unanswered;
        last_alive = Clock::now();
      }
      continue;
    }
    // Zero-copy receive: fill the decoder's pool slab directly; decoded
    // kDeliver payloads are views into it and flow to the protocol as-is.
    const std::span<std::uint8_t> w = decoder.writable(FrameDecoder::kReadMin);
    const ssize_t got = ::read(fd_.get(), w.data(), w.size());
    if (got > 0) {
      last_alive = Clock::now();
      pings_unanswered = 0;  // any inbound traffic proves liveness
      decoder.commit(static_cast<std::size_t>(got));
      while (std::optional<Frame> f = decoder.next()) {
        dispatch(std::move(*f));
      }
      if (decoder.failed()) {
        return "malformed daemon stream: " + decoder.error();
      }
      continue;
    }
    if (got == 0) return "daemon closed the connection";
    if (errno == EINTR) continue;
    return std::string("socket read failed: ") + std::strerror(errno);
  }
}

bool WireClient::reconnect_and_resume(const std::string& reason,
                                      bool heartbeat) {
  const RecoveryOptions& rec = options_.recovery;
  const auto outage_start = Clock::now();
  stats_.outages.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard lk(mu_);
    reconnecting_ = true;
    for (auto& [id, s] : sessions_) {
      WireSession::Inbound& in = s->in_;
      if (s->close_sent_) {
        // The close was in flight; the daemon reaps the session by grace
        // expiry. Resolve the waiter rather than resuming a dying session.
        in.closed_acked = true;
        in.cv.notify_all();
        continue;
      }
      if (in.dead) continue;
      if (s->token_ == 0) {
        in.dead = true;
        in.error = "connection lost during session handshake: " + reason;
        in.cv.notify_all();
        continue;
      }
      // A torn round's partial deliveries are dropped whole: the replay
      // (or the re-send) re-delivers the round from byte zero.
      if (!in.round_done) in.delivered.clear();
      in.resume_pending = false;
      in.daemon_committed = 0;
      in.cv.notify_all();
    }
  }
  // Jitter stream: deterministic per (seed, outage ordinal), so chaos runs
  // replay identically yet concurrent clients decorrelate.
  Rng rng(kJitterSeed + stats_.outages.load(std::memory_order_relaxed));
  for (int attempt = 0; attempt < rec.max_attempts; ++attempt) {
    if (attempt > 0) {
      int base = std::max(1, rec.backoff_initial_ms);
      for (int i = 1; i < attempt; ++i) {
        base = std::min(base * 2, std::max(1, rec.backoff_max_ms));
      }
      const int jitter =
          static_cast<int>(rng.below(static_cast<std::uint64_t>(base / 2 + 1)));
      std::unique_lock lk(mu_);
      client_cv_.wait_for(lk, std::chrono::milliseconds(base + jitter),
                          [this] {
                            return stopping_.load(std::memory_order_relaxed);
                          });
    }
    if (stopping_.load(std::memory_order_relaxed)) break;
    stats_.reconnect_attempts.fetch_add(1, std::memory_order_relaxed);
    Fd nfd;
    try {
      nfd = target_.tcp ? connect_tcp_loopback(target_.port)
                        : connect_uds(target_.uds_path);
    } catch (const Error&) {
      continue;  // daemon not (yet) back; next attempt after backoff
    }
    set_socket_buffers(nfd.get());
    if (target_.tcp) set_nodelay(nfd.get());

    // Swap the socket and snapshot the sessions to rebind. The send gate
    // (reconnecting_) stays closed, so no route() can write a round onto
    // the fresh connection before its kResume.
    struct Rebind {
      std::uint32_t sid;
      ResumeInfo info;
    };
    std::vector<Rebind> rebinds;
    {
      std::scoped_lock lk(send_mu_, mu_);
      if (stopping_.load(std::memory_order_relaxed)) break;
      fd_ = std::move(nfd);
      for (auto& [id, s] : sessions_) {
        if (s->close_sent_ || s->in_.dead || s->token_ == 0) continue;
        rebinds.push_back(
            {id, ResumeInfo{s->token_, s->completed_, s->n_, s->t_}});
      }
    }
    bool sent = true;
    {
      std::lock_guard slk(send_mu_);
      std::vector<std::array<std::uint8_t, kHeaderSize>> hdrs;
      std::vector<Bytes> payloads;
      std::vector<::iovec> iov;
      hdrs.reserve(rebinds.size());
      payloads.reserve(rebinds.size());
      iov.reserve(2 * rebinds.size());
      for (const Rebind& r : rebinds) {
        FrameHeader h;
        h.type = FrameType::kResume;
        h.session = r.sid;
        h.flags = heartbeat ? kResumeFlagHeartbeat : 0;
        payloads.push_back(encode_resume(r.info));
        hdrs.push_back(encode_header(
            h, static_cast<std::uint32_t>(payloads.back().size())));
        iov.push_back({hdrs.back().data(), kHeaderSize});
        iov.push_back({payloads.back().data(), payloads.back().size()});
      }
      if (!iov.empty()) {
        sent = write_all(iov.data(), static_cast<int>(iov.size()));
      }
    }
    if (!sent) continue;  // the fresh connection died already; redial
    {
      std::lock_guard lk(mu_);
      ++epoch_;  // re-opens exactly one re-send per in-flight round
      reconnecting_ = false;
      for (const Rebind& r : rebinds) {
        const auto it = sessions_.find(r.sid);
        if (it == sessions_.end()) continue;
        it->second->in_.resume_pending = true;  // until the kResumeAck
        it->second->in_.cv.notify_all();
      }
    }
    stats_.reconnects.fetch_add(1, std::memory_order_relaxed);
    stats_.recovery_ms_total.fetch_add(
        static_cast<std::uint64_t>(ms_since(outage_start)),
        std::memory_order_relaxed);
    return true;
  }
  fail_all(stopping_.load(std::memory_order_relaxed)
               ? "client shutting down"
               : "transport retry budget exhausted after " +
                     std::to_string(rec.max_attempts) +
                     " attempts: " + reason);
  return false;
}

void WireClient::fail_all(const std::string& reason) {
  std::lock_guard lk(mu_);
  disconnected_ = true;
  if (disconnect_reason_.empty()) disconnect_reason_ = reason;
  for (auto& [id, s] : sessions_) {
    if (!s->in_.dead) {
      s->in_.dead = true;
      s->in_.error = reason;
    }
    s->in_.cv.notify_all();
  }
}

void WireClient::dispatch(Frame f) {
  // kPong carries no session state: its arrival already reset the reader's
  // silence clock, which is the whole point of the probe.
  if (f.header.type == FrameType::kPong) return;
  std::lock_guard lk(mu_);
  const auto it = sessions_.find(f.header.session);
  if (it == sessions_.end()) return;  // late frame for a closed session
  WireSession& s = *it->second;
  WireSession::Inbound& in = s.in_;
  switch (f.header.type) {
    case FrameType::kOpenAck:
      in.open_acked = true;
      if (const auto token = decode_u64_payload(
              std::span<const std::uint8_t>(f.payload.data(),
                                            f.payload.size()))) {
        s.token_ = *token;
      }
      break;
    case FrameType::kDeliver:
      // Replay after a reconnect can duplicate frames the client already
      // consumed; only the round the session is actively awaiting counts,
      // and only while that round is still incomplete -- once its commit
      // barrier was seen, a replay of the same round (the outage raced the
      // harvest) must not double its messages.
      if (!in.routing || f.header.round != in.expect_round || in.round_done) {
        return;
      }
      // The payload is already a slab view; it rides into the engine's
      // round messages without ever being materialized.
      in.delivered.push_back({static_cast<int>(f.header.from),
                              static_cast<int>(f.header.to),
                              std::move(f.payload)});
      return;  // no wakeup per message; the commit barrier notifies
    case FrameType::kCommit:
      if (!in.routing || f.header.round != in.expect_round || in.round_done) {
        return;
      }
      in.round_done = true;
      break;
    case FrameType::kResumeAck: {
      in.resume_pending = false;
      const auto committed = decode_u64_payload(std::span<const std::uint8_t>(
          f.payload.data(), f.payload.size()));
      in.daemon_committed = committed.value_or(0);
      stats_.resumed_sessions.fetch_add(1, std::memory_order_relaxed);
      if (in.daemon_committed > s.completed_) {
        stats_.replayed_rounds.fetch_add(in.daemon_committed - s.completed_,
                                         std::memory_order_relaxed);
      }
      break;
    }
    case FrameType::kClosed:
      in.closed_acked = true;
      break;
    case FrameType::kError:
      in.dead = true;
      in.resume_pending = false;
      in.error = "daemon error: " +
                 std::string(f.payload.begin(), f.payload.end());
      break;
    default:
      in.dead = true;
      in.error = "unexpected daemon frame type";
      break;
  }
  in.cv.notify_all();
}

bool WireClient::write_all(::iovec* iov, int iovcnt) {
  std::size_t idx = 0;
  while (idx < static_cast<std::size_t>(iovcnt)) {
    const int chunk =
        std::min(iovcnt - static_cast<int>(idx), 256);
    // sendmsg instead of writev purely for MSG_NOSIGNAL: a daemon that
    // hard-closed the connection must surface as a structured transport
    // failure (EPIPE), not a process-killing SIGPIPE.
    ::msghdr msg{};
    msg.msg_iov = iov + idx;
    msg.msg_iovlen = static_cast<std::size_t>(chunk);
    const ssize_t wrote = ::sendmsg(fd_.get(), &msg, MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    std::size_t left = static_cast<std::size_t>(wrote);
    while (left > 0) {
      if (left >= iov[idx].iov_len) {
        left -= iov[idx].iov_len;
        ++idx;
      } else {
        iov[idx].iov_base = static_cast<std::uint8_t*>(iov[idx].iov_base) +
                            left;
        iov[idx].iov_len -= left;
        left = 0;
      }
    }
  }
  return true;
}

void WireClient::send_round_batch(WireSession& s, std::uint32_t round,
                                  const std::vector<net::WireMessage>& staged,
                                  std::uint64_t expected_epoch) {
  std::unique_lock slk(send_mu_);
  {
    // Re-verify the gate now that the send lock is held: a reconnect that
    // completed in between bumped the epoch (route() will re-send under
    // the new one), so writing here would double-send the round.
    std::lock_guard lk(mu_);
    if (reconnecting_ || epoch_ != expected_epoch || s.in_.resume_pending ||
        s.in_.dead || disconnected_) {
      return;
    }
  }

  // Client-site fault interpretation. The ordinal is the client-wide open
  // order (session ids start at 1).
  const WireFaultPlan& plan = options_.fault_plan;
  const std::int32_t ordinal = static_cast<std::int32_t>(s.id_) - 1;
  if (fault_fuse_.take(plan, WireFaultPlan::Kind::kClientKill, ordinal,
                       round) >= 0) {
    stats_.injected_faults.fetch_add(1, std::memory_order_relaxed);
    ::shutdown(fd_.get(), SHUT_RDWR);  // reader sees EOF and recovers
    return;
  }
  std::int64_t partial = -1;
  if (const int i = fault_fuse_.take(
          plan, WireFaultPlan::Kind::kClientPartialWrite, ordinal, round);
      i >= 0) {
    stats_.injected_faults.fetch_add(1, std::memory_order_relaxed);
    partial = plan.entries[i].truncate_bytes;
  }

  // One gather batch of (header, payload-view) iovecs. The payload iovecs
  // point straight into the protocol's refcounted buffers; nothing is
  // staged or copied client-side.
  std::vector<std::array<std::uint8_t, kHeaderSize>> headers;
  headers.reserve(staged.size() + 1);
  std::vector<::iovec> iov;
  iov.reserve(2 * staged.size() + 2);
  for (const net::WireMessage& m : staged) {
    require(m.payload.size() <= kMaxFramePayload,
            "WireSession::route: message exceeds frame payload limit");
    FrameHeader h;
    h.type = FrameType::kMsg;
    h.session = s.id_;
    h.round = round;
    h.from = static_cast<std::uint16_t>(m.from);
    h.to = static_cast<std::uint16_t>(m.to);
    headers.push_back(
        encode_header(h, static_cast<std::uint32_t>(m.payload.size())));
    iov.push_back({const_cast<std::uint8_t*>(headers.back().data()),
                   kHeaderSize});
    if (m.payload.size() > 0) {
      iov.push_back({const_cast<std::uint8_t*>(m.payload.data()),
                     m.payload.size()});
    }
  }
  FrameHeader commit;
  commit.type = FrameType::kCommit;
  commit.session = s.id_;
  commit.round = round;
  const Bytes commit_payload =
      u32_payload(static_cast<std::uint32_t>(staged.size()));
  headers.push_back(encode_header(
      commit, static_cast<std::uint32_t>(commit_payload.size())));
  iov.push_back({const_cast<std::uint8_t*>(headers.back().data()),
                 kHeaderSize});
  iov.push_back({const_cast<Bytes&>(commit_payload).data(),
                 commit_payload.size()});

  if (partial >= 0) {
    // Injected torn write: ship only the first `partial` bytes of the
    // batch -- tearing a frame at an arbitrary byte, daemon-side mirror of
    // kTruncateFrame -- then kill the connection.
    const int torn = clip_iovecs(iov.data(), static_cast<int>(iov.size()),
                                 static_cast<std::size_t>(partial));
    if (torn > 0) write_all(iov.data(), torn);
    ::shutdown(fd_.get(), SHUT_RDWR);
    return;
  }

  const bool sent = write_all(iov.data(), static_cast<int>(iov.size()));
  if (!sent && !options_.recovery.enabled) {
    // A failed write is a connection-level loss, not just this session's:
    // report it immediately instead of waiting for the reader thread to
    // observe the EOF.
    std::lock_guard lk(mu_);
    s.in_.dead = true;
    if (s.in_.error.empty()) s.in_.error = "socket write failed";
    disconnected_ = true;
    if (disconnect_reason_.empty()) disconnect_reason_ = s.in_.error;
    s.in_.cv.notify_all();
  }
  // With recovery on, a failed write surfaces through the reader (EOF) and
  // the round is re-sent under the next epoch after the rebind.
}

std::unique_ptr<WireSession> WireClient::open(int n, int t) {
  require(n >= 1 && n <= 0xFFFF && t >= 0 && t < n,
          "WireClient::open: bad n/t");
  std::unique_ptr<WireSession> session;
  {
    std::lock_guard lk(mu_);
    require(!disconnected_, "WireClient::open: connection is down");
    const std::uint32_t id = next_session_++;
    session.reset(new WireSession(*this, id));
    session->n_ = static_cast<std::uint16_t>(n);
    session->t_ = static_cast<std::uint16_t>(t);
    sessions_.emplace(id, session.get());
  }
  FrameHeader h;
  h.type = FrameType::kOpen;
  h.session = session->id();
  Bytes open_payload{
      static_cast<std::uint8_t>(n), static_cast<std::uint8_t>(n >> 8),
      static_cast<std::uint8_t>(t), static_cast<std::uint8_t>(t >> 8)};
  const auto hdr =
      encode_header(h, static_cast<std::uint32_t>(open_payload.size()));
  iovec iov[2] = {{const_cast<std::uint8_t*>(hdr.data()), hdr.size()},
                  {open_payload.data(), open_payload.size()}};
  bool sent;
  {
    std::lock_guard lk(send_mu_);
    sent = write_all(iov, 2);
  }
  std::unique_lock lk(mu_);
  if (!sent) {
    sessions_.erase(session->id());
    throw Error("WireClient::open: send failed");
  }
  WireSession::Inbound& in = session->in_;
  in.cv.wait_for(lk, std::chrono::milliseconds(kHandshakeTimeoutMs),
                 [&] { return in.open_acked || in.dead; });
  if (!in.open_acked) {
    const std::string why = in.dead ? in.error : "handshake timeout";
    sessions_.erase(session->id());
    throw Error("WireClient::open: " + why);
  }
  return session;
}

// ---------------------------------------------------------------------------
// WireSession

WireSession::~WireSession() {
  close();
  std::lock_guard lk(client_.mu_);
  client_.sessions_.erase(id_);
}

std::string WireSession::failure_reason() const {
  std::lock_guard lk(client_.mu_);
  return in_.error.empty() ? "transport failure" : in_.error;
}

std::uint64_t WireSession::resume_token() const {
  std::lock_guard lk(client_.mu_);
  return token_;
}

std::optional<std::vector<net::WireMessage>> WireSession::route(
    std::size_t round, std::vector<net::WireMessage> staged) {
  const std::uint32_t r32 = static_cast<std::uint32_t>(round);
  const auto deadline =
      Clock::now() +
      std::chrono::milliseconds(client_.options_.round_timeout_ms);
  std::uint64_t sent_epoch = 0;  // epoch the round was last sent under

  std::unique_lock lk(client_.mu_);
  if (in_.dead) return std::nullopt;
  in_.delivered.clear();
  in_.round_done = false;
  in_.routing = true;
  in_.expect_round = r32;

  // Round barrier with transparent recovery: (re-)send the round's batch
  // whenever a fresh epoch opens the gate -- unless the kResumeAck shows
  // the daemon already committed this round, in which case the replay is
  // the delivery -- and wait for the daemon's kCommit, a failure, or the
  // deadline (which bounds the whole round, reconnects included).
  for (;;) {
    if (in_.dead) {
      in_.routing = false;
      return std::nullopt;
    }
    if (in_.round_done) break;
    if (Clock::now() >= deadline) {
      in_.dead = true;
      in_.error = "round barrier timeout after " +
                  std::to_string(client_.options_.round_timeout_ms) + "ms";
      in_.routing = false;
      return std::nullopt;
    }
    const bool gate_open = !client_.reconnecting_ && !in_.resume_pending;
    if (gate_open && sent_epoch != client_.epoch_) {
      const std::uint64_t target = client_.epoch_;
      if (in_.daemon_committed > completed_) {
        sent_epoch = target;  // committed daemon-side; replay delivers it
        continue;
      }
      lk.unlock();
      client_.send_round_batch(*this, r32, staged, target);
      lk.lock();
      sent_epoch = target;  // even on failure: the reader drives the retry
      continue;
    }
    in_.cv.wait_until(lk, deadline);
  }

  in_.routing = false;
  completed_ = round + 1;  // the round is fully received and harvested
  std::vector<net::WireMessage> delivered = std::move(in_.delivered);
  in_.delivered.clear();
  in_.round_done = false;
  return delivered;
}

void WireSession::close() {
  std::unique_lock lk(client_.mu_);
  if (close_sent_ || in_.dead || client_.disconnected_) return;
  close_sent_ = true;
  if (client_.reconnecting_) return;  // the daemon reaps it by grace expiry
  FrameHeader h;
  h.type = FrameType::kClose;
  h.session = id_;
  const auto hdr = encode_header(h, 0);
  iovec iov[1] = {{const_cast<std::uint8_t*>(hdr.data()), hdr.size()}};
  lk.unlock();
  bool sent;
  {
    std::lock_guard slk(client_.send_mu_);
    sent = client_.write_all(iov, 1);
  }
  lk.lock();
  if (!sent) return;
  in_.cv.wait_for(lk, std::chrono::milliseconds(kHandshakeTimeoutMs),
                  [&] { return in_.closed_acked || in_.dead; });
}

}  // namespace coca::svc
