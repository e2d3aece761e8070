// coca_serve: the transport daemon as a standalone process.
//
//   coca_serve --uds /tmp/coca.sock                 # UDS listener
//   coca_serve --tcp 7420                           # TCP loopback listener
//   coca_serve --uds /tmp/coca.sock --tcp 0         # both (0 = ephemeral)
//   coca_serve --uds /tmp/coca.sock --idle-ms 5000  # shorter session idle
//
// Runs the epoll loop (src/svc/server.h) on the main thread until SIGINT/
// SIGTERM, then prints the final counters to stderr and exits 0. Clients
// connect with svc::WireClient (or anything speaking the frame protocol in
// src/svc/frame.h) and open agreement sessions; each session synchronizes
// the rounds of one protocol instance whose parties run client-side.
//
// Exit status: 0 = clean shutdown on signal, 1 = failed to bind, 2 = usage.
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>

#include "svc/server.h"
#include "util/parse.h"

namespace {

using namespace coca;

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "coca_serve: " << error << "\n\n";
  std::cerr << "usage: coca_serve [options]\n"
               "  --uds PATH       listen on a Unix-domain socket at PATH\n"
               "  --tcp PORT       listen on 127.0.0.1:PORT (0 = ephemeral,\n"
               "                   bound port printed to stderr)\n"
               "  --idle-ms MS     kill sessions idle for MS (default 30000)\n"
               "  --grace-ms MS    retain disconnected sessions for MS\n"
               "                   awaiting kResume (0 disables resumption;\n"
               "                   default 10000)\n"
               "  --replay-rounds N  per-session replay-log depth (default 8)\n"
               "  --no-adopt       reject kResume tokens this daemon did not\n"
               "                   issue (default: adopt, for restarts)\n"
               "At least one of --uds / --tcp is required.\n";
  std::exit(2);
}

svc::Daemon* g_daemon = nullptr;

void handle_signal(int) {
  if (g_daemon != nullptr) g_daemon->request_stop();
}

}  // namespace

int main(int argc, char** argv) {
  svc::DaemonOptions options;
  bool tcp_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--uds") {
        options.uds_path = next();
      } else if (arg == "--tcp") {
        options.tcp = true;
        tcp_set = true;
        const int port = parse_int<int>(next());
        if (port < 0 || port > 65535) usage("--tcp must be in 0..65535");
        options.tcp_port = static_cast<std::uint16_t>(port);
      } else if (arg == "--idle-ms") {
        options.idle_timeout_ms = parse_int<int>(next());
        if (options.idle_timeout_ms < 1) usage("--idle-ms must be >= 1");
      } else if (arg == "--grace-ms") {
        options.resume_grace_ms = parse_int<int>(next());
        if (options.resume_grace_ms < 0) usage("--grace-ms must be >= 0");
      } else if (arg == "--replay-rounds") {
        options.replay_log_rounds = parse_int<int>(next());
        if (options.replay_log_rounds < 0) {
          usage("--replay-rounds must be >= 0");
        }
      } else if (arg == "--no-adopt") {
        options.adopt_unknown_resume = false;
      } else if (arg == "--help" || arg == "-h") {
        usage();
      } else {
        usage("unknown option " + arg);
      }
    } catch (const std::invalid_argument&) {
      usage("bad numeric value for " + arg);
    } catch (const std::out_of_range&) {
      usage("numeric value out of range for " + arg);
    }
  }
  if (options.uds_path.empty() && !tcp_set) {
    usage("need --uds and/or --tcp");
  }

  try {
    svc::Daemon daemon(options);
    g_daemon = &daemon;
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    if (!options.uds_path.empty()) {
      std::cerr << "coca_serve: listening on uds " << options.uds_path << "\n";
    }
    if (options.tcp) {
      std::cerr << "coca_serve: listening on 127.0.0.1:" << daemon.tcp_port()
                << "\n";
    }
    daemon.run();
    g_daemon = nullptr;
    const svc::DaemonStats& s = daemon.stats();
    std::cerr << "coca_serve: shutting down: "
              << s.connections_accepted.load() << " connections, "
              << s.sessions_opened.load() << " sessions ("
              << s.sessions_closed.load() << " closed, "
              << s.sessions_idle_killed.load() << " idle-killed), "
              << s.rounds_committed.load() << " rounds, "
              << s.frames_received.load() << " frames, "
              << s.bytes_received.load() << " bytes, "
              << s.protocol_errors.load() << " protocol errors\n"
              << "coca_serve: recovery: "
              << s.reconnects.load() << " reconnects, "
              << s.resumed_sessions.load() << " resumed sessions, "
              << s.replayed_rounds.load() << " replayed rounds ("
              << s.replayed_bytes.load() << " bytes), "
              << s.heartbeats_missed.load() << " heartbeats missed, "
              << s.injected_faults.load() << " injected faults\n";
  } catch (const std::exception& e) {
    std::cerr << "coca_serve: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
