// trace_runner: run one protocol execution with the observability layer on
// and export its trace in any of three formats.
//
//   trace_runner --protocol PiZ --n 13 --ell 262144 --perfetto pi_z.trace.json
//   trace_runner --protocol LongBAPlus --metrics m.json --no-timing
//   trace_runner --protocol FixedLengthCA --corrupted 1,5 --table
//   trace_runner --protocol PiN --fault crash-recovery --f 2 --metrics -
//
// The execution path is the fuzzer's shared harness (adv::execute_case), so
// a traced run sees exactly the bits/rounds the invariant oracle checks.
// `--perfetto` writes Chrome trace_event JSON (chrome://tracing or
// ui.perfetto.dev), `--metrics` writes the flat coca-metrics-v1 JSON, and
// `--table` prints the plain-text round table; "-" means stdout. With no
// output option, --table is implied. `--no-timing` switches the tracer to
// canonical mode: all nanosecond fields are zero/omitted and the metrics
// JSON is byte-identical across repeated runs.
//
// Exit status: 0 = run ok (invariants held), 1 = an oracle violation or a
// run failure, 2 = usage error.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <memory>

#include <unistd.h>

#include "adversary/degradation.h"
#include "adversary/fuzzer.h"
#include "obs/adapt.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "svc/client.h"
#include "svc/server.h"

namespace {

using namespace coca;

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "trace_runner: " << error << "\n\n";
  std::cerr
      << "usage: trace_runner [options]\n"
         "  --protocol NAME    target (default PiZ); one of the fuzzer's\n"
         "                     known protocols\n"
         "  --n N              party count (default 13)\n"
         "  --ell BITS         input bit-length scale (default 4096)\n"
         "  --seed S           honest workload seed (default 42)\n"
         "  --corrupted IDS    comma-separated byzantine ids (Mutator-wrapped)\n"
         "  --fault KIND       environment faults: crash-stop, crash-recovery,\n"
         "                     link-cut, partition, shuffle\n"
         "  --f N              charged parties for --fault (default t)\n"
         "  --perfetto FILE    write Chrome/Perfetto trace_event JSON\n"
         "  --metrics FILE     write coca-metrics-v1 JSON\n"
         "  --table            print the plain-text round table\n"
         "  --no-timing        canonical mode: omit all wall-clock fields\n"
         "  --wire             route every round through an in-process epoll\n"
         "                     daemon over a UDS loopback (same bits, traced\n"
         "                     over the real socket transport)\n"
         "FILE may be - for stdout.\n";
  std::exit(2);
}

std::vector<int> parse_ids(const std::string& s) {
  std::vector<int> ids;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) usage("empty id in list '" + s + "'");
    ids.push_back(std::stoi(item));
  }
  return ids;
}

adv::FaultKind parse_fault(const std::string& s) {
  for (const adv::FaultKind kind : adv::all_fault_kinds()) {
    if (s == adv::to_string(kind)) return kind;
  }
  usage("unknown fault kind '" + s + "'");
}

bool write_out(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::cout << text;
    return true;
  }
  std::ofstream out(path);
  if (!out) {
    std::cerr << "trace_runner: cannot write " << path << "\n";
    return false;
  }
  out << text;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  adv::FuzzCase c;
  c.protocol = "PiZ";
  c.n = 13;
  c.t = -1;  // default (n - 1) / 3, resolved after parsing
  c.ell = 4096;
  c.input_seed = 42;
  std::string fault_kind;
  int fault_f = -1;
  std::string perfetto_path;
  std::string metrics_path;
  bool table = false;
  bool timing = true;
  bool wire = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--protocol") {
        c.protocol = next();
      } else if (arg == "--n") {
        c.n = std::stoi(next());
      } else if (arg == "--ell") {
        c.ell = std::stoul(next());
      } else if (arg == "--seed") {
        c.input_seed = std::stoull(next());
      } else if (arg == "--corrupted") {
        c.corrupted = parse_ids(next());
      } else if (arg == "--fault") {
        fault_kind = next();
      } else if (arg == "--f") {
        fault_f = std::stoi(next());
      } else if (arg == "--perfetto") {
        perfetto_path = next();
      } else if (arg == "--metrics") {
        metrics_path = next();
      } else if (arg == "--table") {
        table = true;
      } else if (arg == "--no-timing") {
        timing = false;
      } else if (arg == "--wire") {
        wire = true;
      } else if (arg == "--help" || arg == "-h") {
        usage();
      } else {
        usage("unknown option " + arg);
      }
    } catch (const std::invalid_argument&) {
      usage("bad numeric value for " + arg);
    }
  }
  if (c.t < 0) c.t = (c.n - 1) / 3;
  if (!fault_kind.empty()) {
    const adv::FaultKind kind = parse_fault(fault_kind);
    const int f = kind == adv::FaultKind::kShuffle ? 0
                  : fault_f < 0                    ? c.t
                                                  : fault_f;
    try {
      c.faults = adv::degradation_plan(kind, f, c.n);
    } catch (const std::exception& e) {
      usage(e.what());
    }
  } else if (fault_f >= 0) {
    usage("--f needs --fault");
  }
  if (perfetto_path.empty() && metrics_path.empty()) table = true;

  obs::Tracer tracer(obs::Tracer::Options{timing});
  adv::FuzzOutcome outcome;
  try {
    adv::ExecHooks hooks;
    hooks.tracer = &tracer;
    // --wire: stand up an in-process daemon on a private UDS path and
    // route every delivered round through it. The trace then covers the
    // identical bits travelling over the real socket transport.
    std::unique_ptr<svc::Daemon> daemon;
    std::unique_ptr<svc::WireClient> client;
    std::unique_ptr<svc::WireSession> session;
    std::string uds_path;
    if (wire) {
      uds_path = "/tmp/coca-trace-" + std::to_string(::getpid()) + ".sock";
      svc::DaemonOptions dopt;
      dopt.uds_path = uds_path;
      daemon = std::make_unique<svc::Daemon>(dopt);
      daemon->start();
      client = svc::WireClient::connect_uds_path(uds_path);
      session = client->open(c.n, c.t);
      hooks.router = session.get();
    }
    outcome = adv::execute_case(c, hooks);
    session.reset();
    client.reset();
    if (daemon) {
      daemon->stop();
      ::unlink(uds_path.c_str());
    }
  } catch (const std::exception& e) {
    std::cerr << "trace_runner: run failed: " << e.what() << "\n";
    return 1;
  }

  obs::RunMeta meta;
  meta.protocol = c.protocol;
  meta.n = c.n;
  meta.t = c.t;
  meta.ell_bits = c.ell;
  meta.seed = c.input_seed;
  if (!fault_kind.empty()) {
    meta.notes = "fault=" + fault_kind + " f=" +
                 std::to_string(c.faults.charged(c.n).size());
  } else if (!c.corrupted.empty()) {
    meta.notes = "corrupted=" + std::to_string(c.corrupted.size());
  }
  const obs::StatsView view = obs::stats_view(outcome.stats);

  bool io_ok = true;
  if (!perfetto_path.empty()) {
    io_ok &= write_out(perfetto_path, obs::chrome_trace_json(tracer));
  }
  if (!metrics_path.empty()) {
    io_ok &= write_out(metrics_path, obs::metrics_json(tracer, meta, view,
                                                       /*include_timing=*/timing));
  }
  if (table) std::cout << obs::round_table(tracer, view);

  for (const std::string& v : outcome.verdict.violations) {
    std::cerr << "trace_runner: violation: " << v << "\n";
  }
  if (!outcome.verdict.ok() || !io_ok) return 1;
  std::cerr << "trace_runner: " << c.protocol << " n=" << c.n
            << " ell=" << c.ell << ": " << outcome.stats.rounds << " rounds, "
            << outcome.stats.honest_bits() << " honest bits\n";
  return 0;
}
