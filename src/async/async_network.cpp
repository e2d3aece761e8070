#include "async/async_network.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

namespace coca::async {

namespace {
struct AbortSignal {};
/// FaultPlan crash-stop unwind; like AbortSignal, uncatchable by design.
struct CrashSignal {};
}  // namespace

struct AsyncNetwork::Impl {
  struct Process {
    int id = -1;
    bool honest = false;
    ProcessFn fn;
    std::unique_ptr<ProcessContext> ctx;
    std::thread thread;

    enum class State { Gated, Running, Waiting, Finished };
    State state = State::Gated;       // guarded by mu
    bool go = false;                  // startup gate, guarded by mu
    bool done = false;                // output recorded, guarded by mu
    bool crashed = false;             // FaultPlan crash-stop, guarded by mu
    std::exception_ptr error;         // guarded by mu
    std::deque<Envelope> inbox;       // guarded by mu
    std::condition_variable cv;       // wakes this process

    std::uint64_t bytes_sent = 0;     // written by owner thread only
    std::uint64_t messages_sent = 0;
  };

  struct InFlight {
    std::size_t seq;
    int from;
    int to;
    net::Payload payload;  // shared view; scheduling never copies bytes
  };

  std::mutex mu;
  std::condition_variable cv_sched;
  std::vector<std::unique_ptr<Process>> processes;
  std::vector<int> role;  // by id: 0 unset, 1 honest, 2 byzantine
  std::vector<InFlight> in_flight;  // guarded by mu
  std::size_t next_seq = 0;
  bool abort = false;
  Scheduling policy = Scheduling::kFifo;
  Rng sched_rng{1};

  // ---- Environment faults (windows in delivery steps); all guarded by mu.
  net::FaultPlan plan;
  net::FaultStats faults;
  std::size_t deliveries = 0;        // scheduler steps so far
  std::vector<char> crash_fired;     // parallel to plan.crashes
  std::vector<char> crashed_by_id;   // by process id

  /// Fires every crash-stop whose step window opened: the victim unwinds
  /// with CrashSignal at its next receive (or its startup gate). Returns
  /// true if anything newly fired (the scheduler then re-parks before the
  /// next delivery decision). Caller holds mu.
  bool fire_crashes() {
    bool fired = false;
    for (std::size_t i = 0; i < plan.crashes.size(); ++i) {
      const net::FaultPlan::Crash& c = plan.crashes[i];
      if (crash_fired[i] || deliveries < c.from_round) continue;
      crash_fired[i] = 1;
      fired = true;
      ++faults.crashes_injected;
      crashed_by_id[static_cast<std::size_t>(c.party)] = 1;
      for (auto& p : processes) {
        if (p->id == c.party) {
          p->crashed = true;
          p->cv.notify_all();
        }
      }
    }
    return fired;
  }
};

AsyncNetwork::AsyncNetwork(int n, int t, Scheduling policy, std::uint64_t seed)
    : n_(n), t_(t), impl_(std::make_unique<Impl>()) {
  require(n >= 1 && t >= 0 && t < n, "AsyncNetwork: need 0 <= t < n");
  impl_->role.assign(static_cast<std::size_t>(n), 0);
  impl_->policy = policy;
  impl_->sched_rng = Rng::stream(kSchedulerSeedDomain, seed);
}

void AsyncNetwork::set_fault_plan(net::FaultPlan plan) {
  plan.validate(n_);
  for (const net::FaultPlan::Crash& c : plan.crashes) {
    require(c.until_round == net::kNoRecovery,
            "AsyncNetwork: crash-recovery is subsumed by message delay; "
            "only crash-stop plans are supported here");
  }
  require(plan.shuffles.empty(),
          "AsyncNetwork: inbox shuffles are subsumed by scheduling policies");
  impl_->plan = std::move(plan);
}

AsyncNetwork::~AsyncNetwork() {
  for (auto& p : impl_->processes) {
    ensure(!p->thread.joinable(), "AsyncNetwork destroyed with live threads");
  }
}

int ProcessContext::n() const { return net_.n(); }
int ProcessContext::t() const { return net_.t(); }

void ProcessContext::send(int to, Bytes payload) {
  net_.process_send(index_, to, net::Payload(std::move(payload)));
}

void ProcessContext::send(int to, net::Payload payload) {
  net_.process_send(index_, to, std::move(payload));
}

void ProcessContext::send_all(net::Payload payload) {
  // One shared buffer for all n recipients: each send is a refcount bump.
  for (int to = 0; to < n(); ++to) net_.process_send(index_, to, payload);
}

Envelope ProcessContext::receive() { return net_.process_receive(index_); }

void ProcessContext::mark_done() { net_.process_mark_done(index_); }

void AsyncNetwork::set_process(int id, ProcessFn fn) {
  require(id >= 0 && id < n_ && impl_->role[id] == 0,
          "AsyncNetwork::set_process: bad or already-assigned id");
  impl_->role[id] = 1;
  auto p = std::make_unique<Impl::Process>();
  p->id = id;
  p->honest = true;
  p->fn = std::move(fn);
  const std::size_t index = impl_->processes.size();
  p->ctx.reset(new ProcessContext(
      *this, index, id,
      Rng::derive_stream_seed(kProcessSeedDomain,
                              static_cast<std::uint64_t>(id) << 1)));
  impl_->processes.push_back(std::move(p));
}

void AsyncNetwork::set_byzantine_process(int id, ProcessFn fn) {
  require(id >= 0 && id < n_ && impl_->role[id] == 0,
          "AsyncNetwork::set_byzantine_process: bad or already-assigned id");
  impl_->role[id] = 2;
  auto p = std::make_unique<Impl::Process>();
  p->id = id;
  p->honest = false;
  p->fn = std::move(fn);
  const std::size_t index = impl_->processes.size();
  p->ctx.reset(new ProcessContext(
      *this, index, id,
      Rng::derive_stream_seed(kProcessSeedDomain,
                              (static_cast<std::uint64_t>(id) << 1) | 1)));
  impl_->processes.push_back(std::move(p));
}

void AsyncNetwork::process_send(std::size_t index, int to,
                                net::Payload payload) {
  require(to >= 0 && to < n_, "ProcessContext::send: bad recipient");
  Impl::Process& p = *impl_->processes[index];
  p.bytes_sent += payload.size();  // metered even if the network loses it
  p.messages_sent += 1;
  std::lock_guard lk(impl_->mu);
  // Environment faults: traffic crossing a cut link (or sent by a process
  // whose crash already fired) vanishes after metering.
  if (!impl_->plan.empty() &&
      (impl_->crashed_by_id[static_cast<std::size_t>(p.id)] ||
       impl_->plan.link_cut(p.id, to, impl_->deliveries))) {
    ++impl_->faults.messages_dropped;
    return;
  }
  impl_->in_flight.push_back(
      {impl_->next_seq++, p.id, to, std::move(payload)});
  // The scheduler only acts when everyone is parked; no wakeup needed here.
}

void AsyncNetwork::process_mark_done(std::size_t index) {
  Impl::Process& p = *impl_->processes[index];
  std::lock_guard lk(impl_->mu);
  p.done = true;
  impl_->cv_sched.notify_all();
}

Envelope AsyncNetwork::process_receive(std::size_t index) {
  Impl::Process& p = *impl_->processes[index];
  std::unique_lock lk(impl_->mu);
  // A fired crash-stop takes effect at the victim's next scheduler
  // interaction: this receive() unwinds it instead of delivering.
  if (p.crashed) throw CrashSignal{};
  if (p.inbox.empty()) {
    p.state = Impl::Process::State::Waiting;
    impl_->cv_sched.notify_all();
    p.cv.wait(lk, [&] { return !p.inbox.empty() || impl_->abort || p.crashed; });
    if (impl_->abort) throw AbortSignal{};
    if (p.crashed) throw CrashSignal{};
    p.state = Impl::Process::State::Running;
  }
  Envelope e = std::move(p.inbox.front());
  p.inbox.pop_front();
  return e;
}

AsyncStats AsyncNetwork::run(std::size_t max_deliveries) {
  Impl& im = *impl_;
  for (int id = 0; id < n_; ++id) {
    require(im.role[id] != 0, "AsyncNetwork::run: every id needs a role");
  }

  for (auto& pp : im.processes) {
    Impl::Process& p = *pp;
    p.thread = std::thread([this, &p] {
      try {
        // Startup gate: processes begin executing one at a time, in
        // registration order, so initial send sequences (and therefore
        // FIFO delivery order) are deterministic.
        {
          std::unique_lock lk(impl_->mu);
          p.cv.wait(lk, [&] { return p.go || impl_->abort; });
          if (impl_->abort) throw AbortSignal{};
          // A crash whose window opens at step 0 fires before the gate:
          // the process executes zero protocol statements.
          if (p.crashed) throw CrashSignal{};
          p.state = Impl::Process::State::Running;
        }
        p.fn(*p.ctx);
      } catch (const AbortSignal&) {
      } catch (const CrashSignal&) {
        // FaultPlan crash-stop; not an error.
      } catch (...) {
        std::lock_guard lk(impl_->mu);
        p.error = std::current_exception();
      }
      std::lock_guard lk(impl_->mu);
      p.state = Impl::Process::State::Finished;
      impl_->cv_sched.notify_all();
    });
  }

  std::exception_ptr failure;
  std::string failure_reason;
  bool starved = false;
  {
    std::unique_lock lk(im.mu);
    im.deliveries = 0;
    im.faults = net::FaultStats{};
    im.crash_fired.assign(im.plan.crashes.size(), 0);
    im.crashed_by_id.assign(static_cast<std::size_t>(n_), 0);
    im.fire_crashes();  // step-0 windows fire before the startup gates
    // Quiescent: every process either finished or blocked on an empty
    // inbox. Only then is the next delivery decision well-defined (a
    // process woken by a delivery is *not* quiescent until it consumed the
    // message and parked again, so the scheduler never double-delivers into
    // an un-acknowledged wakeup).
    const auto parked = [](const auto& p) {
      return p->state == Impl::Process::State::Finished ||
             (p->state == Impl::Process::State::Waiting && p->inbox.empty());
    };
    const auto quiescent = [&] {
      return std::all_of(im.processes.begin(), im.processes.end(),
                         [&](auto& p) { return parked(p); });
    };
    // Release the startup gates sequentially: each process runs until its
    // first blocking receive (or completion) before the next one starts.
    bool gate_failed = false;
    for (auto& p : im.processes) {
      p->go = true;
      p->cv.notify_all();
      if (!im.cv_sched.wait_for(lk, std::chrono::seconds(300),
                                [&] { return parked(p); })) {
        failure_reason = "AsyncNetwork: startup stalled (watchdog)";
        gate_failed = true;
        break;
      }
    }
    for (;!gate_failed;) {
      if (!im.cv_sched.wait_for(lk, std::chrono::seconds(300), quiescent)) {
        failure_reason = "AsyncNetwork: scheduler stalled (watchdog)";
        break;
      }
      for (auto& p : im.processes) {
        if (p->error && !failure) failure = p->error;
      }
      if (failure) break;
      // Newly opened crash windows: let the victims unwind and re-park
      // before the next delivery decision, so schedules stay canonical.
      if (!im.plan.empty() && im.fire_crashes()) continue;

      // Termination keys on honest processes only: byzantine code may
      // legitimately block in receive() forever.
      std::vector<bool> live(static_cast<std::size_t>(n_), false);
      bool honest_pending = false;
      for (auto& p : im.processes) {
        if (p->state == Impl::Process::State::Waiting) {
          live[static_cast<std::size_t>(p->id)] = true;
          honest_pending |= p->honest && !p->done;
        }
      }
      if (!honest_pending) break;  // every honest output is recorded
      // Purge traffic addressed to finished processes (counting what was
      // headed to crash-stopped ones as fault drops).
      std::erase_if(im.in_flight, [&](const Impl::InFlight& m) {
        const auto to = static_cast<std::size_t>(m.to);
        if (live[to]) return false;
        if (!im.plan.empty() && im.crashed_by_id[to]) {
          ++im.faults.messages_dropped;
        }
        return true;
      });
      if (im.in_flight.empty()) {
        if (!im.plan.empty()) {
          // Fault-induced starvation (e.g. a permanent partition): dropped
          // messages void the eventual-delivery premise of the deadlock
          // detector, so this ends the run gracefully instead of throwing.
          starved = true;
          break;
        }
        // Honest processes wait, nothing can ever be delivered again, and
        // no process can run to send more: a genuine protocol deadlock.
        failure_reason = "AsyncNetwork: deadlock (live processes starved)";
        break;
      }
      if (im.deliveries >= max_deliveries) {
        failure_reason = "AsyncNetwork: delivery limit exceeded";
        break;
      }

      // Pick per policy.
      std::size_t pick = 0;
      switch (im.policy) {
        case Scheduling::kFifo:
          for (std::size_t c = 1; c < im.in_flight.size(); ++c) {
            if (im.in_flight[c].seq < im.in_flight[pick].seq) pick = c;
          }
          break;
        case Scheduling::kRandomDelay:
          pick = im.sched_rng.below(im.in_flight.size());
          break;
        case Scheduling::kLagLowIds:
          // Deliver the candidate with the highest sender id; FIFO within a
          // sender. Low-id senders' traffic is starved while anything else
          // is available -- eventual delivery still holds.
          for (std::size_t c = 1; c < im.in_flight.size(); ++c) {
            const auto& cur = im.in_flight[c];
            const auto& best = im.in_flight[pick];
            if (cur.from > best.from ||
                (cur.from == best.from && cur.seq < best.seq)) {
              pick = c;
            }
          }
          break;
        case Scheduling::kSkewPairs: {
          const auto skew = [&](const Impl::InFlight& m) {
            return static_cast<int>(
                (static_cast<unsigned>(m.from - m.to) + 2u * static_cast<unsigned>(n_)) %
                static_cast<unsigned>(n_));
          };
          for (std::size_t c = 1; c < im.in_flight.size(); ++c) {
            const auto& cur = im.in_flight[c];
            const auto& best = im.in_flight[pick];
            const int sc = skew(cur);
            const int sb = skew(best);
            if (sc > sb || (sc == sb && cur.seq < best.seq)) pick = c;
          }
          break;
        }
      }

      Impl::InFlight msg = std::move(im.in_flight[pick]);
      im.in_flight.erase(im.in_flight.begin() +
                         narrow<std::ptrdiff_t>(pick));
      for (auto& p : im.processes) {
        if (p->id == msg.to &&
            p->state == Impl::Process::State::Waiting) {
          p->inbox.push_back({msg.from, std::move(msg.payload)});
          p->cv.notify_all();
          break;
        }
      }
      ++im.deliveries;
    }

    // Unwind any still-blocked processes (byzantine waiters on the success
    // path, everyone on the failure path).
    im.abort = true;
    for (auto& p : im.processes) p->cv.notify_all();
  }

  for (auto& p : im.processes) {
    if (p->thread.joinable()) p->thread.join();
  }
  if (failure) std::rethrow_exception(failure);
  if (!failure_reason.empty()) throw Error(failure_reason);

  AsyncStats stats;
  stats.deliveries = im.deliveries;
  stats.faults = im.faults;
  stats.starved = starved;
  stats.bytes_by_process.assign(static_cast<std::size_t>(n_), 0);
  for (const auto& p : im.processes) {
    stats.bytes_by_process[static_cast<std::size_t>(p->id)] += p->bytes_sent;
    if (p->honest) {
      stats.honest_bytes += p->bytes_sent;
      stats.honest_messages += p->messages_sent;
    }
  }
  return stats;
}

}  // namespace coca::async
