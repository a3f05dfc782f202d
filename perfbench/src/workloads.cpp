#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "obs/profiler.hpp"
#include "service/daemon.hpp"
#include "service/snapshot.hpp"
#include "trace/format.hpp"

namespace perfbench {

namespace {

using sensrep::core::Algorithm;
using sensrep::core::Simulation;
using sensrep::core::SimulationConfig;
using sensrep::metrics::MessageCategory;
using sensrep::obs::Probe;
using sensrep::obs::Profiler;
using sensrep::service::Daemon;
using sensrep::service::Snapshot;
using sensrep::trace::strfmt;

// --- workload sizes ------------------------------------------------------------
//
// paper_grid: 9 cells, each with its own seed drawn from the workload seed so
// the cells' failure processes are independent and the grid total averages
// over them. 8000 s is an eighth of the paper's 64000 s horizon.
constexpr double kPaperHorizon = 8000.0;
constexpr double kPaperSlice = 100.0;
// serve_replay: sessions of tools/soak_replay-style traffic, batches of
// kServeBatch failures each followed by an advance, with robot crash/repair
// cycles and status/telemetry queries mixed in (see serve_commands).
constexpr std::size_t kServeSessions = 8;
constexpr std::size_t kServeBatches = 40;
constexpr std::size_t kServeBatch = 2;
constexpr std::size_t kServeRobots = 9;

// Every run makes at least this many passes, and more while they fit in its
// --seconds. Besides each pass's own set-ups, the untraced run samples extra
// set-ups after every pass, at least one and for about kSetupShare of the
// pass's time, so that the median set-up covers the whole run rather than
// one moment of it.
constexpr std::size_t kMinPasses = 2;
constexpr double kSetupShare = 0.1;

double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double since(Clock::time_point t0) { return seconds(ns_between(t0, Clock::now())); }

double median(std::vector<double> xs) { return quantile(xs, 0.5); }

/// SplitMix64: a tiny, fully specified generator, so the command stream and
/// the derived cell seeds are the same under every standard library.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); the modulo bias is below 2^-40 for the n used here.
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t state_;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// Every pass of a run repeats identical work, so on a shared host its passes
// differ only by how much other tenants slowed them, by up to 40 % within
// one run. Each end-to-end time is therefore taken over all the passes of
// the run: the median pass for run_s and restore_s, the median set-up of
// the many sampled, and the advance percentiles over every advance of
// every pass.
struct PassTimes {
  std::vector<double> setups;      // seconds, one per set-up sampled
  std::vector<double> runs;        // seconds, one per pass
  std::vector<double> restores;    // seconds, one per pass
  std::vector<double> advance_us;  // every advance of every pass
};

void set_end_to_end(Report& r, PassTimes& t) {
  r.set("setup_s", median(std::move(t.setups)));
  r.set("run_s", median(t.runs));
  r.set("advance_us_p50", quantile(t.advance_us, 0.50));
  r.set("advance_us_p90", quantile(t.advance_us, 0.90));
  r.set("restore_s", median(t.restores));
  r.set("peak_rss_mb", peak_rss_mb());
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Runs at least `min_passes` passes, and more while one as long as the last
/// still ends within `budget` seconds, so a run does not overrun its time.
void repeat_for(double budget, std::size_t min_passes, const std::function<void()>& pass) {
  const auto start = Clock::now();
  double last = 0.0;
  for (std::size_t passes = 0; passes < min_passes || since(start) + last <= budget; ++passes) {
    const auto t0 = Clock::now();
    pass();
    last = since(t0);
  }
}

/// The untraced run: passes while they fit in --seconds, each followed by
/// extra set-up samples from `construct` (which returns its own set-up
/// time) for about kSetupShare of the pass's time, at least one.
void repeat_with_setups(double budget, const std::function<void()>& pass,
                        const std::function<double()>& construct, std::vector<double>& setups) {
  repeat_for(budget, kMinPasses, [&] {
    const auto t0 = Clock::now();
    pass();
    const double share = kSetupShare * since(t0);
    double spent = 0.0;
    do {
      setups.push_back(construct());
      spent += setups.back();
    } while (spent < share);
  });
}

// --- per-layer aggregation ------------------------------------------------------

void set_profiler_metrics(Report& r) {
  const auto probe = [](Probe p) { return Profiler::snapshot(p); };
  r.set("sim.queue_push_calls", static_cast<double>(probe(Probe::kEventPush).count));
  r.set("sim.queue_push_ns", static_cast<double>(probe(Probe::kEventPush).ns));
  r.set("sim.queue_pop_calls", static_cast<double>(probe(Probe::kEventPop).count));
  r.set("sim.queue_pop_ns", static_cast<double>(probe(Probe::kEventPop).ns));
  r.set("routing.next_hop_calls", static_cast<double>(probe(Probe::kRouterNextHop).count));
  r.set("routing.next_hop_ns", static_cast<double>(probe(Probe::kRouterNextHop).ns));
  r.set("routing.planarizer_calls", static_cast<double>(probe(Probe::kPlanarizer).count));
  r.set("routing.planarizer_ns", static_cast<double>(probe(Probe::kPlanarizer).ns));
  r.set("core.supervise_calls", static_cast<double>(probe(Probe::kSupervise).count));
  r.set("core.supervise_ns", static_cast<double>(probe(Probe::kSupervise).ns));
  r.set("core.closest_robot_calls", static_cast<double>(probe(Probe::kClosestLiveRobot).count));
  r.set("core.closest_robot_ns", static_cast<double>(probe(Probe::kClosestLiveRobot).ns));
}

void set_ledger_metrics(Report& r, StepLedger& ledger) {
  for (std::size_t b = 0; b < StepLedger::kBuckets; ++b) {
    const std::string name = "step." + StepLedger::bucket_name(b);
    r.set(name + ".count", static_cast<double>(ledger.count(b)));
    r.set(name + ".ns", static_cast<double>(ledger.ns(b)));
  }
  const auto steps = static_cast<double>(ledger.steps());
  r.set("sim.events", steps);
  const double busy = seconds(ledger.total_ns());
  r.set("sim.events_per_s", busy > 0.0 ? steps / busy : 0.0);
  r.set("sim.step_ns_p50", ledger.step_ns_quantile(0.50));
  r.set("sim.step_ns_p99", ledger.step_ns_quantile(0.99));
  r.set("sim.pending_peak", static_cast<double>(ledger.pending_peak()));
}

/// Sums ExperimentResult fields over cells; averages are weighted by the
/// count they average over.
struct ResultTotals {
  std::array<double, StepLedger::kCategories> tx{};
  double repaired = 0, travel = 0, reported = 0, report_hops = 0, request_hops = 0;
  double detected = 0, delivered = 0, drops = 0, redispatches = 0, elections = 0;

  void add(const sensrep::core::ExperimentResult& res) {
    for (std::size_t i = 0; i < tx.size(); ++i) {
      tx[i] += static_cast<double>(res.tx(static_cast<MessageCategory>(i)));
    }
    const auto rep = static_cast<double>(res.repaired);
    repaired += rep;
    travel += res.avg_travel_per_repair * rep;
    reported += static_cast<double>(res.reported);
    report_hops += res.avg_report_hops * static_cast<double>(res.reported);
    request_hops += res.avg_request_hops * static_cast<double>(res.reported);
    detected += static_cast<double>(res.detected);
    delivered += res.delivery_ratio * static_cast<double>(res.detected);
    drops += static_cast<double>(res.router_drops);
    redispatches += static_cast<double>(res.redispatches);
    elections += static_cast<double>(res.elections);
  }

  void set(Report& r) const {
    const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    for (std::size_t i = 0; i < tx.size(); ++i) {
      r.set("net.tx." + StepLedger::bucket_name(i), tx[i]);
    }
    r.set("core.update_tx_per_repair",
          ratio(tx[static_cast<std::size_t>(MessageCategory::kLocationUpdate)], repaired));
    r.set("robot.repairs", repaired);
    r.set("robot.travel_per_repair_m", ratio(travel, repaired));
    r.set("routing.report_hops", ratio(report_hops, reported));
    r.set("routing.request_hops", ratio(request_hops, reported));
    r.set("routing.delivery_ratio", ratio(delivered, detected));
    r.set("routing.drops", drops);
    r.set("core.redispatches", redispatches);
    r.set("core.elections", elections);
  }
};

void set_service_zero(Report& r) {
  for (const char* name :
       {"service.commands", "service.inject_us_p50", "service.inject_us_p90",
        "service.query_us_p50", "service.err_replies", "service.handle_self_ns",
        "service.journal_entries", "service.snapshot_ms", "service.snapshot_bytes",
        "service.restore_ms", "service.restore_events", "service.restore_ns_per_event",
        "obs.telemetry_samples"}) {
    r.set(name, 0.0);
  }
}

// --- simulation workloads -------------------------------------------------------

Report run_paper_grid(const RunOptions& o, Checker& check) {
  const auto cells = paper_cells(o.seed);

  // One untraced pass: construct, advance slice by slice, check, tear down.
  // A simulation is rebuilt from its config, so a cell's restore time is
  // its construction, run and tear-down, without the benchmark's checks.
  PassTimes times;
  const auto untraced_pass = [&] {
    double setup = 0.0, run = 0.0, restore = 0.0;
    Outputs out;
    for (const SimulationConfig& cfg : cells) {
      const auto t0 = Clock::now();
      auto sim = std::make_unique<Simulation>(cfg);
      setup += since(t0);
      for (const std::int64_t ns : run_sliced(*sim, kPaperSlice)) {
        run += seconds(ns);
        times.advance_us.push_back(static_cast<double>(ns) * 1e-3);
      }
      restore += since(t0);
      out.push_back(cell_line(*sim));
      const auto d0 = Clock::now();
      sim.reset();
      restore += since(d0);
    }
    check.compare(out);
    times.setups.push_back(setup);
    times.runs.push_back(run);
    times.restores.push_back(restore);
  };

  if (!o.trace) {
    repeat_with_setups(
        o.seconds, untraced_pass,
        [&] {
          double setup = 0.0;
          for (const SimulationConfig& cfg : cells) {
            const auto t0 = Clock::now();
            const Simulation sim(cfg);
            setup += since(t0);
          }
          return setup;
        },
        times.setups);
    Report r;
    set_end_to_end(r, times);
    return r;
  }

  // Traced run: one traced pass between untraced ones; the untraced passes
  // give the baseline for the tracing overhead.
  const auto start = Clock::now();
  untraced_pass();
  StepLedger ledger;
  ResultTotals totals;
  Profiler::reset();
  Profiler::enable(true);
  const auto w0 = Clock::now();
  double setup = 0.0, run = 0.0, teardown = 0.0;
  Outputs out;
  for (const SimulationConfig& cfg : cells) {
    const auto t0 = Clock::now();
    auto sim = std::make_unique<Simulation>(cfg);
    const auto t1 = Clock::now();
    run_stepped(*sim, ledger);
    const auto t2 = Clock::now();
    out.push_back(cell_line(*sim));
    totals.add(sim->result());
    const auto t3 = Clock::now();
    sim.reset();
    setup += seconds(ns_between(t0, t1));
    run += seconds(ns_between(t1, t2));
    teardown += since(t3);
  }
  const double wall = since(w0);
  Profiler::enable(false);
  check.compare(out);
  repeat_for(o.seconds - since(start), 0, untraced_pass);

  Report r;
  set_ledger_metrics(r, ledger);
  set_profiler_metrics(r);
  totals.set(r);
  set_service_zero(r);
  r.set("trace.wall_s", wall);
  r.set("trace.setup_s", setup);
  r.set("trace.teardown_s", teardown);
  r.set("trace.unattributed_s", wall - setup - seconds(ledger.total_ns()) - teardown);
  r.set("trace.overhead", run / median(times.runs) - 1.0);
  return r;
}

// --- serve_replay -----------------------------------------------------------------

enum class Reply : std::uint8_t { kAdvance, kInject, kQuery };

Reply reply_kind(const std::string& line) {
  if (line.rfind("advance", 0) == 0) return Reply::kAdvance;
  if (line.rfind("status", 0) == 0 || line.rfind("telemetry", 0) == 0) return Reply::kQuery;
  return Reply::kInject;
}

/// The reply a command must get: "ok <command>" for injections, "ok advance
/// <clock>" for advances, an "ok" line for queries (telemetry ends with it).
bool reply_ok(const std::string& command, const std::optional<std::string>& reply) {
  if (!reply) return false;
  if (command.rfind("advance", 0) == 0) {
    return reply->rfind("ok advance ", 0) == 0 && reply->find("interrupted") == std::string::npos;
  }
  if (command == "status") return reply->rfind("ok clock=", 0) == 0;
  if (command == "telemetry") {
    return reply->size() >= 12 && reply->compare(reply->size() - 12, 12, "ok telemetry") == 0;
  }
  return *reply == "ok " + command;
}

/// Totals over the sessions of one serve_replay pass.
struct ServePass {
  double setup = 0, run = 0, snapshot = 0, restore = 0, teardown = 0;
  std::size_t snapshot_bytes = 0, journal_entries = 0, errors = 0;
  std::uint64_t restore_events = 0, telemetry_samples = 0;
  std::vector<double> advance_us, inject_us, query_us;
  ResultTotals totals;
  Outputs outputs;
};

struct ServeSession {
  sensrep::service::DaemonOptions options;
  std::vector<std::string> commands;
};

/// Independent sessions, each with its own seed: the field layout is drawn
/// once per session and sets much of its cost, so several layouts per pass
/// keep the pass's cost from hanging on one.
std::vector<ServeSession> serve_sessions(std::uint64_t seed) {
  SplitMix64 seeds(seed);
  std::vector<ServeSession> sessions;
  for (std::size_t i = 0; i < kServeSessions; ++i) {
    ServeSession s{serve_options(seeds.next()), {}};
    s.commands = serve_commands(s.options.seed, s.options.simulation_config());
    sessions.push_back(std::move(s));
  }
  return sessions;
}

/// One session, added into `p`: construct, replay the commands (each reply
/// checked and hashed into the session's output lines), snapshot, tear
/// down, restore from the snapshot text and verify it. With a `ledger`, the
/// profiler is on from construction to the last command, and a per-event
/// probe (Simulator::set_interrupt with stride 1, never interrupting)
/// charges each event an `advance` executes to the ledger, timed from the
/// previous event's end or from the command's start.
void serve_session(const ServeSession& session, Checker& check, StepLedger* ledger,
                   ServePass& p) {
  Clock::time_point last;
  if (ledger) Profiler::enable(true);
  const auto t0 = Clock::now();
  auto owner = std::make_unique<Daemon>(session.options);
  p.setup += since(t0);
  Daemon& daemon = *owner;

  Simulation& sim = daemon.simulation();
  const auto samples = [exporter = daemon.exporter()]() -> std::uint64_t {
    return exporter ? exporter->samples_taken() : 0;
  };
  if (ledger) {
    sim.simulator().set_interrupt(
        [&] {
          const auto now = Clock::now();
          ledger->after(sim.counters(), samples(), ns_between(last, now),
                        sim.simulator().pending());
          ledger->before(sim.counters(), samples());
          last = now;
          return false;
        },
        1);
  }

  std::uint64_t transcript = 0xcbf29ce484222325ULL;
  for (const std::string& line : session.commands) {
    if (ledger) ledger->before(sim.counters(), samples());
    const auto c0 = Clock::now();
    last = c0;
    const auto reply = daemon.handle_line(line);
    const std::int64_t ns = ns_between(c0, Clock::now());
    p.run += seconds(ns);
    const double us = static_cast<double>(ns) * 1e-3;
    switch (reply_kind(line)) {
      case Reply::kAdvance: p.advance_us.push_back(us); break;
      case Reply::kInject: p.inject_us.push_back(us); break;
      case Reply::kQuery: p.query_us.push_back(us); break;
    }
    const bool ok = reply_ok(line, reply);
    if (!ok) ++p.errors;
    check.expect(ok, line + " -> " + reply.value_or("<no reply>"));
    transcript = fnv1a(transcript, reply.value_or("") + "\n");
  }
  if (ledger) {
    sim.simulator().set_interrupt({});
    Profiler::enable(false);
  }

  const auto s0 = Clock::now();
  std::ostringstream text;
  daemon.make_snapshot().write(text);
  const std::string snapshot = text.str();
  p.snapshot += since(s0);
  p.snapshot_bytes += snapshot.size();
  p.journal_entries += daemon.journal().size();
  p.telemetry_samples += samples();
  p.totals.add(sim.result());
  const std::string status = daemon.status_line();
  p.outputs.push_back(strfmt("transcript=%016llx commands=%zu",
                             static_cast<unsigned long long>(transcript),
                             session.commands.size()));
  p.outputs.push_back("final " + status);
  auto d0 = Clock::now();
  owner.reset();
  p.teardown += since(d0);

  // The restore starts from the snapshot text alone, as a restarted
  // service would.
  const auto r0 = Clock::now();
  std::istringstream in(snapshot);
  auto restored = std::make_unique<Daemon>(Snapshot::read(in));
  const bool same = restored->status_line() == status;
  p.restore += since(r0);
  check.expect(same, "restore reconverges on the snapshotted digest");
  p.restore_events += restored->simulation().simulator().executed();

  d0 = Clock::now();
  restored.reset();
  p.teardown += since(d0);
}

/// All sessions of one pass; their outputs are checked together.
ServePass serve_pass(const std::vector<ServeSession>& sessions, Checker& check,
                     StepLedger* ledger) {
  ServePass p;
  for (const ServeSession& session : sessions) serve_session(session, check, ledger, p);
  check.compare(p.outputs);
  return p;
}

Report run_serve_replay(const RunOptions& o, Checker& check) {
  const auto sessions = serve_sessions(o.seed);

  PassTimes times;
  const auto untraced_pass = [&] {
    ServePass p = serve_pass(sessions, check, nullptr);
    times.setups.push_back(p.setup);
    times.runs.push_back(p.run);
    times.restores.push_back(p.restore);
    times.advance_us.insert(times.advance_us.end(), p.advance_us.begin(), p.advance_us.end());
  };

  if (!o.trace) {
    repeat_with_setups(
        o.seconds, untraced_pass,
        [&] {
          double setup = 0.0;
          for (const ServeSession& session : sessions) {
            const auto t0 = Clock::now();
            const Daemon daemon(session.options);
            setup += since(t0);
          }
          return setup;
        },
        times.setups);
    Report r;
    set_end_to_end(r, times);
    return r;
  }

  const auto start = Clock::now();
  untraced_pass();
  StepLedger ledger;
  Profiler::reset();
  const auto w0 = Clock::now();
  ServePass p = serve_pass(sessions, check, &ledger);
  const double wall = since(w0);
  repeat_for(o.seconds - since(start), 0, untraced_pass);

  std::size_t commands = 0;
  for (const ServeSession& session : sessions) commands += session.commands.size();
  Report r;
  set_ledger_metrics(r, ledger);
  set_profiler_metrics(r);
  r.set("service.commands", static_cast<double>(commands));
  r.set("service.inject_us_p50", quantile(p.inject_us, 0.50));
  r.set("service.inject_us_p90", quantile(p.inject_us, 0.90));
  r.set("service.query_us_p50", quantile(p.query_us, 0.50));
  r.set("service.err_replies", static_cast<double>(p.errors));
  r.set("service.handle_self_ns", p.run * 1e9 - static_cast<double>(ledger.total_ns()));
  r.set("service.journal_entries", static_cast<double>(p.journal_entries));
  r.set("service.snapshot_ms", p.snapshot * 1e3);
  r.set("service.snapshot_bytes", static_cast<double>(p.snapshot_bytes));
  r.set("service.restore_ms", p.restore * 1e3);
  r.set("service.restore_events", static_cast<double>(p.restore_events));
  r.set("service.restore_ns_per_event",
        p.restore_events > 0 ? p.restore * 1e9 / static_cast<double>(p.restore_events) : 0.0);
  r.set("obs.telemetry_samples", static_cast<double>(p.telemetry_samples));
  p.totals.set(r);  // the sessions' ExperimentResults, as cells of a grid
  r.set("trace.wall_s", wall);
  r.set("trace.setup_s", p.setup);
  r.set("trace.teardown_s", p.teardown);
  r.set("trace.unattributed_s",
        wall - p.setup - p.run - p.snapshot - p.restore - p.teardown);
  r.set("trace.overhead", p.run / median(times.runs) - 1.0);
  return r;
}

}  // namespace

void Checker::compare(const Outputs& got) {
  if (first_.empty()) first_ = got;
  if (!want_) {
    want_ = got;
    return;
  }
  const std::size_t n = std::max(want_->size(), got.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::string want = i < want_->size() ? (*want_)[i] : "<missing>";
    const std::string have = i < got.size() ? got[i] : "<missing>";
    expect(want == have, "want " + want + "\n  got  " + have);
  }
}

void Checker::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failed_ <= 10) std::fprintf(stderr, "perfbench: mismatch: %s\n", what.c_str());
}

std::vector<SimulationConfig> paper_cells(std::uint64_t seed) {
  SplitMix64 seeds(seed);
  std::vector<SimulationConfig> cells;
  for (const Algorithm a : {Algorithm::kCentralized, Algorithm::kFixedDistributed,
                            Algorithm::kDynamicDistributed}) {
    for (const std::size_t robots : {4, 9, 16}) {
      SimulationConfig cfg;
      cfg.algorithm = a;
      cfg.robots = robots;
      cfg.seed = seeds.next();
      cfg.sim_duration = kPaperHorizon;
      cells.push_back(cfg);
    }
  }
  return cells;
}

std::vector<std::int64_t> run_sliced(Simulation& sim, double slice) {
  const double horizon = sim.config().sim_duration;
  std::vector<std::int64_t> ns;
  for (std::size_t k = 1;; ++k) {
    const double t = std::min(horizon, slice * static_cast<double>(k));
    const auto t0 = Clock::now();
    sim.run_until(t);
    ns.push_back(ns_between(t0, Clock::now()));
    if (t >= horizon) return ns;
  }
}

void run_stepped(Simulation& sim, StepLedger& ledger) {
  const double horizon = sim.config().sim_duration;
  sensrep::sim::Simulator& s = sim.simulator();
  const auto& counters = sim.counters();
  while (s.pending() > 0 && s.next_event_time() <= horizon) {
    ledger.before(counters, 0);
    const auto t0 = Clock::now();
    s.step();
    const auto t1 = Clock::now();
    ledger.after(counters, 0, ns_between(t0, t1), s.pending());
  }
  sim.run_until(horizon);
}

std::string cell_line(const Simulation& sim) {
  const auto res = sim.result();
  return strfmt(
      "%s robots=%zu seed=%llu %s report_hops=%.17g request_hops=%.17g travel=%.17g "
      "update_tx=%.17g delivery=%.17g drops=%llu",
      std::string(sensrep::core::to_string(res.algorithm)).c_str(), res.robots,
      static_cast<unsigned long long>(res.seed), sim.digest().to_string().c_str(),
      res.avg_report_hops, res.avg_request_hops, res.avg_travel_per_repair,
      res.location_update_tx_per_repair, res.delivery_ratio,
      static_cast<unsigned long long>(res.router_drops));
}

sensrep::service::DaemonOptions serve_options(std::uint64_t seed) {
  sensrep::service::DaemonOptions opts;
  opts.algorithm = Algorithm::kDynamicDistributed;
  opts.robots = kServeRobots;
  opts.seed = seed;
  opts.loss = 0.02;
  opts.spontaneous_failures = false;  // the command stream is the failure source
  opts.metrics = true;
  opts.trace_stages = true;
  opts.telemetry_period = 300.0;
  opts.retention_window = 3600.0;
  return opts;
}

std::vector<std::string> serve_commands(std::uint64_t seed, const SimulationConfig& cfg) {
  // tools/soak_replay's structure: batches of failures, each followed by an
  // advance, and a crash-robot/repair-robot toggle every `kCrashEvery`
  // failures that walks the robots in turn. Departures from its defaults
  // (batches of 4, 60 s advances, a crash toggle every 5000 failures):
  // - The failure rate is the paper's, not soak_replay's 4 a minute, at
  //   which the 9-robot fleet repairs only ~60 % of the failures and its
  //   backlog grows without bound. The advance is the time the paper's
  //   failure process (Exp lifetimes of mean T = 16000 s over the field's
  //   450 sensors) takes to fail one batch, and a batch is 2 so that the
  //   advance, 71 s, stays close to soak_replay's 60 s.
  // - soak_replay draws failed sensors with replacement and tolerates the
  //   duplicate's error reply; here sensors fail in the order of a seeded
  //   permutation, each at most once, so with spontaneous failures off
  //   every reply is ok.
  // - A session injects 80 failures, so the crash toggle comes every 20:
  //   two crash/repair cycles per session.
  // - The status and telemetry queries are the benchmark's own.
  constexpr std::size_t kCrashEvery = 20;
  constexpr std::size_t kStatusEvery = 4;      // batches between status queries
  constexpr std::size_t kTelemetryEvery = 10;  // batches between telemetry queries
  const std::size_t sensors = cfg.sensor_count();
  if (kServeBatches * kServeBatch > sensors) {
    throw std::invalid_argument("serve_replay: more failures than sensors");
  }
  const double advance =
      static_cast<double>(kServeBatch) * cfg.field.lifetime.mean / static_cast<double>(sensors);

  SplitMix64 rng(seed ^ 0x5e7e5e7eULL);
  std::vector<std::size_t> order(sensors);
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = sensors; i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);

  std::vector<std::string> out;
  std::size_t injected = 0, robot = 0;
  bool down = false;
  for (std::size_t batch = 1; batch <= kServeBatches; ++batch) {
    for (std::size_t k = 0; k < kServeBatch; ++k) {
      out.push_back(strfmt("fail %zu", order[injected++]));
      if (injected % kCrashEvery != 0) continue;
      if (down) {
        out.push_back(strfmt("repair-robot %zu", robot));
        robot = (robot + 1) % cfg.robots;
      } else {
        out.push_back(strfmt("crash-robot %zu", robot));
      }
      down = !down;
    }
    out.push_back(strfmt("advance %.0f", advance));
    if (batch % kStatusEvery == 0) out.push_back("status");
    if (batch % kTelemetryEvery == 0) out.push_back("telemetry");
  }
  return out;
}

Report run_workload(const std::string& name, const RunOptions& options, Checker& check) {
  if (name == "serve_replay") return run_serve_replay(options, check);
  if (name == "paper_grid") return run_paper_grid(options, check);
  throw std::invalid_argument("unknown workload '" + name +
                              "' (expected paper_grid or serve_replay)");
}

}  // namespace perfbench
