// Open-loop E2 benchmark binary (see perfbench/README.md).
//
//   perfbench_e2 --workload <fb-stats|asn-telemetry|sharded-small>
//                --seed <n> --seconds <s> --trace <0|1>
//
// Builds a real E2 deployment on loopback TCP — E2Server or ShardedE2Server,
// E2Agents with BsFunctionBundles over simulated BaseStations — and drives
// every agent from this one generator thread on an open-loop schedule: agent
// `a` is due at t0 + k * period + phase[a], whatever the controller does.
// Prints one JSON line: metrics, correctness checks and the indication
// ledger. run.py turns it into the benchmark's result line.
#include <pthread.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "agent/agent.hpp"
#include "common/rng.hpp"
#include "e2ap/codec.hpp"
#include "e2bench/iapp.hpp"
#include "e2bench/spans.hpp"
#include "e2bench/stats.hpp"
#include "ran/base_station.hpp"
#include "ran/functions.hpp"
#include "server/sharded_server.hpp"
#include "transport/shard_pool.hpp"
#include "transport/wakeup.hpp"

namespace {

using namespace perfbench;
namespace mac = fx::e2sm::mac;
namespace rlc = fx::e2sm::rlc;
namespace pdcp = fx::e2sm::pdcp;
using fx::kMicro;
using fx::kMilli;
using fx::kSecond;

// ---------------------------------------------------------------------------
// Workloads (why each exists: README.md)
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  int agents;
  int ues;
  std::uint32_t period_ms;  ///< TTI and report period of every agent
  WireFormat fmt;           ///< E2AP and E2SM encoding
  std::uint32_t shards;     ///< 0: one unsharded E2Server
  bool decode;              ///< iApp decodes and ingests into telemetry
  bool fanout;              ///< subscribe_fanout MAC stream to home
};

constexpr Workload kWorkloads[] = {
    {"fb-stats", 8, 32, 1, WireFormat::flat, 0, false, false},
    {"asn-telemetry", 2, 32, 1, WireFormat::per, 0, true, false},
    {"sharded-small", 128, 4, 10, WireFormat::flat, 2, false, true},
};

constexpr int kSetupReps = 15;            ///< setup_s is their median
constexpr Nanos kWarmup = kSecond;        ///< schedule runs before the window
constexpr Nanos kPumpEvery = 200 * kMicro;  ///< home-thread pump cadence
constexpr Nanos kPingEvery = 10 * kMilli;      ///< HW pings, 100/s
constexpr Nanos kQueryEvery = 5 * kMilli;      ///< northbound queries, 200/s
constexpr Nanos kDrainMin = 50 * kMilli;
constexpr Nanos kDrainMax = 5 * kSecond;
constexpr Nanos kSetupTimeout = 30 * kSecond;
constexpr std::size_t kTelemetryBudget = 256u << 20;

Nanos clock_ns(clockid_t c) {
  timespec ts{};
  clock_gettime(c, &ts);
  return static_cast<Nanos>(ts.tv_sec) * kSecond + ts.tv_nsec;
}

[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "perfbench_e2: %s\n", what);
  std::exit(2);
}

/// Seeded stream for one purpose, so adding a draw to one purpose does not
/// shift the inputs of another.
fx::Rng stream(std::uint64_t seed, std::uint64_t purpose) {
  return fx::Rng(seed * 0x9E3779B97F4A7C15ULL + purpose);
}

/// Open-loop side schedule: one event per `period` slot, at a seeded offset
/// in the slot's first half, so the events sample every phase of the TTI
/// instead of locking onto one.
class Jittered {
 public:
  Jittered(Nanos start, Nanos period, fx::Rng rng)
      : period_(period), slot_(start), rng_(rng) {
    next_ = slot_ + draw();
  }
  /// True once per slot, at or after the slot's event time.
  bool due(Nanos now) {
    if (now < next_) return false;
    slot_ += period_;
    next_ = slot_ + draw();
    return true;
  }

 private:
  Nanos draw() {
    return static_cast<Nanos>(
        rng_.bounded(static_cast<std::uint64_t>(period_ / 2)));
  }
  Nanos period_;
  Nanos slot_;
  Nanos next_ = 0;
  fx::Rng rng_;
};

// ---------------------------------------------------------------------------
// Deployment: controller side + agents, set up and torn down as a unit
// ---------------------------------------------------------------------------

struct AgentSlot {
  std::unique_ptr<fx::ran::BaseStation> bs;
  std::unique_ptr<fx::agent::E2Agent> agent;
  std::unique_ptr<fx::ran::BsFunctionBundle> bundle;
  fx::agent::ControllerId conn = 0;
  Nanos phase = 0;
};

class Deployment {
 public:
  Deployment(const Workload& wl, std::uint64_t seed, Window& win);
  ~Deployment() { stop(); }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Stops the controller threads; results are readable afterwards.
  void stop();

  /// Has the ping agent's iApp send one E2SM-HW ping, on its own thread.
  void trigger_ping() {
    if (ric) {
      (void)ric->post_to_shard(ping_shard_, [app = iapps[ping_shard_].get()] {
        app->ping();
      });
    } else {
      want_ping_ = true;
      wake_->notify();
    }
  }
  /// Unsharded: has the iApp run one query on the controller thread.
  void trigger_query() {
    want_query_ = true;
    wake_->notify();
  }

  const Workload& wl;
  Window& win;
  Nanos setup_ns = 0;
  fx::Reactor agent_reactor;  // generator thread; outlives the agents
  std::vector<AgentSlot> agents;
  std::vector<std::shared_ptr<StatsIApp>> iapps;
  std::vector<std::unique_ptr<FrameTap>> taps;
  std::vector<clockid_t> ctrl_clocks;
  std::vector<fx::server::E2Server::Stats> server_stats;  ///< after stop()
  std::unique_ptr<fx::telemetry::TelemetryStore> store;
  std::unique_ptr<fx::telemetry::Ingest> ingest;
  // -- unsharded --
  Nanos turn_cpu_ns = 0;  ///< controller turns while tracing
  // -- sharded --
  std::unique_ptr<fx::ShardPool> pool;
  std::unique_ptr<fx::server::ShardedE2Server> ric;
  std::vector<std::unique_ptr<fx::TcpListener>> listeners;
  fx::ShardLedger ledger;  ///< after stop()
  std::uint64_t fanout_delivered = 0;
  std::uint64_t fanout_wrong_fn = 0;
  std::vector<std::uint32_t> query_nb_ids;
  Sliced home_query_us = make_sliced();
  std::uint64_t home_query_failures = 0;

  [[nodiscard]] std::uint64_t delivered() const {
    std::uint64_t d = fanout_delivered;
    for (const auto& a : iapps) d += a->delivered.load(std::memory_order_relaxed);
    return d;
  }
  [[nodiscard]] std::uint64_t emitted() const {
    std::uint64_t e = 0;
    for (const AgentSlot& s : agents) e += s.agent->stats().indications_tx;
    return e;
  }
  [[nodiscard]] Nanos ctrl_cpu() const {
    Nanos c = 0;
    for (clockid_t id : ctrl_clocks) c += clock_ns(id);
    return c;
  }
  [[nodiscard]] std::uint64_t frames() const {
    std::uint64_t f = 0;
    for (const auto& t : taps) f += t->frames.load(std::memory_order_relaxed);
    return f;
  }

 private:
  void controller_main(std::promise<std::uint16_t>* port);
  [[nodiscard]] bool ready() const;

  std::thread ctrl_thread_;
  std::atomic<bool> stop_{false};
  bool stopped_ = false;
  fx::WakeupFd* wake_ = nullptr;  ///< unsharded: controller-owned
  std::atomic<bool> want_ping_{false};
  std::atomic<bool> want_query_{false};
  std::uint32_t ping_shard_ = 0;
  std::uint64_t expected_acks_ = 0;
};

Deployment::Deployment(const Workload& w, std::uint64_t seed, Window& wn)
    : wl(w), win(wn) {
  const Nanos t0 = fx::mono_now();
  fx::Rng ue_rng = stream(seed, 1);
  fx::Rng phase_rng = stream(seed, 2);
  fx::Rng pick_rng = stream(seed, 3);

  IAppConfig cfg;
  cfg.fmt = wl.fmt;
  cfg.period_ms = wl.period_ms;
  cfg.ues = wl.ues;
  cfg.decode = wl.decode;
  cfg.ping_nb_id = 1 + static_cast<std::uint32_t>(
                           pick_rng.bounded(static_cast<std::uint64_t>(wl.agents)));
  for (int i = 0; i < 16; ++i)
    cfg.ping_payload.push_back(static_cast<std::uint8_t>(pick_rng.next()));
  for (int i = 0; i < 64; ++i)
    query_nb_ids.push_back(
        1 + static_cast<std::uint32_t>(
                pick_rng.bounded(static_cast<std::uint64_t>(wl.agents))));
  cfg.query_nb_ids = query_nb_ids;
  // Three statistics streams per agent, plus the pong stream.
  expected_acks_ = 3 * static_cast<std::uint64_t>(wl.agents) + 1;

  std::vector<std::uint16_t> ports;
  if (wl.shards == 0) {
    if (wl.decode) {
      // Sized to the working set (agents x UEs x 12 core KPI series, ~155 KB
      // each): below it, every new series evicts another (README.md).
      fx::telemetry::StoreConfig stc;
      stc.memory_budget = kTelemetryBudget;
      store = std::make_unique<fx::telemetry::TelemetryStore>(stc);
      ingest = std::make_unique<fx::telemetry::Ingest>(*store);
    }
    iapps.push_back(
        std::make_shared<StatsIApp>(cfg, win, ingest.get(), store.get()));
    taps.resize(1);
    ctrl_clocks.resize(1);
    std::promise<std::uint16_t> port;
    auto fut = port.get_future();
    ctrl_thread_ = std::thread([this, &port] { controller_main(&port); });
    ports.push_back(fut.get());
    if (ports[0] == 0) die("controller failed to listen");
  } else {
    pool = std::make_unique<fx::ShardPool>(wl.shards, fx::ShardPool::Mode::threaded);
    fx::server::ShardedConfig sc;
    sc.server.e2ap_format = wl.fmt;
    ric = std::make_unique<fx::server::ShardedE2Server>(*pool, sc);
    iapps.resize(wl.shards);
    ric->add_iapp_factory([this, cfg](std::uint32_t s) {
      iapps[s] = std::make_shared<StatsIApp>(cfg, win, nullptr, nullptr);
      return iapps[s];
    });
    ping_shard_ = ric->shard_for(
        {1, cfg.ping_nb_id, fx::e2ap::NodeType::enb});
    if (wl.fanout) {
      fx::e2sm::EventTrigger trig;
      trig.period_ms = wl.period_ms;
      fx::e2ap::Action action;
      action.id = 1;
      action.type = fx::e2ap::ActionType::report;
      ric->subscribe_fanout(
          mac::Sm::kId, fx::e2sm::sm_encode(trig, wl.fmt), {action},
          [this](const fx::server::ShardedE2Server::FanoutIndication& fi) {
            fanout_delivered++;
            if (fi.ind.ran_function_id != mac::Sm::kId) fanout_wrong_fn++;
          });
    }
    for (std::uint32_t s = 0; s < wl.shards; ++s) {
      taps.push_back(std::make_unique<FrameTap>(pool->reactor(s), true));
      FrameTap* tap = taps.back().get();
      listeners.push_back(std::make_unique<fx::TcpListener>(
          pool->reactor(s), [this, s, tap](std::unique_ptr<fx::TcpTransport> t) {
            ric->shard_server(s).attach(
                std::make_shared<TappedTransport>(std::move(t), *tap));
          }));
      if (!listeners.back()->listen(0).is_ok()) die("shard listen failed");
      ports.push_back(listeners.back()->port());
    }
    pool->start();
    ctrl_clocks.resize(wl.shards);
    std::vector<std::atomic<bool>> got(wl.shards);
    for (std::uint32_t s = 0; s < wl.shards; ++s)
      if (!pool->post(s, [this, s, &got] {
                  pthread_getcpuclockid(pthread_self(), &ctrl_clocks[s]);
                  got[s].store(true);
                }).is_ok())
        die("shard post failed");
    for (std::uint32_t s = 0; s < wl.shards; ++s)
      while (!got[s].load()) std::this_thread::yield();
  }

  const Nanos period = static_cast<Nanos>(wl.period_ms) * kMilli;
  agents.resize(static_cast<std::size_t>(wl.agents));
  for (int a = 0; a < wl.agents; ++a) {
    AgentSlot& slot = agents[static_cast<std::size_t>(a)];
    fx::ran::CellConfig cell{fx::ran::Rat::lte, static_cast<std::uint32_t>(a),
                             25, period, 28, false};
    slot.bs = std::make_unique<fx::ran::BaseStation>(cell, ue_rng.next());
    for (int u = 0; u < wl.ues; ++u) {
      fx::ran::BaseStation::UeConfig ue;
      ue.rnti = static_cast<std::uint16_t>(100 + u);
      ue.plmn = 1;
      ue.initial_cqi = static_cast<std::uint8_t>(7 + ue_rng.bounded(9));
      ue.fixed_mcs = static_cast<std::uint8_t>(10 + ue_rng.bounded(19));
      if (!slot.bs->attach_ue(ue).is_ok()) die("attach_ue failed");
    }
    const fx::e2ap::GlobalNodeId node{1, static_cast<std::uint32_t>(a + 1),
                                      fx::e2ap::NodeType::enb};
    const std::uint16_t port = wl.shards == 0 ? ports[0] : ports[ric->shard_for(node)];
    auto conn = fx::TcpTransport::connect(agent_reactor, "127.0.0.1", port);
    if (!conn.is_ok()) die("agent connect failed");
    slot.agent = std::make_unique<fx::agent::E2Agent>(
        agent_reactor, fx::agent::E2Agent::Config{node, wl.fmt, {}});
    slot.bundle = std::make_unique<fx::ran::BsFunctionBundle>(*slot.bs, *slot.agent,
                                                              wl.fmt);
    if (!slot.agent->register_function(std::make_shared<fx::ran::HwFunction>(wl.fmt))
             .is_ok())
      die("HW function registration failed");
    auto cid = slot.agent->add_controller(
        std::shared_ptr<fx::MsgTransport>(std::move(*conn)));
    if (!cid.is_ok()) die("add_controller failed");
    slot.conn = *cid;
    // Stratified: agent a starts somewhere in the middle half of slot a of
    // the TTI. Fully random phases let a seed cluster agents into one burst,
    // which moves queueing latency more than any code change would.
    const Nanos slot_ns = period / wl.agents;
    slot.phase = a * slot_ns + slot_ns / 4 +
                 static_cast<Nanos>(phase_rng.bounded(
                     static_cast<std::uint64_t>(std::max<Nanos>(slot_ns / 2, 1))));
  }

  while (!ready()) {
    if (fx::mono_now() - t0 > kSetupTimeout) die("setup did not converge");
    agent_reactor.run_once(1);
    if (ric) (void)ric->pump_home();
  }
  setup_ns = fx::mono_now() - t0;
}

bool Deployment::ready() const {
  for (const AgentSlot& s : agents)
    if (s.agent->state(s.conn) != fx::agent::ConnState::established) return false;
  std::uint64_t acks = 0;
  for (const auto& a : iapps) acks += a->sub_acks.load(std::memory_order_relaxed);
  if (acks < expected_acks_) return false;
  if (wl.fanout)  // the fan-out stream is a second MAC subscription per agent
    for (const AgentSlot& s : agents)
      if (s.bundle->mac().num_subscriptions() < 2) return false;
  return true;
}

void Deployment::controller_main(std::promise<std::uint16_t>* port) {
  fx::Reactor r;
  fx::server::E2Server::Config sc;
  sc.e2ap_format = wl.fmt;
  fx::server::E2Server srv(r, sc);
  taps[0] = std::make_unique<FrameTap>(r, false);
  FrameTap* tap = taps[0].get();
  fx::TcpListener lst(r, [&srv, tap](std::unique_ptr<fx::TcpTransport> t) {
    srv.attach(std::make_shared<TappedTransport>(std::move(t), *tap));
  });
  if (!lst.listen(0).is_ok()) {
    port->set_value(0);
    return;
  }
  srv.add_iapp(iapps[0]);
  fx::WakeupFd wake(r, [this, app = iapps[0].get()] {
    if (want_ping_.exchange(false)) app->ping();
    if (want_query_.exchange(false)) app->run_query();
  });
  wake_ = &wake;
  pthread_getcpuclockid(pthread_self(), &ctrl_clocks[0]);
  port->set_value(lst.port());
  while (!stop_.load(std::memory_order_relaxed)) {
    if (tracing_on().load(std::memory_order_relaxed)) {
      const Nanos c0 = fx::thread_cpu_now();
      r.run_once(1);
      turn_cpu_ns += fx::thread_cpu_now() - c0;
    } else {
      r.run_once(1);
    }
  }
  server_stats.push_back(srv.stats());
}

void Deployment::stop() {
  if (stopped_) return;
  stopped_ = true;
  if (ctrl_thread_.joinable()) {
    stop_ = true;
    ctrl_thread_.join();
  }
  if (pool) {
    (void)ric->pump_home();
    pool->stop();
    for (std::uint32_t s = 0; s < wl.shards; ++s)
      server_stats.push_back(ric->shard_server(s).stats());
    ledger = ric->global_ledger();
    (void)ric->pump_home();
  }
}

// ---------------------------------------------------------------------------
// The open-loop schedule
// ---------------------------------------------------------------------------

/// Generator-side accumulators, timed with the steady clock around calls
/// that never block (wall time == CPU time unless the thread is preempted).
struct Laps {
  Nanos tick = 0;    ///< BaseStation::tick
  Nanos on_tti = 0;  ///< BsFunctionBundle::on_tti (SM + E2AP encode, send)
  Nanos flush = 0;   ///< agent reactor turn after each agent's TTI
  Nanos pump = 0;    ///< ShardedE2Server::pump_home
  std::uint64_t ticks = 0;
};

/// Cumulative counters read at each window edge.
struct Snap {
  Nanos t = 0;
  Nanos ctrl_cpu = 0;  ///< controller threads (shard threads when sharded)
  std::uint64_t delivered = 0;
  std::uint64_t emitted = 0;
  std::uint64_t frames = 0;
  std::uint64_t traced_frames = 0;
  std::uint64_t fanout = 0;
  std::uint64_t bytes = 0;
  Laps laps;
};

struct Schedule {
  /// Snapshots at the window's edges: the Window::kSlices slice edges when
  /// untraced; start, traced-half start and end when traced.
  std::vector<Snap> edges;
  Histogram late_us;  ///< generator lateness over the reported window
};

Snap take_snap(const Deployment& d, const Laps& laps) {
  Snap s;
  s.t = fx::mono_now();
  s.ctrl_cpu = d.ctrl_cpu();
  s.delivered = d.delivered();
  s.emitted = d.emitted();
  s.frames = d.frames();
  for (const auto& t : d.taps) {
    s.traced_frames += t->traced_frames.load(std::memory_order_relaxed);
    s.bytes += t->bytes.load(std::memory_order_relaxed);
  }
  s.fanout = d.fanout_delivered;
  s.laps = laps;
  return s;
}

Schedule run_schedule(Deployment& d, std::uint64_t seed, Nanos seconds,
                      bool trace) {
  const Workload& wl = d.wl;
  const Nanos period = static_cast<Nanos>(wl.period_ms) * kMilli;
  std::vector<std::size_t> order(d.agents.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return d.agents[a].phase < d.agents[b].phase;
  });

  const Nanos t_start = fx::mono_now() + 5 * kMilli;
  const Nanos b0 = t_start + kWarmup;
  const Nanos b2 = b0 + seconds;
  const Nanos late_from = trace ? b0 + seconds / 2 : b0;
  d.win.begin = b0;
  d.win.end = b2;
  std::vector<Nanos> edge_at;
  const int parts = trace ? 2 : Window::kSlices;
  for (int i = 0; i <= parts; ++i) edge_at.push_back(b0 + seconds * i / parts);

  Schedule out;
  Laps laps;
  std::size_t edge = 0;
  std::size_t j = 0;
  std::int64_t k = 0;
  Nanos next_pump = 0;
  Jittered pings(t_start, kPingEvery, stream(seed, 4));
  Jittered queries(t_start, kQueryEvery, stream(seed, 5));
  std::uint64_t qn = 0;

  // Pings and queries for every workload; sharded, also the home-thread
  // pump. Unsharded queries run on the controller thread, sharded ones go
  // through ShardedE2Server::query.
  auto side_duties = [&](Nanos now) {
    if (pings.due(now)) d.trigger_ping();
    const bool query_due = queries.due(now);
    if (!d.ric) {
      if (query_due) d.trigger_query();
      return;
    }
    if (query_due) {
      const std::uint32_t nb = d.query_nb_ids[qn % d.query_nb_ids.size()];
      const std::uint64_t pick = qn++;
      const fx::e2ap::GlobalNodeId node{1, nb, fx::e2ap::NodeType::enb};
      const std::uint32_t shard = d.ric->shard_for(node);
      StatsIApp* app = d.iapps[shard].get();
      const Nanos issued = fx::mono_now();
      auto st = d.ric->query(
          shard,
          [app, nb, pick](fx::server::E2Server&) -> std::string {
            Span s(Layer::query);
            return app->query(nb, pick) ? "ok" : "fail";
          },
          [&d, issued](fx::Result<std::string> r) {
            const int sl = d.win.slice(issued);
            if (sl < 0) return;
            d.home_query_us[sl].add(
                static_cast<double>(fx::mono_now() - issued) / 1e3);
            if (!r.is_ok() || *r != "ok") d.home_query_failures++;
          });
      if (!st.is_ok() && d.win.in(issued)) d.home_query_failures++;
    }
    if (now >= next_pump) {
      next_pump = now + kPumpEvery;
      const Nanos p0 = steady_ns();
      (void)d.ric->pump_home();
      laps.pump += steady_ns() - p0;
    }
  };

  while (true) {
    const Nanos due = t_start + k * period + d.agents[order[j]].phase;
    Nanos now = fx::mono_now();
    while (edge < edge_at.size() && now >= edge_at[edge]) {
      // Traced runs trace their second half only; the first is the
      // untraced reference for trace.overhead_pct.
      if (trace && edge == 2) tracing_on().store(false);
      out.edges.push_back(take_snap(d, laps));
      if (trace && edge == 1) tracing_on().store(true);
      edge++;
    }
    if (edge == edge_at.size()) break;
    side_duties(now);
    if (now < due) {
      // Busy-poll until the next agent is due, serving the agents' sockets
      // meanwhile. Sleeping instead let vCPU wake-ups make the generator
      // late by milliseconds at p99 on an idle schedule.
      d.agent_reactor.run_once(0);
      continue;
    }
    if (due >= late_from && due < b2)
      out.late_us.add(static_cast<double>(now - due) / 1e3);
    AgentSlot& ag = d.agents[order[j]];
    const Nanos t0 = steady_ns();
    ag.bs->tick(due);
    const Nanos t1 = steady_ns();
    ag.bundle->on_tti(due);
    const Nanos t2 = steady_ns();
    d.agent_reactor.run_once(0);  // flush this agent's corked sends
    const Nanos t3 = steady_ns();
    laps.tick += t1 - t0;
    laps.on_tti += t2 - t1;
    laps.flush += t3 - t2;
    laps.ticks++;
    if (++j == order.size()) {
      j = 0;
      ++k;
    }
  }
  return out;
}

/// Lets in-flight indications land: agents keep flushing, home keeps
/// pumping, until everything emitted was delivered or kDrainMax passes.
void drain(Deployment& d) {
  for (const auto& a : d.iapps) a->stop_pings = true;
  const Nanos t0 = fx::mono_now();
  while (true) {
    d.agent_reactor.run_once(1);
    if (d.ric) (void)d.ric->pump_home();
    const Nanos el = fx::mono_now() - t0;
    if (el > kDrainMax) break;
    if (el > kDrainMin && d.delivered() == d.emitted()) break;
  }
}

// ---------------------------------------------------------------------------
// Codec replays on frames sampled during the traced half
// ---------------------------------------------------------------------------

struct Replay {
  double assemble_ns = 0, decode_ns = 0, decode_allocs = 0, peek_ns = 0;
  double encode_ns = 0, encode_allocs = 0, sm_encode_ns = 0;
  std::uint64_t frames = 0;
  std::uint64_t checksum = 0;  ///< keeps replayed results observable
};

template <typename F>
double time_per(std::size_t reps, std::size_t items, F&& body) {
  const Nanos t0 = steady_ns();
  for (std::size_t r = 0; r < reps; ++r) body();
  return static_cast<double>(steady_ns() - t0) /
         static_cast<double>(reps * std::max<std::size_t>(items, 1));
}

Replay replay_codecs(const std::vector<Buffer>& frames, WireFormat fmt) {
  Replay out;
  out.frames = frames.size();
  if (frames.empty()) return out;
  const fx::e2ap::Codec& codec = fx::e2ap::codec_for(fmt);
  const std::size_t reps = std::max<std::size_t>(3, 60000 / frames.size());

  Buffer stream;
  for (const Buffer& f : frames) fx::append_frame(stream, f, 0);
  out.assemble_ns = time_per(reps, frames.size(), [&] {
    fx::FrameAssembler fa;
    constexpr std::size_t kChunk = 65536;  // TcpTransport's read size
    for (std::size_t off = 0; off < stream.size(); off += kChunk) {
      const std::size_t n = std::min(kChunk, stream.size() - off);
      (void)fa.feed(BytesView(stream.data() + off, n),
                    [&](fx::StreamId, BytesView m) {
                      out.checksum += m.size();
                      return true;
                    });
    }
  });

  out.peek_ns = time_per(reps, frames.size(), [&] {
    for (const Buffer& f : frames) {
      auto t = codec.peek_type(f);
      if (t.is_ok()) out.checksum += static_cast<std::uint64_t>(*t);
    }
  });

  std::vector<fx::e2ap::Msg> msgs;
  for (const Buffer& f : frames) {
    auto m = codec.decode(f);
    if (m.is_ok()) msgs.push_back(std::move(*m));
  }
  std::uint64_t allocs = 0;
  out.decode_ns = time_per(reps, frames.size(), [&] {
    const std::uint64_t a0 = thread_allocs();
    for (const Buffer& f : frames) {
      auto m = codec.decode(f);
      if (m.is_ok()) out.checksum += m->index();
    }
    allocs += thread_allocs() - a0;
  });
  out.decode_allocs =
      static_cast<double>(allocs) / static_cast<double>(reps * frames.size());

  allocs = 0;
  out.encode_ns = time_per(reps, msgs.size(), [&] {
    const std::uint64_t a0 = thread_allocs();
    for (const fx::e2ap::Msg& m : msgs) {
      auto w = codec.encode(m);
      if (w.is_ok()) out.checksum += w->size();
    }
    allocs += thread_allocs() - a0;
  });
  out.encode_allocs = static_cast<double>(allocs) /
                      static_cast<double>(reps * std::max<std::size_t>(msgs.size(), 1));

  // E2SM encode of the statistics messages the sampled frames carried.
  std::vector<mac::IndicationMsg> macs;
  std::vector<rlc::IndicationMsg> rlcs;
  std::vector<pdcp::IndicationMsg> pdcps;
  for (const fx::e2ap::Msg& m : msgs) {
    const auto* ind = std::get_if<fx::e2ap::Indication>(&m);
    if (ind == nullptr) continue;
    if (ind->ran_function_id == mac::Sm::kId) {
      auto v = fx::e2sm::sm_decode<mac::IndicationMsg>(ind->message, fmt);
      if (v.is_ok()) macs.push_back(std::move(*v));
    } else if (ind->ran_function_id == rlc::Sm::kId) {
      auto v = fx::e2sm::sm_decode<rlc::IndicationMsg>(ind->message, fmt);
      if (v.is_ok()) rlcs.push_back(std::move(*v));
    } else if (ind->ran_function_id == pdcp::Sm::kId) {
      auto v = fx::e2sm::sm_decode<pdcp::IndicationMsg>(ind->message, fmt);
      if (v.is_ok()) pdcps.push_back(std::move(*v));
    }
  }
  const std::size_t sms = macs.size() + rlcs.size() + pdcps.size();
  out.sm_encode_ns = time_per(reps, sms, [&] {
    for (const auto& v : macs) out.checksum += fx::e2sm::sm_encode(v, fmt).size();
    for (const auto& v : rlcs) out.checksum += fx::e2sm::sm_encode(v, fmt).size();
    for (const auto& v : pdcps) out.checksum += fx::e2sm::sm_encode(v, fmt).size();
  });
  return out;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

class Report {
 public:
  void metric(const char* name, double v, const char* unit) {
    metrics_ += sep(metrics_) + "\"" + name + "\": {\"value\": " + num(v) +
                ", \"unit\": \"" + unit + "\"}";
  }
  void check(const char* name, bool ok) {
    checks_ += sep(checks_) + "\"" + name + "\": " + (ok ? "true" : "false");
    all_ok_ = all_ok_ && ok;
  }
  void info(const char* name, double v) {
    info_ += sep(info_) + "\"" + name + "\": " + num(v);
  }
  void print(const Workload& wl, std::uint64_t seed, Nanos seconds, bool trace,
             std::uint64_t attempted, std::uint64_t failed) const {
    std::printf(
        "{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"seconds\": %g, "
        "\"trace\": %d, \"correct\": %s, \"attempted\": %" PRIu64
        ", \"failed\": %" PRIu64 ", \"metrics\": {%s}, \"checks\": {%s}, "
        "\"info\": {%s}}\n",
        wl.name, seed, static_cast<double>(seconds) / 1e9, trace ? 1 : 0,
        all_ok_ ? "true" : "false", attempted, failed, metrics_.c_str(),
        checks_.c_str(), info_.c_str());
  }
  [[nodiscard]] bool ok() const { return all_ok_; }

 private:
  static std::string sep(const std::string& s) { return s.empty() ? "" : ", "; }
  static std::string num(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
  }
  std::string metrics_, checks_, info_;
  bool all_ok_ = true;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Share of the wall time between two snapshots that the generator spent
/// on scheduled work (it busy-polls the rest, so its CPU time says
/// nothing).
double busy_frac(const Snap& a, const Snap& b) {
  const Nanos work = (b.laps.tick - a.laps.tick) + (b.laps.on_tti - a.laps.on_tti) +
                     (b.laps.flush - a.laps.flush) + (b.laps.pump - a.laps.pump);
  return ratio(static_cast<double>(work), static_cast<double>(b.t - a.t));
}

/// Peak RSS of this process image. /proc's VmHWM, not getrusage: ru_maxrss
/// survives exec, so it would report the launching process's peak instead.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  std::fclose(f);
  return kib / 1024.0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_e2 --workload <fb-stats|asn-telemetry|"
               "sharded-small> --seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* wl = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      for (const Workload& w : kWorkloads)
        if (std::strcmp(w.name, v) == 0) wl = &w;
      if (wl == nullptr) return usage();
    } else if (k == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      trace = std::atoi(v);
    } else {
      return usage();
    }
  }
  if (wl == nullptr || argc % 2 != 1 || seconds <= 0 || seconds > 120 ||
      (trace != 0 && trace != 1))
    return usage();
  const auto window = static_cast<Nanos>(seconds * 1e9);

  Window win;
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> d;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    d.reset();
    d = std::make_unique<Deployment>(*wl, seed, win);
    setup_s.push_back(static_cast<double>(d->setup_ns) / 1e9);
  }

  Schedule sch = run_schedule(*d, seed, window, trace == 1);
  drain(*d);
  d->stop();

  // -- ledger and correctness checks --
  std::uint64_t emitted = 0, agent_shed = 0, agent_pending = 0;
  std::uint64_t agent_bytes = 0, agent_msgs = 0;
  for (const AgentSlot& s : d->agents) {
    const auto& st = s.agent->stats();
    emitted += st.indications_tx;
    agent_shed += st.indications_shed;
    agent_bytes += st.bytes_tx;
    agent_msgs += st.msgs_tx;
    if (const auto* q = s.agent->pending_indications(s.conn))
      agent_pending += q->size();
  }
  std::uint64_t server_shed = 0, orphans = 0, dispatched = 0, max_disp = 0;
  for (const auto& st : d->server_stats) {
    server_shed += st.rate_shed + st.flood_shed + st.queue_shed;
    orphans += st.orphan_indications;
    dispatched += st.dispatched;
    max_disp = std::max(max_disp, st.dispatched);
  }
  const std::uint64_t fanout_shed = d->ledger.fanout_shed;
  std::uint64_t delivered = d->fanout_delivered;
  std::uint64_t pings = 0, pongs = 0, pong_bad = 0, entry_bad = 0;
  std::uint64_t query_bad = d->home_query_failures, decode_bad = 0;
  std::uint64_t expected_samples = 0, ingested = 0, sub_bad = 0, send_bad = 0;
  Sliced lat = make_sliced(), rtt = make_sliced(), qry = make_sliced();
  auto merge = [](Sliced& into, const Sliced& from) {
    for (int i = 0; i < Window::kSlices; ++i) into[i].merge(from[i]);
  };
  for (const auto& a : d->iapps) {
    delivered += a->delivered.load();
    pings += a->pings_sent;
    pongs += a->pongs.load();
    pong_bad += a->pong_mismatches;
    entry_bad += a->entry_mismatches;
    query_bad += a->query_failures;
    decode_bad += a->decode_failures;
    expected_samples += a->expected_samples;
    ingested += a->ingested;
    sub_bad += a->sub_failures;
    send_bad += a->send_failures;
    merge(lat, a->lat_us);
    merge(rtt, a->rtt_us);
    merge(qry, a->query_us);
  }
  merge(qry, d->home_query_us);
  auto total = [](const Sliced& h) {
    std::uint64_t n = 0;
    for (const Histogram& x : h) n += x.count();
    return n;
  };
  // Enough samples that ten lie beyond each reported p95, in every slice.
  auto tails_ok = [](const Sliced& h) {
    for (const Histogram& x : h)
      if (!tail_supported(x.count(), 0.95)) return false;
    return true;
  };

  // Sampled FLAT raw bytes decode to the configured UE count.
  std::uint64_t raw_checked = 0, raw_bad = 0;
  if (!wl->decode)
    for (const auto& a : d->iapps)
      for (const auto& [agent, fns] : a->raw())
        for (const auto& [fn, bytes] : fns) {
          raw_checked++;
          if (a->entries(fn, bytes) != static_cast<std::size_t>(wl->ues)) raw_bad++;
        }

  const std::uint64_t attempted = emitted + agent_shed;
  const std::uint64_t failed = attempted > delivered ? attempted - delivered : 0;
  const double min_pings = 0.5 * (seconds * 1e9) / kPingEvery;

  Report rep;
  rep.check("ledger_closes",
            emitted == delivered + server_shed + orphans + fanout_shed &&
                agent_pending == 0);
  rep.check("pongs_match", pong_bad == 0 && pongs == pings &&
                               static_cast<double>(pings) >= min_pings);
  rep.check("subscriptions_ok", sub_bad == 0 && send_bad == 0);
  rep.check("decodes_ok", decode_bad == 0 && entry_bad == 0);
  if (wl->decode)
    rep.check("telemetry_samples",
              d->ingest && d->ingest->samples_in() == expected_samples &&
                  ingested > 0);
  else
    rep.check("raw_ue_count", raw_checked > 0 && raw_bad == 0);
  rep.check("queries_ok", query_bad == 0 && total(qry) > 0);
  if (wl->fanout)
    rep.check("fanout_ok", d->fanout_wrong_fn == 0 && d->fanout_delivered > 0);
  rep.check("samples_present",
            trace == 1 || (tails_ok(lat) && tails_ok(rtt) && tails_ok(qry)));

  const Snap& s0 = sch.edges.front();
  const Snap& s1 = sch.edges[trace ? 1 : 0];
  const Snap& s2 = sch.edges.back();
  const double late_p99 = sch.late_us.quantile(0.99);

  if (trace == 0) {
    // Every metric per slice, reported as the median over the slices; each
    // slice's value goes to the result record beside it.
    auto sliced = [&](const char* name, const char* unit, auto per_slice) {
      std::vector<double> v;
      for (int i = 0; i < Window::kSlices; ++i) {
        v.push_back(per_slice(i));
        rep.info((std::string(name) + ".s" + std::to_string(i)).c_str(), v.back());
      }
      rep.metric(name, quantile(v, 0.5), unit);
    };
    auto pct = [](const Sliced& h, double q) {
      return [&h, q](int i) { return h[i].quantile(q); };
    };
    const std::vector<Snap>& e = sch.edges;
    rep.metric("setup_s", quantile(setup_s, 0.5), "s");
    sliced("ind_lat_p50_us", "us", pct(lat, 0.5));
    sliced("ind_lat_p95_us", "us", pct(lat, 0.95));
    sliced("ctrl_rtt_p50_us", "us", pct(rtt, 0.5));
    sliced("ctrl_rtt_p95_us", "us", pct(rtt, 0.95));
    sliced("ctrl_cpu_ns_per_ind", "ns", [&](int i) {
      const Snap& a = e[i];
      const Snap& b = e[i + 1];
      return ratio(static_cast<double>(b.ctrl_cpu - a.ctrl_cpu + b.laps.pump -
                                       a.laps.pump),
                   static_cast<double>(b.delivered - a.delivered));
    });
    sliced("agent_cpu_ns_per_ind", "ns", [&](int i) {
      const Snap& a = e[i];
      const Snap& b = e[i + 1];
      return ratio(static_cast<double>(b.laps.on_tti - a.laps.on_tti +
                                       b.laps.flush - a.laps.flush),
                   static_cast<double>(b.emitted - a.emitted));
    });
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
    sliced("query_p50_us", "us", pct(qry, 0.5));
    sliced("query_p95_us", "us", pct(qry, 0.95));
  } else {
    // Untraced first half vs traced second half of the same deployment.
    const double ind_a = static_cast<double>(s1.delivered - s0.delivered);
    const double ind_b = static_cast<double>(s2.delivered - s1.delivered);
    const double ctrl_a = static_cast<double>(s1.ctrl_cpu - s0.ctrl_cpu +
                                              s1.laps.pump - s0.laps.pump);
    const double ctrl_thr = static_cast<double>(s2.ctrl_cpu - s1.ctrl_cpu);
    const double pump_b = static_cast<double>(s2.laps.pump - s1.laps.pump);
    const double ctrl_b = ctrl_thr + pump_b;
    const double frames_b = static_cast<double>(s2.traced_frames - s1.traced_frames);
    const double emit_b = static_cast<double>(s2.emitted - s1.emitted);
    std::uint64_t turns = 0;
    for (const auto& t : d->taps) turns += t->traced_turns.load();

    SpanRegistry& reg = SpanRegistry::get();
    const LayerTotals srv = reg.total(Layer::server);
    const LayerTotals iap = reg.total(Layer::iapp);
    const LayerTotals sm = reg.total(Layer::e2sm);
    const LayerTotals tel = reg.total(Layer::telemetry);
    const LayerTotals qy = reg.total(Layer::query);
    const double spans_ns = static_cast<double>(srv.self_ns + iap.self_ns + sm.self_ns +
                                                tel.self_ns + qy.self_ns);
    // Transport: reactor-turn CPU outside the traced calls. Unsharded, the
    // turns are this benchmark's own loop and are timed whole (including
    // the query timer). The shard loops belong to ShardPool, so there a
    // turn is timed from its first frame to its end: epoll_wait, the first
    // read and timer work fall outside and stay unattributed.
    double turn_ns = static_cast<double>(d->turn_cpu_ns);
    double in_turn_roots = static_cast<double>(srv.root_ns);
    if (d->ric) {
      turn_ns = 0;
      for (const auto& t : d->taps) turn_ns += static_cast<double>(t->turn_cpu_ns);
    } else {
      in_turn_roots += static_cast<double>(qy.root_ns);
    }
    const double transport_ns = turn_ns - in_turn_roots;
    std::vector<Buffer> samples;
    for (const auto& t : d->taps)
      samples.insert(samples.end(), t->samples.begin(), t->samples.end());
    const Replay rp = replay_codecs(samples, wl->fmt);

    const double mean_disp =
        static_cast<double>(dispatched) /
        static_cast<double>(std::max<std::size_t>(d->server_stats.size(), 1));
    auto d64 = [](auto v) { return static_cast<double>(v); };
    auto ns_per_span = [&](const LayerTotals& t) {
      return ratio(d64(t.self_ns), d64(t.spans));
    };
    auto allocs_per_span = [&](const LayerTotals& t) {
      return ratio(d64(t.self_allocs), d64(t.spans));
    };
    const auto& la = s1.laps;
    const auto& lb = s2.laps;

    rep.metric("transport.frames_per_turn", ratio(frames_b, d64(turns)), "count");
    rep.metric("transport.turn_cpu_ns_per_frame", ratio(transport_ns, frames_b), "ns");
    rep.metric("transport.rx_bytes_per_frame",
               ratio(d64(s2.bytes - s0.bytes), d64(s2.frames - s0.frames)), "B");
    rep.metric("transport.assemble_ns_per_frame", rp.assemble_ns, "ns");
    rep.metric("e2ap.decode_ns", rp.decode_ns, "ns");
    rep.metric("e2ap.decode_allocs", rp.decode_allocs, "count");
    rep.metric("e2ap.peek_ns", rp.peek_ns, "ns");
    rep.metric("e2ap.encode_ns", rp.encode_ns, "ns");
    rep.metric("e2ap.encode_allocs", rp.encode_allocs, "count");
    rep.metric("e2sm.decode_ns", ns_per_span(sm), "ns");
    rep.metric("e2sm.decode_allocs", allocs_per_span(sm), "count");
    rep.metric("e2sm.encode_ns", rp.sm_encode_ns, "ns");
    rep.metric("server.handler_self_ns_per_frame", ratio(d64(srv.self_ns), frames_b), "ns");
    rep.metric("server.dispatched", d64(dispatched), "count");
    rep.metric("server.orphan_indications", d64(orphans), "count");
    rep.metric("server.shed_total", d64(server_shed), "count");
    rep.metric("shard.cpu_ns_per_frame", ratio(ctrl_thr, frames_b), "ns");
    rep.metric("shard.imbalance", ratio(d64(max_disp), mean_disp), "ratio");
    rep.metric("shard.fanout_delivered", d64(d->fanout_delivered), "count");
    rep.metric("shard.fanout_shed", d64(fanout_shed), "count");
    rep.metric("shard.home_pump_ns_per_fanout",
               ratio(pump_b, d64(s2.fanout - s1.fanout)), "ns");
    rep.metric("iapp.self_ns_per_ind", ns_per_span(iap), "ns");
    rep.metric("iapp.allocs_per_ind", allocs_per_span(iap), "count");
    rep.metric("telemetry.ingest_ns_per_ind", ns_per_span(tel), "ns");
    rep.metric("telemetry.ingest_allocs_per_ind", allocs_per_span(tel), "count");
    rep.metric("telemetry.samples_per_ind",
               d->ingest ? ratio(d64(d->ingest->samples_in()), d64(ingested)) : 0.0,
               "count");
    rep.metric("telemetry.series", d->store ? d64(d->store->num_series()) : 0.0, "count");
    rep.metric("telemetry.memory_bytes", d->store ? d64(d->store->memory_bytes()) : 0.0,
               "B");
    rep.metric("telemetry.evictions", d->store ? d64(d->store->evictions()) : 0.0,
               "count");
    rep.metric("telemetry.query_ns", ns_per_span(qy), "ns");
    rep.metric("agent.on_tti_ns_per_ind", ratio(d64(lb.on_tti - la.on_tti), emit_b), "ns");
    rep.metric("agent.turn_ns", ratio(d64(lb.flush - la.flush), emit_b), "ns");
    rep.metric("agent.bytes_tx_per_ind", ratio(d64(agent_bytes), d64(agent_msgs)), "B");
    rep.metric("agent.indications_shed", d64(agent_shed), "count");
    rep.metric("ran.tick_ns_per_agent",
               ratio(d64(lb.tick - la.tick), d64(lb.ticks - la.ticks)), "ns");
    rep.metric("bench.gen_late_p99_us", late_p99, "us");
    rep.metric("bench.gen_busy_frac", busy_frac(s1, s2), "ratio");
    const double cpu_a = ratio(ctrl_a, ind_a), cpu_b = ratio(ctrl_b, ind_b);
    rep.metric("ctrl.unattributed_ns_per_ind",
               ratio(ctrl_b - transport_ns - spans_ns - pump_b, ind_b), "ns");
    rep.metric("trace.overhead_pct", cpu_a > 0 ? 100.0 * (cpu_b - cpu_a) / cpu_a : 0.0, "%");
    rep.info("ctrl_cpu_ns_per_ind_untraced", cpu_a);
    rep.info("ctrl_cpu_ns_per_ind_traced", cpu_b);
    rep.info("replayed_frames", static_cast<double>(rp.frames));
    rep.info("replay_checksum", static_cast<double>(rp.checksum % 1000003));
  }
  rep.info("gen_late_p99_us", late_p99);
  rep.info("gen_busy_frac", busy_frac(trace ? s1 : s0, s2));
  rep.info("ind_fail_ratio", ratio(static_cast<double>(failed), static_cast<double>(attempted)));
  rep.info("emitted", static_cast<double>(emitted));
  rep.info("delivered", static_cast<double>(delivered));
  rep.info("agent_shed", static_cast<double>(agent_shed));
  rep.info("server_shed", static_cast<double>(server_shed));
  rep.info("orphans", static_cast<double>(orphans));
  rep.info("fanout_shed", static_cast<double>(fanout_shed));
  rep.info("lat_samples", static_cast<double>(total(lat)));
  rep.info("rtt_samples", static_cast<double>(total(rtt)));
  rep.info("query_samples", static_cast<double>(total(qry)));
  rep.info("pings", static_cast<double>(pings));
  rep.info("window_s", static_cast<double>(s2.t - s0.t) / 1e9);
  rep.info("setup_min_s", *std::min_element(setup_s.begin(), setup_s.end()));
  rep.info("setup_max_s", *std::max_element(setup_s.begin(), setup_s.end()));
  rep.info("setup_reps", kSetupReps);
  rep.print(*wl, seed, window, trace == 1, attempted, failed);
  d.reset();
  return rep.ok() ? 0 : 1;
}
