// Controller-side pieces of the benchmark: the statistics iApp and the
// transport decorator that spans the server's message handler.
//
// The iApp does what ctrl::MonitorIApp does, through the same public calls
// (subscribe MAC/RLC/PDCP; keep the latest raw bytes, or e2sm::sm_decode and
// feed telemetry::Ingest), plus the per-indication hooks MonitorIApp lacks:
// latency samples, the E2SM-HW ping, northbound queries and the correctness
// ledger. Every method runs on the thread of the server it was added to,
// except the atomics, which the generator thread polls.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "e2bench/spans.hpp"
#include "e2bench/stats.hpp"
#include "e2sm/common.hpp"
#include "e2sm/hw_sm.hpp"
#include "e2sm/mac_sm.hpp"
#include "e2sm/pdcp_sm.hpp"
#include "e2sm/rlc_sm.hpp"
#include "server/server.hpp"
#include "telemetry/ingest.hpp"
#include "telemetry/store.hpp"
#include "transport/transport.hpp"

namespace perfbench {

namespace fx = flexric;
using fx::Buffer;
using fx::BytesView;
using fx::WireFormat;

/// The measured window, cut into kSlices equal slices. Each metric is
/// computed per slice and reported as the median over slices, so a few
/// seconds of interference from outside the benchmark move it less. Set by
/// the generator thread before the schedule starts; read by the controller
/// threads.
struct Window {
  static constexpr int kSlices = 10;
  std::atomic<Nanos> begin{INT64_MAX};
  std::atomic<Nanos> end{INT64_MAX};
  /// Slice holding `t`, or -1 outside the window.
  [[nodiscard]] int slice(Nanos t) const noexcept {
    const Nanos b = begin.load(std::memory_order_relaxed);
    const Nanos e = end.load(std::memory_order_relaxed);
    if (t < b || t >= e) return -1;
    return static_cast<int>((t - b) * kSlices / (e - b));
  }
  [[nodiscard]] bool in(Nanos t) const noexcept { return slice(t) >= 0; }
};

/// One histogram per window slice.
using Sliced = std::vector<Histogram>;
inline Sliced make_sliced() { return Sliced(Window::kSlices); }

/// Core KPIs per entity that telemetry::Ingest records by default.
constexpr std::uint64_t kMacKpis = 6, kRlcKpis = 4, kPdcpKpis = 2;

struct IAppConfig {
  WireFormat fmt = WireFormat::flat;
  std::uint32_t period_ms = 1;
  int ues = 0;          ///< UEs per agent, checked against what arrives
  bool decode = false;  ///< decode every message and ingest it
  std::uint32_t ping_nb_id = 0;  ///< agent the HW ping targets (0: none)
  Buffer ping_payload;
  std::vector<std::uint32_t> query_nb_ids;  ///< seeded query targets
};

class StatsIApp final : public fx::server::IApp {
 public:
  /// `ingest` and `store` are both set (decode mode) or both null.
  StatsIApp(IAppConfig cfg, const Window& win, fx::telemetry::Ingest* ingest,
            const fx::telemetry::TelemetryStore* store)
      : cfg_(std::move(cfg)), win_(win), ingest_(ingest), store_(store) {}

  [[nodiscard]] const char* name() const override { return "perfbench"; }

  void on_agent_connected(const fx::server::AgentInfo& info) override {
    nb_to_agent_[info.node.nb_id] = info.id;
    for (std::uint16_t fn : {fx::e2sm::mac::Sm::kId, fx::e2sm::rlc::Sm::kId,
                             fx::e2sm::pdcp::Sm::kId})
      subscribe_stats(info.id, fn);
    if (info.node.nb_id == cfg_.ping_nb_id) subscribe_pong(info.id);
  }

  /// One northbound query against this iApp's state. With telemetry: a
  /// TelemetryStore window_aggregate or latest call on a UE series of agent
  /// `nb_id` chosen by `pick`. Without: the RAN-wide statistics table, i.e.
  /// every agent's latest raw MAC, RLC and PDCP reports decoded in place.
  /// False if the answer is missing or wrong.
  bool query(std::uint32_t nb_id, std::uint64_t pick);

  /// Runs and times one query on the next seeded target (unsharded: the
  /// generator triggers it through a wakeup, on its open-loop schedule).
  void run_query();

  /// Sends one E2SM-HW ping through E2Server::send_control, unless the
  /// previous one is still unanswered. The generator triggers it on its
  /// open-loop schedule (via a wakeup or a shard post).
  void ping();

  // -- read by the generator thread while running --
  std::atomic<std::uint64_t> delivered{0};     ///< stats + pong indications
  std::atomic<std::uint64_t> sub_acks{0};
  std::atomic<std::uint64_t> pongs{0};
  std::atomic<bool> stop_pings{false};

  // -- read after the owning thread stopped --
  Sliced lat_us = make_sliced();    ///< due time -> callback
  Sliced rtt_us = make_sliced();    ///< send_control -> pong
  Sliced query_us = make_sliced();  ///< query durations
  std::uint64_t pings_sent = 0;
  std::uint64_t pong_mismatches = 0;
  std::uint64_t entry_mismatches = 0;  ///< decoded UE/bearer count != ues
  std::uint64_t query_failures = 0;
  std::uint64_t decode_failures = 0;
  std::uint64_t ingested = 0;          ///< indications fed to Ingest
  std::uint64_t expected_samples = 0;  ///< entries x KPIs of those
  std::uint64_t sub_failures = 0;
  std::uint64_t send_failures = 0;

  /// UEs (MAC) or bearers (RLC, PDCP) in a raw report; 0 if it does not
  /// decode.
  [[nodiscard]] std::size_t entries(std::uint16_t fn, BytesView bytes) const;

  /// Latest raw MAC/RLC/PDCP bytes per agent (the FLAT in-memory store).
  [[nodiscard]] const std::map<fx::server::AgentId,
                               std::map<std::uint16_t, Buffer>>&
  raw() const noexcept {
    return raw_;
  }

 private:
  void subscribe_stats(fx::server::AgentId agent, std::uint16_t fn);
  void subscribe_pong(fx::server::AgentId agent);
  void on_stats(fx::server::AgentId agent, std::uint16_t fn,
                const fx::e2ap::Indication& ind);
  void on_pong(const fx::e2ap::Indication& ind);

  IAppConfig cfg_;
  const Window& win_;
  fx::telemetry::Ingest* ingest_;
  const fx::telemetry::TelemetryStore* store_;
  std::map<std::uint32_t, fx::server::AgentId> nb_to_agent_;
  std::map<fx::server::AgentId, std::map<std::uint16_t, Buffer>> raw_;
  fx::server::AgentId ping_agent_ = 0;
  std::uint32_t next_seq_ = 1;
  std::uint32_t awaited_seq_ = 0;  ///< 0: no ping in flight
  std::uint64_t query_count_ = 0;
};

/// Counts the frames a controller thread receives and, while tracing,
/// samples a few for the codec replays and counts reactor turns.
struct FrameTap {
  /// `time_turns`: also take the thread CPU of each turn from its first
  /// frame to its end (for loops the benchmark does not own).
  FrameTap(fx::Reactor& r, bool time_turns) : reactor(r), timed(time_turns) {}
  fx::Reactor& reactor;
  const bool timed;
  std::atomic<std::uint64_t> frames{0};
  std::atomic<std::uint64_t> bytes{0};
  std::atomic<std::uint64_t> traced_frames{0};
  std::atomic<std::uint64_t> traced_turns{0};
  Nanos turn_cpu_ns = 0;  ///< read after the owning thread stopped
  bool turn_marked = false;
  Nanos turn_c0 = 0;
  std::vector<Buffer> samples;  ///< every kSampleEvery-th traced frame
  static constexpr std::uint64_t kSampleEvery = 61;
  static constexpr std::size_t kMaxSamples = 600;

  void on_frame(BytesView m) {
    frames.fetch_add(1, std::memory_order_relaxed);
    bytes.fetch_add(m.size(), std::memory_order_relaxed);
    if (!tracing_on().load(std::memory_order_relaxed)) return;
    const std::uint64_t n =
        traced_frames.fetch_add(1, std::memory_order_relaxed);
    if (n % kSampleEvery == 0 && samples.size() < kMaxSamples)
      samples.emplace_back(m.begin(), m.end());
    // Frames of one reactor turn arrive back to back; the posted marker
    // runs when that turn drains its task queue, closing the turn.
    if (!turn_marked) {
      turn_marked = true;
      if (timed) turn_c0 = fx::thread_cpu_now();
      reactor.post([this] {
        if (timed) turn_cpu_ns += fx::thread_cpu_now() - turn_c0;
        turn_marked = false;
        traced_turns.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }
};

/// MsgTransport decorator handed to E2Server::attach: spans the server's
/// message handler (layer `server`) around each delivered frame.
class TappedTransport final : public fx::MsgTransport {
 public:
  TappedTransport(std::unique_ptr<fx::TcpTransport> inner, FrameTap& tap)
      : inner_(std::move(inner)), tap_(tap) {}

  fx::Status send(BytesView msg, fx::StreamId stream) override {
    return inner_->send(msg, stream);
  }
  void set_on_message(MsgHandler h) override {
    inner_->set_on_message(
        [h = std::move(h), tap = &tap_](fx::StreamId s, BytesView m) {
          Span span(Layer::server);
          tap->on_frame(m);
          h(s, m);
        });
  }
  void set_on_close(CloseHandler h) override {
    inner_->set_on_close(std::move(h));
  }
  void close() override { inner_->close(); }
  [[nodiscard]] bool is_open() const noexcept override {
    return inner_->is_open();
  }
  [[nodiscard]] std::string peer_name() const override {
    return inner_->peer_name();
  }

 private:
  std::unique_ptr<fx::TcpTransport> inner_;
  FrameTap& tap_;
};

}  // namespace perfbench
