#include "e2bench/iapp.hpp"

namespace perfbench {

namespace mac = fx::e2sm::mac;
namespace rlc = fx::e2sm::rlc;
namespace pdcp = fx::e2sm::pdcp;
namespace hw = fx::e2sm::hw;

void StatsIApp::subscribe_stats(fx::server::AgentId agent, std::uint16_t fn) {
  fx::e2sm::EventTrigger trigger;
  trigger.kind = fx::e2sm::TriggerKind::periodic;
  trigger.period_ms = cfg_.period_ms;
  fx::e2ap::Action action;
  action.id = 1;
  action.type = fx::e2ap::ActionType::report;
  fx::server::SubCallbacks cbs;
  cbs.on_response = [this](const fx::e2ap::SubscriptionResponse&) {
    sub_acks.fetch_add(1, std::memory_order_relaxed);
  };
  cbs.on_failure = [this](const fx::e2ap::SubscriptionFailure&) {
    sub_failures++;
  };
  cbs.on_indication = [this, agent, fn](const fx::e2ap::Indication& ind) {
    on_stats(agent, fn, ind);
  };
  if (!server_
           ->subscribe(agent, fn, fx::e2sm::sm_encode(trigger, cfg_.fmt),
                       {action}, std::move(cbs))
           .is_ok())
    sub_failures++;
}

void StatsIApp::on_stats(fx::server::AgentId agent, std::uint16_t fn,
                         const fx::e2ap::Indication& ind) {
  const Nanos arrived = fx::mono_now();
  Span iapp(Layer::iapp);
  Nanos due = 0;
  {
    Span s(Layer::e2sm);
    auto t = fx::telemetry::Ingest::header_tstamp(ind.header, cfg_.fmt);
    if (t.is_ok()) due = *t;
    else decode_failures++;
  }
  if (const int sl = win_.slice(due); sl >= 0)
    lat_us[sl].add(static_cast<double>(arrived - due) / 1e3);

  if (!cfg_.decode) {
    // FLAT: the raw message is the in-memory data structure; fields are
    // read in place when queried.
    raw_[agent][fn].assign(ind.message.begin(), ind.message.end());
  } else {
    const std::uint64_t ues = static_cast<std::uint64_t>(cfg_.ues);
    if (fn == mac::Sm::kId) {
      fx::Result<mac::IndicationMsg> msg = [&] {
        Span s(Layer::e2sm);
        return fx::e2sm::sm_decode<mac::IndicationMsg>(ind.message, cfg_.fmt);
      }();
      if (!msg.is_ok()) {
        decode_failures++;
      } else {
        if (msg->ues.size() != ues) entry_mismatches++;
        Span s(Layer::telemetry);
        ingest_->mac(agent, due, *msg);
        expected_samples += msg->ues.size() * kMacKpis;
        ingested++;
      }
    } else if (fn == rlc::Sm::kId) {
      fx::Result<rlc::IndicationMsg> msg = [&] {
        Span s(Layer::e2sm);
        return fx::e2sm::sm_decode<rlc::IndicationMsg>(ind.message, cfg_.fmt);
      }();
      if (!msg.is_ok()) {
        decode_failures++;
      } else {
        if (msg->bearers.size() != ues) entry_mismatches++;
        Span s(Layer::telemetry);
        ingest_->rlc(agent, due, *msg);
        expected_samples += msg->bearers.size() * kRlcKpis;
        ingested++;
      }
    } else {
      fx::Result<pdcp::IndicationMsg> msg = [&] {
        Span s(Layer::e2sm);
        return fx::e2sm::sm_decode<pdcp::IndicationMsg>(ind.message,
                                                         cfg_.fmt);
      }();
      if (!msg.is_ok()) {
        decode_failures++;
      } else {
        if (msg->bearers.size() != ues) entry_mismatches++;
        Span s(Layer::telemetry);
        ingest_->pdcp(agent, due, *msg);
        expected_samples += msg->bearers.size() * kPdcpKpis;
        ingested++;
      }
    }
  }
  delivered.fetch_add(1, std::memory_order_relaxed);
}

void StatsIApp::subscribe_pong(fx::server::AgentId agent) {
  fx::e2ap::Action action;
  action.id = 1;
  action.type = fx::e2ap::ActionType::report;
  fx::server::SubCallbacks cbs;
  cbs.on_response = [this, agent](const fx::e2ap::SubscriptionResponse&) {
    ping_agent_ = agent;
    sub_acks.fetch_add(1, std::memory_order_relaxed);
  };
  cbs.on_failure = [this](const fx::e2ap::SubscriptionFailure&) {
    sub_failures++;
  };
  cbs.on_indication = [this](const fx::e2ap::Indication& ind) {
    on_pong(ind);
  };
  fx::e2sm::EventTrigger trigger;
  trigger.kind = fx::e2sm::TriggerKind::on_event;
  if (!server_
           ->subscribe(agent, hw::Sm::kId,
                       fx::e2sm::sm_encode(trigger, cfg_.fmt), {action},
                       std::move(cbs))
           .is_ok())
    sub_failures++;
}

void StatsIApp::ping() {
  if (ping_agent_ == 0 || stop_pings.load(std::memory_order_relaxed) ||
      awaited_seq_ != 0)
    return;
  hw::Ping msg;
  msg.seq = next_seq_++;
  msg.payload = cfg_.ping_payload;
  msg.sent_ns = static_cast<std::uint64_t>(fx::mono_now());
  awaited_seq_ = msg.seq;
  pings_sent++;
  if (!server_
           ->send_control(ping_agent_, hw::Sm::kId, Buffer{},
                          fx::e2sm::sm_encode(msg, cfg_.fmt), {},
                          /*ack_requested=*/false)
           .is_ok())
    send_failures++;
}

void StatsIApp::on_pong(const fx::e2ap::Indication& ind) {
  const Nanos arrived = fx::mono_now();
  auto pong = fx::e2sm::sm_decode<hw::Pong>(ind.message, cfg_.fmt);
  if (!pong.is_ok() || pong->seq != awaited_seq_ ||
      pong->payload != cfg_.ping_payload) {
    pong_mismatches++;
  } else {
    const auto sent = static_cast<Nanos>(pong->ping_sent_ns);
    if (const int sl = win_.slice(sent); sl >= 0)
      rtt_us[sl].add(static_cast<double>(arrived - sent) / 1e3);
  }
  awaited_seq_ = 0;
  pongs.fetch_add(1, std::memory_order_relaxed);
  delivered.fetch_add(1, std::memory_order_relaxed);
}

std::size_t StatsIApp::entries(std::uint16_t fn, BytesView bytes) const {
  if (fn == mac::Sm::kId) {
    auto m = fx::e2sm::sm_decode<mac::IndicationMsg>(bytes, cfg_.fmt);
    return m.is_ok() ? m->ues.size() : 0;
  }
  if (fn == rlc::Sm::kId) {
    auto m = fx::e2sm::sm_decode<rlc::IndicationMsg>(bytes, cfg_.fmt);
    return m.is_ok() ? m->bearers.size() : 0;
  }
  auto m = fx::e2sm::sm_decode<pdcp::IndicationMsg>(bytes, cfg_.fmt);
  return m.is_ok() ? m->bearers.size() : 0;
}

bool StatsIApp::query(std::uint32_t nb_id, std::uint64_t pick) {
  if (store_ == nullptr) {
    // The FLAT store answers the RAN-wide statistics table: every agent's
    // latest MAC, RLC and PDCP reports, read in place.
    std::size_t reports = 0;
    for (const auto& [agent, fns] : raw_)
      for (const auto& [fn, bytes] : fns) {
        if (entries(fn, bytes) != static_cast<std::size_t>(cfg_.ues))
          return false;
        reports++;
      }
    return reports > 0;
  }
  auto it = nb_to_agent_.find(nb_id);
  if (it == nb_to_agent_.end()) return false;
  const fx::server::AgentId agent = it->second;
  const auto rnti =
      static_cast<std::uint16_t>(100 + pick % static_cast<std::uint64_t>(cfg_.ues));
  const fx::telemetry::SeriesKey key{agent, fx::telemetry::make_entity(rnti),
                                     (pick / 7) % 2 == 0
                                         ? fx::telemetry::Metric::mac_cqi
                                         : fx::telemetry::Metric::mac_bsr};
  const fx::telemetry::TelemetryStore& store = *store_;
  if (pick % 2 == 0) {
    const Nanos now = fx::mono_now();
    auto agg = store.window_aggregate(key, now - 100 * fx::kMilli, now);
    return agg.is_ok() && agg->count > 0;
  }
  auto last = store.latest(key, 8);
  return last.is_ok() && last->size() == 8;
}

void StatsIApp::run_query() {
  if (cfg_.query_nb_ids.empty() || nb_to_agent_.empty()) return;
  const std::uint64_t n = query_count_++;
  const std::uint32_t nb = cfg_.query_nb_ids[n % cfg_.query_nb_ids.size()];
  const Nanos t0 = fx::mono_now();
  bool ok = false;
  {
    Span s(Layer::query);
    ok = query(nb, n);
  }
  const Nanos t1 = fx::mono_now();
  const int sl = win_.slice(t0);
  if (sl < 0) return;
  if (!ok) query_failures++;
  query_us[sl].add(static_cast<double>(t1 - t0) / 1e3);
}

}  // namespace perfbench
