// Frozen wire corpus: byte-for-byte encodings of E2AP and E2SM messages.
//
// tests/golden/wire_corpus.txt holds one `<key> <hex>` line per frame:
//   e2ap/<fmt>/<nn>/<procedure>  every sample_messages() entry
//   e2sm/<sm>.<Msg>/<fmt>        one instance of every SM message
// (fuzz/fuzz_golden.cpp freezes the hashes of seeded random E2AP frames in
// tests/golden/fuzz_frames.txt the same way.)
// Codec refactors must reproduce it exactly; the file is data, not a fixture
// to be regenerated whenever a test fails. A deliberate wire-format change
// regenerates it with
//   test_golden --gtest_also_run_disabled_tests
//       --gtest_filter='*RegenerateCorpus*'
// and says so in its commit.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "e2ap/codec.hpp"
#include "e2ap_samples.hpp"
#include "e2sm/assoc_sm.hpp"
#include "e2sm/hw_sm.hpp"
#include "e2sm/kpm_sm.hpp"
#include "e2sm/mac_sm.hpp"
#include "e2sm/pdcp_sm.hpp"
#include "e2sm/rlc_sm.hpp"
#include "e2sm/rrc_sm.hpp"
#include "e2sm/slice_sm.hpp"
#include "e2sm/tc_sm.hpp"

namespace flexric {
namespace {

struct Frame {
  std::string key;
  std::string hex;
  /// Decodes a wire image and compares it with the encoded message.
  std::function<bool(BytesView)> decodes_back;
};

std::string fmt_name(WireFormat f) {
  switch (f) {
    case WireFormat::per: return "per";
    case WireFormat::flat: return "flat";
    case WireFormat::proto: return "proto";
  }
  return "?";
}

Buffer from_hex(const std::string& s) {
  Buffer out;
  for (std::size_t i = 0; i + 1 < s.size(); i += 2)
    out.push_back(
        static_cast<std::uint8_t>(std::stoul(s.substr(i, 2), nullptr, 16)));
  return out;
}

template <typename T>
void add_sm(std::vector<Frame>* out, const std::string& name, const T& msg) {
  for (WireFormat f : {WireFormat::per, WireFormat::flat, WireFormat::proto}) {
    Buffer wire = e2sm::sm_encode(msg, f);
    out->push_back({"e2sm/" + name + "/" + fmt_name(f), to_hex(wire),
                    [msg, f](BytesView b) {
                      auto d = e2sm::sm_decode<T>(b, f);
                      return d.is_ok() && *d == msg;
                    }});
  }
}

void add_e2sm_frames(std::vector<Frame>* out) {
  add_sm(out, "common.EventTrigger",
         e2sm::EventTrigger{e2sm::TriggerKind::on_event, 70000});

  {
    namespace s = e2sm::mac;
    add_sm(out, "mac.ActionDef", s::ActionDef{true, {17, 0x4601}});
    add_sm(out, "mac.IndicationHdr", s::IndicationHdr{0x123456789ABCULL, 7});
    s::IndicationMsg m;
    m.ues.push_back({0x4601, 15, 28, 20, 100, 70000, 1ULL << 40, 1234, 5000,
                     -7, 2, 3});
    m.ues.push_back({17, 1, 0, 0, 0, 0, 0, 0, 0, 40, 0, 0});
    add_sm(out, "mac.IndicationMsg", m);
  }
  {
    namespace s = e2sm::rlc;
    add_sm(out, "rlc.ActionDef", s::ActionDef{{9, 0xFFFF}});
    add_sm(out, "rlc.IndicationHdr", s::IndicationHdr{99, 0x10000});
    s::IndicationMsg m;
    m.bearers.push_back({0x4601, 1, 1ULL << 33, 77, 10, 11, 1500, 2, 0.25,
                         3.5, 1, 0});
    add_sm(out, "rlc.IndicationMsg", m);
  }
  {
    namespace s = e2sm::pdcp;
    add_sm(out, "pdcp.ActionDef", s::ActionDef{{3}});
    add_sm(out, "pdcp.IndicationHdr", s::IndicationHdr{5, 6});
    s::IndicationMsg m;
    m.bearers.push_back({0x4601, 2, 1000, 1100, 2000, 2200, 10, 11, 20, 21,
                         1});
    add_sm(out, "pdcp.IndicationMsg", m);
  }
  {
    namespace s = e2sm::rrc;
    add_sm(out, "rrc.ActionDef", s::ActionDef{true, false});
    add_sm(out, "rrc.IndicationHdr", s::IndicationHdr{8, 9});
    add_sm(out, "rrc.IndicationMsg",
           s::IndicationMsg{s::EventKind::reconfig, 0x4601, 0x20899,
                            0x01020304});
  }
  {
    namespace s = e2sm::kpm;
    add_sm(out, "kpm.ActionDef",
           s::ActionDef{{s::kThroughputDlMbps, s::kActiveUes}});
    add_sm(out, "kpm.IndicationHdr", s::IndicationHdr{1, 2, 1000});
    add_sm(out, "kpm.IndicationMsg",
           s::IndicationMsg{{{s::kThroughputDlMbps, 41.5},
                             {s::kPrbUtilizationDl, 0.875}}});
  }
  {
    namespace s = e2sm::hw;
    add_sm(out, "hw.ActionDef", s::ActionDef{4});
    add_sm(out, "hw.Ping", s::Ping{3, 1ULL << 50, Buffer{1, 2, 3}});
    add_sm(out, "hw.Pong", s::Pong{3, 1ULL << 50, Buffer(20, 0xAA)});
    add_sm(out, "hw.IndicationHdr", s::IndicationHdr{300});
  }
  {
    namespace s = e2sm::slice;
    add_sm(out, "slice.ActionDef", s::ActionDef{1});
    s::SliceConf conf;
    conf.id = 2;
    conf.label = "embb";
    conf.ue_sched = s::UeSched::mt;
    conf.nvs = {s::NvsKind::rate, 0.0, 12.5, 25.0};
    conf.static_rb = {10, 15};
    s::CtrlMsg ctrl;
    ctrl.kind = s::CtrlKind::assoc_ue;
    ctrl.algo = s::Algo::static_rb;
    ctrl.slices = {conf};
    ctrl.del_ids = {4, 70000};
    ctrl.assoc = {{0x4601, 2}};
    add_sm(out, "slice.CtrlMsg", ctrl);
    add_sm(out, "slice.CtrlOutcome", s::CtrlOutcome{false, "no such slice"});
    add_sm(out, "slice.IndicationHdr", s::IndicationHdr{11, 12});
    s::IndicationMsg ind;
    ind.algo = s::Algo::nvs;
    ind.slices = {{conf, 0.5, 3}};
    ind.assoc = {{17, 2}, {18, 0}};
    add_sm(out, "slice.IndicationMsg", ind);
  }
  {
    namespace s = e2sm::tc;
    add_sm(out, "tc.ActionDef", s::ActionDef{2});
    add_sm(out, "tc.PolicyDef", s::PolicyDef{20.0, 2.5});
    s::CtrlMsg ctrl;
    ctrl.kind = s::CtrlKind::pacer_conf;
    ctrl.rnti = 0x4601;
    ctrl.drb_id = 2;
    ctrl.queue = {3, s::QueueKind::codel, 1 << 20};
    ctrl.del_id = 9;
    ctrl.filter = {5, {0x0A000001, 0x0A000002, 5000, 6000, 17}, 3, 1};
    ctrl.sched = {s::SchedKind::wrr, {1, 2, 70000}};
    ctrl.pacer = {s::PacerKind::bdp, 4.0, 0.5};
    add_sm(out, "tc.CtrlMsg", ctrl);
    add_sm(out, "tc.CtrlOutcome", s::CtrlOutcome{true, ""});
    add_sm(out, "tc.IndicationHdr", s::IndicationHdr{13, 0x4601, 1});
    s::IndicationMsg ind;
    ind.queues.push_back({1, 3000, 2, 1.5, 9.0, 1ULL << 35, 100, 4});
    ind.pacer_rate_mbps = 42.0;
    add_sm(out, "tc.IndicationMsg", ind);
  }
  {
    namespace s = e2sm::assoc;
    add_sm(out, "assoc.CtrlMsg",
           s::CtrlMsg{s::CtrlKind::dissociate, 0x4601, 70000});
    add_sm(out, "assoc.CtrlOutcome", s::CtrlOutcome{true, "ok"});
  }
}

std::vector<Frame> build_corpus() {
  std::vector<Frame> out;
  char num[24];
  for (WireFormat f : {WireFormat::per, WireFormat::flat}) {
    const e2ap::Codec& codec = e2ap::codec_for(f);
    auto samples = e2ap::sample_messages();
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const e2ap::Msg& m = samples[i];
      std::snprintf(num, sizeof num, "%02zu", i);
      auto wire = codec.encode(m);
      out.push_back({"e2ap/" + fmt_name(f) + "/" + num + "/" +
                         e2ap::msg_type_name(e2ap::msg_type(m)),
                     wire.is_ok() ? to_hex(*wire) : "encode-failed",
                     [m, &codec](BytesView b) {
                       auto d = codec.decode(b);
                       return d.is_ok() && *d == m;
                     }});
    }
  }
  add_e2sm_frames(&out);
  return out;
}

/// Golden file as key -> value, in file order.
std::vector<std::pair<std::string, std::string>> read_corpus() {
  std::vector<std::pair<std::string, std::string>> out;
  std::ifstream in(FLEXRIC_GOLDEN_CORPUS);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key, value;
    ls >> key >> value;
    out.emplace_back(key, value);
  }
  return out;
}

TEST(GoldenCorpus, EveryFrameMatchesByteForByte) {
  auto golden = read_corpus();
  auto corpus = build_corpus();
  ASSERT_EQ(golden.size(), corpus.size())
      << "corpus file " << FLEXRIC_GOLDEN_CORPUS << " out of step";
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    ASSERT_EQ(golden[i].first, corpus[i].key) << "line " << i;
    EXPECT_EQ(golden[i].second, corpus[i].hex) << corpus[i].key;
  }
}

TEST(GoldenCorpus, GoldenBytesDecodeToTheirMessages) {
  auto golden = read_corpus();
  auto corpus = build_corpus();
  ASSERT_EQ(golden.size(), corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    Buffer wire = from_hex(golden[i].second);
    EXPECT_TRUE(corpus[i].decodes_back(wire)) << corpus[i].key;
  }
}

TEST(GoldenCorpus, DISABLED_RegenerateCorpus) {
  std::ofstream out(FLEXRIC_GOLDEN_CORPUS);
  out << "# Frozen wire corpus (tests/test_golden.cpp). One `<key> <hex>` "
         "line per frame.\n";
  for (const Frame& f : build_corpus()) out << f.key << ' ' << f.hex << '\n';
  ASSERT_TRUE(out.good());
}

}  // namespace
}  // namespace flexric
