// E2AP IR <-> wire codec tests: round-trips for all 21 procedures in both
// encodings, wire-size ordering, and robustness against corrupt input.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "e2ap/codec.hpp"
#include "e2ap_samples.hpp"

namespace flexric::e2ap {
namespace {

class E2apRoundTrip : public ::testing::TestWithParam<WireFormat> {};

TEST_P(E2apRoundTrip, AllProceduresRoundTrip) {
  const Codec& codec = codec_for(GetParam());
  for (const Msg& msg : sample_messages()) {
    auto wire = codec.encode(msg);
    ASSERT_TRUE(wire.is_ok()) << msg_type_name(msg_type(msg));
    auto decoded = codec.decode(*wire);
    ASSERT_TRUE(decoded.is_ok())
        << msg_type_name(msg_type(msg)) << ": "
        << decoded.error().to_string();
    EXPECT_EQ(*decoded, msg) << msg_type_name(msg_type(msg));
  }
}

TEST_P(E2apRoundTrip, EveryMsgTypeIsCovered) {
  // The sample set must exercise all 21 procedures.
  std::set<MsgType> seen;
  for (const Msg& msg : sample_messages()) seen.insert(msg_type(msg));
  EXPECT_EQ(seen.size(), kNumMsgTypes);
}

TEST_P(E2apRoundTrip, TruncationAtEveryByteFailsCleanly) {
  const Codec& codec = codec_for(GetParam());
  for (const Msg& msg : sample_messages()) {
    auto wire = codec.encode(msg);
    ASSERT_TRUE(wire.is_ok());
    for (std::size_t cut = 0; cut < wire->size(); ++cut) {
      Buffer truncated(wire->begin(),
                       wire->begin() + static_cast<long>(cut));
      auto decoded = codec.decode(truncated);
      // Must not crash; for most cut points this must fail. (A few cut
      // points may still decode if trailing bytes were padding.)
      if (decoded.is_ok()) continue;
      EXPECT_NE(decoded.error().code, Errc::ok);
    }
  }
}

TEST_P(E2apRoundTrip, RandomByteFlipsNeverCrash) {
  const Codec& codec = codec_for(GetParam());
  Rng rng(2024);
  for (const Msg& msg : sample_messages()) {
    auto wire = codec.encode(msg);
    ASSERT_TRUE(wire.is_ok());
    for (int trial = 0; trial < 50; ++trial) {
      Buffer corrupted = *wire;
      std::size_t pos = rng.bounded(corrupted.size());
      corrupted[pos] ^= static_cast<std::uint8_t>(1 + rng.bounded(255));
      (void)codec.decode(corrupted);  // must not crash or hang
    }
  }
  SUCCEED();
}

TEST_P(E2apRoundTrip, GarbageInputRejected) {
  const Codec& codec = codec_for(GetParam());
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    Buffer garbage(rng.bounded(64), 0);
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.next());
    (void)codec.decode(garbage);  // must not crash
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Formats, E2apRoundTrip,
                         ::testing::Values(WireFormat::per, WireFormat::flat),
                         [](const auto& info) {
                           return std::string(wire_format_name(info.param));
                         });

TEST(E2apSizes, PerIsMoreCompactThanFlat) {
  // ASN.1 PER's selling point (§5.2): better compression. Verify it holds
  // for every sampled procedure.
  for (const Msg& msg : sample_messages()) {
    auto per_wire = per_codec().encode(msg);
    auto flat_wire = flat_codec().encode(msg);
    ASSERT_TRUE(per_wire.is_ok() && flat_wire.is_ok());
    EXPECT_LE(per_wire->size(), flat_wire->size())
        << msg_type_name(msg_type(msg));
  }
}

TEST(E2apSizes, FlatOverheadMatchesPaperRange) {
  // §5.2: "for each FB message, we observe 30-40 B overhead". Compare the
  // two encodings of an indication with a fixed payload.
  Indication ind;
  ind.request = {1, 1};
  ind.ran_function_id = 150;
  ind.message = Buffer(100, 0xAB);
  auto per_wire = per_codec().encode(Msg{ind});
  auto flat_wire = flat_codec().encode(Msg{ind});
  std::size_t overhead = flat_wire->size() - per_wire->size();
  EXPECT_GE(overhead, 20u);
  EXPECT_LE(overhead, 60u);
}

TEST(E2apCodec, FormatAccessor) {
  EXPECT_EQ(per_codec().format(), WireFormat::per);
  EXPECT_EQ(flat_codec().format(), WireFormat::flat);
  EXPECT_EQ(&codec_for(WireFormat::per), &per_codec());
  EXPECT_EQ(&codec_for(WireFormat::flat), &flat_codec());
}

TEST(E2apCodec, MsgTypeNamesAreOranTerms) {
  EXPECT_STREQ(msg_type_name(MsgType::indication), "RICindication");
  EXPECT_STREQ(msg_type_name(MsgType::subscription_request),
               "RICsubscriptionRequest");
  EXPECT_STREQ(msg_type_name(MsgType::setup_request), "E2SetupRequest");
}

}  // namespace
}  // namespace flexric::e2ap
