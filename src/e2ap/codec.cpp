// The E2AP wire codecs, derived from the IR's serde() declarations
// (messages.hpp) by the archives every SM uses (e2sm/serde.hpp).
//
// A frame is the message-type tag (a PER ENUMERATED over the 21 procedures;
// one FLAT octet) followed by the procedure's fields. PER decode parses every
// field into the IR (the CPU cost §5.2/§5.3 measure for "ASN"); FLAT decode
// validates the table header and reads fields in place (the near-zero decode
// cost that lets FB beat ASN.1 by ~4x controller CPU, §5.3).
#include "e2ap/codec.hpp"

#include <array>
#include <utility>

#include "e2sm/serde.hpp"

namespace flexric::e2ap {
namespace {

using e2sm::ListCount;

struct Per {
  using Dec = e2sm::PerDec;
  static constexpr WireFormat kFormat = WireFormat::per;
  static e2sm::PerEnc encoder() { return {}; }
  static Result<e2sm::PerDec> decoder(BytesView wire) {
    return e2sm::PerDec(wire);
  }
};

// E2AP's FLAT lists carry a u32 count (the FlatBuffers vector header).
struct Flat {
  using Dec = e2sm::FlatDec;
  static constexpr WireFormat kFormat = WireFormat::flat;
  static e2sm::FlatEnc encoder() { return e2sm::FlatEnc(ListCount::u32); }
  static Result<e2sm::FlatDec> decoder(BytesView wire) {
    return e2sm::FlatDec::parse(wire, ListCount::u32);
  }
};

template <typename T, typename Dec>
Result<Msg> decode_as(Dec& d) {
  Msg m{std::in_place_type<T>};
  d.field(std::get<T>(m));
  if (!d.ok()) return d.status().error();
  return m;
}

/// decode_as<> of every IR alternative, indexed by its MsgType tag.
template <typename Dec, std::size_t... I>
constexpr auto decoders(std::index_sequence<I...>) {
  static_assert(std::variant_size_v<Msg> == sizeof...(I) &&
                e2sm::enum_max<MsgType>() + 1u == sizeof...(I));
  static_assert(((std::variant_alternative_t<I, Msg>::kType ==
                  static_cast<MsgType>(I)) && ...),
                "Msg alternatives must follow MsgType order");
  return std::array<Result<Msg> (*)(Dec&), sizeof...(I)>{
      &decode_as<std::variant_alternative_t<I, Msg>, Dec>...};
}

/// The message-type tag every frame leads with.
template <typename Dec>
Result<MsgType> read_tag(Dec& a) {
  MsgType type{};
  a.enumerated(type);
  if (!a.ok()) return a.status().error();
  return type;
}

// @hotpath decode runs once per received frame (paper §5.3)
template <typename Format>
class SerdeCodec final : public Codec {
 public:
  [[nodiscard]] WireFormat format() const noexcept override {
    return Format::kFormat;
  }

  [[nodiscard]] Result<Buffer> encode(const Msg& m) const override {
    auto a = Format::encoder();
    MsgType type = msg_type(m);
    a.enumerated(type);
    std::visit([&a](const auto& msg) { a.field(msg); }, m);
    return a.take();
  }

  [[nodiscard]] Result<Msg> decode(BytesView wire) const override {
    auto a = Format::decoder(wire);
    if (!a) return a.error();
    auto type = read_tag(*a);
    if (!type) return type.error();
    static constexpr auto kDecoders = decoders<typename Format::Dec>(
        std::make_index_sequence<kNumMsgTypes>{});
    return kDecoders[static_cast<std::size_t>(*type)](*a);
  }

  [[nodiscard]] Result<MsgType> peek_type(BytesView wire) const override {
    auto a = Format::decoder(wire);
    if (!a) return a.error();
    return read_tag(*a);
  }
};

}  // namespace

const Codec& per_codec() {
  static const SerdeCodec<Per> c;
  return c;
}

const Codec& flat_codec() {
  static const SerdeCodec<Flat> c;
  return c;
}

const Codec& codec_for(WireFormat f) {
  // lint: allow(wire-assert) argument is a local config enum, not wire data
  FLEXRIC_ASSERT(f == WireFormat::per || f == WireFormat::flat,
                 "E2AP codec: per or flat only");
  return f == WireFormat::per ? per_codec() : flat_codec();
}

}  // namespace flexric::e2ap
