// Generic serialization framework for E2AP messages and E2SM payloads.
//
// Each message declares its fields once via a `serde(archive, self)`
// function template; the archives below derive every wire format from that
// single declaration:
//
//   PER   — ASN.1-PER-style (O-RAN's mandated encoding; E2AP and SMs)
//   FLAT  — FlatBuffers-style zero-copy (E2AP and SMs)
//   PROTO — Protobuf-style varint TLV (SMs; used by the FlexRAN baseline)
//
// This is the C++20 rendition of the paper's "we use generics to achieve
// compile time polymorphism" (§4.4), and is what makes the SDK's E2AP layer
// and its SMs encoding-agnostic: adding a wire format means adding archives,
// not touching any message.
//
// Primitives a declaration can use:
//   u8 u16 u32 u64 i64 f64 boolean str bytes   scalars and blobs
//   bounded(v, max)      unsigned value constrained to [0, max]: PER writes
//                        the minimal constrained encoding, other formats
//                        the C++ type's width
//   enum8(e)             enum as one octet in every format
//   enumerated(e)        enum as a PER ENUMERATED (minimal bits); one octet
//                        in the other formats
//   vec(v[, elem])       list; `elem(archive, element)` replaces the
//                        element's own field() where a declaration needs it
//   opt_flag(o) ... opt_value(o[, elem])
//                        optional whose presence flag is written where it is
//                        declared and its value later: PER writes the value
//                        only when present, the others always (a default
//                        when absent)
//   field(x)             nested struct (its serde()), std::pair, or scalar
//
// Every enum an archive carries names its last enumerator through an
// ADL-found `enum_last(E)` next to its definition; decoders reject any
// discriminant above it.
//
// Decode archives collect the first error in a Status instead of returning
// per-field Results, keeping serde() declarations linear. After an error all
// further operations are no-ops and the final Status reports the failure.
// Every decoded list count is checked against the payload left before it
// sizes anything: a count above (remaining payload) / (least wire size of
// one element, derived from the element's declaration) fails with "list
// count exceeds payload".
#pragma once

#include <algorithm>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "codec/flat.hpp"
#include "codec/per.hpp"
#include "codec/proto.hpp"
#include "codec/wire.hpp"
#include "common/buffer.hpp"
#include "common/result.hpp"

namespace flexric::e2sm {

/// Largest valid discriminant of a wire enum (see enum_last above).
template <typename E>
constexpr std::uint8_t enum_max() {
  return static_cast<std::uint8_t>(enum_last(E{}));
}

/// Default element serializer of vec()/opt_value(): the element's field().
struct AsField {
  template <typename A, typename T>
  void operator()(A& a, T& v) const {
    a.field(v);
  }
};

/// Width of a list count in FLAT (and RAW): E2SM payloads use a uvarint,
/// E2AP lists a fixed u32 (the FlatBuffers vector header).
enum class ListCount : std::uint8_t { uvarint, u32 };

template <typename T>
struct IsPair : std::false_type {};
template <typename F, typename S>
struct IsPair<std::pair<F, S>> : std::true_type {};

// ---------------------------------------------------------------------------
// Shared archive base (CRTP): field dispatch plus the defaults of the
// formats without a dedicated encoding for a primitive.
// ---------------------------------------------------------------------------

template <typename D>
class Archive {
 public:
  template <typename T>
  void field(T& v) {
    D& a = static_cast<D&>(*this);
    if constexpr (IsPair<T>::value) {
      a.field(v.first);
      a.field(v.second);
    } else if constexpr (std::is_same_v<T, std::uint8_t>) {
      a.u8(v);
    } else if constexpr (std::is_same_v<T, std::uint16_t>) {
      a.u16(v);
    } else if constexpr (std::is_same_v<T, std::uint32_t>) {
      a.u32(v);
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
      a.u64(v);
    } else if constexpr (std::is_same_v<T, std::int64_t>) {
      a.i64(v);
    } else if constexpr (std::is_same_v<T, double>) {
      a.f64(v);
    } else if constexpr (std::is_same_v<T, bool>) {
      a.boolean(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      a.str(v);
    } else if constexpr (std::is_same_v<T, Buffer>) {
      a.bytes(v);
    } else if constexpr (std::is_enum_v<T>) {
      a.enum8(v);
    } else if constexpr (std::is_class_v<T>) {
      serde(a, v);
    } else {
      static_assert(!sizeof(T*), "unsupported field type");
    }
  }
  /// Encoders serialize from const messages.
  template <typename T>
  void field(const T& v) {
    field(const_cast<T&>(v));
  }

  template <typename T>
  void bounded(T& v, std::uint64_t /*max*/) {
    field(v);
  }
  template <typename E>
  void enumerated(E& v) {
    static_cast<D&>(*this).enum8(v);
  }
  template <typename T>
  void opt_flag(std::optional<T>& o) {
    bool present = o.has_value();
    static_cast<D&>(*this).boolean(present);
    if constexpr (D::kIsDecoder) {
      if (present)
        o.emplace();
      else
        o.reset();
    }
  }
  template <typename T, typename F = AsField>
  void opt_value(std::optional<T>& o, F elem = {}) {
    if (o) {
      elem(static_cast<D&>(*this), *o);
      return;
    }
    T absent{};
    elem(static_cast<D&>(*this), absent);
  }
};

/// First-error bookkeeping shared by the decode archives.
class DecodeStatus {
 public:
  [[nodiscard]] bool ok() const noexcept { return status_.is_ok(); }
  [[nodiscard]] Status status() const { return status_; }
  void fail(Errc c, const char* msg) {
    if (ok()) status_ = Status{c, msg};
  }

 protected:
  /// True when `res` holds a value; otherwise records its error. This is
  /// not a range check: a count it accepts is still wire-tainted.
  template <typename R>
  bool accept(const R& res) {
    if (ok() && res) [[likely]]
      return true;
    if (ok()) record(res.error());
    return false;
  }
  template <typename R, typename T>
  void get(R&& res, T& out) {
    if (accept(res)) out = static_cast<T>(std::move(*res));
  }
  void merge(const Status& s) {
    if (ok() && !s.is_ok()) status_ = s;
  }
  template <typename E>
  void to_enum(std::uint64_t raw, E& v) {
    if (raw > enum_max<E>())
      return fail(Errc::out_of_range, "enum value out of range");
    v = static_cast<E>(raw);
  }
  void fail_count() { fail(Errc::malformed, "list count exceeds payload"); }

 private:
  // Out of line so accept() stays small enough to inline on every field.
  [[gnu::cold, gnu::noinline]] void record(const Error& e) {
    status_ = Status{e.code, e.message};
  }
  Status status_;
};

// ---------------------------------------------------------------------------
// Least wire size of a declaration (lists and strings empty, optional values
// absent where the format allows it): PER in bits, RAW in bytes. The
// decoders' list-count guard divides the payload left by it.
// ---------------------------------------------------------------------------

class PerSize : public Archive<PerSize> {
 public:
  static constexpr bool kIsDecoder = false;
  static constexpr WireFormat kFormat = WireFormat::per;
  void u8(const std::uint8_t&) { n += 8; }
  void u16(const std::uint16_t&) { n += 16; }
  void u32(const std::uint32_t&) { n += PerWriter::min_bits(0, 0xFFFFFFFF); }
  void u64(const std::uint64_t&) { n += 16; }  // length + one octet
  void i64(const std::int64_t&) { n += 16; }
  void f64(const double&) { n += 64; }
  void boolean(const bool&) { n += 1; }
  template <typename E>
  void enum8(const E&) {
    n += 8;
  }
  template <typename E>
  void enumerated(const E&) {
    n += PerWriter::min_bits(0, enum_max<E>());
  }
  template <typename T>
  void bounded(const T&, std::uint64_t max) {
    n += PerWriter::min_bits(0, max);
  }
  void str(const std::string&) { n += 8; }
  void bytes(const Buffer&) { n += 8; }
  template <typename T, typename F = AsField>
  void vec(const std::vector<T>&, F = {}) {
    n += 8;
  }
  template <typename T, typename F = AsField>
  void opt_value(const std::optional<T>&, F = {}) {}
  std::size_t n = 0;
};

class RawSize : public Archive<RawSize> {
 public:
  static constexpr bool kIsDecoder = false;
  static constexpr WireFormat kFormat = WireFormat::flat;
  void u8(const std::uint8_t&) { n += 1; }
  void u16(const std::uint16_t&) { n += 2; }
  void u32(const std::uint32_t&) { n += 4; }
  void u64(const std::uint64_t&) { n += 8; }
  void i64(const std::int64_t&) { n += 8; }
  void f64(const double&) { n += 8; }
  void boolean(const bool&) { n += 1; }
  template <typename E>
  void enum8(const E&) {
    n += 1;
  }
  void str(const std::string&) { n += 1; }
  void bytes(const Buffer&) { n += 1; }
  template <typename T, typename F = AsField>
  void vec(const std::vector<T>&, F = {}) {
    n += 1;
  }
  std::size_t n = 0;
};

/// Least wire size of one list element as `elem` declares it, computed once
/// per (format, element, serializer) and never below one unit.
template <typename Probe, typename T, typename F>
std::size_t min_size(F elem) {
  static const std::size_t kSize = [elem] {
    Probe p;
    T e{};
    elem(p, e);
    return std::max<std::size_t>(p.n, 1);
  }();
  return kSize;
}

// ---------------------------------------------------------------------------
// Raw archives: plain little-endian sequential layout, nested inside FLAT var
// regions.
// ---------------------------------------------------------------------------

class RawEnc : public Archive<RawEnc> {
 public:
  static constexpr bool kIsDecoder = false;
  static constexpr WireFormat kFormat = WireFormat::flat;
  /// Appends in place to an external writer (FlatEnc streams composites
  /// into its var region this way).
  RawEnc(BufWriter& out, ListCount count) : w_(out), count_(count) {}

  void u8(const std::uint8_t& v) { w_.u8(v); }
  void u16(const std::uint16_t& v) { w_.u16(v); }
  void u32(const std::uint32_t& v) { w_.u32(v); }
  void u64(const std::uint64_t& v) { w_.u64(v); }
  void i64(const std::int64_t& v) { w_.i64(v); }
  void f64(const double& v) { w_.f64(v); }
  void boolean(const bool& v) { w_.u8(v ? 1 : 0); }
  template <typename E>
  void enum8(const E& v) {
    w_.u8(static_cast<std::uint8_t>(v));
  }
  void str(const std::string& v) { w_.lp_string(v); }
  void bytes(const Buffer& v) { w_.lp_bytes(v); }
  template <typename T, typename F = AsField>
  void vec(const std::vector<T>& v, F elem = {}) {
    if (count_ == ListCount::u32)
      w_.u32(static_cast<std::uint32_t>(v.size()));
    else
      w_.uvarint(v.size());
    for (const auto& e : v) elem(*this, const_cast<T&>(e));
  }

 private:
  BufWriter& w_;
  ListCount count_;
};

// @hotpath decode runs once per received frame (paper §5.3)
// @view_of(the encoded message passed to the constructor)
class RawDec : public Archive<RawDec>, public DecodeStatus {
 public:
  static constexpr bool kIsDecoder = true;
  static constexpr WireFormat kFormat = WireFormat::flat;
  RawDec(BytesView b, ListCount count) : r_(b), count_(count) {}
  void u8(std::uint8_t& v) { get(r_.u8(), v); }
  void u16(std::uint16_t& v) { get(r_.u16(), v); }
  void u32(std::uint32_t& v) { get(r_.u32(), v); }
  void u64(std::uint64_t& v) { get(r_.u64(), v); }
  void i64(std::int64_t& v) { get(r_.i64(), v); }
  void f64(double& v) { get(r_.f64(), v); }
  void boolean(bool& v) {
    std::uint8_t b = 0;
    u8(b);
    v = b != 0;
  }
  template <typename E>
  void enum8(E& v) {
    std::uint8_t b = 0;
    u8(b);
    to_enum(b, v);
  }
  void str(std::string& v) { get(r_.lp_string(), v); }
  void bytes(Buffer& v) {
    auto b = r_.lp_bytes();
    if (accept(b)) v.assign(b->begin(), b->end());
  }
  template <typename T, typename F = AsField>
  void vec(std::vector<T>& v, F elem = {}) {
    auto n = count();
    if (!accept(n)) return;
    if (*n > r_.remaining() / min_size<RawSize, T>(elem)) return fail_count();
    v.clear();
    v.resize(static_cast<std::size_t>(*n));
    for (T& e : v) {
      if (!ok()) return;
      elem(*this, e);
    }
  }

 private:
  Result<std::uint64_t> count() {
    if (count_ == ListCount::uvarint) return r_.uvarint();
    auto n = r_.u32();
    if (!n) return n.error();
    return std::uint64_t{*n};
  }
  BufReader r_;
  ListCount count_;
};

// ---------------------------------------------------------------------------
// PER archives: bit-packed, every field parsed (ASN.1 cost profile).
// ---------------------------------------------------------------------------

class PerEnc : public Archive<PerEnc> {
 public:
  static constexpr bool kIsDecoder = false;
  static constexpr WireFormat kFormat = WireFormat::per;
  void u8(const std::uint8_t& v) { w_.constrained(v, 0, 0xFF); }
  void u16(const std::uint16_t& v) { w_.constrained(v, 0, 0xFFFF); }
  void u32(const std::uint32_t& v) { w_.constrained(v, 0, 0xFFFFFFFF); }
  void u64(const std::uint64_t& v) { w_.semi_constrained(v, 0); }
  void i64(const std::int64_t& v) { w_.integer(v); }
  void f64(const double& v) { w_.real(v); }
  void boolean(const bool& v) { w_.boolean(v); }
  template <typename T>
  void bounded(const T& v, std::uint64_t max) {
    w_.constrained(v, 0, max);
  }
  template <typename E>
  void enum8(const E& v) {
    w_.constrained(static_cast<std::uint8_t>(v), 0, 0xFF);
  }
  template <typename E>
  void enumerated(const E& v) {
    w_.enumerated(static_cast<std::uint8_t>(v), enum_max<E>() + 1u);
  }
  void str(const std::string& v) { w_.str(v); }
  void bytes(const Buffer& v) { w_.octets(v); }
  template <typename T, typename F = AsField>
  void vec(const std::vector<T>& v, F elem = {}) {
    w_.length(v.size());
    for (const auto& e : v) elem(*this, const_cast<T&>(e));
  }
  template <typename T, typename F = AsField>
  void opt_value(const std::optional<T>& o, F elem = {}) {
    if (o) elem(*this, const_cast<T&>(*o));
  }
  Buffer take() { return w_.take(); }

 private:
  PerWriter w_;
};

// @hotpath decode runs once per received frame (paper §5.3)
// @view_of(the encoded message passed to the constructor)
class PerDec : public Archive<PerDec>, public DecodeStatus {
 public:
  static constexpr bool kIsDecoder = true;
  static constexpr WireFormat kFormat = WireFormat::per;
  explicit PerDec(BytesView b) : r_(b) {}
  void u8(std::uint8_t& v) { get(r_.constrained(0, 0xFF), v); }
  void u16(std::uint16_t& v) { get(r_.constrained(0, 0xFFFF), v); }
  void u32(std::uint32_t& v) { get(r_.constrained(0, 0xFFFFFFFF), v); }
  void u64(std::uint64_t& v) { get(r_.semi_constrained(0), v); }
  void i64(std::int64_t& v) { get(r_.integer(), v); }
  void f64(double& v) { get(r_.real(), v); }
  void boolean(bool& v) { get(r_.boolean(), v); }
  template <typename T>
  void bounded(T& v, std::uint64_t max) {
    get(r_.constrained(0, max), v);
  }
  template <typename E>
  void enum8(E& v) {
    std::uint8_t b = 0;
    u8(b);
    to_enum(b, v);
  }
  template <typename E>
  void enumerated(E& v) {
    std::uint8_t b = 0;
    get(r_.enumerated(enum_max<E>() + 1u), b);
    to_enum(b, v);
  }
  void str(std::string& v) { get(r_.str(), v); }
  void bytes(Buffer& v) { get(r_.octets(), v); }
  template <typename T, typename F = AsField>
  void vec(std::vector<T>& v, F elem = {}) {
    auto n = r_.length();
    if (!accept(n)) return;
    if (*n > r_.bits_remaining() / min_size<PerSize, T>(elem))
      return fail_count();
    v.clear();
    v.resize(*n);
    for (T& e : v) {
      if (!ok()) return;
      elem(*this, e);
    }
  }
  template <typename T, typename F = AsField>
  void opt_value(std::optional<T>& o, F elem = {}) {
    if (o) elem(*this, *o);
  }

 private:
  PerReader r_;
};

// ---------------------------------------------------------------------------
// FLAT archives: scalars to the fixed region, composites nested via RAW in
// the var region. Decode reads in place from the wire buffer.
// ---------------------------------------------------------------------------

class FlatEnc : public Archive<FlatEnc> {
 public:
  static constexpr bool kIsDecoder = false;
  static constexpr WireFormat kFormat = WireFormat::flat;
  explicit FlatEnc(ListCount count = ListCount::uvarint) : count_(count) {}
  void u8(const std::uint8_t& v) { w_.u8(v); }
  void u16(const std::uint16_t& v) { w_.u16(v); }
  void u32(const std::uint32_t& v) { w_.u32(v); }
  void u64(const std::uint64_t& v) { w_.u64(v); }
  void i64(const std::int64_t& v) { w_.i64(v); }
  void f64(const double& v) { w_.f64(v); }
  void boolean(const bool& v) { w_.boolean(v); }
  template <typename E>
  void enum8(const E& v) {
    w_.u8(static_cast<std::uint8_t>(v));
  }
  void str(const std::string& v) { w_.var_string(v); }
  void bytes(const Buffer& v) { w_.var_bytes(v); }
  template <typename T, typename F = AsField>
  void vec(const std::vector<T>& v, F elem = {}) {
    // Composites stream straight into the var region (no staging buffer).
    RawEnc raw(w_.var_begin(), count_);
    raw.vec(v, elem);
    w_.var_end();
  }
  Buffer take() { return w_.finish(); }

 private:
  FlatWriter w_;
  ListCount count_;
};

// @hotpath decode runs once per received frame (paper §5.3)
// @view_of(the encoded message passed to the constructor)
class FlatDec : public Archive<FlatDec>, public DecodeStatus {
 public:
  static constexpr bool kIsDecoder = true;
  static constexpr WireFormat kFormat = WireFormat::flat;
  FlatDec(FlatView v, ListCount count) : v_(v), count_(count) {}
  /// Parse + construct helper.
  static Result<FlatDec> parse(BytesView wire,
                               ListCount count = ListCount::uvarint) {
    auto v = FlatView::parse(wire);
    if (!v) return v.error();
    return FlatDec(*v, count);
  }
  void u8(std::uint8_t& v) { get(v_.u8(), v); }
  void u16(std::uint16_t& v) { get(v_.u16(), v); }
  void u32(std::uint32_t& v) { get(v_.u32(), v); }
  void u64(std::uint64_t& v) { get(v_.u64(), v); }
  void i64(std::int64_t& v) { get(v_.i64(), v); }
  void f64(double& v) { get(v_.f64(), v); }
  void boolean(bool& v) { get(v_.boolean(), v); }
  template <typename E>
  void enum8(E& v) {
    std::uint8_t b = 0;
    u8(b);
    to_enum(b, v);
  }
  void str(std::string& v) {
    auto s = v_.var_string();
    if (accept(s)) v.assign(s->data(), s->size());
  }
  void bytes(Buffer& v) {
    auto b = v_.var_bytes();
    if (accept(b)) v.assign(b->begin(), b->end());
  }
  template <typename T, typename F = AsField>
  void vec(std::vector<T>& v, F elem = {}) {
    auto raw = v_.var_bytes();
    if (!accept(raw)) return;
    RawDec dec(*raw, count_);
    dec.vec(v, elem);
    merge(dec.status());
  }

 private:
  FlatView v_;
  ListCount count_;
};

// ---------------------------------------------------------------------------
// PROTO archives: varint TLV with sequential field numbers (FlexRAN's wire).
// ---------------------------------------------------------------------------

class ProtoEnc : public Archive<ProtoEnc> {
 public:
  static constexpr bool kIsDecoder = false;
  static constexpr WireFormat kFormat = WireFormat::proto;
  void u8(const std::uint8_t& v) { w_.field_u64(next(), v); }
  void u16(const std::uint16_t& v) { w_.field_u64(next(), v); }
  void u32(const std::uint32_t& v) { w_.field_u64(next(), v); }
  void u64(const std::uint64_t& v) { w_.field_u64(next(), v); }
  void i64(const std::int64_t& v) { w_.field_i64(next(), v); }
  void f64(const double& v) { w_.field_f64(next(), v); }
  void boolean(const bool& v) { w_.field_bool(next(), v); }
  template <typename E>
  void enum8(const E& v) {
    w_.field_u64(next(), static_cast<std::uint8_t>(v));
  }
  void str(const std::string& v) { w_.field_string(next(), v); }
  void bytes(const Buffer& v) { w_.field_bytes(next(), v); }
  template <typename T, typename F = AsField>
  void vec(const std::vector<T>& v, F elem = {}) {
    // repeated nested message: every element its own length-delimited field
    std::uint32_t num = next();
    BufWriter count;
    count.uvarint(v.size());
    w_.field_bytes(num, count.view());  // explicit count (canonical order)
    for (const auto& e : v) {
      ProtoEnc child;
      elem(child, const_cast<T&>(e));
      Buffer b = child.take();
      w_.field_bytes(num, b);
    }
  }
  Buffer take() { return w_.take(); }

 private:
  std::uint32_t next() noexcept { return ++num_; }
  ProtoWriter w_;
  std::uint32_t num_ = 0;
};

// @hotpath decode runs once per received frame (paper §5.3)
// @view_of(the encoded message passed to the constructor)
class ProtoDec : public Archive<ProtoDec>, public DecodeStatus {
 public:
  static constexpr bool kIsDecoder = true;
  static constexpr WireFormat kFormat = WireFormat::proto;
  explicit ProtoDec(BytesView b) : r_(b) {}
  void u8(std::uint8_t& v) { varint_into(v); }
  void u16(std::uint16_t& v) { varint_into(v); }
  void u32(std::uint32_t& v) { varint_into(v); }
  void u64(std::uint64_t& v) { varint_into(v); }
  void i64(std::int64_t& v) {
    auto f = expect(ProtoWireType::varint);
    if (f) v = ProtoReader::as_i64(*f);
  }
  void f64(double& v) {
    auto f = expect(ProtoWireType::len);
    if (f) get(ProtoReader::as_f64(*f), v);
  }
  void boolean(bool& v) {
    std::uint64_t b = 0;
    u64(b);
    v = b != 0;
  }
  template <typename E>
  void enum8(E& v) {
    std::uint64_t b = 0;
    u64(b);
    to_enum(b, v);
  }
  void str(std::string& v) {
    auto f = expect(ProtoWireType::len);
    if (f) v = ProtoReader::as_string(*f);
  }
  void bytes(Buffer& v) {
    auto f = expect(ProtoWireType::len);
    if (f) v.assign(f->bytes.begin(), f->bytes.end());
  }
  template <typename T, typename F = AsField>
  void vec(std::vector<T>& v, F elem = {}) {
    auto countf = expect(ProtoWireType::len);
    if (!countf) return;
    BufReader cr(countf->bytes);
    auto n = cr.uvarint();
    if (!accept(n)) return;
    // Every element is its own field: at least a key and a length byte.
    if (*n > r_.remaining() / 2) return fail_count();
    std::uint32_t num = countf->number;
    v.clear();
    v.resize(static_cast<std::size_t>(*n));
    for (T& e : v) {
      auto f = next_field();
      if (!f) return;
      if (f->number != num || f->type != ProtoWireType::len)
        return fail(Errc::malformed, "repeated field interrupted");
      ProtoDec child(f->bytes);
      elem(child, e);
      merge(child.status());
    }
  }

 private:
  std::optional<ProtoReader::Field> next_field() {
    if (!ok()) return std::nullopt;
    auto f = r_.next();
    if (!accept(f)) return std::nullopt;
    return *f;
  }
  std::optional<ProtoReader::Field> expect(ProtoWireType wt) {
    auto f = next_field();
    if (!f) return std::nullopt;
    if (f->type != wt) {
      fail(Errc::malformed, "unexpected wire type");
      return std::nullopt;
    }
    return f;
  }
  template <typename T>
  void varint_into(T& v) {
    auto f = expect(ProtoWireType::varint);
    if (f) v = static_cast<T>(f->varint);
  }
  ProtoReader r_;
};

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Encode a serde-enabled message in the given wire format.
template <typename T>
Buffer sm_encode(const T& msg, WireFormat f) {
  switch (f) {
    case WireFormat::per: {
      PerEnc a;
      a.field(msg);
      return a.take();
    }
    case WireFormat::flat: {
      FlatEnc a;
      a.field(msg);
      return a.take();
    }
    case WireFormat::proto: {
      ProtoEnc a;
      a.field(msg);
      return a.take();
    }
  }
  return {};
}

/// Decode a serde-enabled message. Returns malformed/truncated/out_of_range
/// errors for bad wire data; never UB.
template <typename T>
Result<T> sm_decode(BytesView wire, WireFormat f) {
  T msg{};
  switch (f) {
    case WireFormat::per: {
      PerDec a(wire);
      a.field(msg);
      if (!a.ok()) return a.status().error();
      return msg;
    }
    case WireFormat::flat: {
      auto a = FlatDec::parse(wire);
      if (!a) return a.error();
      a->field(msg);
      if (!a->ok()) return a->status().error();
      return msg;
    }
    case WireFormat::proto: {
      ProtoDec a(wire);
      a.field(msg);
      if (!a.ok()) return a.status().error();
      return msg;
    }
  }
  return Error{Errc::unsupported, "unknown wire format"};
}

}  // namespace flexric::e2sm
