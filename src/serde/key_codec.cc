#include "serde/key_codec.h"

#include <cstring>

#include "common/status.h"

namespace manimal {

namespace {

// Kind-rank prefix bytes; must mirror Value::Compare's kind ranking
// (numerics share one rank).
constexpr char kRankNull = 0x01;
constexpr char kRankBool = 0x02;
constexpr char kRankNumeric = 0x03;
constexpr char kRankStr = 0x04;

void AppendBigEndian64(std::string* dst, uint64_t v) {
  char buf[8];
  for (int i = 7; i >= 0; --i) {
    buf[i] = static_cast<char>(v & 0xFF);
    v >>= 8;
  }
  dst->append(buf, 8);
}

uint64_t ReadBigEndian64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v = (v << 8) | static_cast<uint8_t>(p[i]);
  }
  return v;
}

// IEEE-754 total-order transform: monotone map double -> uint64.
uint64_t DoubleToOrdered(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, 8);
  if (bits & (1ULL << 63)) {
    return ~bits;  // negative: flip everything
  }
  return bits | (1ULL << 63);  // non-negative: flip the sign bit
}

double OrderedToDouble(uint64_t u) {
  uint64_t bits;
  if (u & (1ULL << 63)) {
    bits = u & ~(1ULL << 63);
  } else {
    bits = ~u;
  }
  double d;
  std::memcpy(&d, &bits, 8);
  return d;
}

}  // namespace

Status EncodeOrderedKey(const Value& value, std::string* dst) {
  switch (value.kind()) {
    case ValueKind::kNull:
      dst->push_back(kRankNull);
      return Status::OK();
    case ValueKind::kBool:
      dst->push_back(kRankBool);
      dst->push_back(value.bool_value() ? 1 : 0);
      return Status::OK();
    case ValueKind::kI64: {
      // Exact i64 keys keep full precision: encode as numeric rank,
      // sub-tag 0 for "integer", sign-flipped big endian. Doubles use
      // sub-tag ordering chosen so memcmp order == numeric order only
      // if files don't mix i64 and f64 keys for the same field; the
      // row codec types each field, so a field is always one of the
      // two.
      dst->push_back(kRankNumeric);
      AppendBigEndian64(dst, static_cast<uint64_t>(value.i64()) ^
                                 (1ULL << 63));
      dst->push_back(0);  // integer marker (distinguishes on decode)
      return Status::OK();
    }
    case ValueKind::kF64: {
      dst->push_back(kRankNumeric);
      AppendBigEndian64(dst, DoubleToOrdered(value.f64()));
      dst->push_back(1);  // double marker
      return Status::OK();
    }
    case ValueKind::kStr:
      dst->push_back(kRankStr);
      dst->append(value.str());
      return Status::OK();
    case ValueKind::kList:
    case ValueKind::kHandle:
      return Status::NotSupported("only scalar values can be index keys");
  }
  return Status::Internal("bad value kind");
}

Status DecodeOrderedKey(std::string_view input, Value* value) {
  if (input.empty()) return Status::Corruption("empty ordered key");
  char rank = input[0];
  input.remove_prefix(1);
  switch (rank) {
    case kRankNull:
      *value = Value::Null();
      return Status::OK();
    case kRankBool:
      if (input.size() != 1) return Status::Corruption("bad bool key");
      *value = Value::Bool(input[0] != 0);
      return Status::OK();
    case kRankNumeric: {
      if (input.size() != 9) return Status::Corruption("bad numeric key");
      uint64_t raw = ReadBigEndian64(input.data());
      char marker = input[8];
      if (marker == 0) {
        *value = Value::I64(static_cast<int64_t>(raw ^ (1ULL << 63)));
      } else {
        *value = Value::F64(OrderedToDouble(raw));
      }
      return Status::OK();
    }
    case kRankStr:
      *value = Value::Borrowed(input);
      return Status::OK();
    default:
      return Status::Corruption("bad ordered key rank byte");
  }
}

}  // namespace manimal
