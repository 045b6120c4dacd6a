#include "serde/value.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.h"
#include "common/strings.h"

namespace manimal {

const char* ValueKindName(ValueKind kind) {
  switch (kind) {
    case ValueKind::kNull:
      return "null";
    case ValueKind::kBool:
      return "bool";
    case ValueKind::kI64:
      return "i64";
    case ValueKind::kF64:
      return "f64";
    case ValueKind::kStr:
      return "str";
    case ValueKind::kList:
      return "list";
    case ValueKind::kHandle:
      return "handle";
  }
  return "?";
}

void Value::CopyRefcounted(const Value& other) {
  switch (tag_) {
    case Tag::kOwnedStr:
      new (&rep_.owned) std::shared_ptr<std::string>(other.rep_.owned);
      break;
    case Tag::kList:
      new (&rep_.list) std::shared_ptr<ValueList>(other.rep_.list);
      break;
    case Tag::kHandle:
      new (&rep_.handle) std::shared_ptr<ObjectHandle>(other.rep_.handle);
      break;
    default:
      MANIMAL_CHECK(false);
  }
}

void Value::DestroyRefcounted() {
  switch (tag_) {
    case Tag::kOwnedStr:
      rep_.owned.~shared_ptr();
      break;
    case Tag::kList:
      rep_.list.~shared_ptr();
      break;
    case Tag::kHandle:
      rep_.handle.~shared_ptr();
      break;
    default:
      MANIMAL_CHECK(false);
  }
}

void Value::AssignSlow(const Value& other) {
  // Copy-then-destroy so self-referential assignments (e.g. from an
  // element of this value's own list) stay safe.
  Value copy(other);
  if (!is_trivial_tag(tag_)) DestroyRefcounted();
  tag_ = copy.tag_;
  CopyRepBytes(&rep_, &copy.rep_);
  copy.tag_ = Tag::kNull;
}

bool Value::bool_value() const {
  MANIMAL_CHECK(is_bool());
  return rep_.b;
}

int64_t Value::i64() const {
  MANIMAL_CHECK(is_i64());
  return rep_.i;
}

double Value::f64() const {
  MANIMAL_CHECK(is_f64());
  return rep_.d;
}

std::string_view Value::str() const {
  switch (tag_) {
    case Tag::kInlineStr:
      return rep_.inl.view();
    case Tag::kViewStr:
      return {rep_.view.data, rep_.view.size};
    case Tag::kOwnedStr:
      return *rep_.owned;
    default:
      MANIMAL_CHECK(is_str());
      return {};
  }
}

const ValueList& Value::list() const {
  MANIMAL_CHECK(is_list());
  return *rep_.list;
}

ValueList& Value::mutable_list() {
  MANIMAL_CHECK(is_list());
  return *rep_.list;
}

bool Value::has_unique_list() const {
  if (!is_list()) return false;
  return rep_.list.use_count() == 1;
}

const std::shared_ptr<ObjectHandle>& Value::handle() const {
  MANIMAL_CHECK(is_handle());
  return rep_.handle;
}

double Value::AsF64() const {
  if (is_i64()) return static_cast<double>(i64());
  MANIMAL_CHECK(is_f64());
  return f64();
}

bool Value::HasBorrowedStr() const {
  if (is_borrowed_str()) return true;
  if (is_list()) {
    for (const Value& v : list()) {
      if (v.HasBorrowedStr()) return true;
    }
  }
  return false;
}

void Value::EnsureOwned() {
  if (tag_ == Tag::kViewStr) {
    // Borrowed strings longer than the inline cap (short borrows are
    // stored inline at construction).
    auto owned = std::make_shared<std::string>(
        std::string_view(rep_.view.data, rep_.view.size));
    tag_ = Tag::kOwnedStr;
    new (&rep_.owned) std::shared_ptr<std::string>(std::move(owned));
    return;
  }
  if (is_list() && HasBorrowedStr()) {
    // Rebuild rather than mutate: the list storage may be shared, and
    // other holders must not observe the rewrite.
    ValueList owned;
    const ValueList& items = list();
    owned.reserve(items.size());
    for (const Value& v : items) owned.push_back(v.ToOwned());
    rep_.list = std::make_shared<ValueList>(std::move(owned));
  }
}

Value SubstrValue(const Value& base, size_t pos, size_t len) {
  std::string_view s = base.str();
  pos = std::min(pos, s.size());
  std::string_view sub = s.substr(pos, len);
  if (base.is_borrowed_str()) return Value::Borrowed(sub);
  return Value::Str(sub);
}

namespace {

int KindRank(ValueKind k) {
  switch (k) {
    case ValueKind::kNull:
      return 0;
    case ValueKind::kBool:
      return 1;
    case ValueKind::kI64:
    case ValueKind::kF64:
      return 2;  // numerics compare with each other
    case ValueKind::kStr:
      return 3;
    case ValueKind::kList:
      return 4;
    case ValueKind::kHandle:
      return 5;
  }
  return 6;
}

template <typename T>
int Cmp3(const T& a, const T& b) {
  if (a < b) return -1;
  if (b < a) return 1;
  return 0;
}

}  // namespace

int Value::Compare(const Value& other) const {
  int ra = KindRank(kind());
  int rb = KindRank(other.kind());
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (kind()) {
    case ValueKind::kNull:
      return 0;
    case ValueKind::kBool:
      return Cmp3(bool_value(), other.bool_value());
    case ValueKind::kI64:
    case ValueKind::kF64: {
      if (is_i64() && other.is_i64()) return Cmp3(i64(), other.i64());
      return Cmp3(AsF64(), other.AsF64());
    }
    case ValueKind::kStr: {
      int c = str().compare(other.str());
      return c < 0 ? -1 : (c == 0 ? 0 : 1);
    }
    case ValueKind::kList: {
      const auto& a = list();
      const auto& b = other.list();
      size_t n = std::min(a.size(), b.size());
      for (size_t i = 0; i < n; ++i) {
        int c = a[i].Compare(b[i]);
        if (c != 0) return c;
      }
      return Cmp3(a.size(), b.size());
    }
    case ValueKind::kHandle:
      return Cmp3(reinterpret_cast<uintptr_t>(handle().get()),
                  reinterpret_cast<uintptr_t>(other.handle().get()));
  }
  return 0;
}

uint64_t Value::Hash() const {
  // FNV-1a over a kind tag plus the canonical byte representation.
  auto mix = [](uint64_t h, uint64_t x) {
    h ^= x;
    h *= 0x100000001B3ULL;
    return h;
  };
  uint64_t h = 0xcbf29ce484222325ULL;
  h = mix(h, static_cast<uint64_t>(KindRank(kind())));
  switch (kind()) {
    case ValueKind::kNull:
      break;
    case ValueKind::kBool:
      h = mix(h, bool_value() ? 1 : 0);
      break;
    case ValueKind::kI64:
      h = mix(h, static_cast<uint64_t>(i64()));
      break;
    case ValueKind::kF64: {
      double d = f64();
      // Hash integral doubles like their i64 twin so Compare==0
      // implies equal hashes. The range check comes first: casting
      // NaN, an infinity or anything outside [-2^63, 2^63) to int64_t
      // is undefined.
      if (d >= -0x1p63 && d < 0x1p63 &&
          d == static_cast<double>(static_cast<int64_t>(d))) {
        h = mix(h, static_cast<uint64_t>(static_cast<int64_t>(d)));
      } else {
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(d));
        std::memcpy(&bits, &d, 8);
        h = mix(h, bits);
      }
      break;
    }
    case ValueKind::kStr:
      for (char c : str()) h = mix(h, static_cast<uint8_t>(c));
      break;
    case ValueKind::kList:
      for (const Value& v : list()) h = mix(h, v.Hash());
      break;
    case ValueKind::kHandle:
      h = mix(h, reinterpret_cast<uintptr_t>(handle().get()));
      break;
  }
  return h;
}

std::string Value::ToString() const {
  switch (kind()) {
    case ValueKind::kNull:
      return "null";
    case ValueKind::kBool:
      return bool_value() ? "true" : "false";
    case ValueKind::kI64:
      return StrPrintf("i64:%lld", static_cast<long long>(i64()));
    case ValueKind::kF64:
      return StrPrintf("f64:%.17g", f64());
    case ValueKind::kStr:
      return "str:\"" + std::string(str()) + "\"";
    case ValueKind::kList: {
      std::string out = "list:[";
      const auto& items = list();
      for (size_t i = 0; i < items.size(); ++i) {
        if (i) out += ", ";
        out += items[i].ToString();
      }
      out += "]";
      return out;
    }
    case ValueKind::kHandle:
      return "handle:" + handle()->TypeName();
  }
  return "?";
}

char* ValueArena::Alloc(size_t n) {
  if (n == 0) {
    static char dummy;
    return &dummy;
  }
  while (block_ < blocks_.size()) {
    if (block_bytes_[block_] - used_ >= n) {
      char* p = blocks_[block_].get() + used_;
      used_ += n;
      return p;
    }
    ++block_;
    used_ = 0;
  }
  size_t want = std::max(n, kMinBlockBytes);
  if (!block_bytes_.empty()) {
    want = std::max(want, block_bytes_.back() * 2);
  }
  blocks_.push_back(std::make_unique<char[]>(want));
  block_bytes_.push_back(want);
  block_ = blocks_.size() - 1;
  used_ = n;
  return blocks_[block_].get();
}

size_t ValueArena::allocated_bytes() const {
  size_t total = 0;
  for (size_t b : block_bytes_) total += b;
  return total;
}

}  // namespace manimal
