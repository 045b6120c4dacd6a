#include "serde/record_codec.h"

#include "common/coding.h"
#include "common/strings.h"

namespace manimal {

Status EncodeRecord(const Schema& schema, const Record& record,
                    std::string* dst) {
  MANIMAL_RETURN_IF_ERROR(ValidateRecord(schema, record));
  if (schema.opaque()) {
    PutLengthPrefixed(dst, record[0].str());
    return Status::OK();
  }
  for (int i = 0; i < schema.num_fields(); ++i) {
    const Value& v = record[i];
    switch (schema.field(i).type) {
      case FieldType::kI64:
        PutVarintSigned(dst, v.i64());
        break;
      case FieldType::kF64:
        PutDouble(dst, v.f64());
        break;
      case FieldType::kStr:
        PutLengthPrefixed(dst, v.str());
        break;
      case FieldType::kBool:
        dst->push_back(v.bool_value() ? 1 : 0);
        break;
    }
  }
  return Status::OK();
}

Status DecodeRecord(const Schema& schema, std::string_view* input,
                    Record* record, bool borrow_strings) {
  record->clear();
  if (schema.opaque()) {
    std::string_view blob;
    MANIMAL_RETURN_IF_ERROR(GetLengthPrefixed(input, &blob));
    record->push_back(borrow_strings ? Value::Borrowed(blob)
                                     : Value::Str(blob));
    return Status::OK();
  }
  record->reserve(schema.num_fields());
  for (int i = 0; i < schema.num_fields(); ++i) {
    switch (schema.field(i).type) {
      case FieldType::kI64: {
        int64_t v = 0;
        MANIMAL_RETURN_IF_ERROR(GetVarintSigned(input, &v));
        record->push_back(Value::I64(v));
        break;
      }
      case FieldType::kF64: {
        double v = 0;
        MANIMAL_RETURN_IF_ERROR(GetDouble(input, &v));
        record->push_back(Value::F64(v));
        break;
      }
      case FieldType::kStr: {
        std::string_view s;
        MANIMAL_RETURN_IF_ERROR(GetLengthPrefixed(input, &s));
        record->push_back(borrow_strings ? Value::Borrowed(s)
                                         : Value::Str(s));
        break;
      }
      case FieldType::kBool: {
        if (input->empty()) return Status::Corruption("truncated bool");
        record->push_back(Value::Bool((*input)[0] != 0));
        input->remove_prefix(1);
        break;
      }
    }
  }
  return Status::OK();
}

Status EncodeValue(const Value& value, std::string* dst) {
  dst->push_back(static_cast<char>(value.kind()));
  switch (value.kind()) {
    case ValueKind::kNull:
      return Status::OK();
    case ValueKind::kBool:
      dst->push_back(value.bool_value() ? 1 : 0);
      return Status::OK();
    case ValueKind::kI64:
      PutVarintSigned(dst, value.i64());
      return Status::OK();
    case ValueKind::kF64:
      PutDouble(dst, value.f64());
      return Status::OK();
    case ValueKind::kStr:
      PutLengthPrefixed(dst, value.str());
      return Status::OK();
    case ValueKind::kList: {
      PutVarint64(dst, value.list().size());
      for (const Value& item : value.list()) {
        MANIMAL_RETURN_IF_ERROR(EncodeValue(item, dst));
      }
      return Status::OK();
    }
    case ValueKind::kHandle:
      return Status::NotSupported("cannot serialize handle values");
  }
  return Status::Internal("bad value kind");
}

Status DecodeValue(std::string_view* input, Value* value,
                   bool borrow_strings) {
  if (input->empty()) return Status::Corruption("truncated value");
  auto kind = static_cast<ValueKind>((*input)[0]);
  input->remove_prefix(1);
  switch (kind) {
    case ValueKind::kNull:
      *value = Value::Null();
      return Status::OK();
    case ValueKind::kBool: {
      if (input->empty()) return Status::Corruption("truncated bool");
      *value = Value::Bool((*input)[0] != 0);
      input->remove_prefix(1);
      return Status::OK();
    }
    case ValueKind::kI64: {
      int64_t v = 0;
      MANIMAL_RETURN_IF_ERROR(GetVarintSigned(input, &v));
      *value = Value::I64(v);
      return Status::OK();
    }
    case ValueKind::kF64: {
      double v = 0;
      MANIMAL_RETURN_IF_ERROR(GetDouble(input, &v));
      *value = Value::F64(v);
      return Status::OK();
    }
    case ValueKind::kStr: {
      std::string_view s;
      MANIMAL_RETURN_IF_ERROR(GetLengthPrefixed(input, &s));
      *value = borrow_strings ? Value::Borrowed(s) : Value::Str(s);
      return Status::OK();
    }
    case ValueKind::kList: {
      uint64_t n = 0;
      MANIMAL_RETURN_IF_ERROR(GetVarint64(input, &n));
      ValueList items;
      items.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        Value item;
        MANIMAL_RETURN_IF_ERROR(DecodeValue(input, &item, borrow_strings));
        items.push_back(std::move(item));
      }
      *value = Value::List(std::move(items));
      return Status::OK();
    }
    case ValueKind::kHandle:
      return Status::Corruption("handle value in serialized stream");
  }
  return Status::Corruption("bad value kind byte");
}

// --- OpaqueTupleCodec -------------------------------------------------
//
// Format (deliberately custom; nothing in the file schema describes
// it): 'A' 'T' magic, varint field count, then per field a type byte
// ('i', 'd', 's', 'b') and the value.

namespace {
constexpr char kMagic0 = 'A';
constexpr char kMagic1 = 'T';
}  // namespace

Result<std::string> OpaqueTupleCodec::Pack(const Record& tuple) {
  std::string out;
  out.push_back(kMagic0);
  out.push_back(kMagic1);
  PutVarint64(&out, tuple.size());
  for (const Value& v : tuple) {
    switch (v.kind()) {
      case ValueKind::kI64:
        out.push_back('i');
        PutVarintSigned(&out, v.i64());
        break;
      case ValueKind::kF64:
        out.push_back('d');
        PutDouble(&out, v.f64());
        break;
      case ValueKind::kStr:
        out.push_back('s');
        PutLengthPrefixed(&out, v.str());
        break;
      case ValueKind::kBool:
        out.push_back('b');
        out.push_back(v.bool_value() ? 1 : 0);
        break;
      default:
        return Status::InvalidArgument(
            "opaque tuple fields must be scalars, got " +
            std::string(ValueKindName(v.kind())));
    }
  }
  return out;
}

namespace {

Status SkipOrReadOpaqueField(std::string_view* in, Value* out) {
  if (in->empty()) return Status::Corruption("truncated opaque tuple");
  char tag = (*in)[0];
  in->remove_prefix(1);
  switch (tag) {
    case 'i': {
      int64_t v = 0;
      MANIMAL_RETURN_IF_ERROR(GetVarintSigned(in, &v));
      if (out) *out = Value::I64(v);
      return Status::OK();
    }
    case 'd': {
      double v = 0;
      MANIMAL_RETURN_IF_ERROR(GetDouble(in, &v));
      if (out) *out = Value::F64(v);
      return Status::OK();
    }
    case 's': {
      std::string_view s;
      MANIMAL_RETURN_IF_ERROR(GetLengthPrefixed(in, &s));
      if (out) *out = Value::Str(std::string(s));
      return Status::OK();
    }
    case 'b': {
      if (in->empty()) return Status::Corruption("truncated opaque bool");
      if (out) *out = Value::Bool((*in)[0] != 0);
      in->remove_prefix(1);
      return Status::OK();
    }
    default:
      return Status::Corruption("bad opaque tuple tag");
  }
}

Status CheckOpaqueHeader(std::string_view* in, uint64_t* count) {
  if (in->size() < 2 || (*in)[0] != kMagic0 || (*in)[1] != kMagic1) {
    return Status::Corruption("bad opaque tuple magic");
  }
  in->remove_prefix(2);
  return GetVarint64(in, count);
}

}  // namespace

Result<Record> OpaqueTupleCodec::Unpack(std::string_view blob) {
  uint64_t count = 0;
  MANIMAL_RETURN_IF_ERROR(CheckOpaqueHeader(&blob, &count));
  Record out;
  out.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    Value v;
    MANIMAL_RETURN_IF_ERROR(SkipOrReadOpaqueField(&blob, &v));
    out.push_back(std::move(v));
  }
  return out;
}

Result<Value> OpaqueTupleCodec::GetField(std::string_view blob, int index) {
  uint64_t count = 0;
  MANIMAL_RETURN_IF_ERROR(CheckOpaqueHeader(&blob, &count));
  if (index < 0 || static_cast<uint64_t>(index) >= count) {
    return Status::OutOfRange(
        StrPrintf("opaque tuple index %d out of range (%llu fields)", index,
                  static_cast<unsigned long long>(count)));
  }
  for (int i = 0; i < index; ++i) {
    MANIMAL_RETURN_IF_ERROR(SkipOrReadOpaqueField(&blob, nullptr));
  }
  Value v;
  MANIMAL_RETURN_IF_ERROR(SkipOrReadOpaqueField(&blob, &v));
  return v;
}

Result<int> OpaqueTupleCodec::NumFields(std::string_view blob) {
  uint64_t count = 0;
  MANIMAL_RETURN_IF_ERROR(CheckOpaqueHeader(&blob, &count));
  return static_cast<int>(count);
}

}  // namespace manimal
