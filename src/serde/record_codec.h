// Binary row codec: encodes a Record against its Schema.
//
// Encoding per field: i64 -> zigzag varint, f64 -> fixed 8 bytes,
// str -> varint length + bytes, bool -> 1 byte. Opaque schemas encode
// the blob verbatim (varint length + bytes) — the on-disk bytes reveal
// nothing about internal structure, exactly like Benchmark 1's
// AbstractTuple.
//
// OpaqueTupleCodec packs a heterogeneous tuple *inside* such a blob
// using its own private format; user code reads it back at runtime via
// the `opaque.get_*` MRIL builtins, which the analyzer treats as
// functional black boxes.

#ifndef MANIMAL_SERDE_RECORD_CODEC_H_
#define MANIMAL_SERDE_RECORD_CODEC_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "serde/schema.h"

namespace manimal {

// Appends the encoded record to *dst.
Status EncodeRecord(const Schema& schema, const Record& record,
                    std::string* dst);

// Consumes one record from the front of *input.
//
// With `borrow_strings`, decoded str fields are Value::Borrowed views
// into *input's backing buffer instead of copies: zero-copy, but the
// caller must guarantee the buffer outlives every use of the record
// (the seq-file scan path hands such records to exactly one VM
// invocation per record — see docs/mril.md "VM internals").
Status DecodeRecord(const Schema& schema, std::string_view* input,
                    Record* record, bool borrow_strings = false);

// Encodes/decodes a single standalone Value (used for shuffle pairs,
// whose key/value types are not schema-bound). Lists of scalars are
// supported; handles are not serializable. `borrow_strings` works as
// in DecodeRecord: str values (inside lists too) become views into
// *input's backing buffer.
Status EncodeValue(const Value& value, std::string* dst);
Status DecodeValue(std::string_view* input, Value* value,
                   bool borrow_strings = false);

// The AbstractTuple model: a custom, self-describing-but-unannotated
// serialization of a tuple into a blob string.
class OpaqueTupleCodec {
 public:
  // Only scalar values (bool/i64/f64/str) may appear in the tuple.
  static Result<std::string> Pack(const Record& tuple);
  static Result<Record> Unpack(std::string_view blob);

  // Random access used by the opaque.get_* builtins.
  static Result<Value> GetField(std::string_view blob, int index);
  static Result<int> NumFields(std::string_view blob);
};

}  // namespace manimal

#endif  // MANIMAL_SERDE_RECORD_CODEC_H_
