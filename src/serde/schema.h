// Record schemas. A schema is the "declared type" of the serialized
// (key, value) objects in a data file — the information the Manimal
// analyzer mines to enumerate fields for projection and to find numeric
// fields for delta-compression (paper §2.2: "The code that serializes
// and deserializes these classes effectively declares the file's
// schema").
//
// A schema may instead be *opaque*: a single uninterpreted byte blob.
// This models Pavlo Benchmark 1's custom AbstractTuple serialization,
// which carries "no direct program-specific clues" — the analyzer can
// see the blob but cannot distinguish fields inside it (Table 1's two
// Undetected cells).

#ifndef MANIMAL_SERDE_SCHEMA_H_
#define MANIMAL_SERDE_SCHEMA_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "serde/value.h"

namespace manimal {

enum class FieldType : uint8_t {
  kI64 = 0,
  kF64 = 1,
  kStr = 2,
  kBool = 3,
};

const char* FieldTypeName(FieldType t);
bool FieldTypeIsNumeric(FieldType t);
// The Value kind a field of type `t` holds.
ValueKind FieldValueKind(FieldType t);

struct Field {
  std::string name;
  FieldType type;

  bool operator==(const Field& other) const = default;
};

class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields) : fields_(std::move(fields)) {}

  // A schema whose contents are a single uninterpreted blob (custom
  // user serialization the analyzer cannot see into).
  static Schema Opaque() {
    Schema s;
    s.opaque_ = true;
    return s;
  }

  bool opaque() const { return opaque_; }
  int num_fields() const { return static_cast<int>(fields_.size()); }
  const std::vector<Field>& fields() const { return fields_; }
  const Field& field(int i) const { return fields_.at(i); }

  // Index of the named field, or nullopt.
  std::optional<int> FieldIndex(std::string_view name) const;

  // Indexes of numeric (i64/f64) fields — the delta-compression
  // candidates (paper Appendix C).
  std::vector<int> NumericFieldIndexes() const;

  bool operator==(const Schema& other) const {
    return opaque_ == other.opaque_ && fields_ == other.fields_;
  }

  // Compact single-line form, e.g. "url:str,rank:i64,content:str" or
  // "<opaque>"; Parse() inverts it.
  std::string ToString() const;
  static Result<Schema> Parse(std::string_view text);

  // Schema restricted to the given field indexes (used by projection).
  Schema Project(const std::vector<int>& keep) const;

 private:
  bool opaque_ = false;
  std::vector<Field> fields_;
};

// A record is a vector of Values matching a Schema positionally.
using Record = ValueList;

// Checks that `record` conforms to `schema` (arity and per-field kind).
Status ValidateRecord(const Schema& schema, const Record& record);

}  // namespace manimal

#endif  // MANIMAL_SERDE_SCHEMA_H_
