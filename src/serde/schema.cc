#include "serde/schema.h"

#include "common/strings.h"

namespace manimal {

const char* FieldTypeName(FieldType t) {
  switch (t) {
    case FieldType::kI64:
      return "i64";
    case FieldType::kF64:
      return "f64";
    case FieldType::kStr:
      return "str";
    case FieldType::kBool:
      return "bool";
  }
  return "?";
}

bool FieldTypeIsNumeric(FieldType t) {
  return t == FieldType::kI64 || t == FieldType::kF64;
}

ValueKind FieldValueKind(FieldType t) {
  switch (t) {
    case FieldType::kI64:
      return ValueKind::kI64;
    case FieldType::kF64:
      return ValueKind::kF64;
    case FieldType::kStr:
      return ValueKind::kStr;
    case FieldType::kBool:
      return ValueKind::kBool;
  }
  return ValueKind::kNull;
}

std::optional<int> Schema::FieldIndex(std::string_view name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return static_cast<int>(i);
  }
  return std::nullopt;
}

std::vector<int> Schema::NumericFieldIndexes() const {
  std::vector<int> out;
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (FieldTypeIsNumeric(fields_[i].type)) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

std::string Schema::ToString() const {
  if (opaque_) return "<opaque>";
  std::vector<std::string> parts;
  parts.reserve(fields_.size());
  for (const Field& f : fields_) {
    parts.push_back(f.name + ":" + FieldTypeName(f.type));
  }
  return JoinStrings(parts, ",");
}

Result<Schema> Schema::Parse(std::string_view text) {
  if (text == "<opaque>") return Schema::Opaque();
  std::vector<Field> fields;
  if (text.empty()) return Schema(std::move(fields));
  for (const std::string& part : SplitString(text, ',')) {
    auto pieces = SplitString(part, ':');
    if (pieces.size() != 2) {
      return Status::InvalidArgument("bad schema field: " + part);
    }
    Field f;
    f.name = pieces[0];
    if (pieces[1] == "i64") {
      f.type = FieldType::kI64;
    } else if (pieces[1] == "f64") {
      f.type = FieldType::kF64;
    } else if (pieces[1] == "str") {
      f.type = FieldType::kStr;
    } else if (pieces[1] == "bool") {
      f.type = FieldType::kBool;
    } else {
      return Status::InvalidArgument("bad field type: " + pieces[1]);
    }
    fields.push_back(std::move(f));
  }
  return Schema(std::move(fields));
}

Schema Schema::Project(const std::vector<int>& keep) const {
  std::vector<Field> fields;
  fields.reserve(keep.size());
  for (int i : keep) fields.push_back(fields_.at(i));
  return Schema(std::move(fields));
}

Status ValidateRecord(const Schema& schema, const Record& record) {
  if (schema.opaque()) {
    if (record.size() != 1 || !record[0].is_str()) {
      return Status::InvalidArgument(
          "opaque record must be a single str blob");
    }
    return Status::OK();
  }
  if (static_cast<int>(record.size()) != schema.num_fields()) {
    return Status::InvalidArgument(StrPrintf(
        "record arity %zu != schema arity %d", record.size(),
        schema.num_fields()));
  }
  for (int i = 0; i < schema.num_fields(); ++i) {
    const Value& v = record[i];
    bool ok = false;
    switch (schema.field(i).type) {
      case FieldType::kI64:
        ok = v.is_i64();
        break;
      case FieldType::kF64:
        ok = v.is_f64();
        break;
      case FieldType::kStr:
        ok = v.is_str();
        break;
      case FieldType::kBool:
        ok = v.is_bool();
        break;
    }
    if (!ok) {
      return Status::InvalidArgument(StrPrintf(
          "field %d (%s) has kind %s, expected %s", i,
          schema.field(i).name.c_str(), ValueKindName(v.kind()),
          FieldTypeName(schema.field(i).type)));
    }
  }
  return Status::OK();
}

}  // namespace manimal
