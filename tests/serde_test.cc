// Unit and property tests for src/serde: values, schemas, the row
// codec, the opaque-tuple (AbstractTuple) codec, and the ordered key
// codec whose byte order must equal value order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/random.h"
#include "serde/key_codec.h"
#include "serde/record_codec.h"
#include "serde/schema.h"
#include "serde/value.h"
#include "tests/test_util.h"

namespace manimal {
namespace {

// ---------------- Value ----------------

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Bool(true).bool_value(), true);
  EXPECT_EQ(Value::I64(-5).i64(), -5);
  EXPECT_DOUBLE_EQ(Value::F64(2.5).f64(), 2.5);
  EXPECT_EQ(Value::Str("abc").str(), "abc");
  Value list = Value::List({Value::I64(1), Value::Str("x")});
  EXPECT_EQ(list.list().size(), 2u);
}

TEST(ValueTest, CompareSameKind) {
  EXPECT_LT(Value::I64(1).Compare(Value::I64(2)), 0);
  EXPECT_EQ(Value::I64(2).Compare(Value::I64(2)), 0);
  EXPECT_GT(Value::Str("b").Compare(Value::Str("a")), 0);
  EXPECT_LT(Value::Bool(false).Compare(Value::Bool(true)), 0);
}

TEST(ValueTest, MixedNumericComparesByValue) {
  EXPECT_EQ(Value::I64(2).Compare(Value::F64(2.0)), 0);
  EXPECT_LT(Value::I64(2).Compare(Value::F64(2.5)), 0);
  EXPECT_GT(Value::F64(3.0).Compare(Value::I64(2)), 0);
}

TEST(ValueTest, CrossKindOrderIsStable) {
  // null < bool < numeric < str < list
  Value values[] = {Value::Null(), Value::Bool(true), Value::I64(5),
                    Value::Str("a"), Value::List({})};
  for (size_t i = 0; i + 1 < std::size(values); ++i) {
    EXPECT_LT(values[i].Compare(values[i + 1]), 0) << i;
  }
}

TEST(ValueTest, HashConsistentWithEquality) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    int64_t v = rng.UniformRange(-100, 100);
    EXPECT_EQ(Value::I64(v).Hash(), Value::I64(v).Hash());
    // Numeric twins that compare equal must hash equal.
    EXPECT_EQ(Value::I64(v).Hash(),
              Value::F64(static_cast<double>(v)).Hash());
  }
  EXPECT_EQ(Value::Str("abc").Hash(), Value::Str("abc").Hash());
  EXPECT_NE(Value::Str("abc").Hash(), Value::Str("abd").Hash());
}

TEST(ValueTest, F64HashIsDefinedOutsideTheI64Range) {
  // Hash() picks a map output key's partition. A double with no i64
  // twin hashes by its bits, and the cast that looks for the twin must
  // not run on it (-fsanitize=float-cast-overflow reports it if it
  // does).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double two63 = 0x1p63;
  for (double d : {nan, inf, -inf, 1e300, -1e300, two63, -two63, -0.0}) {
    SCOPED_TRACE(d);
    EXPECT_EQ(Value::F64(d).Hash(), Value::F64(d).Hash());
  }
  // Integral doubles in range still hash like their i64 twin.
  EXPECT_EQ(Value::F64(3.0).Hash(), Value::I64(3).Hash());
  EXPECT_EQ(Value::F64(-0.0).Hash(), Value::I64(0).Hash());
  EXPECT_EQ(Value::F64(-two63).Hash(),
            Value::I64(std::numeric_limits<int64_t>::min()).Hash());
  // 2^63 has none.
  EXPECT_NE(Value::F64(two63).Hash(),
            Value::I64(std::numeric_limits<int64_t>::min()).Hash());
  EXPECT_NE(Value::F64(two63).Hash(),
            Value::I64(std::numeric_limits<int64_t>::max()).Hash());
  EXPECT_NE(Value::F64(inf).Hash(), Value::F64(-inf).Hash());
}

TEST(ValueTest, ListCompareLexicographic) {
  Value a = Value::List({Value::I64(1), Value::I64(2)});
  Value b = Value::List({Value::I64(1), Value::I64(3)});
  Value c = Value::List({Value::I64(1)});
  EXPECT_LT(a.Compare(b), 0);
  EXPECT_LT(c.Compare(a), 0);
}

// ---------------- Schema ----------------

TEST(SchemaTest, ParseToStringRoundtrip) {
  const char* cases[] = {"url:str,rank:i64,content:str", "<opaque>",
                         "a:i64", "x:f64,y:bool"};
  for (const char* text : cases) {
    ASSERT_OK_AND_ASSIGN(Schema schema, Schema::Parse(text));
    EXPECT_EQ(schema.ToString(), text);
  }
}

TEST(SchemaTest, ParseErrors) {
  EXPECT_FALSE(Schema::Parse("a:int32").ok());
  EXPECT_FALSE(Schema::Parse("nocolon").ok());
  EXPECT_FALSE(Schema::Parse("a:b:c").ok());
}

TEST(SchemaTest, FieldLookupAndNumerics) {
  ASSERT_OK_AND_ASSIGN(Schema s,
                       Schema::Parse("a:str,b:i64,c:f64,d:bool"));
  EXPECT_EQ(s.FieldIndex("c"), 2);
  EXPECT_EQ(s.FieldIndex("zz"), std::nullopt);
  EXPECT_EQ(s.NumericFieldIndexes(), (std::vector<int>{1, 2}));
}

TEST(SchemaTest, Project) {
  ASSERT_OK_AND_ASSIGN(Schema s, Schema::Parse("a:str,b:i64,c:f64"));
  Schema p = s.Project({2, 0});
  EXPECT_EQ(p.ToString(), "c:f64,a:str");
}

TEST(SchemaTest, ValidateRecord) {
  ASSERT_OK_AND_ASSIGN(Schema s, Schema::Parse("a:str,b:i64"));
  EXPECT_OK(ValidateRecord(s, {Value::Str("x"), Value::I64(1)}));
  EXPECT_FALSE(ValidateRecord(s, {Value::Str("x")}).ok());  // arity
  EXPECT_FALSE(
      ValidateRecord(s, {Value::I64(1), Value::I64(1)}).ok());  // kind
  Schema opaque = Schema::Opaque();
  EXPECT_OK(ValidateRecord(opaque, {Value::Str("blob")}));
  EXPECT_FALSE(ValidateRecord(opaque, {Value::I64(1)}).ok());
}

// ---------------- record codec ----------------

TEST(RecordCodecTest, RoundtripAllTypes) {
  ASSERT_OK_AND_ASSIGN(Schema s,
                       Schema::Parse("a:str,b:i64,c:f64,d:bool"));
  Record record = {Value::Str("hello"), Value::I64(-42),
                   Value::F64(1.5), Value::Bool(true)};
  std::string buf;
  ASSERT_OK(EncodeRecord(s, record, &buf));
  std::string_view in = buf;
  Record out;
  ASSERT_OK(DecodeRecord(s, &in, &out));
  EXPECT_TRUE(in.empty());
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].str(), "hello");
  EXPECT_EQ(out[1].i64(), -42);
  EXPECT_DOUBLE_EQ(out[2].f64(), 1.5);
  EXPECT_EQ(out[3].bool_value(), true);
}

TEST(RecordCodecTest, MultipleRecordsConcatenate) {
  ASSERT_OK_AND_ASSIGN(Schema s, Schema::Parse("a:i64"));
  std::string buf;
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(EncodeRecord(s, {Value::I64(i)}, &buf));
  }
  std::string_view in = buf;
  for (int i = 0; i < 10; ++i) {
    Record out;
    ASSERT_OK(DecodeRecord(s, &in, &out));
    EXPECT_EQ(out[0].i64(), i);
  }
  EXPECT_TRUE(in.empty());
}

TEST(RecordCodecTest, ValueRoundtripIncludingLists) {
  Value cases[] = {
      Value::Null(),
      Value::Bool(false),
      Value::I64(INT64_MIN),
      Value::F64(-0.0),
      Value::Str(std::string("a\0b", 3)),
      Value::List({Value::I64(1), Value::Str("x"),
                   Value::List({Value::Bool(true)})}),
  };
  for (const Value& v : cases) {
    std::string buf;
    ASSERT_OK(EncodeValue(v, &buf));
    std::string_view in = buf;
    Value out;
    ASSERT_OK(DecodeValue(&in, &out));
    EXPECT_TRUE(in.empty());
    EXPECT_EQ(out.kind(), v.kind());
    EXPECT_EQ(out.Compare(v), 0) << v.ToString();
  }
}

TEST(RecordCodecTest, HandlesAreNotSerializable) {
  std::string buf;
  Value handle = Value::Handle(nullptr);
  EXPECT_TRUE(EncodeValue(handle, &buf).IsNotSupported());
}

TEST(OpaqueTupleTest, PackUnpackRoundtrip) {
  Record tuple = {Value::Str("http://x"), Value::I64(99),
                  Value::F64(2.5), Value::Bool(false)};
  ASSERT_OK_AND_ASSIGN(std::string blob, OpaqueTupleCodec::Pack(tuple));
  ASSERT_OK_AND_ASSIGN(Record back, OpaqueTupleCodec::Unpack(blob));
  ASSERT_EQ(back.size(), 4u);
  EXPECT_EQ(back[0].str(), "http://x");
  EXPECT_EQ(back[1].i64(), 99);
  ASSERT_OK_AND_ASSIGN(int n, OpaqueTupleCodec::NumFields(blob));
  EXPECT_EQ(n, 4);
}

TEST(OpaqueTupleTest, RandomFieldAccess) {
  Record tuple = {Value::Str("a"), Value::I64(1), Value::Str("c")};
  ASSERT_OK_AND_ASSIGN(std::string blob, OpaqueTupleCodec::Pack(tuple));
  ASSERT_OK_AND_ASSIGN(Value f2, OpaqueTupleCodec::GetField(blob, 2));
  EXPECT_EQ(f2.str(), "c");
  EXPECT_FALSE(OpaqueTupleCodec::GetField(blob, 3).ok());
  EXPECT_FALSE(OpaqueTupleCodec::GetField(blob, -1).ok());
}

TEST(OpaqueTupleTest, RejectsGarbage) {
  EXPECT_FALSE(OpaqueTupleCodec::Unpack("no-magic").ok());
  EXPECT_FALSE(OpaqueTupleCodec::NumFields("").ok());
  EXPECT_FALSE(OpaqueTupleCodec::Pack({Value::List({})}).ok());
}

// ---------------- ordered key codec ----------------

// The fundamental property: memcmp order of encodings equals
// Value::Compare order.
class OrderedKeyPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(OrderedKeyPropertyTest, ByteOrderMatchesValueOrder) {
  Rng rng(GetParam());
  std::vector<Value> values;
  for (int i = 0; i < 150; ++i) {
    switch (rng.Uniform(3)) {
      case 0:
        values.push_back(
            Value::I64(rng.UniformRange(-1000000, 1000000)));
        break;
      case 1:
        values.push_back(Value::F64(
            (rng.NextDouble() - 0.5) * 2e6));
        break;
      default:
        values.push_back(
            Value::Str(rng.AsciiString(1 + rng.Uniform(12))));
        break;
    }
  }
  for (size_t i = 0; i < values.size(); ++i) {
    for (size_t j = 0; j < values.size(); ++j) {
      // Same-kind comparisons must agree exactly (i64/f64 mixes are
      // only guaranteed within one field type, which is how the
      // system uses keys).
      if (values[i].kind() != values[j].kind()) continue;
      std::string a, b;
      ASSERT_OK(EncodeOrderedKey(values[i], &a));
      ASSERT_OK(EncodeOrderedKey(values[j], &b));
      int value_cmp = values[i].Compare(values[j]);
      int byte_cmp = a.compare(b);
      EXPECT_EQ(value_cmp < 0, byte_cmp < 0)
          << values[i].ToString() << " vs " << values[j].ToString();
      EXPECT_EQ(value_cmp == 0, byte_cmp == 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderedKeyPropertyTest,
                         ::testing::Values(11, 12, 13));

TEST(OrderedKeyTest, Roundtrip) {
  Value cases[] = {Value::Null(),        Value::Bool(true),
                   Value::I64(-7),       Value::I64(INT64_MAX),
                   Value::F64(-1.25),    Value::F64(0.0),
                   Value::Str("hello"),  Value::Str("")};
  for (const Value& v : cases) {
    std::string buf;
    ASSERT_OK(EncodeOrderedKey(v, &buf));
    Value out;
    ASSERT_OK(DecodeOrderedKey(buf, &out));
    EXPECT_EQ(out.Compare(v), 0) << v.ToString();
    EXPECT_EQ(out.kind(), v.kind()) << v.ToString();
  }
}

TEST(OrderedKeyTest, StrKeyBorrowsItsInput) {
  const std::string text(40, 'k');  // longer than an inline string
  std::string buf;
  ASSERT_OK(EncodeOrderedKey(Value::Str(text), &buf));
  Value out;
  ASSERT_OK(DecodeOrderedKey(buf, &out));
  ASSERT_TRUE(out.is_borrowed_str());
  EXPECT_EQ(out.str().data(), buf.data() + 1);  // after the rank byte
  const Value owned = out.ToOwned();
  buf.assign(buf.size(), 'x');
  EXPECT_EQ(owned.str(), text);
}

TEST(OrderedKeyTest, RejectsNonScalars) {
  std::string buf;
  EXPECT_TRUE(
      EncodeOrderedKey(Value::List({}), &buf).IsNotSupported());
}

}  // namespace
}  // namespace manimal
