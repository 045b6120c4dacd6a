// Tests for the storage formats: SeqFile (plain / projected / delta /
// dictionary, key slots, block accessor) and the string dictionary.

#include <gtest/gtest.h>

#include <functional>

#include "columnar/dictionary.h"
#include "columnar/seqfile.h"
#include "common/coding.h"
#include "common/random.h"
#include "tests/test_util.h"

namespace manimal::columnar {
namespace {

using testing::TempDir;

Schema NumSchema() {
  return Schema({{"name", FieldType::kStr},
                 {"a", FieldType::kI64},
                 {"b", FieldType::kI64}});
}

Record Row(const std::string& name, int64_t a, int64_t b) {
  return {Value::Str(name), Value::I64(a), Value::I64(b)};
}

// Overwrites the fixed-width integer at bytes[at].
void SetFixed32(std::string* bytes, size_t at, uint32_t v) {
  std::string enc;
  PutFixed32(&enc, v);
  bytes->replace(at, enc.size(), enc);
}
void SetFixed64(std::string* bytes, size_t at, uint64_t v) {
  std::string enc;
  PutFixed64(&enc, v);
  bytes->replace(at, enc.size(), enc);
}

// Opens `path` and scans blocks [begin, end of file) to the end.
// Returns the first error, and in *at_open whether Open returned it.
Status OpenAndScan(const std::string& path, uint64_t begin,
                   bool* at_open) {
  *at_open = true;
  MANIMAL_ASSIGN_OR_RETURN(auto reader, SeqFileReader::Open(path));
  *at_open = false;
  MANIMAL_ASSIGN_OR_RETURN(auto stream,
                           reader->Scan(begin, reader->num_blocks()));
  Record record;
  for (;;) {
    MANIMAL_ASSIGN_OR_RETURN(bool more, stream.Next(&record));
    if (!more) return Status::OK();
  }
}

// ---------------- dictionary ----------------

TEST(DictionaryTest, BuildSaveLoadRoundtrip) {
  TempDir dir("dict");
  DictionaryBuilder builder;
  EXPECT_EQ(builder.EncodeOrAdd("alpha"), 0);
  EXPECT_EQ(builder.EncodeOrAdd("beta"), 1);
  EXPECT_EQ(builder.EncodeOrAdd("alpha"), 0);  // stable
  EXPECT_EQ(builder.size(), 2);
  ASSERT_OK(builder.Save(dir.file("d.dict")));

  ASSERT_OK_AND_ASSIGN(Dictionary dict,
                       Dictionary::Load(dir.file("d.dict")));
  EXPECT_EQ(dict.Encode("beta"), 1);
  EXPECT_EQ(dict.Encode("missing"), std::nullopt);
  ASSERT_OK_AND_ASSIGN(std::string s, dict.Decode(0));
  EXPECT_EQ(s, "alpha");
  EXPECT_FALSE(dict.Decode(7).ok());
  EXPECT_FALSE(dict.Decode(-1).ok());
}

TEST(DictionaryTest, CodesPreserveEquality) {
  // The direct-operation invariant: equal strings <-> equal codes.
  DictionaryBuilder builder;
  Rng rng(3);
  std::vector<std::string> strings;
  for (int i = 0; i < 500; ++i) {
    strings.push_back("s" + std::to_string(rng.Uniform(50)));
  }
  std::vector<int64_t> codes;
  for (const auto& s : strings) codes.push_back(builder.EncodeOrAdd(s));
  for (size_t i = 0; i < strings.size(); ++i) {
    for (size_t j = 0; j < strings.size(); j += 37) {
      EXPECT_EQ(strings[i] == strings[j], codes[i] == codes[j]);
    }
  }
}

TEST(DictionaryTest, LoadRejectsGarbage) {
  TempDir dir("dict2");
  ASSERT_OK(WriteStringToFile(dir.file("bad"), "nope"));
  EXPECT_FALSE(Dictionary::Load(dir.file("bad")).ok());
}

// ---------------- seqfile: plain ----------------

TEST(SeqFileTest, PlainRoundtripAndOrdinalKeys) {
  TempDir dir("seq");
  std::string path = dir.file("t.msq");
  {
    ASSERT_OK_AND_ASSIGN(auto writer,
                         SeqFileWriter::Create(path, PlainMeta(NumSchema())));
    for (int i = 0; i < 100; ++i) {
      ASSERT_OK(writer->Append(Row("r" + std::to_string(i), i, i * 2)));
    }
    ASSERT_OK(writer->Finish().status());
  }
  ASSERT_OK_AND_ASSIGN(auto reader, SeqFileReader::Open(path));
  EXPECT_EQ(reader->num_records(), 100u);
  EXPECT_TRUE(reader->meta().IsPlain());
  ASSERT_OK_AND_ASSIGN(auto stream, reader->ScanAll());
  int64_t key = 0;
  Record record;
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK_AND_ASSIGN(bool more, stream.Next(&key, &record));
    ASSERT_TRUE(more);
    EXPECT_EQ(key, i);  // synthesized ordinal keys
    EXPECT_EQ(record[1].i64(), i);
  }
  ASSERT_OK_AND_ASSIGN(bool more, stream.Next(&key, &record));
  EXPECT_FALSE(more);
}

TEST(SeqFileTest, BlockRangeScansPartitionTheFile) {
  TempDir dir("seq2");
  std::string path = dir.file("t.msq");
  const int n = 5000;
  {
    SeqFileWriter::Options opts;
    opts.target_block_bytes = 512;  // many blocks
    ASSERT_OK_AND_ASSIGN(
        auto writer,
        SeqFileWriter::Create(path, PlainMeta(NumSchema()), opts));
    for (int i = 0; i < n; ++i) ASSERT_OK(writer->Append(Row("x", i, i)));
    ASSERT_OK(writer->Finish().status());
  }
  ASSERT_OK_AND_ASSIGN(auto reader, SeqFileReader::Open(path));
  ASSERT_GT(reader->num_blocks(), 4u);
  // Scanning disjoint halves yields every record exactly once with
  // correct global ordinals.
  uint64_t mid = reader->num_blocks() / 2;
  std::vector<int64_t> keys;
  for (auto [b, e] : {std::pair<uint64_t, uint64_t>{0, mid},
                      std::pair<uint64_t, uint64_t>{mid,
                                                    reader->num_blocks()}}) {
    ASSERT_OK_AND_ASSIGN(auto stream, reader->Scan(b, e));
    int64_t key;
    Record record;
    for (;;) {
      ASSERT_OK_AND_ASSIGN(bool more, stream.Next(&key, &record));
      if (!more) break;
      keys.push_back(key);
    }
  }
  ASSERT_EQ(keys.size(), static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) EXPECT_EQ(keys[i], i);
}

TEST(SeqFileTest, KeySlotPersistsArbitraryKeys) {
  TempDir dir("seq3");
  std::string path = dir.file("t.msq");
  SeqFileMeta meta = PlainMeta(NumSchema());
  meta.has_key_slot = true;
  {
    ASSERT_OK_AND_ASSIGN(auto writer, SeqFileWriter::Create(path, meta));
    ASSERT_OK(writer->Append(1000, Row("a", 1, 2)));
    ASSERT_OK(writer->Append(-7, Row("b", 3, 4)));
    ASSERT_OK(writer->Finish().status());
  }
  ASSERT_OK_AND_ASSIGN(auto reader, SeqFileReader::Open(path));
  EXPECT_TRUE(reader->meta().has_key_slot);
  ASSERT_OK_AND_ASSIGN(auto stream, reader->ScanAll());
  int64_t key;
  Record record;
  ASSERT_OK_AND_ASSIGN(bool more, stream.Next(&key, &record));
  ASSERT_TRUE(more);
  EXPECT_EQ(key, 1000);
  ASSERT_OK_AND_ASSIGN(more, stream.Next(&key, &record));
  EXPECT_EQ(key, -7);
}

TEST(SeqFileTest, EmptyFileRoundtrips) {
  TempDir dir("seq4");
  std::string path = dir.file("t.msq");
  {
    ASSERT_OK_AND_ASSIGN(auto writer,
                         SeqFileWriter::Create(path, PlainMeta(NumSchema())));
    ASSERT_OK(writer->Finish().status());
  }
  ASSERT_OK_AND_ASSIGN(auto reader, SeqFileReader::Open(path));
  EXPECT_EQ(reader->num_records(), 0u);
  EXPECT_EQ(reader->num_blocks(), 0u);
  ASSERT_OK_AND_ASSIGN(auto stream, reader->ScanAll());
  Record record;
  ASSERT_OK_AND_ASSIGN(bool more, stream.Next(&record));
  EXPECT_FALSE(more);
}

TEST(SeqFileTest, OpaqueSchemaRoundtrips) {
  TempDir dir("seq5");
  std::string path = dir.file("t.msq");
  {
    ASSERT_OK_AND_ASSIGN(
        auto writer,
        SeqFileWriter::Create(path, PlainMeta(Schema::Opaque())));
    ASSERT_OK(writer->Append({Value::Str("blob-one")}));
    ASSERT_OK(writer->Append({Value::Str("blob-two")}));
    ASSERT_OK(writer->Finish().status());
  }
  ASSERT_OK_AND_ASSIGN(auto reader, SeqFileReader::Open(path));
  EXPECT_TRUE(reader->meta().stored_schema.opaque());
  ASSERT_OK_AND_ASSIGN(auto stream, reader->ScanAll());
  Record record;
  ASSERT_OK_AND_ASSIGN(bool more, stream.Next(&record));
  ASSERT_TRUE(more);
  EXPECT_EQ(record[0].str(), "blob-one");
}

// ---------------- seqfile: delta ----------------

TEST(SeqFileTest, DeltaRoundtripAcrossBlocks) {
  TempDir dir("seq6");
  std::string path = dir.file("t.msq");
  SeqFileMeta meta = PlainMeta(NumSchema());
  meta.delta_slots = {1, 2};
  Rng rng(9);
  std::vector<Record> rows;
  int64_t a = 5'000'000;
  for (int i = 0; i < 2000; ++i) {
    a += rng.UniformRange(-3, 10);
    rows.push_back(Row("n" + std::to_string(i), a,
                       rng.UniformRange(-100, 100)));
  }
  {
    SeqFileWriter::Options opts;
    opts.target_block_bytes = 1024;  // force per-block delta resets
    ASSERT_OK_AND_ASSIGN(auto writer,
                         SeqFileWriter::Create(path, meta, opts));
    for (const Record& r : rows) ASSERT_OK(writer->Append(r));
    ASSERT_OK(writer->Finish().status());
  }
  ASSERT_OK_AND_ASSIGN(auto reader, SeqFileReader::Open(path));
  ASSERT_OK_AND_ASSIGN(auto stream, reader->ScanAll());
  Record record;
  for (const Record& expected : rows) {
    ASSERT_OK_AND_ASSIGN(bool more, stream.Next(&record));
    ASSERT_TRUE(more);
    EXPECT_EQ(record[1].i64(), expected[1].i64());
    EXPECT_EQ(record[2].i64(), expected[2].i64());
  }
}

TEST(SeqFileTest, DeltaCompressesRuns) {
  TempDir dir("seq7");
  Schema schema({{"v", FieldType::kI64}});
  auto write_file = [&](const std::string& name, bool delta) {
    SeqFileMeta meta = PlainMeta(schema);
    if (delta) meta.delta_slots = {0};
    auto writer =
        std::move(SeqFileWriter::Create(dir.file(name), meta)).value();
    for (int i = 0; i < 20000; ++i) {
      EXPECT_OK(writer->Append({Value::I64(1'000'000'000 + i)}));
    }
    return std::move(writer->Finish()).value();
  };
  uint64_t plain = write_file("plain.msq", false);
  uint64_t delta = write_file("delta.msq", true);
  // Fixed 8-byte i64s vs ~1-byte deltas.
  EXPECT_LT(delta, plain / 3);
}

TEST(SeqFileTest, DeltaSlotsMustBeI64) {
  TempDir dir("seq8");
  SeqFileMeta meta = PlainMeta(NumSchema());
  meta.delta_slots = {0};  // a str field
  EXPECT_FALSE(SeqFileWriter::Create(dir.file("t.msq"), meta).ok());
}

// ---------------- seqfile: dictionary ----------------

TEST(SeqFileTest, DictSlotsStoreCodesAndSurfaceThem) {
  TempDir dir("seq9");
  std::string path = dir.file("t.msq");
  SeqFileMeta meta = PlainMeta(NumSchema());
  meta.dict_slots = {0};
  meta.dict_path = dir.file("t.dict");
  DictionaryBuilder dict_builder;
  {
    ASSERT_OK_AND_ASSIGN(auto writer, SeqFileWriter::Create(path, meta));
    writer->set_dict_builder(&dict_builder);
    ASSERT_OK(writer->Append(Row("apple", 1, 2)));
    ASSERT_OK(writer->Append(Row("banana", 3, 4)));
    ASSERT_OK(writer->Append(Row("apple", 5, 6)));
    ASSERT_OK(writer->Finish().status());
    ASSERT_OK(dict_builder.Save(meta.dict_path));
  }
  ASSERT_OK_AND_ASSIGN(auto reader, SeqFileReader::Open(path));
  EXPECT_EQ(reader->meta().dict_path, meta.dict_path);
  ASSERT_OK_AND_ASSIGN(auto stream, reader->ScanAll());
  Record r1, r2, r3;
  ASSERT_OK(stream.Next(&r1).status());
  ASSERT_OK(stream.Next(&r2).status());
  ASSERT_OK(stream.Next(&r3).status());
  // Direct operation: field 0 surfaces as an i64 code.
  EXPECT_TRUE(r1[0].is_i64());
  EXPECT_EQ(r1[0].i64(), r3[0].i64());  // equal strings, equal codes
  EXPECT_NE(r1[0].i64(), r2[0].i64());
  // The sidecar decodes back to the true strings.
  ASSERT_OK_AND_ASSIGN(Dictionary dict,
                       Dictionary::Load(meta.dict_path));
  ASSERT_OK_AND_ASSIGN(std::string s, dict.Decode(r1[0].i64()));
  EXPECT_EQ(s, "apple");
}

TEST(SeqFileTest, DictWriterRequiresBuilder) {
  TempDir dir("seq10");
  SeqFileMeta meta = PlainMeta(NumSchema());
  meta.dict_slots = {0};
  ASSERT_OK_AND_ASSIGN(auto writer,
                       SeqFileWriter::Create(dir.file("t.msq"), meta));
  EXPECT_FALSE(writer->Append(Row("x", 1, 2)).ok());
}

// ---------------- block accessor ----------------

TEST(SeqFileTest, BlockAccessorResolvesLocators) {
  TempDir dir("seq11");
  std::string path = dir.file("t.msq");
  const int n = 1000;
  std::vector<std::pair<uint64_t, uint32_t>> locators;
  {
    SeqFileWriter::Options opts;
    opts.target_block_bytes = 512;
    ASSERT_OK_AND_ASSIGN(
        auto writer,
        SeqFileWriter::Create(path, PlainMeta(NumSchema()), opts));
    for (int i = 0; i < n; ++i) {
      ASSERT_OK(writer->Append(Row("r", i, 0)));
      locators.emplace_back(writer->last_block(),
                            writer->last_index_in_block());
    }
    ASSERT_OK(writer->Finish().status());
  }
  ASSERT_OK_AND_ASSIGN(auto reader, SeqFileReader::Open(path));
  ASSERT_OK_AND_ASSIGN(auto accessor, reader->OpenBlockAccessor());
  // Spot-check every 37th record through its recorded locator.
  for (int i = 0; i < n; i += 37) {
    auto [block, idx] = locators[i];
    ASSERT_OK(accessor.Load(block));
    ASSERT_LT(idx, accessor.num_records());
    EXPECT_EQ(accessor.record(idx)[1].i64(), i);
    EXPECT_EQ(accessor.key(idx), i);  // ordinal key
  }
  EXPECT_FALSE(accessor.Load(reader->num_blocks()).ok());
}

// A block body whose record count disagrees with the footer's is
// Corruption, not a block with a record fewer.
TEST(SeqFileTest, BlockCountDisagreeingWithFooterIsCorruption) {
  TempDir dir("seq-count");
  const std::string path = dir.file("t.msq");
  {
    SeqFileWriter::Options opts;
    opts.target_block_bytes = 512;
    ASSERT_OK_AND_ASSIGN(
        auto writer,
        SeqFileWriter::Create(path, PlainMeta(NumSchema()), opts));
    for (int i = 0; i < 100; ++i) ASSERT_OK(writer->Append(Row("r", i, 0)));
    ASSERT_OK(writer->Finish().status());
  }
  // Block 0 starts right after the header, which is what an empty
  // file of the same meta holds before its 28-byte footer; its body
  // opens with a fixed32 length and the varint record count.
  {
    ASSERT_OK_AND_ASSIGN(
        auto empty,
        SeqFileWriter::Create(dir.file("empty.msq"), PlainMeta(NumSchema())));
    ASSERT_OK(empty->Finish().status());
  }
  ASSERT_OK_AND_ASSIGN(uint64_t empty_size,
                       GetFileSize(dir.file("empty.msq")));
  const size_t count_at = empty_size - 28 + 4;
  ASSERT_OK_AND_ASSIGN(std::string bytes, ReadFileToString(path));
  {
    ASSERT_OK_AND_ASSIGN(auto reader, SeqFileReader::Open(path));
    ASSERT_GT(reader->num_blocks(), 1u);
    ASSERT_EQ(static_cast<uint8_t>(bytes[count_at]),
              reader->BlockRecordCount(0));
  }
  --bytes[count_at];
  ASSERT_OK(WriteStringToFile(path, bytes));
  ASSERT_OK_AND_ASSIGN(auto reader, SeqFileReader::Open(path));
  ASSERT_OK_AND_ASSIGN(auto accessor, reader->OpenBlockAccessor());
  Status loaded = accessor.Load(0);
  EXPECT_TRUE(loaded.IsCorruption()) << loaded.ToString();
  EXPECT_OK(accessor.Load(1));

  // Job scans decode through the same checks.
  bool at_open = false;
  Status scanned = OpenAndScan(path, 0, &at_open);
  EXPECT_TRUE(scanned.IsCorruption()) << scanned.ToString();
  EXPECT_FALSE(at_open);
  // A scan that starts past the bad block reads blocks 1 onward whole,
  // keyed by their global ordinals.
  ASSERT_OK_AND_ASSIGN(auto stream, reader->Scan(1, reader->num_blocks()));
  int64_t want = static_cast<int64_t>(reader->BlockRecordCount(0));
  int64_t key = 0;
  Record record;
  for (;;) {
    ASSERT_OK_AND_ASSIGN(bool more, stream.Next(&key, &record));
    if (!more) break;
    EXPECT_EQ(key, want);
    EXPECT_EQ(record[1].i64(), want);
    ++want;
  }
  EXPECT_EQ(want, 100);

  // A block body with one byte after its last record: a one-block
  // file with its body's length prefix and the footer offset bumped.
  const std::string one = dir.file("one.msq");
  {
    ASSERT_OK_AND_ASSIGN(auto writer,
                         SeqFileWriter::Create(one, PlainMeta(NumSchema())));
    for (int i = 0; i < 3; ++i) ASSERT_OK(writer->Append(Row("r", i, 0)));
    ASSERT_OK(writer->Finish().status());
  }
  ASSERT_OK_AND_ASSIGN(std::string one_bytes, ReadFileToString(one));
  const size_t tail = one_bytes.size() - 28;
  const uint64_t footer = DecodeFixed64(&one_bytes[tail + 16]);
  const uint64_t block = DecodeFixed64(&one_bytes[footer]);
  SetFixed32(&one_bytes, block, DecodeFixed32(&one_bytes[block]) + 1);
  SetFixed64(&one_bytes, tail + 16, footer + 1);
  one_bytes.insert(footer, 1, '\0');
  ASSERT_OK(WriteStringToFile(one, one_bytes));
  ASSERT_OK_AND_ASSIGN(auto one_reader, SeqFileReader::Open(one));
  ASSERT_EQ(one_reader->num_blocks(), 1u);
  ASSERT_OK_AND_ASSIGN(auto one_accessor, one_reader->OpenBlockAccessor());
  loaded = one_accessor.Load(0);
  EXPECT_TRUE(loaded.IsCorruption()) << loaded.ToString();
  scanned = OpenAndScan(one, 0, &at_open);
  EXPECT_TRUE(scanned.IsCorruption()) << scanned.ToString();
}

// A footer the file cannot back: Open rejects what the footer alone
// shows, and a total the blocks do not hold fails the scan.
TEST(SeqFileTest, InconsistentFooterIsCorruption) {
  TempDir dir("seq-footer");
  const std::string path = dir.file("t.msq");
  {
    SeqFileWriter::Options opts;
    opts.target_block_bytes = 512;
    ASSERT_OK_AND_ASSIGN(
        auto writer,
        SeqFileWriter::Create(path, PlainMeta(NumSchema()), opts));
    for (int i = 0; i < 100; ++i) ASSERT_OK(writer->Append(Row("r", i, 0)));
    ASSERT_OK(writer->Finish().status());
  }
  ASSERT_OK_AND_ASSIGN(const std::string bytes, ReadFileToString(path));
  // Tail: fixed64 block count, total, footer offset; fixed32 magic.
  const size_t tail = bytes.size() - 28;
  const uint64_t nblocks = DecodeFixed64(&bytes[tail]);
  const uint64_t offsets = DecodeFixed64(&bytes[tail + 16]);
  const uint64_t cums = offsets + 8 * nblocks;
  ASSERT_GT(nblocks, 2u);
  auto add = [](size_t at, uint64_t delta) {
    return [=](std::string* b) {
      SetFixed64(b, at, DecodeFixed64(&(*b)[at]) + delta);
    };
  };
  auto swap = [](size_t x, size_t y) {
    return [=](std::string* b) {
      std::swap_ranges(b->begin() + x, b->begin() + x + 8, b->begin() + y);
    };
  };
  struct Case {
    const char* name;
    std::function<void(std::string*)> alter;
    uint64_t scan_from;
    bool at_open;
  };
  const Case cases[] = {
      {"block count wraps the footer size", add(tail, 1ull << 60), 0, true},
      {"block offsets 1 and 2 swapped", swap(offsets + 8, offsets + 16), 1,
       true},
      {"cumulative counts 1 and 2 swapped", swap(cums + 8, cums + 16), 0,
       true},
      {"total larger than the blocks hold", add(tail + 8, 1), 0, false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::string altered = bytes;
    c.alter(&altered);
    ASSERT_OK(WriteStringToFile(path, altered));
    bool at_open = false;
    Status status = OpenAndScan(path, c.scan_from, &at_open);
    EXPECT_TRUE(status.IsCorruption()) << status.ToString();
    EXPECT_EQ(at_open, c.at_open);
  }
}

TEST(SeqFileTest, CorruptFileRejected) {
  TempDir dir("seq12");
  ASSERT_OK(WriteStringToFile(dir.file("bad"), "not a seqfile"));
  EXPECT_FALSE(SeqFileReader::Open(dir.file("bad")).ok());
}

TEST(SeqFileTest, WriterValidatesRecordShape) {
  TempDir dir("seq13");
  ASSERT_OK_AND_ASSIGN(
      auto writer,
      SeqFileWriter::Create(dir.file("t.msq"), PlainMeta(NumSchema())));
  EXPECT_FALSE(writer->Append({Value::I64(1)}).ok());  // arity
  EXPECT_FALSE(
      writer->Append({Value::I64(1), Value::I64(2), Value::I64(3)}).ok());
}

}  // namespace
}  // namespace manimal::columnar
