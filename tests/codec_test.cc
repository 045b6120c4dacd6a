// Tests for the block codec (columnar/codec/): mlz frame round-trips
// over adversarial and fuzzed column data, corrupt-frame handling (a
// frame that names another codec must be a Corruption, never silent
// garbage), SeqFile v2 round-trips with skip-frame verification, the
// v2 layout's pinned bytes, direct evaluation end to end, and the
// catalog's codec columns.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "analyzer/analyzer.h"
#include "analyzer/index_gen.h"
#include "columnar/codec/codec.h"
#include "columnar/dictionary.h"
#include "columnar/seqfile.h"
#include "common/coding.h"
#include "common/random.h"
#include "common/strings.h"
#include "core/manimal.h"
#include "exec/pairfile.h"
#include "index/catalog.h"
#include "mril/builder.h"
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

// ---------------- block frames ----------------

std::string RoundTrip(const std::string& in) {
  std::string framed;
  CompressBlock(in, &framed);
  std::string out;
  EXPECT_OK(DecompressBlock(framed, &out));
  return out;
}

TEST(CodecTest, EveryCodecRoundTripsAdversarialPayloads) {
  Rng rng(11);
  std::string random_bytes, text, runs, zeros(4096, '\0');
  for (int i = 0; i < 5000; ++i) {
    random_bytes.push_back(static_cast<char>(rng.Uniform(256)));
  }
  for (int i = 0; i < 200; ++i) {
    text += "field=" + std::to_string(i % 17) + "&rank=" +
            std::to_string(i) + ";";
  }
  for (int i = 0; i < 40; ++i) {
    runs.append(1 + rng.Uniform(400), static_cast<char>(rng.Uniform(4)));
  }
  const std::string payloads[] = {"", "x", "ab", zeros, random_bytes,
                                  text, runs};
  for (const std::string& payload : payloads) {
    SCOPED_TRACE("payload size " + std::to_string(payload.size()));
    EXPECT_EQ(RoundTrip(payload), payload);
  }
}

TEST(CodecTest, MlzActuallyCompressesRepetitiveData) {
  std::string in;
  for (int i = 0; i < 500; ++i) in += "the quick brown fox 42 ";
  std::string framed;
  CompressBlock(in, &framed);
  EXPECT_LT(framed.size(), in.size() / 4);
}

TEST(CodecTest, FuzzRandomChainsOverRandomColumnData) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    // Column-shaped data: blocks of varint-ish small ints, repeated
    // strings, and occasional incompressible noise.
    std::string payload;
    const uint32_t rows = rng.Uniform(600);  // 0 = empty block
    for (uint32_t r = 0; r < rows; ++r) {
      switch (rng.Uniform(3)) {
        case 0:
          payload += static_cast<char>(rng.Uniform(7));  // near-constant
          break;
        case 1:
          payload += "host-" + std::to_string(rng.Uniform(9));
          break;
        default:
          for (int k = 0; k < 8; ++k) {
            payload.push_back(static_cast<char>(rng.Uniform(256)));
          }
      }
    }
    SCOPED_TRACE("seed " + std::to_string(seed) + " rows " +
                 std::to_string(rows));
    EXPECT_EQ(RoundTrip(payload), payload);
  }
}

// ---------------- corruption ----------------

TEST(CodecTest, DecompressRejectsCorruptFrames) {
  std::string out;
  // Truncated / empty frames.
  EXPECT_FALSE(DecompressBlock("", &out).ok());
  EXPECT_FALSE(DecompressBlock(std::string("\x01", 1), &out).ok());
  EXPECT_FALSE(DecompressBlock(std::string("\x01\x03", 2), &out).ok());
  // A tag byte naming any codec but mlz.
  std::string framed;
  CompressBlock("hello", &framed);
  ASSERT_EQ(framed.substr(0, 2), std::string("\x01\x03", 2));
  for (size_t tag = 0; tag < 2; ++tag) {
    std::string other = framed;
    other[tag] = '\x7F';
    Status st = DecompressBlock(other, &out);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kCorruption);
    EXPECT_NE(st.message().find("unknown codec"), std::string::npos);
  }
  // Recorded raw size disagrees with the decoded payload.
  framed[2] = '\x04';  // raw_size varint: claim 4, payload is 5
  EXPECT_FALSE(DecompressBlock(framed, &out).ok());
  // Random garbage must fail cleanly, never crash: bare, and behind a
  // valid tag so the mlz decoder sees it.
  Rng rng(5);
  for (int trial = 0; trial < 500; ++trial) {
    std::string garbage;
    if (trial % 2 == 1) garbage = framed.substr(0, 2);
    const uint32_t n = rng.Uniform(64);
    for (uint32_t i = 0; i < n; ++i) {
      garbage.push_back(static_cast<char>(rng.Uniform(256)));
    }
    (void)DecompressBlock(garbage, &out);
  }
}

// ---------------- seqfile v2 ----------------

void WriteNumFile(const std::string& path, int rows,
                  SeqFileWriter::Options options) {
  ASSERT_OK_AND_ASSIGN(
      auto writer,
      SeqFileWriter::Create(path, PlainMeta(NumSchema()), options));
  for (int i = 0; i < rows; ++i) {
    ASSERT_OK(writer->Append(
        Row("row" + std::to_string(i % 5), i, (i * 37) % 200)));
  }
  ASSERT_OK(writer->Finish().status());
}

TEST(SeqFileV2Test, ChainedFileRoundTripsAndReportsBytesDecoded) {
  TempDir dir("v2");
  const std::string plain = dir.file("plain.msq");
  const std::string packed = dir.file("packed.msq");
  SeqFileWriter::Options raw_opts;
  WriteNumFile(plain, 400, raw_opts);
  SeqFileWriter::Options packed_opts;
  packed_opts.compressed = true;
  WriteNumFile(packed, 400, packed_opts);

  ASSERT_OK_AND_ASSIGN(auto plain_reader, SeqFileReader::Open(plain));
  ASSERT_OK_AND_ASSIGN(auto packed_reader, SeqFileReader::Open(packed));
  EXPECT_EQ(plain_reader->version(), 1u);
  EXPECT_EQ(packed_reader->version(), 2u);
  EXPECT_EQ(packed_reader->meta().codec_chain, "mlz");
  EXPECT_TRUE(packed_reader->has_skip_frames());
  // The compressible integer columns must actually shrink on disk.
  EXPECT_LT(packed_reader->file_size(), plain_reader->file_size());

  ASSERT_OK_AND_ASSIGN(auto a, plain_reader->ScanAll());
  ASSERT_OK_AND_ASSIGN(auto b, packed_reader->ScanAll());
  int64_t ka = 0, kb = 0;
  Record ra, rb;
  for (int i = 0; i < 400; ++i) {
    ASSERT_OK_AND_ASSIGN(bool more_a, a.Next(&ka, &ra));
    ASSERT_OK_AND_ASSIGN(bool more_b, b.Next(&kb, &rb));
    ASSERT_TRUE(more_a);
    ASSERT_TRUE(more_b);
    EXPECT_EQ(ka, kb);
    ASSERT_EQ(ra.size(), rb.size());
    for (size_t f = 0; f < ra.size(); ++f) {
      EXPECT_EQ(ra[f].ToString(), rb[f].ToString());
    }
  }
  // bytes_decoded counts raw body bytes materialized, which for a
  // compressed file exceeds the bytes read off disk.
  EXPECT_EQ(b.bytes_decoded(), a.bytes_decoded());
  EXPECT_GT(b.bytes_decoded(), b.bytes_read());
  EXPECT_EQ(b.blocks_skipped(), 0u);
}

TEST(SeqFileV2Test, SkipFramesMatchBruteForceBounds) {
  TempDir dir("frames");
  const std::string path = dir.file("t.msq");
  SeqFileWriter::Options options;
  options.compressed = true;
  options.target_block_bytes = 512;  // force many blocks
  Rng rng(7);
  std::vector<std::pair<int64_t, int64_t>> rows;
  {
    ASSERT_OK_AND_ASSIGN(auto writer, SeqFileWriter::Create(
                                          path, PlainMeta(NumSchema()),
                                          options));
    for (int i = 0; i < 1000; ++i) {
      int64_t a = static_cast<int64_t>(rng.Uniform(100000)) - 50000;
      int64_t b = static_cast<int64_t>(rng.Uniform(1000));
      rows.emplace_back(a, b);
      ASSERT_OK(writer->Append(Row("x", a, b)));
    }
    ASSERT_OK(writer->Finish().status());
  }
  ASSERT_OK_AND_ASSIGN(auto reader, SeqFileReader::Open(path));
  ASSERT_TRUE(reader->has_skip_frames());
  ASSERT_GT(reader->num_blocks(), 4u);
  // Slots 1 and 2 are the i64 columns ("a", "b"); slot 0 is a string
  // and must have no frame.
  int64_t lo = 0, hi = 0;
  EXPECT_FALSE(reader->BlockSlotBounds(0, 0, &lo, &hi));
  uint64_t row = 0;
  for (uint64_t block = 0; block < reader->num_blocks(); ++block) {
    const uint64_t count = reader->BlockRecordCount(block);
    ASSERT_GT(count, 0u);
    int64_t want_min_a = rows[row].first, want_max_a = rows[row].first;
    int64_t want_min_b = rows[row].second, want_max_b = rows[row].second;
    for (uint64_t r = row; r < row + count; ++r) {
      want_min_a = std::min(want_min_a, rows[r].first);
      want_max_a = std::max(want_max_a, rows[r].first);
      want_min_b = std::min(want_min_b, rows[r].second);
      want_max_b = std::max(want_max_b, rows[r].second);
    }
    ASSERT_TRUE(reader->BlockSlotBounds(block, 1, &lo, &hi));
    EXPECT_EQ(lo, want_min_a);
    EXPECT_EQ(hi, want_max_a);
    ASSERT_TRUE(reader->BlockSlotBounds(block, 2, &lo, &hi));
    EXPECT_EQ(lo, want_min_b);
    EXPECT_EQ(hi, want_max_b);
    row += count;
  }
  EXPECT_EQ(row, rows.size());
}

TEST(SeqFileV2Test, ScanHonorsSkipFilterAndCountsSkips) {
  TempDir dir("skipscan");
  const std::string path = dir.file("t.msq");
  SeqFileWriter::Options options;
  options.compressed = true;
  options.records_per_block = 100;
  WriteNumFile(path, 400, options);
  ASSERT_OK_AND_ASSIGN(auto reader, SeqFileReader::Open(path));
  ASSERT_EQ(reader->num_blocks(), 4u);
  // Skip blocks 1 and 2: the scan must yield exactly blocks 0 and 3.
  auto skip = std::make_shared<std::vector<bool>>(
      std::vector<bool>{false, true, true, false});
  ASSERT_OK_AND_ASSIGN(auto stream, reader->ScanAll());
  stream.set_skip_blocks(skip);
  int64_t key = 0;
  Record record;
  std::vector<int64_t> keys;
  while (true) {
    ASSERT_OK_AND_ASSIGN(bool more, stream.Next(&key, &record));
    if (!more) break;
    keys.push_back(key);
  }
  ASSERT_EQ(keys.size(), 200u);
  EXPECT_EQ(keys.front(), 0);
  EXPECT_EQ(keys[99], 99);
  EXPECT_EQ(keys[100], 300);
  EXPECT_EQ(keys.back(), 399);
  EXPECT_EQ(stream.blocks_skipped(), 2u);
  EXPECT_EQ(stream.records_skipped(), 200u);
}

// A block whose frame names a codec other than mlz must surface as
// Corruption from the reader, not as silently-garbled records.
TEST(SeqFileV2Test, UnregisteredMethodByteIsCorruption) {
  TempDir dir("badmethod");
  const std::string path = dir.file("t.msq");
  SeqFileWriter::Options options;
  options.compressed = true;
  WriteNumFile(path, 50, options);

  // Patch the first block's method byte on disk. Layout: footer tail's
  // third fixed64 is the footer offset; the footer opens with the
  // per-block offsets; a block is fixed32 body_len, then the frame's
  // tag bytes [0x01][0x03].
  ASSERT_OK_AND_ASSIGN(std::string data, ReadFileToString(path));
  ASSERT_GT(data.size(), 28u);
  const uint64_t footer_offset =
      DecodeFixed64(data.data() + data.size() - 4 - 8);
  const uint64_t block_offset = DecodeFixed64(data.data() + footer_offset);
  const size_t method_pos = block_offset + 4 + 1;
  ASSERT_LT(method_pos, data.size());
  ASSERT_EQ(static_cast<uint8_t>(data[method_pos - 1]), 0x01u);
  ASSERT_EQ(static_cast<uint8_t>(data[method_pos]), 0x03u);
  data[method_pos] = '\x7F';
  ASSERT_OK(WriteStringToFile(path, data));

  ASSERT_OK_AND_ASSIGN(auto reader, SeqFileReader::Open(path));
  ASSERT_OK_AND_ASSIGN(auto stream, reader->ScanAll());
  int64_t key = 0;
  Record record;
  auto more = stream.Next(&key, &record);
  ASSERT_FALSE(more.ok());
  EXPECT_EQ(more.status().code(), StatusCode::kCorruption);
  EXPECT_NE(more.status().message().find("unknown codec"),
            std::string::npos)
      << more.status().ToString();
}

TEST(SeqFileV2Test, EmptyFileAndSingleRecordRoundTrip) {
  TempDir dir("tiny");
  for (int rows : {0, 1}) {
    const std::string path =
        dir.file("t" + std::to_string(rows) + ".msq");
    SeqFileWriter::Options options;
    options.compressed = true;
    WriteNumFile(path, rows, options);
    ASSERT_OK_AND_ASSIGN(auto reader, SeqFileReader::Open(path));
    EXPECT_EQ(reader->num_records(), static_cast<uint64_t>(rows));
    ASSERT_OK_AND_ASSIGN(auto stream, reader->ScanAll());
    int64_t key = 0;
    Record record;
    int seen = 0;
    while (true) {
      ASSERT_OK_AND_ASSIGN(bool more, stream.Next(&key, &record));
      if (!more) break;
      ++seen;
    }
    EXPECT_EQ(seen, rows);
  }
}

// Pins the v2 layout: header, mlz frames, skip frames and footer. Files
// already on disk must keep reading, so any drift in the bytes the
// writer produces fails here. No dictionary slot: its sidecar path
// would land in the header.
TEST(SeqFileV2Test, LayoutIsByteStable) {
  TempDir dir("layout");
  const std::string path = dir.file("t.msq");
  SeqFileMeta meta = PlainMeta(NumSchema());
  meta.delta_slots = {2};
  SeqFileWriter::Options options;
  options.compressed = true;
  options.records_per_block = 40;
  {
    ASSERT_OK_AND_ASSIGN(auto writer,
                         SeqFileWriter::Create(path, meta, options));
    for (int64_t i = 0; i < 150; ++i) {
      ASSERT_OK(writer->Append(Row("host-" + std::to_string(i % 7),
                                   i * 7919 - 500000,
                                   1000000 + i * 3 + i % 4)));
    }
    ASSERT_OK(writer->Finish().status());
  }
  ASSERT_OK_AND_ASSIGN(auto reader, SeqFileReader::Open(path));
  EXPECT_EQ(reader->num_blocks(), 4u);
  EXPECT_TRUE(reader->has_skip_frames());
  ASSERT_OK_AND_ASSIGN(std::string data, ReadFileToString(path));
  EXPECT_EQ(data.size(), 1525u);
  EXPECT_EQ(Fnv1a(data), 0xf2ebf2a035d9212cull);
}

// ---------------- direct evaluation end to end ----------------

// A selective scan over a re-encoded artifact whose blocks partition
// the predicate column must skip most blocks when direct evaluation
// is on, produce identical output either way, and show the savings in
// the engine counters (the EXPLAIN ANALYZE / bench surface).
TEST(DirectEvalTest, SelectiveScanSkipsBlocksAndCutsBytesDecoded) {
  TempDir dir("direct");
  const std::string input = dir.file("in.msq");
  {
    ASSERT_OK_AND_ASSIGN(
        auto writer, SeqFileWriter::Create(input, PlainMeta(NumSchema())));
    for (int i = 0; i < 8000; ++i) {
      // "a" ascending: artifact blocks partition its range, so frames
      // refute every block past the predicate's upper bound.
      ASSERT_OK(writer->Append(Row("row" + std::to_string(i % 7), i,
                                   (i * 13) % 97)));
    }
    ASSERT_OK(writer->Finish().status());
  }

  mril::ProgramBuilder b("selective-direct");
  b.SetKeyType(FieldType::kI64);
  b.SetValueSchema(NumSchema());
  mril::FunctionBuilder& m = b.Map();
  m.LoadParam(1).GetField("a").LoadI64(100).CmpLt();
  m.JmpIfFalse("end");
  m.LoadParam(1).GetField("a");
  m.LoadParam(1).GetField("b");
  m.Emit();
  m.Label("end").Ret();
  const mril::Program program = b.Build();

  // A non-B+Tree re-encoded artifact, so the chosen plan is a seqscan
  // over v2 blocks with the selection still in the map.
  ASSERT_OK_AND_ASSIGN(auto report, analyzer::Analyze(program));
  auto specs = analyzer::SynthesizeIndexPrograms(program, report);
  const analyzer::IndexGenProgram* reencoded = nullptr;
  for (const auto& s : specs) {
    if (!s.btree && !s.column_groups) reencoded = &s;
  }
  ASSERT_NE(reencoded, nullptr);

  uint64_t decoded[2] = {0, 0};
  std::vector<std::string> outputs[2];
  for (int direct = 0; direct <= 1; ++direct) {
    setenv("MANIMAL_DIRECT_EVAL", direct ? "1" : "0", 1);
    core::ManimalSystem::Options options;
    options.workspace_dir = dir.file("ws" + std::to_string(direct));
    options.simulated_startup_seconds = 0;
    options.map_parallelism = 1;
    options.num_partitions = 1;
    ASSERT_OK_AND_ASSIGN(auto system, core::ManimalSystem::Open(options));
    ASSERT_OK(system->BuildIndex(*reencoded, input).status());
    core::ManimalSystem::Submission job;
    job.program = program;
    job.input_path = input;
    job.output_path = dir.file("out" + std::to_string(direct) + ".prs");
    ASSERT_OK_AND_ASSIGN(auto outcome, system->Submit(job));
    decoded[direct] = outcome.job.counters.bytes_decoded;
    ASSERT_OK_AND_ASSIGN(outputs[direct],
                         exec::ReadCanonicalPairs(job.output_path));
    if (direct == 1) {
      EXPECT_GT(outcome.job.counters.blocks_skipped, 0u);
    } else {
      EXPECT_EQ(outcome.job.counters.blocks_skipped, 0u);
    }
  }
  unsetenv("MANIMAL_DIRECT_EVAL");

  EXPECT_EQ(outputs[0], outputs[1]);
  ASSERT_EQ(outputs[1].size(), 100u);
  // The acceptance bar: direct evaluation at this selectivity must at
  // least halve the bytes decoded.
  EXPECT_GT(decoded[0], 0u);
  EXPECT_LE(decoded[1] * 2, decoded[0])
      << "decoded " << decoded[1] << " with skipping vs " << decoded[0];
}

// ---------------- catalog codec columns ----------------

TEST(CatalogCodecTest, TenColumnRoundTripAndOldManifestsStillLoad) {
  TempDir dir("cat");
  const std::string path = dir.file("catalog.tsv");
  {
    ASSERT_OK_AND_ASSIGN(auto catalog, index::Catalog::Open(path));
    index::CatalogEntry e;
    e.input_file = "in.msq";
    e.signature = "sig";
    e.artifact_path = "a.msq";
    e.artifact_bytes = 100;
    e.input_bytes = 400;
    e.stats_path = "s.stats";
    e.codec_chain = "mlz";
    e.raw_bytes = 350;
    ASSERT_OK(catalog.Register(e));
  }
  ASSERT_OK_AND_ASSIGN(auto reloaded, index::Catalog::Open(path));
  ASSERT_EQ(reloaded.entries().size(), 1u);
  EXPECT_EQ(reloaded.entries()[0].codec_chain, "mlz");
  EXPECT_EQ(reloaded.entries()[0].raw_bytes, 350u);

  // A pre-codec 8-column manifest loads with empty codec fields.
  const std::string old = dir.file("old.tsv");
  ASSERT_OK(WriteStringToFile(
      old, "in.msq\tsig\ta.msq\t\t\t100\t400\ts.stats\n"));
  ASSERT_OK_AND_ASSIGN(auto old_catalog, index::Catalog::Open(old));
  ASSERT_EQ(old_catalog.entries().size(), 1u);
  EXPECT_EQ(old_catalog.entries()[0].codec_chain, "");
  EXPECT_EQ(old_catalog.entries()[0].raw_bytes, 0u);
}

}  // namespace
}  // namespace manimal::columnar
