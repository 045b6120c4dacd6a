// Robustness fuzz tests: random byte/instruction soup must never
// crash the verifier, the analyzer, or the storage readers — they must
// reject cleanly with a Status (or, if the program verifies, execute
// without undefined behaviour).

#include <gtest/gtest.h>

#include <algorithm>

#include "analyzer/analyzer.h"
#include "columnar/seqfile.h"
#include "common/coding.h"
#include "common/random.h"
#include "index/btree.h"
#include "mril/assembler.h"
#include "mril/verifier.h"
#include "mril/vm.h"
#include "serde/key_codec.h"
#include "serde/record_codec.h"
#include "tests/test_util.h"

namespace manimal {
namespace {

using testing::TempDir;

// ---------------- verifier / analyzer on random instruction soup ----

mril::Program RandomInstructionProgram(uint64_t seed) {
  Rng rng(seed);
  mril::Program p;
  p.name = "fuzz";
  p.value_schema = Schema({{"a", FieldType::kStr},
                           {"b", FieldType::kI64}});
  p.constants = {Value::I64(1), Value::Str("x"), Value::Bool(true)};
  if (rng.OneIn(2)) {
    p.members.push_back(mril::MemberVar{"m", Value::I64(0)});
  }
  p.map_fn.name = "map";
  p.map_fn.num_params = 2;
  p.map_fn.num_locals = static_cast<int>(rng.Uniform(3));
  int len = 1 + static_cast<int>(rng.Uniform(30));
  for (int i = 0; i < len; ++i) {
    mril::Instruction inst;
    inst.op = static_cast<mril::Opcode>(rng.Uniform(mril::kNumOpcodes));
    // Mostly plausible operands, sometimes garbage.
    inst.operand = rng.OneIn(5)
                       ? static_cast<int32_t>(rng.UniformRange(-5, 50))
                       : static_cast<int32_t>(rng.Uniform(4));
    p.map_fn.code.push_back(inst);
  }
  p.map_fn.code.push_back({mril::Opcode::kReturn, 0});
  return p;
}

class VerifierFuzz : public ::testing::TestWithParam<int> {};

TEST_P(VerifierFuzz, NeverCrashesAndVerifiedProgramsRun) {
  for (int i = 0; i < 200; ++i) {
    uint64_t seed = static_cast<uint64_t>(GetParam()) * 1000 + i;
    mril::Program p = RandomInstructionProgram(seed);
    Status verdict = mril::VerifyProgram(p);
    if (!verdict.ok()) continue;  // cleanly rejected: fine

    // Verified programs must be analyzable and executable without
    // aborting; runtime type errors are allowed (they are Status
    // failures, not UB).
    auto report = analyzer::Analyze(p);
    EXPECT_TRUE(report.ok() || !report.status().message().empty());

    mril::VmOptions options;
    options.max_steps_per_invocation = 10000;
    mril::VmInstance vm(&p, options);
    vm.set_emit_sink(
        [](const Value&, const Value&) { return Status::OK(); });
    Value row = Value::List({Value::Str("s"), Value::I64(7)});
    (void)vm.InvokeMap(Value::I64(0), row);  // any Status is acceptable
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerifierFuzz, ::testing::Range(0, 5));

// ---------------- assembler on text soup ----------------

class AssemblerFuzz : public ::testing::TestWithParam<int> {};

TEST_P(AssemblerFuzz, GarbageTextRejectsCleanly) {
  Rng rng(GetParam() + 99);
  const char* fragments[] = {
      ".program x\n",  ".func map\n",  ".endfunc\n",
      "load_param 1\n", "emit\n",      "return\n",
      "label:\n",       "jmp label\n", ".value_schema a:i64\n",
      "load_const i64:3\n", "get_field 0\n", "garbage line\n",
      ".member m i64:0\n", "cmp_gt\n", "\x01\x02binary\n"};
  for (int i = 0; i < 300; ++i) {
    std::string text;
    int n = 1 + static_cast<int>(rng.Uniform(12));
    for (int j = 0; j < n; ++j) {
      text += fragments[rng.Uniform(std::size(fragments))];
    }
    auto result = mril::AssembleProgram(text);  // must not crash
    if (result.ok()) {
      EXPECT_OK(mril::VerifyProgram(*result));  // only verified output
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AssemblerFuzz, ::testing::Range(0, 3));

// ---------------- storage readers on corrupted bytes ----------------

class CorruptionFuzz : public ::testing::TestWithParam<int> {};

// Truncates and flips bytes of a small SeqFile in either layout.
void FuzzSeqFile(bool compressed, int seed) {
  TempDir dir("fuzz-seq");
  Schema schema({{"a", FieldType::kStr}, {"b", FieldType::kI64}});
  std::string path = dir.file("t.msq");
  {
    columnar::SeqFileWriter::Options options;
    options.target_block_bytes = 256;
    options.compressed = compressed;
    auto writer = std::move(columnar::SeqFileWriter::Create(
                                path, columnar::PlainMeta(schema), options))
                      .value();
    for (int i = 0; i < 200; ++i) {
      ASSERT_OK(writer->Append(
          {Value::Str("row" + std::to_string(i)), Value::I64(i)}));
    }
    ASSERT_OK(writer->Finish().status());
  }
  ASSERT_OK_AND_ASSIGN(std::string bytes, ReadFileToString(path));
  {
    ASSERT_OK_AND_ASSIGN(auto reader, columnar::SeqFileReader::Open(path));
    ASSERT_GE(reader->num_blocks(), 8u);
    ASSERT_EQ(reader->version(), compressed ? 2u : 1u);
  }
  // The footer: block offsets, cumulative counts (v2: skip frames) and
  // the 28-byte tail, whose third field is the footer's offset.
  const size_t footer = DecodeFixed64(&bytes[bytes.size() - 12]);
  Rng rng(seed + 7);

  for (int trial = 0; trial < 40; ++trial) {
    std::string mutated = bytes;
    if (rng.OneIn(2)) {
      // Truncate somewhere.
      mutated.resize(rng.Uniform(mutated.size()));
    } else {
      // Flip a few bytes, half of them in the footer.
      for (int k = 0; k < 4; ++k) {
        size_t pos = rng.OneIn(2)
                         ? footer + rng.Uniform(mutated.size() - footer)
                         : rng.Uniform(mutated.size());
        mutated[pos] = static_cast<char>(rng.Uniform(256));
      }
    }
    std::string mpath = dir.file("m.msq");
    ASSERT_OK(WriteStringToFile(mpath, mutated));
    auto reader = columnar::SeqFileReader::Open(mpath);
    if (!reader.ok()) continue;  // rejected at open: fine
    // Every suffix of the blocks: an error is fine, but a scan that
    // ends OK returned exactly the records the footer promises.
    const uint64_t blocks = (*reader)->num_blocks();
    for (uint64_t begin = 0; begin <= blocks; ++begin) {
      auto stream = (*reader)->Scan(begin, blocks);
      if (!stream.ok()) continue;
      uint64_t promised = 0;
      for (uint64_t b = begin; b < blocks; ++b) {
        promised += (*reader)->BlockRecordCount(b);
      }
      uint64_t got = 0;
      Record record;
      for (;;) {
        auto more = stream->Next(&record);
        if (!more.ok()) break;
        if (!*more) {
          EXPECT_EQ(got, promised) << "trial " << trial << " from block "
                                   << begin;
          break;
        }
        ++got;
      }
    }
  }
}

// Both layouts: raw v1 blocks, and compressed v2 blocks (mlz frames
// plus skip frames), so flips and truncations land inside compressed
// payloads too.
TEST_P(CorruptionFuzz, TruncatedAndFlippedSeqFilesRejectCleanly) {
  for (const bool compressed : {false, true}) {
    SCOPED_TRACE(compressed ? "v2" : "v1");
    FuzzSeqFile(compressed, GetParam());
    if (HasFatalFailure()) return;
  }
}

TEST_P(CorruptionFuzz, TruncatedAndFlippedBTreesRejectCleanly) {
  TempDir dir("fuzz-btree");
  std::string path = dir.file("t.idx");
  {
    auto builder =
        std::move(index::BTreeBuilder::Create(path)).value();
    std::string key;
    for (int i = 0; i < 500; ++i) {
      key = "key" + std::to_string(1000 + i);
      ASSERT_OK(builder->Add(key, "payload"));
    }
    ASSERT_OK(builder->Finish().status());
  }
  ASSERT_OK_AND_ASSIGN(std::string bytes, ReadFileToString(path));
  Rng rng(GetParam() + 31);

  for (int trial = 0; trial < 40; ++trial) {
    std::string mutated = bytes;
    if (rng.OneIn(2)) {
      mutated.resize(rng.Uniform(mutated.size()));
    } else {
      for (int k = 0; k < 4; ++k) {
        size_t pos = rng.Uniform(mutated.size());
        mutated[pos] = static_cast<char>(rng.Uniform(256));
      }
    }
    std::string mpath = dir.file("m.idx");
    ASSERT_OK(WriteStringToFile(mpath, mutated));
    auto reader = index::BTreeReader::Open(mpath);
    if (!reader.ok()) continue;
    auto it = (*reader)->SeekToFirst();
    if (!it.ok()) continue;
    int steps = 0;
    while (it->Valid() && steps++ < 2000) {
      if (!it->Next().ok()) break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptionFuzz, ::testing::Range(0, 3));

// ---------------- value decoder on byte soup ----------------

TEST(DecoderFuzz, RandomBytesNeverCrashDecodeValue) {
  Rng rng(123);
  for (int i = 0; i < 2000; ++i) {
    std::string bytes;
    int n = static_cast<int>(rng.Uniform(40));
    for (int j = 0; j < n; ++j) {
      bytes.push_back(static_cast<char>(rng.Uniform(256)));
    }
    std::string_view in = bytes;
    Value v;
    (void)DecodeValue(&in, &v);  // Status either way; no crash
    Value k;
    (void)DecodeOrderedKey(bytes, &k);
  }
}

// ---------------- regression corpus mutation fuzz ----------------
//
// tests/corpus/ holds known-good assembler programs; random byte
// mutations of them must either be rejected with a clean Status or
// assemble into a verified program that executes without UB. The
// corpus path is baked in by CMake so the tests run from any cwd.

#ifndef MANIMAL_TEST_CORPUS_DIR
#define MANIMAL_TEST_CORPUS_DIR "tests/corpus"
#endif

std::vector<std::string> CorpusFiles() {
  std::vector<std::string> paths;
  auto names = ListDir(MANIMAL_TEST_CORPUS_DIR);
  if (!names.ok()) return paths;
  for (const std::string& name : *names) {
    if (name.size() > 5 &&
        name.compare(name.size() - 5, 5, ".mril") == 0) {
      paths.push_back(std::string(MANIMAL_TEST_CORPUS_DIR) + "/" + name);
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

void RunProgramOnSampleRow(const mril::Program& p) {
  mril::VmOptions options;
  options.max_steps_per_invocation = 100000;
  mril::VmInstance vm(&p, options);
  vm.set_emit_sink(
      [](const Value&, const Value&) { return Status::OK(); });
  Value row = Value::List(
      {Value::Str("http://www.page42.com/"), Value::I64(77),
       Value::Str("lorem 42 ipsum")});
  (void)vm.InvokeMap(Value::I64(0), row);  // any Status; no crash
}

TEST(CorpusFuzz, CorpusProgramsAssembleVerifyAndRun) {
  std::vector<std::string> files = CorpusFiles();
  ASSERT_GE(files.size(), 4u)
      << "corpus missing at " << MANIMAL_TEST_CORPUS_DIR;
  for (const std::string& path : files) {
    SCOPED_TRACE(path);
    ASSERT_OK_AND_ASSIGN(std::string text, ReadFileToString(path));
    ASSERT_OK_AND_ASSIGN(mril::Program program,
                         mril::AssembleProgram(text));
    EXPECT_OK(mril::VerifyProgram(program));
    RunProgramOnSampleRow(program);
  }
}

class CorpusMutationFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CorpusMutationFuzz, MutatedCorpusRejectsCleanlyOrRuns) {
  std::vector<std::string> files = CorpusFiles();
  ASSERT_FALSE(files.empty());
  Rng rng(GetParam() * 7919 + 17);
  for (const std::string& path : files) {
    SCOPED_TRACE(path);
    ASSERT_OK_AND_ASSIGN(std::string original, ReadFileToString(path));
    for (int trial = 0; trial < 120; ++trial) {
      std::string mutated = original;
      switch (rng.Uniform(3)) {
        case 0:  // flip a few bytes
          for (int k = 0; k < 1 + static_cast<int>(rng.Uniform(4));
               ++k) {
            mutated[rng.Uniform(mutated.size())] =
                static_cast<char>(rng.Uniform(256));
          }
          break;
        case 1:  // truncate
          mutated.resize(rng.Uniform(mutated.size()));
          break;
        default: {  // splice a random slice over a random position
          size_t src = rng.Uniform(mutated.size());
          size_t len = rng.Uniform(32);
          size_t dst = rng.Uniform(mutated.size());
          mutated.insert(dst, mutated.substr(src, len));
          break;
        }
      }
      auto result = mril::AssembleProgram(mutated);  // must not crash
      if (!result.ok()) continue;  // clean rejection
      EXPECT_OK(mril::VerifyProgram(*result));
      RunProgramOnSampleRow(*result);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorpusMutationFuzz,
                         ::testing::Range(0, 4));

}  // namespace
}  // namespace manimal
