// Journal tests: the JSON-lines run journal's schema invariants
// (every line parses, versioned, monotonically sequenced) and a
// golden-file test pinning the exact byte output of a deterministic
// single-threaded run — the journal is a machine-readable contract,
// so accidental field renames/reorders must fail loudly.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/manimal.h"
#include "obs/journal.h"
#include "obs/json.h"
#include "tests/test_util.h"
#include "workloads/datagen.h"
#include "workloads/pavlo.h"

namespace manimal::obs {
namespace {

using testing::TempDir;

// Replaces every occurrence of `from` with `to`.
std::string ReplaceAll(std::string s, const std::string& from,
                       const std::string& to) {
  for (size_t pos = 0; (pos = s.find(from, pos)) != std::string::npos;
       pos += to.size()) {
    s.replace(pos, from.size(), to);
  }
  return s;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    if (end > start) lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

// Runs the full Manimal pipeline once (seqscan, 1 mapper, 1
// partition) with the journal recording deterministically, and
// returns the journal text with the workspace root and auto-assigned
// job id normalized.
std::string RunDeterministicJob(const TempDir& dir) {
  Journal::Get().ResetForTest();
  Journal::Get().SetOutputPathForTest(dir.file("journal.jsonl"));
  Journal::Get().SetDeterministicForTest(true);

  workloads::WebPagesOptions gen;
  gen.num_pages = 400;
  gen.content_len = 32;
  gen.rank_range = 100;
  EXPECT_TRUE(
      workloads::GenerateWebPages(dir.file("pages.msq"), gen).ok());

  core::ManimalSystem::Options options;
  options.workspace_dir = dir.file("ws");
  options.simulated_startup_seconds = 0;
  options.map_parallelism = 1;
  options.num_partitions = 1;
  auto system_or = core::ManimalSystem::Open(options);
  EXPECT_TRUE(system_or.ok()) << system_or.status().ToString();
  core::ManimalSystem::Submission job;
  job.program = workloads::SelectionCountQuery(50);
  job.input_path = dir.file("pages.msq");
  job.output_path = dir.file("out.prs");
  auto outcome_or = (*system_or)->Submit(job);
  EXPECT_TRUE(outcome_or.ok()) << outcome_or.status().ToString();

  Journal::Get().SetDeterministicForTest(false);
  Journal::Get().ResetForTest();

  auto text_or = ReadFileToString(dir.file("journal.jsonl"));
  EXPECT_TRUE(text_or.ok()) << text_or.status().ToString();
  std::string text = ReplaceAll(*text_or, dir.path(), "<ws>");
  return ReplaceAll(text, "\"" + outcome_or->job.job_id + "\"",
                    "\"job-0\"");
}

TEST(JournalTest, DisabledByDefaultAndCostsNothing) {
  Journal::Get().ResetForTest();
  ASSERT_FALSE(Journal::Get().enabled());
  const uint64_t before = Journal::Get().events_written();
  Journal::Get()
      .Event("test_event")
      .Str("key", "value")
      .Int("n", 7)
      .Emit();
  EXPECT_EQ(Journal::Get().events_written(), before);
}

TEST(JournalTest, EveryLineIsVersionedSequencedJson) {
  TempDir dir("journal1");
  const std::string text = RunDeterministicJob(dir);
  const std::vector<std::string> lines = SplitLines(text);
  ASSERT_FALSE(lines.empty());

  uint64_t prev_seq = 0;
  bool saw_job_start = false, saw_job_finish = false,
       saw_plan = false, saw_commit = false;
  for (const std::string& line : lines) {
    JsonValue value;
    std::string error;
    ASSERT_TRUE(JsonParse(line, &value, &error))
        << error << " in: " << line;
    ASSERT_TRUE(value.is_object());
    EXPECT_EQ(value.NumberOr("v", -1), kJournalSchemaVersion);
    const double seq = value.NumberOr("seq", -1);
    EXPECT_GT(seq, static_cast<double>(prev_seq));
    prev_seq = static_cast<uint64_t>(seq);
    EXPECT_NE(value.Find("ts_us"), nullptr);
    const std::string event = value.StringOr("event", "");
    EXPECT_FALSE(event.empty());
    saw_job_start |= event == "job_start";
    saw_job_finish |= event == "job_finish";
    saw_plan |= event == "plan_selected";
    saw_commit |= event == "task_commit";
  }
  EXPECT_TRUE(saw_plan);
  EXPECT_TRUE(saw_job_start);
  EXPECT_TRUE(saw_commit);
  EXPECT_TRUE(saw_job_finish);
}

TEST(JournalTest, TaskEventsShareJobAndTaskIds) {
  TempDir dir("journal2");
  const std::string text = RunDeterministicJob(dir);
  for (const std::string& line : SplitLines(text)) {
    JsonValue value;
    std::string error;
    ASSERT_TRUE(JsonParse(line, &value, &error)) << error;
    const std::string event = value.StringOr("event", "");
    if (event == "task_start" || event == "task_commit") {
      EXPECT_EQ(value.StringOr("job", ""), "job-0") << line;
      const std::string task = value.StringOr("task", "");
      ASSERT_EQ(task.size(), 5u) << line;
      EXPECT_TRUE(task[0] == 'm' || task[0] == 'r') << line;
    }
  }
}

// The byte-exact contract: a fixed-seed single-threaded run must
// reproduce tests/golden/journal_submit.jsonl exactly (timestamps and
// wall-clock fields are zeroed by deterministic mode; workspace root
// and job id are normalized). If this fails because the schema
// INTENTIONALLY changed, regenerate the golden file from the
// "=== actual journal ===" dump below and bump kJournalSchemaVersion
// when a field was renamed, removed, or changed meaning.
TEST(JournalTest, GoldenFileIsByteStable) {
  TempDir dir("journal3");
  const std::string actual = RunDeterministicJob(dir);
  auto golden_or = ReadFileToString(
      std::string(MANIMAL_TEST_GOLDEN_DIR) + "/journal_submit.jsonl");
  ASSERT_TRUE(golden_or.ok()) << golden_or.status().ToString();
  EXPECT_EQ(actual, *golden_or)
      << "=== actual journal ===\n" << actual;
}

}  // namespace
}  // namespace manimal::obs
