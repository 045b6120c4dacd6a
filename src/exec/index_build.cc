#include "exec/index_build.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>

#include "analysis/expr.h"
#include "analyzer/expr_eval.h"
#include "columnar/codec/codec.h"
#include "columnar/column_groups.h"
#include "columnar/dictionary.h"
#include "columnar/seqfile.h"
#include "common/check.h"
#include "common/coding.h"
#include "common/faulty_env.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "index/btree.h"
#include "index/external_sorter.h"
#include "mril/builtins.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serde/key_codec.h"
#include "serde/record_codec.h"
#include "stats/stats.h"

namespace manimal::exec {

namespace {

// Cap on how many leading record fields get per-field statistics.
constexpr int kMaxStatsFields = 16;

// Maps original field indexes to stored slots given the kept list.
std::vector<int> ToStoredSlots(const std::vector<int>& original_fields,
                               const std::vector<int>& kept) {
  std::vector<int> slots;
  for (int f : original_fields) {
    auto it = std::find(kept.begin(), kept.end(), f);
    if (it != kept.end()) {
      slots.push_back(static_cast<int>(it - kept.begin()));
    }
  }
  return slots;
}

// One input block and every per-row product of it that does not depend
// on row order. A worker fills it; the consumer reads it. Its buffers
// are reused block after block.
struct BuildBlock {
  Status status;
  // str fields of the decoded records are views into decoded.body.
  columnar::SeqFileReader::DecodedBlock decoded;
  // The records in stored layout, when the spec projects.
  std::vector<Record> projected;
  // "field:" stats keys, row-major: row r's column c at r * columns + c.
  std::vector<std::string> field_keys;
  // B+Tree builds: each row's encoded index key, and its payload when
  // the payload does not depend on where the consumer writes the row.
  std::vector<std::string> index_keys;
  std::vector<std::string> payloads;

  size_t rows() const { return decoded.records.size(); }
  int64_t key(size_t row) const { return decoded.keys[row]; }
  Record& stored(size_t row) {
    return projected.empty() ? decoded.records[row] : projected[row];
  }
};

// How long a waiting pipeline thread spins, yielding its CPU, before
// it sleeps. Waking a sleeping thread would otherwise pace the
// pipeline: on a virtual machine a wake-up took about as long as
// deriving a block (on the order of a hundred microseconds), and with
// one per block the build ran no faster than a serial scan
// (docs/execution.md "Index generation").
constexpr std::chrono::microseconds kSpinBeforeSleep(250);

// The build's one input scan. `workers` threads take the input's
// blocks in file order, at most 2 × workers ahead of the consumer;
// each decodes its block through a file handle of its own and runs
// `derive(worker, block_index, block)` on it. The calling thread runs
// `consume(block)` on the blocks strictly in file order. Workers are
// armed for fault injection exactly when the caller is. The first
// error in block order is returned (a failed block stops further
// claims; the blocks before it were claimed already and still reach
// the consumer), and every worker is joined before the call returns.
Status ScanBlocksInOrder(
    const columnar::SeqFileReader& reader, int workers,
    const std::function<Status(int, uint64_t, BuildBlock*)>& derive,
    const std::function<Status(BuildBlock*)>& consume) {
  const uint64_t nblocks = reader.num_blocks();
  if (nblocks == 0) return Status::OK();
  MANIMAL_CHECK(workers >= 1 && static_cast<uint64_t>(workers) <= nblocks);
  std::vector<std::unique_ptr<RandomAccessFile>> files;
  for (int w = 0; w < workers; ++w) {
    MANIMAL_ASSIGN_OR_RETURN(std::unique_ptr<RandomAccessFile> file,
                             RandomAccessFile::Open(reader.path()));
    files.push_back(std::move(file));
  }

  // Block b lives in slots[b % window] from its claim until the
  // consumer releases it (ready[b % window] is set in between); it
  // can be claimed once b < consumed + window.
  const uint64_t window = 2 * static_cast<uint64_t>(workers);
  std::vector<BuildBlock> slots(window);
  std::vector<std::atomic<bool>> ready(window);
  std::atomic<uint64_t> next_claim{0};
  std::atomic<uint64_t> consumed{0};
  std::atomic<bool> stop{false};
  // A thread that has spun for kSpinBeforeSleep sleeps on `changed`;
  // every change of the state above notifies it.
  std::mutex mu;
  std::condition_variable changed;
  int sleepers = 0;  // guarded by mu
  auto await = [&](const auto& done) {
    const auto spin_until =
        std::chrono::steady_clock::now() + kSpinBeforeSleep;
    while (!done()) {
      if (std::chrono::steady_clock::now() < spin_until) {
        std::this_thread::yield();
        continue;
      }
      std::unique_lock<std::mutex> lock(mu);
      ++sleepers;
      changed.wait(lock, done);
      --sleepers;
      return;
    }
  };
  auto publish = [&] {
    std::lock_guard<std::mutex> lock(mu);
    if (sleepers > 0) changed.notify_all();
  };

  const bool armed = ScopedFaultArming::ThreadArmed();
  auto work = [&](int w) {
    ScopedFaultArming arm(armed);
    uint64_t bytes_read = 0;
    uint64_t bytes_decoded = 0;
    for (;;) {
      uint64_t b = next_claim.load();
      for (;;) {
        if (stop.load() || b == nblocks) return;
        if (b < consumed.load() + window) {
          if (next_claim.compare_exchange_weak(b, b + 1)) break;
          continue;  // the failed exchange reloaded b
        }
        await([&] {
          return stop.load() || next_claim.load() != b ||
                 b < consumed.load() + window;
        });
        b = next_claim.load();
      }
      BuildBlock& block = slots[b % window];
      // The slot's buffers held the strings of an earlier block at the
      // same addresses: a memo keyed on a borrowed string must not
      // survive into this one (a computed key may call str.word_at).
      mril::InvalidateBorrowedStringMemos();
      block.status =
          reader.DecodeBlock(files[w].get(), b, /*borrow_strings=*/true,
                             &block.decoded, &bytes_read, &bytes_decoded);
      if (block.status.ok()) block.status = derive(w, b, &block);
      if (!block.status.ok()) stop.store(true);
      ready[b % window].store(true);
      publish();
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (int w = 0; w < workers; ++w) threads.emplace_back(work, w);

  Status status;
  for (uint64_t b = 0; b < nblocks && status.ok(); ++b) {
    std::atomic<bool>& block_ready = ready[b % window];
    await([&] { return block_ready.load(); });
    BuildBlock& block = slots[b % window];
    status = block.status;
    if (status.ok()) status = consume(&block);
    block_ready.store(false);
    consumed.store(b + 1);
    publish();
  }
  stop.store(true);
  publish();
  for (std::thread& t : threads) t.join();
  return status;
}

}  // namespace

Result<IndexBuildResult> BuildIndexArtifact(
    const analyzer::IndexGenProgram& spec, const std::string& input_path,
    const std::string& artifact_dir, const std::string& temp_dir,
    const stats::TableStats* input_stats, int parallelism) {
  MANIMAL_RETURN_IF_ERROR(CreateDirIfMissing(artifact_dir));
  MANIMAL_RETURN_IF_ERROR(CreateDirIfMissing(temp_dir));
  obs::ScopedSpan build_span("index.build", "index");
  build_span.AddArg("spec", spec.Describe());
  obs::MetricsRegistry::Get().GetCounter("index.builds")->Increment();
  Stopwatch watch;

  MANIMAL_ASSIGN_OR_RETURN(
      std::shared_ptr<columnar::SeqFileReader> reader,
      columnar::SeqFileReader::Open(input_path));
  if (!reader->meta().IsPlain()) {
    return Status::InvalidArgument(
        "index generation expects a plain input file");
  }
  const Schema& input_schema = reader->meta().original_schema;
  if (input_schema.ToString() != spec.input_schema) {
    return Status::InvalidArgument(
        "index spec schema does not match input file schema");
  }
  if (spec.btree && spec.key_expr == nullptr) {
    return Status::InvalidArgument("btree spec without key expression");
  }
  if (spec.btree && spec.delta) {
    return Status::NotSupported(
        "selection and delta-compression do not combine (paper fn. 3)");
  }
  if (spec.btree && spec.dictionary) {
    return Status::NotSupported(
        "B+Tree artifacts keep true strings; no dictionary combo");
  }

  // Artifact naming: content-addressed by signature.
  const std::string tag =
      StrPrintf("%016llx", static_cast<unsigned long long>(
                               Fnv1a(spec.Signature() + input_path)));

  // Stored layout after projection.
  std::vector<int> kept;
  if (spec.projection) {
    kept = spec.kept_fields;
  } else if (!input_schema.opaque()) {
    for (int i = 0; i < input_schema.num_fields(); ++i) kept.push_back(i);
  }
  Schema stored_schema = input_schema.opaque()
                             ? input_schema
                             : input_schema.Project(kept);
  const bool project = spec.projection && !input_schema.opaque();

  IndexBuildResult result;
  result.entry.input_file = input_path;
  result.entry.signature = spec.Signature();
  result.entry.input_bytes = reader->file_size();
  MANIMAL_ASSIGN_OR_RETURN(result.entry.input_fingerprint,
                           reader->Fingerprint());

  // Per-column statistics (src/stats/) ride along with the build scan,
  // once per input version: "field:<i>" columns for leading record
  // fields, plus an "expr:<key expr>" column fed the B+Tree's
  // already-encoded index key unless that key is itself a field
  // column. When the input's statistics already describe this version,
  // only a missing "expr:" column is collected, and merged into them.
  const stats::TableStats* reused =
      input_stats != nullptr &&
              input_stats->fingerprint == result.entry.input_fingerprint
          ? input_stats
          : nullptr;
  const int schema_fields =
      input_schema.opaque()
          ? 0
          : std::min(input_schema.num_fields(), kMaxStatsFields);
  const int field_columns = reused != nullptr ? 0 : schema_fields;
  std::vector<std::string> stats_columns;
  for (int i = 0; i < field_columns; ++i) {
    stats_columns.push_back("field:" + std::to_string(i));
  }
  bool collect_key = false;
  if (spec.btree) {
    const int key_field = analysis::ValueFieldIndex(spec.key_expr);
    const std::string key_column = "expr:" + spec.key_expr->ToString();
    collect_key = (key_field < 0 || key_field >= schema_fields) &&
                  (reused == nullptr || reused->columns.count(key_column) == 0);
    if (collect_key) stats_columns.push_back(key_column);
  }
  stats::TableStatsCollector stats_collector(stats_columns);
  auto finish_stats = [&]() -> Status {
    if (result.records == 0) return Status::OK();
    // One file per input, whichever artifact collected it.
    result.entry.stats_path = StrPrintf(
        "%s/stats-%016llx.json", artifact_dir.c_str(),
        static_cast<unsigned long long>(Fnv1a(input_path)));
    if (stats_columns.empty()) return Status::OK();
    stats::TableStats table = stats_collector.Finish();
    if (reused != nullptr) {
      table.columns.insert(reused->columns.begin(), reused->columns.end());
    }
    table.fingerprint = result.entry.input_fingerprint;
    MANIMAL_RETURN_IF_ERROR(table.SaveTo(result.entry.stats_path));
    result.stats = std::make_shared<const stats::TableStats>(std::move(table));
    return Status::OK();
  };

  // Index generation is a MapReduce job (§2.2): its map side — decode,
  // projection, stats keys and their KMV sketches, the B+Tree key and
  // any payload that does not depend on row order — runs on the
  // workers; the consumer keeps what does.
  const int workers = static_cast<int>(
      std::min<uint64_t>(std::max(parallelism, 1), reader->num_blocks()));
  std::vector<std::vector<stats::KmvSketch>> sketches(
      workers, std::vector<stats::KmvSketch>(stats_columns.size()));
  // A locator B+Tree without a projected sibling points into the raw
  // input, by block and index: the workers can write those payloads.
  const bool input_locators =
      spec.btree && !spec.clustered && !spec.projection;
  auto derive = [&](int w, uint64_t b, BuildBlock* block) -> Status {
    const size_t rows = block->rows();
    std::vector<stats::KmvSketch>& sketch = sketches[w];
    if (project) {
      block->projected.resize(rows);
      for (size_t r = 0; r < rows; ++r) {
        const Record& full = block->decoded.records[r];
        Record& out = block->projected[r];
        out.clear();
        for (int f : kept) out.push_back(full[f]);
      }
    }
    block->field_keys.resize(rows * field_columns);
    for (size_t r = 0; r < rows; ++r) {
      const Record& record = block->decoded.records[r];
      for (int c = 0; c < field_columns; ++c) {
        std::string& key = block->field_keys[r * field_columns + c];
        key.clear();
        MANIMAL_RETURN_IF_ERROR(EncodeOrderedKey(record[c], &key));
        sketch[c].Add(key);
      }
    }
    if (!spec.btree) return Status::OK();
    block->index_keys.resize(rows);
    block->payloads.resize(rows);
    for (size_t r = 0; r < rows; ++r) {
      const Record& record = block->decoded.records[r];
      const Value value = input_schema.opaque() ? record[0]
                                                : Value::List(record);
      MANIMAL_ASSIGN_OR_RETURN(
          Value index_key,
          analyzer::EvalExpr(spec.key_expr, Value::I64(block->key(r)),
                             value));
      std::string& key_bytes = block->index_keys[r];
      key_bytes.clear();
      MANIMAL_RETURN_IF_ERROR(EncodeOrderedKey(index_key, &key_bytes));
      if (collect_key) sketch.back().Add(key_bytes);
      std::string& payload = block->payloads[r];
      payload.clear();
      if (spec.clustered) {
        // Embed the (projected) record itself, prefixed by its
        // original map() key.
        PutVarintSigned(&payload, block->key(r));
        MANIMAL_RETURN_IF_ERROR(
            EncodeRecord(stored_schema, block->stored(r), &payload));
      } else if (input_locators) {
        PutVarint64(&payload, b);
        PutVarint32(&payload, static_cast<uint32_t>(r));
      }
    }
    return Status::OK();
  };
  // The consumer's share of the statistics: reservoir and raw sample,
  // fed in row order.
  std::vector<std::string_view> row_keys(stats_columns.size());
  auto sample_rows = [&](const BuildBlock& block) {
    if (stats_columns.empty()) return;
    for (size_t r = 0; r < block.rows(); ++r) {
      for (int c = 0; c < field_columns; ++c) {
        row_keys[c] = block.field_keys[r * field_columns + c];
      }
      if (collect_key) row_keys.back() = block.index_keys[r];
      stats_collector.AddRowSample(row_keys);
    }
  };
  auto scan = [&](const std::function<Status(BuildBlock*)>& consume)
      -> Status {
    MANIMAL_RETURN_IF_ERROR(ScanBlocksInOrder(
        *reader, workers, derive, [&](BuildBlock* block) -> Status {
          sample_rows(*block);
          return consume(block);
        }));
    for (const std::vector<stats::KmvSketch>& parts : sketches) {
      for (size_t c = 0; c < parts.size(); ++c) {
        stats_collector.MergeSketch(c, parts[c]);
      }
    }
    return Status::OK();
  };

  if (spec.column_groups) {
    // Split the input's columns across row-aligned sibling files
    // (§2.1 column groups); one scan feeds every group writer.
    const std::string manifest_path =
        artifact_dir + "/cgroups-" + tag + ".cgs";
    MANIMAL_ASSIGN_OR_RETURN(
        std::unique_ptr<columnar::ColumnGroupWriter> writer,
        columnar::ColumnGroupWriter::Create(manifest_path, input_schema,
                                            spec.grouping));
    MANIMAL_RETURN_IF_ERROR(scan([&](BuildBlock* block) -> Status {
      for (size_t r = 0; r < block->rows(); ++r) {
        MANIMAL_RETURN_IF_ERROR(
            writer->Append(block->key(r), block->decoded.records[r]));
      }
      result.records += block->rows();
      return Status::OK();
    }));
    MANIMAL_ASSIGN_OR_RETURN(uint64_t bytes, writer->Finish());
    result.entry.artifact_path = manifest_path;
    result.entry.artifact_bytes = bytes;
    MANIMAL_RETURN_IF_ERROR(finish_stats());
    result.seconds = watch.ElapsedSeconds();
    return result;
  }

  if (spec.btree) {
    // Scan -> evaluate key expr -> external sort -> bulk load. The
    // tree stores (index key -> record locator); locators point into
    // the raw input, or into a projected sibling copy written here
    // when the spec combines selection with projection. This is what
    // keeps selection indexes tiny (Table 2: 0.1% space overhead).
    index::ExternalSorter::Options sort_opts;
    sort_opts.temp_dir = temp_dir;
    sort_opts.metric_label = "index_sort";
    index::ExternalSorter sorter(sort_opts);

    // Artifacts are written to a temp sibling and renamed into place
    // once complete, so a crashed build never leaves a torn artifact
    // at a path the catalog could later trust.
    std::unique_ptr<columnar::SeqFileWriter> sibling;
    std::string sibling_path;
    if (spec.projection && !spec.clustered) {
      sibling_path = artifact_dir + "/base-" + tag + ".msq";
      columnar::SeqFileMeta meta;
      meta.original_schema = input_schema;
      meta.stored_schema = stored_schema;
      meta.field_map = kept;
      meta.has_key_slot = true;
      MANIMAL_ASSIGN_OR_RETURN(
          sibling, columnar::SeqFileWriter::Create(
                       sibling_path + ".inprogress", meta));
    }

    std::string locator;
    MANIMAL_RETURN_IF_ERROR(scan([&](BuildBlock* block) -> Status {
      for (size_t r = 0; r < block->rows(); ++r) {
        std::string_view payload = block->payloads[r];
        if (sibling != nullptr) {
          // The locator points where the sibling writer puts the row.
          MANIMAL_RETURN_IF_ERROR(
              sibling->Append(block->key(r), block->stored(r)));
          locator.clear();
          PutVarint64(&locator, sibling->last_block());
          PutVarint32(&locator, sibling->last_index_in_block());
          payload = locator;
        }
        MANIMAL_RETURN_IF_ERROR(sorter.Add(block->index_keys[r], payload));
      }
      result.records += block->rows();
      return Status::OK();
    }));

    uint64_t sibling_bytes = 0;
    if (spec.clustered) {
      result.entry.base_path = "";
    } else if (sibling != nullptr) {
      MANIMAL_ASSIGN_OR_RETURN(sibling_bytes, sibling->Finish());
      MANIMAL_RETURN_IF_ERROR(
          RenameFile(sibling_path + ".inprogress", sibling_path));
      result.entry.base_path = sibling_path;
    } else {
      result.entry.base_path = input_path;
    }

    const std::string artifact_path =
        artifact_dir + "/btree-" + tag + ".idx";
    MANIMAL_ASSIGN_OR_RETURN(
        std::unique_ptr<index::BTreeBuilder> builder,
        index::BTreeBuilder::Create(artifact_path + ".inprogress"));
    MANIMAL_ASSIGN_OR_RETURN(std::unique_ptr<index::SortedStream> sorted,
                             sorter.Finish());
    while (sorted->Valid()) {
      MANIMAL_RETURN_IF_ERROR(
          builder->Add(sorted->key(), sorted->payload()));
      MANIMAL_RETURN_IF_ERROR(sorted->Next());
    }
    MANIMAL_ASSIGN_OR_RETURN(uint64_t bytes, builder->Finish());
    MANIMAL_RETURN_IF_ERROR(
        RenameFile(artifact_path + ".inprogress", artifact_path));
    result.entry.artifact_path = artifact_path;
    result.entry.artifact_bytes = bytes + sibling_bytes;
  } else {
    // Re-encoded SeqFile artifact (projection / delta / dictionary).
    columnar::SeqFileMeta meta;
    meta.original_schema = input_schema;
    meta.stored_schema = stored_schema;
    meta.field_map = input_schema.opaque() ? std::vector<int>{0} : kept;
    meta.has_key_slot = true;
    if (spec.delta) {
      meta.delta_slots = ToStoredSlots(spec.delta_fields, kept);
    }
    std::string dict_path;
    columnar::DictionaryBuilder dict_builder;
    if (spec.dictionary) {
      meta.dict_slots = ToStoredSlots(spec.dict_fields, kept);
      dict_path = artifact_dir + "/dict-" + tag + ".dict";
      meta.dict_path = dict_path;
    }
    const std::string artifact_path =
        artifact_dir + "/seq-" + tag + ".msq";

    // Re-encoded artifacts are compressed (v2: mlz blocks plus skip
    // frames); raw/base files stay in the v1 format.
    columnar::SeqFileWriter::Options writer_options;
    writer_options.compressed = true;
    MANIMAL_ASSIGN_OR_RETURN(
        std::unique_ptr<columnar::SeqFileWriter> writer,
        columnar::SeqFileWriter::Create(artifact_path + ".inprogress", meta,
                                        writer_options));
    if (spec.dictionary) writer->set_dict_builder(&dict_builder);
    result.entry.codec_chain = columnar::kBlockCodecName;
    MANIMAL_RETURN_IF_ERROR(scan([&](BuildBlock* block) -> Status {
      for (size_t r = 0; r < block->rows(); ++r) {
        MANIMAL_RETURN_IF_ERROR(
            writer->Append(block->key(r), block->stored(r)));
      }
      result.records += block->rows();
      return Status::OK();
    }));
    result.entry.raw_bytes = writer->raw_body_bytes();
    MANIMAL_ASSIGN_OR_RETURN(uint64_t bytes, writer->Finish());
    MANIMAL_RETURN_IF_ERROR(
        RenameFile(artifact_path + ".inprogress", artifact_path));
    if (spec.dictionary) {
      MANIMAL_RETURN_IF_ERROR(dict_builder.Save(dict_path + ".inprogress"));
      MANIMAL_RETURN_IF_ERROR(
          RenameFile(dict_path + ".inprogress", dict_path));
      MANIMAL_ASSIGN_OR_RETURN(uint64_t dict_bytes,
                               GetFileSize(dict_path));
      bytes += dict_bytes;
      result.entry.dict_path = dict_path;
    }
    result.entry.artifact_path = artifact_path;
    result.entry.artifact_bytes = bytes;
  }

  MANIMAL_RETURN_IF_ERROR(finish_stats());
  result.seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace manimal::exec
