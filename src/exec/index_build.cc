#include "exec/index_build.h"

#include <algorithm>

#include "analysis/expr.h"
#include "analyzer/expr_eval.h"
#include "columnar/codec/selector.h"
#include "columnar/column_groups.h"
#include "columnar/dictionary.h"
#include "columnar/seqfile.h"
#include "common/check.h"
#include "common/coding.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "index/btree.h"
#include "index/external_sorter.h"
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

}  // namespace

Result<IndexBuildResult> BuildIndexArtifact(
    const analyzer::IndexGenProgram& spec, const std::string& input_path,
    const std::string& artifact_dir, const std::string& temp_dir,
    const stats::TableStats* input_stats) {
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

  IndexBuildResult result;
  result.entry.input_file = input_path;
  result.entry.signature = spec.Signature();
  result.entry.input_bytes = reader->file_size();
  MANIMAL_ASSIGN_OR_RETURN(result.entry.input_fingerprint,
                           reader->Fingerprint());

  auto project_record = [&](const Record& full) {
    if (input_schema.opaque() || !spec.projection) return full;
    Record out;
    out.reserve(kept.size());
    for (int f : kept) out.push_back(full[f]);
    return out;
  };

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
  std::vector<std::string> field_keys(field_columns);
  std::vector<std::string_view> row_keys(stats_columns.size());
  auto observe_record = [&](const Record& record,
                            std::string_view index_key) -> Status {
    if (stats_columns.empty()) return Status::OK();
    for (size_t i = 0; i < field_keys.size(); ++i) {
      field_keys[i].clear();
      MANIMAL_RETURN_IF_ERROR(EncodeOrderedKey(record[i], &field_keys[i]));
      row_keys[i] = field_keys[i];
    }
    if (collect_key) row_keys.back() = index_key;
    stats_collector.AddRow(row_keys);
    return Status::OK();
  };
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

  if (spec.column_groups) {
    // Split the input's columns across row-aligned sibling files
    // (§2.1 column groups); one scan feeds every group writer.
    const std::string manifest_path =
        artifact_dir + "/cgroups-" + tag + ".cgs";
    MANIMAL_ASSIGN_OR_RETURN(
        std::unique_ptr<columnar::ColumnGroupWriter> writer,
        columnar::ColumnGroupWriter::Create(manifest_path, input_schema,
                                            spec.grouping));
    MANIMAL_ASSIGN_OR_RETURN(columnar::SeqFileReader::RecordStream stream,
                             reader->ScanAll());
    int64_t key = 0;
    Record record;
    for (;;) {
      MANIMAL_ASSIGN_OR_RETURN(bool more, stream.Next(&key, &record));
      if (!more) break;
      MANIMAL_RETURN_IF_ERROR(observe_record(record, {}));
      MANIMAL_RETURN_IF_ERROR(writer->Append(key, record));
      ++result.records;
    }
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

    MANIMAL_ASSIGN_OR_RETURN(columnar::SeqFileReader::RecordStream stream,
                             reader->ScanAll());
    int64_t key = 0;
    Record record;
    for (;;) {
      MANIMAL_ASSIGN_OR_RETURN(bool more, stream.Next(&key, &record));
      if (!more) break;
      Value value = input_schema.opaque() ? record[0]
                                          : Value::List(record);
      MANIMAL_ASSIGN_OR_RETURN(
          Value index_key,
          analyzer::EvalExpr(spec.key_expr, Value::I64(key), value));
      std::string key_bytes;
      MANIMAL_RETURN_IF_ERROR(EncodeOrderedKey(index_key, &key_bytes));
      MANIMAL_RETURN_IF_ERROR(observe_record(record, key_bytes));
      std::string payload;
      if (spec.clustered) {
        // Embed the (projected) record itself, prefixed by its
        // original map() key.
        PutVarintSigned(&payload, key);
        MANIMAL_RETURN_IF_ERROR(EncodeRecord(
            stored_schema, project_record(record), &payload));
      } else {
        uint64_t block;
        uint32_t idx;
        if (sibling != nullptr) {
          MANIMAL_RETURN_IF_ERROR(
              sibling->Append(key, project_record(record)));
          block = sibling->last_block();
          idx = sibling->last_index_in_block();
        } else {
          block = stream.current_block();
          idx = stream.current_index_in_block();
        }
        PutVarint64(&payload, block);
        PutVarint32(&payload, idx);
      }
      MANIMAL_RETURN_IF_ERROR(sorter.Add(key_bytes, payload));
      ++result.records;
    }

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

    // Per-column codec-chain selection (columnar/codec/selector.h):
    // sample a prefix of the stored records, sketch their columns,
    // and pick the block codec chain before the writer is created.
    // The policy (MANIMAL_CODECS) applies to re-encoded artifacts
    // only — raw/base files stay in the v1 format.
    MANIMAL_ASSIGN_OR_RETURN(columnar::CodecPolicy codec_policy,
                             columnar::CodecPolicy::FromEnv());
    columnar::CodecSelector selector(codec_policy, meta);

    MANIMAL_ASSIGN_OR_RETURN(columnar::SeqFileReader::RecordStream stream,
                             reader->ScanAll());
    int64_t key = 0;
    Record record;
    std::vector<std::pair<int64_t, Record>> sampled;
    bool exhausted = false;
    while (sampled.size() < columnar::CodecSelector::kSampleCap) {
      MANIMAL_ASSIGN_OR_RETURN(bool more, stream.Next(&key, &record));
      if (!more) {
        exhausted = true;
        break;
      }
      Record stored = project_record(record);
      selector.Observe(stored);
      MANIMAL_RETURN_IF_ERROR(observe_record(record, {}));
      sampled.emplace_back(key, std::move(stored));
    }
    const columnar::CodecSelection codec_sel = selector.Choose();
    build_span.AddArg("codec", codec_sel.reason);

    columnar::SeqFileWriter::Options writer_options;
    writer_options.codec_chain = codec_sel.chain;
    writer_options.skip_frames = codec_sel.skip_frames;
    MANIMAL_ASSIGN_OR_RETURN(
        std::unique_ptr<columnar::SeqFileWriter> writer,
        columnar::SeqFileWriter::Create(artifact_path + ".inprogress",
                                        meta, writer_options));
    if (spec.dictionary) writer->set_dict_builder(&dict_builder);

    for (auto& [skey, stored] : sampled) {
      MANIMAL_RETURN_IF_ERROR(writer->Append(skey, stored));
      ++result.records;
    }
    sampled.clear();
    while (!exhausted) {
      MANIMAL_ASSIGN_OR_RETURN(bool more, stream.Next(&key, &record));
      if (!more) break;
      MANIMAL_RETURN_IF_ERROR(observe_record(record, {}));
      MANIMAL_RETURN_IF_ERROR(
          writer->Append(key, project_record(record)));
      ++result.records;
    }
    result.entry.codec_chain = codec_sel.chain;
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
