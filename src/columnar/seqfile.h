// SeqFile — the on-disk record file format for both raw inputs and the
// optimized representations Manimal materializes:
//
//   * plain rows (the baseline "serialized objects" input file),
//   * projected rows (unneeded fields removed; column-store-lite,
//     paper §2.1 Projection),
//   * delta rows (numeric fields stored as zigzag-varint deltas from
//     the previous record, reset per block; paper Appendix C/D),
//   * dictionary rows (string fields stored as codes; paper Table 6).
//
// Layout:
//   header: "MSEQ" magic, varint version,
//           length-prefixed original-schema string,
//           length-prefixed stored-schema string,
//           varint field-map length + varints (stored slot i holds
//             original field field_map[i]),
//           varint delta-slot count + varints (stored slots),
//           varint dict-slot count + varints (stored slots),
//           length-prefixed dictionary sidecar path ("" if none)
//           [v2] length-prefixed block codec name ("mlz"),
//                flags byte (bit 0: footer has skip frames),
//                varint frame-slot count + varints (stored slots)
//   blocks: fixed32 body length, body = varint record count + records
//           [v2] the body is mlz-framed (columnar/codec/codec.h):
//                two tag bytes + raw size + compressed payload
//   footer: fixed64 * nblocks (block offsets),
//           fixed64 * nblocks (records preceding each block),
//           [v2, flag bit 0] per block, per frame slot: fixed64 min,
//                fixed64 max of the slot's decoded i64 values — the
//                skip frames direct predicate evaluation uses to prove
//                whole blocks cannot match without decompressing them
//           fixed64 nblocks, fixed64 nrecords,
//           fixed64 footer offset, fixed32 magic
//
// Version 1 files (raw blocks, no skip frames) are written unless
// Options::compressed asks for v2; raw inputs and job outputs are v1.
//
// Blocks are the split granularity for the execution fabric: a map
// task owns a contiguous block range. Each RecordStream opens its own
// file handle, so parallel tasks can scan disjoint ranges of one file.
//
// One decoder reads blocks: SeqFileReader::DecodeBlock, called by job
// scans (RecordStream), B+Tree locator reads (BlockAccessor) and
// index-build workers alike. Open checks the footer once: the block
// count fits between the footer offset and the 28-byte tail, where the
// footer must end exactly; block offsets rise strictly from the
// header's end to the footer; cumulative counts start at 0, never
// decrease and never exceed the total, and a nonzero total has blocks.
// DecodeBlock checks each block: its length prefix, its codec frame
// (v2), its record count against the footer's, and that no bytes
// follow its counted records. Each failure is a Corruption status.

#ifndef MANIMAL_COLUMNAR_SEQFILE_H_
#define MANIMAL_COLUMNAR_SEQFILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/status.h"
#include "serde/schema.h"

namespace manimal::columnar {

class DictionaryBuilder;

struct SeqFileMeta {
  Schema original_schema;       // schema of the logical input records
  Schema stored_schema;         // schema of what is physically stored
  std::vector<int> field_map;   // stored slot -> original field index
  std::vector<int> delta_slots; // stored slots that are delta-encoded
  std::vector<int> dict_slots;  // stored slots that are dict-encoded
  std::string dict_path;        // sidecar ("" when dict_slots empty)
  // Derived files (projections, re-encodings) persist each record's
  // ORIGINAL map() key so user programs observe identical inputs; raw
  // files instead synthesize the key as the global record ordinal.
  bool has_key_slot = false;
  // Block codec the file was written with: "mlz" (v2) or "" (raw
  // v1 blocks). See columnar/codec/codec.h.
  std::string codec_chain;

  bool IsPlain() const {
    return delta_slots.empty() && dict_slots.empty() && !has_key_slot &&
           codec_chain.empty() && stored_schema == original_schema;
  }
};

// Creates metadata for a plain file of `schema` (identity field map).
SeqFileMeta PlainMeta(const Schema& schema);

class SeqFileWriter {
 public:
  struct Options {
    // Block size trades scan efficiency against locator-index
    // granularity: a block is the unit a B+Tree range scan must decode
    // to resolve one matching record.
    uint32_t target_block_bytes = 16 * 1024;
    // When non-zero, blocks are cut by record COUNT instead of bytes.
    // Column-group sibling files use this so their blocks stay
    // row-aligned and one split range is valid across all of them.
    uint32_t records_per_block = 0;
    // The v2 layout: mlz-compressed blocks plus per-block min/max
    // skip frames for every i64-valued stored slot (plain i64, delta,
    // dictionary-code). Off writes raw v1 blocks.
    bool compressed = false;
  };

  static Result<std::unique_ptr<SeqFileWriter>> Create(
      const std::string& path, SeqFileMeta meta, Options options);
  static Result<std::unique_ptr<SeqFileWriter>> Create(
      const std::string& path, SeqFileMeta meta) {
    return Create(path, std::move(meta), Options());
  }

  ~SeqFileWriter();

  // Required before Append iff meta.dict_slots is non-empty; the
  // caller owns the builder and saves it to meta.dict_path afterwards.
  void set_dict_builder(DictionaryBuilder* builder) {
    dict_builder_ = builder;
  }

  // Appends a record in STORED layout: one value per stored slot, with
  // dict slots still carrying their string values (encoding happens
  // here). `key` is the record's map() key; persisted only when
  // meta.has_key_slot.
  Status Append(int64_t key, const Record& stored_record);
  Status Append(const Record& stored_record) {
    return Append(num_records_, stored_record);
  }

  // Flushes the last block and the footer; returns total bytes.
  Result<uint64_t> Finish();

  uint64_t num_records() const { return num_records_; }

  // Total uncompressed block-body bytes appended so far — what the
  // file would weigh without the block codec. The catalog
  // records this next to the compressed artifact size so the cost
  // model can price bytes-decoded separately from bytes-scanned.
  uint64_t raw_body_bytes() const { return raw_body_bytes_; }

  // Locator of the most recently appended record (valid after the
  // first Append): index builders record these so a B+Tree can point
  // back into the file it is writing.
  uint64_t last_block() const { return last_block_; }
  uint32_t last_index_in_block() const { return last_index_in_block_; }

 private:
  SeqFileWriter(std::unique_ptr<WritableFile> file, SeqFileMeta meta,
                Options options);

  Status WriteHeader();
  Status FlushBlock();

  Options options_;
  SeqFileMeta meta_;
  std::unique_ptr<WritableFile> file_;
  DictionaryBuilder* dict_builder_ = nullptr;

  uint64_t offset_ = 0;
  std::string block_buf_;
  uint32_t block_records_ = 0;
  std::vector<int64_t> delta_prev_;  // per delta slot, reset each block
  std::vector<uint64_t> block_offsets_;
  std::vector<uint64_t> block_cum_records_;
  uint64_t num_records_ = 0;
  uint64_t raw_body_bytes_ = 0;
  uint64_t last_block_ = 0;
  uint32_t last_index_in_block_ = 0;

  // ---- v2 state ----
  std::vector<int> frame_slots_;       // stored slots with skip frames
  std::vector<int> slot_frame_index_;  // stored slot -> frame idx | -1
  std::vector<int64_t> block_min_, block_max_;  // current block, per frame
  std::vector<int64_t> frames_;  // flushed: block-major (min,max) pairs
};

class SeqFileReader
    : public std::enable_shared_from_this<SeqFileReader> {
 public:
  static Result<std::shared_ptr<SeqFileReader>> Open(
      const std::string& path);

  const SeqFileMeta& meta() const { return meta_; }
  uint64_t num_blocks() const { return block_offsets_.size(); }
  uint64_t file_size() const { return file_size_; }
  const std::string& path() const { return path_; }
  uint64_t num_records() const { return num_records_; }
  uint32_t version() const { return version_; }

  // ---- skip frames (v2, docs: DESIGN.md "Codec framework") ----
  // Per-block [min, max] bounds of every i64-valued stored slot. A
  // block whose bounds prove the scan predicate false for every row
  // can be skipped without being read or decompressed.
  bool has_skip_frames() const { return !frame_slots_.empty(); }
  const std::vector<int>& frame_slots() const { return frame_slots_; }
  // Bounds of stored slot `slot` within `block`; false when the slot
  // has no frame.
  bool BlockSlotBounds(uint64_t block, int slot, int64_t* min,
                       int64_t* max) const;
  // Records stored in `block` (from the footer's cumulative counts).
  uint64_t BlockRecordCount(uint64_t block) const;

  // Identity of this version of the file: "<size>-<mtime ns>-<digest>",
  // the digest taken over the footer's block offsets and per-block
  // record counts. Rewriting the file changes it. Catalog entries and
  // the input's statistics record it at build time; the optimizer
  // trusts neither once the input's current value differs.
  Result<std::string> Fingerprint() const;

  // Mean on-disk block body size, from the footer's recorded offsets.
  // The cost model uses this to price locator-resolved block touches
  // against the file as actually written (blocks can be far from the
  // writer's target_block_bytes when single records are large).
  double average_block_bytes() const {
    if (block_sizes_.empty()) return 0;
    uint64_t total = 0;
    for (uint64_t s : block_sizes_) total += s;
    return static_cast<double>(total) /
           static_cast<double>(block_sizes_.size());
  }

  // One block, decoded whole. Decoding into it again reuses its
  // buffers.
  struct DecodedBlock {
    std::string body;  // raw (decompressed) block body
    // keys[i] is records[i]'s map() key: the persisted one
    // (has_key_slot) or the global ordinal.
    std::vector<int64_t> keys;
    std::vector<Record> records;
  };

  // Streams records of a contiguous block range [begin, end), one
  // DecodeBlock at a time. Dict-encoded slots surface as i64 codes
  // (direct operation); use the dictionary sidecar to decode when
  // string values are needed.
  class RecordStream {
   public:
    // Returns true and fills *key / *record while records remain. The
    // key is the persisted one (has_key_slot) or the global ordinal.
    // The record is swapped out of the decoded block, and the list
    // *record held takes its place as storage for a later block: a
    // caller that passes the same list each time decodes without
    // allocating.
    Result<bool> Next(int64_t* key, Record* record);
    Result<bool> Next(Record* record) {
      int64_t ignored = 0;
      return Next(&ignored, record);
    }

    uint64_t bytes_read() const { return bytes_read_; }
    // Uncompressed block-body bytes materialized so far. Equals the
    // raw body size of every block actually loaded; skipped blocks
    // contribute nothing (the point of direct evaluation).
    uint64_t bytes_decoded() const { return bytes_decoded_; }
    uint64_t blocks_skipped() const { return blocks_skipped_; }
    uint64_t records_skipped() const { return records_skipped_; }

    // Installs a block-skip bitmap (index = absolute block number;
    // true = provably no row matches, do not read or decode). Built
    // by the scan plan from the skip frames + the admitted predicate.
    void set_skip_blocks(std::shared_ptr<const std::vector<bool>> skip) {
      skip_blocks_ = std::move(skip);
    }

    // Opt-in zero-copy decode: str fields in records returned by
    // Next() become Value::Borrowed views into the stream's block
    // buffer instead of heap copies. The views stay valid until the
    // next Next() call (which may decode the next block into that
    // buffer), so the caller must finish with — or ToOwned() — each
    // record before advancing. Off by default.
    void set_borrow_strings(bool b) { borrow_strings_ = b; }

   private:
    friend class SeqFileReader;
    RecordStream(std::shared_ptr<const SeqFileReader> reader,
                 std::unique_ptr<RandomAccessFile> file,
                 uint64_t begin_block, uint64_t end_block)
        : reader_(std::move(reader)),
          file_(std::move(file)),
          next_block_(begin_block),
          end_block_(end_block) {}

    std::shared_ptr<const SeqFileReader> reader_;
    std::unique_ptr<RandomAccessFile> file_;
    uint64_t next_block_;
    uint64_t end_block_;
    DecodedBlock block_;
    size_t index_ = 0;  // next record of block_ to hand out
    uint64_t bytes_read_ = 0;
    uint64_t bytes_decoded_ = 0;
    uint64_t blocks_skipped_ = 0;
    uint64_t records_skipped_ = 0;
    bool borrow_strings_ = false;
    std::shared_ptr<const std::vector<bool>> skip_blocks_;
  };

  // Opens a dedicated file handle for the stream (thread safe across
  // streams).
  Result<RecordStream> Scan(uint64_t begin_block, uint64_t end_block) const;
  Result<RecordStream> ScanAll() const { return Scan(0, num_blocks()); }

  // Reads block `block` through `file`, an open handle on this file
  // that no other thread uses meanwhile (ReadAt seeks it), and decodes
  // every record into *out. Dict-encoded slots surface as i64 codes.
  // With `borrow_strings`, str fields are views into out->body, valid
  // until *out is decoded into again. Adds the bytes read and
  // materialized to *bytes_read / *bytes_decoded. A block that fails
  // a check (top of this file) is a Corruption and leaves *out half
  // filled. Safe to call from several threads at once, each with its
  // own file and *out.
  Status DecodeBlock(RandomAccessFile* file, uint64_t block,
                     bool borrow_strings, DecodedBlock* out,
                     uint64_t* bytes_read, uint64_t* bytes_decoded) const;

  // Locator-based access: decodes one whole block at a time and serves
  // records by in-block index. B+Tree range scans resolve their
  // (block, index) payloads through this; visiting locators in file
  // order makes each block decode at most once.
  class BlockAccessor {
   public:
    // Loads (and caches) block `b`.
    Status Load(uint64_t block);

    uint64_t loaded_block() const { return loaded_block_; }
    const SeqFileMeta& reader_meta() const { return reader_->meta(); }
    size_t num_records() const { return block_.records.size(); }
    const Record& record(uint32_t index) const {
      return block_.records.at(index);
    }
    int64_t key(uint32_t index) const { return block_.keys.at(index); }
    uint64_t bytes_read() const { return bytes_read_; }
    uint64_t bytes_decoded() const { return bytes_decoded_; }

   private:
    friend class SeqFileReader;
    BlockAccessor(std::shared_ptr<const SeqFileReader> reader,
                  std::unique_ptr<RandomAccessFile> file)
        : reader_(std::move(reader)), file_(std::move(file)) {}

    std::shared_ptr<const SeqFileReader> reader_;
    std::unique_ptr<RandomAccessFile> file_;
    uint64_t loaded_block_ = UINT64_MAX;
    DecodedBlock block_;
    uint64_t bytes_read_ = 0;
    uint64_t bytes_decoded_ = 0;
  };

  Result<BlockAccessor> OpenBlockAccessor() const;

 private:
  SeqFileReader() = default;

  Status Init(const std::string& path);

  // Decodes one stored record from *in. With `borrow_strings`, str
  // fields are views into *in's backing buffer.
  Status DecodeStored(std::string_view* in,
                      std::vector<int64_t>* delta_prev, Record* out,
                      bool borrow_strings) const;

  std::string path_;
  SeqFileMeta meta_;
  uint32_t version_ = 1;
  std::vector<uint64_t> block_offsets_;
  std::vector<uint64_t> block_sizes_;
  // Records preceding each block (for ordinal-key synthesis on raw
  // files).
  std::vector<uint64_t> block_cum_records_;
  uint64_t file_size_ = 0;
  uint64_t num_records_ = 0;
  std::vector<bool> is_delta_slot_;
  std::vector<bool> is_dict_slot_;
  // v2 skip frames: block-major (min, max) per frame slot.
  std::vector<int> frame_slots_;
  std::vector<int64_t> frames_;
};

}  // namespace manimal::columnar

#endif  // MANIMAL_COLUMNAR_SEQFILE_H_
