#include "columnar/seqfile.h"

#include <algorithm>

#include "columnar/codec/codec.h"
#include "columnar/dictionary.h"
#include "common/check.h"
#include "common/coding.h"
#include "common/strings.h"
#include "serde/record_codec.h"

namespace manimal::columnar {

namespace {
constexpr char kMagic[4] = {'M', 'S', 'E', 'Q'};
constexpr uint32_t kFooterMagic = 0x5E0F0075;
constexpr uint8_t kFlagSkipFrames = 0x01;
}  // namespace

SeqFileMeta PlainMeta(const Schema& schema) {
  SeqFileMeta meta;
  meta.original_schema = schema;
  meta.stored_schema = schema;
  if (!schema.opaque()) {
    for (int i = 0; i < schema.num_fields(); ++i) {
      meta.field_map.push_back(i);
    }
  } else {
    meta.field_map.push_back(0);
  }
  return meta;
}

// ---------------- writer ----------------

Result<std::unique_ptr<SeqFileWriter>> SeqFileWriter::Create(
    const std::string& path, SeqFileMeta meta, Options options) {
  // Validate slots.
  const int slots = meta.stored_schema.opaque()
                        ? 1
                        : meta.stored_schema.num_fields();
  if (static_cast<int>(meta.field_map.size()) != slots) {
    return Status::InvalidArgument("field_map arity != stored schema");
  }
  for (int s : meta.delta_slots) {
    if (s < 0 || s >= slots ||
        meta.stored_schema.field(s).type != FieldType::kI64) {
      return Status::InvalidArgument(
          "delta slots must be i64 stored fields");
    }
  }
  for (int s : meta.dict_slots) {
    if (s < 0 || s >= slots ||
        meta.stored_schema.field(s).type != FieldType::kStr) {
      return Status::InvalidArgument(
          "dict slots must be str stored fields");
    }
  }
  MANIMAL_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> f,
                           WritableFile::Create(path));
  meta.codec_chain = options.compressed ? kBlockCodecName : "";
  auto writer = std::unique_ptr<SeqFileWriter>(
      new SeqFileWriter(std::move(f), std::move(meta), options));
  writer->delta_prev_.assign(writer->meta_.delta_slots.size(), 0);
  if (options.compressed && !writer->meta_.stored_schema.opaque()) {
    // Every stored slot whose decoded runtime value is an i64: plain
    // i64 columns, delta columns (i64 by construction), and
    // dictionary columns (surfaced as codes).
    writer->slot_frame_index_.assign(slots, -1);
    for (int s = 0; s < slots; ++s) {
      const bool dict =
          std::find(writer->meta_.dict_slots.begin(),
                    writer->meta_.dict_slots.end(),
                    s) != writer->meta_.dict_slots.end();
      if (writer->meta_.stored_schema.field(s).type == FieldType::kI64 ||
          dict) {
        writer->slot_frame_index_[s] =
            static_cast<int>(writer->frame_slots_.size());
        writer->frame_slots_.push_back(s);
      }
    }
    writer->block_min_.assign(writer->frame_slots_.size(), 0);
    writer->block_max_.assign(writer->frame_slots_.size(), 0);
  }
  MANIMAL_RETURN_IF_ERROR(writer->WriteHeader());
  return writer;
}

SeqFileWriter::SeqFileWriter(std::unique_ptr<WritableFile> file,
                             SeqFileMeta meta, Options options)
    : options_(std::move(options)),
      meta_(std::move(meta)),
      file_(std::move(file)) {}

SeqFileWriter::~SeqFileWriter() = default;

Status SeqFileWriter::WriteHeader() {
  std::string out(kMagic, 4);
  PutVarint32(&out, options_.compressed ? 2 : 1);  // version
  PutLengthPrefixed(&out, meta_.original_schema.ToString());
  PutLengthPrefixed(&out, meta_.stored_schema.ToString());
  PutVarint32(&out, static_cast<uint32_t>(meta_.field_map.size()));
  for (int f : meta_.field_map) PutVarint32(&out, f);
  PutVarint32(&out, static_cast<uint32_t>(meta_.delta_slots.size()));
  for (int s : meta_.delta_slots) PutVarint32(&out, s);
  PutVarint32(&out, static_cast<uint32_t>(meta_.dict_slots.size()));
  for (int s : meta_.dict_slots) PutVarint32(&out, s);
  PutLengthPrefixed(&out, meta_.dict_path);
  out.push_back(meta_.has_key_slot ? 1 : 0);
  if (options_.compressed) {
    PutLengthPrefixed(&out, meta_.codec_chain);
    out.push_back(frame_slots_.empty() ? 0 : kFlagSkipFrames);
    PutVarint32(&out, static_cast<uint32_t>(frame_slots_.size()));
    for (int s : frame_slots_) PutVarint32(&out, s);
  }
  MANIMAL_RETURN_IF_ERROR(file_->Append(out));
  offset_ = out.size();
  return Status::OK();
}

Status SeqFileWriter::Append(int64_t key, const Record& stored_record) {
  if (!meta_.dict_slots.empty() && dict_builder_ == nullptr) {
    return Status::InvalidArgument(
        "dict-encoded file requires a dictionary builder");
  }
  if (meta_.has_key_slot) PutVarintSigned(&block_buf_, key);
  if (meta_.stored_schema.opaque()) {
    MANIMAL_RETURN_IF_ERROR(
        EncodeRecord(meta_.stored_schema, stored_record, &block_buf_));
  } else {
    if (static_cast<int>(stored_record.size()) !=
        meta_.stored_schema.num_fields()) {
      return Status::InvalidArgument("record arity != stored schema");
    }
    for (int s = 0; s < meta_.stored_schema.num_fields(); ++s) {
      const Value& v = stored_record[s];
      // The decoded i64 a reader will observe for this slot (value,
      // delta-reconstructed value, or dictionary code) — what the skip
      // frames bound.
      bool framed = false;
      int64_t framed_value = 0;
      // Delta slot?
      auto delta_it = std::find(meta_.delta_slots.begin(),
                                meta_.delta_slots.end(), s);
      if (delta_it != meta_.delta_slots.end()) {
        if (!v.is_i64()) {
          return Status::InvalidArgument("delta slot value must be i64");
        }
        size_t di = delta_it - meta_.delta_slots.begin();
        PutVarintSigned(&block_buf_, v.i64() - delta_prev_[di]);
        delta_prev_[di] = v.i64();
        framed = true;
        framed_value = v.i64();
      } else if (std::find(meta_.dict_slots.begin(),
                           meta_.dict_slots.end(),
                           s) != meta_.dict_slots.end()) {
        // Dict slot: frames bound the CODE — sound because direct
        // operation rewrites predicates to compare codes.
        if (!v.is_str()) {
          return Status::InvalidArgument("dict slot value must be str");
        }
        const int64_t code = dict_builder_->EncodeOrAdd(v.str());
        PutVarint64(&block_buf_, static_cast<uint64_t>(code));
        framed = true;
        framed_value = code;
      } else {
        switch (meta_.stored_schema.field(s).type) {
        case FieldType::kI64:
          if (!v.is_i64()) {
            return Status::InvalidArgument("expected i64 field");
          }
          // Fixed width, like the Java serialization the paper's
          // baseline files used (DataOutput writes longs as 8 bytes);
          // delta slots are where the size-sensitive representation
          // comes in (Appendix D).
          PutFixed64(&block_buf_, static_cast<uint64_t>(v.i64()));
          framed = true;
          framed_value = v.i64();
          break;
        case FieldType::kF64:
          if (!v.is_f64()) {
            return Status::InvalidArgument("expected f64 field");
          }
          PutDouble(&block_buf_, v.f64());
          break;
        case FieldType::kStr:
          if (!v.is_str()) {
            return Status::InvalidArgument("expected str field");
          }
          PutLengthPrefixed(&block_buf_, v.str());
          break;
        case FieldType::kBool:
          if (!v.is_bool()) {
            return Status::InvalidArgument("expected bool field");
          }
          block_buf_.push_back(v.bool_value() ? 1 : 0);
          break;
        }
      }
      if (framed && !slot_frame_index_.empty() &&
          slot_frame_index_[s] >= 0) {
        const int fi = slot_frame_index_[s];
        if (block_records_ == 0) {
          block_min_[fi] = block_max_[fi] = framed_value;
        } else {
          block_min_[fi] = std::min(block_min_[fi], framed_value);
          block_max_[fi] = std::max(block_max_[fi], framed_value);
        }
      }
    }
  }
  ++block_records_;
  ++num_records_;
  last_block_ = block_offsets_.size();
  last_index_in_block_ = block_records_ - 1;
  const bool full = options_.records_per_block > 0
                        ? block_records_ >= options_.records_per_block
                        : block_buf_.size() >= options_.target_block_bytes;
  if (full) {
    MANIMAL_RETURN_IF_ERROR(FlushBlock());
  }
  return Status::OK();
}

Status SeqFileWriter::FlushBlock() {
  if (block_records_ == 0) return Status::OK();
  std::string body;
  PutVarint32(&body, block_records_);
  body += block_buf_;
  raw_body_bytes_ += body.size();
  if (options_.compressed) {
    std::string framed;
    CompressBlock(body, &framed);
    body = std::move(framed);
  }
  std::string out;
  PutFixed32(&out, static_cast<uint32_t>(body.size()));
  out += body;
  MANIMAL_RETURN_IF_ERROR(file_->Append(out));
  if (!frame_slots_.empty()) {
    for (size_t fi = 0; fi < frame_slots_.size(); ++fi) {
      frames_.push_back(block_min_[fi]);
      frames_.push_back(block_max_[fi]);
    }
  }
  block_offsets_.push_back(offset_);
  block_cum_records_.push_back(num_records_ - block_records_);
  offset_ += out.size();
  block_buf_.clear();
  block_records_ = 0;
  std::fill(delta_prev_.begin(), delta_prev_.end(), 0);
  return Status::OK();
}

Result<uint64_t> SeqFileWriter::Finish() {
  MANIMAL_RETURN_IF_ERROR(FlushBlock());
  uint64_t footer_offset = offset_;
  std::string footer;
  for (uint64_t off : block_offsets_) PutFixed64(&footer, off);
  for (uint64_t cum : block_cum_records_) PutFixed64(&footer, cum);
  for (int64_t bound : frames_) {
    PutFixed64(&footer, static_cast<uint64_t>(bound));
  }
  PutFixed64(&footer, block_offsets_.size());
  PutFixed64(&footer, num_records_);
  PutFixed64(&footer, footer_offset);
  PutFixed32(&footer, kFooterMagic);
  MANIMAL_RETURN_IF_ERROR(file_->Append(footer));
  offset_ += footer.size();
  MANIMAL_RETURN_IF_ERROR(file_->Close());
  return offset_;
}

// ---------------- reader ----------------

Result<std::shared_ptr<SeqFileReader>> SeqFileReader::Open(
    const std::string& path) {
  std::shared_ptr<SeqFileReader> reader(new SeqFileReader());
  MANIMAL_RETURN_IF_ERROR(reader->Init(path));
  return reader;
}

Status SeqFileReader::Init(const std::string& path) {
  path_ = path;
  MANIMAL_ASSIGN_OR_RETURN(std::unique_ptr<RandomAccessFile> file,
                           RandomAccessFile::Open(path));
  file_size_ = file->size();
  constexpr size_t kFooterTail = 8 + 8 + 8 + 4;
  if (file_size_ < kFooterTail) {
    return Status::Corruption("seqfile too small: " + path);
  }
  std::string tail;
  MANIMAL_RETURN_IF_ERROR(
      file->ReadAt(file_size_ - kFooterTail, kFooterTail, &tail));
  std::string_view in = tail;
  uint64_t nblocks = 0, nrecords = 0, footer_offset = 0;
  uint32_t magic = 0;
  MANIMAL_RETURN_IF_ERROR(GetFixed64(&in, &nblocks));
  MANIMAL_RETURN_IF_ERROR(GetFixed64(&in, &nrecords));
  MANIMAL_RETURN_IF_ERROR(GetFixed64(&in, &footer_offset));
  MANIMAL_RETURN_IF_ERROR(GetFixed32(&in, &magic));
  if (magic != kFooterMagic) {
    return Status::Corruption("bad seqfile footer magic: " + path);
  }
  num_records_ = nrecords;

  // Header (parsed before the footer body: the skip-frame region's
  // size depends on the frame-slot list declared here).
  std::string head;
  MANIMAL_RETURN_IF_ERROR(
      file->ReadAt(0, std::min<uint64_t>(file_size_, 64 * 1024), &head));
  std::string_view hin = head;
  if (hin.size() < 4 || hin.substr(0, 4) != std::string_view(kMagic, 4)) {
    return Status::Corruption("bad seqfile magic: " + path);
  }
  hin.remove_prefix(4);
  uint32_t version = 0;
  MANIMAL_RETURN_IF_ERROR(GetVarint32(&hin, &version));
  if (version != 1 && version != 2) {
    return Status::Corruption("bad seqfile version");
  }
  version_ = version;
  std::string_view schema_text;
  MANIMAL_RETURN_IF_ERROR(GetLengthPrefixed(&hin, &schema_text));
  MANIMAL_ASSIGN_OR_RETURN(meta_.original_schema,
                           Schema::Parse(schema_text));
  MANIMAL_RETURN_IF_ERROR(GetLengthPrefixed(&hin, &schema_text));
  MANIMAL_ASSIGN_OR_RETURN(meta_.stored_schema, Schema::Parse(schema_text));
  uint32_t n = 0;
  MANIMAL_RETURN_IF_ERROR(GetVarint32(&hin, &n));
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t v = 0;
    MANIMAL_RETURN_IF_ERROR(GetVarint32(&hin, &v));
    meta_.field_map.push_back(static_cast<int>(v));
  }
  MANIMAL_RETURN_IF_ERROR(GetVarint32(&hin, &n));
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t v = 0;
    MANIMAL_RETURN_IF_ERROR(GetVarint32(&hin, &v));
    meta_.delta_slots.push_back(static_cast<int>(v));
  }
  MANIMAL_RETURN_IF_ERROR(GetVarint32(&hin, &n));
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t v = 0;
    MANIMAL_RETURN_IF_ERROR(GetVarint32(&hin, &v));
    meta_.dict_slots.push_back(static_cast<int>(v));
  }
  std::string_view dict_path;
  MANIMAL_RETURN_IF_ERROR(GetLengthPrefixed(&hin, &dict_path));
  meta_.dict_path = std::string(dict_path);
  if (hin.empty()) return Status::Corruption("truncated seqfile header");
  meta_.has_key_slot = hin[0] != 0;
  hin.remove_prefix(1);
  bool has_frames = false;
  if (version_ >= 2) {
    std::string_view codec;
    MANIMAL_RETURN_IF_ERROR(GetLengthPrefixed(&hin, &codec));
    meta_.codec_chain = std::string(codec);
    if (hin.empty()) return Status::Corruption("truncated seqfile header");
    const uint8_t flags = static_cast<uint8_t>(hin[0]);
    hin.remove_prefix(1);
    has_frames = (flags & kFlagSkipFrames) != 0;
    uint32_t nframe = 0;
    MANIMAL_RETURN_IF_ERROR(GetVarint32(&hin, &nframe));
    for (uint32_t i = 0; i < nframe; ++i) {
      uint32_t v = 0;
      MANIMAL_RETURN_IF_ERROR(GetVarint32(&hin, &v));
      frame_slots_.push_back(static_cast<int>(v));
    }
    if (has_frames != !frame_slots_.empty()) {
      return Status::Corruption("seqfile frame flag/slot mismatch");
    }
  }

  // Footer body: offsets, cumulative counts, then (v2) the skip
  // frames, sized by the frame-slot list just parsed. It must fill the
  // bytes between the footer offset and the tail exactly; the block
  // count is checked by division, so no product below can wrap.
  const uint64_t header_end = head.size() - hin.size();
  const uint64_t nframe = frame_slots_.size();
  const uint64_t per_block = 16 + nframe * 16;
  const uint64_t footer_end = file_size_ - kFooterTail;
  if (footer_offset < header_end || footer_offset > footer_end ||
      nblocks > (footer_end - footer_offset) / per_block ||
      nblocks * per_block != footer_end - footer_offset) {
    return Status::Corruption("seqfile footer does not fit the file: " +
                              path);
  }
  if (nblocks == 0 && nrecords != 0) {
    return Status::Corruption("seqfile records without blocks: " + path);
  }
  if (nblocks > 0) {
    std::string footer;
    MANIMAL_RETURN_IF_ERROR(
        file->ReadAt(footer_offset, nblocks * per_block, &footer));
    std::string_view oin = footer;
    // Blocks tile [header_end, footer_offset): offsets rise strictly.
    block_offsets_.reserve(nblocks);
    for (uint64_t i = 0; i < nblocks; ++i) {
      uint64_t off = 0;
      MANIMAL_RETURN_IF_ERROR(GetFixed64(&oin, &off));
      if (off >= footer_offset ||
          (i == 0 ? off < header_end : off <= block_offsets_.back())) {
        return Status::Corruption("seqfile block offsets out of order: " +
                                  path);
      }
      block_offsets_.push_back(off);
    }
    block_cum_records_.reserve(nblocks);
    for (uint64_t i = 0; i < nblocks; ++i) {
      uint64_t cum = 0;
      MANIMAL_RETURN_IF_ERROR(GetFixed64(&oin, &cum));
      if (cum > nrecords ||
          (i == 0 ? cum != 0 : cum < block_cum_records_.back())) {
        return Status::Corruption("seqfile record counts out of order: " +
                                  path);
      }
      block_cum_records_.push_back(cum);
    }
    if (nframe > 0) {
      frames_.reserve(nblocks * nframe * 2);
      for (uint64_t i = 0; i < nblocks * nframe; ++i) {
        uint64_t lo = 0, hi = 0;
        MANIMAL_RETURN_IF_ERROR(GetFixed64(&oin, &lo));
        MANIMAL_RETURN_IF_ERROR(GetFixed64(&oin, &hi));
        frames_.push_back(static_cast<int64_t>(lo));
        frames_.push_back(static_cast<int64_t>(hi));
      }
    }
    block_sizes_.reserve(nblocks);
    for (uint64_t i = 0; i < nblocks; ++i) {
      uint64_t end =
          (i + 1 < nblocks) ? block_offsets_[i + 1] : footer_offset;
      block_sizes_.push_back(end - block_offsets_[i]);
    }
  }

  const int slots = meta_.stored_schema.opaque()
                        ? 1
                        : meta_.stored_schema.num_fields();
  is_delta_slot_.assign(slots, false);
  is_dict_slot_.assign(slots, false);
  for (int s : meta_.delta_slots) {
    if (s < 0 || s >= slots) return Status::Corruption("bad delta slot");
    is_delta_slot_[s] = true;
  }
  for (int s : meta_.dict_slots) {
    if (s < 0 || s >= slots) return Status::Corruption("bad dict slot");
    is_dict_slot_[s] = true;
  }
  return Status::OK();
}

bool SeqFileReader::BlockSlotBounds(uint64_t block, int slot,
                                    int64_t* min, int64_t* max) const {
  if (block >= num_blocks()) return false;
  const auto it =
      std::find(frame_slots_.begin(), frame_slots_.end(), slot);
  if (it == frame_slots_.end()) return false;
  const size_t fi = it - frame_slots_.begin();
  const size_t base = (block * frame_slots_.size() + fi) * 2;
  *min = frames_[base];
  *max = frames_[base + 1];
  return true;
}

uint64_t SeqFileReader::BlockRecordCount(uint64_t block) const {
  if (block >= num_blocks()) return 0;
  const uint64_t next = (block + 1 < num_blocks())
                            ? block_cum_records_[block + 1]
                            : num_records_;
  return next - block_cum_records_[block];
}

Result<std::string> SeqFileReader::Fingerprint() const {
  MANIMAL_ASSIGN_OR_RETURN(int64_t mtime, GetFileMtimeNanos(path_));
  std::string footer;
  for (uint64_t b = 0; b < num_blocks(); ++b) {
    PutFixed64(&footer, block_offsets_[b]);
    PutFixed64(&footer, BlockRecordCount(b));
  }
  return StrPrintf("%llu-%lld-%016llx",
                   static_cast<unsigned long long>(file_size_),
                   static_cast<long long>(mtime),
                   static_cast<unsigned long long>(Fnv1a(footer)));
}

Result<SeqFileReader::RecordStream> SeqFileReader::Scan(
    uint64_t begin_block, uint64_t end_block) const {
  if (begin_block > end_block || end_block > num_blocks()) {
    return Status::InvalidArgument("bad block range");
  }
  MANIMAL_ASSIGN_OR_RETURN(std::unique_ptr<RandomAccessFile> file,
                           RandomAccessFile::Open(path_));
  return RecordStream(shared_from_this(), std::move(file), begin_block,
                      end_block);
}

Status SeqFileReader::DecodeStored(std::string_view* in,
                                   std::vector<int64_t>* delta_prev,
                                   Record* out,
                                   bool borrow_strings) const {
  out->clear();
  if (meta_.stored_schema.opaque()) {
    return DecodeRecord(meta_.stored_schema, in, out, borrow_strings);
  }
  out->reserve(meta_.stored_schema.num_fields());
  size_t delta_index = 0;
  for (int s = 0; s < meta_.stored_schema.num_fields(); ++s) {
    if (is_delta_slot_[s]) {
      int64_t d = 0;
      MANIMAL_RETURN_IF_ERROR(GetVarintSigned(in, &d));
      int64_t v = (*delta_prev)[delta_index] + d;
      (*delta_prev)[delta_index] = v;
      ++delta_index;
      out->push_back(Value::I64(v));
      continue;
    }
    if (is_dict_slot_[s]) {
      uint64_t code = 0;
      MANIMAL_RETURN_IF_ERROR(GetVarint64(in, &code));
      out->push_back(Value::I64(static_cast<int64_t>(code)));
      continue;
    }
    switch (meta_.stored_schema.field(s).type) {
      case FieldType::kI64: {
        uint64_t raw = 0;
        MANIMAL_RETURN_IF_ERROR(GetFixed64(in, &raw));
        out->push_back(Value::I64(static_cast<int64_t>(raw)));
        break;
      }
      case FieldType::kF64: {
        double v = 0;
        MANIMAL_RETURN_IF_ERROR(GetDouble(in, &v));
        out->push_back(Value::F64(v));
        break;
      }
      case FieldType::kStr: {
        std::string_view s2;
        MANIMAL_RETURN_IF_ERROR(GetLengthPrefixed(in, &s2));
        out->push_back(borrow_strings ? Value::Borrowed(s2)
                                      : Value::Str(s2));
        break;
      }
      case FieldType::kBool: {
        if (in->empty()) return Status::Corruption("truncated bool");
        out->push_back(Value::Bool((*in)[0] != 0));
        in->remove_prefix(1);
        break;
      }
    }
  }
  return Status::OK();
}

Result<bool> SeqFileReader::RecordStream::Next(int64_t* key,
                                               Record* record) {
  while (index_ >= block_.records.size()) {
    if (next_block_ >= end_block_) return false;
    if (skip_blocks_ != nullptr && next_block_ < skip_blocks_->size() &&
        (*skip_blocks_)[next_block_]) {
      // Direct evaluation proved no row in this block can satisfy the
      // predicate: advance past it without reading or decompressing.
      ++blocks_skipped_;
      records_skipped_ += reader_->BlockRecordCount(next_block_);
      ++next_block_;
      continue;
    }
    // A failed decode leaves block_ half filled: hand none of it out.
    index_ = SIZE_MAX;
    MANIMAL_RETURN_IF_ERROR(reader_->DecodeBlock(file_.get(), next_block_,
                                                 borrow_strings_, &block_,
                                                 &bytes_read_,
                                                 &bytes_decoded_));
    index_ = 0;
    ++next_block_;
  }
  *key = block_.keys[index_];
  std::swap(*record, block_.records[index_]);
  ++index_;
  return true;
}

Result<SeqFileReader::BlockAccessor> SeqFileReader::OpenBlockAccessor()
    const {
  MANIMAL_ASSIGN_OR_RETURN(std::unique_ptr<RandomAccessFile> file,
                           RandomAccessFile::Open(path_));
  return BlockAccessor(shared_from_this(), std::move(file));
}

Status SeqFileReader::DecodeBlock(RandomAccessFile* file, uint64_t block,
                                  bool borrow_strings, DecodedBlock* out,
                                  uint64_t* bytes_read,
                                  uint64_t* bytes_decoded) const {
  if (block >= num_blocks()) {
    return Status::InvalidArgument("block index out of range");
  }
  std::string raw;
  MANIMAL_RETURN_IF_ERROR(
      file->ReadAt(block_offsets_[block], block_sizes_[block], &raw));
  *bytes_read += raw.size();
  std::string_view in = raw;
  uint32_t body_len = 0;
  MANIMAL_RETURN_IF_ERROR(GetFixed32(&in, &body_len));
  if (in.size() != body_len) {
    return Status::Corruption("block length mismatch");
  }
  out->body.clear();
  if (version_ >= 2) {
    MANIMAL_RETURN_IF_ERROR(DecompressBlock(in, &out->body));
  } else {
    out->body.assign(in.data(), in.size());
  }
  *bytes_decoded += out->body.size();
  in = out->body;
  uint32_t count = 0;
  MANIMAL_RETURN_IF_ERROR(GetVarint32(&in, &count));
  if (count != BlockRecordCount(block)) {
    return Status::Corruption("block record count disagrees with footer");
  }
  out->keys.resize(count);
  out->records.resize(count);
  std::vector<int64_t> delta_prev(meta_.delta_slots.size(), 0);
  const int64_t ordinal = static_cast<int64_t>(block_cum_records_[block]);
  for (uint32_t i = 0; i < count; ++i) {
    int64_t key = ordinal + i;
    if (meta_.has_key_slot) {
      MANIMAL_RETURN_IF_ERROR(GetVarintSigned(&in, &key));
    }
    out->keys[i] = key;
    MANIMAL_RETURN_IF_ERROR(DecodeStored(&in, &delta_prev, &out->records[i],
                                         borrow_strings));
  }
  if (!in.empty()) {
    return Status::Corruption("block has bytes after its records");
  }
  return Status::OK();
}

Status SeqFileReader::BlockAccessor::Load(uint64_t block) {
  if (block == loaded_block_) return Status::OK();
  // A failed decode leaves block_ half filled: nothing is loaded.
  loaded_block_ = UINT64_MAX;
  MANIMAL_RETURN_IF_ERROR(reader_->DecodeBlock(file_.get(), block,
                                               /*borrow_strings=*/false,
                                               &block_, &bytes_read_,
                                               &bytes_decoded_));
  loaded_block_ = block;
  return Status::OK();
}

}  // namespace manimal::columnar
