#include "columnar/codec/codec.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>

#include "common/coding.h"
#include "common/strings.h"

namespace manimal::columnar {

namespace {

// Upper bound on any decompressed block body. Real blocks are ~16 KiB;
// the cap exists so corrupt length fields cannot turn decompression
// into an allocation bomb.
constexpr size_t kMaxDecodedBlockBytes = 1u << 30;

// The frame's constant tag bytes (codec.h).
constexpr uint8_t kFrameTag0 = 0x01;
constexpr uint8_t kFrameTag1 = 0x03;

// ---------------- mlz ----------------
//
// A minimal greedy-match LZ77 with the LZ4 sequence shape: each
// sequence is
//   [token: literal_len<<4 | (match_len-4)] [len extensions: 255...]
//   [literals] [u16le offset] [match len extensions]
// A nibble of 15 extends with 255-saturated continuation bytes. The
// final sequence may end after its literals (input exhaustion is the
// terminator, as in LZ4). Matches are >= 4 bytes within a 64 KiB
// window, found through a 8K-entry hash of 4-byte prefixes.

constexpr int kMlzHashBits = 13;
constexpr size_t kMlzWindow = 0xFFFF;

inline uint32_t MlzLoad32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint32_t MlzHash(uint32_t v) {
  return (v * 2654435761u) >> (32 - kMlzHashBits);
}

void MlzPutLen(size_t extra, std::string* out) {
  while (extra >= 255) {
    out->push_back(static_cast<char>(0xFF));
    extra -= 255;
  }
  out->push_back(static_cast<char>(extra));
}

Status MlzGetLen(std::string_view* in, size_t* len) {
  while (true) {
    if (in->empty()) return Status::Corruption("mlz: truncated length");
    const uint8_t b = static_cast<uint8_t>((*in)[0]);
    in->remove_prefix(1);
    *len += b;
    if (b != 0xFF) return Status::OK();
    if (*len > kMaxDecodedBlockBytes) {
      return Status::Corruption("mlz: length overflow");
    }
  }
}

void MlzCompress(std::string_view in, std::string* out) {
  const size_t n = in.size();
  std::array<int32_t, 1u << kMlzHashBits> table;
  table.fill(-1);
  size_t anchor = 0;
  size_t pos = 0;
  auto emit = [&](size_t lit_end, size_t match_len, size_t offset) {
    const size_t lit_len = lit_end - anchor;
    const size_t match_code = match_len - 4;
    uint8_t token =
        static_cast<uint8_t>(std::min<size_t>(lit_len, 15) << 4);
    token |= static_cast<uint8_t>(std::min<size_t>(match_code, 15));
    out->push_back(static_cast<char>(token));
    if (lit_len >= 15) MlzPutLen(lit_len - 15, out);
    out->append(in.data() + anchor, lit_len);
    out->push_back(static_cast<char>(offset & 0xFF));
    out->push_back(static_cast<char>((offset >> 8) & 0xFF));
    if (match_code >= 15) MlzPutLen(match_code - 15, out);
  };
  while (pos + 4 <= n) {
    const uint32_t seq = MlzLoad32(in.data() + pos);
    const uint32_t h = MlzHash(seq);
    const int32_t cand = table[h];
    table[h] = static_cast<int32_t>(pos);
    if (cand >= 0 && pos - static_cast<size_t>(cand) <= kMlzWindow &&
        MlzLoad32(in.data() + cand) == seq) {
      size_t match_len = 4;
      while (pos + match_len < n &&
             in[cand + match_len] == in[pos + match_len]) {
        ++match_len;
      }
      emit(pos, match_len, pos - static_cast<size_t>(cand));
      pos += match_len;
      anchor = pos;
    } else {
      ++pos;
    }
  }
  // Trailing literals (possibly none): terminated by input
  // exhaustion on the decode side.
  const size_t lit_len = n - anchor;
  if (lit_len > 0) {
    uint8_t token =
        static_cast<uint8_t>(std::min<size_t>(lit_len, 15) << 4);
    out->push_back(static_cast<char>(token));
    if (lit_len >= 15) MlzPutLen(lit_len - 15, out);
    out->append(in.data() + anchor, lit_len);
  }
}

Status MlzDecompress(std::string_view in, std::string* out) {
  while (!in.empty()) {
    const uint8_t token = static_cast<uint8_t>(in[0]);
    in.remove_prefix(1);
    size_t lit_len = token >> 4;
    if (lit_len == 15) {
      MANIMAL_RETURN_IF_ERROR(MlzGetLen(&in, &lit_len));
    }
    if (in.size() < lit_len) {
      return Status::Corruption("mlz: truncated literals");
    }
    out->append(in.data(), lit_len);
    in.remove_prefix(lit_len);
    if (in.empty()) break;  // final sequence ends in literals
    if (in.size() < 2) return Status::Corruption("mlz: truncated offset");
    const size_t offset = static_cast<uint8_t>(in[0]) |
                          (static_cast<size_t>(
                               static_cast<uint8_t>(in[1]))
                           << 8);
    in.remove_prefix(2);
    if (offset == 0 || offset > out->size()) {
      return Status::Corruption("mlz: bad match offset");
    }
    size_t match_len = token & 0x0F;
    if (match_len == 15) {
      MANIMAL_RETURN_IF_ERROR(MlzGetLen(&in, &match_len));
    }
    match_len += 4;
    if (out->size() + match_len > kMaxDecodedBlockBytes) {
      return Status::Corruption("mlz: output too large");
    }
    // Byte-by-byte: matches may overlap their own output.
    size_t src = out->size() - offset;
    for (size_t i = 0; i < match_len; ++i) {
      out->push_back((*out)[src + i]);
    }
  }
  return Status::OK();
}

}  // namespace

void CompressBlock(std::string_view raw, std::string* out) {
  out->push_back(static_cast<char>(kFrameTag0));
  out->push_back(static_cast<char>(kFrameTag1));
  PutVarint64(out, raw.size());
  MlzCompress(raw, out);
}

Status DecompressBlock(std::string_view framed, std::string* raw) {
  if (framed.size() < 2) return Status::Corruption("block frame truncated");
  const uint8_t tag0 = static_cast<uint8_t>(framed[0]);
  const uint8_t tag1 = static_cast<uint8_t>(framed[1]);
  if (tag0 != kFrameTag0 || tag1 != kFrameTag1) {
    return Status::Corruption(StrPrintf(
        "block frame names an unknown codec: tag 0x%02x 0x%02x", tag0,
        tag1));
  }
  framed.remove_prefix(2);
  uint64_t raw_size = 0;
  MANIMAL_RETURN_IF_ERROR(GetVarint64(&framed, &raw_size));
  if (raw_size > kMaxDecodedBlockBytes) {
    return Status::Corruption("block raw size too large");
  }
  raw->clear();
  MANIMAL_RETURN_IF_ERROR(MlzDecompress(framed, raw));
  if (raw->size() != raw_size) {
    return Status::Corruption(
        StrPrintf("block raw size mismatch: frame says %llu, decoded %llu",
                  static_cast<unsigned long long>(raw_size),
                  static_cast<unsigned long long>(raw->size())));
  }
  return Status::OK();
}

}  // namespace manimal::columnar
