// The block codec of compressed SeqFile blocks (the v2 layout,
// columnar/seqfile.h): mlz, a small hand-rolled LZ77 with an
// LZ4-flavored token format, deterministic and dependency-free.
//
// Two layers cooperate:
//   * column stage — the per-slot delta (zigzag varints) and
//     dictionary (code) encodings, chosen by the analyzer because they
//     preserve direct-operation semantics per record;
//   * block stage — mlz here, applied to the whole encoded block body.
//
// The framed block layout (inside the usual fixed32 length envelope):
//
//   [0x01] [0x03] [varint raw_size] [mlz payload]
//
// The two leading tag bytes are constant. The reader accepts exactly
// this frame: any other tag is a Corruption, never silent garbage.

#ifndef MANIMAL_COLUMNAR_CODEC_CODEC_H_
#define MANIMAL_COLUMNAR_CODEC_CODEC_H_

#include <string>
#include <string_view>

#include "common/status.h"

namespace manimal::columnar {

// The codec name compressed files record in their header and the
// catalog in its codec_chain column.
inline constexpr char kBlockCodecName[] = "mlz";

// Appends the framed, mlz-compressed form of `raw` to *out.
void CompressBlock(std::string_view raw, std::string* out);

// Inverse of CompressBlock: replaces *raw with the decompressed body.
// Tolerates arbitrary (corrupt) input: a bad tag, a truncated or
// malformed payload, or a body whose size disagrees with the recorded
// raw_size is a Corruption, never an out-of-range read.
Status DecompressBlock(std::string_view framed, std::string* raw);

}  // namespace manimal::columnar

#endif  // MANIMAL_COLUMNAR_CODEC_CODEC_H_
