// Memcomparable key encoding for the B+Tree and the shuffle's external
// sort: EncodeOrderedKey produces bytes whose lexicographic (memcmp)
// order matches Value::Compare order for scalar values, so sorters and
// index nodes never need to decode keys to compare them.
//
// Layout: 1 kind-rank byte, then
//   i64  -> 8 bytes big-endian with the sign bit flipped
//   f64  -> 8 bytes big-endian IEEE total-order transform (i64 values
//           are widened to f64 first so mixed numeric keys interleave
//           correctly, matching Value::Compare)
//   str  -> raw bytes (terminated by end-of-key; keys are stored
//           length-prefixed externally)
//   bool -> 1 byte
//   null -> nothing

#ifndef MANIMAL_SERDE_KEY_CODEC_H_
#define MANIMAL_SERDE_KEY_CODEC_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "serde/value.h"

namespace manimal {

// Appends the ordered encoding of a scalar value to *dst. Lists and
// handles are rejected.
Status EncodeOrderedKey(const Value& value, std::string* dst);

// Inverse of EncodeOrderedKey; consumes the whole input. A str key is
// a Value::Borrowed view into `input`'s backing buffer: it is valid
// only while that buffer is (short keys are stored inline and never
// dangle), and a caller that keeps it longer takes ToOwned().
Status DecodeOrderedKey(std::string_view input, Value* value);

}  // namespace manimal

#endif  // MANIMAL_SERDE_KEY_CODEC_H_
