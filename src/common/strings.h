// Small string utilities shared across modules (splitting, joining,
// escaping for the line-based catalog format, printf-style formatting,
// hashing).

#ifndef MANIMAL_COMMON_STRINGS_H_
#define MANIMAL_COMMON_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace manimal {

std::vector<std::string> SplitString(std::string_view s, char sep);
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep);

// Escapes tab/newline/backslash so a value can live in a single
// tab-separated catalog line; UnescapeField reverses it.
std::string EscapeField(std::string_view s);
std::string UnescapeField(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

// printf into a std::string.
std::string StrPrintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

// Human-readable byte count, e.g. "1.25 MB".
std::string HumanBytes(uint64_t bytes);

// 64-bit FNV-1a of `s`: a stable, non-cryptographic hash of names and
// keys. Inline because the statistics pass hashes every key it sees.
inline uint64_t Fnv1a(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace manimal

#endif  // MANIMAL_COMMON_STRINGS_H_
