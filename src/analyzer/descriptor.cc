#include "analyzer/descriptor.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"

namespace manimal::analyzer {

std::string SelectTerm::ToString() const {
  std::string body = expr != nullptr ? expr->ToString() : "<null>";
  return polarity ? body : "!" + body;
}

std::string Conjunct::ToString() const {
  if (terms.empty()) return "true";
  std::string out;
  for (size_t i = 0; i < terms.size(); ++i) {
    if (i) out += " && ";
    out += terms[i].ToString();
  }
  return out;
}

std::string DnfFormula::ToString() const {
  if (disjuncts.empty()) return "false";
  std::string out;
  for (size_t i = 0; i < disjuncts.size(); ++i) {
    if (i) out += " || ";
    out += "(" + disjuncts[i].ToString() + ")";
  }
  return out;
}

bool KeyInterval::Contains(const Value& v) const {
  if (lo.has_value()) {
    int c = v.Compare(*lo);
    if (c < 0 || (c == 0 && !lo_inclusive)) return false;
  }
  if (hi.has_value()) {
    int c = v.Compare(*hi);
    if (c > 0 || (c == 0 && !hi_inclusive)) return false;
  }
  return true;
}

std::string KeyInterval::ToString() const {
  std::string out = lo_inclusive ? "[" : "(";
  out += lo.has_value() ? lo->ToString() : "-inf";
  out += ", ";
  out += hi.has_value() ? hi->ToString() : "+inf";
  out += hi_inclusive ? "]" : ")";
  return out;
}

namespace {

// -1 / 0 / +1 comparison of interval LOWER bounds; nullopt = -inf.
// Ties on value order inclusive (covers more) first.
int CompareLower(const KeyInterval& a, const KeyInterval& b) {
  if (!a.lo.has_value() || !b.lo.has_value()) {
    if (a.lo.has_value() == b.lo.has_value()) return 0;
    return a.lo.has_value() ? 1 : -1;
  }
  int c = a.lo->Compare(*b.lo);
  if (c != 0) return c;
  if (a.lo_inclusive == b.lo_inclusive) return 0;
  return a.lo_inclusive ? -1 : 1;
}

// -1 / 0 / +1 comparison of UPPER bounds; nullopt = +inf. Ties on
// value order inclusive (covers more) last.
int CompareUpper(const KeyInterval& a, const KeyInterval& b) {
  if (!a.hi.has_value() || !b.hi.has_value()) {
    if (a.hi.has_value() == b.hi.has_value()) return 0;
    return a.hi.has_value() ? -1 : 1;
  }
  int c = a.hi->Compare(*b.hi);
  if (c != 0) return c;
  if (a.hi_inclusive == b.hi_inclusive) return 0;
  return a.hi_inclusive ? 1 : -1;
}

// True when [a, b] overlap or touch so their union is one interval:
// a's upper bound reaches b's lower bound (given CompareLower(a,b)<=0).
bool MergeableWith(const KeyInterval& a, const KeyInterval& b) {
  if (!a.hi.has_value() || !b.lo.has_value()) return true;
  int c = b.lo->Compare(*a.hi);
  if (c != 0) return c < 0;
  // Touching bounds: [x,5] ∪ [5,y] and [x,5] ∪ (5,y] merge; the union
  // of (x,5) and (5,y) genuinely excludes 5, so those stay apart.
  return a.hi_inclusive || b.lo_inclusive;
}

bool IsEmpty(const KeyInterval& iv) {
  if (!iv.lo.has_value() || !iv.hi.has_value()) return false;
  int c = iv.lo->Compare(*iv.hi);
  if (c > 0) return true;
  return c == 0 && !(iv.lo_inclusive && iv.hi_inclusive);
}

}  // namespace

std::vector<KeyInterval> CanonicalizeIntervals(
    std::vector<KeyInterval> intervals) {
  intervals.erase(
      std::remove_if(intervals.begin(), intervals.end(), IsEmpty),
      intervals.end());
  std::stable_sort(intervals.begin(), intervals.end(),
                   [](const KeyInterval& a, const KeyInterval& b) {
                     int c = CompareLower(a, b);
                     if (c != 0) return c < 0;
                     return CompareUpper(a, b) < 0;
                   });
  std::vector<KeyInterval> merged;
  for (KeyInterval& iv : intervals) {
    if (!merged.empty() && MergeableWith(merged.back(), iv)) {
      if (CompareUpper(merged.back(), iv) < 0) {
        merged.back().hi = iv.hi;
        merged.back().hi_inclusive = iv.hi_inclusive;
      }
    } else {
      merged.push_back(std::move(iv));
    }
  }
  return merged;
}

std::string SelectionDescriptor::ToString() const {
  std::string out = "SELECT{formula=" + formula.ToString();
  if (indexed_expr != nullptr) {
    out += ", index_on=" + indexed_expr->ToString() + ", ranges=";
    for (size_t i = 0; i < intervals.size(); ++i) {
      if (i) out += " u ";
      out += intervals[i].ToString();
    }
  } else {
    out += ", not-range-indexable";
  }
  out += "}";
  return out;
}

namespace {

std::string JoinInts(const std::vector<int>& v) {
  std::string out;
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(v[i]);
  }
  return out;
}

}  // namespace

std::string ProjectionDescriptor::ToString() const {
  return "PROJECT{used=[" + JoinInts(used_fields) + "], drop=[" +
         JoinInts(unneeded_fields) + "]}";
}

std::string DeltaCompressionDescriptor::ToString() const {
  return "DELTA{numeric_fields=[" + JoinInts(numeric_fields) + "]}";
}

std::string DirectOperationDescriptor::ToString() const {
  return "DIRECTOP{fields=[" + JoinInts(fields) + "]}";
}

std::string ReduceFilterDescriptor::ToString() const {
  return "REDUCE-FILTER{key must satisfy " + required.ToString() + "}";
}

std::string AnalysisReport::ToString() const {
  std::string out = "AnalysisReport{\n";
  if (selection.has_value()) out += "  " + selection->ToString() + "\n";
  if (projection.has_value()) out += "  " + projection->ToString() + "\n";
  if (delta.has_value()) out += "  " + delta->ToString() + "\n";
  if (direct_op.has_value()) out += "  " + direct_op->ToString() + "\n";
  if (reduce_filter.has_value()) {
    out += "  " + reduce_filter->ToString() + "\n";
  }
  for (const MissReason& m : misses) {
    out += "  miss[" + m.optimization + "]: " + m.reason + "\n";
  }
  for (const auto& se : side_effects) {
    out += StrPrintf("  side-effect@%d: %s\n", se.pc,
                     se.description.c_str());
  }
  out += "}";
  return out;
}

}  // namespace manimal::analyzer
