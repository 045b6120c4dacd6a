// Seeded generator of random-but-valid MRIL programs over the
// WebPages schema, for the differential plan-equivalence harness
// (tests/differential_test.cc, docs/testing.md). Every generated
// program passes the verifier by construction; the shapes are chosen
// so the analyzer's detectors (selection, projection, opaque
// accessors) fire on a meaningful fraction of seeds and the optimizer
// has real plans to choose between.

#ifndef MANIMAL_TESTS_MRIL_GEN_H_
#define MANIMAL_TESTS_MRIL_GEN_H_

#include <cstdint>
#include <string>

#include "mril/program.h"

namespace manimal::testing {

struct GeneratedProgram {
  mril::Program program;
  // Human-readable shape summary, for failure messages ("repro with
  // seed N, shape: ...").
  std::string description;
};

// Deterministic given `seed`. The programs read WebPages records
// (url STR, rank I64, content STR); `rank_range` should match the
// generated input so selection thresholds have sane selectivity.
GeneratedProgram GenerateWebPagesProgram(uint64_t seed,
                                         int64_t rank_range);

// Restricted generator mode for the native codegen tier: every
// program is verifier-valid AND provably a pure selection+projection
// — single emit site, straight-line control flow with conditional
// early exits, no side effects, every branch condition and emit
// operand functional — so codegen::ExtractShape must admit all of
// them (tests/vm_dispatch_test.cc asserts exactly that). Seeds mix
// i64 comparisons with string predicates and arena-allocated emit
// values.
GeneratedProgram GenerateProvableSelectionProgram(uint64_t seed,
                                                  int64_t rank_range);

}  // namespace manimal::testing

#endif  // MANIMAL_TESTS_MRIL_GEN_H_
