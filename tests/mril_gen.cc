#include "tests/mril_gen.h"

#include <cstdio>

#include "common/random.h"
#include "common/strings.h"
#include "mril/builder.h"
#include "workloads/schemas.h"

namespace manimal::testing {

namespace {

using mril::FunctionBuilder;
using mril::ProgramBuilder;

// One conjunct of the map's selection predicate; each jumps to "end"
// (skip this record) when it does not hold.
enum class PredKind {
  kRankLt,
  kRankLe,
  kRankGt,
  kRankGe,
  kUrlContains,
  kContentContains,
};

// What the emitted key is computed from (also fixes the key type).
enum class KeyKind { kUrl, kRank, kRankMod, kRankPlus };

// What the emitted value is.
enum class ValueKind { kOne, kRank, kUrl };

enum class ReduceKind { kNone, kCount, kSum };

void EmitPredicate(FunctionBuilder& m, PredKind kind, int64_t threshold,
                   const std::string& needle, std::string* desc) {
  switch (kind) {
    case PredKind::kRankLt:
      m.LoadParam(1).GetField("rank").LoadI64(threshold).CmpLt();
      *desc += StrPrintf(" rank<%lld", static_cast<long long>(threshold));
      break;
    case PredKind::kRankLe:
      m.LoadParam(1).GetField("rank").LoadI64(threshold).CmpLe();
      *desc += StrPrintf(" rank<=%lld", static_cast<long long>(threshold));
      break;
    case PredKind::kRankGt:
      m.LoadParam(1).GetField("rank").LoadI64(threshold).CmpGt();
      *desc += StrPrintf(" rank>%lld", static_cast<long long>(threshold));
      break;
    case PredKind::kRankGe:
      m.LoadParam(1).GetField("rank").LoadI64(threshold).CmpGe();
      *desc += StrPrintf(" rank>=%lld", static_cast<long long>(threshold));
      break;
    case PredKind::kUrlContains:
      m.LoadParam(1).GetField("url").LoadStr(needle).Call("str.contains");
      *desc += " url~" + needle;
      break;
    case PredKind::kContentContains:
      m.LoadParam(1)
          .GetField("content")
          .LoadStr(needle)
          .Call("str.contains");
      *desc += " content~" + needle;
      break;
  }
  m.JmpIfFalse("end");
}

// The reduce loop idiom from the workload programs: sum param 1's
// list elements.
void BuildSumReduce(FunctionBuilder& r) {
  int i = r.NewLocal();
  int n = r.NewLocal();
  int sum = r.NewLocal();
  r.LoadI64(0).StoreLocal(i);
  r.LoadI64(0).StoreLocal(sum);
  r.LoadParam(1).Call("list.len").StoreLocal(n);
  r.Label("loop");
  r.LoadLocal(i).LoadLocal(n).CmpGe().JmpIfTrue("done");
  r.LoadLocal(sum)
      .LoadParam(1)
      .LoadLocal(i)
      .Call("list.get")
      .Add()
      .StoreLocal(sum);
  r.LoadLocal(i).LoadI64(1).Add().StoreLocal(i);
  r.Jmp("loop");
  r.Label("done");
  r.LoadParam(0).LoadLocal(sum).Emit().Ret();
}

}  // namespace

GeneratedProgram GenerateWebPagesProgram(uint64_t seed,
                                         int64_t rank_range) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  GeneratedProgram out;
  std::string& desc = out.description;

  const auto reduce_kind = static_cast<ReduceKind>(rng.Uniform(3));
  // Sum-reduces need i64 values; everything else takes any value.
  const auto value_kind =
      reduce_kind == ReduceKind::kSum
          ? static_cast<ValueKind>(rng.Uniform(2))
          : static_cast<ValueKind>(rng.Uniform(3));
  const auto key_kind = static_cast<KeyKind>(rng.Uniform(4));
  const int num_preds = static_cast<int>(rng.Uniform(3));  // 0..2

  ProgramBuilder b(StrPrintf("gen-%llu",
                             static_cast<unsigned long long>(seed)));
  b.SetKeyType(key_kind == KeyKind::kUrl ? FieldType::kStr
                                         : FieldType::kI64);
  b.SetValueSchema(workloads::WebPagesSchema());

  FunctionBuilder& m = b.Map();
  desc = "preds:[";
  for (int i = 0; i < num_preds; ++i) {
    const auto pred = static_cast<PredKind>(rng.Uniform(6));
    const int64_t threshold =
        static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(
            rank_range > 0 ? rank_range : 1)));
    // Page URLs and contents both embed decimal digits, so a short
    // digit needle selects a nontrivial subset.
    const std::string needle = std::to_string(rng.Uniform(100));
    EmitPredicate(m, pred, threshold, needle, &desc);
  }
  desc += " ]";

  switch (key_kind) {
    case KeyKind::kUrl:
      m.LoadParam(1).GetField("url");
      desc += " key:url";
      break;
    case KeyKind::kRank:
      m.LoadParam(1).GetField("rank");
      desc += " key:rank";
      break;
    case KeyKind::kRankMod: {
      const int64_t mod = 2 + static_cast<int64_t>(rng.Uniform(9));
      m.LoadParam(1).GetField("rank").LoadI64(mod).Mod();
      desc += StrPrintf(" key:rank%%%lld", static_cast<long long>(mod));
      break;
    }
    case KeyKind::kRankPlus: {
      const int64_t add = static_cast<int64_t>(rng.Uniform(1000));
      m.LoadParam(1).GetField("rank").LoadI64(add).Add();
      desc += StrPrintf(" key:rank+%lld", static_cast<long long>(add));
      break;
    }
  }
  switch (value_kind) {
    case ValueKind::kOne:
      m.LoadI64(1);
      desc += " val:1";
      break;
    case ValueKind::kRank:
      m.LoadParam(1).GetField("rank");
      desc += " val:rank";
      break;
    case ValueKind::kUrl:
      m.LoadParam(1).GetField("url");
      desc += " val:url";
      break;
  }
  m.Emit();
  m.Label("end").Ret();

  switch (reduce_kind) {
    case ReduceKind::kNone:
      desc += " reduce:none";
      break;
    case ReduceKind::kCount: {
      FunctionBuilder& r = b.Reduce();
      r.LoadParam(0).LoadParam(1).Call("list.len").Emit().Ret();
      desc += " reduce:count";
      break;
    }
    case ReduceKind::kSum:
      BuildSumReduce(b.Reduce());
      desc += " reduce:sum";
      break;
  }

  out.program = b.Build();
  return out;
}

GeneratedProgram GenerateProvableSelectionProgram(uint64_t seed,
                                                  int64_t rank_range) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x243f6a8885a308d3ULL);
  GeneratedProgram out;
  std::string& desc = out.description;

  const int num_preds = static_cast<int>(rng.Uniform(4));  // 0..3
  // 0 = i64 one, 1 = rank field, 2 = url field, 3 = whole record.
  const uint64_t value_pick = rng.Uniform(4);
  // 0 = rank, 1 = rank+c, 2 = url, 3 = rank%m.
  const uint64_t key_pick = rng.Uniform(4);
  const bool count_reduce = value_pick != 3 && rng.Uniform(2) == 0;

  ProgramBuilder b(StrPrintf("genp-%llu",
                             static_cast<unsigned long long>(seed)));
  b.SetKeyType(key_pick == 2 ? FieldType::kStr : FieldType::kI64);
  b.SetValueSchema(workloads::WebPagesSchema());

  FunctionBuilder& m = b.Map();
  desc = "preds:[";
  for (int i = 0; i < num_preds; ++i) {
    const auto pred = static_cast<PredKind>(rng.Uniform(6));
    const int64_t threshold =
        static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(
            rank_range > 0 ? rank_range : 1)));
    const std::string needle = std::to_string(rng.Uniform(100));
    EmitPredicate(m, pred, threshold, needle, &desc);
  }
  desc += " ]";

  switch (key_pick) {
    case 0:
      m.LoadParam(1).GetField("rank");
      desc += " key:rank";
      break;
    case 1: {
      const int64_t add = static_cast<int64_t>(rng.Uniform(1000));
      m.LoadParam(1).GetField("rank").LoadI64(add).Add();
      desc += StrPrintf(" key:rank+%lld", static_cast<long long>(add));
      break;
    }
    case 2:
      m.LoadParam(1).GetField("url");
      desc += " key:url";
      break;
    default: {
      const int64_t mod = 2 + static_cast<int64_t>(rng.Uniform(9));
      m.LoadParam(1).GetField("rank").LoadI64(mod).Mod();
      desc += StrPrintf(" key:rank%%%lld", static_cast<long long>(mod));
      break;
    }
  }
  switch (value_pick) {
    case 0:
      m.LoadI64(1);
      desc += " val:1";
      break;
    case 1:
      m.LoadParam(1).GetField("rank");
      desc += " val:rank";
      break;
    case 2:
      m.LoadParam(1).GetField("url");
      desc += " val:url";
      break;
    default:
      m.LoadParam(1);  // whole-record passthrough projection
      desc += " val:record";
      break;
  }
  m.Emit();
  m.Label("end").Ret();

  if (count_reduce) {
    FunctionBuilder& r = b.Reduce();
    r.LoadParam(0).LoadParam(1).Call("list.len").Emit().Ret();
    desc += " reduce:count";
  } else {
    desc += " reduce:none";
  }

  out.program = b.Build();
  return out;
}

}  // namespace manimal::testing
