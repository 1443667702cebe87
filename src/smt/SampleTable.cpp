//===- smt/SampleTable.cpp - Uninterpreted function samples (IOF) ----------===//

#include "smt/SampleTable.h"

#include "support/StringUtils.h"
#include "support/Support.h"

#include <cstdlib>
#include <type_traits>

using namespace hotg;
using namespace hotg::smt;

static_assert(std::is_nothrow_move_constructible_v<Sample>,
              "growing a sample list must move the Args buffers that the "
              "index keys view, not copy them");

SampleTable &SampleTable::operator=(const SampleTable &Other) {
  if (this != &Other) {
    clear();
    mergeFrom(Other);
  }
  return *this;
}

void SampleTable::record(FuncId Func, std::span<const int64_t> Args,
                         int64_t Output) {
  auto It = Index.find(Key{Func, Args});
  if (It != Index.end()) {
    if (It->second != Output)
      reportFatalError("SampleTable: conflicting outputs recorded for the "
                       "same argument tuple; unknown functions must be "
                       "deterministic (Theorem 3)");
    return;
  }
  if (Func >= ByFunc.size())
    ByFunc.resize(Func + 1);
  std::vector<Sample> &List = ByFunc[Func];
  Order.emplace_back(Func, List.size());
  List.push_back(
      {Func, std::vector<int64_t>(Args.begin(), Args.end()), Output});
  Index.emplace(Key{Func, List.back().Args}, Output);
}

std::optional<int64_t>
SampleTable::lookup(FuncId Func, std::span<const int64_t> Args) const {
  auto It = Index.find(Key{Func, Args});
  if (It == Index.end())
    return std::nullopt;
  return It->second;
}

const std::vector<Sample> &SampleTable::samplesFor(FuncId Func) const {
  static const std::vector<Sample> None;
  return Func < ByFunc.size() ? ByFunc[Func] : None;
}

std::vector<std::vector<int64_t>>
SampleTable::preimagesOf(FuncId Func, int64_t Output) const {
  std::vector<std::vector<int64_t>> Result;
  for (const Sample &S : samplesFor(Func))
    if (S.Output == Output)
      Result.push_back(S.Args);
  return Result;
}

void SampleTable::mergeFrom(const SampleTable &Other) {
  for (const Sample &S : Other.allSamples())
    record(S.Func, S.Args, S.Output);
}

std::string SampleTable::serialize(const TermArena &Arena) const {
  std::string Out;
  for (const Sample &S : allSamples()) {
    Out += Arena.func(S.Func).Name;
    Out += formatString(" %zu", S.Args.size());
    for (int64_t Arg : S.Args)
      Out += formatString(" %lld", static_cast<long long>(Arg));
    Out += formatString(" -> %lld\n", static_cast<long long>(S.Output));
  }
  return Out;
}

bool SampleTable::deserialize(std::string_view Text, TermArena &Arena,
                              std::string *Error) {
  unsigned LineNo = 0;
  for (const std::string &Line : split(Text, '\n')) {
    ++LineNo;
    std::string_view Trimmed = trim(Line);
    if (Trimmed.empty() || Trimmed.front() == '#')
      continue;
    auto Fail = [&](const char *Why) {
      if (Error)
        *Error = formatString("line %u: %s", LineNo, Why);
      return false;
    };
    std::vector<std::string> Fields;
    for (const std::string &F : split(Trimmed, ' '))
      if (!F.empty())
        Fields.push_back(F);
    if (Fields.size() < 4)
      return Fail("expected 'name arity args... -> output'");
    char *End = nullptr;
    long long Arity = std::strtoll(Fields[1].c_str(), &End, 10);
    if (*End || Arity < 0 ||
        Fields.size() != static_cast<size_t>(Arity) + 4)
      return Fail("field count does not match the declared arity");
    if (Fields[Fields.size() - 2] != "->")
      return Fail("missing '->' separator");
    std::vector<int64_t> Args;
    for (long long I = 0; I != Arity; ++I) {
      int64_t V = std::strtoll(Fields[2 + I].c_str(), &End, 10);
      if (*End)
        return Fail("malformed argument");
      Args.push_back(V);
    }
    int64_t Output = std::strtoll(Fields.back().c_str(), &End, 10);
    if (*End)
      return Fail("malformed output");
    FuncId Func = Arena.getOrCreateFunc(Fields[0],
                                        static_cast<unsigned>(Arity));
    record(Func, Args, Output);
  }
  return true;
}

void SampleTable::clear() {
  Index.clear();
  ByFunc.clear();
  Order.clear();
}
