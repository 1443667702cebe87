//===- smt/CongruenceClosure.cpp - EUF congruence closure -------------------===//

#include "smt/CongruenceClosure.h"

#include "support/Hashing.h"

#include <cassert>

using namespace hotg;
using namespace hotg::smt;

CongruenceClosure::Mark CongruenceClosure::mark() {
  Mark M;
  M.TrailSize = Trail.size();
  M.Conflict = Conflict;
  M.Pending = Pending;
  ++OutstandingMarks;
  return M;
}

void CongruenceClosure::rollbackTo(const Mark &M) {
  assert(OutstandingMarks != 0 && "rollback without an outstanding mark");
  assert(M.TrailSize <= Trail.size() && "marks must be released LIFO");
  while (Trail.size() > M.TrailSize) {
    UndoRecord &R = Trail.back();
    switch (R.K) {
    case UndoRecord::Kind::ParentInsert:
      Parent.erase(R.A);
      break;
    case UndoRecord::Kind::ParentWrite:
      Parent[R.A] = R.B;
      break;
    case UndoRecord::Kind::ConstWrite:
      ClassConstant[R.A] = R.OldConst;
      break;
    case UndoRecord::Kind::DistinctInsert:
      Distincts[R.A].erase(R.B);
      break;
    case UndoRecord::Kind::DistinctErase:
      Distincts[R.A].insert(R.B);
      break;
    case UndoRecord::Kind::DistinctSetErase:
      Distincts[R.A] = std::move(R.SavedSet);
      break;
    case UndoRecord::Kind::UseAppend:
      UseList[R.A].pop_back();
      break;
    case UndoRecord::Kind::UseSetErase:
      UseList[R.A] = std::move(R.SavedVec);
      break;
    case UndoRecord::Kind::SigAppend:
      SigTable[R.Hash].pop_back();
      break;
    case UndoRecord::Kind::AppsAppend:
      Apps.pop_back();
      break;
    }
    Trail.pop_back();
  }
  Conflict = M.Conflict;
  Pending = M.Pending;
  --OutstandingMarks;
}

void CongruenceClosure::addTerm(TermId Term) {
  if (Parent.count(Term))
    return;
  Parent[Term] = Term;
  log({UndoRecord::Kind::ParentInsert, Term});
  {
    auto It = ClassConstant.find(Term);
    log({UndoRecord::Kind::ConstWrite, Term, InvalidTerm, 0,
         It != ClassConstant.end() ? It->second : std::nullopt});
  }
  if (Arena.isIntConst(Term))
    ClassConstant[Term] = Arena.intConstValue(Term);
  else
    ClassConstant[Term] = std::nullopt;

  for (TermId Op : Arena.operands(Term)) {
    addTerm(Op);
    TermId Repr = findRepr(Op);
    UseList[Repr].push_back(Term);
    log({UndoRecord::Kind::UseAppend, Repr});
  }
  if (Arena.kind(Term) == TermKind::UFApp) {
    Apps.push_back(Term);
    log({UndoRecord::Kind::AppsAppend});
  }

  // Congruence: if an existing registered term has the same signature,
  // the two must be equal.
  if (Arena.node(Term).NumOperands != 0) {
    auto Sig = signatureOf(Term);
    size_t Hash = hashRange(Sig);
    auto &Bucket = SigTable[Hash];
    for (TermId Other : Bucket)
      if (Other != Term && signatureOf(Other) == Sig)
        Pending.push_back({Term, Other});
    Bucket.push_back(Term);
    log({UndoRecord::Kind::SigAppend, InvalidTerm, InvalidTerm, Hash});
  }
  propagate();
}

std::vector<uint64_t> CongruenceClosure::signatureOf(TermId Term) {
  const TermNode &N = Arena.node(Term);
  std::vector<uint64_t> Sig;
  Sig.reserve(N.NumOperands + 2);
  Sig.push_back(static_cast<uint64_t>(N.Kind));
  Sig.push_back(static_cast<uint64_t>(N.Payload));
  for (TermId Op : Arena.operands(Term))
    Sig.push_back(findRepr(Op));
  return Sig;
}

TermId CongruenceClosure::findRepr(TermId Term) {
  auto It = Parent.find(Term);
  assert(It != Parent.end() && "term not registered");
  if (It->second == Term)
    return Term;
  TermId Root = findRepr(It->second);
  if (It->second != Root) {
    log({UndoRecord::Kind::ParentWrite, Term, It->second});
    It->second = Root; // Path compression.
  }
  return Root;
}

bool CongruenceClosure::merge(TermId A, TermId B) {
  TermId RA = findRepr(A);
  TermId RB = findRepr(B);
  if (RA == RB)
    return true;

  // Conflict checks: distinct constants or asserted disequality.
  auto &CA = ClassConstant[RA];
  auto &CB = ClassConstant[RB];
  if ((CA && CB && *CA != *CB) || Distincts[RA].count(RB)) {
    Conflict = true;
    return false;
  }

  // Merge the smaller use list into the larger (heuristic by list size).
  if (UseList[RA].size() > UseList[RB].size())
    std::swap(RA, RB);
  log({UndoRecord::Kind::ParentWrite, RA, Parent[RA]});
  Parent[RA] = RB;
  if (ClassConstant[RA]) {
    log({UndoRecord::Kind::ConstWrite, RB, InvalidTerm, 0, ClassConstant[RB]});
    ClassConstant[RB] = ClassConstant[RA];
  }

  // Move disequalities.
  for (TermId D : Distincts[RA]) {
    if (Distincts[RB].insert(D).second)
      log({UndoRecord::Kind::DistinctInsert, RB, D});
    if (Distincts[D].erase(RA) != 0)
      log({UndoRecord::Kind::DistinctErase, D, RA});
    if (Distincts[D].insert(RB).second)
      log({UndoRecord::Kind::DistinctInsert, D, RB});
  }
  if (auto It = Distincts.find(RA); It != Distincts.end()) {
    if (recording()) {
      UndoRecord R{UndoRecord::Kind::DistinctSetErase, RA};
      R.SavedSet = std::move(It->second);
      log(std::move(R));
    }
    Distincts.erase(It);
  }

  // Re-hash users of the merged class; enqueue congruent pairs.
  std::vector<TermId> Users;
  if (auto It = UseList.find(RA); It != UseList.end()) {
    Users = std::move(It->second);
    if (recording()) {
      UndoRecord R{UndoRecord::Kind::UseSetErase, RA};
      R.SavedVec = Users; // Copy: the moved-out list is still consumed below.
      log(std::move(R));
    }
    UseList.erase(It);
  }
  for (TermId User : Users) {
    auto Sig = signatureOf(User);
    size_t Hash = hashRange(Sig);
    auto &Bucket = SigTable[Hash];
    for (TermId Other : Bucket)
      if (Other != User && signatureOf(Other) == Sig)
        Pending.push_back({User, Other});
    Bucket.push_back(User);
    log({UndoRecord::Kind::SigAppend, InvalidTerm, InvalidTerm, Hash});
    UseList[RB].push_back(User);
    log({UndoRecord::Kind::UseAppend, RB});
  }
  return true;
}

void CongruenceClosure::propagate() {
  while (!Pending.empty() && !Conflict) {
    auto [A, B] = Pending.back();
    Pending.pop_back();
    merge(A, B);
  }
}

bool CongruenceClosure::assertEqual(TermId A, TermId B) {
  if (Conflict)
    return false;
  addTerm(A);
  addTerm(B);
  if (!merge(A, B))
    return false;
  propagate();
  return !Conflict;
}

bool CongruenceClosure::assertDistinct(TermId A, TermId B) {
  if (Conflict)
    return false;
  addTerm(A);
  addTerm(B);
  TermId RA = findRepr(A);
  TermId RB = findRepr(B);
  if (RA == RB) {
    Conflict = true;
    return false;
  }
  if (Distincts[RA].insert(RB).second)
    log({UndoRecord::Kind::DistinctInsert, RA, RB});
  if (Distincts[RB].insert(RA).second)
    log({UndoRecord::Kind::DistinctInsert, RB, RA});
  return true;
}

bool CongruenceClosure::areEqual(TermId A, TermId B) {
  addTerm(A);
  addTerm(B);
  return findRepr(A) == findRepr(B);
}

bool CongruenceClosure::areDistinct(TermId A, TermId B) {
  addTerm(A);
  addTerm(B);
  TermId RA = findRepr(A);
  TermId RB = findRepr(B);
  if (RA == RB)
    return false;
  auto CA = ClassConstant[RA];
  auto CB = ClassConstant[RB];
  if (CA && CB && *CA != *CB)
    return true;
  return Distincts[RA].count(RB) != 0;
}

std::optional<int64_t> CongruenceClosure::constantOf(TermId Term) {
  addTerm(Term);
  return ClassConstant[findRepr(Term)];
}
