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
      ClassConstant.erase(R.A);
      break;
    case UndoRecord::Kind::ParentWrite:
      Parent[R.A] = R.B;
      break;
    case UndoRecord::Kind::ConstWrite:
      ClassConstant[R.A] = R.OldConst;
      break;
    case UndoRecord::Kind::DistinctInsert: {
      auto It = Distincts.find(R.A);
      It->second.erase(R.B);
      if (It->second.empty())
        Distincts.erase(It);
      break;
    }
    case UndoRecord::Kind::DistinctErase:
      Distincts[R.A].insert(R.B);
      break;
    case UndoRecord::Kind::DistinctSetErase:
      Distincts[R.A] = std::move(SavedSets.back());
      SavedSets.pop_back();
      break;
    case UndoRecord::Kind::UseAppend: {
      auto It = UseList.find(R.A);
      It->second.pop_back();
      if (It->second.empty())
        UseList.erase(It);
      break;
    }
    case UndoRecord::Kind::UseSetErase:
      UseList[R.A] = std::move(SavedVecs.back());
      SavedVecs.pop_back();
      break;
    case UndoRecord::Kind::SigAppend: {
      auto It = SigTable.find(R.Hash);
      It->second.pop_back();
      if (It->second.empty())
        SigTable.erase(It);
      break;
    }
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

  // Congruence: if an existing registered term has the same signature,
  // the two must be equal.
  if (Arena.node(Term).NumOperands != 0)
    insertSignature(Term);
  propagate();
}

void CongruenceClosure::signatureOf(TermId Term, std::vector<uint64_t> &Out) {
  const TermNode &N = Arena.node(Term);
  Out.clear();
  Out.push_back(static_cast<uint64_t>(N.Kind));
  Out.push_back(static_cast<uint64_t>(N.Payload));
  for (TermId Op : Arena.operands(Term))
    Out.push_back(findRepr(Op));
}

void CongruenceClosure::insertSignature(TermId Term) {
  signatureOf(Term, SigBuf);
  size_t Hash = hashRange(SigBuf);
  auto &Bucket = SigTable[Hash];
  for (TermId Other : Bucket) {
    if (Other == Term)
      continue;
    signatureOf(Other, OtherSigBuf);
    if (OtherSigBuf == SigBuf)
      Pending.push_back({Term, Other});
  }
  Bucket.push_back(Term);
  log({UndoRecord::Kind::SigAppend, InvalidTerm, InvalidTerm, Hash});
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
  const auto &CA = ClassConstant.at(RA);
  const auto &CB = ClassConstant.at(RB);
  auto DA = Distincts.find(RA);
  if ((CA && CB && *CA != *CB) ||
      (DA != Distincts.end() && DA->second.count(RB))) {
    Conflict = true;
    return false;
  }
  ++Merges;

  // Merge the smaller use list into the larger (heuristic by list size).
  auto UseCount = [&](TermId R) {
    auto It = UseList.find(R);
    return It == UseList.end() ? 0 : It->second.size();
  };
  if (UseCount(RA) > UseCount(RB)) {
    std::swap(RA, RB);
    DA = Distincts.find(RA);
  }
  log({UndoRecord::Kind::ParentWrite, RA, RA});
  Parent[RA] = RB;
  if (const auto &Const = ClassConstant.at(RA)) {
    log({UndoRecord::Kind::ConstWrite, RB, InvalidTerm, 0,
         ClassConstant.at(RB)});
    ClassConstant[RB] = Const;
  }

  // Move disequalities.
  if (DA != Distincts.end()) {
    // Inserting below may rehash the map: keep a reference to the set
    // (stable) rather than the iterator (not).
    std::unordered_set<TermId> &Gone = DA->second;
    for (TermId D : Gone) {
      if (Distincts[RB].insert(D).second)
        log({UndoRecord::Kind::DistinctInsert, RB, D});
      if (Distincts[D].erase(RA) != 0)
        log({UndoRecord::Kind::DistinctErase, D, RA});
      if (Distincts[D].insert(RB).second)
        log({UndoRecord::Kind::DistinctInsert, D, RB});
    }
    if (recording()) {
      SavedSets.push_back(std::move(Gone));
      log({UndoRecord::Kind::DistinctSetErase, RA});
    }
    Distincts.erase(RA);
  }

  // Re-hash users of the merged class; enqueue congruent pairs.
  std::vector<TermId> Users;
  if (auto It = UseList.find(RA); It != UseList.end()) {
    Users = std::move(It->second);
    if (recording()) {
      SavedVecs.push_back(Users); // Copy: the list is still consumed below.
      log({UndoRecord::Kind::UseSetErase, RA});
    }
    UseList.erase(It);
  }
  for (TermId User : Users) {
    insertSignature(User);
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
  const auto &CA = ClassConstant.at(RA);
  const auto &CB = ClassConstant.at(RB);
  if (CA && CB && *CA != *CB)
    return true;
  auto It = Distincts.find(RA);
  return It != Distincts.end() && It->second.count(RB) != 0;
}

std::optional<int64_t> CongruenceClosure::constantOf(TermId Term) {
  addTerm(Term);
  return ClassConstant.at(findRepr(Term));
}
