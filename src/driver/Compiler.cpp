//===- driver/Compiler.cpp ------------------------------------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"

#include "codegen/Emit.h"
#include "frontend/Lower.h"
#include "frontend/Parser.h"
#include "frontend/Sema.h"
#include "gcsafety/GcSafety.h"
#include "gcsafety/Interproc.h"
#include "ir/Verifier.h"
#include "opt/Passes.h"

#include <algorithm>
#include <cassert>

using namespace mgc;
using namespace mgc::driver;
using namespace mgc::ir;

namespace {

/// Calls the optimizer passes on one function, skipping each call that
/// cannot change anything: a pass whose last call reported no change is
/// not called again until some pass has changed the function since, as it
/// would report no change again.  That rests on every pass leaving the
/// function untouched when it reports no change
/// (Opt.PassesReportingNoChangeLeaveTheFunctionUntouched).  A call that
/// reports no change but moved blocks, vregs or slots anyway
/// (simplifyCFG's unreachable-block sweep renumbers blocks) still counts
/// as a change of the function, without feeding the caller's round loop.
/// Every call gets the one opt::Scratch of the compile.
class PassRunner {
public:
  using Pass = bool (*)(Function &, opt::Scratch &);

  PassRunner(Function &F, opt::Scratch &S) : F(F), S(S) {}

  bool run(Pass P) {
    uint64_t &CleanAt = cleanAt(P);
    if (CleanAt == Version)
      return false;
    Layout.assign(F.Blocks.size(), nullptr);
    for (size_t B = 0; B != F.Blocks.size(); ++B)
      Layout[B] = F.Blocks[B].get();
    size_t VRegs = F.VRegs.size(), Slots = F.Slots.size();
    if (P(F, S)) {
      ++Version;
      return true;
    }
    if (VRegs != F.VRegs.size() || Slots != F.Slots.size() ||
        !std::equal(Layout.begin(), Layout.end(), F.Blocks.begin(),
                    F.Blocks.end(),
                    [](const BasicBlock *A, const auto &B) {
                      return A == B.get();
                    }))
      ++Version;
    else
      CleanAt = Version;
    return false;
  }

private:
  uint64_t &cleanAt(Pass P) {
    for (unsigned I = 0; I != NumPasses; ++I)
      if (Passes[I] == P)
        return CleanAt[I];
    assert(NumPasses != MaxPasses && "more passes than PassRunner holds");
    Passes[NumPasses] = P;
    return CleanAt[NumPasses++];
  }

  static constexpr unsigned MaxPasses = 12;
  Function &F;
  opt::Scratch &S;
  /// Bumped by every change of the function; starts above every CleanAt.
  uint64_t Version = 1;
  /// Per pass: the version at which it last reported no change, 0 if
  /// none.
  Pass Passes[MaxPasses] = {};
  uint64_t CleanAt[MaxPasses] = {};
  unsigned NumPasses = 0;
  std::vector<const BasicBlock *> Layout;
};

void runCleanupRound(PassRunner &R) {
  bool Changed = true;
  unsigned Rounds = 0;
  while (Changed && Rounds++ < 8) {
    Changed = false;
    Changed |= R.run(opt::simplifyCFG);
    Changed |= R.run(opt::foldConstants);
    Changed |= R.run(opt::propagateCopiesLocal);
    Changed |= R.run(opt::cseLocal);
    Changed |= R.run(opt::eliminateDeadCode);
  }
}

void optimizeFunction(Function &F, const CompilerOptions &Options,
                      opt::Scratch &S) {
  PassRunner R(F, S);
  runCleanupRound(R);

  // The derived-value factories (§2's optimizations).
  bool Changed = true;
  unsigned Rounds = 0;
  while (Changed && Rounds++ < 8) {
    Changed = false;
    Changed |= R.run(opt::rewriteVirtualOrigins);
    Changed |= R.run(opt::hoistLoopInvariants);
    if (Options.Mode == Disambiguation::PathSplitting) {
      Changed |= R.run(opt::unswitchLoops);
    } else {
      Changed |= R.run(opt::mergeDiamondTails);
      Changed |= R.run(opt::hoistInvariantDiamonds);
    }
    Changed |= R.run(opt::reduceStrength);
    if (Changed)
      runCleanupRound(R);
  }
  // Calls no pass when the last cleanup loop reached its fixed point and
  // nothing has changed the function since.
  runCleanupRound(R);
}

} // namespace

CompileResult driver::compile(const std::string &Source,
                              const CompilerOptions &Options) {
  CompileResult Result;

  auto AST = parseModule(Source, Result.Diags);
  if (!AST)
    return Result;
  if (!checkModule(*AST, Result.Diags))
    return Result;

  std::unique_ptr<IRModule> M = lowerModule(*AST);

  if (Options.OptLevel >= 2) {
    opt::Scratch S;
    for (auto &F : M->Functions)
      optimizeFunction(*F, Options, S);
  }

  unsigned GcPointsElided = 0;
  if (Options.InterprocGcPoints)
    GcPointsElided = gcsafety::elideNonTriggeringGcPoints(*M);

  unsigned LoopPolls = 0;
  if (Options.ThreadedPolls)
    for (auto &F : M->Functions)
      LoopPolls += gcsafety::insertLoopPolls(*F);

  // Barriers go in after optimization so they sit adjacent to the final
  // stores (the optimizer never has to reason about them).
  unsigned WriteBarriers = 0;
  if (Options.WriteBarriers)
    for (auto &F : M->Functions)
      WriteBarriers += gcsafety::insertWriteBarriers(*F);

  if (Options.InterprocGcPoints && Options.ThreadedPolls) {
    // Loop polls are gc-points: functions that gained one may now trigger
    // a collection, so calls to them must be gc-points after all.
    std::vector<bool> Triggers = gcsafety::computeMayTriggerGc(*M);
    for (auto &F : M->Functions)
      for (auto &BB : F->Blocks)
        for (ir::Instr &I : BB->Instrs)
          if (I.Op == ir::Opcode::Call && I.NoGcCallee &&
              Triggers[static_cast<size_t>(I.Index)]) {
            I.NoGcCallee = false;
            --GcPointsElided;
          }
  }

  std::vector<gcsafety::GcSafetyInfo> Safety(M->Functions.size());
  unsigned PathVars = 0, PathAssigns = 0;
  if (Options.GcTables)
    for (size_t I = 0; I != M->Functions.size(); ++I) {
      Safety[I] = gcsafety::assignPathVariables(*M->Functions[I]);
      PathVars += static_cast<unsigned>(Safety[I].PathVars.size());
      PathAssigns += Safety[I].PathAssignsInserted;
    }

  {
    std::vector<std::string> Issues = verifyModule(*M);
    for (const std::string &Issue : Issues)
      Result.Diags.error(SourceLoc(), "internal: IR verification: " + Issue);
    if (!Issues.empty())
      return Result;
  }

  // Emit every function and link.
  auto Prog = std::make_unique<vm::Program>();
  Prog->Name = M->Name;
  Prog->MainFunc = M->MainIndex;
  Prog->TypeDescs = M->TypeDescs;
  Prog->GlobalAreaWords = M->GlobalAreaWords;
  Prog->GlobalPtrWords = M->globalPointerWords();
  Prog->LoopPolls = LoopPolls;
  Prog->GcPointsElided = GcPointsElided;
  Prog->PathVars = PathVars;
  Prog->PathAssigns = PathAssigns;
  Prog->WriteBarriersEmitted = WriteBarriers;

  codegen::EmitOptions EO;
  EO.GcSafe = Options.GcTables;
  EO.CiscFold = Options.CiscFold;

  std::vector<gcmaps::FuncTableData> RawTables;
  // (Func, global PC, raw site) triples, accumulated across functions and
  // turned into the deduplicated program-wide site table below.
  struct PendingSite {
    uint32_t PC;
    gcmaps::AllocSite Site;
  };
  std::vector<PendingSite> PendingSites;
  // Every function is emitted before any is linked, so the program's code
  // vector is allocated once, at its final size.
  std::vector<codegen::EmitResult> Emitted;
  Emitted.reserve(M->Functions.size());
  size_t CodeSize = 0;
  for (size_t I = 0; I != M->Functions.size(); ++I) {
    Emitted.push_back(codegen::emitFunction(*M->Functions[I], Safety[I], EO));
    CodeSize += Emitted.back().Code.size();
  }
  Prog->Code.reserve(CodeSize);
  for (size_t I = 0; I != M->Functions.size(); ++I) {
    codegen::EmitResult &ER = Emitted[I];
    uint32_t Entry = static_cast<uint32_t>(Prog->Code.size());
    ER.Meta.EntryIndex = Entry;
    // Rebase control-flow targets and gc-point return addresses.
    for (vm::MInstr &MI : ER.Code) {
      if (MI.Op == vm::MOp::Jump || MI.Op == vm::MOp::Branch) {
        MI.Target0 += Entry;
        if (MI.Op == vm::MOp::Branch)
          MI.Target1 += Entry;
      }
      Prog->Code.push_back(MI);
    }
    for (gcmaps::GcPointData &P : ER.Tables.Points)
      P.RetPC += Entry;
    for (const codegen::RawAllocSite &RS : ER.AllocSites) {
      gcmaps::AllocSite S;
      S.Func = static_cast<uint32_t>(I);
      S.Line = RS.Line;
      S.Col = RS.Col;
      S.Desc = RS.Desc;
      PendingSites.push_back({Entry + RS.LocalPC, S});
    }
    Prog->Funcs.push_back(ER.Meta);
    RawTables.push_back(std::move(ER.Tables));
    Prog->CiscFoldsApplied += ER.CiscFoldsApplied;
    Prog->CiscFoldsBlocked += ER.CiscFoldsBlocked;
  }

  // Build the program-wide allocation-site table.  Sites deduplicate on
  // (Func, Line, Col, Desc) and are sorted, so ids are deterministic and
  // stable across optimization levels: when the optimizer duplicates a NEW
  // (e.g. loop unswitching), both copies attribute to the one source site.
  {
    gcmaps::SiteTable Raw;
    for (const PendingSite &P : PendingSites)
      Raw.Sites.push_back(P.Site);
    std::sort(Raw.Sites.begin(), Raw.Sites.end());
    Raw.Sites.erase(std::unique(Raw.Sites.begin(), Raw.Sites.end()),
                    Raw.Sites.end());
    for (const PendingSite &P : PendingSites) {
      auto It = std::lower_bound(Raw.Sites.begin(), Raw.Sites.end(), P.Site);
      assert(It != Raw.Sites.end() && *It == P.Site);
      Raw.Attrs.push_back(
          {P.PC, static_cast<uint32_t>(It - Raw.Sites.begin())});
    }
    // Attrs are already in ascending PC order (functions are emitted in
    // entry order, sites in code order within each).
    std::vector<uint8_t> Blob = gcmaps::encodeSiteTable(Raw);
    Prog->Sizes.SiteTableBytes = Blob.size();
    // Install the *decoded* table and patch instruction attributions from
    // it, so every compile round-trips the codec.
    Prog->SiteTab = gcmaps::decodeSiteTable(Blob);
    for (const gcmaps::SiteAttribution &A : Prog->SiteTab.Attrs) {
      assert(A.PC < Prog->Code.size());
      Prog->Code[A.PC].Site = A.Site;
    }
  }

  for (const gcmaps::FuncTableData &T : RawTables)
    Prog->Maps.push_back(
        gcmaps::encodeFunction(T, Prog->Sizes, Prog->Stats));
  // Install-time decode acceleration (§6.3's decode cost, amortized): the
  // collector resolves gc-points through these side indexes by default.
  Prog->buildMapIndexes();

  Prog->Image = codegen::serializeCode(Prog->Code);
  Result.Prog = std::move(Prog);
  Result.IR = std::move(M);
  return Result;
}

std::vector<CompileResult>
driver::compileBatch(const std::string &Source,
                     const std::vector<CompilerOptions> &Options) {
  std::vector<CompileResult> Results;
  Results.reserve(Options.size());
  for (const CompilerOptions &O : Options)
    Results.push_back(compile(Source, O));
  return Results;
}
