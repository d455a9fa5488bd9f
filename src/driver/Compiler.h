//===- driver/Compiler.h - Compilation pipeline -----------------*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public entry point of the compiler: MG source in, linked Program
/// out.  Options select the optimization level, whether gc tables are
/// emitted, the ambiguous-derivation strategy (path variables vs path
/// splitting, §4/Fig. 2), threaded-mode loop polls (§5.3), and the CISC
/// addressing fold (§6.2's indirect references).
///
//===----------------------------------------------------------------------===//

#ifndef MGC_DRIVER_COMPILER_H
#define MGC_DRIVER_COMPILER_H

#include "ir/IR.h"
#include "support/Diagnostics.h"
#include "vm/Program.h"

#include <memory>
#include <string>
#include <vector>

namespace mgc {
namespace driver {

enum class Disambiguation {
  PathVariables, ///< §4's chosen scheme: a runtime path variable.
  PathSplitting, ///< Figure 2: duplicate the loop per derivation path.
};

struct CompilerOptions {
  int OptLevel = 2; ///< 0 or 2.
  bool GcTables = true;
  bool CiscFold = false;
  bool ThreadedPolls = false;
  /// §5.3's interprocedural refinement: calls to procedures that can never
  /// trigger a collection are not gc-points (fewer, smaller tables).
  bool InterprocGcPoints = false;
  /// Generational support: emit a write barrier after every store of a
  /// tidy pointer through a possibly-heap address.  Required for running
  /// under VMOptions::GenGc; harmless (no-op barriers) otherwise.
  bool WriteBarriers = false;
  Disambiguation Mode = Disambiguation::PathVariables;
  bool operator==(const CompilerOptions &) const = default;
};

struct CompileResult {
  std::unique_ptr<vm::Program> Prog; ///< Null on error.
  Diagnostics Diags;
  /// The optimized IR the program was emitted from (ir::toString prints it
  /// as `mgc --dump-ir` shows it); null when compilation failed.
  std::unique_ptr<ir::IRModule> IR;
};

/// Compiles one MG module.
CompileResult compile(const std::string &Source,
                      const CompilerOptions &Options = CompilerOptions());

/// Compiles one source under several option sets (the differential
/// fuzzer's mode matrix).  Results are positionally parallel to
/// \p Options.  Each configuration runs the full pipeline from its own
/// parse: Sema and Lower annotate the AST in place, so sharing a single
/// front-end pass between configurations would not be sound.
std::vector<CompileResult>
compileBatch(const std::string &Source,
             const std::vector<CompilerOptions> &Options);

} // namespace driver
} // namespace mgc

#endif // MGC_DRIVER_COMPILER_H
