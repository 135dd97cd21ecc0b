#pragma once

#include <functional>
#include <string_view>

#include "util/args.hpp"

namespace gnnerator::util {

/// Wraps an example/tool entry point with a friendly error surface. The
/// tool accepts exactly the flags that `usage` spells as `--name`: any
/// other flag prints `error: unknown flag --<name>` plus the usage line to
/// stderr and exits 1 before `body` runs, and `--help` prints the usage
/// line to stdout and exits 0. It takes no positional arguments either: a
/// token that is neither a flag nor a flag's value prints `error:
/// unexpected argument '<token>'` plus the usage line to stderr and exits 1
/// before `body` runs. Any exception escaping `body` (bad flag values,
/// capacity violations, model misuse) prints `error: <message>` plus the
/// usage line to stderr and exits 1, instead of aborting with a raw
/// uncaught exception.
///
///   int main(int argc, char** argv) {
///     return util::cli_main(argc, argv, "[--dataset cora] [--block N]",
///                           [](const util::Args& args) { ...; return 0; });
///   }
int cli_main(int argc, char** argv, std::string_view usage,
             const std::function<int(const Args&)>& body);

/// Conventional plan-inspection flag shared by the example tools: any tool
/// that compiles a plan should honour `--dump-plan` by printing
/// core::LoweredModel::describe() and exiting 0 *before* simulating, so
/// users can inspect what the compiler chose for free. (The constant lives
/// here rather than in core so every CLI spells the flag identically.)
inline constexpr std::string_view kDumpPlanFlag = "dump-plan";

/// True when `--dump-plan` was given.
bool dump_plan_requested(const Args& args);

}  // namespace gnnerator::util
