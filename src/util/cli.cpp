#include "util/cli.hpp"

#include <algorithm>
#include <exception>
#include <iostream>
#include <set>
#include <string>

namespace gnnerator::util {

namespace {

/// The names of the `--name` tokens in `usage`.
std::set<std::string, std::less<>> usage_flags(std::string_view usage) {
  constexpr std::string_view kNameChars =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-";
  std::set<std::string, std::less<>> names;
  for (std::size_t at = usage.find("--"); at != std::string_view::npos;
       at = usage.find("--", at)) {
    at += 2;
    const std::size_t end = std::min(usage.find_first_not_of(kNameChars, at), usage.size());
    names.emplace(usage.substr(at, end - at));
    at = end;
  }
  return names;
}

}  // namespace

int cli_main(int argc, char** argv, std::string_view usage,
             const std::function<int(const Args&)>& body) {
  const char* program = argc > 0 ? argv[0] : "tool";
  const auto print_usage = [&](std::ostream& os) {
    os << "usage: " << program << (usage.empty() ? "" : " ") << usage << '\n';
  };
  // Every `--name` token is a flag (util::Args never takes one as a value);
  // each must be `--help` or a flag the usage string spells.
  const auto known = usage_flags(usage);
  for (int i = 1; i < argc; ++i) {
    const std::string_view token = argv[i];
    if (!token.starts_with("--")) {
      continue;
    }
    const std::string_view name = token.substr(2, token.find('=') - 2);
    if (name == "help") {
      print_usage(std::cout);
      return 0;
    }
    if (!known.contains(name)) {
      std::cerr << "error: unknown flag --" << name << '\n';
      print_usage(std::cerr);
      return 1;
    }
  }
  const Args args(argc, argv);
  if (!args.positional().empty()) {
    std::cerr << "error: unexpected argument '" << args.positional().front() << "'\n";
    print_usage(std::cerr);
    return 1;
  }
  try {
    return body(args);
  } catch (const std::exception& e) {
    // CheckError (every GNNERATOR_CHECK failure) lands here too; it
    // derives from std::logic_error and needs no separate handling.
    std::cerr << "error: " << e.what() << '\n';
  }
  print_usage(std::cerr);
  return 1;
}

bool dump_plan_requested(const Args& args) { return args.has(std::string(kDumpPlanFlag)); }

}  // namespace gnnerator::util
