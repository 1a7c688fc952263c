// Keeps the eventhit_cli help text in lockstep with the implemented flags:
// every flag the tool parses (a Get*("name") call in tools/eventhit_cli.cc
// or in the shared flag parsers it calls, kFlagParserSources) must be
// mentioned as --name in the CLI file (i.e. in PrintUsage or a doc
// comment), and every --name the CLI file mentions must be parsed. Adding a
// flag without documenting it — or documenting a flag that was removed —
// fails here. This is the regression test for the help-text drift fixed in
// the backend PR (generate/--load/--out/--frames were implemented but
// undocumented).

#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace {

std::string ReadSource(const std::string& relative) {
  const std::string path = std::string(EVENTHIT_SOURCE_DIR) + "/" + relative;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string ReadCliSource() { return ReadSource("tools/eventhit_cli.cc"); }

// Library files whose flag parsers eventhit_cli calls (the runner knobs
// and the fleet knobs `fleet` and `explain` share).
constexpr const char* kFlagParserSources[] = {"src/eval/runner.cc",
                                              "src/fleet/stream_fleet.cc"};

std::set<std::string> Collect(const std::string& text,
                              const std::regex& pattern, int group) {
  std::set<std::string> names;
  for (auto it = std::sregex_iterator(text.begin(), text.end(), pattern);
       it != std::sregex_iterator(); ++it) {
    names.insert((*it)[group].str());
  }
  return names;
}

// Every flag name passed to a Flags::Get* call in the CLI or its parsers.
std::set<std::string> ImplementedFlags() {
  const std::regex get(
      R"(Get(?:String|Int|Double|Bool)\("([a-z][a-z0-9-]*)\")");
  std::set<std::string> names = Collect(ReadCliSource(), get, 1);
  for (const char* relative : kFlagParserSources) {
    const std::set<std::string> more = Collect(ReadSource(relative), get, 1);
    names.insert(more.begin(), more.end());
  }
  return names;
}

// Flag-shaped tokens that are not CLI flags of eventhit_cli itself:
// "--flag" is the generic placeholder in the Flags-parser comment, and
// "--help" is a subcommand alias handled before flag parsing.
const std::set<std::string>& MentionAllowlist() {
  static const std::set<std::string> allow = {"flag", "help"};
  return allow;
}

TEST(CliHelpSyncTest, EveryImplementedFlagIsDocumented) {
  const std::string source = ReadCliSource();
  const auto implemented = ImplementedFlags();
  ASSERT_GT(implemented.size(), 20u) << "flag extraction broke";
  for (const std::string& flag : implemented) {
    EXPECT_NE(source.find("--" + flag), std::string::npos)
        << "--" << flag
        << " is parsed by eventhit_cli but never mentioned in its help "
           "text or comments — document it in PrintUsage()";
  }
}

TEST(CliHelpSyncTest, EveryDocumentedFlagIsImplemented) {
  const std::string source = ReadCliSource();
  const auto implemented = ImplementedFlags();
  const auto mentioned =
      Collect(source, std::regex(R"(--([a-z][a-z0-9-]*))"), 1);
  for (const std::string& flag : mentioned) {
    if (MentionAllowlist().count(flag)) continue;
    EXPECT_TRUE(implemented.count(flag))
        << "--" << flag
        << " appears in eventhit_cli's help text/comments but no "
           "Get*(\"" << flag << "\") parses it — stale documentation";
  }
}

TEST(CliHelpSyncTest, UsageListsEverySubcommand) {
  const std::string source = ReadCliSource();
  // The dispatch in main(): `if (command == "...") rc = Run...`.
  const auto dispatched = Collect(
      source, std::regex(R"re(command == "([a-z]+)"\) rc =)re"), 1);
  ASSERT_GE(dispatched.size(), 6u) << "subcommand extraction broke";
  // The summary line may be split across adjacent string literals, so
  // anchor on the prefix and scan to the closing '>' of the command list.
  const auto usage_start = source.find("usage: eventhit_cli");
  ASSERT_NE(usage_start, std::string::npos);
  const auto usage_end = source.find(">", usage_start);
  ASSERT_NE(usage_end, std::string::npos);
  const std::string summary =
      source.substr(usage_start, usage_end - usage_start);
  for (const std::string& command : dispatched) {
    EXPECT_NE(summary.find(command), std::string::npos)
        << "subcommand '" << command
        << "' is dispatched in main() but missing from the usage summary "
           "line";
  }
  EXPECT_NE(summary.find("help"), std::string::npos);
}

}  // namespace
