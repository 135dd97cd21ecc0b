// Unit tests for the utility layer: PRNG, tables, CSV, stats, args, units.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "util/args.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/parse.hpp"
#include "util/prng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace gnnerator::util {
namespace {

// ---------------------------------------------------------------- checks --
TEST(Check, ThrowsCheckErrorWithContext) {
  try {
    GNNERATOR_CHECK_MSG(1 == 2, "context " << 42);
    FAIL() << "expected throw";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("context 42"), std::string::npos);
  }
}

TEST(Check, PassingCheckDoesNotThrow) {
  EXPECT_NO_THROW(GNNERATOR_CHECK(2 + 2 == 4));
}

// ------------------------------------------------------------------ prng --
TEST(Prng, DeterministicForSameSeed) {
  Prng a(123);
  Prng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Prng, DifferentSeedsDiverge) {
  Prng a(1);
  Prng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.next_u64() == b.next_u64() ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

TEST(Prng, UniformBoundRespected) {
  Prng prng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(prng.uniform_u64(17), 17u);
  }
}

TEST(Prng, UniformBoundZeroThrows) {
  Prng prng(7);
  EXPECT_THROW(prng.uniform_u64(0), CheckError);
}

TEST(Prng, UniformDoublesInHalfOpenUnitInterval) {
  Prng prng(13);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = prng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Prng, NormalMomentsRoughlyStandard) {
  Prng prng(17);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = prng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.08);
}

TEST(Prng, PermutationIsValid) {
  Prng prng(19);
  const auto p = prng.permutation(257);
  std::set<std::uint32_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 257u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 256u);
}

TEST(Prng, WeightedIndexFollowsWeights) {
  Prng prng(23);
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 20000; ++i) {
    ++counts[prng.weighted_index(weights)];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
}

TEST(Prng, WeightedIndexRejectsBadInput) {
  Prng prng(29);
  EXPECT_THROW(prng.weighted_index({}), CheckError);
  EXPECT_THROW(prng.weighted_index({-1.0, 2.0}), CheckError);
  EXPECT_THROW(prng.weighted_index({0.0, 0.0}), CheckError);
}

TEST(Prng, ForkedStreamsAreIndependent) {
  Prng parent(31);
  Prng a = parent.fork(1);
  Prng b = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.next_u64() == b.next_u64() ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

// ----------------------------------------------------------------- table --
TEST(Table, AlignsColumnsAndCountsRows) {
  Table t({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  EXPECT_EQ(t.num_rows(), 2u);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("333"), std::string::npos);
  EXPECT_NE(s.find("bb"), std::string::npos);
}

TEST(Table, RejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

TEST(Table, SpeedupAndFixedFormatting) {
  EXPECT_EQ(Table::speedup(3.14159), "3.1x");
  EXPECT_EQ(Table::speedup(2.0, 2), "2.00x");
  EXPECT_EQ(Table::fixed(1.5, 3), "1.500");
}

// ------------------------------------------------------------------- csv --
TEST(Csv, WritesHeaderAndRows) {
  CsvWriter csv({"x", "y"});
  csv.add_row({"1", "2"});
  EXPECT_EQ(csv.to_string(), "x,y\n1,2\n");
  EXPECT_EQ(csv.num_rows(), 1u);
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, RejectsArityMismatch) {
  CsvWriter csv({"x", "y"});
  EXPECT_THROW(csv.add_row({"1", "2", "3"}), CheckError);
}

TEST(Csv, ParsesPlainRows) {
  const auto rows = parse_csv("a,b,c\n1,2,3\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"1", "2", "3"}));
}

TEST(Csv, ParsesQuotingCrlfAndEmptyCells) {
  const auto rows = parse_csv("\"a,b\",\"say \"\"hi\"\"\",\"line\nbreak\"\r\nx,,\r\nlast");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a,b", "say \"hi\"", "line\nbreak"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"x", "", ""}));
  EXPECT_EQ(rows[2], (std::vector<std::string>{"last"}));  // no trailing newline
}

TEST(Csv, ParseRoundTripsWriter) {
  CsvWriter csv({"name", "note"});
  csv.add_row({"a,b", "say \"hi\""});
  csv.add_row({"plain", "line\nbreak"});
  const auto rows = parse_csv(csv.to_string());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[1], (std::vector<std::string>{"a,b", "say \"hi\""}));
  EXPECT_EQ(rows[2], (std::vector<std::string>{"plain", "line\nbreak"}));
}

TEST(Csv, ParseRejectsUnterminatedQuote) {
  EXPECT_THROW((void)parse_csv("\"oops"), CheckError);
}

// ----------------------------------------------------------------- stats --
TEST(Stats, GeomeanOfPowersOfTwo) {
  const std::vector<double> v = {1.0, 4.0};
  EXPECT_NEAR(geomean(v), 2.0, 1e-12);
}

TEST(Stats, GeomeanRejectsNonPositive) {
  const std::vector<double> v = {1.0, 0.0};
  EXPECT_THROW(geomean(v), CheckError);
  EXPECT_THROW(geomean(std::vector<double>{}), CheckError);
}

TEST(Stats, MinAndMaxValue) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(min_value(v), 1.0);
  EXPECT_DOUBLE_EQ(max_value(v), 4.0);
}

TEST(Stats, RunningStatsTracksMeanAndMax) {
  RunningStats rs;
  EXPECT_THROW((void)rs.mean(), CheckError);
  rs.add(2.0);
  rs.add(-1.0);
  rs.add(5.0);
  EXPECT_EQ(rs.count(), 3u);
  EXPECT_DOUBLE_EQ(rs.sum(), 6.0);
  EXPECT_DOUBLE_EQ(rs.max(), 5.0);
  EXPECT_DOUBLE_EQ(rs.mean(), 2.0);
}

TEST(Stats, StreamingQuantilesExactMatchesBruteForce) {
  // Within the bound, quantiles equal a brute-force sort with linear
  // interpolation, whatever the insertion order.
  Prng prng(11);
  std::vector<double> values;
  StreamingQuantiles sq(/*bound=*/512);
  for (int i = 0; i < 400; ++i) {
    const double v = prng.normal(10.0, 3.0);
    values.push_back(v);
    sq.add(v);
  }
  ASSERT_TRUE(sq.exact());
  std::sort(values.begin(), values.end());
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    const double rank = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double brute =
        values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
    EXPECT_DOUBLE_EQ(sq.quantile(q), brute) << "q=" << q;
  }
}

TEST(Stats, StreamingQuantilesReservoirApproximatesKnownDistribution) {
  // Past the bound the reservoir is a uniform sample: quantiles of U(0,1)
  // land close to q itself. 50k samples into a 2k reservoir.
  Prng prng(1234);
  StreamingQuantiles sq(/*bound=*/2048);
  for (int i = 0; i < 50'000; ++i) {
    sq.add(prng.uniform());
  }
  EXPECT_FALSE(sq.exact());
  EXPECT_EQ(sq.count(), 50'000u);
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_NEAR(sq.quantile(q), q, 0.05) << "q=" << q;
  }
}

TEST(Stats, StreamingQuantilesDeterministicAndValidating) {
  // Same sample stream -> identical reservoir, bit for bit.
  StreamingQuantiles a(/*bound=*/64), b(/*bound=*/64);
  Prng pa(9), pb(9);
  for (int i = 0; i < 1000; ++i) {
    a.add(pa.uniform());
    b.add(pb.uniform());
  }
  EXPECT_DOUBLE_EQ(a.quantile(0.5), b.quantile(0.5));
  EXPECT_DOUBLE_EQ(a.quantile(0.99), b.quantile(0.99));

  StreamingQuantiles empty;
  EXPECT_THROW((void)empty.quantile(0.5), CheckError);
  empty.add(1.0);
  EXPECT_THROW((void)empty.quantile(1.5), CheckError);
  EXPECT_THROW(StreamingQuantiles(0), CheckError);
}

// ------------------------------------------------------------------ args --
TEST(Args, ParsesAllForms) {
  const char* argv[] = {"prog", "--key=value", "--flag", "--num", "42", "positional"};
  Args args(6, argv);
  EXPECT_EQ(args.get("key"), "value");
  EXPECT_TRUE(args.has("flag"));
  EXPECT_TRUE(args.get_bool("flag", false));
  EXPECT_EQ(args.get_int("num", 0), 42);
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "positional");
  EXPECT_EQ(args.get("missing", "fallback"), "fallback");
  EXPECT_EQ(args.get_int("missing", -1), -1);
}

TEST(Args, MalformedNumbersThrow) {
  const char* argv[] = {"prog", "--num=abc"};
  Args args(2, argv);
  EXPECT_THROW((void)args.get_int("num", 0), CheckError);
}

TEST(Args, BooleanSpellings) {
  const char* argv[] = {"prog", "--a=true", "--b=0", "--c=yes", "--d=off"};
  Args args(5, argv);
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_FALSE(args.get_bool("b", true));
  EXPECT_TRUE(args.get_bool("c", false));
  EXPECT_FALSE(args.get_bool("d", true));
}

// ------------------------------------------------------------------- cli --
constexpr std::string_view kCliUsage = "[--json <path>] [--iters N] [--keep-trace]";

/// cli_main over `prog <tokens>` and kCliUsage, with a body that counts its
/// runs and exits 0 when --iters is 3.
int run_cli(std::vector<std::string> tokens, int& body_runs) {
  tokens.insert(tokens.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& token : tokens) {
    argv.push_back(token.data());
  }
  return cli_main(static_cast<int>(argv.size()), argv.data(), kCliUsage,
                  [&body_runs](const Args& args) {
                    ++body_runs;
                    return args.get_int("iters", 0) == 3 ? 0 : 2;
                  });
}

TEST(Cli, UsageFlagsReachTheBody) {
  int runs = 0;
  EXPECT_EQ(run_cli({"--iters", "3", "--json=out.json", "--keep-trace"}, runs), 0);
  EXPECT_EQ(run_cli({}, runs), 2);
  EXPECT_EQ(runs, 2);

  // A bad value of a known flag fails inside the body.
  testing::internal::CaptureStderr();
  EXPECT_EQ(run_cli({"--iters", "three"}, runs), 1);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(runs, 3);
  EXPECT_NE(err.find("malformed integer for --iters"), std::string::npos) << err;
}

TEST(Cli, UnknownFlagExitsOneWithoutRunningTheBody) {
  // "--jsn" is a typo, "--path" a word of the usage that is not a flag, and
  // "--keep" a prefix of one.
  for (const char* flag : {"--jsn", "--path", "--keep", "--jsn=out.json"}) {
    int runs = 0;
    testing::internal::CaptureStderr();
    EXPECT_EQ(run_cli({"--iters", "3", flag, "out.json"}, runs), 1) << flag;
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(runs, 0) << flag;
    const std::string name = std::string(flag).substr(0, std::string(flag).find('='));
    EXPECT_EQ(err, "error: unknown flag " + name + "\nusage: prog " + std::string(kCliUsage) +
                       "\n");
  }
}

TEST(Cli, PositionalArgumentExitsOneWithoutRunningTheBody) {
  // A bare word, and one after a flag's value ("3" is the value of --iters).
  for (const std::vector<std::string>& tokens : {std::vector<std::string>{"pubmed"},
                                                 {"--iters", "3", "out.json"}}) {
    int runs = 0;
    testing::internal::CaptureStderr();
    EXPECT_EQ(run_cli(tokens, runs), 1);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(runs, 0);
    EXPECT_EQ(err, "error: unexpected argument '" + tokens.back() + "'\nusage: prog " +
                       std::string(kCliUsage) + "\n");
  }
}

TEST(Cli, HelpPrintsUsageAndExitsZero) {
  int runs = 0;
  testing::internal::CaptureStdout();
  EXPECT_EQ(run_cli({"--help"}, runs), 0);
  EXPECT_EQ(testing::internal::GetCapturedStdout(),
            "usage: prog " + std::string(kCliUsage) + "\n");
  EXPECT_EQ(runs, 0);
}

// ----------------------------------------------------------------- units --
TEST(Units, CeilDivAndRoundUp) {
  EXPECT_EQ(ceil_div(10, 3), 4u);
  EXPECT_EQ(ceil_div(9, 3), 3u);
  EXPECT_EQ(round_up(10, 64), 64u);
  EXPECT_EQ(round_up(64, 64), 64u);
  EXPECT_EQ(round_up(65, 64), 128u);
}

TEST(Units, ByteFormatting) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2 * kMiB), "2.0 MiB");
  EXPECT_EQ(format_bytes(24 * kMiB), "24.0 MiB");
}

TEST(Units, CycleFormattingWithSeparators) {
  EXPECT_EQ(format_cycles(1), "1");
  EXPECT_EQ(format_cycles(1234), "1,234");
  EXPECT_EQ(format_cycles(1234567), "1,234,567");
}

// --------------------------------------------------------- parse helpers --
TEST(Parse, TrimStripsAsciiWhitespace) {
  EXPECT_EQ(trim("  a b \t"), "a b");
  EXPECT_EQ(trim("\r\nx\r\n"), "x");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("plain"), "plain");
}

TEST(Parse, StrictDoubleRejectsTrailingGarbage) {
  EXPECT_EQ(parse_double("1.5"), 1.5);
  EXPECT_EQ(parse_double(" 1.5 "), 1.5);   // whitespace around the number is fine
  EXPECT_EQ(parse_double("\t-2.25\r"), -2.25);
  EXPECT_EQ(parse_double("1e3"), 1000.0);
  EXPECT_EQ(parse_double("1.5x"), std::nullopt);  // stod would return 1.5
  EXPECT_EQ(parse_double("x1.5"), std::nullopt);
  EXPECT_EQ(parse_double("1.5 2.5"), std::nullopt);
  EXPECT_EQ(parse_double(""), std::nullopt);
  EXPECT_EQ(parse_double("   "), std::nullopt);
}

TEST(Parse, StrictUintRejectsSignsAndFractions) {
  EXPECT_EQ(parse_uint("42"), 42u);
  EXPECT_EQ(parse_uint(" 7 "), 7u);
  EXPECT_EQ(parse_uint("4.2"), std::nullopt);
  EXPECT_EQ(parse_uint("-1"), std::nullopt);
  EXPECT_EQ(parse_uint("12a"), std::nullopt);
  EXPECT_EQ(parse_uint(""), std::nullopt);
}

TEST(Parse, CountListFleetSpecGrammar) {
  const auto fleet = parse_count_list("2xbaseline,1xnextgen");
  ASSERT_EQ(fleet.size(), 2u);
  EXPECT_EQ(fleet[0].count, 2u);
  EXPECT_EQ(fleet[0].name, "baseline");
  EXPECT_EQ(fleet[1].count, 1u);
  EXPECT_EQ(fleet[1].name, "nextgen");

  // Bare names count 1; whitespace around elements is ignored; a name that
  // merely contains an 'x' is not a count prefix.
  const auto bare = parse_count_list(" baseline , 3x2x-bw ");
  ASSERT_EQ(bare.size(), 2u);
  EXPECT_EQ(bare[0].count, 1u);
  EXPECT_EQ(bare[0].name, "baseline");
  EXPECT_EQ(bare[1].count, 3u);
  EXPECT_EQ(bare[1].name, "2x-bw");
  const auto xish = parse_count_list("2x-bw");
  ASSERT_EQ(xish.size(), 1u);
  EXPECT_EQ(xish[0].count, 1u);
  EXPECT_EQ(xish[0].name, "2x-bw");

  EXPECT_THROW((void)parse_count_list(""), CheckError);
  EXPECT_THROW((void)parse_count_list(" , "), CheckError);
  EXPECT_THROW((void)parse_count_list("0xbaseline"), CheckError);
  EXPECT_THROW((void)parse_count_list("2x"), CheckError);
}

// ------------------------------------------------- csv fuzz regressions --
TEST(Csv, CrOnlyLineEndingsEndRows) {
  // Classic-Mac CR endings: previously the '\r' was silently dropped and
  // "a\rb" collapsed into one cell "ab".
  const auto rows = parse_csv("a,b\rc,d\r");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"c", "d"}));
}

TEST(Csv, CrlfDoesNotProduceEmptyRows) {
  const auto rows = parse_csv("h1,h2\r\n1,2\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], (std::vector<std::string>{"1", "2"}));
}

TEST(Csv, EmptyTrailingFieldIsAnEmptyCell) {
  const auto rows = parse_csv("a,b,\n,x,\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b", ""}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"", "x", ""}));
  // ... also on the final row without a trailing newline.
  const auto tail = parse_csv("a,b,");
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0], (std::vector<std::string>{"a", "b", ""}));
}

TEST(Csv, HeaderOnlyFileParsesToOneRow) {
  const auto rows = parse_csv("arrival_ms,dataset,model,slo_ms\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].size(), 4u);
}

TEST(Csv, QuotedCellsPreserveCarriageReturns) {
  const auto rows = parse_csv("\"a\rb\",c");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a\rb", "c"}));
}

// ------------------------------------------------- incremental csv reader --
namespace {

/// Writes `text` to a temp file and returns the path (caller removes it).
std::string write_temp_csv(const std::string& text, const std::string& tag) {
  const std::string path =
      (std::filesystem::temp_directory_path() / ("gnnerator_csv_" + tag + ".csv")).string();
  std::ofstream out(path, std::ios::binary);
  out << text;
  return path;
}

std::vector<std::vector<std::string>> stream_all(const std::string& path,
                                                 std::size_t chunk_bytes,
                                                 std::size_t* peak = nullptr) {
  CsvStreamReader reader(path, chunk_bytes);
  std::vector<std::vector<std::string>> rows;
  while (auto row = reader.next_row()) {
    rows.push_back(std::move(*row));
  }
  if (peak != nullptr) {
    *peak = reader.peak_buffer_bytes();
  }
  return rows;
}

}  // namespace

/// The incremental reader speaks the exact dialect of parse_csv: for every
/// tricky input (quotes, embedded commas/newlines/CRLF, doubled quotes,
/// blank lines, missing trailing newline) and every chunk size — including
/// chunks so small that every quote and CRLF straddles a refill boundary —
/// the streamed rows equal the one-shot parse.
TEST(CsvStream, MatchesParseCsvAtEveryChunkSize) {
  const std::vector<std::string> inputs = {
      "a,b,c\n1,2,3\n",
      "\"a,b\",\"say \"\"hi\"\"\",\"line\nbreak\"\r\nx,,\r\nlast",
      "a,b\rc,d\r",
      "h1,h2\r\n1,2\r\n",
      "a,b,\n,x,\n",
      "a,b,",
      "arrival_ms,dataset,model,slo_ms\n",
      "\"a\rb\",c",
      "\n\none,two\n\nthree,four\n\n",
      "\"multi\r\nline\r\ncell\",x\r\ny,\"\"\r\n",
  };
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto expected = parse_csv(inputs[i]);
    const std::string path = write_temp_csv(inputs[i], "dialect" + std::to_string(i));
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                    std::size_t{7}, std::size_t{64 * 1024}}) {
      SCOPED_TRACE("input " + std::to_string(i) + " chunk " + std::to_string(chunk));
      EXPECT_EQ(stream_all(path, chunk), expected);
    }
    std::remove(path.c_str());
  }
}

TEST(CsvStream, BufferStaysBoundedByChunkPlusWidestRow) {
  // 2000 rows of ~30 bytes: the reader must never hold more than one chunk
  // plus one in-progress row, however long the file is.
  std::string text = "arrival_ms,dataset,model,slo_ms\n";
  for (int i = 0; i < 2000; ++i) {
    text += std::to_string(i) + ".5,cora,gcn,2.0\n";
  }
  const std::string path = write_temp_csv(text, "bounded");
  constexpr std::size_t kChunk = 256;
  std::size_t peak = 0;
  const auto rows = stream_all(path, kChunk, &peak);
  EXPECT_EQ(rows.size(), 2001u);
  EXPECT_LE(peak, kChunk + 64) << "reader buffered more than a chunk + one row";
  EXPECT_LT(peak, text.size() / 10) << "reader effectively materialized the file";
  std::remove(path.c_str());
}

TEST(CsvStream, UnterminatedQuoteThrows) {
  const std::string path = write_temp_csv("a,\"open quote\nnever closed", "unterminated");
  CsvStreamReader reader(path, 8);
  try {
    while (reader.next_row()) {
    }
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("quoted"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(CsvStream, MissingFileThrows) {
  EXPECT_THROW(CsvStreamReader("/nonexistent/gnnerator.csv", 64), CheckError);
}

TEST(CsvStream, RowsReadCountsDataRows) {
  const std::string path = write_temp_csv("h\n1\n2\n3\n", "count");
  CsvStreamReader reader(path, 4);
  std::size_t n = 0;
  while (reader.next_row()) {
    ++n;
  }
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(reader.rows_read(), 4u);
  EXPECT_FALSE(reader.next_row().has_value()) << "drained reader must stay drained";
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gnnerator::util
