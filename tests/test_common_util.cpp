// Tests for common/table, common/stats, common/cli.
#include <gtest/gtest.h>

#include "common/check.h"
#include "common/cli.h"
#include "common/stats.h"
#include "common/table.h"

namespace gcs {
namespace {

TEST(AsciiTable, RendersAlignedColumns) {
  AsciiTable t({"Task", "b=2"});
  t.add_row({"BERT", "3.87"});
  t.add_row({"VGG19", "13.9"});
  const auto s = t.to_string();
  EXPECT_NE(s.find("Task"), std::string::npos);
  EXPECT_NE(s.find("VGG19 | 13.9"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(AsciiTable, ArityMismatchThrows) {
  AsciiTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::logic_error);
}

TEST(AsciiTable, CsvEscapesCommas) {
  AsciiTable t({"name", "value"});
  t.add_row({"a,b", "1"});
  const auto csv = t.to_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
}

TEST(Format, Significant) {
  EXPECT_EQ(format_sig(0.0865, 3), "0.0865");
  EXPECT_EQ(format_sig(0.0), "0");
  EXPECT_EQ(format_sig(21.5, 3), "21.5");
}

TEST(Format, Percent) {
  EXPECT_EQ(format_percent(0.097, 1), "9.7%");
}

TEST(RunningStats, MeanVarMinMax) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_EQ(s.count(), 4u);
}

TEST(RunningStats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RollingAverage, WindowDropsOldSamples) {
  RollingAverage r(3);
  r.add(3.0);
  r.add(6.0);
  EXPECT_DOUBLE_EQ(r.value(), 4.5);
  r.add(9.0);
  EXPECT_DOUBLE_EQ(r.value(), 6.0);
  r.add(12.0);  // 3.0 falls out
  EXPECT_DOUBLE_EQ(r.value(), 9.0);
}

TEST(Percentile, InterpolatesLinearly) {
  std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.25), 2.0);
}

TEST(Cli, ParsesKeyValueForms) {
  const char* argv[] = {"prog", "--alpha=2.5", "--name", "bert", "--flag"};
  CliFlags flags(5, argv);
  EXPECT_DOUBLE_EQ(flags.get_double("alpha", 0.0), 2.5);
  EXPECT_EQ(flags.get_string("name", ""), "bert");
  EXPECT_TRUE(flags.get_bool("flag", false));
  EXPECT_EQ(flags.get_int("missing", 9), 9);
}

TEST(Cli, HelpDetected) {
  const char* argv[] = {"prog", "--help"};
  CliFlags flags(2, argv);
  EXPECT_TRUE(flags.help_requested());
}

TEST(Cli, BadIntThrows) {
  const char* argv[] = {"prog", "--n=abc"};
  CliFlags flags(2, argv);
  EXPECT_THROW(flags.get_int("n", 0), Error);
}

TEST(Cli, Positional) {
  const char* argv[] = {"prog", "file.csv", "--x=1"};
  CliFlags flags(3, argv);
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "file.csv");
}

TEST(Cli, BareBooleanBeforePositionalKeepsThePositional) {
  // "gcs_analyze --gate trace.json": the token after a bare boolean is a
  // positional, not the flag's value.
  const char* argv[] = {"prog", "a.json", "--gate", "trace.json", "--x=1"};
  CliFlags flags(5, argv);
  EXPECT_TRUE(flags.get_bool("gate", false));
  EXPECT_EQ(flags.get_int("x", 0), 1);
  EXPECT_NO_THROW(flags.reject_unknown());
  EXPECT_EQ(flags.positional(),
            (std::vector<std::string>{"a.json", "trace.json"}));
  EXPECT_TRUE(flags.get_bool("gate", false));  // stable on a second read
  EXPECT_EQ(flags.positional().size(), 2u);
}

TEST(Cli, BareBooleanAfterPositional) {
  const char* argv[] = {"prog", "trace.json", "--gate"};
  CliFlags flags(3, argv);
  EXPECT_TRUE(flags.get_bool("gate", false));
  EXPECT_EQ(flags.positional(), (std::vector<std::string>{"trace.json"}));
}

TEST(Cli, SpacedBooleanLiteralStaysTheValue) {
  const char* argv[] = {"prog", "--gate", "false", "trace.json"};
  CliFlags flags(4, argv);
  EXPECT_FALSE(flags.get_bool("gate", true));
  EXPECT_EQ(flags.positional(), (std::vector<std::string>{"trace.json"}));
  // "--name=value" never hands its value back.
  const char* eq_argv[] = {"prog", "--gate=maybe"};
  CliFlags eq_flags(2, eq_argv);
  EXPECT_THROW(eq_flags.get_bool("gate", false), Error);
}

TEST(Cli, RejectUnknownNamesTheUnreadFlag) {
  // A typo (--elastc) or a retired knob must not silently run a different
  // experiment.
  const char* argv[] = {"prog", "--world=4", "--elastc", "--engine=old"};
  CliFlags flags(4, argv);
  EXPECT_EQ(flags.get_int("world", 0), 4);
  EXPECT_FALSE(flags.get_bool("elastic", false));
  try {
    flags.reject_unknown();
    FAIL() << "unread flags were accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--elastc"), std::string::npos)
        << e.what();
  }
  (void)flags.get_bool("elastc", false);
  try {
    flags.reject_unknown();
    FAIL() << "--engine was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--engine"), std::string::npos)
        << e.what();
  }
}

TEST(Cli, RejectUnknownAcceptsEveryReadFlag) {
  const char* argv[] = {"prog", "--a=1", "--b", "x", "--c", "pos"};
  CliFlags flags(6, argv);
  (void)flags.get_int("a", 0);
  (void)flags.get_string("b", "");
  EXPECT_TRUE(flags.has("c"));  // a presence query counts as a read
  (void)flags.get_double("never-passed", 0.0);
  EXPECT_NO_THROW(flags.reject_unknown());
}

}  // namespace
}  // namespace gcs
