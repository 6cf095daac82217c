/**
 * @file
 * Tests for the CLI argument parser (tools/cli_args.hh).
 */

#include <gtest/gtest.h>

#include "../tools/cli_args.hh"

using pka::tools::CliArgs;

namespace
{

std::vector<char *>
argvOf(std::vector<std::string> &storage)
{
    std::vector<char *> out;
    for (auto &s : storage)
        out.push_back(s.data());
    return out;
}

} // namespace

TEST(CliArgs, PositionalsAndValueFlags)
{
    std::vector<std::string> raw = {"pka", "select", "histo",
                                    "--target-error", "2.5",
                                    "--out", "x.csv"};
    auto argv = argvOf(raw);
    CliArgs args(static_cast<int>(argv.size()), argv.data(), 2, {},
                 {"target-error", "out"});
    ASSERT_EQ(args.positionals().size(), 1u);
    EXPECT_EQ(args.positionals()[0], "histo");
    EXPECT_TRUE(args.has("target-error"));
    EXPECT_DOUBLE_EQ(args.getNum("target-error", 5.0), 2.5);
    EXPECT_EQ(args.get("out"), "x.csv");
    EXPECT_EQ(args.get("missing", "dflt"), "dflt");
    EXPECT_DOUBLE_EQ(args.getNum("missing", 7.0), 7.0);
}

TEST(CliArgs, BooleanFlagsConsumeNoValue)
{
    std::vector<std::string> raw = {"pka", "simulate", "histo", "--pkp",
                                    "--threshold", "0.1"};
    auto argv = argvOf(raw);
    CliArgs args(static_cast<int>(argv.size()), argv.data(), 2, {"pkp"},
                 {"threshold"});
    EXPECT_TRUE(args.has("pkp"));
    EXPECT_DOUBLE_EQ(args.getNum("threshold", 0.25), 0.1);
    EXPECT_EQ(args.positionals().size(), 1u);
}

TEST(CliArgs, MissingValueIsFatal)
{
    std::vector<std::string> raw = {"pka", "select", "--out"};
    auto argv = argvOf(raw);
    EXPECT_DEATH(CliArgs(static_cast<int>(argv.size()), argv.data(), 2,
                         {}, {"out"}),
                 "needs a value");
}

TEST(CliArgs, MalformedNumberIsFatal)
{
    std::vector<std::string> raw = {"pka", "x", "--n", "abc"};
    auto argv = argvOf(raw);
    CliArgs args(static_cast<int>(argv.size()), argv.data(), 2, {}, {"n"});
    EXPECT_DEATH(args.getNum("n", 0), "expects a number");
}

TEST(CliArgs, UnknownFlagIsFatal)
{
    // A retired flag and a typo of a live one are both refused rather
    // than parsed and never read.
    const std::vector<std::string> bools = {"pkp"};
    const std::vector<std::string> values = {"threads"};
    std::vector<std::string> retired = {"pka", "simulate", "gauss_s16",
                                        "--sm-threads", "4"};
    auto argv = argvOf(retired);
    EXPECT_DEATH(CliArgs(static_cast<int>(argv.size()), argv.data(), 2,
                         bools, values),
                 "unknown flag --sm-threads");
    std::vector<std::string> typo = {"pka", "simulate", "gauss_s16",
                                     "--thread", "8"};
    argv = argvOf(typo);
    EXPECT_DEATH(CliArgs(static_cast<int>(argv.size()), argv.data(), 2,
                         bools, values),
                 "unknown flag --thread");
}
