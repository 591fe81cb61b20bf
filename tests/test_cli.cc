// Tests for rdsim's command-line parsing (sim/cli.h): numbers follow the
// one decimal grammar of common/text.h, and every rejected value names
// its flag.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/text.h"
#include "sim/cli.h"

namespace rdsim::sim {
namespace {

CliOptions parse(std::vector<std::string> args) {
  args.insert(args.begin(), "rdsim");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return parse_cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, SeedIsDecimal) {
  // A leading zero is decimal, not octal.
  const CliOptions options = parse({"--seed", "010"});
  EXPECT_TRUE(options.error.empty()) << options.error;
  EXPECT_EQ(options.config.seed, 10u);
  EXPECT_EQ(parse({"--seed", "18446744073709551615"}).config.seed,
            18446744073709551615ULL);
}

TEST(Cli, NumbersParse) {
  const CliOptions options =
      parse({"--threads", "3", "--scale", "0.5", "--checkpoint-every", "2",
             "--stop-after-checkpoints", "1"});
  EXPECT_TRUE(options.error.empty()) << options.error;
  EXPECT_EQ(options.config.threads, 3);
  EXPECT_EQ(options.config.scale, 0.5);
  EXPECT_TRUE(options.scale_set);
  EXPECT_EQ(options.config.fleet_checkpoint_every, 2u);
  EXPECT_EQ(options.config.fleet_stop_after, 1u);
  // Parsing only: no pool of this width is built.
  EXPECT_EQ(parse({"--threads", "1024"}).config.threads, 1024);
}

TEST(Cli, BadNumbersNameTheFlag) {
  const struct {
    const char* flag;
    const char* value;
  } cases[] = {
      {"--seed", "0x8"},
      {"--seed", "-1"},
      {"--seed", " 5"},
      {"--seed", "5 "},
      {"--seed", "+5"},
      {"--seed", "4Z"},
      {"--seed", ""},
      {"--seed", "18446744073709551616"},
      {"--threads", "0"},
      {"--threads", "3x"},
      {"--threads", "-2"},
      {"--threads", "1025"},
      {"--threads", "2147483648"},
      {"--scale", "inf"},
      {"--scale", "nan"},
      {"--scale", "0"},
      {"--scale", "0x1p3"},
      {"--scale", "1e400"},
      {"--checkpoint-every", "0"},
      {"--checkpoint-every", "100001"},
      {"--stop-after-checkpoints", "0x1"},
  };
  for (const auto& c : cases) {
    const CliOptions options = parse({"--experiment", "fig03", c.flag,
                                      c.value});
    EXPECT_EQ(options.error.rfind(c.flag, 0), 0u)
        << c.flag << " '" << c.value << "' -> '" << options.error << "'";
    EXPECT_NE(options.error.find(std::string("'") + c.value + "'"),
              std::string::npos)
        << options.error;
  }
}

TEST(Cli, MissingValueNamesTheFlag) {
  EXPECT_EQ(parse({"--seed"}).error, "--seed requires a value");
  EXPECT_EQ(parse({"--bogus"}).error, "unknown flag: --bogus");
}

TEST(TextScanner, FieldsAndGrammar) {
  std::string_view f[3];
  EXPECT_EQ(text::split_fields(" a ,\"b\",\tc\r,d", f, 3), 4u);
  EXPECT_EQ(f[0], "a");
  EXPECT_EQ(f[1], "b");
  EXPECT_EQ(f[2], "c");
  EXPECT_EQ(text::split_fields("", f, 3), 1u);
  EXPECT_EQ(f[0], "");
  EXPECT_TRUE(text::is_blank_or_comment(" \t\r"));
  EXPECT_TRUE(text::is_blank_or_comment("  # x"));
  EXPECT_FALSE(text::is_blank_or_comment(" x # y"));

  double d = 7.0;
  EXPECT_TRUE(text::parse_f64("-1.5e-3", &d));
  EXPECT_EQ(d, -1.5e-3);
  EXPECT_TRUE(text::parse_f64("0.000001", &d));
  EXPECT_EQ(d, 0.000001);
  for (const char* bad : {"", "inf", "-inf", "nan", "+1", "0x10", "1e400",
                          " 1", "1 ", "1.5.", "e5"}) {
    d = 7.0;
    EXPECT_FALSE(text::parse_f64(bad, &d)) << "'" << bad << "'";
    EXPECT_EQ(d, 7.0) << "'" << bad << "'";
  }
  std::uint64_t u = 7;
  for (const char* bad : {"", "-1", "+1", "0x1", "1.0", "18446744073709551616"})
    EXPECT_FALSE(text::parse_u64(bad, &u)) << "'" << bad << "'";
  EXPECT_EQ(u, 7u);
}

}  // namespace
}  // namespace rdsim::sim
