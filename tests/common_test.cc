#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/format.h"
#include "common/rng.h"
#include "common/status.h"

namespace spca {
namespace {

// ---- Status / StatusOr -------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = Status::OutOfMemory("too big");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(s.message(), "too big");
  EXPECT_EQ(s.ToString(), "OUT_OF_MEMORY: too big");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInvalidArgument),
               "INVALID_ARGUMENT");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotFound), "NOT_FOUND");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInternal), "INTERNAL");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kUnimplemented),
               "UNIMPLEMENTED");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kFailedPrecondition),
               "FAILED_PRECONDITION");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
  EXPECT_EQ(*v, 42);
  EXPECT_TRUE(v.status().ok());
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(Status::NotFound("missing"));
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> v(std::string("hello"));
  const std::string out = std::move(v).value();
  EXPECT_EQ(out, "hello");
}

Status Fails() { return Status::Internal("boom"); }
Status Propagates() {
  SPCA_RETURN_IF_ERROR(Fails());
  return Status::Ok();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(Propagates().code(), StatusCode::kInternal);
}

// ---- Rng -----------------------------------------------------------------

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.NextUint64() != b.NextUint64()) ++differing;
  }
  EXPECT_GT(differing, 30);
}

TEST(RngTest, NextDoubleInRange) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextUint64BelowBounds) {
  Rng rng(10);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.NextUint64Below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // every residue appears
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextGaussian();
    sum += v;
    sum2 += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(RngTest, GaussianWithParams) {
  Rng rng(12);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.NextGaussian(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(ZipfSamplerTest, RankZeroMostPopular) {
  Rng rng(13);
  ZipfSampler zipf(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf.Sample(&rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[50]);
  // Zipf(1.0): p(0)/p(9) == 10; allow wide sampling slack.
  EXPECT_GT(static_cast<double>(counts[0]) / std::max(counts[9], 1), 5.0);
}

TEST(ZipfSamplerTest, CoversSupport) {
  Rng rng(14);
  ZipfSampler zipf(5, 0.5);
  std::set<size_t> seen;
  for (int i = 0; i < 5000; ++i) seen.insert(zipf.Sample(&rng));
  EXPECT_EQ(seen.size(), 5u);
}

// ---- Format ----------------------------------------------------------------

TEST(FormatTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512.0 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KB");
  EXPECT_EQ(HumanBytes(1.5 * 1024 * 1024), "1.5 MB");
  EXPECT_EQ(HumanBytes(961.0 * 1024 * 1024 * 1024), "961.0 GB");
}

TEST(FormatTest, HumanSeconds) {
  EXPECT_EQ(HumanSeconds(12.34), "12.3 s");
  EXPECT_EQ(HumanSeconds(600), "10.0 min");
  EXPECT_EQ(HumanSeconds(7200), "2.0 h");
}

TEST(FormatTest, HumanCount) {
  EXPECT_EQ(HumanCount(0), "0");
  EXPECT_EQ(HumanCount(999), "999");
  EXPECT_EQ(HumanCount(1000), "1,000");
  EXPECT_EQ(HumanCount(1264812931ull), "1,264,812,931");
}

// ---- FlagSet -----------------------------------------------------------

Status ParseFlags(FlagSet* flags, const std::vector<std::string>& args) {
  std::vector<const char*> argv = {"prog"};
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  return flags->Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagSetTest, AcceptsBothSpellings) {
  size_t rows = 0;
  double target = 0.0;
  std::string out;
  bool metrics = false;
  FlagSet flags;
  flags.Int("--rows", &rows);
  flags.Double("--target", &target);
  flags.String("--out", &out);
  flags.Bool("--metrics", &metrics);
  ASSERT_TRUE(ParseFlags(&flags, {"--rows", "12", "--target=0.5", "--metrics",
                                  "--out=x.json"})
                  .ok());
  EXPECT_EQ(rows, 12u);
  EXPECT_EQ(target, 0.5);
  EXPECT_EQ(out, "x.json");
  EXPECT_TRUE(metrics);
  EXPECT_TRUE(flags.Seen("--rows"));
}

TEST(FlagSetTest, UnsetFlagsKeepTheirDefaults) {
  int seed = 7;
  std::string name = "stream";
  FlagSet flags;
  flags.Int("--seed", &seed);
  flags.String("--name", &name);
  ASSERT_TRUE(ParseFlags(&flags, {}).ok());
  EXPECT_EQ(seed, 7);
  EXPECT_EQ(name, "stream");
  EXPECT_FALSE(flags.Seen("--seed"));
}

TEST(FlagSetTest, InlineValueKeepsEverythingAfterTheFirstEquals) {
  std::vector<std::string> models;
  FlagSet flags;
  flags.Strings("--model", &models);
  ASSERT_TRUE(ParseFlags(&flags, {"--model=a=b.spcm"}).ok());
  EXPECT_EQ(models, std::vector<std::string>{"a=b.spcm"});
}

TEST(FlagSetTest, RepeatedFlagCollectsValuesInOrder) {
  std::vector<std::string> models;
  int threads = 0;
  FlagSet flags;
  flags.Strings("--model", &models);
  flags.Int("--threads", &threads);
  ASSERT_TRUE(ParseFlags(&flags, {"--model", "a", "--threads", "1",
                                  "--model=b", "--threads=3", "--model", "c"})
                  .ok());
  EXPECT_EQ(models, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(threads, 3);  // a scalar flag keeps its last value
}

TEST(FlagSetTest, BareFlagRejectsAValue) {
  bool metrics = false;
  FlagSet flags;
  flags.Bool("--metrics", &metrics);
  const Status status = ParseFlags(&flags, {"--metrics=1"});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "--metrics does not take a value");
  EXPECT_FALSE(metrics);
}

TEST(FlagSetTest, TrailingFlagWithoutValueIsRejected) {
  double target = 0.95;
  FlagSet flags;
  flags.Double("--target", &target);
  const Status status = ParseFlags(&flags, {"--target"});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "--target needs a value");
  EXPECT_EQ(target, 0.95);
}

TEST(FlagSetTest, UnknownFlagIsRejected) {
  int rows = 0;
  FlagSet flags;
  flags.Int("--rows", &rows);
  EXPECT_EQ(ParseFlags(&flags, {"--failures", "0.1"}).message(),
            "unknown flag --failures");
  EXPECT_EQ(ParseFlags(&flags, {"rows"}).message(), "unknown flag rows");
}

TEST(FlagSetTest, MalformedValuesAreRejected) {
  size_t count = 5;
  uint64_t seed = 1;
  int64_t offset = 3;
  double rate = 0.25;
  FlagSet flags;
  flags.Int("--count", &count);
  flags.Int("--seed", &seed);
  flags.Int("--offset", &offset);
  flags.Double("--rate", &rate);
  const std::vector<std::vector<std::string>> bad = {
      {"--count", "4x"},
      {"--count", "-1"},
      {"--count", " 4"},
      {"--count=0x10"},
      {"--count", "1e3"},
      {"--seed", "18446744073709551616"},
      {"--offset", "9223372036854775808"},
      {"--offset", "--4"},
      {"--rate", "nan"},
      {"--rate", "inf"},
      {"--rate=-inf"},
      {"--rate", "1e999"},
      {"--rate", "0.5x"},
      {"--rate", "abc"},
      {"--count="},
      {"--rate", ""},
  };
  for (const auto& args : bad) {
    const Status status = ParseFlags(&flags, args);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << args[0];
  }
  EXPECT_EQ(count, 5u);
  EXPECT_EQ(seed, 1u);
  EXPECT_EQ(offset, 3);
  EXPECT_EQ(rate, 0.25);
  EXPECT_EQ(ParseFlags(&flags, {"--count", "-1"}).message(),
            "--count expects a non-negative integer, got '-1'");
  EXPECT_EQ(ParseFlags(&flags, {"--rate", "nan"}).message(),
            "--rate expects a finite number, got 'nan'");

  ASSERT_TRUE(ParseFlags(&flags, {"--seed", "18446744073709551615",
                                  "--offset=-9223372036854775808",
                                  "--rate", "-1e-3"})
                  .ok());
  EXPECT_EQ(seed, UINT64_MAX);
  EXPECT_EQ(offset, INT64_MIN);
  EXPECT_EQ(rate, -1e-3);
}

TEST(FlagSetTest, DeclaredMinimumIsEnforced) {
  size_t partitions = 16;
  int listen = -1;
  FlagSet flags;
  flags.Int("--partitions", &partitions, size_t{1});
  flags.Int("--listen", &listen, 0);
  EXPECT_EQ(ParseFlags(&flags, {"--partitions", "0"}).message(),
            "--partitions must be >= 1, got '0'");
  EXPECT_EQ(ParseFlags(&flags, {"--listen=-5"}).message(),
            "--listen must be >= 0, got '-5'");
  EXPECT_EQ(partitions, 16u);
  EXPECT_EQ(listen, -1);
  ASSERT_TRUE(ParseFlags(&flags, {"--partitions", "1", "--listen", "0"}).ok());
  EXPECT_EQ(partitions, 1u);
  EXPECT_EQ(listen, 0);
}

}  // namespace
}  // namespace spca
