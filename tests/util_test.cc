#include <atomic>
#include <set>

#include "gtest/gtest.h"
#include "src/util/json.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/table_printer.h"
#include "src/util/thread_pool.h"

namespace alt {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("bad");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

Result<int> HalfOf(int v) {
  if (v % 2 != 0) return Status::InvalidArgument("odd");
  return v / 2;
}

Status UseMacros(int v, int* out) {
  ALT_ASSIGN_OR_RETURN(int half, HalfOf(v));
  ALT_RETURN_IF_ERROR(Status::OK());
  *out = half;
  return Status::OK();
}

TEST(ResultTest, MacrosPropagate) {
  int out = 0;
  EXPECT_TRUE(UseMacros(8, &out).ok());
  EXPECT_EQ(out, 4);
  EXPECT_FALSE(UseMacros(7, &out).ok());
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.Uniform(), b.Uniform());
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
  }
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(2);
  const CategoricalTable table({1.0, 0.0, 9.0});
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 2000; ++i) ++counts[table.Sample(&rng)];
  EXPECT_EQ(counts[1], 0);  // A zero weight is never drawn.
  EXPECT_GT(counts[2], counts[0] * 4);
  // All-zero weights draw uniformly.
  const CategoricalTable zeros({0.0, 0.0});
  for (int i = 0; i < 20; ++i) EXPECT_LT(zeros.Sample(&rng), 2u);
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(3);
  auto idx = rng.SampleWithoutReplacement(10, 6);
  EXPECT_EQ(idx.size(), 6u);
  std::set<size_t> unique(idx.begin(), idx.end());
  EXPECT_EQ(unique.size(), 6u);
  for (size_t i : idx) EXPECT_LT(i, 10u);
}

TEST(RngTest, GumbelIsFinite) {
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    double g = rng.Gumbel();
    EXPECT_TRUE(std::isfinite(g));
  }
}

TEST(RngTest, ForkedStreamsDiffer) {
  Rng rng(5);
  Rng a = rng.Fork();
  Rng b = rng.Fork();
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (a.Uniform() != b.Uniform()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&counter]() { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ReturnsValues) {
  ThreadPool pool(2);
  auto f = pool.Submit([]() { return 7 * 6; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, WaitIdleBlocksUntilDone) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&done]() {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ++done;
    });
  }
  pool.WaitIdle();
  EXPECT_EQ(done.load(), 8);
}

// ---------------------------------------------------------------------------
// Json
// ---------------------------------------------------------------------------

TEST(JsonTest, BuildsAndDumpsObject) {
  Json j;
  j["name"] = "alt";
  j["layers"] = 3;
  j["flag"] = true;
  j["list"] = Json::Array{1, 2, 3};
  const std::string s = j.Dump();
  EXPECT_NE(s.find("\"name\":\"alt\""), std::string::npos);
  EXPECT_NE(s.find("\"layers\":3"), std::string::npos);
}

TEST(JsonTest, ParseRoundTrip) {
  const std::string text =
      R"({"a": 1.5, "b": [true, null, "x"], "c": {"d": -2}})";
  auto parsed = Json::Parse(text);
  ASSERT_TRUE(parsed.ok());
  const Json& j = parsed.value();
  EXPECT_DOUBLE_EQ(j.at("a").as_number(), 1.5);
  EXPECT_TRUE(j.at("b").as_array()[0].as_bool());
  EXPECT_TRUE(j.at("b").as_array()[1].is_null());
  EXPECT_EQ(j.at("b").as_array()[2].as_string(), "x");
  EXPECT_EQ(j.at("c").at("d").as_int(), -2);

  // Re-parse the dump; must be identical.
  auto again = Json::Parse(j.Dump());
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.value() == j);
}

TEST(JsonTest, ParseStringEscapes) {
  auto parsed = Json::Parse(R"("a\nb\t\"q\" A")");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().as_string(), "a\nb\t\"q\" A");
}

TEST(JsonTest, MalformedInputsRejected) {
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("tru").ok());
  EXPECT_FALSE(Json::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(Json::Parse("1 2").ok());
  EXPECT_FALSE(Json::Parse("").ok());
}

TEST(JsonTest, AtOnMissingKeyReturnsNull) {
  Json j;
  j["x"] = 1;
  EXPECT_TRUE(j.at("y").is_null());
  EXPECT_TRUE(j.contains("x"));
  EXPECT_FALSE(j.contains("y"));
}

TEST(JsonTest, PrettyDumpHasNewlines) {
  Json j;
  j["a"] = 1;
  j["b"] = 2;
  EXPECT_NE(j.DumpPretty().find('\n'), std::string::npos);
}

// ---------------------------------------------------------------------------
// TablePrinter
// ---------------------------------------------------------------------------

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"ID", "AUC"});
  table.AddRow({"1", "0.750"});
  table.AddRow({"12", "0.812"});
  const std::string s = table.ToString();
  EXPECT_NE(s.find("| ID "), std::string::npos);
  EXPECT_NE(s.find("0.812"), std::string::npos);
}

TEST(TablePrinterTest, NumFormatsPrecision) {
  EXPECT_EQ(TablePrinter::Num(0.12345, 3), "0.123");
  EXPECT_EQ(TablePrinter::Num(2.0, 1), "2.0");
}

}  // namespace
}  // namespace alt
