// Each correctness check of the benchmark must reject a corrupted answer.
// Build and run: cmake --build .bench_build --target perfbench_tests &&
// .bench_build/perfbench_tests
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "checks.hpp"
#include "corpus.hpp"
#include "src/core/dp_rank.hpp"
#include "src/core/explore.hpp"
#include "src/util/config.hpp"
#include "workloads.hpp"

namespace {

using perfbench::ExploreGrid;
using perfbench::ExploreRow;
using perfbench::Violation;

bool mentions(const std::vector<Violation>& violations, const std::string& what) {
  return std::any_of(violations.begin(), violations.end(), [&](const Violation& v) {
    return v.what.find(what) != std::string::npos;
  });
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string join(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) out += l + "\n";
  return out;
}

/// points.csv of a small real Table 4 exploration.
class ExploreChecks : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    grid_ = new ExploreGrid{{3.9, 2.9, 1.8}, {2.0, 1.0}, {5e8, 1.7e9}, {0.2, 0.4}};
    const std::string dir =
        (std::filesystem::temp_directory_path() / "perfbench_checks_explore").string();
    std::filesystem::remove_all(dir);
    const iarank::core::ExploreSpec spec = iarank::core::ExploreSpec::parse(
        iarank::util::Config::parse(perfbench::explore_spec_text(*grid_)));
    iarank::core::ExploreOptions options;
    options.dir = dir;
    options.workers = 1;  // a forked worker: the plans stage runs inline
    (void)iarank::core::run_explore(spec, options);
    std::ifstream in(dir + "/points.csv");
    std::stringstream buffer;
    buffer << in.rdbuf();
    csv_ = new std::string(buffer.str());
    std::filesystem::remove_all(dir);
  }
  static void TearDownTestSuite() {
    delete grid_;
    delete csv_;
  }

  static std::vector<Violation> check(const std::string& csv) {
    std::vector<Violation> violations;
    const std::vector<ExploreRow> rows = perfbench::parse_points_csv(csv, violations);
    for (Violation& v : perfbench::check_explore(*grid_, rows)) {
      violations.push_back(std::move(v));
    }
    return violations;
  }

  static ExploreGrid* grid_;
  static std::string* csv_;
};
ExploreGrid* ExploreChecks::grid_ = nullptr;
std::string* ExploreChecks::csv_ = nullptr;

TEST_F(ExploreChecks, AcceptsTheProgramsOutput) {
  const std::vector<Violation> violations = check(*csv_);
  for (const Violation& v : violations) ADD_FAILURE() << v.index << ": " << v.what;
}

TEST_F(ExploreChecks, RejectsAMissingRow) {
  std::vector<std::string> lines = lines_of(*csv_);
  lines.erase(lines.begin() + 5);  // grid index 4
  const std::vector<Violation> violations = check(join(lines));
  EXPECT_TRUE(mentions(violations, "missing"));
}

TEST_F(ExploreChecks, RejectsADuplicatedRow) {
  std::vector<std::string> lines = lines_of(*csv_);
  lines.push_back(lines[3]);
  const std::vector<Violation> violations = check(join(lines));
  EXPECT_TRUE(mentions(violations, "appears twice"));
}

TEST_F(ExploreChecks, RejectsTwoPointsSwappedAlongK) {
  // Rows of K = 3.9 and K = 1.8 at the same M, C and R exchange their
  // results (everything after the R column).
  std::vector<std::string> lines = lines_of(*csv_);
  const auto result_of = [](const std::string& line) {
    std::size_t pos = 0;
    for (int comma = 0; comma < 8; ++comma) pos = line.find(',', pos) + 1;
    return pos;
  };
  bool swapped = false;
  const std::int64_t stride = 2 * 2 * 2;  // one K step: M x C x R points
  for (std::int64_t i = 0; i < stride && !swapped; ++i) {
    std::string& a = lines[static_cast<std::size_t>(1 + i)];
    std::string& b = lines[static_cast<std::size_t>(1 + i + 2 * stride)];
    const std::size_t pa = result_of(a);
    const std::size_t pb = result_of(b);
    if (a.substr(pa) == b.substr(pb)) continue;  // equal ranks: no evidence
    const std::string tail_a = a.substr(pa);
    a = a.substr(0, pa) + b.substr(pb);
    b = b.substr(0, pb) + tail_a;
    swapped = true;
  }
  ASSERT_TRUE(swapped) << "K had no effect on any line of the test grid";
  const std::vector<Violation> violations = check(join(lines));
  EXPECT_TRUE(mentions(violations, "rank rises with K"));
}

TEST_F(ExploreChecks, RejectsAFailedPoint) {
  std::vector<std::string> lines = lines_of(*csv_);
  const std::size_t pos = lines[2].find(",ok,");
  ASSERT_NE(pos, std::string::npos);
  lines[2].replace(pos, 4, ",internal,");
  EXPECT_TRUE(mentions(check(join(lines)), "status"));
}

// --- service_warm ------------------------------------------------------------

std::string response(std::int64_t rank) {
  return "{\"all_assigned\":true,\"normalized\":0.1,\"ok\":true,\"rank\":" +
         std::to_string(rank) + ",\"total_wires\":1000,\"type\":\"rank\"}";
}

TEST(ServiceChecks, AcceptsAMonotoneLattice) {
  const perfbench::Lattice lattice{{3.9, 1.8}, {2.0, 1.0}};
  // Keys: (3.9,2.0) (3.9,1.0) (1.8,2.0) (1.8,1.0).
  const std::vector<Violation> violations = perfbench::check_lattice(
      lattice, {response(100), response(150), response(160), response(300)});
  for (const Violation& v : violations) ADD_FAILURE() << v.index << ": " << v.what;
}

TEST(ServiceChecks, RejectsResponsesSwappedAlongK) {
  const perfbench::Lattice lattice{{3.9, 1.8}, {2.0, 1.0}};
  EXPECT_TRUE(mentions(perfbench::check_lattice(lattice, {response(160), response(150),
                                                          response(100), response(300)}),
                       "rank rises with K"));
}

TEST(ServiceChecks, RejectsAnErrorResponseAndEqualCorners) {
  const perfbench::Lattice lattice{{3.9, 1.8}, {2.0, 1.0}};
  EXPECT_TRUE(mentions(
      perfbench::check_lattice(lattice, {response(100), response(150), response(160),
                                         "{\"ok\":false,\"error\":{}}"}),
      "not ok"));
  EXPECT_TRUE(mentions(perfbench::check_lattice(lattice, {response(100), response(100),
                                                          response(100), response(100)}),
                       "corners"));
}

TEST(ServiceChecks, RejectsAResponseThatDiffersFromTheFirst) {
  EXPECT_TRUE(perfbench::same_response(response(100), response(100)));
  EXPECT_FALSE(perfbench::same_response(response(100), response(101)));
  std::string reordered = response(100);
  reordered.replace(reordered.find("0.1"), 3, "0.10");  // same value, other bytes
  EXPECT_FALSE(perfbench::same_response(response(100), reordered));
}

// --- dp_hard -------------------------------------------------------------------

class DpChecks : public ::testing::Test {
 protected:
  void SetUp() override {
    inst_ = perfbench::synthetic_instance(7, 0, nullptr);
    iarank::core::DpKernel kernel;
    result_ = kernel.solve(inst_);
    bound_ = perfbench::rank_upper_bound(inst_);
  }
  iarank::core::Instance inst_;
  iarank::core::RankResult result_;
  std::int64_t bound_ = 0;
};

TEST_F(DpChecks, AcceptsTheProgramsAnswer) {
  EXPECT_GT(result_.dp.verify_calls, 1);  // the search layer did work
  EXPECT_GE(bound_, result_.rank);
  const std::vector<Violation> violations =
      perfbench::check_dp_answer(inst_, result_, -1, bound_, result_.rank);
  for (const Violation& v : violations) ADD_FAILURE() << v.what;
}

TEST_F(DpChecks, RejectsARankOffByOneWire) {
  for (const std::int64_t delta : {1, -1}) {
    iarank::core::RankResult corrupted = result_;
    corrupted.rank += delta;
    EXPECT_TRUE(mentions(perfbench::check_dp_answer(inst_, corrupted, -1, bound_, -1),
                         "certificate rejected"))
        << "delta " << delta;
  }
}

TEST_F(DpChecks, RejectsARankAboveTheBudgetBoundOrBelowGreedyOrTheOracle) {
  EXPECT_TRUE(mentions(
      perfbench::check_dp_answer(inst_, result_, -1, result_.rank - 1, -1),
      "above the budget bound"));
  EXPECT_TRUE(mentions(
      perfbench::check_dp_answer(inst_, result_, result_.rank + 1, bound_, -1),
      "below greedy_rank"));
  EXPECT_TRUE(mentions(
      perfbench::check_dp_answer(inst_, result_, -1, bound_, result_.rank + 1),
      "differs from the oracle"));
}

TEST_F(DpChecks, RejectsARepeatedSolveWithAnotherAnswer) {
  iarank::core::DpKernel kernel;
  const iarank::core::RankResult again = kernel.solve(inst_);
  EXPECT_TRUE(perfbench::same_answer(result_, again));
  iarank::core::RankResult moved = again;
  ASSERT_FALSE(moved.placements.empty());
  moved.placements.back().pair ^= 1;
  EXPECT_FALSE(perfbench::same_answer(result_, moved));
}

TEST(DpCorpus, OraclesAgreeWithTheDpOnTheExactPart) {
  const std::vector<perfbench::CorpusEntry> corpus = perfbench::exact_part(3);
  iarank::core::DpKernel kernel;
  int exact = 0;
  for (const perfbench::CorpusEntry& e : corpus) {
    ASSERT_FALSE(e.oracle.empty()) << e.label;
    ++exact;
    const iarank::core::RankResult r = kernel.solve(e.instance, e.options);
    EXPECT_EQ(r.rank, perfbench::oracle_rank(e)) << e.label;
    EXPECT_GE(perfbench::rank_upper_bound(e.instance), r.rank) << e.label;
  }
  EXPECT_GT(exact, 0);
}

}  // namespace
