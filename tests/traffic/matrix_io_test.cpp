#include "traffic/matrix_io.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <optional>
#include <string>

#include "fuzz/mutants.h"
#include "traffic/patterns.h"
#include "util/rng.h"

namespace sorn {
namespace {

TEST(MatrixIoTest, RoundTripPreservesValues) {
  const auto cliques = CliqueAssignment::contiguous(8, 2);
  const TrafficMatrix original = patterns::locality_mix(cliques, 0.6);
  const auto parsed = matrix_from_csv(matrix_to_csv(original));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->node_count(), 8);
  for (NodeId i = 0; i < 8; ++i)
    for (NodeId j = 0; j < 8; ++j)
      EXPECT_NEAR(parsed->at(i, j), original.at(i, j), 1e-12);
}

TEST(MatrixIoTest, FileRoundTrip) {
  const TrafficMatrix original = patterns::uniform(5);
  const std::string path = ::testing::TempDir() + "/tm_roundtrip.csv";
  ASSERT_TRUE(save_matrix_csv(original, path));
  const auto loaded = load_matrix_csv(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_NEAR(loaded->total(), original.total(), 1e-9);
  std::remove(path.c_str());
}

TEST(MatrixIoTest, RejectsRaggedRows) {
  EXPECT_FALSE(matrix_from_csv("0,1,2\n1,0\n2,1,0\n").has_value());
}

TEST(MatrixIoTest, RejectsNonSquare) {
  EXPECT_FALSE(matrix_from_csv("0,1\n1,0\n0,1\n").has_value());
}

TEST(MatrixIoTest, RejectsNonNumeric) {
  EXPECT_FALSE(matrix_from_csv("0,abc\n1,0\n").has_value());
}

TEST(MatrixIoTest, RejectsNegativeDemand) {
  EXPECT_FALSE(matrix_from_csv("0,-1\n1,0\n").has_value());
}

TEST(MatrixIoTest, RejectsNonFiniteDemand) {
  EXPECT_FALSE(matrix_from_csv("0,nan\n1,0\n").has_value());
  EXPECT_FALSE(matrix_from_csv("0,inf\n1,0\n").has_value());
  EXPECT_FALSE(matrix_from_csv("0,1\n-inf,0\n").has_value());
  // Finite entries whose sum is not.
  EXPECT_FALSE(matrix_from_csv("0,1.5e308\n1.5e308,0\n").has_value());
}

TEST(MatrixIoTest, RejectsNonzeroDiagonal) {
  EXPECT_FALSE(matrix_from_csv("5,1\n1,0\n").has_value());
}

TEST(MatrixIoTest, RejectsEmptyInput) {
  EXPECT_FALSE(matrix_from_csv("").has_value());
  EXPECT_FALSE(matrix_from_csv("\n\n").has_value());
}

TEST(MatrixIoTest, MissingFileReturnsNullopt) {
  EXPECT_FALSE(load_matrix_csv("/nonexistent/path/tm.csv").has_value());
}

// Seeded mutants of a saved matrix. Each must either be rejected or parse
// into a matrix whose CSV reads back to the same bytes.
TEST(MatrixIoTest, MutantsFailCleanlyOrRoundTrip) {
  const auto cliques = CliqueAssignment::contiguous(8, 2);
  const std::string doc =
      matrix_to_csv(patterns::locality_mix(cliques, 0.6));
  Rng rng(0x5eed);
  int parsed = 0;
  for (int i = 0; i < 3000; ++i) {
    const std::string m = mutant(doc, rng);
    const std::optional<TrafficMatrix> tm = matrix_from_csv(m);
    if (!tm) continue;
    ++parsed;
    EXPECT_TRUE(std::isfinite(tm->total())) << "mutant: " << m;
    const std::string once = matrix_to_csv(*tm);
    const std::optional<TrafficMatrix> again = matrix_from_csv(once);
    ASSERT_TRUE(again.has_value()) << "mutant: " << m;
    EXPECT_EQ(matrix_to_csv(*again), once) << "mutant: " << m;
  }
  // Some mutants must survive the reader, not only fail it.
  EXPECT_GT(parsed, 100);
}

}  // namespace
}  // namespace sorn
