#include "model/io.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "gen/synthetic.h"
#include "test_util.h"

namespace ftoa {
namespace {

using ftoa::testing::MakeExample1Instance;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(InstanceIoTest, RoundTripExample1) {
  const Instance original = MakeExample1Instance();
  const std::string path = TempPath("ftoa_io_example1.csv");
  ASSERT_TRUE(SaveInstanceCsv(original, path).ok());
  const auto loaded = LoadInstanceCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  ASSERT_EQ(loaded->num_workers(), original.num_workers());
  ASSERT_EQ(loaded->num_tasks(), original.num_tasks());
  EXPECT_DOUBLE_EQ(loaded->velocity(), original.velocity());
  for (size_t i = 0; i < original.num_workers(); ++i) {
    EXPECT_EQ(loaded->workers()[i].location,
              original.workers()[i].location);
    EXPECT_DOUBLE_EQ(loaded->workers()[i].start,
                     original.workers()[i].start);
    EXPECT_DOUBLE_EQ(loaded->workers()[i].duration,
                     original.workers()[i].duration);
  }
  for (size_t i = 0; i < original.num_tasks(); ++i) {
    EXPECT_EQ(loaded->tasks()[i].location, original.tasks()[i].location);
    EXPECT_DOUBLE_EQ(loaded->tasks()[i].start, original.tasks()[i].start);
  }
  const GridSpec& grid = loaded->spacetime().grid();
  EXPECT_EQ(grid.cells_x(), 2);
  EXPECT_EQ(grid.cells_y(), 2);
  EXPECT_DOUBLE_EQ(grid.width(), 8.0);
  EXPECT_EQ(loaded->spacetime().slots().num_slots(), 2);
  std::remove(path.c_str());
}

TEST(InstanceIoTest, RoundTripSyntheticPreservesBitExactDoubles) {
  SyntheticConfig config;
  config.num_workers = 200;
  config.num_tasks = 200;
  config.grid_x = 10;
  config.grid_y = 10;
  config.num_slots = 8;
  config.seed = 321;
  const auto original = GenerateSyntheticInstance(config);
  ASSERT_TRUE(original.ok());
  const std::string path = TempPath("ftoa_io_synth.csv");
  ASSERT_TRUE(SaveInstanceCsv(*original, path).ok());
  const auto loaded = LoadInstanceCsv(path);
  ASSERT_TRUE(loaded.ok());
  for (size_t i = 0; i < original->num_workers(); ++i) {
    // %.17g round-trips IEEE doubles exactly.
    EXPECT_EQ(loaded->workers()[i].location.x,
              original->workers()[i].location.x);
    EXPECT_EQ(loaded->workers()[i].start, original->workers()[i].start);
  }
  std::remove(path.c_str());
}

TEST(InstanceIoTest, RejectsMissingFile) {
  EXPECT_FALSE(LoadInstanceCsv("/nonexistent/instance.csv").ok());
}

TEST(InstanceIoTest, RejectsWrongMagic) {
  const std::string path = TempPath("ftoa_io_magic.csv");
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("not-an-instance,1\nspec,1,1,1,1,1,1,1\n", f);
  std::fclose(f);
  EXPECT_FALSE(LoadInstanceCsv(path).ok());
  std::remove(path.c_str());
}

TEST(InstanceIoTest, RejectsUnsupportedVersion) {
  const std::string path = TempPath("ftoa_io_version.csv");
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("ftoa-instance,99\nspec,1,1,1,1,1,1,1\n", f);
  std::fclose(f);
  EXPECT_FALSE(LoadInstanceCsv(path).ok());
  std::remove(path.c_str());
}

TEST(InstanceIoTest, RejectsMalformedRecord) {
  const std::string path = TempPath("ftoa_io_malformed.csv");
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fputs(
      "ftoa-instance,1\n"
      "spec,8,8,2,2,10,2,1\n"
      "worker,1.0,2.0,0.5\n",  // Missing the duration column.
      f);
  std::fclose(f);
  EXPECT_FALSE(LoadInstanceCsv(path).ok());
  std::remove(path.c_str());
}

TEST(InstanceIoTest, RejectsInvalidSpec) {
  const std::string path = TempPath("ftoa_io_badspec.csv");
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("ftoa-instance,1\nspec,-8,8,2,2,10,2,1\n", f);
  std::fclose(f);
  EXPECT_FALSE(LoadInstanceCsv(path).ok());
  std::remove(path.c_str());
}

TEST(InstanceIoTest, RejectsLocationsOutsideTheRegion) {
  // An 8 x 6 region: a worker or a task half a unit outside either edge is
  // rejected; one exactly on the upper edges still loads.
  const auto load = [](const std::string& name, const std::string& record) {
    const std::string path = TempPath(name);
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs(("ftoa-instance,1\nspec,8,6,2,2,10,2,1\n" + record).c_str(),
               f);
    std::fclose(f);
    const auto loaded = LoadInstanceCsv(path);
    std::remove(path.c_str());
    return loaded.status();
  };
  for (const char* kind : {"worker", "task"}) {
    for (const char* x : {"-0.5", "8.5"}) {
      const Status status = load("ftoa_io_outside.csv", std::string(kind) +
                                                            "," + x +
                                                            ",1.0,0.5,2\n");
      EXPECT_TRUE(status.IsInvalidArgument()) << kind << " x=" << x;
    }
    const Status nan = load("ftoa_io_nan.csv",
                            std::string(kind) + ",nan,1.0,0.5,2\n");
    EXPECT_TRUE(nan.IsInvalidArgument()) << kind << " x=nan";
    const Status edge = load("ftoa_io_edge.csv",
                             std::string(kind) + ",8,6,0.5,2\n");
    EXPECT_TRUE(edge.ok()) << kind << ": " << edge;
  }
}

TEST(InstanceIoTest, EmptyInstanceRoundTrips) {
  const Instance empty(
      SpacetimeSpec(SlotSpec(10.0, 2), GridSpec(8.0, 8.0, 2, 2)), 1.5, {},
      {});
  const std::string path = TempPath("ftoa_io_empty.csv");
  ASSERT_TRUE(SaveInstanceCsv(empty, path).ok());
  const auto loaded = LoadInstanceCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_workers(), 0u);
  EXPECT_EQ(loaded->num_tasks(), 0u);
  EXPECT_DOUBLE_EQ(loaded->velocity(), 1.5);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ftoa
