// Error-path sweep under deterministic fault injection.
//
// For every instrumented storage seam, arm "fail the Nth operation" for
// N = 1, 2, 3, ... and drive a whole evaluation through it, asserting that
// each injected failure surfaces as a clean IOError Status — no crash, no
// hang (a hang fails the ctest timeout), no leaked run/output files, and
// the process-wide NodeArena accounting back at its baseline (an error
// path that abandons a half-built aggregation tree shows up as a delta).
// The sweep ends when an armed N exceeds the scenario's operation count:
// the run then completes injection-free and must succeed.

#include "testing/fault_injector.h"

#include <dirent.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "core/column_scan.h"
#include "core/node_arena.h"
#include "core/partitioned_agg.h"
#include "core/workload.h"
#include "gtest/gtest.h"
#include "storage/external_sort.h"
#include "storage/relation_io.h"

namespace tagg {
namespace testing {
namespace {

namespace fs = std::filesystem;

// --- injector unit behaviour ----------------------------------------------

TEST(FaultInjectorTest, DisarmedIsANoOp) {
  FaultInjector& injector = FaultInjector::Global();
  injector.Disarm();
  EXPECT_FALSE(injector.enabled());
  EXPECT_TRUE(MaybeInjectFault("spill_file.append").ok());
}

TEST(FaultInjectorTest, FailsExactlyTheNthMatchingOperation) {
  FaultInjector& injector = FaultInjector::Global();
  injector.Arm("some_site.op", 2);
  EXPECT_TRUE(MaybeInjectFault("some_site.op").ok());
  const Status injected = MaybeInjectFault("some_site.op");
  EXPECT_TRUE(injected.IsIOError()) << injected.ToString();
  EXPECT_NE(injected.message().find("injected fault"), std::string::npos);
  // Single-shot: the fault is transient, later operations succeed.
  EXPECT_TRUE(MaybeInjectFault("some_site.op").ok());
  EXPECT_EQ(injector.hits(), 3u);
  EXPECT_EQ(injector.injected(), 1u);
  injector.Disarm();
}

TEST(FaultInjectorTest, PatternIsSubstringMatched) {
  FaultInjector& injector = FaultInjector::Global();
  injector.Arm("spill_file", 1);
  EXPECT_TRUE(MaybeInjectFault("column_relation.append").ok());
  EXPECT_FALSE(MaybeInjectFault("spill_file.create").ok());
  injector.Disarm();
}

TEST(NodeArenaRegistryTest, TracksInstanceAndNodeCounts) {
  const size_t base_instances = NodeArena::LiveInstanceCount();
  const size_t base_nodes = NodeArena::GlobalLiveNodes();
  {
    NodeArena arena(/*slot_size=*/48);
    EXPECT_EQ(NodeArena::LiveInstanceCount(), base_instances + 1);
    void* slot = arena.Allocate();
    EXPECT_EQ(NodeArena::GlobalLiveNodes(), base_nodes + 1);
    arena.Deallocate(slot);
    EXPECT_EQ(NodeArena::GlobalLiveNodes(), base_nodes);
  }
  EXPECT_EQ(NodeArena::LiveInstanceCount(), base_instances);
}

// --- the sweep machinery ---------------------------------------------------

/// Runs `scenario` once per armed N until a run completes without the
/// injector firing.  `post_check` (optional) inspects external state —
/// e.g. temp-file listings — after every run; it receives whether the run
/// failed.
void SweepSite(const std::string& site,
               const std::function<Status()>& scenario,
               const std::function<void(bool failed)>& post_check = {}) {
  FaultInjector& injector = FaultInjector::Global();
  constexpr uint64_t kMaxOperations = 20000;
  uint64_t nth = 1;
  for (; nth <= kMaxOperations; ++nth) {
    injector.Arm(site, nth);
    const size_t arenas_before = NodeArena::LiveInstanceCount();
    const size_t nodes_before = NodeArena::GlobalLiveNodes();
    const Status status = scenario();
    const uint64_t injected = injector.injected();
    injector.Disarm();

    EXPECT_EQ(NodeArena::LiveInstanceCount(), arenas_before)
        << site << " N=" << nth << ": evaluation leaked a NodeArena";
    EXPECT_EQ(NodeArena::GlobalLiveNodes(), nodes_before)
        << site << " N=" << nth << ": evaluation leaked live tree nodes";
    if (post_check) post_check(!status.ok());

    if (injected == 0) {
      // N exceeded the scenario's matching operations: nothing failed, so
      // the run must have succeeded — and the sweep is complete.
      EXPECT_TRUE(status.ok())
          << site << " N=" << nth
          << ": no fault injected yet evaluation failed: "
          << status.ToString();
      break;
    }
    ASSERT_FALSE(status.ok())
        << site << " N=" << nth
        << ": injected fault was swallowed (evaluation reported OK)";
    EXPECT_TRUE(status.IsIOError())
        << site << " N=" << nth << ": expected the injected IOError, got "
        << status.ToString();
    EXPECT_NE(status.message().find("injected fault"), std::string::npos)
        << site << " N=" << nth << ": unexpected error: "
        << status.ToString();
  }
  ASSERT_LE(nth, kMaxOperations)
      << site << ": sweep never ran injection-free";
  EXPECT_GT(nth, 1u) << site << ": scenario never reached the site";
}

Relation SweepRelation() {
  WorkloadSpec spec;
  spec.num_tuples = 192;
  spec.lifespan = 4000;
  spec.short_max_duration = 800;
  spec.long_lived_fraction = 0.2;
  spec.seed = 7;
  auto rel = GenerateEmployedRelation(spec);
  EXPECT_TRUE(rel.ok());
  return std::move(rel).value();
}

// --- partitioned aggregation under injected spill faults -------------------

class PartitionedFaultSweep : public ::testing::Test {
 protected:
  Relation relation_ = SweepRelation();

  std::function<Status()> Scenario(AggregateKind aggregate,
                                   size_t attribute) {
    return [this, aggregate, attribute]() -> Status {
      PartitionedOptions options;
      options.aggregate = aggregate;
      options.attribute = attribute;
      options.partitions = 6;
      options.parallel_workers = 3;
      options.spill_to_disk = true;
      // Tiny sort budget: spilled columnar regions go through PodRunSorter
      // runs, reaching the external_sort.run and spill-file seams.
      options.spill_sort_budget_records = 16;
      return ComputePartitionedAggregate(relation_, options).status();
    };
  }
};

// The SweepKernel* scenarios drive the columnar endpoint sweep through
// the spill-file and sort-run seams, one aggregate per scenario.
TEST_F(PartitionedFaultSweep, SweepKernelSurvivesSpillFileCreateFaults) {
  SweepSite("spill_file.create",
            Scenario(AggregateKind::kCount, AggregateOptions::kNoAttribute));
}

TEST_F(PartitionedFaultSweep, SweepKernelSurvivesSpillFileAppendFaults) {
  SweepSite("spill_file.append", Scenario(AggregateKind::kSum, 1));
}

TEST_F(PartitionedFaultSweep, SweepKernelSurvivesSpillFileReadFaults) {
  SweepSite("spill_file.read", Scenario(AggregateKind::kAvg, 1));
}

TEST_F(PartitionedFaultSweep, SweepKernelSurvivesRunFlushFaults) {
  SweepSite("external_sort.run",
            Scenario(AggregateKind::kCount, AggregateOptions::kNoAttribute));
}

TEST_F(PartitionedFaultSweep, ColumnarKernelSurvivesEncodeFaults) {
  // Every phase-1 batch and every phase-2 sort-run flush passes through
  // the temporal-column encoder; a failed encode must abort the
  // evaluation cleanly.
  SweepSite("temporal_column.encode", Scenario(AggregateKind::kSum, 1));
}

TEST_F(PartitionedFaultSweep, ColumnarKernelSurvivesDecodeFaults) {
  SweepSite("temporal_column.decode", Scenario(AggregateKind::kAvg, 1));
}

TEST_F(PartitionedFaultSweep, ColumnarKernelSurvivesSpillFileFaults) {
  SweepSite("spill_file",
            Scenario(AggregateKind::kCount, AggregateOptions::kNoAttribute));
}

TEST_F(PartitionedFaultSweep, ColumnarKernelSurvivesRunFlushFaults) {
  SweepSite("external_sort.run", Scenario(AggregateKind::kSum, 1));
}

TEST_F(PartitionedFaultSweep, TreeKernelSurvivesSpillFaults) {
  // MIN/MAX route through the aggregation-tree kernel; a worker whose
  // replay fails must not leak its half-built per-region tree.
  SweepSite("spill_file", Scenario(AggregateKind::kMax, 1));
}

// --- columnar stored relation: write, open, pruned scan ---------------------

/// Open descriptors of this process; every column-relation error path must
/// close its writer/reader handle (checked per armed N).
size_t CountOpenFds() {
  size_t n = 0;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  while (::readdir(dir) != nullptr) ++n;
  ::closedir(dir);
  return n;
}

// --- external sort: runs fail cleanly and release their files -------------

TEST(PodRunSorterFaultSweep, RunFlushFaultsLeaveNoOpenRuns) {
  // A 24-record budget over 192 periods forces several spilled runs and
  // a k-way merge.  Runs are anonymous temp files, so an abandoned sort
  // orphans nothing on disk as long as it closes their handles.
  const Relation relation = SweepRelation();
  const size_t fd_baseline = CountOpenFds();
  auto load = [](const void* rec) {
    Period p;
    std::memcpy(&p, rec, sizeof(p));
    return p;
  };
  SweepSite(
      "external_sort.run",
      [&relation, &load]() -> Status {
        PodRunSorter sorter(
            TemporalColumnLayout{{TemporalColumnLayout::Field::kTime,
                                  TemporalColumnLayout::Field::kTime}},
            [&load](const void* a, const void* b) {
              return load(a) < load(b);
            },
            /*memory_budget_records=*/24);
        for (const Tuple& t : relation) {
          TAGG_RETURN_IF_ERROR(sorter.Add(&t.valid()));
        }
        Period last(kOrigin, kOrigin);
        size_t emitted = 0;
        TAGG_RETURN_IF_ERROR(sorter.Merge([&](const void* rec) {
          const Period p = load(rec);
          EXPECT_FALSE(p < last) << "merge emitted out of order";
          last = p;
          ++emitted;
          return Status::OK();
        }));
        EXPECT_EQ(emitted, relation.size());
        return Status::OK();
      },
      [fd_baseline](bool /*failed*/) {
        EXPECT_EQ(CountOpenFds(), fd_baseline)
            << "a sort-run error path leaked a run file handle";
      });
}

class ColumnRelationFaultSweep : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tagg_fault_column_sweep_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    path_ = (dir_ / "relation.tcr").string();
    fd_baseline_ = CountOpenFds();
  }

  void TearDown() override { fs::remove_all(dir_); }

  /// The whole columnar pipeline: convert the relation to a column file,
  /// reopen it through the validated path, and run a windowed pruned scan
  /// (which opens its own reader handle).
  std::function<Status()> Scenario(AggregateKind aggregate,
                                   size_t attribute) {
    return [this, aggregate, attribute]() -> Status {
      const Status status = [&]() -> Status {
        TAGG_ASSIGN_OR_RETURN(
            std::shared_ptr<const ColumnRelation> column,
            WriteRelationToColumnFile(relation_, path_,
                                      /*rows_per_block=*/32));
        ColumnScanOptions options;
        options.aggregate = aggregate;
        options.attribute = attribute;
        options.window = Period(500, 3000);
        return ComputeColumnScanAggregate(*column, options).status();
      }();
      std::error_code ec;
      fs::remove(path_, ec);
      return status;
    };
  }

  void ExpectFdBaseline(bool /*failed*/) {
    EXPECT_EQ(CountOpenFds(), fd_baseline_)
        << "a column-relation error path leaked a file handle";
  }

  Relation relation_ = SweepRelation();
  fs::path dir_;
  std::string path_;
  size_t fd_baseline_ = 0;
};

TEST_F(ColumnRelationFaultSweep, SurvivesCreateFaults) {
  SweepSite("column_relation.create",
            Scenario(AggregateKind::kCount, AggregateOptions::kNoAttribute),
            [this](bool failed) { ExpectFdBaseline(failed); });
}

TEST_F(ColumnRelationFaultSweep, SurvivesAppendFaults) {
  SweepSite("column_relation.append", Scenario(AggregateKind::kSum, 1),
            [this](bool failed) { ExpectFdBaseline(failed); });
}

TEST_F(ColumnRelationFaultSweep, SurvivesFooterFaults) {
  SweepSite("column_relation.footer", Scenario(AggregateKind::kAvg, 1),
            [this](bool failed) { ExpectFdBaseline(failed); });
}

TEST_F(ColumnRelationFaultSweep, SurvivesReadFaults) {
  SweepSite("column_relation.read", Scenario(AggregateKind::kMax, 1),
            [this](bool failed) { ExpectFdBaseline(failed); });
}

}  // namespace
}  // namespace testing
}  // namespace tagg
