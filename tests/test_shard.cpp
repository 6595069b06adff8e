// Scenario-level scale-out integration: run_scenarios in shard, merge and
// checkpoint modes against the plain single-process run, comparing the CSV
// payloads byte for byte. These are the end-to-end counterparts of the
// engine-level tests in test_engine.cpp -- here the partials flow through
// the per-scenario subdirectories, the call counter reset in set_shard_io,
// and the divergence check in run_command.cpp.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/monte_carlo.h"
#include "scenario/registry.h"
#include "scenario/run_command.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/stats.h"

namespace mram::scn {
namespace {

namespace fs = std::filesystem;

/// Trial index at which mc_pair's second runner call starts throwing, or 0
/// for normal operation. File-global so the registry's scenario lambdas can
/// be toggled between an interrupted first attempt and a clean resume.
std::atomic<std::size_t> g_fail_from{0};

fs::path make_temp_dir(const std::string& tag) {
  const fs::path dir = fs::temp_directory_path() / ("mram_shard_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Two scenarios exercising the engine through the scenario layer:
///   mc_pair  -- two runner calls (scalar moments + a weighted tail sum),
///               the second interruptible via g_fail_from;
///   mc_solo  -- one runner call, so multi-scenario sweeps mix call counts.
/// Cells carry 17 digits so a single ULP of drift breaks the byte compare.
ScenarioRegistry mc_registry() {
  ScenarioRegistry registry;
  Scenario pair;
  pair.info.name = "mc_pair";
  pair.info.figure = "Test";
  pair.info.summary = "two-call Monte Carlo probe";
  pair.run = [](ScenarioContext& ctx) {
    const auto stats = ctx.runner.run<util::RunningStats>(
        ctx.scaled_trials(2000), ctx.seed,
        [](util::Rng& rng, std::size_t, util::RunningStats& acc) {
          acc.add(rng.normal(1.0, 2.0));
        });
    const auto tail = ctx.runner.run<util::WeightedStats>(
        ctx.scaled_trials(1500), ctx.seed + 1,
        [](util::Rng& rng, std::size_t i, util::WeightedStats& acc) {
          const std::size_t fail_from = g_fail_from.load();
          if (fail_from > 0 && i >= fail_from) {
            throw util::NumericalError("injected failure at trial " +
                                       std::to_string(i));
          }
          const double x = rng.normal();
          acc.add(x > 1.5 ? 1.0 : 0.0, rng.uniform(0.5, 1.5));
        });
    ResultSet out;
    out.add("moments", "scalar moments", {"mean", "stddev", "min", "max"})
        .add_row({Cell(stats.mean(), 17), Cell(stats.stddev(), 17),
                  Cell(stats.min(), 17), Cell(stats.max(), 17)});
    out.add("tail", "weighted tail estimate", {"mean", "rel_err", "ess"})
        .add_row({Cell(tail.mean(), 17), Cell(tail.rel_error(), 17),
                  Cell(tail.effective_samples(), 17)});
    return out;
  };
  registry.add(pair);

  Scenario solo;
  solo.info.name = "mc_solo";
  solo.info.figure = "Test";
  solo.info.summary = "one-call Monte Carlo probe";
  solo.run = [](ScenarioContext& ctx) {
    const auto stats = ctx.runner.run<util::RunningStats>(
        ctx.scaled_trials(900), ctx.seed,
        [](util::Rng& rng, std::size_t, util::RunningStats& acc) {
          acc.add(rng.uniform(-1.0, 1.0));
        });
    ResultSet out;
    out.add("u", "uniform moments", {"mean", "var"})
        .add_row({Cell(stats.mean(), 17), Cell(stats.variance(), 17)});
    return out;
  };
  registry.add(solo);
  return registry;
}

RunCommandOptions base_options(std::vector<std::string> names,
                               unsigned threads) {
  RunCommandOptions opt;
  opt.names = std::move(names);
  opt.format = "csv";
  opt.threads = threads;
  opt.seed = 2026;
  return opt;
}

/// Runs and returns the CSV payload (stdout), asserting success.
std::string run_csv(const ScenarioRegistry& registry,
                    const RunCommandOptions& opt) {
  std::ostringstream out, err;
  EXPECT_EQ(run_scenarios(registry, opt, out, err), 0) << err.str();
  return out.str();
}

TEST(ShardRun, FourWayMergeIsByteIdenticalToSingleProcess) {
  const auto registry = mc_registry();
  const std::vector<std::string> names{"mc_pair", "mc_solo"};
  const std::string reference = run_csv(registry, base_options(names, 1));
  ASSERT_NE(reference.find("# mc_pair/moments"), std::string::npos);

  const fs::path dir = make_temp_dir("four_way");
  for (std::size_t i = 0; i < 4; ++i) {
    auto opt = base_options(names, i % 2 == 0 ? 1 : 2);  // mixed thread counts
    opt.shard = eng::ShardSpec{i, 4};
    opt.partials_dir = dir.string();
    std::ostringstream out, err;
    ASSERT_EQ(run_scenarios(registry, opt, out, err), 0) << err.str();
    // Shard mode reports progress, never shard-local tables.
    EXPECT_NE(out.str().find("shard " + std::to_string(i) + "/4"),
              std::string::npos);
    EXPECT_EQ(out.str().find("# mc_pair"), std::string::npos);
  }
  // Per-scenario subdirectories with one dump per shard per runner call.
  EXPECT_TRUE(fs::exists(dir / "mc_pair"));
  EXPECT_TRUE(fs::exists(dir / "mc_solo"));

  auto merge_opt = base_options(names, 2);
  merge_opt.merge = true;
  merge_opt.merge_shards = 4;
  merge_opt.partials_dir = dir.string();
  EXPECT_EQ(run_csv(registry, merge_opt), reference);

  // Auto-detected shard count folds identically.
  merge_opt.merge_shards = 0;
  EXPECT_EQ(run_csv(registry, merge_opt), reference);
  fs::remove_all(dir);
}

TEST(ShardRun, MergeDetectsSurplusShardCalls) {
  // A shard directory holding more runner calls than the merge replays
  // means shard-local control flow diverged; the extra dumps must not be
  // silently dropped.
  const auto registry = mc_registry();
  const std::vector<std::string> names{"mc_solo"};
  const fs::path dir = make_temp_dir("diverged");
  for (std::size_t i = 0; i < 2; ++i) {
    auto opt = base_options(names, 1);
    opt.shard = eng::ShardSpec{i, 2};
    opt.partials_dir = dir.string();
    std::ostringstream out, err;
    ASSERT_EQ(run_scenarios(registry, opt, out, err), 0) << err.str();
  }
  // Fabricate a surplus call by duplicating shard 0's only dump as call 1.
  const fs::path scen = dir / "mc_solo";
  fs::path call0;
  for (const auto& entry : fs::directory_iterator(scen)) {
    if (entry.path().filename().string().find("shard-000") !=
        std::string::npos) {
      call0 = entry.path();
    }
  }
  ASSERT_FALSE(call0.empty());
  std::string surplus = call0.filename().string();
  surplus.replace(surplus.find("call-000000"), 11, "call-000001");
  fs::copy_file(call0, scen / surplus);

  auto merge_opt = base_options(names, 1);
  merge_opt.merge = true;
  merge_opt.partials_dir = dir.string();
  std::ostringstream out, err;
  EXPECT_EQ(run_scenarios(registry, merge_opt, out, err), 1);
  EXPECT_NE(err.str().find("control flow diverged"), std::string::npos);
  fs::remove_all(dir);
}

TEST(ShardRun, AdaptiveRareEventDriversFailWithATypedError) {
  // Importance-sampling rounds and splitting levels choose their next
  // runner call from merged results that a shard never sees. A shard of
  // such a scenario must end in a FAIL row naming the reason -- not in a
  // crash, and not in dumps that mram_merge would refuse.
  const fs::path dir = make_temp_dir("adaptive");
  for (const std::string name : {"retention_deep", "wer_deep"}) {
    auto opt = base_options({name}, 1);
    opt.shard = eng::ShardSpec{0, 4};
    opt.partials_dir = dir.string();
    opt.trial_scale = 0.05;
    std::ostringstream out, err;
    EXPECT_EQ(run_scenarios(ScenarioRegistry::global(), opt, out, err), 1);
    const std::string log = err.str();
    EXPECT_NE(log.find("FAIL " + name + ": importance sampling cannot run "
                       "in shard mode"),
              std::string::npos)
        << log;
  }
  fs::remove_all(dir);
}

TEST(CheckpointRun, KilledScenarioResumesByteIdentically) {
  const auto registry = mc_registry();
  const std::vector<std::string> names{"mc_pair"};
  const std::string reference = run_csv(registry, base_options(names, 2));

  const fs::path dir = make_temp_dir("resume");
  // First attempt: the second runner call dies mid-run, after at least one
  // committed stride snapshot (the first call's .done file also survives).
  g_fail_from.store(600);
  {
    auto opt = base_options(names, 2);
    opt.checkpoint_dir = dir.string();
    std::ostringstream out, err;
    EXPECT_EQ(run_scenarios(registry, opt, out, err), 1);
    EXPECT_NE(err.str().find("FAIL mc_pair"), std::string::npos);
    EXPECT_NE(err.str().find("injected failure"), std::string::npos);
  }
  EXPECT_TRUE(fs::exists(dir / "mc_pair" / "call-000000.done"));
  EXPECT_TRUE(fs::exists(dir / "mc_pair" / "call-000001.part"));

  // Resume: completes from the snapshots, byte-identical to the plain run.
  g_fail_from.store(0);
  auto opt = base_options(names, 2);
  opt.checkpoint_dir = dir.string();
  opt.resume = true;
  EXPECT_EQ(run_csv(registry, opt), reference);
  EXPECT_TRUE(fs::exists(dir / "mc_pair" / "call-000001.done"));
  EXPECT_FALSE(fs::exists(dir / "mc_pair" / "call-000001.part"));
  fs::remove_all(dir);
}

TEST(CheckpointRun, UninterruptedCheckpointMatchesPlainRun) {
  const auto registry = mc_registry();
  const std::vector<std::string> names{"mc_pair", "mc_solo"};
  const std::string reference = run_csv(registry, base_options(names, 1));
  const fs::path dir = make_temp_dir("plain");
  auto opt = base_options(names, 1);
  opt.checkpoint_dir = dir.string();
  EXPECT_EQ(run_csv(registry, opt), reference);
  fs::remove_all(dir);
}

TEST(ShardRun, TrialScaleShapesTheReplayGeometry) {
  // A merge replayed with a different --trial-scale computes a different
  // trial count and must refuse the dumps instead of folding them wrong.
  const auto registry = mc_registry();
  const std::vector<std::string> names{"mc_solo"};
  const fs::path dir = make_temp_dir("scale");
  {
    auto opt = base_options(names, 1);
    opt.shard = eng::ShardSpec{0, 1};
    opt.partials_dir = dir.string();
    std::ostringstream out, err;
    ASSERT_EQ(run_scenarios(registry, opt, out, err), 0) << err.str();
  }
  auto merge_opt = base_options(names, 1);
  merge_opt.merge = true;
  merge_opt.partials_dir = dir.string();
  merge_opt.trial_scale = 0.5;
  std::ostringstream out, err;
  EXPECT_EQ(run_scenarios(registry, merge_opt, out, err), 1);
  EXPECT_NE(err.str().find("trials"), std::string::npos);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mram::scn
