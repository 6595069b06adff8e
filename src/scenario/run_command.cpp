#include "scenario/run_command.h"

#include <exception>
#include <filesystem>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>

#include "obs/metrics.h"
#include "obs/metrics_io.h"
#include "obs/perfctr.h"
#include "obs/progress.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"
#include "scenario/result_sink.h"
#include "util/error.h"
#include "util/table.h"

namespace mram::scn {

namespace {

/// Per-scenario engine scale-out configuration: its own subdirectory of the
/// mode's root keeps one sweep directory usable for many scenarios, and the
/// call numbering restarts at 0 for each (set_shard_io resets the counter).
eng::ShardIo shard_io_for(const RunCommandOptions& opt,
                          const std::string& name) {
  eng::ShardIo io;
  if (opt.shard.active()) {
    io.mode = eng::ShardMode::kShard;
    io.shard = opt.shard;
    io.dir = opt.partials_dir + "/" + name;
    std::filesystem::create_directories(io.dir);
  } else if (opt.merge) {
    io.mode = eng::ShardMode::kMerge;
    io.dir = opt.partials_dir + "/" + name;
    io.merge_count = opt.merge_shards > 0
                         ? opt.merge_shards
                         : eng::shard_detail::detect_shard_count(io.dir);
    if (io.merge_count == 0) {
      throw util::ConfigError("no shard dumps found under " + io.dir +
                              " (pass --shards N or re-run the shards)");
    }
  } else if (!opt.checkpoint_dir.empty()) {
    io.mode = eng::ShardMode::kCheckpoint;
    io.dir = opt.checkpoint_dir + "/" + name;
    io.resume = opt.resume;
    std::filesystem::create_directories(io.dir);
  }
  return io;
}

/// Human-readable nanoseconds for the summary percentile columns.
std::string format_ns(double ns) {
  const char* unit = "ns";
  double v = ns;
  if (v >= 1e9) {
    v /= 1e9;
    unit = "s";
  } else if (v >= 1e6) {
    v /= 1e6;
    unit = "ms";
  } else if (v >= 1e3) {
    v /= 1e3;
    unit = "us";
  }
  return util::format_double(v, v >= 100.0 ? 0 : (v >= 10.0 ? 1 : 2)) + unit;
}

}  // namespace

int run_scenarios(const ScenarioRegistry& registry,
                  const RunCommandOptions& opt, std::ostream& out,
                  std::ostream& err) {
  const std::vector<std::string> names =
      opt.all ? registry.names() : opt.names;
  if (names.empty()) {
    err << "run: no scenarios selected (name them or pass --all)\n";
    return 2;
  }
  for (const auto& name : names) registry.at(name);  // fail fast on typos
  const bool shard_mode = opt.shard.active();
  if ((shard_mode ? 1 : 0) + (opt.merge ? 1 : 0) +
          (opt.checkpoint_dir.empty() ? 0 : 1) >
      1) {
    throw util::ConfigError(
        "shard, merge and checkpoint modes are mutually exclusive");
  }
  if ((shard_mode || opt.merge) && opt.partials_dir.empty()) {
    throw util::ConfigError("shard/merge mode needs a partials directory");
  }
  if (!opt.metrics_in.empty() && opt.metrics_file.empty()) {
    throw util::ConfigError(
        "--metrics-in needs --metrics FILE for the folded output");
  }
  if (opt.perf && opt.metrics_file.empty()) {
    throw util::ConfigError(
        "--perf needs --metrics FILE (the efficiency report is part of the "
        "metrics document)");
  }

  if (!opt.out_dir.empty()) {
    std::filesystem::create_directories(opt.out_dir);
  }
  const auto sink = make_sink(opt.format, out, opt.out_dir);

  // "-" streams a JSON document to `out`; the one-line scenario statuses
  // then move to the stderr gate so stdout stays a single parseable
  // document (pipeable into json.tool without temp files).
  const bool json_on_out = opt.metrics_file == "-" || opt.trace_file == "-";

  eng::RunnerConfig runner_cfg;
  runner_cfg.threads = opt.threads;
  eng::MonteCarloRunner runner(runner_cfg);  // one pool for the whole run

  // Observability sinks. The progress gate is always installed -- it is the
  // single serialized writer for every stderr diagnostic, so the summary,
  // FAIL lines and the live line can never interleave mid-row -- but the
  // live display only animates with --progress (and never under --quiet).
  obs::Progress progress(err, opt.progress && !opt.quiet);
  obs::ScopedProgress progress_guard(&progress);

  const bool want_metrics = !opt.metrics_file.empty();
  obs::Registry metrics_registry;
  std::optional<obs::ScopedRegistry> metrics_guard;
  if (want_metrics) metrics_guard.emplace(&metrics_registry);
  obs::MetricsDoc doc;
  doc.tool = opt.merge ? "mram_merge" : "mram_scenarios";
  doc.threads = runner.threads();
  doc.seed = opt.seed;

  std::unique_ptr<obs::TraceRecorder> tracer;
  std::optional<obs::ScopedTrace> trace_guard;
  if (!opt.trace_file.empty()) {
    tracer = std::make_unique<obs::TraceRecorder>();
    trace_guard.emplace(tracer.get());
  }

  // Hardware-counter profiling: one probe decides for the whole run, and
  // unavailability is a reported state (the fallback gauges below), never a
  // failure -- containers routinely deny perf_event_open or hide the PMU.
  obs::PerfStatus perf_status;
  std::optional<obs::ScopedPerfProfiling> perf_guard;
  if (opt.perf) {
    perf_status = obs::perf_probe();
    if (perf_status.available) {
      perf_guard.emplace();
    } else if (!opt.quiet) {
      progress.print("perf: hardware counters unavailable (" +
                     perf_status.detail +
                     "); reporting software timers only\n");
    }
  }

  int failures = 0;
  double total_secs = 0.0;
  std::vector<std::string> columns{"scenario", "status",  "tables",
                                   "eff. trials", "rel err", "wall (s)"};
  if (want_metrics) {
    // Chunk wall-time percentiles from the power-of-2 histogram: the tail
    // (p99 vs p50) is the load-imbalance / frequency-throttling signal.
    columns.insert(columns.end(), {"chunk p50", "p90", "p99"});
  }
  util::Table summary(columns);
  for (std::size_t idx = 0; idx < names.size(); ++idx) {
    const auto& name = names[idx];
    const auto& scenario = registry.at(name);
    if (want_metrics) {
      metrics_registry.reset();  // per-scenario snapshots
      if (opt.perf) {
        metrics_registry.set(obs::Gauge::kPerfActive,
                             perf_status.available ? 1.0 : 0.0);
        if (!perf_status.available) {
          metrics_registry.set(
              obs::Gauge::kPerfFallbackReason,
              static_cast<double>(perf_status.fallback));
        }
      }
    }
    progress.begin_scenario(name, idx, names.size());
    obs::Stopwatch watch;
    std::vector<std::string> row;
    try {
      obs::TraceSpan scenario_span("scenario", [&] { return name; });
      const eng::ShardIo io = shard_io_for(opt, name);
      runner.set_shard_io(io);
      ScenarioContext ctx{.runner = runner,
                          .seed = opt.seed,
                          .data_dir = opt.data_dir,
                          .trial_scale = opt.trial_scale};
      const ResultSet results = scenario.run(ctx);
      if (io.mode == eng::ShardMode::kMerge) {
        // A shard that executed more runner calls than this replay consumed
        // ran adaptive, shard-local control flow -- its extra dumps would
        // silently drop from the merged totals. (Fewer calls than the
        // replay fails earlier, on the missing dump file.)
        const auto on_disk = eng::shard_detail::call_count_in_dir(io.dir);
        if (on_disk > runner.shard_calls()) {
          throw util::ConfigError(
              "partials directory " + io.dir + " holds " +
              std::to_string(on_disk) + " runner calls but the merge " +
              "replayed " + std::to_string(runner.shard_calls()) +
              " -- the shards' control flow diverged (data-dependent "
              "trial counts cannot be sharded)");
        }
      }
      const double secs = watch.seconds();
      total_secs += secs;
      // The live line is cleared before anything else of this scenario is
      // printed (sink output included), so result streams stay clean.
      progress.end_scenario();
      // Shard mode: the dumps are the product. The shard-local tables would
      // be computed from this slice's trials alone, so writing them through
      // the sink would look like (wrong) results; the merge emits the real
      // ones.
      if (io.mode != eng::ShardMode::kShard) {
        const RunMeta meta{opt.seed, runner.threads(), opt.trial_scale};
        sink->write(scenario.info, meta, results);
      }
      row = {name, "ok", std::to_string(results.tables.size()),
             results.effective_trials > 0.0
                 ? util::format_scientific(results.effective_trials)
                 : "-",
             results.rel_error >= 0.0
                 ? util::format_scientific(results.rel_error)
                 : "-",
             util::format_double(secs, 2)};
      std::ostringstream status;
      if (io.mode == eng::ShardMode::kShard) {
        status << "ok   " << name << " (shard " << io.shard.index << "/"
               << io.shard.count << ", " << runner.shard_calls()
               << " calls dumped, " << util::format_double(secs, 2)
               << " s)\n";
      } else if (!opt.out_dir.empty()) {
        status << "ok   " << name << " (" << results.tables.size()
               << " tables, " << util::format_double(secs, 2) << " s)\n";
      }
      if (!status.str().empty()) {
        if (json_on_out) {
          progress.print(status.str());
        } else {
          out << status.str();
        }
      }
    } catch (const std::exception& e) {
      ++failures;
      const double secs = watch.seconds();
      total_secs += secs;
      progress.end_scenario();
      row = {name, "FAIL", "-", "-", "-", util::format_double(secs, 2)};
      progress.print("FAIL " + name + ": " + e.what() + "\n");
    }
    if (want_metrics) {
      const obs::Snapshot snap = metrics_registry.snapshot();
      doc.scenario(name).snapshot = snap;
      const auto chunk_ns = snap.histograms.find("engine.chunk_ns");
      if (chunk_ns != snap.histograms.end() && chunk_ns->second.count > 0) {
        row.push_back(format_ns(chunk_ns->second.quantile(0.50)));
        row.push_back(format_ns(chunk_ns->second.quantile(0.90)));
        row.push_back(format_ns(chunk_ns->second.quantile(0.99)));
      } else {
        row.insert(row.end(), {"-", "-", "-"});
      }
    }
    summary.add_row(row);
  }
  progress.finish();
  // Per-scenario wall-clock summary, always on `err` (through the gate) so
  // it never corrupts piped csv/json output: scenario-level perf
  // regressions show up here without rerunning the microbenches. Printed
  // for single-scenario runs too -- their eff. trials / rel err /
  // wall-clock used to be silently dropped, and one scenario is the common
  // case when iterating. --quiet drops it (and only it): failure
  // diagnostics and exit codes are unaffected.
  if (!opt.quiet) {
    std::ostringstream block;
    summary.print(block,
                  "run summary (" + util::format_double(total_secs, 2) +
                      " s total, " + std::to_string(runner.threads()) +
                      " threads)");
    progress.print(block.str());
  }
  if (want_metrics) {
    // Shard-run metrics fold in CLI order after this run's own: counters
    // and histograms add (extensive across shards), gauges last-wins,
    // series concatenate.
    for (const auto& path : opt.metrics_in) {
      doc.fold(obs::MetricsDoc::load(path));
    }
    // "-" streams the document to `out` (pipeable into json.tool) instead
    // of a file; the summary and diagnostics go to `err` either way, so
    // the JSON on stdout stays parseable.
    if (opt.metrics_file == "-") {
      out << doc.to_json();
    } else {
      obs::write_metrics_file(opt.metrics_file, doc);
    }
  }
  if (tracer) {
    trace_guard.reset();  // stop recording before serializing
    if (tracer->dropped() > 0) {
      progress.print("warning: trace dropped " +
                     std::to_string(tracer->dropped()) +
                     " spans past the per-thread buffer cap\n");
    }
    if (opt.trace_file == "-") {
      out << tracer->to_json(doc.tool);
    } else {
      tracer->write_file(opt.trace_file, doc.tool);
    }
  }
  if (failures > 0) {
    progress.print(std::to_string(failures) + " of " +
                   std::to_string(names.size()) + " scenarios failed\n");
    return 1;
  }
  return 0;
}

}  // namespace mram::scn
