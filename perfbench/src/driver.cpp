// Benchmark driver. Runs one workload's scenario passes through the
// library's public API -- the scenario registry and scn::run_scenarios --
// timing every call with the benchmark's own spans, and checks that every
// pass at every thread count emits the same bytes. A reference pass at the
// default seed dumps every table at full precision for run.py's reference
// and golden checks. In traced mode it adds the instrumented passes (the
// program's metrics and trace surfaces on) over all workloads and the layer
// probes. Every raw measurement goes into one JSON document for run.py.
//
//   perfbench_driver --list
//   perfbench_driver --workload NAME=SCENARIO,... [--workload ...]
//                    --select NAME --seed N --seconds S
//                    --mode timed|traced|reference
//                    --work DIR --data DIR --out FILE

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "characterization/calibration.h"  // complete type for fig2b_anchor_set
#include "dynamics/llg_batch.h"
#include "engine/monte_carlo.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/metrics_io.h"
#include "obs/perfctr.h"
#include "scenario/registry.h"
#include "scenario/result_sink.h"
#include "scenario/run_command.h"

namespace perfbench {

// --- JsonOut -----------------------------------------------------------------

void JsonOut::prefix(const char* key) {
  if (!first_.empty()) {
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
  if (key) out_ += '"' + mram::obs::json_escape(key) + "\":";
}

JsonOut& JsonOut::begin_object(const char* key) {
  prefix(key);
  out_ += '{';
  first_.push_back(true);
  return *this;
}

JsonOut& JsonOut::end_object() {
  first_.pop_back();
  out_ += '}';
  return *this;
}

JsonOut& JsonOut::begin_array(const char* key) {
  prefix(key);
  out_ += '[';
  first_.push_back(true);
  return *this;
}

JsonOut& JsonOut::end_array() {
  first_.pop_back();
  out_ += ']';
  return *this;
}

JsonOut& JsonOut::number(const char* key, double v) {
  if (!std::isfinite(v)) return null(key);
  prefix(key);
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out_ += buf;
  return *this;
}

JsonOut& JsonOut::integer(const char* key, std::uint64_t v) {
  prefix(key);
  out_ += std::to_string(v);
  return *this;
}

JsonOut& JsonOut::string(const char* key, const std::string& v) {
  prefix(key);
  out_ += '"' + mram::obs::json_escape(v) + '"';
  return *this;
}

JsonOut& JsonOut::boolean(const char* key, bool v) {
  prefix(key);
  out_ += v ? "true" : "false";
  return *this;
}

JsonOut& JsonOut::null(const char* key) {
  prefix(key);
  out_ += "null";
  return *this;
}

namespace {

using namespace mram;

constexpr std::uint64_t kReferenceSeed = scn::ScenarioContext::kDefaultSeed;

/// Scenarios whose tables data/golden_*.csv pin (tests/test_golden.cpp).
const std::vector<std::string> kGoldenScenarios{"fig2b_intra_vs_ecd",
                                                "fig5_tw"};

struct Workload {
  std::string name;
  std::vector<std::string> scenarios;
};

struct Options {
  bool list = false;
  std::vector<Workload> workloads;
  std::string select;
  std::uint64_t seed = kReferenceSeed;
  double seconds = 10.0;
  std::string mode = "timed";  ///< timed | traced | reference
  std::string work_dir;
  std::string data_dir = "data";
  std::string out_file;
};

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::stringstream ss(s);
  std::string part;
  while (std::getline(ss, part, sep)) {
    if (!part.empty()) parts.push_back(part);
  }
  return parts;
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      opt.list = true;
      continue;
    }
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + arg);
    const std::string val = argv[++i];
    if (arg == "--workload") {
      const auto eq = val.find('=');
      if (eq == std::string::npos) {
        throw std::runtime_error("--workload wants NAME=SCENARIO,...");
      }
      opt.workloads.push_back({val.substr(0, eq), split(val.substr(eq + 1), ',')});
    } else if (arg == "--select") {
      opt.select = val;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(val);
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(val);
    } else if (arg == "--mode") {
      if (val != "timed" && val != "traced" && val != "reference") {
        throw std::runtime_error("--mode is timed, traced or reference");
      }
      opt.mode = val;
    } else if (arg == "--work") {
      opt.work_dir = val;
    } else if (arg == "--data") {
      opt.data_dir = val;
    } else if (arg == "--out") {
      opt.out_file = val;
    } else {
      throw std::runtime_error("unknown argument " + arg);
    }
  }
  return opt;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream os(path, std::ios::binary);
  os << text;
  if (!os) throw std::runtime_error("cannot write " + path);
}

/// The SIMD clone the load-time ifunc resolver binds for each LLG kernel
/// body: GCC's target_clones picks the highest-priority ISA the CPU has,
/// from the clone lists in dynamics/llg_batch.cpp.
std::string kernel_clones() {
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
  const bool avx512 = __builtin_cpu_supports("avx512f");
  const bool avx2 = __builtin_cpu_supports("avx2");
  const std::string narrow = avx2 ? "avx2" : "default";
  return std::string("w16=") + (avx512 ? "avx512f" : narrow) +
         " w8=" + narrow + " generic=" + narrow;
#else
  return "no target_clones dispatch on this toolchain";
#endif
}

/// Peak resident set of this process in KiB: VmHWM, which -- unlike
/// getrusage's ru_maxrss -- restarts at exec and so excludes the parent
/// that spawned the driver.
std::uint64_t peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6));
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss);
}

struct PassRecord {
  std::string workload;
  unsigned threads = 1;
  bool traced = false;
  double seconds = 0.0;
  std::vector<std::pair<std::string, double>> scenarios;
};

struct Failure {
  std::string kind;  ///< run | thread_identity
  std::string scenario;
  unsigned threads = 0;
  std::size_t pass = 0;
  std::string detail;
  std::string expected_file;
  std::string got_file;
};

/// Folded metrics of one traced pass (one workload at one thread count).
struct LayerFold {
  obs::Snapshot total;
  std::uint64_t llg_busy_ns = 0;  ///< busy time of scenarios that ran LLG
};

class Driver {
 public:
  explicit Driver(Options opt)
      : opt_(std::move(opt)), registry_(scn::ScenarioRegistry::global()) {}

  int run() {
    const Workload& sel = workload(opt_.select);
    namespace fs = std::filesystem;
    for (const char* sub : {"outputs", "mismatch", "metrics", "trace"}) {
      fs::create_directories(fs::path(opt_.work_dir) / sub);
    }

    JsonOut j;
    j.begin_object();
    write_build_record(j);

    reference_pass(sel);

    if (opt_.mode == "timed") {
      std::vector<double> setup;
      timed_passes(sel, opt_.seconds, &setup);
      j.begin_array("setup_s");
      for (const double s : setup) j.number(nullptr, s);
      j.end_array();
    } else if (opt_.mode == "traced") {
      // Untraced passes first: the base the traced passes' overhead is
      // measured against.
      timed_passes(sel, 0.6 * opt_.seconds, nullptr);
      for (const Workload& wl : opt_.workloads) {
        ScopedSpan span(spans_, "workload", "workload " + wl.name);
        for (const unsigned threads : {1u, 4u}) {
          folds_[wl.name][threads] = LayerFold{};
          run_pass(wl, threads, true);
        }
      }
      probes_ = run_probes(spans_, opt_.seed);
      spans_.write_file(opt_.work_dir + "/bench_trace.json", "perfbench");
    }

    for (const auto& [name, csv] : canonical_) {
      write_file(opt_.work_dir + "/outputs/" + name + ".csv", csv);
    }

    write_passes(j);
    write_failures(j);
    write_layers(j);
    j.begin_object("probes");
    for (const auto& [name, value] : probes_) j.number(name.c_str(), value);
    j.end_object();
    j.integer("peak_rss_kb", peak_rss_kb());
    j.end_object();
    write_file(opt_.out_file, j.str() + "\n");
    return 0;
  }

 private:
  const Workload& workload(const std::string& name) const {
    for (const auto& w : opt_.workloads) {
      if (w.name == name) return w;
    }
    throw std::runtime_error("unknown workload " + name);
  }

  void write_build_record(JsonOut& j) const {
    const obs::PerfStatus perf = obs::perf_probe();
    j.begin_object("build")
        .string("compiler", PERFBENCH_COMPILER)
        .string("flags", PERFBENCH_FLAGS)
        .string("build_type", PERFBENCH_BUILD_TYPE)
        .string("ipo", PERFBENCH_IPO)
        .integer("preferred_lanes", dyn::BatchMacrospinSim::preferred_lanes())
        .string("kernel_clones", kernel_clones())
        .integer("perf_fallback_reason",
                 static_cast<std::uint64_t>(perf.fallback))
        .string("perf_detail", perf.detail)
        .integer("registered_scenarios", registry_.size())
        .end_object();
  }

  /// Set-up as a run pays it before its first scenario call: the registry
  /// with every built-in scenario, the scenario lookups, the runner's
  /// thread pool and the anchor data load. Teardown is outside the timing.
  void measure_setup(const Workload& wl, int reps,
                     std::vector<double>& samples) const {
    for (int r = 0; r < reps; ++r) {
      const auto t0 = Clock::now();
      scn::ScenarioRegistry reg;
      scn::register_builtin_scenarios(reg);
      for (const auto& name : wl.scenarios) keep(&reg.at(name));
      eng::RunnerConfig cfg;
      cfg.threads = 4;
      eng::MonteCarloRunner runner(cfg);
      const scn::ScenarioContext ctx{.runner = runner,
                                     .seed = kReferenceSeed,
                                     .data_dir = opt_.data_dir,
                                     .trial_scale = 1.0};
      keep(ctx.fig2b_anchor_set().size());
      samples.push_back(seconds_since(t0));
    }
  }

  /// Runs the selected workload and the golden scenarios at the default
  /// seed straight through the registry, dumping every cell at full
  /// precision (numeric cells as [value, text]). At the default seed the
  /// same tables, rendered by the CSV sink, are also the bytes every timed
  /// pass must reproduce.
  void reference_pass(const Workload& wl) {
    ScopedSpan span(spans_, "reference", "reference pass");
    std::vector<std::string> names = wl.scenarios;
    for (const auto& g : kGoldenScenarios) {
      if (std::find(names.begin(), names.end(), g) == names.end()) {
        names.push_back(g);
      }
    }
    eng::RunnerConfig cfg;
    cfg.threads = 4;
    eng::MonteCarloRunner runner(cfg);
    JsonOut j;
    j.begin_object();
    for (const auto& name : names) {
      ++attempted_;
      scn::ResultSet results;
      try {
        ScopedSpan s(spans_, "scenario", name);
        scn::ScenarioContext ctx{.runner = runner,
                                 .seed = kReferenceSeed,
                                 .data_dir = opt_.data_dir,
                                 .trial_scale = 1.0};
        results = registry_.at(name).run(ctx);
      } catch (const std::exception& e) {
        failures_.push_back({"run", name, runner.threads(), 0,
                             std::string("reference pass: ") + e.what(), "",
                             ""});
        continue;
      }
      j.begin_object(name.c_str());
      for (const auto& table : results.tables) {
        j.begin_object(table.name.c_str()).begin_array("columns");
        for (const auto& c : table.columns) j.string(nullptr, c);
        j.end_array().begin_array("rows");
        for (const auto& row : table.rows) {
          j.begin_array();
          for (const auto& cell : row) {
            if (cell.numeric) {
              j.begin_array().number(nullptr, cell.value);
              j.string(nullptr, cell.text).end_array();
            } else {
              j.string(nullptr, cell.text);
            }
          }
          j.end_array();
        }
        j.end_array().end_object();
      }
      j.end_object();
      if (opt_.seed == kReferenceSeed) {
        std::ostringstream os;
        const auto sink = scn::make_sink("csv", os, "");
        sink->write(registry_.at(name).info,
                    scn::RunMeta{kReferenceSeed, runner.threads(), 1.0},
                    results);
        canonical_[name] = os.str();
      }
    }
    j.end_object();
    write_file(opt_.work_dir + "/reference_pass.json", j.str() + "\n");
  }

  /// Untraced passes until `budget` seconds have passed, at least three at
  /// each thread count. Each pass at 1 thread is followed by passes at 4
  /// threads until those add up to as long, so both thread counts get half
  /// the time. With `setup` set, set-up samples are taken after every pass,
  /// so they see the same host conditions as the passes.
  void timed_passes(const Workload& wl, double budget,
                    std::vector<double>* setup) {
    ScopedSpan span(spans_, "workload", "workload " + wl.name);
    const auto t0 = Clock::now();
    std::size_t n1 = 0, n4 = 0;
    const auto pass = [&](unsigned threads) {
      const double secs = run_pass(wl, threads, false);
      if (setup) measure_setup(wl, 5, *setup);
      return secs;
    };
    for (;;) {
      const double t1 = pass(1);
      ++n1;
      for (double t4 = 0.0; t4 < t1; ++n4) t4 += pass(4);
      if (n1 >= 3 && n4 >= 3 && seconds_since(t0) >= budget) break;
    }
  }

  /// One pass: every scenario of the workload, one run_scenarios call each
  /// (so each gets its own span), CSV output captured and compared with the
  /// scenario's first output of this process. Returns the pass seconds.
  double run_pass(const Workload& wl, unsigned threads, bool traced) {
    PassRecord rec;
    rec.workload = wl.name;
    rec.threads = threads;
    rec.traced = traced;
    const std::size_t pass_index = passes_.size();
    ScopedSpan pass_span(spans_, "pass",
                         "pass " + std::to_string(pass_index) + " t" +
                             std::to_string(threads) +
                             (traced ? " traced" : ""));
    for (const auto& name : wl.scenarios) {
      scn::RunCommandOptions ro;
      ro.names = {name};
      ro.threads = threads;
      ro.seed = opt_.seed;
      ro.format = "csv";
      ro.data_dir = opt_.data_dir;
      ro.quiet = true;
      const std::string tag =
          wl.name + ".t" + std::to_string(threads) + "." + name + ".json";
      if (traced) {
        ro.metrics_file = opt_.work_dir + "/metrics/" + tag;
        ro.trace_file = opt_.work_dir + "/trace/" + tag;
      }
      std::ostringstream out, err;
      int rc = 0;
      ScopedSpan span(spans_, "scenario", name);
      try {
        rc = scn::run_scenarios(registry_, ro, out, err);
      } catch (const std::exception& e) {
        rc = -1;
        err << e.what();
      }
      rec.scenarios.emplace_back(name, span.close());
      ++attempted_;
      check_output(name, threads, pass_index, rc, out.str(), err.str());
      if (traced && rc == 0) fold_metrics(wl.name, threads, ro.metrics_file);
    }
    rec.seconds = pass_span.close();
    passes_.push_back(std::move(rec));
    return passes_.back().seconds;
  }

  void check_output(const std::string& name, unsigned threads,
                    std::size_t pass, int rc, const std::string& csv,
                    const std::string& err) {
    if (rc != 0) {
      failures_.push_back({"run", name, threads, pass, err, "", ""});
      return;
    }
    const auto it = canonical_.find(name);
    if (it == canonical_.end()) {
      canonical_[name] = csv;
      return;
    }
    if (it->second == csv) return;
    const std::string stem = opt_.work_dir + "/mismatch/" + name;
    const std::string got =
        stem + ".pass" + std::to_string(pass) + ".t" +
        std::to_string(threads) + ".csv";
    write_file(stem + ".expected.csv", it->second);
    write_file(got, csv);
    failures_.push_back({"thread_identity", name, threads, pass,
                         "output differs from the first output",
                         stem + ".expected.csv", got});
  }

  void fold_metrics(const std::string& wl, unsigned threads,
                    const std::string& path) {
    LayerFold& fold = folds_[wl][threads];
    for (const auto& sm : obs::MetricsDoc::load(path).scenarios) {
      const auto& c = sm.snapshot.counters;
      const auto steps = c.find("llg.lane_steps");
      const auto busy = c.find("engine.busy_ns");
      if (steps != c.end() && steps->second > 0 && busy != c.end()) {
        fold.llg_busy_ns += busy->second;
      }
      obs::fold_snapshot(fold.total, sm.snapshot);
    }
  }

  void write_passes(JsonOut& j) const {
    j.begin_array("passes");
    for (const auto& p : passes_) {
      j.begin_object()
          .string("workload", p.workload)
          .integer("threads", p.threads)
          .boolean("traced", p.traced)
          .number("seconds", p.seconds)
          .begin_object("scenarios");
      for (const auto& [name, secs] : p.scenarios) j.number(name.c_str(), secs);
      j.end_object().end_object();
    }
    j.end_array();
  }

  void write_failures(JsonOut& j) const {
    j.integer("attempted", attempted_).begin_array("failures");
    for (const auto& f : failures_) {
      j.begin_object()
          .string("kind", f.kind)
          .string("scenario", f.scenario)
          .integer("threads", f.threads)
          .integer("pass", f.pass)
          .string("detail", f.detail)
          .string("expected_file", f.expected_file)
          .string("got_file", f.got_file)
          .end_object();
    }
    j.end_array();
  }

  /// Folded counters and histogram percentiles of every traced pass.
  void write_layers(JsonOut& j) const {
    j.begin_object("layers");
    for (const auto& [wl, by_threads] : folds_) {
      j.begin_object(wl.c_str());
      for (const auto& [threads, fold] : by_threads) {
        j.begin_object(("t" + std::to_string(threads)).c_str());
        j.integer("llg_busy_ns", fold.llg_busy_ns).begin_object("counters");
        for (const auto& [name, v] : fold.total.counters) {
          j.integer(name.c_str(), v);
        }
        j.end_object().begin_object("histograms");
        for (const auto& [name, h] : fold.total.histograms) {
          j.begin_object(name.c_str())
              .integer("count", h.count)
              .number("p50", h.quantile(0.50))
              .number("p90", h.quantile(0.90))
              .number("p99", h.quantile(0.99))
              .end_object();
        }
        j.end_object().end_object();
      }
      j.end_object();
    }
    j.end_object();
  }

  Options opt_;
  const scn::ScenarioRegistry& registry_;
  obs::TraceRecorder spans_;  ///< the benchmark's own spans
  std::map<std::string, std::string> canonical_;  ///< scenario -> CSV
  std::vector<PassRecord> passes_;
  std::vector<Failure> failures_;
  std::uint64_t attempted_ = 0;
  std::map<std::string, std::map<unsigned, LayerFold>> folds_;
  std::vector<ProbeResult> probes_;
};

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Options opt = perfbench::parse_args(argc, argv);
    if (opt.list) {
      for (const auto& name : mram::scn::ScenarioRegistry::global().names()) {
        std::cout << name << "\n";
      }
      return 0;
    }
    if (opt.work_dir.empty() || opt.out_file.empty() || opt.select.empty()) {
      throw std::runtime_error("--select, --work and --out are required");
    }
    perfbench::Driver driver(opt);
    return driver.run();
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }
}
