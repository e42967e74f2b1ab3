// Wall-clock benchmark runner. Runs ONE workload in this process and prints
// one JSON object on stdout: per-operation wall times, set-up times, ticks,
// peak RSS and each campaign's outputs. run.py starts a fresh process per
// workload pass (the expr interner and solver memos are thread-local and
// never free nodes, so a second pass in one process would start warm),
// checks the outputs against references.json and turns the samples into
// metrics. See README.md for the workloads and the metric map.
//
//   wallbench <pbse_campaign|serve_jobs|concolic_seeds> [--rng-seed=N]
//             [--trace=PATH] [--tiny] [--reference]
//
// --trace=PATH  also records nested spans around calls into each layer and
//               runs the side probes (activation replay, codec timing,
//               concolic + phase re-runs) after each campaign; spans are
//               kept in memory and written to PATH as JSON lines at exit.
// --tiny        small budgets and a short ladder, for the self-test.
// --reference   runs each campaign monolithically (no turn loop, no
//               slicing) and prints only its outputs: the source of the
//               committed references.
//
// Only public entry points are called and only existing Stats counters are
// read; nothing here changes how the engine runs.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analysis.h"
#include "concolic/concolic_executor.h"
#include "core/driver.h"
#include "core/pbse.h"
#include "expr/expr.h"
#include "phase/phase_analysis.h"
#include "serialize/campaign_codec.h"
#include "server/job.h"
#include "server/slice_runner.h"
#include "solver/solver.h"
#include "support/stats.h"
#include "support/vclock.h"
#include "targets/targets.h"
#include "vm/executor.h"

namespace {

using namespace pbse;
using SteadyClock = std::chrono::steady_clock;

const SteadyClock::time_point kProcessStart = SteadyClock::now();

/// Seconds since this process started (steady clock, shared by all threads).
double now_s() {
  return std::chrono::duration<double>(SteadyClock::now() - kProcessStart)
      .count();
}

/// A campaign that has not finished after this much wall time is abandoned
/// at its next operation boundary and counted as failed (timed out).
constexpr double kCampaignWallLimitS = 120.0;

// --- Spans ---------------------------------------------------------------

struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;
  int campaign = -1;
};

/// In-memory span log of the main thread. begin/end nest through a stack;
/// add() files a finished span measured elsewhere (a probe thread).
class SpanLog {
 public:
  int begin(const std::string& name, int campaign) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, now_s(), 0,
                      stack_.empty() ? -1 : stack_.back(), campaign});
    stack_.push_back(id);
    return id;
  }
  /// Closes span `id` and returns its duration in seconds.
  double end(int id) {
    spans_[id].end = now_s();
    stack_.pop_back();
    return spans_[id].end - spans_[id].start;
  }
  int add(const std::string& name, double start, double end, int parent,
          int campaign) {
    spans_.push_back({name, start, end, parent, campaign});
    return static_cast<int>(spans_.size()) - 1;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span. close() ends it early and returns its duration in seconds.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name, int campaign)
      : log_(log), id_(log.begin(name, campaign)) {}
  ~ScopedSpan() { close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  double close() {
    if (open_) {
      seconds_ = log_.end(id_);
      open_ = false;
    }
    return seconds_;
  }
  int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
  bool open_ = true;
  double seconds_ = 0;
};

// --- JSON output -----------------------------------------------------------

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string json_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    out += (i ? "," : "") + json_num(v[i]);
  return out + "]";
}

// --- Workload description ----------------------------------------------------

struct Config {
  std::string workload;
  std::uint64_t rng_seed = 1;
  std::string trace_path;
  bool tiny = false;
  bool reference = false;

  bool traced() const { return !trace_path.empty(); }
};

/// One campaign's checked outputs.
struct Outcome {
  std::string id;
  std::uint64_t ticks = 0;
  std::uint64_t covered = 0;
  std::uint64_t bugs = 0;
  std::uint64_t ops = 0;
  /// Further workload-specific outputs checked like the three above.
  std::map<std::string, std::uint64_t> detail;
  std::string error;  // empty unless the campaign crashed, threw or timed out
};

/// Everything a pass measures. Per-layer sample lists are filled only in a
/// traced pass.
struct Results {
  std::vector<double> op_ms;
  std::vector<double> setup_s;
  double timed_s = 0;
  std::uint64_t ticks = 0;
  std::vector<Outcome> outcomes;
  Stats counters;  // sum of every campaign's final Stats
  std::map<std::string, std::vector<double>> layers;
};

const targets::TargetInfo& target_info(const std::string& name) {
  for (const auto& t : targets::all_targets())
    if (t.driver == name) return t;
  throw std::runtime_error("unknown target " + name);
}

std::uint64_t peak_rss_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtoull(line.c_str() + 6, nullptr, 10);
  return 0;
}

/// Runs `fn` on a fresh thread and waits for it. Probes run there so they
/// start from empty thread-local interner and solver memos instead of
/// warming (or being warmed by) the thread that runs the workload.
void on_fresh_thread(const std::function<void()>& fn, std::string& error) {
  std::thread t([&fn, &error] {
    try {
      fn();
    } catch (const std::exception& e) {
      error = e.what();
    }
  });
  t.join();
}

// --- Side probes (traced pass only) -----------------------------------------

/// analysis::analyze_module on `module`, timed. Pure function of the module.
void probe_static_analysis(SpanLog& log, Results& r, const ir::Module& module,
                           int campaign) {
  ScopedSpan span(log, "probe.analysis", campaign);
  analysis::AnalysisOptions aopts;
  aopts.entry = "main";
  const double t0 = now_s();
  auto result = analysis::analyze_module(module, aopts);
  const double t1 = now_s();
  log.add("analysis.analyze_module", t0, t1, span.id(), campaign);
  r.layers["analysis.analyze_ms"].push_back((t1 - t0) * 1e3);
}

/// Re-runs Alg. 2 and phase analysis on a side executor configured like
/// the PbseDriver's, then (with `activations`) validate_model on each
/// recorded seedState — the query class PbseDriver::activate_pending
/// issues on a phase's first turn.
void probe_concolic(SpanLog& log, Results& r, const ir::Module& module,
                    const std::vector<std::uint8_t>& seed,
                    const core::PbseOptions& popts, bool activations,
                    int campaign) {
  ScopedSpan span(log, "probe.concolic", campaign);
  struct Timing {
    double c0 = 0, c1 = 0, p1 = 0;
    std::uint64_t insts = 0, kmeans_work = 0;
    std::vector<std::pair<double, double>> activations;
  } t;
  std::string error;
  on_fresh_thread(
      [&] {
        VClock clock;
        Stats stats;
        Solver solver(clock, stats, popts.solver);
        analysis::AnalysisOptions aopts;
        aopts.entry = "main";
        auto static_analysis = analysis::analyze_module(module, aopts);
        vm::ExecutorOptions eopts = popts.executor;
        eopts.static_analysis = static_analysis.get();
        vm::Executor executor(module, solver, clock, stats, eopts);
        t.c0 = now_s();
        concolic::ConcolicResult cres =
            concolic::run_concolic(executor, "main", seed, popts.concolic);
        t.c1 = now_s();
        phase::PhaseAnalysisResult pres =
            phase::analyze_phases(cres.bbvs, popts.phase);
        t.p1 = now_s();
        t.insts = cres.instructions;
        t.kmeans_work = pres.work;
        if (!activations) return;
        for (const vm::ForkRecord& rec : cres.seed_states) {
          auto state = std::make_unique<vm::ExecutionState>(*rec.state);
          state->id = executor.allocate_state_id();
          const double a0 = now_s();
          executor.validate_model(*state);
          t.activations.emplace_back(a0, now_s());
        }
      },
      error);
  if (!error.empty()) throw std::runtime_error("concolic probe: " + error);
  log.add("concolic.run_concolic", t.c0, t.c1, span.id(), campaign);
  log.add("phase.analyze_phases", t.c1, t.p1, span.id(), campaign);
  r.layers["concolic.run_ms"].push_back((t.c1 - t.c0) * 1e3);
  r.layers["concolic.insts"].push_back(static_cast<double>(t.insts));
  r.layers["phase.analyze_ms"].push_back((t.p1 - t.c1) * 1e3);
  r.layers["phase.kmeans_work"].push_back(static_cast<double>(t.kmeans_work));
  for (const auto& [a0, a1] : t.activations) {
    log.add("vm.validate_model", a0, a1, span.id(), campaign);
    r.layers["solver.activation_ms"].push_back((a1 - a0) * 1e3);
  }
}

/// The campaign options server::run_job_slice derives from a job spec.
core::KleeRunOptions klee_options(const server::JobSpec& spec) {
  core::KleeRunOptions options;
  options.searcher = spec.searcher;
  options.sym_file_size = spec.sym_size;
  options.rng_seed = spec.rng_seed;
  return options;
}

core::PbseOptions pbse_options(const server::JobSpec& spec) {
  core::PbseOptions options;
  options.phase_searcher = spec.searcher;
  options.rng_seed = spec.rng_seed;
  return options;
}

/// Restores a server job's snapshot into a freshly built campaign and
/// re-encodes it, timing CampaignCodec::restore and ::snapshot.
void probe_codec(SpanLog& log, Results& r, const server::JobRecord& rec,
                 int campaign) {
  ScopedSpan span(log, "probe.codec", campaign);
  double r0 = 0, r1 = 0, s0 = 0, s1 = 0;
  std::string error;
  on_fresh_thread(
      [&] {
        const auto& info = target_info(rec.spec.target);
        const ir::Module module = targets::build_target(info.source());
        if (rec.spec.mode == server::JobMode::kKlee) {
          core::KleeRun run(module, "main", klee_options(rec.spec));
          r0 = now_s();
          serialize::CampaignCodec::restore(run, rec.snapshot);
          r1 = s0 = now_s();
          serialize::CampaignCodec::snapshot(run);
          s1 = now_s();
        } else {
          core::PbseDriver driver(module, "main", pbse_options(rec.spec));
          driver.prepare(info.seed(rec.spec.seed_scale));
          r0 = now_s();
          serialize::CampaignCodec::restore(driver, rec.snapshot);
          r1 = s0 = now_s();
          serialize::CampaignCodec::snapshot(driver);
          s1 = now_s();
        }
      },
      error);
  if (!error.empty()) throw std::runtime_error("codec probe: " + error);
  log.add("serialize.restore", r0, r1, span.id(), campaign);
  log.add("serialize.snapshot", s0, s1, span.id(), campaign);
  r.layers["serialize.restore_ms"].push_back((r1 - r0) * 1e3);
  r.layers["serialize.snapshot_ms"].push_back((s1 - s0) * 1e3);
  r.layers["serialize.snapshot_kb"].push_back(rec.snapshot.size() / 1024.0);
  const double w0 = now_s();
  const std::size_t wire = rec.wire_encode().size();
  log.add("server.wire_encode", w0, now_s(), span.id(), campaign);
  r.layers["server.record_kb"].push_back(wire / 1024.0);
}

// --- Workloads ---------------------------------------------------------------

struct PbseSpec {
  std::string target;
  unsigned scale;
};

std::string pbse_id(const PbseSpec& s) {
  return s.target + "/scale" + std::to_string(s.scale);
}

core::PbseOptions campaign_options(const Config& cfg) {
  core::PbseOptions options;
  options.rng_seed = cfg.rng_seed;
  return options;
}

/// Each campaign's set-up is timed this many times (the last one is kept)
/// so that setup_s is a median of several measurements of a few ms each.
constexpr int kSetupRepeats = 5;

/// Seed generation, target compilation and campaign construction: the
/// wall time before the campaign's first tick.
struct PbseSetup {
  std::vector<std::uint8_t> seed;
  std::unique_ptr<ir::Module> module;
  std::unique_ptr<core::PbseDriver> driver;
};

PbseSetup setup_pbse_once(SpanLog& log, Results& r, const PbseSpec& spec,
                          const core::PbseOptions& options, int campaign) {
  ScopedSpan span(log, "setup", campaign);
  PbseSetup s;
  const auto& info = target_info(spec.target);
  s.seed = info.seed(spec.scale);
  {
    ScopedSpan compile(log, "lang.build_target", campaign);
    s.module =
        std::make_unique<ir::Module>(targets::build_target(info.source()));
    r.layers["lang.compile_ms"].push_back(compile.close() * 1e3);
  }
  {
    ScopedSpan construct(log, "core.construct", campaign);
    s.driver = std::make_unique<core::PbseDriver>(*s.module, "main", options);
  }
  r.setup_s.push_back(span.close());
  return s;
}

PbseSetup setup_pbse(SpanLog& log, Results& r, const PbseSpec& spec,
                     const core::PbseOptions& options, int campaign) {
  for (int i = 1; i < kSetupRepeats; ++i)
    setup_pbse_once(log, r, spec, options, campaign);
  return setup_pbse_once(log, r, spec, options, campaign);
}

/// Monolithic pbSE (Alg. 1) at Table II's per-target seed scales (pinned in
/// bench/table2_coverage.cc). Operation = one Alg. 3 turn (step_turn).
void run_pbse_campaign(const Config& cfg, SpanLog& log, Results& r) {
  const std::vector<PbseSpec> specs = {
      {"readelf", 6}, {"gif2tiff", 1}, {"pngtest", 2}, {"dwarfdump", 6}};
  const std::uint64_t budget = cfg.tiny ? 50'000 : 1'000'000;
  const core::PbseOptions options = campaign_options(cfg);
  for (std::size_t c = 0; c < specs.size(); ++c) {
    const int cid = static_cast<int>(c);
    Outcome out;
    out.id = pbse_id(specs[c]);
    PbseSetup s;
    {
      ScopedSpan campaign(log, "campaign", cid);
      const double started = now_s();
      try {
        s = setup_pbse(log, r, specs[c], options, cid);
        core::PbseDriver& driver = *s.driver;
        const double t0 = now_s();
        bool prepared;
        {
          ScopedSpan prep(log, "core.prepare", cid);
          prepared = driver.prepare(s.seed);
          r.layers["core.prepare_ms"].push_back(prep.close() * 1e3);
        }
        if (cfg.reference) {
          if (prepared && budget > driver.clock().now())
            driver.run(budget - driver.clock().now());
        } else if (prepared && budget > driver.clock().now()) {
          // The loop of PbseDriver::run, one timed step_turn at a time.
          driver.begin_run();
          const Deadline overall(driver.clock(), budget - driver.clock().now());
          bool more = true;
          while (more) {
            if (now_s() - started > kCampaignWallLimitS) {
              out.error = "timed out";
              break;
            }
            const std::uint64_t turns = driver.stats().get("pbse.turns");
            ScopedSpan turn(log, "core.step_turn", cid);
            more = driver.step_turn(overall);
            const double ms = turn.close() * 1e3;
            // Calls that only retire an empty phase or find the budget
            // spent run no turn; they stay in the timed part but are not
            // operations.
            if (driver.stats().get("pbse.turns") == turns) continue;
            r.op_ms.push_back(ms);
            r.layers["core.turn_ms"].push_back(ms);
            ++out.ops;
          }
        }
        r.timed_s += now_s() - t0;
        out.ticks = driver.clock().now();
        out.covered = driver.executor().num_covered();
        out.bugs = driver.executor().bugs().size();
        r.ticks += out.ticks;
        r.counters.merge(driver.stats());
      } catch (const std::exception& e) {
        out.error = e.what();
      }
      // Freeing the campaign's states is part of its wall time.
      s.driver.reset();
    }
    r.layers["expr.intern_nodes"].push_back(
        static_cast<double>(pbse::intern_table_size()));
    if (cfg.traced() && s.module && out.error.empty()) {
      probe_static_analysis(log, r, *s.module, cid);
      probe_concolic(log, r, *s.module, s.seed, options, true, cid);
    }
    r.outcomes.push_back(out);
  }
}

/// A job's outputs from one monolithic campaign of the same spec: what the
/// sliced job must reproduce. A pbSE job's budget starts after prepare(),
/// as in server::run_job_slice.
void reference_job(const server::JobSpec& spec, Outcome& out) {
  const auto& info = target_info(spec.target);
  const ir::Module module = targets::build_target(info.source());
  if (spec.mode == server::JobMode::kKlee) {
    core::KleeRun run(module, "main", klee_options(spec));
    run.run(spec.budget_ticks);
    out.ticks = run.clock().now();
    out.covered = run.executor().num_covered();
    out.bugs = run.executor().bugs().size();
  } else {
    core::PbseDriver driver(module, "main", pbse_options(spec));
    if (driver.prepare(info.seed(spec.seed_scale)))
      driver.run(spec.budget_ticks);
    out.ticks = driver.clock().now();
    out.covered = driver.executor().num_covered();
    out.bugs = driver.executor().bugs().size();
  }
}

/// The daemon's compute path without sockets: one thread runs a queue of
/// jobs through server::run_job_slice with the default slice length.
/// Operation = one run_job_slice call.
void run_serve_jobs(const Config& cfg, SpanLog& log, Results& r) {
  std::vector<server::JobSpec> specs;
  const std::uint64_t budget = cfg.tiny ? 100'000 : 1'000'000;
  {
    server::JobSpec pbse_job;
    pbse_job.mode = server::JobMode::kPbse;
    pbse_job.target = "readelf";
    pbse_job.seed_scale = 6;
    specs.push_back(pbse_job);
    server::JobSpec klee_job;
    klee_job.mode = server::JobMode::kKlee;
    klee_job.sym_size = 1000;
    klee_job.target = "readelf";
    specs.push_back(klee_job);
    klee_job.target = "gif2tiff";
    specs.push_back(klee_job);
  }
  for (auto& spec : specs) {
    spec.budget_ticks = budget;
    spec.rng_seed = cfg.rng_seed;
    spec.searcher = search::SearcherKind::kDefault;
  }
  const server::SliceContext ctx;  // 50k-tick slices, static analysis on

  for (std::size_t j = 0; j < specs.size(); ++j) {
    const int cid = static_cast<int>(j);
    const server::JobSpec& spec = specs[j];
    Outcome out;
    out.id = std::string(server::job_mode_name(spec.mode)) + "/" + spec.target +
             (spec.mode == server::JobMode::kKlee
                  ? "/sym" + std::to_string(spec.sym_size)
                  : "/scale" + std::to_string(spec.seed_scale));
    ScopedSpan job(log, "job", cid);
    const double started = now_s();
    try {
      const auto& info = target_info(spec.target);
      if (cfg.reference) {
        reference_job(spec, out);
        r.outcomes.push_back(out);
        continue;
      }
      for (int i = 0; i < kSetupRepeats; ++i) {
        // The daemon has no separate set-up: every slice rebuilds the
        // target and the campaign inside run_job_slice. This times that
        // same construction before the job's first slice.
        ScopedSpan setup(log, "setup", cid);
        const server::JobSpec parsed =
            server::JobSpec::from_json(spec.to_json());
        std::vector<std::uint8_t> seed;
        if (parsed.mode == server::JobMode::kPbse)
          seed = info.seed(parsed.seed_scale);
        ScopedSpan compile(log, "lang.build_target", cid);
        const ir::Module module = targets::build_target(info.source());
        r.layers["lang.compile_ms"].push_back(compile.close() * 1e3);
        ScopedSpan construct(log, "core.construct", cid);
        if (parsed.mode == server::JobMode::kKlee) {
          core::KleeRun run(module, "main", klee_options(parsed));
        } else {
          core::PbseDriver driver(module, "main", pbse_options(parsed));
        }
        construct.close();
        r.setup_s.push_back(setup.close());
      }
      server::JobRecord rec;
      rec.id = j + 1;
      rec.spec = spec;
      std::vector<server::JobRecord> after_slice;  // traced: codec probe input
      const double t0 = now_s();
      bool done = false;
      while (!done) {
        if (now_s() - started > kCampaignWallLimitS) {
          out.error = "timed out";
          break;
        }
        ScopedSpan slice(log, "server.run_job_slice", cid);
        done = server::run_job_slice(rec, ctx);
        const double ms = slice.close() * 1e3;
        r.op_ms.push_back(ms);
        ++out.ops;
        if (cfg.traced()) {
          r.layers["searchers.live_states"].push_back(
              static_cast<double>(rec.progress.states));
          after_slice.push_back(rec);
        }
      }
      r.timed_s += now_s() - t0;
      out.ticks = rec.progress.ticks;
      out.covered = rec.progress.covered;
      out.bugs = rec.progress.bugs;
      r.ticks += out.ticks;
      for (const auto& [name, n] : rec.counters) r.counters.add(name, n);
      job.close();
      r.layers["expr.intern_nodes"].push_back(
          static_cast<double>(pbse::intern_table_size()));
      if (cfg.traced() && out.error.empty()) {
        for (const server::JobRecord& snap : after_slice)
          probe_codec(log, r, snap, cid);
        if (spec.mode == server::JobMode::kPbse) {
          const ir::Module module = targets::build_target(info.source());
          probe_static_analysis(log, r, module, cid);
          probe_concolic(log, r, module, info.seed(spec.seed_scale),
                         pbse_options(spec), true, cid);
        }
      }
    } catch (const std::exception& e) {
      out.error = e.what();
    }
    r.outcomes.push_back(out);
  }
}

/// Alg. 2 plus phase analysis (PbseDriver::prepare) over a ladder of seed
/// sizes. Operation = one prepare() on one seed.
void run_concolic_seeds(const Config& cfg, SpanLog& log, Results& r) {
  std::vector<PbseSpec> ladder;
  if (cfg.tiny) {
    ladder = {{"readelf", 1}, {"pngtest", 1}, {"tcpdump", 1}};
  } else {
    for (const char* t : {"readelf", "dwarfdump", "tcpdump"})
      for (unsigned s : {6u, 24u, 48u, 96u}) ladder.push_back({t, s});
    for (unsigned s : {2u, 4u, 6u, 12u}) ladder.push_back({"pngtest", s});
    for (const char* t : {"tiff2rgba", "tiff2bw"})
      for (unsigned s : {6u, 24u, 48u}) ladder.push_back({t, s});
    // gif2tiff only at scale 1: one scale-2 seed costs ~75 s for 15.4M
    // ticks at the same per-tick rate as the rest of the ladder.
    ladder.push_back({"gif2tiff", 1});
  }
  const core::PbseOptions options = campaign_options(cfg);
  for (std::size_t c = 0; c < ladder.size(); ++c) {
    const int cid = static_cast<int>(c);
    Outcome out;
    out.id = pbse_id(ladder[c]);
    PbseSetup s;
    {
      ScopedSpan campaign(log, "seed", cid);
      try {
        s = setup_pbse(log, r, ladder[c], options, cid);
        core::PbseDriver& driver = *s.driver;
        ScopedSpan prep(log, "core.prepare", cid);
        const bool prepared = driver.prepare(s.seed);
        const double sec = prep.close();
        r.op_ms.push_back(sec * 1e3);
        r.layers["core.prepare_ms"].push_back(sec * 1e3);
        r.timed_s += sec;
        out.ops = 1;
        out.ticks = driver.clock().now();
        out.covered = driver.executor().num_covered();
        out.bugs = driver.executor().bugs().size();
        // A seed whose path executes no symbolic branch yields no phases;
        // recorded in the reference like any other output.
        out.detail["prepared"] = prepared ? 1 : 0;
        out.detail["phases"] = driver.phases().phases.size();
        out.detail["seed_states"] = driver.concolic_result().seed_states.size();
        r.ticks += out.ticks;
        r.counters.merge(driver.stats());
      } catch (const std::exception& e) {
        out.error = e.what();
      }
      // Freeing the campaign's states is part of its wall time.
      s.driver.reset();
    }
    r.layers["expr.intern_nodes"].push_back(
        static_cast<double>(pbse::intern_table_size()));
    if (cfg.traced() && s.module && out.error.empty()) {
      probe_static_analysis(log, r, *s.module, cid);
      probe_concolic(log, r, *s.module, s.seed, options, false, cid);
    }
    r.outcomes.push_back(out);
  }
}

bool parse_args(int argc, char** argv, Config& cfg) {
  if (argc < 2) return false;
  cfg.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--rng-seed=", 0) == 0) {
      char* end = nullptr;
      cfg.rng_seed = std::strtoull(arg.c_str() + 11, &end, 10);
      if (end == arg.c_str() + 11 || *end != '\0') return false;
    } else if (arg.rfind("--trace=", 0) == 0) {
      cfg.trace_path = arg.substr(8);
    } else if (arg == "--tiny") {
      cfg.tiny = true;
    } else if (arg == "--reference") {
      cfg.reference = true;
    } else {
      return false;
    }
  }
  return cfg.workload == "pbse_campaign" || cfg.workload == "serve_jobs" ||
         cfg.workload == "concolic_seeds";
}

void write_trace(const std::string& path, const SpanLog& log) {
  std::ofstream out(path);
  for (const Span& s : log.spans()) {
    out << "{\"name\":" << json_str(s.name) << ",\"start\":"
        << json_num(s.start) << ",\"end\":" << json_num(s.end)
        << ",\"parent\":" << s.parent << ",\"campaign\":" << s.campaign
        << "}\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  if (!parse_args(argc, argv, cfg)) {
    std::fprintf(stderr,
                 "usage: wallbench <pbse_campaign|serve_jobs|concolic_seeds> "
                 "[--rng-seed=N] [--trace=PATH] [--tiny] [--reference]\n");
    return 2;
  }
  SpanLog log;
  Results r;
  const double t_start = now_s();
  if (cfg.workload == "pbse_campaign") run_pbse_campaign(cfg, log, r);
  else if (cfg.workload == "serve_jobs") run_serve_jobs(cfg, log, r);
  else run_concolic_seeds(cfg, log, r);
  const double t_end = now_s();

  std::ostringstream o;
  o << "{\"workload\":" << json_str(cfg.workload)
    << ",\"rng_seed\":" << cfg.rng_seed
    << ",\"tiny\":" << (cfg.tiny ? "true" : "false")
    << ",\"wall_s\":" << json_num(t_end - t_start)
    << ",\"timed_s\":" << json_num(r.timed_s) << ",\"ticks\":" << r.ticks
    << ",\"peak_rss_kb\":" << peak_rss_kb()
    << ",\"op_ms\":" << json_list(r.op_ms)
    << ",\"setup_s\":" << json_list(r.setup_s) << ",\"campaigns\":[";
  for (std::size_t i = 0; i < r.outcomes.size(); ++i) {
    const Outcome& c = r.outcomes[i];
    o << (i ? "," : "") << "{\"id\":" << json_str(c.id)
      << ",\"ticks\":" << c.ticks << ",\"covered\":" << c.covered
      << ",\"bugs\":" << c.bugs << ",\"ops\":" << c.ops;
    for (const auto& [key, n] : c.detail) o << "," << json_str(key) << ":" << n;
    o << ",\"error\":" << json_str(c.error) << "}";
  }
  o << "]";
  if (cfg.traced()) {
    o << ",\"layers\":{";
    bool first = true;
    for (const auto& [name, samples] : r.layers) {
      o << (first ? "" : ",") << json_str(name) << ":" << json_list(samples);
      first = false;
    }
    o << "},\"counters\":{";
    first = true;
    for (const auto& [name, n] : r.counters.all()) {
      o << (first ? "" : ",") << json_str(name) << ":" << n;
      first = false;
    }
    o << "}";
    write_trace(cfg.trace_path, log);
  }
  o << "}";
  std::printf("%s\n", o.str().c_str());
  return 0;
}
