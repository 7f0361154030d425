#include "perfbench/workloads.h"

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "src/common/rng.h"
#include "src/core/fs_registry.h"
#include "src/core/harness.h"
#include "src/core/oracle.h"
#include "src/fuzz/fuzz_engine.h"
#include "src/workload/ace.h"

namespace perfbench {

namespace {

constexpr size_t kMiB = 1024 * 1024;

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

template <typename T>
void Shuffle(std::vector<T>& v, common::Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.Below(i)]);
  }
}

// FNV-1a, folded over every deterministic output of a pass.
void Mix(uint64_t& h, const std::string& s) {
  for (unsigned char c : s) {
    h = (h ^ c) * 1099511628211ULL;
  }
  h = (h ^ 0xff) * 1099511628211ULL;
}

bool IsWeak(const std::string& fs) { return fs == "ext4dax" || fs == "xfsdax"; }

// The config named `fs`, or — when `inject_bug` lives in `fs` — the config
// with that bug switched on.
chipmunk::FsConfig MakeConfig(const std::string& fs, size_t device,
                              int inject_bug) {
  const vfs::BugInfo* bug = inject_bug == 0
                                ? nullptr
                                : vfs::FindBug(static_cast<vfs::BugId>(inject_bug));
  auto config = bug != nullptr && fs == bug->fs
                    ? chipmunk::MakeBugConfig(bug->id, device)
                    : chipmunk::MakeFsConfig(fs, {}, device);
  if (!config.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", config.status().ToString().c_str());
    std::exit(2);
  }
  return *config;
}

workload::AceOptions AceFor(int seq, const std::string& fs) {
  workload::AceOptions ace;
  ace.seq = seq;
  ace.weak_mode = IsWeak(fs);
  return ace;
}

// Per-ordinal crash-state pins: "seq<n> <fs> <count>,<count>,...".
using Pins = std::map<std::string, std::vector<uint64_t>>;

Pins LoadPins(const std::string& path) {
  Pins pins;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string seq, fs, counts;
    fields >> seq >> fs >> counts;
    std::vector<uint64_t>& out = pins[seq + " " + fs];
    std::istringstream items(counts);
    std::string item;
    while (std::getline(items, item, ',')) {
      out.push_back(std::stoull(item));
    }
  }
  return pins;
}

// Full-sweep ACE seq-1 crash-state totals, identical at 2 and 16 MiB.
const std::map<std::string, uint64_t>& Seq1Totals() {
  static const std::map<std::string, uint64_t> totals = {
      {"novafs", 1320}, {"novafs-fortis", 13451}, {"pmfs", 1818},
      {"winefs", 1758}, {"ext4dax", 186},         {"xfsdax", 186},
      {"splitfs", 1298}};
  return totals;
}

// The traced run's standalone record and oracle stages for one workload,
// timed around the public calls on an uninstrumented config.
struct Probes {
  uint64_t trace_ops = 0;
  uint64_t snapshots = 0;

  void Run(Tracer* tracer, const chipmunk::FsConfig& config,
           const workload::Workload& w, bool log_temporal) {
    {
      ScopedSpan span(tracer, SpanKind::kRecord);
      auto rec = chipmunk::RecordTrace(config, w, log_temporal);
      trace_ops += rec.ok() ? rec->trace.size() : 0;
    }
    {
      ScopedSpan span(tracer, SpanKind::kOracle);
      auto oracle = chipmunk::BuildOracle(config, w);
      snapshots += oracle.ok() ? oracle->pre.size() + oracle->post.size() : 0;
    }
  }
  void Publish(PassResult& r) const {
    r.layer["core.record.trace_ops"] = static_cast<double>(trace_ops);
    r.layer["core.oracle.snapshots"] = static_cast<double>(snapshots);
  }
};

// One timed Harness::TestWorkload call, folded into the pass result.
common::StatusOr<chipmunk::RunStats> TimedTest(
    Tracer* tracer, const chipmunk::Harness& harness,
    const workload::Workload& w, PassResult& r) {
  const int64_t start = NowNs();
  common::StatusOr<chipmunk::RunStats> stats = common::Invalid("not run");
  {
    ScopedSpan span(tracer, SpanKind::kUnit);
    stats = harness.TestWorkload(w);
  }
  r.latencies_ms.push_back(Seconds(NowNs() - start) * 1e3);
  ++r.workloads;
  if (stats.ok()) {
    r.states += stats->crash_states;
    r.crash_points += stats->crash_points;
  }
  return stats;
}

// ---------------------------------------------------------------------------
// ACE sweeps: ace-seq2 (seeded stratified sample, 2 MiB) and ace-seq1-16m
// (full seq-1, seed-permuted order, 16 MiB). Every config is bug-free, replay
// is exhaustive with one replay job.
// ---------------------------------------------------------------------------

class AceSweep : public Workload {
 public:
  AceSweep(const Params& params, int seq, size_t device,
           std::vector<std::string> fs_names)
      : params_(params),
        seq_(seq),
        device_(device),
        fs_names_(std::move(fs_names)) {}

  void Setup() override {
    pins_ = LoadPins(params_.pins_path);
    configs_.clear();
    harnesses_.clear();
    enumerators_.clear();
    for (const std::string& fs : fs_names_) {
      configs_.push_back(MakeConfig(fs, device_, params_.inject_bug));
      harnesses_.emplace_back(configs_.back());
      enumerators_.emplace_back(AceFor(seq_, fs));
      const std::vector<uint64_t>& pin = pins_["seq" + std::to_string(seq_) +
                                               " " + fs];
      if (pin.size() != enumerators_.back().count()) {
        std::fprintf(stderr, "perfbench: no seq-%d pins for %s in %s\n", seq_,
                     fs.c_str(), params_.pins_path.c_str());
        std::exit(2);
      }
    }
    common::Rng rng(params_.seed);
    units_.clear();
    if (seq_ == 1) {
      // Every ordinal of every config, configs in registry order, ordinals
      // in seed-permuted order.
      for (size_t c = 0; c < configs_.size(); ++c) {
        std::vector<uint64_t> ordinals(enumerators_[c].count());
        for (uint64_t i = 0; i < ordinals.size(); ++i) {
          ordinals[i] = i;
        }
        Shuffle(ordinals, rng);
        if (params_.tiny) {
          ordinals.resize(4);
        }
        for (uint64_t o : ordinals) {
          units_.push_back({c, o});
        }
      }
    } else {
      // Stratified by cost: ordinals sorted by their pinned crash-state
      // count summed over the configs, cut into strata of kStratum, one
      // seeded pick per stratum. Every seed draws different workloads with
      // nearly the same total work.
      std::vector<std::pair<uint64_t, uint64_t>> by_cost;  // (cost, ordinal)
      for (uint64_t o = 0; o < enumerators_[0].count(); ++o) {
        uint64_t cost = 0;
        for (const std::string& fs : fs_names_) {
          cost += pins_["seq2 " + fs][o];
        }
        by_cost.push_back({cost, o});
      }
      std::sort(by_cost.begin(), by_cost.end());
      std::vector<uint64_t> sample;
      for (size_t i = 0; i + kStratum <= by_cost.size(); i += kStratum) {
        sample.push_back(by_cost[i + rng.Below(kStratum)].second);
      }
      Shuffle(sample, rng);
      if (params_.tiny) {
        sample.resize(3);
      }
      for (uint64_t o : sample) {
        for (size_t c = 0; c < configs_.size(); ++c) {
          units_.push_back({c, o});
        }
      }
    }
    // Warm-up: the first workloads of every config.
    for (size_t c = 0; c < configs_.size(); ++c) {
      for (uint64_t o = 0; o < kWarmup; ++o) {
        (void)harnesses_[c].TestWorkload(enumerators_[c].At(o));
      }
    }
  }

  PassResult Pass(Tracer* tracer) override {
    PassResult r;
    std::vector<chipmunk::Harness> traced;
    if (tracer != nullptr) {
      for (const chipmunk::FsConfig& config : configs_) {
        traced.emplace_back(Instrument(config, tracer));
      }
    }
    const std::vector<chipmunk::Harness>& harnesses =
        tracer != nullptr ? traced : harnesses_;
    Probes probes;
    std::map<std::string, uint64_t> per_fs;
    uint64_t digest = 14695981039346656037ULL;
    const int64_t start = NowNs();
    for (size_t u = 0; u < units_.size(); ++u) {
      const auto [c, ordinal] = units_[u];
      SetCurrentWorkload(static_cast<int64_t>(u));
      workload::Workload w;
      {
        ScopedSpan span(tracer, SpanKind::kGen);
        w = enumerators_[c].At(ordinal);
      }
      if (tracer != nullptr) {
        probes.Run(tracer, configs_[c], w, false);
      }
      auto stats = TimedTest(tracer, harnesses[c], w, r);
      ++r.attempted;
      const std::string& fs = fs_names_[c];
      const std::string where = fs + " ordinal " + std::to_string(ordinal);
      if (!stats.ok()) {
        ++r.failed;
        r.gate_errors.push_back(where + ": " + stats.status().ToString());
        continue;
      }
      if (!stats->quarantined.empty()) {
        ++r.failed;
      }
      const uint64_t pinned =
          pins_["seq" + std::to_string(seq_) + " " + fs][ordinal];
      if (stats->crash_states != pinned) {
        r.gate_errors.push_back(where + ": " +
                                std::to_string(stats->crash_states) +
                                " crash states, pinned " +
                                std::to_string(pinned));
      }
      for (const chipmunk::BugReport& report : stats->reports) {
        r.gate_errors.push_back(where + ": report on a bug-free config: " +
                                report.Signature());
        Mix(digest, report.Signature());
      }
      per_fs[fs] += stats->crash_states;
      r.counters["reports"] += stats->reports.size();
      Mix(digest, where + " " + std::to_string(stats->crash_states) + " " +
                      std::to_string(stats->crash_points));
    }
    r.wall_s = Seconds(NowNs() - start);
    SetCurrentWorkload(-1);
    for (const auto& [fs, states] : per_fs) {
      r.counters["states." + fs] = states;
      if (seq_ == 1 && !params_.tiny && Seq1Totals().at(fs) != states) {
        r.gate_errors.push_back(fs + ": seq-1 sweep visited " +
                                std::to_string(states) +
                                " crash states, pinned " +
                                std::to_string(Seq1Totals().at(fs)));
      }
    }
    r.counters["crash_points"] = r.crash_points;
    r.counters["digest"] = digest;
    probes.Publish(r);
    return r;
  }

  std::string Describe() const override {
    return "ACE seq-" + std::to_string(seq_) + ", " +
           std::to_string(device_ / kMiB) + " MiB device, " +
           std::to_string(fs_names_.size()) + " clean configs, " +
           std::to_string(units_.size()) +
           " workloads per pass, exhaustive replay, replay jobs 1";
  }

 private:
  struct Unit {
    size_t config;
    uint64_t ordinal;
  };

  Params params_;
  int seq_;
  size_t device_;
  std::vector<std::string> fs_names_;
  // seq-2 sample: one ordinal per kStratum ordinals of similar cost.
  static constexpr size_t kStratum = 16;
  // Warm-up workloads per config: enough for a set-up time well above
  // timer and scheduler noise.
  static constexpr uint64_t kWarmup = 4;
  Pins pins_;
  std::vector<chipmunk::FsConfig> configs_;
  std::vector<chipmunk::Harness> harnesses_;
  std::vector<workload::AceEnumerator> enumerators_;
  std::vector<Unit> units_;
};

// ---------------------------------------------------------------------------
// table1-detect: the seeded Table 1 rows, searched like bench_table1_bugs
// (cap 2, stop at first report, ACE seq-1 -> seq-2 -> seq-3m with a 3000
// workload seq-3m budget, the fuzzer for fuzzer-only rows), 1 MiB device.
// The workload seed permutes the row order.
// ---------------------------------------------------------------------------

// The phase bench_table1_bugs finds each row in.
const std::map<int, std::string>& PinnedPhases() {
  static const std::map<int, std::string> phases = {
      {1, "ace-seq1"},  {2, "ace-seq1"},  {3, "ace-seq1"},  {4, "ace-seq1"},
      {5, "ace-seq2"},  {6, "ace-seq2"},  {7, "ace-seq2"},  {8, "ace-seq2"},
      {9, "ace-seq1"},  {10, "ace-seq1"}, {11, "ace-seq2"}, {12, "ace-seq2"},
      {13, "ace-seq2"}, {14, "ace-seq1"}, {15, "ace-seq1"}, {16, "ace-seq1"},
      {17, "ace-seq1"}, {18, "ace-seq1"}, {19, "fuzzer"},   {20, "fuzzer"},
      {21, "ace-seq1"}, {22, "fuzzer"},   {23, "fuzzer"},   {24, "ace-seq1"},
      {25, "ace-seq1"}, {26, "ace-seq1"}};
  return phases;
}

class Table1Detect : public Workload {
 public:
  explicit Table1Detect(const Params& params) : params_(params) {
    options_.replay_cap = 2;
    options_.stop_at_first_report = true;
  }

  void Setup() override {
    rows_.clear();
    size_t ace_rows = 0;
    size_t fuzz_rows = 0;
    for (const vfs::BugInfo& info : vfs::AllBugs()) {
      if (info.unique_bug >= 27) {
        continue;  // concurrency seeds: multi-threaded workloads only
      }
      if (params_.tiny &&
          (info.fuzzer_only ? fuzz_rows >= 1 : ace_rows >= 2)) {
        continue;
      }
      (info.fuzzer_only ? fuzz_rows : ace_rows) += 1;
      auto config = chipmunk::MakeBugConfig(info.id, kDevice);
      if (!config.ok()) {
        std::fprintf(stderr, "perfbench: %s\n",
                     config.status().ToString().c_str());
        std::exit(2);
      }
      rows_.push_back({info, *config});
    }
    common::Rng rng(params_.seed);
    Shuffle(rows_, rng);
    phases_.clear();
    phases_.push_back({"ace-seq1", workload::AceEnumerator({.seq = 1}), 0});
    phases_.push_back({"ace-seq2", workload::AceEnumerator({.seq = 2}), 0});
    phases_.push_back({"ace-seq3m",
                       workload::AceEnumerator({.seq = 3, .metadata_only = true}),
                       3000});
    // Warm-up: one workload per row config.
    const workload::Workload first = phases_[0].enumerator.At(0);
    for (const Row& row : rows_) {
      (void)chipmunk::Harness(row.config, options_).TestWorkload(first);
    }
  }

  PassResult Pass(Tracer* tracer) override {
    PassResult r;
    Probes probes;
    std::vector<double> row_s;
    const int64_t start = NowNs();
    for (const Row& row : rows_) {
      const int id = static_cast<int>(row.info.id);
      const chipmunk::FsConfig config =
          tracer != nullptr ? Instrument(row.config, tracer) : row.config;
      const uint64_t states_before = r.states;
      const uint64_t workloads_before = r.workloads;
      const int64_t row_start = NowNs();
      std::string found_in;
      std::string signature;
      if (!row.info.fuzzer_only) {
        const chipmunk::Harness harness(config, options_);
        for (const Phase& phase : phases_) {
          const uint64_t end = phase.budget == 0
                                   ? phase.enumerator.count()
                                   : std::min(phase.budget,
                                              phase.enumerator.count());
          for (uint64_t o = 0; o < end && found_in.empty(); ++o) {
            SetCurrentWorkload(static_cast<int64_t>(r.workloads));
            workload::Workload w;
            {
              ScopedSpan span(tracer, SpanKind::kGen);
              w = phase.enumerator.At(o);
            }
            if (tracer != nullptr) {
              probes.Run(tracer, row.config, w, false);
            }
            auto stats = TimedTest(tracer, harness, w, r);
            if (stats.ok() && !stats->clean()) {
              found_in = phase.label;
              signature = stats->reports[0].Signature();
            }
          }
          if (!found_in.empty()) {
            break;
          }
        }
      } else {
        fuzz::FuzzOptions fopts;
        fopts.seed = kFuzzSeed;
        fopts.harness = options_;
        fuzz::FuzzEngine fuzzer(config, fopts);
        for (int i = 0; i < kFuzzSteps && found_in.empty(); ++i) {
          SetCurrentWorkload(static_cast<int64_t>(r.workloads));
          const int64_t step_start = NowNs();
          size_t fresh = 0;
          {
            ScopedSpan span(tracer, SpanKind::kUnit);
            fresh = fuzzer.Step();
          }
          r.latencies_ms.push_back(Seconds(NowNs() - step_start) * 1e3);
          ++r.workloads;
          if (fresh > 0) {
            found_in = "fuzzer";
            signature = fuzzer.result().timeline.back().signature;
          }
        }
        r.states += fuzzer.result().crash_states;
      }
      SetCurrentWorkload(-1);
      row_s.push_back(Seconds(NowNs() - row_start));
      ++r.attempted;
      const auto it = PinnedPhases().find(id);
      const std::string pinned =
          it == PinnedPhases().end() ? "no pinned phase" : it->second;
      if (found_in != pinned) {
        ++r.failed;
        r.gate_errors.push_back(
            "bug " + std::to_string(id) + " (" + row.info.fs + "): found in " +
            (found_in.empty() ? "no phase" : found_in) + ", pinned " + pinned);
      }
      const std::string key = "row." + std::to_string(id);
      r.counters[key + ".states"] = r.states - states_before;
      r.counters[key + ".workloads"] = r.workloads - workloads_before;
      uint64_t h = 14695981039346656037ULL;
      Mix(h, found_in + " " + signature);
      r.counters[key + ".report"] = h;
    }
    r.wall_s = Seconds(NowNs() - start);
    r.counters["detected"] = r.attempted - r.failed;
    r.layer["search.states_to_detect"] = static_cast<double>(r.states);
    r.layer["search.workloads_to_detect"] = static_cast<double>(r.workloads);
    r.layer["search.row_p50_s"] = Quantile(row_s, 0.5);
    probes.Publish(r);
    return r;
  }

  std::string Describe() const override {
    return "Table 1 search over " + std::to_string(rows_.size()) +
           " seeded rows in seed-permuted order, 1 MiB device, cap 2, stop "
           "at first report, fuzzer rows with fuzz seed " +
           std::to_string(kFuzzSeed) + " (<= " + std::to_string(kFuzzSteps) +
           " steps)";
  }

 private:
  static constexpr size_t kDevice = 1 * kMiB;
  static constexpr int kFuzzSteps = 4000;
  // bench_table1_bugs' fuzz seed. Fuzzer-only rows are not seeded by the
  // workload seed: their time to detect swings the pass wall time by a
  // third across seeds, and some seeds miss a row within kFuzzSteps.
  static constexpr uint64_t kFuzzSeed = 1234;

  struct Row {
    vfs::BugInfo info;
    chipmunk::FsConfig config;
  };
  struct Phase {
    const char* label;
    workload::AceEnumerator enumerator;
    uint64_t budget;  // 0 = whole phase
  };

  Params params_;
  chipmunk::HarnessOptions options_;
  std::vector<Row> rows_;
  std::vector<Phase> phases_;
};

// ---------------------------------------------------------------------------
// fuzz-mt-campaign: FuzzEngine campaigns on clean winefs (2 MiB), each into
// a fresh store directory, 2 logical threads with the isolation oracle, cap
// 2, lint on, replay jobs 1, fuzz jobs = min(4, hardware threads).
// ---------------------------------------------------------------------------

// Observes the campaign from its generator hooks: when each workload is
// built, and (traced run) which workloads were executed.
class ObservedFuzzEngine : public fuzz::FuzzEngine {
 public:
  ObservedFuzzEngine(chipmunk::FsConfig config, fuzz::FuzzOptions options,
                     Tracer* tracer, std::vector<int64_t>* built_ns,
                     std::vector<workload::Workload>* executed)
      : FuzzEngine(std::move(config), std::move(options)),
        tracer_(tracer),
        built_ns_(built_ns),
        executed_(executed) {}

 protected:
  workload::Workload BuildWorkload(uint64_t ordinal, uint64_t pin) override {
    if (ordinal < built_ns_->size()) {
      (*built_ns_)[ordinal] = NowNs();
    }
    ScopedSpan span(tracer_, SpanKind::kGen);
    return FuzzEngine::BuildWorkload(ordinal, pin);
  }
  bool DecideAdmission(const Pending& p) const override {
    if (tracer_ != nullptr) {
      executed_->push_back(p.w);
    }
    return FuzzEngine::DecideAdmission(p);
  }

 private:
  Tracer* tracer_;
  std::vector<int64_t>* built_ns_;
  std::vector<workload::Workload>* executed_;
};

class FuzzCampaign : public Workload {
 public:
  explicit FuzzCampaign(const Params& params) : params_(params) {}

  void Setup() override {
    config_ = MakeConfig("winefs", kDevice, params_.inject_bug);
    options_ = fuzz::FuzzOptions{};
    options_.iterations = params_.tiny ? 24 : kIterations;
    options_.jobs = std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
    options_.threads = 2;
    options_.lint = true;
    options_.harness.jobs = 1;
    options_.campaign_dir = params_.work_dir + "/fuzz-campaign";
    campaigns_ = params_.tiny ? 2 : kCampaigns;
    // Warm-up: the first single-threaded ACE workloads.
    const chipmunk::Harness harness(config_, options_.harness);
    const workload::AceEnumerator ace({.seq = 1});
    for (uint64_t o = 0; o < 32; ++o) {
      (void)harness.TestWorkload(ace.At(o));
    }
  }

  // Several short campaigns, each seeded from the workload seed, so that a
  // pass averages over corpus histories rather than following one.
  PassResult Pass(Tracer* tracer) override {
    PassResult r;
    Totals totals;
    const int64_t start = NowNs();
    const double cpu_start = Usage::Now().cpu_s;
    for (size_t c = 0; c < campaigns_; ++c) {
      RunCampaign(common::SplitMix64(params_.seed * kCampaigns + c), tracer,
                  r, totals);
    }
    r.wall_s = Seconds(NowNs() - start);
    const double cpu = Usage::Now().cpu_s - cpu_start;
    r.layer["fuzz.commit_gap_p50_ms"] = Quantile(totals.gaps_ms, 0.5);
    r.layer["fuzz.commit_gap_p99_ms"] = Quantile(totals.gaps_ms, 0.99);
    r.layer["fuzz.pipeline_util"] =
        cpu / (r.wall_s * static_cast<double>(options_.jobs));
    r.layer["fuzz.corpus_size"] = static_cast<double>(r.counters["corpus_size"]);
    r.layer["fuzz.coverage_points"] =
        static_cast<double>(r.counters["coverage_points"]);
    r.layer["fuzz.states_deduped"] =
        static_cast<double>(r.counters["states_deduped"]);
    r.layer["store.log_bytes"] = static_cast<double>(totals.log_bytes);
    r.layer["store.checkpoint_bytes"] =
        static_cast<double>(totals.checkpoint_bytes);
    r.layer["store.index_bytes"] = static_cast<double>(totals.index_bytes);
    if (tracer != nullptr) {
      // Record and oracle stages of every executed workload, after the
      // campaigns so that they do not stall a commit barrier.
      Probes probes;
      for (const workload::Workload& w : totals.executed) {
        probes.Run(tracer, config_, w, options_.lint);
      }
      probes.Publish(r);
    }
    return r;
  }

  std::string Describe() const override {
    return std::to_string(campaigns_) + " FuzzEngine campaigns of " +
           std::to_string(options_.iterations) +
           " iterations on clean winefs, 2 MiB device, 2 threads "
           "(isolation oracle), cap 2, lint on, replay jobs 1, fuzz jobs " +
           std::to_string(options_.jobs) + ", fresh store each";
  }

 private:
  static constexpr size_t kDevice = 2 * kMiB;
  static constexpr size_t kCampaigns = 24;
  static constexpr size_t kIterations = 250;
  // Some seeds make clean winefs report an isolation violation on a
  // two-thread fallocate workload: either a linearization-oracle false
  // positive or a real winefs concurrency bug, not yet triaged. It is
  // counted, not gated; any other report fails the gate.
  static constexpr const char* kKnownFinding =
      "winefs|isolation-violation|falloc";

  struct Totals {
    std::vector<double> gaps_ms;
    uint64_t log_bytes = 0;
    uint64_t checkpoint_bytes = 0;
    uint64_t index_bytes = 0;
    std::vector<workload::Workload> executed;  // traced run only
  };

  void RunCampaign(uint64_t seed, Tracer* tracer, PassResult& r,
                   Totals& totals) const {
    const std::string& dir = options_.campaign_dir;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::vector<int64_t> built(options_.iterations, 0);
    std::vector<int64_t> committed;
    uint64_t log_size = 0;
    fuzz::FuzzOptions options = options_;
    options.seed = seed;
    const std::string log_path = dir + "/log.bin";
    options.on_commit = [&](uint64_t, uint64_t, uint64_t) {
      committed.push_back(NowNs());
      if (tracer != nullptr) {
        // Bytes appended to the log; checkpoints truncate it.
        const uint64_t size = FileBytes(log_path);
        totals.log_bytes += size >= log_size ? size - log_size : size;
        log_size = size;
      }
    };
    fuzz::FuzzResult result;
    {
      ObservedFuzzEngine engine(
          tracer != nullptr ? Instrument(config_, tracer) : config_, options,
          tracer, &built, &totals.executed);
      common::Status opened = engine.OpenCampaign();
      if (!opened.ok()) {
        r.gate_errors.push_back("open campaign: " + opened.ToString());
        return;
      }
      ScopedSpan span(tracer, SpanKind::kCampaign);
      result = engine.Run();
    }
    for (size_t i = 0; i < committed.size() && i < built.size(); ++i) {
      r.latencies_ms.push_back(Seconds(committed[i] - built[i]) * 1e3);
    }
    for (size_t i = 1; i < committed.size(); ++i) {
      totals.gaps_ms.push_back(Seconds(committed[i] - committed[i - 1]) * 1e3);
    }
    totals.checkpoint_bytes += FileBytes(dir + "/checkpoint.bin");
    totals.index_bytes += FileBytes(dir + "/index.bin");

    r.attempted += result.executed;
    r.failed += result.workloads_quarantined + result.replay_failures;
    r.workloads += result.executed;
    r.states += result.crash_states;
    if (result.executed != options_.iterations) {
      r.gate_errors.push_back("executed " + std::to_string(result.executed) +
                              " of " + std::to_string(options_.iterations));
    }
    for (const chipmunk::BugReport& report : result.unique_reports) {
      if (report.Signature() == kKnownFinding) {
        ++r.counters["known_finding_reports"];
      } else {
        r.gate_errors.push_back("report on clean winefs: " +
                                report.Signature());
      }
    }
    CheckFold(result, r);
    r.counters["executed"] += result.executed;
    r.counters["crash_states"] += result.crash_states;
    r.counters["states_deduped"] += result.states_deduped;
    r.counters["corpus_size"] += result.corpus_size;
    r.counters["coverage_points"] += result.coverage_points;
    r.counters["lint_findings"] += result.lint_findings;
    r.counters["hb_findings"] += result.hb_findings;
    std::filesystem::remove_all(dir, ec);
  }

  // The store on disk must fold to exactly the live result.
  void CheckFold(const fuzz::FuzzResult& live, PassResult& r) const {
    auto loaded = store::CampaignStore::Load(options_.campaign_dir);
    if (!loaded.ok()) {
      r.gate_errors.push_back("load store: " + loaded.status().ToString());
      return;
    }
    const store::CampaignState st = fuzz::FoldCampaign(*loaded);
    bool same = st.committed == live.executed &&
                st.executed == live.executed &&
                st.crash_states == live.crash_states &&
                st.states_deduped == live.states_deduped &&
                st.lint_findings == live.lint_findings &&
                st.hb_findings == live.hb_findings &&
                st.workloads_quarantined == live.workloads_quarantined &&
                st.corpus.size() == live.corpus_size &&
                st.report_hits == live.report_hits &&
                st.timeline.size() == live.timeline.size() &&
                st.unique_reports.size() == live.unique_reports.size();
    for (size_t i = 0; same && i < st.unique_reports.size(); ++i) {
      same = st.unique_reports[i].Signature() ==
             live.unique_reports[i].Signature();
    }
    if (!same) {
      r.gate_errors.push_back("FoldCampaign of the store differs from the "
                              "live CampaignResult");
    }
  }

  Params params_;
  chipmunk::FsConfig config_;
  fuzz::FuzzOptions options_;
  size_t campaigns_ = kCampaigns;
};

}  // namespace

Usage Usage::Now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  u.cpu_s = u.sys_s + static_cast<double>(ru.ru_utime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  u.minor_faults = static_cast<double>(ru.ru_minflt);
  u.max_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return u;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Params& params) {
  if (name == "ace-seq2") {
    return std::make_unique<AceSweep>(
        params, 2, 2 * kMiB,
        std::vector<std::string>{"novafs", "novafs-fortis", "pmfs", "winefs",
                                 "splitfs"});
  }
  if (name == "ace-seq1-16m") {
    return std::make_unique<AceSweep>(params, 1, 16 * kMiB,
                                      chipmunk::RegisteredFsNames());
  }
  if (name == "table1-detect") {
    return std::make_unique<Table1Detect>(params);
  }
  if (name == "fuzz-mt-campaign") {
    return std::make_unique<FuzzCampaign>(params);
  }
  return nullptr;
}

bool WritePins(const std::string& path) {
  std::ofstream out(path);
  out << "# Crash states per ACE ordinal for bug-free configs (exhaustive\n"
         "# replay; seq-1 at 16 MiB, seq-2 at 2 MiB): seq<n> <fs> <counts>\n";
  bool ok = true;
  for (const int seq : {1, 2}) {
    for (const std::string& fs : chipmunk::RegisteredFsNames()) {
      if (seq == 2 && IsWeak(fs)) {
        continue;
      }
      const chipmunk::Harness harness(
          MakeConfig(fs, seq == 1 ? 16 * kMiB : 2 * kMiB, 0));
      const workload::AceEnumerator ace(AceFor(seq, fs));
      out << "seq" << seq << " " << fs << " ";
      uint64_t total = 0;
      for (uint64_t o = 0; o < ace.count(); ++o) {
        auto stats = harness.TestWorkload(ace.At(o));
        if (!stats.ok() || !stats->clean()) {
          std::fprintf(stderr, "%s seq-%d ordinal %llu: %s\n", fs.c_str(), seq,
                       static_cast<unsigned long long>(o),
                       stats.ok() ? "report" : stats.status().ToString().c_str());
          ok = false;
        }
        const uint64_t states = stats.ok() ? stats->crash_states : 0;
        total += states;
        out << (o == 0 ? "" : ",") << states;
      }
      out << "\n";
      std::printf("seq-%d %-14s %llu crash states\n", seq, fs.c_str(),
                  static_cast<unsigned long long>(total));
      if (seq == 1 && total != Seq1Totals().at(fs)) {
        ok = false;
      }
    }
  }
  return ok && out.good();
}

}  // namespace perfbench
