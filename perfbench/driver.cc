// perfbench_driver: runs one benchmark workload and prints its metrics.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    --pins <file> --work-dir <dir> [--tiny] [--inject-bug <id>]
//   perfbench_driver --write-pins <file>
//
// --trace 0 (the plain run) repeats passes over the workload's inputs while
// another pass fits in --seconds (at least one) and prints the end-to-end
// metrics. --trace 1 runs one plain pass and one traced pass over the same
// inputs, checks that both produced identical deterministic counters, and
// prints the per-layer metrics. Either way the last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "perfbench/trace.h"
#include "perfbench/workloads.h"

namespace {

using perfbench::PassResult;
using perfbench::Quantile;
using perfbench::Span;
using perfbench::SpanKind;
using perfbench::Usage;

// Largest share of the traced pass its stage spans may leave uncovered.
constexpr double kCoverageBound = 0.10;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out;
}

std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + JsonEscape(metrics[i].name) +
            "\": {\"value\": " + Number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

void PrintCounters(const PassResult& r) {
  std::printf("counters:");
  for (const auto& [name, value] : r.counters) {
    std::printf(" %s=%llu", name.c_str(), static_cast<unsigned long long>(value));
  }
  std::printf("\n");
}

// Per-layer metrics from the traced pass's spans and counters. `plain` is
// the untraced pass over the same inputs; `usage` its resource deltas.
std::vector<Metric> LayerMetrics(const std::vector<Span>& spans,
                                 const PassResult& plain,
                                 const PassResult& traced, const Usage& usage) {
  struct Stage {
    double seconds = 0;
    uint64_t count = 0;
    perfbench::MediaOps ops;
    std::vector<double> durations;
  };
  std::map<SpanKind, Stage> stage;
  const std::vector<double> self = perfbench::SelfSeconds(spans);
  double replay_self = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    Stage& s = stage[spans[i].kind];
    s.seconds += spans[i].seconds();
    ++s.count;
    s.ops += spans[i].ops;
    if (spans[i].kind == SpanKind::kMount) {
      s.durations.push_back(spans[i].seconds());
    }
    if (spans[i].kind == SpanKind::kUnit) {
      replay_self += self[i];
    }
  }
  perfbench::MediaOps media;
  for (SpanKind k : {SpanKind::kRun, SpanKind::kMount, SpanKind::kCheck}) {
    media += stage[k].ops;
  }
  const Stage& mount = stage[SpanKind::kMount];
  const Stage& check = stage[SpanKind::kCheck];
  const double states = static_cast<double>(traced.states);
  const double workloads = static_cast<double>(traced.workloads);
  auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  auto layer = [&](const std::string& name) {
    auto it = traced.layer.find(name);
    return it == traced.layer.end() ? 0.0 : it->second;
  };
  auto count = [](uint64_t v) { return static_cast<double>(v); };
  std::vector<Metric> m = {
      {"core.record.s", stage[SpanKind::kRecord].seconds, "s"},
      {"core.record.trace_ops", layer("core.record.trace_ops"), "count"},
      {"core.oracle.s", stage[SpanKind::kOracle].seconds, "s"},
      {"core.oracle.snapshots", layer("core.oracle.snapshots"), "count"},
      {"fs.run.s", stage[SpanKind::kRun].seconds, "s"},
      {"fs.run.instances", per(count(stage[SpanKind::kRun].count), workloads),
       "1/workload"},
      {"core.replay.self_s", replay_self, "s"},
      {"core.replay.states", states, "count"},
      {"core.replay.crash_points", count(traced.crash_points), "count"},
      {"core.replay.mount_ratio", per(count(mount.count), states), "ratio"},
      {"fs.mount.s", mount.seconds, "s"},
      {"fs.mount.calls", count(mount.count), "count"},
      {"fs.mount.p50_us", Quantile(mount.durations, 0.5) * 1e6, "us"},
      {"pmem.mount.reads", count(mount.ops.reads), "count"},
      {"pmem.mount.reads_per_mount",
       per(count(mount.ops.reads), count(mount.count)), "1/mount"},
      {"pmem.mount.read_bytes", count(mount.ops.read_bytes), "bytes"},
      {"core.check.s", check.seconds, "s"},
      {"pmem.check.reads", count(check.ops.reads), "count"},
      {"pmem.check.writes_per_state", per(count(check.ops.writes), states),
       "1/state"},
      {"pmem.reads", count(media.reads), "count"},
      {"pmem.writes", count(media.writes), "count"},
      {"pmem.flushes", count(media.flushes), "count"},
      {"pmem.fences", count(media.fences), "count"},
      {"process.sys_s", usage.sys_s, "s"},
      {"process.minor_faults", usage.minor_faults, "count"},
      {"workload.gen_s", stage[SpanKind::kGen].seconds, "s"},
      {"fuzz.commit_gap_p50_ms", layer("fuzz.commit_gap_p50_ms"), "ms"},
      {"fuzz.commit_gap_p99_ms", layer("fuzz.commit_gap_p99_ms"), "ms"},
      {"fuzz.pipeline_util", layer("fuzz.pipeline_util"), "ratio"},
      {"fuzz.corpus_size", layer("fuzz.corpus_size"), "count"},
      {"fuzz.coverage_points", layer("fuzz.coverage_points"), "count"},
      {"fuzz.states_deduped", layer("fuzz.states_deduped"), "count"},
      {"store.log_bytes", layer("store.log_bytes"), "bytes"},
      {"store.checkpoint_bytes", layer("store.checkpoint_bytes"), "bytes"},
      {"store.index_bytes", layer("store.index_bytes"), "bytes"},
      {"search.states_to_detect", layer("search.states_to_detect"), "count"},
      {"search.workloads_to_detect", layer("search.workloads_to_detect"),
       "count"},
      {"search.row_p50_s", layer("search.row_p50_s"), "s"},
      {"trace.overhead", per(traced.wall_s, plain.wall_s), "ratio"},
  };
  return m;
}

// Share of the traced pass's wall time on the driver thread that no stage
// span covers: the pass span's own self time.
double UncoveredShare(const std::vector<Span>& spans, uint32_t thread) {
  const std::vector<double> self = perfbench::SelfSeconds(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].kind == SpanKind::kPass && spans[i].thread == thread) {
      return spans[i].seconds() > 0 ? self[i] / spans[i].seconds() : 1.0;
    }
  }
  return 1.0;
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << "id\tparent\tworkload\tthread\tname\tstart_ns\tend_ns\treads\t"
         "writes\tflushes\tfences\n";
  for (const Span& s : spans) {
    out << s.id << '\t' << s.parent << '\t' << s.workload << '\t' << s.thread
        << '\t' << perfbench::SpanName(s.kind) << '\t' << s.start_ns << '\t'
        << s.end_ns << '\t' << s.ops.reads << '\t' << s.ops.writes << '\t'
        << s.ops.flushes << '\t' << s.ops.fences << '\n';
  }
}

[[noreturn]] void Die(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> --pins <file> "
               "--work-dir <dir> [--tiny] [--inject-bug <id>]\n"
               "       perfbench_driver --write-pins <file>\n",
               why);
  std::exit(2);
}

uint64_t ParseUint(const char* s) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*s == '\0' || *s == '-' || *end != '\0' || errno != 0) {
    Die("not a non-negative integer");
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  perfbench::Params params;
  uint64_t seconds = 0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        Die(("missing value for " + arg).c_str());
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      workload_name = value();
    } else if (arg == "--seed") {
      params.seed = ParseUint(value());
    } else if (arg == "--seconds") {
      seconds = ParseUint(value());
    } else if (arg == "--trace") {
      trace = static_cast<int>(ParseUint(value()));
    } else if (arg == "--pins") {
      params.pins_path = value();
    } else if (arg == "--work-dir") {
      params.work_dir = value();
    } else if (arg == "--tiny") {
      params.tiny = true;
    } else if (arg == "--inject-bug") {
      params.inject_bug = static_cast<int>(ParseUint(value()));
    } else if (arg == "--write-pins") {
      return perfbench::WritePins(value()) ? 0 : 1;
    } else {
      Die(("unknown argument " + arg).c_str());
    }
  }
  if (trace != 0 && trace != 1) {
    Die("--trace must be 0 or 1");
  }
  if (params.pins_path.empty() || params.work_dir.empty()) {
    Die("--pins and --work-dir are required");
  }
  std::filesystem::create_directories(params.work_dir);
  if (perfbench::MakeWorkload(workload_name, params) == nullptr) {
    Die(("unknown workload " + workload_name).c_str());
  }

  // glibc's dynamic mmap and trim thresholds follow the sizes of earlier
  // frees, so whether a device-sized buffer is reused heap memory or a
  // fresh, page-faulting mapping depends on the order of earlier work: the
  // 16 MiB seq-1 pass took 3 s or 15 s by chance. Fixed thresholds give
  // every run the same allocator: 1-2 MiB devices reuse heap memory (no
  // trimming), 16 MiB devices are fresh mappings (from the heap they
  // fragmented it, and peak RSS took one of two values 16 MiB apart).
  mallopt(M_MMAP_THRESHOLD, 8 * 1024 * 1024);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  // Set-up, several times; the last instance runs.
  const int kSetups = params.tiny ? 2 : 3;
  std::vector<double> setup_s;
  std::unique_ptr<perfbench::Workload> workload;
  for (int i = 0; i < kSetups; ++i) {
    workload = perfbench::MakeWorkload(workload_name, params);
    const int64_t start = perfbench::NowNs();
    workload->Setup();
    setup_s.push_back(static_cast<double>(perfbench::NowNs() - start) * 1e-9);
  }
  std::printf("workload %s seed %llu: %s\n", workload_name.c_str(),
              static_cast<unsigned long long>(params.seed),
              workload->Describe().c_str());

  std::vector<std::string> errors;
  auto gate = [&](const PassResult& r) {
    errors.insert(errors.end(), r.gate_errors.begin(), r.gate_errors.end());
  };
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  if (trace == 0) {
    std::vector<PassResult> passes;
    std::vector<double> cpu_s;
    const int64_t start = perfbench::NowNs();
    do {
      const Usage before = Usage::Now();
      passes.push_back(workload->Pass(nullptr));
      cpu_s.push_back(Usage::Now().cpu_s - before.cpu_s);
      gate(passes.back());
    } while (static_cast<double>(perfbench::NowNs() - start) * 1e-9 +
                 passes.back().wall_s <=
             static_cast<double>(seconds));
    const Usage end = Usage::Now();
    std::vector<double> wall_s;
    std::vector<double> latencies;
    double states = 0;
    double workloads = 0;
    double total_wall = 0;
    for (const PassResult& p : passes) {
      wall_s.push_back(p.wall_s);
      latencies.insert(latencies.end(), p.latencies_ms.begin(),
                       p.latencies_ms.end());
      states += static_cast<double>(p.states);
      workloads += static_cast<double>(p.workloads);
      total_wall += p.wall_s;
      attempted += p.attempted;
      failed += p.failed;
      if (p.counters != passes[0].counters) {
        errors.push_back("deterministic counters differ between passes");
      }
    }
    PrintCounters(passes[0]);
    std::printf("passes %zu, workload latency samples %zu\n", passes.size(),
                latencies.size());
    metrics = {
        {"setup_s", Quantile(setup_s, 0.5), "s"},
        {"wall_s", Quantile(wall_s, 0.5), "s"},
        {"cpu_s", Quantile(cpu_s, 0.5), "s"},
        {"states_per_s", states / total_wall, "1/s"},
        {"workloads_per_s", workloads / total_wall, "1/s"},
        {"workload_p50_ms", Quantile(latencies, 0.50), "ms"},
        {"workload_p99_ms", Quantile(latencies, 0.99), "ms"},
        {"peak_rss_mib", end.max_rss_mib, "MiB"},
        {"ok_frac",
         attempted > 0 ? 1.0 - static_cast<double>(failed) /
                                   static_cast<double>(attempted)
                       : 0.0,
         "ratio"},
    };
  } else {
    const Usage before = Usage::Now();
    PassResult plain = workload->Pass(nullptr);
    const Usage after = Usage::Now();
    Usage delta;
    delta.sys_s = after.sys_s - before.sys_s;
    delta.minor_faults = after.minor_faults - before.minor_faults;
    gate(plain);
    perfbench::Tracer tracer;
    PassResult traced;
    {
      perfbench::ScopedSpan pass(&tracer, SpanKind::kPass);
      traced = workload->Pass(&tracer);
    }
    gate(traced);
    if (plain.counters != traced.counters) {
      errors.push_back("traced pass counters differ from the plain pass");
      PrintCounters(traced);
    }
    PrintCounters(plain);
    const std::vector<Span> spans = tracer.Spans();
    const double uncovered = UncoveredShare(spans, perfbench::ThreadIndex());
    std::printf("traced pass: %zu spans, %.4f of its wall time outside "
                "stage spans (bound %.2f)\n",
                spans.size(), uncovered, kCoverageBound);
    if (uncovered > kCoverageBound) {
      errors.push_back("stage spans cover too little of the traced pass");
    }
    WriteSpans(params.work_dir + "/spans-" + workload_name + ".tsv", spans);
    attempted = plain.attempted + traced.attempted;
    failed = plain.failed + traced.failed;
    metrics = LayerMetrics(spans, plain, traced, delta);
  }

  for (const Metric& m : metrics) {
    std::printf("%-28s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const size_t shown = std::min<size_t>(errors.size(), 20);
  for (size_t i = 0; i < shown; ++i) {
    std::printf("GATE FAILED: %s\n", errors[i].c_str());
  }
  if (errors.size() > shown) {
    std::printf("GATE FAILED: ... %zu more\n", errors.size() - shown);
  }
  PrintResult(errors.empty(), attempted, failed, metrics);
  return 0;
}
