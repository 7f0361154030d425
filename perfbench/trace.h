// Span tracing for the benchmark's traced run.
//
// Everything is observed from outside the pipeline. The driver opens spans
// around the public calls it makes (Harness::TestWorkload, RecordTrace,
// BuildOracle, AceEnumerator::At, FuzzEngine::Run). Inside the pipeline,
// Instrument() wraps FsConfig::make so that every file-system instance any
// layer builds is a delegating vfs::FileSystem with a counting pmem::PmHook
// attached to its Pm (removed when the instance is destroyed):
//   - an instance that gets Mkfs() is a record, oracle or linearization run
//     and yields one `fs.run` span, from construction to its last call;
//   - an instance mounted without Mkfs() is a crash-state recovery and yields
//     an `fs.mount` span (the Mount() call) followed by a `core.check` span
//     (the checker's use of it, until it is destroyed).
// Spans are kept in memory; the driver derives self times and per-layer
// metrics from them when the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/fs_config.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanKind : uint8_t {
  kPass,      // one pass over a workload's inputs
  kUnit,      // one Harness::TestWorkload (or FuzzEngine::Step) call
  kGen,       // workload generation (AceEnumerator::At, fuzz BuildWorkload)
  kRecord,    // a standalone RecordTrace call
  kOracle,    // a standalone BuildOracle call
  kCampaign,  // FuzzEngine::Run
  kRun,       // fs instance with Mkfs(): record / oracle / linearization run
  kMount,     // fs instance recovery: its Mount() call
  kCheck,     // checker use of a recovered instance, until destruction
};

const char* SpanName(SpanKind kind);

// Media operations seen by the counting hook.
struct MediaOps {
  uint64_t reads = 0;
  uint64_t read_bytes = 0;
  uint64_t writes = 0;
  uint64_t flushes = 0;
  uint64_t fences = 0;

  MediaOps& operator+=(const MediaOps& o);
  MediaOps operator-(const MediaOps& o) const;
};

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;     // 0 = no parent
  int64_t workload = -1;   // driver-assigned workload id, -1 = unknown
  uint32_t thread = 0;     // small per-thread id
  SpanKind kind = SpanKind::kPass;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  MediaOps ops;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

// Thread-safe span sink.
class Tracer {
 public:
  uint64_t NewId();
  void Record(const Span& span);
  // All spans recorded so far, sorted by id.
  std::vector<Span> Spans() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  uint64_t next_id_ = 1;     // guarded by mu_
};

// Per-thread context the driver sets and instances read.
uint64_t CurrentParent();
int64_t CurrentWorkload();
void SetCurrentWorkload(int64_t workload);
uint32_t ThreadIndex();

// Opens a span on construction and records it on destruction. It is the
// parent of every span opened on this thread while it is alive. A null
// tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanKind kind);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  Span span_;
  uint64_t saved_parent_ = 0;
};

// Returns `config` with `make` wrapped so that every instance reports its
// spans to `tracer`, which must outlive every instance built from it.
chipmunk::FsConfig Instrument(chipmunk::FsConfig config, Tracer* tracer);

// Self time of every span: its duration minus the part covered by child
// spans recorded on the same thread. Indexed like `spans`.
std::vector<double> SelfSeconds(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
