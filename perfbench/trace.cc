#include "perfbench/trace.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <unordered_map>

#include "src/pmem/pm.h"
#include "src/vfs/filesystem.h"

namespace perfbench {

namespace {

thread_local uint64_t t_parent = 0;
thread_local int64_t t_workload = -1;
std::atomic<uint32_t> g_next_thread{0};
thread_local uint32_t t_thread = g_next_thread.fetch_add(1);

class CountingHook : public pmem::PmHook {
 public:
  void OnWrite(uint64_t off, const uint8_t* old_data, const uint8_t* new_data,
               size_t n, bool temporal) override {
    ++ops.writes;
  }
  void OnFlush(uint64_t off, const uint8_t* contents, size_t n) override {
    ++ops.flushes;
  }
  void OnFence() override { ++ops.fences; }
  void OnRead(uint64_t off, size_t n) override {
    ++ops.reads;
    ops.read_bytes += n;
  }

  MediaOps ops;
};

// Delegates every call to the wrapped instance; records the instance's spans
// when destroyed.
class InstrumentedFs : public vfs::FileSystem {
 public:
  InstrumentedFs(std::unique_ptr<vfs::FileSystem> inner, pmem::Pm* pm,
                 Tracer* tracer, int64_t created_ns)
      : inner_(std::move(inner)),
        pm_(pm),
        tracer_(tracer),
        created_ns_(created_ns),
        last_ns_(created_ns),
        parent_(CurrentParent()),
        workload_(CurrentWorkload()) {
    if (pm_ != nullptr) {
      pm_->AddHook(&hook_);
    }
  }

  ~InstrumentedFs() override {
    inner_.reset();
    if (pm_ != nullptr) {
      pm_->RemoveHook(&hook_);
    }
    const int64_t end = NowNs();
    Span span;
    span.parent = parent_;
    span.workload = workload_;
    span.thread = ThreadIndex();
    if (mkfs_) {
      span.id = tracer_->NewId();
      span.kind = SpanKind::kRun;
      span.start_ns = created_ns_;
      span.end_ns = last_ns_;
      span.ops = hook_.ops;
      tracer_->Record(span);
    } else if (mounted_) {
      span.id = tracer_->NewId();
      span.kind = SpanKind::kMount;
      span.start_ns = mount_start_ns_;
      span.end_ns = mount_end_ns_;
      span.ops = mount_end_ops_ - mount_start_ops_;
      tracer_->Record(span);
      span.id = tracer_->NewId();
      span.kind = SpanKind::kCheck;
      span.start_ns = mount_end_ns_;
      span.end_ns = end;
      span.ops = hook_.ops - mount_end_ops_;
      tracer_->Record(span);
    }
  }

  InstrumentedFs(const InstrumentedFs&) = delete;
  InstrumentedFs& operator=(const InstrumentedFs&) = delete;

  std::string Name() const override { return inner_->Name(); }
  vfs::CrashGuarantees Guarantees() const override {
    return inner_->Guarantees();
  }

  common::Status Mkfs() override {
    mkfs_ = true;
    return Touch(inner_->Mkfs());
  }
  common::Status Mount() override {
    if (mkfs_ || mounted_) {
      return Touch(inner_->Mount());
    }
    mounted_ = true;
    mount_start_ops_ = hook_.ops;
    mount_start_ns_ = NowNs();
    // The recovery sandbox aborts a runaway Mount() by throwing through it;
    // the span still ends here.
    struct EndMount {
      InstrumentedFs* fs;
      ~EndMount() {
        fs->mount_end_ns_ = NowNs();
        fs->mount_end_ops_ = fs->hook_.ops;
      }
    } end{this};
    return inner_->Mount();
  }
  common::Status Unmount() override { return Touch(inner_->Unmount()); }
  bool IsMounted() const override { return inner_->IsMounted(); }
  vfs::InodeNum RootIno() const override { return inner_->RootIno(); }

  common::StatusOr<vfs::InodeNum> Lookup(vfs::InodeNum dir,
                                         const std::string& name) override {
    return Touch(inner_->Lookup(dir, name));
  }
  common::StatusOr<vfs::InodeNum> Create(vfs::InodeNum dir,
                                         const std::string& name) override {
    return Touch(inner_->Create(dir, name));
  }
  common::StatusOr<vfs::InodeNum> Mkdir(vfs::InodeNum dir,
                                        const std::string& name) override {
    return Touch(inner_->Mkdir(dir, name));
  }
  common::Status Unlink(vfs::InodeNum dir, const std::string& name) override {
    return Touch(inner_->Unlink(dir, name));
  }
  common::Status Rmdir(vfs::InodeNum dir, const std::string& name) override {
    return Touch(inner_->Rmdir(dir, name));
  }
  common::Status Link(vfs::InodeNum target, vfs::InodeNum dir,
                      const std::string& name) override {
    return Touch(inner_->Link(target, dir, name));
  }
  common::Status Rename(vfs::InodeNum src_dir, const std::string& src_name,
                        vfs::InodeNum dst_dir,
                        const std::string& dst_name) override {
    return Touch(inner_->Rename(src_dir, src_name, dst_dir, dst_name));
  }
  common::StatusOr<uint64_t> Read(vfs::InodeNum ino, uint64_t off,
                                  uint64_t len, uint8_t* out) override {
    return Touch(inner_->Read(ino, off, len, out));
  }
  common::StatusOr<uint64_t> Write(vfs::InodeNum ino, uint64_t off,
                                   const uint8_t* data,
                                   uint64_t len) override {
    return Touch(inner_->Write(ino, off, data, len));
  }
  common::Status Truncate(vfs::InodeNum ino, uint64_t new_size) override {
    return Touch(inner_->Truncate(ino, new_size));
  }
  common::Status Fallocate(vfs::InodeNum ino, uint32_t mode, uint64_t off,
                           uint64_t len) override {
    return Touch(inner_->Fallocate(ino, mode, off, len));
  }
  common::StatusOr<vfs::FsStat> GetAttr(vfs::InodeNum ino) override {
    return Touch(inner_->GetAttr(ino));
  }
  common::StatusOr<std::vector<vfs::DirEntry>> ReadDir(
      vfs::InodeNum dir) override {
    return Touch(inner_->ReadDir(dir));
  }
  common::Status SetXattr(vfs::InodeNum ino, const std::string& name,
                          const std::vector<uint8_t>& value) override {
    return Touch(inner_->SetXattr(ino, name, value));
  }
  common::StatusOr<std::vector<uint8_t>> GetXattr(
      vfs::InodeNum ino, const std::string& name) override {
    return Touch(inner_->GetXattr(ino, name));
  }
  common::Status RemoveXattr(vfs::InodeNum ino,
                             const std::string& name) override {
    return Touch(inner_->RemoveXattr(ino, name));
  }
  common::StatusOr<std::vector<std::string>> ListXattrs(
      vfs::InodeNum ino) override {
    return Touch(inner_->ListXattrs(ino));
  }
  common::Status Fsync(vfs::InodeNum ino) override {
    return Touch(inner_->Fsync(ino));
  }
  common::Status SyncAll() override { return Touch(inner_->SyncAll()); }
  void SetCpuHint(int cpu) override {
    inner_->SetCpuHint(cpu);
    Touch(0);
  }
  void SetThreadHint(int tid, int nthreads) override {
    inner_->SetThreadHint(tid, nthreads);
    Touch(0);
  }
  void OnOpen(vfs::InodeNum ino) override {
    inner_->OnOpen(ino);
    Touch(0);
  }
  void OnClose(vfs::InodeNum ino) override {
    inner_->OnClose(ino);
    Touch(0);
  }

 private:
  // A run instance's span ends at the return of its last call: the record
  // instance stays alive for the rest of TestWorkload but does no work.
  template <typename T>
  T Touch(T result) {
    if (mkfs_) {
      last_ns_ = NowNs();
    }
    return result;
  }

  CountingHook hook_;  // outlives inner_, which is reset first
  std::unique_ptr<vfs::FileSystem> inner_;
  pmem::Pm* pm_;
  Tracer* tracer_;
  int64_t created_ns_;
  int64_t last_ns_;
  uint64_t parent_;
  int64_t workload_;
  bool mkfs_ = false;
  bool mounted_ = false;
  int64_t mount_start_ns_ = 0;
  int64_t mount_end_ns_ = 0;
  MediaOps mount_start_ops_;
  MediaOps mount_end_ops_;
};

}  // namespace

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kPass: return "pass";
    case SpanKind::kUnit: return "core.test_workload";
    case SpanKind::kGen: return "workload.gen";
    case SpanKind::kRecord: return "core.record";
    case SpanKind::kOracle: return "core.oracle";
    case SpanKind::kCampaign: return "fuzz.campaign";
    case SpanKind::kRun: return "fs.run";
    case SpanKind::kMount: return "fs.mount";
    case SpanKind::kCheck: return "core.check";
  }
  return "?";
}

MediaOps& MediaOps::operator+=(const MediaOps& o) {
  reads += o.reads;
  read_bytes += o.read_bytes;
  writes += o.writes;
  flushes += o.flushes;
  fences += o.fences;
  return *this;
}

MediaOps MediaOps::operator-(const MediaOps& o) const {
  MediaOps d;
  d.reads = reads - o.reads;
  d.read_bytes = read_bytes - o.read_bytes;
  d.writes = writes - o.writes;
  d.flushes = flushes - o.flushes;
  d.fences = fences - o.fences;
  return d;
}

uint64_t Tracer::NewId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::Spans() const {
  std::vector<Span> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = spans_;
  }
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return out;
}

uint64_t CurrentParent() { return t_parent; }
int64_t CurrentWorkload() { return t_workload; }
void SetCurrentWorkload(int64_t workload) { t_workload = workload; }
uint32_t ThreadIndex() { return t_thread; }

ScopedSpan::ScopedSpan(Tracer* tracer, SpanKind kind) : tracer_(tracer) {
  if (tracer_ == nullptr) {
    return;
  }
  span_.id = tracer_->NewId();
  span_.parent = t_parent;
  span_.workload = t_workload;
  span_.thread = t_thread;
  span_.kind = kind;
  saved_parent_ = t_parent;
  t_parent = span_.id;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) {
    return;
  }
  span_.end_ns = NowNs();
  t_parent = saved_parent_;
  tracer_->Record(span_);
}

chipmunk::FsConfig Instrument(chipmunk::FsConfig config, Tracer* tracer) {
  auto make = std::move(config.make);
  config.make = [make, tracer](pmem::Pm* pm)
      -> std::unique_ptr<vfs::FileSystem> {
    const int64_t created = NowNs();
    return std::make_unique<InstrumentedFs>(make(pm), pm, tracer, created);
  };
  return config;
}

std::vector<double> SelfSeconds(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    index.emplace(spans[i].id, i);
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] += spans[i].seconds();
    auto it = index.find(spans[i].parent);
    if (spans[i].parent != 0 && it != index.end() &&
        spans[it->second].thread == spans[i].thread) {
      self[it->second] -= spans[i].seconds();
    }
  }
  return self;
}

}  // namespace perfbench
