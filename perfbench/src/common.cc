#include "common.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "engine/executor.h"
#include "io/durable_file.h"
#include "kernels/scan_kernels.h"
#include "obs/metrics.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void Require(const rodb::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
                 status.ToString().c_str());
    std::exit(3);
  }
}

void Require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "perfbench: %s failed\n", what);
    std::exit(3);
  }
}

// --- Samples ---------------------------------------------------------------

namespace {

/// Continued fraction of the incomplete beta function (modified Lentz).
double BetaContinuedFraction(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  constexpr double kEps = 1e-13;
  const auto clamp = [](double v) { return std::fabs(v) < kTiny ? kTiny : v; };
  double c = 1;
  double d = 1 / clamp(1 - (a + b) * x / (a + 1));
  double h = d;
  for (int m = 1; m <= 100000; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((a - 1 + m2) * (a + m2));
    d = 1 / clamp(1 + aa * d);
    c = clamp(1 + aa / c);
    h *= d * c;
    aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1 + m2));
    d = 1 / clamp(1 + aa * d);
    c = clamp(1 + aa / c);
    const double step = d * c;
    h *= step;
    if (std::fabs(step - 1) < kEps) break;
  }
  return h;
}

/// Regularized incomplete beta function I_x(a, b).
double RegularizedBeta(double a, double b, double x) {
  if (x <= 0) return 0;
  if (x >= 1) return 1;
  const double front = std::exp(std::lgamma(a + b) - std::lgamma(a) -
                                std::lgamma(b) + a * std::log(x) +
                                b * std::log1p(-x));
  if (x < (a + 1) / (a + b + 2)) {
    return front * BetaContinuedFraction(a, b, x) / a;
  }
  return 1 - front * BetaContinuedFraction(b, a, 1 - x) / b;
}

}  // namespace

double Samples::Percentile(double p) const {
  if (v_.empty()) return 0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  if (s.size() == 1 || p <= 0) return s.front();
  if (p >= 1) return s.back();
  // Harrell-Davis estimate: the order statistics weighted by a
  // Beta(p(n+1), (1-p)(n+1)) distribution. The workloads mix query
  // shapes whose costs form clusters; a single order statistic jumps
  // from one cluster to the next when a percentile falls in a gap, the
  // weighted average moves smoothly.
  const double n = static_cast<double>(s.size());
  const double a = p * (n + 1);
  const double b = (1 - p) * (n + 1);
  double estimate = 0;
  double below = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    const double upto = RegularizedBeta(a, b, static_cast<double>(i + 1) / n);
    estimate += (upto - below) * s[i];
    below = upto;
  }
  return estimate;
}

double Samples::Mean() const {
  if (v_.empty()) return 0;
  double sum = 0;
  for (double v : v_) sum += v;
  return sum / static_cast<double>(v_.size());
}

std::string PercentileNote(double p, size_t n) {
  const double rank = std::ceil(p * static_cast<double>(n));
  const size_t beyond = n - std::min(n, static_cast<size_t>(rank));
  char label[32];
  std::snprintf(label, sizeof(label), "p%g", p * 100);
  std::ostringstream out;
  out << label << " of " << n << " samples, " << beyond << " beyond";
  if (beyond < 10) out << " (fewer than 10: tail is not resolved)";
  return out.str();
}

// --- JSON helpers ------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// --- Report ------------------------------------------------------------------

void Report::E2E(std::string name, double value, std::string unit,
                 std::string note) {
  e2e_.push_back({std::move(name), value, std::move(unit), std::move(note)});
}

void Report::Layer(std::string name, double value, std::string unit,
                   std::string note) {
  layer_.push_back({std::move(name), value, std::move(unit), std::move(note)});
}

void Report::Extra(std::string name, double value, std::string unit,
                   std::string note) {
  extra_.push_back({std::move(name), value, std::move(unit), std::move(note)});
}

void Report::State(std::string key, std::string json) {
  state_.emplace_back(std::move(key), std::move(json));
}

void Report::Info(std::string key, std::string json) {
  info_.emplace_back(std::move(key), std::move(json));
}

void Report::Mismatch(const std::string& what) {
  mismatches_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  if (mismatch_notes_.size() < 8) mismatch_notes_.push_back(what);
}

namespace {

std::string MetricsJson(const std::vector<Metric>& metrics, bool notes) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ", ";
    out += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit);
    if (notes && !m.note.empty()) out += ", \"note\": " + JsonString(m.note);
    out += "}";
  }
  return out + "}";
}

}  // namespace

std::string Report::ResultLine(bool layer) const {
  const bool correct = mismatches() == 0;
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<uint64_t>(1, attempted()));
  out += ", \"failed\": " + std::to_string(failed());
  out += ", \"metrics\": " + MetricsJson(layer ? layer_ : e2e_, false);
  return out + "}";
}

void Report::Print(const std::string& title) const {
  std::fprintf(stderr, "== %s ==\n", title.c_str());
  const auto print = [](const char* header, const std::vector<Metric>& ms) {
    if (ms.empty()) return;
    std::fprintf(stderr, "%s\n", header);
    for (const Metric& m : ms) {
      std::fprintf(stderr, "  %-34s %14.6g %-9s %s\n", m.name.c_str(),
                   m.value, m.unit.c_str(), m.note.c_str());
    }
  };
  print("end-to-end:", e2e_);
  print("end-to-end, not gated:", extra_);
  print("per-layer:", layer_);
  std::fprintf(stderr, "operations: %" PRIu64 " attempted, %" PRIu64
               " failed, %" PRIu64 " wrong results\n",
               attempted(), failed(), mismatches());
  for (const std::string& note : mismatch_notes_) {
    std::fprintf(stderr, "  mismatch: %s\n", note.c_str());
  }
}

std::string Report::ToJson() const {
  std::string out = "{\"end_to_end\": " + MetricsJson(e2e_, true) +
                    ", \"end_to_end_not_gated\": " + MetricsJson(extra_, true) +
                    ", \"per_layer\": " + MetricsJson(layer_, true) +
                    ", \"attempted\": " + std::to_string(attempted()) +
                    ", \"failed\": " + std::to_string(failed()) +
                    ", \"wrong_results\": " + std::to_string(mismatches());
  for (const auto& [key, json] : info_) out += ", " + JsonString(key) + ": " + json;
  return out + "}";
}

// --- SpanRecorder -------------------------------------------------------------

uint64_t SpanRecorder::Record(const char* name, uint64_t parent,
                              uint64_t request, Clock::time_point start,
                              Clock::time_point end, uint64_t id) {
  if (!enabled_) return 0;
  if (id == 0) id = NewId();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({id, parent, request, name, start, end});
  return id;
}

namespace {

/// Nanoseconds of [start, end) covered by the union of `kids`.
double CoveredNanos(const SpanRecorder::Span& parent,
                    std::vector<std::pair<int64_t, int64_t>> kids) {
  const int64_t lo = parent.start.time_since_epoch().count();
  const int64_t hi = parent.end.time_since_epoch().count();
  std::sort(kids.begin(), kids.end());
  int64_t covered = 0;
  int64_t cursor = lo;
  for (auto [a, b] : kids) {
    a = std::max(a, cursor);
    b = std::min(b, hi);
    if (b > a) {
      covered += b - a;
      cursor = b;
    }
  }
  return static_cast<double>(covered);
}

struct SpanIndex {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> kids;
  explicit SpanIndex(const std::vector<SpanRecorder::Span>& spans) {
    for (const auto& s : spans) {
      if (s.parent != 0) {
        kids[s.parent].emplace_back(s.start.time_since_epoch().count(),
                                    s.end.time_since_epoch().count());
      }
    }
  }
  double Covered(const SpanRecorder::Span& s) const {
    auto it = kids.find(s.id);
    return it == kids.end() ? 0.0 : CoveredNanos(s, it->second);
  }
};

}  // namespace

std::string SpanRecorder::SummaryJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  const SpanIndex index(spans_);
  struct Agg {
    uint64_t count = 0;
    double total_ns = 0;
    double self_ns = 0;
  };
  std::map<std::string, Agg> by_name;
  for (const Span& s : spans_) {
    const double dur = std::chrono::duration<double, std::nano>(s.end - s.start)
                           .count();
    Agg& a = by_name[s.name];
    a.count += 1;
    a.total_ns += dur;
    a.self_ns += dur - index.Covered(s);
  }
  std::string out = "{";
  bool first = true;
  for (const auto& [name, a] : by_name) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": {\"count\": " + std::to_string(a.count) +
           ", \"total_ms\": " + JsonNumber(a.total_ns / 1e6) +
           ", \"self_ms\": " + JsonNumber(a.self_ns / 1e6) + "}";
  }
  return out + "}";
}

double SpanRecorder::RootCoverage() const {
  std::lock_guard<std::mutex> lock(mu_);
  const SpanIndex index(spans_);
  double sum = 0;
  uint64_t roots = 0;
  for (const Span& s : spans_) {
    if (s.parent != 0) continue;
    const double dur =
        std::chrono::duration<double, std::nano>(s.end - s.start).count();
    if (dur <= 0) continue;
    sum += index.Covered(s) / dur;
    roots += 1;
  }
  return roots == 0 ? 0 : sum / static_cast<double>(roots);
}

rodb::Status SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return rodb::Status::IoError("cannot write " + path);
  const Clock::time_point origin =
      spans_.empty() ? Clock::now() : spans_.front().start;
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"name\":\"" << s.name
        << "\",\"start_us\":"
        << std::chrono::duration<double, std::micro>(s.start - origin).count()
        << ",\"end_us\":"
        << std::chrono::duration<double, std::micro>(s.end - origin).count()
        << "}\n";
  }
  return out ? rodb::Status::OK() : rodb::Status::IoError("short write " + path);
}

// --- RssSampler ----------------------------------------------------------------

uint64_t ResidentBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

CpuTimes CpuTimes::Read() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  if (cpu != "cpu") return t;
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double CpuTimes::StealShareSince(const CpuTimes& earlier) const {
  const uint64_t ticks = total - earlier.total;
  return ticks == 0 ? 0
                    : static_cast<double>(steal - earlier.steal) /
                          static_cast<double>(ticks);
}

// --- quiet windows ------------------------------------------------------------

std::vector<size_t> QuietWindows(const std::vector<double>& steal) {
  std::vector<size_t> order(steal.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return steal[a] < steal[b]; });
  size_t keep = (steal.size() + 1) / 2;
  while (keep < order.size() && steal[order[keep]] <= kQuietSteal) ++keep;
  order.resize(keep);
  std::sort(order.begin(), order.end());
  return order;
}

std::string QuietNote(const std::vector<size_t>& kept, size_t windows) {
  return "kept " + std::to_string(kept.size()) + " of " +
         std::to_string(windows) + " windows (steal <= " +
         std::to_string(static_cast<int>(kQuietSteal * 100)) + "%)";
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i == 0 ? "" : ", ") + JsonNumber(values[i]);
  }
  return out + "]";
}

void WindowedSamples::Add(size_t window, double v) {
  if (window >= by_window_.size()) by_window_.resize(window + 1);
  by_window_[window].Add(v);
}

Samples WindowedSamples::Select(const std::vector<size_t>& windows) const {
  Samples out;
  for (size_t w : windows) {
    if (w < by_window_.size()) out.Add(by_window_[w]);
  }
  return out;
}

StealTimeline::StealTimeline(Clock::time_point start, double window_s)
    : start_(start), window_s_(window_s) {
  thread_ = std::thread([this] {
    CpuTimes prev = CpuTimes::Read();
    std::unique_lock<std::mutex> lock(mu_);
    for (size_t k = 1;; ++k) {
      const Clock::time_point boundary =
          start_ + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(window_s_ * k));
      if (cv_.wait_until(lock, boundary, [this] { return stop_; })) break;
      const CpuTimes now = CpuTimes::Read();
      steal_.push_back(now.StealShareSince(prev));
      prev = now;
    }
    steal_.push_back(CpuTimes::Read().StealShareSince(prev));
  });
}

StealTimeline::~StealTimeline() { Stop(); }

size_t StealTimeline::WindowOf(Clock::time_point t) const {
  if (t <= start_) return 0;
  return static_cast<size_t>(SecondsBetween(start_, t) / window_s_);
}

std::vector<double> StealTimeline::Stop() {
  if (thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  return steal_;
}

RssSampler::RssSampler() {
  // Set-up and reference answers free ~100 MiB that glibc keeps in its
  // arenas; how much of it stays resident depends on which thread freed
  // what, and moved the peak between 123 and 203 MiB across runs.
  // Handing it back first makes the peak the memory the timed phase holds.
  malloc_trim(0);
  peak_bytes_.store(ResidentBytes());
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_acquire)) {
      const uint64_t now = ResidentBytes();
      if (now > peak_bytes_.load(std::memory_order_relaxed)) {
        peak_bytes_.store(now, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
}

RssSampler::~RssSampler() { Stop(); }

double RssSampler::Stop() {
  if (thread_.joinable()) {
    stop_.store(true, std::memory_order_release);
    thread_.join();
    const uint64_t now = ResidentBytes();
    if (now > peak_bytes_.load()) peak_bytes_.store(now);
  }
  return static_cast<double>(peak_bytes_.load()) / (1024.0 * 1024.0);
}

// --- CounterSnapshot ------------------------------------------------------------

CounterSnapshot CounterSnapshot::Take() {
  CounterSnapshot snap;
  for (const rodb::obs::MetricSample& s :
       rodb::obs::MetricsRegistry::Default().Snapshot()) {
    if (s.kind == rodb::obs::MetricSample::Kind::kCounter) {
      snap.values_[s.name] = s.counter_value;
    }
  }
  return snap;
}

uint64_t CounterSnapshot::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0 : it->second;
}

// --- ReferenceEval ----------------------------------------------------------------

ReferenceEval::ReferenceEval(
    const rodb::Schema& schema,
    std::vector<std::pair<std::vector<int>, std::vector<rodb::Predicate>>>
        queries)
    : schema_(schema) {
  for (auto& [projection, predicates] : queries) {
    Query q;
    q.projection = std::move(projection);
    q.predicates = std::move(predicates);
    q.acc.checksum = rodb::kFnv1aSeed;
    queries_.push_back(std::move(q));
  }
  out_.resize(static_cast<size_t>(schema.raw_tuple_width()));
}

void ReferenceEval::Add(const uint8_t* tuple) {
  for (Query& q : queries_) {
    bool pass = true;
    for (const rodb::Predicate& p : q.predicates) {
      if (!p.Eval(tuple + schema_.attr_offset(
                              static_cast<size_t>(p.attr_index())))) {
        pass = false;
        break;
      }
    }
    if (!pass) continue;
    size_t width = 0;
    for (int a : q.projection) {
      const size_t w = static_cast<size_t>(
          schema_.attribute(static_cast<size_t>(a)).width);
      std::memcpy(out_.data() + width,
                  tuple + schema_.attr_offset(static_cast<size_t>(a)), w);
      width += w;
    }
    q.acc.rows += 1;
    q.acc.digest += rodb::Fnv1aExtend(rodb::kFnv1aSeed, out_.data(), width);
    q.acc.checksum = rodb::Fnv1aExtend(q.acc.checksum, out_.data(), width);
  }
}

Expected ReferenceEval::Result(size_t i) const { return queries_[i].acc; }

bool Matches(const rodb::QueryResult& got, const Expected& want,
             bool table_order) {
  if (got.rows != want.rows) return false;
  if (got.row_digest != 0 || want.rows == 0) {
    if (got.row_digest != want.digest) return false;
  }
  if (table_order && got.output_checksum != want.checksum) return false;
  return true;
}

// --- provenance ---------------------------------------------------------------------

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        return line.substr(b);
      }
    }
  }
  return "unknown";
}

const char* FsyncLevelName(rodb::FsyncLevel level) {
  switch (level) {
    case rodb::FsyncLevel::kNone:
      return "none";
    case rodb::FsyncLevel::kCommit:
      return "commit";
    case rodb::FsyncLevel::kParanoid:
      return "paranoid";
  }
  return "unknown";
}

}  // namespace

std::string ProvenanceJson(
    const Args& args,
    const std::vector<std::pair<std::string, std::string>>& extra) {
  const char* source = std::getenv("PERFBENCH_SOURCE_ID");
  std::string out = "{";
  out += "\"source\": " + JsonString(source != nullptr ? source : "unknown");
  out += ", \"cpu_model\": " + JsonString(CpuModel());
  out += ", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency());
  out += ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE);
  out += ", \"kernel_isa\": " +
         JsonString(std::string(rodb::kernels::ActiveKernelIsa()));
  out += ", \"fsync_level\": " +
         JsonString(FsyncLevelName(rodb::GetFsyncLevel()));
  out += ", \"workload\": " + JsonString(args.workload);
  out += ", \"seed\": " + std::to_string(args.seed);
  out += ", \"seconds\": " + JsonNumber(args.seconds);
  out += ", \"trace\": " + std::string(args.trace ? "true" : "false");
  for (const auto& [key, json] : extra) out += ", " + JsonString(key) + ": " + json;
  return out + "}";
}

uint64_t TableDiskBytes(const std::string& dir, const std::string& prefix) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) != 0) continue;
    const std::string rest = name.substr(prefix.size());
    if (rest.rfind(".", 0) == 0 || rest.rfind("__", 0) == 0) {
      total += entry.file_size(ec);
    }
  }
  return total;
}

void FreshDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  Require(!ec, "creating the work directory");
}

}  // namespace perfbench
