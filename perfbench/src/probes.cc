#include "probes.h"

#include <cstring>
#include <filesystem>
#include <memory>
#include <vector>

#include "common/bitio.h"
#include "common/bytes.h"
#include "common/random.h"
#include "compression/codec.h"
#include "io/file_backend.h"
#include "kernels/bitvector.h"
#include "tpch/loader.h"
#include "tpch/tpch_schema.h"

namespace perfbench {

namespace {
const char* const kLayoutNames[3] = {"row", "col", "z_col"};
}  // namespace

const char* const kLineitemTables[3] = {"lineitem_row", "lineitem_col",
                                        "lineitem_z_col"};

void ProbeIo(const std::string& file, size_t page_size, SpanRecorder* spans,
             Report* report) {
  rodb::FileBackend backend;
  const uint64_t request = spans->NewId();

  // Fixed cost of a stream: open plus the first unit of a one-page range.
  constexpr int kOpens = 200;
  Samples open_us;
  for (int i = 0; i < kOpens; ++i) {
    rodb::IoOptions options;
    options.length = page_size;
    ScopedSpan span(spans, "io.open_stream", 0, request);
    const Clock::time_point t0 = Clock::now();
    auto stream = backend.OpenStream(file, options);
    Require(stream.status(), "io probe OpenStream");
    auto view = (*stream)->Next();
    Require(view.status(), "io probe Next");
    Require(view->size > 0, "io probe first unit");
    stream->reset();  // the close is part of the per-stream cost
    open_us.Add(MsBetween(t0, Clock::now()) * 1e3);
  }
  report->Layer("io.open_stream_us", open_us.Median(), "us",
                "median of " + std::to_string(kOpens) +
                    " OpenStream+first Next on a 1-page range");

  // Sequential drain of the whole file with default ReadOptions.
  constexpr int kDrains = 3;
  Samples mb_per_s;
  for (int i = 0; i < kDrains; ++i) {
    ScopedSpan span(spans, "io.drain", 0, request);
    const Clock::time_point t0 = Clock::now();
    auto stream = backend.OpenStream(file, rodb::IoOptions());
    Require(stream.status(), "io probe OpenStream");
    uint64_t bytes = 0;
    while (true) {
      auto view = (*stream)->Next();
      Require(view.status(), "io probe drain");
      if (view->size == 0) break;
      bytes += view->size;
    }
    stream->reset();
    mb_per_s.Add(static_cast<double>(bytes) / (1024.0 * 1024.0) /
                 SecondsBetween(t0, Clock::now()));
  }
  report->Layer("io.read_mb_per_s", mb_per_s.Median(), "MiB/s",
                "median of " + std::to_string(kDrains) + " drains of " +
                    std::filesystem::path(file).filename().string());
}

void ProbeKernelsAndCodec(uint64_t seed, uint64_t values, SpanRecorder* spans,
                          Report* report) {
  constexpr int kBits = 18;  // ceil(log2(kPartkeyDomain))
  constexpr size_t kBatch = 1024;
  values = values / kBatch * kBatch;
  Require(values > 0, "codec probe size");
  auto codec = rodb::MakeCodec(rodb::CodecSpec::BitPack(kBits), 4, nullptr);
  Require(codec.status(), "codec probe MakeCodec");

  std::vector<uint8_t> packed(values * kBits / 8 + 16);
  {
    rodb::BitWriter writer(packed.data(), packed.size());
    (*codec)->BeginPage();
    rodb::Random rng(seed);
    uint8_t raw[4];
    for (uint64_t i = 0; i < values; ++i) {
      rodb::StoreLE32s(raw, static_cast<int32_t>(
                                rng.Uniform(rodb::tpch::kPartkeyDomain)));
      Require((*codec)->EncodeValue(raw, &writer), "codec probe encode");
    }
  }
  const uint64_t request = spans->NewId();
  constexpr int kPasses = 5;

  uint8_t operand[4];
  rodb::StoreLE32s(operand, rodb::tpch::SelectivityCutoff(
                                rodb::tpch::kPartkeyDomain, 0.01));
  rodb::kernels::PackedPredicate pred;
  (*codec)->BeginDecode(rodb::CodecPageMeta());
  Require((*codec)->BindPredicate(rodb::CompareOp::kLt, operand, 4, false,
                                  &pred),
          "codec probe BindPredicate");
  Samples scan_ns;
  size_t selected = 0;
  rodb::kernels::BitVector sel(kBatch);
  for (int pass = 0; pass < kPasses; ++pass) {
    ScopedSpan span(spans, "kernel.scan_batch", 0, request);
    rodb::BitReader reader(packed.data(), packed.size());
    selected = 0;
    const Clock::time_point t0 = Clock::now();
    for (uint64_t done = 0; done < values; done += kBatch) {
      (*codec)->ScanBatch(&reader, kBatch, pred, &sel, 0);
      selected += sel.Popcount();
    }
    scan_ns.Add(SecondsBetween(t0, Clock::now()) * 1e9 /
                static_cast<double>(values));
  }
  Require(selected > 0 && selected < values, "codec probe selection");
  report->Layer("kernels.scan_ns_per_value", scan_ns.Median(), "ns",
                "median of " + std::to_string(kPasses) + " ScanBatch passes over " +
                    std::to_string(values) + " bit-packed values, 1% predicate");

  Samples decode_ns;
  std::vector<uint8_t> out(kBatch * 4);
  uint64_t sink = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    ScopedSpan span(spans, "codec.decode_batch", 0, request);
    rodb::BitReader reader(packed.data(), packed.size());
    (*codec)->BeginDecode(rodb::CodecPageMeta());
    const Clock::time_point t0 = Clock::now();
    for (uint64_t done = 0; done < values; done += kBatch) {
      (*codec)->DecodeBatch(&reader, kBatch, out.data());
      sink += out[0];
    }
    decode_ns.Add(SecondsBetween(t0, Clock::now()) * 1e9 /
                  static_cast<double>(values));
  }
  report->Layer("compression.decode_ns_per_value", decode_ns.Median(), "ns",
                "median of " + std::to_string(kPasses) +
                    " DecodeBatch passes (bit-pack, 18 bits); sink " +
                    std::to_string(sink % 10));
}

LoadStats LoadLineitemLayouts(const std::string& dir, uint64_t tuples,
                              uint64_t seed, SpanRecorder* spans) {
  LoadStats stats;
  stats.tuples = tuples;
  const uint64_t request = spans->NewId();
  for (int l = 0; l < 3; ++l) {
    rodb::tpch::LoadSpec spec;
    spec.dir = dir;
    spec.num_tuples = tuples;
    spec.layout = l == 0 ? rodb::Layout::kRow : rodb::Layout::kColumn;
    spec.compressed = l == 2;
    spec.seed = seed;
    spec.name = kLineitemTables[l];
    ScopedSpan span(spans, "storage.load", 0, request);
    const Clock::time_point t0 = Clock::now();
    Require(rodb::tpch::LoadLineitem(spec).status(), "LINEITEM load");
    stats.seconds[l] = SecondsBetween(t0, Clock::now());
    stats.bytes[l] = TableDiskBytes(dir, kLineitemTables[l]);
  }
  return stats;
}

void ReportLoadStats(const LoadStats& stats, const std::string& note,
                     Report* report) {
  const double mtuples = static_cast<double>(stats.tuples) / 1e6;
  for (int l = 0; l < 3; ++l) {
    report->Layer(std::string("storage.load_s.") + kLayoutNames[l],
                  stats.seconds[l] / mtuples, "s/Mtuple", note);
  }
  for (int l = 0; l < 3; ++l) {
    report->Layer(std::string("storage.bytes_per_tuple.") + kLayoutNames[l],
                  static_cast<double>(stats.bytes[l]) /
                      static_cast<double>(stats.tuples),
                  "B", note);
  }
}

}  // namespace perfbench
