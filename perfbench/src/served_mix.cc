// served_mix: an in-process QueryServer on loopback, driven by four
// QueryClient connections with an open loop of seeded arrivals at one
// fixed offered rate. Every request is kAuto, the mode users send; 90%
// are short (point lookup, 1% clustered range, empty result) and 10%
// full predicated scans, over ORDERS in row layout (narrow, Fig. 8) and
// LINEITEM in column layout (wide). The engine's BlockCache holds both
// tables, so the working set fits the program's cache. It exercises
// server routing, the circulating scan, the protocol, admission, the
// cache-hit path and the per-stream I/O fixed cost, and bypasses wos and
// morsel parallelism.
//
// The four connection threads are also the senders: each takes the next
// due request, sleeps until it is due, sends it and waits for the reply.
// Latency is timed from the due time, so a stall shows up in every
// request queued behind it. Arrival times are a Poisson process
// conditioned on its count (sorted uniform offsets), so each seed offers
// exactly the same number of requests.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "common/random.h"
#include "probes.h"
#include "server/client.h"
#include "server/server.h"
#include "tpch/generator.h"
#include "tpch/loader.h"
#include "tpch/tpch_schema.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr uint64_t kOrders = 300'000;
constexpr uint64_t kLineitems = 60'000;
constexpr int kConnections = 4;
constexpr double kRate = 60;  // offered requests per second
constexpr double kScanShare = 0.10;
constexpr double kOrdersShare = 0.75;  // of each class; the rest LINEITEM
constexpr int kInstances = 4;  // seeded instances of each query kind
constexpr int kSetups = 3;
constexpr double kTail = 0.85;
/// Length of a window of the contention filter (QuietWindows).
constexpr double kWindowS = 1.0;

const char* const kOrdersTable = "orders_row";
const char* const kLineitemTable = "lineitem_col";

struct PoolQuery {
  bool scan = false;
  bool orders = false;
  size_t ref = 0;  ///< index into the table's reference queries
  rodb::QueryRequest request;
};

struct Outcome {
  double latency_ms = 0;  ///< due -> reply
  double lag_ms = 0;      ///< due -> send
  double rtt_ms = 0;      ///< send -> reply
  Clock::time_point due;
  bool ok = false;
  rodb::QueryResult result;
};

struct Served {
  std::string dir;
  std::unique_ptr<rodb::QueryServer> server;
  std::vector<rodb::QueryClient> clients;
  uint64_t table_bytes = 0;
  uint64_t cache_bytes = 0;
};

Served SetUp(const std::string& dir, uint64_t orders, uint64_t lineitems,
             uint64_t seed) {
  Served s;
  s.dir = dir;
  FreshDir(dir);
  rodb::tpch::LoadSpec spec;
  spec.dir = dir;
  spec.seed = seed;
  spec.num_tuples = orders;
  spec.layout = rodb::Layout::kRow;
  spec.name = kOrdersTable;
  Require(rodb::tpch::LoadOrders(spec).status(), "ORDERS load");
  spec.num_tuples = lineitems;
  spec.layout = rodb::Layout::kColumn;
  spec.name = kLineitemTable;
  Require(rodb::tpch::LoadLineitem(spec).status(), "LINEITEM load");
  s.table_bytes =
      TableDiskBytes(dir, kOrdersTable) + TableDiskBytes(dir, kLineitemTable);

  rodb::ServerOptions options;
  s.cache_bytes = 2 * s.table_bytes;
  options.engine.cache_bytes = s.cache_bytes;
  s.server = std::make_unique<rodb::QueryServer>(dir, options);
  Require(s.server->Start(), "QueryServer::Start");
  s.clients.resize(kConnections);
  for (rodb::QueryClient& c : s.clients) {
    Require(c.Connect("127.0.0.1", s.server->port()), "QueryClient::Connect");
  }
  // Warm the cache and start both circulating scans.
  for (const char* table : {kOrdersTable, kLineitemTable}) {
    rodb::QueryRequest warm;
    warm.table = table;
    warm.mode = rodb::QueryMode::kExclusive;
    Require(s.clients[0].Execute(warm).status(), "warm-up scan");
    warm.mode = rodb::QueryMode::kAuto;
    Require(s.clients[0].Execute(warm).status(), "warm-up shared scan");
  }
  return s;
}

void TearDown(Served* s) {
  s->clients.clear();
  if (s->server != nullptr) s->server->Stop();
  s->server.reset();
}

using QuerySpec = std::pair<std::vector<int>, std::vector<rodb::Predicate>>;

/// Appends `kInstances` seeded instances of each query kind of one
/// table; returns the specs for its reference evaluation.
std::vector<QuerySpec> DrawTableQueries(rodb::Random* rng, bool orders,
                                        uint64_t tuples,
                                        std::vector<PoolQuery>* pool) {
  using rodb::CompareOp;
  using rodb::Predicate;
  const int key = orders ? rodb::tpch::kOOrderkey : rodb::tpch::kLOrderkey;
  // ORDERS keys are dense 1..N; LINEITEM has ~4 lines per key.
  const int32_t max_key = static_cast<int32_t>(orders ? tuples : tuples / 4);
  const int32_t width = std::max<int32_t>(1, max_key / 100);
  const std::vector<int> projection =
      orders ? std::vector<int>{0, 1, 2, 3, 4, 5, 6}
             : std::vector<int>{0, 1, 2, 3};
  std::vector<QuerySpec> specs;
  const auto add = [&](bool scan, std::vector<Predicate> preds) {
    PoolQuery q;
    q.scan = scan;
    q.orders = orders;
    q.ref = specs.size();
    q.request.table = orders ? kOrdersTable : kLineitemTable;
    q.request.projection = projection;
    q.request.predicates = preds;
    pool->push_back(std::move(q));
    specs.emplace_back(projection, std::move(preds));
  };
  for (int i = 0; i < kInstances; ++i) {
    const int32_t point = 1 + static_cast<int32_t>(rng->Uniform(
                                  static_cast<uint64_t>(max_key)));
    add(false, {Predicate::Int32(key, CompareOp::kEq, point)});
    const int32_t lo = 1 + static_cast<int32_t>(rng->Uniform(
                               static_cast<uint64_t>(max_key - width)));
    add(false, {Predicate::Int32(key, CompareOp::kGe, lo),
                Predicate::Int32(key, CompareOp::kLt, lo + width)});
    add(false, {Predicate::Int32(key, CompareOp::kLt,
                                 -static_cast<int32_t>(rng->Uniform(1000)))});
    // Full predicated scan on an unclustered attribute, ~10% selective.
    if (orders) {
      const int32_t c = static_cast<int32_t>(
          rodb::tpch::kCustkeyDomain * (0.08 + 0.04 * rng->NextDouble()));
      add(true, {Predicate::Int32(rodb::tpch::kOCustkey, CompareOp::kLt, c)});
    } else {
      const int32_t c = static_cast<int32_t>(
          rodb::tpch::kPartkeyDomain * (0.08 + 0.04 * rng->NextDouble()));
      add(true, {Predicate::Int32(rodb::tpch::kLPartkey, CompareOp::kLt, c)});
    }
  }
  return specs;
}

template <typename Generator>
std::vector<Expected> Reference(const rodb::Schema& schema, uint64_t seed,
                                uint64_t tuples,
                                const std::vector<QuerySpec>& specs) {
  ReferenceEval oracle(schema, specs);
  Generator gen(seed);
  std::vector<uint8_t> tuple(static_cast<size_t>(schema.raw_tuple_width()));
  for (uint64_t i = 0; i < tuples; ++i) {
    gen.NextTuple(tuple.data());
    oracle.Add(tuple.data());
  }
  std::vector<Expected> out;
  for (size_t i = 0; i < specs.size(); ++i) out.push_back(oracle.Result(i));
  return out;
}

}  // namespace

void RunServedMix(const Args& args, SpanRecorder* spans, Report* report) {
  const CounterSnapshot run_start = CounterSnapshot::Take();
  const uint64_t orders = kOrders;
  const uint64_t lineitems = kLineitems;

  Samples setup_s;
  Served served;
  for (int s = 0; s < kSetups; ++s) {
    const std::string dir = args.work_dir + "/served_mix_" + std::to_string(s);
    const Clock::time_point t0 = Clock::now();
    served = SetUp(dir, orders, lineitems, args.seed);
    setup_s.Add(SecondsBetween(t0, Clock::now()));
    if (s + 1 < kSetups) {
      TearDown(&served);
      std::filesystem::remove_all(dir);
    }
  }

  // --- query pool and reference answers ----------------------------------
  rodb::Random rng(args.seed * 6151 + 5);
  std::vector<PoolQuery> pool;
  const std::vector<QuerySpec> orders_specs =
      DrawTableQueries(&rng, true, orders, &pool);
  const size_t first_lineitem = pool.size();
  const std::vector<QuerySpec> lineitem_specs =
      DrawTableQueries(&rng, false, lineitems, &pool);
  auto orders_schema = rodb::tpch::OrdersSchema();
  auto lineitem_schema = rodb::tpch::LineitemSchema();
  Require(orders_schema.status(), "ORDERS schema");
  Require(lineitem_schema.status(), "LINEITEM schema");
  // The loader seeds ORDERS with seed + 1 (tpch/loader.cc).
  std::vector<Expected> expected = Reference<rodb::tpch::OrdersGenerator>(
      *orders_schema, args.seed + 1, orders, orders_specs);
  const std::vector<Expected> lineitem_expected =
      Reference<rodb::tpch::LineitemGenerator>(*lineitem_schema, args.seed,
                                               lineitems, lineitem_specs);
  for (size_t i = first_lineitem; i < pool.size(); ++i) {
    pool[i].ref += expected.size();
  }
  expected.insert(expected.end(), lineitem_expected.begin(),
                  lineitem_expected.end());
  if (args.corrupt_reference) {
    for (Expected& e : expected) e.digest ^= 1;
  }

  // Pool indices by [scan][orders].
  std::vector<size_t> kinds[2][2];
  for (size_t i = 0; i < pool.size(); ++i) {
    kinds[pool[i].scan][pool[i].orders].push_back(i);
  }

  // --- arrival schedule ---------------------------------------------------------
  const size_t n = std::max<size_t>(
      kConnections, static_cast<size_t>(kRate * args.seconds));
  std::vector<double> offsets(n);
  for (double& o : offsets) o = rng.NextDouble() * args.seconds;
  std::sort(offsets.begin(), offsets.end());
  // Exact class and table counts, so every seed offers the same mix.
  // The two tables circulate at different speeds, which makes latency
  // bimodal; an unequal table share keeps each percentile inside one
  // mode instead of on the edge between them.
  std::vector<size_t> which;
  const size_t scans =
      static_cast<size_t>(kScanShare * static_cast<double>(n) + 0.5);
  for (int scan = 0; scan < 2; ++scan) {
    const size_t count = scan ? scans : n - scans;
    const size_t orders_count = static_cast<size_t>(
        kOrdersShare * static_cast<double>(count) + 0.5);
    for (size_t i = 0; i < count; ++i) {
      const std::vector<size_t>& from = kinds[scan][i < orders_count];
      which.push_back(from[rng.Uniform(from.size())]);
    }
  }
  for (size_t i = n; i > 1; --i) std::swap(which[i - 1], which[rng.Uniform(i)]);

  // --- timed phase: the connection threads are the senders ------------------
  const CounterSnapshot timed_start = CounterSnapshot::Take();
  std::vector<Outcome> outcomes(n);
  std::atomic<size_t> next{0};
  RssSampler rss;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  StealTimeline steal(start, kWindowS);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      rodb::QueryClient& client = served.clients[static_cast<size_t>(c)];
      while (true) {
        const size_t i = next.fetch_add(1);
        if (i >= n) break;
        Outcome& out = outcomes[i];
        out.due = start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(offsets[i]));
        std::this_thread::sleep_until(out.due);
        const Clock::time_point sent = Clock::now();
        // Traced runs alternate one-second windows with spans off and on.
        const bool traced =
            spans->enabled() && static_cast<int64_t>(offsets[i]) % 2 == 1;
        const uint64_t root = traced ? spans->NewId() : 0;
        rodb::Result<rodb::QueryResult> result = [&] {
          if (!traced) return client.Execute(pool[which[i]].request);
          ScopedSpan call(spans, "client.execute", root, i + 1);
          return client.Execute(pool[which[i]].request);
        }();
        const Clock::time_point done = Clock::now();
        if (traced) spans->Record("mix.request", 0, i + 1, out.due, done, root);
        out.lag_ms = MsBetween(out.due, sent);
        out.rtt_ms = MsBetween(sent, done);
        out.latency_ms = MsBetween(out.due, done);
        out.ok = result.ok();
        if (out.ok) {
          out.result = std::move(*result);
        } else {
          report->Mismatch("request failed: " + result.status().ToString());
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Clock::time_point last_done = start;
  for (const Outcome& o : outcomes) {
    last_done = std::max(last_done, o.due + std::chrono::duration_cast<Clock::duration>(
                                                std::chrono::duration<double, std::milli>(
                                                    o.latency_ms)));
  }
  const double elapsed = SecondsBetween(start, last_done);
  const double peak_rss = rss.Stop();
  const std::vector<double> window_steal = steal.Stop();

  // --- checks and figures ------------------------------------------------------
  // Requests belong to the window of their due time.
  WindowedSamples all_ms, point_ms, scan_ms;
  WindowedSamples by_kind[2][2];  // [scan][orders]
  Samples lag_ms, traced_ms, untraced_ms;
  QueryLayerStats layers;
  for (size_t i = 0; i < n; ++i) {
    const Outcome& o = outcomes[i];
    const PoolQuery& q = pool[which[i]];
    report->Tally(o.ok);
    lag_ms.Add(o.lag_ms);
    if (!o.ok) continue;
    if (!Matches(o.result, expected[q.ref], /*table_order=*/!o.result.shared)) {
      report->Mismatch(std::string("wrong result for ") + q.request.table +
                       (q.scan ? " scan" : " short query"));
    }
    const size_t window = steal.WindowOf(o.due);
    all_ms.Add(window, o.latency_ms);
    (q.scan ? scan_ms : point_ms).Add(window, o.latency_ms);
    by_kind[q.scan][q.orders].Add(window, o.latency_ms);
    (spans->enabled() && static_cast<int64_t>(offsets[i]) % 2 == 1 ? traced_ms
                                                                   : untraced_ms)
        .Add(o.latency_ms);
    layers.Add(o.result, o.rtt_ms, !q.scan);
  }

  const std::vector<size_t> quiet = QuietWindows(window_steal);
  const std::string quiet_note = "; " + QuietNote(quiet, window_steal.size());
  const Samples all = all_ms.Select(quiet);
  const Samples point = point_ms.Select(quiet);
  const Samples scan = scan_ms.Select(quiet);
  size_t completed = 0;
  for (const Outcome& o : outcomes) completed += o.ok;

  report->E2E("setup_s", setup_s.Median(), "s",
              "median of " + std::to_string(kSetups) +
                  " set-ups (load, start server, connect, warm cache)");
  report->E2E("qps", static_cast<double>(completed) / elapsed, "1/s",
              std::to_string(n) + " requests offered at " +
                  JsonNumber(kRate) + "/s over " + std::to_string(kConnections) +
                  " connections");
  report->E2E("query_p50_ms", all.Median(), "ms",
              "from due time; p50 of " + std::to_string(all.size()) +
                  quiet_note);
  report->E2E("query_tail_ms", all.Percentile(kTail), "ms",
              PercentileNote(kTail, all.size()) + quiet_note);
  const auto per_table = [&](int scan) {
    return "; ORDERS p50 " +
           JsonNumber(by_kind[scan][1].Select(quiet).Median()) +
           ", LINEITEM p50 " +
           JsonNumber(by_kind[scan][0].Select(quiet).Median());
  };
  report->E2E("point_p50_ms", point.Median(), "ms",
              "point, 1% clustered range, empty; p50 of " +
                  std::to_string(point.size()) + per_table(0) + quiet_note);
  report->E2E("point_tail_ms", point.Percentile(kTail), "ms",
              PercentileNote(kTail, point.size()) + quiet_note);
  report->E2E("scan_p50_ms", scan.Median(), "ms",
              "full predicated scans; p50 of " + std::to_string(scan.size()) +
                  per_table(1) + quiet_note);
  report->E2E("scan_tail_ms", scan.Percentile(kTail), "ms",
              PercentileNote(kTail, scan.size()) + quiet_note);
  const double raw = static_cast<double>(orders) * 32.0 +
                     static_cast<double>(lineitems) * 150.0;
  report->E2E("space_amp", static_cast<double>(served.table_bytes) / raw,
              "ratio", "orders_row + lineitem_col on disk / raw bytes");
  report->E2E("peak_rss_mb", peak_rss, "MiB", "timed phase");

  TraceStats phases;
  if (args.trace) {
    // Engine phase times of the workload's query shapes, run serially
    // (and at p=4 for the merge phase) through the server's engine with a
    // QueryTrace, which the wire protocol does not carry.
    for (const PoolQuery& q : pool) {
      for (int par : {1, 4}) {
        rodb::QueryRequest request = q.request;
        rodb::obs::QueryTrace trace;
        request.mode = rodb::QueryMode::kExclusive;
        request.parallelism = par;
        request.trace = &trace;
        ScopedSpan span(spans, "engine.sample", 0, spans->NewId());
        auto result = served.server->engine().Execute(request);
        report->Tally(result.ok());
        if (!result.ok() || !Matches(*result, expected[q.ref], true)) {
          report->Mismatch(std::string("wrong traced sample on ") +
                           q.request.table);
          continue;
        }
        phases.Add(trace, par > 1);
      }
    }
  }
  ReportQueryLayers(layers, phases, timed_start, elapsed, 0, report);
  report->Layer("bench.send_lag_tail_ms", lag_ms.Percentile(kTail), "ms",
                "open loop: due -> send; " + PercentileNote(kTail, lag_ms.size()));
  report->Layer("compression.ratio", 1.0, "ratio",
                "served_mix tables are uncompressed");

  if (args.trace) {
    ProbeIo(served.dir + "/" + kOrdersTable + ".row", rodb::kDefaultPageSize,
            spans, report);
    ProbeKernelsAndCodec(args.seed, lineitems, spans, report);
    const std::string load_dir = args.work_dir + "/served_mix_load";
    FreshDir(load_dir);
    ReportLoadStats(LoadLineitemLayouts(load_dir, lineitems, args.seed, spans),
                    "probe load of " + std::to_string(lineitems) + " tuples",
                    report);
    ProbeWos(args.work_dir + "/served_mix_wos", args.seed, spans, report);
    ReportTraceOverhead(untraced_ms, args.seconds / 2, traced_ms,
                        args.seconds / 2, spans, report);
  }
  ReportFsyncs(run_start, report);

  report->State("orders_tuples", std::to_string(orders));
  report->State("lineitem_tuples", std::to_string(lineitems));
  report->State("table_bytes", std::to_string(served.table_bytes));
  report->State("block_cache_bytes", std::to_string(served.cache_bytes));
  report->State("offered_rate", JsonNumber(kRate));
  report->State("requests", std::to_string(n));
  report->State("tail_percentile", JsonNumber(kTail));
  report->State("quiet_windows", std::to_string(quiet.size()));
  report->Info("window_steal", JsonArray(window_steal));
  TearDown(&served);
}

}  // namespace perfbench
