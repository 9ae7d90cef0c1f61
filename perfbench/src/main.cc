// rodb_perfbench --workload <scan_sweep|served_mix|ingest_live>
//                --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//                [--corrupt-reference]
//
// Runs one workload and prints, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. A full
// report (every metric with its note, provenance, span summary) goes to
// <work-dir>/report-<workload>-<seed>-<trace>.json and a readable table
// to stderr; a traced run also writes its spans to
// <work-dir>/spans-<workload>-<seed>.jsonl. Exit status: 0 when every
// result was correct, 1 on any wrong or failed result, 2 on bad usage,
// 3 when the set-up itself failed.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "rodb_perfbench: %s\nusage: rodb_perfbench --workload "
               "<scan_sweep|served_mix|ingest_live> --seed <n> --seconds <s> "
               "--trace <0|1> --work-dir <dir> [--corrupt-reference]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-reference") {
      args.corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      have_seed = *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0)) return Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace takes 0 or 1");
      }
      args.trace = value[0] == '1';
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed) return Usage("--seed <n> is required");
  if (args.work_dir.empty()) return Usage("--work-dir is required");

  void (*run)(const perfbench::Args&, perfbench::SpanRecorder*,
              perfbench::Report*) = nullptr;
  if (args.workload == "scan_sweep") {
    run = perfbench::RunScanSweep;
  } else if (args.workload == "served_mix") {
    run = perfbench::RunServedMix;
  } else if (args.workload == "ingest_live") {
    run = perfbench::RunIngestLive;
  } else {
    return Usage("unknown workload");
  }

  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) return Usage("cannot create --work-dir");
  const std::string data_dir = args.work_dir + "/data";
  perfbench::FreshDir(data_dir);
  perfbench::Args run_args = args;
  run_args.work_dir = data_dir;

  perfbench::SpanRecorder spans(args.trace);
  perfbench::Report report;
  const perfbench::CpuTimes cpu_before = perfbench::CpuTimes::Read();
  run(run_args, &spans, &report);
  const perfbench::CpuTimes cpu_after = perfbench::CpuTimes::Read();
  // Share of the machine's CPU time the hypervisor gave to other guests
  // during the run: a high value marks a run measured under contention.
  report.State("cpu_steal_share",
               perfbench::JsonNumber(cpu_after.StealShareSince(cpu_before)));

  const uint64_t attempted = std::max<uint64_t>(1, report.attempted());
  // Every failed operation is also recorded as a mismatch.
  report.Extra("error_rate",
               static_cast<double>(report.mismatches()) /
                   static_cast<double>(attempted),
               "ratio",
               std::to_string(report.mismatches()) +
                   " failed or wrong of " + std::to_string(attempted) +
                   " operations");
  const std::string provenance =
      perfbench::ProvenanceJson(args, report.state());
  report.Info("provenance", provenance);
  const std::string tag = args.workload + "-" + std::to_string(args.seed);
  if (args.trace) {
    report.Info("spans", spans.SummaryJson());
    perfbench::Require(
        spans.WriteJsonLines(args.work_dir + "/spans-" + tag + ".jsonl"),
        "writing the span file");
  }
  {
    std::ofstream out(args.work_dir + "/report-" + tag + "-" +
                      (args.trace ? "1" : "0") + ".json");
    out << report.ToJson() << "\n";
  }
  std::filesystem::remove_all(data_dir, ec);

  report.Print(args.workload + " seed " + std::to_string(args.seed) +
               (args.trace ? " (traced)" : ""));
  std::fprintf(stderr, "provenance: %s\n", provenance.c_str());
  std::printf("%s\n", report.ResultLine(args.trace).c_str());
  std::fflush(stdout);
  return report.mismatches() == 0 && report.failed() == 0 ? 0 : 1;
}
