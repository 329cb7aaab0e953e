#pragma once

/// \file bench_common.hpp
/// Shared scaffolding for the figure-reproduction benches: run-provenance
/// banner, scale resolution (DDP_FULL / DDP_TRIALS / DDP_JOBS / DDP_SEED,
/// `--jobs N`) and CSV emission into a shared output directory (default
/// `results/`, override with `--out-dir=DIR`).

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "experiments/figures.hpp"
#include "util/config.hpp"
#include "util/table.hpp"

namespace ddp::bench {

/// Peak resident set size of this process in bytes (0 if unknown).
/// Prefers VmHWM from /proc/self/status (Linux, byte-accurate pages);
/// falls back to getrusage, whose ru_maxrss unit is KiB on Linux and
/// bytes on macOS.
inline std::uint64_t peak_rss_bytes() {
#if defined(__linux__)
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      const std::uint64_t kib =
          std::strtoull(line.c_str() + 6, nullptr, 10);
      if (kib != 0) return kib * 1024;
      break;
    }
  }
#endif
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0 && usage.ru_maxrss > 0) {
#if defined(__APPLE__)
    return static_cast<std::uint64_t>(usage.ru_maxrss);
#else
    return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
#endif
  }
#endif
  return 0;
}

struct Run {
  experiments::Scale scale;
  std::uint64_t seed = 20070710;  ///< DDP_SEED overrides
  std::string out_dir = "results";
};

/// Print `message` to stderr and exit 2: a bench never starts a run on a
/// flag or DDP_* value it cannot honour.
[[noreturn]] inline void usage_error(const std::string& message) {
  std::fprintf(stderr, "%s\n", message.c_str());
  std::exit(2);
}

/// The name of a `--flag=value` or `--flag value` argument.
inline std::string flag_name(const std::string& arg) {
  return arg.substr(0, arg.find('='));
}

/// The value of the flag at argv[i]: the text after its first '=', else
/// the next argument, which `i` then moves past. An empty value exits 2.
inline std::string flag_value(int argc, char** argv, int& i) {
  const std::string arg = argv[i];
  const std::size_t eq = arg.find('=');
  std::string value;
  if (eq != std::string::npos) {
    value = arg.substr(eq + 1);
  } else if (i + 1 < argc) {
    value = argv[++i];
  }
  if (value.empty()) usage_error(flag_name(arg) + " needs a value");
  return value;
}

/// A `--jobs` value: a whole number in [0, util::kMaxJobs]; else exit 2.
inline unsigned jobs_flag(const std::string& value) {
  const auto n = util::parse<unsigned>(value, 0, util::kMaxJobs);
  if (!n) {
    usage_error(util::rejection("--jobs", util::accepted(0u, util::kMaxJobs),
                                value));
  }
  return *n;
}

/// Resolve the run's scale, seed and output directory. The flags are
/// `--out-dir DIR` (default `results/`) and `--jobs N` (0 = one worker per
/// hardware thread; overrides DDP_JOBS), each also as `--flag=value`.
/// Output is jobs-invariant; only wall clock changes. Any other argument,
/// or a malformed flag or DDP_FULL / DDP_TRIALS / DDP_JOBS / DDP_SEED
/// value, exits 2 before the first run.
inline Run begin(int argc, char** argv, const std::string& title,
                 const std::string& paper_ref) {
  std::string problem;
  Run run;
  run.scale = experiments::default_scale(problem);
  run.seed = util::env("DDP_SEED", run.seed, problem);
  if (!problem.empty()) usage_error(problem);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string name = flag_name(arg);
    if (name != "--out-dir" && name != "--jobs") {
      usage_error("unknown argument: " + arg +
                  " (expected --out-dir DIR or --jobs N)");
    }
    const std::string value = flag_value(argc, argv, i);
    if (name == "--out-dir") {
      run.out_dir = value;
    } else {
      run.scale.jobs = jobs_flag(value);
    }
  }
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("scale: %zu peers, %.0f min simulated, %u trial(s), seed %llu%s\n",
              run.scale.peers, run.scale.total_minutes, run.scale.trials,
              static_cast<unsigned long long>(run.seed),
              util::env("DDP_FULL", false, problem) ? " [FULL]" : " [laptop; DDP_FULL=1 for paper scale]");
  if (run.scale.jobs != 1) {
    std::printf("jobs: %u (output identical to --jobs 1)\n", run.scale.jobs);
  }
  return run;
}

inline void finish(const Run& run, const util::Table& table,
                   const std::string& title, const std::string& csv_name) {
  table.print(std::cout, title);
  std::error_code ec;
  std::filesystem::create_directories(run.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", run.out_dir.c_str(),
                 ec.message().c_str());
    return;
  }
  const std::string path =
      (std::filesystem::path(run.out_dir) / (csv_name + ".csv")).string();
  if (table.write_csv(path)) {
    std::printf("wrote %s\n", path.c_str());
  }
  // Memory provenance rides in a side file so the figure CSV bytes stay
  // golden-comparable across runs and releases.
  const std::uint64_t rss = peak_rss_bytes();
  if (rss != 0) {
    std::printf("peak RSS: %.1f MiB\n",
                static_cast<double>(rss) / (1024.0 * 1024.0));
    const std::string meta =
        (std::filesystem::path(run.out_dir) / (csv_name + "_meta.csv"))
            .string();
    std::ofstream out(meta, std::ios::trunc);
    if (out) {
      out << "metric,value\n";
      out << "peak_rss_bytes," << rss << "\n";
      out << "peers," << run.scale.peers << "\n";
      out << "seed," << run.seed << "\n";
    }
  }
}

}  // namespace ddp::bench
