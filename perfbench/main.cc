/**
 * @file
 * Repository benchmark driver: runs one workload for a fixed time
 * and prints, as its last line, one JSON object
 *
 *   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
 *
 * with the end-to-end metrics (untraced) or the per-layer metrics
 * (--trace 1). A preceding "# build" line records the build type,
 * compiler, host cores and worker threads.
 *
 *   perfbench --workload wafer_yield|fault_grade|fleet_life
 *             [--seed N] [--seconds S] [--trace 0|1]
 *             [--workdir DIR] [--dump-pins]
 *   perfbench --selftest [--workdir DIR]
 *
 * Exit codes: 0 result printed, 1 a check failed (self-test), 2
 * usage or a build without NDEBUG.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common/logging.hh"
#include "harness.hh"

namespace perfbench
{

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMb()
{
    // VmHWM restarts at exec; getrusage's ru_maxrss carries over the
    // peak of the process image that exec'd us (python3 run.py).
    if (FILE *f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        long kib = -1;
        while (std::fgets(line, sizeof line, f))
            if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1)
                break;
        std::fclose(f);
        if (kib >= 0)
            return static_cast<double>(kib) / 1024.0;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;   // KiB
}

double
setupSeconds(const std::function<void()> &fn, int reps)
{
    std::vector<double> t;
    for (int i = 0; i < reps; ++i)
        t.push_back(timed(fn));
    return median(t);
}

std::string
fmt17(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
reportEndToEnd(Outcome &out, double setup_s,
               const std::vector<double> &op_s)
{
    out.set("setup_s", setup_s, "s");
    out.set("op_s", median(op_s), "s");
    out.set("peak_rss_mb", peakRssMb(), "MB");
    // Quartiles beside the median, so a run's spread is visible.
    std::vector<double> v = op_s;
    std::sort(v.begin(), v.end());
    auto q = [&](double p) {
        return fmt17(v[static_cast<size_t>(p * (v.size() - 1))]);
    };
    out.notes.push_back("timed operations: " + std::to_string(v.size()) +
                        ", op_s p25 " + q(0.25) + " p50 " + q(0.5) +
                        " p75 " + q(0.75));
}

void
reportTraceOverhead(Outcome &out, const std::vector<double> &traced_ops,
                    const std::vector<double> &untraced_ops,
                    const std::vector<double> &unaccounted)
{
    out.set("trace.overhead_ratio",
            median(traced_ops) / median(untraced_ops), "ratio");
    out.set("trace.unaccounted_s", median(unaccounted), "s");
    out.notes.push_back("traced operations: " +
                        std::to_string(traced_ops.size()));
}

namespace
{

/** Every per-layer metric of BENCHMARK.json, with its unit. A layer
 *  the workload does not exercise reads 0. */
constexpr const char *kLayerMetrics[][2] = {
    {"yield.sample_s", "s"},
    {"yield.dies", "count"},
    {"yield.defective_dies", "count"},
    {"yield.err_pp", "pp"},
    {"netlist.fault_compile_s", "s"},
    {"netlist.fetch_s", "s"},
    {"netlist.step_s", "s"},
    {"netlist.compare_s", "s"},
    {"netlist.lane_die_cycles", "count"},
    {"netlist.groups", "count"},
    {"netlist.lane_occupancy", "ratio"},
    {"netlist.lane_occupancy_512", "ratio"},
    {"netlist.clone_s", "s"},
    {"netlist.scalar_s", "s"},
    {"netlist.scalar_die_cycles", "count"},
    {"netlist.scalar_runs_per_fault", "count"},
    {"sim.golden_s", "s"},
    {"sim.golden_instructions", "count"},
    {"analysis.sat_s", "s"},
    {"analysis.sat_solves", "count"},
    {"analysis.sat_conflicts", "count"},
    {"analysis.escapes", "count"},
    {"analysis.testable", "count"},
    {"analysis.redundant", "count"},
    {"resilience.salvage_s", "s"},
    {"resilience.salvaged_dies", "count"},
    {"resilience.dead_dies", "count"},
    {"fleet.engine_s", "s"},
    {"fleet.epoch_s", "s"},
    {"fleet.missions", "count"},
    {"fleet.deaths", "count"},
    {"fleet.non_masked_missions", "count"},
    {"fleet.ckpt_encode_s", "s"},
    {"fleet.ckpt_write_s", "s"},
    {"fleet.ckpt_read_s", "s"},
    {"fleet.ckpt_bytes", "bytes"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.unaccounted_s", "s"},
};

std::string
jsonEscape(const std::string &s)
{
    std::string o;
    for (char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        o += c;
    }
    return o;
}

Outcome
runWorkload(const Options &opt)
{
    if (opt.workload == "wafer_yield")
        return runWaferYield(opt);
    if (opt.workload == "fault_grade")
        return runFaultGrade(opt);
    return runFleetLife(opt);
}

/** Print the run's notes, build line and result line. */
void
printResult(const Options &opt, Outcome &out)
{
    if (opt.trace)
        for (const auto &m : kLayerMetrics)
            if (!out.metrics.count(m[0]))
                out.set(m[0], 0.0, m[1]);
    for (const std::string &n : out.notes)
        std::printf("# %s\n", n.c_str());
    std::printf("# build {\"build_type\": \"%s\", \"compiler\": \"%s\", "
                "\"nproc\": %ld, \"threads\": %u, \"workload\": "
                "\"%s\", \"seed\": %s, \"trace\": %d}\n",
                PERFBENCH_BUILD_TYPE, jsonEscape(PERFBENCH_COMPILER).c_str(),
                sysconf(_SC_NPROCESSORS_ONLN), kThreads,
                opt.workload.c_str(),
                opt.seedGiven ? std::to_string(opt.seed).c_str()
                              : "\"default\"",
                opt.trace ? 1 : 0);
    std::string m;
    for (const auto &[name, metric] : out.metrics) {
        m += m.empty() ? "" : ", ";
        m += "\"" + name + "\": {\"value\": " + fmt17(metric.value) +
             ", \"unit\": \"" + metric.unit + "\"}";
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": {%s}}\n",
                out.failed ? "false" : "true",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed), m.c_str());
    std::fflush(stdout);
}

/**
 * Tiny-size smoke run of every workload, traced and untraced, plus
 * the negative test: a corrupted output must be counted failed.
 */
int
selftest(const std::string &workdir)
{
    int bad = 0;
    for (const char *w : {"wafer_yield", "fault_grade", "fleet_life"}) {
        for (int mode = 0; mode < 3; ++mode) {
            Options opt;
            opt.workload = w;
            opt.seed = 7;
            opt.seedGiven = true;
            opt.seconds = 0;
            opt.tiny = true;
            opt.trace = mode == 1;
            opt.corrupt = mode == 2;
            opt.workdir = workdir;
            Outcome out = runWorkload(opt);
            bool pass = out.attempted > 0 &&
                        (opt.corrupt ? out.failed > 0
                                     : out.failed == 0);
            const char *label[] = {"clean", "traced", "corrupted"};
            std::printf("selftest %-12s %-9s attempted %llu failed "
                        "%llu: %s\n",
                        w, label[mode],
                        static_cast<unsigned long long>(out.attempted),
                        static_cast<unsigned long long>(out.failed),
                        pass ? "ok" : "FAIL");
            if (!pass)
                for (const std::string &n : out.notes)
                    std::printf("  # %s\n", n.c_str());
            bad += !pass;
        }
    }
    return bad ? 1 : 0;
}

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload wafer_yield|fault_grade|"
                 "fleet_life [--seed N] [--seconds S] [--trace 0|1] "
                 "[--workdir DIR] [--dump-pins]\n"
                 "       %s --selftest [--workdir DIR]\n",
                 argv0, argv0);
    std::exit(2);
}

bool
parseU64(const char *s, uint64_t &v)
{
    if (!*s || *s == '-')
        return false;
    char *end = nullptr;
    errno = 0;
    unsigned long long x = std::strtoull(s, &end, 10);
    if (errno || *end)
        return false;
    v = x;
    return true;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
#ifndef NDEBUG
    std::fprintf(stderr, "perfbench: refusing to report from a build "
                 "without NDEBUG (%s); configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n", PERFBENCH_BUILD_TYPE);
    return 2;
#endif
    Options opt;
    bool self = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        uint64_t v = 0;
        if (a == "--workload") {
            opt.workload = value();
        } else if (a == "--seed") {
            if (!parseU64(value(), v))
                usage(argv[0]);
            opt.seed = v;
            opt.seedGiven = true;
        } else if (a == "--seconds") {
            if (!parseU64(value(), v) || v > 3600)
                usage(argv[0]);
            opt.seconds = static_cast<double>(v);
        } else if (a == "--trace") {
            if (!parseU64(value(), v) || v > 1)
                usage(argv[0]);
            opt.trace = v == 1;
        } else if (a == "--workdir") {
            opt.workdir = value();
        } else if (a == "--dump-pins") {
            opt.dumpPins = true;
        } else if (a == "--selftest") {
            self = true;
        } else {
            usage(argv[0]);
        }
    }
    // One worker thread everywhere, including library paths whose
    // thread count is not exposed (FleetEngine's salvage study runs
    // at the pool default): the pool reads this on first use.
    setenv("FLEXI_THREADS", "1", 1);
    flexi::setQuiet(true);
    try {
        if (self)
            return selftest(opt.workdir);
        if (opt.workload != "wafer_yield" &&
            opt.workload != "fault_grade" && opt.workload != "fleet_life")
            usage(argv[0]);
        Outcome out = runWorkload(opt);
        printResult(opt, out);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
