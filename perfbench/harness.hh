/**
 * @file
 * Shared plumbing of the repository benchmark: options, the result
 * record each workload fills, wall-clock spans, and the small
 * statistics the workloads report.
 *
 * Spans are recorded here, around calls into the library's public
 * functions; nothing inside src/ is instrumented.
 */

#ifndef FLEXI_PERFBENCH_HARNESS_HH
#define FLEXI_PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Worker threads every workload runs with (one core). */
constexpr unsigned kThreads = 1;

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    /** Workload seed; each workload has its own default (pins.hh),
     *  and its pinned outputs apply exactly at that seed. */
    uint64_t seed = 0;
    bool seedGiven = false;
    double seconds = 10.0;
    bool trace = false;
    /** Tiny problem sizes (self-test); pinned values do not apply. */
    bool tiny = false;
    /**
     * Corrupt one checked output of the first operation (a per-die
     * error count, a verdict count, a fleet digest) before it is
     * checked: the self-test's proof that the check catches it.
     */
    bool corrupt = false;
    /** Print the values pins.hh holds for this run's inputs. */
    bool dumpPins = false;
    /** Scratch directory for checkpoint files. */
    std::string workdir = ".";
};

/** One reported metric. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What a workload hands back to main(). */
struct Outcome
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** End-to-end (untraced) or per-layer (traced) metrics. */
    std::map<std::string, Metric> metrics;
    /** Human-readable lines printed before the result line. */
    std::vector<std::string> notes;

    void
    set(const std::string &name, double value, const char *unit)
    {
        metrics[name] = Metric{value, unit};
    }

    /** Record one checked operation; @p ok false counts it failed. */
    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            if (failed <= 8)
                notes.push_back("check failed: " + what);
        }
    }
};

inline double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Accumulating lap timer: lap(slot) charges the time since the
 * previous lap (or start()) to @p slot, so consecutive layer calls
 * cost one clock read each.
 */
class Laps
{
  public:
    void start() { t_ = now(); }

    void
    lap(double &slot)
    {
        double t = now();
        slot += t - t_;
        t_ = t;
    }

  private:
    double t_ = 0.0;
};

/** Seconds @p fn takes. */
inline double
timed(const std::function<void()> &fn)
{
    double t = now();
    fn();
    return now() - t;
}

double median(std::vector<double> v);

/** Peak resident set size of this process, MiB. */
double peakRssMb();

/**
 * Median seconds of @p reps from-scratch runs of @p fn: the
 * workload's one-time set-up, measured several times so one noisy
 * repetition cannot move the figure.
 */
double setupSeconds(const std::function<void()> &fn, int reps);

/** 64-bit FNV-1a over a value sequence. */
class Fnv
{
  public:
    Fnv &
    add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xffu;
            h_ *= 1099511628211ull;
        }
        return *this;
    }
    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 1469598103934665603ull;
};

/** The seed a run uses: --seed, else the workload's default. */
inline uint64_t
seedOf(const Options &opt, uint64_t default_seed)
{
    return opt.seedGiven ? opt.seed : default_seed;
}

/** @p v with all 17 significant digits. */
std::string fmt17(double v);

/** End-to-end metrics every untraced run reports. */
void reportEndToEnd(Outcome &out, double setup_s,
                    const std::vector<double> &op_s);

/**
 * trace.overhead_ratio (median traced / median untraced operation
 * seconds, same inputs, same run) and trace.unaccounted_s (median
 * traced operation time no layer span covers).
 */
void reportTraceOverhead(Outcome &out,
                         const std::vector<double> &traced_ops,
                         const std::vector<double> &untraced_ops,
                         const std::vector<double> &unaccounted);

Outcome runWaferYield(const Options &opt);
Outcome runFaultGrade(const Options &opt);
Outcome runFleetLife(const Options &opt);

} // namespace perfbench

#endif // FLEXI_PERFBENCH_HARNESS_HH
