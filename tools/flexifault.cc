/**
 * @file
 * Resilience command-line driver.
 *
 *   flexifault campaign [--isa fc4|fc8|ext|ls] [--seed N]
 *                       [--injections N] [--work N] [--threads N]
 *                       [--no-detectors] [--no-recovery] [--lockstep]
 *   flexifault salvage  [--isa fc4|fc8] [--seed N] [--cycles N]
 *                       [--vdd V] [--min-kernels N] [--threads N]
 *   flexifault atpg     [--isa fc4|fc8] [--seed N] [--max-faults N]
 *                       [--cycles N] [--threads N]
 *
 * campaign: inject in-field faults while a kernel runs and classify
 * each as masked / recovered / detected / SDC / hang. salvage: run
 * the Table 5 wafer study, then re-bin failed dies that still
 * complete benchmark kernels under the detect-and-recover runtime.
 * atpg: stuck-at coverage of the wafer-test vector suite with SAT
 * triage of the escapes (test hole vs provably redundant).
 *
 * Exit codes follow the flexilint contract: 0 = success, 1 =
 * runtime error (a failed baseline run), 2 = usage error (unknown
 * command, ISA or option, malformed or out-of-range option value —
 * a negative seed, --vdd nan).
 */

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <vector>

#include "analysis/atpg.hh"
#include "common/logging.hh"
#include "common/parse_number.hh"
#include "resilience/fault_campaign.hh"
#include "resilience/salvage.hh"
#include "yield/test_program.hh"

using namespace flexi;

namespace
{

/** Usage errors exit 2, per the flexilint exit-code contract. */
[[noreturn]] void
usageError(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    std::fprintf(stderr, "\n");
    va_end(ap);
    std::exit(2);
}

IsaKind
parseIsa(const char *name)
{
    if (!std::strcmp(name, "fc4"))
        return IsaKind::FlexiCore4;
    if (!std::strcmp(name, "fc8"))
        return IsaKind::FlexiCore8;
    if (!std::strcmp(name, "ext"))
        return IsaKind::ExtAcc4;
    if (!std::strcmp(name, "ls"))
        return IsaKind::LoadStore4;
    usageError("unknown ISA '%s' (expected fc4|fc8|ext|ls)", name);
}

struct Args
{
    int argc;
    char **argv;
    /** argv slots an option or flag has consumed. */
    std::vector<bool> used = std::vector<bool>(argc, false);

    /** Consume "--name <value>"; returns nullptr when not present. */
    const char *
    option(const char *name)
    {
        for (int i = 2; i + 1 < argc; ++i) {
            if (!std::strcmp(argv[i], name)) {
                used[i] = used[i + 1] = true;
                return argv[i + 1];
            }
        }
        return nullptr;
    }

    bool
    flag(const char *name)
    {
        for (int i = 2; i < argc; ++i) {
            if (!std::strcmp(argv[i], name)) {
                used[i] = true;
                return true;
            }
        }
        return false;
    }

    /**
     * Consume "--name <value>" as an integer that fits T, else
     * usage error.
     */
    template <typename T>
    T
    number(const char *name, T fallback)
    {
        const char *v = option(name);
        if (!v)
            return fallback;
        std::optional<T> n = parseUnsigned<T>(v);
        if (!n)
            usageError("%s: expected an integer in 0..%llu, got '%s'",
                       name,
                       (unsigned long long)std::numeric_limits<T>::max(),
                       v);
        return *n;
    }

    /** Usage error on any argument no option or flag consumed. */
    void
    finish() const
    {
        for (int i = 2; i < argc; ++i)
            if (!used[i])
                usageError("unknown option '%s'", argv[i]);
    }
};

int
cmdCampaign(Args &args)
{
    CampaignConfig cfg;
    if (const char *isa = args.option("--isa"))
        cfg.isa = parseIsa(isa);
    cfg.seed = args.number<uint64_t>("--seed", 1);
    cfg.injections = args.number<unsigned>("--injections", 96);
    cfg.workUnits = args.number<size_t>("--work", 6);
    cfg.threads = args.number<unsigned>("--threads", 0);
    if (args.flag("--no-detectors"))
        cfg.detectors = DetectorConfig{false, false, false,
                                       cfg.detectors.watchdogCycles};
    if (args.flag("--lockstep"))
        cfg.detectors.lockstep = true;
    if (args.flag("--no-recovery"))
        cfg.recovery.enabled = false;
    args.finish();

    CampaignResult res = runFaultCampaign(cfg);
    CampaignCounts c = res.counts();
    std::printf("%s: %u injections, seed %llu (baseline %llu cycles, "
                "%s)\n",
                isaName(cfg.isa), cfg.injections,
                (unsigned long long)cfg.seed,
                (unsigned long long)res.baselineCycles,
                res.baselineCorrect ? "clean" : "BASELINE FAILED");
    for (size_t o = 0; o < kNumFaultOutcomes; ++o)
        std::printf("  %-10s %llu\n",
                    faultOutcomeName(static_cast<FaultOutcome>(o)),
                    (unsigned long long)c.n[o]);
    return res.baselineCorrect ? 0 : 1;
}

int
cmdSalvage(Args &args)
{
    SalvageConfig cfg;
    if (const char *isa = args.option("--isa"))
        cfg.study.isa = parseIsa(isa);
    cfg.study.seed = args.number<uint64_t>("--seed", 42);
    cfg.study.testCycles = args.number<uint64_t>("--cycles", 500);
    cfg.study.threads = args.number<unsigned>("--threads", 0);
    cfg.minKernels = args.number<unsigned>("--min-kernels", 1);
    if (const char *vdd = args.option("--vdd")) {
        std::optional<double> v =
            parseReal(vdd, std::numeric_limits<double>::min(),
                      std::numeric_limits<double>::max());
        if (!v)
            usageError("--vdd: expected a positive voltage, got "
                       "'%s'", vdd);
        cfg.vdd = *v;
    }
    args.finish();

    SalvageReport rep = runSalvageStudy(cfg);
    std::printf("%s wafer, seed %llu, binned at %.1f V (inclusion "
                "zone):\n",
                rep.study.spec.name.c_str(),
                (unsigned long long)cfg.study.seed, cfg.vdd);
    std::printf("  raw yield        %.4f\n", rep.rawYield(true));
    std::printf("  effective yield  %.4f\n",
                rep.effectiveYield(true));
    std::printf("  functional %zu, salvaged %zu, dead %zu\n",
                rep.binCount(DieBin::Functional, true),
                rep.binCount(DieBin::Salvaged, true),
                rep.binCount(DieBin::Dead, true));
    for (const DieSalvage &v : rep.dies) {
        if (v.bin != DieBin::Salvaged)
            continue;
        const DieResult &die = rep.study.dies[v.dieIndex];
        if (!die.site.inInclusionZone)
            continue;
        std::printf("  die %3zu: %u/%u kernels (mask 0x%02x), %u "
                    "detections, %u retries, %u restarts\n",
                    v.dieIndex, v.kernelsPassed, v.kernelsTotal,
                    v.passedMask, v.detections, v.retries,
                    v.restarts);
    }
    return 0;
}

int
cmdAtpg(Args &args)
{
    AtpgConfig cfg;
    if (const char *isa = args.option("--isa"))
        cfg.isa = parseIsa(isa);
    uint64_t seed = args.number<uint64_t>("--seed", 11);
    cfg.simCycles = args.number<uint64_t>("--cycles", 1500);
    cfg.maxFaults = args.number<size_t>("--max-faults", 0);
    cfg.threads = args.number<unsigned>("--threads", 0);
    args.finish();

    Program prog = makeTestProgram(cfg.isa, seed);
    auto inputs = makeTestInputs(cfg.isa, 256, seed);
    AtpgReport rep = runAtpg(cfg, prog, inputs);
    std::printf("%s: %zu stuck-at faults, %zu sim-detected "
                "(%.1f%%)\n",
                isaName(cfg.isa), rep.faults, rep.simDetected,
                100.0 * rep.simCoverage());
    std::printf("escapes: %zu testable (ATPG pattern exists), %zu "
                "provably redundant\n",
                rep.testable, rep.redundant);
    std::printf("testable-fault coverage %.1f%% (%llu solver calls, "
                "%llu conflicts)\n",
                100.0 * rep.testableCoverage(),
                (unsigned long long)rep.solves,
                (unsigned long long)rep.conflicts);
    for (const AtpgFault &f : rep.escapes)
        if (f.testable)
            std::printf("  hole: %s stuck-at-%d [%s]\n    %s\n",
                        f.net.c_str(), f.fault.value ? 1 : 0,
                        f.module.c_str(), f.pattern.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: %s <campaign|salvage|atpg> [options]\n",
                     argv[0]);
        return 2;
    }
    Args args{argc, argv};
    try {
        if (!std::strcmp(argv[1], "campaign"))
            return cmdCampaign(args);
        if (!std::strcmp(argv[1], "salvage"))
            return cmdSalvage(args);
        if (!std::strcmp(argv[1], "atpg"))
            return cmdAtpg(args);
        std::fprintf(stderr, "unknown command '%s'\n", argv[1]);
        return 2;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
