/**
 * @file
 * Fleet lifecycle command-line driver.
 *
 *   flexifleet run    [--isa fc4|fc8] [--seed N] [--dies N]
 *                     [--epochs N] [--kernel NAME] [--program NAME]
 *                     [--work N] [--transients R] [--flips R]
 *                     [--lockstep] [--no-crc] [--no-watchdog]
 *                     [--no-recovery] [--retries N] [--no-restart]
 *                     [--max-repages N] [--vdd V] [--min-kernels N]
 *                     [--threads N] [--checkpoint FILE]
 *                     [--stop-after N] [--json FILE]
 *   flexifleet resume --checkpoint FILE [--stop-after N]
 *                     [--threads N] [--json FILE]
 *   flexifleet report --checkpoint FILE [--json FILE]
 *
 * run: draw a deployed population from the wafer model's binned
 * supply and drive it through the configured number of field epochs,
 * checkpointing after each when --checkpoint is given; --stop-after
 * N stops once N epochs are done (deterministically equivalent to
 * killing the process there). resume: continue a checkpointed
 * campaign to completion — bit-identical to a run that was never
 * stopped, at any thread count. report: summarize a checkpoint
 * without running anything.
 *
 * Exit codes follow the flexilint contract: 0 = success, 1 =
 * runtime/data error (unreadable or corrupt checkpoint, engine
 * failure), 2 = usage error (unknown command or option, malformed or
 * out-of-range option value, missing required option).
 */

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/parse_number.hh"
#include "fleet/checkpoint.hh"
#include "fleet/fleet.hh"
#include "kernels/fc8_programs.hh"

using namespace flexi;

namespace
{

const char *gProgName = "flexifleet";

[[noreturn]] void
usageError(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::fprintf(stderr, "%s: ", gProgName);
    std::vfprintf(stderr, fmt, ap);
    std::fprintf(stderr, "\n");
    va_end(ap);
    std::exit(2);
}

struct Args
{
    int argc;
    char **argv;
    /** argv slots an option or flag has consumed. */
    std::vector<bool> used = std::vector<bool>(argc, false);

    /** Consume "--name <value>"; nullptr when not present. */
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

    /** Strict option of type T in [min, max] (by default T's whole
     *  range), else usage error (exit 2). Rejects any sign. */
    template <typename T>
    T
    number(const char *name, T fallback, T min = 0,
           T max = std::numeric_limits<T>::max())
    {
        const char *v = option(name);
        if (!v)
            return fallback;
        std::optional<T> n = parseUnsigned<T>(v, min, max);
        if (!n)
            usageError("%s: expected an integer in %llu..%llu, got "
                       "'%s'", name, (unsigned long long)min,
                       (unsigned long long)max, v);
        return *n;
    }

    /** Strict finite real option in [min, max], else usage error. */
    double
    real(const char *name, double fallback, double min, double max)
    {
        const char *v = option(name);
        if (!v)
            return fallback;
        std::optional<double> x = parseReal(v, min, max);
        if (!x)
            usageError("%s: expected a number in %g..%g, got '%s'",
                       name, min, max, v);
        return *x;
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

IsaKind
parseIsa(const char *name)
{
    if (!std::strcmp(name, "fc4"))
        return IsaKind::FlexiCore4;
    if (!std::strcmp(name, "fc8"))
        return IsaKind::FlexiCore8;
    usageError("unknown ISA '%s' (fleet campaigns deploy the "
               "fabricated cores: fc4|fc8)", name);
}

KernelId
parseKernel(const char *name)
{
    for (KernelId id : allKernels())
        if (!std::strcmp(name, kernelName(id)))
            return id;
    usageError("unknown kernel '%s'", name);
}

unsigned
parseFc8Program(const char *name)
{
    for (size_t p = 0; p < kNumFc8Programs; ++p)
        if (!std::strcmp(name, fc8ProgramName(
                                   static_cast<Fc8Program>(p))))
            return static_cast<unsigned>(p);
    usageError("unknown FlexiCore8 program '%s'", name);
}

FleetConfig
configFromArgs(Args &args)
{
    FleetConfig cfg;
    if (const char *isa = args.option("--isa"))
        cfg.isa = parseIsa(isa);
    cfg.seed = args.number<uint64_t>("--seed", 42);
    cfg.numDies = args.number<uint32_t>("--dies", 512, 1);
    cfg.epochs = args.number<uint32_t>("--epochs", 4, 1, (1u << 20) - 1);
    if (const char *k = args.option("--kernel"))
        cfg.kernel = parseKernel(k);
    if (const char *p = args.option("--program"))
        cfg.fc8Program = parseFc8Program(p);
    cfg.workUnits = args.number<size_t>("--work", 2, 1);
    cfg.transientsPerEpoch = args.real("--transients", 0.25, 0,
                                       kMaxFaultsPerEpoch);
    cfg.flipsPerEpoch =
        args.real("--flips", 0.05, 0, kMaxFaultsPerEpoch);
    if (args.flag("--lockstep"))
        cfg.detectors.lockstep = true;
    if (args.flag("--no-crc"))
        cfg.detectors.outputCrc = false;
    if (args.flag("--no-watchdog"))
        cfg.detectors.watchdog = false;
    if (args.flag("--no-recovery"))
        cfg.recovery.enabled = false;
    cfg.recovery.maxRetries = args.number<unsigned>(
        "--retries", cfg.recovery.maxRetries, 0, 64);
    if (args.flag("--no-restart"))
        cfg.recovery.allowRestart = false;
    cfg.maxRepages =
        args.number<unsigned>("--max-repages", 1, 0, 1u << 20);
    cfg.vdd = args.real("--vdd", cfg.vdd,
                        std::numeric_limits<double>::min(),
                        std::numeric_limits<double>::max());
    cfg.minKernels = args.number<unsigned>("--min-kernels", 1, 1, 32);
    cfg.threads = args.number<unsigned>("--threads", 0);
    return cfg;
}

void
printSummary(const FleetState &state)
{
    const FleetConfig &cfg = state.config;
    std::printf("%s fleet: %u dies, epoch %u/%u, seed %llu\n",
                isaName(cfg.isa), cfg.numDies, state.epochsDone,
                cfg.epochs, (unsigned long long)cfg.seed);
    std::printf("  alive %llu, pulled %llu, digest %016llx\n",
                (unsigned long long)state.aliveDies(),
                (unsigned long long)state.deaths,
                (unsigned long long)fleetDigest(state));
    for (uint32_t e = 0; e < state.epochsDone; ++e) {
        const auto &row = state.epochOutcomes[e];
        std::printf("  epoch %3u: availability %.4f, sdc %.4f  [", e,
                    state.availability(e), state.sdcRate(e));
        for (size_t o = 0; o < kNumFaultOutcomes; ++o)
            std::printf("%s%s %llu", o ? ", " : "",
                        faultOutcomeName(static_cast<FaultOutcome>(o)),
                        (unsigned long long)row[o]);
        std::printf("]\n");
    }
    static const char *binNames[2] = {"functional", "salvaged"};
    for (size_t b = 0; b < 2; ++b) {
        std::printf("  %-10s [", binNames[b]);
        for (size_t o = 0; o < kNumFaultOutcomes; ++o)
            std::printf("%s%s %llu", o ? ", " : "",
                        faultOutcomeName(static_cast<FaultOutcome>(o)),
                        (unsigned long long)state.binOutcomes[b][o]);
        std::printf("]\n");
    }
}

void
writeJson(const FleetState &state, const char *path)
{
    std::FILE *f = std::fopen(path, "w");
    if (!f)
        fatal("cannot write '%s'", path);
    const FleetConfig &cfg = state.config;
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"isa\": \"%s\",\n", isaName(cfg.isa));
    std::fprintf(f, "  \"seed\": %llu,\n",
                 (unsigned long long)cfg.seed);
    std::fprintf(f, "  \"dies\": %u,\n", cfg.numDies);
    std::fprintf(f, "  \"epochs\": %u,\n", cfg.epochs);
    std::fprintf(f, "  \"epochs_done\": %u,\n", state.epochsDone);
    std::fprintf(f, "  \"alive\": %llu,\n",
                 (unsigned long long)state.aliveDies());
    std::fprintf(f, "  \"pulled\": %llu,\n",
                 (unsigned long long)state.deaths);
    std::fprintf(f, "  \"digest\": \"%016llx\",\n",
                 (unsigned long long)fleetDigest(state));
    std::fprintf(f, "  \"epoch_stats\": [\n");
    for (uint32_t e = 0; e < state.epochsDone; ++e) {
        std::fprintf(f,
                     "    {\"epoch\": %u, \"availability\": %.6f, "
                     "\"sdc_rate\": %.6f, \"outcomes\": [", e,
                     state.availability(e), state.sdcRate(e));
        for (size_t o = 0; o < kNumFaultOutcomes; ++o)
            std::fprintf(f, "%s%llu", o ? ", " : "",
                         (unsigned long long)
                             state.epochOutcomes[e][o]);
        std::fprintf(f, "]}%s\n",
                     e + 1 < state.epochsDone ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    static const char *binNames[2] = {"functional", "salvaged"};
    std::fprintf(f, "  \"bin_outcomes\": {\n");
    for (size_t b = 0; b < 2; ++b) {
        std::fprintf(f, "    \"%s\": [", binNames[b]);
        for (size_t o = 0; o < kNumFaultOutcomes; ++o)
            std::fprintf(f, "%s%llu", o ? ", " : "",
                         (unsigned long long)state.binOutcomes[b][o]);
        std::fprintf(f, "]%s\n", b == 0 ? "," : "");
    }
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
}

int
cmdRun(Args &args)
{
    FleetConfig cfg = configFromArgs(args);
    const char *checkpoint = args.option("--checkpoint");
    uint32_t stopAfter = args.number<uint32_t>("--stop-after", 0);
    const char *json = args.option("--json");
    args.finish();

    FleetEngine engine(cfg);
    FleetState state = engine.init();
    engine.run(state, stopAfter,
               checkpoint ? std::string(checkpoint)
                          : std::string());
    printSummary(state);
    if (json)
        writeJson(state, json);
    return 0;
}

int
cmdResume(Args &args, bool runEpochs)
{
    const char *checkpoint = args.option("--checkpoint");
    if (!checkpoint)
        usageError("%s needs --checkpoint FILE",
                   runEpochs ? "resume" : "report");

    FleetState state = loadFleetCheckpoint(checkpoint);
    uint32_t stopAfter = 0;
    if (runEpochs) {
        // The thread count may change across a resume; everything
        // semantic comes from the checkpoint.
        state.config.threads =
            args.number<unsigned>("--threads", state.config.threads);
        stopAfter = args.number<uint32_t>("--stop-after", 0);
    }
    const char *json = args.option("--json");
    args.finish();

    if (runEpochs) {
        FleetEngine engine(state.config);
        engine.run(state, stopAfter, checkpoint);
    }
    printSummary(state);
    if (json)
        writeJson(state, json);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 1 && argv[0])
        gProgName = argv[0];
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: %s <run|resume|report> [options]\n",
                     argv[0]);
        return 2;
    }
    Args args{argc, argv};
    try {
        if (!std::strcmp(argv[1], "run"))
            return cmdRun(args);
        if (!std::strcmp(argv[1], "resume"))
            return cmdResume(args, true);
        if (!std::strcmp(argv[1], "report"))
            return cmdResume(args, false);
        std::fprintf(stderr, "unknown command '%s'\n", argv[1]);
        return 2;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
