/**
 * @file
 * Command-line simulator.
 *
 *   flexi_sim [-t] [--max-cycles N] <isa> <source.s> [inputs...]
 *
 * Assembles and runs the program on the corresponding core (with the
 * off-chip MMU for multi-page programs), feeding the given input
 * values, until the program halts (taken branch to itself) or the
 * instruction budget runs out. Prints outputs, statistics, runtime
 * and energy.
 *
 * --max-cycles arms a watchdog: a program still running after N core
 * cycles is aborted with a clean timeout message and exit status 3,
 * instead of spinning against the (huge) instruction budget. Tests
 * and scripts driving flexisim on untrusted programs should always
 * pass it.
 *
 * Exit codes follow the flexilint contract, plus the watchdog: 0 =
 * ran to completion, 1 = runtime error (assembly errors), 2 = usage
 * error (unknown ISA, malformed option or input value, unreadable
 * source file), 3 = cycle-watchdog timeout.
 */

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>

#include "common/logging.hh"
#include "common/parse_number.hh"
#include "dse/design_point.hh"
#include "sys/flexichip.hh"

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

std::unique_ptr<FlexiChip>
makeChip(const char *name)
{
    if (!std::strcmp(name, "fc4"))
        return std::make_unique<FlexiChip>(IsaKind::FlexiCore4);
    if (!std::strcmp(name, "fc8"))
        return std::make_unique<FlexiChip>(IsaKind::FlexiCore8);
    DesignPoint p;
    if (!std::strcmp(name, "ext")) {
        p.operands = OperandModel::Accumulator;
        return std::make_unique<FlexiChip>(p);
    }
    if (!std::strcmp(name, "ls")) {
        p.operands = OperandModel::LoadStore;
        return std::make_unique<FlexiChip>(p);
    }
    usageError("unknown ISA '%s' (expected fc4|fc8|ext|ls)", name);
}

/** Strict unsigned argument value of type T, else usage error. */
template <typename T>
T
parseNumber(const char *what, const char *v)
{
    std::optional<T> n = parseUnsigned<T>(v);
    if (!n)
        usageError("%s: expected an integer in 0..%llu, got '%s'",
                   what,
                   (unsigned long long)std::numeric_limits<T>::max(),
                   v);
    return *n;
}

} // namespace

int
main(int argc, char **argv)
{
    bool trace = false;
    uint64_t max_cycles = 0;
    int base = 1;
    for (; base < argc; ++base) {
        if (!std::strcmp(argv[base], "-t")) {
            trace = true;
        } else if (!std::strcmp(argv[base], "--max-cycles") &&
                   base + 1 < argc) {
            max_cycles =
                parseNumber<uint64_t>("--max-cycles", argv[++base]);
        } else {
            break;
        }
    }
    if (argc < base + 2) {
        std::fprintf(stderr,
                     "usage: %s [-t] [--max-cycles N] "
                     "<fc4|fc8|ext|ls> <source.s> [inputs...]\n",
                     argv[0]);
        return 2;
    }
    try {
        auto chip = makeChip(argv[base]);
        std::ifstream in(argv[base + 1]);
        if (!in)
            usageError("cannot open '%s'", argv[base + 1]);
        std::ostringstream src;
        src << in.rdbuf();
        chip->loadProgram(src.str());

        IsaKind isa = chip->isa();
        if (trace) {
            chip->setTraceSink([isa](const TraceRecord &rec) {
                std::printf("%s\n", formatTrace(isa, rec).c_str());
            });
        }

        for (int i = base + 2; i < argc; ++i)
            chip->pushInput(parseNumber<uint8_t>("input", argv[i]));

        // The cycle watchdog runs the chip in slices so a spinning
        // program is cut off near (not exactly at) the cycle limit —
        // a timeout, not a cycle-accurate breakpoint.
        StopReason reason;
        bool timed_out = false;
        if (max_cycles) {
            do {
                reason = chip->run(chip->stats().instructions + 4096);
            } while (reason == StopReason::Budget &&
                     chip->stats().cycles < max_cycles);
            timed_out = reason == StopReason::Budget &&
                        chip->stats().cycles >= max_cycles;
        } else {
            reason = chip->run(1000000);
        }
        if (timed_out) {
            std::fprintf(stderr,
                         "timeout: program still running after %lu "
                         "cycles (%lu instructions); use --max-cycles "
                         "to adjust the watchdog\n",
                         static_cast<unsigned long>(
                             chip->stats().cycles),
                         static_cast<unsigned long>(
                             chip->stats().instructions));
            return 3;
        }
        std::printf("stopped: %s\n",
                    reason == StopReason::Halted ? "halted"
                                                 : "budget");
        std::printf("outputs:");
        for (uint8_t v : chip->outputs())
            std::printf(" 0x%x", v);
        std::printf("\n");
        const SimStats &s = chip->stats();
        std::printf("instructions %lu, cycles %lu (CPI %.2f), "
                    "branches %lu taken %lu\n",
                    static_cast<unsigned long>(s.instructions),
                    static_cast<unsigned long>(s.cycles), s.cpi(),
                    static_cast<unsigned long>(s.branches),
                    static_cast<unsigned long>(s.takenBranches));
        std::printf("time %.3f ms, energy %.2f uJ\n\n%s",
                    chip->elapsedSeconds() * 1e3,
                    chip->energyJoules() * 1e6,
                    chip->physicalReport().c_str());
        return 0;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
