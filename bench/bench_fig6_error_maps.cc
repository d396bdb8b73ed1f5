/**
 * @file
 * Regenerates Figure 6: wafer maps of output-error counts for
 * FlexiCore4 and FlexiCore8 at 3 V and 4.5 V. Defective dies are
 * gate-level fault-simulated against the golden model over the
 * directed+random vector suite (Section 4.1's test methodology);
 * '.' marks a fully functional die (zero errors).
 */

#include <cstdio>
#include <map>

#include "bench_util.hh"
#include "yield/wafer_study.hh"

using namespace flexi;

namespace
{

void
printMap(const WaferStudyResult &res, double vdd)
{
    std::printf("\n%s at %.1f V (errors per die; '.' = functional, "
                "yield full=%s incl=%s)\n", res.spec.name.c_str(),
                vdd, pct(res.yield(vdd, false)).c_str(),
                pct(res.yield(vdd, true)).c_str());

    std::map<std::pair<int, int>, const DieResult *> grid;
    int min_c = 0, max_c = 0, min_r = 0, max_r = 0;
    for (const auto &die : res.dies) {
        grid[{die.site.row, die.site.col}] = &die;
        min_c = std::min(min_c, die.site.col);
        max_c = std::max(max_c, die.site.col);
        min_r = std::min(min_r, die.site.row);
        max_r = std::max(max_r, die.site.row);
    }
    for (int r = min_r; r <= max_r; ++r) {
        std::printf("  ");
        for (int c = min_c; c <= max_c; ++c) {
            auto it = grid.find({r, c});
            if (it == grid.end()) {
                std::printf("      ");
                continue;
            }
            const DieProbe &probe =
                vdd > 4.0 ? it->second->at45V : it->second->at3V;
            char mark =
                it->second->site.inInclusionZone ? ' ' : '*';
            if (probe.errors == 0)
                std::printf("    .%c", mark);
            else
                std::printf("%5lu%c",
                            static_cast<unsigned long>(
                                std::min<uint64_t>(probe.errors,
                                                   99999)),
                            mark);
        }
        std::printf("\n");
    }
    std::printf("  ('*' = edge-exclusion-zone die; counts above 99999 "
                "print as 99999)\n");
}

} // namespace

int
main()
{
    benchHeader("Figure 6", "Output errors on test vectors per die "
                "(gate-level fault simulation)");

    for (IsaKind isa : {IsaKind::FlexiCore4, IsaKind::FlexiCore8}) {
        WaferStudyConfig cfg;
        cfg.isa = isa;
        cfg.seed = 42;
        cfg.testCycles = 100000;
        cfg.gateLevelErrors = true;
        auto res = runWaferStudy(cfg);
        printMap(res, 3.0);
        printMap(res, 4.5);
    }

    std::printf("\nPaper reference: green (zero-error) dies dominate "
                "the inclusion zone at 4.5 V for\nFlexiCore4 (81%%); "
                "FlexiCore8 at 3 V is nearly all faulty (6%%).\n");
    return 0;
}
