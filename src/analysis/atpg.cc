#include "atpg.hh"

#include <algorithm>
#include <memory>

#include "analysis/equiv.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "netlist/flexicore_netlist.hh"
#include "netlist/lockstep.hh"

namespace flexi
{

namespace
{

std::unique_ptr<Netlist>
atpgGolden(IsaKind isa)
{
    switch (isa) {
      case IsaKind::FlexiCore4: return buildFlexiCore4Netlist();
      case IsaKind::FlexiCore8: return buildFlexiCore8Netlist();
      default:
        fatal("ATPG targets the fabricated cores, not %s",
              isaName(isa));
    }
}

} // namespace

double
AtpgReport::simCoverage() const
{
    return faults ? static_cast<double>(simDetected) / faults : 0.0;
}

double
AtpgReport::testableCoverage() const
{
    size_t denom = faults - redundant;
    return denom ? static_cast<double>(simDetected) / denom : 0.0;
}

AtpgReport
runAtpg(const AtpgConfig &config, const Program &prog,
        const std::vector<uint8_t> &inputs)
{
    std::unique_ptr<Netlist> golden = atpgGolden(config.isa);
    const std::vector<CellInst> &cells = golden->cells();

    // The fault universe: every cell output, stuck at 0 and at 1.
    // A cap samples evenly over the cell list so every module stays
    // represented (strided, deterministic — no RNG involved).
    size_t universe = cells.size() * 2;
    size_t count = config.maxFaults && config.maxFaults < universe
                       ? config.maxFaults : universe;
    std::vector<AtpgFault> verdicts(count);
    for (size_t i = 0; i < count; ++i) {
        size_t idx = i * universe / count;
        const CellInst &cell = cells[idx / 2];
        AtpgFault &v = verdicts[i];
        v.fault = StuckFault{cell.output, (idx & 1) != 0};
        v.net = golden->netName(cell.output);
        v.module = cell.module;
    }

    // Fault simulation, one stuck-at per lane. Group membership is a
    // pure function of fault index, so the thread count cannot
    // change a verdict; each lane's clean/dirty outcome equals a
    // scalar runLockstep of the same faulted die.
    const size_t lanes = LaneGroup::kMaxLanes;
    std::vector<uint8_t> detected(count, 0);
    parallelFor((count + lanes - 1) / lanes, config.threads,
                [&](size_t g) {
        size_t begin = g * lanes;
        unsigned n = static_cast<unsigned>(
            std::min<size_t>(lanes, count - begin));
        LaneGroup group(*golden, n);
        for (unsigned l = 0; l < n; ++l)
            group.injectFault(l, verdicts[begin + l].fault);
        LockstepGroupResult res = runLockstepGroup(
            group, *golden, config.isa, prog, inputs,
            config.simCycles, /*early_exit=*/true);
        for (unsigned l = 0; l < n; ++l)
            detected[begin + l] = !res.laneClean(l);
    });

    std::vector<size_t> escapes;
    for (size_t i = 0; i < count; ++i)
        if (!detected[i])
            escapes.push_back(i);

    // Simulation escapes: ask the SAT miter whether *any* input and
    // state assignment distinguishes the faulty die.
    std::vector<uint64_t> solves(escapes.size(), 0),
        conflicts(escapes.size(), 0);
    parallelFor(escapes.size(), config.threads, [&](size_t e) {
        AtpgFault &v = verdicts[escapes[e]];
        std::unique_ptr<Netlist> faulty = golden->clone();
        faulty->injectFault(v.fault);
        EquivResult eq = checkNetlistEquivalence(*golden, *faulty);
        solves[e] = eq.solves;
        conflicts[e] = eq.conflicts;
        if (eq.proven) {
            v.redundant = true;
        } else if (eq.hasCex) {
            v.testable = true;
            v.pattern = eq.cex.text();
        }
        // (Neither: encoder limitation — counted as neither testable
        // nor redundant, keeping the coverage claims conservative.)
    });

    AtpgReport report;
    report.faults = count;
    report.simDetected = count - escapes.size();
    for (size_t e = 0; e < escapes.size(); ++e) {
        AtpgFault &v = verdicts[escapes[e]];
        report.solves += solves[e];
        report.conflicts += conflicts[e];
        report.testable += v.testable;
        report.redundant += v.redundant;
        report.escapes.push_back(std::move(v));
    }
    return report;
}

} // namespace flexi
