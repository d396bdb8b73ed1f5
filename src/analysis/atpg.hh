/**
 * @file
 * SAT-guided ATPG triage of the wafer-test vector suite.
 *
 * bench_fault_coverage measures which cell-output stuck-at faults the
 * Section 4.1 directed+random vectors catch; this pass answers the
 * question that number alone can't: are the escapes *test holes* (a
 * better vector would catch them) or *redundant faults* (no input or
 * state assignment can ever expose them)?
 *
 * For every fault the simulation missed, checkNetlistEquivalence()
 * builds a miter between the golden netlist and the faulted clone,
 * copying only the fault's fan-out cone, and solves it once. An UNSAT
 * result is a proof of redundancy — the fault cannot change any
 * primary output or next-state bit in any cycle, so no test program
 * can see it and it should be excluded from the coverage
 * denominator. A SAT result is a generated test pattern: the exact
 * input/state assignment that distinguishes the dies, i.e. the ATPG
 * vector a smarter test program would apply.
 */

#ifndef FLEXI_ANALYSIS_ATPG_HH
#define FLEXI_ANALYSIS_ATPG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "assembler/program.hh"
#include "isa/isa.hh"
#include "netlist/netlist.hh"

namespace flexi
{

/** Verdict for one stuck-at fault the vector suite missed. */
struct AtpgFault
{
    StuckFault fault;
    std::string net;       ///< netName() of the faulted net
    std::string module;    ///< module of the driving cell
    /** SAT found a distinguishing pattern. */
    bool testable = false;
    /** Proven unobservable in any single cycle (UNSAT miter). */
    bool redundant = false;
    /** Rendered ATPG pattern for testable escapes. */
    std::string pattern;
};

/** Configuration of one ATPG run. */
struct AtpgConfig
{
    IsaKind isa = IsaKind::FlexiCore4;   ///< fabricated cores only
    /** Lockstep budget per fault simulation (instructions). */
    uint64_t simCycles = 1500;
    /**
     * Cap on faults examined, sampled evenly across the cell list
     * (0 = every cell-output stuck-at fault, both polarities).
     */
    size_t maxFaults = 0;
    unsigned threads = 0;
};

/** Aggregate ATPG report. */
struct AtpgReport
{
    size_t faults = 0;
    size_t simDetected = 0;
    size_t testable = 0;    ///< escapes with a generated ATPG vector
    size_t redundant = 0;   ///< escapes proven untestable
    uint64_t solves = 0;
    uint64_t conflicts = 0;
    /** Detail rows for every simulation escape. */
    std::vector<AtpgFault> escapes;

    /** Raw coverage: simDetected / faults. */
    double simCoverage() const;
    /** Coverage over testable faults: simDetected / (faults -
     *  redundant) — the honest figure of merit for the suite. */
    double testableCoverage() const;
};

/**
 * Run fault simulation of @p prog / @p inputs (typically the
 * makeTestProgram() vector suite) over the configured fault list,
 * one fault per LaneGroup lane, then SAT-triage every escape.
 */
AtpgReport runAtpg(const AtpgConfig &config, const Program &prog,
                   const std::vector<uint8_t> &inputs);

} // namespace flexi

#endif // FLEXI_ANALYSIS_ATPG_HH
