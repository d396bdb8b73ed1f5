/**
 * @file
 * Die-salvage binning on top of the Table 5 wafer study.
 *
 * The probe station's criterion is brutal: one output mismatch over
 * the whole vector suite and the die is scrap. But a die whose defect
 * is localized — a stuck bit in a data-memory word the application
 * never touches, a broken path only the test program sensitizes, a
 * timing margin that only occasionally glitches — can still earn its
 * keep running real kernels under the detect-and-recover runtime.
 *
 * The salvage pass re-examines every die that failed full probe: the
 * exact faulty netlist is rebuilt from the faults recorded in
 * DieResult, timing-marginal dies additionally get intermittent
 * glitch schedules scaled by their expected error rate, and every
 * kernel of the benchmark suite (the seven Table 6 kernels on
 * FlexiCore4, the four application programs on FlexiCore8) is run to
 * completion under the checked runtime — one runCheckedLanes() call
 * per kernel, one lane per failed die. A die completing at least
 * minKernels of them with correct outputs is binned *Salvaged*, and
 * its passedMask records exactly which application bins the part
 * still qualifies for — classic part binning, graded by capability.
 * The report's effective yield counts Functional + Salvaged dies and
 * by construction can only exceed the raw yield — which is reported
 * unchanged from the underlying study.
 */

#ifndef FLEXI_RESILIENCE_SALVAGE_HH
#define FLEXI_RESILIENCE_SALVAGE_HH

#include <cstdint>
#include <vector>

#include "resilience/checked_run.hh"
#include "yield/wafer_study.hh"

namespace flexi
{

/** Post-salvage bin of one die. */
enum class DieBin : uint8_t
{
    Functional,   ///< passed full probe
    Salvaged,     ///< failed probe; completes the suite under recovery
    Dead,         ///< failed probe and the recovery runtime gave up
};

const char *dieBinName(DieBin bin);

/** Salvage verdict for one die. */
struct DieSalvage
{
    size_t dieIndex = 0;
    DieBin bin = DieBin::Functional;
    unsigned kernelsPassed = 0;
    unsigned kernelsTotal = 0;
    /** Bit k set = suite kernel k completed with correct outputs —
     *  the application bin the salvaged part can be sold into. */
    uint32_t passedMask = 0;
    unsigned detections = 0;
    unsigned retries = 0;
    unsigned restarts = 0;
};

/** Configuration of a salvage study. */
struct SalvageConfig
{
    /** The underlying wafer study (fabricated cores only). */
    WaferStudyConfig study;
    /** Binning voltage (the paper's headline yields are at 4.5 V). */
    double vdd = 4.5;
    DetectorConfig detectors;
    RecoveryPolicy recovery;
    /** Units of work per kernel in the salvage qualification run. */
    size_t workUnits = 4;
    /**
     * Kernels a failed die must complete to be binned Salvaged. The
     * default of 1 is classic part binning — the die is sold into
     * whatever application bins it qualifies for (passedMask); raise
     * to the suite size to demand fully-general salvage.
     */
    unsigned minKernels = 1;
    uint64_t maxInstructions = 60000;
};

/** Result of a salvage study. All rates are at the binning voltage. */
struct SalvageReport
{
    WaferStudyResult study;
    /** Binning voltage the verdicts were produced at. */
    double vdd = 4.5;
    /** One verdict per die, aligned with study.dies. */
    std::vector<DieSalvage> dies;

    /** study.yield(vdd, inclusion_only) — untouched by salvage. */
    double rawYield(bool inclusion_only) const;
    /** (Functional + Salvaged) / dies; >= rawYield by construction. */
    double effectiveYield(bool inclusion_only) const;

    size_t binCount(DieBin bin, bool inclusion_only) const;
};

/**
 * Run the wafer study of @p config.study and re-bin every failed die
 * with the recovery runtime, on config.study.threads workers for
 * both passes (results are thread-count-invariant). Requires
 * gateLevelErrors (salvage needs the recorded fault lists).
 */
SalvageReport runSalvageStudy(const SalvageConfig &config);

} // namespace flexi

#endif // FLEXI_RESILIENCE_SALVAGE_HH
