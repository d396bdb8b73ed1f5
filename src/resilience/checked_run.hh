/**
 * @file
 * Detect-and-recover checked execution harness.
 *
 * The paper motivates field reprogrammability as the repair story for
 * flexible parts (Section 5) but never simulates the repair loop.
 * This harness closes that gap: it runs a (possibly faulty) gate-level
 * die in lockstep fashion against the architectural golden model —
 * the same die-drives-its-own-PC methodology as runLockstep() — while
 * layering on
 *
 *  - pluggable *detectors*: an output-signature CRC compared at every
 *    checkpoint, a PC-progress watchdog with a cycle-budget timeout,
 *    and (the expensive option) full per-instruction lockstep compare
 *    of the PC and OPORT pads; and
 *  - a *recovery policy*: periodic checkpoints of the die's DFF state
 *    plus the architectural model, rollback on detection with bounded
 *    retries, escalation to one full restart (modeling a re-page of
 *    the program through the off-chip MMU), and finally declaring the
 *    die degraded.
 *
 * Transient upsets injected via Netlist::injectTransient() live on
 * the die's monotonic cycle clock, so a rolled-back replay naturally
 * runs *after* the upset window — retry genuinely repairs transient
 * faults, while stuck-at defects survive rollback and restart and
 * escalate to Degraded, exactly the triage the salvage binning needs.
 */

#ifndef FLEXI_RESILIENCE_CHECKED_RUN_HH
#define FLEXI_RESILIENCE_CHECKED_RUN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "assembler/program.hh"
#include "netlist/netlist.hh"

namespace flexi
{

/** Which detectors the checked runtime arms. */
struct DetectorConfig
{
    /** Per-instruction PC/OPORT pad compare against golden. */
    bool lockstep = false;
    /** Output-stream CRC compared at each checkpoint and at the end. */
    bool outputCrc = true;
    /** Die-PC progress watchdog. */
    bool watchdog = true;
    /** Watchdog trip point: die PC unchanged for this many cycles. */
    uint64_t watchdogCycles = 192;
};

/** Checkpoint/rollback recovery policy. */
struct RecoveryPolicy
{
    /** Act on detections (off = detect-only, fail-stop reporting). */
    bool enabled = true;
    /** Instructions between checkpoints. */
    unsigned checkpointInstructions = 32;
    /** Rollback attempts per checkpoint before escalating. */
    unsigned maxRetries = 2;
    /** Escalate to one full restart (MMU re-page) before giving up. */
    bool allowRestart = true;
};

/** How a checked run ended. */
enum class CheckedOutcome : uint8_t
{
    Completed,         ///< produced the requested outputs (or halted)
    Degraded,          ///< recovery exhausted; die declared degraded
    BudgetExhausted,   ///< instruction/cycle budget ran out
};

const char *checkedOutcomeName(CheckedOutcome outcome);

/** Full result of one checked run. */
struct CheckedRunResult
{
    CheckedOutcome outcome = CheckedOutcome::Completed;
    /** Die output stream identical to the golden model's? */
    bool outputsCorrect = false;

    uint64_t cycles = 0;         ///< die cycles driven (incl. replays)
    uint64_t instructions = 0;   ///< golden instructions executed

    /** Ground truth kept even when the detectors are disarmed. */
    uint64_t padMismatches = 0;
    uint64_t maxPcFrozenCycles = 0;

    unsigned detections = 0;
    unsigned retries = 0;
    unsigned restarts = 0;
    /** Detector that fired first ("crc" / "watchdog" / "lockstep"). */
    std::string firstDetector;

    std::vector<uint8_t> dieOutputs;
    std::vector<uint8_t> goldenOutputs;

    /**
     * The die's architectural DFF state when the run ended (the
     * state the part powers down with), in saveDffState() layout.
     * The fleet lifecycle engine snapshots it into its per-die
     * records and checkpoint files.
     */
    std::vector<uint8_t> endDff;
};

/** A schedule of in-field fault events to apply while running. */
struct FaultSchedule
{
    /** Time-windowed net upsets (absolute die cycles). */
    std::vector<TransientFault> transients;

    /** One-shot DFF state flips, applied when the die clock reaches
     *  the given cycle (never re-applied on rollback — a flip is a
     *  real-time event, not part of the program). */
    struct DffFlip
    {
        uint64_t cycle = 0;
        size_t dff = 0;
    };
    std::vector<DffFlip> flips;
};

/** Configuration of one checked run. */
struct CheckedRunConfig
{
    IsaKind isa = IsaKind::FlexiCore4;
    DetectorConfig detectors;
    RecoveryPolicy recovery;
    /** Outputs to produce; 0 = run until the golden model halts. */
    size_t targetOutputs = 0;
    uint64_t maxInstructions = 100000;
    /** Die cycle budget; 0 = derived from maxInstructions. */
    uint64_t maxCycles = 0;
};

/**
 * Run @p prog on the gate-level die @p die under the checked runtime.
 *
 * @param die an elaborated netlist for cfg.isa (cloned dies with
 *        stuck-at faults welcome); reset() is called on entry, the
 *        schedule's transients are injected on top of whatever
 *        faults the caller installed
 * @param prog the assembled program (multi-page programs page through
 *        an off-chip MMU on both the golden and the die side)
 * @param inputs input-bus values, consumed per architectural read
 * @param cfg detectors, recovery policy and budgets
 * @param schedule in-field fault events (empty = fault-free run)
 */
CheckedRunResult runChecked(Netlist &die, const Program &prog,
                            const std::vector<uint8_t> &inputs,
                            const CheckedRunConfig &cfg,
                            const FaultSchedule &schedule = {});

/**
 * Run one checked mission per lane: lane L runs @p prog on a clone of
 * @p golden carrying the stuck-at faults @p laneFaults[L] (null
 * entries, or an empty @p laneFaults, mean a pristine die) under
 * @p schedules[L], and the result is what runChecked() returns for
 * that die.
 *
 * Lanes are packed in index order into LaneGroups of
 * LaneGroup::kMaxLanes (the wide-lane compiled backend) and driven
 * through one shared unprotected lockstep pass per group against one
 * golden trajectory. A lane whose PC/OPORT pads matched golden at
 * every instruction boundary, whose PC never froze past an armed
 * watchdog, and whose group completed within budget is *clean*; every
 * other lane re-runs through the scalar runChecked(), whose result is
 * authoritative. Group membership depends only on the lane index, so
 * @p threads cannot change any result.
 *
 * The prescreen is sound for any DetectorConfig/RecoveryPolicy in
 * @p cfg because detectors and recovery only alter a run's trajectory
 * after a detection, and a clean lane can never trigger one: the
 * lockstep and final output compares see no mismatch, the output CRC
 * streams are identical at every checkpoint, and lanes whose PC
 * freezes past an armed watchdog are retired to the scalar path.
 * Stuck-at defects ride in the same word: a lane is clean only if its
 * pads tracked golden at every boundary, defects and all.
 *
 * A clean lane's result is exact in outcome (Completed),
 * outputsCorrect (true), cycles, instructions, padMismatches (0),
 * detections/retries/restarts (0), firstDetector (empty) and endDff.
 * It leaves maxPcFrozenCycles at 0 and dieOutputs/goldenOutputs
 * empty; callers that need those must run the scalar runChecked().
 */
std::vector<CheckedRunResult>
runCheckedLanes(const Netlist &golden, const Program &prog,
                const std::vector<uint8_t> &inputs,
                const CheckedRunConfig &cfg,
                const std::vector<FaultSchedule> &schedules,
                const std::vector<const std::vector<StuckFault> *>
                    &laneFaults,
                unsigned threads);

/** Incremental CRC-8 (poly 0x07) used by the output detector. */
uint8_t crc8(uint8_t crc, uint8_t byte);

} // namespace flexi

#endif // FLEXI_RESILIENCE_CHECKED_RUN_HH
