/**
 * @file
 * Field-fleet lifecycle engine: population-scale fault/recovery
 * campaigns over the wafer model's binned parts.
 *
 * The paper's repair story (Section 5) — detect a misbehaving part,
 * roll it back, re-page its firmware through the off-chip MMU, and
 * only then scrap it — is an economics argument about a *population*:
 * salvage binning only pays off if the recovered parts hold up in the
 * field. This engine closes the loop. It draws a deployed fleet from
 * the wafer study's per-die variation records (Functional parts plus
 * Salvaged parts qualified for the deployed kernel via passedMask),
 * then runs every die through a sequence of *epochs* — full missions
 * of the deployed kernel — under a per-die in-field fault arrival
 * process: environmental transient upsets and DFF flips arrive as
 * Poisson-distributed events on the mission's cycle clock, and
 * timing-marginal salvaged parts additionally glitch at the die
 * model's supply-dependent rate. Each mission runs under the checked
 * runtime (detectors + bounded checkpoint-rollback recovery); the
 * engine layers the fleet-level escalation ladder on top:
 *
 *   recover (rollback/restart inside the mission)
 *     → firmware re-page (a Degraded mission burns one of the die's
 *       maxRepages MMU re-page budget; the part retries next epoch)
 *       → fail-stop (budget exhausted: the die is pulled from the
 *         fleet and every later epoch counts it unavailable).
 *
 * Every epoch runs the live dies through runCheckedLanes(), each
 * lane carrying its part's manufacturing defects and in-field
 * schedule: the word-parallel prescreen proves most missions
 * fault-free and only dirty lanes re-run through the authoritative
 * scalar runChecked(). Results are bit-identical for any thread
 * count, and the whole campaign checkpoints to a versioned,
 * checksummed file after every epoch, so a killed run resumed from
 * its checkpoint is bit-identical to an uninterrupted one (see
 * checkpoint.hh).
 */

#ifndef FLEXI_FLEET_FLEET_HH
#define FLEXI_FLEET_FLEET_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kernels/kernels.hh"
#include "resilience/fault_campaign.hh"
#include "resilience/salvage.hh"

namespace flexi
{

/**
 * Largest mean transient or flip count per mission the fleet accepts
 * (FleetConfig::transientsPerEpoch / flipsPerEpoch, from the command
 * line or a checkpoint): Rng::poisson's cost grows with the mean.
 */
constexpr double kMaxFaultsPerEpoch = 64;

/** Configuration of one fleet lifecycle campaign. */
struct FleetConfig
{
    IsaKind isa = IsaKind::FlexiCore4;
    /** Base seed: wafer study, population draw and every per-die
     *  per-epoch fault stream derive from it. */
    uint64_t seed = 1;
    /** Deployed population size (dies drawn with replacement from
     *  the binned supply). */
    uint32_t numDies = 512;
    /** Missions (full kernel runs) per die over the campaign. */
    uint32_t epochs = 4;
    /** Deployed kernel (FlexiCore4-family ISAs). */
    KernelId kernel = KernelId::Thresholding;
    /** Deployed program index when isa == FlexiCore8. */
    unsigned fc8Program = 0;
    /** Units of work per mission. */
    size_t workUnits = 2;
    /** Mean environmental transient upsets per mission per die. */
    double transientsPerEpoch = 0.25;
    /** Mean one-shot DFF flips per mission per die. */
    double flipsPerEpoch = 0.05;
    /** Detector choice for the checked runtime (CRC / watchdog /
     *  lockstep), shared by salvage qualification and the field. */
    DetectorConfig detectors;
    /** In-mission recovery: bounded checkpoint-rollback retries and
     *  the in-mission restart escalation. */
    RecoveryPolicy recovery;
    /** Fleet-level escalation: firmware re-pages (MMU re-page of the
     *  program image) a die may burn on Degraded missions before it
     *  is pulled from the fleet. */
    unsigned maxRepages = 1;
    uint64_t maxInstructions = 60000;
    /** 0 = auto; results are bit-identical for any value. */
    unsigned threads = 0;
    /** Salvage deployment: binning voltage and qualification bar. */
    double vdd = 4.5;
    unsigned minKernels = 1;
};

/** Lifecycle record of one deployed die. */
struct FleetDie
{
    /** Index into the salvage report's die table (the part's wafer
     *  identity: defect list, glitch rate, bin). */
    uint32_t poolIndex = 0;
    /** Functional or Salvaged (Dead parts are never deployed). */
    DieBin bin = DieBin::Functional;
    /** Still in the fleet (false = fail-stopped, pulled). */
    bool alive = true;
    /** Firmware re-pages burned on Degraded missions. */
    uint32_t repages = 0;
    /** Missions actually run (stops growing once pulled). */
    uint32_t epochsRun = 0;
    /** Per-outcome mission counts for this die. */
    std::array<uint32_t, kNumFaultOutcomes> outcomes{};
    /** Total die cycles across all missions (incl. replays). */
    uint64_t lifeCycles = 0;
    /** Rolling FNV-1a digest of (epoch, outcome, cycles, end-of-
     *  mission DFF state) — the determinism witness the kill/resume
     *  tests compare. */
    uint64_t digest = 0;
    /** End-of-mission DFF state, bit-packed (bit i = DFF i of
     *  saveDffState() order); the state the part powered down with. */
    std::vector<uint8_t> dffBits;
    /** Unpacked DFF count behind dffBits (0 until the first run). */
    uint32_t dffCount = 0;
};

/** Full campaign state — everything the checkpoint file persists. */
struct FleetState
{
    FleetConfig config;
    /** Epochs fully merged into the records below. */
    uint32_t epochsDone = 0;
    std::vector<FleetDie> dies;
    /** Outcome histogram per epoch (row e sums to the dies alive at
     *  epoch e: dead dies stop contributing — that is the
     *  availability loss). */
    std::vector<std::array<uint64_t, kNumFaultOutcomes>> epochOutcomes;
    /** Outcome histogram per deployment bin (Functional, Salvaged). */
    std::array<std::array<uint64_t, kNumFaultOutcomes>, 2> binOutcomes{};
    /** Dies pulled from the fleet so far. */
    uint64_t deaths = 0;

    /** Dies alive right now. */
    uint64_t aliveDies() const;
    /** Missions at epoch @p e that delivered correct output
     *  (Masked + Recovered) as a fraction of the whole fleet —
     *  dead and hung dies drag it down. */
    double availability(uint32_t e) const;
    /** Silent-data-corruption missions at epoch @p e / fleet size. */
    double sdcRate(uint32_t e) const;
};

/**
 * Order-independent digest of the whole campaign: per-die digests,
 * liveness and re-page counts folded in die order. Two runs of the
 * same config agree on this iff they agree on every die's full
 * lifecycle, end-of-mission DFF state included.
 */
uint64_t fleetDigest(const FleetState &state);

/**
 * The fleet lifecycle engine. Construction is the expensive part —
 * it runs the wafer + salvage studies that define the binned supply
 * and assembles the deployed workload; init() and run() share it.
 */
class FleetEngine
{
  public:
    explicit FleetEngine(const FleetConfig &config);
    ~FleetEngine();

    /** The salvage study backing the population draw. */
    const SalvageReport &salvage() const;

    /** Draw a fresh (epoch-0) deployed population. */
    FleetState init() const;

    /**
     * Advance @p state to epoch min(config.epochs, stopAfter) (0 =
     * run to the end), checkpointing to @p checkpointPath after
     * every epoch when non-empty (atomic tmp+rename writes). The
     * state must come from init() or a checkpoint of the same
     * config. Killing the process between epochs and resuming from
     * the checkpoint is bit-identical to never stopping.
     */
    void run(FleetState &state, uint32_t stopAfter = 0,
             const std::string &checkpointPath = {}) const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace flexi

#endif // FLEXI_FLEET_FLEET_HH
