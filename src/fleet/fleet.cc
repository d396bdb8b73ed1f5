#include "fleet.hh"

#include "assembler/assembler.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "fleet/checkpoint.hh"
#include "kernels/fc8_programs.hh"
#include "kernels/inputs.hh"
#include "netlist/flexicore_netlist.hh"
#include "yield/die_model.hh"

namespace flexi
{

namespace
{

constexpr uint64_t kPopSalt = 0xF1EE7010ull;
constexpr uint64_t kFaultSalt = 0xF1EE7F17ull;
constexpr uint64_t kInputSalt = 0xF1EE71B0ull;
/** Per-epoch sub-stream stride within one die's fault stream. */
constexpr uint64_t kEpochStride = 1ull << 20;

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t
fnv1a(uint64_t h, const uint8_t *bytes, size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        h ^= bytes[i];
        h *= kFnvPrime;
    }
    return h;
}

uint64_t
fnvU64(uint64_t h, uint64_t v)
{
    uint8_t b[8];
    for (int i = 0; i < 8; ++i)
        b[i] = static_cast<uint8_t>(v >> (8 * i));
    return fnv1a(h, b, 8);
}

std::vector<uint8_t>
packBits(const std::vector<uint8_t> &bits)
{
    std::vector<uint8_t> packed((bits.size() + 7) / 8, 0);
    for (size_t i = 0; i < bits.size(); ++i)
        if (bits[i])
            packed[i / 8] |= static_cast<uint8_t>(1u << (i % 8));
    return packed;
}

std::unique_ptr<Netlist>
fleetGolden(IsaKind isa)
{
    switch (isa) {
      case IsaKind::FlexiCore4: return buildFlexiCore4Netlist();
      case IsaKind::FlexiCore8: return buildFlexiCore8Netlist();
      default:
        fatal("the fleet engine deploys the fabricated cores, not %s",
              isaName(isa));
    }
}

bool
configsMatch(const FleetConfig &a, const FleetConfig &b)
{
    // threads is an execution knob, not semantics — the determinism
    // contract makes results identical across it, so a resumed
    // campaign may change it.
    return a.isa == b.isa && a.seed == b.seed &&
           a.numDies == b.numDies && a.epochs == b.epochs &&
           a.kernel == b.kernel && a.fc8Program == b.fc8Program &&
           a.workUnits == b.workUnits &&
           a.transientsPerEpoch == b.transientsPerEpoch &&
           a.flipsPerEpoch == b.flipsPerEpoch &&
           a.detectors.lockstep == b.detectors.lockstep &&
           a.detectors.outputCrc == b.detectors.outputCrc &&
           a.detectors.watchdog == b.detectors.watchdog &&
           a.detectors.watchdogCycles == b.detectors.watchdogCycles &&
           a.recovery.enabled == b.recovery.enabled &&
           a.recovery.checkpointInstructions ==
               b.recovery.checkpointInstructions &&
           a.recovery.maxRetries == b.recovery.maxRetries &&
           a.recovery.allowRestart == b.recovery.allowRestart &&
           a.maxRepages == b.maxRepages &&
           a.maxInstructions == b.maxInstructions &&
           a.vdd == b.vdd && a.minKernels == b.minKernels;
}

} // namespace

uint64_t
FleetState::aliveDies() const
{
    uint64_t n = 0;
    for (const FleetDie &d : dies)
        n += d.alive;
    return n;
}

double
FleetState::availability(uint32_t e) const
{
    if (e >= epochOutcomes.size() || dies.empty())
        return 0.0;
    const auto &row = epochOutcomes[e];
    uint64_t good = row[static_cast<size_t>(FaultOutcome::Masked)] +
                    row[static_cast<size_t>(FaultOutcome::Recovered)];
    return static_cast<double>(good) / dies.size();
}

double
FleetState::sdcRate(uint32_t e) const
{
    if (e >= epochOutcomes.size() || dies.empty())
        return 0.0;
    uint64_t sdc =
        epochOutcomes[e][static_cast<size_t>(FaultOutcome::Sdc)];
    return static_cast<double>(sdc) / dies.size();
}

uint64_t
fleetDigest(const FleetState &state)
{
    uint64_t h = kFnvOffset;
    h = fnvU64(h, state.epochsDone);
    for (const FleetDie &d : state.dies) {
        h = fnvU64(h, d.digest);
        h = fnvU64(h, (static_cast<uint64_t>(d.alive) << 32) |
                          d.repages);
        h = fnvU64(h, d.epochsRun);
    }
    return h;
}

struct FleetEngine::Impl
{
    FleetConfig cfg;
    std::unique_ptr<Netlist> golden;
    std::unique_ptr<Program> prog;
    SalvageReport report;
    /** Study-die indices deployable for the configured kernel. */
    std::vector<uint32_t> pool;
    /** Per-study-die field glitch rate at the deployment supply. */
    std::vector<double> glitchRates;
    size_t targetOutputs = 0;

    std::vector<uint8_t> epochInputs(uint32_t epoch) const;
    FaultSchedule makeSchedule(uint32_t die, uint32_t epoch,
                               uint64_t horizon,
                               double glitchRate) const;
    /** Run one mission of every live die and merge the results. */
    void runEpoch(FleetState &state, uint32_t epoch) const;
};

std::vector<uint8_t>
FleetEngine::Impl::epochInputs(uint32_t epoch) const
{
    uint64_t s = deriveSeed(cfg.seed ^ kInputSalt, epoch);
    if (cfg.isa == IsaKind::FlexiCore8) {
        auto id = static_cast<Fc8Program>(cfg.fc8Program %
                                          kNumFc8Programs);
        return fc8ProgramInputs(id, cfg.workUnits, s);
    }
    return kernelInputs(cfg.kernel, cfg.workUnits, s);
}

FaultSchedule
FleetEngine::Impl::makeSchedule(uint32_t die, uint32_t epoch,
                                uint64_t horizon,
                                double glitchRate) const
{
    Rng rng(deriveSeed(cfg.seed ^ kFaultSalt,
                       die * kEpochStride + epoch));
    size_t nets = golden->numNets();
    size_t dffs = golden->numDffs() ? golden->numDffs() : 1;

    FaultSchedule sched;
    // Environmental upsets: Poisson arrivals on the mission clock.
    uint64_t nT = rng.poisson(cfg.transientsPerEpoch);
    for (uint64_t i = 0; i < nT; ++i) {
        NetId net = static_cast<NetId>(rng.below(nets));
        bool value = rng.chance(0.5);
        uint64_t at = rng.below(horizon);
        sched.transients.push_back({net, value, at, at + 1});
    }
    // Timing marginality of the part itself (salvaged-die physics).
    if (glitchRate > 0) {
        uint64_t nG = rng.poisson(glitchRate *
                                  static_cast<double>(horizon));
        for (uint64_t i = 0; i < nG; ++i) {
            NetId net = static_cast<NetId>(rng.below(nets));
            bool value = rng.chance(0.5);
            uint64_t at = rng.below(horizon);
            sched.transients.push_back({net, value, at, at + 1});
        }
    }
    uint64_t nF = rng.poisson(cfg.flipsPerEpoch);
    for (uint64_t i = 0; i < nF; ++i) {
        uint64_t at = rng.below(horizon);
        sched.flips.push_back({at, rng.below(dffs)});
    }
    return sched;
}

FleetEngine::FleetEngine(const FleetConfig &config)
    : impl_(new Impl)
{
    Impl &im = *impl_;
    im.cfg = config;
    if (!config.numDies)
        fatal("fleet: numDies must be > 0");
    if (!config.epochs || config.epochs >= kEpochStride)
        fatal("fleet: epochs must be in [1, %llu)",
              static_cast<unsigned long long>(kEpochStride));
    im.golden = fleetGolden(config.isa);

    size_t kernelIdx;
    if (config.isa == IsaKind::FlexiCore8) {
        auto id = static_cast<Fc8Program>(config.fc8Program %
                                          kNumFc8Programs);
        im.prog.reset(new Program(
            assemble(config.isa, fc8ProgramSource(id))));
        im.targetOutputs = config.workUnits;
        kernelIdx = static_cast<size_t>(id);
    } else {
        im.prog.reset(new Program(assemble(
            config.isa, kernelSource(config.kernel, config.isa))));
        im.targetOutputs =
            config.workUnits * kernelOutputsPerWork(config.kernel);
        kernelIdx = static_cast<size_t>(config.kernel);
    }

    // The binned supply the deployment draws from.
    SalvageConfig sc;
    sc.study.isa = config.isa;
    sc.study.seed = config.seed;
    sc.study.threads = config.threads;
    sc.vdd = config.vdd;
    sc.detectors = config.detectors;
    sc.recovery = config.recovery;
    sc.minKernels = config.minKernels;
    im.report = runSalvageStudy(sc);

    DieModel model(im.report.study.spec, sc.study.params);
    im.glitchRates.resize(im.report.study.dies.size(), 0.0);
    for (size_t i = 0; i < im.report.study.dies.size(); ++i) {
        const DieResult &die = im.report.study.dies[i];
        const DieSalvage &verdict = im.report.dies[i];
        im.glitchRates[i] =
            model.glitchRate(die.sample, config.vdd);
        if (!die.site.inInclusionZone)
            continue;
        // Functional parts ship into any bin; salvaged parts only
        // into application bins they qualified for.
        bool deployable =
            verdict.bin == DieBin::Functional ||
            (verdict.bin == DieBin::Salvaged &&
             (verdict.passedMask >> kernelIdx) & 1u);
        if (deployable)
            im.pool.push_back(static_cast<uint32_t>(i));
    }
    if (im.pool.empty())
        fatal("fleet: no deployable dies for %s (wafer seed %llu)",
              config.isa == IsaKind::FlexiCore8
                  ? fc8ProgramName(static_cast<Fc8Program>(
                        config.fc8Program % kNumFc8Programs))
                  : kernelName(config.kernel),
              static_cast<unsigned long long>(config.seed));
}

FleetEngine::~FleetEngine() = default;

const SalvageReport &
FleetEngine::salvage() const
{
    return impl_->report;
}

FleetState
FleetEngine::init() const
{
    const Impl &im = *impl_;
    FleetState state;
    state.config = im.cfg;
    state.dies.resize(im.cfg.numDies);
    state.epochOutcomes.assign(im.cfg.epochs, {});
    for (uint32_t d = 0; d < im.cfg.numDies; ++d) {
        Rng rng(deriveSeed(im.cfg.seed ^ kPopSalt, d));
        uint32_t poolIndex = im.pool[rng.below(im.pool.size())];
        state.dies[d].poolIndex = poolIndex;
        state.dies[d].bin = im.report.dies[poolIndex].bin;
    }
    return state;
}

void
FleetEngine::Impl::runEpoch(FleetState &state, uint32_t epoch) const
{
    CheckedRunConfig runCfg;
    runCfg.isa = cfg.isa;
    runCfg.detectors = cfg.detectors;
    runCfg.recovery = cfg.recovery;
    runCfg.targetOutputs = targetOutputs;
    runCfg.maxInstructions = cfg.maxInstructions;

    std::vector<uint8_t> inputs = epochInputs(epoch);

    // Fault-free golden mission: the horizon the per-die fault
    // arrivals are drawn over.
    std::unique_ptr<Netlist> ref = golden->clone();
    CheckedRunConfig baseCfg = runCfg;
    baseCfg.detectors = DetectorConfig{false, false, false, 192};
    baseCfg.recovery.enabled = false;
    CheckedRunResult base = runChecked(*ref, *prog, inputs, baseCfg);
    if (base.outcome != CheckedOutcome::Completed || !base.outputsCorrect)
        panic("fleet: golden mission failed at epoch %u", epoch);
    uint64_t horizon = 2 * base.cycles + 64;

    std::vector<uint32_t> live;
    live.reserve(state.dies.size());
    for (uint32_t d = 0; d < state.dies.size(); ++d)
        if (state.dies[d].alive)
            live.push_back(d);

    // One lane per live die: its part's manufacturing defects plus
    // this epoch's in-field schedule.
    std::vector<FaultSchedule> scheds(live.size());
    std::vector<const std::vector<StuckFault> *> faults(live.size());
    parallelFor(live.size(), cfg.threads, [&](size_t l) {
        uint32_t pi = state.dies[live[l]].poolIndex;
        scheds[l] = makeSchedule(live[l], epoch, horizon, glitchRates[pi]);
        faults[l] = &report.study.dies[pi].faults;
    });
    std::vector<CheckedRunResult> runs = runCheckedLanes(
        *golden, *prog, inputs, runCfg, scheds, faults, cfg.threads);

    // Merge in die order — single-threaded, so histograms, digests
    // and the escalation ladder are thread-invariant.
    for (size_t l = 0; l < live.size(); ++l) {
        const CheckedRunResult &run = runs[l];
        auto outcome =
            static_cast<size_t>(classifyCheckedRun(run, cfg.detectors));
        FleetDie &die = state.dies[live[l]];
        ++die.epochsRun;
        ++die.outcomes[outcome];
        die.lifeCycles += run.cycles;
        ++state.epochOutcomes[epoch][outcome];
        size_t binIdx = die.bin == DieBin::Functional ? 0 : 1;
        ++state.binOutcomes[binIdx][outcome];

        uint64_t h = die.epochsRun == 1 ? kFnvOffset : die.digest;
        h = fnvU64(h, epoch);
        h = fnvU64(h, outcome);
        h = fnvU64(h, run.cycles);
        h = fnv1a(h, run.endDff.data(), run.endDff.size());
        die.digest = h;
        die.dffCount = static_cast<uint32_t>(run.endDff.size());
        die.dffBits = packBits(run.endDff);

        // Fleet-level escalation: a Degraded mission burns one
        // firmware re-page; past the budget the die fail-stops.
        if (run.outcome == CheckedOutcome::Degraded &&
            ++die.repages > cfg.maxRepages) {
            die.alive = false;
            ++state.deaths;
        }
    }
}

void
FleetEngine::run(FleetState &state, uint32_t stopAfter,
                 const std::string &checkpointPath) const
{
    const Impl &im = *impl_;
    if (!configsMatch(state.config, im.cfg))
        fatal("fleet: state was produced by a different campaign "
              "configuration");
    if (state.dies.size() != im.cfg.numDies ||
        state.epochOutcomes.size() != im.cfg.epochs)
        fatal("fleet: state shape does not match its configuration");

    uint32_t last = im.cfg.epochs;
    if (stopAfter && stopAfter < last)
        last = stopAfter;

    for (uint32_t epoch = state.epochsDone; epoch < last; ++epoch) {
        // runEpoch's per-lane results are freed before the checkpoint
        // is encoded, so the two never peak together.
        im.runEpoch(state, epoch);
        state.epochsDone = epoch + 1;
        if (!checkpointPath.empty())
            saveFleetCheckpoint(state, checkpointPath);
    }
}

} // namespace flexi
