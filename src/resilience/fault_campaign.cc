#include "fault_campaign.hh"

#include <memory>
#include <tuple>

#include "assembler/assembler.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "kernels/fc8_programs.hh"
#include "kernels/inputs.hh"
#include "netlist/flexicore_netlist.hh"

namespace flexi
{

namespace
{

/** Stream-id salt for injection schedules (see deriveSeed()). */
constexpr uint64_t kCampaignSalt = 0xF0157A11C0DEull;

std::unique_ptr<Netlist>
buildCore(IsaKind isa)
{
    switch (isa) {
      case IsaKind::FlexiCore4: return buildFlexiCore4Netlist();
      case IsaKind::FlexiCore8: return buildFlexiCore8Netlist();
      case IsaKind::ExtAcc4: return buildExtAcc4Netlist();
      case IsaKind::LoadStore4: return buildLoadStore4Netlist();
    }
    fatal("bad ISA");
}

/** The program, input stream and output target a campaign runs. */
struct Workload
{
    Program prog;
    std::vector<uint8_t> inputs;
    size_t targetOutputs = 0;
};

Workload
makeWorkload(const CampaignConfig &cfg)
{
    if (cfg.isa == IsaKind::FlexiCore8) {
        // The 8-bit core has its own program suite (one output per
        // input octet on every program).
        auto id = static_cast<Fc8Program>(cfg.fc8Program %
                                          kNumFc8Programs);
        return {assemble(cfg.isa, fc8ProgramSource(id)),
                fc8ProgramInputs(id, cfg.workUnits, cfg.seed),
                cfg.workUnits};
    }
    return {assemble(cfg.isa, kernelSource(cfg.kernel, cfg.isa)),
            kernelInputs(cfg.kernel, cfg.workUnits, cfg.seed),
            cfg.workUnits * kernelOutputsPerWork(cfg.kernel)};
}

/**
 * Generate injection @p index's fault schedule. Depends only on the
 * seed, the index, the netlist shape and the fault-free baseline —
 * deliberately NOT on the detector/recovery settings, so campaigns
 * differing only in protection inject identical faults.
 */
std::pair<FaultKind, FaultSchedule>
makeSchedule(const CampaignConfig &cfg, const Netlist &golden,
             uint64_t baseline_cycles, unsigned index)
{
    Rng rng(deriveSeed(cfg.seed ^ kCampaignSalt, index));
    uint64_t horizon = baseline_cycles ? baseline_cycles : 1;
    size_t nets = golden.numNets();
    size_t dffs = golden.numDffs() ? golden.numDffs() : 1;

    FaultSchedule sched;
    double u = rng.uniform();
    if (u < cfg.pTransient) {
        NetId net = static_cast<NetId>(rng.below(nets));
        bool value = rng.chance(0.5);
        uint64_t at = rng.below(horizon);
        sched.transients.push_back({net, value, at, at + 1});
        return {FaultKind::TransientNet, sched};
    }
    if (u < cfg.pTransient + cfg.pFlip) {
        sched.flips.push_back({rng.below(horizon), rng.below(dffs)});
        return {FaultKind::DffFlip, sched};
    }
    // Timing-marginal die: every cycle has a small chance of a
    // single-cycle upset somewhere; guarantee at least one event.
    for (uint64_t c = 0; c < horizon; ++c) {
        if (!rng.chance(cfg.glitchRate))
            continue;
        NetId net = static_cast<NetId>(rng.below(nets));
        sched.transients.push_back({net, rng.chance(0.5), c, c + 1});
    }
    if (sched.transients.empty()) {
        NetId net = static_cast<NetId>(rng.below(nets));
        uint64_t at = rng.below(horizon);
        sched.transients.push_back({net, rng.chance(0.5), at, at + 1});
    }
    return {FaultKind::TimingGlitch, sched};
}

} // namespace

FaultOutcome
classifyCheckedRun(const CheckedRunResult &run,
                   const DetectorConfig &detectors)
{
    bool detected = run.detections > 0;
    bool acted = run.retries > 0 || run.restarts > 0;
    switch (run.outcome) {
      case CheckedOutcome::Degraded:
        // Fail-stop: the runtime gave up loudly, not silently.
        return FaultOutcome::Detected;
      case CheckedOutcome::BudgetExhausted:
        return detected ? FaultOutcome::Detected : FaultOutcome::Hang;
      case CheckedOutcome::Completed:
        break;
    }
    if (run.outputsCorrect) {
        if (!detected)
            return FaultOutcome::Masked;
        return acted ? FaultOutcome::Recovered : FaultOutcome::Detected;
    }
    if (detected)
        return FaultOutcome::Detected;
    bool hung = run.maxPcFrozenCycles > detectors.watchdogCycles;
    return hung ? FaultOutcome::Hang : FaultOutcome::Sdc;
}

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::TransientNet: return "transient-net";
      case FaultKind::DffFlip: return "dff-flip";
      case FaultKind::TimingGlitch: return "timing-glitch";
    }
    return "?";
}

const char *
faultOutcomeName(FaultOutcome outcome)
{
    switch (outcome) {
      case FaultOutcome::Masked: return "masked";
      case FaultOutcome::Recovered: return "recovered";
      case FaultOutcome::Detected: return "detected";
      case FaultOutcome::Sdc: return "sdc";
      case FaultOutcome::Hang: return "hang";
      default: return "?";
    }
}

uint64_t
CampaignCounts::total() const
{
    uint64_t sum = 0;
    for (uint64_t c : n)
        sum += c;
    return sum;
}

CampaignCounts
CampaignResult::counts() const
{
    CampaignCounts counts;
    for (const auto &inj : injections)
        ++counts.n[static_cast<size_t>(inj.outcome)];
    return counts;
}

CampaignResult
runFaultCampaign(const CampaignConfig &config)
{
    std::unique_ptr<Netlist> golden = buildCore(config.isa);
    Workload work = makeWorkload(config);

    CheckedRunConfig runCfg;
    runCfg.isa = config.isa;
    runCfg.detectors = config.detectors;
    runCfg.recovery = config.recovery;
    runCfg.targetOutputs = work.targetOutputs;
    runCfg.maxInstructions = config.maxInstructions;

    CampaignResult result;
    result.config = config;

    // Fault-free baseline, with protection disarmed so the reference
    // trajectory (and thus every schedule horizon) is independent of
    // the campaign's detector/recovery settings.
    {
        CheckedRunConfig baseCfg = runCfg;
        baseCfg.detectors = DetectorConfig{false, false, false,
                                           baseCfg.detectors
                                               .watchdogCycles};
        baseCfg.recovery.enabled = false;
        std::unique_ptr<Netlist> die = golden->clone();
        CheckedRunResult base =
            runChecked(*die, work.prog, work.inputs, baseCfg);
        result.baselineCycles = base.cycles;
        result.baselineInstructions = base.instructions;
        result.baselineCorrect =
            base.outcome == CheckedOutcome::Completed &&
            base.outputsCorrect;
    }

    // Every schedule is a pure function of (seed, index, netlist,
    // baseline), so they are all generated up front and handed to
    // the checked-lanes runner: most injections are masked — the
    // upset lands in logic the workload never exercises — and the
    // runner's word-parallel prescreen settles those without a
    // scalar run.
    std::vector<FaultKind> kinds(config.injections);
    std::vector<FaultSchedule> sched(config.injections);
    parallelFor(config.injections, config.threads, [&](size_t i) {
        std::tie(kinds[i], sched[i]) =
            makeSchedule(config, *golden, result.baselineCycles,
                         static_cast<unsigned>(i));
    });
    std::vector<CheckedRunResult> runs =
        runCheckedLanes(*golden, work.prog, work.inputs, runCfg, sched,
                        {}, config.threads);

    result.injections.resize(config.injections);
    for (size_t i = 0; i < runs.size(); ++i) {
        const CheckedRunResult &run = runs[i];
        InjectionResult &inj = result.injections[i];
        inj.kind = kinds[i];
        inj.outcome = classifyCheckedRun(run, config.detectors);
        inj.runOutcome = run.outcome;
        inj.outputsCorrect = run.outputsCorrect;
        inj.detections = run.detections;
        inj.retries = run.retries;
        inj.restarts = run.restarts;
        inj.cycles = run.cycles;
        inj.firstDetector = run.firstDetector;
    }
    return result;
}

} // namespace flexi
