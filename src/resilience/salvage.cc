#include "salvage.hh"

#include <memory>

#include "assembler/assembler.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "kernels/fc8_programs.hh"
#include "kernels/inputs.hh"
#include "kernels/kernels.hh"
#include "netlist/flexicore_netlist.hh"
#include "yield/die_model.hh"

namespace flexi
{

namespace
{

constexpr uint64_t kSalvageSalt = 0x5A17A6EDull;
/** Per-kernel sub-stream stride within one die's salvage stream. */
constexpr uint64_t kKernelStride = 16;

struct SalvageWorkload
{
    Program prog;
    std::vector<uint8_t> inputs;
    size_t targetOutputs = 0;
    uint64_t baselineCycles = 0;
};

std::unique_ptr<Netlist>
salvageGolden(IsaKind isa)
{
    switch (isa) {
      case IsaKind::FlexiCore4: return buildFlexiCore4Netlist();
      case IsaKind::FlexiCore8: return buildFlexiCore8Netlist();
      default:
        fatal("salvage binning models the fabricated cores, not %s",
              isaName(isa));
    }
}

std::vector<SalvageWorkload>
makeSuite(const SalvageConfig &cfg, const Netlist &golden)
{
    IsaKind isa = cfg.study.isa;
    uint64_t inputSeed = cfg.study.seed ^ kSalvageSalt;
    std::vector<SalvageWorkload> suite;
    if (isa == IsaKind::FlexiCore8) {
        for (size_t p = 0; p < kNumFc8Programs; ++p) {
            auto id = static_cast<Fc8Program>(p);
            suite.push_back({assemble(isa, fc8ProgramSource(id)),
                             fc8ProgramInputs(id, cfg.workUnits,
                                              inputSeed),
                             cfg.workUnits, 0});
        }
    } else {
        for (KernelId id : allKernels())
            suite.push_back(
                {assemble(isa, kernelSource(id, isa)),
                 kernelInputs(id, cfg.workUnits, inputSeed),
                 cfg.workUnits * kernelOutputsPerWork(id), 0});
    }

    // Fault-free baseline cycle counts: the horizons the per-die
    // glitch schedules are drawn over.
    for (SalvageWorkload &w : suite) {
        CheckedRunConfig runCfg;
        runCfg.isa = isa;
        runCfg.detectors = DetectorConfig{false, false, false, 192};
        runCfg.recovery.enabled = false;
        runCfg.targetOutputs = w.targetOutputs;
        runCfg.maxInstructions = cfg.maxInstructions;
        std::unique_ptr<Netlist> die = golden.clone();
        CheckedRunResult base =
            runChecked(*die, w.prog, w.inputs, runCfg);
        if (base.outcome != CheckedOutcome::Completed ||
            !base.outputsCorrect)
            panic("salvage baseline failed on a pristine die");
        w.baselineCycles = base.cycles;
    }
    return suite;
}

} // namespace

const char *
dieBinName(DieBin bin)
{
    switch (bin) {
      case DieBin::Functional: return "functional";
      case DieBin::Salvaged: return "salvaged";
      case DieBin::Dead: return "dead";
    }
    return "?";
}

double
SalvageReport::rawYield(bool inclusion_only) const
{
    return study.yield(vdd, inclusion_only);
}

double
SalvageReport::effectiveYield(bool inclusion_only) const
{
    size_t total = 0, good = 0;
    for (size_t i = 0; i < dies.size(); ++i) {
        if (inclusion_only && !study.dies[i].site.inInclusionZone)
            continue;
        ++total;
        good += dies[i].bin != DieBin::Dead;
    }
    return total ? static_cast<double>(good) / total : 0.0;
}

size_t
SalvageReport::binCount(DieBin bin, bool inclusion_only) const
{
    size_t count = 0;
    for (size_t i = 0; i < dies.size(); ++i) {
        if (inclusion_only && !study.dies[i].site.inInclusionZone)
            continue;
        count += dies[i].bin == bin;
    }
    return count;
}

SalvageReport
runSalvageStudy(const SalvageConfig &config)
{
    if (!config.study.gateLevelErrors)
        fatal("salvage binning needs gateLevelErrors (the recorded "
              "per-die fault lists)");

    SalvageReport report;
    report.vdd = config.vdd;
    report.study = runWaferStudy(config.study);

    std::unique_ptr<Netlist> golden = salvageGolden(config.study.isa);
    std::vector<SalvageWorkload> suite = makeSuite(config, *golden);
    DieModel model(report.study.spec, config.study.params);

    report.dies.resize(report.study.dies.size());
    parallelFor(report.study.dies.size(), config.study.threads,
                [&](size_t i) {
        const DieResult &die = report.study.dies[i];
        DieSalvage &verdict = report.dies[i];
        verdict.dieIndex = i;
        verdict.kernelsTotal = static_cast<unsigned>(suite.size());

        const DieProbe &probe =
            config.vdd > 4.0 ? die.at45V : die.at3V;
        if (probe.functional()) {
            verdict.bin = DieBin::Functional;
            return;
        }

        // Timing-marginal dies glitch at the per-cycle rate the
        // probe model expects at this supply.
        double glitchRate = model.glitchRate(die.sample, config.vdd);

        for (size_t k = 0; k < suite.size(); ++k) {
            const SalvageWorkload &w = suite[k];
            // The exact faulty die, rebuilt from the probe record; a
            // fresh clone per kernel restarts the transient clock.
            std::unique_ptr<Netlist> faulty = golden->clone();
            for (const StuckFault &f : die.faults)
                faulty->injectFault(f);

            FaultSchedule sched;
            if (glitchRate > 0) {
                Rng rng(deriveSeed(config.study.seed ^ kSalvageSalt,
                                   die.site.index * kKernelStride +
                                       k));
                uint64_t horizon = 2 * w.baselineCycles + 64;
                for (uint64_t c = 0; c < horizon; ++c) {
                    if (!rng.chance(glitchRate))
                        continue;
                    NetId net = static_cast<NetId>(
                        rng.below(faulty->numNets()));
                    sched.transients.push_back(
                        {net, rng.chance(0.5), c, c + 1});
                }
            }

            CheckedRunConfig runCfg;
            runCfg.isa = config.study.isa;
            runCfg.detectors = config.detectors;
            runCfg.recovery = config.recovery;
            runCfg.targetOutputs = w.targetOutputs;
            runCfg.maxInstructions = config.maxInstructions;
            CheckedRunResult run = runChecked(*faulty, w.prog,
                                              w.inputs, runCfg,
                                              sched);
            verdict.detections += run.detections;
            verdict.retries += run.retries;
            verdict.restarts += run.restarts;
            if (run.outcome == CheckedOutcome::Completed &&
                run.outputsCorrect) {
                ++verdict.kernelsPassed;
                verdict.passedMask |= 1u << k;
            }
        }
        verdict.bin = verdict.kernelsPassed >= config.minKernels
                          ? DieBin::Salvaged
                          : DieBin::Dead;
    });
    return report;
}

} // namespace flexi
