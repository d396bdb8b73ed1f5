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

    // Functional dies bin as such; every other die is a lane that
    // runs each kernel of the suite on its own fault list.
    std::vector<size_t> failed;
    std::vector<const std::vector<StuckFault> *> faults;
    report.dies.resize(report.study.dies.size());
    for (size_t i = 0; i < report.study.dies.size(); ++i) {
        const DieResult &die = report.study.dies[i];
        DieSalvage &verdict = report.dies[i];
        verdict.dieIndex = i;
        verdict.kernelsTotal = static_cast<unsigned>(suite.size());
        const DieProbe &probe =
            config.vdd > 4.0 ? die.at45V : die.at3V;
        if (probe.functional()) {
            verdict.bin = DieBin::Functional;
        } else {
            failed.push_back(i);
            faults.push_back(&die.faults);
        }
    }

    for (size_t k = 0; k < suite.size(); ++k) {
        const SalvageWorkload &w = suite[k];
        // Timing-marginal dies glitch at the per-cycle rate the probe
        // model expects at this supply.
        std::vector<FaultSchedule> scheds(failed.size());
        parallelFor(failed.size(), config.study.threads, [&](size_t l) {
            const DieResult &die = report.study.dies[failed[l]];
            double glitchRate = model.glitchRate(die.sample, config.vdd);
            if (glitchRate <= 0)
                return;
            Rng rng(deriveSeed(config.study.seed ^ kSalvageSalt,
                               die.site.index * kKernelStride + k));
            uint64_t horizon = 2 * w.baselineCycles + 64;
            for (uint64_t c = 0; c < horizon; ++c) {
                if (!rng.chance(glitchRate))
                    continue;
                NetId net = static_cast<NetId>(
                    rng.below(golden->numNets()));
                scheds[l].transients.push_back(
                    {net, rng.chance(0.5), c, c + 1});
            }
        });

        CheckedRunConfig runCfg;
        runCfg.isa = config.study.isa;
        runCfg.detectors = config.detectors;
        runCfg.recovery = config.recovery;
        runCfg.targetOutputs = w.targetOutputs;
        runCfg.maxInstructions = config.maxInstructions;
        std::vector<CheckedRunResult> runs =
            runCheckedLanes(*golden, w.prog, w.inputs, runCfg, scheds,
                            faults, config.study.threads);
        for (size_t l = 0; l < failed.size(); ++l) {
            const CheckedRunResult &run = runs[l];
            DieSalvage &verdict = report.dies[failed[l]];
            verdict.detections += run.detections;
            verdict.retries += run.retries;
            verdict.restarts += run.restarts;
            if (run.outcome == CheckedOutcome::Completed &&
                run.outputsCorrect) {
                ++verdict.kernelsPassed;
                verdict.passedMask |= 1u << k;
            }
        }
    }
    for (size_t i : failed)
        report.dies[i].bin = report.dies[i].kernelsPassed >=
                                     config.minKernels
                                 ? DieBin::Salvaged
                                 : DieBin::Dead;
    return report;
}

} // namespace flexi
