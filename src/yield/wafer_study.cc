#include "wafer_study.hh"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "netlist/flexicore_netlist.hh"
#include "netlist/lockstep.hh"
#include "yield/test_program.hh"

namespace flexi
{

namespace
{

DesignSpec
computeDesignSpec(IsaKind isa)
{
    DesignSpec spec;
    std::unique_ptr<Netlist> nl;
    switch (isa) {
      case IsaKind::FlexiCore4:
        nl = buildFlexiCore4Netlist();
        spec.pullUpRefined = false;
        spec.currentSigma = 0.153;   // measured RSD, Section 4.2
        break;
      case IsaKind::FlexiCore8:
        nl = buildFlexiCore8Netlist();
        spec.pullUpRefined = true;   // post process-refinement wafer
        spec.currentSigma = 0.215;
        break;
      default:
        fatal("no fabricated netlist for %s", isaName(isa));
    }
    spec.name = nl->name();
    spec.devices = nl->totalDevices();
    spec.critDelayUnits = nl->criticalPathDelayUnits();
    spec.refCurrentUa = nl->totalStaticCurrentUa();
    return spec;
}

/**
 * Elaborated golden netlist of a fabricated core, built once per
 * process; the lane groups of faulty dies are built from it. Safe to
 * share across threads (the structure is immutable).
 */
const Netlist &
templateNetlist(IsaKind isa)
{
    if (isa == IsaKind::FlexiCore4) {
        static const std::unique_ptr<Netlist> fc4 =
            buildFlexiCore4Netlist();
        return *fc4;
    }
    static const std::unique_ptr<Netlist> fc8 =
        buildFlexiCore8Netlist();
    return *fc8;
}

/**
 * Probe one die at one voltage. A defective die's gate-level error
 * count is added later by the lane phase of runWaferStudy; with
 * gateLevelErrors off a statistical count stands in for it.
 */
DieProbe
probeDie(const DieModel &model, const DieSample &die, double vdd,
         const WaferStudyConfig &cfg, Rng &rng)
{
    DieProbe probe;
    probe.currentA = model.currentDraw(die, vdd);

    uint64_t errors = 0;
    if (die.hasDefects() && !cfg.gateLevelErrors) {
        // Statistical fallback: defects corrupt a sizable share of
        // cycles.
        errors += 1 + rng.below(cfg.testCycles / 2);
    }

    double expected =
        model.expectedTimingErrors(die, vdd, cfg.testCycles);
    if (expected > 0) {
        // Intermittent timing faults: at least one error once the
        // margin is gone.
        errors += 1 + static_cast<uint64_t>(
            expected * (0.5 + rng.uniform()));
    }

    probe.errors = errors;
    return probe;
}

} // namespace

DesignSpec
designSpecFor(IsaKind isa)
{
    // The spec is a pure function of the (immutable) netlist; cache
    // per core so hot callers — every runWaferStudy() — stop
    // rebuilding the whole netlist just to measure it.
    if (isa == IsaKind::FlexiCore4) {
        static const DesignSpec fc4 =
            computeDesignSpec(IsaKind::FlexiCore4);
        return fc4;
    }
    if (isa == IsaKind::FlexiCore8) {
        static const DesignSpec fc8 =
            computeDesignSpec(IsaKind::FlexiCore8);
        return fc8;
    }
    return computeDesignSpec(isa);   // fatals with the right name
}

double
WaferStudyResult::yield(double vdd, bool inclusion_only) const
{
    size_t total = 0, good = 0;
    for (const auto &die : dies) {
        if (inclusion_only && !die.site.inInclusionZone)
            continue;
        ++total;
        const DieProbe &probe = vdd > 4.0 ? die.at45V : die.at3V;
        good += probe.functional();
    }
    return total ? static_cast<double>(good) / total : 0.0;
}

RunningStat
WaferStudyResult::currentStats(double vdd) const
{
    RunningStat st;
    for (const auto &die : dies) {
        const DieProbe &probe = vdd > 4.0 ? die.at45V : die.at3V;
        if (probe.functional())
            st.add(probe.currentA);
    }
    return st;
}

WaferStudyResult
runWaferStudy(const WaferStudyConfig &config)
{
    WaferMap wafer;
    DesignSpec spec = designSpecFor(config.isa);
    DieModel model(spec, config.params);

    const Program &test_prog =
        cachedTestProgram(config.isa, config.seed);
    std::vector<uint8_t> test_inputs =
        makeTestInputs(config.isa, 256, config.seed);
    const Netlist *golden =
        config.gateLevelErrors ? &templateNetlist(config.isa)
                               : nullptr;

    WaferStudyResult result;
    result.config = config;
    result.spec = spec;
    result.dies.resize(wafer.numDies());

    const std::vector<DieSite> &sites = wafer.sites();
    parallelFor(sites.size(), config.threads, [&](size_t i) {
        const DieSite &site = sites[i];
        // Every die owns an RNG stream derived from (seed, site
        // index): probing order, die count, and thread count cannot
        // perturb any other die's draws.
        Rng rng(deriveSeed(config.seed ^ 0x3AFE12D1E5ull,
                           site.index));

        DieResult &die = result.dies[i];
        die.site = site;
        die.sample = model.sample(site, wafer, rng);

        // Draw the die's defects (if any); the lane phase below
        // binds the fault list to a lane.
        if (die.sample.hasDefects() && golden) {
            for (unsigned d = 0; d < die.sample.defects; ++d) {
                NetId net = static_cast<NetId>(
                    rng.below(golden->numNets()));
                die.faults.push_back({net, rng.chance(0.5)});
            }
        }

        die.at45V = probeDie(model, die.sample, kVddNominal, config,
                             rng);
        die.at3V = probeDie(model, die.sample, kVddLow, config, rng);
    });

    if (golden) {
        // Gate-level fault sim of the defective dies, up to 512 to a
        // wide lane group. Group membership is a pure function of
        // die index order (thread count cannot perturb it), each
        // lane's lockstep error count is bit-identical to a scalar
        // runLockstep of the same faulted die, and the lockstep is
        // deterministic, so both voltage probes receive the same
        // count.
        std::vector<size_t> defective;
        for (size_t i = 0; i < result.dies.size(); ++i)
            if (result.dies[i].sample.hasDefects())
                defective.push_back(i);
        const size_t lanes = LaneGroup::kMaxLanes;
        size_t num_groups = (defective.size() + lanes - 1) / lanes;
        parallelFor(num_groups, config.threads, [&](size_t g) {
            size_t begin = g * lanes;
            unsigned n = static_cast<unsigned>(std::min<size_t>(
                lanes, defective.size() - begin));
            LaneGroup group(*golden, n);
            for (unsigned lane = 0; lane < n; ++lane)
                for (const StuckFault &f :
                     result.dies[defective[begin + lane]].faults)
                    group.injectFault(lane, f);
            LockstepGroupResult res = runLockstepGroup(
                group, *golden, config.isa, test_prog, test_inputs,
                config.testCycles, /*early_exit=*/false);
            for (unsigned lane = 0; lane < n; ++lane) {
                DieResult &die =
                    result.dies[defective[begin + lane]];
                die.at45V.errors += res.errors[lane];
                die.at3V.errors += res.errors[lane];
            }
        });
    }
    return result;
}

} // namespace flexi
