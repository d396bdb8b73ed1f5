/**
 * @file
 * Tests for the resilience subsystem: netlist-level in-field fault
 * hooks, the checked (detect-and-recover) runner, fault-injection
 * campaigns and their determinism contract, die-salvage binning, and
 * the SAT-guided ATPG triage.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>

#include "analysis/atpg.hh"
#include "analysis/equiv.hh"
#include "assembler/assembler.hh"
#include "common/rng.hh"
#include "kernels/fc8_programs.hh"
#include "kernels/inputs.hh"
#include "kernels/kernels.hh"
#include "netlist/flexicore_netlist.hh"
#include "netlist/lockstep.hh"
#include "resilience/checked_run.hh"
#include "resilience/fault_campaign.hh"
#include "resilience/salvage.hh"
#include "yield/test_program.hh"

#include "equiv_replay.hh"

namespace flexi
{
namespace
{

std::unique_ptr<Netlist>
buildCore(IsaKind isa)
{
    switch (isa) {
      case IsaKind::FlexiCore4: return buildFlexiCore4Netlist();
      case IsaKind::FlexiCore8: return buildFlexiCore8Netlist();
      case IsaKind::ExtAcc4: return buildExtAcc4Netlist();
      case IsaKind::LoadStore4: return buildLoadStore4Netlist();
    }
    return nullptr;
}

unsigned
popcount32(uint32_t v)
{
    unsigned n = 0;
    for (; v; v &= v - 1)
        ++n;
    return n;
}

// ---------------------------------------------------------------
// Netlist in-field fault hooks
// ---------------------------------------------------------------

TEST(NetlistFaults, CycleCounterIsMonotonicAcrossReset)
{
    auto nl = buildFlexiCore4Netlist();
    EXPECT_EQ(nl->cycle(), 0u);
    for (int i = 0; i < 5; ++i) {
        nl->evaluate();
        nl->clockEdge();
    }
    EXPECT_EQ(nl->cycle(), 5u);
    // reset() is a power cycle of the state, not of wall-clock time:
    // transient windows must not re-arm on rollback/restart.
    nl->reset();
    EXPECT_EQ(nl->cycle(), 5u);
}

TEST(NetlistFaults, TransientForcesOnlyInsideItsWindow)
{
    auto nl = buildFlexiCore4Netlist();
    nl->reset();
    NetId net = nl->cells()[0].output;

    // Learn the natural (fault-free) trajectory of the net first.
    std::vector<bool> natural;
    {
        auto ref = nl->clone();
        for (int c = 0; c < 3; ++c) {
            ref->evaluate();
            natural.push_back(ref->netValue(net));
            ref->clockEdge();
        }
    }

    // Window [2, 3): forced on cycle 2 only; cycles before it follow
    // the natural trajectory.
    nl->injectTransient({net, !natural[2], 2, 3});
    ASSERT_EQ(nl->transients().size(), 1u);
    for (int c = 0; c < 3; ++c) {
        nl->evaluate();
        EXPECT_EQ(nl->netValue(net),
                  c == 2 ? !natural[c] : natural[c])
            << "cycle " << c;
        nl->clockEdge();
    }

    // Release: past the window the evaluator must behave exactly
    // like a transient-free netlist carrying the same (possibly
    // corrupted) DFF state — compare against a cleared twin.
    auto twin = nl->clone();
    twin->clearTransients();
    for (int c = 3; c < 6; ++c) {
        nl->evaluate();
        twin->evaluate();
        EXPECT_EQ(nl->netValue(net), twin->netValue(net))
            << "cycle " << c;
        nl->clockEdge();
        twin->clockEdge();
    }
}

TEST(NetlistFaults, ClearTransientsReleasesTheForce)
{
    auto nl = buildFlexiCore4Netlist();
    auto ref = nl->clone();
    nl->reset();
    ref->reset();
    NetId net = nl->cells()[0].output;
    nl->injectTransient({net, true, 0, 100});
    nl->clearTransients();
    EXPECT_TRUE(nl->transients().empty());
    nl->evaluate();
    ref->evaluate();
    EXPECT_EQ(nl->netValue(net), ref->netValue(net));
}

TEST(NetlistFaults, TransientDoesNotDisturbStuckAtFault)
{
    // Stuck-at faults (manufacturing defects) must survive the
    // release of an overlapping transient on another net.
    auto nl = buildFlexiCore4Netlist();
    nl->reset();
    NetId stuck = nl->cells()[0].output;
    nl->injectFault({stuck, true});
    nl->injectTransient({nl->cells()[1].output, true, 0, 1});
    nl->evaluate();
    nl->clockEdge();
    nl->clearTransients();
    nl->evaluate();
    EXPECT_TRUE(nl->netValue(stuck));
}

TEST(NetlistFaults, DffFlipAndStateRoundtrip)
{
    auto nl = buildFlexiCore4Netlist();
    nl->reset();
    for (int i = 0; i < 8; ++i) {
        nl->evaluate();
        nl->clockEdge();
    }
    ASSERT_GT(nl->numDffs(), 4u);

    std::vector<uint8_t> saved = nl->saveDffState();
    bool v = nl->dffValue(3);
    nl->flipDff(3);
    EXPECT_EQ(nl->dffValue(3), !v);
    nl->restoreDffState(saved);
    EXPECT_EQ(nl->dffValue(3), v);
    EXPECT_EQ(nl->saveDffState(), saved);
}

TEST(ChecksumTest, Crc8MatchesCheckValue)
{
    // CRC-8 poly 0x07, init 0, no reflection: the standard check
    // value over "123456789" is 0xF4.
    uint8_t crc = 0;
    for (char c : std::string("123456789"))
        crc = crc8(crc, static_cast<uint8_t>(c));
    EXPECT_EQ(crc, 0xF4);
}

// ---------------------------------------------------------------
// Checked runner
// ---------------------------------------------------------------

struct CheckedRig
{
    explicit CheckedRig(IsaKind isa)
        : golden(buildCore(isa)),
          prog(isa == IsaKind::FlexiCore8
                   ? assemble(isa, fc8ProgramSource(Fc8Program(0)))
                   : assemble(isa, kernelSource(
                                       KernelId::Thresholding, isa)))
    {
        cfg.isa = isa;
        if (isa == IsaKind::FlexiCore8) {
            inputs = fc8ProgramInputs(Fc8Program(0), 4, 1);
            cfg.targetOutputs = 4;
        } else {
            inputs = kernelInputs(KernelId::Thresholding, 4, 1);
            cfg.targetOutputs =
                4 * kernelOutputsPerWork(KernelId::Thresholding);
        }
    }

    std::unique_ptr<Netlist> golden;
    Program prog;
    std::vector<uint8_t> inputs;
    CheckedRunConfig cfg;
};

TEST(CheckedRun, CleanRunCompletesOnEveryCore)
{
    for (IsaKind isa : {IsaKind::FlexiCore4, IsaKind::FlexiCore8,
                        IsaKind::ExtAcc4, IsaKind::LoadStore4}) {
        CheckedRig rig(isa);
        auto die = rig.golden->clone();
        CheckedRunResult run =
            runChecked(*die, rig.prog, rig.inputs, rig.cfg);
        EXPECT_EQ(run.outcome, CheckedOutcome::Completed)
            << isaName(isa);
        EXPECT_TRUE(run.outputsCorrect) << isaName(isa);
        EXPECT_EQ(run.detections, 0u) << isaName(isa);
        EXPECT_EQ(run.retries, 0u) << isaName(isa);
        EXPECT_EQ(run.restarts, 0u) << isaName(isa);
        EXPECT_EQ(run.padMismatches, 0u) << isaName(isa);
        EXPECT_EQ(run.dieOutputs, run.goldenOutputs) << isaName(isa);
        EXPECT_EQ(run.dieOutputs.size(), rig.cfg.targetOutputs)
            << isaName(isa);
    }
}

TEST(CheckedRun, CrcDetectorNeverCompletesSilentlyWrong)
{
    // The final-compare contract: with the output CRC armed, a run
    // may end with wrong outputs only if a detector fired or the die
    // was declared degraded — never silently. Exercised over the
    // first stuck-at faults that corrupt an unprotected run.
    CheckedRig rig(IsaKind::FlexiCore4);
    unsigned corrupting = 0;
    for (size_t c = 0; c < rig.golden->cells().size() && corrupting < 6;
         ++c) {
        StuckFault fault{rig.golden->cells()[c].output, true};

        CheckedRunConfig bare = rig.cfg;
        bare.detectors = DetectorConfig{false, false, false, 192};
        bare.recovery.enabled = false;
        auto unprotected = rig.golden->clone();
        unprotected->injectFault(fault);
        CheckedRunResult naked =
            runChecked(*unprotected, rig.prog, rig.inputs, bare);
        if (naked.outcome == CheckedOutcome::Completed &&
            naked.outputsCorrect)
            continue;   // masked fault, nothing to detect
        ++corrupting;

        auto die = rig.golden->clone();
        die->injectFault(fault);
        CheckedRunResult run =
            runChecked(*die, rig.prog, rig.inputs, rig.cfg);
        EXPECT_TRUE(run.outputsCorrect || run.detections > 0 ||
                    run.outcome == CheckedOutcome::Degraded)
            << "cell " << c;
    }
    EXPECT_GT(corrupting, 0u);
}

TEST(CheckedRun, DetectOnlyModeRecordsButDoesNotAct)
{
    // With recovery disabled the runner is a fail-stop monitor: it
    // must never roll back or restart, whatever it detects.
    CheckedRig rig(IsaKind::FlexiCore4);
    rig.cfg.recovery.enabled = false;
    for (size_t c = 0; c < 8; ++c) {
        auto die = rig.golden->clone();
        die->injectFault({rig.golden->cells()[c].output, true});
        CheckedRunResult run =
            runChecked(*die, rig.prog, rig.inputs, rig.cfg);
        EXPECT_EQ(run.retries, 0u);
        EXPECT_EQ(run.restarts, 0u);
        EXPECT_NE(run.outcome, CheckedOutcome::Degraded);
    }
}

TEST(CheckedRun, LanesMatchScalarRunChecked)
{
    // The checked-lanes runner against its definition: every lane's
    // result equals a clone of the golden die carrying the lane's
    // stuck-ats, run through scalar runChecked() under the lane's
    // schedule. Lanes mix empty, transient, flip and glitch schedules
    // with optional stuck-at lists; FlexiCore4's 600 lanes fill a
    // full 512-lane group and a ragged 88-lane one.
    for (IsaKind isa : {IsaKind::FlexiCore4, IsaKind::FlexiCore8,
                        IsaKind::ExtAcc4, IsaKind::LoadStore4}) {
        CheckedRig rig(isa);
        ASSERT_TRUE(rig.cfg.detectors.watchdog);
        auto pristine = rig.golden->clone();
        uint64_t horizon =
            runChecked(*pristine, rig.prog, rig.inputs, rig.cfg).cycles;
        size_t nets = rig.golden->numNets();
        size_t lanes = isa == IsaKind::FlexiCore4 ? 600 : 80;

        std::vector<FaultSchedule> scheds(lanes);
        std::vector<std::vector<StuckFault>> stuck(lanes);
        std::vector<const std::vector<StuckFault> *> faults(lanes);
        for (size_t l = 0; l < lanes; ++l) {
            Rng rng(deriveSeed(0x1A9E5, l));
            FaultSchedule &s = scheds[l];
            switch (l % 4) {
              case 0: break;   // empty schedule
              case 1: {
                uint64_t at = rng.below(horizon);
                s.transients.push_back({static_cast<NetId>(
                    rng.below(nets)), rng.chance(0.5), at, at + 1});
                break;
              }
              case 2:
                s.flips.push_back({rng.below(horizon),
                                   rng.below(rig.golden->numDffs())});
                break;
              case 3:   // timing glitches
                for (uint64_t c = 0; c < horizon; ++c)
                    if (rng.chance(0.01))
                        s.transients.push_back(
                            {static_cast<NetId>(rng.below(nets)),
                             rng.chance(0.5), c, c + 1});
                break;
            }
            if (l % 3 == 0) {
                const auto &cells = rig.golden->cells();
                stuck[l].push_back({cells[rng.below(cells.size())]
                                        .output, rng.chance(0.5)});
                faults[l] = &stuck[l];
            }
        }

        std::vector<CheckedRunResult> serial = runCheckedLanes(
            *rig.golden, rig.prog, rig.inputs, rig.cfg, scheds, faults, 1);
        std::vector<CheckedRunResult> threaded = runCheckedLanes(
            *rig.golden, rig.prog, rig.inputs, rig.cfg, scheds, faults, 4);
        ASSERT_EQ(serial.size(), lanes);
        ASSERT_EQ(threaded.size(), lanes);

        unsigned clean = 0, dirty = 0;
        for (size_t l = 0; l < lanes; ++l) {
            auto die = rig.golden->clone();
            for (const StuckFault &f : stuck[l])
                die->injectFault(f);
            CheckedRunResult ref = runChecked(*die, rig.prog, rig.inputs,
                                              rig.cfg, scheds[l]);
            for (const CheckedRunResult *r : {&serial[l], &threaded[l]}) {
                EXPECT_EQ(r->outcome, ref.outcome) << isaName(isa) << l;
                EXPECT_EQ(r->outputsCorrect, ref.outputsCorrect)
                    << isaName(isa) << l;
                EXPECT_EQ(r->cycles, ref.cycles) << isaName(isa) << l;
                EXPECT_EQ(r->instructions, ref.instructions)
                    << isaName(isa) << l;
                EXPECT_EQ(r->padMismatches, ref.padMismatches)
                    << isaName(isa) << l;
                EXPECT_EQ(r->detections, ref.detections)
                    << isaName(isa) << l;
                EXPECT_EQ(r->retries, ref.retries) << isaName(isa) << l;
                EXPECT_EQ(r->restarts, ref.restarts)
                    << isaName(isa) << l;
                EXPECT_EQ(r->firstDetector, ref.firstDetector)
                    << isaName(isa) << l;
                EXPECT_EQ(r->endDff, ref.endDff) << isaName(isa) << l;
            }
            // A clean lane leaves the output streams empty (documented);
            // a dirty lane is the scalar result itself.
            bool laneClean = serial[l].outputsCorrect &&
                             serial[l].goldenOutputs.empty();
            EXPECT_EQ(threaded[l].goldenOutputs.empty(), laneClean);
            if (laneClean) {
                ++clean;
                continue;
            }
            ++dirty;
            EXPECT_EQ(serial[l].maxPcFrozenCycles, ref.maxPcFrozenCycles);
            EXPECT_EQ(serial[l].dieOutputs, ref.dieOutputs);
            EXPECT_EQ(serial[l].goldenOutputs, ref.goldenOutputs);
        }
        EXPECT_GT(clean, 0u) << isaName(isa);
        EXPECT_GT(dirty, 0u) << isaName(isa);
    }
}

// ---------------------------------------------------------------
// Fault campaigns
// ---------------------------------------------------------------

TEST(FaultCampaign, RecoveryConvertsSilentFailuresOnEveryCore)
{
    // The acceptance bar of the resilience PR: on all four cores,
    // arming the runtime converts every silent failure class of the
    // unprotected campaign into Recovered (or at worst Detected) —
    // and because fault schedules are independent of the protection
    // settings, the masked count is provably comparable.
    for (IsaKind isa : {IsaKind::FlexiCore4, IsaKind::FlexiCore8,
                        IsaKind::ExtAcc4, IsaKind::LoadStore4}) {
        CampaignConfig off;
        off.isa = isa;
        off.seed = 7;
        off.injections = 48;
        off.detectors = DetectorConfig{false, false, false, 192};
        off.recovery.enabled = false;
        CampaignResult unprot = runFaultCampaign(off);
        ASSERT_TRUE(unprot.baselineCorrect) << isaName(isa);
        CampaignCounts u = unprot.counts();
        ASSERT_GT(u[FaultOutcome::Sdc] + u[FaultOutcome::Hang], 0u)
            << isaName(isa);
        EXPECT_EQ(u[FaultOutcome::Recovered], 0u) << isaName(isa);

        CampaignConfig on = off;
        on.detectors = DetectorConfig{};
        on.recovery = RecoveryPolicy{};
        CampaignResult prot = runFaultCampaign(on);
        CampaignCounts p = prot.counts();
        EXPECT_EQ(p.total(), u.total());
        EXPECT_EQ(p[FaultOutcome::Masked], u[FaultOutcome::Masked])
            << isaName(isa);
        EXPECT_EQ(p[FaultOutcome::Sdc], 0u) << isaName(isa);
        EXPECT_EQ(p[FaultOutcome::Hang], 0u) << isaName(isa);
        EXPECT_GT(p[FaultOutcome::Recovered], 0u) << isaName(isa);
    }
}

TEST(FaultCampaign, ThreadCountDoesNotChangeResults)
{
    // Same contract as WaferStudy.ThreadCountDoesNotChangeResults:
    // per-injection results are bit-identical between a serial and a
    // threaded campaign over the same seed.
    CampaignConfig cfg;
    cfg.isa = IsaKind::FlexiCore4;
    cfg.seed = 3;
    cfg.injections = 32;
    cfg.threads = 1;
    CampaignResult serial = runFaultCampaign(cfg);
    cfg.threads = 4;
    CampaignResult threaded = runFaultCampaign(cfg);

    EXPECT_EQ(serial.baselineCycles, threaded.baselineCycles);
    ASSERT_EQ(serial.injections.size(), threaded.injections.size());
    for (size_t i = 0; i < serial.injections.size(); ++i) {
        const InjectionResult &a = serial.injections[i];
        const InjectionResult &b = threaded.injections[i];
        EXPECT_EQ(a.kind, b.kind) << i;
        EXPECT_EQ(a.outcome, b.outcome) << i;
        EXPECT_EQ(a.runOutcome, b.runOutcome) << i;
        EXPECT_EQ(a.outputsCorrect, b.outputsCorrect) << i;
        EXPECT_EQ(a.detections, b.detections) << i;
        EXPECT_EQ(a.retries, b.retries) << i;
        EXPECT_EQ(a.restarts, b.restarts) << i;
        EXPECT_EQ(a.cycles, b.cycles) << i;
        EXPECT_EQ(a.firstDetector, b.firstDetector) << i;
    }
}

TEST(FaultCampaign, ExercisesAllFaultKinds)
{
    CampaignConfig cfg;
    cfg.isa = IsaKind::FlexiCore4;
    cfg.seed = 1;
    cfg.injections = 48;
    CampaignResult res = runFaultCampaign(cfg);
    unsigned kinds[3] = {};
    for (const InjectionResult &inj : res.injections)
        ++kinds[static_cast<size_t>(inj.kind)];
    EXPECT_GT(kinds[0], 0u);   // TransientNet
    EXPECT_GT(kinds[1], 0u);   // DffFlip
    EXPECT_GT(kinds[2], 0u);   // TimingGlitch
}

// ---------------------------------------------------------------
// Die salvage
// ---------------------------------------------------------------

TEST(Salvage, EffectiveYieldUpliftWithRawYieldUntouched)
{
    // Pinned against WaferStudy.PinnedSeedRegression: salvage must
    // report the identical raw Table 5 yields (fault recording may
    // not perturb the per-die RNG streams) while binning at least
    // one probe-failed die back into service.
    SalvageConfig cfg;
    cfg.study.isa = IsaKind::FlexiCore4;
    cfg.study.seed = 42;
    cfg.study.testCycles = 500;
    SalvageReport rep = runSalvageStudy(cfg);

    EXPECT_DOUBLE_EQ(rep.rawYield(true), 76.0 / 88.0);
    EXPECT_DOUBLE_EQ(rep.rawYield(false), 86.0 / 120.0);
    EXPECT_DOUBLE_EQ(rep.study.yield(3.0, true), 47.0 / 88.0);
    EXPECT_DOUBLE_EQ(rep.study.yield(3.0, false), 51.0 / 120.0);

    size_t functional = rep.binCount(DieBin::Functional, true);
    size_t salvaged = rep.binCount(DieBin::Salvaged, true);
    size_t dead = rep.binCount(DieBin::Dead, true);
    EXPECT_EQ(functional, 76u);
    EXPECT_EQ(functional + salvaged + dead, 88u);
    EXPECT_GT(salvaged, 0u);
    EXPECT_DOUBLE_EQ(rep.effectiveYield(true),
                     static_cast<double>(functional + salvaged) / 88.0);
    EXPECT_GE(rep.effectiveYield(true), rep.rawYield(true));
    EXPECT_GE(rep.effectiveYield(false), rep.rawYield(false));
}

TEST(Salvage, VerdictsAreInternallyConsistent)
{
    SalvageConfig cfg;
    cfg.study.isa = IsaKind::FlexiCore4;
    cfg.study.seed = 7;
    cfg.study.testCycles = 400;
    SalvageReport rep = runSalvageStudy(cfg);

    ASSERT_EQ(rep.dies.size(), rep.study.dies.size());
    for (size_t i = 0; i < rep.dies.size(); ++i) {
        const DieSalvage &v = rep.dies[i];
        const DieResult &die = rep.study.dies[i];
        EXPECT_EQ(v.dieIndex, i);
        EXPECT_EQ(v.kernelsPassed, popcount32(v.passedMask));
        bool probe_ok = die.at45V.functional();
        if (probe_ok) {
            EXPECT_EQ(v.bin, DieBin::Functional);
        } else {
            EXPECT_NE(v.bin, DieBin::Functional);
            EXPECT_EQ(v.bin, v.kernelsPassed >= cfg.minKernels
                                 ? DieBin::Salvaged
                                 : DieBin::Dead);
            EXPECT_GT(v.kernelsTotal, 0u);
        }
    }
}

TEST(Salvage, ThreadCountDoesNotChangeVerdicts)
{
    SalvageConfig cfg;
    cfg.study.isa = IsaKind::FlexiCore4;
    cfg.study.seed = 7;
    cfg.study.testCycles = 400;
    cfg.study.threads = 1;
    SalvageReport serial = runSalvageStudy(cfg);
    cfg.study.threads = 4;
    SalvageReport threaded = runSalvageStudy(cfg);

    ASSERT_EQ(serial.dies.size(), threaded.dies.size());
    for (size_t i = 0; i < serial.dies.size(); ++i) {
        const DieSalvage &a = serial.dies[i];
        const DieSalvage &b = threaded.dies[i];
        EXPECT_EQ(a.bin, b.bin) << i;
        EXPECT_EQ(a.passedMask, b.passedMask) << i;
        EXPECT_EQ(a.detections, b.detections) << i;
        EXPECT_EQ(a.retries, b.retries) << i;
        EXPECT_EQ(a.restarts, b.restarts) << i;
    }
}

// ---------------------------------------------------------------
// SAT-guided ATPG
// ---------------------------------------------------------------

TEST(Atpg, SampledRunTriagesEveryEscape)
{
    AtpgConfig cfg;
    cfg.isa = IsaKind::FlexiCore4;
    cfg.simCycles = 600;
    cfg.maxFaults = 40;
    Program prog = makeTestProgram(cfg.isa, 11);
    auto inputs = makeTestInputs(cfg.isa, 256, 11);
    AtpgReport rep = runAtpg(cfg, prog, inputs);

    EXPECT_EQ(rep.faults, 40u);
    EXPECT_GT(rep.simDetected, 0u);
    EXPECT_EQ(rep.simDetected + rep.escapes.size(), rep.faults);
    // Every escape gets a verdict: a generated pattern or a proof.
    EXPECT_EQ(rep.testable + rep.redundant, rep.escapes.size());
    for (const AtpgFault &f : rep.escapes) {
        EXPECT_NE(f.testable, f.redundant);
        if (f.testable) {
            EXPECT_FALSE(f.pattern.empty());
        }
    }
    EXPECT_GE(rep.testableCoverage(), rep.simCoverage());
    EXPECT_LE(rep.simCoverage(), 1.0);

    // The lane-packed fault simulation against the scalar reference:
    // a sampled fault (runAtpg's strided pick) is an escape exactly
    // when a faulted clone runs clean through runLockstep.
    std::set<std::pair<NetId, bool>> escaped;
    for (const AtpgFault &f : rep.escapes)
        escaped.insert({f.fault.net, f.fault.value});
    auto golden = buildFlexiCore4Netlist();
    size_t universe = golden->cells().size() * 2;
    for (size_t i = 0; i < rep.faults; ++i) {
        size_t idx = i * universe / rep.faults;
        StuckFault f{golden->cells()[idx / 2].output, (idx & 1) != 0};
        auto die = golden->clone();
        die->injectFault(f);
        LockstepResult sim =
            runLockstep(*die, cfg.isa, prog, inputs, cfg.simCycles);
        EXPECT_EQ(escaped.count({f.net, f.value}) == 1,
                  sim.errors == 0) << "fault " << i;
    }

    // Group packing depends only on fault index: the thread count
    // cannot change any verdict, pattern or solver statistic.
    for (unsigned threads : {1u, 4u}) {
        cfg.threads = threads;
        AtpgReport other = runAtpg(cfg, prog, inputs);
        EXPECT_EQ(other.simDetected, rep.simDetected) << threads;
        EXPECT_EQ(other.solves, rep.solves) << threads;
        EXPECT_EQ(other.conflicts, rep.conflicts) << threads;
        ASSERT_EQ(other.escapes.size(), rep.escapes.size()) << threads;
        for (size_t e = 0; e < rep.escapes.size(); ++e) {
            const AtpgFault &a = rep.escapes[e], &b = other.escapes[e];
            EXPECT_EQ(a.fault.net, b.fault.net) << e;
            EXPECT_EQ(a.fault.value, b.fault.value) << e;
            EXPECT_EQ(a.testable, b.testable) << e;
            EXPECT_EQ(a.redundant, b.redundant) << e;
            EXPECT_EQ(a.pattern, b.pattern) << e;
        }
    }
}

// Full-universe verdicts against oracles outside runAtpg's miter:
// every generated pattern replays in scalar simulation of clones,
// and the faulty die of a redundant escape still implements its ISA
// (checkIsaEquivalence: a separate, unshared encoding; an FC8 proof
// costs about twice an FC4 one, so FC8 checks every second one).
TEST(Atpg, FullUniverseVerdictsMatchIndependentOracles)
{
    struct Core
    {
        IsaKind isa;
        size_t testable, redundant;   ///< bench_fault_coverage's
        size_t isaStride;             ///< redundant escapes per proof
    };
    for (const Core &core : {Core{IsaKind::FlexiCore4, 22, 33, 1},
                             Core{IsaKind::FlexiCore8, 23, 41, 2}}) {
        AtpgConfig cfg;
        cfg.isa = core.isa;
        Program prog = makeTestProgram(cfg.isa, 11);
        auto inputs = makeTestInputs(cfg.isa, 256, 11);
        AtpgReport rep = runAtpg(cfg, prog, inputs);
        EXPECT_EQ(rep.testable, core.testable) << isaName(core.isa);
        EXPECT_EQ(rep.redundant, core.redundant) << isaName(core.isa);
        EXPECT_EQ(rep.testable + rep.redundant, rep.escapes.size());

        auto golden = core.isa == IsaKind::FlexiCore4
                          ? buildFlexiCore4Netlist()
                          : buildFlexiCore8Netlist();
        size_t redundant_seen = 0;
        for (const AtpgFault &f : rep.escapes) {
            auto die = golden->clone();
            die->injectFault(f.fault);
            std::string what = f.net + " stuck-at-" +
                               std::to_string(f.fault.value);
            if (f.testable) {
                EquivResult eq = checkNetlistEquivalence(*golden, *die);
                ASSERT_TRUE(eq.hasCex) << what;
                EXPECT_EQ(eq.cex.text(), f.pattern) << what;
                EXPECT_TRUE(cexReplaysAsMismatch(*golden, *die, eq.cex))
                    << what << ": " << f.pattern;
            } else if (redundant_seen++ % core.isaStride == 0) {
                EXPECT_TRUE(checkIsaEquivalence(*die, core.isa).proven)
                    << what;
            }
        }
    }
}

} // namespace
} // namespace flexi
