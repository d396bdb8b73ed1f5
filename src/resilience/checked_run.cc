#include "checked_run.hh"

#include <algorithm>
#include <array>
#include <memory>
#include <span>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "isa/encoding.hh"
#include "netlist/lane_group.hh"
#include "sim/core_sim.hh"
#include "sim/environment.hh"
#include "sim/mmu.hh"

namespace flexi
{

uint8_t
crc8(uint8_t crc, uint8_t byte)
{
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit)
        crc = crc & 0x80 ? static_cast<uint8_t>((crc << 1) ^ 0x07)
                         : static_cast<uint8_t>(crc << 1);
    return crc;
}

const char *
checkedOutcomeName(CheckedOutcome outcome)
{
    switch (outcome) {
      case CheckedOutcome::Completed: return "completed";
      case CheckedOutcome::Degraded: return "degraded";
      case CheckedOutcome::BudgetExhausted: return "budget-exhausted";
    }
    return "?";
}

namespace
{

/** Environment returning a value chosen by the harness per step. */
class HeldInputEnv : public Environment
{
  public:
    uint8_t readInput() override { return held; }
    void
    writeOutput(uint8_t value) override
    {
        outputs.push_back(value);
    }

    uint8_t held = 0;
    std::vector<uint8_t> outputs;
};

/** Does this instruction architecturally sample the input bus? */
bool
readsInput(const Instruction &inst)
{
    return inst.mode == Mode::Mem && inst.op != Op::Store &&
           inst.operand == kInputPortAddr;
}

constexpr unsigned kNoPc = ~0u;

class CheckedRunner
{
  public:
    CheckedRunner(Netlist &die, const Program &prog,
                  const std::vector<uint8_t> &inputs,
                  const CheckedRunConfig &cfg,
                  const FaultSchedule &schedule)
        : die_(die), prog_(prog), inputs_(inputs), cfg_(cfg)
    {
        if (!die.elaborated())
            fatal("checked run needs an elaborated netlist");
        wide_ = cfg.isa == IsaKind::ExtAcc4 ||
                cfg.isa == IsaKind::LoadStore4;
        wordPc_ = cfg.isa == IsaKind::LoadStore4;
        width_ = isaDataWidth(cfg.isa);
        pcBus_ = die.outputBus("pc", 7);
        instrBus_ = die.inputBus("instr", wide_ ? 16 : 8);
        iportBus_ = die.inputBus("iport", width_);
        oportBus_ = die.outputBus("oport", width_);

        multiPage_ = prog.numPages() > 1;
        if (multiPage_)
            paged_ = std::make_unique<PagedEnvironment>(env_);
        tcfg_.isa = cfg.isa;

        maxCycles_ = cfg.maxCycles ? cfg.maxCycles
                                   : cfg.maxInstructions * 8 + 1024;

        die_.reset();
        for (const auto &t : schedule.transients)
            die_.injectTransient(t);
        flips_ = schedule.flips;
        std::sort(flips_.begin(), flips_.end(),
                  [](const FaultSchedule::DffFlip &a,
                     const FaultSchedule::DffFlip &b) {
                      return a.cycle < b.cycle;
                  });

        freshGolden();
        takeCheckpoint();
    }

    CheckedRunResult
    run()
    {
        while (true) {
            if (done()) {
                bool mismatch = dieOut_ != env_.outputs;
                bool armed = cfg_.detectors.outputCrc ||
                             cfg_.detectors.lockstep;
                if (mismatch && armed) {
                    if (!onDetection(cfg_.detectors.outputCrc
                                         ? "crc" : "lockstep"))
                        break;           // degraded
                    if (recoveryActed_)
                        continue;        // rolled back; resume
                    // detect-only: recorded, complete as-is
                }
                res_.outcome = CheckedOutcome::Completed;
                break;
            }
            if (res_.instructions >= cfg_.maxInstructions ||
                res_.cycles >= maxCycles_) {
                res_.outcome = CheckedOutcome::BudgetExhausted;
                break;
            }
            if (!stepInstruction())
                break;                   // degraded mid-step
        }
        res_.dieOutputs = dieOut_;
        res_.goldenOutputs = env_.outputs;
        res_.outputsCorrect = res_.outcome == CheckedOutcome::Completed &&
                              dieOut_ == env_.outputs;
        res_.endDff = die_.saveDffState();
        return res_;
    }

  private:
    struct Checkpoint
    {
        std::vector<uint8_t> dff;
        std::unique_ptr<CoreSim> golden;
        size_t inputIdx = 0;
        uint8_t held = 0;
        size_t dieOutSize = 0;
        size_t goldenOutSize = 0;
        uint8_t dieCrc = 0;
        uint8_t goldenCrc = 0;
        Mmu dieMmu;
        unsigned diePage = 0;
        Mmu goldenMmu;
        unsigned lastDiePc = kNoPc;
        uint64_t frozen = 0;
    };

    Environment &
    goldenEnv()
    {
        return paged_ ? static_cast<Environment &>(*paged_)
                      : static_cast<Environment &>(env_);
    }

    void
    freshGolden()
    {
        golden_ = std::make_unique<CoreSim>(tcfg_, prog_, goldenEnv());
    }

    bool
    done() const
    {
        if (golden_->halted())
            return true;
        return cfg_.targetOutputs &&
               env_.outputs.size() >= cfg_.targetOutputs;
    }

    void
    pushDieOut(uint8_t value)
    {
        dieOut_.push_back(value);
        dieCrc_ = crc8(dieCrc_, value);
    }

    void
    applyDueFlips()
    {
        while (flipIdx_ < flips_.size() &&
               flips_[flipIdx_].cycle <= die_.cycle()) {
            if (die_.numDffs())
                die_.flipDff(flips_[flipIdx_].dff % die_.numDffs());
            ++flipIdx_;
        }
    }

    void
    takeCheckpoint()
    {
        if (cfg_.recovery.enabled) {
            cp_.dff = die_.saveDffState();
            cp_.golden = std::make_unique<CoreSim>(*golden_);
            cp_.inputIdx = inputIdx_;
            cp_.held = env_.held;
            cp_.dieOutSize = dieOut_.size();
            cp_.goldenOutSize = env_.outputs.size();
            cp_.dieCrc = dieCrc_;
            cp_.goldenCrc = goldenCrc_;
            cp_.dieMmu = dieMmu_;
            cp_.diePage = diePage_;
            if (paged_)
                cp_.goldenMmu = paged_->mmu();
            cp_.lastDiePc = lastDiePc_;
            cp_.frozen = frozen_;
        }
        instrSinceCp_ = 0;
        retriesSinceCp_ = 0;
    }

    void
    rollback()
    {
        die_.restoreDffState(cp_.dff);
        die_.evaluate();   // re-expose the restored state on the pads
        golden_ = std::make_unique<CoreSim>(*cp_.golden);
        inputIdx_ = cp_.inputIdx;
        env_.held = cp_.held;
        env_.outputs.resize(cp_.goldenOutSize);
        dieOut_.resize(cp_.dieOutSize);
        dieCrc_ = cp_.dieCrc;
        goldenCrc_ = cp_.goldenCrc;
        dieMmu_ = cp_.dieMmu;
        diePage_ = cp_.diePage;
        if (paged_)
            paged_->mmu() = cp_.goldenMmu;
        lastDiePc_ = cp_.lastDiePc;
        frozen_ = cp_.frozen;
        instrSinceCp_ = 0;
    }

    /**
     * Escalation step two: power-cycle the die and re-page the whole
     * program through the off-chip MMU from scratch. The die's
     * monotonic transient clock keeps counting, so past upset windows
     * do not re-fire on the second attempt.
     */
    void
    restart()
    {
        die_.reset();
        dieMmu_.reset();
        diePage_ = 0;
        env_.outputs.clear();
        env_.held = 0;
        if (paged_)
            paged_->mmu().reset();
        dieOut_.clear();
        dieCrc_ = 0;
        goldenCrc_ = 0;
        inputIdx_ = 0;
        freshGolden();
        lastDiePc_ = kNoPc;
        frozen_ = 0;
        takeCheckpoint();
    }

    /**
     * A detector fired. Returns false when the run must stop (die
     * declared degraded); sets recoveryActed_ when state was rolled
     * back or restarted (the caller abandons the current step).
     */
    bool
    onDetection(const char *detector)
    {
        ++res_.detections;
        if (res_.firstDetector.empty())
            res_.firstDetector = detector;
        recoveryActed_ = false;
        if (!cfg_.recovery.enabled)
            return true;                 // detect-only: report and go on
        if (retriesSinceCp_ < cfg_.recovery.maxRetries) {
            rollback();
            ++res_.retries;
            ++retriesSinceCp_;
            recoveryActed_ = true;
            return true;
        }
        if (cfg_.recovery.allowRestart && res_.restarts == 0) {
            restart();
            ++res_.restarts;
            recoveryActed_ = true;
            return true;
        }
        res_.outcome = CheckedOutcome::Degraded;
        return false;
    }

    bool
    stepInstruction()
    {
        // Decode at the *golden* PC (and page) to learn whether this
        // instruction samples the input bus; both models then see the
        // same held value, exactly as in runLockstep().
        const std::vector<uint8_t> &gimage =
            prog_.page(golden_->page());
        DecodeResult dec = decodeAt(cfg_.isa, gimage, golden_->pc());
        if (readsInput(dec.inst) && inputIdx_ < inputs_.size())
            env_.held = inputs_[inputIdx_++] &
                        static_cast<uint8_t>((1u << width_) - 1u);

        // Drive the die from its own PC pads — and its own MMU page.
        // A corrupted die can page its MMU register to a page the
        // program never filled; external memory there reads as a
        // floating (all-zero) bus, not as a harness error.
        static const std::vector<uint8_t> kUnmappedPage;
        unsigned cycles = wide_ ? 1 : dec.bytes;
        for (unsigned c = 0; c < cycles; ++c) {
            applyDueFlips();
            const std::vector<uint8_t> &dimage =
                diePage_ < prog_.numPages() ? prog_.page(diePage_)
                                            : kUnmappedPage;
            auto fetch = [&](unsigned addr) -> uint8_t {
                return addr < dimage.size() ? dimage[addr] : 0;
            };
            unsigned diePc = die_.bus(pcBus_);
            if (wide_) {
                unsigned base = wordPc_ ? diePc * 2 : diePc;
                die_.setBus(instrBus_,
                            fetch(base) | (fetch(base + 1) << 8));
            } else {
                die_.setBus(instrBus_, fetch(diePc));
            }
            die_.setBus(iportBus_, env_.held);
            die_.evaluate();
            die_.clockEdge();
            die_.evaluate();   // expose new state on the pads
            ++res_.cycles;

            unsigned newPc = die_.bus(pcBus_);
            if (newPc == lastDiePc_) {
                ++frozen_;
            } else {
                frozen_ = 0;
                lastDiePc_ = newPc;
            }
            res_.maxPcFrozenCycles =
                std::max(res_.maxPcFrozenCycles, frozen_);
            // Edge-triggered so a detect-only run logs one event per
            // freeze episode instead of one per stuck cycle.
            if (cfg_.detectors.watchdog &&
                frozen_ == cfg_.detectors.watchdogCycles + 1) {
                if (!onDetection("watchdog"))
                    return false;
                if (recoveryActed_)
                    return true;         // instruction abandoned
            }
        }

        uint64_t prevIo = golden_->stats().ioWrites;
        uint64_t prevTb = golden_->stats().takenBranches;
        size_t prevGoldenOut = env_.outputs.size();
        golden_->step();
        ++res_.instructions;

        // Mirror the probe methodology: the die's output value for
        // this event is whatever its OPORT pads carry when the golden
        // model performs the write. Multi-page dies route it through
        // their own off-chip MMU FST.
        if (golden_->stats().ioWrites != prevIo) {
            uint8_t dieVal = static_cast<uint8_t>(die_.bus(oportBus_));
            if (multiPage_) {
                for (uint8_t v : dieMmu_.onOutput(dieVal))
                    pushDieOut(v);
            } else {
                pushDieOut(dieVal);
            }
        }
        for (size_t i = prevGoldenOut; i < env_.outputs.size(); ++i)
            goldenCrc_ = crc8(goldenCrc_, env_.outputs[i]);
        if (multiPage_ && golden_->stats().takenBranches != prevTb) {
            int p = dieMmu_.takePendingPage();
            if (p >= 0)
                diePage_ = static_cast<unsigned>(p);
        }

        bool mismatch = die_.bus(pcBus_) != golden_->pc() ||
                        die_.bus(oportBus_) != golden_->outputLatch();
        res_.padMismatches += mismatch;
        if (mismatch && cfg_.detectors.lockstep) {
            if (!onDetection("lockstep"))
                return false;
            if (recoveryActed_)
                return true;
        }

        if (++instrSinceCp_ >= cfg_.recovery.checkpointInstructions) {
            bool crcBad = cfg_.detectors.outputCrc &&
                          (dieCrc_ != goldenCrc_ ||
                           dieOut_.size() != env_.outputs.size());
            if (crcBad) {
                if (!onDetection("crc"))
                    return false;
                if (recoveryActed_)
                    return true;
            }
            // Checkpoint only state the detectors call clean (or the
            // best we know in detect-only mode).
            takeCheckpoint();
        }
        return true;
    }

    Netlist &die_;
    const Program &prog_;
    const std::vector<uint8_t> &inputs_;
    const CheckedRunConfig &cfg_;

    bool wide_ = false;
    bool wordPc_ = false;
    unsigned width_ = 4;
    BusHandle pcBus_, instrBus_, iportBus_, oportBus_;
    bool multiPage_ = false;
    uint64_t maxCycles_ = 0;

    HeldInputEnv env_;
    std::unique_ptr<PagedEnvironment> paged_;
    TimingConfig tcfg_;
    std::unique_ptr<CoreSim> golden_;

    std::vector<FaultSchedule::DffFlip> flips_;
    size_t flipIdx_ = 0;

    Mmu dieMmu_;
    unsigned diePage_ = 0;
    std::vector<uint8_t> dieOut_;
    uint8_t dieCrc_ = 0;
    uint8_t goldenCrc_ = 0;
    size_t inputIdx_ = 0;

    unsigned lastDiePc_ = kNoPc;
    uint64_t frozen_ = 0;

    Checkpoint cp_;
    unsigned instrSinceCp_ = 0;
    unsigned retriesSinceCp_ = 0;
    bool recoveryActed_ = false;

    CheckedRunResult res_;
};

/**
 * Prescreen one group of at most LaneGroup::kMaxLanes lanes (see
 * runCheckedLanes()): set @p clean[L] and fill @p out[L] for every
 * lane L proven clean, leave every other lane's slots untouched.
 */
void
prescreenSchedules(const Netlist &golden_netlist, const Program &prog,
                   const std::vector<uint8_t> &inputs,
                   const CheckedRunConfig &cfg,
                   std::span<const FaultSchedule> schedules,
                   std::span<const std::vector<StuckFault> *const>
                       laneFaults,
                   std::span<CheckedRunResult> out,
                   std::span<uint8_t> clean)
{
    // One bit-parallel mirror of CheckedRunner::stepInstruction()
    // with all protection stripped: flips before each fetch, per-lane
    // fetch from the lane's own PC pads, per-lane frozen-PC tracking,
    // and the boundary PC/OPORT compare against one shared golden
    // trajectory. Any deviation retires the lane to the scalar path,
    // so the shared state below (held input, MMU page) only ever has
    // to be correct for lanes that are still tracking golden exactly.
    unsigned lanes = static_cast<unsigned>(schedules.size());
    LaneGroup batch(golden_netlist, lanes);

    bool wide = cfg.isa == IsaKind::ExtAcc4 ||
                cfg.isa == IsaKind::LoadStore4;
    bool wordPc = cfg.isa == IsaKind::LoadStore4;
    unsigned width = isaDataWidth(cfg.isa);
    BusHandle pcBus = golden_netlist.outputBus("pc", 7);
    BusHandle instrBus =
        golden_netlist.inputBus("instr", wide ? 16 : 8);
    BusHandle iportBus = golden_netlist.inputBus("iport", width);
    BusHandle oportBus = golden_netlist.outputBus("oport", width);

    bool multiPage = prog.numPages() > 1;
    HeldInputEnv env;
    std::unique_ptr<PagedEnvironment> paged;
    if (multiPage)
        paged = std::make_unique<PagedEnvironment>(env);
    TimingConfig tcfg;
    tcfg.isa = cfg.isa;
    CoreSim golden(tcfg, prog,
                   paged ? static_cast<Environment &>(*paged)
                         : static_cast<Environment &>(env));

    uint64_t maxCycles = cfg.maxCycles
                             ? cfg.maxCycles
                             : cfg.maxInstructions * 8 + 1024;

    size_t numDffs = batch.numDffs();
    std::vector<std::vector<FaultSchedule::DffFlip>> flips(lanes);
    for (unsigned lane = 0; lane < lanes; ++lane) {
        if (!laneFaults.empty() && laneFaults[lane])
            for (const StuckFault &f : *laneFaults[lane])
                batch.injectFault(lane, f);
        for (const auto &t : schedules[lane].transients)
            batch.injectTransient(lane, t);
        flips[lane] = schedules[lane].flips;
        std::sort(flips[lane].begin(), flips[lane].end(),
                  [](const FaultSchedule::DffFlip &a,
                     const FaultSchedule::DffFlip &b) {
                      return a.cycle < b.cycle;
                  });
    }
    std::array<size_t, LaneGroup::kMaxLanes> flipIdx{};

    // A clean lane emits golden's exact output values, so one shared
    // mirror MMU fed those values reproduces every clean lane's page
    // trajectory; a lane whose value differs is retired the same
    // instruction by the pad compare below.
    Mmu mirrorMmu;
    unsigned mirrorPage = 0;
    static const std::vector<uint8_t> kUnmappedPage;

    std::array<uint64_t, LaneGroup::kMaxWords> active{};
    for (unsigned w = 0; w < batch.words(); ++w)
        active[w] = batch.laneMaskWord(w);
    auto anyActive = [&]() {
        for (uint64_t m : active)
            if (m)
                return true;
        return false;
    };
    std::array<uint8_t, LaneGroup::kMaxLanes> diePc{};
    std::array<uint32_t, LaneGroup::kMaxLanes> dieInstr16{};
    std::vector<uint8_t> fetchTable;
    unsigned fetchTablePage = ~0u;
    std::array<uint32_t, LaneGroup::kMaxLanes> lastPc;
    lastPc.fill(kNoPc);
    std::array<uint64_t, LaneGroup::kMaxLanes> frozen{};
    size_t inputIdx = 0;

    // Post-edge pad sampling only reads the PC/OPORT pads, so the
    // post-clock evaluate narrows to their fan-in cones.
    LaneGroup::PadCone padCone = batch.padCone({&pcBus, &oportBus});

    uint64_t cycles = 0;
    uint64_t instructions = 0;

    auto isDone = [&]() {
        if (golden.halted())
            return true;
        return cfg.targetOutputs != 0 &&
               env.outputs.size() >= cfg.targetOutputs;
    };

    while (!isDone()) {
        // A lane can only be clean if golden completes in budget.
        if (instructions >= cfg.maxInstructions ||
            cycles >= maxCycles || !anyActive())
            return;

        const std::vector<uint8_t> &gimage =
            prog.page(golden.page());
        DecodeResult dec = decodeAt(cfg.isa, gimage, golden.pc());
        if (readsInput(dec.inst) && inputIdx < inputs.size())
            env.held = inputs[inputIdx++] &
                       static_cast<uint8_t>((1u << width) - 1u);

        const std::vector<uint8_t> &dimage =
            mirrorPage < prog.numPages() ? prog.page(mirrorPage)
                                         : kUnmappedPage;
        auto fetch = [&](unsigned addr) -> uint8_t {
            return addr < dimage.size() ? dimage[addr] : 0;
        };
        if (!wide && fetchTablePage != mirrorPage) {
            // Narrow fetch goes through the fused indexed drive;
            // (re)pad the current page to the PC address space when
            // the mirror MMU pages (out-of-image fetches read 0).
            fetchTable.assign(size_t(1) << pcBus.width(), 0);
            for (size_t a = 0;
                 a < fetchTable.size() && a < dimage.size(); ++a)
                fetchTable[a] = dimage[a];
            fetchTablePage = mirrorPage;
        }

        unsigned instrCycles = wide ? 1 : dec.bytes;
        for (unsigned c = 0; c < instrCycles; ++c) {
            for (unsigned lane = 0; lane < lanes; ++lane) {
                while (flipIdx[lane] < flips[lane].size() &&
                       flips[lane][flipIdx[lane]].cycle <=
                           batch.cycle()) {
                    if (numDffs)
                        batch.flipDff(lane,
                                      flips[lane][flipIdx[lane]].dff %
                                          numDffs);
                    ++flipIdx[lane];
                }
            }
            if (wide) {
                batch.gatherBusBytes(pcBus, diePc.data());
                for (unsigned lane = 0; lane < lanes; ++lane) {
                    unsigned base = wordPc ? diePc[lane] * 2
                                           : diePc[lane];
                    dieInstr16[lane] =
                        fetch(base) |
                        static_cast<unsigned>(fetch(base + 1)) << 8;
                }
                batch.setBusLanes(instrBus, dieInstr16.data());
            } else {
                batch.driveBusFromTable(pcBus, instrBus,
                                        fetchTable.data());
            }
            batch.setBus(iportBus, env.held);
            batch.evaluate();
            batch.clockEdge();
            batch.exposeState(padCone);   // new state on the pads
            ++cycles;

            // Frozen-PC tracking is only consumed by the watchdog
            // retire below; with no watchdog armed the per-lane PC
            // gather is dead work.
            if (!cfg.detectors.watchdog)
                continue;
            batch.gatherBusBytes(pcBus, diePc.data());
            for (unsigned lane = 0; lane < lanes; ++lane) {
                uint64_t bit = 1ull << (lane % 64);
                if (!(active[lane / 64] & bit))
                    continue;
                if (diePc[lane] == lastPc[lane]) {
                    ++frozen[lane];
                } else {
                    frozen[lane] = 0;
                    lastPc[lane] = diePc[lane];
                }
                // An armed watchdog would fire here in the scalar
                // runner; that lane's trajectory is no longer the
                // unprotected one, so hand it to the scalar path.
                if (frozen[lane] ==
                    cfg.detectors.watchdogCycles + 1)
                    active[lane / 64] &= ~bit;
            }
        }

        uint64_t prevIo = golden.stats().ioWrites;
        uint64_t prevTb = golden.stats().takenBranches;
        golden.step();
        ++instructions;

        if (multiPage) {
            if (golden.stats().ioWrites != prevIo)
                (void)mirrorMmu.onOutput(
                    static_cast<uint8_t>(golden.outputLatch()));
            if (golden.stats().takenBranches != prevTb) {
                int p = mirrorMmu.takePendingPage();
                if (p >= 0)
                    mirrorPage = static_cast<unsigned>(p);
            }
        }

        // Boundary compare in the bit domain: clearing an already
        // retired lane's bit is a no-op, so no per-lane active test
        // is needed.
        std::array<uint64_t, LaneGroup::kMaxWords> pcDiff;
        std::array<uint64_t, LaneGroup::kMaxWords> opDiff;
        batch.busMismatch(pcBus, golden.pc(), pcDiff.data());
        batch.busMismatch(oportBus, golden.outputLatch(),
                          opDiff.data());
        for (unsigned w = 0; w < batch.words(); ++w)
            active[w] &= ~(pcDiff[w] | opDiff[w]);
    }

    for (unsigned lane = 0; lane < lanes; ++lane) {
        if (!((active[lane / 64] >> (lane % 64)) & 1u))
            continue;
        CheckedRunResult &r = out[lane];
        r.outputsCorrect = true;
        r.cycles = cycles;
        r.instructions = instructions;
        r.endDff = batch.saveDffState(lane);
        clean[lane] = 1;
    }
}

} // namespace

CheckedRunResult
runChecked(Netlist &die, const Program &prog,
           const std::vector<uint8_t> &inputs,
           const CheckedRunConfig &cfg, const FaultSchedule &schedule)
{
    CheckedRunner runner(die, prog, inputs, cfg, schedule);
    return runner.run();
}

std::vector<CheckedRunResult>
runCheckedLanes(const Netlist &golden, const Program &prog,
                const std::vector<uint8_t> &inputs,
                const CheckedRunConfig &cfg,
                const std::vector<FaultSchedule> &schedules,
                const std::vector<const std::vector<StuckFault> *>
                    &laneFaults,
                unsigned threads)
{
    size_t n = schedules.size();
    if (!laneFaults.empty() && laneFaults.size() != n)
        fatal("runCheckedLanes: %zu fault lists for %zu lanes",
              laneFaults.size(), n);
    std::vector<CheckedRunResult> results(n);
    std::vector<uint8_t> clean(n, 0);

    constexpr size_t kLanes = LaneGroup::kMaxLanes;
    parallelFor((n + kLanes - 1) / kLanes, threads, [&](size_t g) {
        size_t begin = g * kLanes;
        size_t lanes = std::min(kLanes, n - begin);
        std::span<const std::vector<StuckFault> *const> faults;
        if (!laneFaults.empty())
            faults = std::span(laneFaults).subspan(begin, lanes);
        prescreenSchedules(golden, prog, inputs, cfg,
                           std::span(schedules).subspan(begin, lanes),
                           faults,
                           std::span(results).subspan(begin, lanes),
                           std::span(clean).subspan(begin, lanes));
    });

    std::vector<size_t> dirty;
    for (size_t i = 0; i < n; ++i)
        if (!clean[i])
            dirty.push_back(i);
    parallelFor(dirty.size(), threads, [&](size_t k) {
        size_t i = dirty[k];
        std::unique_ptr<Netlist> die = golden.clone();
        if (!laneFaults.empty() && laneFaults[i])
            for (const StuckFault &f : *laneFaults[i])
                die->injectFault(f);
        results[i] = runChecked(*die, prog, inputs, cfg, schedules[i]);
    });
    return results;
}

} // namespace flexi
