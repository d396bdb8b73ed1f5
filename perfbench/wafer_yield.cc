/**
 * @file
 * wafer_yield: Table 5 at the paper's criterion (Section 4.1) — a
 * die passes only with zero gate-level mismatches over 100k vectors.
 *
 * One operation = the gate-level wafer study (runWaferStudy,
 * gateLevelErrors, default batchLanes) of one FlexiCore4 wafer and
 * one FlexiCore8 wafer at the same seed. Operations cycle through
 * Table 5's 20-wafer set (seeds base .. base+19); every run covers
 * the whole set at least once, so the Table 5 yields are complete.
 *
 * The traced operation replaces the library's lockstep driver with
 * a replica built from the public LaneGroup, CoreSim and decodeAt
 * calls, with a span around each layer; its per-lane error counts
 * must equal runLockstepGroup on the same group.
 */

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

#include "common/rng.hh"
#include "harness.hh"
#include "isa/encoding.hh"
#include "netlist/flexicore_netlist.hh"
#include "netlist/lockstep.hh"
#include "pins.hh"
#include "sim/core_sim.hh"
#include "sim/environment.hh"
#include "yield/die_model.hh"
#include "yield/test_program.hh"
#include "yield/wafer_study.hh"

using namespace flexi;

namespace perfbench
{

namespace
{

constexpr IsaKind kCores[2] = {IsaKind::FlexiCore4,
                               IsaKind::FlexiCore8};
/** Table 5 (full 3 V, full 4.5 V, inclusion 3 V, inclusion 4.5 V). */
constexpr double kPaperYieldPct[2][4] = {{44, 63, 55, 81},
                                         {5, 42, 6, 57}};
/** Seed pairs checked against scalar runLockstep per run. */
constexpr unsigned kScalarSampleWafers = 3;

struct Sizes
{
    unsigned wafers;
    uint64_t testCycles;
};

Sizes
sizesFor(const Options &opt)
{
    return opt.tiny ? Sizes{1, 2000} : Sizes{kTableWafers, 100000};
}

WaferStudyConfig
studyConfig(IsaKind isa, uint64_t seed, const Sizes &sz)
{
    WaferStudyConfig c;
    c.isa = isa;
    c.seed = seed;
    c.testCycles = sz.testCycles;
    c.gateLevelErrors = true;
    c.threads = kThreads;
    return c;
}

/** What one wafer's check compares. */
struct WaferSummary
{
    std::vector<uint64_t> err3, err45;
    uint64_t digest = 0;
    double yields[4] = {0, 0, 0, 0};
};

uint64_t
digestOf(const WaferSummary &s)
{
    Fnv h;
    for (size_t i = 0; i < s.err3.size(); ++i)
        h.add(s.err3[i]).add(s.err45[i]);
    return h.value();
}

WaferSummary
summarize(const WaferStudyResult &r)
{
    WaferSummary s;
    for (const DieResult &d : r.dies) {
        s.err3.push_back(d.at3V.errors);
        s.err45.push_back(d.at45V.errors);
    }
    s.digest = digestOf(s);
    s.yields[0] = r.yield(3.0, false);
    s.yields[1] = r.yield(4.5, false);
    s.yields[2] = r.yield(3.0, true);
    s.yields[3] = r.yield(4.5, true);
    return s;
}

/**
 * Independent check of one defective die: rebuild it from its fault
 * list on a clone of @p golden and run scalar runLockstep. The
 * study's count is the gate-level count plus, where the die is
 * timing-marginal at that supply, at least one timing error.
 */
bool
scalarAgrees(const Netlist &golden, const WaferStudyConfig &c,
             const DieResult &die, uint64_t err3, uint64_t err45)
{
    std::unique_ptr<Netlist> nl = golden.clone();
    for (const StuckFault &f : die.faults)
        nl->injectFault(f);
    LockstepResult r = runLockstep(
        *nl, c.isa, cachedTestProgram(c.isa, c.seed),
        makeTestInputs(c.isa, 256, c.seed), c.testCycles);
    DieModel model(designSpecFor(c.isa), c.params);
    auto agrees = [&](double vdd, uint64_t got) {
        bool marginal =
            model.expectedTimingErrors(die.sample, vdd,
                                       c.testCycles) > 0;
        return marginal ? got >= r.errors + 1 : got == r.errors;
    };
    return agrees(kVddLow, err3) && agrees(kVddNominal, err45);
}

/**
 * The defective die of a wafer the scalar check samples: drawn from
 * the seed among the dies with no timing errors at 4.5 V, so the
 * study's 4.5 V count is exactly the gate-level count.
 */
size_t
checkedDie(const WaferStudyResult &r, const WaferStudyConfig &c)
{
    DieModel model(designSpecFor(c.isa), c.params);
    std::vector<size_t> dies;
    for (size_t d = 0; d < r.dies.size(); ++d)
        if (r.dies[d].sample.hasDefects() &&
            model.expectedTimingErrors(r.dies[d].sample, kVddNominal,
                                       c.testCycles) == 0)
            dies.push_back(d);
    if (dies.empty())
        return 0;
    Rng pick(deriveSeed(c.seed, static_cast<uint64_t>(c.isa)));
    return dies[pick.below(dies.size())];
}

/** The lockstep harness's input bus model (held last value). */
class HeldInput : public Environment
{
  public:
    uint8_t readInput() override { return held; }
    void writeOutput(uint8_t v) override { outputs.push_back(v); }

    uint8_t held = 0;
    std::vector<uint8_t> outputs;
};

/** Per-layer spans and counters of the lane-path replica. */
struct LaneTrace
{
    double compile = 0, fetch = 0, step = 0, compare = 0, golden = 0;
    uint64_t laneDieCycles = 0, groups = 0, lanes = 0, words = 0;
    uint64_t goldenInstructions = 0;
};

/**
 * runLockstepGroup rebuilt from public calls, one LaneGroup of up to
 * 512 dies at a time, with a lap at every layer boundary. Returns
 * the per-die pad-mismatch counts (no early exit).
 */
std::vector<uint64_t>
laneReplica(const Netlist &golden, IsaKind isa, const Program &prog,
            const std::vector<uint8_t> &inputs, uint64_t max_instr,
            const std::vector<const std::vector<StuckFault> *> &dies,
            LaneTrace &tr)
{
    const unsigned w = isaDataWidth(isa);
    const std::vector<uint8_t> &image = prog.page(0);
    BusHandle pc_bus = golden.outputBus("pc", 7);
    BusHandle instr_bus = golden.inputBus("instr", 8);
    BusHandle iport_bus = golden.inputBus("iport", w);
    BusHandle oport_bus = golden.outputBus("oport", w);

    std::vector<uint8_t> table(size_t(1) << pc_bus.width(), 0);
    std::copy_n(image.begin(), std::min(image.size(), table.size()),
                table.begin());

    std::vector<uint64_t> errors(dies.size(), 0);
    for (size_t begin = 0; begin < dies.size();
         begin += LaneGroup::kMaxLanes) {
        Laps laps;
        laps.start();
        unsigned lanes = static_cast<unsigned>(std::min<size_t>(
            LaneGroup::kMaxLanes, dies.size() - begin));
        LaneGroup group(golden, lanes);
        for (unsigned l = 0; l < lanes; ++l)
            for (const StuckFault &f : *dies[begin + l])
                group.injectFault(l, f);
        LaneGroup::PadCone cone =
            group.padCone({&pc_bus, &oport_bus});
        group.reset();
        ++tr.groups;
        tr.lanes += lanes;
        tr.words += group.words();
        laps.lap(tr.compile);

        struct Memo
        {
            uint8_t bytes = 0;
            bool readsIn = false;
            bool init = false;
        };
        std::vector<Memo> memo(table.size());
        HeldInput env;
        TimingConfig tc;
        tc.isa = isa;
        CoreSim sim(tc, prog, env);
        laps.lap(tr.golden);

        uint8_t iport_prev = env.held;
        group.setBus(iport_bus, env.held);
        size_t input_idx = 0;
        uint64_t instructions = 0, cycles = 0;
        std::array<uint64_t, LaneGroup::kMaxWords> pc_diff{},
            op_diff{};
        laps.lap(tr.fetch);
        while (instructions < max_instr && !sim.halted()) {
            Memo &m = memo[sim.pc() & (memo.size() - 1)];
            if (!m.init) {
                DecodeResult dec = decodeAt(isa, image, sim.pc());
                m.bytes = static_cast<uint8_t>(dec.bytes);
                m.readsIn = dec.inst.mode == Mode::Mem &&
                            dec.inst.op != Op::Store &&
                            dec.inst.operand == kInputPortAddr;
                m.init = true;
            }
            laps.lap(tr.golden);
            if (m.readsIn && input_idx < inputs.size())
                env.held = inputs[input_idx++] &
                           static_cast<uint8_t>((1u << w) - 1u);
            if (env.held != iport_prev) {
                group.setBus(iport_bus, env.held);
                iport_prev = env.held;
            }
            for (unsigned c = 0; c < m.bytes; ++c) {
                group.driveBusFromTable(pc_bus, instr_bus,
                                        table.data());
                laps.lap(tr.fetch);
                group.evaluate();
                group.clockEdge();
                group.exposeState(cone);
                laps.lap(tr.step);
                ++cycles;
            }
            sim.step();
            ++instructions;
            laps.lap(tr.golden);
            group.busMismatch(pc_bus, sim.pc(), pc_diff.data());
            group.busMismatch(oport_bus, sim.outputLatch(),
                              op_diff.data());
            for (unsigned wd = 0; wd < group.words(); ++wd) {
                for (uint64_t d : {pc_diff[wd], op_diff[wd]}) {
                    while (d) {
                        errors[begin + wd * 64 +
                               __builtin_ctzll(d)] += 1;
                        d &= d - 1;
                    }
                }
            }
            laps.lap(tr.compare);
        }
        tr.laneDieCycles += cycles * lanes;
        tr.goldenInstructions += instructions;
    }
    return errors;
}

/** Per-layer record of the traced operations. */
struct WaferTrace
{
    LaneTrace lane;
    double sample = 0;
    uint64_t dies = 0, defective = 0;
    std::vector<double> tracedOps, untracedOps, unaccounted;
};

/**
 * One traced wafer: the statistical study (die sampling) and the
 * lane replica over the gate-level study's defective dies. Checks
 * the replica against runLockstepGroup and against the study's own
 * per-die counts outside the timed region.
 */
double
traceWafer(const Netlist &golden, const WaferStudyConfig &c,
           const WaferStudyResult &gate, WaferTrace &tr, Outcome &out,
           double &spans)
{
    double t0 = now();
    WaferStudyConfig sc = c;
    sc.gateLevelErrors = false;
    WaferStudyResult stat;
    double sample = timed([&] { stat = runWaferStudy(sc); });
    tr.sample += sample;
    tr.dies += stat.dies.size();
    for (const DieResult &d : stat.dies)
        tr.defective += d.sample.hasDefects();

    std::vector<size_t> defective;
    std::vector<const std::vector<StuckFault> *> faults;
    for (size_t i = 0; i < gate.dies.size(); ++i) {
        if (gate.dies[i].sample.hasDefects()) {
            defective.push_back(i);
            faults.push_back(&gate.dies[i].faults);
        }
    }
    LaneTrace before = tr.lane;
    const Program &prog = cachedTestProgram(c.isa, c.seed);
    std::vector<uint8_t> inputs = makeTestInputs(c.isa, 256, c.seed);
    std::vector<uint64_t> lane_err = laneReplica(
        golden, c.isa, prog, inputs, c.testCycles, faults, tr.lane);
    double op = now() - t0;
    const LaneTrace &l = tr.lane;
    spans += sample + (l.compile - before.compile) +
             (l.fetch - before.fetch) + (l.step - before.step) +
             (l.compare - before.compare) +
             (l.golden - before.golden);

    // Replica identity: the library driver on an identical group.
    bool same = true;
    for (size_t begin = 0; begin < faults.size();
         begin += LaneGroup::kMaxLanes) {
        unsigned lanes = static_cast<unsigned>(std::min<size_t>(
            LaneGroup::kMaxLanes, faults.size() - begin));
        LaneGroup group(golden, lanes);
        for (unsigned l = 0; l < lanes; ++l)
            for (const StuckFault &f : *faults[begin + l])
                group.injectFault(l, f);
        LockstepGroupResult ref = runLockstepGroup(
            group, golden, c.isa, prog, inputs, c.testCycles, false);
        for (unsigned l = 0; l < lanes; ++l)
            same = same && ref.errors[l] == lane_err[begin + l];
    }
    // And the study's per-die counts hold the gate-level count.
    DieModel model(designSpecFor(c.isa), c.params);
    for (size_t k = 0; k < defective.size(); ++k) {
        const DieResult &d = gate.dies[defective[k]];
        for (double vdd : {kVddLow, kVddNominal}) {
            uint64_t got = vdd > 4.0 ? d.at45V.errors : d.at3V.errors;
            bool marginal = model.expectedTimingErrors(
                                d.sample, vdd, c.testCycles) > 0;
            same = same && (marginal ? got > lane_err[k]
                                     : got == lane_err[k]);
        }
    }
    out.check(same, std::string("lane replica vs runLockstepGroup, ") +
                        isaName(c.isa) + " seed " +
                        std::to_string(c.seed));
    return op;
}

} // namespace

Outcome
runWaferYield(const Options &opt)
{
    Outcome out;
    const Sizes sz = sizesFor(opt);
    const uint64_t base = seedOf(opt, kWaferDefaultSeed);
    const bool pinned = base == kWaferDefaultSeed && !opt.tiny;

    // Set-up: the two fabricated netlists, and the test program and
    // stimulus of every wafer in the set.
    double setup = setupSeconds([&] {
        for (IsaKind isa : kCores) {
            auto nl = isa == IsaKind::FlexiCore4
                          ? buildFlexiCore4Netlist()
                          : buildFlexiCore8Netlist();
            for (unsigned i = 0; i < sz.wafers; ++i) {
                Program p = makeTestProgram(isa, base + i);
                auto in = makeTestInputs(isa, 256, base + i);
            }
        }
    }, 31);
    std::unique_ptr<Netlist> golden[2] = {buildFlexiCore4Netlist(),
                                          buildFlexiCore8Netlist()};
    for (IsaKind isa : kCores) {
        for (unsigned i = 0; i < sz.wafers; ++i)
            cachedTestProgram(isa, base + i);
        WaferStudyConfig warm = studyConfig(isa, base, sz);
        warm.testCycles = 16;
        runWaferStudy(warm);   // fills the library's lazy statics
    }

    std::map<std::pair<unsigned, unsigned>, WaferSummary> reference;
    std::vector<double> op_s;
    WaferTrace tr;
    double sum_yield[2][4] = {};
    const double t_end = now() + opt.seconds;
    unsigned k = 0;
    for (; k < sz.wafers || now() < t_end; ++k) {
        const unsigned i = k % sz.wafers;
        const uint64_t seed = base + i;
        WaferStudyResult res[2];
        double t = timed([&] {
            for (unsigned c = 0; c < 2; ++c)
                res[c] = runWaferStudy(
                    studyConfig(kCores[c], seed, sz));
        });
        (opt.trace ? tr.untracedOps : op_s).push_back(t);

        bool ok = true;
        for (unsigned c = 0; c < 2; ++c) {
            WaferSummary s = summarize(res[c]);
            const WaferStudyConfig cfg =
                studyConfig(kCores[c], seed, sz);
            const auto key = std::make_pair(c, i);
            const size_t victim = checkedDie(res[c], cfg);
            if (k == 0 && c == 0 && opt.corrupt) {
                // A deliberately corrupted per-die count: the check
                // below must catch it (self-test).
                s.err45[victim] += 1;
                s.digest = digestOf(s);
            }
            if (k < sz.wafers)
                for (int y = 0; y < 4; ++y)
                    sum_yield[c][y] += s.yields[y];
            if (opt.dumpPins && k < sz.wafers)
                out.notes.push_back("pin digest " + std::to_string(c) +
                                    " " + std::to_string(i) + " " +
                                    std::to_string(s.digest) + "ull");
            if (pinned) {
                ok = ok && s.digest == kWaferDigests[c][i];
            } else if (!reference.count(key)) {
                // Sampled defective dies against the scalar lockstep
                // path, on the first sight of the first wafers.
                if (k < kScalarSampleWafers &&
                    res[c].dies[victim].sample.hasDefects())
                    ok = ok && scalarAgrees(*golden[c], cfg,
                                            res[c].dies[victim],
                                            s.err3[victim],
                                            s.err45[victim]);
                reference[key] = s;
            } else {
                ok = ok && s.digest == reference[key].digest;
            }
        }
        out.check(ok, "wafer seed " + std::to_string(seed));

        if (opt.trace) {
            double traced = 0, spans = 0;
            for (unsigned c = 0; c < 2; ++c)
                traced += traceWafer(*golden[c],
                                     studyConfig(kCores[c], seed, sz),
                                     res[c], tr, out, spans);
            tr.tracedOps.push_back(traced);
            tr.unaccounted.push_back(traced - spans);
        }
    }

    // Table 5 from the first full pass.
    double err_pp = 0;
    bool yields_ok = true;
    for (unsigned c = 0; c < 2; ++c) {
        for (int y = 0; y < 4; ++y) {
            double pct = 100.0 * sum_yield[c][y] / sz.wafers;
            err_pp += std::fabs(pct - kPaperYieldPct[c][y]) / 8.0;
            if (pinned)
                yields_ok = yields_ok &&
                            std::fabs(pct - kWaferYieldPct[c][y]) <
                                1e-9;
            if (opt.dumpPins)
                out.notes.push_back("pin yield " + std::to_string(c) +
                                    " " + std::to_string(y) + " " +
                                    fmt17(pct));
        }
    }
    out.check(yields_ok, "Table 5 yields");
    out.notes.push_back("yield_err_pp " + fmt17(err_pp) +
                        " (mean |simulated - paper| over the 8 Table "
                        "5 cells)");

    if (!opt.trace) {
        reportEndToEnd(out, setup, op_s);
        return out;
    }
    const double n = static_cast<double>(tr.tracedOps.size());
    const LaneTrace &l = tr.lane;
    out.set("yield.sample_s", tr.sample / n, "s");
    out.set("yield.dies", tr.dies / n, "count");
    out.set("yield.defective_dies", tr.defective / n, "count");
    out.set("yield.err_pp", err_pp, "pp");
    out.set("netlist.fault_compile_s", l.compile / n, "s");
    out.set("netlist.fetch_s", l.fetch / n, "s");
    out.set("netlist.step_s", l.step / n, "s");
    out.set("netlist.compare_s", l.compare / n, "s");
    out.set("netlist.lane_die_cycles", l.laneDieCycles / n, "count");
    out.set("netlist.groups", l.groups / n, "count");
    out.set("netlist.lane_occupancy",
            l.lanes / (64.0 * static_cast<double>(l.words)), "ratio");
    out.set("netlist.lane_occupancy_512",
            l.lanes / (512.0 * static_cast<double>(l.groups)),
            "ratio");
    out.set("sim.golden_s", l.golden / n, "s");
    out.set("sim.golden_instructions", l.goldenInstructions / n,
            "count");
    reportTraceOverhead(out, tr.tracedOps, tr.untracedOps,
                        tr.unaccounted);
    return out;
}

} // namespace perfbench
