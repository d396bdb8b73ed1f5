/**
 * @file
 * fault_grade: stuck-at coverage of the Section 4.1 vector suite and
 * the SAT triage of its escapes — the argument that makes the
 * zero-mismatch yield test sound.
 *
 * One operation = runAtpg over every cell-output stuck-at fault, both
 * polarities, on FlexiCore4 and then FlexiCore8, against the
 * 1500-cycle makeTestProgram suite of one seed. Operations cycle
 * through kFaultSeeds consecutive test-program seeds.
 *
 * The traced operation replays runAtpg's per-fault loop from public
 * calls — clone, runLockstep, checkNetlistEquivalence — with a span
 * around each; its verdict counts must equal the runAtpg report.
 */

#include <memory>
#include <set>

#include "analysis/atpg.hh"
#include "analysis/equiv.hh"
#include "harness.hh"
#include "netlist/flexicore_netlist.hh"
#include "netlist/lockstep.hh"
#include "pins.hh"
#include "yield/test_program.hh"

using namespace flexi;

namespace perfbench
{

namespace
{

constexpr IsaKind kCores[2] = {IsaKind::FlexiCore4,
                               IsaKind::FlexiCore8};
constexpr uint64_t kSimCycles = 1500;

/** What one runAtpg check compares. */
struct Verdicts
{
    size_t faults = 0, simDetected = 0, testable = 0, redundant = 0;
    uint64_t solves = 0, conflicts = 0;

    bool
    operator==(const Verdicts &o) const
    {
        return faults == o.faults && simDetected == o.simDetected &&
               testable == o.testable && redundant == o.redundant &&
               solves == o.solves && conflicts == o.conflicts;
    }
};

Verdicts
verdictsOf(const AtpgReport &r)
{
    return {r.faults, r.simDetected, r.testable, r.redundant, r.solves,
            r.conflicts};
}

/** The fault list runAtpg examines (its strided sampling rule). */
std::vector<StuckFault>
faultList(const Netlist &golden, size_t max_faults)
{
    const std::vector<CellInst> &cells = golden.cells();
    size_t universe = cells.size() * 2;
    size_t count = max_faults && max_faults < universe ? max_faults
                                                       : universe;
    std::vector<StuckFault> faults;
    for (size_t i = 0; i < count; ++i) {
        size_t idx = i * universe / count;
        faults.push_back({cells[idx / 2].output, (idx & 1) != 0});
    }
    return faults;
}

/**
 * Independent check: every simDetected verdict of @p rep against a
 * lane-parallel runLockstepGroup of the same faults (one lane per
 * fault, up to 512 to a group).
 */
bool
lanesAgree(const Netlist &golden, IsaKind isa, const Program &prog,
           const std::vector<uint8_t> &inputs,
           const std::vector<StuckFault> &faults, const AtpgReport &rep)
{
    std::set<std::pair<NetId, bool>> escaped;
    for (const AtpgFault &f : rep.escapes)
        escaped.insert({f.fault.net, f.fault.value});
    size_t detected = 0;
    bool ok = rep.faults == faults.size();
    for (size_t begin = 0; begin < faults.size();
         begin += LaneGroup::kMaxLanes) {
        unsigned lanes = static_cast<unsigned>(std::min<size_t>(
            LaneGroup::kMaxLanes, faults.size() - begin));
        LaneGroup group(golden, lanes);
        for (unsigned l = 0; l < lanes; ++l)
            group.injectFault(l, faults[begin + l]);
        LockstepGroupResult res = runLockstepGroup(
            group, golden, isa, prog, inputs, kSimCycles, true);
        for (unsigned l = 0; l < lanes; ++l) {
            const StuckFault &f = faults[begin + l];
            bool det = res.errors[l] > 0;
            detected += det;
            ok = ok && det != escaped.count({f.net, f.value});
        }
    }
    return ok && detected == rep.simDetected;
}

/** Per-layer record of the traced operations. */
struct GradeTrace
{
    double clone = 0, scalar = 0, sat = 0;
    uint64_t scalarCycles = 0, scalarRuns = 0, faults = 0;
    uint64_t solves = 0, conflicts = 0, escapes = 0, testable = 0,
             redundant = 0;
    std::vector<double> tracedOps, untracedOps, unaccounted;
};

/** runAtpg's per-fault loop, one span per layer call. */
Verdicts
atpgReplica(const Netlist &golden, IsaKind isa, const Program &prog,
            const std::vector<uint8_t> &inputs,
            const std::vector<StuckFault> &faults, GradeTrace &tr)
{
    Verdicts v;
    v.faults = faults.size();
    Laps laps;
    laps.start();
    for (const StuckFault &f : faults) {
        std::unique_ptr<Netlist> faulty = golden.clone();
        faulty->injectFault(f);
        laps.lap(tr.clone);
        LockstepResult sim =
            runLockstep(*faulty, isa, prog, inputs, kSimCycles);
        ++tr.scalarRuns;
        tr.scalarCycles += sim.cycles;
        laps.lap(tr.scalar);
        if (sim.errors > 0) {
            ++v.simDetected;
            continue;
        }
        faulty->reset();
        EquivResult eq = checkNetlistEquivalence(golden, *faulty);
        v.solves += eq.solves;
        v.conflicts += eq.conflicts;
        v.redundant += eq.proven;
        v.testable += !eq.proven && eq.hasCex;
        laps.lap(tr.sat);
    }
    tr.faults += v.faults;
    tr.solves += v.solves;
    tr.conflicts += v.conflicts;
    tr.escapes += v.faults - v.simDetected;
    tr.testable += v.testable;
    tr.redundant += v.redundant;
    return v;
}

} // namespace

Outcome
runFaultGrade(const Options &opt)
{
    Outcome out;
    const uint64_t base = seedOf(opt, kFaultDefaultSeed);
    const bool pinned = base == kFaultDefaultSeed && !opt.tiny;
    const unsigned seeds = opt.tiny ? 1 : kFaultSeeds;
    const size_t max_faults = opt.tiny ? 48 : 0;

    // Set-up: both netlists, every test program and stimulus.
    auto build = [](IsaKind isa) {
        return isa == IsaKind::FlexiCore4 ? buildFlexiCore4Netlist()
                                          : buildFlexiCore8Netlist();
    };
    double setup = setupSeconds([&] {
        for (IsaKind isa : kCores) {
            auto nl = build(isa);
            for (unsigned i = 0; i < seeds; ++i) {
                Program p = makeTestProgram(isa, base + i);
                auto in = makeTestInputs(isa, 256, base + i);
            }
        }
    }, 31);
    std::unique_ptr<Netlist> golden[2] = {build(kCores[0]),
                                          build(kCores[1])};
    std::vector<Program> progs[2];
    std::vector<std::vector<uint8_t>> inputs[2];
    std::vector<StuckFault> faults[2];
    for (unsigned c = 0; c < 2; ++c) {
        for (unsigned i = 0; i < seeds; ++i) {
            progs[c].push_back(makeTestProgram(kCores[c], base + i));
            inputs[c].push_back(
                makeTestInputs(kCores[c], 256, base + i));
        }
        faults[c] = faultList(*golden[c], max_faults);
    }

    std::map<std::pair<unsigned, unsigned>, Verdicts> reference;
    std::vector<double> op_s;
    GradeTrace tr;
    const double t_end = now() + opt.seconds;
    for (unsigned k = 0; k == 0 || now() < t_end; ++k) {
        const unsigned i = k % seeds;
        AtpgReport rep[2];
        double t = timed([&] {
            for (unsigned c = 0; c < 2; ++c) {
                AtpgConfig a;
                a.isa = kCores[c];
                a.simCycles = kSimCycles;
                a.maxFaults = max_faults;
                a.threads = kThreads;
                rep[c] = runAtpg(a, progs[c][i], inputs[c][i]);
            }
        });
        (opt.trace ? tr.untracedOps : op_s).push_back(t);

        bool ok = true;
        for (unsigned c = 0; c < 2; ++c) {
            Verdicts v = verdictsOf(rep[c]);
            if (k == 0 && c == 0 && opt.corrupt) {
                // Corrupt the report the lane check reads as well.
                ++rep[c].simDetected;
                ++v.simDetected;
            }
            auto key = std::make_pair(c, i);
            if (pinned) {
                const unsigned *p = kFaultVerdicts[c][i];
                ok = ok && v.faults == faults[c].size() &&
                     v.simDetected == p[0] && v.testable == p[1] &&
                     v.redundant == p[2];
            } else if (!reference.count(key)) {
                ok = ok && lanesAgree(*golden[c], kCores[c],
                                      progs[c][i], inputs[c][i],
                                      faults[c], rep[c]);
                reference[key] = v;
            } else {
                ok = ok && v == reference[key];
            }
            if (opt.dumpPins && k < seeds)
                out.notes.push_back(
                    "pin verdicts " + std::to_string(c) + " " +
                    std::to_string(i) + " {" +
                    std::to_string(v.simDetected) + ", " +
                    std::to_string(v.testable) + ", " +
                    std::to_string(v.redundant) + "}");
        }
        out.check(ok, "runAtpg, test-program seed " +
                          std::to_string(base + i));

        if (opt.trace) {
            GradeTrace before = tr;
            bool same = true;
            double traced = timed([&] {
                for (unsigned c = 0; c < 2; ++c)
                    same = atpgReplica(*golden[c], kCores[c],
                                       progs[c][i], inputs[c][i],
                                       faults[c], tr) ==
                               verdictsOf(rep[c]) &&
                           same;
            });
            tr.tracedOps.push_back(traced);
            tr.unaccounted.push_back(
                traced - ((tr.clone - before.clone) +
                          (tr.scalar - before.scalar) +
                          (tr.sat - before.sat)));
            out.check(same, "ATPG replica vs runAtpg report");
        }
    }

    if (!opt.trace) {
        reportEndToEnd(out, setup, op_s);
        return out;
    }
    const double n = static_cast<double>(tr.tracedOps.size());
    out.set("netlist.clone_s", tr.clone / n, "s");
    out.set("netlist.scalar_s", tr.scalar / n, "s");
    out.set("netlist.scalar_die_cycles", tr.scalarCycles / n, "count");
    out.set("netlist.scalar_runs_per_fault",
            static_cast<double>(tr.scalarRuns) / tr.faults, "count");
    out.set("analysis.sat_s", tr.sat / n, "s");
    out.set("analysis.sat_solves", tr.solves / n, "count");
    out.set("analysis.sat_conflicts", tr.conflicts / n, "count");
    out.set("analysis.escapes", tr.escapes / n, "count");
    out.set("analysis.testable", tr.testable / n, "count");
    out.set("analysis.redundant", tr.redundant / n, "count");
    reportTraceOverhead(out, tr.tracedOps, tr.untracedOps,
                        tr.unaccounted);
    return out;
}

} // namespace perfbench
