/**
 * @file
 * fleet_life: one field-fleet lifecycle campaign at field fault
 * pressure with recovery on (bench_fleet's recover-policy curve).
 *
 * One operation = construct a FleetEngine (wafer study + salvage
 * binning), init() the deployed population, run every epoch with a
 * checkpoint written after each, then read the checkpoint back with
 * loadFleetCheckpoint and check its fleetDigest. Operations cycle
 * through kFleetSeeds consecutive campaign seeds, whose cost differs
 * by tens of percent.
 *
 * The traced operation drives the same campaign one epoch at a time
 * (run(state, e + 1)) and encodes, writes and reads the checkpoint
 * itself, with a span around each call. The salvage study is then
 * re-run from the SalvageConfig the engine derives and must
 * reproduce engine.salvage() bin for bin.
 */

#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <map>
#include <thread>

#include "assembler/assembler.hh"
#include "fleet/checkpoint.hh"
#include "fleet/fleet.hh"
#include "harness.hh"
#include "kernels/inputs.hh"
#include "kernels/kernels.hh"
#include "netlist/flexicore_netlist.hh"
#include "pins.hh"

using namespace flexi;

namespace perfbench
{

namespace
{

FleetConfig
curveConfig(uint64_t seed, bool tiny)
{
    FleetConfig cfg;
    cfg.isa = IsaKind::FlexiCore4;
    cfg.seed = seed;
    cfg.numDies = tiny ? 256 : 4096;
    cfg.epochs = tiny ? 3 : 4;
    cfg.workUnits = 1;
    cfg.transientsPerEpoch = 0.15;
    cfg.flipsPerEpoch = 0.05;
    cfg.maxInstructions = 8000;
    cfg.threads = kThreads;
    return cfg;
}

/** The SalvageConfig FleetEngine derives from its FleetConfig. */
SalvageConfig
salvageConfigOf(const FleetConfig &cfg)
{
    SalvageConfig sc;
    sc.study.isa = cfg.isa;
    sc.study.seed = cfg.seed;
    sc.study.threads = cfg.threads;
    sc.vdd = cfg.vdd;
    sc.detectors = cfg.detectors;
    sc.recovery = cfg.recovery;
    sc.minKernels = cfg.minKernels;
    return sc;
}

bool
fileExists(const std::string &path)
{
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0;
}

/**
 * Independent check: a campaign killed (SIGKILL) in the middle of an
 * epoch and resumed from its last checkpoint ends on the digest the
 * uninterrupted campaign reports. Sets @p digest to the resumed
 * campaign's; false when no kill landed mid-campaign.
 */
bool
killResumeDigest(const FleetConfig &cfg, const std::string &path,
                 uint64_t &digest)
{
    for (int attempt = 0; attempt < 5; ++attempt) {
        std::remove(path.c_str());
        std::fflush(nullptr);
        pid_t child = fork();
        if (child < 0)
            return false;
        if (child == 0) {
            try {
                FleetEngine engine(cfg);
                FleetState st = engine.init();
                engine.run(st, 0, path);
            } catch (...) {
                _exit(1);
            }
            _exit(0);
        }
        // Kill as soon as the first checkpoint lands: the child is
        // then inside epoch 2.
        bool reaped = false;
        while (!fileExists(path) && !reaped) {
            reaped = waitpid(child, nullptr, WNOHANG) == child;
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        if (!reaped) {
            kill(child, SIGKILL);
            waitpid(child, nullptr, 0);
        }
        if (!fileExists(path))
            continue;
        FleetState st = loadFleetCheckpoint(path);
        if (st.epochsDone >= cfg.epochs)
            continue;   // finished before the kill: try again
        FleetEngine engine(st.config);
        engine.run(st, 0, path);
        digest = fleetDigest(st);
        return true;
    }
    return false;
}

/** Per-layer record of the traced operations. */
struct FleetTrace
{
    double engine = 0, epoch = 0, encode = 0, write = 0, read = 0;
    double salvage = 0;
    uint64_t missions = 0, deaths = 0, nonMasked = 0, bytes = 0;
    uint64_t salvaged = 0, dead = 0;
    std::vector<double> tracedOps, untracedOps, unaccounted;
};

uint64_t
tracedCampaign(const FleetConfig &cfg, const std::string &path,
               FleetTrace &tr)
{
    double engine = 0, epoch = 0, encode = 0, write = 0, read = 0;
    Laps laps;
    double t0 = now();
    laps.start();
    FleetEngine eng(cfg);
    FleetState st = eng.init();
    laps.lap(engine);
    for (uint32_t e = 0; e < cfg.epochs; ++e) {
        eng.run(st, e + 1);
        laps.lap(epoch);
        std::vector<uint8_t> bytes = encodeFleetState(st);
        laps.lap(encode);
        saveFleetCheckpoint(st, path);
        laps.lap(write);
    }
    FleetState loaded = loadFleetCheckpoint(path);
    laps.lap(read);
    double op = now() - t0;
    tr.engine += engine;
    tr.epoch += epoch;
    tr.encode += encode;
    tr.write += write;
    tr.read += read;
    tr.tracedOps.push_back(op);
    tr.unaccounted.push_back(op -
                             (engine + epoch + encode + write + read));
    return fleetDigest(loaded);
}

} // namespace

Outcome
runFleetLife(const Options &opt)
{
    Outcome out;
    const uint64_t base = seedOf(opt, kFleetDefaultSeed);
    const bool pinned = base == kFleetDefaultSeed && !opt.tiny;
    const unsigned seeds = opt.tiny ? 1 : kFleetSeeds;
    const std::string ckpt = opt.workdir + "/fleet_life.flft";
    const std::string killed = opt.workdir + "/fleet_life_kill.flft";

    // Set-up: the deployed core's netlist, the kernel image and the
    // epoch stimulus — the inputs every operation's engine builds.
    const FleetConfig first = curveConfig(base, opt.tiny);
    double setup = setupSeconds([&] {
        auto nl = buildFlexiCore4Netlist();
        Program p = assemble(first.isa,
                             kernelSource(first.kernel, first.isa));
        for (uint32_t e = 0; e < first.epochs; ++e)
            auto in = kernelInputs(first.kernel, first.workUnits, e);
    }, 31);
    {
        // Warm the library's lazy statics with an untimed campaign.
        FleetEngine warm(first);
    }

    std::map<unsigned, uint64_t> reference;
    std::vector<double> op_s;
    FleetTrace tr;
    const double t_end = now() + opt.seconds;
    for (unsigned k = 0; k == 0 || now() < t_end; ++k) {
        const unsigned i = k % seeds;
        const FleetConfig cfg = curveConfig(base + i, opt.tiny);
        FleetState st, loaded;
        double t = timed([&] {
            FleetEngine engine(cfg);
            st = engine.init();
            engine.run(st, 0, ckpt);
            loaded = loadFleetCheckpoint(ckpt);
        });
        (opt.trace ? tr.untracedOps : op_s).push_back(t);

        if (k == 0 && opt.corrupt)
            loaded.dies[0].digest ^= 1;
        uint64_t digest = fleetDigest(loaded);
        bool ok = digest == fleetDigest(st) &&
                  encodeFleetState(loaded) == encodeFleetState(st) &&
                  st.epochsDone == cfg.epochs;
        if (pinned) {
            reference[i] = kFleetDigests[i];
        } else if (!reference.count(i)) {
            uint64_t resumed = 0;
            ok = killResumeDigest(cfg, killed, resumed) && ok;
            reference[i] = resumed;
        }
        ok = ok && digest == reference[i];
        if (opt.dumpPins && k < seeds)
            out.notes.push_back("pin fleet digest " + std::to_string(i) +
                                " " + std::to_string(digest) + "ull");
        out.check(ok, "fleet digest, seed " + std::to_string(cfg.seed));

        if (opt.trace) {
            out.check(tracedCampaign(cfg, ckpt, tr) == reference[i],
                      "traced fleet campaign digest");
            // Salvage replica: bin for bin against the engine's.
            FleetEngine engine(cfg);
            SalvageReport rep;
            tr.salvage += timed(
                [&] { rep = runSalvageStudy(salvageConfigOf(cfg)); });
            const SalvageReport &ref = engine.salvage();
            bool same = rep.dies.size() == ref.dies.size();
            for (size_t d = 0; same && d < rep.dies.size(); ++d)
                same = rep.dies[d].bin == ref.dies[d].bin &&
                       rep.dies[d].passedMask == ref.dies[d].passedMask;
            out.check(same, "salvage replica vs engine.salvage()");
            tr.salvaged += rep.binCount(DieBin::Salvaged, false);
            tr.dead += rep.binCount(DieBin::Dead, false);
            for (const auto &row : st.epochOutcomes) {
                for (size_t o = 0; o < row.size(); ++o) {
                    tr.missions += row[o];
                    if (o != static_cast<size_t>(FaultOutcome::Masked))
                        tr.nonMasked += row[o];
                }
            }
            tr.deaths += st.deaths;
            tr.bytes += encodeFleetState(st).size();
        }
    }
    std::remove(ckpt.c_str());
    std::remove(killed.c_str());

    if (!opt.trace) {
        reportEndToEnd(out, setup, op_s);
        return out;
    }
    const double n = static_cast<double>(tr.tracedOps.size());
    out.set("fleet.engine_s", tr.engine / n, "s");
    out.set("fleet.epoch_s", tr.epoch / n, "s");
    out.set("fleet.ckpt_encode_s", tr.encode / n, "s");
    out.set("fleet.ckpt_write_s", tr.write / n, "s");
    out.set("fleet.ckpt_read_s", tr.read / n, "s");
    out.set("fleet.ckpt_bytes", tr.bytes / n, "bytes");
    out.set("fleet.missions", tr.missions / n, "count");
    out.set("fleet.deaths", tr.deaths / n, "count");
    out.set("fleet.non_masked_missions", tr.nonMasked / n, "count");
    out.set("resilience.salvage_s", tr.salvage / n, "s");
    out.set("resilience.salvaged_dies", tr.salvaged / n, "count");
    out.set("resilience.dead_dies", tr.dead / n, "count");
    reportTraceOverhead(out, tr.tracedOps, tr.untracedOps,
                        tr.unaccounted);
    return out;
}

} // namespace perfbench
