/**
 * @file
 * Unit tests for the field-fleet lifecycle engine and its
 * checkpoint format: thread/batch-lane determinism, kill/resume
 * bit-identity, fail-closed decoding, and the fleet invariants
 * (histogram row sums, escalation-ladder accounting, salvaged-part
 * deployment).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>

#include "common/logging.hh"
#include "fleet/checkpoint.hh"
#include "fleet/fleet.hh"

namespace flexi
{
namespace
{

/** Small, fast campaign shared by most tests. */
FleetConfig
smallConfig()
{
    FleetConfig cfg;
    cfg.isa = IsaKind::FlexiCore4;
    cfg.seed = 7;
    cfg.numDies = 48;
    cfg.epochs = 3;
    cfg.workUnits = 1;
    cfg.transientsPerEpoch = 0.6;
    cfg.flipsPerEpoch = 0.2;
    return cfg;
}

void
expectDieEq(const FleetDie &a, const FleetDie &b, size_t d)
{
    EXPECT_EQ(a.poolIndex, b.poolIndex) << "die " << d;
    EXPECT_EQ(a.bin, b.bin) << "die " << d;
    EXPECT_EQ(a.alive, b.alive) << "die " << d;
    EXPECT_EQ(a.repages, b.repages) << "die " << d;
    EXPECT_EQ(a.epochsRun, b.epochsRun) << "die " << d;
    EXPECT_EQ(a.outcomes, b.outcomes) << "die " << d;
    EXPECT_EQ(a.lifeCycles, b.lifeCycles) << "die " << d;
    EXPECT_EQ(a.digest, b.digest) << "die " << d;
    EXPECT_EQ(a.dffCount, b.dffCount) << "die " << d;
    EXPECT_EQ(a.dffBits, b.dffBits) << "die " << d;
}

void
expectStateEq(const FleetState &a, const FleetState &b)
{
    EXPECT_EQ(a.epochsDone, b.epochsDone);
    EXPECT_EQ(a.deaths, b.deaths);
    ASSERT_EQ(a.dies.size(), b.dies.size());
    for (size_t d = 0; d < a.dies.size(); ++d)
        expectDieEq(a.dies[d], b.dies[d], d);
    EXPECT_EQ(a.epochOutcomes, b.epochOutcomes);
    EXPECT_EQ(a.binOutcomes, b.binOutcomes);
    EXPECT_EQ(fleetDigest(a), fleetDigest(b));
}

/** The structural invariants every finished campaign must satisfy. */
void
checkInvariants(const FleetState &st)
{
    const FleetConfig &cfg = st.config;
    ASSERT_EQ(st.epochOutcomes.size(), st.epochsDone);

    uint64_t dead = 0;
    std::array<uint64_t, kNumFaultOutcomes> total{};
    for (const FleetDie &die : st.dies) {
        if (!die.alive) {
            ++dead;
            // A die is only pulled once its re-page budget is blown
            // (a pull during the final epoch still ran every epoch).
            EXPECT_GT(die.repages, cfg.maxRepages);
            EXPECT_LE(die.epochsRun, cfg.epochs);
        } else {
            EXPECT_LE(die.repages, cfg.maxRepages);
            EXPECT_EQ(die.epochsRun, st.epochsDone);
        }
        uint64_t missions = 0;
        for (size_t o = 0; o < kNumFaultOutcomes; ++o) {
            missions += die.outcomes[o];
            total[o] += die.outcomes[o];
        }
        EXPECT_EQ(missions, die.epochsRun);
        if (die.epochsRun) {
            EXPECT_GT(die.dffCount, 0u);
            EXPECT_EQ(die.dffBits.size(), (die.dffCount + 7) / 8);
            EXPECT_GT(die.lifeCycles, 0u);
        }
    }
    EXPECT_EQ(st.deaths, dead);
    EXPECT_EQ(st.aliveDies(), st.dies.size() - dead);

    // Epoch rows sum to the dies that ran that epoch (monotonically
    // non-increasing: pulled dies stop contributing), and the rows
    // together account for every mission.
    uint64_t prevRan = st.dies.size();
    std::array<uint64_t, kNumFaultOutcomes> rowTotal{};
    for (const auto &row : st.epochOutcomes) {
        uint64_t ran = 0;
        for (size_t o = 0; o < kNumFaultOutcomes; ++o) {
            ran += row[o];
            rowTotal[o] += row[o];
        }
        EXPECT_LE(ran, prevRan);
        prevRan = ran;
    }
    EXPECT_EQ(rowTotal, total);

    // Bin histograms partition the same missions.
    std::array<uint64_t, kNumFaultOutcomes> binTotal{};
    for (const auto &row : st.binOutcomes)
        for (size_t o = 0; o < kNumFaultOutcomes; ++o)
            binTotal[o] += row[o];
    EXPECT_EQ(binTotal, total);

    for (uint32_t e = 0; e < st.epochsDone; ++e) {
        EXPECT_GE(st.availability(e), 0.0);
        EXPECT_LE(st.availability(e), 1.0);
        EXPECT_GE(st.sdcRate(e), 0.0);
    }
}

TEST(Fleet, ThreadCountDoesNotChangeAnything)
{
    FleetConfig cfg = smallConfig();
    FleetEngine engine(cfg);
    FleetState ref = engine.init();
    engine.run(ref);
    checkInvariants(ref);

    for (unsigned threads : {1u, 2u, 3u}) {
        FleetConfig c = cfg;
        c.threads = threads;
        FleetEngine eng(c);
        FleetState st = eng.init();
        eng.run(st);
        expectStateEq(ref, st);
    }
}

TEST(Fleet, PopulationDeploysSalvagedParts)
{
    // The economics argument needs salvaged parts in the field: the
    // seed-7 wafer bins salvaged dies that qualify for the deployed
    // kernel, and the with-replacement draw picks them up.
    FleetConfig cfg = smallConfig();
    FleetEngine engine(cfg);
    const SalvageReport &rep = engine.salvage();
    EXPECT_GT(rep.binCount(DieBin::Salvaged, true), 0u);

    FleetState st = engine.init();
    size_t salvaged = 0;
    for (const FleetDie &die : st.dies)
        salvaged += die.bin == DieBin::Salvaged;
    EXPECT_GT(salvaged, 0u);
    EXPECT_LT(salvaged, st.dies.size());

    engine.run(st);
    uint64_t salvagedMissions = 0;
    for (uint64_t n : st.binOutcomes[1])
        salvagedMissions += n;
    EXPECT_GT(salvagedMissions, 0u);
}

TEST(Fleet, EscalationLadderPullsDies)
{
    // Saturating fault pressure against a zero re-page budget: the
    // ladder must actually retire dies, and the accounting must hold.
    FleetConfig cfg = smallConfig();
    cfg.numDies = 32;
    cfg.transientsPerEpoch = 8.0;
    cfg.flipsPerEpoch = 2.0;
    cfg.recovery.maxRetries = 1;
    cfg.recovery.allowRestart = false;
    cfg.maxRepages = 0;
    FleetEngine engine(cfg);
    FleetState st = engine.init();
    engine.run(st);
    checkInvariants(st);
    EXPECT_GT(st.deaths, 0u);
    EXPECT_LT(st.availability(cfg.epochs - 1),
              st.availability(0) + 1e-12);
}

TEST(Fleet, CheckpointRoundTripIsExact)
{
    FleetConfig cfg = smallConfig();
    FleetEngine engine(cfg);
    FleetState st = engine.init();
    engine.run(st, 2);

    std::vector<uint8_t> bytes = encodeFleetState(st);
    FleetState back = decodeFleetState(bytes);
    expectStateEq(st, back);

    // Re-encoding the decoded state is byte-identical (canonical
    // serialization).
    EXPECT_EQ(bytes, encodeFleetState(back));
}

TEST(Fleet, KillAndResumeIsBitIdentical)
{
    FleetConfig cfg = smallConfig();
    FleetEngine engine(cfg);
    FleetState full = engine.init();
    engine.run(full);

    // Stop after epoch 1, serialize, forget everything, rebuild the
    // engine from the stored config, run the rest.
    FleetState part = engine.init();
    engine.run(part, 1);
    EXPECT_EQ(part.epochsDone, 1u);
    std::vector<uint8_t> bytes = encodeFleetState(part);

    FleetState resumed = decodeFleetState(bytes);
    FleetEngine fresh(resumed.config);
    // The thread count may change across the resume boundary.
    resumed.config.threads = 1;
    fresh.run(resumed);
    expectStateEq(full, resumed);
}

TEST(Fleet, CheckpointFailsClosed)
{
    FleetConfig cfg = smallConfig();
    cfg.numDies = 8;
    cfg.epochs = 2;
    FleetEngine engine(cfg);
    FleetState st = engine.init();
    engine.run(st, 1);
    std::vector<uint8_t> bytes = encodeFleetState(st);

    // Any single corrupted byte trips the CRC (or an earlier
    // structural check) — sample positions across the image.
    for (size_t pos : {size_t(0), size_t(5), bytes.size() / 2,
                       bytes.size() - 3}) {
        std::vector<uint8_t> bad = bytes;
        bad[pos] ^= 0x40;
        EXPECT_THROW(decodeFleetState(bad), FatalError)
            << "corrupt byte at " << pos;
    }

    // Truncation at every interesting boundary.
    for (size_t n : {size_t(0), size_t(3), size_t(7),
                     bytes.size() / 3, bytes.size() - 1}) {
        std::vector<uint8_t> bad(bytes.begin(), bytes.begin() + n);
        EXPECT_THROW(decodeFleetState(bad), FatalError)
            << "truncated to " << n;
    }

    // Trailing garbage is not ignored.
    std::vector<uint8_t> bad = bytes;
    bad.push_back(0);
    EXPECT_THROW(decodeFleetState(bad), FatalError);

    // A CRC-valid image whose fault rates the command line would
    // reject (non-finite, above the cap) or whose supply voltage is
    // not a positive finite number fails closed too.
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (double rate : {inf, nan, -1.0, kMaxFaultsPerEpoch + 1}) {
        FleetState t = st;
        t.config.transientsPerEpoch = rate;
        EXPECT_THROW(decodeFleetState(encodeFleetState(t)), FatalError)
            << "transients " << rate;
        FleetState f = st;
        f.config.flipsPerEpoch = rate;
        EXPECT_THROW(decodeFleetState(encodeFleetState(f)), FatalError)
            << "flips " << rate;
    }
    for (double vdd : {inf, nan, 0.0}) {
        FleetState v = st;
        v.config.vdd = vdd;
        EXPECT_THROW(decodeFleetState(encodeFleetState(v)), FatalError)
            << "vdd " << vdd;
    }

    // An unreadable path fails loudly, never a fresh state.
    EXPECT_THROW(loadFleetCheckpoint("/nonexistent/fleet.ckpt"),
                 FatalError);
}

TEST(Fleet, CheckpointFileRoundTrip)
{
    FleetConfig cfg = smallConfig();
    cfg.numDies = 8;
    cfg.epochs = 2;
    FleetEngine engine(cfg);
    FleetState st = engine.init();
    engine.run(st, 1);

    std::string path = testing::TempDir() + "fleet_rt.ckpt";
    saveFleetCheckpoint(st, path);
    FleetState back = loadFleetCheckpoint(path);
    expectStateEq(st, back);
    std::remove(path.c_str());
}

TEST(Fleet, Fc8FleetRunsAndIsDeterministic)
{
    FleetConfig cfg;
    cfg.isa = IsaKind::FlexiCore8;
    cfg.seed = 9;
    cfg.numDies = 16;
    cfg.epochs = 2;
    cfg.fc8Program = 0;
    cfg.workUnits = 1;
    FleetEngine engine(cfg);
    FleetState a = engine.init();
    engine.run(a);
    checkInvariants(a);

    FleetConfig c2 = cfg;
    c2.threads = 1;
    FleetEngine e2(c2);
    FleetState b = e2.init();
    e2.run(b);
    expectStateEq(a, b);
}

} // namespace
} // namespace flexi
