#include "checkpoint.hh"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/logging.hh"

namespace flexi
{

namespace
{

constexpr uint8_t kMagic[4] = {'F', 'L', 'F', 'T'};

/** Little-endian byte-stream writer. */
struct Writer
{
    std::vector<uint8_t> bytes;

    void u8(uint8_t v) { bytes.push_back(v); }
    void
    u32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            bytes.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            bytes.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
    void
    f64(double v)
    {
        uint64_t b;
        static_assert(sizeof(b) == sizeof(v), "double is 64-bit");
        std::memcpy(&b, &v, sizeof(b));
        u64(b);
    }
    void
    blob(const std::vector<uint8_t> &v)
    {
        u32(static_cast<uint32_t>(v.size()));
        bytes.insert(bytes.end(), v.begin(), v.end());
    }
};

/** Fail-closed little-endian reader. */
struct Reader
{
    const uint8_t *p;
    size_t left;

    void
    need(size_t n) const
    {
        if (left < n)
            fatal("fleet checkpoint: truncated (needed %zu more "
                  "bytes, %zu left)", n, left);
    }
    uint8_t
    u8()
    {
        need(1);
        --left;
        return *p++;
    }
    uint32_t
    u32()
    {
        need(4);
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>(*p++) << (8 * i);
        left -= 4;
        return v;
    }
    uint64_t
    u64()
    {
        need(8);
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(*p++) << (8 * i);
        left -= 8;
        return v;
    }
    double
    f64()
    {
        uint64_t b = u64();
        double v;
        std::memcpy(&v, &b, sizeof(v));
        return v;
    }
    std::vector<uint8_t>
    blob(size_t maxSize)
    {
        uint32_t n = u32();
        if (n > maxSize)
            fatal("fleet checkpoint: blob of %u bytes exceeds the "
                  "%zu-byte bound", n, maxSize);
        need(n);
        std::vector<uint8_t> v(p, p + n);
        p += n;
        left -= n;
        return v;
    }
};

void
encodeConfig(Writer &w, const FleetConfig &c)
{
    w.u8(static_cast<uint8_t>(c.isa));
    w.u64(c.seed);
    w.u32(c.numDies);
    w.u32(c.epochs);
    w.u8(static_cast<uint8_t>(c.kernel));
    w.u32(c.fc8Program);
    w.u64(c.workUnits);
    w.f64(c.transientsPerEpoch);
    w.f64(c.flipsPerEpoch);
    w.u8(c.detectors.lockstep);
    w.u8(c.detectors.outputCrc);
    w.u8(c.detectors.watchdog);
    w.u64(c.detectors.watchdogCycles);
    w.u8(c.recovery.enabled);
    w.u32(c.recovery.checkpointInstructions);
    w.u32(c.recovery.maxRetries);
    w.u8(c.recovery.allowRestart);
    w.u32(c.maxRepages);
    w.u64(c.maxInstructions);
    w.u32(c.threads);
    w.f64(c.vdd);
    w.u32(c.minKernels);
}

FleetConfig
decodeConfig(Reader &r)
{
    FleetConfig c;
    uint8_t isa = r.u8();
    if (isa != static_cast<uint8_t>(IsaKind::FlexiCore4) &&
        isa != static_cast<uint8_t>(IsaKind::FlexiCore8))
        fatal("fleet checkpoint: bad ISA tag %u", isa);
    c.isa = static_cast<IsaKind>(isa);
    c.seed = r.u64();
    c.numDies = r.u32();
    c.epochs = r.u32();
    uint8_t kernel = r.u8();
    if (kernel >= static_cast<uint8_t>(KernelId::NumKernels))
        fatal("fleet checkpoint: bad kernel tag %u", kernel);
    c.kernel = static_cast<KernelId>(kernel);
    c.fc8Program = r.u32();
    c.workUnits = r.u64();
    c.transientsPerEpoch = r.f64();
    c.flipsPerEpoch = r.f64();
    c.detectors.lockstep = r.u8();
    c.detectors.outputCrc = r.u8();
    c.detectors.watchdog = r.u8();
    c.detectors.watchdogCycles = r.u64();
    c.recovery.enabled = r.u8();
    c.recovery.checkpointInstructions = r.u32();
    c.recovery.maxRetries = r.u32();
    c.recovery.allowRestart = r.u8();
    c.maxRepages = r.u32();
    c.maxInstructions = r.u64();
    c.threads = r.u32();
    c.vdd = r.f64();
    c.minKernels = r.u32();
    // Same bounds as the command line: a checkpoint is outside input.
    auto inRange = [](double x, double lo, double hi) {
        return std::isfinite(x) && x >= lo && x <= hi;
    };
    if (!inRange(c.transientsPerEpoch, 0, kMaxFaultsPerEpoch) ||
        !inRange(c.flipsPerEpoch, 0, kMaxFaultsPerEpoch))
        fatal("fleet checkpoint: fault rates %g/%g outside 0..%g",
              c.transientsPerEpoch, c.flipsPerEpoch,
              kMaxFaultsPerEpoch);
    if (!std::isfinite(c.vdd) || c.vdd <= 0)
        fatal("fleet checkpoint: bad supply voltage %g", c.vdd);
    return c;
}

} // namespace

uint32_t
crc32(uint32_t crc, const uint8_t *bytes, size_t n)
{
    crc = ~crc;
    for (size_t i = 0; i < n; ++i) {
        crc ^= bytes[i];
        for (int b = 0; b < 8; ++b)
            crc = (crc >> 1) ^ (0xEDB88320u & (~(crc & 1u) + 1u));
    }
    return ~crc;
}

std::vector<uint8_t>
encodeFleetState(const FleetState &state)
{
    Writer w;
    w.bytes.insert(w.bytes.end(), kMagic, kMagic + 4);
    w.u32(kFleetCheckpointVersion);
    encodeConfig(w, state.config);

    w.u32(state.epochsDone);
    w.u64(state.deaths);

    w.u32(static_cast<uint32_t>(state.dies.size()));
    for (const FleetDie &d : state.dies) {
        w.u32(d.poolIndex);
        w.u8(static_cast<uint8_t>(d.bin));
        w.u8(d.alive);
        w.u32(d.repages);
        w.u32(d.epochsRun);
        for (uint32_t n : d.outcomes)
            w.u32(n);
        w.u64(d.lifeCycles);
        w.u64(d.digest);
        w.u32(d.dffCount);
        w.blob(d.dffBits);
    }

    w.u32(static_cast<uint32_t>(state.epochOutcomes.size()));
    for (const auto &row : state.epochOutcomes)
        for (uint64_t n : row)
            w.u64(n);
    for (const auto &row : state.binOutcomes)
        for (uint64_t n : row)
            w.u64(n);

    uint32_t crc = crc32(0, w.bytes.data(), w.bytes.size());
    w.u32(crc);
    return w.bytes;
}

FleetState
decodeFleetState(const std::vector<uint8_t> &bytes)
{
    if (bytes.size() < 12)
        fatal("fleet checkpoint: file too short (%zu bytes)",
              bytes.size());
    uint32_t stored = 0;
    for (int i = 0; i < 4; ++i)
        stored |= static_cast<uint32_t>(bytes[bytes.size() - 4 + i])
                  << (8 * i);
    uint32_t actual = crc32(0, bytes.data(), bytes.size() - 4);
    if (stored != actual)
        fatal("fleet checkpoint: CRC mismatch (stored %08x, "
              "computed %08x) — the file is corrupt", stored,
              actual);

    Reader r{bytes.data(), bytes.size() - 4};
    uint8_t magic[4];
    for (auto &m : magic)
        m = r.u8();
    if (std::memcmp(magic, kMagic, 4) != 0)
        fatal("fleet checkpoint: bad magic (not a FLFT file)");
    uint32_t version = r.u32();
    if (version != kFleetCheckpointVersion)
        fatal("fleet checkpoint: unsupported format version %u "
              "(this build reads version %u)", version,
              kFleetCheckpointVersion);

    FleetState state;
    state.config = decodeConfig(r);
    state.epochsDone = r.u32();
    state.deaths = r.u64();

    uint32_t numDies = r.u32();
    if (numDies != state.config.numDies)
        fatal("fleet checkpoint: %u die records for a %u-die "
              "campaign", numDies, state.config.numDies);
    if (state.epochsDone > state.config.epochs)
        fatal("fleet checkpoint: epochsDone %u exceeds the %u-epoch "
              "campaign", state.epochsDone, state.config.epochs);
    state.dies.resize(numDies);
    for (FleetDie &d : state.dies) {
        d.poolIndex = r.u32();
        uint8_t bin = r.u8();
        if (bin > static_cast<uint8_t>(DieBin::Dead))
            fatal("fleet checkpoint: bad die bin %u", bin);
        d.bin = static_cast<DieBin>(bin);
        d.alive = r.u8() != 0;
        d.repages = r.u32();
        d.epochsRun = r.u32();
        for (uint32_t &n : d.outcomes)
            n = r.u32();
        d.lifeCycles = r.u64();
        d.digest = r.u64();
        d.dffCount = r.u32();
        d.dffBits = r.blob((d.dffCount + 7) / 8);
        if (d.dffBits.size() != (d.dffCount + 7) / 8)
            fatal("fleet checkpoint: die state holds %zu bytes for "
                  "%u DFFs", d.dffBits.size(), d.dffCount);
    }

    uint32_t epochs = r.u32();
    if (epochs != state.config.epochs)
        fatal("fleet checkpoint: %u histogram rows for a %u-epoch "
              "campaign", epochs, state.config.epochs);
    state.epochOutcomes.resize(epochs);
    for (auto &row : state.epochOutcomes)
        for (uint64_t &n : row)
            n = r.u64();
    for (auto &row : state.binOutcomes)
        for (uint64_t &n : row)
            n = r.u64();

    if (r.left != 0)
        fatal("fleet checkpoint: %zu bytes of trailing garbage",
              r.left);
    return state;
}

void
saveFleetCheckpoint(const FleetState &state, const std::string &path)
{
    std::vector<uint8_t> bytes = encodeFleetState(state);
    std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        fatal("fleet checkpoint: cannot write '%s'", tmp.c_str());
    size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
    bool flushed = std::fflush(f) == 0;
    std::fclose(f);
    if (written != bytes.size() || !flushed) {
        std::remove(tmp.c_str());
        fatal("fleet checkpoint: short write to '%s'", tmp.c_str());
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        fatal("fleet checkpoint: cannot rename '%s' into place",
              tmp.c_str());
    }
}

FleetState
loadFleetCheckpoint(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        fatal("fleet checkpoint: cannot open '%s'", path.c_str());
    std::vector<uint8_t> bytes;
    uint8_t buf[65536];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + n);
    bool readError = std::ferror(f);
    std::fclose(f);
    if (readError)
        fatal("fleet checkpoint: read error on '%s'", path.c_str());
    return decodeFleetState(bytes);
}

} // namespace flexi
