/**
 * @file
 * Versioned, checksummed fleet-campaign checkpoint files.
 *
 * The fleet engine writes its whole FleetState — campaign
 * configuration, per-die lifecycle records with their bit-packed
 * end-of-mission DFF states, histograms and digests — after every
 * epoch, so a killed campaign resumes bit-identically from disk.
 *
 * On-disk layout (all integers little-endian):
 *
 *   offset  size  field
 *   0       4     magic "FLFT"
 *   4       4     format version (kFleetCheckpointVersion; 2 dropped
 *                 version 1's prescreen-width field, so a version-1
 *                 file fails closed)
 *   8       ...   campaign configuration (fixed field order)
 *   ...     ...   epochsDone, deaths, per-die records, epoch and
 *                 bin outcome histograms
 *   end-4   4     CRC-32 (poly 0xEDB88320, reflected) over every
 *                 preceding byte
 *
 * Resume invariants:
 *  - loadFleetCheckpoint() fails closed (FatalError) on a short
 *    file, bad magic, unknown version, trailing garbage, any
 *    truncated record, out-of-range enum value, fault rate or
 *    supply voltage, or CRC mismatch — a corrupt checkpoint can
 *    never silently yield a fresh state.
 *  - The configuration is authoritative: resume rebuilds the
 *    engine (wafer + salvage studies, population pool) from the
 *    stored config, so only the path needs to be remembered.
 *  - Writes are atomic (tmp file + rename): a crash mid-write
 *    leaves the previous checkpoint intact.
 *  - Everything that feeds the campaign's remaining epochs lives in
 *    the file (the per-(die, epoch) RNG streams are counter-keyed,
 *    so epochsDone *is* the RNG cursor); a resumed run is therefore
 *    bit-identical to an uninterrupted one at any thread count.
 */

#ifndef FLEXI_FLEET_CHECKPOINT_HH
#define FLEXI_FLEET_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/fleet.hh"

namespace flexi
{

constexpr uint32_t kFleetCheckpointVersion = 2;

/** CRC-32 (IEEE, poly 0xEDB88320), @p crc seeded with 0. */
uint32_t crc32(uint32_t crc, const uint8_t *bytes, size_t n);

/** Serialize @p state to the checkpoint byte format. */
std::vector<uint8_t> encodeFleetState(const FleetState &state);

/** Parse a checkpoint image; FatalError on any validation failure. */
FleetState decodeFleetState(const std::vector<uint8_t> &bytes);

/** Atomically write @p state to @p path (tmp file + rename). */
void saveFleetCheckpoint(const FleetState &state,
                         const std::string &path);

/** Load a checkpoint; FatalError on I/O or validation failure. */
FleetState loadFleetCheckpoint(const std::string &path);

} // namespace flexi

#endif // FLEXI_FLEET_CHECKPOINT_HH
