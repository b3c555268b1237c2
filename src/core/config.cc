#include "core/config.h"

#include "support/bytes.h"

namespace mhp {

void
encodeProfilerConfig(ByteBuffer &out, const ProfilerConfig &c)
{
    out.u64(c.intervalLength);
    out.f64(c.candidateThreshold);
    out.u64(c.totalHashEntries);
    out.u32(c.numHashTables);
    out.u32(c.counterBits);
    out.u8(c.retaining ? 1 : 0);
    out.u8(c.resetOnPromote ? 1 : 0);
    out.u8(c.conservativeUpdate ? 1 : 0);
    out.u8(c.shielding ? 1 : 0);
    out.u8(c.flushHashTables ? 1 : 0);
    out.u64(c.accumulatorEntries);
    out.u64(c.seed);
}

bool
decodeProfilerConfig(ByteCursor &cursor, ProfilerConfig &c)
{
    uint32_t tables = 0;
    uint32_t bits = 0;
    uint8_t retaining = 0;
    uint8_t resetOnPromote = 0;
    uint8_t conservative = 0;
    uint8_t shielding = 0;
    uint8_t flush = 0;
    if (!(cursor.u64(c.intervalLength) &&
          cursor.f64(c.candidateThreshold) &&
          cursor.u64(c.totalHashEntries) && cursor.u32(tables) &&
          cursor.u32(bits) && cursor.u8(retaining) &&
          cursor.u8(resetOnPromote) && cursor.u8(conservative) &&
          cursor.u8(shielding) && cursor.u8(flush) &&
          cursor.u64(c.accumulatorEntries) && cursor.u64(c.seed)))
        return false;
    c.numHashTables = tables;
    c.counterBits = bits;
    c.retaining = retaining != 0;
    c.resetOnPromote = resetOnPromote != 0;
    c.conservativeUpdate = conservative != 0;
    c.shielding = shielding != 0;
    c.flushHashTables = flush != 0;
    return true;
}

} // namespace mhp
