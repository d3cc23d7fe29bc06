/**
 * @file
 * Bridging a RunResult into an obs::ProfileData report, and into the
 * Figure 4 INTERP flow.
 *
 * Everything the report contains comes from the RunResult itself — the
 * cycle breakdown, the registry counter snapshot, the typed event
 * trace — so a profile can be built after the machine is gone. The
 * derived ratios reproduce the section 7 quantities: hit ratios (h_D,
 * h_c), cycles per DIR instruction (T) and translation amplification
 * (short instructions emitted per translated DIR instruction).
 */

#ifndef UHM_UHM_PROFILE_HH
#define UHM_UHM_PROFILE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/report.hh"
#include "uhm/machine.hh"

namespace uhm
{

/** Identification attached to a profile's meta line. */
struct ProfileMeta
{
    std::string program;
    std::string machine;
    std::string encoding;
    /** Encoded image size in bits (0 = unknown). */
    uint64_t imageBits = 0;
};

/** Assemble the full report for one run. */
obs::ProfileData buildProfile(const ProfileMeta &meta,
                              const RunResult &result);

/** Convenience: buildProfile + obs::toJsonl. */
std::string profileJsonl(const ProfileMeta &meta,
                         const RunResult &result);

/**
 * The Figure 4 INTERP flow of a run, one line per DTB lookup, rebuilt
 * from the typed events (MachineConfig::profileEvents):
 *
 *   interp hit dir@N
 *   interp miss dir@N -> translate (K short instrs, stored|rejected)
 *
 * Covers the events the ring retained: when it overflowed, the flow is
 * the run's tail (RunResult::eventsDropped > 0).
 */
std::vector<std::string> interpFlow(const RunResult &result);

} // namespace uhm

#endif // UHM_UHM_PROFILE_HH
