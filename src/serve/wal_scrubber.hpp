// Background integrity scrubber for a controller state directory: walks
// the snapshot plus every retained WAL generation and re-verifies all the
// CRCs and cross-file invariants that recovery would rely on, WITHOUT
// mutating anything. The point is to surface latent corruption (a bit rot
// in a retained generation, a snapshot that no longer decodes) while the
// data still has a healthy replica to re-ship from — not at the moment a
// failover desperately needs the bytes.
//
// Invariants checked, per scrub:
//   - the snapshot (when present) decodes with a valid CRC, and so does
//     every snapshot.bin.<gen> delta; the deltas above the base link
//     parent to child without a gap (a delta without a base is a finding);
//   - every wal-<gen>.log parses cleanly: valid header CRC, every record
//     CRC intact. Only the NEWEST generation may carry a torn tail (a
//     crash interrupts at most the live file's final append); any torn or
//     corrupt bytes in an older, rotation-closed generation are findings;
//   - each file's header generation matches its filename;
//   - all generations carry the same config digest, matching the
//     snapshot's when one exists;
//   - retained generations are contiguous (releases only trim from the
//     bottom, so a hole means a lost file);
//   - the WAL generation named by the chain's newest file (the last delta,
//     or the base) points into (or just past) the retained range.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace vnfr::serve {

class Vfs;

/// One problem found by a scrub, with enough context to locate the bad
/// byte: which file, what is wrong, and where.
struct ScrubFinding {
    std::string file;
    std::string detail;
    std::uint64_t offset{0};
};

struct ScrubReport {
    bool snapshot_present{false};
    bool snapshot_ok{false};  ///< base and chain load; false when absent or corrupt
    std::uint64_t generations_scanned{0};
    std::uint64_t records_verified{0};
    /// Torn tail tolerated on the newest generation (a legal crash
    /// artifact, not a finding).
    std::uint64_t torn_tail_bytes{0};
    std::vector<ScrubFinding> findings;

    /// A clean scrub: nothing corrupt, nothing missing, nothing
    /// inconsistent. An absent snapshot with zero generations is clean
    /// (a virgin directory); an absent snapshot alongside WAL files is
    /// clean too (the controller has not checkpointed yet) — corruption,
    /// holes, and digest mismatches are not.
    [[nodiscard]] bool clean() const { return findings.empty(); }
};

/// Scrubs the controller state in `dir` through `vfs`. Read-only: never
/// repairs, truncates, or deletes. Throws only for environmental failure
/// (the directory itself is unreadable); every data problem is reported
/// as a finding instead.
[[nodiscard]] ScrubReport scrub_data_dir(Vfs& vfs, const std::string& dir);

/// scrub_data_dir through the process-wide PosixVfs.
[[nodiscard]] ScrubReport scrub_data_dir(const std::string& dir);

/// Generation numbers of the wal-<gen>.log files in `dir`, ascending
/// (numeric order, unlike list_dir's lexicographic one). A missing
/// directory yields none.
[[nodiscard]] std::vector<std::uint64_t> list_wal_generations(Vfs& vfs,
                                                              const std::string& dir);

}  // namespace vnfr::serve
