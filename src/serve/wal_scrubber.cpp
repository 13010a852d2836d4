#include "serve/wal_scrubber.hpp"

#include <optional>
#include <utility>

#include "serve/snapshot.hpp"
#include "serve/vfs.hpp"
#include "serve/wal.hpp"
#include "serve/wire.hpp"

namespace vnfr::serve {

std::vector<std::uint64_t> list_wal_generations(Vfs& vfs, const std::string& dir) {
    return parse_generations(vfs.list_dir(dir), "wal-", ".log");
}

ScrubReport scrub_data_dir(Vfs& vfs, const std::string& dir) {
    ScrubReport report;
    const std::vector<std::uint64_t> gens = list_wal_generations(vfs, dir);

    // Snapshot chain first: the newest delta's WAL pointer and the
    // config digest anchor the cross-file checks below.
    const std::string snap_path = dir + "/snapshot.bin";
    const std::vector<std::uint64_t> deltas = list_delta_generations(vfs, dir);
    std::optional<ControllerSnapshot> snap;
    std::uint64_t base_generation = 0;
    if (file_exists(vfs, snap_path)) {
        report.snapshot_present = true;
        try {
            LoadedChain chain = load_chain(vfs, dir, deltas);
            base_generation = chain.base_generation;
            snap = std::move(chain.state);
            report.snapshot_ok = true;
        } catch (const CorruptStateError& err) {
            report.findings.push_back(
                ScrubFinding{err.file(), err.what(), err.offset()});
        }
    } else if (!deltas.empty()) {
        report.findings.push_back(ScrubFinding{
            delta_path(dir, deltas.front()), "delta checkpoint without a base snapshot",
            0});
    }
    // Deltas the chain did not read (stale ones below the base, or all of
    // them when the chain failed) still get their own CRC check.
    for (const std::uint64_t generation : deltas) {
        if (snap.has_value() && generation > base_generation) continue;
        const std::string path = delta_path(dir, generation);
        try {
            (void)decode_delta(read_file(vfs, path), path);
        } catch (const CorruptStateError& err) {
            report.findings.push_back(ScrubFinding{path, err.what(), err.offset()});
        }
    }

    std::optional<std::uint64_t> digest;  // first digest seen, for consistency
    const char* digest_source = "";
    if (snap.has_value()) {
        digest = snap->config_digest;
        digest_source = "snapshot";
    }

    for (std::size_t i = 0; i < gens.size(); ++i) {
        const std::uint64_t gen = gens[i];
        const std::string path = dir + "/wal-" + std::to_string(gen) + ".log";
        // Rotation closes every generation but the newest with a clean
        // record boundary; only the live file may legally end in a torn
        // append, so older generations are held to kStrict.
        const bool newest = i + 1 == gens.size();
        WalContents contents;
        try {
            contents = read_wal(vfs, path,
                                newest ? WalReadMode::kRecover
                                       : WalReadMode::kStrict);
        } catch (const CorruptStateError& err) {
            report.findings.push_back(
                ScrubFinding{path, err.what(), err.offset()});
            continue;
        }
        ++report.generations_scanned;
        report.records_verified += contents.records.size();
        if (newest) report.torn_tail_bytes += contents.bytes_discarded;
        if (contents.wal_seq != gen) {
            report.findings.push_back(ScrubFinding{
                path,
                "header generation " + std::to_string(contents.wal_seq) +
                    " does not match the filename",
                0});
        }
        if (!digest.has_value()) {
            digest = contents.config_digest;
            digest_source = "first generation";
        } else if (contents.config_digest != *digest) {
            report.findings.push_back(ScrubFinding{
                path, "config digest disagrees with the " +
                          std::string(digest_source) +
                          " (mixed state directories?)",
                0});
        }
        if (i > 0 && gen != gens[i - 1] + 1) {
            report.findings.push_back(ScrubFinding{
                path,
                "generation gap: previous retained generation is " +
                    std::to_string(gens[i - 1]) +
                    " (releases trim only from the bottom, so a hole means "
                    "a lost file)",
                0});
        }
    }

    // The chain's newest file names the generation that logs records
    // after it; that generation must still be retained — or be the one rotation was
    // about to create when the process died (snapshot durable, next WAL
    // not yet, a legal crash window one recovery pass heals).
    if (snap.has_value() && !gens.empty()) {
        if (snap->wal_seq < gens.front() || snap->wal_seq > gens.back() + 1) {
            report.findings.push_back(ScrubFinding{
                snap_path,
                "snapshot chain points at WAL generation " +
                    std::to_string(snap->wal_seq) + " but retained are [" +
                    std::to_string(gens.front()) + ", " +
                    std::to_string(gens.back()) + "]",
                0});
        }
    }
    if (snap.has_value() && gens.empty()) {
        report.findings.push_back(ScrubFinding{
            snap_path, "snapshot present but no WAL generation is retained",
            0});
    }
    return report;
}

ScrubReport scrub_data_dir(const std::string& dir) {
    return scrub_data_dir(posix_vfs(), dir);
}

}  // namespace vnfr::serve
