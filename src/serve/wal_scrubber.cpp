#include "serve/wal_scrubber.hpp"

#include <algorithm>
#include <optional>

#include "serve/snapshot.hpp"
#include "serve/vfs.hpp"
#include "serve/wal.hpp"
#include "serve/wire.hpp"

namespace vnfr::serve {

std::vector<std::uint64_t> list_wal_generations(Vfs& vfs, const std::string& dir) {
    std::vector<std::uint64_t> gens;
    for (const std::string& name : vfs.list_dir(dir)) {
        if (!name.starts_with("wal-") || !name.ends_with(".log")) continue;
        const std::string digits = name.substr(4, name.size() - 8);
        if (digits.empty()) continue;
        std::uint64_t gen = 0;
        bool numeric = true;
        for (const char c : digits) {
            if (c < '0' || c > '9') {
                numeric = false;
                break;
            }
            gen = gen * 10 + static_cast<std::uint64_t>(c - '0');
        }
        if (numeric) gens.push_back(gen);
    }
    std::sort(gens.begin(), gens.end());
    return gens;
}

ScrubReport scrub_data_dir(Vfs& vfs, const std::string& dir) {
    ScrubReport report;
    const std::vector<std::uint64_t> gens = list_wal_generations(vfs, dir);

    // Snapshot first: its WAL pointer and config digest anchor the
    // cross-file checks below.
    const std::string snap_path = dir + "/snapshot.bin";
    std::optional<ControllerSnapshot> snap;
    if (file_exists(vfs, snap_path)) {
        report.snapshot_present = true;
        try {
            snap = load_snapshot(vfs, snap_path);
            report.snapshot_ok = true;
        } catch (const CorruptStateError& err) {
            report.findings.push_back(
                ScrubFinding{snap_path, err.what(), err.offset()});
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

    // The snapshot names the generation that logs records after it; that
    // generation must still be retained — or be the one rotation was
    // about to create when the process died (snapshot durable, next WAL
    // not yet, a legal crash window one recovery pass heals).
    if (snap.has_value() && !gens.empty()) {
        if (snap->wal_seq < gens.front() || snap->wal_seq > gens.back() + 1) {
            report.findings.push_back(ScrubFinding{
                snap_path,
                "snapshot points at WAL generation " +
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
