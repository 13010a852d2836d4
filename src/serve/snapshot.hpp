// Durable snapshot of an AdmissionController: dual prices, ledger usage,
// request-coverage bookkeeping, revenue counters, and the admitted-request
// ledger. Snapshots are written atomically (write temp + fsync + rename +
// directory fsync) and carry a whole-file CRC-32 plus magic/version
// header, so a loader either gets exactly what was saved or a
// CorruptStateError naming the bad byte.
//
// Delta chain. snapshot.bin is the full *base*. A checkpoint after it
// may instead publish a *delta*, snapshot.bin.<gen>, holding only what
// changed since the previous checkpoint: the counters and coverage, the
// admitted records appended since, and the dirty (cloudlet, slot) state
// cells. Delta <gen> extends generation <gen>-1 (the base's wal_seq or
// the previous delta's); the durable state is the base patched with
// every delta above it, in generation order. A delta at or below the
// base's generation is stale (a crash between publishing a new base and
// unlinking the old chain). Each delta is framed like a base: own magic
// and version, whole-file CRC-32.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "serve/wire.hpp"

namespace vnfr::serve {

inline constexpr std::uint32_t kSnapshotVersion = 1;

/// One admitted request as recorded durably: its position in the request
/// stream, identity, collected payment, and placement sites.
struct AdmittedRecord {
    std::uint64_t seq{0};       ///< stream sequence number
    std::int64_t request_id{0};
    double payment{0.0};
    /// Placement as (cloudlet id, replica count) pairs.
    std::vector<std::pair<std::int64_t, std::int64_t>> sites;
};

/// Admission/shedding counters; `processed` counts decided requests
/// (admitted + rejected), shed requests are tracked separately.
struct ServeMetrics {
    std::uint64_t processed{0};
    std::uint64_t admitted{0};
    std::uint64_t rejected{0};
    std::uint64_t shed{0};
    double revenue{0.0};       ///< sum of admitted payments
    double shed_revenue{0.0};  ///< payments turned away by the overload guard
};

/// The full durable state of a controller at one instant.
struct ControllerSnapshot {
    std::uint8_t scheme{0};  ///< core::Scheme as u8 (0 = onsite, 1 = offsite)
    /// Digest of the bound instance's shape (cloudlets, catalog, horizon,
    /// scheme); a snapshot only loads against the instance it was saved for.
    std::uint64_t config_digest{0};
    std::uint64_t cloudlets{0};
    std::uint64_t horizon{0};
    /// Generation of the WAL that logs records after this snapshot.
    std::uint64_t wal_seq{0};
    ServeMetrics metrics;
    std::vector<std::vector<double>> lambda;  ///< [cloudlet][slot]
    std::vector<double> usage;                ///< row-major [cloudlet][slot]
    /// Coverage: every stream seq < watermark is durably resolved, plus the
    /// (ascending) sparse seqs above it.
    std::uint64_t covered_watermark{0};
    std::vector<std::uint64_t> covered_sparse;
    std::vector<AdmittedRecord> admitted;
};

/// Serializes `snap` to the on-disk byte layout (header + payload + CRC).
[[nodiscard]] std::string encode_snapshot(const ControllerSnapshot& snap);

/// encode_snapshot with the admitted ledger passed separately
/// (`snap.admitted` is ignored), so a live controller encodes its ledger
/// in place instead of copying it into a snapshot first. Same bytes.
[[nodiscard]] std::string encode_snapshot(const ControllerSnapshot& snap,
                                          std::span<const AdmittedRecord> admitted);

/// Parses and fully validates an encoded snapshot. Throws
/// CorruptStateError (with `label` and the offending offset) on any
/// truncation, bad magic, unsupported version, CRC mismatch, or
/// structurally impossible field.
[[nodiscard]] ControllerSnapshot decode_snapshot(std::string_view bytes,
                                                 const std::string& label);

inline constexpr std::uint32_t kDeltaVersion = 1;

/// Delta file names are this prefix plus the generation (delta_path).
inline constexpr std::string_view kDeltaPrefix = "snapshot.bin.";

/// One (cloudlet, slot) cell of the scheduler state as a delta carries it.
struct StateCell {
    std::uint32_t cloudlet{0};
    std::uint32_t slot{0};
    double lambda{0.0};
    double usage{0.0};
};

/// What changed between two consecutive checkpoints (see file header).
struct SnapshotDelta {
    std::uint64_t config_digest{0};
    /// WAL generation that logs the records after this delta.
    std::uint64_t generation{0};
    /// Generation this delta extends; always generation - 1.
    std::uint64_t parent{0};
    ServeMetrics metrics;  ///< counters after the delta (not increments)
    std::uint64_t covered_watermark{0};
    std::vector<std::uint64_t> covered_sparse;
    /// Admitted records appended since the parent, in ledger order.
    std::vector<AdmittedRecord> admitted;
    /// Cells written since the parent, strictly ascending by
    /// (cloudlet, slot), with their current values.
    std::vector<StateCell> cells;
};

[[nodiscard]] std::string encode_delta(const SnapshotDelta& delta);

/// encode_delta with the appended admitted records passed separately
/// (`delta.admitted` is ignored), as encode_snapshot does for the base.
[[nodiscard]] std::string encode_delta(const SnapshotDelta& delta,
                                       std::span<const AdmittedRecord> admitted);

/// Parses and validates one delta on its own (framing, CRC, counters,
/// coverage and cell ordering). Throws CorruptStateError like
/// decode_snapshot.
[[nodiscard]] SnapshotDelta decode_delta(std::string_view bytes, const std::string& label);

/// Patches `snap` forward by `delta`. Throws CorruptStateError when the
/// delta does not extend `snap`: another config digest, a parent other
/// than snap.wal_seq, counters that go backwards, an admitted count the
/// counters disagree with, or a cell or site outside snap's shape.
void apply_delta(ControllerSnapshot& snap, const SnapshotDelta& delta,
                 const std::string& label);

/// "<dir>/snapshot.bin.<generation>".
[[nodiscard]] std::string delta_path(const std::string& dir, std::uint64_t generation);

class Vfs;
struct StorageRetryPolicy;

/// Delta generations present in `dir`, ascending.
[[nodiscard]] std::vector<std::uint64_t> list_delta_generations(Vfs& vfs,
                                                                const std::string& dir);

/// The durable state of a directory: its base with the delta chain
/// applied.
struct LoadedChain {
    ControllerSnapshot state;          ///< wal_seq is the newest delta's generation
    std::uint64_t base_generation{0};  ///< the base's own wal_seq
    std::uint64_t chain_length{0};     ///< deltas applied
};

/// Loads `dir`/snapshot.bin and applies the deltas in `deltas` (as from
/// list_delta_generations) above it, in order; deltas at or below the
/// base are stale and skipped. Throws CorruptStateError for a corrupt
/// file, a generation missing from the chain, or a delta that does not
/// extend its predecessor.
[[nodiscard]] LoadedChain load_chain(Vfs& vfs, const std::string& dir,
                                     const std::vector<std::uint64_t>& deltas);

/// Atomically publishes encoded state bytes (a base or a delta) to `path`
/// through `vfs` (see file header for the crash-consistency protocol).
/// Transient storage errors are retried per `retry`; `transient_retries`,
/// when given, is incremented once per retry taken.
void publish_state_file(Vfs& vfs, const std::string& path, std::string_view bytes,
                        const StorageRetryPolicy& retry,
                        std::uint64_t* transient_retries = nullptr);

}  // namespace vnfr::serve
