#include "serve/snapshot.hpp"

#include <cmath>
#include <limits>

#include "serve/vfs.hpp"

namespace vnfr::serve {

namespace {

constexpr std::string_view kMagic = "VNFRSNP1";
constexpr std::string_view kDeltaMagic = "VNFRDLT1";

/// Upper bound on element counts decoded from length fields, so a fuzzed
/// length cannot drive a multi-gigabyte allocation before the CRC check
/// (the CRC runs first; this is belt-and-braces against crafted files
/// whose CRC happens to pass).
constexpr std::uint64_t kMaxElements = 1ULL << 28;

void check_count(const WireReader& reader, std::uint64_t count, const char* what) {
    if (count > kMaxElements) {
        throw CorruptStateError(reader.label(), reader.offset(),
                                std::string(what) + " count " + std::to_string(count) +
                                    " exceeds the sanity bound");
    }
}

void put_metrics(WireWriter& w, const ServeMetrics& m) {
    w.put_u64(m.processed);
    w.put_u64(m.admitted);
    w.put_u64(m.rejected);
    w.put_u64(m.shed);
    w.put_f64(m.revenue);
    w.put_f64(m.shed_revenue);
}

ServeMetrics get_metrics(WireReader& r, const std::string& label) {
    ServeMetrics m;
    m.processed = r.get_u64("processed counter");
    m.admitted = r.get_u64("admitted counter");
    m.rejected = r.get_u64("rejected counter");
    m.shed = r.get_u64("shed counter");
    if (m.admitted + m.rejected != m.processed) {
        throw CorruptStateError(label, r.offset(),
                                "admitted + rejected != processed counters");
    }
    m.revenue = r.get_f64("revenue");
    m.shed_revenue = r.get_f64("shed revenue");
    if (!std::isfinite(m.revenue) || !std::isfinite(m.shed_revenue)) {
        throw CorruptStateError(label, r.offset(), "non-finite revenue counter");
    }
    return m;
}

void put_coverage(WireWriter& w, std::uint64_t watermark,
                  const std::vector<std::uint64_t>& sparse) {
    w.put_u64(watermark);
    w.put_u64(sparse.size());
    for (const std::uint64_t s : sparse) w.put_u64(s);
}

void get_coverage(WireReader& r, const std::string& label, std::uint64_t& watermark,
                  std::vector<std::uint64_t>& sparse) {
    watermark = r.get_u64("covered watermark");
    const std::uint64_t sparse_count = r.get_u64("sparse covered count");
    check_count(r, sparse_count, "sparse covered seq");
    sparse.resize(sparse_count);
    std::uint64_t prev = 0;
    bool first = true;
    for (std::uint64_t& s : sparse) {
        s = r.get_u64("sparse covered seq");
        // Invariant: the watermark seq itself is uncovered, so every sparse
        // entry lies strictly above it, in strictly ascending order.
        if (s <= watermark) {
            throw CorruptStateError(label, r.offset() - 8,
                                    "sparse covered seq at or below the watermark");
        }
        if (!first && s <= prev) {
            throw CorruptStateError(label, r.offset() - 8,
                                    "sparse covered seqs not strictly ascending");
        }
        prev = s;
        first = false;
    }
}

void put_admitted(WireWriter& w, std::span<const AdmittedRecord> admitted) {
    w.put_u64(admitted.size());
    for (const AdmittedRecord& rec : admitted) {
        w.put_u64(rec.seq);
        w.put_i64(rec.request_id);
        w.put_f64(rec.payment);
        w.put_u32(static_cast<std::uint32_t>(rec.sites.size()));
        for (const auto& [cloudlet, replicas] : rec.sites) {
            w.put_i64(cloudlet);
            w.put_i64(replicas);
        }
    }
}

/// Reads `count` admitted records whose site cloudlets must lie below
/// `cloudlets`.
std::vector<AdmittedRecord> get_admitted(WireReader& r, const std::string& label,
                                         std::uint64_t count, std::uint64_t cloudlets) {
    std::vector<AdmittedRecord> admitted(count);
    for (AdmittedRecord& rec : admitted) {
        rec.seq = r.get_u64("admitted seq");
        rec.request_id = r.get_i64("admitted request id");
        rec.payment = r.get_f64("admitted payment");
        if (!std::isfinite(rec.payment) || rec.payment < 0.0) {
            throw CorruptStateError(label, r.offset() - 8,
                                    "admitted payment is not finite and non-negative");
        }
        const std::uint32_t site_count = r.get_u32("site count");
        check_count(r, site_count, "site");
        rec.sites.resize(site_count);
        for (auto& [cloudlet, replicas] : rec.sites) {
            cloudlet = r.get_i64("site cloudlet");
            replicas = r.get_i64("site replicas");
            if (cloudlet < 0 || static_cast<std::uint64_t>(cloudlet) >= cloudlets) {
                throw CorruptStateError(label, r.offset() - 16,
                                        "site cloudlet id out of range");
            }
            if (replicas < 1) {
                throw CorruptStateError(label, r.offset() - 8,
                                        "site replica count below 1");
            }
        }
    }
    return admitted;
}

/// Checks magic, version and the whole-file CRC; returns a reader over
/// the payload between the header and the CRC trailer.
WireReader open_framed(std::string_view bytes, const std::string& label,
                       std::string_view magic, std::uint32_t expected_version,
                       const char* kind) {
    // Header + CRC trailer must at least fit before anything is parsed.
    if (bytes.size() < magic.size() + 4 + 4) {
        throw CorruptStateError(label, bytes.size(),
                                std::string("file too short to hold a ") + kind +
                                    " header");
    }
    WireReader header(bytes, label);
    if (header.get_bytes(magic.size(), "magic") != magic) {
        throw CorruptStateError(label, 0,
                                std::string("bad magic (not a VNFR ") + kind + ")");
    }
    const std::uint32_t version = header.get_u32("version");
    if (version != expected_version) {
        throw CorruptStateError(label, magic.size(),
                                std::string("unsupported ") + kind + " version " +
                                    std::to_string(version) + " (expected " +
                                    std::to_string(expected_version) + ")");
    }
    // CRC covers everything before the 4-byte trailer.
    const std::string_view body = bytes.substr(0, bytes.size() - 4);
    WireReader trailer(bytes.substr(bytes.size() - 4), label, bytes.size() - 4);
    const std::uint32_t stored_crc = trailer.get_u32("crc trailer");
    if (stored_crc != crc32(body)) {
        throw CorruptStateError(label, bytes.size() - 4, "CRC mismatch: file corrupt");
    }
    return WireReader(body.substr(magic.size() + 4), label, magic.size() + 4);
}

/// Appends the CRC trailer of everything written so far.
std::string seal(WireWriter& w) {
    w.put_u32(crc32(w.bytes()));
    return w.take();
}

}  // namespace

std::string encode_snapshot(const ControllerSnapshot& snap) {
    return encode_snapshot(snap, snap.admitted);
}

std::string encode_snapshot(const ControllerSnapshot& snap,
                            std::span<const AdmittedRecord> admitted) {
    WireWriter w;
    // The state tables plus ~one 16-byte site per admitted record.
    w.reserve(128 + 16 * snap.usage.size() + 8 * snap.covered_sparse.size() +
              44 * admitted.size());
    w.put_bytes(kMagic);
    w.put_u32(kSnapshotVersion);
    w.put_u8(snap.scheme);
    w.put_u64(snap.config_digest);
    w.put_u64(snap.cloudlets);
    w.put_u64(snap.horizon);
    w.put_u64(snap.wal_seq);
    put_metrics(w, snap.metrics);
    for (const auto& row : snap.lambda) {
        for (const double v : row) w.put_f64(v);
    }
    for (const double v : snap.usage) w.put_f64(v);
    put_coverage(w, snap.covered_watermark, snap.covered_sparse);
    put_admitted(w, admitted);
    return seal(w);
}

ControllerSnapshot decode_snapshot(std::string_view bytes, const std::string& label) {
    WireReader r = open_framed(bytes, label, kMagic, kSnapshotVersion, "snapshot");
    ControllerSnapshot snap;
    snap.scheme = r.get_u8("scheme");
    if (snap.scheme > 1) {
        throw CorruptStateError(label, r.offset() - 1,
                                "scheme byte " + std::to_string(snap.scheme) +
                                    " is neither onsite (0) nor offsite (1)");
    }
    snap.config_digest = r.get_u64("config digest");
    snap.cloudlets = r.get_u64("cloudlet count");
    snap.horizon = r.get_u64("horizon");
    check_count(r, snap.cloudlets, "cloudlet");
    check_count(r, snap.horizon, "horizon slot");
    check_count(r, snap.cloudlets * snap.horizon, "state cell");
    snap.wal_seq = r.get_u64("wal generation");
    snap.metrics = get_metrics(r, label);
    snap.lambda.assign(snap.cloudlets, {});
    for (auto& row : snap.lambda) {
        row.resize(snap.horizon);
        for (double& v : row) {
            v = r.get_f64("lambda cell");
            if (!std::isfinite(v) || v < 0.0) {
                throw CorruptStateError(label, r.offset() - 8,
                                        "lambda cell is not finite and non-negative");
            }
        }
    }
    snap.usage.resize(snap.cloudlets * snap.horizon);
    for (double& v : snap.usage) {
        v = r.get_f64("usage cell");
        if (!std::isfinite(v) || v < 0.0) {
            throw CorruptStateError(label, r.offset() - 8,
                                    "usage cell is not finite and non-negative");
        }
    }
    get_coverage(r, label, snap.covered_watermark, snap.covered_sparse);
    const std::uint64_t admitted_count = r.get_u64("admitted record count");
    check_count(r, admitted_count, "admitted record");
    if (admitted_count != snap.metrics.admitted) {
        throw CorruptStateError(label, r.offset() - 8,
                                "admitted record count disagrees with the admitted "
                                "counter");
    }
    snap.admitted = get_admitted(r, label, admitted_count, snap.cloudlets);
    r.require_end("snapshot payload");
    return snap;
}

std::string encode_delta(const SnapshotDelta& delta) {
    return encode_delta(delta, delta.admitted);
}

std::string encode_delta(const SnapshotDelta& delta,
                         std::span<const AdmittedRecord> admitted) {
    WireWriter w;
    w.reserve(128 + 8 * delta.covered_sparse.size() + 44 * admitted.size() +
              24 * delta.cells.size());
    w.put_bytes(kDeltaMagic);
    w.put_u32(kDeltaVersion);
    w.put_u64(delta.config_digest);
    w.put_u64(delta.generation);
    w.put_u64(delta.parent);
    put_metrics(w, delta.metrics);
    put_coverage(w, delta.covered_watermark, delta.covered_sparse);
    put_admitted(w, admitted);
    w.put_u64(delta.cells.size());
    for (const StateCell& cell : delta.cells) {
        w.put_u32(cell.cloudlet);
        w.put_u32(cell.slot);
        w.put_f64(cell.lambda);
        w.put_f64(cell.usage);
    }
    return seal(w);
}

SnapshotDelta decode_delta(std::string_view bytes, const std::string& label) {
    WireReader r = open_framed(bytes, label, kDeltaMagic, kDeltaVersion, "delta");
    SnapshotDelta delta;
    delta.config_digest = r.get_u64("config digest");
    delta.generation = r.get_u64("delta generation");
    delta.parent = r.get_u64("parent generation");
    if (delta.parent == std::numeric_limits<std::uint64_t>::max() ||
        delta.generation != delta.parent + 1) {
        throw CorruptStateError(label, r.offset() - 16,
                                "delta generation " + std::to_string(delta.generation) +
                                    " does not directly follow its parent " +
                                    std::to_string(delta.parent));
    }
    delta.metrics = get_metrics(r, label);
    get_coverage(r, label, delta.covered_watermark, delta.covered_sparse);
    const std::uint64_t admitted_count = r.get_u64("admitted record count");
    check_count(r, admitted_count, "admitted record");
    if (admitted_count > delta.metrics.admitted) {
        throw CorruptStateError(label, r.offset() - 8,
                                "delta appends more admitted records than the "
                                "admitted counter holds");
    }
    // Site ranges are checked against the base's shape in apply_delta.
    delta.admitted = get_admitted(r, label, admitted_count,
                                  std::numeric_limits<std::uint64_t>::max());
    const std::uint64_t cell_count = r.get_u64("dirty cell count");
    check_count(r, cell_count, "dirty cell");
    delta.cells.resize(cell_count);
    for (std::size_t i = 0; i < delta.cells.size(); ++i) {
        StateCell& cell = delta.cells[i];
        cell.cloudlet = r.get_u32("cell cloudlet");
        cell.slot = r.get_u32("cell slot");
        if (i > 0) {
            const StateCell& prev = delta.cells[i - 1];
            if (cell.cloudlet < prev.cloudlet ||
                (cell.cloudlet == prev.cloudlet && cell.slot <= prev.slot)) {
                throw CorruptStateError(label, r.offset() - 8,
                                        "dirty cells not strictly ascending");
            }
        }
        cell.lambda = r.get_f64("cell lambda");
        cell.usage = r.get_f64("cell usage");
        if (!std::isfinite(cell.lambda) || cell.lambda < 0.0 ||
            !std::isfinite(cell.usage) || cell.usage < 0.0) {
            throw CorruptStateError(label, r.offset() - 16,
                                    "cell value is not finite and non-negative");
        }
    }
    r.require_end("delta payload");
    return delta;
}

void apply_delta(ControllerSnapshot& snap, const SnapshotDelta& delta,
                 const std::string& label) {
    const auto reject = [&](const std::string& what) {
        throw CorruptStateError(label, 0, what);
    };
    if (delta.config_digest != snap.config_digest) {
        reject("delta was written for a different instance/scheme (config digest "
               "mismatch)");
    }
    if (delta.parent != snap.wal_seq) {
        reject("delta extends generation " + std::to_string(delta.parent) +
               " but the chain is at generation " + std::to_string(snap.wal_seq));
    }
    const ServeMetrics& now = delta.metrics;
    const ServeMetrics& before = snap.metrics;
    if (now.processed < before.processed || now.admitted < before.admitted ||
        now.rejected < before.rejected || now.shed < before.shed ||
        delta.covered_watermark < snap.covered_watermark) {
        reject("delta counters or coverage go backwards");
    }
    if (snap.admitted.size() + delta.admitted.size() != now.admitted) {
        reject("admitted records after the delta disagree with the admitted counter");
    }
    for (const AdmittedRecord& rec : delta.admitted) {
        for (const auto& site : rec.sites) {
            if (static_cast<std::uint64_t>(site.first) >= snap.cloudlets) {
                reject("site cloudlet id out of range");
            }
        }
    }
    for (const StateCell& cell : delta.cells) {
        if (cell.cloudlet >= snap.cloudlets || cell.slot >= snap.horizon) {
            reject("dirty cell (" + std::to_string(cell.cloudlet) + ", " +
                   std::to_string(cell.slot) + ") outside the state table");
        }
    }
    for (const StateCell& cell : delta.cells) {
        snap.lambda[cell.cloudlet][cell.slot] = cell.lambda;
        snap.usage[cell.cloudlet * snap.horizon + cell.slot] = cell.usage;
    }
    snap.admitted.insert(snap.admitted.end(), delta.admitted.begin(),
                         delta.admitted.end());
    snap.metrics = now;
    snap.covered_watermark = delta.covered_watermark;
    snap.covered_sparse = delta.covered_sparse;
    snap.wal_seq = delta.generation;
}

std::string delta_path(const std::string& dir, std::uint64_t generation) {
    return dir + "/" + std::string(kDeltaPrefix) + std::to_string(generation);
}

std::vector<std::uint64_t> list_delta_generations(Vfs& vfs, const std::string& dir) {
    return parse_generations(vfs.list_dir(dir), kDeltaPrefix, "");
}

LoadedChain load_chain(Vfs& vfs, const std::string& dir,
                       const std::vector<std::uint64_t>& deltas) {
    const std::string base_path = dir + "/snapshot.bin";
    LoadedChain chain;
    chain.state = decode_snapshot(read_file(vfs, base_path), base_path);
    chain.base_generation = chain.state.wal_seq;
    for (const std::uint64_t generation : deltas) {
        if (generation <= chain.base_generation) continue;
        const std::string path = delta_path(dir, generation);
        if (generation != chain.state.wal_seq + 1) {
            throw CorruptStateError(path, 0,
                                    "delta chain gap: generation " +
                                        std::to_string(chain.state.wal_seq + 1) +
                                        " is missing");
        }
        const SnapshotDelta delta = decode_delta(read_file(vfs, path), path);
        if (delta.generation != generation) {
            throw CorruptStateError(path, 0,
                                    "delta generation " + std::to_string(delta.generation) +
                                        " does not match its filename");
        }
        apply_delta(chain.state, delta, path);
        ++chain.chain_length;
    }
    return chain;
}

void publish_state_file(Vfs& vfs, const std::string& path, std::string_view bytes,
                        const StorageRetryPolicy& retry,
                        std::uint64_t* transient_retries) {
    with_storage_retries(
        vfs, retry, [&] { atomic_write_file(vfs, path, bytes); }, transient_retries);
}

}  // namespace vnfr::serve
