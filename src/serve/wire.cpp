#include "serve/wire.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <charconv>

#include "serve/vfs.hpp"

namespace vnfr::serve {

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slicing-by-8 CRC-32 tables for the reflected IEEE 802.3 polynomial
/// 0xEDB88320, built once at static-init time: tables[0] is the classic
/// byte-at-a-time table, tables[k][b] the CRC of byte b followed by k
/// zero bytes, so eight input bytes fold in with eight lookups.
CrcTables make_crc_tables() {
    CrcTables tables{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int bit = 0; bit < 8; ++bit) {
            c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
        }
        tables[0][i] = c;
    }
    for (std::size_t k = 1; k < tables.size(); ++k) {
        for (std::uint32_t i = 0; i < 256; ++i) {
            const std::uint32_t prev = tables[k - 1][i];
            tables[k][i] = tables[0][prev & 0xFFU] ^ (prev >> 8);
        }
    }
    return tables;
}

const CrcTables& crc_tables() {
    static const CrcTables tables = make_crc_tables();
    return tables;
}

std::uint32_t byte_at(std::string_view data, std::size_t i) {
    return static_cast<unsigned char>(data[i]);
}

}  // namespace

std::uint32_t crc32(std::string_view data, std::uint32_t seed) {
    const CrcTables& t = crc_tables();
    std::uint32_t c = seed ^ 0xFFFFFFFFU;
    std::size_t i = 0;
    for (; i + 8 <= data.size(); i += 8) {
        const std::uint32_t lo = c ^ (byte_at(data, i) | byte_at(data, i + 1) << 8 |
                                      byte_at(data, i + 2) << 16 |
                                      byte_at(data, i + 3) << 24);
        c = t[7][lo & 0xFFU] ^ t[6][(lo >> 8) & 0xFFU] ^ t[5][(lo >> 16) & 0xFFU] ^
            t[4][lo >> 24] ^ t[3][byte_at(data, i + 4)] ^ t[2][byte_at(data, i + 5)] ^
            t[1][byte_at(data, i + 6)] ^ t[0][byte_at(data, i + 7)];
    }
    for (; i < data.size(); ++i) {
        c = t[0][(c ^ byte_at(data, i)) & 0xFFU] ^ (c >> 8);
    }
    return c ^ 0xFFFFFFFFU;
}

std::optional<std::uint64_t> parse_generation(std::string_view name,
                                              std::string_view prefix,
                                              std::string_view suffix) {
    if (name.size() <= prefix.size() + suffix.size() || !name.starts_with(prefix) ||
        !name.ends_with(suffix)) {
        return std::nullopt;
    }
    const std::string_view digits =
        name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
    // Digits only (no sign, no blanks); from_chars then refuses overflow
    // with result_out_of_range instead of wrapping.
    if (digits.find_first_not_of("0123456789") != std::string_view::npos) {
        return std::nullopt;
    }
    std::uint64_t generation = 0;
    const auto [end, ec] =
        std::from_chars(digits.data(), digits.data() + digits.size(), generation);
    if (ec != std::errc{} || end != digits.data() + digits.size()) return std::nullopt;
    return generation;
}

std::vector<std::uint64_t> parse_generations(const std::vector<std::string>& names,
                                             std::string_view prefix,
                                             std::string_view suffix) {
    std::vector<std::uint64_t> generations;
    for (const std::string& name : names) {
        if (const auto g = parse_generation(name, prefix, suffix)) generations.push_back(*g);
    }
    std::sort(generations.begin(), generations.end());
    return generations;
}

void WireWriter::put_u8(std::uint8_t v) { buffer_.push_back(static_cast<char>(v)); }

// Whole-field appends: one capacity check per field, not per byte.
void WireWriter::put_u32(std::uint32_t v) {
    std::array<char, 4> bytes{};
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFFU);
    }
    buffer_.append(bytes.data(), bytes.size());
}

void WireWriter::put_u64(std::uint64_t v) {
    std::array<char, 8> bytes{};
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFFU);
    }
    buffer_.append(bytes.data(), bytes.size());
}

void WireWriter::put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }

void WireWriter::put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }

void WireWriter::put_bytes(std::string_view bytes) { buffer_.append(bytes); }

void WireReader::fail(const std::string& what) const {
    throw CorruptStateError(label_, offset(), what);
}

std::string_view WireReader::get_bytes(std::size_t n, const char* what) {
    if (remaining() < n) {
        fail(std::string("truncated while reading ") + what + ": need " +
             std::to_string(n) + " bytes, have " + std::to_string(remaining()));
    }
    const std::string_view out = data_.substr(pos_, n);
    pos_ += n;
    return out;
}

std::uint8_t WireReader::get_u8(const char* what) {
    return static_cast<std::uint8_t>(get_bytes(1, what)[0]);
}

std::uint32_t WireReader::get_u32(const char* what) {
    const std::string_view b = get_bytes(4, what);
    std::uint32_t v = 0;
    for (std::size_t i = 0; i < 4; ++i) {
        v |= static_cast<std::uint32_t>(static_cast<unsigned char>(b[i])) << (8 * i);
    }
    return v;
}

std::uint64_t WireReader::get_u64(const char* what) {
    const std::string_view b = get_bytes(8, what);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8; ++i) {
        v |= static_cast<std::uint64_t>(static_cast<unsigned char>(b[i])) << (8 * i);
    }
    return v;
}

std::int64_t WireReader::get_i64(const char* what) {
    return static_cast<std::int64_t>(get_u64(what));
}

double WireReader::get_f64(const char* what) {
    return std::bit_cast<double>(get_u64(what));
}

void WireReader::require_end(const char* what) const {
    if (pos_ != data_.size()) {
        throw CorruptStateError(label_, offset(),
                                std::string(what) + ": " + std::to_string(remaining()) +
                                    " trailing bytes after the last field");
    }
}

std::string read_file(Vfs& vfs, const std::string& path) {
    try {
        return vfs.read_file(path);
    } catch (const VfsError& err) {
        if (err.code() == ENOENT) {
            throw CorruptStateError(path, 0, "file does not exist");
        }
        throw;
    }
}

std::string read_file(const std::string& path) {
    return read_file(posix_vfs(), path);
}

void atomic_write_file(Vfs& vfs, const std::string& path, std::string_view bytes) {
    const std::string tmp = path + ".tmp";
    {
        VfsFdGuard fd(vfs, vfs.create_truncate(tmp));
        try {
            vfs.write_all(fd.get(), tmp, bytes);
            vfs.fsync(fd.get(), tmp);
        } catch (const PowerLossInjected&) {
            throw;  // the simulated process is gone; no cleanup runs
        } catch (...) {
            fd.close();
            try {
                vfs.unlink(tmp);
            } catch (const VfsError&) {
                // Best-effort cleanup; the original error matters more.
            }
            throw;
        }
    }
    try {
        vfs.rename(tmp, path);
    } catch (const PowerLossInjected&) {
        throw;
    } catch (...) {
        try {
            vfs.unlink(tmp);
        } catch (const VfsError&) {
            // Best-effort cleanup; the original error matters more.
        }
        throw;
    }
    vfs.fsync_parent_dir(path);
}

void atomic_write_file(const std::string& path, std::string_view bytes) {
    atomic_write_file(posix_vfs(), path, bytes);
}

bool file_exists(Vfs& vfs, const std::string& path) {
    return vfs.file_exists(path);
}

bool file_exists(const std::string& path) {
    return posix_vfs().file_exists(path);
}

}  // namespace vnfr::serve
