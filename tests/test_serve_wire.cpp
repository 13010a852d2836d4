#include "serve/wire.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <vector>

namespace vnfr::serve {
namespace {

TEST(Crc32, MatchesKnownVectors) {
    // Standard IEEE 802.3 / zlib check value.
    EXPECT_EQ(crc32("123456789"), 0xCBF43926U);
    EXPECT_EQ(crc32(""), 0x00000000U);
}

TEST(Crc32, SeedChainsIncrementally) {
    const std::string a = "hello, ";
    const std::string b = "world";
    EXPECT_EQ(crc32(a + b), crc32(b, crc32(a)));
}

TEST(Wire, RoundTripsEveryFieldType) {
    WireWriter w;
    w.put_u8(0xAB);
    w.put_u32(0xDEADBEEFU);
    w.put_u64(0x0123456789ABCDEFULL);
    w.put_i64(-42);
    w.put_f64(3.141592653589793);
    w.put_f64(-0.0);
    w.put_bytes("tail");

    WireReader r(w.bytes(), "buffer");
    EXPECT_EQ(r.get_u8("u8"), 0xAB);
    EXPECT_EQ(r.get_u32("u32"), 0xDEADBEEFU);
    EXPECT_EQ(r.get_u64("u64"), 0x0123456789ABCDEFULL);
    EXPECT_EQ(r.get_i64("i64"), -42);
    EXPECT_EQ(r.get_f64("f64"), 3.141592653589793);
    const double neg_zero = r.get_f64("negative zero");
    EXPECT_EQ(neg_zero, 0.0);
    EXPECT_TRUE(std::signbit(neg_zero));  // bit-exact, not value-equal
    EXPECT_EQ(r.get_bytes(4, "tail"), "tail");
    EXPECT_NO_THROW(r.require_end("buffer"));
}

TEST(Wire, LittleEndianLayoutIsFixed) {
    WireWriter w;
    w.put_u32(0x01020304U);
    const std::string& b = w.bytes();
    ASSERT_EQ(b.size(), 4u);
    EXPECT_EQ(static_cast<unsigned char>(b[0]), 0x04);
    EXPECT_EQ(static_cast<unsigned char>(b[3]), 0x01);
}

TEST(Wire, TruncatedReadThrowsWithOffsetAndFieldName) {
    WireWriter w;
    w.put_u64(7);
    WireReader r(w.bytes(), "short-buffer");
    r.get_u32("first half");
    try {
        r.get_u64("the wide field");
        FAIL() << "expected CorruptStateError";
    } catch (const CorruptStateError& e) {
        EXPECT_EQ(e.file(), "short-buffer");
        EXPECT_EQ(e.offset(), 4u);
        EXPECT_NE(std::string(e.what()).find("the wide field"), std::string::npos);
    }
}

TEST(Wire, TrailingBytesFailRequireEnd) {
    WireWriter w;
    w.put_u32(1);
    w.put_u32(2);
    WireReader r(w.bytes(), "buffer");
    r.get_u32("only field");
    EXPECT_THROW(r.require_end("payload"), CorruptStateError);
}

TEST(Wire, BaseOffsetShiftsReportedPositions) {
    WireReader r("", "wal", 100);
    try {
        r.get_u8("kind");
        FAIL() << "expected CorruptStateError";
    } catch (const CorruptStateError& e) {
        EXPECT_EQ(e.offset(), 100u);
    }
}

TEST(WireFiles, AtomicWriteThenReadRoundTrips) {
    const std::string path = ::testing::TempDir() + "wire_roundtrip.bin";
    const std::string payload("\x00\x01\xFFzzz", 6);
    atomic_write_file(path, payload);
    EXPECT_EQ(read_file(path), payload);
    // Replacement is atomic: rewriting leaves only the new content.
    atomic_write_file(path, "second");
    EXPECT_EQ(read_file(path), "second");
    EXPECT_FALSE(file_exists(path + ".tmp"));
    std::remove(path.c_str());
}

TEST(WireFiles, GenerationNamesParseWithoutOverflow) {
    EXPECT_EQ(parse_generation("wal-42.log", "wal-", ".log"), 42u);
    EXPECT_EQ(parse_generation("wal-18446744073709551615.log", "wal-", ".log"),
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(parse_generation("wal-18446744073709551616.log", "wal-", ".log"),
              std::nullopt);
    EXPECT_EQ(parse_generation("wal-99999999999999999999999.log", "wal-", ".log"),
              std::nullopt);
    for (const char* bad : {"wal-.log", "wal--1.log", "wal-+1.log", "wal- 1.log",
                            "wal-1.log.tmp", "wal-1x.log", "wal-1", "snapshot.bin"}) {
        EXPECT_EQ(parse_generation(bad, "wal-", ".log"), std::nullopt) << bad;
    }
    EXPECT_EQ(parse_generation("snapshot.bin.7", "snapshot.bin.", ""), 7u);
    EXPECT_EQ(parse_generation("snapshot.bin.7.tmp", "snapshot.bin.", ""), std::nullopt);
    EXPECT_EQ(parse_generation("snapshot.bin.7.tmp", "snapshot.bin.", ".tmp"), 7u);
    EXPECT_EQ(parse_generations({"wal-10.log", "wal-9.log", "x", "wal-2.log"}, "wal-",
                                ".log"),
              (std::vector<std::uint64_t>{2, 9, 10}));
}

TEST(WireFiles, MissingFileThrowsCorruptStateError) {
    EXPECT_THROW(read_file(::testing::TempDir() + "does_not_exist.bin"),
                 CorruptStateError);
}

}  // namespace
}  // namespace vnfr::serve
