// CRC-32 over the slice-by-8 tables (common/crc32.h): the standard
// IEEE values, agreement with a bit-at-a-time reference at every
// length and alignment, and the metadata log's torn-record check that
// depends on it.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "labmods/fslog.h"
#include "simdev/sim_device.h"

namespace labstor {
namespace {

// The definition: shift one bit at a time through the reflected
// polynomial. Slow and obviously right.
uint32_t BitwiseCrc32(const uint8_t* data, size_t len, uint32_t seed = 0) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

uint32_t Crc32Of(const std::string& s) { return Crc32(s.data(), s.size()); }

TEST(Crc32Test, KnownAnswerVectors) {
  EXPECT_EQ(Crc32Of(""), 0x00000000u);
  EXPECT_EQ(Crc32Of("a"), 0xE8B7BE43u);
  EXPECT_EQ(Crc32Of("abc"), 0x352441C2u);
  EXPECT_EQ(Crc32Of("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32Of("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
  EXPECT_EQ(Crc32Of(std::string(32, '\0')), 0x190A55ADu);
  EXPECT_EQ(Crc32Of(std::string(32, '\xFF')), 0xFF6CAB0Bu);
  std::string all_bytes(256, '\0');
  for (int i = 0; i < 256; ++i) all_bytes[i] = static_cast<char>(i);
  EXPECT_EQ(Crc32Of(all_bytes), 0x29058C73u);
}

TEST(Crc32Test, SeedContinuesAnEarlierRange) {
  const std::string head = "1234";
  const std::string tail = "56789";
  EXPECT_EQ(Crc32(tail.data(), tail.size(), Crc32Of(head)), 0xCBF43926u);
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  constexpr size_t kMaxLen = 1024;
  constexpr size_t kAlignments = 8;
  Rng rng(0xC0FFEE);
  std::vector<uint8_t> buf(kMaxLen + kAlignments);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.Next());
  for (size_t align = 0; align < kAlignments; ++align) {
    for (size_t len = 0; len <= kMaxLen; ++len) {
      const uint8_t* p = buf.data() + align;
      ASSERT_EQ(Crc32(p, len), BitwiseCrc32(p, len))
          << "length " << len << " at alignment " << align;
      const auto seed = static_cast<uint32_t>(len * 2654435761u);
      ASSERT_EQ(Crc32(p, len, seed), BitwiseCrc32(p, len, seed))
          << "length " << len << " at alignment " << align << " seeded";
    }
  }
}

// An appended record replays; flipping any one byte of its stored
// slot past the magic makes replay count it as torn and stop there.
TEST(MetadataLogCrcTest, FlippedByteMakesARecordTorn) {
  using labmods::LogOp;
  using labmods::LogRecord;
  constexpr uint64_t kSlot = sizeof(LogRecord);
  simdev::SimDevice device(nullptr, simdev::DeviceParams::NvmeP3700(8 << 20));
  labmods::MetadataLog log(&device, 0, /*workers=*/1,
                           /*per_worker_records=*/8);
  for (uint64_t i = 0; i < 2; ++i) {
    LogRecord record;
    record.op = LogOp::kMap;
    record.inode_id = 7;
    record.a = i;
    record.b = 1000 + i;
    record.c = 1;
    record.SetPath("/dir/file");
    ASSERT_TRUE(log.Append(0, record).ok());
  }
  const auto replay = [&] {
    std::vector<LogRecord> seen;
    EXPECT_TRUE(log.Replay([&](const LogRecord& record) -> Status {
                     seen.push_back(record);
                     return Status::Ok();
                   })
                    .ok());
    return seen;
  };
  std::vector<LogRecord> intact = replay();
  ASSERT_EQ(intact.size(), 2u);
  EXPECT_EQ(log.last_replay_torn_dropped(), 0u);
  for (uint64_t i = 0; i < 2; ++i) {
    EXPECT_EQ(intact[i].op, LogOp::kMap);
    EXPECT_EQ(intact[i].inode_id, 7u);
    EXPECT_EQ(intact[i].a, i);
    EXPECT_EQ(intact[i].b, 1000 + i);
    EXPECT_EQ(intact[i].GetPath(), "/dir/file");
  }

  // Flip each byte of the second record that the magic check does not
  // already catch: the checksummed fields and the checksum itself.
  for (uint64_t at = offsetof(LogRecord, op); at < kSlot; ++at) {
    uint8_t byte = 0;
    ASSERT_TRUE(device.ReadNow(kSlot + at, std::span(&byte, 1)).ok());
    const uint8_t flipped = byte ^ 0x01;
    ASSERT_TRUE(device.WriteNow(kSlot + at, std::span(&flipped, 1)).ok());
    const std::vector<LogRecord> seen = replay();
    EXPECT_EQ(seen.size(), 1u) << "byte " << at;
    EXPECT_EQ(log.last_replay_torn_dropped(), 1u) << "byte " << at;
    ASSERT_TRUE(device.WriteNow(kSlot + at, std::span(&byte, 1)).ok());
  }
  EXPECT_EQ(replay().size(), 2u);
  EXPECT_EQ(log.last_replay_torn_dropped(), 0u);
}

}  // namespace
}  // namespace labstor
