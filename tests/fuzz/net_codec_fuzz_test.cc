// Protocol codec fuzzing: random, truncated, bit-flipped, and oversized
// inputs through the frame decoder, every typed payload decoder, and the
// text-mode command handler.  The codecs must never crash, hang, or read
// past the input — any outcome other than a clean Status/result is a bug.
// ASan/UBSan CI runs this harness to catch over-reads the assertions
// cannot see.  TAGG_FUZZ_SEEDS scales the iteration budget.

#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "live/service.h"
#include "net/wire.h"
#include "server/protocol.h"
#include "shard/sharded_service.h"

namespace tagg {
namespace net {
namespace {

size_t FuzzBudget(size_t fallback) {
  const char* env = std::getenv("TAGG_FUZZ_SEEDS");
  if (env == nullptr) return fallback;
  const long parsed = std::atol(env);
  return parsed > 0 ? static_cast<size_t>(parsed) : fallback;
}

std::string RandomBytes(std::mt19937_64& rng, size_t max_len) {
  std::uniform_int_distribution<size_t> len_dist(0, max_len);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  std::string out(len_dist(rng), '\0');
  for (char& c : out) c = static_cast<char>(byte_dist(rng));
  return out;
}

/// The reply a text client sees: the command's text, or its error line.
std::string TextReply(const server::ServingState& state,
                      std::string_view line, bool* quit) {
  Result<std::string> result = server::ExecuteTextRequest(state, line, quit);
  return result.ok() ? *result : server::TextErrorLine(result.status());
}

/// Runs one payload through every typed decoder; only a crash or
/// over-read (caught by the sanitizers) can fail this.
void DecodeEverything(std::string_view payload) {
  (void)DecodeInsert(payload);
  (void)DecodeInsertBatch(payload);
  (void)DecodeFlush(payload);
  (void)DecodeAggregateAt(payload);
  (void)DecodeAggregateOver(payload);
  (void)DecodeAggregateAtResponse(payload);
  (void)DecodeAggregateOverResponse(payload);
}

TEST(NetCodecFuzzTest, RandomBytesNeverCrashTheFrameDecoder) {
  std::mt19937_64 rng(20260807);
  const size_t budget = FuzzBudget(300);
  for (size_t i = 0; i < budget; ++i) {
    std::string buffer = RandomBytes(rng, 512);
    // Bias some inputs toward the request magic so decoding gets past
    // the first byte often enough to matter.
    if (i % 3 == 0 && !buffer.empty()) {
      buffer[0] = static_cast<char>(kRequestMagic);
    }
    for (const bool expect_request : {true, false}) {
      FrameHeader header;
      std::string_view payload;
      size_t consumed = 0;
      Status error;
      const FrameDecodeState state =
          TryDecodeFrame(buffer, expect_request, 1u << 16, &header,
                         &payload, &consumed, &error);
      if (state == FrameDecodeState::kFrame) {
        ASSERT_LE(consumed, buffer.size());
        ASSERT_LE(payload.size(), buffer.size());
        DecodeEverything(payload);
      }
    }
  }
}

TEST(NetCodecFuzzTest, TruncatedValidPayloadsFailCleanly) {
  InsertBatchRequest batch;
  batch.relation = "events";
  for (int i = 0; i < 8; ++i) {
    batch.tuples.push_back(
        {i, i + 10,
         {Value::Int(i), Value::Double(0.5 * i), Value::String("abc"),
          Value::Null()}});
  }
  AggregateOverRequest over;
  over.relation = "events";
  over.aggregate = 1;
  over.attribute = 2;
  over.start = -5;
  over.end = 1000;
  AggregateOverResponse resp;
  resp.epoch = 9;
  resp.intervals = {{0, 4, Value::Int(2)}, {5, 9, Value::Double(1.5)}};

  const std::vector<std::string> corpus = {
      EncodeInsert({"events", {1, 2, {Value::Double(3.5)}}}),
      EncodeInsertBatch(batch),
      EncodeFlush({"events"}),
      EncodeAggregateAt({"events", 4, kWireNoAttribute, 77}),
      EncodeAggregateOver(over),
      EncodeAggregateAtResponse({3, Value::String("x")}),
      EncodeAggregateOverResponse(resp),
  };
  for (const std::string& payload : corpus) {
    for (size_t n = 0; n <= payload.size(); ++n) {
      DecodeEverything(std::string_view(payload).substr(0, n));
    }
  }
}

TEST(NetCodecFuzzTest, BitFlippedPayloadsNeverCrash) {
  std::mt19937_64 rng(7);
  InsertBatchRequest batch;
  batch.relation = "relation_with_a_longer_name";
  for (int i = 0; i < 5; ++i) {
    batch.tuples.push_back({i, i + 1, {Value::String("payload")}});
  }
  const std::string base = EncodeInsertBatch(batch);
  const size_t budget = FuzzBudget(300);
  std::uniform_int_distribution<size_t> pos_dist(0, base.size() - 1);
  std::uniform_int_distribution<int> bit_dist(0, 7);
  for (size_t i = 0; i < budget; ++i) {
    std::string mutated = base;
    // Flip 1-4 random bits: corrupts length fields, type tags, counts.
    const size_t flips = 1 + i % 4;
    for (size_t f = 0; f < flips; ++f) {
      mutated[pos_dist(rng)] ^= static_cast<char>(1 << bit_dist(rng));
    }
    DecodeEverything(mutated);
  }
}

TEST(NetCodecFuzzTest, HostileLengthFieldsDoNotAllocate) {
  // Claimed element counts and string lengths far beyond the actual
  // payload must fail before any proportional allocation.
  Writer huge_count;
  huge_count.Str("r");
  huge_count.U32(0xFFFFFFF0u);
  EXPECT_FALSE(DecodeInsertBatch(huge_count.bytes()).ok());

  Writer huge_string;
  huge_string.U16(0xFFFF);  // string length with 2 bytes of payload
  huge_string.U8('x');
  huge_string.U8('y');
  Cursor c(huge_string.bytes());
  EXPECT_FALSE(c.Str().ok());

  Writer huge_intervals;
  huge_intervals.U64(1);           // epoch
  huge_intervals.U32(0xEEEEEEEEu);  // interval count, no intervals
  EXPECT_FALSE(DecodeAggregateOverResponse(huge_intervals.bytes()).ok());
}

TEST(NetCodecFuzzTest, TextCommandsNeverCrashTheHandler) {
  // A live handler over a real catalog: random lines and mutated valid
  // commands must come back as clean "+OK"/"-ERR" text, never a crash.
  Catalog catalog;
  Result<Schema> schema = Schema::Make({{"value", ValueType::kDouble}});
  ASSERT_TRUE(schema.ok());
  ASSERT_TRUE(
      catalog.Register(std::make_shared<Relation>(*schema, "events")).ok());
  LiveService live;
  ASSERT_TRUE(
      live.RegisterIndex(catalog, "events", AggregateKind::kCount).ok());
  const server::ServingState state{&catalog, &live};

  const std::vector<std::string> seeds = {
      "insert events 10 20 5.5", "at events count * 15",
      "over events count * 0 100", "flush events", "ping", "stats",
      "metrics"};
  std::mt19937_64 rng(42);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  const size_t budget = FuzzBudget(300);
  for (size_t i = 0; i < budget; ++i) {
    std::string line;
    if (i % 2 == 0) {
      line = seeds[i % seeds.size()];
      std::uniform_int_distribution<size_t> pos_dist(0, line.size() - 1);
      line[pos_dist(rng)] = static_cast<char>(byte_dist(rng));
    } else {
      line = RandomBytes(rng, 200);
    }
    bool quit = false;
    const std::string reply = TextReply(state, line, &quit);
    ASSERT_FALSE(reply.empty());
    ASSERT_EQ(reply.back(), '\n');
  }
}

TEST(NetCodecFuzzTest, HostileIntegersAreRejectedNotTruncated) {
  // Overflowed, negative, and trailing-garbage integers through every
  // strtoll site of the text parser (timestamps, attribute indexes,
  // values): each must come back "-ERR", never wrap around, and never be
  // silently accepted via prefix parsing or size_t truncation.  Runs
  // against both serving states so the sharded dispatch path parses
  // identically.
  Catalog catalog;
  Result<Schema> schema = Schema::Make({{"value", ValueType::kDouble}});
  ASSERT_TRUE(schema.ok());
  ASSERT_TRUE(
      catalog.Register(std::make_shared<Relation>(*schema, "events")).ok());
  LiveService live;
  ASSERT_TRUE(
      live.RegisterIndex(catalog, "events", AggregateKind::kCount).ok());
  ASSERT_TRUE(
      live.RegisterIndex(catalog, "events", AggregateKind::kSum, "value")
          .ok());
  shard::ShardedLiveService sharded;
  ASSERT_TRUE(
      sharded.RegisterIndex(catalog, "events", AggregateKind::kCount).ok());

  const std::vector<std::string> hostile = {
      // Timestamps beyond int64: ParseInt64 must see ERANGE.
      "insert events 99999999999999999999999999 5 1.0",
      "insert events 5 99999999999999999999999999 1.0",
      "at events count * 99999999999999999999999999",
      "over events count * 0 18446744073709551616",
      // Attribute indexes that overflow long long, or that fit in an
      // unsigned wraparound (2^64) — ParseAggAttr must reject both
      // instead of truncating into a bogus small index.
      "at events count 99999999999999999999999999 5",
      "at events sum 18446744073709551616 5",
      "at events sum -1 5",
      "over events sum 99999999999999999999999999 0 10",
      // kNoAttribute itself (2^64 - 1) is reserved, not addressable.
      "at events sum 18446744073709551615 5",
      // Trailing garbage after a valid prefix.
      "at events count * 15zzz",
      "insert events 10 20 1.0 trailing",
      "set shards 99999999999999999999999999",
      "set shards 2x",
      "set shards -4",
  };
  const server::ServingState unsharded_state{&catalog, &live};
  const server::ServingState sharded_state{&catalog, nullptr, &sharded};
  for (const server::ServingState& state :
       {unsharded_state, sharded_state}) {
    for (const std::string& line : hostile) {
      bool quit = false;
      const std::string reply = TextReply(state, line, &quit);
      EXPECT_EQ(reply.rfind("-ERR", 0), 0u)
          << "'" << line << "' got: " << reply;
      EXPECT_FALSE(quit);
    }
  }
}

}  // namespace
}  // namespace net
}  // namespace tagg
