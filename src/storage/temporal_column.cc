#include "storage/temporal_column.h"

#include <array>
#include <bit>
#include <cstring>

#include "testing/fault_injector.h"

namespace tagg {
namespace {

constexpr uint32_t kBlockMagic = 0x31424354;  // "TCB1", little-endian

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

bool GetVarint(const uint8_t** p, const uint8_t* end, uint64_t* v) {
  uint64_t result = 0;
  int shift = 0;
  while (*p < end && shift < 64) {
    const uint8_t byte = *(*p)++;
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return true;
    }
    shift += 7;
  }
  return false;
}

uint64_t FieldAt(const char* record, size_t field) {
  uint64_t v;
  std::memcpy(&v, record + field * 8, sizeof(v));
  return v;
}

void PutFixed32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

uint32_t GetFixed32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

/// Slicing-by-16 tables: kCrcTables[0] is the classic byte table of the
/// reflected polynomial, and kCrcTables[k][b] is the CRC of byte b
/// followed by k zero bytes, so one step folds sixteen input bytes with
/// sixteen independent lookups.
using CrcTables = std::array<std::array<uint32_t, 256>, 16>;

constexpr CrcTables MakeCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = MakeCrcTables();

/// Four bytes as a little-endian word, whatever the host byte order.
uint32_t LoadLe32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

/// XOR-compressed double column entry: control byte 0 for "same as
/// previous"; otherwise (leading_zero_bytes << 4) | meaningful_bytes
/// followed by the meaningful bytes of the XOR (little-endian window
/// [trail, 8 - lead)).
void EncodeDouble(std::string* out, uint64_t bits, uint64_t* prev) {
  const uint64_t x = bits ^ *prev;
  *prev = bits;
  if (x == 0) {
    out->push_back(0);
    return;
  }
  int lead = 0;
  while (((x >> (8 * (7 - lead))) & 0xFF) == 0) ++lead;
  int trail = 0;
  while (((x >> (8 * trail)) & 0xFF) == 0) ++trail;
  const int meaningful = 8 - lead - trail;
  out->push_back(static_cast<char>((lead << 4) | meaningful));
  for (int b = trail; b < 8 - lead; ++b) {
    out->push_back(static_cast<char>((x >> (8 * b)) & 0xFF));
  }
}

bool DecodeDouble(const uint8_t** p, const uint8_t* end, uint64_t* prev,
                  uint64_t* out) {
  if (*p >= end) return false;
  const uint8_t control = *(*p)++;
  if (control == 0) {
    *out = *prev;
    return true;
  }
  const int lead = control >> 4;
  const int meaningful = control & 0x0F;
  if (meaningful == 0 || lead + meaningful > 8) return false;
  const int trail = 8 - lead - meaningful;
  if (end - *p < meaningful) return false;
  uint64_t x = 0;
  for (int b = 0; b < meaningful; ++b) {
    x |= static_cast<uint64_t>(*(*p)++) << (8 * (trail + b));
  }
  *out = *prev ^ x;
  *prev = *out;
  return true;
}

}  // namespace

uint32_t Crc32(uint32_t crc, const void* data, size_t n) {
  const auto& t = kCrcTables;
  const auto* p = static_cast<const uint8_t*>(data);
  crc = ~crc;
  for (; n >= 16; p += 16, n -= 16) {
    const uint32_t w0 = LoadLe32(p) ^ crc;
    const uint32_t w1 = LoadLe32(p + 4);
    const uint32_t w2 = LoadLe32(p + 8);
    const uint32_t w3 = LoadLe32(p + 12);
    crc = t[15][w0 & 0xFF] ^ t[14][(w0 >> 8) & 0xFF] ^
          t[13][(w0 >> 16) & 0xFF] ^ t[12][w0 >> 24] ^
          t[11][w1 & 0xFF] ^ t[10][(w1 >> 8) & 0xFF] ^
          t[9][(w1 >> 16) & 0xFF] ^ t[8][w1 >> 24] ^
          t[7][w2 & 0xFF] ^ t[6][(w2 >> 8) & 0xFF] ^
          t[5][(w2 >> 16) & 0xFF] ^ t[4][w2 >> 24] ^
          t[3][w3 & 0xFF] ^ t[2][(w3 >> 8) & 0xFF] ^
          t[1][(w3 >> 16) & 0xFF] ^ t[0][w3 >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

Status EncodeTemporalBlock(const TemporalColumnLayout& layout,
                           const void* records, size_t n, std::string* out) {
  if (layout.empty()) {
    return Status::InvalidArgument("temporal column layout is empty");
  }
  if (n > UINT32_MAX) {
    return Status::InvalidArgument("temporal column block too large");
  }
  TAGG_INJECT_FAULT("temporal_column.encode");
  const auto* base = static_cast<const char*>(records);
  const size_t record_size = layout.record_size();

  std::string payload;
  payload.reserve(n * layout.fields.size());  // optimistic: ~1 byte/field
  for (size_t f = 0; f < layout.fields.size(); ++f) {
    switch (layout.fields[f]) {
      case TemporalColumnLayout::Field::kTime: {
        // Delta-of-delta: the first value and first delta seed the stream.
        // The differences wrap in uint64_t (adversarial gaps overflow
        // int64_t); the decoder wraps back the same way.
        uint64_t prev = 0;
        uint64_t prev_delta = 0;
        for (size_t i = 0; i < n; ++i) {
          const uint64_t v = FieldAt(base + i * record_size, f);
          if (i == 0) {
            PutVarint(&payload, ZigZag(static_cast<int64_t>(v)));
          } else {
            const uint64_t delta = v - prev;
            PutVarint(&payload,
                      ZigZag(static_cast<int64_t>(delta - prev_delta)));
            prev_delta = delta;
          }
          prev = v;
        }
        break;
      }
      case TemporalColumnLayout::Field::kDouble: {
        uint64_t prev = 0;
        for (size_t i = 0; i < n; ++i) {
          EncodeDouble(&payload, FieldAt(base + i * record_size, f), &prev);
        }
        break;
      }
      case TemporalColumnLayout::Field::kInt: {
        for (size_t i = 0; i < n; ++i) {
          PutVarint(&payload, ZigZag(static_cast<int64_t>(
                                  FieldAt(base + i * record_size, f))));
        }
        break;
      }
    }
  }
  if (payload.size() > UINT32_MAX) {
    return Status::InvalidArgument("temporal column payload too large");
  }

  uint32_t crc = Crc32(0, payload.data(), payload.size());
  const uint32_t meta[2] = {static_cast<uint32_t>(n),
                            static_cast<uint32_t>(payload.size())};
  crc = Crc32(crc, meta, sizeof(meta));

  PutFixed32(out, kBlockMagic);
  PutFixed32(out, static_cast<uint32_t>(n));
  PutFixed32(out, static_cast<uint32_t>(payload.size()));
  PutFixed32(out, crc);
  out->append(payload);
  return Status::OK();
}

Result<size_t> TemporalBlockRecordCount(const TemporalColumnLayout& layout,
                                        const void* data, size_t size) {
  if (layout.empty()) {
    return Status::InvalidArgument("temporal column layout is empty");
  }
  const auto* p = static_cast<const uint8_t*>(data);
  if (size < kTemporalBlockHeaderSize) {
    return Status::Corruption("temporal column block: truncated header");
  }
  if (GetFixed32(p) != kBlockMagic) {
    return Status::Corruption("temporal column block: bad magic");
  }
  const uint32_t count = GetFixed32(p + 4);
  const uint32_t payload_size = GetFixed32(p + 8);
  if (size - kTemporalBlockHeaderSize < payload_size) {
    return Status::Corruption("temporal column block: truncated payload");
  }
  // Every field of every record costs at least one payload byte.
  if (static_cast<uint64_t>(count) * layout.fields.size() > payload_size) {
    return Status::Corruption(
        "temporal column block: record count exceeds its payload");
  }
  return static_cast<size_t>(count);
}

Result<size_t> DecodeTemporalBlock(const TemporalColumnLayout& layout,
                                   const void* data, size_t size,
                                   std::span<const TemporalFieldOut> fields,
                                   size_t count) {
  TAGG_INJECT_FAULT("temporal_column.decode");
  TAGG_ASSIGN_OR_RETURN(const size_t declared,
                        TemporalBlockRecordCount(layout, data, size));
  if (fields.empty() || fields.size() > layout.fields.size()) {
    return Status::InvalidArgument(
        "temporal column decode needs 1 to layout-size field outputs");
  }
  if (declared != count) {
    return Status::Corruption(
        "temporal column block: record count differs from the expected");
  }
  const auto* p = static_cast<const uint8_t*>(data);
  const uint32_t payload_size = GetFixed32(p + 8);
  const uint32_t want_crc = GetFixed32(p + 12);
  const uint8_t* payload = p + kTemporalBlockHeaderSize;
  uint32_t crc = Crc32(0, payload, payload_size);
  crc = Crc32(crc, p + 4, 8);  // count + payload_size, as encoded
  if (crc != want_crc) {
    return Status::Corruption("temporal column block: checksum mismatch");
  }

  const uint8_t* cursor = payload;
  const uint8_t* end = payload + payload_size;
  auto malformed = [] {
    return Status::Corruption("temporal column block: malformed payload");
  };
  // The one field loop.  Columns are stored one after another, so a
  // prefix of the layout decodes by stopping early; the fields past it
  // were covered by the CRC above but are never parsed.
  for (size_t f = 0; f < fields.size(); ++f) {
    auto* out = static_cast<char*>(fields[f].data);
    const size_t stride = fields[f].stride;
    switch (layout.fields[f]) {
      case TemporalColumnLayout::Field::kTime: {
        uint64_t prev = 0;
        uint64_t prev_delta = 0;
        for (size_t i = 0; i < count; ++i, out += stride) {
          uint64_t raw;
          if (!GetVarint(&cursor, end, &raw)) return malformed();
          uint64_t v;
          if (i == 0) {
            v = static_cast<uint64_t>(UnZigZag(raw));
          } else {
            prev_delta += static_cast<uint64_t>(UnZigZag(raw));
            v = prev + prev_delta;
          }
          prev = v;
          std::memcpy(out, &v, 8);
        }
        break;
      }
      case TemporalColumnLayout::Field::kDouble: {
        uint64_t prev = 0;
        for (size_t i = 0; i < count; ++i, out += stride) {
          uint64_t bits;
          if (!DecodeDouble(&cursor, end, &prev, &bits)) return malformed();
          std::memcpy(out, &bits, 8);
        }
        break;
      }
      case TemporalColumnLayout::Field::kInt: {
        for (size_t i = 0; i < count; ++i, out += stride) {
          uint64_t raw;
          if (!GetVarint(&cursor, end, &raw)) return malformed();
          const int64_t v = UnZigZag(raw);
          std::memcpy(out, &v, 8);
        }
        break;
      }
    }
  }
  // Only a whole-record decode has read up to where the payload ends.
  if (fields.size() == layout.fields.size() && cursor != end) {
    return malformed();
  }
  return kTemporalBlockHeaderSize + static_cast<size_t>(payload_size);
}

Result<size_t> DecodeTemporalBlock(const TemporalColumnLayout& layout,
                                   const void* data, size_t size,
                                   void* records, size_t count) {
  // Field f of record i sits at records + i * record_size + 8 f.
  auto* base = static_cast<char*>(records);
  std::vector<TemporalFieldOut> fields(layout.fields.size());
  for (size_t f = 0; f < fields.size(); ++f) {
    fields[f] = {base + 8 * f, layout.record_size()};
  }
  return DecodeTemporalBlock(layout, data, size, fields, count);
}

Result<size_t> DecodeTemporalBlock(const TemporalColumnLayout& layout,
                                   const void* data, size_t size,
                                   std::vector<char>* out) {
  TAGG_ASSIGN_OR_RETURN(const size_t count,
                        TemporalBlockRecordCount(layout, data, size));
  const size_t out_base = out->size();
  out->resize(out_base + count * layout.record_size());
  auto consumed = DecodeTemporalBlock(layout, data, size,
                                     out->data() + out_base, count);
  if (!consumed.ok()) out->resize(out_base);
  return consumed;
}

}  // namespace tagg
