#include "storage/temporal_column.h"

#include <array>
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

const std::array<uint32_t, 256>& Crc32Table() {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
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
  const auto& table = Crc32Table();
  const auto* p = static_cast<const uint8_t*>(data);
  crc = ~crc;
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
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

Result<size_t> DecodeTemporalBlock(const TemporalColumnLayout& layout,
                                   const void* data, size_t size,
                                   std::vector<char>* out) {
  if (layout.empty()) {
    return Status::InvalidArgument("temporal column layout is empty");
  }
  TAGG_INJECT_FAULT("temporal_column.decode");
  const auto* p = static_cast<const uint8_t*>(data);
  if (size < kTemporalBlockHeaderSize) {
    return Status::Corruption("temporal column block: truncated header");
  }
  if (GetFixed32(p) != kBlockMagic) {
    return Status::Corruption("temporal column block: bad magic");
  }
  const uint32_t count = GetFixed32(p + 4);
  const uint32_t payload_size = GetFixed32(p + 8);
  const uint32_t want_crc = GetFixed32(p + 12);
  if (size - kTemporalBlockHeaderSize < payload_size) {
    return Status::Corruption("temporal column block: truncated payload");
  }
  const uint8_t* payload = p + kTemporalBlockHeaderSize;
  uint32_t crc = Crc32(0, payload, payload_size);
  const uint32_t meta[2] = {count, payload_size};
  crc = Crc32(crc, meta, sizeof(meta));
  if (crc != want_crc) {
    return Status::Corruption("temporal column block: checksum mismatch");
  }

  const size_t record_size = layout.record_size();
  const size_t out_base = out->size();
  out->resize(out_base + static_cast<size_t>(count) * record_size);
  char* recs = out->data() + out_base;

  const uint8_t* cursor = payload;
  const uint8_t* end = payload + payload_size;
  auto malformed = [&]() -> Status {
    out->resize(out_base);
    return Status::Corruption("temporal column block: malformed payload");
  };
  for (size_t f = 0; f < layout.fields.size(); ++f) {
    switch (layout.fields[f]) {
      case TemporalColumnLayout::Field::kTime: {
        uint64_t prev = 0;
        uint64_t prev_delta = 0;
        for (uint32_t i = 0; i < count; ++i) {
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
          std::memcpy(recs + i * record_size + f * 8, &v, 8);
        }
        break;
      }
      case TemporalColumnLayout::Field::kDouble: {
        uint64_t prev = 0;
        for (uint32_t i = 0; i < count; ++i) {
          uint64_t bits;
          if (!DecodeDouble(&cursor, end, &prev, &bits)) return malformed();
          std::memcpy(recs + i * record_size + f * 8, &bits, 8);
        }
        break;
      }
      case TemporalColumnLayout::Field::kInt: {
        for (uint32_t i = 0; i < count; ++i) {
          uint64_t raw;
          if (!GetVarint(&cursor, end, &raw)) return malformed();
          const int64_t v = UnZigZag(raw);
          std::memcpy(recs + i * record_size + f * 8, &v, 8);
        }
        break;
      }
    }
  }
  if (cursor != end) return malformed();
  return kTemporalBlockHeaderSize + static_cast<size_t>(payload_size);
}

}  // namespace tagg
