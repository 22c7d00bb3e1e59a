#include "storage/value_codec.h"

#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace dataspread {
namespace storage {

namespace {

enum Tag : unsigned char {
  kTagNull = 0,
  kTagBool = 1,
  kTagInt = 2,
  kTagReal = 3,
  kTagText = 4,
  kTagError = 5,
};

}  // namespace

void AppendRaw(std::string* out, const void* data, size_t n) {
  out->append(static_cast<const char*>(data), n);
}

void AppendU16(std::string* out, uint16_t v) { AppendRaw(out, &v, sizeof v); }
void AppendU32(std::string* out, uint32_t v) { AppendRaw(out, &v, sizeof v); }
void AppendU64(std::string* out, uint64_t v) { AppendRaw(out, &v, sizeof v); }

namespace {
template <typename T>
bool ReadScalar(const std::string& buf, size_t* pos, T* out) {
  if (*pos + sizeof(T) > buf.size()) return false;
  std::memcpy(out, buf.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}
}  // namespace

bool ReadU16(const std::string& buf, size_t* pos, uint16_t* out) {
  return ReadScalar(buf, pos, out);
}
bool ReadU32(const std::string& buf, size_t* pos, uint32_t* out) {
  return ReadScalar(buf, pos, out);
}
bool ReadU64(const std::string& buf, size_t* pos, uint64_t* out) {
  return ReadScalar(buf, pos, out);
}

void EncodeValue(const Value& v, std::string* out) {
  switch (v.type()) {
    case DataType::kNull:
      out->push_back(static_cast<char>(kTagNull));
      return;
    case DataType::kBool: {
      out->push_back(static_cast<char>(kTagBool));
      out->push_back(v.bool_value() ? 1 : 0);
      return;
    }
    case DataType::kInt: {
      out->push_back(static_cast<char>(kTagInt));
      int64_t i = v.int_value();
      AppendRaw(out, &i, sizeof i);
      return;
    }
    case DataType::kReal: {
      out->push_back(static_cast<char>(kTagReal));
      double d = v.real_value();
      AppendRaw(out, &d, sizeof d);
      return;
    }
    case DataType::kText: {
      out->push_back(static_cast<char>(kTagText));
      const std::string& s = v.text_value();
      DS_STORAGE_CHECK("value_codec", s.size() <= UINT32_MAX,
                       "TEXT payload exceeds u32 length");
      AppendU32(out, static_cast<uint32_t>(s.size()));
      out->append(s);
      return;
    }
    case DataType::kError: {
      out->push_back(static_cast<char>(kTagError));
      const std::string& s = v.error_code();
      DS_STORAGE_CHECK("value_codec", s.size() <= UINT32_MAX,
                       "ERROR payload exceeds u32 length");
      AppendU32(out, static_cast<uint32_t>(s.size()));
      out->append(s);
      return;
    }
  }
  DS_STORAGE_CHECK("value_codec", false, "unencodable value type");
}

bool DecodeValue(const std::string& buf, size_t* pos, Value* out) {
  if (*pos >= buf.size()) return false;
  unsigned char tag = static_cast<unsigned char>(buf[(*pos)++]);
  switch (tag) {
    case kTagNull:
      *out = Value::Null();
      return true;
    case kTagBool:
      if (*pos + 1 > buf.size()) return false;
      *out = Value::Bool(buf[(*pos)++] != 0);
      return true;
    case kTagInt: {
      int64_t i;
      if (!ReadScalar(buf, pos, &i)) return false;
      *out = Value::Int(i);
      return true;
    }
    case kTagReal: {
      double d;
      if (!ReadScalar(buf, pos, &d)) return false;
      *out = Value::Real(d);
      return true;
    }
    case kTagText:
    case kTagError: {
      uint32_t len;
      if (!ReadU32(buf, pos, &len)) return false;
      if (*pos + len > buf.size()) return false;
      std::string s(buf.data() + *pos, len);
      *pos += len;
      *out = tag == kTagText ? Value::Text(std::move(s))
                             : Value::Error(std::move(s));
      return true;
    }
    default:
      return false;
  }
}

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  // Table built once, on first use (thread-safe per C++11 static init).
  static const std::array<uint32_t, 256> kTable = [] {
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
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    crc = kTable[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace storage
}  // namespace dataspread
