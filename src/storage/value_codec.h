#ifndef DATASPREAD_STORAGE_VALUE_CODEC_H_
#define DATASPREAD_STORAGE_VALUE_CODEC_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "types/value.h"

/// The storage engine's one abort-on-failure check. A failed durability I/O
/// call (write, fsync, rename) or a broken internal invariant (a freed page
/// still pinned, a malformed log record) aborts: continuing would hand out
/// acknowledgements the log cannot honor or corrupt a recycled frame
/// silently. Stays on in release builds — one predictable branch per call.
/// `component` names the reporter ("Pager", "Wal", ...) in the message.
#define DS_STORAGE_CHECK(component, cond, msg)                           \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::fprintf(stderr, "storage::%s check failed: %s\n", (component), \
                   (msg));                                               \
      std::abort();                                                      \
    }                                                                    \
  } while (0)

namespace dataspread {
namespace storage {

/// The one binary encoding of a Value, shared by every durable surface of the
/// storage engine: SpillFile page records and WAL redo records use byte-for-
/// byte the same layout, so a redo record can be replayed straight into a
/// page and a page image logged straight out of one.
///
/// Layout per value: a tag byte (0 NULL, 1 BOOL, 2 INT, 3 REAL, 4 TEXT,
/// 5 ERROR) followed by the payload (nothing / u8 / i64 LE / f64 LE /
/// u32 length + bytes). Integers are little-endian host order — the spill
/// and WAL files are per-installation state, not interchange formats.

void EncodeValue(const Value& v, std::string* out);
/// Decodes one value at `*pos`, advancing it. Returns false (leaving `*pos`
/// unspecified) on a malformed buffer — callers treat that as corruption.
bool DecodeValue(const std::string& buf, size_t* pos, Value* out);

// ---- Little-endian scalar helpers shared by the binary file formats -------

void AppendRaw(std::string* out, const void* data, size_t n);
void AppendU16(std::string* out, uint16_t v);
void AppendU32(std::string* out, uint32_t v);
void AppendU64(std::string* out, uint64_t v);

/// Each reads a scalar at `*pos` and advances it; false = buffer too short.
bool ReadU16(const std::string& buf, size_t* pos, uint16_t* out);
bool ReadU32(const std::string& buf, size_t* pos, uint32_t* out);
bool ReadU64(const std::string& buf, size_t* pos, uint64_t* out);

/// CRC-32 (IEEE 802.3, the zlib polynomial), table-driven. Guards every WAL
/// record against torn writes and bit rot; exposed for tests.
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

}  // namespace storage
}  // namespace dataspread

#endif  // DATASPREAD_STORAGE_VALUE_CODEC_H_
