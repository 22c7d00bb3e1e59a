#include "storage/spill_file.h"

#include <cstdlib>
#include <cstring>

#include <sys/types.h>
#include <unistd.h>

#include "storage/pager.h"
#include "storage/value_codec.h"

namespace dataspread {
namespace storage {

SpillFile::SpillFile(std::string path, bool durable)
    : path_(std::move(path)), durable_(durable) {
  DS_STORAGE_CHECK("SpillFile", !durable_ || !path_.empty(),
                   "durable spill requires a named path");
}

SpillFile::~SpillFile() {
  if (file_ != nullptr) std::fclose(file_);
  // A scratch spill file is a per-run heap, never a durable store: remove it
  // so test and bench runs leave no artifacts behind. A durable one *is* the
  // store — it stays, alongside the WAL.
  if (!path_.empty() && !durable_) std::remove(path_.c_str());
}

std::FILE* SpillFile::EnsureOpen() {
  if (file_ != nullptr) return file_;
  if (path_.empty()) {
    file_ = std::tmpfile();
  } else if (durable_) {
    // Preserve existing bytes across runs: try update mode first, fall back
    // to creation on the very first open.
    file_ = std::fopen(path_.c_str(), "rb+");
    if (file_ == nullptr) file_ = std::fopen(path_.c_str(), "wb+");
  } else {
    file_ = std::fopen(path_.c_str(), "wb+");
  }
  DS_STORAGE_CHECK("SpillFile", file_ != nullptr, "cannot open spill file");
  // A 256 KiB stdio buffer (vs the libc default of a few KiB) lets a run of
  // sequentially laid-out page records — eviction write-back of a scan
  // stream, fault-in with readahead — coalesce into far fewer syscalls.
  io_buffer_.resize(256 * 1024);
  std::setvbuf(file_, io_buffer_.data(), _IOFBF, io_buffer_.size());
  return file_;
}

void SpillFile::SeekTo(std::FILE* f, uint64_t offset, bool writing) {
  if (stream_pos_ == offset && stream_writing_ == writing) return;
  // fseeko, not fseek: offsets are 64-bit and the heap can pass LONG_MAX on
  // ILP32 targets (relocated records abandon their old space, so text-heavy
  // workloads grow the file monotonically).
  DS_STORAGE_CHECK("SpillFile",
                   fseeko(f, static_cast<off_t>(offset), SEEK_SET) == 0,
                   "seek in spill file");
  stream_pos_ = offset;
  stream_writing_ = writing;
}

void SpillFile::Sync() {
  if (file_ == nullptr) return;
  DS_STORAGE_CHECK("SpillFile",
                   std::fflush(file_) == 0 && ::fsync(::fileno(file_)) == 0,
                   "spill fsync");
}

SpillFile::DirectorySnapshot SpillFile::ExportDirectory() const {
  DirectorySnapshot dir;
  dir.slots = slots_;
  dir.free_slots = free_slots_;
  dir.end_offset = end_offset_;
  dir.dead_bytes = dead_bytes_;
  return dir;
}

void SpillFile::RestoreDirectory(const DirectorySnapshot& dir) {
  DS_STORAGE_CHECK("SpillFile", slots_.empty() && end_offset_ == 0,
                   "restoring a directory over a live spill heap");
  slots_ = dir.slots;
  free_slots_ = dir.free_slots;
  end_offset_ = dir.end_offset;
  dead_bytes_ = dir.dead_bytes;
}

uint64_t SpillFile::AllocateSlot() {
  if (!free_slots_.empty()) {
    uint64_t slot = free_slots_.back();
    free_slots_.pop_back();
    // The recycled slot's reserved space goes live again.
    dead_bytes_ -= slots_[slot].capacity;
    slots_[slot].length = 0;
    return slot;
  }
  slots_.push_back(Record{});
  return slots_.size() - 1;
}

void SpillFile::FreeSlot(uint64_t slot) {
  DS_STORAGE_CHECK("SpillFile", slot < slots_.size(),
                   "freeing an unknown spill slot");
  free_slots_.push_back(slot);
  dead_bytes_ += slots_[slot].capacity;
}

void SpillFile::EncodePage(const ValuePage& page, std::string* out) {
  out->clear();
  for (size_t i = 0; i < ValuePage::kSlotCount; ++i) {
    EncodeValue(page.slot(i), out);
  }
}

bool SpillFile::DecodePage(const std::string& buf, ValuePage* page) {
  size_t pos = 0;
  for (size_t i = 0; i < ValuePage::kSlotCount; ++i) {
    Value v;
    if (!DecodeValue(buf, &pos, &v)) return false;
    page->slot(i) = std::move(v);
  }
  return pos == buf.size();
}

uint64_t SpillFile::WritePage(uint64_t slot, const ValuePage& page) {
  DS_STORAGE_CHECK("SpillFile", slot < slots_.size(),
                   "writing an unknown spill slot");
  EncodePage(page, &scratch_);
  DS_STORAGE_CHECK("SpillFile", scratch_.size() <= UINT32_MAX,
                   "page record exceeds u32 length");
  Record& rec = slots_[slot];
  if (scratch_.size() > rec.capacity) {
    // Outgrew the reserved space: relocate to the end of the heap. The old
    // space stays with this slot's former record and is simply abandoned —
    // counted as dead bytes, the compaction signal — while fixed-width
    // pages (the common case) always rewrite in place. Under a durable
    // pager this abandonment doubles as copy-on-write: the checkpoint-time
    // base at the old offset survives untouched for crash recovery.
    dead_bytes_ += rec.capacity;
    rec.offset = end_offset_;
    rec.capacity = static_cast<uint32_t>(scratch_.size());
    end_offset_ += scratch_.size();
  }
  rec.length = static_cast<uint32_t>(scratch_.size());
  std::FILE* f = EnsureOpen();
  SeekTo(f, rec.offset, /*writing=*/true);
  DS_STORAGE_CHECK("SpillFile",
                   std::fwrite(scratch_.data(), 1, scratch_.size(), f) ==
                       scratch_.size(),
                   "short spill write");
  stream_pos_ += scratch_.size();
  return scratch_.size();
}

uint64_t SpillFile::ReadPage(uint64_t slot, ValuePage* page) {
  DS_STORAGE_CHECK("SpillFile", slot < slots_.size(),
                   "reading an unknown spill slot");
  const Record& rec = slots_[slot];
  DS_STORAGE_CHECK("SpillFile", rec.length > 0,
                   "reading a never-written spill slot");
  scratch_.resize(rec.length);
  std::FILE* f = EnsureOpen();
  SeekTo(f, rec.offset, /*writing=*/false);
  DS_STORAGE_CHECK("SpillFile",
                   std::fread(&scratch_[0], 1, rec.length, f) == rec.length,
                   "short spill read");
  stream_pos_ += rec.length;
  DS_STORAGE_CHECK("SpillFile", DecodePage(scratch_, page),
                   "corrupt spill record");
  return rec.length;
}

}  // namespace storage
}  // namespace dataspread
