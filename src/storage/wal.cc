#include "storage/wal.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "storage/value_codec.h"

namespace dataspread {
namespace storage {

namespace {

constexpr char kMagic[8] = {'D', 'S', 'W', 'A', 'L', '0', '0', '1'};
// Upper bound on one record body: a page image is ~a few KiB unless TEXT
// payloads blow it up; 1 GiB is far beyond anything legitimate and lets the
// scanner reject garbage lengths without huge allocations.
constexpr uint32_t kMaxBodyBytes = 1u << 30;

void BuildFileHeader(uint64_t base_lsn, std::string* out) {
  out->clear();
  out->append(kMagic, sizeof kMagic);
  AppendU64(out, base_lsn);
  AppendU32(out, Crc32(&base_lsn, sizeof base_lsn));
}

void FrameRecord(uint64_t lsn, WalRecordType type, const std::string& payload,
                 std::string* out) {
  // body = type byte + payload; crc covers lsn || body so a record can never
  // be accepted at the wrong stream position.
  uint32_t body_len = static_cast<uint32_t>(1 + payload.size());
  DS_STORAGE_CHECK("Wal", payload.size() < kMaxBodyBytes,
                   "WAL record body too large");
  AppendU32(out, body_len);
  uint32_t crc = Crc32(&lsn, sizeof lsn);
  unsigned char type_byte = static_cast<unsigned char>(type);
  crc = Crc32(&type_byte, 1, crc);
  crc = Crc32(payload.data(), payload.size(), crc);
  AppendU32(out, crc);
  AppendU64(out, lsn);
  out->push_back(static_cast<char>(type_byte));
  out->append(payload);
}

}  // namespace

Wal::Wal(std::string path) : path_(std::move(path)) {}

Wal::~Wal() {
  // Destruction is single-threaded by contract (the pager joins/outlives
  // every committer before tearing the WAL down); no locking needed.
  if (crashed_) return;
  if (!pending_.empty()) Drain();
  if (file_ != nullptr) std::fclose(file_);
}

void Wal::WaitForSyncIdle(std::unique_lock<std::mutex>& lock) {
  while (sync_active_) cv_.wait(lock);
}

void Wal::FsyncDirOf(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return;  // best effort: some filesystems refuse dir opens
  // The rename is durable only once the directory is: a lost directory
  // fsync lets a crash bring back the pre-checkpoint log after its spill
  // slots were recycled. EINVAL (a filesystem that cannot sync directories)
  // stays best effort, like the open above.
  int rc = ::fsync(fd);
  int err = errno;
  ::close(fd);
  DS_STORAGE_CHECK("Wal", rc == 0 || err == EINVAL, "WAL directory fsync");
}

bool Wal::Open(const std::function<void(const Record&)>& replay) {
  std::FILE* f = std::fopen(path_.c_str(), "rb+");
  if (f == nullptr) return false;  // no log yet: fresh start

  // Read the whole log. Logs are truncated at every checkpoint, so the live
  // tail is bounded by the checkpoint cadence, not database size.
  DS_STORAGE_CHECK("Wal", std::fseek(f, 0, SEEK_END) == 0, "seek WAL end");
  long end = std::ftell(f);
  DS_STORAGE_CHECK("Wal", end >= 0, "tell WAL end");
  std::string buf(static_cast<size_t>(end), '\0');
  std::rewind(f);
  if (!buf.empty()) {
    DS_STORAGE_CHECK("Wal", std::fread(&buf[0], 1, buf.size(), f) == buf.size(),
                     "short WAL read");
  }

  if (buf.empty()) {
    // A zero-byte log can only be hand-made (creation is rename-atomic);
    // treat it as absent.
    std::fclose(f);
    return false;
  }
  DS_STORAGE_CHECK("Wal",
                   buf.size() >= kFileHeaderBytes &&
                       std::memcmp(buf.data(), kMagic, sizeof kMagic) == 0,
                   "WAL header corrupt (not a DATASPREAD WAL?)");
  size_t pos = sizeof kMagic;
  uint64_t base = 0;
  uint32_t header_crc = 0;
  ReadU64(buf, &pos, &base);
  ReadU32(buf, &pos, &header_crc);
  DS_STORAGE_CHECK("Wal", header_crc == Crc32(&base, sizeof base),
                   "WAL header CRC");

  base_lsn_ = base;
  checkpoint_lsn_ = base;
  uint64_t lsn = base;
  size_t valid_end = pos;
  Record rec;
  bool first = true;
  while (pos + kRecordHeaderBytes <= buf.size()) {
    uint32_t body_len = 0, crc = 0;
    uint64_t rec_lsn = 0;
    ReadU32(buf, &pos, &body_len);
    ReadU32(buf, &pos, &crc);
    ReadU64(buf, &pos, &rec_lsn);
    if (body_len == 0 || body_len > kMaxBodyBytes ||
        pos + body_len > buf.size()) {
      break;  // torn tail: the record never finished reaching the disk
    }
    uint32_t actual = Crc32(&rec_lsn, sizeof rec_lsn);
    actual = Crc32(buf.data() + pos, body_len, actual);
    if (actual != crc || rec_lsn != lsn) break;  // corrupt or misplaced
    rec.lsn = rec_lsn;
    rec.type = static_cast<WalRecordType>(static_cast<unsigned char>(buf[pos]));
    rec.payload.assign(buf, pos + 1, body_len - 1);
    DS_STORAGE_CHECK("Wal", !first || rec.type == WalRecordType::kCheckpoint,
                     "WAL does not start with a checkpoint snapshot");
    first = false;
    replay(rec);
    pos += body_len;
    lsn += kRecordHeaderBytes + body_len;
    valid_end = pos;
  }
  DS_STORAGE_CHECK("Wal", !first, "WAL contains no complete checkpoint record");

  // Physically drop the torn tail so appends continue from the valid end,
  // and fsync once: the surviving records may have reached us via the page
  // cache of a killed process, and from here on we treat them as durable.
  if (valid_end < buf.size()) {
    off_t valid_size = static_cast<off_t>(valid_end);
    DS_STORAGE_CHECK("Wal", ::ftruncate(::fileno(f), valid_size) == 0,
                     "truncate torn WAL tail");
  }
  DS_STORAGE_CHECK("Wal", ::fsync(::fileno(f)) == 0, "WAL recovery fsync");
  std::fclose(f);

  next_lsn_.store(lsn, std::memory_order_release);
  durable_lsn_.store(lsn, std::memory_order_release);
  // The recovered log counts as zero fresh redo: the pager re-checkpoints
  // right after replay, which resets this properly for the new epoch.
  redo_start_lsn_.store(lsn, std::memory_order_release);
  return true;
}

std::FILE* Wal::EnsureAppendHandle() {
  if (file_ == nullptr) {
    file_ = std::fopen(path_.c_str(), "ab");
    DS_STORAGE_CHECK("Wal", file_ != nullptr, "cannot open WAL for append");
  }
  return file_;
}

uint64_t Wal::Append(WalRecordType type, const std::string& payload) {
  std::lock_guard<std::mutex> lock(mu_);
  DS_STORAGE_CHECK("Wal", !crashed_, "appending to a crashed WAL");
  uint64_t lsn = next_lsn_.load(std::memory_order_relaxed);
  size_t before = pending_.size();
  FrameRecord(lsn, type, payload, &pending_);
  size_t framed = pending_.size() - before;
  next_lsn_.store(lsn + framed, std::memory_order_release);
  records_appended_.fetch_add(1, std::memory_order_relaxed);
  bytes_appended_.fetch_add(framed, std::memory_order_relaxed);
  if (pending_.size() >= kDrainThresholdBytes) Drain();
  return lsn;
}

void Wal::Drain() {
  if (pending_.empty()) return;
  std::FILE* f = EnsureAppendHandle();
  DS_STORAGE_CHECK("Wal",
                   std::fwrite(pending_.data(), 1, pending_.size(), f) ==
                       pending_.size(),
                   "short WAL write");
  // Hand the bytes to the OS now: after this only a power/kernel failure —
  // not a process kill — can lose them, and fsync has less to do later.
  DS_STORAGE_CHECK("Wal", std::fflush(f) == 0, "WAL flush");
  pending_.clear();
}

void Wal::Sync() { SyncThrough(next_lsn()); }

void Wal::SyncThrough(uint64_t lsn) {
  std::unique_lock<std::mutex> lock(mu_);
  DS_STORAGE_CHECK("Wal", !crashed_, "syncing a crashed WAL");
  while (durable_lsn_.load(std::memory_order_relaxed) < lsn) {
    if (sync_active_) {
      // A leader's fsync is in flight. It may not cover records appended
      // after it drained, so park and re-check rather than assume.
      cv_.wait(lock);
      continue;
    }
    // Become the leader: drain everything appended so far (by anyone) and
    // fsync once for the whole group. The fsync runs outside the mutex so
    // appends — and the next wave of committers — keep flowing meanwhile.
    Drain();
    uint64_t target = next_lsn_.load(std::memory_order_relaxed);
    int fd = ::fileno(EnsureAppendHandle());
    sync_active_ = true;
    lock.unlock();
    DS_STORAGE_CHECK("Wal", ::fsync(fd) == 0, "WAL fsync");
    lock.lock();
    sync_active_ = false;
    if (target > durable_lsn_.load(std::memory_order_relaxed)) {
      durable_lsn_.store(target, std::memory_order_release);
    }
    syncs_.fetch_add(1, std::memory_order_relaxed);
    cv_.notify_all();
  }
}

void Wal::EnsureDurable(uint64_t lsn) {
  // Strict: `lsn` is a record's *start* offset and durable_lsn_ the durable
  // *end* boundary, so a record starting exactly at the boundary is the
  // first not-yet-durable one. (`lsn == 0` with nothing synced falls out
  // naturally: page_lsn 0 means "never mutated under this WAL".) Durable
  // boundaries are record-aligned, so any boundary past `lsn` covers the
  // whole record starting there.
  if (lsn == 0 || lsn < durable_lsn()) return;
  SyncThrough(lsn + 1);
}

uint64_t Wal::RewriteWithCheckpoint(const std::string& snapshot_payload) {
  std::unique_lock<std::mutex> lock(mu_);
  DS_STORAGE_CHECK("Wal", !crashed_, "checkpointing a crashed WAL");
  // A group-commit leader may be mid-fsync on the current file descriptor;
  // wait it out before closing the handle under it.
  WaitForSyncIdle(lock);
  // Anything still buffered describes state the snapshot already includes,
  // but the old log must stay self-consistent in case the rename never
  // happens — drain it so the swap-loser is a complete log, not a torn one.
  Drain();
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }

  uint64_t snapshot_lsn = next_lsn_.load(std::memory_order_relaxed);
  std::string out;
  BuildFileHeader(snapshot_lsn, &out);
  FrameRecord(snapshot_lsn, WalRecordType::kCheckpoint, snapshot_payload,
              &out);
  uint64_t end_lsn = snapshot_lsn + (out.size() - kFileHeaderBytes);
  FrameRecord(end_lsn, WalRecordType::kCheckpointEnd, std::string(), &out);

  std::string tmp = path_ + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  DS_STORAGE_CHECK("Wal", f != nullptr,
                   "cannot create WAL checkpoint temp file");
  DS_STORAGE_CHECK("Wal",
                   std::fwrite(out.data(), 1, out.size(), f) == out.size(),
                   "short WAL checkpoint write");
  DS_STORAGE_CHECK("Wal", std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0,
                   "WAL checkpoint fsync");
  std::fclose(f);
  // The atomic swap: readers/recovery see either the old complete log or
  // the new one, never a mixture.
  DS_STORAGE_CHECK("Wal", std::rename(tmp.c_str(), path_.c_str()) == 0,
                   "WAL checkpoint rename");
  FsyncDirOf(path_);

  base_lsn_ = snapshot_lsn;
  checkpoint_lsn_.store(snapshot_lsn, std::memory_order_release);
  uint64_t new_end = snapshot_lsn + (out.size() - kFileHeaderBytes);
  next_lsn_.store(new_end, std::memory_order_release);
  durable_lsn_.store(new_end, std::memory_order_release);
  redo_start_lsn_.store(new_end, std::memory_order_release);
  records_appended_.fetch_add(2, std::memory_order_relaxed);
  bytes_appended_.fetch_add(out.size() - kFileHeaderBytes,
                            std::memory_order_relaxed);
  syncs_.fetch_add(1, std::memory_order_relaxed);
  return snapshot_lsn;
}

void Wal::CrashForTesting(bool keep_os_buffered) {
  std::unique_lock<std::mutex> lock(mu_);
  WaitForSyncIdle(lock);
  if (keep_os_buffered) {
    Drain();
  } else {
    pending_.clear();  // the unsynced tail dies with the "process"
  }
  if (file_ != nullptr) {
    // Close the descriptor without flushing stdio state we did not already
    // drain (Drain always fflushes, so there is nothing stdio-buffered).
    std::fclose(file_);
    file_ = nullptr;
  }
  crashed_ = true;
}

}  // namespace storage
}  // namespace dataspread
