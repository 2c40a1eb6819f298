#include "ingest/wal.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <filesystem>

#ifdef __unix__
#include <unistd.h>
#endif

#include "fault/fault.hpp"
#include "metrics/names.hpp"

namespace pmove::ingest {

namespace fs = std::filesystem;

namespace {

/// "<what> (<segment path>): <strerror(errno)>" — every I/O failure names
/// the file and the OS error so operators can act on the message.
Status io_error(std::string_view what, const std::string& path,
                int saved_errno) {
  std::string message{what};
  message += " (";
  message += path;
  message += ")";
  if (saved_errno != 0) {
    message += ": ";
    message += std::strerror(saved_errno);
  }
  return Status::unavailable(std::move(message));
}

constexpr std::uint32_t kMagic = 0x504D'574Cu;  // "PMWL"
constexpr std::size_t kHeaderBytes = 12;        // magic + len + crc
/// Largest record payload.  append() refuses anything bigger, because
/// recovery reads a larger length as corruption and cuts the log there.
constexpr std::size_t kMaxPayload = 64u << 20;

// Header fields are written in native byte order: the WAL is a local
// crash-recovery log, never shipped across machines.
void encode_header(std::array<char, kHeaderBytes>& out, std::uint32_t len,
                   std::uint32_t crc) {
  std::memcpy(out.data(), &kMagic, 4);
  std::memcpy(out.data() + 4, &len, 4);
  std::memcpy(out.data() + 8, &crc, 4);
}

}  // namespace

// Slicing-by-8: table[k][b] is the CRC of byte b followed by k zero bytes,
// so one step folds eight input bytes with eight independent lookups.  The
// result is the bytewise algorithm's, bit for bit.
std::uint32_t crc32(std::string_view data) {
  static const auto table = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB8'8320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      for (std::size_t k = 1; k < 8; ++k) {
        t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
      }
    }
    return t;
  }();
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  std::uint32_t crc = 0xFFFF'FFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    // Little-endian assembly, so the result does not depend on the host.
    const std::uint32_t lo =
        crc ^ (std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
               std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24);
    crc = table[7][lo & 0xFFu] ^ table[6][(lo >> 8) & 0xFFu] ^
          table[5][(lo >> 16) & 0xFFu] ^ table[4][lo >> 24] ^
          table[3][p[4]] ^ table[2][p[5]] ^ table[1][p[6]] ^ table[0][p[7]];
  }
  for (; n > 0; ++p, --n) {
    crc = table[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFF'FFFFu;
}

Wal::~Wal() { close(); }

std::string Wal::segment_path(std::uint64_t seq) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%06llu.seg",
                static_cast<unsigned long long>(seq));
  return (fs::path(options_.dir) / buf).string();
}

std::vector<std::uint64_t> Wal::list_segments() const {
  std::vector<std::uint64_t> seqs;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(options_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    unsigned long long seq = 0;
    if (std::sscanf(name.c_str(), "wal-%llu.seg", &seq) == 1) {
      seqs.push_back(seq);
    }
  }
  std::sort(seqs.begin(), seqs.end());
  return seqs;
}

Status Wal::open(WalOptions options) {
  close();
  options_ = std::move(options);
  if (options_.dir.empty()) {
    return Status::invalid_argument("WAL directory not set");
  }
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec) {
    return Status::unavailable("cannot create WAL dir " + options_.dir +
                               ": " + ec.message());
  }

  {
    metrics::Registry& reg = metrics::Registry::global();
    const char* m = metrics::kMeasurementWal;
    m_appends_ = &reg.counter(m, "wal", "appends");
    m_append_failures_ = &reg.counter(m, "wal", "append_failures");
    m_fsyncs_ = &reg.counter(m, "wal", "fsyncs");
    m_rollbacks_ = &reg.counter(m, "wal", "rollbacks");
    m_checkpoints_ = &reg.counter(m, "wal", "checkpoints");
    m_records_ = &reg.gauge(m, "wal", "records");
  }

  recovery_ = {};
  record_count_ = 0;
  const auto seqs = list_segments();
  recovery_.segments = seqs.size();

  // Validate every segment in order.  The first bad record marks the end of
  // history: the segment is truncated there and later segments (which would
  // be out of order w.r.t. the lost tail) are dropped.
  bool corrupted = false;
  std::uint64_t last_valid_seq = seqs.empty() ? 0 : seqs.back();
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    const std::string path = segment_path(seqs[i]);
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
      return io_error("cannot open WAL segment", path, errno);
    }
    long valid_end = 0;
    std::string payload;
    while (true) {
      std::array<char, kHeaderBytes> header{};
      if (std::fread(header.data(), 1, kHeaderBytes, f) != kHeaderBytes) {
        break;  // clean EOF or torn header
      }
      std::uint32_t magic = 0, len = 0, crc = 0;
      std::memcpy(&magic, header.data(), 4);
      std::memcpy(&len, header.data() + 4, 4);
      std::memcpy(&crc, header.data() + 8, 4);
      if (magic != kMagic || len > kMaxPayload) break;
      payload.resize(len);
      if (std::fread(payload.data(), 1, len, f) != len) break;  // torn tail
      if (crc32(payload) != crc) break;                         // bit rot
      valid_end = std::ftell(f);
      ++record_count_;
      ++recovery_.records;
    }
    std::fseek(f, 0, SEEK_END);
    const long file_end = std::ftell(f);
    std::fclose(f);
    if (valid_end != file_end) {
      recovery_.truncated_bytes +=
          static_cast<std::size_t>(file_end - valid_end);
      fs::resize_file(path, static_cast<std::uintmax_t>(valid_end), ec);
      corrupted = true;
    }
    if (corrupted) {
      last_valid_seq = seqs[i];
      for (std::size_t j = i + 1; j < seqs.size(); ++j) {
        recovery_.truncated_bytes += static_cast<std::size_t>(
            fs::file_size(segment_path(seqs[j]), ec));
        fs::remove(segment_path(seqs[j]), ec);
      }
      break;
    }
  }

  current_seq_ = seqs.empty() ? 1 : last_valid_seq;
  return open_segment(current_seq_, /*truncate=*/false);
}

Status Wal::open_segment(std::uint64_t seq, bool truncate) {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  const std::string path = segment_path(seq);
  file_ = std::fopen(path.c_str(), truncate ? "wb" : "ab");
  if (file_ == nullptr) {
    return io_error("cannot open WAL segment", path, errno);
  }
  current_seq_ = seq;
  // "ab" streams report position 0 until the first write; seek explicitly.
  std::fseek(file_, 0, SEEK_END);
  const long pos = std::ftell(file_);
  current_bytes_ = pos < 0 ? 0 : static_cast<std::size_t>(pos);
  return Status::ok();
}

Status Wal::replay(
    const std::function<Status(std::string_view)>& apply) const {
  for (std::uint64_t seq : list_segments()) {
    const std::string path = segment_path(seq);
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
      return io_error("cannot open WAL segment", path, errno);
    }
    std::string payload;
    while (true) {
      std::array<char, kHeaderBytes> header{};
      if (std::fread(header.data(), 1, kHeaderBytes, f) != kHeaderBytes) {
        break;
      }
      std::uint32_t magic = 0, len = 0, crc = 0;
      std::memcpy(&magic, header.data(), 4);
      std::memcpy(&len, header.data() + 4, 4);
      std::memcpy(&crc, header.data() + 8, 4);
      if (magic != kMagic || len > kMaxPayload) break;
      payload.resize(len);
      if (std::fread(payload.data(), 1, len, f) != len) break;
      if (crc32(payload) != crc) break;
      if (Status s = apply(payload); !s.is_ok()) {
        std::fclose(f);
        return s;
      }
    }
    std::fclose(f);
  }
  return Status::ok();
}

Expected<std::uint64_t> Wal::append(std::string_view payload) {
  if (payload.size() > kMaxPayload) {
    return Status::out_of_range("WAL record of " +
                                std::to_string(payload.size()) +
                                " bytes exceeds the " +
                                std::to_string(kMaxPayload) + "-byte limit");
  }
  // The checksum needs no lock; computing it outside keeps concurrent
  // producers from serialising on it.
  std::array<char, kHeaderBytes> header{};
  encode_header(header, static_cast<std::uint32_t>(payload.size()),
                crc32(payload));
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr) {
    return Status::unavailable("WAL not open");
  }
  if (Status s = fault::point("wal.append"); !s.is_ok()) {
    m_append_failures_->inc();
    return s;
  }
  if (current_bytes_ >= options_.segment_bytes) {
    if (Status s = open_segment(current_seq_ + 1, /*truncate=*/true);
        !s.is_ok()) {
      return s;
    }
  }

  // Torn-write injection: write the header and only a prefix of the payload,
  // then report failure — exactly what a crash mid-record leaves behind.
  // Recovery truncates the torn record; later appends in THIS process would
  // land after it and be discarded by that truncation, so a torn point
  // should be followed by close() + reopen (the crash it simulates).
  if (const auto torn = fault::fires("wal.append.torn"); torn.has_value()) {
    const std::size_t keep =
        std::min<std::size_t>(payload.size(),
                              static_cast<std::size_t>(torn->count));
    (void)std::fwrite(header.data(), 1, kHeaderBytes, file_);
    (void)std::fwrite(payload.data(), 1, keep, file_);
    (void)std::fflush(file_);
    current_bytes_ += kHeaderBytes + keep;
    m_append_failures_->inc();
    return io_error("WAL append torn (injected crash)",
                    segment_path(current_seq_), 0);
  }

  // Remember where the record starts so a failed write can be rolled back:
  // leaving half a record in place would make recovery discard everything
  // appended after it.
  const long record_start = std::ftell(file_);
  const auto rollback = [&] {
    m_rollbacks_->inc();
    m_append_failures_->inc();
    std::clearerr(file_);
    if (record_start >= 0) {
      std::fseek(file_, record_start, SEEK_SET);
#ifdef __unix__
      (void)::ftruncate(::fileno(file_), record_start);
#endif
    }
  };

  if (std::fwrite(header.data(), 1, kHeaderBytes, file_) != kHeaderBytes ||
      std::fwrite(payload.data(), 1, payload.size(), file_) !=
          payload.size()) {
    const int saved_errno = errno;
    rollback();
    return io_error("WAL append write failed", segment_path(current_seq_),
                    saved_errno);
  }
  if (std::fflush(file_) != 0) {
    const int saved_errno = errno;
    rollback();
    return io_error("WAL append flush failed", segment_path(current_seq_),
                    saved_errno);
  }
  if (options_.sync_each_append) {
    if (Status s = fault::point("wal.append.fsync"); !s.is_ok()) {
      rollback();
      return io_error("WAL fsync failed (injected): " + s.message(),
                      segment_path(current_seq_), 0);
    }
#ifdef __unix__
    if (::fsync(::fileno(file_)) != 0) {
      const int saved_errno = errno;
      rollback();
      return io_error("WAL fsync failed", segment_path(current_seq_),
                      saved_errno);
    }
#endif
    m_fsyncs_->inc();
  }
  current_bytes_ += kHeaderBytes + payload.size();
  bytes_appended_ += payload.size();
  m_appends_->inc();
  const std::uint64_t lsn = record_count_++;
  m_records_->set(static_cast<double>(lsn + 1));
  return lsn;
}

Status Wal::checkpoint() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (Status s = fault::point("wal.checkpoint"); !s.is_ok()) return s;
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  std::error_code ec;
  for (std::uint64_t seq : list_segments()) {
    const std::string path = segment_path(seq);
    fs::remove(path, ec);
    if (ec) {
      return Status::unavailable("cannot remove WAL segment (" + path +
                                 "): " + ec.message());
    }
  }
  record_count_ = 0;
  if (m_checkpoints_ != nullptr) {  // null until the first successful open()
    m_checkpoints_->inc();
    m_records_->set(0.0);
  }
  return open_segment(current_seq_ + 1, /*truncate=*/true);
}

void Wal::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

std::size_t Wal::segment_count() const { return list_segments().size(); }

}  // namespace pmove::ingest
