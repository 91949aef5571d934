#include "store/wal.h"

#include <array>
#include <atomic>
#include <cstring>

#include "util/logging.h"

namespace dbtune::store {

namespace {

/// Remaining injected-fault budget in bytes; negative = disarmed. A
/// single atomic is enough: the hook is a test-only crash simulator, not
/// a concurrency fixture.
std::atomic<int64_t> g_write_fault_budget{-1};

constexpr size_t kFrameHeaderBytes = 8;  // u32 len + u32 crc

void PutLE32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutLE64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

uint32_t GetLE32(const char* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<uint8_t>(p[i]);
  }
  return v;
}

uint64_t GetLE64(const char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<uint8_t>(p[i]);
  }
  return v;
}

}  // namespace

const char kWalMagic[8] = {'D', 'B', 'T', 'N', 'W', 'A', 'L', '1'};
const char kDataLogMagic[8] = {'D', 'B', 'T', 'N', 'S', 'E', 'L', '1'};
const char kManifestMagic[8] = {'D', 'B', 'T', 'N', 'M', 'A', 'N', '1'};

uint32_t Crc32(const void* data, size_t size) {
  // Slicing-by-8: table k maps a byte to its CRC contribution k bytes
  // further back, so each step folds in eight bytes at once. The result
  // is the bytewise CRC's, bit for bit.
  static const auto tables = [] {
    std::array<std::array<uint32_t, 256>, 8> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (size_t k = 1; k < 8; ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
      }
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  const auto* bytes = static_cast<const uint8_t*>(data);
  for (; size >= 8; size -= 8, bytes += 8) {
    const uint32_t lo = crc ^ GetLE32(reinterpret_cast<const char*>(bytes));
    const uint32_t hi = GetLE32(reinterpret_cast<const char*>(bytes + 4));
    crc = tables[7][lo & 0xFF] ^ tables[6][(lo >> 8) & 0xFF] ^
          tables[5][(lo >> 16) & 0xFF] ^ tables[4][lo >> 24] ^
          tables[3][hi & 0xFF] ^ tables[2][(hi >> 8) & 0xFF] ^
          tables[1][(hi >> 16) & 0xFF] ^ tables[0][hi >> 24];
  }
  for (; size > 0; --size, ++bytes) {
    crc = tables[0][(crc ^ *bytes) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void WalEncoder::PutU8(uint8_t v) { bytes_.push_back(static_cast<char>(v)); }

void WalEncoder::PutU32(uint32_t v) { PutLE32(&bytes_, v); }

void WalEncoder::PutU64(uint64_t v) { PutLE64(&bytes_, v); }

void WalEncoder::PutDouble(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PutLE64(&bytes_, bits);
}

void WalEncoder::PutString(const std::string& s) {
  PutU32(static_cast<uint32_t>(s.size()));
  bytes_.append(s);
}

void WalEncoder::PutDoubles(const std::vector<double>& v) {
  PutU64(v.size());
  for (double d : v) PutDouble(d);
}

void WalEncoder::PutVarint(uint64_t v) {
  while (v >= 0x80) {
    bytes_.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  bytes_.push_back(static_cast<char>(v));
}

Result<uint8_t> WalDecoder::ReadU8() {
  if (pos_ + 1 > data_.size()) {
    return Status::InvalidArgument("wal decode past end (u8)");
  }
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<uint32_t> WalDecoder::ReadU32() {
  if (pos_ + 4 > data_.size()) {
    return Status::InvalidArgument("wal decode past end (u32)");
  }
  const uint32_t v = GetLE32(data_.data() + pos_);
  pos_ += 4;
  return v;
}

Result<uint64_t> WalDecoder::ReadU64() {
  if (pos_ + 8 > data_.size()) {
    return Status::InvalidArgument("wal decode past end (u64)");
  }
  const uint64_t v = GetLE64(data_.data() + pos_);
  pos_ += 8;
  return v;
}

Result<double> WalDecoder::ReadDouble() {
  DBTUNE_ASSIGN_OR_RETURN(const uint64_t bits, ReadU64());
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<std::string> WalDecoder::ReadString() {
  DBTUNE_ASSIGN_OR_RETURN(const std::string_view s, ReadStringView());
  return std::string(s);
}

Result<std::string_view> WalDecoder::ReadStringView() {
  DBTUNE_ASSIGN_OR_RETURN(const uint32_t len, ReadU32());
  if (pos_ + len > data_.size()) {
    return Status::InvalidArgument("wal decode past end (string)");
  }
  const std::string_view s = data_.substr(pos_, len);
  pos_ += len;
  return s;
}

Result<std::vector<double>> WalDecoder::ReadDoubles() {
  DBTUNE_ASSIGN_OR_RETURN(const uint64_t count, ReadU64());
  if (pos_ + count * 8 > data_.size() || count > data_.size()) {
    return Status::InvalidArgument("wal decode past end (doubles)");
  }
  std::vector<double> v;
  v.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    DBTUNE_ASSIGN_OR_RETURN(const double d, ReadDouble());
    v.push_back(d);
  }
  return v;
}

Result<uint64_t> WalDecoder::SkipDoubles() {
  DBTUNE_ASSIGN_OR_RETURN(const uint64_t count, ReadU64());
  if (count > (data_.size() - pos_) / 8) {
    return Status::InvalidArgument("wal decode past end (doubles)");
  }
  pos_ += count * 8;
  return count;
}

Result<uint64_t> WalDecoder::ReadVarint() {
  uint64_t v = 0;
  for (int shift = 0; shift < 64 && pos_ < data_.size(); shift += 7) {
    const auto byte = static_cast<uint8_t>(data_[pos_++]);
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return v;
  }
  return Status::InvalidArgument("wal decode past end (varint)");
}

std::string EncodeWalFrame(const WalRecord& record) {
  std::string payload;
  PutLE64(&payload, record.lsn);
  payload.push_back(static_cast<char>(record.type));
  payload.append(record.body);

  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  PutLE32(&frame, static_cast<uint32_t>(payload.size()));
  PutLE32(&frame, Crc32(payload.data(), payload.size()));
  frame.append(payload);
  return frame;
}

Result<WalScanExtent> ForEachWalFrame(
    std::string_view data, uint64_t offset,
    const std::function<Status(const WalFrameView&)>& visit) {
  WalScanExtent extent;
  extent.valid_bytes = offset;
  size_t pos = offset;
  while (pos < data.size()) {
    if (pos + kFrameHeaderBytes > data.size()) {
      extent.torn_tail = true;
      break;
    }
    const uint32_t len = GetLE32(data.data() + pos);
    const uint32_t crc = GetLE32(data.data() + pos + 4);
    if (len < 9 || pos + kFrameHeaderBytes + len > data.size()) {
      // Shorter than [lsn][type], or the payload runs past the file.
      extent.torn_tail = true;
      break;
    }
    const char* payload = data.data() + pos + kFrameHeaderBytes;
    if (Crc32(payload, len) != crc) {
      extent.torn_tail = true;
      break;
    }
    WalFrameView view;
    view.lsn = GetLE64(payload);
    // Every reader compares the type with the records it expects or
    // switches on it with a fall-through error, so an unknown tag is
    // damage, never a record.
    view.type = static_cast<WalRecordType>(payload[8]);  // dbtune-lint: allow(unvalidated-enum-cast)
    view.body = std::string_view(payload + 9, len - 9);
    view.frame = data.substr(pos, kFrameHeaderBytes + len);
    DBTUNE_RETURN_IF_ERROR(visit(view));
    pos += kFrameHeaderBytes + len;
    extent.valid_bytes = pos;
    ++extent.frames;
  }
  return extent;
}

WalScanResult ScanWalFrames(std::string_view data, uint64_t offset) {
  WalScanResult result;
  Result<WalScanExtent> extent =
      ForEachWalFrame(data, offset, [&](const WalFrameView& view) {
        result.records.push_back(
            WalRecord{view.lsn, view.type, std::string(view.body)});
        return Status::OK();
      });
  // The visitor never fails, so neither does the scan.
  DBTUNE_CHECK(extent.ok());
  static_cast<WalScanExtent&>(result) = *extent;
  return result;
}

WalWriter::~WalWriter() { Close(); }

WalWriter::WalWriter(WalWriter&& other) noexcept
    : path_(std::move(other.path_)), file_(other.file_) {
  other.file_ = nullptr;
}

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this != &other) {
    Close();
    path_ = std::move(other.path_);
    file_ = other.file_;
    other.file_ = nullptr;
  }
  return *this;
}

void WalWriter::Close() {
  if (file_ != nullptr) {
    if (std::fclose(file_) != 0) {
      DBTUNE_LOG(kWarning) << "wal close failed for " << path_;
    }
    file_ = nullptr;
  }
}

Result<WalWriter> WalWriter::OpenForAppend(const std::string& path) {
  WalWriter writer;
  writer.path_ = path;
  writer.file_ = std::fopen(path.c_str(), "ab");
  if (writer.file_ == nullptr) {
    return Status::Internal("cannot open wal " + path + " for append");
  }
  return writer;
}

Result<WalWriter> WalWriter::Create(const std::string& path,
                                    std::string_view header) {
  WalWriter writer;
  writer.path_ = path;
  writer.file_ = std::fopen(path.c_str(), "wb");
  if (writer.file_ == nullptr) {
    return Status::Internal("cannot create " + path);
  }
  // fwrite's buffer may not be null, which an empty view's can be.
  const size_t written =
      header.empty()
          ? 0
          : std::fwrite(header.data(), 1, header.size(), writer.file_);
  if (written != header.size() || std::fflush(writer.file_) != 0) {
    return Status::Internal("cannot write the header of " + path);
  }
  return writer;
}

Status WalWriter::Append(std::string_view frame) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("wal writer is closed");
  }
  size_t allowed = frame.size();
  bool fault = false;
  int64_t budget = g_write_fault_budget.load(std::memory_order_relaxed);
  if (budget >= 0) {
    if (static_cast<uint64_t>(budget) < frame.size()) {
      allowed = static_cast<size_t>(budget);
      fault = true;
      g_write_fault_budget.store(-1, std::memory_order_relaxed);
    } else {
      g_write_fault_budget.store(budget - static_cast<int64_t>(frame.size()),
                                 std::memory_order_relaxed);
    }
  }

  const size_t written = std::fwrite(frame.data(), 1, allowed, file_);
  const bool flushed = std::fflush(file_) == 0;
  if (fault) {
    // The torn prefix stays on disk, as after a real crash; further
    // appends through this writer must not resurrect the log.
    Close();
    return Status::Internal("injected wal write fault on " + path_);
  }
  if (written != frame.size() || !flushed) {
    Close();
    return Status::Internal("short write to wal " + path_);
  }
  return Status::OK();
}

namespace testing {

void SetWalWriteFaultForTest(int64_t budget_bytes) {
  g_write_fault_budget.store(budget_bytes, std::memory_order_relaxed);
}

}  // namespace testing

}  // namespace dbtune::store
