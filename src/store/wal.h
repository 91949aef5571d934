#ifndef DBTUNE_STORE_WAL_H_
#define DBTUNE_STORE_WAL_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace dbtune::store {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over `size` bytes. Every
/// frame the store writes carries one so recovery can distinguish a torn
/// tail from a complete record.
uint32_t Crc32(const void* data, size_t size);

/// Record types shared by the write-ahead log, the data log and the
/// manifest log. The numeric values are part of the on-disk format —
/// append, never renumber.
enum class WalRecordType : uint8_t {
  kBeginSession = 1,
  kObservation = 2,
  kEndSession = 3,
  kTask = 4,
  kTruncateSession = 5,
  // 6 is retired (the sealed-log index inside snapshots); never reuse it.
  /// Manifest log only: one checkpoint's edit of the data-log index.
  kManifestEdit = 7,
  /// Data log only: where the frames of a sealed session that spans more
  /// than one extent sit.
  kExtentIndex = 8,
};

/// One decoded log record: a monotonically increasing sequence number, a
/// type tag, and the type-specific body bytes.
struct WalRecord {
  uint64_t lsn = 0;
  WalRecordType type = WalRecordType::kBeginSession;
  std::string body;
};

/// Append-only binary encoder for record bodies. All integers are
/// little-endian; doubles are raw IEEE-754 bit patterns so a decoded
/// value is bitwise identical to what was written.
class WalEncoder {
 public:
  void PutU8(uint8_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutDouble(double v);
  /// Length-prefixed (u32) byte string.
  void PutString(const std::string& s);
  /// Count-prefixed (u64) vector of raw doubles.
  void PutDoubles(const std::vector<double>& v);
  /// LEB128: seven bits per byte, low bits first.
  void PutVarint(uint64_t v);

  const std::string& bytes() const { return bytes_; }

 private:
  std::string bytes_;
};

/// Bounds-checked reader over an encoded record body. Every read returns
/// InvalidArgument past the end instead of walking off the buffer.
class WalDecoder {
 public:
  explicit WalDecoder(std::string_view data) : data_(data) {}

  [[nodiscard]] Result<uint8_t> ReadU8();
  [[nodiscard]] Result<uint32_t> ReadU32();
  [[nodiscard]] Result<uint64_t> ReadU64();
  [[nodiscard]] Result<double> ReadDouble();
  [[nodiscard]] Result<std::string> ReadString();
  /// ReadString without the copy: a view into the decoded buffer.
  [[nodiscard]] Result<std::string_view> ReadStringView();
  [[nodiscard]] Result<std::vector<double>> ReadDoubles();
  /// Steps over what ReadDoubles would read and returns its count.
  [[nodiscard]] Result<uint64_t> SkipDoubles();
  [[nodiscard]] Result<uint64_t> ReadVarint();

  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

/// Frames a record for disk: [u32 payload_len][u32 crc32(payload)] with
/// payload = [u64 lsn][u8 type][body].
std::string EncodeWalFrame(const WalRecord& record);

/// One intact frame found in a scanned buffer. Both views point into
/// that buffer and are valid only while it is.
struct WalFrameView {
  uint64_t lsn = 0;
  WalRecordType type = WalRecordType::kBeginSession;
  /// The type-specific body bytes.
  std::string_view body;
  /// The whole frame as it sits on disk, header included.
  std::string_view frame;
};

/// Extent of the intact frames in a scanned buffer.
struct WalScanExtent {
  /// Bytes of the buffer occupied by the header plus every intact frame.
  /// Anything past this offset is a torn or corrupt tail.
  uint64_t valid_bytes = 0;
  /// True when the buffer ended mid-frame or a frame failed its CRC.
  bool torn_tail = false;
  /// Intact frames visited.
  size_t frames = 0;
};

/// The one frame-scanning loop: visits each intact frame of `data` from
/// `offset` until the end of the buffer, a short frame, or a CRC
/// mismatch. A damaged tail is not an error (it sets `torn_tail` and
/// stops); a non-OK status from `visit` stops the scan and is returned.
[[nodiscard]] Result<WalScanExtent> ForEachWalFrame(
    std::string_view data, uint64_t offset,
    const std::function<Status(const WalFrameView&)>& visit);

/// Outcome of scanning a WAL (or any framed body) into owning records.
struct WalScanResult : WalScanExtent {
  std::vector<WalRecord> records;
};

/// Decodes frames from `data` starting at `offset` into owning records
/// (ForEachWalFrame, collected). Never fails: a damaged tail sets
/// `torn_tail` and stops.
WalScanResult ScanWalFrames(std::string_view data, uint64_t offset);

/// Append-only writer over one WAL, data-log or manifest-log file. The store's
/// recovery pass validates an existing file before handing it here, or has
/// Create make a new one; the writer itself only appends already-encoded
/// frames and flushes each one so a crash can tear at most the final record.
class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter();
  WalWriter(WalWriter&& other) noexcept;
  WalWriter& operator=(WalWriter&& other) noexcept;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Opens `path` for appending, creating it when absent. An existing
  /// file must end with a valid header or frame (the store's recovery
  /// pass guarantees this).
  [[nodiscard]] static Result<WalWriter> OpenForAppend(const std::string& path);

  /// Creates `path`, emptying an existing file, writes `header` and opens
  /// it for appending. The header is not an Append: the injected write
  /// fault never tears it.
  [[nodiscard]] static Result<WalWriter> Create(const std::string& path,
                                                std::string_view header);

  /// Appends one frame (as built by EncodeWalFrame) and flushes. On an
  /// injected fault the budgeted prefix of the frame still reaches the
  /// file — exactly what a mid-write crash leaves behind — and the writer
  /// disables itself.
  [[nodiscard]] Status Append(std::string_view frame);

  bool open() const { return file_ != nullptr; }

 private:
  void Close();

  std::string path_;
  std::FILE* file_ = nullptr;
};

/// 8-byte magic that starts every WAL file.
extern const char kWalMagic[8];
/// 8-byte magic that starts every data log.
extern const char kDataLogMagic[8];
/// 8-byte magic that starts every manifest log.
extern const char kManifestMagic[8];

namespace testing {

/// Arms a one-shot write fault: after `budget_bytes` more bytes have been
/// written through WalWriter::Append, the write stops mid-frame (the
/// prefix is flushed to disk, simulating a crash) and Append returns an
/// error. Pass a negative budget to disarm. Tests only.
void SetWalWriteFaultForTest(int64_t budget_bytes);

}  // namespace testing

}  // namespace dbtune::store

#endif  // DBTUNE_STORE_WAL_H_
