// Durable observation store: WAL framing and CRC, torn-tail and bad-CRC
// recovery, checkpoints from retained frames (against a fresh encode), the
// LSN skip window, fault-injected mid-write crashes, store metrics, the
// data log and manifest log (checkpoint equivalence, linear checkpoint
// bytes, crash windows, compaction, damage, what Open reads, what memory
// holds, reads racing a compaction, malformed WAL bodies), the
// committed fixtures (older layouts refused untouched, a generation-0
// data log read as any other), and the headline guarantee — a session
// killed at any iteration replays to a bitwise-identical trajectory.

#include "pool_size_guard.h"
#include "store/observation_store.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/advisor.h"
#include "core/tuning_session.h"
#include "knobs/catalog.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "store/wal.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace dbtune {
namespace {

using store::EncodeWalFrame;
using store::ObservationStore;
using store::ScanWalFrames;
using store::StoreOptions;
using store::StoredSession;
using store::StoredSessionInfo;
using store::WalRecord;
using store::WalRecordType;
using store::WalScanResult;

using testing::PoolSizeGuard;

// Every test runs without injected write faults and with the real clock.
class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override { Reset(); }
  void TearDown() override { Reset(); }

  static void Reset() {
    store::testing::SetWalWriteFaultForTest(-1);
    obs::DisableFakeClockForTest();
  }
};

/// A fresh store path in the test temp dir (leftovers removed).
std::string StorePath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "store_" + name + ".wal";
  EXPECT_TRUE(ObservationStore::Destroy(path).ok());
  return path;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  ASSERT_TRUE(out.good());
}

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

Observation MakeObs(std::vector<double> config, double score,
                    double objective, std::vector<double> metrics = {},
                    bool failed = false) {
  Observation obs;
  obs.config = Configuration(std::move(config));
  obs.score = score;
  obs.objective = objective;
  obs.failed = failed;
  obs.internal_metrics = std::move(metrics);
  return obs;
}

void ExpectObservationsBitEqual(const std::vector<Observation>& a,
                                const std::vector<Observation>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].config.size(), b[i].config.size()) << "obs " << i;
    for (size_t j = 0; j < a[i].config.size(); ++j) {
      EXPECT_TRUE(BitEqual(a[i].config.values()[j], b[i].config.values()[j]))
          << "obs " << i << " dim " << j;
    }
    EXPECT_TRUE(BitEqual(a[i].score, b[i].score)) << "obs " << i;
    EXPECT_TRUE(BitEqual(a[i].objective, b[i].objective)) << "obs " << i;
    EXPECT_EQ(a[i].failed, b[i].failed) << "obs " << i;
    ASSERT_EQ(a[i].internal_metrics.size(), b[i].internal_metrics.size());
    for (size_t j = 0; j < a[i].internal_metrics.size(); ++j) {
      EXPECT_TRUE(
          BitEqual(a[i].internal_metrics[j], b[i].internal_metrics[j]))
          << "obs " << i << " metric " << j;
    }
  }
}

void ExpectDoublesBitEqual(const std::vector<double>& a,
                           const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(BitEqual(a[i], b[i])) << "element " << i;
  }
}

// Every session and task of `actual` is bitwise equal to `expected`.
void ExpectStoresBitEqual(const ObservationStore& expected,
                          const ObservationStore& actual) {
  const std::vector<StoredSessionInfo> want = expected.ListSessions();
  const std::vector<StoredSessionInfo> got = actual.ListSessions();
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i].id, got[i].id);
    EXPECT_EQ(want[i].dimension, got[i].dimension) << want[i].id;
    EXPECT_EQ(want[i].finished, got[i].finished) << want[i].id;
    const Result<StoredSession> a = expected.FindSession(want[i].id);
    const Result<StoredSession> b = actual.FindSession(got[i].id);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ExpectObservationsBitEqual(a->observations, b->observations);
  }
  ObservationRepository want_tasks;
  ObservationRepository got_tasks;
  ASSERT_TRUE(expected.ExportTasks(&want_tasks).ok());
  ASSERT_TRUE(actual.ExportTasks(&got_tasks).ok());
  ASSERT_EQ(want_tasks.size(), got_tasks.size());
  for (size_t t = 0; t < want_tasks.size(); ++t) {
    const SourceTask& a = want_tasks.tasks()[t];
    const SourceTask& b = got_tasks.tasks()[t];
    EXPECT_EQ(a.name, b.name);
    ASSERT_EQ(a.unit_x.size(), b.unit_x.size());
    for (size_t r = 0; r < a.unit_x.size(); ++r) {
      ExpectDoublesBitEqual(a.unit_x[r], b.unit_x[r]);
    }
    ExpectDoublesBitEqual(a.scores, b.scores);
    ExpectDoublesBitEqual(a.metric_signature, b.metric_signature);
  }
}

std::vector<size_t> FirstKnobs(size_t n) {
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  return idx;
}

// Record bodies in the on-disk format, encoded here independently of the
// store so tests can hand-build logs and snapshots and measure what a
// fresh encode of a state would take.
std::string BeginBody(const std::string& id, uint64_t dimension) {
  store::WalEncoder enc;
  enc.PutString(id);
  enc.PutU64(dimension);
  return enc.bytes();
}

std::string ObservationBody(const std::string& id, uint64_t iteration,
                            const Observation& obs) {
  store::WalEncoder enc;
  enc.PutString(id);
  enc.PutU64(iteration);
  enc.PutDoubles(obs.config.values());
  enc.PutDouble(obs.score);
  enc.PutDouble(obs.objective);
  enc.PutU8(obs.failed ? 1 : 0);
  enc.PutDoubles(obs.internal_metrics);
  return enc.bytes();
}

std::string EndBody(const std::string& id) {
  store::WalEncoder enc;
  enc.PutString(id);
  return enc.bytes();
}

std::string TaskBody(const SourceTask& task) {
  store::WalEncoder enc;
  enc.PutString(task.name);
  enc.PutU64(task.unit_x.size());
  for (const std::vector<double>& row : task.unit_x) enc.PutDoubles(row);
  enc.PutDoubles(task.scores);
  enc.PutDoubles(task.metric_signature);
  return enc.bytes();
}

std::string TruncateBody(const std::string& id, uint64_t keep) {
  store::WalEncoder enc;
  enc.PutString(id);
  enc.PutU64(keep);
  return enc.bytes();
}

// The 16-byte header of the one-file snapshot layout: its magic and the
// covered LSN. StoredImage lays the stored frames out behind it.
std::string SnapshotHeader(uint64_t covered_lsn) {
  std::string header = "DBTNSNP1";
  for (int i = 0; i < 8; ++i) {
    header.push_back(static_cast<char>((covered_lsn >> (8 * i)) & 0xFF));
  }
  return header;
}

std::string DataLogPath(const std::string& path, uint64_t generation) {
  return generation == 0 ? path + ".sealed"
                         : path + ".data." + std::to_string(generation);
}

// The index a manifest log commits, decoded here independently of the
// store: each edit replayed in order (restarts, cuts, extents, seals,
// tasks), a full edit starting over.
struct TestExtent {
  uint64_t offset = 0;
  uint64_t length = 0;
};
struct TestEntry {
  std::string id;
  uint64_t fields[6] = {};  // lsn, dimension, count, offset, length, bytes
  uint64_t offset() const { return fields[3]; }
  uint64_t length() const { return fields[4]; }
};
struct TestManifest {
  uint64_t covered_lsn = 0;
  uint64_t generation = 0;
  uint64_t data_log_bytes = 0;
  size_t edits = 0;
  size_t full_edits = 0;
  std::map<std::string, std::vector<TestExtent>> open;
  std::map<std::string, TestEntry> sealed;
  std::vector<TestEntry> tasks;
};

TestManifest ReadManifest(const std::string& path) {
  TestManifest m;
  const std::string log = ReadBytes(path + ".manifest");
  EXPECT_EQ(log.substr(0, 8), std::string(store::kManifestMagic, 8));
  const Result<store::WalScanExtent> scan = store::ForEachWalFrame(
      log, sizeof(store::kManifestMagic),
      [&](const store::WalFrameView& view) -> Status {
        EXPECT_EQ(view.type, WalRecordType::kManifestEdit);
        store::WalDecoder dec(view.body);
        DBTUNE_ASSIGN_OR_RETURN(const uint8_t full, dec.ReadU8());
        if (full != 0) {
          const size_t edits = m.edits;
          const size_t full_edits = m.full_edits;
          m = TestManifest();
          m.edits = edits;
          m.full_edits = full_edits + 1;
        }
        ++m.edits;
        m.covered_lsn = view.lsn;
        DBTUNE_ASSIGN_OR_RETURN(m.generation, dec.ReadVarint());
        DBTUNE_ASSIGN_OR_RETURN(m.data_log_bytes, dec.ReadVarint());
        DBTUNE_ASSIGN_OR_RETURN(uint64_t count, dec.ReadVarint());
        for (uint64_t i = 0; i < count; ++i) {  // restarts
          DBTUNE_ASSIGN_OR_RETURN(const std::string id, dec.ReadString());
          m.open.erase(id);
          m.sealed.erase(id);
        }
        DBTUNE_ASSIGN_OR_RETURN(count, dec.ReadVarint());
        for (uint64_t i = 0; i < count; ++i) {  // cuts: keep a byte prefix
          DBTUNE_ASSIGN_OR_RETURN(const std::string id, dec.ReadString());
          DBTUNE_ASSIGN_OR_RETURN(uint64_t keep, dec.ReadVarint());
          DBTUNE_ASSIGN_OR_RETURN(const uint64_t observations,
                                  dec.ReadVarint());
          (void)observations;
          std::vector<TestExtent> kept;
          for (const TestExtent& extent : m.open[id]) {
            if (keep == 0) break;
            kept.push_back({extent.offset, std::min(keep, extent.length)});
            keep -= kept.back().length;
          }
          m.open[id] = kept;
        }
        DBTUNE_ASSIGN_OR_RETURN(count, dec.ReadVarint());
        for (uint64_t i = 0; i < count; ++i) {  // extents, in runs per id
          DBTUNE_ASSIGN_OR_RETURN(const std::string id, dec.ReadString());
          DBTUNE_ASSIGN_OR_RETURN(uint64_t extents, dec.ReadVarint());
          for (; extents > 0; --extents) {
            TestExtent extent;
            DBTUNE_ASSIGN_OR_RETURN(extent.offset, dec.ReadVarint());
            DBTUNE_ASSIGN_OR_RETURN(extent.length, dec.ReadVarint());
            DBTUNE_ASSIGN_OR_RETURN(const uint64_t observations,
                                    dec.ReadVarint());
            (void)observations;
            m.open[id].push_back(extent);
          }
        }
        for (const bool is_session : {true, false}) {  // seals, tasks
          DBTUNE_ASSIGN_OR_RETURN(count, dec.ReadVarint());
          for (uint64_t i = 0; i < count; ++i) {
            TestEntry entry;
            DBTUNE_ASSIGN_OR_RETURN(entry.id, dec.ReadString());
            for (uint64_t& field : entry.fields) {
              DBTUNE_ASSIGN_OR_RETURN(field, dec.ReadVarint());
            }
            if (is_session) {
              m.open.erase(entry.id);
              m.sealed[entry.id] = entry;
            } else {
              m.tasks.push_back(entry);
            }
          }
        }
        EXPECT_TRUE(dec.AtEnd());
        return Status::OK();
      });
  EXPECT_TRUE(scan.ok() && !scan->torn_tail) << path;
  return m;
}

// The frames a sealed session or task entry stands for in `data_log`:
// the run it points at, or the runs its extent-index frame lists.
std::string EntryFrames(const std::string& data_log, const TestEntry& entry) {
  const std::string run = data_log.substr(entry.offset(), entry.length());
  const WalScanResult scan = ScanWalFrames(run, 0);
  if (scan.records.empty() ||
      scan.records[0].type != WalRecordType::kExtentIndex) {
    return run;
  }
  EXPECT_EQ(scan.records.size(), 1u);
  store::WalDecoder dec(scan.records[0].body);
  EXPECT_EQ(dec.ReadString().value(), entry.id);
  std::string frames;
  for (uint64_t i = dec.ReadVarint().value(); i > 0; --i) {
    const uint64_t offset = dec.ReadVarint().value();
    frames += data_log.substr(offset, dec.ReadVarint().value());
  }
  return frames;
}

// The store's checkpointed state in the one-file layout snapshots had
// before the data log: a 16-byte snapshot header, every session's frames
// (id order), then every task frame (persistence order), each read
// through the manifest log.
std::string StoredImage(const std::string& path) {
  const TestManifest manifest = ReadManifest(path);
  const std::string data_log =
      ReadBytes(DataLogPath(path, manifest.generation));
  EXPECT_EQ(data_log.size(), manifest.data_log_bytes);
  std::map<std::string, std::string> sessions;
  for (const auto& [id, extents] : manifest.open) {
    for (const TestExtent& extent : extents) {
      sessions[id] += data_log.substr(extent.offset, extent.length);
    }
  }
  for (const auto& [id, entry] : manifest.sealed) {
    sessions[id] = EntryFrames(data_log, entry);
  }
  std::string image = SnapshotHeader(0);
  for (const auto& entry : sessions) image += entry.second;
  for (const TestEntry& task : manifest.tasks) {
    image += EntryFrames(data_log, task);
  }
  return image;
}

// The id (session id or task name) every record body starts with; empty
// when the body is too short.
std::string RecordId(std::string_view body) {
  Result<std::string> id = store::WalDecoder(body).ReadString();
  return id.ok() ? *std::move(id) : std::string();
}

std::vector<SourceTask> TasksOf(const ObservationStore& s) {
  ObservationRepository repository;
  EXPECT_TRUE(s.ExportTasks(&repository).ok());
  return repository.tasks();
}

// The records the stored image of `s` (StoredImage) must hold, in order,
// freshly encoded from the decoded state with LSN 0.
std::vector<WalRecord> FreshSnapshotRecords(const ObservationStore& s) {
  std::vector<WalRecord> records;
  for (const StoredSessionInfo& info : s.ListSessions()) {
    const Result<StoredSession> session = s.FindSession(info.id);
    records.push_back(
        {0, WalRecordType::kBeginSession, BeginBody(info.id, info.dimension)});
    for (size_t i = 0; i < session->observations.size(); ++i) {
      records.push_back({0, WalRecordType::kObservation,
                         ObservationBody(info.id, i + 1,
                                         session->observations[i])});
    }
    if (info.finished) {
      records.push_back({0, WalRecordType::kEndSession, EndBody(info.id)});
    }
  }
  for (const SourceTask& task : TasksOf(s)) {
    records.push_back({0, WalRecordType::kTask, TaskBody(task)});
  }
  return records;
}

// ---------------------------------------------------------------------------
// WAL framing
// ---------------------------------------------------------------------------

// The table-sliced CRC equals the textbook bytewise one: the standard
// check value, and every length and alignment of a random buffer.
TEST_F(StoreTest, Crc32MatchesBytewiseReference) {
  EXPECT_EQ(store::Crc32("123456789", 9), 0xCBF43926u);
  auto bytewise = [](const unsigned char* data, size_t size) {
    uint32_t crc = 0xFFFFFFFFu;
    for (size_t i = 0; i < size; ++i) {
      crc ^= data[i];
      for (int k = 0; k < 8; ++k) {
        crc = (crc & 1) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
      }
    }
    return crc ^ 0xFFFFFFFFu;
  };
  Rng rng(8);
  std::vector<unsigned char> buffer(80);
  for (unsigned char& byte : buffer) {
    byte = static_cast<unsigned char>(rng.UniformInt(0, 255));
  }
  for (size_t start = 0; start < 8; ++start) {
    for (size_t size = 0; start + size <= buffer.size(); ++size) {
      EXPECT_EQ(store::Crc32(buffer.data() + start, size),
                bytewise(buffer.data() + start, size))
          << "start " << start << " size " << size;
    }
  }
}

TEST_F(StoreTest, WalFramesRoundTrip) {
  std::string data(store::kWalMagic, sizeof(store::kWalMagic));
  std::vector<WalRecord> records(3);
  records[0] = {1, WalRecordType::kBeginSession, "alpha"};
  records[1] = {2, WalRecordType::kObservation, std::string("\0\xFF" "bin", 5)};
  records[2] = {3, WalRecordType::kEndSession, ""};  // empty body
  for (const WalRecord& record : records) data += EncodeWalFrame(record);

  const WalScanResult scan = ScanWalFrames(data, sizeof(store::kWalMagic));
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.valid_bytes, data.size());
  ASSERT_EQ(scan.records.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(scan.records[i].lsn, records[i].lsn);
    EXPECT_EQ(scan.records[i].type, records[i].type);
    EXPECT_EQ(scan.records[i].body, records[i].body);
  }
}

TEST_F(StoreTest, WalScanStopsAtTornTail) {
  std::string data(store::kWalMagic, sizeof(store::kWalMagic));
  data += EncodeWalFrame({1, WalRecordType::kBeginSession, "s"});
  data += EncodeWalFrame({2, WalRecordType::kEndSession, "s"});
  const size_t intact = data.size();
  const std::string torn =
      EncodeWalFrame({3, WalRecordType::kObservation, "partial-record"});
  data += torn.substr(0, torn.size() / 2);  // crash mid-write

  const WalScanResult scan = ScanWalFrames(data, sizeof(store::kWalMagic));
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_EQ(scan.valid_bytes, intact);
  EXPECT_EQ(scan.records.size(), 2u);
}

TEST_F(StoreTest, WalScanStopsAtCrcMismatch) {
  std::string data(store::kWalMagic, sizeof(store::kWalMagic));
  data += EncodeWalFrame({1, WalRecordType::kBeginSession, "s"});
  const size_t intact = data.size();
  data += EncodeWalFrame({2, WalRecordType::kObservation, "to-be-damaged"});
  data.back() ^= 0x40;  // flip one payload bit

  const WalScanResult scan = ScanWalFrames(data, sizeof(store::kWalMagic));
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_EQ(scan.valid_bytes, intact);
  EXPECT_EQ(scan.records.size(), 1u);
}

TEST_F(StoreTest, EncoderDecoderRoundTripIsBitExact) {
  const std::vector<double> values = {0.1, -0.0, 1e-308, -1.7976931348623157e308,
                                      3.141592653589793};
  store::WalEncoder enc;
  enc.PutU8(7);
  enc.PutU32(0xDEADBEEF);
  enc.PutU64(1ull << 63);
  enc.PutString("sysbench/16g");
  enc.PutDoubles(values);

  store::WalDecoder dec(enc.bytes());
  EXPECT_EQ(dec.ReadU8().value(), 7);
  EXPECT_EQ(dec.ReadU32().value(), 0xDEADBEEFu);
  EXPECT_EQ(dec.ReadU64().value(), 1ull << 63);
  EXPECT_EQ(dec.ReadString().value(), "sysbench/16g");
  const std::vector<double> decoded = dec.ReadDoubles().value();
  ASSERT_EQ(decoded.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_TRUE(BitEqual(decoded[i], values[i])) << i;
  }
  EXPECT_TRUE(dec.AtEnd());
  // Reads past the end fail instead of walking off the buffer.
  EXPECT_FALSE(dec.ReadU8().ok());
}

// ---------------------------------------------------------------------------
// Store recovery
// ---------------------------------------------------------------------------

TEST_F(StoreTest, ReopenRecoversSessionsBitExact) {
  const std::string path = StorePath("reopen");
  std::vector<Observation> written;
  written.push_back(MakeObs({0.25, 0.5}, 1.5, 1500.0, {10.0, 20.0}));
  written.push_back(MakeObs({0.75, 0.1}, 0.0, 0.0, {}, true));
  written.push_back(MakeObs({0.33, 0.66}, 2.25, 2250.0, {11.0, 21.0}));
  {
    auto opened = ObservationStore::Open(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    ObservationStore& s = **opened;
    ASSERT_TRUE(s.BeginSession("s1", 2).ok());
    for (size_t i = 0; i < written.size(); ++i) {
      ASSERT_TRUE(s.AppendObservation("s1", i + 1, written[i]).ok());
    }
  }
  auto reopened = ObservationStore::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const Result<StoredSession> session = (*reopened)->FindSession("s1");
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(session->dimension, 2u);
  EXPECT_FALSE(session->finished);
  ExpectObservationsBitEqual(session->observations, written);
  EXPECT_EQ((*reopened)->stats().wal_records_replayed, 4u);  // begin + 3 obs
  EXPECT_FALSE((*reopened)->stats().loaded_snapshot);
  EXPECT_FALSE((*reopened)->stats().recovered_torn_tail);
}

// Concurrent serving sessions share one store: appends from different
// sessions interleave in the WAL but recover into independent,
// order-preserved, bit-exact histories.
TEST_F(StoreTest, InterleavedSessionAppendsRecoverIndependently) {
  const std::string path = StorePath("interleaved");
  std::vector<Observation> written_a;
  std::vector<Observation> written_b;
  for (size_t i = 0; i < 4; ++i) {
    written_a.push_back(MakeObs({0.1 + 0.2 * static_cast<double>(i), 0.5},
                                1.0 + static_cast<double>(i),
                                10.0 * static_cast<double>(i + 1),
                                {100.0 + static_cast<double>(i)}));
    written_b.push_back(MakeObs({0.9 - 0.2 * static_cast<double>(i)},
                                -2.0 - static_cast<double>(i),
                                5.0 * static_cast<double>(i + 1)));
  }
  {
    auto opened = ObservationStore::Open(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    ObservationStore& s = **opened;
    ASSERT_TRUE(s.BeginSession("a", 2).ok());
    ASSERT_TRUE(s.BeginSession("b", 1).ok());
    // a1 b1 a2 b2 a3 b3 a4 b4 — each session keeps its own 1-based
    // iteration counter regardless of the WAL-global interleaving.
    for (size_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(s.AppendObservation("a", i + 1, written_a[i]).ok());
      ASSERT_TRUE(s.AppendObservation("b", i + 1, written_b[i]).ok());
    }
  }
  auto reopened = ObservationStore::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const Result<StoredSession> a = (*reopened)->FindSession("a");
  const Result<StoredSession> b = (*reopened)->FindSession("b");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->dimension, 2u);
  EXPECT_EQ(b->dimension, 1u);
  ExpectObservationsBitEqual(a->observations, written_a);
  ExpectObservationsBitEqual(b->observations, written_b);
}

// Two sessions appending from two threads (the serve fan-out shape: one
// writer thread per session): the store's internal lock serializes the
// WAL, every append lands, and recovery is bit-exact for both.
TEST_F(StoreTest, TwoThreadsAppendingDistinctSessionsRecoverBitExact) {
  const std::string path = StorePath("two_thread");
  constexpr size_t kAppends = 50;
  std::vector<Observation> written_a;
  std::vector<Observation> written_b;
  for (size_t i = 0; i < kAppends; ++i) {
    const double t = static_cast<double>(i);
    written_a.push_back(MakeObs({t / kAppends, 0.25}, t, 2.0 * t, {t + 0.5}));
    written_b.push_back(MakeObs({1.0 - t / kAppends, 0.75}, -t, 3.0 * t));
  }
  {
    auto opened = ObservationStore::Open(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    ObservationStore& s = **opened;
    ASSERT_TRUE(s.BeginSession("a", 2).ok());
    ASSERT_TRUE(s.BeginSession("b", 2).ok());
    std::thread writer_a([&] {
      for (size_t i = 0; i < kAppends; ++i) {
        EXPECT_TRUE(s.AppendObservation("a", i + 1, written_a[i]).ok());
      }
    });
    std::thread writer_b([&] {
      for (size_t i = 0; i < kAppends; ++i) {
        EXPECT_TRUE(s.AppendObservation("b", i + 1, written_b[i]).ok());
      }
    });
    writer_a.join();
    writer_b.join();
    ExpectObservationsBitEqual(s.FindSession("a")->observations, written_a);
    ExpectObservationsBitEqual(s.FindSession("b")->observations, written_b);
  }
  auto reopened = ObservationStore::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const Result<StoredSession> a = (*reopened)->FindSession("a");
  const Result<StoredSession> b = (*reopened)->FindSession("b");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ExpectObservationsBitEqual(a->observations, written_a);
  ExpectObservationsBitEqual(b->observations, written_b);
}

// The same two writers with a checkpoint every second append: snapshots
// are written from retained frames while the other thread keeps
// appending, and recovery from the last snapshot plus the log tail is
// still bit-exact.
TEST_F(StoreTest, TwoThreadsAppendingWithInterleavedCheckpointsRecoverBitExact) {
  const std::string path = StorePath("two_thread_checkpoint");
  constexpr size_t kAppends = 40;
  StoreOptions options;
  options.snapshot_every = 2;
  std::vector<Observation> written_a;
  std::vector<Observation> written_b;
  for (size_t i = 0; i < kAppends; ++i) {
    const double t = static_cast<double>(i);
    written_a.push_back(MakeObs({t / kAppends, 0.5}, t, 4.0 * t, {t, -t}));
    written_b.push_back(MakeObs({0.5, 1.0 - t / kAppends}, -t, 5.0 * t));
  }
  size_t checkpoints = 0;
  {
    auto opened = ObservationStore::Open(path, options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    ObservationStore& s = **opened;
    ASSERT_TRUE(s.BeginSession("a", 2).ok());
    ASSERT_TRUE(s.BeginSession("b", 2).ok());
    std::thread writer_a([&] {
      for (size_t i = 0; i < kAppends; ++i) {
        EXPECT_TRUE(s.AppendObservation("a", i + 1, written_a[i]).ok());
      }
    });
    std::thread writer_b([&] {
      for (size_t i = 0; i < kAppends; ++i) {
        EXPECT_TRUE(s.AppendObservation("b", i + 1, written_b[i]).ok());
      }
    });
    writer_a.join();
    writer_b.join();
    checkpoints = s.stats().checkpoints;
  }
  EXPECT_EQ(checkpoints, kAppends);  // 2 * kAppends appends, one per pair
  auto reopened = ObservationStore::Open(path, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE((*reopened)->stats().loaded_snapshot);
  const Result<StoredSession> a = (*reopened)->FindSession("a");
  const Result<StoredSession> b = (*reopened)->FindSession("b");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ExpectObservationsBitEqual(a->observations, written_a);
  ExpectObservationsBitEqual(b->observations, written_b);
}

TEST_F(StoreTest, AppendValidatesSessionIterationAndArity) {
  const std::string path = StorePath("validate");
  auto opened = ObservationStore::Open(path);
  ASSERT_TRUE(opened.ok());
  ObservationStore& s = **opened;
  const Observation obs = MakeObs({0.5, 0.5}, 1.0, 1.0);

  EXPECT_FALSE(s.AppendObservation("ghost", 1, obs).ok());  // unknown id
  ASSERT_TRUE(s.BeginSession("s1", 2).ok());
  EXPECT_FALSE(s.AppendObservation("s1", 2, obs).ok());  // gap
  EXPECT_FALSE(s.AppendObservation("s1", 0, obs).ok());  // not 1-based
  EXPECT_FALSE(
      s.AppendObservation("s1", 1, MakeObs({0.5}, 1.0, 1.0)).ok());  // arity
  EXPECT_TRUE(s.AppendObservation("s1", 1, obs).ok());
  EXPECT_FALSE(s.AppendObservation("s1", 1, obs).ok());  // double apply
}

TEST_F(StoreTest, BeginSessionResumesRestartsAndRejectsDimensionChange) {
  const std::string path = StorePath("begin");
  auto opened = ObservationStore::Open(path);
  ASSERT_TRUE(opened.ok());
  ObservationStore& s = **opened;
  ASSERT_TRUE(s.BeginSession("s1", 2).ok());
  ASSERT_TRUE(s.AppendObservation("s1", 1, MakeObs({0.5, 0.5}, 1.0, 1.0)).ok());

  // Resuming an unfinished session with the same dimension keeps history.
  ASSERT_TRUE(s.BeginSession("s1", 2).ok());
  EXPECT_EQ(s.FindSession("s1")->observations.size(), 1u);
  // A different dimension on a live session is a hard error.
  EXPECT_FALSE(s.BeginSession("s1", 3).ok());

  // After FinishSession the same id starts over, empty.
  DbmsSimulator sim(SmallTestCatalog(), WorkloadId::kSysbench,
                    HardwareInstance::kB, 1);
  TuningEnvironment env(&sim, {0, 1});
  ASSERT_TRUE(s.FinishSession("s1", env.space(), "s1-task").ok());
  EXPECT_TRUE(s.FindSession("s1")->finished);
  EXPECT_FALSE(
      s.AppendObservation("s1", 2, MakeObs({0.5, 0.5}, 1.0, 1.0)).ok());
  ASSERT_TRUE(s.BeginSession("s1", 3).ok());
  EXPECT_EQ(s.FindSession("s1")->observations.size(), 0u);
  EXPECT_EQ(s.FindSession("s1")->dimension, 3u);
}

TEST_F(StoreTest, CheckpointCompactsWalAndRecoversFromSnapshot) {
  const std::string path = StorePath("checkpoint");
  StoreOptions options;
  options.snapshot_every = 3;
  std::vector<Observation> written;
  {
    auto opened = ObservationStore::Open(path, options);
    ASSERT_TRUE(opened.ok());
    ObservationStore& s = **opened;
    ASSERT_TRUE(s.BeginSession("s1", 1).ok());
    for (size_t i = 0; i < 7; ++i) {
      written.push_back(MakeObs({0.1 * static_cast<double>(i)},
                                static_cast<double>(i), 100.0 + i, {1.0 + i}));
      ASSERT_TRUE(s.AppendObservation("s1", i + 1, written.back()).ok());
    }
    EXPECT_EQ(s.stats().checkpoints, 2u);  // after obs 3 and 6
  }
  EXPECT_TRUE(std::filesystem::exists(path + ".manifest"));
  // Two checkpoints compacted all but the post-snapshot tail: the WAL
  // holds only the header and the single record appended since.
  const std::string wal = ReadBytes(path);
  const WalScanResult scan = ScanWalFrames(wal, sizeof(store::kWalMagic));
  EXPECT_EQ(scan.records.size(), 1u);

  auto reopened = ObservationStore::Open(path, options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE((*reopened)->stats().loaded_snapshot);
  EXPECT_EQ((*reopened)->stats().wal_records_replayed, 1u);
  const Result<StoredSession> session = (*reopened)->FindSession("s1");
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ExpectObservationsBitEqual(session->observations, written);
}

TEST_F(StoreTest, RecoverySkipsWalRecordsCoveredBySnapshot) {
  // Crash window between the snapshot rename and the WAL compaction: the
  // WAL still holds records the snapshot already covers. Their LSNs are
  // at or below the snapshot's covered LSN, so recovery must skip them
  // instead of double-applying.
  const std::string path = StorePath("lsn_skip");
  std::vector<Observation> written;
  {
    auto opened = ObservationStore::Open(path);  // snapshot_every=64: manual
    ASSERT_TRUE(opened.ok());
    ObservationStore& s = **opened;
    ASSERT_TRUE(s.BeginSession("s1", 1).ok());
    for (size_t i = 0; i < 3; ++i) {
      written.push_back(MakeObs({0.2 * static_cast<double>(i)}, 1.0 + i,
                                10.0 + i));
      ASSERT_TRUE(s.AppendObservation("s1", i + 1, written.back()).ok());
    }
  }
  const std::string pre_checkpoint_wal = ReadBytes(path);
  {
    auto opened = ObservationStore::Open(path);
    ASSERT_TRUE(opened.ok());
    ASSERT_TRUE((*opened)->Checkpoint().ok());
  }
  // Undo the compaction only — exactly what a crash right after the
  // snapshot rename leaves behind.
  WriteBytes(path, pre_checkpoint_wal);

  auto recovered = ObservationStore::Open(path);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE((*recovered)->stats().loaded_snapshot);
  EXPECT_EQ((*recovered)->stats().wal_records_replayed, 0u);  // all skipped
  const Result<StoredSession> session = (*recovered)->FindSession("s1");
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ExpectObservationsBitEqual(session->observations, written);
}

TEST_F(StoreTest, TornTailIsTruncatedAndAppendsResume) {
  const std::string path = StorePath("torn");
  std::vector<Observation> written;
  {
    auto opened = ObservationStore::Open(path);
    ASSERT_TRUE(opened.ok());
    ObservationStore& s = **opened;
    ASSERT_TRUE(s.BeginSession("s1", 1).ok());
    for (size_t i = 0; i < 2; ++i) {
      written.push_back(MakeObs({0.3 * static_cast<double>(i)}, 1.0 + i,
                                10.0 + i));
      ASSERT_TRUE(s.AppendObservation("s1", i + 1, written.back()).ok());
    }
  }
  WriteBytes(path, ReadBytes(path) + "XYZ-torn-garbage");

  auto recovered = ObservationStore::Open(path);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE((*recovered)->stats().recovered_torn_tail);
  const Result<StoredSession> session = (*recovered)->FindSession("s1");
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ExpectObservationsBitEqual(session->observations, written);

  // The tail is gone from disk, so the next append lands cleanly.
  ASSERT_TRUE((*recovered)
                  ->AppendObservation("s1", 3, MakeObs({0.9}, 9.0, 90.0))
                  .ok());
  auto again = ObservationStore::Open(path);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE((*again)->stats().recovered_torn_tail);
  EXPECT_EQ((*again)->FindSession("s1")->observations.size(), 3u);
}

TEST_F(StoreTest, InjectedWriteFaultLeavesRecoverableTornTail) {
  const std::string path = StorePath("fault");
  const Observation first = MakeObs({0.5}, 1.0, 10.0, {5.0});
  {
    auto opened = ObservationStore::Open(path);
    ASSERT_TRUE(opened.ok());
    ObservationStore& s = **opened;
    ASSERT_TRUE(s.BeginSession("s1", 1).ok());
    ASSERT_TRUE(s.AppendObservation("s1", 1, first).ok());
    // Allow 10 more bytes, then "crash": the frame is torn mid-write.
    store::testing::SetWalWriteFaultForTest(10);
    EXPECT_FALSE(
        s.AppendObservation("s1", 2, MakeObs({0.6}, 2.0, 20.0)).ok());
    store::testing::SetWalWriteFaultForTest(-1);
    // The writer shut itself down; later appends fail too.
    EXPECT_FALSE(
        s.AppendObservation("s1", 2, MakeObs({0.7}, 3.0, 30.0)).ok());
  }
  auto recovered = ObservationStore::Open(path);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE((*recovered)->stats().recovered_torn_tail);
  const Result<StoredSession> session = (*recovered)->FindSession("s1");
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ExpectObservationsBitEqual(session->observations, {first});
}

TEST_F(StoreTest, TruncateSessionDiscardsSuffixDurably) {
  const std::string path = StorePath("truncate");
  const Observation kept = MakeObs({0.1}, 1.0, 10.0);
  {
    auto opened = ObservationStore::Open(path);
    ASSERT_TRUE(opened.ok());
    ObservationStore& s = **opened;
    ASSERT_TRUE(s.BeginSession("s1", 1).ok());
    ASSERT_TRUE(s.AppendObservation("s1", 1, kept).ok());
    ASSERT_TRUE(s.AppendObservation("s1", 2, MakeObs({0.2}, 2.0, 20.0)).ok());
    ASSERT_TRUE(s.AppendObservation("s1", 3, MakeObs({0.3}, 3.0, 30.0)).ok());
    ASSERT_TRUE(s.TruncateSession("s1", 1).ok());
    EXPECT_EQ(s.FindSession("s1")->observations.size(), 1u);
    // The next live iteration continues right after the kept prefix.
    ASSERT_TRUE(s.AppendObservation("s1", 2, MakeObs({0.4}, 4.0, 40.0)).ok());
  }
  auto reopened = ObservationStore::Open(path);
  ASSERT_TRUE(reopened.ok());
  const Result<StoredSession> session = (*reopened)->FindSession("s1");
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_EQ(session->observations.size(), 2u);
  ExpectObservationsBitEqual({session->observations[0]}, {kept});
  EXPECT_TRUE(BitEqual(session->observations[1].score, 4.0));
}

TEST_F(StoreTest, TruncatingASealedSessionIsRejected) {
  const std::string path = StorePath("truncate_sealed");
  DbmsSimulator sim(SmallTestCatalog(), WorkloadId::kSysbench,
                    HardwareInstance::kB, 1);
  TuningEnvironment env(&sim, {0, 1});
  auto opened = ObservationStore::Open(path);
  ASSERT_TRUE(opened.ok());
  ObservationStore& s = **opened;
  ASSERT_TRUE(s.BeginSession("s1", 2).ok());
  ASSERT_TRUE(s.AppendObservation("s1", 1, MakeObs({0.1, 0.2}, 1.0, 1.0)).ok());
  ASSERT_TRUE(s.AppendObservation("s1", 2, MakeObs({0.3, 0.4}, 2.0, 2.0)).ok());
  ASSERT_TRUE(s.FinishSession("s1", env.space(), "s1-task").ok());
  EXPECT_EQ(s.TruncateSession("s1", 1).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(s.TruncateSession("s1", 5).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(s.FindSession("s1")->observations.size(), 2u);
  // Restarting the id unseals it; truncation works again.
  ASSERT_TRUE(s.BeginSession("s1", 2).ok());
  ASSERT_TRUE(s.AppendObservation("s1", 1, MakeObs({0.5, 0.6}, 3.0, 3.0)).ok());
  EXPECT_TRUE(s.TruncateSession("s1", 0).ok());
  EXPECT_EQ(s.FindSession("s1")->observations.size(), 0u);
}

// A log written before sealed sessions rejected truncation can hold a
// truncate record after the end record. Recovery still applies it, the
// session stays sealed, and a checkpoint carries both through.
TEST_F(StoreTest, RecoveryAppliesTruncateRecordOfASealedSession) {
  const std::string path = StorePath("truncate_sealed_log");
  const Observation kept = MakeObs({0.25}, 1.0, 10.0, {7.0});
  std::string wal(store::kWalMagic, sizeof(store::kWalMagic));
  wal += EncodeWalFrame({1, WalRecordType::kBeginSession, BeginBody("s1", 1)});
  wal += EncodeWalFrame(
      {2, WalRecordType::kObservation, ObservationBody("s1", 1, kept)});
  wal += EncodeWalFrame({3, WalRecordType::kObservation,
                         ObservationBody("s1", 2, MakeObs({0.5}, 2.0, 20.0))});
  wal += EncodeWalFrame({4, WalRecordType::kEndSession, EndBody("s1")});
  wal += EncodeWalFrame(
      {5, WalRecordType::kTruncateSession, TruncateBody("s1", 1)});
  WriteBytes(path, wal);

  for (int pass = 0; pass < 2; ++pass) {
    auto opened = ObservationStore::Open(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    const Result<StoredSession> session = (*opened)->FindSession("s1");
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    EXPECT_TRUE(session->finished) << "pass " << pass;
    ExpectObservationsBitEqual(session->observations, {kept});
    // The second pass recovers from this snapshot alone.
    ASSERT_TRUE((*opened)->Checkpoint().ok());
  }
}

TEST_F(StoreTest, FinishSessionPersistsTransferTask) {
  const std::string path = StorePath("finish");
  DbmsSimulator sim(SmallTestCatalog(), WorkloadId::kSysbench,
                    HardwareInstance::kB, 1);
  TuningEnvironment env(&sim, {0, 1});
  {
    auto opened = ObservationStore::Open(path);
    ASSERT_TRUE(opened.ok());
    ObservationStore& s = **opened;
    ASSERT_TRUE(s.BeginSession("s1", 2).ok());
    ASSERT_TRUE(
        s.AppendObservation("s1", 1, MakeObs({0.5, 0.5}, 1.0, 10.0, {3.0}))
            .ok());
    ASSERT_TRUE(
        s.AppendObservation("s1", 2, MakeObs({0.6, 0.4}, 2.0, 20.0, {5.0}))
            .ok());
    ASSERT_TRUE(s.FinishSession("s1", env.space(), "sysbench-s1").ok());
    EXPECT_EQ(s.num_tasks(), 1u);
    EXPECT_FALSE(s.FinishSession("s1", env.space(), "again").ok());
  }
  auto reopened = ObservationStore::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->num_tasks(), 1u);
  EXPECT_TRUE((*reopened)->FindSession("s1")->finished);

  ObservationRepository repository;
  ASSERT_TRUE((*reopened)->ExportTasks(&repository).ok());
  ASSERT_EQ(repository.size(), 1u);
  const SourceTask& task = repository.tasks()[0];
  EXPECT_EQ(task.name, "sysbench-s1");
  EXPECT_EQ(task.unit_x.size(), 2u);
  EXPECT_EQ(task.scores.size(), 2u);

  // An externally built task joins the pool durably too.
  ASSERT_TRUE((*reopened)->PersistTask(task).ok());
  auto again = ObservationStore::Open(path);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->num_tasks(), 2u);
}

// ---------------------------------------------------------------------------
// Checkpoints from retained frames
// ---------------------------------------------------------------------------

Observation RandomObs(Rng* rng, size_t dimension) {
  std::vector<double> config(dimension);
  for (double& v : config) v = rng->Uniform();
  std::vector<double> metrics(static_cast<size_t>(rng->UniformInt(0, 3)));
  for (double& m : metrics) m = rng->Gaussian(0.0, 100.0);
  return MakeObs(std::move(config), rng->Gaussian(), rng->Gaussian(0.0, 1e3),
                 std::move(metrics), rng->Bernoulli(0.1));
}

// Random begin / append / truncate / finish / restart / PersistTask
// traffic over four sessions, checkpointed now and then. After every
// checkpoint the stored frames (data log through the manifest, StoredImage)
// must equal a fresh encode of the live state record for record (bodies bitwise, sizes exactly; only LSNs may
// differ), and a reopened store must equal the live one bitwise.
TEST_F(StoreTest, SnapshotFromRetainedFramesMatchesFreshEncode) {
  const std::string path = StorePath("retained_random");
  DbmsSimulator sim(SmallTestCatalog(), WorkloadId::kSysbench,
                    HardwareInstance::kB, 1);
  TuningEnvironment env(&sim, {0, 1});
  constexpr size_t kDimension = 2;
  const std::vector<std::string> ids = {"r0", "r1", "r2", "r3"};
  StoreOptions options;
  options.snapshot_every = 0;  // explicit checkpoints only
  auto opened = ObservationStore::Open(path, options);
  ASSERT_TRUE(opened.ok());
  ObservationStore& s = **opened;

  Rng rng(2024);
  size_t checkpoints = 0;
  size_t finishes = 0;
  size_t truncates = 0;
  size_t restarts = 0;
  for (size_t step = 0; step < 600; ++step) {
    const std::string& id = ids[rng.Index(ids.size())];
    const Result<StoredSession> found = s.FindSession(id);
    const StoredSession* session = found.ok() ? &*found : nullptr;
    const bool live = session != nullptr && !session->finished;
    const size_t stored = session == nullptr ? 0 : session->observations.size();
    const int64_t op = rng.UniformInt(0, 99);
    if (op < 8 || session == nullptr) {
      if (session != nullptr && session->finished) ++restarts;
      ASSERT_TRUE(s.BeginSession(id, kDimension).ok());
    } else if (op < 70) {
      if (!live) continue;
      ASSERT_TRUE(
          s.AppendObservation(id, stored + 1, RandomObs(&rng, kDimension))
              .ok());
    } else if (op < 80) {
      if (!live) {
        EXPECT_EQ(s.TruncateSession(id, 0).code(),
                  StatusCode::kFailedPrecondition);
        continue;
      }
      if (stored == 0) continue;
      ASSERT_TRUE(s.TruncateSession(id, rng.Index(stored)).ok());
      ++truncates;
    } else if (op < 87) {
      if (!live) continue;
      ASSERT_TRUE(
          s.FinishSession(id, env.space(), id + "-" + std::to_string(step))
              .ok());
      ++finishes;
    } else if (op < 90) {
      SourceTask task;
      task.name = "external-" + std::to_string(step);
      task.unit_x = {{rng.Uniform(), rng.Uniform()}};
      task.scores = {rng.Gaussian()};
      task.metric_signature = {rng.Gaussian(), rng.Gaussian()};
      ASSERT_TRUE(s.PersistTask(task).ok());
    } else {
      ASSERT_TRUE(s.Checkpoint().ok());
      ++checkpoints;
      const std::string snapshot = StoredImage(path);
      const std::vector<WalRecord> fresh = FreshSnapshotRecords(s);
      size_t fresh_bytes = SnapshotHeader(0).size();
      for (const WalRecord& record : fresh) {
        fresh_bytes += EncodeWalFrame(record).size();
      }
      EXPECT_EQ(snapshot.size(), fresh_bytes) << "step " << step;
      const WalScanResult scan =
          ScanWalFrames(snapshot, SnapshotHeader(0).size());
      EXPECT_FALSE(scan.torn_tail);
      ASSERT_EQ(scan.records.size(), fresh.size()) << "step " << step;
      for (size_t r = 0; r < fresh.size(); ++r) {
        EXPECT_EQ(scan.records[r].type, fresh[r].type) << "record " << r;
        EXPECT_EQ(scan.records[r].body, fresh[r].body) << "record " << r;
      }
      auto reopened = ObservationStore::Open(path, options);
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      ExpectStoresBitEqual(s, **reopened);
    }
  }
  // The seed exercises every operation, not just appends.
  EXPECT_GT(checkpoints, 10u);
  EXPECT_GT(finishes, 0u);
  EXPECT_GT(truncates, 0u);
  EXPECT_GT(restarts, 0u);
}

// Store metrics land on the registry: append and checkpoint latency, and
// the bytes every checkpoint wrote. `store.checkpoint.bytes` is the sum of
// the data-log appends, the manifest writes and the WAL header each
// compaction rewrites; the data log gets each record once.
TEST_F(StoreTest, StoreMetricsRecordAppendsCheckpointsAndCheckpointBytes) {
  obs::ScopedMetricsForTest metrics;
  const std::string path = StorePath("metrics");
  StoreOptions options;
  options.snapshot_every = 3;
  auto opened = ObservationStore::Open(path, options);
  ASSERT_TRUE(opened.ok());
  ObservationStore& s = **opened;
  ASSERT_TRUE(s.BeginSession("s1", 1).ok());
  const obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  auto append_some = [&](size_t first, size_t count) {
    for (size_t i = first; i < first + count; ++i) {
      ASSERT_TRUE(s.AppendObservation(
                       "s1", i, MakeObs({0.1 * static_cast<double>(i)}, 1.0,
                                        static_cast<double>(i), {2.0}))
                      .ok());
    }
  };
  auto expect_bytes = [&](size_t checkpoints) {
    const obs::Counter* bytes = registry.FindCounter("store.checkpoint.bytes");
    const obs::Counter* data = registry.FindCounter("store.datalog.bytes");
    const obs::Counter* manifest = registry.FindCounter("store.manifest.bytes");
    ASSERT_NE(bytes, nullptr);
    ASSERT_NE(data, nullptr);
    ASSERT_NE(manifest, nullptr);
    EXPECT_EQ(data->value(),
              std::filesystem::file_size(DataLogPath(path, 1)));
    EXPECT_GE(manifest->value(),
              std::filesystem::file_size(path + ".manifest"));
    EXPECT_EQ(bytes->value(), data->value() + manifest->value() +
                                  checkpoints * sizeof(store::kWalMagic));
    EXPECT_EQ(registry.FindCounter("store.compaction.bytes"), nullptr);
  };

  append_some(1, 3);
  const obs::Histogram* append = registry.FindHistogram("store.append");
  const obs::Histogram* checkpoint = registry.FindHistogram("store.checkpoint");
  ASSERT_NE(append, nullptr);
  ASSERT_NE(checkpoint, nullptr);
  EXPECT_EQ(append->count(), 3u);
  EXPECT_EQ(checkpoint->count(), 1u);
  expect_bytes(1);

  append_some(4, 3);
  EXPECT_EQ(append->count(), 6u);
  EXPECT_EQ(checkpoint->count(), 2u);
  expect_bytes(2);
}

// ---------------------------------------------------------------------------
// The data log and the manifest log
// ---------------------------------------------------------------------------

// Random begin / append / truncate / finish / restart / PersistTask
// traffic, applied alike to a store that checkpoints now and then and to
// one that never does. Every call answers alike on both, and after every
// checkpoint (and after reopening the checkpointed store) ListSessions,
// FindSession and ExportTasks are bitwise equal, sealed ids restarted
// after their move included. The traffic also keeps sessions open across
// checkpoints, truncates into their checkpointed frames, and leaves enough
// dead bytes for compactions.
TEST_F(StoreTest, CheckpointedStoreMatchesNeverCheckpointedStore) {
  const std::string path = StorePath("sealed_random");
  const std::string reference_path = StorePath("sealed_random_reference");
  DbmsSimulator sim(SmallTestCatalog(), WorkloadId::kSysbench,
                    HardwareInstance::kB, 1);
  TuningEnvironment env(&sim, {0, 1});
  constexpr size_t kDimension = 2;
  const std::vector<std::string> ids = {"m0", "m1", "m2", "m3", "m4"};
  StoreOptions options;
  options.snapshot_every = 0;  // explicit checkpoints only
  auto opened = ObservationStore::Open(path, options);
  auto reference_opened = ObservationStore::Open(reference_path, options);
  ASSERT_TRUE(opened.ok());
  ASSERT_TRUE(reference_opened.ok());
  std::unique_ptr<ObservationStore> s = std::move(opened).value();
  const ObservationStore& reference = **reference_opened;
  auto both = [&](auto&& op) {
    const Status want = op(*reference_opened.value());
    const Status got = op(*s);
    EXPECT_EQ(want.code(), got.code()) << got.ToString();
    return got;
  };

  Rng rng(77);
  size_t moved = 0;
  size_t restarted_after_move = 0;
  size_t sealed_rejections = 0;
  // Observations of each live id at the last checkpoint, to count
  // truncations that cut checkpointed frames.
  std::map<std::string, size_t> checkpointed;
  size_t checkpointed_cuts = 0;
  size_t compactions = 0;
  for (size_t step = 0; step < 1500; ++step) {
    const std::string& id = ids[rng.Index(ids.size())];
    const Result<StoredSession> found = reference.FindSession(id);
    const bool live = found.ok() && !found->finished;
    const size_t stored = found.ok() ? found->observations.size() : 0;
    const int64_t op = rng.UniformInt(0, 99);
    if (op < 8 || !found.ok()) {
      if (found.ok() && found->finished && s->stats().sealed_sessions > 0) {
        ++restarted_after_move;
      }
      ASSERT_TRUE(both([&](ObservationStore& t) {
                    return t.BeginSession(id, kDimension);
                  }).ok());
      if (!live) checkpointed[id] = 0;
    } else if (op < 70) {
      const Observation obs = RandomObs(&rng, kDimension);
      const Status appended = both([&](ObservationStore& t) {
        return t.AppendObservation(id, stored + 1, obs);
      });
      if (!live) {
        EXPECT_EQ(appended.code(), StatusCode::kFailedPrecondition);
        ++sealed_rejections;
      }
    } else if (op < 78) {
      const size_t keep = stored == 0 ? 0 : rng.Index(stored);
      EXPECT_EQ(both([&](ObservationStore& t) {
                  return t.TruncateSession(id, keep);
                }).ok(),
                live);
      if (live && keep < checkpointed[id]) {
        ++checkpointed_cuts;
        checkpointed[id] = keep;
      }
    } else if (op < 86) {
      const std::string name = id + "-" + std::to_string(step);
      EXPECT_EQ(both([&](ObservationStore& t) {
                  return t.FinishSession(id, env.space(), name);
                }).ok(),
                live);
    } else if (op < 90) {
      SourceTask task;
      task.name = "external-" + std::to_string(step);
      task.unit_x = {{rng.Uniform(), rng.Uniform()}};
      task.scores = {rng.Gaussian()};
      task.metric_signature = {rng.Gaussian()};
      ASSERT_TRUE(
          both([&](ObservationStore& t) { return t.PersistTask(task); }).ok());
    } else {
      ASSERT_TRUE(s->Checkpoint().ok());
      EXPECT_EQ(s->num_tasks(), reference.num_tasks());
      moved = std::max(moved, s->stats().sealed_sessions);
      compactions += s->stats().compactions;
      EXPECT_LE(2 * s->stats().dead_bytes, s->stats().data_log_bytes);
      for (const StoredSessionInfo& info : reference.ListSessions()) {
        checkpointed[info.id] = info.observations;
      }
      ExpectStoresBitEqual(reference, *s);
      s.reset();
      auto reopened = ObservationStore::Open(path, options);
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      s = std::move(reopened).value();
      ExpectStoresBitEqual(reference, *s);
    }
  }
  ExpectStoresBitEqual(reference, *s);
  // The seed moves sessions, restarts moved ids and appends to them.
  EXPECT_GT(moved, 1u);
  EXPECT_GT(restarted_after_move, 0u);
  EXPECT_GT(sealed_rejections, 0u);
  EXPECT_GT(checkpointed_cuts, 0u);
  EXPECT_GT(compactions, 1u);
}

// Builds, in `path`, a store holding one open and two sealed sessions
// (one sealed twice over: finished, restarted, finished) and an external
// task, checkpoints it, and seals one more session after the checkpoint.
// The same calls go to `reference_path`, which never checkpoints.
void BuildSealedStore(const std::string& path,
                      const std::string& reference_path) {
  DbmsSimulator sim(SmallTestCatalog(), WorkloadId::kSysbench,
                    HardwareInstance::kB, 1);
  TuningEnvironment env(&sim, {0, 1});
  StoreOptions options;
  options.snapshot_every = 0;
  Rng rng(5);
  for (const std::string& target : {reference_path, path}) {
    Rng ops = rng;
    auto opened = ObservationStore::Open(target, options);
    ASSERT_TRUE(opened.ok());
    ObservationStore& s = **opened;
    auto run = [&](const std::string& id, size_t n) {
      ASSERT_TRUE(s.BeginSession(id, 2).ok());
      for (size_t i = 1; i <= n; ++i) {
        ASSERT_TRUE(s.AppendObservation(id, i, RandomObs(&ops, 2)).ok());
      }
    };
    run("a", 3);
    ASSERT_TRUE(s.FinishSession("a", env.space(), "a-task").ok());
    run("b", 4);
    ASSERT_TRUE(s.FinishSession("b", env.space(), "b-task").ok());
    SourceTask task;
    task.name = "external";
    task.unit_x = {{0.25, 0.75}};
    task.scores = {1.5};
    task.metric_signature = {2.5};
    ASSERT_TRUE(s.PersistTask(task).ok());
    run("a", 2);  // the finished id starts over
    ASSERT_TRUE(s.FinishSession("a", env.space(), "a-task-2").ok());
    run("open", 2);
    if (target == path) {
      ASSERT_TRUE(s.Checkpoint().ok());
    }
    run("c", 1);
    ASSERT_TRUE(s.FinishSession("c", env.space(), "c-task").ok());
  }
}

// Each checkpoint appends only the frames logged since the previous one:
// the data log is its header and then every WAL frame, byte for byte, in
// checkpoint order and session-id order within a checkpoint, and the
// manifest log gets one edit (or one rewrite) per checkpoint.
TEST_F(StoreTest, DataLogHoldsEachRecordOnce) {
  const std::string path = StorePath("each_record_once");
  StoreOptions options;
  options.snapshot_every = 0;
  std::string expected(store::kDataLogMagic, sizeof(store::kDataLogMagic));
  auto opened = ObservationStore::Open(path, options);
  ASSERT_TRUE(opened.ok());
  ObservationStore& s = **opened;
  Rng rng(3);
  for (size_t round = 0; round < 4; ++round) {
    std::map<std::string, std::string> logged;  // this round, per session
    for (const std::string id : {"b", "a"}) {
      if (round == 0) {
        ASSERT_TRUE(s.BeginSession(id, 2).ok());
      }
      for (size_t i = 1; i <= 2; ++i) {
        const size_t iteration = 2 * round + i;
        ASSERT_TRUE(
            s.AppendObservation(id, iteration, RandomObs(&rng, 2)).ok());
      }
    }
    const std::string wal = ReadBytes(path);
    const Result<store::WalScanExtent> scan = store::ForEachWalFrame(
        wal, sizeof(store::kWalMagic),
        [&](const store::WalFrameView& view) -> Status {
          store::WalDecoder dec(view.body);
          DBTUNE_ASSIGN_OR_RETURN(const std::string id, dec.ReadString());
          logged[id] += view.frame;
          return Status::OK();
        });
    ASSERT_TRUE(scan.ok() && !scan->torn_tail);
    for (const auto& entry : logged) expected += entry.second;
    ASSERT_TRUE(s.Checkpoint().ok());
    EXPECT_EQ(ReadBytes(DataLogPath(path, 1)), expected) << "round " << round;
    EXPECT_EQ(ReadManifest(path).covered_lsn, s.stats().last_lsn);
    EXPECT_EQ(s.stats().data_log_bytes, expected.size());
    EXPECT_EQ(s.stats().dead_bytes, 0u);
  }
}

// A checkpoint counts the data-log bytes it appended in
// `store.datalog.bytes` and the manifest bytes in `store.manifest.bytes`.
TEST_F(StoreTest, DataLogBytesMetricCountsTheDataLog) {
  obs::ScopedMetricsForTest metrics;
  const std::string path = StorePath("datalog_metric");
  const std::string reference_path = StorePath("datalog_metric_reference");
  BuildSealedStore(path, reference_path);
  const obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  const obs::Counter* data = registry.FindCounter("store.datalog.bytes");
  const obs::Counter* manifest = registry.FindCounter("store.manifest.bytes");
  ASSERT_NE(data, nullptr);
  ASSERT_NE(manifest, nullptr);
  EXPECT_EQ(data->value(), std::filesystem::file_size(DataLogPath(path, 1)));
  // One checkpoint, so one manifest write: the whole log.
  EXPECT_EQ(manifest->value(), std::filesystem::file_size(path + ".manifest"));
}

// Every file a store at `path` can have, each with its bytes or nullopt
// when absent: enough to put a store back exactly as it was.
using FileImage = std::map<std::string, std::optional<std::string>>;

FileImage SaveFiles(const std::string& path) {
  FileImage image;
  for (const std::string& file :
       {path, path + ".manifest", path + ".snapshot", DataLogPath(path, 0),
        DataLogPath(path, 1), DataLogPath(path, 2)}) {
    image[file] = std::filesystem::exists(file)
                      ? std::optional<std::string>(ReadBytes(file))
                      : std::nullopt;
  }
  return image;
}

void RestoreFiles(const FileImage& image) {
  for (const auto& [file, bytes] : image) {
    if (bytes.has_value()) {
      WriteBytes(file, *bytes);
    } else {
      std::filesystem::remove(file);
    }
  }
}

// Opens `path`, expects it bitwise equal to `reference`, checkpoints, and
// expects it equal again, before and after reopening.
void ExpectRecovered(const std::string& path,
                     const ObservationStore& reference,
                     const std::string& label) {
  {
    auto opened = ObservationStore::Open(path);
    ASSERT_TRUE(opened.ok()) << label << ": " << opened.status().ToString();
    ExpectStoresBitEqual(reference, **opened);
    ASSERT_TRUE((*opened)->Checkpoint().ok()) << label;
    ExpectStoresBitEqual(reference, **opened);
  }
  auto reopened = ObservationStore::Open(path);
  ASSERT_TRUE(reopened.ok()) << label << ": " << reopened.status().ToString();
  ExpectStoresBitEqual(reference, **reopened);
}

// Bytes the next checkpoint of `path` writes through WalWriter::Append
// (data log, then manifest), measured on a clean run that is then undone.
uint64_t CheckpointAppendBytes(const std::string& path) {
  const FileImage before = SaveFiles(path);
  uint64_t bytes = 0;
  {
    obs::ScopedMetricsForTest metrics;
    auto opened = ObservationStore::Open(path);
    EXPECT_TRUE(opened.ok());
    EXPECT_TRUE((*opened)->Checkpoint().ok());
    for (const char* name : {"store.datalog.bytes", "store.manifest.bytes",
                             "store.compaction.bytes"}) {
      if (const obs::Counter* counter =
              obs::MetricsRegistry::Get().FindCounter(name)) {
        bytes += counter->value();
      }
    }
  }
  RestoreFiles(before);
  return bytes;
}

// Each crash window of a checkpoint (DESIGN.md §10) recovers to what the
// client was told, and the store checkpoints again from there: a torn
// data-log append or manifest write at every byte budget across both, on
// a store whose manifest log exists (the edit is appended) and on one
// that has none yet (the log is created by a rename); the data log
// appended but no edit committed; the edit committed but the WAL not
// compacted; and leftover bytes past what the manifest covers.
TEST_F(StoreTest, CheckpointCrashWindowsRecoverThePreCheckpointContent) {
  const std::string path = StorePath("sealed_crash");
  const std::string reference_path = StorePath("sealed_crash_reference");
  BuildSealedStore(path, reference_path);
  auto reference = ObservationStore::Open(reference_path);
  ASSERT_TRUE(reference.ok());
  // The same content with nothing checkpointed: a WAL alone.
  const std::string fresh_path = StorePath("sealed_crash_fresh");
  WriteBytes(fresh_path, ReadBytes(reference_path));

  for (const std::string& target : {path, fresh_path}) {
    const FileImage before = SaveFiles(target);
    const uint64_t appended = CheckpointAppendBytes(target);
    ASSERT_GT(appended, 0u);
    for (uint64_t budget = 0; budget < appended; ++budget) {
      RestoreFiles(before);
      {
        auto opened = ObservationStore::Open(target);
        ASSERT_TRUE(opened.ok());
        store::testing::SetWalWriteFaultForTest(static_cast<int64_t>(budget));
        EXPECT_FALSE((*opened)->Checkpoint().ok()) << "budget " << budget;
        store::testing::SetWalWriteFaultForTest(-1);
        EXPECT_EQ((*opened)->stats().checkpoint_failures, 1u);
      }
      ExpectRecovered(target, **reference,
                      target + " torn at " + std::to_string(budget));
      if (HasFatalFailure()) return;
    }

    // Data log appended, then the crash: no edit, no WAL compaction.
    RestoreFiles(before);
    {
      auto opened = ObservationStore::Open(target);
      ASSERT_TRUE(opened.ok());
      ASSERT_TRUE((*opened)->Checkpoint().ok());
    }
    FileImage uncommitted = before;
    uncommitted.erase(DataLogPath(target, 1));
    RestoreFiles(uncommitted);
    ExpectRecovered(target, **reference, target + " edit not written");

    // Edit committed, WAL not compacted: its records are covered.
    RestoreFiles(before);
    {
      auto opened = ObservationStore::Open(target);
      ASSERT_TRUE(opened.ok());
      ASSERT_TRUE((*opened)->Checkpoint().ok());
    }
    WriteBytes(target, *before.at(target));
    {
      auto opened = ObservationStore::Open(target);
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      EXPECT_EQ((*opened)->stats().wal_records_replayed, 0u);
      ExpectStoresBitEqual(**reference, **opened);
    }
  }

  // Leftover bytes past the covered length are dropped on open, and so
  // is a torn final manifest edit.
  const FileImage before = SaveFiles(path);
  const std::string data_log = *before.at(DataLogPath(path, 1));
  WriteBytes(DataLogPath(path, 1), data_log + "leftover-garbage");
  ExpectRecovered(path, **reference, "leftover bytes");
  RestoreFiles(before);
  const std::string edit = EncodeWalFrame(
      {99, WalRecordType::kManifestEdit, std::string(40, '\x01')});
  WriteBytes(path + ".manifest",
             *before.at(path + ".manifest") + edit.substr(0, 30));
  {
    auto opened = ObservationStore::Open(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    ExpectStoresBitEqual(**reference, **opened);
  }
  EXPECT_EQ(ReadBytes(path + ".manifest"), *before.at(path + ".manifest"));
}

// Builds, in `path`, a store whose next checkpoint compacts the data log:
// a session truncated far into its checkpointed frames, a sealed session
// spread over two extents (so it has an extent index), an open session
// and a task. The same calls go to `reference_path`, which never
// checkpoints.
void BuildCompactingStore(const std::string& path,
                          const std::string& reference_path) {
  DbmsSimulator sim(SmallTestCatalog(), WorkloadId::kSysbench,
                    HardwareInstance::kB, 1);
  TuningEnvironment env(&sim, {0, 1});
  StoreOptions options;
  options.snapshot_every = 0;
  for (const std::string& target : {reference_path, path}) {
    Rng rng(13);
    auto opened = ObservationStore::Open(target, options);
    ASSERT_TRUE(opened.ok());
    ObservationStore& s = **opened;
    auto append = [&](const std::string& id, size_t first, size_t n) {
      for (size_t i = first; i < first + n; ++i) {
        ASSERT_TRUE(s.AppendObservation(id, i, RandomObs(&rng, 2)).ok());
      }
    };
    for (const std::string id : {"cut", "open", "sealed"}) {
      ASSERT_TRUE(s.BeginSession(id, 2).ok());
    }
    append("cut", 1, 24);
    append("open", 1, 3);
    append("sealed", 1, 2);
    if (target == path) {
      ASSERT_TRUE(s.Checkpoint().ok());
    }
    append("sealed", 3, 2);
    ASSERT_TRUE(s.FinishSession("sealed", env.space(), "sealed-task").ok());
    ASSERT_TRUE(s.TruncateSession("cut", 1).ok());
    append("cut", 2, 1);
    append("open", 4, 1);
  }
}

// A checkpoint whose dead bytes pass half of the data log copies the live
// extents to the next generation: the copy keeps every session and task
// bitwise, drops the dead bytes, and the old generation is deleted. A
// crash before the new manifest's rename (a torn copy or manifest write at
// every byte budget, the new file left behind) recovers the pre-compaction
// generation; a crash after it (the old file left behind) recovers the
// new one. Either way the leftover file is removed on open.
TEST_F(StoreTest, CompactionCrashWindowsRecoverThePreCompactionContent) {
  const std::string path = StorePath("compaction");
  const std::string reference_path = StorePath("compaction_reference");
  BuildCompactingStore(path, reference_path);
  auto reference = ObservationStore::Open(reference_path);
  ASSERT_TRUE(reference.ok());
  const FileImage before = SaveFiles(path);
  ASSERT_TRUE(before.at(DataLogPath(path, 1)).has_value());

  uint64_t live_bytes = 0;
  {
    auto opened = ObservationStore::Open(path);
    ASSERT_TRUE(opened.ok());
    ASSERT_TRUE((*opened)->Checkpoint().ok());
    EXPECT_EQ((*opened)->stats().compactions, 1u);
    EXPECT_EQ((*opened)->stats().dead_bytes, 0u);
    live_bytes = (*opened)->stats().data_log_bytes;
    ExpectStoresBitEqual(**reference, **opened);
  }
  EXPECT_FALSE(std::filesystem::exists(DataLogPath(path, 1)));
  EXPECT_EQ(std::filesystem::file_size(DataLogPath(path, 2)), live_bytes);
  EXPECT_LT(live_bytes, before.at(DataLogPath(path, 1))->size());
  EXPECT_EQ(ReadManifest(path).generation, 2u);
  ExpectRecovered(path, **reference, "compacted");

  // After the rename, before the old generation's deletion.
  const FileImage compacted = SaveFiles(path);
  RestoreFiles(compacted);
  WriteBytes(DataLogPath(path, 1), *before.at(DataLogPath(path, 1)));
  ExpectRecovered(path, **reference, "old generation left");
  EXPECT_FALSE(std::filesystem::exists(DataLogPath(path, 1)));

  // Before the rename: tear every write past the checkpoint's own edit.
  RestoreFiles(before);
  uint64_t edit_bytes = 0;
  {
    obs::ScopedMetricsForTest metrics;
    auto opened = ObservationStore::Open(path);
    ASSERT_TRUE(opened.ok());
    ASSERT_TRUE((*opened)->Checkpoint().ok());
    const obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
    edit_bytes = registry.FindCounter("store.datalog.bytes")->value() +
                 registry.FindCounter("store.manifest.bytes")->value() -
                 std::filesystem::file_size(path + ".manifest");
  }
  RestoreFiles(before);
  const uint64_t appended = CheckpointAppendBytes(path);
  ASSERT_GT(appended, edit_bytes);
  for (uint64_t budget = edit_bytes; budget < appended; ++budget) {
    RestoreFiles(before);
    {
      auto opened = ObservationStore::Open(path);
      ASSERT_TRUE(opened.ok());
      store::testing::SetWalWriteFaultForTest(static_cast<int64_t>(budget));
      EXPECT_FALSE((*opened)->Checkpoint().ok()) << "budget " << budget;
      store::testing::SetWalWriteFaultForTest(-1);
      EXPECT_EQ((*opened)->stats().compactions, 0u);
    }
    WriteBytes(DataLogPath(path, 2), "a torn copy");
    ExpectRecovered(path, **reference,
                    "compaction torn at " + std::to_string(budget));
    if (HasFatalFailure()) return;
  }
}

// Damage never aborts. Open reads only the manifest log and the WAL: with
// a sealed session's and a task's frames damaged it succeeds, and so do
// ListSessions and num_tasks (they answer from the index); FindSession of
// the damaged id and ExportTasks fail with a Status while every other id
// still reads back. A damaged open session's extent is reported the same
// way, by FindSession of that id. A damaged or emptied manifest log, and a
// data log shorter than the manifest covers, fail Open with Internal.
TEST_F(StoreTest, DamagedDataLogOrManifestNeverAborts) {
  const std::string path = StorePath("sealed_damaged");
  const std::string reference_path = StorePath("sealed_damaged_reference");
  BuildSealedStore(path, reference_path);
  {
    auto opened = ObservationStore::Open(path);
    ASSERT_TRUE(opened.ok());
    ASSERT_TRUE((*opened)->Checkpoint().ok());
  }
  auto reference = ObservationStore::Open(reference_path);
  ASSERT_TRUE(reference.ok());
  const std::string data_log_path = DataLogPath(path, 1);
  const std::string data_log = ReadBytes(data_log_path);
  // Find "b"'s second observation frame, the "external" task frame and
  // the open session's first observation frame.
  size_t b_frame = 0;
  size_t task_frame = 0;
  size_t open_frame = 0;
  size_t b_observations = 0;
  const Result<store::WalScanExtent> scan = store::ForEachWalFrame(
      data_log, sizeof(store::kDataLogMagic),
      [&](const store::WalFrameView& view) -> Status {
        const size_t offset =
            static_cast<size_t>(view.frame.data() - data_log.data());
        const std::string id = RecordId(view.body);
        const bool observation = view.type == WalRecordType::kObservation;
        if (observation && id == "b" && ++b_observations == 2) {
          b_frame = offset;
        } else if (observation && id == "open" && open_frame == 0) {
          open_frame = offset;
        } else if (view.type == WalRecordType::kTask && id == "external") {
          task_frame = offset;
        }
        return Status::OK();
      });
  ASSERT_TRUE(scan.ok() && !scan->torn_tail);
  ASSERT_GT(b_frame, 0u);
  ASSERT_GT(task_frame, 0u);
  ASSERT_GT(open_frame, 0u);

  std::string damaged = data_log;
  damaged[b_frame + 20] ^= 0x10;
  damaged[task_frame + 20] ^= 0x10;
  WriteBytes(data_log_path, damaged);
  {
    auto opened = ObservationStore::Open(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    ObservationStore& s = **opened;
    EXPECT_EQ(s.ListSessions().size(), (*reference)->ListSessions().size());
    EXPECT_EQ(s.num_tasks(), (*reference)->num_tasks());
    EXPECT_EQ(s.FindSession("b").status().code(), StatusCode::kInternal);
    ObservationRepository repository;
    EXPECT_EQ(s.ExportTasks(&repository).code(), StatusCode::kInternal);
    EXPECT_EQ(repository.size(), 0u);
    for (const std::string id : {"a", "c", "open"}) {
      const Result<StoredSession> got = s.FindSession(id);
      ASSERT_TRUE(got.ok()) << id << ": " << got.status().ToString();
      ExpectObservationsBitEqual((*reference)->FindSession(id)->observations,
                                 got->observations);
      EXPECT_EQ(got->finished, id != "open");
    }
  }

  // Open reads no open session's extent either: damage there is reported
  // by the lookup that reads it, and every other id still reads back.
  damaged = data_log;
  damaged[open_frame + 20] ^= 0x10;
  WriteBytes(data_log_path, damaged);
  {
    auto opened = ObservationStore::Open(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    ObservationStore& s = **opened;
    EXPECT_EQ(s.FindSession("open").status().code(), StatusCode::kInternal);
    for (const std::string id : {"a", "b", "c"}) {
      const Result<StoredSession> got = s.FindSession(id);
      ASSERT_TRUE(got.ok()) << id << ": " << got.status().ToString();
      ExpectObservationsBitEqual((*reference)->FindSession(id)->observations,
                                 got->observations);
    }
    ObservationRepository repository;
    EXPECT_TRUE(s.ExportTasks(&repository).ok());
    EXPECT_EQ(repository.size(), (*reference)->num_tasks());
  }

  // A complete manifest edit that fails its CRC is damage, not a torn
  // tail: Open fails instead of dropping committed edits.
  WriteBytes(data_log_path, data_log);
  const std::string manifest = ReadBytes(path + ".manifest");
  std::string bad_manifest = manifest;
  bad_manifest[sizeof(store::kManifestMagic) + 12] ^= 0x10;
  WriteBytes(path + ".manifest", bad_manifest);
  EXPECT_EQ(ObservationStore::Open(path).status().code(),
            StatusCode::kInternal);
  WriteBytes(path + ".manifest", std::string("not-a-manifest"));
  EXPECT_EQ(ObservationStore::Open(path).status().code(),
            StatusCode::kInternal);
  // Torn inside its first edit: never a crash artifact, since the log is
  // created whole by a rename.
  WriteBytes(path + ".manifest", manifest.substr(0, 20));
  EXPECT_EQ(ObservationStore::Open(path).status().code(),
            StatusCode::kInternal);
  WriteBytes(path + ".manifest", manifest);

  // A log cut below its covered length fails Open with a Status.
  WriteBytes(data_log_path, data_log.substr(0, data_log.size() - 1));
  EXPECT_EQ(ObservationStore::Open(path).status().code(),
            StatusCode::kInternal);
  std::remove(data_log_path.c_str());
  EXPECT_EQ(ObservationStore::Open(path).status().code(),
            StatusCode::kInternal);
}

// The read-size guards hold against images whose every frame passes its
// CRC but whose extents add up past the data log the manifest covers. A
// full manifest edit listing the open session's real extent over and over
// fails Open with Internal before anything is read; a sealed entry
// pointing at an extent-index frame that repeats one extent makes
// FindSession answer Internal once the extents read outgrow the covered
// length, while the open session still reads back.
TEST_F(StoreTest, ExtentsPastTheCoveredDataLogFailWithAStatus) {
  const std::string path = StorePath("extents_past_log");
  const std::string reference_path = StorePath("extents_past_log_reference");
  BuildSealedStore(path, reference_path);
  {
    auto opened = ObservationStore::Open(path);
    ASSERT_TRUE(opened.ok());
    ASSERT_TRUE((*opened)->Checkpoint().ok());
  }
  const TestManifest m = ReadManifest(path);
  ASSERT_EQ(m.open.count("open"), 1u);
  ASSERT_EQ(m.open.at("open").size(), 1u);
  ASSERT_EQ(m.sealed.count("b"), 1u);
  const TestExtent open_extent = m.open.at("open")[0];
  const uint64_t open_observations = 2;  // BuildSealedStore's run("open", 2)
  const std::string data_log_path = DataLogPath(path, m.generation);
  const std::string data_log = ReadBytes(data_log_path);
  ASSERT_EQ(data_log.size(), m.data_log_bytes);

  // A manifest log of one full edit: "open" as `repeats` copies of its
  // extent, `seal` (if any) as the only sealed entry, no tasks.
  auto manifest_log = [&](uint64_t data_log_bytes, uint64_t repeats,
                          const TestEntry* seal) {
    store::WalEncoder enc;
    enc.PutU8(1);  // full
    enc.PutVarint(m.generation);
    enc.PutVarint(data_log_bytes);
    enc.PutVarint(0);  // restarts
    enc.PutVarint(0);  // cuts
    enc.PutVarint(1);  // one run of extents
    enc.PutString("open");
    enc.PutVarint(repeats);
    for (uint64_t i = 0; i < repeats; ++i) {
      enc.PutVarint(open_extent.offset);
      enc.PutVarint(open_extent.length);
      enc.PutVarint(open_observations);
    }
    enc.PutVarint(seal != nullptr ? 1 : 0);
    if (seal != nullptr) {
      enc.PutString(seal->id);
      for (const uint64_t field : seal->fields) enc.PutVarint(field);
    }
    enc.PutVarint(0);  // tasks
    std::string image(store::kManifestMagic, sizeof(store::kManifestMagic));
    image += EncodeWalFrame(
        WalRecord{m.covered_lsn, WalRecordType::kManifestEdit, enc.bytes()});
    return image;
  };

  // The open session's extents add up past the covered length.
  const uint64_t repeats = m.data_log_bytes / open_extent.length + 1;
  WriteBytes(path + ".manifest", manifest_log(m.data_log_bytes, repeats,
                                              nullptr));
  EXPECT_EQ(ObservationStore::Open(path).status().code(),
            StatusCode::kInternal);

  // "b" sealed behind an extent-index frame appended to the data log,
  // which lists b's real run so often that the runs outgrow the log.
  TestEntry seal = m.sealed.at("b");
  const uint64_t run_length = seal.length();
  const uint64_t runs = 2 * (m.data_log_bytes / run_length + 1);
  store::WalEncoder index;
  index.PutString("b");
  index.PutVarint(runs);
  for (uint64_t i = 0; i < runs; ++i) {
    index.PutVarint(seal.offset());
    index.PutVarint(run_length);
  }
  const std::string index_frame = EncodeWalFrame(
      WalRecord{seal.fields[0], WalRecordType::kExtentIndex, index.bytes()});
  const uint64_t covered = data_log.size() + index_frame.size();
  ASSERT_GT(runs * run_length, covered);
  // Its offset, length and bytes: the index frame and the runs it lists.
  seal.fields[3] = data_log.size();
  seal.fields[4] = index_frame.size();
  seal.fields[5] = index_frame.size() + runs * run_length;
  WriteBytes(data_log_path, data_log + index_frame);
  WriteBytes(path + ".manifest", manifest_log(covered, 1, &seal));
  auto opened = ObservationStore::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ((*opened)->FindSession("b").status().code(),
            StatusCode::kInternal);
  const Result<StoredSession> open = (*opened)->FindSession("open");
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  EXPECT_EQ(open->observations.size(), open_observations);
}

// One observation in the shape the deep bench_e2e workloads log:
// dimension 20, 40 internal metrics.
Observation WideObs(Rng* rng) {
  std::vector<double> config(20);
  for (double& v : config) v = rng->Uniform();
  std::vector<double> metrics(40);
  for (double& m : metrics) m = rng->Gaussian(0.0, 100.0);
  return MakeObs(std::move(config), rng->Gaussian(), rng->Gaussian(0.0, 1e3),
                 std::move(metrics));
}

// Bytes each checkpoint writes grow with the bytes logged, not with their
// square. Replays the store traffic of bench_e2e's `deep-gp` (48 sessions
// x 100 observations in lockstep, closed at the end) and `fleet-churn`
// (64 staggered slots x 8 sessions x 12 observations) at the default
// `snapshot_every` of 64. The data log plus the manifest log stay within
// 1.25x of the WAL bytes, and fleet-churn's manifest writes stay under
// 0.5 MB, with the manifest Open reads within 1.25x of the fixed-width
// index a snapshot held before the manifest log.
TEST_F(StoreTest, CheckpointBytesAreLinearInLoggedBytes) {
  DbmsSimulator sim(WorkloadId::kSysbench, HardwareInstance::kB, 1);
  TuningEnvironment env(&sim, FirstKnobs(20));
  struct Traffic {
    std::string name;
    size_t slots = 0;
    size_t sessions_per_slot = 0;
    size_t observations = 0;
    bool staggered = false;
  };
  // Runs the traffic against `s`: every slot appends one observation per
  // round to its current session, finishing it (a transfer task) after
  // `observations` and beginning the slot's next one. A staggered slot's
  // first session is shorter by the slot's index, modulo `observations`.
  auto run = [&](const Traffic& traffic, ObservationStore* s) {
    Rng rng(17);
    std::vector<size_t> session(traffic.slots, 0);
    std::vector<size_t> stored(traffic.slots, 0);
    std::vector<size_t> target(traffic.slots, traffic.observations);
    auto id_of = [&](size_t slot) {
      char id[32];
      std::snprintf(id, sizeof(id), "s%05zu",
                    slot * traffic.sessions_per_slot + session[slot]);
      return std::string(id);
    };
    for (size_t slot = 0; slot < traffic.slots; ++slot) {
      ASSERT_TRUE(s->BeginSession(id_of(slot), 20).ok());
      if (traffic.staggered) target[slot] -= slot % traffic.observations;
    }
    for (bool active = true; active;) {
      active = false;
      for (size_t slot = 0; slot < traffic.slots; ++slot) {
        if (session[slot] == traffic.sessions_per_slot) continue;
        active = true;
        const std::string id = id_of(slot);
        ASSERT_TRUE(
            s->AppendObservation(id, ++stored[slot], WideObs(&rng)).ok());
        if (stored[slot] < target[slot]) continue;
        ASSERT_TRUE(s->FinishSession(id, env.space(), id).ok());
        stored[slot] = 0;
        target[slot] = traffic.observations;
        if (++session[slot] < traffic.sessions_per_slot) {
          ASSERT_TRUE(s->BeginSession(id_of(slot), 20).ok());
        }
      }
    }
  };
  for (const Traffic& traffic : {Traffic{"deep_gp", 48, 1, 100, false},
                                 Traffic{"fleet_churn", 64, 8, 12, true}}) {
    // Logged bytes: the WAL of the same traffic never checkpointed.
    const std::string reference_path = StorePath("linear_reference");
    {
      StoreOptions options;
      options.snapshot_every = 0;
      auto opened = ObservationStore::Open(reference_path, options);
      ASSERT_TRUE(opened.ok());
      run(traffic, opened.value().get());
    }
    const uint64_t wal_bytes = std::filesystem::file_size(reference_path);
    obs::ScopedMetricsForTest metrics;
    const std::string path = StorePath("linear_" + traffic.name);
    {
      auto opened = ObservationStore::Open(path);
      ASSERT_TRUE(opened.ok());
      run(traffic, opened.value().get());
      EXPECT_GT((*opened)->stats().checkpoints, 70u) << traffic.name;
    }
    const obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
    const uint64_t data_bytes =
        registry.FindCounter("store.datalog.bytes")->value();
    const uint64_t manifest_bytes =
        registry.FindCounter("store.manifest.bytes")->value();
    EXPECT_LE(static_cast<double>(data_bytes + manifest_bytes),
              1.25 * static_cast<double>(wal_bytes))
        << traffic.name << ": data log " << data_bytes << ", manifest "
        << manifest_bytes << ", wal " << wal_bytes;
    if (traffic.name != "fleet_churn") continue;
    EXPECT_LT(manifest_bytes, 500'000u);
    // What Open reads of the index, against the fixed-width index the
    // snapshot held before the manifest log: a frame with the covered
    // length and two counts, then per sealed session and task a length-
    // prefixed id and five u64 fields.
    const TestManifest manifest = ReadManifest(path);
    uint64_t fixed_width = 17 + 24;
    for (const auto& entry : manifest.sealed) {
      fixed_width += 4 + entry.first.size() + 40;
    }
    for (const TestEntry& task : manifest.tasks) {
      fixed_width += 4 + task.id.size() + 40;
    }
    EXPECT_LE(static_cast<double>(std::filesystem::file_size(
                  path + ".manifest")),
              1.25 * static_cast<double>(fixed_width));
  }
}

// Open reads no data-log byte, a sealed session's, a task's or an open
// session's: it reads the manifest log and the WAL, so on a store with an
// open session it reads just the manifest log and the WAL's header.
TEST_F(StoreTest, OpenReadsNoSealedBytes) {
  const std::string path = StorePath("recovery_bytes");
  const std::string reference_path = StorePath("recovery_bytes_reference");
  BuildSealedStore(path, reference_path);
  {
    auto opened = ObservationStore::Open(path);
    ASSERT_TRUE(opened.ok());
    ASSERT_TRUE((*opened)->Checkpoint().ok());
  }
  uint64_t open_bytes = 0;
  for (const auto& [id, extents] : ReadManifest(path).open) {
    for (const TestExtent& extent : extents) open_bytes += extent.length;
  }
  ASSERT_GT(open_bytes, 0u);
  {
    auto opened = ObservationStore::Open(path);
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ((*opened)->stats().recovery_bytes_read,
              std::filesystem::file_size(path + ".manifest") +
                  sizeof(store::kWalMagic));
    DbmsSimulator sim(SmallTestCatalog(), WorkloadId::kSysbench,
                      HardwareInstance::kB, 1);
    TuningEnvironment env(&sim, {0, 1});
    ASSERT_TRUE((*opened)->FinishSession("open", env.space(), "open").ok());
    ASSERT_TRUE((*opened)->Checkpoint().ok());
    EXPECT_EQ((*opened)->stats().sealed_sessions, 4u);
  }
  auto opened = ObservationStore::Open(path);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ((*opened)->stats().recovery_bytes_read,
            std::filesystem::file_size(path + ".manifest") +
                sizeof(store::kWalMagic));
  EXPECT_EQ((*opened)->ListSessions().size(), 4u);
}

// Stores of the layouts before the manifest log (tests/data/README.md): a
// one-file snapshot, and a snapshot with a sealed-log manifest beside its
// `.sealed`, each with a WAL tail. Open refuses both with
// FailedPrecondition, naming the snapshot and the build that converts it,
// before it touches a file: afterwards the directory holds the same files
// with the same bytes, and nothing new. The record type those snapshots
// kept their index in (6) is retired: a WAL frame of it is unknown.
TEST_F(StoreTest, OlderLayoutFixturesAreRefusedUntouched) {
  for (const std::string layout :
       {"store_one_file_layout", "store_sealed_log_layout"}) {
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / ("refused_" + layout);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::filesystem::copy(std::filesystem::path(DBTUNE_TEST_DATA_DIR) / layout,
                          dir);
    const std::string path = (dir / "store.wal").string();
    ASSERT_TRUE(std::filesystem::exists(path + ".snapshot")) << layout;
    auto files = [&dir] {
      std::map<std::string, std::string> bytes;
      for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        bytes[entry.path().filename().string()] = ReadBytes(entry.path());
      }
      return bytes;
    };
    const std::map<std::string, std::string> before = files();
    const auto opened = ObservationStore::Open(path);
    ASSERT_EQ(opened.status().code(), StatusCode::kFailedPrecondition)
        << layout << ": " << opened.status().ToString();
    const std::string message = opened.status().message();
    EXPECT_NE(message.find(path + ".snapshot"), std::string::npos) << message;
    EXPECT_NE(message.find("9d00237"), std::string::npos) << message;
    EXPECT_EQ(files(), before) << layout;
  }

  const std::string path = StorePath("retired_type");
  std::string wal(store::kWalMagic, sizeof(store::kWalMagic));
  wal += EncodeWalFrame({1, static_cast<WalRecordType>(6), ""});
  WriteBytes(path, wal);
  const auto opened = ObservationStore::Open(path);
  EXPECT_EQ(opened.status().code(), StatusCode::kInternal);
  EXPECT_NE(opened.status().message().find("unknown wal record type"),
            std::string::npos)
      << opened.status().ToString();
}

// A store whose manifest log names generation 0 of the data log,
// `<path>.sealed`: what a build of commit 9d00237 leaves after converting
// the sealed-log layout at its first checkpoint (tests/data/README.md).
// It opens bitwise equal to the WAL-only store of the same content, takes
// appends, a seal, a new session and a checkpoint like any other store,
// and reopens equal.
TEST_F(StoreTest, ManifestGenerationZeroFixtureOpensAndCheckpoints) {
  const std::string source =
      std::string(DBTUNE_TEST_DATA_DIR) + "/store_manifest_generation0/";
  const std::string path = StorePath("fixture_generation0");
  const std::string reference_path = StorePath("fixture_generation0_reference");
  for (const std::string suffix : {"", ".manifest", ".sealed"}) {
    WriteBytes(path + suffix, ReadBytes(source + "store.wal" + suffix));
  }
  WriteBytes(reference_path, ReadBytes(source + "reference.wal"));
  EXPECT_EQ(ReadManifest(path).generation, 0u);
  auto reference = ObservationStore::Open(reference_path);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  std::vector<std::string> ids;
  for (const StoredSessionInfo& info : (*reference)->ListSessions()) {
    ids.push_back(info.id);
  }
  EXPECT_EQ(ids, (std::vector<std::string>{"alpha", "beta", "gamma", "open",
                                           "trunc"}));
  EXPECT_EQ((*reference)->num_tasks(), 5u);

  DbmsSimulator sim(SmallTestCatalog(), WorkloadId::kSysbench,
                    HardwareInstance::kB, 1);
  TuningEnvironment env(&sim, {0, 1});
  {
    auto opened = ObservationStore::Open(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_TRUE((*opened)->stats().loaded_snapshot);
    ExpectStoresBitEqual(**reference, **opened);
    // The same calls on both stores.
    const Rng rng(27);
    for (ObservationStore* s : {reference->get(), opened->get()}) {
      Rng ops = rng;
      for (const std::string id : {"open", "trunc"}) {
        const size_t stored = s->FindSession(id)->observations.size();
        ASSERT_TRUE(s->AppendObservation(id, stored + 1, RandomObs(&ops, 2))
                        .ok());
      }
      ASSERT_TRUE(s->FinishSession("open", env.space(), "open").ok());
      ASSERT_TRUE(s->BeginSession("delta", 2).ok());
      ASSERT_TRUE(s->AppendObservation("delta", 1, RandomObs(&ops, 2)).ok());
    }
    ExpectStoresBitEqual(**reference, **opened);
    ASSERT_TRUE((*opened)->Checkpoint().ok());
    ExpectStoresBitEqual(**reference, **opened);
  }
  ExpectRecovered(path, **reference, "generation 0");
  // Every checkpoint appended to generation 0.
  EXPECT_EQ(ReadManifest(path).generation, 0u);
  EXPECT_GT(std::filesystem::file_size(path + ".sealed"),
            std::filesystem::file_size(source + "store.wal.sealed"));
}

// Two threads append to distinct sessions and truncate them now and then,
// while automatic checkpoints every third append compact the data log as
// the truncations leave dead bytes. Every append lands, and a reopened
// store is bit-exact.
TEST_F(StoreTest, TwoThreadsAppendingThroughCompactionsRecoverBitExact) {
  const std::string path = StorePath("two_thread_compaction");
  StoreOptions options;
  options.snapshot_every = 3;
  std::map<std::string, std::vector<Observation>> expected;
  size_t compactions = 0;
  {
    auto opened = ObservationStore::Open(path, options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    ObservationStore& s = **opened;
    for (const std::string id : {"a", "b"}) {
      ASSERT_TRUE(s.BeginSession(id, 2).ok());
      expected[id];
    }
    auto writer = [&s](const std::string& id, uint64_t seed,
                       std::vector<Observation>* out) {
      Rng rng(seed);
      std::vector<Observation>& written = *out;
      for (size_t round = 0; round < 10; ++round) {
        for (size_t i = 0; i < 12; ++i) {
          written.push_back(RandomObs(&rng, 2));
          EXPECT_TRUE(
              s.AppendObservation(id, written.size(), written.back()).ok());
        }
        written.resize(written.size() / 4);
        EXPECT_TRUE(s.TruncateSession(id, written.size()).ok());
      }
    };
    std::thread writer_a(writer, "a", 1, &expected["a"]);
    std::thread writer_b(writer, "b", 2, &expected["b"]);
    writer_a.join();
    writer_b.join();
    compactions = s.stats().compactions;
    EXPECT_EQ(s.stats().checkpoint_failures, 0u);
  }
  EXPECT_GT(compactions, 0u);
  auto reopened = ObservationStore::Open(path, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  for (const auto& [id, written] : expected) {
    const Result<StoredSession> session = (*reopened)->FindSession(id);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    ExpectObservationsBitEqual(session->observations, written);
  }
}

// FindSession and FinishSession read a session's checkpointed frames
// outside the store mutex. Four threads read back their own checkpointed
// sessions, then finish them, while a fifth appends to and truncates
// another session with automatic checkpoints every third append, which
// compact the data log under the readers as the truncations leave dead
// bytes. Every read is bit-exact, every task holds its session's rows,
// and the writer's session is bit-exact too.
TEST_F(StoreTest, SessionReadsRaceAppendsThroughCompactions) {
  DbmsSimulator sim(SmallTestCatalog(), WorkloadId::kSysbench,
                    HardwareInstance::kB, 1);
  TuningEnvironment env(&sim, {0, 1});
  const std::string path = StorePath("reads_race_compaction");
  StoreOptions options;
  options.snapshot_every = 3;
  auto opened = ObservationStore::Open(path, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ObservationStore& s = **opened;
  std::map<std::string, std::vector<Observation>> expected;
  Rng rng(3);
  for (const std::string id : {"r0", "r1", "r2", "r3"}) {
    ASSERT_TRUE(s.BeginSession(id, 2).ok());
    std::vector<Observation>& written = expected[id];
    for (size_t i = 0; i < 10; ++i) {
      written.push_back(RandomObs(&rng, 2));
      ASSERT_TRUE(s.AppendObservation(id, written.size(), written.back()).ok());
    }
  }
  ASSERT_TRUE(s.Checkpoint().ok());
  ASSERT_EQ(s.stats().observations_in_memory, 0u);
  ASSERT_TRUE(s.BeginSession("w", 2).ok());

  std::atomic<bool> writing{false};
  auto reader = [&](const std::string& id) {
    while (!writing.load()) std::this_thread::yield();
    for (size_t reads = 0; reads < 20; ++reads) {
      const Result<StoredSession> got = s.FindSession(id);
      ASSERT_TRUE(got.ok()) << id << ": " << got.status().ToString();
      ExpectObservationsBitEqual(got->observations, expected.at(id));
    }
    ASSERT_TRUE(s.FinishSession(id, env.space(), id).ok());
    const Result<StoredSession> sealed = s.FindSession(id);
    ASSERT_TRUE(sealed.ok()) << id << ": " << sealed.status().ToString();
    EXPECT_TRUE(sealed->finished);
    ExpectObservationsBitEqual(sealed->observations, expected.at(id));
  };
  std::vector<Observation> written;
  std::thread writer([&] {
    Rng ops(4);
    for (size_t round = 0; round < 10; ++round) {
      for (size_t i = 0; i < 12; ++i) {
        written.push_back(RandomObs(&ops, 2));
        EXPECT_TRUE(
            s.AppendObservation("w", written.size(), written.back()).ok());
        writing.store(true);
      }
      written.resize(written.size() / 4);
      EXPECT_TRUE(s.TruncateSession("w", written.size()).ok());
    }
  });
  std::vector<std::thread> readers;
  for (const auto& entry : expected) readers.emplace_back(reader, entry.first);
  writer.join();
  for (std::thread& thread : readers) thread.join();
  EXPECT_GT(s.stats().compactions, 0u);
  EXPECT_EQ(s.stats().checkpoint_failures, 0u);
  const Result<StoredSession> w = s.FindSession("w");
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  ExpectObservationsBitEqual(w->observations, written);
  const std::vector<SourceTask> tasks = TasksOf(s);
  ASSERT_EQ(tasks.size(), expected.size());
  for (const SourceTask& task : tasks) {
    EXPECT_EQ(task.unit_x.size(), expected.at(task.name).size()) << task.name;
  }
}

// The store holds only the frames logged since the last checkpoint: its
// count of observations in memory falls to zero at a checkpoint and then
// counts the appends after it, and a reopened store holds only its WAL
// tail. Every history still reads back bit-exact.
TEST_F(StoreTest, CheckpointLeavesOnlyUnflushedObservationsInMemory) {
  const std::string path = StorePath("in_memory");
  StoreOptions options;
  options.snapshot_every = 0;
  std::map<std::string, std::vector<Observation>> expected;
  Rng rng(8);
  auto append = [&](ObservationStore* s, const std::string& id, size_t n) {
    std::vector<Observation>& written = expected[id];
    for (size_t i = 0; i < n; ++i) {
      written.push_back(RandomObs(&rng, 3));
      ASSERT_TRUE(s->AppendObservation(id, written.size(), written.back())
                      .ok());
    }
  };
  auto expect_histories = [&](const ObservationStore& s) {
    for (const auto& [id, written] : expected) {
      const Result<StoredSession> got = s.FindSession(id);
      ASSERT_TRUE(got.ok()) << id << ": " << got.status().ToString();
      ExpectObservationsBitEqual(got->observations, written);
    }
  };
  {
    auto opened = ObservationStore::Open(path, options);
    ASSERT_TRUE(opened.ok());
    ObservationStore& s = **opened;
    for (const std::string id : {"s0", "s1", "s2"}) {
      ASSERT_TRUE(s.BeginSession(id, 3).ok());
      append(&s, id, 5);
    }
    EXPECT_EQ(s.stats().observations_in_memory, 15u);
    ASSERT_TRUE(s.Checkpoint().ok());
    EXPECT_EQ(s.stats().observations_in_memory, 0u);
    append(&s, "s1", 2);
    EXPECT_EQ(s.stats().observations_in_memory, 2u);
    expect_histories(s);
  }
  auto reopened = ObservationStore::Open(path, options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->stats().observations_in_memory, 2u);
  expect_histories(**reopened);
  ASSERT_TRUE((*reopened)->Checkpoint().ok());
  EXPECT_EQ((*reopened)->stats().observations_in_memory, 0u);
  expect_histories(**reopened);
}

// Replay checks a WAL record's body by stepping over its fields. A record
// whose CRC holds but whose body is one byte short of its fields is
// damage: Open answers Internal for every record type, while the same log
// with the whole body opens.
TEST_F(StoreTest, MalformedWalBodyBehindAValidCrcFailsOpen) {
  const std::string path = StorePath("malformed_body");
  auto write_wal = [&path](WalRecordType type, const std::string& body) {
    std::string wal(store::kWalMagic, sizeof(store::kWalMagic));
    wal += EncodeWalFrame(
        WalRecord{1, WalRecordType::kBeginSession, BeginBody("s", 2)});
    wal += EncodeWalFrame(WalRecord{2, type, body});
    WriteBytes(path, wal);
  };
  SourceTask task;
  task.name = "t";
  task.unit_x = {{0.25, 0.5}, {0.75, 1.0}};
  task.scores = {1.0, 2.0};
  task.metric_signature = {3.0};
  const std::vector<std::pair<WalRecordType, std::string>> records = {
      {WalRecordType::kBeginSession, BeginBody("s", 2)},
      {WalRecordType::kObservation,
       ObservationBody("s", 1, MakeObs({0.25, 0.5}, 1.0, 2.0, {3.0}))},
      {WalRecordType::kEndSession, EndBody("s")},
      {WalRecordType::kTask, TaskBody(task)},
      {WalRecordType::kTruncateSession, TruncateBody("s", 0)},
  };
  for (const auto& [type, body] : records) {
    const int tag = static_cast<int>(type);
    write_wal(type, body);
    EXPECT_TRUE(ObservationStore::Open(path).ok()) << "type " << tag;
    ASSERT_TRUE(ObservationStore::Destroy(path).ok());
    write_wal(type, body.substr(0, body.size() - 1));
    EXPECT_EQ(ObservationStore::Open(path).status().code(),
              StatusCode::kInternal)
        << "type " << tag;
    ASSERT_TRUE(ObservationStore::Destroy(path).ok());
  }
}

// Every writer lists a manifest edit's seals in id order, and Open merges
// them into its id-sorted index in that order. A full edit listing them
// in reverse (which no writer does) still reads back the same store.
TEST_F(StoreTest, SealsOutOfIdOrderReadBackTheSame) {
  const std::string path = StorePath("seals_out_of_order");
  const std::string reference_path = StorePath("seals_out_of_order_reference");
  BuildSealedStore(path, reference_path);
  {
    auto opened = ObservationStore::Open(path);
    ASSERT_TRUE(opened.ok());
    ASSERT_TRUE((*opened)->Checkpoint().ok());
  }
  const TestManifest m = ReadManifest(path);
  ASSERT_EQ(m.sealed.size(), 3u);
  ASSERT_EQ(m.open.count("open"), 1u);
  ASSERT_EQ(m.open.at("open").size(), 1u);
  store::WalEncoder enc;
  enc.PutU8(1);  // full
  enc.PutVarint(m.generation);
  enc.PutVarint(m.data_log_bytes);
  enc.PutVarint(0);  // restarts
  enc.PutVarint(0);  // cuts
  enc.PutVarint(1);  // one run of extents
  enc.PutString("open");
  enc.PutVarint(1);
  enc.PutVarint(m.open.at("open")[0].offset);
  enc.PutVarint(m.open.at("open")[0].length);
  enc.PutVarint(2);  // BuildSealedStore's run("open", 2)
  enc.PutVarint(m.sealed.size());
  for (auto it = m.sealed.rbegin(); it != m.sealed.rend(); ++it) {
    enc.PutString(it->first);
    for (const uint64_t field : it->second.fields) enc.PutVarint(field);
  }
  enc.PutVarint(m.tasks.size());
  for (const TestEntry& entry : m.tasks) {
    enc.PutString(entry.id);
    for (const uint64_t field : entry.fields) enc.PutVarint(field);
  }
  std::string image(store::kManifestMagic, sizeof(store::kManifestMagic));
  image += EncodeWalFrame(
      WalRecord{m.covered_lsn, WalRecordType::kManifestEdit, enc.bytes()});
  WriteBytes(path + ".manifest", image);
  auto reference = ObservationStore::Open(reference_path);
  ASSERT_TRUE(reference.ok());
  auto opened = ObservationStore::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ((*opened)->stats().sealed_sessions, 3u);
  ExpectStoresBitEqual(**reference, **opened);
}

// ---------------------------------------------------------------------------
// Crash-recovery replay: killed session == uninterrupted session
// ---------------------------------------------------------------------------

SessionResult RunStoredSession(const std::string& store_path, size_t iters,
                               uint64_t optimizer_seed) {
  DbmsSimulator sim(SmallTestCatalog(), WorkloadId::kSysbench,
                    HardwareInstance::kB, 21);
  SessionControls controls;
  controls.store_path = store_path;  // "" → no store
  controls.session_label = "kill-test";
  return RunTuningSession(&sim, FirstKnobs(sim.space().dimension()),
                          OptimizerType::kSmac, iters, optimizer_seed,
                          controls);
}

void ExpectSessionResultsBitEqual(const SessionResult& a,
                                  const SessionResult& b) {
  ASSERT_EQ(a.improvement_trace.size(), b.improvement_trace.size());
  for (size_t i = 0; i < a.improvement_trace.size(); ++i) {
    EXPECT_TRUE(BitEqual(a.improvement_trace[i], b.improvement_trace[i]))
        << "improvement at iteration " << i;
    EXPECT_TRUE(BitEqual(a.objective_trace[i], b.objective_trace[i]))
        << "objective at iteration " << i;
  }
  EXPECT_TRUE(BitEqual(a.final_objective, b.final_objective));
  EXPECT_TRUE(BitEqual(a.final_improvement, b.final_improvement));
  EXPECT_EQ(a.best_iteration, b.best_iteration);
  EXPECT_TRUE(BitEqual(a.simulated_evaluation_seconds,
                       b.simulated_evaluation_seconds));
}

TEST_F(StoreTest, KilledSessionReplaysToIdenticalTrajectory) {
  constexpr size_t kIterations = 12;
  obs::EnableFakeClockForTest();
  for (const size_t pool : {size_t{1}, size_t{2}, size_t{8}}) {
    PoolSizeGuard guard(pool);
    const SessionResult uninterrupted = RunStoredSession("", kIterations, 7);
    for (const size_t kill_at : {size_t{1}, size_t{6}, size_t{11}}) {
      const std::string path = StorePath(
          "kill_p" + std::to_string(pool) + "_k" + std::to_string(kill_at));
      // First run "dies" after kill_at iterations...
      const SessionResult partial = RunStoredSession(path, kill_at, 7);
      EXPECT_EQ(partial.replayed_iterations, 0u);
      // ...and the restart replays the prefix, then continues live.
      const SessionResult resumed = RunStoredSession(path, kIterations, 7);
      EXPECT_EQ(resumed.replayed_iterations, kill_at)
          << "pool " << pool << " kill " << kill_at;
      ExpectSessionResultsBitEqual(resumed, uninterrupted);
    }
  }
}

TEST_F(StoreTest, KilledSessionWithTornTailStillReplays) {
  constexpr size_t kIterations = 10;
  constexpr size_t kKillAt = 5;
  obs::EnableFakeClockForTest();
  PoolSizeGuard guard(1);
  const std::string path = StorePath("kill_torn");
  const SessionResult uninterrupted = RunStoredSession("", kIterations, 9);
  const SessionResult partial = RunStoredSession(path, kKillAt, 9);
  ASSERT_EQ(partial.improvement_trace.size(), kKillAt);
  // The crash also tore the final record mid-write.
  WriteBytes(path, ReadBytes(path) + std::string(6, '\x5A'));

  const SessionResult resumed = RunStoredSession(path, kIterations, 9);
  EXPECT_EQ(resumed.replayed_iterations, kKillAt);
  ExpectSessionResultsBitEqual(resumed, uninterrupted);
}

TEST_F(StoreTest, ReplayDivergenceTruncatesAndContinuesLive) {
  constexpr size_t kIterations = 8;
  obs::EnableFakeClockForTest();
  PoolSizeGuard guard(1);
  const std::string path = StorePath("diverge");
  // Record a trajectory under one optimizer seed, then resume under a
  // different seed: the recorded configurations no longer match what the
  // optimizer re-suggests, so the store must truncate the stale suffix
  // and the session must match a fresh run of the new seed exactly.
  const SessionResult recorded = RunStoredSession(path, 5, 11);
  ASSERT_EQ(recorded.improvement_trace.size(), 5u);
  const SessionResult fresh = RunStoredSession("", kIterations, 13);
  const SessionResult resumed = RunStoredSession(path, kIterations, 13);
  EXPECT_LT(resumed.replayed_iterations, 5u);
  ExpectSessionResultsBitEqual(resumed, fresh);

  // The store now holds the new trajectory, iteration-complete.
  auto reopened = ObservationStore::Open(path);
  ASSERT_TRUE(reopened.ok());
  const Result<StoredSession> session = (*reopened)->FindSession("kill-test");
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(session->observations.size(), kIterations);
}

TEST_F(StoreTest, AdvisorPersistsBaseTaskAcrossRuns) {
  const std::string path = StorePath("advisor");
  DbmsSimulator sim(WorkloadId::kSysbench, HardwareInstance::kB, 31);
  AdvisorOptions options;
  options.importance_samples = 120;
  options.tuning_knobs = 5;
  options.tuning_iterations = 6;
  options.seed = 32;
  options.session.store_path = path;
  options.session.session_label = "advisor-run-1";
  const Result<AdvisorReport> first = TuneDbms(&sim, options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  {
    auto opened = ObservationStore::Open(path);
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ((*opened)->num_tasks(), 1u);
    const Result<StoredSession> session =
        (*opened)->FindSession("advisor-run-1");
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    EXPECT_TRUE(session->finished);
    EXPECT_EQ(session->observations.size(), 6u);
  }
  // A second run finds the persisted base task (transfer pool) and adds
  // its own on completion.
  DbmsSimulator sim2(WorkloadId::kSysbench, HardwareInstance::kB, 33);
  options.seed = 34;
  options.session.session_label = "advisor-run-2";
  const Result<AdvisorReport> second = TuneDbms(&sim2, options);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  auto opened = ObservationStore::Open(path);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ((*opened)->num_tasks(), 2u);
}

}  // namespace
}  // namespace dbtune
