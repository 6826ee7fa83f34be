// Tests for the ccfs columnar flow-record store (src/store/).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "mlab/synthetic.hpp"
#include "store/convert.hpp"
#include "store/flow_store.hpp"
#include "util/error.hpp"
#include "util/faultfs.hpp"
#include "util/rng.hpp"

namespace ccc::store {
namespace {

namespace fs = std::filesystem;

/// A unique scratch path, removed (with shard siblings) on destruction.
class TempPath {
 public:
  explicit TempPath(const std::string& stem) {
    static int counter = 0;
    path_ = (fs::temp_directory_path() /
             (stem + "." + std::to_string(::getpid()) + "." + std::to_string(counter++)))
                .string();
  }
  ~TempPath() {
    std::error_code ec;
    for (const auto& e : fs::directory_iterator(fs::path(path_).parent_path(), ec)) {
      const auto name = e.path().filename().string();
      if (name.rfind(fs::path(path_).filename().string(), 0) == 0) fs::remove(e.path(), ec);
    }
  }
  [[nodiscard]] const std::string& str() const { return path_; }

 private:
  std::string path_;
};

std::vector<mlab::NdtRecord> make_dataset(std::size_t n, std::uint64_t seed = 42) {
  mlab::SyntheticConfig cfg;
  cfg.n_flows = n;
  Rng rng{seed};
  return mlab::generate_dataset(cfg, rng);
}

// Reference CRC-32 (IEEE, reflected 0xEDB88320), one byte at a time and
// bitwise, with no tables: the oracle the sliced kernel in Crc32::update
// must match bit for bit.
std::uint32_t reference_crc32(const std::uint8_t* p, std::size_t len) {
  std::uint32_t c = 0xFFFF'FFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB8'8320u ^ (c >> 1) : c >> 1;
  }
  return ~c;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<std::uint8_t> buf(n);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.engine()());
  return buf;
}

TEST(Crc32, KnownAnswers) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32(check.data(), check.size()), 0xCBF4'3926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
  EXPECT_EQ(Crc32{}.value(), 0u);
}

TEST(Crc32, MatchesReferenceAtEveryLengthAndAlignment) {
  // Every start offset 0..7 and length 0..64 covers each unaligned head and
  // each tail length the 8-byte main loop can leave.
  const auto buf = random_bytes(64 + 8, 1);
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 64; ++len) {
      ASSERT_EQ(crc32(buf.data() + off, len), reference_crc32(buf.data() + off, len))
          << "offset " << off << " length " << len;
    }
  }
}

TEST(Crc32, MatchesReferenceOnALargeBuffer) {
  const auto buf = random_bytes((4u << 20) + 3, 2);
  EXPECT_EQ(crc32(buf.data(), buf.size()), reference_crc32(buf.data(), buf.size()));
}

TEST(Crc32, IncrementalUpdateEqualsOneShot) {
  const auto buf = random_bytes(97, 3);
  const std::uint32_t whole = reference_crc32(buf.data(), buf.size());
  for (std::size_t split = 0; split <= buf.size(); ++split) {
    Crc32 c;
    c.update(buf.data(), split);
    c.update(buf.data() + split, buf.size() - split);
    ASSERT_EQ(c.value(), whole) << "split at " << split;
  }
}

TEST(FlowStore, RoundTripIsBitExact) {
  const auto dataset = make_dataset(300);
  TempPath p{"store_roundtrip.ccfs"};
  write_store(p.str(), dataset);

  FlowStoreReader reader{p.str()};
  ASSERT_EQ(reader.size(), dataset.size());
  std::uint64_t samples = 0;
  for (const auto& r : dataset) samples += r.throughput_mbps.size();
  EXPECT_EQ(reader.samples(), samples);

  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const auto v = reader.at(i);
    EXPECT_EQ(v.id, dataset[i].id);
    EXPECT_EQ(v.access, dataset[i].access);
    EXPECT_EQ(v.truth, dataset[i].truth);
    // Doubles must round-trip bit-exactly — the store copies, never formats.
    EXPECT_EQ(v.duration_sec, dataset[i].duration_sec);
    EXPECT_EQ(v.app_limited_sec, dataset[i].app_limited_sec);
    EXPECT_EQ(v.rwnd_limited_sec, dataset[i].rwnd_limited_sec);
    EXPECT_EQ(v.mean_throughput_mbps, dataset[i].mean_throughput_mbps);
    EXPECT_EQ(v.min_rtt_ms, dataset[i].min_rtt_ms);
    EXPECT_EQ(v.snapshot_interval_sec, dataset[i].snapshot_interval_sec);
    ASSERT_EQ(v.throughput_mbps.size(), dataset[i].throughput_mbps.size());
    for (std::size_t k = 0; k < v.throughput_mbps.size(); ++k) {
      ASSERT_EQ(v.throughput_mbps[k], dataset[i].throughput_mbps[k]);
    }
  }
}

TEST(FlowStore, EmptyStoreRoundTrips) {
  TempPath p{"store_empty.ccfs"};
  write_store(p.str(), {});
  FlowStoreReader reader{p.str()};
  EXPECT_EQ(reader.size(), 0u);
  EXPECT_EQ(reader.samples(), 0u);
}

TEST(FlowStore, ZeroLengthSeriesFlowIsPreserved) {
  mlab::NdtRecord rec;
  rec.id = 77;
  rec.throughput_mbps.clear();
  TempPath p{"store_zerolen.ccfs"};
  write_store(p.str(), std::vector<mlab::NdtRecord>{rec});
  FlowStoreReader reader{p.str()};
  ASSERT_EQ(reader.size(), 1u);
  EXPECT_EQ(reader.at(0).id, 77u);
  EXPECT_TRUE(reader.at(0).throughput_mbps.empty());
}

TEST(FlowStore, CorruptionIsDetectedByCrc) {
  const auto dataset = make_dataset(50);
  TempPath p{"store_corrupt.ccfs"};
  write_store(p.str(), dataset);

  // Flip one byte in the middle of the file (series pool or columns).
  {
    std::fstream f{p.str(), std::ios::in | std::ios::out | std::ios::binary};
    f.seekp(static_cast<std::streamoff>(fs::file_size(p.str()) / 2));
    char b = 0;
    f.read(&b, 1);
    f.seekp(-1, std::ios::cur);
    b = static_cast<char>(b ^ 0x40);
    f.write(&b, 1);
  }
  // The throw is a typed ccc::Error naming what happened and where
  // (category kCorruption: the file was valid and is now provably damaged).
  try {
    FlowStoreReader r{p.str()};
    FAIL() << "reader accepted a corrupt file";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kCorruption);
    EXPECT_EQ(e.path(), p.str());
  }
  // Opting out of verification must still parse the structure.
  EXPECT_NO_THROW((FlowStoreReader{p.str(), /*verify_crc=*/false}));
}

/// The windowed-pread mode (readahead_flows != 0) must be indistinguishable
/// from the mmap mode through the public API: identical scalars, identical
/// series bytes — including across window slides and backward excursions,
/// the access patterns where a rebasing bug would show.
TEST(FlowStore, WindowedPreadModeMatchesMmap) {
  const auto dataset = make_dataset(300);
  TempPath p{"store_windowed.ccfs"};
  write_store(p.str(), dataset);

  FlowStoreReader mapped{p.str()};
  ReaderOptions wopts;
  wopts.sequential = true;
  wopts.readahead_flows = 7;  // deliberately tiny and odd: many slides
  FlowStoreReader windowed{p.str(), wopts};

  ASSERT_EQ(windowed.size(), mapped.size());
  ASSERT_EQ(windowed.samples(), mapped.samples());
  auto expect_same = [&](std::size_t i) {
    const auto a = mapped.at(i);
    const auto b = windowed.at(i);
    EXPECT_EQ(b.id, a.id);
    EXPECT_EQ(b.access, a.access);
    EXPECT_EQ(b.truth, a.truth);
    EXPECT_EQ(b.duration_sec, a.duration_sec);
    EXPECT_EQ(b.app_limited_sec, a.app_limited_sec);
    EXPECT_EQ(b.rwnd_limited_sec, a.rwnd_limited_sec);
    EXPECT_EQ(b.mean_throughput_mbps, a.mean_throughput_mbps);
    EXPECT_EQ(b.min_rtt_ms, a.min_rtt_ms);
    EXPECT_EQ(b.snapshot_interval_sec, a.snapshot_interval_sec);
    ASSERT_EQ(b.throughput_mbps.size(), a.throughput_mbps.size());
    for (std::size_t k = 0; k < a.throughput_mbps.size(); ++k) {
      ASSERT_EQ(b.throughput_mbps[k], a.throughput_mbps[k]) << "flow " << i << " sample " << k;
    }
  };
  for (std::size_t i = 0; i < mapped.size(); ++i) expect_same(i);
  // Backward and far-jump excursions re-fetch the window; still exact.
  expect_same(250);
  expect_same(3);
  expect_same(299);
  expect_same(0);
}

/// verify_crc in windowed mode streams the CRC through a bounded buffer —
/// it must still catch a flipped byte, and opting out must still open.
TEST(FlowStore, WindowedModeVerifiesCrc) {
  const auto dataset = make_dataset(50);
  TempPath p{"store_windowed_crc.ccfs"};
  write_store(p.str(), dataset);
  {
    std::fstream f{p.str(), std::ios::in | std::ios::out | std::ios::binary};
    f.seekp(static_cast<std::streamoff>(fs::file_size(p.str()) / 2));
    char b = 0;
    f.read(&b, 1);
    f.seekp(-1, std::ios::cur);
    b = static_cast<char>(b ^ 0x40);
    f.write(&b, 1);
  }
  ReaderOptions wopts;
  wopts.readahead_flows = 16;
  try {
    FlowStoreReader r{p.str(), wopts};
    FAIL() << "windowed reader accepted a corrupt file";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kCorruption);
    EXPECT_EQ(e.path(), p.str());
  }
  wopts.verify_crc = false;
  EXPECT_NO_THROW((FlowStoreReader{p.str(), wopts}));
}

/// Structural rejection (truncation, garbage) is mode-independent: the
/// windowed open runs the same footer/directory checks via pread.
TEST(FlowStore, WindowedModeRejectsTruncationAndGarbage) {
  const auto dataset = make_dataset(50);
  TempPath p{"store_windowed_trunc.ccfs"};
  write_store(p.str(), dataset);
  fs::resize_file(p.str(), fs::file_size(p.str()) - 16);
  ReaderOptions wopts;
  wopts.readahead_flows = 16;
  try {
    FlowStoreReader r{p.str(), wopts};
    FAIL() << "windowed reader accepted a truncated file";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kCorruption);
  }

  TempPath g{"store_windowed_garbage.ccfs"};
  std::ofstream{g.str(), std::ios::binary} << std::string(4096, 'x');
  try {
    FlowStoreReader r{g.str(), wopts};
    FAIL() << "windowed reader accepted garbage";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kFormat);
    EXPECT_EQ(e.byte_offset(), 0u);
  }
}

TEST(FlowStore, TruncatedFileIsRejected) {
  const auto dataset = make_dataset(50);
  TempPath p{"store_trunc.ccfs"};
  write_store(p.str(), dataset);
  fs::resize_file(p.str(), fs::file_size(p.str()) - 16);
  try {
    FlowStoreReader r{p.str()};
    FAIL() << "reader accepted a truncated file";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kCorruption);
  }
}

TEST(FlowStore, GarbageFileIsRejected) {
  TempPath p{"store_garbage.ccfs"};
  std::ofstream{p.str(), std::ios::binary} << std::string(4096, 'x');
  // Not-a-ccfs-document is a format error (bad magic, byte offset 0), not
  // corruption — nothing suggests it was ever valid.
  try {
    FlowStoreReader r{p.str()};
    FAIL() << "reader accepted garbage";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kFormat);
    EXPECT_EQ(e.byte_offset(), 0u);
  }
}

TEST(FlowStore, AppendAfterFinishThrows) {
  TempPath p{"store_finished.ccfs"};
  FlowStoreWriter w{p.str()};
  w.append(mlab::NdtRecord{});
  w.finish();
  EXPECT_THROW(w.append(mlab::NdtRecord{}), std::runtime_error);
}

// ------------------------------------------------- write buffer and bytes

/// About 1 MB of flows whose series sizes hit every edge of the writer's
/// 64 KiB buffer: empty, one sample, a run that fills the buffer exactly
/// (pool bytes 0..64 KiB), an empty flow right after it, one series larger
/// than the buffer, then a thousand ordinary flows. Every value is a
/// function of the index (no Rng, no synthetic generator), so the file's
/// bytes depend on the writer alone.
std::vector<mlab::NdtRecord> buffer_edge_dataset() {
  constexpr std::size_t kBufferSamples = 64 * 1024 / sizeof(double);
  std::vector<std::size_t> lengths{0, 1, kBufferSamples - 1, 0, kBufferSamples + 1000};
  for (std::size_t i = 0; i < 1000; ++i) lengths.push_back(1 + (i * 37) % 200);
  std::vector<mlab::NdtRecord> out;
  out.reserve(lengths.size());
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    mlab::NdtRecord r;
    r.id = 1'000'000 + 3 * i;
    r.access = static_cast<mlab::AccessType>(i % 5);
    r.truth = static_cast<mlab::FlowArchetype>(i % 7);
    r.duration_sec = 0.5 + 0.25 * static_cast<double>(i % 40);
    r.app_limited_sec = r.duration_sec * static_cast<double>(i % 4) / 8;
    r.rwnd_limited_sec = r.duration_sec * static_cast<double>(i % 3) / 16;
    r.mean_throughput_mbps = 1.0 + 0.125 * static_cast<double>(i);
    r.min_rtt_ms = 5.0 + static_cast<double>(i % 90);
    r.snapshot_interval_sec = (i % 2 == 0) ? 0.1 : 0.05;
    r.throughput_mbps.resize(lengths[i]);
    for (std::size_t k = 0; k < lengths[i]; ++k) {
      r.throughput_mbps[k] = static_cast<double>(i) + 0.001 * static_cast<double>(k);
    }
    out.push_back(std::move(r));
  }
  return out;
}

std::uint64_t fnv1a_file(const std::string& path) {
  std::ifstream f{path, std::ios::binary};
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::istreambuf_iterator<char> it{f}, end; it != end; ++it) {
    h = (h ^ static_cast<std::uint8_t>(*it)) * 0x100000001b3ULL;
  }
  return h;
}

TEST(Store, WriterBatchesItsWrites) {
  const auto dataset = buffer_edge_dataset();
  TempPath p{"store_batched.ccfs"};
  write_store(p.str(), dataset);
  const std::uint64_t bytes = fs::file_size(p.str());
  ASSERT_GT(bytes, 900'000u);

  // The header, the footer and the header patch are one write each and the
  // oversized series goes out on its own; everything else leaves in
  // flushes of nearly 64 KiB. A writer that issues more writes than this
  // (one a flow, say) trips the fault and throws.
  const std::uint64_t max_writes = bytes / (64 * 1024) + 5;
  faultfs::set_plan({faultfs::FaultKind::kFailWrite, max_writes, fs::path(p.str()).filename().string()});
  EXPECT_NO_THROW(write_store(p.str(), dataset));
  const std::uint64_t injected = faultfs::faults_injected();
  faultfs::clear_plan();
  EXPECT_EQ(injected, 0u) << "the writer issued more than " << max_writes << " writes";

  FlowStoreReader reader{p.str()};  // verifies the CRC at open
  ASSERT_EQ(reader.size(), dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const auto v = reader.at(i);
    EXPECT_EQ(v.id, dataset[i].id);
    ASSERT_EQ(v.throughput_mbps.size(), dataset[i].throughput_mbps.size()) << "flow " << i;
    EXPECT_TRUE(std::equal(v.throughput_mbps.begin(), v.throughput_mbps.end(),
                           dataset[i].throughput_mbps.begin()))
        << "flow " << i;
  }
}

TEST(Store, FileBytesArePinned) {
  // FNV-1a over the whole file, taken from the unbuffered writer that wrote
  // one series a syscall: buffering changes when bytes reach the disk, never
  // which bytes.
  TempPath p{"store_pinned.ccfs"};
  write_store(p.str(), buffer_edge_dataset());
  const std::uint64_t h = fnv1a_file(p.str());
  EXPECT_EQ(h, 0x48281e83f6649315ULL) << std::hex << h;
}

TEST(ShardedWriter, RollsOverAndConcatenatesInOrder) {
  const auto dataset = make_dataset(1000);
  TempPath p{"store_shards.ccfs"};
  ShardedFlowStoreWriter w{p.str(), /*flows_per_shard=*/300};
  for (const auto& r : dataset) w.append(r);
  const auto paths = w.finish();
  ASSERT_EQ(paths.size(), 4u);  // 300 + 300 + 300 + 100

  std::vector<FlowStoreReader> readers;
  readers.reserve(paths.size());
  std::size_t total = 0;
  for (const auto& path : paths) {
    readers.emplace_back(path);
    total += readers.back().size();
  }
  EXPECT_EQ(total, dataset.size());
  EXPECT_EQ(readers[0].size(), 300u);
  EXPECT_EQ(readers[3].size(), 100u);
  // Concatenated order is append order.
  EXPECT_EQ(readers[1].at(0).id, dataset[300].id);
  EXPECT_EQ(readers[3].at(99).id, dataset[999].id);
}

TEST(Convert, CsvToCcfsToCsvRoundTrips) {
  const auto dataset = make_dataset(120);
  std::stringstream csv_in;
  mlab::write_csv(csv_in, dataset);
  const std::string original_csv = csv_in.str();

  TempPath p{"store_csv.ccfs"};
  const auto stats = csv_file_to_ccfs(csv_in, p.str());
  EXPECT_EQ(stats.rows_parsed, dataset.size());
  EXPECT_EQ(stats.rows_skipped, 0u);

  FlowStoreReader reader{p.str()};
  ASSERT_EQ(reader.size(), dataset.size());
  std::stringstream csv_out;
  ccfs_to_csv(reader, csv_out);
  // CSV -> ccfs -> CSV is textually stable (ccfs stores the parsed doubles
  // and the serializer formats them identically).
  EXPECT_EQ(csv_out.str(), original_csv);
}

TEST(Convert, MalformedCsvRowsAreSkippedDuringIngest) {
  std::stringstream csv;
  mlab::write_csv(csv, make_dataset(5));
  csv << "this,is,not,a,flow\n";
  csv.seekg(0);
  TempPath p{"store_badrows.ccfs"};
  const auto stats = csv_file_to_ccfs(csv, p.str());
  EXPECT_EQ(stats.rows_parsed, 5u);
  EXPECT_EQ(stats.rows_skipped, 1u);
  FlowStoreReader reader{p.str()};
  EXPECT_EQ(reader.size(), 5u);
}

}  // namespace
}  // namespace ccc::store
