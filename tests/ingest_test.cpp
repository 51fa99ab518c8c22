// Tests for the out-of-core ingest path: the `.pbin` format (round trips,
// corruption rejection), the chunked streaming reader (mmap vs buffered
// equivalence, chunk-size invariance, error messages with file + 1-based
// line), the engine::ingest_file pipeline (streamed estimates bit-identical
// to one-shot on pim and cpu-fast, filters, degree histograms) and the
// serving layer's SessionManager::ingest_file bulk load.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/ingest.hpp"
#include "engine/registry.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/io_error.hpp"
#include "graph/pbin.hpp"
#include "graph/stream_reader.hpp"
#include "serve/session_manager.hpp"

namespace pimtc {
namespace {

namespace fs = std::filesystem;

class IngestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / "pimtc_ingest_test";
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string slurp(const fs::path& path) const {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  /// Expects `fn` to throw a runtime_error whose message contains every
  /// needle (the file name, the 1-based line, the reason).
  template <typename Fn>
  void expect_error_containing(Fn&& fn, std::vector<std::string> needles) {
    try {
      fn();
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      for (const std::string& needle : needles) {
        EXPECT_NE(msg.find(needle), std::string::npos)
            << "message '" << msg << "' lacks '" << needle << "'";
      }
    }
  }

  /// A deterministic graph with duplicates and self loops kept (generators
  /// emit simple graphs; ingest filter tests need the dirt).
  [[nodiscard]] static graph::EdgeList dirty_graph() {
    graph::EdgeList g = graph::gen::barabasi_albert(200, 3, 7);
    g.push_back({5, 5});              // self loop
    g.push_back(g[0]);                // exact duplicate
    g.push_back({g[1].v, g[1].u});    // reversed duplicate
    g.push_back({7, 7});
    return g;
  }

  /// Drains a reader into one edge vector.
  [[nodiscard]] static std::vector<Edge> drain(graph::ChunkedEdgeReader& r) {
    std::vector<Edge> out;
    for (std::span<const Edge> c = r.next(); !c.empty(); c = r.next()) {
      out.insert(out.end(), c.begin(), c.end());
    }
    return out;
  }

  fs::path dir_;
};

// ---- .pbin format -----------------------------------------------------------

TEST_F(IngestTest, PbinRoundTripPreservesOrderAndCounts) {
  const graph::EdgeList g = dirty_graph();
  const auto path = dir_ / "g.pbin";
  graph::write_bin(g, path);

  const graph::PbinInfo info = graph::read_bin_header(path);
  EXPECT_EQ(info.version, graph::kPbinVersion);
  EXPECT_TRUE(info.has_checksum());
  EXPECT_EQ(info.num_edges, g.num_edges());
  EXPECT_EQ(info.num_nodes, g.num_nodes());

  const graph::EdgeList back = graph::read_bin(path);
  ASSERT_EQ(back.num_edges(), g.num_edges());
  EXPECT_EQ(back.num_nodes(), g.num_nodes());
  for (std::size_t i = 0; i < g.num_edges(); ++i) EXPECT_EQ(back[i], g[i]);
}

TEST_F(IngestTest, TextToPbinToTextIsByteStable) {
  // write_coo_text emits the canonical header; converting through .pbin
  // carries exact counts, so the text that comes back is byte-identical.
  const graph::EdgeList g = graph::gen::barabasi_albert(150, 3, 11);
  const auto txt = dir_ / "g.txt";
  const auto pbin = dir_ / "g.pbin";
  const auto back = dir_ / "back.txt";
  graph::write_coo_text(g, txt);

  {
    graph::ChunkedEdgeReader reader(txt, {.chunk_edges = 64});
    graph::PbinWriter writer(pbin);
    for (std::span<const Edge> c = reader.next(); !c.empty();
         c = reader.next()) {
      writer.append(c);
    }
    writer.finish();
  }
  {
    graph::ChunkedEdgeReader reader(pbin, {.chunk_edges = 64});
    graph::WriterOptions wopt;
    wopt.declared_edges = reader.declared_edges();
    wopt.declared_nodes = reader.declared_nodes();
    auto writer = graph::make_edge_writer(back, wopt);
    for (std::span<const Edge> c = reader.next(); !c.empty();
         c = reader.next()) {
      writer->append(c);
    }
    writer->finish();
  }
  EXPECT_EQ(slurp(txt), slurp(back));
}

TEST_F(IngestTest, PbinRejectsCorruptedMagic) {
  graph::write_bin(graph::gen::wheel(8), dir_ / "g.pbin");
  std::string bytes = slurp(dir_ / "g.pbin");
  bytes[0] = 'X';
  std::ofstream(dir_ / "bad.pbin", std::ios::binary) << bytes;
  expect_error_containing([&] { (void)graph::read_bin(dir_ / "bad.pbin"); },
                          {"bad.pbin", "magic"});
}

TEST_F(IngestTest, PbinRejectsTruncatedPayload) {
  graph::write_bin(graph::gen::wheel(8), dir_ / "g.pbin");
  std::string bytes = slurp(dir_ / "g.pbin");
  bytes.resize(bytes.size() - 5);
  std::ofstream(dir_ / "cut.pbin", std::ios::binary) << bytes;
  expect_error_containing([&] { (void)graph::read_bin(dir_ / "cut.pbin"); },
                          {"cut.pbin", "truncated"});
}

TEST_F(IngestTest, PbinRejectsChecksumMismatchOnBothPaths) {
  graph::write_bin(graph::gen::wheel(8), dir_ / "g.pbin");
  std::string bytes = slurp(dir_ / "g.pbin");
  // Flip a low payload bit: the edge stays within the header's node bound,
  // so only the checksum can catch the corruption.
  bytes[graph::kPbinHeaderBytes] ^= 0x01;
  std::ofstream(dir_ / "flip.pbin", std::ios::binary) << bytes;

  expect_error_containing([&] { (void)graph::read_bin(dir_ / "flip.pbin"); },
                          {"flip.pbin", "checksum"});
  expect_error_containing(
      [&] {
        graph::ChunkedEdgeReader reader(dir_ / "flip.pbin", {.chunk_edges = 4});
        (void)drain(reader);
      },
      {"flip.pbin", "checksum"});

  // Opting out of verification reads the corrupted payload fine.
  EXPECT_EQ(graph::read_bin(dir_ / "flip.pbin", /*verify_checksum=*/false)
                .num_edges(),
            graph::gen::wheel(8).num_edges());
}

TEST_F(IngestTest, PbinRejectsUnknownFlagBitsOnBothPaths) {
  // A version-1 file carrying flag bits this build cannot honor must be
  // rejected, not silently half-read.  Flags live at header offset 12.
  graph::write_bin(graph::gen::wheel(8), dir_ / "g.pbin");
  std::string bytes = slurp(dir_ / "g.pbin");
  bytes[12] = static_cast<char>(bytes[12] | 0x40);
  std::ofstream(dir_ / "flags.pbin", std::ios::binary) << bytes;
  expect_error_containing([&] { (void)graph::read_bin(dir_ / "flags.pbin"); },
                          {"flags.pbin", "unknown .pbin flag bits"});
  expect_error_containing(
      [&] {
        graph::ChunkedEdgeReader reader(dir_ / "flags.pbin",
                                        {.chunk_edges = 4});
        (void)drain(reader);
      },
      {"flags.pbin", "unknown .pbin flag bits"});
}

TEST_F(IngestTest, PbinRejectsZeroLengthFileOnBothPaths) {
  std::ofstream(dir_ / "empty.pbin", std::ios::binary).flush();
  expect_error_containing([&] { (void)graph::read_bin(dir_ / "empty.pbin"); },
                          {"empty.pbin", "truncated header"});
  expect_error_containing(
      [&] {
        graph::ChunkedEdgeReader reader(dir_ / "empty.pbin",
                                        {.chunk_edges = 4});
        (void)drain(reader);
      },
      {"empty.pbin", "truncated header"});
}

TEST_F(IngestTest, PbinRejectsHeaderPayloadSizeMismatch) {
  // A header declaring more edges than the payload holds — a payload-size
  // mismatch rather than a mid-write truncation — names the file too.
  graph::write_bin(graph::gen::wheel(8), dir_ / "g.pbin");
  std::string bytes = slurp(dir_ / "g.pbin");
  std::uint64_t m = 0;
  std::memcpy(&m, bytes.data() + 24, 8);
  m += 3;
  std::memcpy(bytes.data() + 24, &m, 8);
  std::ofstream(dir_ / "short.pbin", std::ios::binary) << bytes;
  expect_error_containing([&] { (void)graph::read_bin(dir_ / "short.pbin"); },
                          {"short.pbin", "truncated edge payload"});
  expect_error_containing(
      [&] {
        graph::ChunkedEdgeReader reader(dir_ / "short.pbin",
                                        {.chunk_edges = 4});
        (void)drain(reader);
      },
      {"short.pbin", "truncated edge payload"});
}

TEST_F(IngestTest, PbinErrorsAreTypedIoErrors) {
  // The CLI's `error: <file>: <reason>` line needs the structured fields,
  // not just the legacy what() string.
  std::ofstream(dir_ / "empty.pbin", std::ios::binary).flush();
  try {
    (void)graph::read_bin(dir_ / "empty.pbin");
    FAIL() << "expected graph::IoError";
  } catch (const graph::IoError& e) {
    EXPECT_EQ(e.path().filename(), "empty.pbin");
    EXPECT_EQ(e.reason(), "truncated header");
  }
}

// ---- chunked reader ---------------------------------------------------------

TEST_F(IngestTest, ChunkSizeDoesNotChangeTheStream) {
  const graph::EdgeList g = dirty_graph();
  for (const char* name : {"g.txt", "g.mtx", "g.pbin", "g.bin"}) {
    const auto path = dir_ / name;
    auto w = graph::make_edge_writer(path);
    w->append(g.edges());
    w->finish();
    // chunk=1, a ragged size, and chunk > m must all yield the same edges
    // in the same order as the one-shot reader.
    const graph::EdgeList oneshot = graph::read_coo(path);
    ASSERT_EQ(oneshot.num_edges(), g.num_edges()) << name;
    for (const std::size_t chunk :
         {std::size_t{1}, std::size_t{7}, g.num_edges() + 13}) {
      graph::ChunkedEdgeReader reader(path, {.chunk_edges = chunk});
      const std::vector<Edge> streamed = drain(reader);
      ASSERT_EQ(streamed.size(), g.num_edges()) << name << " chunk " << chunk;
      for (std::size_t i = 0; i < streamed.size(); ++i) {
        ASSERT_EQ(streamed[i], oneshot[i]) << name << " chunk " << chunk;
      }
    }
  }
}

TEST_F(IngestTest, MmapAndBufferedPathsAgree) {
  const graph::EdgeList g = dirty_graph();
  for (const char* name : {"g.txt", "g.pbin"}) {
    const auto path = dir_ / name;
    auto w = graph::make_edge_writer(path);
    w->append(g.edges());
    w->finish();
    graph::ChunkedEdgeReader mapped(path, {.chunk_edges = 32, .use_mmap = true});
    graph::ChunkedEdgeReader buffered(path,
                                      {.chunk_edges = 32, .use_mmap = false});
    EXPECT_FALSE(buffered.mapped());
    const std::vector<Edge> a = drain(mapped);
    const std::vector<Edge> b = drain(buffered);
    ASSERT_EQ(a.size(), b.size()) << name;
    for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]) << name;
  }
}

TEST_F(IngestTest, DeclaredCountsComeFromHeaders) {
  const graph::EdgeList g = graph::gen::wheel(9);
  graph::write_bin(g, dir_ / "g.pbin");
  graph::write_coo_mtx(g, dir_ / "g.mtx");
  graph::write_coo_text(g, dir_ / "g.txt");

  graph::ChunkedEdgeReader pbin(dir_ / "g.pbin");
  EXPECT_EQ(pbin.declared_edges().value(), g.num_edges());
  EXPECT_EQ(pbin.declared_nodes().value(), g.num_nodes());

  graph::ChunkedEdgeReader mtx(dir_ / "g.mtx");
  EXPECT_EQ(mtx.declared_edges().value(), g.num_edges());
  EXPECT_EQ(mtx.declared_nodes().value(), g.num_nodes());

  graph::ChunkedEdgeReader text(dir_ / "g.txt");
  EXPECT_FALSE(text.declared_edges().has_value());
}

TEST_F(IngestTest, TextErrorsNameFileAndOneBasedLine) {
  std::ofstream(dir_ / "bad.txt") << "# comment\n1 2\n3 four\n";
  expect_error_containing(
      [&] {
        graph::ChunkedEdgeReader reader(dir_ / "bad.txt");
        (void)drain(reader);
      },
      {"bad.txt", "line 3", "two integers"});
  expect_error_containing([&] { (void)graph::read_coo(dir_ / "bad.txt"); },
                          {"bad.txt", "line 3"});
}

TEST_F(IngestTest, MtxErrorsNameFileAndLine) {
  std::ofstream(dir_ / "short.mtx")
      << "%%MatrixMarket matrix coordinate pattern general\n"
      << "5 5 3\n"
      << "1 2\n"
      << "2 3\n";
  expect_error_containing([&] { (void)graph::read_coo_mtx(dir_ / "short.mtx"); },
                          {"short.mtx", "fewer entries"});

  std::ofstream(dir_ / "oob.mtx")
      << "%%MatrixMarket matrix coordinate pattern general\n"
      << "3 3 1\n"
      << "4 1\n";
  expect_error_containing([&] { (void)graph::read_coo_mtx(dir_ / "oob.mtx"); },
                          {"oob.mtx", "line 3", "exceeds"});
}

TEST_F(IngestTest, UnknownExtensionIsRejectedWithTheSupportedList) {
  std::ofstream(dir_ / "g.csv") << "1,2\n";
  expect_error_containing([&] { (void)graph::read_coo(dir_ / "g.csv"); },
                          {"g.csv", "unsupported", ".pbin"});
  expect_error_containing(
      [&] { graph::ChunkedEdgeReader reader(dir_ / "g.csv"); },
      {"g.csv", "unsupported"});
  expect_error_containing([&] { (void)graph::make_edge_writer(dir_ / "g.csv"); },
                          {"g.csv", "unsupported"});
}

// ---- ingest pipeline --------------------------------------------------------

TEST_F(IngestTest, StreamedEstimatesBitIdenticalToOneShot) {
  // The acceptance bar: add_edges chunk-at-a-time must reproduce the
  // one-shot count() exactly — on the exact backend trivially, on the pim
  // backend because the reservoir sees the identical arrival order.
  graph::EdgeList g = graph::gen::barabasi_albert(300, 4, 13);
  graph::gen::add_hubs(g, 2, 40, 14);
  const auto path = dir_ / "g.pbin";
  graph::write_bin(g, path);

  for (const char* backend : {"cpu-fast", "pim", "cpu"}) {
    engine::EngineConfig cfg;
    cfg.seed = 99;
    cfg.num_colors = 4;
    const double oneshot = engine::make_engine(backend, cfg)->count(g).estimate;
    for (const std::size_t chunk :
         {std::size_t{1}, std::size_t{57}, g.num_edges() + 5}) {
      for (const bool overlap : {true, false}) {
        auto eng = engine::make_engine(backend, cfg);
        engine::IngestOptions iopt;
        iopt.reader.chunk_edges = chunk;
        iopt.overlap_io = overlap;
        const engine::IngestStats stats = engine::ingest_file(*eng, path, iopt);
        EXPECT_EQ(stats.edges_ingested, g.num_edges());
        EXPECT_EQ(stats.node_bound, g.num_nodes());
        const double streamed = eng->recount().estimate;
        EXPECT_EQ(streamed, oneshot)
            << backend << " chunk " << chunk << " overlap " << overlap;
      }
    }
  }
}

TEST_F(IngestTest, FiltersDropLoopsAndDuplicatesOrderPreserving) {
  const graph::EdgeList g = dirty_graph();  // 2 loops, 2 duplicates appended
  const auto path = dir_ / "g.pbin";
  graph::write_bin(g, path);

  engine::IngestOptions iopt;
  iopt.reader.chunk_edges = 16;
  iopt.drop_self_loops = true;
  iopt.dedup = engine::DedupMode::kGlobal;
  std::vector<Edge> fed;
  graph::ChunkedEdgeReader reader(path, iopt.reader);
  const engine::IngestStats stats = engine::ingest_stream(
      reader,
      [&](std::span<const Edge> c) { fed.insert(fed.end(), c.begin(), c.end()); },
      iopt);

  EXPECT_EQ(stats.edges_read, g.num_edges());
  EXPECT_EQ(stats.self_loops_dropped, 2u);
  EXPECT_EQ(stats.duplicates_dropped, 2u);
  EXPECT_EQ(stats.edges_ingested, fed.size());
  EXPECT_EQ(fed.size(), g.num_edges() - 4);
  // Order-preserving: the survivors are the clean prefix graph, in order.
  for (std::size_t i = 0; i < fed.size(); ++i) EXPECT_EQ(fed[i], g[i]);
}

TEST_F(IngestTest, DedupKeepsBoundaryLoopsWhenLoopsAreKept) {
  // With loops kept, the dedup set sees the loops (0,0) and
  // (UINT32_MAX, UINT32_MAX): key 0 and the all-ones key.  Each must be
  // kept once, in first-occurrence order, like any other edge.
  constexpr NodeId kMax = std::numeric_limits<NodeId>::max();
  const std::vector<Edge> input = {{kMax, kMax}, {0, 0}, {1, kMax},
                                   {kMax, kMax}, {kMax, 1}, {0, 0},
                                   {2, 3}};
  const auto path = dir_ / "boundary.txt";
  {
    std::ofstream out(path);
    for (const Edge& e : input) out << e.u << ' ' << e.v << '\n';
  }
  engine::IngestOptions iopt;
  iopt.reader.chunk_edges = 3;
  iopt.drop_self_loops = false;
  iopt.dedup = engine::DedupMode::kGlobal;
  std::vector<Edge> fed;
  graph::ChunkedEdgeReader reader(path, iopt.reader);
  const engine::IngestStats stats = engine::ingest_stream(
      reader,
      [&](std::span<const Edge> c) { fed.insert(fed.end(), c.begin(), c.end()); },
      iopt);
  const std::vector<Edge> expect = {{kMax, kMax}, {0, 0}, {1, kMax}, {2, 3}};
  EXPECT_EQ(fed, expect);
  EXPECT_EQ(stats.duplicates_dropped, 3u);
  EXPECT_EQ(stats.self_loops_dropped, 0u);
}

TEST_F(IngestTest, ChunkDedupOnlySeesWithinChunkDuplicates) {
  graph::EdgeList g;
  g.push_back({0, 1});
  g.push_back({1, 0});  // duplicate inside chunk 1
  g.push_back({2, 3});
  g.push_back({0, 1});  // duplicate of chunk 1, lands in chunk 2
  const auto path = dir_ / "dup.pbin";
  graph::write_bin(g, path);

  engine::IngestOptions iopt;
  iopt.reader.chunk_edges = 2;
  iopt.dedup = engine::DedupMode::kChunk;
  graph::ChunkedEdgeReader reader(path, iopt.reader);
  const engine::IngestStats stats =
      engine::ingest_stream(reader, [](std::span<const Edge>) {}, iopt);
  EXPECT_EQ(stats.duplicates_dropped, 1u);
  EXPECT_EQ(stats.edges_ingested, 3u);
}

TEST_F(IngestTest, DegreeHistogramMatchesInMemoryCount)  {
  const graph::EdgeList g = dirty_graph();
  const auto path = dir_ / "g.pbin";
  graph::write_bin(g, path);

  const std::vector<std::uint32_t> degrees = engine::stream_degrees(path);
  std::vector<std::uint32_t> expect(g.num_nodes(), 0);
  for (const Edge& e : g.edges()) {
    if (e.is_loop()) continue;  // stream_degrees excludes loops
    ++expect[e.u];
    ++expect[e.v];
  }
  ASSERT_EQ(degrees.size(), expect.size());
  for (std::size_t i = 0; i < degrees.size(); ++i) {
    ASSERT_EQ(degrees[i], expect[i]) << "node " << i;
  }
}

TEST_F(IngestTest, EmptyGraphStreamsCleanly) {
  graph::write_bin(graph::EdgeList{}, dir_ / "empty.pbin");
  auto eng = engine::make_engine("cpu-fast", {});
  const engine::IngestStats stats =
      engine::ingest_file(*eng, dir_ / "empty.pbin");
  EXPECT_EQ(stats.edges_read, 0u);
  EXPECT_EQ(stats.chunks, 0u);
  EXPECT_EQ(eng->recount().estimate, 0.0);
}

// ---- serving layer ----------------------------------------------------------

TEST_F(IngestTest, SessionManagerIngestFileMatchesSubmit) {
  const graph::EdgeList g = graph::gen::barabasi_albert(200, 3, 21);
  const auto path = dir_ / "g.pbin";
  graph::write_bin(g, path);

  engine::EngineConfig cfg;
  cfg.num_colors = 4;
  cfg.seed = 5;

  serve::SessionManager mgr;
  mgr.open("file", "cpu-fast", cfg);
  mgr.open("mem", "cpu-fast", cfg);

  const serve::FileIngestResult r =
      mgr.ingest_file("file", path, /*chunk_edges=*/64);
  EXPECT_EQ(r.result, serve::SubmitResult::kAccepted);
  EXPECT_EQ(r.updates, g.num_edges());

  std::vector<EdgeUpdate> inserts;
  for (const Edge& e : g.edges()) inserts.push_back(insert_of(e));
  ASSERT_EQ(mgr.submit("mem", inserts), serve::SubmitResult::kAccepted);

  const serve::QueryResult qf = mgr.flush("file");
  const serve::QueryResult qm = mgr.flush("mem");
  EXPECT_EQ(qf.estimate, qm.estimate);
  EXPECT_EQ(qf.stats.updates_applied, g.num_edges());
  mgr.close_all();

  EXPECT_THROW(mgr.ingest_file("gone", path), std::invalid_argument);
}

}  // namespace
}  // namespace pimtc
