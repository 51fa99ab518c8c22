// Unit tests for src/graph: COO, CSR, preprocessing, stats, reference TC, IO.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <unordered_set>
#include <vector>

#include "common/math_util.hpp"
#include "graph/coo.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/preprocess.hpp"
#include "graph/reference_tc.hpp"
#include "graph/stats.hpp"

namespace pimtc::graph {
namespace {

// ---- EdgeList ---------------------------------------------------------------

TEST(EdgeListTest, TracksNodeBound) {
  EdgeList list;
  EXPECT_EQ(list.num_nodes(), 0u);
  list.push_back({3, 7});
  EXPECT_EQ(list.num_nodes(), 8u);
  list.push_back({10, 1});
  EXPECT_EQ(list.num_nodes(), 11u);
  EXPECT_EQ(list.num_edges(), 2u);
}

TEST(EdgeListTest, AppendBatch) {
  EdgeList list;
  const std::vector<Edge> batch = {{0, 1}, {1, 2}, {2, 5}};
  list.append(batch);
  EXPECT_EQ(list.num_edges(), 3u);
  EXPECT_EQ(list.num_nodes(), 6u);
}

TEST(EdgeListTest, OneEdgeAppendsGrowGeometrically) {
  // The dynamic update path appends tiny batches; growth must stay
  // geometric (O(log n) reallocations), not one reallocation per append.
  EdgeList list;
  constexpr std::uint32_t kAppends = 100'000;
  std::size_t reallocations = 0;
  const Edge* data = nullptr;
  for (std::uint32_t i = 0; i < kAppends; ++i) {
    const Edge e{i, i + 1};
    list.append({&e, 1});
    if (list.edges().data() != data) {
      ++reallocations;
      data = list.edges().data();
    }
  }
  EXPECT_EQ(list.num_edges(), kAppends);
  EXPECT_EQ(list.num_nodes(), kAppends + 1);
  EXPECT_LE(reallocations, 2 * ceil_log2(kAppends) + 2);
}

TEST(EdgeListTest, RescanAfterMutation) {
  EdgeList list(std::vector<Edge>{{0, 9}});
  list.mutable_edges().clear();
  list.rescan_num_nodes();
  EXPECT_EQ(list.num_nodes(), 0u);
}

// ---- CSR --------------------------------------------------------------------

TEST(CsrTest, ForwardOrientationSortedAndDeduplicated) {
  // Triangle 0-1-2 plus duplicate and reversed copies and a loop.
  EdgeList coo(std::vector<Edge>{{1, 0}, {0, 1}, {1, 2}, {2, 0}, {2, 2}});
  const Csr csr = Csr::from_coo(coo);
  ASSERT_EQ(csr.num_nodes(), 3u);
  // Forward: 0 -> {1, 2}, 1 -> {2}, 2 -> {}.
  ASSERT_EQ(csr.degree(0), 2u);
  EXPECT_EQ(csr.neighbors(0)[0], 1u);
  EXPECT_EQ(csr.neighbors(0)[1], 2u);
  ASSERT_EQ(csr.degree(1), 1u);
  EXPECT_EQ(csr.neighbors(1)[0], 2u);
  EXPECT_EQ(csr.degree(2), 0u);
}

TEST(CsrTest, SymmetricDoublesArcs) {
  EdgeList coo(std::vector<Edge>{{0, 1}, {1, 2}});
  const Csr sym = Csr::from_coo_symmetric(coo);
  EXPECT_EQ(sym.num_arcs(), 4u);
  EXPECT_EQ(sym.degree(1), 2u);
}

TEST(CsrTest, EmptyGraph) {
  const Csr csr = Csr::from_coo(EdgeList{});
  EXPECT_EQ(csr.num_nodes(), 0u);
  EXPECT_EQ(csr.num_arcs(), 0u);
}

TEST(CsrTest, SelfLoopsOnlyGraph) {
  // Loops are dropped but still widen the node range; the CSR ends up all
  // zero-degree rows, not an empty structure.
  EdgeList coo(std::vector<Edge>{{2, 2}, {5, 5}});
  const Csr csr = Csr::from_coo(coo);
  EXPECT_EQ(csr.num_nodes(), 6u);
  EXPECT_EQ(csr.num_arcs(), 0u);
  for (NodeId u = 0; u < csr.num_nodes(); ++u) EXPECT_EQ(csr.degree(u), 0u);
}

TEST(CsrTest, DuplicateEdgesCollapseInBothOrientations) {
  // The same undirected edge in every spelling (forward, reversed, twice)
  // becomes exactly one forward arc and two symmetric arcs.
  EdgeList coo(std::vector<Edge>{{4, 9}, {9, 4}, {4, 9}, {9, 4}});
  EXPECT_EQ(Csr::from_coo(coo).num_arcs(), 1u);
  EXPECT_EQ(Csr::from_coo_symmetric(coo).num_arcs(), 2u);
}

TEST(CsrTest, IsolatedHighIdVertexKeepsTheCountExact) {
  // A triangle plus a far-away loop-only vertex: the wide node range must
  // not disturb either structure sizes or the reference count.
  EdgeList coo(std::vector<Edge>{{0, 1}, {1, 2}, {2, 0}, {1000, 1000}});
  const Csr csr = Csr::from_coo(coo);
  EXPECT_EQ(csr.num_nodes(), 1001u);
  EXPECT_EQ(csr.num_arcs(), 3u);
  EXPECT_EQ(csr.degree(1000), 0u);
  EXPECT_EQ(reference_triangle_count(coo), 1u);
}

// ---- preprocess -------------------------------------------------------------

TEST(PreprocessTest, RemovesLoopsAndDuplicates) {
  EdgeList list(std::vector<Edge>{{0, 1}, {1, 0}, {0, 1}, {2, 2}, {1, 2}});
  const PreprocessStats stats = remove_loops_and_duplicates(list);
  EXPECT_EQ(stats.input_edges, 5u);
  EXPECT_EQ(stats.removed_self_loops, 1u);
  EXPECT_EQ(stats.removed_duplicates, 2u);  // (1,0) and the second (0,1)
  EXPECT_EQ(stats.output_edges, 2u);
  EXPECT_EQ(list.num_edges(), 2u);
}

/// The node-based dedup remove_loops_and_duplicates used before the flat
/// key set, kept here only as the differential oracle.
PreprocessStats oracle_remove_loops_and_duplicates(EdgeList& list) {
  PreprocessStats stats;
  stats.input_edges = list.num_edges();
  std::unordered_set<Edge> seen;
  std::vector<Edge>& edges = list.mutable_edges();
  std::size_t write = 0;
  for (const Edge& e : edges) {
    if (e.is_loop()) {
      ++stats.removed_self_loops;
      continue;
    }
    if (!seen.insert(e.canonical()).second) {
      ++stats.removed_duplicates;
      continue;
    }
    edges[write++] = e;
  }
  edges.resize(write);
  list.rescan_num_nodes();
  stats.output_edges = write;
  return stats;
}

TEST(PreprocessTest, MatchesTheUnorderedSetOracleByteForByte) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    // A simple graph, then dirt: exact and reversed duplicates of a third
    // of its edges, loops, and a shuffle that mixes dirt and originals.
    EdgeList g = seed % 2 == 0 ? gen::erdos_renyi(3000, 20'000, seed)
                               : gen::barabasi_albert(3000, 6, seed);
    std::vector<Edge> dirt;
    for (std::size_t i = 0; i < g.num_edges(); i += 3) {
      dirt.push_back(i % 2 == 0 ? g[i] : g[i].reversed());
    }
    for (NodeId u = 0; u < 200; u += 3) dirt.push_back({u, u});
    g.append(dirt);
    shuffle_edges(g, seed + 100);

    EdgeList flat = g;
    EdgeList oracle = g;
    const PreprocessStats a = remove_loops_and_duplicates(flat);
    const PreprocessStats b = oracle_remove_loops_and_duplicates(oracle);
    EXPECT_EQ(a.input_edges, b.input_edges);
    EXPECT_EQ(a.removed_self_loops, b.removed_self_loops);
    EXPECT_EQ(a.removed_duplicates, b.removed_duplicates);
    EXPECT_EQ(a.output_edges, b.output_edges);
    EXPECT_GT(a.removed_duplicates, 0u);
    EXPECT_GT(a.removed_self_loops, 0u);
    ASSERT_EQ(flat.num_edges(), oracle.num_edges());
    EXPECT_EQ(flat.num_nodes(), oracle.num_nodes());
    EXPECT_EQ(std::memcmp(flat.edges().data(), oracle.edges().data(),
                          flat.num_edges() * sizeof(Edge)),
              0)
        << "seed " << seed;
  }
}

TEST(PreprocessTest, EmptyAndLoopOnlyInputs) {
  EdgeList empty;
  const PreprocessStats none = remove_loops_and_duplicates(empty);
  EXPECT_EQ(none.input_edges, 0u);
  EXPECT_EQ(none.output_edges, 0u);

  EdgeList loops(std::vector<Edge>{{7, 7}, {7, 7}, {3, 3}});
  const PreprocessStats only = remove_loops_and_duplicates(loops);
  EXPECT_EQ(only.removed_self_loops + only.removed_duplicates, 3u);
  EXPECT_EQ(only.output_edges, 0u);
  EXPECT_EQ(loops.num_edges(), 0u);

  // Full preprocess (dedup + shuffle) on the degenerate inputs is a no-op
  // rather than an error.
  preprocess(empty, 1);
  preprocess(loops, 1);
  EXPECT_EQ(empty.num_edges(), 0u);
  EXPECT_EQ(loops.num_edges(), 0u);
}

TEST(PreprocessTest, ShuffleIsPermutationAndDeterministic) {
  EdgeList a = gen::complete(12);
  EdgeList b = gen::complete(12);
  shuffle_edges(a, 7);
  shuffle_edges(b, 7);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (std::size_t i = 0; i < a.num_edges(); ++i) EXPECT_EQ(a[i], b[i]);

  // Same multiset of edges as the original.
  auto sorted_a = std::vector<Edge>(a.begin(), a.end());
  const EdgeList original = gen::complete(12);
  auto orig = std::vector<Edge>(original.begin(), original.end());
  std::sort(sorted_a.begin(), sorted_a.end());
  std::sort(orig.begin(), orig.end());
  EXPECT_EQ(sorted_a, orig);
}

TEST(PreprocessTest, DifferentSeedsDifferentOrders) {
  EdgeList a = gen::complete(16);
  EdgeList b = gen::complete(16);
  shuffle_edges(a, 1);
  shuffle_edges(b, 2);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.num_edges(); ++i) {
    if (a[i] != b[i]) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

// ---- reference triangle count ------------------------------------------------

TEST(ReferenceTcTest, KnownSmallGraphs) {
  EXPECT_EQ(reference_triangle_count(gen::complete(3)), 1u);
  EXPECT_EQ(reference_triangle_count(gen::complete(4)), 4u);
  EXPECT_EQ(reference_triangle_count(gen::complete(10)), binomial(10, 3));
  EXPECT_EQ(reference_triangle_count(gen::cycle(3)), 1u);
  EXPECT_EQ(reference_triangle_count(gen::cycle(10)), 0u);
  EXPECT_EQ(reference_triangle_count(gen::path(20)), 0u);
  EXPECT_EQ(reference_triangle_count(gen::star(20)), 0u);
  EXPECT_EQ(reference_triangle_count(gen::wheel(10)), 9u);
}

TEST(ReferenceTcTest, OrientationInvariant) {
  // Reversing edge orientation in the COO must not change the count.
  EdgeList g = gen::wheel(13);
  EdgeList reversed;
  for (const Edge& e : g) reversed.push_back(e.reversed());
  EXPECT_EQ(reference_triangle_count(g), reference_triangle_count(reversed));
}

TEST(ReferenceTcTest, DisjointTrianglesAdd) {
  EdgeList g;
  for (NodeId base = 0; base < 30; base += 3) {
    g.push_back({base, static_cast<NodeId>(base + 1)});
    g.push_back({static_cast<NodeId>(base + 1), static_cast<NodeId>(base + 2)});
    g.push_back({base, static_cast<NodeId>(base + 2)});
  }
  EXPECT_EQ(reference_triangle_count(g), 10u);
}

// ---- stats ------------------------------------------------------------------

TEST(StatsTest, DegreesOfStar) {
  const auto deg = degrees(gen::star(5));
  ASSERT_EQ(deg.size(), 5u);
  EXPECT_EQ(deg[0], 4u);
  for (int i = 1; i < 5; ++i) EXPECT_EQ(deg[i], 1u);
}

TEST(StatsTest, DegreeStatsOfCompleteGraph) {
  const DegreeStats s = degree_stats(gen::complete(6));
  EXPECT_EQ(s.max_degree, 5u);
  EXPECT_DOUBLE_EQ(s.avg_degree, 5.0);
  // Wedges: 6 * C(5,2) = 60.
  EXPECT_EQ(s.num_wedges, 60u);
}

TEST(StatsTest, ClusteringCoefficientExtremes) {
  // Complete graph: GCC = 1.  Star: no triangles -> 0.
  const EdgeList k6 = gen::complete(6);
  EXPECT_DOUBLE_EQ(global_clustering(k6, reference_triangle_count(k6)), 1.0);
  const EdgeList s10 = gen::star(10);
  EXPECT_DOUBLE_EQ(global_clustering(s10, 0), 0.0);
}

TEST(StatsTest, DuplicateEdgesDoNotInflateDegrees) {
  EdgeList g(std::vector<Edge>{{0, 1}, {1, 0}, {0, 1}});
  const auto deg = degrees(g);
  EXPECT_EQ(deg[0], 1u);
  EXPECT_EQ(deg[1], 1u);
}

// ---- IO ---------------------------------------------------------------------

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "pimtc_io_test";
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(IoTest, TextRoundTrip) {
  const EdgeList g = gen::wheel(9);
  const auto path = dir_ / "wheel.txt";
  write_coo_text(g, path);
  const EdgeList back = read_coo_text(path);
  ASSERT_EQ(back.num_edges(), g.num_edges());
  for (std::size_t i = 0; i < g.num_edges(); ++i) EXPECT_EQ(back[i], g[i]);
}

TEST_F(IoTest, BinaryRoundTrip) {
  const EdgeList g = gen::complete(20);
  const auto path = dir_ / "k20.bin";
  write_coo_binary(g, path);
  const EdgeList back = read_coo(path);  // dispatches on .bin
  ASSERT_EQ(back.num_edges(), g.num_edges());
  for (std::size_t i = 0; i < g.num_edges(); ++i) EXPECT_EQ(back[i], g[i]);
}

TEST_F(IoTest, TextSkipsComments) {
  const auto path = dir_ / "comments.txt";
  std::ofstream out(path);
  out << "# SNAP-style comment\n% KONECT-style comment\n1 2\n3 4\n";
  out.close();
  const EdgeList g = read_coo_text(path);
  ASSERT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g[0], (Edge{1, 2}));
  EXPECT_EQ(g[1], (Edge{3, 4}));
}

TEST_F(IoTest, TextSkipsBlankishLinesAndIndentedComments) {
  // A downloaded SNAP file routinely ends with a blank-ish line or indents
  // its comments; neither may kill the load.
  const auto path = dir_ / "blanks.txt";
  std::ofstream out(path);
  out << "  # indented comment\n"
      << "\t% indented KONECT comment\n"
      << "1 2\n"
      << "\n"
      << "   \t \n"
      << "  3 4\n"
      << "   \n";
  out.close();
  const EdgeList g = read_coo_text(path);
  ASSERT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g[0], (Edge{1, 2}));
  EXPECT_EQ(g[1], (Edge{3, 4}));
}

TEST_F(IoTest, TextStillRejectsMalformedLines) {
  const auto path = dir_ / "bad.txt";
  std::ofstream out(path);
  out << "1 2\nnot an edge\n";
  out.close();
  EXPECT_THROW(read_coo_text(path), std::runtime_error);
}

TEST_F(IoTest, UpdateStreamParsesSignsCommentsAndBlanks) {
  const auto path = dir_ / "updates.txt";
  std::ofstream out(path);
  out << "# header comment\n"
      << "+1 2\n"
      << "3 4\n"          // bare pair = insert
      << "- 1 2\n"        // sign separated from the pair
      << "  % indented comment\n"
      << "\n"
      << "-3 4\n"
      << "  +5 6\n";
  out.close();
  const auto updates = read_update_stream(path);
  ASSERT_EQ(updates.size(), 5u);
  EXPECT_EQ(updates[0], insert_of(Edge{1, 2}));
  EXPECT_EQ(updates[1], insert_of(Edge{3, 4}));
  EXPECT_EQ(updates[2], delete_of(Edge{1, 2}));
  EXPECT_EQ(updates[3], delete_of(Edge{3, 4}));
  EXPECT_EQ(updates[4], insert_of(Edge{5, 6}));
}

TEST_F(IoTest, UpdateStreamRejectsGarbage) {
  const auto path = dir_ / "bad_updates.txt";
  std::ofstream out(path);
  out << "+1 2\n~3 4\n";
  out.close();
  EXPECT_THROW(read_update_stream(path), std::runtime_error);
}

TEST_F(IoTest, MissingFileThrows) {
  EXPECT_THROW(read_coo_text(dir_ / "nope.txt"), std::runtime_error);
  EXPECT_THROW(read_coo_binary(dir_ / "nope.bin"), std::runtime_error);
  EXPECT_THROW(read_update_stream(dir_ / "nope.txt"), std::runtime_error);
}

TEST_F(IoTest, MatrixMarketPatternSymmetric) {
  // SuiteSparse-style file: banner, comments, size line, 1-based entries.
  const auto path = dir_ / "tri.mtx";
  std::ofstream out(path);
  out << "%%MatrixMarket matrix coordinate pattern symmetric\n"
      << "% a triangle on nodes 1..3\n"
      << "%\n"
      << "3 3 3\n"
      << "2 1\n"
      << "3 1\n"
      << "3 2\n";
  out.close();
  const EdgeList g = read_coo(path);  // dispatches on .mtx
  ASSERT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g[0], (Edge{1, 0}));
  EXPECT_EQ(g[1], (Edge{2, 0}));
  EXPECT_EQ(g[2], (Edge{2, 1}));
}

TEST_F(IoTest, MatrixMarketIgnoresValueColumn) {
  const auto path = dir_ / "weighted.mtx";
  std::ofstream out(path);
  out << "%%MatrixMarket matrix coordinate real general\n"
      << "4 4 2\n"
      << "1 2 3.5\n"
      << "4 3 -1.25e2\n";
  out.close();
  const EdgeList g = read_coo_mtx(path);
  ASSERT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g[0], (Edge{0, 1}));
  EXPECT_EQ(g[1], (Edge{3, 2}));
}

TEST_F(IoTest, MatrixMarketRejectsBadFiles) {
  const auto no_banner = dir_ / "nobanner.mtx";
  std::ofstream(no_banner) << "3 3 1\n1 2\n";
  EXPECT_THROW(read_coo_mtx(no_banner), std::runtime_error);

  const auto dense = dir_ / "dense.mtx";
  std::ofstream(dense) << "%%MatrixMarket matrix array real general\n3 3\n";
  EXPECT_THROW(read_coo_mtx(dense), std::runtime_error);

  const auto truncated = dir_ / "short.mtx";
  std::ofstream(truncated)
      << "%%MatrixMarket matrix coordinate pattern general\n3 3 5\n1 2\n";
  EXPECT_THROW(read_coo_mtx(truncated), std::runtime_error);

  const auto zero_based = dir_ / "zero.mtx";
  std::ofstream(zero_based)
      << "%%MatrixMarket matrix coordinate pattern general\n3 3 1\n0 2\n";
  EXPECT_THROW(read_coo_mtx(zero_based), std::runtime_error);

  const auto out_of_range = dir_ / "range.mtx";
  std::ofstream(out_of_range)
      << "%%MatrixMarket matrix coordinate pattern general\n3 3 1\n"
      << "6000000000 1\n";
  EXPECT_THROW(read_coo_mtx(out_of_range), std::runtime_error);
}

TEST_F(IoTest, BadMagicThrows) {
  const auto path = dir_ / "bad.bin";
  std::ofstream out(path, std::ios::binary);
  out << "NOTMAGIC01234567";
  out.close();
  EXPECT_THROW(read_coo_binary(path), std::runtime_error);
}

}  // namespace
}  // namespace pimtc::graph
