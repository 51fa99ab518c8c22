// pimtc — command-line front end for the library.
//
//   pimtc generate --kind=rmat --edges=100000 --out=g.txt [--seed=42]
//   pimtc convert  --in=g.txt --out=g.pbin [--dedup] [--orient] [--drop-loops]
//   pimtc stats    --graph=g.txt
//   pimtc count    --graph=g.txt [--backend=pim|cpu|cpu-fast|cpu-incremental]
//                  [--colors=8] [--p=1.0] [--capacity=0] [--misra-gries]
//                  [--mg-top=32] [--incremental] [--json] [--exact-check]
//                  [--stream=updates.txt] [--delete-frac=0.2]
//                  [--chunk-edges=N] [--no-mmap]
//   pimtc serve    [--sessions=8] [--session-edges=20000] [--policy=block]
//                  [--batch-updates=512] [--delete-frac=0.2] [--json] ...
//   pimtc backends
//
// `convert` streams any supported format into any other in O(chunk)
// memory (text / .mtx / legacy .bin / .pbin, both directions); --dedup
// drops duplicate undirected edges, --orient rewrites each edge
// lower-(degree, id) endpoint first (the DODG orientation, precomputed
// once at rest instead of at every load).  `count --chunk-edges=N`
// switches the graph phase to the same out-of-core path: the file is
// chunk-streamed into the engine session via add_edges() instead of being
// materialized, so peak memory follows the chunk size, not the file.
//
// `count` runs the chosen backend through the engine registry and prints
// the unified report (estimate, phase breakdown, load profile) as text or,
// with --json, as a single JSON object; --exact-check runs a second backend
// over the same stream through the same code path and verifies parity.
// --stream replays a fully-dynamic "+u v" / "-u v" update file after the
// graph; --delete-frac then deletes a seeded random fraction of the
// graph's edges (synthetic churn).  Parity defaults to the fast exact
// oracle (cpu-fast); when cpu-fast is itself under test, the independent
// cpu / cpu-incremental implementations take over.
//
// `serve` is the serving-layer bench: it opens N concurrent sessions on one
// SessionManager, hammers each with a seeded mixed ± stream from its own
// submitter thread while querier threads read snapshots, then checks every
// session's final count bit-identically against a serial replay of its
// accepted batches and reports p50/p99 update->visible latency.
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <algorithm>

#include "cli_args.hpp"
#include "coloring/partition_plan.hpp"
#include "common/prng.hpp"
#include "engine/ingest.hpp"
#include "engine/registry.hpp"
#include "graph/io_error.hpp"
#include "graph/stream_reader.hpp"
#include "tc/intersect.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/paper_graphs.hpp"
#include "graph/preprocess.hpp"
#include "graph/stats.hpp"
#include "graph/reference_tc.hpp"
#include "common/math_util.hpp"
#include "common/timer.hpp"
#include "serve/session_manager.hpp"

namespace {

using namespace pimtc;

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  pimtc generate --kind=<rmat|er|ba|ba-hubs|community|road|paper:NAME>\n"
      "                 --edges=<n> --out=<file> [--seed=<s>]\n"
      "  pimtc convert  --in=<file> --out=<file> [--chunk-edges=<n>]\n"
      "                 [--no-mmap] [--dedup] [--drop-loops] [--orient]\n"
      "                 [--no-checksum] [--no-verify]\n"
      "  pimtc stats    --graph=<file>\n"
      "  pimtc count    [--graph=<file>] [--stream=<file>] [--delete-frac=<f>]\n"
      "                 [--chunk-edges=<n>] [--no-mmap] [--no-dedup]\n"
      "                 [--backend=<name>] [--colors=<C>|auto]\n"
      "                 [--placement=identity|kind_interleave|greedy_balance]\n"
      "                 [--rebalance] [--p=<keep prob>]\n"
      "                 [--capacity=<edges/core>]\n"
      "                 [--misra-gries] [--mg-top=<t>] [--degree-remap]\n"
      "                 [--intersect=auto|merge|gallop] [--gallop-margin=<k>]\n"
      "                 [--hub-degree=<d>] [--no-region-cache] [--incremental]\n"
      "                 [--threads=<n>] [--dpus-per-rank=<n>]\n"
      "                 [--staging=<edges/core>] [--no-pipeline]\n"
      "                 [--inject-faults=<spec>]\n"
      "                 [--json] [--exact-check] [--check-backend=<name>]\n"
      "  pimtc serve    [--sessions=<n>] [--session-edges=<m>]\n"
      "                 [--batch-updates=<u>] [--delete-frac=<f>]\n"
      "                 [--kind=<graph kind>] [--backend=<name>]\n"
      "                 [--policy=block|reject] [--queue-cap=<updates>]\n"
      "                 [--budget=<updates>] [--workers=<n>]\n"
      "                 [--recount-every=<batches>] [--queriers=<n>]\n"
      "                 [--session-threads=<n>] [--no-parity] [--json]\n"
      "                 [--graph=<file>] [--chunk-edges=<n>] [--no-mmap]\n"
      "                 plus any engine flag accepted by count\n"
      "  pimtc backends\n"
      "graphs load by extension: .pbin (pimtc binary v1), .bin (legacy\n"
      "binary), .mtx (MatrixMarket), .txt/.text/.el/.edges/.coo/.graph/.tsv\n"
      "('u v' text); other extensions are rejected\n"
      "count needs --graph and/or --stream; --stream replays a fully-dynamic\n"
      "update file ('+u v' inserts, '-u v' deletes, bare 'u v' inserts)\n"
      "after the graph; --delete-frac=<f> then deletes a seeded random\n"
      "fraction f of the graph's edges (synthetic churn)\n"
      "count --chunk-edges=<n> streams the graph out-of-core in n-edge\n"
      "chunks (O(chunk) memory; dedups while streaming unless --no-dedup;\n"
      "not combinable with --delete-frac); --no-mmap forces buffered reads\n"
      "serve --graph=<file> bulk-loads the file into every session through\n"
      "the same chunked path instead of generating per-session graphs\n"
      "count --inject-faults enables the deterministic PIM fault model,\n"
      "e.g. seed=3,launch-transient=0.01,launch-permanent=0.001,corrupt=\n"
      "0.001,bitflip=0.01,recovery=rematerialize|retry|degrade (see README)\n"
      "exit codes: 0 success, 1 parity/consistency mismatch, 2 usage or\n"
      "input/config error\n");
  std::exit(2);
}

/// --key=value argument bag (tools/cli_args.hpp); malformed positional
/// syntax routes to usage() via the handler, numeric accessors throw
/// std::invalid_argument (caught in main, exit 2).
using Args = cli::Args;

/// Pre-flight check of a user-supplied input file: missing files,
/// directories and zero-length files all fail with one clean
/// `error: <file>: <reason>` line (graph::IoError, caught in main) before
/// any parser touches them.
void require_input_file(const std::string& path) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::file_status st = fs::status(path, ec);
  if (ec || !fs::exists(st)) throw graph::IoError(path, "no such file");
  if (fs::is_directory(st)) throw graph::IoError(path, "is a directory");
  const std::uintmax_t size = fs::file_size(path, ec);
  if (!ec && size == 0) throw graph::IoError(path, "file is empty");
}

/// Synthetic graph dispatch shared by `generate` and the `serve` driver's
/// per-session stream construction.  `scale` only applies to paper:NAME
/// stand-ins.  Throws on an unknown kind.
graph::EdgeList generate_graph(const std::string& kind, EdgeCount edges,
                               std::uint64_t seed, double scale) {
  graph::EdgeList g;
  if (kind == "rmat") {
    std::uint32_t scale = 10;
    while ((1ull << scale) * 16 < edges && scale < 28) ++scale;
    g = graph::gen::rmat(scale, edges, graph::gen::RmatParams{}, seed);
  } else if (kind == "er") {
    g = graph::gen::erdos_renyi(static_cast<NodeId>(edges / 8), edges, seed);
  } else if (kind == "ba") {
    g = graph::gen::barabasi_albert(static_cast<NodeId>(edges / 5), 5, seed);
  } else if (kind == "ba-hubs") {
    // Hub-heavy preferential attachment (the fig4/churn scenario shape):
    // a BA body plus a few explicit hubs touching a large node fraction.
    g = graph::gen::barabasi_albert(static_cast<NodeId>(edges / 5), 5, seed);
    graph::gen::add_hubs(g, 3, static_cast<NodeId>(edges / 20), seed + 1);
  } else if (kind == "community") {
    g = graph::gen::community(static_cast<NodeId>(edges / 25), 64, 0.6,
                              edges / 20, seed);
  } else if (kind == "road") {
    g = graph::gen::road_like(static_cast<NodeId>(edges), 2.2, 32, seed);
  } else if (kind.starts_with("paper:")) {
    const std::string name = kind.substr(6);
    bool found = false;
    for (const auto pg : graph::kAllPaperGraphs) {
      if (name == graph::paper_graph_info(pg).name) {
        g = graph::make_paper_graph(pg, scale, seed);
        found = true;
        break;
      }
    }
    if (!found) {
      throw std::invalid_argument("unknown paper graph '" + name + "'");
    }
  } else {
    throw std::invalid_argument("unknown graph kind '" + kind + "'");
  }
  return g;
}

/// Synthetic churn: deletions of a seeded random `frac` of `g`'s edges
/// (partial Fisher-Yates, deterministic).  Shared by `count --delete-frac`
/// and the `serve` driver's mixed ± session streams.
std::vector<EdgeUpdate> churn_deletes(const graph::EdgeList& g, double frac,
                                      std::uint64_t seed) {
  std::vector<EdgeUpdate> churn;
  if (frac <= 0.0 || g.empty()) return churn;
  const std::uint64_t m = g.num_edges();
  const auto n_del = static_cast<std::uint64_t>(frac * static_cast<double>(m));
  std::vector<std::uint64_t> order(m);
  for (std::uint64_t i = 0; i < m; ++i) order[i] = i;
  Xoshiro256ss rng(derive_seed(seed, 0xde1e7e));
  churn.reserve(n_del);
  for (std::uint64_t i = 0; i < n_del; ++i) {
    std::swap(order[i], order[i + rng.next_below(m - i)]);
    churn.push_back(delete_of(g[order[i]]));
  }
  return churn;
}

int cmd_generate(const Args& args) {
  const std::string kind = args.str("kind", "rmat");
  const EdgeCount edges = args.u64("edges", 100'000);
  const std::uint64_t seed = args.u64("seed", 42);
  const std::string out = args.str("out");
  if (out.empty()) usage();

  const graph::EdgeList g =
      generate_graph(kind, edges, seed, args.f64("scale", 0.5));
  // Extension-dispatched sink: text, .mtx, .bin or .pbin all work.
  graph::WriterOptions wopt;
  wopt.declared_edges = g.num_edges();
  wopt.declared_nodes = g.num_nodes();
  const auto writer = graph::make_edge_writer(out, wopt);
  writer->append(g.edges());
  writer->finish();
  std::printf("wrote %zu edges / %u nodes to %s\n", g.num_edges(),
              g.num_nodes(), out.c_str());
  return 0;
}

int cmd_convert(const Args& args) {
  const std::string in = args.str("in");
  const std::string out = args.str("out");
  if (in.empty() || out.empty()) usage();
  require_input_file(in);

  engine::IngestOptions iopt;
  iopt.reader.chunk_edges = args.u64("chunk-edges", std::size_t{1} << 20);
  iopt.reader.use_mmap = !args.flag("no-mmap");
  iopt.reader.verify_checksum = !args.flag("no-verify");
  const bool orient = args.flag("orient");
  // Orientation only makes sense loop-free (a loop has no lower endpoint);
  // dedup treats loops as junk too.
  iopt.drop_self_loops =
      args.flag("drop-loops") || args.flag("dedup") || orient;
  iopt.dedup = args.flag("dedup") ? engine::DedupMode::kGlobal
                                  : engine::DedupMode::kNone;

  // --orient pass 1: one streaming pass for the global degree table.
  std::vector<std::uint32_t> degrees;
  if (orient) degrees = engine::stream_degrees(in, iopt.reader);

  graph::ChunkedEdgeReader reader(in, iopt.reader);
  graph::WriterOptions wopt;
  wopt.with_checksum = !args.flag("no-checksum");
  const bool transforms =
      iopt.drop_self_loops || iopt.dedup != engine::DedupMode::kNone;
  if (!transforms) {
    // Counts survive the copy unchanged, so headers can be emitted in
    // final form (this is the byte-stable text -> pbin -> text path).
    wopt.declared_edges = reader.declared_edges();
    wopt.declared_nodes = reader.declared_nodes();
  }
  const auto writer = graph::make_edge_writer(out, wopt);

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<Edge> oriented;  // reused per-chunk transform buffer
  const engine::IngestStats s = engine::ingest_stream(
      reader,
      [&](std::span<const Edge> chunk) {
        if (!orient) {
          writer->append(chunk);
          return;
        }
        oriented.clear();
        oriented.reserve(chunk.size());
        for (const Edge& e : chunk) {
          // DODG orientation: lower (degree, id) endpoint first.
          const bool swap = degrees[e.v] < degrees[e.u] ||
                            (degrees[e.v] == degrees[e.u] && e.v < e.u);
          oriented.push_back(swap ? Edge{e.v, e.u} : e);
        }
        writer->append(oriented);
      },
      iopt);
  writer->finish();
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

  std::printf(
      "converted %s (%s%s) -> %s: %llu edges in, %llu out "
      "(%llu loops, %llu dups dropped)%s, %llu nodes, %.3f s (%.2f Medges/s)\n",
      in.c_str(), graph::to_string(reader.format()),
      s.mapped ? ", mmap" : "", out.c_str(),
      static_cast<unsigned long long>(s.edges_read),
      static_cast<unsigned long long>(s.edges_ingested),
      static_cast<unsigned long long>(s.self_loops_dropped),
      static_cast<unsigned long long>(s.duplicates_dropped),
      orient ? ", oriented" : "",
      static_cast<unsigned long long>(writer->node_bound()), wall_s,
      wall_s > 0.0
          ? static_cast<double>(s.edges_read) / wall_s / 1e6
          : 0.0);
  return 0;
}

int cmd_stats(const Args& args) {
  const std::string path = args.str("graph");
  if (path.empty()) usage();
  require_input_file(path);
  graph::EdgeList g = graph::read_coo(path);
  const graph::PreprocessStats pre = graph::remove_loops_and_duplicates(g);
  const graph::DegreeStats deg = graph::degree_stats(g);
  const TriangleCount tri = graph::reference_triangle_count(g);
  std::printf("%s\n", path.c_str());
  std::printf("  edges:       %zu (raw %zu; %zu loops, %zu dups removed)\n",
              g.num_edges(), pre.input_edges, pre.removed_self_loops,
              pre.removed_duplicates);
  std::printf("  nodes:       %u\n", g.num_nodes());
  std::printf("  triangles:   %llu\n", static_cast<unsigned long long>(tri));
  std::printf("  max degree:  %llu (node %u)\n",
              static_cast<unsigned long long>(deg.max_degree),
              deg.argmax_node);
  std::printf("  avg degree:  %.2f\n", deg.avg_degree);
  std::printf("  clustering:  %.4g\n", graph::global_clustering(g, tri));
  return 0;
}

int cmd_backends() {
  for (const std::string& name : engine::registered_backends()) {
    std::printf("%s\n", name.c_str());
  }
  return 0;
}

engine::EngineConfig config_from_args(const Args& args) {
  engine::EngineConfig cfg;
  // "auto" (or 0) derives the largest C filling the machine.  Anything
  // non-numeric other than "auto" is a typo, not a request for auto mode.
  const std::string colors = args.str("colors", "8");
  if (colors == "auto") {
    cfg.num_colors = 0;
  } else {
    char* end = nullptr;
    const unsigned long parsed = std::strtoul(colors.c_str(), &end, 10);
    // strtoul silently wraps negatives; reject them with the parse errors.
    if (colors[0] == '-' || end == colors.c_str() || *end != '\0') {
      throw std::invalid_argument("--colors must be a number or 'auto', got '" +
                                  colors + "'");
    }
    cfg.num_colors = static_cast<std::uint32_t>(parsed);
  }
  cfg.placement = color::placement_from_string(
      args.str("placement", color::to_string(cfg.placement)));
  cfg.rebalance_enabled = args.flag("rebalance");
  cfg.uniform_p = args.f64("p", 1.0);
  cfg.sample_capacity_edges = args.u64("capacity", 0);
  // --degree-remap needs the Misra-Gries summaries, so it implies them.
  cfg.degree_ordered_remap = args.flag("degree-remap");
  cfg.misra_gries_enabled =
      args.flag("misra-gries") || cfg.degree_ordered_remap;
  cfg.mg_top = args.u32("mg-top", 32);
  cfg.intersect = tc::intersect_policy_from_string(args.str("intersect", "auto"));
  cfg.gallop_margin = args.u32("gallop-margin", cfg.gallop_margin);
  cfg.cpu_fast_hub_degree = args.u32("hub-degree", cfg.cpu_fast_hub_degree);
  cfg.region_cache = !args.flag("no-region-cache");
  cfg.incremental = args.flag("incremental");
  cfg.host_threads = args.u32("threads", 0);
  cfg.seed = args.u64("seed", 42);
  cfg.staging_capacity_edges = args.u64("staging", 0);
  cfg.pipelined_ingest = !args.flag("no-pipeline");
  cfg.pim.dpus_per_rank = args.u32("dpus-per-rank", cfg.pim.dpus_per_rank);
  cfg.fault_spec = args.str("inject-faults", "");
  return cfg;
}

/// Outcome of the --exact-check parity run (second backend, same stream).
struct ParityCheck {
  bool ran = false;
  std::string backend;
  engine::CountReport report;
  double relative_err = 0.0;
  /// False only when two backends both claiming exactness disagree.
  [[nodiscard]] bool mismatch(const engine::CountReport& r) const {
    return ran && r.exact && report.exact && r.rounded() != report.rounded();
  }
};

/// The in-memory graph phase of `count`: read_coo, then the loop/dedup
/// filter, then the seeded shuffle (graph::preprocess split into its timed
/// steps).
struct GraphPreprocess {
  double read_s = 0.0;
  double dedup_s = 0.0;
  double shuffle_s = 0.0;
  graph::PreprocessStats stats;
};

/// Report printers take the session's edge/node meta directly (streamed
/// ingest has no in-memory EdgeList to hand them) plus the stats of
/// whichever graph phase ran: the ingest pipeline (out-of-core) or the
/// in-memory preprocess.
void print_report_json(const engine::CountReport& r, std::uint64_t edges,
                       std::uint64_t nodes, const engine::IngestStats* ingest,
                       const GraphPreprocess* pre,
                       const ParityCheck& parity) {
  std::printf(
      "{\"backend\":\"%s\",\"edges\":%llu,\"nodes\":%llu,"
      "\"estimate\":%.17g,\"rounded\":%llu,\"exact\":%s,"
      "\"raw_total\":%llu,"
      "\"times\":{\"setup_s\":%.9g,\"ingest_s\":%.9g,\"count_s\":%.9g,"
      "\"host_s\":%.9g,\"simulated\":%s},"
      "\"units\":{\"count\":%u,\"min_edges\":%llu,\"max_edges\":%llu,"
      "\"reservoir_overflows\":%llu},"
      "\"stream\":{\"streamed\":%llu,\"kept\":%llu,\"replicated\":%llu,"
      "\"used_incremental\":%s},"
      "\"work\":{\"conversion_ops\":%llu,\"intersection_steps\":%llu}",
      r.backend.c_str(), static_cast<unsigned long long>(edges),
      static_cast<unsigned long long>(nodes), r.estimate,
      static_cast<unsigned long long>(r.rounded()), r.exact ? "true" : "false",
      static_cast<unsigned long long>(r.raw_total), r.times.setup_s,
      r.times.ingest_s, r.times.count_s, r.times.host_s,
      r.simulated_times ? "true" : "false", r.num_units,
      static_cast<unsigned long long>(r.min_unit_edges),
      static_cast<unsigned long long>(r.max_unit_edges),
      static_cast<unsigned long long>(r.reservoir_overflows),
      static_cast<unsigned long long>(r.edges_streamed),
      static_cast<unsigned long long>(r.edges_kept),
      static_cast<unsigned long long>(r.edges_replicated),
      r.used_incremental ? "true" : "false",
      static_cast<unsigned long long>(r.work.conversion_ops),
      static_cast<unsigned long long>(r.work.intersection_steps));
  std::printf(",\"host_threads\":%u", r.host_threads);
  if (ingest != nullptr) {
    std::printf(
        ",\"ingest\":{\"chunks\":%llu,\"mapped\":%s,"
        "\"edges_read\":%llu,\"edges_ingested\":%llu,"
        "\"self_loops_dropped\":%llu,\"duplicates_dropped\":%llu,"
        "\"read_s\":%.9g,\"preprocess_s\":%.9g,\"feed_s\":%.9g}",
        static_cast<unsigned long long>(ingest->chunks),
        ingest->mapped ? "true" : "false",
        static_cast<unsigned long long>(ingest->edges_read),
        static_cast<unsigned long long>(ingest->edges_ingested),
        static_cast<unsigned long long>(ingest->self_loops_dropped),
        static_cast<unsigned long long>(ingest->duplicates_dropped),
        ingest->read_seconds, ingest->preprocess_seconds,
        ingest->feed_seconds);
  }
  if (pre != nullptr) {
    std::printf(
        ",\"preprocess\":{\"read_s\":%.9g,\"dedup_s\":%.9g,"
        "\"shuffle_s\":%.9g,\"self_loops_dropped\":%llu,"
        "\"duplicates_dropped\":%llu}",
        pre->read_s, pre->dedup_s, pre->shuffle_s,
        static_cast<unsigned long long>(pre->stats.removed_self_loops),
        static_cast<unsigned long long>(pre->stats.removed_duplicates));
  }
  if (r.edges_deleted > 0 || r.delete_misses > 0) {
    // Fully-dynamic stream diagnostics: deletions applied, resident-sample
    // evictions, detected no-op deletes, deletion-forced full passes.
    std::printf(
        ",\"dynamic\":{\"edges_deleted\":%llu,\"sample_evictions\":%llu,"
        "\"delete_misses\":%llu,\"dirty_full_recounts\":%u}",
        static_cast<unsigned long long>(r.edges_deleted),
        static_cast<unsigned long long>(r.sample_evictions),
        static_cast<unsigned long long>(r.delete_misses),
        r.dirty_full_recounts);
  }
  if (r.kernel.instructions > 0) {
    // Adaptive-intersection kernel diagnostics of the last recount.
    std::printf(
        ",\"kernel\":{\"intersect\":\"%s\",\"instructions\":%llu,"
        "\"count_instructions\":%llu,"
        "\"merge_isects\":%llu,\"gallop_isects\":%llu,\"bitmap_isects\":%llu,"
        "\"merge_picks\":%llu,\"gallop_probes\":%llu,\"bitmap_probes\":%llu,"
        "\"chunks_claimed\":%llu}",
        r.kernel.intersect.c_str(),
        static_cast<unsigned long long>(r.kernel.instructions),
        static_cast<unsigned long long>(r.kernel.count_instructions),
        static_cast<unsigned long long>(r.kernel.merge_isects),
        static_cast<unsigned long long>(r.kernel.gallop_isects),
        static_cast<unsigned long long>(r.kernel.bitmap_isects),
        static_cast<unsigned long long>(r.kernel.merge_picks),
        static_cast<unsigned long long>(r.kernel.gallop_probes),
        static_cast<unsigned long long>(r.kernel.bitmap_probes),
        static_cast<unsigned long long>(r.kernel.chunks_claimed));
  }
  if (r.num_colors > 0) {
    // Partition-planner diagnostics: per-kind load histogram (expected
    // N/3N/6N per core of kind 1/2/3), imbalance, placement, rebalances.
    std::printf(
        ",\"partition\":{\"colors\":%u,\"placement\":\"%s\","
        "\"dpu_utilization\":%.4g,\"load_imbalance\":%.4g,"
        "\"rebalances\":%u,\"kind_load\":[",
        r.num_colors, r.placement.c_str(), r.dpu_utilization,
        r.load_imbalance, r.rebalances);
    for (int k = 0; k < 3; ++k) {
      std::printf("%s{\"kind\":%d,\"units\":%u,\"edges_seen\":%llu}",
                  k ? "," : "", k + 1, r.kind_units[k],
                  static_cast<unsigned long long>(r.kind_edges_seen[k]));
    }
    std::printf("]}");
  }
  if (r.num_ranks > 0) {
    std::printf(
        ",\"transfers\":{\"ranks\":%u,"
        "\"push\":{\"count\":%llu,\"payload_bytes\":%llu,\"wire_bytes\":%llu},"
        "\"pull\":{\"count\":%llu,\"payload_bytes\":%llu,\"wire_bytes\":%llu},"
        "\"overlap_saved_s\":%.9g}",
        r.num_ranks,
        static_cast<unsigned long long>(r.transfers.push_transfers),
        static_cast<unsigned long long>(r.transfers.push_payload_bytes),
        static_cast<unsigned long long>(r.transfers.push_wire_bytes),
        static_cast<unsigned long long>(r.transfers.pull_transfers),
        static_cast<unsigned long long>(r.transfers.pull_payload_bytes),
        static_cast<unsigned long long>(r.transfers.pull_wire_bytes),
        r.transfers.overlap_saved_s);
  }
  if (!r.heavy_hitters.empty()) {
    std::printf(",\"heavy_hitters\":[");
    for (std::size_t i = 0; i < r.heavy_hitters.size(); ++i) {
      std::printf("%s{\"node\":%u,\"estimated_degree\":%llu}", i ? "," : "",
                  r.heavy_hitters[i].node,
                  static_cast<unsigned long long>(
                      r.heavy_hitters[i].estimated_degree));
    }
    std::printf("]");
  }
  if (r.faults.injected) {
    // Fault-injection outcome: recovery ledger plus the degraded-mode
    // estimator health (coverage of the surviving sample, error bound).
    const engine::CountReport::FaultStats& f = r.faults;
    std::printf(
        ",\"faults\":{\"degraded\":%s,\"coverage\":%.9g,\"error_bound\":%.9g,"
        "\"launch_transients\":%llu,\"launch_retries\":%llu,"
        "\"dead_dpus\":%llu,\"rank_outages\":%llu,"
        "\"rematerializations\":%llu,\"migrations\":%llu,"
        "\"dropped_triplets\":%llu,"
        "\"transfer_corruptions\":%llu,\"transfer_retries\":%llu,"
        "\"mram_bitflips\":%llu,\"sample_restores\":%llu,"
        "\"checksum_bytes\":%llu,\"detection_s\":%.9g,\"recovery_s\":%.9g}",
        f.degraded ? "true" : "false", f.coverage, f.error_bound,
        static_cast<unsigned long long>(f.launch_transients),
        static_cast<unsigned long long>(f.launch_retries),
        static_cast<unsigned long long>(f.dead_dpus),
        static_cast<unsigned long long>(f.rank_outages),
        static_cast<unsigned long long>(f.rematerializations),
        static_cast<unsigned long long>(f.migrations),
        static_cast<unsigned long long>(f.dropped_triplets),
        static_cast<unsigned long long>(f.transfer_corruptions),
        static_cast<unsigned long long>(f.transfer_retries),
        static_cast<unsigned long long>(f.mram_bitflips),
        static_cast<unsigned long long>(f.sample_restores),
        static_cast<unsigned long long>(f.checksum_bytes), f.detection_s,
        f.recovery_s);
  }
  if (parity.ran) {
    std::printf(",\"parity\":{\"backend\":\"%s\",\"rounded\":%llu,"
                "\"exact\":%s,\"relative_error\":%.9g,\"match\":%s}",
                parity.backend.c_str(),
                static_cast<unsigned long long>(parity.report.rounded()),
                parity.report.exact ? "true" : "false", parity.relative_err,
                parity.mismatch(r) ? "false" : "true");
  }
  std::printf("}\n");
}

void print_report_text(const engine::CountReport& r, std::uint64_t edges,
                       std::uint64_t nodes, const engine::IngestStats* ingest,
                       const GraphPreprocess* pre) {
  std::printf("graph:      %llu edges / %llu nodes\n",
              static_cast<unsigned long long>(edges),
              static_cast<unsigned long long>(nodes));
  if (ingest != nullptr) {
    std::printf("ingest:     %llu chunks%s | %llu read, %llu fed "
                "(%llu loops, %llu dups dropped) | read %.2f ms, "
                "preprocess %.2f ms, feed %.2f ms\n",
                static_cast<unsigned long long>(ingest->chunks),
                ingest->mapped ? " (mmap)" : "",
                static_cast<unsigned long long>(ingest->edges_read),
                static_cast<unsigned long long>(ingest->edges_ingested),
                static_cast<unsigned long long>(ingest->self_loops_dropped),
                static_cast<unsigned long long>(ingest->duplicates_dropped),
                ingest->read_seconds * 1e3, ingest->preprocess_seconds * 1e3,
                ingest->feed_seconds * 1e3);
  }
  if (pre != nullptr) {
    std::printf("preprocess: read %.2f ms, dedup %.2f ms, shuffle %.2f ms "
                "(%llu loops, %llu dups dropped)\n",
                pre->read_s * 1e3, pre->dedup_s * 1e3, pre->shuffle_s * 1e3,
                static_cast<unsigned long long>(pre->stats.removed_self_loops),
                static_cast<unsigned long long>(
                    pre->stats.removed_duplicates));
  }
  std::printf("backend:    %s\n", r.backend.c_str());
  std::printf("estimate:   %.0f (%s)\n", r.estimate,
              r.exact ? "exact" : "approximate");
  if (r.max_unit_edges > 0) {  // only backends with a per-unit load
    std::printf("units:      %u, load %llu..%llu edges, %llu overflowed "
                "reservoirs\n",
                r.num_units,
                static_cast<unsigned long long>(r.min_unit_edges),
                static_cast<unsigned long long>(r.max_unit_edges),
                static_cast<unsigned long long>(r.reservoir_overflows));
  }
  if (r.num_colors > 0) {
    std::printf("partition:  C=%u (%u cores, %.0f%% of machine) | %s | "
                "imbalance %.2fx | %u rebalances\n",
                r.num_colors, r.num_units, r.dpu_utilization * 100.0,
                r.placement.c_str(), r.load_imbalance, r.rebalances);
    std::printf("kind load:  1:%llu / 2:%llu / 3:%llu edges on %u/%u/%u "
                "cores (expected N/3N/6N per core)\n",
                static_cast<unsigned long long>(r.kind_edges_seen[0]),
                static_cast<unsigned long long>(r.kind_edges_seen[1]),
                static_cast<unsigned long long>(r.kind_edges_seen[2]),
                r.kind_units[0], r.kind_units[1], r.kind_units[2]);
  }
  if (r.kernel.instructions > 0) {
    std::printf("kernel:     %s intersect | %llu merge / %llu gallop / "
                "%llu bitmap intersections | %llu picks, %llu+%llu probes | "
                "%llu chunks | %llu count instr of %llu total\n",
                r.kernel.intersect.c_str(),
                static_cast<unsigned long long>(r.kernel.merge_isects),
                static_cast<unsigned long long>(r.kernel.gallop_isects),
                static_cast<unsigned long long>(r.kernel.bitmap_isects),
                static_cast<unsigned long long>(r.kernel.merge_picks),
                static_cast<unsigned long long>(r.kernel.gallop_probes),
                static_cast<unsigned long long>(r.kernel.bitmap_probes),
                static_cast<unsigned long long>(r.kernel.chunks_claimed),
                static_cast<unsigned long long>(r.kernel.count_instructions),
                static_cast<unsigned long long>(r.kernel.instructions));
  }
  if (r.edges_replicated > 0) {
    std::printf("replicated: %llu edges (C x kept %llu of %llu streamed)\n",
                static_cast<unsigned long long>(r.edges_replicated),
                static_cast<unsigned long long>(r.edges_kept),
                static_cast<unsigned long long>(r.edges_streamed));
  }
  if (r.edges_deleted > 0 || r.delete_misses > 0) {
    std::printf("dynamic:    %llu deletions | %llu sample evictions | "
                "%llu misses | %u deletion-forced full passes\n",
                static_cast<unsigned long long>(r.edges_deleted),
                static_cast<unsigned long long>(r.sample_evictions),
                static_cast<unsigned long long>(r.delete_misses),
                r.dirty_full_recounts);
  }
  std::printf("%s time:   setup %.2f ms | ingest %.2f ms | count %.2f ms "
              "(+%.2f ms local host)\n",
              r.simulated_times ? "sim" : "cpu", r.times.setup_s * 1e3,
              r.times.ingest_s * 1e3, r.times.count_s * 1e3,
              r.times.host_s * 1e3);
  if (r.num_ranks > 0) {
    const double pad = r.transfers.push_padding();
    std::printf("transfers:  %u ranks | %llu pushes, %.1f KB payload -> "
                "%.1f KB wire (x%.2f pad) | %llu pulls | overlap saved "
                "%.3f ms\n",
                r.num_ranks,
                static_cast<unsigned long long>(r.transfers.push_transfers),
                r.transfers.push_payload_bytes / 1024.0,
                r.transfers.push_wire_bytes / 1024.0, pad,
                static_cast<unsigned long long>(r.transfers.pull_transfers),
                r.transfers.overlap_saved_s * 1e3);
  }
  if (!r.heavy_hitters.empty()) {
    std::printf("heavy:      ");
    for (std::size_t i = 0; i < r.heavy_hitters.size(); ++i) {
      std::printf("%s%u(deg~%llu)", i ? " " : "", r.heavy_hitters[i].node,
                  static_cast<unsigned long long>(
                      r.heavy_hitters[i].estimated_degree));
    }
    std::printf("\n");
  }
  if (r.faults.injected) {
    const engine::CountReport::FaultStats& f = r.faults;
    std::printf("faults:     %llu transients (%llu retries) | %llu dead cores "
                "(%llu rank outages) | %llu rematerializations | "
                "%llu corruptions (%llu repaired) | %llu bitflips "
                "(%llu restores) | detect %.3f ms, recover %.3f ms\n",
                static_cast<unsigned long long>(f.launch_transients),
                static_cast<unsigned long long>(f.launch_retries),
                static_cast<unsigned long long>(f.dead_dpus),
                static_cast<unsigned long long>(f.rank_outages),
                static_cast<unsigned long long>(f.rematerializations),
                static_cast<unsigned long long>(f.transfer_corruptions),
                static_cast<unsigned long long>(f.transfer_retries),
                static_cast<unsigned long long>(f.mram_bitflips),
                static_cast<unsigned long long>(f.sample_restores),
                f.detection_s * 1e3, f.recovery_s * 1e3);
    if (f.degraded) {
      std::printf("degraded:   %llu triplets lost | coverage %.4f | "
                  "relative error bound %.2f%%\n",
                  static_cast<unsigned long long>(f.dropped_triplets),
                  f.coverage, f.error_bound * 100.0);
    }
  }
}

int cmd_count(const Args& args) {
  const std::string path = args.str("graph");
  const std::string stream_path = args.str("stream");
  if (path.empty() && stream_path.empty()) usage();
  const std::uint64_t seed = args.u64("seed", 42);
  const double delete_frac = args.f64("delete-frac", 0.0);
  if (delete_frac > 1.0) {
    throw std::invalid_argument("--delete-frac must be in [0, 1]");
  }
  if (delete_frac > 0.0 && path.empty()) {
    throw std::invalid_argument(
        "--delete-frac deletes a random fraction of the graph's edges and "
        "needs --graph");
  }

  // --chunk-edges switches the graph phase to out-of-core streaming: the
  // file is chunk-fed into the engine session (O(chunk) memory, no
  // EdgeList).  Streaming dedups and drops loops while feeding (like
  // graph::preprocess minus the shuffle, which needs the whole list)
  // unless --no-dedup asks for the raw stream.
  const bool streamed_ingest = args.flag("chunk-edges");
  if (streamed_ingest && path.empty()) {
    throw std::invalid_argument("--chunk-edges streams --graph and needs it");
  }
  if (streamed_ingest && delete_frac > 0.0) {
    throw std::invalid_argument(
        "--delete-frac samples the in-memory graph and cannot combine with "
        "--chunk-edges streaming; churn the file with a --stream instead");
  }
  engine::IngestOptions iopt;
  iopt.reader.chunk_edges = args.u64("chunk-edges", std::size_t{1} << 20);
  iopt.reader.use_mmap = !args.flag("no-mmap");
  if (streamed_ingest && !args.flag("no-dedup")) {
    iopt.drop_self_loops = true;
    iopt.dedup = engine::DedupMode::kGlobal;
  }

  if (!path.empty()) require_input_file(path);
  if (!stream_path.empty()) require_input_file(stream_path);

  graph::EdgeList g;
  GraphPreprocess pre;
  const bool in_memory = !path.empty() && !streamed_ingest;
  if (in_memory) {
    WallTimer timer;
    g = graph::read_coo(path);
    pre.read_s = timer.elapsed_s();
    timer.reset();
    pre.stats = graph::remove_loops_and_duplicates(g);
    pre.dedup_s = timer.elapsed_s();
    timer.reset();
    graph::shuffle_edges(g, seed);
    pre.shuffle_s = timer.elapsed_s();
  }

  // The session's update phases: the graph (all inserts), then the replayed
  // ± stream, then the synthetic churn — a seeded random delete_frac
  // sample of the graph's edges (partial Fisher-Yates, deterministic).
  std::vector<EdgeUpdate> stream;
  if (!stream_path.empty()) stream = graph::read_update_stream(stream_path);
  const std::vector<EdgeUpdate> churn = churn_deletes(g, delete_frac, seed);
  const bool mixed =
      !churn.empty() ||
      std::any_of(stream.begin(), stream.end(),
                  [](const EdgeUpdate& u) { return !u.is_insert; });

  const std::string backend = args.str("backend", "pim");
  const engine::EngineConfig cfg = config_from_args(args);

  // One session replay, shared with the parity run so both backends see
  // the identical phase sequence (streamed runs re-stream the file with
  // the same chunking, so arrival order matches batch for batch).
  engine::IngestStats ingest_stats;
  const auto run_session = [&](const std::string& name) {
    auto eng = engine::make_engine(name, cfg);
    if (!path.empty()) {
      if (streamed_ingest) {
        ingest_stats = engine::ingest_file(*eng, path, iopt);
      } else {
        eng->add_edges(g.edges());
      }
    }
    if (!stream.empty()) eng->apply(stream);
    if (!churn.empty()) eng->apply(churn);
    return eng->recount();
  };
  const engine::CountReport r = run_session(backend);

  ParityCheck parity;
  if (args.flag("exact-check")) {
    // Parity run: a second backend over the same update sequence through
    // the same engine code path.  Mixed ± streams default to the exact
    // fully-dynamic oracle.
    parity.ran = true;
    // cpu-fast is the default oracle (same exact count, ~4x cheaper); when
    // it is itself the backend under test, fall back to the deliberately
    // independent implementations (the dynamic adjacency oracle for ±
    // streams, the CSR baseline otherwise).
    const std::string fallback =
        mixed ? (backend == "cpu-fast" ? "cpu-incremental" : "cpu-fast")
              : (backend == "cpu-fast" ? "cpu" : "cpu-fast");
    parity.backend = args.str("check-backend", fallback);
    parity.report = run_session(parity.backend);
    parity.relative_err = relative_error(r.estimate, parity.report.estimate);
  }

  const std::uint64_t meta_edges =
      streamed_ingest ? ingest_stats.edges_ingested : g.num_edges();
  const std::uint64_t meta_nodes =
      streamed_ingest ? ingest_stats.node_bound : g.num_nodes();
  const engine::IngestStats* ingest_ptr =
      streamed_ingest ? &ingest_stats : nullptr;
  const GraphPreprocess* pre_ptr = in_memory ? &pre : nullptr;
  if (args.flag("json")) {
    print_report_json(r, meta_edges, meta_nodes, ingest_ptr, pre_ptr, parity);
  } else {
    print_report_text(r, meta_edges, meta_nodes, ingest_ptr, pre_ptr);
    if (parity.ran) {
      std::printf("parity:     %s says %llu (relative error %.4f%%)\n",
                  parity.backend.c_str(),
                  static_cast<unsigned long long>(parity.report.rounded()),
                  parity.relative_err * 100.0);
    }
  }

  if (parity.mismatch(r)) {
    std::fprintf(stderr, "MISMATCH between exact backends %s and %s — a bug\n",
                 backend.c_str(), parity.backend.c_str());
    return 1;
  }
  return 0;
}

/// p50/p99/max of a latency sample set, in milliseconds.
struct LatencySummary {
  std::size_t samples = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

LatencySummary summarize_latency(std::vector<double> seconds) {
  LatencySummary out;
  out.samples = seconds.size();
  if (seconds.empty()) return out;
  std::sort(seconds.begin(), seconds.end());
  const auto quantile = [&](double p) {
    const auto idx = static_cast<std::size_t>(
        p * static_cast<double>(seconds.size() - 1));
    return seconds[idx] * 1e3;
  };
  out.p50_ms = quantile(0.50);
  out.p99_ms = quantile(0.99);
  out.max_ms = seconds.back() * 1e3;
  return out;
}

int cmd_serve(const Args& args) {
  const std::uint32_t num_sessions = args.u32("sessions", 8);
  if (num_sessions == 0) {
    throw std::invalid_argument("--sessions must be >= 1");
  }
  const EdgeCount session_edges = args.u64("session-edges", 20'000);
  const std::uint64_t batch_updates = args.u64("batch-updates", 512);
  if (batch_updates == 0) {
    throw std::invalid_argument("--batch-updates must be >= 1");
  }
  // --graph bulk-loads one file into every session through the chunked
  // ingest path instead of generating per-session graphs; churn needs the
  // generated in-memory edges, so the two are mutually exclusive.
  const std::string graph_path = args.str("graph");
  const double delete_frac =
      args.f64("delete-frac", graph_path.empty() ? 0.2 : 0.0);
  if (delete_frac > 1.0) {
    throw std::invalid_argument("--delete-frac must be in [0, 1]");
  }
  if (!graph_path.empty() && delete_frac > 0.0) {
    throw std::invalid_argument(
        "--graph streams a file into every session and cannot combine with "
        "--delete-frac churn (which samples generated graphs)");
  }
  if (!graph_path.empty()) require_input_file(graph_path);
  const std::size_t ingest_chunk =
      args.u64("chunk-edges", std::size_t{1} << 20);
  const bool ingest_mmap = !args.flag("no-mmap");
  const std::string kind = args.str("kind", "community");
  const std::string backend = args.str("backend", "pim");
  const std::uint64_t seed = args.u64("seed", 42);
  const std::uint32_t num_queriers = args.u32("queriers", 2);
  const bool check_parity = !args.flag("no-parity");
  const serve::AdmissionPolicy policy =
      serve::admission_policy_from_string(args.str("policy", "block"));

  serve::ServeConfig scfg;
  scfg.workers = args.u64("workers", 0);
  scfg.queue_capacity_updates =
      args.u64("queue-cap", scfg.queue_capacity_updates);
  scfg.staging_budget_updates = args.u64("budget", 0);
  scfg.recount_every_batches = args.u32("recount-every", 1);
  scfg.session_host_threads =
      args.u32("session-threads", scfg.session_host_threads);
  scfg.recount_retries = args.u32("recount-retries", scfg.recount_retries);
  const engine::EngineConfig ecfg = config_from_args(args);

  // Each tenant's workload is built up front and deterministically from its
  // own derived seed: its graph's edges as inserts, then the churn deletes.
  struct Tenant {
    std::string name;
    std::vector<EdgeUpdate> updates;
    std::vector<std::uint8_t> batch_accepted;  ///< filled by the submitter
    serve::QueryResult final_result;
    std::vector<double> latency_s;
    double oracle_estimate = 0.0;
    bool parity_match = true;
  };
  std::vector<Tenant> tenants(num_sessions);
  for (std::uint32_t i = 0; i < num_sessions; ++i) {
    Tenant& t = tenants[i];
    t.name = "s" + std::to_string(i);
    if (!graph_path.empty()) continue;  // workload is the streamed file
    const std::uint64_t tseed = derive_seed(seed, 0x5e55'0000ull + i);
    graph::EdgeList g =
        generate_graph(kind, session_edges, tseed, args.f64("scale", 0.5));
    graph::preprocess(g, tseed);
    const std::vector<EdgeUpdate> churn = churn_deletes(g, delete_frac, tseed);
    t.updates.reserve(g.num_edges() + churn.size());
    for (const Edge& e : g.edges()) t.updates.push_back(insert_of(e));
    t.updates.insert(t.updates.end(), churn.begin(), churn.end());
  }

  serve::SessionManager mgr(scfg);
  for (const Tenant& t : tenants) mgr.open(t.name, backend, ecfg, policy);

  // Queriers hammer snapshot reads for the whole ingest window and verify
  // that each session's published epoch never goes backwards.
  std::atomic<bool> done{false};
  std::atomic<bool> epoch_regressed{false};
  std::atomic<std::uint64_t> queries_served{0};
  std::vector<std::thread> queriers;
  queriers.reserve(num_queriers);
  for (std::uint32_t q = 0; q < num_queriers; ++q) {
    queriers.emplace_back([&, q] {
      std::vector<std::uint64_t> last_epoch(tenants.size(), 0);
      std::uint64_t local = 0;
      for (std::uint64_t spin = q; !done.load(std::memory_order_relaxed);
           ++spin) {
        const std::size_t i = spin % tenants.size();
        const serve::QueryResult r = mgr.query(tenants[i].name);
        if (r.epoch < last_epoch[i]) {
          epoch_regressed.store(true, std::memory_order_relaxed);
        }
        last_epoch[i] = r.epoch;
        ++local;
      }
      queries_served.fetch_add(local, std::memory_order_relaxed);
    });
  }

  const auto wall_start = std::chrono::steady_clock::now();
  // File bulk-load phase: every session swallows the file chunk-at-a-time
  // (concurrent with the querier load).  The soft queue bound guarantees
  // each chunk batch is eventually admitted under kBlock; anything other
  // than full acceptance is a configuration error worth failing loudly.
  std::uint64_t file_updates_per_session = 0;
  if (!graph_path.empty()) {
    std::vector<std::thread> loaders;
    std::vector<serve::FileIngestResult> results(tenants.size());
    loaders.reserve(tenants.size());
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      loaders.emplace_back([&mgr, &tenants, &results, &graph_path,
                            ingest_chunk, ingest_mmap, i] {
        results[i] = mgr.ingest_file(tenants[i].name, graph_path,
                                     ingest_chunk, ingest_mmap);
      });
    }
    for (std::thread& th : loaders) th.join();
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      if (results[i].result != serve::SubmitResult::kAccepted) {
        throw std::runtime_error(
            std::string("serve ingest into ") + tenants[i].name +
            " not fully accepted (" + serve::to_string(results[i].result) +
            "); raise --queue-cap/--budget or use --policy=block");
      }
      file_updates_per_session = results[i].updates;
    }
  }
  std::vector<std::thread> submitters;
  submitters.reserve(tenants.size());
  for (Tenant& t : tenants) {
    submitters.emplace_back([&mgr, &t, batch_updates] {
      const std::span<const EdgeUpdate> all(t.updates);
      for (std::size_t off = 0; off < all.size(); off += batch_updates) {
        const std::size_t len = std::min<std::size_t>(batch_updates,
                                                      all.size() - off);
        const serve::SubmitResult res =
            mgr.submit(t.name, all.subspan(off, len));
        t.batch_accepted.push_back(res == serve::SubmitResult::kAccepted);
      }
    });
  }
  for (std::thread& th : submitters) th.join();
  // Read-your-writes barrier: the final query covers every accepted batch.
  for (Tenant& t : tenants) t.final_result = mgr.flush(t.name);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  done.store(true);
  for (std::thread& th : queriers) th.join();

  for (Tenant& t : tenants) {
    t.latency_s = mgr.latencies(t.name);
    mgr.close(t.name);
  }

  // Parity oracle: a fresh engine under the byte-identical resolved config
  // replays exactly the accepted batches, serially.  Both counts must agree
  // bit-for-bit (recounts are cadence-invariant).
  bool parity_ok = true;
  if (check_parity) {
    const engine::EngineConfig resolved = mgr.resolve_engine_config(ecfg);
    for (Tenant& t : tenants) {
      auto oracle = engine::make_engine(backend, resolved);
      if (!graph_path.empty()) {
        // The session saw the raw file in ingest_chunk-edge insert batches;
        // re-streaming with the same chunking reproduces that batch-for-batch.
        engine::IngestOptions oracle_iopt;
        oracle_iopt.reader.chunk_edges = ingest_chunk;
        oracle_iopt.reader.use_mmap = ingest_mmap;
        engine::ingest_file(*oracle, graph_path, oracle_iopt);
      }
      const std::span<const EdgeUpdate> all(t.updates);
      std::size_t batch_idx = 0;
      for (std::size_t off = 0; off < all.size();
           off += batch_updates, ++batch_idx) {
        const std::size_t len = std::min<std::size_t>(batch_updates,
                                                      all.size() - off);
        if (t.batch_accepted[batch_idx]) oracle->apply(all.subspan(off, len));
      }
      t.oracle_estimate = oracle->recount().estimate;
      t.parity_match = t.oracle_estimate == t.final_result.estimate;
      parity_ok = parity_ok && t.parity_match;
    }
  }

  std::uint64_t total_updates = 0;
  std::uint64_t total_accepted = 0;
  std::uint64_t total_rejected = 0;
  std::vector<double> all_latencies;
  for (const Tenant& t : tenants) {
    total_updates += t.updates.size() + file_updates_per_session;
    total_accepted += t.final_result.stats.updates_accepted;
    total_rejected += t.final_result.stats.updates_rejected;
    all_latencies.insert(all_latencies.end(), t.latency_s.begin(),
                         t.latency_s.end());
  }
  const LatencySummary agg = summarize_latency(std::move(all_latencies));
  const bool monotonic = !epoch_regressed.load();

  if (args.flag("json")) {
    std::printf(
        "{\"sessions\":%u,\"backend\":\"%s\",\"policy\":\"%s\","
        "\"kind\":\"%s\",\"batch_updates\":%llu,\"delete_frac\":%.4g,"
        "\"queriers\":%u,\"wall_s\":%.6g,"
        "\"updates_submitted\":%llu,\"updates_accepted\":%llu,"
        "\"updates_rejected\":%llu,\"queries_served\":%llu,"
        "\"accepted_updates_per_s\":%.6g,"
        "\"epochs_monotonic\":%s,\"parity_checked\":%s,\"parity_ok\":%s,"
        "\"latency_ms\":{\"samples\":%zu,\"p50\":%.6g,\"p99\":%.6g,"
        "\"max\":%.6g},\"per_session\":[",
        num_sessions, backend.c_str(), serve::to_string(policy), kind.c_str(),
        static_cast<unsigned long long>(batch_updates), delete_frac,
        num_queriers, wall_s,
        static_cast<unsigned long long>(total_updates),
        static_cast<unsigned long long>(total_accepted),
        static_cast<unsigned long long>(total_rejected),
        static_cast<unsigned long long>(queries_served.load()),
        wall_s > 0.0 ? static_cast<double>(total_accepted) / wall_s : 0.0,
        monotonic ? "true" : "false", check_parity ? "true" : "false",
        parity_ok ? "true" : "false", agg.samples, agg.p50_ms, agg.p99_ms,
        agg.max_ms);
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      const Tenant& t = tenants[i];
      const LatencySummary lat = summarize_latency(t.latency_s);
      std::printf(
          "%s{\"name\":\"%s\",\"updates\":%zu,"
          "\"batches_accepted\":%llu,\"batches_rejected\":%llu,"
          "\"epoch\":%llu,\"estimate\":%.17g,\"rounded\":%llu,\"exact\":%s,"
          "\"latency_ms\":{\"samples\":%zu,\"p50\":%.6g,\"p99\":%.6g,"
          "\"max\":%.6g}",
          i ? "," : "", t.name.c_str(),
          t.updates.size() + file_updates_per_session,
          static_cast<unsigned long long>(
              t.final_result.stats.batches_accepted),
          static_cast<unsigned long long>(
              t.final_result.stats.batches_rejected),
          static_cast<unsigned long long>(t.final_result.epoch),
          t.final_result.estimate,
          static_cast<unsigned long long>(t.final_result.report.rounded()),
          t.final_result.exact ? "true" : "false", lat.samples, lat.p50_ms,
          lat.p99_ms, lat.max_ms);
      if (check_parity) {
        std::printf(",\"parity\":{\"oracle_estimate\":%.17g,\"match\":%s}",
                    t.oracle_estimate, t.parity_match ? "true" : "false");
      }
      std::printf("}");
    }
    std::printf("]}\n");
  } else {
    std::printf("serve: %u sessions | backend %s | policy %s | %llu-update "
                "batches | %u queriers\n",
                num_sessions, backend.c_str(), serve::to_string(policy),
                static_cast<unsigned long long>(batch_updates), num_queriers);
    for (const Tenant& t : tenants) {
      const LatencySummary lat = summarize_latency(t.latency_s);
      std::printf("  %-4s %zu updates | epoch %llu | count %llu%s | "
                  "p50 %.2f ms p99 %.2f ms",
                  t.name.c_str(),
                  t.updates.size() + file_updates_per_session,
                  static_cast<unsigned long long>(t.final_result.epoch),
                  static_cast<unsigned long long>(
                      t.final_result.report.rounded()),
                  t.final_result.exact ? "" : " (approx)", lat.p50_ms,
                  lat.p99_ms);
      if (check_parity) {
        std::printf(" | parity %s", t.parity_match ? "ok" : "MISMATCH");
      }
      std::printf("\n");
    }
    std::printf("total: %llu updates accepted (%llu rejected) in %.3f s "
                "(%.0f updates/s) | %llu queries | epochs %s\n",
                static_cast<unsigned long long>(total_accepted),
                static_cast<unsigned long long>(total_rejected), wall_s,
                wall_s > 0.0 ? static_cast<double>(total_accepted) / wall_s
                             : 0.0,
                static_cast<unsigned long long>(queries_served.load()),
                monotonic ? "monotonic" : "REGRESSED");
    std::printf("latency: p50 %.2f ms | p99 %.2f ms | max %.2f ms "
                "(%zu samples)\n",
                agg.p50_ms, agg.p99_ms, agg.max_ms, agg.samples);
  }

  if (!parity_ok) {
    std::fprintf(stderr,
                 "MISMATCH: a session's served count differs from its serial "
                 "replay — a bug\n");
    return 1;
  }
  if (!monotonic) {
    std::fprintf(stderr, "MISMATCH: a session's epoch went backwards — a "
                         "bug\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  const Args args(argc, argv, 2, usage);
  try {
    if (cmd == "generate") return cmd_generate(args);
    if (cmd == "convert") return cmd_convert(args);
    if (cmd == "stats") return cmd_stats(args);
    if (cmd == "count") return cmd_count(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "backends") return cmd_backends();
  } catch (const graph::IoError& e) {
    // One clean line per bad input file, documented exit status (README
    // "Exit codes"); the generic handler below keeps the legacy shape for
    // config/usage errors.
    std::fprintf(stderr, "error: %s: %s\n", e.path().c_str(),
                 e.reason().c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pimtc: %s\n", e.what());
    return 2;
  }
  usage();
}
