#include "tc/kernel.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "common/math_util.hpp"
#include "tc/intersect.hpp"

namespace pimtc::tc {

/// Host copies of the arrays one kernel run works on, reused by every
/// kernel that takes this set out of its KernelScratchPool.
struct KernelScratch {
  std::vector<Edge> in;       ///< raw sample records
  std::vector<Edge> edges;    ///< the records being sorted, then counted
  std::vector<std::uint64_t> keys;      ///< sort: edge keys
  std::vector<std::uint32_t> runs;      ///< sort: each key's input run
  std::vector<std::uint64_t> tmp_keys;  ///< sort: radix / merge-pass input
  std::vector<std::uint32_t> tmp_runs;  ///< sort: radix scratch
  std::vector<Edge> old;      ///< persisted S* (incremental)
  std::vector<Edge> merged;   ///< S* + batch (incremental)
  std::vector<std::uint8_t> flags;
  std::vector<RegionEntry> regions;
  RegionCache cache;
};

namespace {

using pim::Dpu;
using pim::Tasklet;

// ---------------------------------------------------------------------------
// High-degree remap table (WRAM open-addressing hash, Section 3.5)
// ---------------------------------------------------------------------------

/// One slot of the WRAM-resident remap hash table; kInvalidNode = empty.
struct RemapEntry {
  NodeId from;
  NodeId to;
};

class RemapTable {
 public:
  /// Builds the table (tasklet-0 boot work).  The table models a
  /// *statically allocated* WRAM structure that lives for the whole kernel
  /// — unlike the per-phase stream buffers — so it owns its storage here;
  /// its WRAM footprint is budgeted in clamp_buffers().  `num_remap` may be
  /// 0, yielding a no-op table.
  RemapTable(Dpu& dpu, const KernelParams& p, std::uint32_t num_remap) {
    if (num_remap == 0) return;
    slots_ = 16;
    while (slots_ < 4ull * num_remap) slots_ *= 2;
    storage_.assign(slots_, RemapEntry{kInvalidNode, kInvalidNode});
    table_ = storage_;

    dpu.parallel(1, [&](Tasklet& t) {
      std::vector<NodeId> by_rank(num_remap);
      t.mram_read(MramLayout::kRemapOffset, by_rank.data(),
                  by_rank.size() * sizeof(NodeId));
      for (std::uint32_t r = 0; r < num_remap; ++r) {
        std::uint64_t slot = mix64(by_rank[r]) & (slots_ - 1);
        while (table_[slot].from != kInvalidNode) {
          slot = (slot + 1) & (slots_ - 1);
        }
        table_[slot] = RemapEntry{by_rank[r], remapped_id(r)};
      }
      t.instr((num_remap + slots_) * p.cost.remap_lookup);
    });
  }

  [[nodiscard]] bool empty() const noexcept { return slots_ == 0; }

  /// Maps `node`, accumulating probe count into `probes` (the caller
  /// charges remap_lookup instructions per probe).
  [[nodiscard]] NodeId lookup(NodeId node, std::uint64_t& probes) const {
    if (slots_ == 0) return node;
    std::uint64_t slot = mix64(node) & (slots_ - 1);
    for (;;) {
      ++probes;
      const RemapEntry e = table_[slot];
      if (e.from == node) return e.to;
      if (e.from == kInvalidNode) return node;
      slot = (slot + 1) & (slots_ - 1);
    }
  }

 private:
  std::vector<RemapEntry> storage_;
  std::span<RemapEntry> table_{};
  std::uint64_t slots_ = 0;
};

// ---------------------------------------------------------------------------
// Host execution
// ---------------------------------------------------------------------------
//
// Every phase below runs natively on host copies of the bank arrays and
// charges the DMA bursts and instructions of the modeled UPMEM kernel —
// whose sequence is fixed by the phase's sizes, not by how the host moves
// the bytes (DESIGN.md, "Simulator execution vs. modeled cost").  What
// later launches and the host read — S*, the region index, the cleared
// new-flags — is written to the bank; the scratch buffers A/B stay
// host-side, bounds-checked against the bank.  WRAM buffers are still
// allocated from the arena (reserve()), so a configuration that would not
// fit the scratchpad fails as before.

/// Reads `n` records at `offset` of the bank into `out`.
template <typename T>
void load(const Dpu& dpu, std::uint64_t offset, std::uint64_t n,
          std::vector<T>& out) {
  out.resize(n);
  if (n > 0) dpu.mram().read(offset, out.data(), n * sizeof(T));
}

/// Writes `records` to the bank at `offset` (nothing for an empty span,
/// like a stream that never flushed).
template <typename T>
void store(Dpu& dpu, std::uint64_t offset, std::span<const T> records) {
  if (!records.empty()) {
    dpu.mram().write(offset, records.data(), records.size_bytes());
  }
}

/// LSD radix sort of `keys` (8-bit digits), permuting `tags` alongside:
/// stable, so equal keys keep their input order.  Digits on which every
/// key agrees are skipped.  `tmp_keys` / `tmp_tags` are scratch.
void radix_sort(std::vector<std::uint64_t>& keys,
                std::vector<std::uint32_t>& tags,
                std::vector<std::uint64_t>& tmp_keys,
                std::vector<std::uint32_t>& tmp_tags) {
  const std::size_t n = keys.size();
  std::uint64_t all_or = 0;
  std::uint64_t all_and = ~0ull;
  for (const std::uint64_t k : keys) {
    all_or |= k;
    all_and &= k;
  }
  const std::uint64_t varying = all_or ^ all_and;
  tmp_keys.resize(n);
  tmp_tags.resize(n);
  std::array<std::size_t, 256> slot{};
  for (unsigned shift = 0; shift < 64; shift += 8) {
    if (((varying >> shift) & 0xff) == 0) continue;
    slot.fill(0);
    for (const std::uint64_t k : keys) ++slot[(k >> shift) & 0xff];
    std::size_t sum = 0;
    for (std::size_t& c : slot) {
      const std::size_t count = c;
      c = sum;
      sum += count;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t to = slot[(keys[i] >> shift) & 0xff]++;
      tmp_keys[to] = keys[i];
      tmp_tags[to] = tags[i];
    }
    keys.swap(tmp_keys);
    tags.swap(tmp_tags);
  }
}

/// Copies edges [src_begin, src_end) of the raw sample into `dst` (0-based),
/// applying the remap.  Canonical mode emits one u<v record per edge; arc
/// mode emits both orientations (2 records per edge, for the S* pipeline).
/// `dst` is kernel scratch: the records stay in `host.edges`, host-side.
void copy_remap(Dpu& dpu, const KernelParams& p, const RemapTable& remap,
                std::uint64_t src, std::uint64_t src_begin,
                std::uint64_t src_end, std::uint64_t dst, bool arcs,
                KernelScratch& host) {
  const std::uint64_t n = src_end - src_begin;
  std::vector<Edge>& in = host.in;
  std::vector<Edge>& out = host.edges;
  load(dpu, src + src_begin * sizeof(Edge), n, in);
  out.resize(arcs ? 2 * n : n);
  dpu.parallel(p.tasklets, [&](Tasklet& t) {
    const Block blk = block_of(n, t.id(), p.tasklets);
    if (blk.begin >= blk.end) return;
    dpu.wram().reserve<Edge>(p.buffer_edges);  // read buffer
    dpu.wram().reserve<Edge>(p.buffer_edges);  // write buffer
    std::uint64_t probes = 0;
    for (std::uint64_t i = blk.begin; i < blk.end; ++i) {
      Edge e = in[i];
      if (!remap.empty()) {
        e.u = remap.lookup(e.u, probes);
        e.v = remap.lookup(e.v, probes);
      }
      const Edge c = e.canonical();
      if (arcs) {
        out[2 * i] = c;
        out[2 * i + 1] = c.reversed();
      } else {
        out[i] = c;
      }
    }
    const std::uint64_t len = blk.end - blk.begin;
    charge_stream(t, len, p.buffer_edges, sizeof(Edge));
    charge_stream(t, arcs ? 2 * len : len, p.buffer_edges, sizeof(Edge));
    t.instr(len * (p.cost.edge_copy + p.cost.loop_overhead) +
            probes * p.cost.remap_lookup);
  });
  if (!out.empty()) dpu.mram().check_range(dst, out.size() * sizeof(Edge));
}

/// External merge sort of the n edges `host.edges` staged at `off_a`,
/// ping-pong with `off_b`.  Sorts them and returns the offset of the buffer
/// the modeled kernel leaves the sorted run in.  Resets WRAM.
///
/// Chunk size adapts downward for small inputs so every tasklet has work
/// (an idle pipeline issues one instruction per 11 cycles per tasklet), and
/// merge passes with fewer runs than tasklets are co-partitioned with
/// merge-path splitting so the last passes stay parallel.
///
/// Host execution: the chunk sorts and merges cost what the sizes say, so
/// the host sorts the keys once (radix) and charges each pass in closed
/// form.  Only the co-partitioned passes depend on the data — their split
/// points — and for those the pass's input (each run sorted on its own) is
/// rebuilt from the sorted keys by a stable scatter on the run each key
/// came from.  Both scratch buffers stay host-side, bounds-checked against
/// the bank.
std::uint64_t external_sort(Dpu& dpu, const KernelParams& p,
                            std::uint64_t off_a, std::uint64_t off_b,
                            KernelScratch& host) {
  std::vector<Edge>& edges = host.edges;
  const std::uint64_t n = edges.size();
  if (n <= 1) return off_a;

  // Stage 1 sorts WRAM-resident chunks.  Every tasklet holds a chunk buffer
  // simultaneously, so chunk size is bounded by WRAM/tasklets (half the
  // arena, leaving room for stack/locals like a real kernel).
  const std::uint64_t max_chunk = std::max<std::uint64_t>(
      16, dpu.wram().capacity() / (2ull * p.tasklets * sizeof(Edge)));
  const std::uint64_t chunk =
      std::max<std::uint64_t>(8, std::min(max_chunk,
                                          ceil_div(n, p.tasklets)));
  // Width of the first co-partitioned merge pass (0: none).
  std::uint64_t split_width = 0;
  for (std::uint64_t width = chunk; width < n; width *= 2) {
    if (p.tasklets / ceil_div(n, width * 2) > 1) {
      split_width = width;
      break;
    }
  }

  // Sort the keys, each tagged with its run of split_width records.
  std::vector<std::uint64_t>& keys = host.keys;
  std::vector<std::uint32_t>& runs = host.runs;
  keys.resize(n);
  runs.resize(n);
  std::uint32_t run = 0;
  std::uint64_t in_run = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    keys[i] = edge_key(edges[i]);
    runs[i] = run;
    if (++in_run == split_width) {
      in_run = 0;
      ++run;
    }
  }
  radix_sort(keys, runs, host.tmp_keys, host.tmp_runs);
  for (std::uint64_t i = 0; i < n; ++i) edges[i] = edge_from_key(keys[i]);

  dpu.wram().reset();
  dpu.parallel(p.tasklets, [&](Tasklet& t) {
    dpu.wram().reserve<Edge>(chunk);
    for (std::uint64_t begin = t.id() * chunk; begin < n;
         begin += static_cast<std::uint64_t>(p.tasklets) * chunk) {
      const std::uint64_t len = std::min(chunk, n - begin);
      t.dma(len * sizeof(Edge), 2);  // chunk in, sorted chunk out
      t.instr(len * (ceil_log2(len) + 1) * p.cost.sort_step);
    }
  });

  // Stage 2: ping-pong merge passes until a single run remains.
  if (chunk < n) dpu.mram().check_range(off_b, n * sizeof(Edge));
  std::uint64_t src_off = off_a;
  std::uint64_t dst_off = off_b;
  std::vector<std::uint64_t>& runs_in = host.tmp_keys;  // a pass's input
  std::vector<std::uint64_t> next;
  for (std::uint64_t width = chunk; width < n; width *= 2) {
    dpu.wram().reset();
    const std::uint64_t pairs = ceil_div(n, width * 2);
    const std::uint32_t ways = static_cast<std::uint32_t>(
        std::max<std::uint64_t>(1, p.tasklets / pairs));
    if (ways > 1) {
      // This pass's input: every run of `width` records sorted on its own.
      const unsigned level = static_cast<unsigned>(
          std::countr_zero(width / split_width));
      next.assign(ceil_div(n, width), 0);
      for (std::uint64_t r = 0; r < next.size(); ++r) next[r] = r * width;
      runs_in.resize(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        runs_in[next[runs[i] >> level]++] = keys[i];
      }
    }
    const std::uint64_t* src = runs_in.data();
    dpu.parallel(p.tasklets, [&](Tasklet& t) {
      const std::uint64_t pair = t.id() / ways;
      const std::uint32_t way = t.id() % ways;

      dpu.wram().reserve<Edge>(p.buffer_edges);  // left run
      dpu.wram().reserve<Edge>(p.buffer_edges);  // right run
      dpu.wram().reserve<Edge>(p.buffer_edges);  // output

      // Two streamed runs merged into one streamed output.
      const auto merge_range = [&](std::uint64_t left, std::uint64_t right) {
        const std::uint64_t total = left + right;
        charge_stream(t, left, p.buffer_edges, sizeof(Edge));
        charge_stream(t, right, p.buffer_edges, sizeof(Edge));
        charge_stream(t, total, p.buffer_edges, sizeof(Edge));
        t.instr(total * p.cost.merge_pick);
      };

      if (ways == 1) {
        // More runs than tasklets: round-robin whole pairs.
        for (std::uint64_t pr = t.id(); pr < pairs; pr += p.tasklets) {
          const std::uint64_t lo = pr * width * 2;
          const std::uint64_t mid = std::min(lo + width, n);
          const std::uint64_t hi = std::min(lo + width * 2, n);
          merge_range(mid - lo, hi - mid);
        }
        return;
      }

      // Few runs: `ways` tasklets co-partition one pair via merge-path
      // splits (distinct keys: edges are unique).
      if (pair >= pairs) return;
      const std::uint64_t lo = pair * width * 2;
      const std::uint64_t mid = std::min(lo + width, n);
      const std::uint64_t hi = std::min(lo + width * 2, n);
      const std::uint64_t nl = mid - lo;

      // lower_bound of src[lx] within the right run — an MRAM binary
      // search: one 8-byte read of the key, one per probe.
      const auto lower_bound_right = [&](std::uint64_t lx) {
        const std::uint64_t key = src[lx];
        std::uint64_t b_idx = mid;
        std::uint64_t e_idx = hi;
        std::uint64_t probes = 0;
        while (b_idx < e_idx) {
          const std::uint64_t m = b_idx + (e_idx - b_idx) / 2;
          if (src[m] < key) {
            b_idx = m + 1;
          } else {
            e_idx = m;
          }
          ++probes;
        }
        t.dma(sizeof(Edge), probes + 1);
        t.instr(probes * p.cost.binary_search_step);
        return b_idx;
      };
      const auto left_split = [&](std::uint32_t w) {
        return lo + w * nl / ways;
      };
      // Right-run split consistent across ways: right elements smaller than
      // the left block's first key go to earlier ways.  Edges are unique,
      // so ties cannot occur.
      const auto right_split = [&](std::uint64_t lx) {
        if (lx <= lo) return mid;   // first boundary
        if (lx >= mid) return hi;   // left run exhausted: tail goes here
        return lower_bound_right(lx);
      };
      const std::uint64_t l0 = left_split(way);
      const std::uint64_t l1 = left_split(way + 1);
      const std::uint64_t r0 = way == 0 ? mid : right_split(l0);
      const std::uint64_t r1 = way + 1 == ways ? hi : right_split(l1);
      merge_range(l1 - l0, r1 - r0);
    });
    std::swap(src_off, dst_off);
  }
  return src_off;
}

/// Parallel bulk copy of the n edges `edges` (host copy of the source
/// array) to `dst`.
void copy_edges(Dpu& dpu, const KernelParams& p, std::span<const Edge> edges,
                std::uint64_t dst) {
  const std::uint64_t n = edges.size();
  const std::uint64_t buffer = p.buffer_edges * 2ull;
  dpu.wram().reset();
  dpu.parallel(p.tasklets, [&](Tasklet& t) {
    const Block blk = block_of(n, t.id(), p.tasklets);
    if (blk.begin >= blk.end) return;
    dpu.wram().reserve<Edge>(buffer);
    const std::uint64_t len = blk.end - blk.begin;
    charge_stream(t, len, buffer, sizeof(Edge));  // read bursts
    charge_stream(t, len, buffer, sizeof(Edge));  // write bursts
    t.instr(ceil_div(len, buffer) * p.cost.loop_overhead);
  });
  store(dpu, dst, edges);
}

/// Builds the region index over `sorted` (host copy of the sorted array) at
/// `reg`, returning its host copy in `out`.  Two parallel passes: count
/// region starts per block, then write RegionEntry records at exclusive-
/// prefix offsets.
void build_regions(Dpu& dpu, const KernelParams& p,
                   std::span<const Edge> sorted, std::uint64_t reg,
                   std::vector<RegionEntry>& out) {
  out.clear();
  const std::uint64_t n = sorted.size();
  if (n == 0) return;
  // RegionEntry.begin is 32-bit; the kernel entry points reject capacities
  // whose arc arrays could exceed this, so the cast below cannot truncate.
  if (n - 1 > std::numeric_limits<std::uint32_t>::max()) {
    throw std::logic_error(
        "build_regions: record index overflows RegionEntry.begin");
  }
  NodeId prev = kInvalidNode;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (sorted[i].u != prev) {
      out.push_back(RegionEntry{sorted[i].u, static_cast<std::uint32_t>(i)});
      prev = sorted[i].u;
    }
  }

  // The modeled kernel: each tasklet scans its block twice (reading the
  // record before the block to know whether the block opens a region),
  // then writes its entries through a WRAM buffer.
  std::vector<std::uint64_t> counts(p.tasklets, 0);
  const auto scan_block = [&](Tasklet& t, const Block& blk) {
    if (blk.begin > 0) t.dma(sizeof(Edge));
    charge_stream(t, blk.end - blk.begin, p.buffer_edges, sizeof(Edge));
    t.instr((blk.end - blk.begin) * p.cost.region_scan_step);
  };
  dpu.wram().reset();
  dpu.parallel(p.tasklets, [&](Tasklet& t) {
    const Block blk = block_of(n, t.id(), p.tasklets);
    if (blk.begin >= blk.end) return;
    dpu.wram().reserve<Edge>(p.buffer_edges);
    scan_block(t, blk);
    const auto first = std::lower_bound(
        out.begin(), out.end(), blk.begin,
        [](const RegionEntry& e, std::uint64_t i) { return e.begin < i; });
    const auto last = std::lower_bound(
        first, out.end(), blk.end,
        [](const RegionEntry& e, std::uint64_t i) { return e.begin < i; });
    counts[t.id()] = static_cast<std::uint64_t>(last - first);
  });

  // Exclusive prefix over per-tasklet counts (tasklet 0 on real hardware).
  dpu.serial_instr(p.tasklets * 2ull);

  dpu.wram().reset();
  dpu.parallel(p.tasklets, [&](Tasklet& t) {
    const Block blk = block_of(n, t.id(), p.tasklets);
    if (blk.begin >= blk.end) return;
    dpu.wram().reserve<Edge>(p.buffer_edges);
    dpu.wram().reserve<RegionEntry>(p.buffer_edges);
    scan_block(t, blk);
    charge_stream(t, counts[t.id()], p.buffer_edges, sizeof(RegionEntry));
  });
  store<RegionEntry>(dpu, reg, out);
}

// ---------------------------------------------------------------------------
// Full counting phase (Section 3.4)
// ---------------------------------------------------------------------------

/// Edge iterator over the canonical sorted sample: for every edge (u,v),
/// intersect the remainder of u's region with v's full region through the
/// shared adaptive machinery (tc/intersect.hpp) — RegionCache-backed
/// lookups, merge/gallop selection, strided hub-spreading chunks.
std::uint64_t count_full(Dpu& dpu, const KernelParams& p, RegionCache& cache,
                         std::span<const Edge> sorted,
                         std::span<const RegionEntry> regions,
                         IntersectTally& tally) {
  const std::uint64_t n = sorted.size();
  std::vector<std::uint64_t> partial(p.tasklets, 0);
  std::vector<IntersectTally> tallies(p.tasklets);

  cache.build(dpu, p.tasklets, p.buffer_edges, regions, p.region_cache);

  dpu.wram().reset();
  dpu.parallel(p.tasklets, [&](Tasklet& t) {
    dpu.wram().reserve<Edge>(p.buffer_edges);  // scan buffer
    dpu.wram().reserve<Edge>(p.buffer_edges);  // u-region buffer
    dpu.wram().reserve<Edge>(p.buffer_edges);  // v-region buffer

    IntersectTally& tl = tallies[t.id()];
    const std::uint64_t num_chunks = ceil_div(n, kIntersectChunkEdges);
    std::uint64_t count = 0;
    std::uint64_t instr = 0;
    // The region of the current scan u, reused while u does not change
    // (regions are contiguous in the sorted scan, so the lookup amortizes
    // to one per distinct first endpoint).
    NodeId cur_u = kInvalidNode;
    Region ru;
    for (std::uint64_t chunk_i = t.id(); chunk_i < num_chunks;
         chunk_i += p.tasklets) {
      ++tl.chunks_claimed;
      const std::uint64_t c_lo = chunk_i * kIntersectChunkEdges;
      const std::uint64_t c_hi = std::min(n, c_lo + kIntersectChunkEdges);
      charge_stream(t, c_hi - c_lo, p.buffer_edges, sizeof(Edge));
      for (std::uint64_t i = c_lo; i < c_hi; ++i) {
        const Edge e = sorted[i];
        instr += p.cost.loop_overhead;
        if (e.u == e.v) continue;  // defensive: self loops count nothing
        if (e.u != cur_u) {
          cur_u = e.u;
          ru = cache.find(t, p.cost, e.u, n, instr);
        }
        if (!ru.found()) continue;  // cannot happen: e itself is in `sorted`
        // A missing v region is the common case, not an error: v has no
        // region when it is never a first endpoint in this sample, e.g.
        // the larger endpoint of every edge it has here.
        const Region rv = cache.find(t, p.cost, e.v, n, instr);
        if (!rv.found()) continue;

        // Edges after (u,v) in u's region x v's full region; every common
        // second endpoint w closes the triangle u < v < w.
        const Region u_rest{i + 1, ru.end};
        intersect_regions(t, p.cost, p.intersect, p.gallop_margin, sorted,
                          u_rest, rv, p.buffer_edges, tl, instr,
                          [&](std::uint64_t, const Edge&, std::uint64_t,
                              const Edge&) { ++count; });
      }
    }
    partial[t.id()] = count;
    t.instr(instr);
  });

  std::uint64_t total = 0;
  for (const std::uint64_t c : partial) total += c;
  for (const IntersectTally& tl : tallies) tally += tl;
  dpu.serial_instr(p.tasklets * 2ull);
  return total;
}

// ---------------------------------------------------------------------------
// Incremental machinery (dynamic updates)
// ---------------------------------------------------------------------------

/// Merges S* (`old`) with the sorted batch (`batch`) into scratch
/// `dst_edges`, writing a 1-byte "new" flag per output record to
/// `dst_flags`; both outputs stay host-side in `merged` / `flags` (the
/// flags are cleared in the bank by clear_flags() anyway).  Tasklets merge
/// co-partitioned subranges (merge-path splitting on equal S* blocks).
void merge_with_flags(Dpu& dpu, const KernelParams& p,
                      std::span<const Edge> old, std::span<const Edge> batch,
                      std::uint64_t dst_edges, std::uint64_t dst_flags,
                      std::vector<Edge>& merged,
                      std::vector<std::uint8_t>& flags) {
  const std::uint64_t n_old = old.size();
  const std::uint64_t n_b = batch.size();
  const std::uint32_t ways = p.tasklets;
  std::vector<std::uint64_t> old_split(ways + 1, 0);
  std::vector<std::uint64_t> batch_split(ways + 1, 0);
  old_split[ways] = n_old;
  batch_split[ways] = n_b;

  // Split planning: equal blocks of S*; matching batch positions found by
  // an MRAM binary search (tasklet-0 work on real hardware): one 8-byte
  // read of the pivot, one per probe.
  dpu.wram().reset();
  dpu.parallel(1, [&](Tasklet& t) {
    std::uint64_t probes = 0;
    std::uint64_t reads = 0;
    for (std::uint32_t w = 1; w < ways; ++w) {
      const std::uint64_t pos = w * n_old / ways;
      old_split[w] = pos;
      if (pos == 0 || n_b == 0) {
        batch_split[w] = 0;
        continue;
      }
      const Edge pivot = old[pos - 1];
      ++reads;
      std::uint64_t lo = 0;
      std::uint64_t hi = n_b;
      while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (edge_key(batch[mid]) < edge_key(pivot)) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
        ++probes;
      }
      batch_split[w] = lo;
    }
    t.dma(sizeof(Edge), reads + probes);
    t.instr(probes * p.cost.binary_search_step);
  });
  // Monotonicity guard (ties in the batch search).
  for (std::uint32_t w = 1; w <= ways; ++w) {
    batch_split[w] = std::max(batch_split[w], batch_split[w - 1]);
  }

  merged.resize(n_old + n_b);
  flags.resize(n_old + n_b);
  dpu.wram().reset();
  dpu.parallel(p.tasklets, [&](Tasklet& t) {
    const std::uint32_t w = t.id();
    const std::uint64_t o_lo = old_split[w];
    const std::uint64_t o_hi = old_split[w + 1];
    const std::uint64_t b_lo = batch_split[w];
    const std::uint64_t b_hi = batch_split[w + 1];
    if (o_lo >= o_hi && b_lo >= b_hi) return;

    dpu.wram().reserve<Edge>(p.buffer_edges);          // S* stream
    dpu.wram().reserve<Edge>(p.buffer_edges);          // batch stream
    dpu.wram().reserve<Edge>(p.buffer_edges);          // merged output
    dpu.wram().reserve<std::uint8_t>(p.buffer_edges);  // flag output

    std::uint64_t io = o_lo;
    std::uint64_t ib = b_lo;
    std::uint64_t out = o_lo + b_lo;
    while (io < o_hi || ib < b_hi) {
      if (io < o_hi &&
          (ib >= b_hi || edge_key(old[io]) <= edge_key(batch[ib]))) {
        merged[out] = old[io++];
        flags[out++] = 0;
      } else {
        merged[out] = batch[ib++];
        flags[out++] = 1;
      }
    }
    const std::uint64_t total = (o_hi - o_lo) + (b_hi - b_lo);
    charge_stream(t, o_hi - o_lo, p.buffer_edges, sizeof(Edge));
    charge_stream(t, b_hi - b_lo, p.buffer_edges, sizeof(Edge));
    charge_stream(t, total, p.buffer_edges, sizeof(Edge));
    charge_stream(t, total, p.buffer_edges, sizeof(std::uint8_t));
    t.instr(total * p.cost.merge_pick);
  });
  if (!merged.empty()) {
    dpu.mram().check_range(dst_edges, merged.size() * sizeof(Edge));
    dpu.mram().check_range(dst_flags, flags.size());
  }
}

/// Counts new triangles over the merged arc array: for each new canonical
/// edge e = (u,v), intersect the full adjacency regions of u and v through
/// the shared adaptive machinery; every common neighbor w closes a
/// triangle, counted iff each of the other two edges is old or a
/// lexicographically smaller new edge — every new triangle lands exactly
/// once, at its largest new edge.  `sorted` and `batch` hold arcs; reversed
/// batch arcs are skipped so each new edge is processed once.
std::uint64_t count_incremental(Dpu& dpu, const KernelParams& p,
                                RegionCache& cache,
                                std::span<const Edge> sorted,
                                std::span<const std::uint8_t> flags,
                                std::span<const RegionEntry> regions,
                                std::span<const Edge> batch,
                                IntersectTally& tally) {
  const std::uint64_t n = sorted.size();
  const std::uint64_t n_b = batch.size();
  std::vector<std::uint64_t> partial(p.tasklets, 0);
  std::vector<IntersectTally> tallies(p.tasklets);

  cache.build(dpu, p.tasklets, p.buffer_edges, regions, p.region_cache);

  dpu.wram().reset();
  dpu.parallel(p.tasklets, [&](Tasklet& t) {
    dpu.wram().reserve<Edge>(p.buffer_edges);  // scan buffer
    dpu.wram().reserve<Edge>(p.buffer_edges);  // u-region buffer
    dpu.wram().reserve<Edge>(p.buffer_edges);  // v-region buffer

    IntersectTally& tl = tallies[t.id()];
    const std::uint64_t num_chunks = ceil_div(n_b, kIntersectChunkEdges);
    std::uint64_t count = 0;
    std::uint64_t instr = 0;
    std::uint64_t flag_reads = 0;
    for (std::uint64_t chunk_i = t.id(); chunk_i < num_chunks;
         chunk_i += p.tasklets) {
      ++tl.chunks_claimed;
      const std::uint64_t c_lo = chunk_i * kIntersectChunkEdges;
      const std::uint64_t c_hi = std::min(n_b, c_lo + kIntersectChunkEdges);
      charge_stream(t, c_hi - c_lo, p.buffer_edges, sizeof(Edge));
      for (std::uint64_t i = c_lo; i < c_hi; ++i) {
        const Edge e = batch[i];
        instr += p.cost.loop_overhead;
        if (e.u >= e.v) continue;  // process each new edge once
        // Both endpoints of a new arc have regions in S* (e itself is in
        // it), so these lookups miss only on a corrupted bank.
        const Region ru = cache.find(t, p.cost, e.u, n, instr);
        if (!ru.found()) continue;
        const Region rv = cache.find(t, p.cost, e.v, n, instr);
        if (!rv.found()) continue;

        // Triangle (e.u, e.v, w) with w the matched second endpoint; e is
        // new by construction.  Count here only if neither other edge is a
        // lexicographically larger new edge (that edge's own pass owns the
        // triangle).  Matches are rare, so new-flags are fetched lazily per
        // match (two 1-byte reads) instead of streamed alongside the edges.
        intersect_regions(
            t, p.cost, p.intersect, p.gallop_margin, sorted, ru, rv,
            p.buffer_edges, tl, instr,
            [&](std::uint64_t ia, const Edge& ea, std::uint64_t ib,
                const Edge& eb) {
              const bool blocked_a = (flags[ia] != 0) && e < ea.canonical();
              const bool blocked_b = (flags[ib] != 0) && e < eb.canonical();
              if (!blocked_a && !blocked_b) ++count;
              flag_reads += 2;
              instr += 4;
            });
      }
    }
    partial[t.id()] = count;
    t.dma(sizeof(std::uint8_t), flag_reads);
    t.instr(instr);
  });

  std::uint64_t total = 0;
  for (const std::uint64_t c : partial) total += c;
  for (const IntersectTally& tl : tallies) tally += tl;
  dpu.serial_instr(p.tasklets * 2ull);
  return total;
}

/// Zeroes the first n flag bytes (parallel chunked writes); `flags` is the
/// host copy, cleared alongside.
void clear_flags(Dpu& dpu, const KernelParams& p, std::uint64_t offset,
                 std::vector<std::uint8_t>& flags) {
  const std::uint64_t n = flags.size();
  const std::uint64_t buffer = p.buffer_edges * 8ull;
  dpu.wram().reset();
  dpu.parallel(p.tasklets, [&](Tasklet& t) {
    const Block blk = block_of(n, t.id(), p.tasklets);
    if (blk.begin >= blk.end) return;
    dpu.wram().reserve<std::uint8_t>(buffer);
    const std::uint64_t len = blk.end - blk.begin;
    charge_stream(t, len, buffer, sizeof(std::uint8_t));
    t.instr(ceil_div(len, buffer) * p.cost.loop_overhead);
  });
  std::fill(flags.begin(), flags.end(), 0);
  store<std::uint8_t>(dpu, offset, flags);
}

/// Clamps the stream-buffer size into [4, max_wram_buffer_edges] — a safety
/// net for callers driving the kernel directly; host configs are validated
/// against the same bound up front, so they never hit the clamp.
KernelParams clamp_buffers(const pim::Dpu& dpu, const KernelParams& in) {
  KernelParams params = in;
  const std::uint32_t max_buffer =
      max_wram_buffer_edges(dpu.config(), params.tasklets);
  params.buffer_edges = std::max(4u, std::min(params.buffer_edges, max_buffer));
  return params;
}

DpuMeta read_meta(Dpu& dpu, const KernelParams& p) {
  DpuMeta meta{};
  dpu.parallel(1, [&](Tasklet& t) {
    meta = t.mram_read_t<DpuMeta>(MramLayout::kMetaOffset);
    t.instr(p.cost.loop_overhead);
  });
  if (meta.sample_capacity > MramLayout::kMaxCapacityEdges) {
    throw std::logic_error(
        "counting kernel: sample_capacity exceeds the 32-bit region index "
        "range (MramLayout::kMaxCapacityEdges)");
  }
  return meta;
}

void write_meta(Dpu& dpu, const KernelParams& p, const DpuMeta& meta) {
  dpu.parallel(1, [&](Tasklet& t) {
    t.mram_write_t(MramLayout::kMetaOffset, meta);
    t.instr(p.cost.loop_overhead);
  });
}

void store_tally(DpuMeta& meta, const IntersectTally& tally,
                 std::uint64_t count_instr) {
  meta.merge_picks = tally.merge_picks;
  meta.gallop_probes = tally.gallop_probes;
  meta.merge_isects = tally.merge_isects;
  meta.gallop_isects = tally.gallop_isects;
  meta.chunks_claimed = tally.chunks_claimed;
  meta.count_instructions = count_instr;
}

}  // namespace

std::uint32_t max_wram_buffer_edges(const pim::PimSystemConfig& config,
                                    std::uint32_t tasklets) noexcept {
  const std::uint64_t statics =
      MramLayout::kMaxRemap * 2 * sizeof(NodeId) +  // remap hash table
      RegionCache::kSlots * sizeof(RegionEntry);    // sampled region index
  if (config.wram_bytes <= statics || tasklets == 0) return 0;
  // Worst case the kernels allocate five stream buffers per tasklet at once.
  return static_cast<std::uint32_t>((config.wram_bytes - statics) /
                                    (5ull * tasklets * sizeof(Edge)));
}

KernelScratchPool::KernelScratchPool() = default;
KernelScratchPool::~KernelScratchPool() = default;

std::unique_ptr<KernelScratch> KernelScratchPool::acquire() {
  MutexLock lock(mu_);
  if (!free_.empty()) {
    std::unique_ptr<KernelScratch> scratch = std::move(free_.back());
    free_.pop_back();
    return scratch;
  }
  // Room for every set handed out, so release() never allocates.
  free_.reserve(++created_);
  return std::make_unique<KernelScratch>();
}

void KernelScratchPool::release(
    std::unique_ptr<KernelScratch> scratch) noexcept {
  MutexLock lock(mu_);
  free_.push_back(std::move(scratch));
}

namespace {

/// A scratch set taken out of a pool for one kernel call.
class ScratchLease {
 public:
  explicit ScratchLease(KernelScratchPool& pool)
      : pool_(pool), scratch_(pool.acquire()) {}
  ~ScratchLease() { pool_.release(std::move(scratch_)); }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  [[nodiscard]] KernelScratch& get() noexcept { return *scratch_; }

 private:
  KernelScratchPool& pool_;
  std::unique_ptr<KernelScratch> scratch_;
};

}  // namespace

void run_count_kernel(pim::Dpu& dpu, const KernelParams& params) {
  KernelScratchPool scratch;
  run_count_kernel(dpu, params, scratch);
}

void run_incremental_kernel(pim::Dpu& dpu, const KernelParams& params) {
  KernelScratchPool scratch;
  run_incremental_kernel(dpu, params, scratch);
}

void run_count_kernel(pim::Dpu& dpu, const KernelParams& params_in,
                      KernelScratchPool& scratch) {
  const KernelParams params = clamp_buffers(dpu, params_in);
  DpuMeta meta = read_meta(dpu, params);
  const std::uint64_t n = meta.sample_size;
  const std::uint64_t cap = meta.sample_capacity;

  if (n == 0) {
    meta.triangle_count = 0;
    meta.num_regions = 0;
    meta.sorted_size = 0;
    store_tally(meta, IntersectTally{}, 0);
    if (meta.flags & DpuMeta::kFlagPersistSorted) {
      // An empty persisted arc array is valid: without this flag a core
      // that received no edges before the first count would reject every
      // later incremental recount.
      meta.flags |= DpuMeta::kFlagSortedValid;
    }
    write_meta(dpu, params, meta);
    return;
  }

  ScratchLease lease(scratch);
  KernelScratch& host = lease.get();
  dpu.wram().reset();
  const RemapTable remap(dpu, params, meta.num_remap);
  copy_remap(dpu, params, remap, MramLayout::sample_offset(), 0, n,
             MramLayout::work_a_offset(cap), /*arcs=*/false, host);
  (void)external_sort(dpu, params, MramLayout::work_a_offset(cap),
                      MramLayout::work_b_offset(cap), host);

  build_regions(dpu, params, host.edges, MramLayout::region_offset(cap),
                host.regions);
  meta.num_regions = host.regions.size();
  IntersectTally tally;
  const std::uint64_t instr0 = dpu.total_instructions();
  meta.triangle_count =
      count_full(dpu, params, host.cache, host.edges, host.regions, tally);
  store_tally(meta, tally, dpu.total_instructions() - instr0);

  if (meta.flags & DpuMeta::kFlagPersistSorted) {
    // Materialize the persistent arc array S* (both orientations of every
    // edge, sorted) for subsequent incremental updates.  The canonical
    // pipeline is finished, so the scratch buffers are free again.
    dpu.wram().reset();
    copy_remap(dpu, params, remap, MramLayout::sample_offset(), 0, n,
               MramLayout::work_a_offset(cap), /*arcs=*/true, host);
    const std::uint64_t arcs =
        external_sort(dpu, params, MramLayout::work_a_offset(cap),
                      MramLayout::work_b_offset(cap), host);
    if (arcs != MramLayout::sorted_offset(cap)) {
      copy_edges(dpu, params, host.edges, MramLayout::sorted_offset(cap));
    }
    meta.sorted_size = n;
    meta.flags |= DpuMeta::kFlagSortedValid;
  }
  write_meta(dpu, params, meta);
}

void run_incremental_kernel(pim::Dpu& dpu, const KernelParams& params_in,
                            KernelScratchPool& scratch) {
  const KernelParams params = clamp_buffers(dpu, params_in);
  DpuMeta meta = read_meta(dpu, params);
  const std::uint64_t cap = meta.sample_capacity;
  const std::uint64_t n_old = meta.sorted_size;
  const std::uint64_t n = meta.sample_size;

  if (!(meta.flags & DpuMeta::kFlagSortedValid) || n < n_old) {
    throw std::logic_error(
        "run_incremental_kernel: no valid persisted sorted sample");
  }
  const std::uint64_t n_b = n - n_old;
  if (n_b == 0) {
    store_tally(meta, IntersectTally{}, 0);
    write_meta(dpu, params, meta);
    return;
  }

  const std::uint64_t sorted = MramLayout::sorted_offset(cap);
  const std::uint64_t flags = MramLayout::flags_offset(cap);
  const std::uint64_t work_a = MramLayout::work_a_offset(cap);
  const std::uint64_t work_b = MramLayout::work_b_offset(cap);
  const std::uint64_t reg = MramLayout::region_offset(cap);

  // 1. remap + copy (both orientations) + sort the new batch.
  ScratchLease lease(scratch);
  KernelScratch& host = lease.get();
  dpu.wram().reset();
  const RemapTable remap(dpu, params, meta.num_remap);
  copy_remap(dpu, params, remap, MramLayout::sample_offset(), n_old, n,
             work_a, /*arcs=*/true, host);
  const std::uint64_t batch =
      external_sort(dpu, params, work_a, work_b, host);

  // 2. merge S* + batch arcs into the other scratch buffer (with new-flags),
  //    then install it as the new S*.  The sorted batch survives in `batch`
  //    for the counting pass.
  const std::uint64_t merge_dst = batch == work_a ? work_b : work_a;
  load(dpu, sorted, 2 * n_old, host.old);
  merge_with_flags(dpu, params, host.old, host.edges, merge_dst, flags,
                   host.merged, host.flags);
  copy_edges(dpu, params, host.merged, sorted);
  meta.sorted_size = n;

  // 3. rebuild the region index over the merged S*.
  build_regions(dpu, params, host.merged, reg, host.regions);
  meta.num_regions = host.regions.size();

  // 4. count the delta, 5. clear the flags for the next round.
  IntersectTally tally;
  const std::uint64_t instr0 = dpu.total_instructions();
  const std::uint64_t delta =
      count_incremental(dpu, params, host.cache, host.merged, host.flags,
                        host.regions, host.edges, tally);
  store_tally(meta, tally, dpu.total_instructions() - instr0);
  clear_flags(dpu, params, flags, host.flags);

  meta.triangle_count += delta;
  write_meta(dpu, params, meta);
}

}  // namespace pimtc::tc
