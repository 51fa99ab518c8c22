#include "tc/intersect.hpp"

#include <bit>
#include <stdexcept>
#include <string>

namespace pimtc::tc {
namespace {

using pim::Tasklet;

/// First id of the remapped-hub band.  remapped_id() hands out ids in
/// [kInvalidNode - kMaxRemap, kInvalidNode), far above every real id; a
/// bucket directory spanning both would put all real ids in a handful of
/// buckets, so the band is searched on its own.
constexpr NodeId kBandBase = kInvalidNode - MramLayout::kMaxRemap;

/// depth[pos] for pos in [lo, hi]: iterations of a lower_bound-style
/// bisection over [lo, hi) (mid = lo + (hi - lo) / 2) that ends at pos,
/// given `d` iterations already spent.  The iteration count of such a
/// search depends only on the range and on where it ends.
void fill_depths(std::uint8_t* depth, std::uint64_t lo, std::uint64_t hi,
                 std::uint8_t d) {
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    fill_depths(depth, lo, mid, static_cast<std::uint8_t>(d + 1));
    lo = mid + 1;
    ++d;
  }
  depth[lo] = d;
}

void build_depths(std::vector<std::uint8_t>& depth, std::uint64_t len) {
  depth.resize(len + 1);
  fill_depths(depth.data(), 0, len, 0);
}

/// Windows up to this many entries are fetched in one burst and resolved
/// in WRAM; wider ones are binary searched in MRAM.
constexpr std::uint64_t kNarrowWindow = 6;

}  // namespace

const char* to_string(IntersectPolicy policy) noexcept {
  switch (policy) {
    case IntersectPolicy::kMerge:
      return "merge";
    case IntersectPolicy::kGallop:
      return "gallop";
    case IntersectPolicy::kAuto:
      break;
  }
  return "auto";
}

IntersectPolicy intersect_policy_from_string(std::string_view name) {
  if (name == "auto") return IntersectPolicy::kAuto;
  if (name == "merge") return IntersectPolicy::kMerge;
  if (name == "gallop") return IntersectPolicy::kGallop;
  throw std::invalid_argument("unknown intersection policy '" +
                              std::string(name) +
                              "' (expected auto|merge|gallop)");
}

void RegionCache::build(pim::Dpu& dpu, std::uint32_t tasklets,
                        std::uint32_t buffer_edges,
                        std::span<const RegionEntry> table, bool enabled) {
  const std::uint64_t regions = table.size();
  num_regions_ = regions;
  // nodes_[regions] is a sentinel, so find() may read nodes_[rank] for a
  // key above every region node.
  nodes_.resize(regions + 1);
  begins_.resize(regions);
  for (std::uint64_t i = 0; i < regions; ++i) {
    nodes_[i] = table[i].node;
    begins_[i] = table[i].begin;
  }
  nodes_[regions] = kInvalidNode;

  // Host rank index: a bucket directory (about one node per bucket) over
  // the ids below the remapped band.
  const NodeId* nodes = nodes_.data();
  band_lo_ = static_cast<std::uint64_t>(
      std::lower_bound(nodes, nodes + regions, kBandBase) - nodes);
  base_ = band_lo_ > 0 ? nodes[0] : 0;
  const std::uint64_t span = band_lo_ > 0 ? nodes[band_lo_ - 1] - base_ : 0;
  const int excess = std::bit_width(span) - std::bit_width(band_lo_);
  shift_ = excess > 0 ? static_cast<std::uint32_t>(excess) : 0;
  num_buckets_ = band_lo_ > 0 ? (span >> shift_) + 1 : 0;
  bucket_.resize(num_buckets_ + 1);
  std::uint64_t j = 0;
  for (std::uint64_t b = 0; b <= num_buckets_; ++b) {
    while (j < band_lo_ &&
           ((static_cast<std::uint64_t>(nodes[j]) - base_) >> shift_) < b) {
      ++j;
    }
    bucket_[b] = static_cast<std::uint32_t>(j);
  }

  slots_ = 0;
  stride_ = 1;
  if (regions > 0 && enabled) {
    stride_ = ceil_div(regions, kSlots);
    slots_ = ceil_div(regions, stride_);
    // Boot: each tasklet streams a contiguous block of the table through a
    // WRAM buffer and keeps the stride-aligned entries — sequential DMA,
    // not per-entry bursts.
    const std::uint64_t buffer = buffer_edges * 2ull;
    dpu.wram().reset();
    dpu.parallel(tasklets, [&](Tasklet& t) {
      const Block blk = block_of(regions, t.id(), tasklets);
      if (blk.begin >= blk.end) return;
      dpu.wram().reserve<RegionEntry>(buffer);
      charge_stream(t, blk.end - blk.begin, buffer, sizeof(RegionEntry));
      t.instr(2 * (blk.end - blk.begin));
    });
    build_depths(cache_depth_, slots_);
    // above_[x] = ceil(x / stride): the number of samples below a rank,
    // tabulated so lookups need no division.
    above_.resize(regions + 2);
    std::uint64_t q = 0;
    for (std::uint64_t x = 0; x < above_.size(); ++x) {
      if (x > q * stride_) ++q;
      above_[x] = static_cast<std::uint16_t>(q);
    }
  }

  // The in-window search runs over windows of stride + 1 entries, except
  // the last one (and the whole table when there is no cache).
  const std::uint64_t full = slots_ > 0 ? stride_ + 1 : 0;
  const std::uint64_t last =
      slots_ > 0 ? regions - (slots_ - 1) * stride_ : regions;
  window_depth_.clear();
  last_depth_.clear();
  if (full > kNarrowWindow) build_depths(window_depth_, full);
  if (last > kNarrowWindow) build_depths(last_depth_, last);
}

std::uint64_t RegionCache::rank(NodeId key) const noexcept {
  const NodeId* nodes = nodes_.data();
  const NodeId* lo = nodes + band_lo_;
  const NodeId* hi = nodes + num_regions_;
  if (key < kBandBase) {
    if (key <= base_) return 0;
    const std::uint64_t b = (static_cast<std::uint64_t>(key) - base_) >> shift_;
    if (b >= num_buckets_) return band_lo_;
    lo = nodes + bucket_[b];
    hi = nodes + bucket_[b + 1];
  }
  return static_cast<std::uint64_t>(std::lower_bound(lo, hi, key) - nodes);
}

std::uint64_t RegionCache::window_probes(std::uint64_t len,
                                         std::uint64_t pos) const {
  // A wide window is a full one (stride + 1 entries) or the last one.
  return len + 1 == window_depth_.size() ? window_depth_[pos]
                                         : last_depth_[pos];
}

Region RegionCache::find(Tasklet& t, const pim::KernelCostModel& cost,
                         NodeId key, std::uint64_t n,
                         std::uint64_t& instr) const {
  const std::uint64_t regions = num_regions_;
  // r: the key's lower_bound in the table — where both MRAM searches land.
  const std::uint64_t r = rank(key);
  // Branch-free on purpose: about half of all lookups miss (a v endpoint
  // that is never a first endpoint in the sample), unpredictably.
  const bool found = (r < regions) & (nodes_[r] == key);
  const std::uint64_t next = r + 1 < regions ? begins_[r + 1] : n;
  const Region region =
      found ? Region{begins_[r], next} : Region{};

  // The WRAM cache search: upper_bound of the key over the sampled entries
  // nodes[0], nodes[stride], ... ends at the first sample above the key;
  // the window runs from the sample before it through that sample.
  std::uint64_t w_lo = 0;
  std::uint64_t w_hi = regions;
  if (slots_ > 0) {
    // Samples <= key: ceil(r / stride) below a missing key, one more
    // when the key's own rank is a sample.
    const std::uint64_t above = above_[r + (found ? 1 : 0)];
    instr += 3ull * cache_depth_[above];
    w_lo = above == 0 ? 0 : (above - 1) * stride_;
    w_hi = std::min(regions, above * stride_ + 1);
  }
  const std::uint64_t len = w_hi - w_lo;

  // Narrow window (fine-grained cache): one burst fetches the whole window
  // plus the successor entry; the match resolves in WRAM.  A match on the
  // burst's last entry needs one more 8-byte read for its end.
  if (len <= kNarrowWindow) {
    const std::uint64_t fetch = std::min(len + 1, regions - w_lo);
    t.dma(fetch * sizeof(RegionEntry));
    instr += cost.binary_search_step + fetch * 2;
    const bool successor = found & (r - w_lo + 1 == fetch) & (r + 1 < regions);
    t.dma(sizeof(RegionEntry), successor ? 1 : 0);
    return region;
  }

  // Wide window: an MRAM binary search (one 8-byte probe per iteration)
  // ending at r, then — unless r is past the table — entries r and r+1 in
  // one 16-byte burst.
  const std::uint64_t probes = window_probes(len, r - w_lo);
  t.dma(sizeof(RegionEntry), probes);
  instr += probes * cost.binary_search_step;
  const bool inside = r < regions;
  t.dma((r + 1 < regions ? 2 : 1) * sizeof(RegionEntry), inside ? 1 : 0);
  instr += inside ? cost.binary_search_step : 0;
  return region;
}

bool choose_gallop(IntersectPolicy policy, std::uint32_t gallop_margin,
                   std::uint64_t small_size,
                   std::uint64_t large_size) noexcept {
  if (policy == IntersectPolicy::kMerge) return false;
  if (policy == IntersectPolicy::kGallop) return true;
  const std::uint64_t gallop_cost =
      small_size * (ceil_log2(large_size + 1) + 2);
  return gallop_cost * gallop_margin < small_size + large_size;
}

std::uint64_t gallop_lower_bound(Tasklet& t, const pim::KernelCostModel& cost,
                                 std::span<const Edge> sorted, const Region& r,
                                 NodeId w, IntersectTally& tally,
                                 std::uint64_t& instr) {
  const Edge* s = sorted.data();
  std::uint64_t lo = r.begin;
  std::uint64_t hi = r.end;
  std::uint64_t probes = 0;
  while (hi - lo > 8) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    const std::uint64_t b = std::min(std::max(mid, lo + 4), hi - 4) - 4;
    const Edge* block = s + b;  // one 8-edge burst
    if (block[0].v >= w) {
      hi = b + 1;
    } else if (block[7].v < w) {
      lo = b + 8;
    } else {
      // Resolve within the block.
      lo = b;
      for (int i = 7; i >= 0; --i) {
        if (block[i].v < w) {
          lo = b + i + 1;
          break;
        }
      }
      hi = lo;
    }
    ++probes;
  }
  if (probes > 0) t.dma(8 * sizeof(Edge), probes);
  instr += probes * (cost.binary_search_step + 8);
  if (hi != lo) {
    // Final linear resolve over the <= 8 remaining entries (one burst).
    const std::uint64_t fetch = hi - lo;
    t.dma(fetch * sizeof(Edge));
    instr += cost.binary_search_step + fetch;
    ++probes;
    std::uint64_t i = 0;
    while (i < fetch && s[lo + i].v < w) ++i;
    lo += i;
  }
  tally.gallop_probes += probes;
  return lo;
}

}  // namespace pimtc::tc
