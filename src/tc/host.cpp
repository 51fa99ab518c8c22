#include "tc/host.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/math_util.hpp"
#include "common/prng.hpp"
#include "common/timer.hpp"
#include "sketch/uniform_sampler.hpp"
#include "tc/kernel.hpp"
#include "tc/layout.hpp"

namespace pimtc::tc {
namespace {

/// Wire size of one staged replacement record (slot index + edge); appends
/// travel as bare edges since their slots are implied by the base slot.
constexpr std::uint64_t kStagedReplaceBytes =
    sizeof(std::uint64_t) + sizeof(Edge);

/// The config the counter runs with: pipeline rules checked and auto color
/// selection (num_colors == 0) resolved.
engine::EngineConfig resolved(engine::EngineConfig config) {
  config.num_colors = config.validate_pipeline();
  return config;
}

}  // namespace

PimTriangleCounter::PimTriangleCounter(const engine::EngineConfig& config)
    : TriangleCountEngine(resolved(config)),
      // host_threads == 0 shares the process-global pool instead of
      // spawning a private hardware-wide pool per counter: N concurrent
      // engine sessions (src/serve/) would otherwise oversubscribe the
      // machine N-fold.  A pinned thread count still gets a dedicated pool.
      pool_(config_.host_threads == 0
                ? nullptr
                : std::make_unique<ThreadPool>(config_.host_threads)),
      plan_(config_.num_colors, config_.placement, config_.pim.dpus_per_rank),
      hash_(plan_.num_colors(), derive_seed(config_.seed, 0xc01u)),
      global_mg_(std::max<std::uint32_t>(1, config_.mg_capacity)) {
  if (!config_.fault_spec.empty()) {
    const pim::FaultSpec fspec = pim::FaultSpec::parse(config_.fault_spec);
    std::uint32_t spares = 0;
    if (fspec.recovery == pim::FaultSpec::Recovery::kRematerialize &&
        (fspec.launch_permanent > 0.0 || fspec.rank_outage > 0.0)) {
      // Spare banks are migration targets for dead-bank re-materialization,
      // clamped to what the machine has beyond the triplet count.  Only
      // provisioned when some rate can actually kill a bank: idle spares
      // widen every per-rank padded transfer, which would break the
      // inert-plan timing-identity guarantee.
      const std::uint32_t triplets = plan_.num_triplets();
      const std::uint64_t headroom =
          config_.pim.max_dpus > triplets ? config_.pim.max_dpus - triplets
                                          : 0;
      spares = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(fspec.spare_banks, headroom));
    }
    plan_.add_spare_banks(spares);
    fault_plan_ = std::make_shared<const pim::FaultPlan>(fspec);
  }
  const std::uint32_t dpus = plan_.num_dpus();
  // validate_pipeline() guarantees max_cap > 0, so capacity_ > 0.
  const std::uint64_t max_cap =
      MramLayout::max_capacity(config_.pim.mram_bytes);
  capacity_ = config_.sample_capacity_edges == 0
                  ? max_cap
                  : std::min(config_.sample_capacity_edges, max_cap);

  system_ = std::make_unique<pim::PimSystem>(config_.pim, dpus, pool_.get());
  if (fault_plan_ != nullptr) {
    system_->install_fault_plan(fault_plan_);
    // Always-on mirrors make any bank restorable with zero device reads;
    // both ingest paths maintain them once valid, so the mirror is exact
    // at every point of the stream.
    if (fault_plan_->spec().recovery ==
        pim::FaultSpec::Recovery::kRematerialize) {
      mirrors_valid_ = true;
    }
  }
  const std::uint32_t triplets = plan_.num_triplets();
  reservoirs_.reserve(triplets);
  for (std::uint32_t t = 0; t < triplets; ++t) {
    // Seeded by triplet index, not bank index: the estimator's RNG stream
    // must not depend on where the plan places a triplet.
    reservoirs_.emplace_back(capacity_, derive_seed(config_.seed, 0xd00 + t));
  }

  // Persistent ingestion state: sized once, reused by every batch.
  // Estimator-side state is per triplet; transfer-side scratch is per bank.
  // No bank is written here: a bank maps on its first write, never-written
  // bytes read as zeros, and recount() writes every launched bank's control
  // block.
  route_positions_.resize(pool().size() * triplets);
  batch_totals_.resize(triplets);
  batch_offsets_.resize(triplets);
  direct_.resize(triplets);
  route_targets_.resize(triplets);
  mirrors_.resize(triplets);
  touched_slots_.resize(triplets);
  triplet_dirty_.assign(triplets, 0);
  triplet_lost_.assign(triplets, 0);
  staging_.resize(triplets);
  flush_bytes_.resize(dpus);
  cycles_before_.resize(dpus);
}

void PimTriangleCounter::add_edges(std::span<const Edge> batch) {
  WallTimer host_timer;
  const std::size_t num_threads = pool().size();
  const std::uint32_t num_triplets = plan_.num_triplets();
  const std::uint64_t batch_id = batch_counter_++;

  std::vector<sketch::MisraGries> local_mg;
  std::vector<std::uint64_t> local_kept(num_threads, 0);
  local_mg.reserve(num_threads);
  for (std::size_t t = 0; t < num_threads; ++t) {
    local_mg.emplace_back(std::max<std::uint32_t>(1, config_.mg_capacity));
  }

  // Both passes walk the same chunks with the same per-chunk DOULION coins,
  // so pass 2 visits exactly the records pass 1 counted.
  const color::EdgePartitioner partitioner(hash_, plan_.table());
  const auto for_each_kept = [&](std::size_t t, std::size_t lo,
                                 std::size_t hi, const auto& visit) {
    sketch::UniformSampler sampler(
        config_.uniform_p,
        derive_seed(config_.seed, (batch_id << 8) ^ (0xa000 + t)));
    for (std::size_t i = lo; i < hi; ++i) {
      const Edge e = batch[i];
      if (e.is_loop()) continue;
      if (!sampler.keep(e)) continue;
      visit(e);
    }
    return sampler.kept();
  };

  // Pass 1: "each host CPU thread manages an array of edges per PIM core"
  // (Section 3.1) — here only its length.
  std::fill(route_positions_.begin(), route_positions_.end(), 0);
  pool().parallel_chunks(
      batch.size(), [&](std::size_t t, std::size_t lo, std::size_t hi) {
        std::uint64_t* counts = route_positions_.data() + t * num_triplets;
        sketch::MisraGries& mg = local_mg[t];
        local_kept[t] = for_each_kept(t, lo, hi, [&](const Edge& e) {
          if (config_.misra_gries_enabled) mg.update_edge(e);
          for (const std::uint32_t d : partitioner.targets(e)) ++counts[d];
        });
      });

  edges_streamed_ += batch.size();
  for (const std::uint64_t k : local_kept) edges_kept_ += k;
  if (config_.misra_gries_enabled) {
    for (const auto& mg : local_mg) global_mg_.merge(mg);
  }

  const std::uint64_t max_per_triplet = prefix_routes();
  if (max_per_triplet > 0) {
    target_insert_routes();
    // Pass 2: every record written once, at its final position.
    pool().parallel_chunks(
        batch.size(), [&](std::size_t t, std::size_t lo, std::size_t hi) {
          std::uint64_t* cursor = route_positions_.data() + t * num_triplets;
          (void)for_each_kept(t, lo, hi, [&](const Edge& e) {
            for (const std::uint32_t d : partitioner.targets(e)) {
              route_targets_[d][cursor[d]++] = e;
            }
          });
        });
  }

  insert_into_samples(max_per_triplet, host_timer.elapsed_s());

  system_->charge_host(host_timer.elapsed_s(), &PhaseTimes::host_s);
}

std::uint64_t PimTriangleCounter::prefix_routes() {
  const std::size_t num_threads = pool().size();
  const std::uint32_t num_triplets = plan_.num_triplets();
  std::uint64_t max_per_triplet = 0;
  for (std::uint32_t d = 0; d < num_triplets; ++d) {
    std::uint64_t total = 0;
    for (std::size_t t = 0; t < num_threads; ++t) {
      std::uint64_t& cursor = route_positions_[t * num_triplets + d];
      const std::uint64_t count = cursor;
      cursor = total;
      total += count;
    }
    batch_totals_[d] = total;
    max_per_triplet = std::max(max_per_triplet, total);
  }
  // greedy_balance defers its load-aware placement to the first batch with
  // data: nothing is resident yet, so re-planning from the observed
  // per-triplet loads is free (no migration traffic).
  if (max_per_triplet > 0 &&
      plan_.policy() == color::PlacementPolicy::kGreedyBalance &&
      !placement_observed_) {
    placement_observed_ = true;
    apply_placement(plan_.balanced_placement(batch_totals_));
  }
  return max_per_triplet;
}

void PimTriangleCounter::target_insert_routes() {
  const std::uint32_t num_triplets = plan_.num_triplets();
  std::uint64_t host_records = 0;
  for (std::uint32_t t = 0; t < num_triplets; ++t) {
    const sketch::ReservoirPolicy& reservoir = reservoirs_[t];
    const std::uint64_t total = batch_totals_[t];
    // Every offer of the batch is an append exactly when nothing is
    // pending and the batch fits; host mirrors, once valid, must see every
    // decision, so they keep the staged route.
    direct_[t] = total > 0 && !mirrors_valid_ &&
                 reservoir.pending_deletions() == 0 &&
                 reservoir.stored() + total <= capacity_;
    batch_offsets_[t] = host_records;
    if (!direct_[t]) host_records += total;
  }
  routed_edges_.resize(static_cast<std::size_t>(host_records));

  pool().parallel_for(num_triplets, [&](std::size_t t) {
    if (!direct_[t]) {
      route_targets_[t] = routed_edges_.data() + batch_offsets_[t];
      return;
    }
    // The plan is an injection, so this is the only view taken of the bank
    // and only this thread touches its bookkeeping.
    sketch::ReservoirPolicy& reservoir = reservoirs_[t];
    const std::uint64_t total = batch_totals_[t];
    route_targets_[t] =
        system_->dpu(plan_.dpu_of(static_cast<std::uint32_t>(t)))
            .mram()
            .writable_t<Edge>(MramLayout::sample_offset() +
                                  reservoir.stored() * sizeof(Edge),
                              static_cast<std::size_t>(total))
            .data();
    reservoir.offer_appends(total);
  });
}

void PimTriangleCounter::drain_in_flight(double host_overlap_s) {
  if (in_flight_device_s_ <= 0.0) return;
  const double hidden =
      config_.pipelined_ingest
          ? std::min(in_flight_device_s_, std::max(0.0, host_overlap_s))
          : 0.0;
  if (hidden > 0.0) system_->note_overlap_saved(hidden);
  system_->charge_host(in_flight_device_s_ - hidden, &PhaseTimes::ingest_s);
  in_flight_device_s_ = 0.0;
}

void PimTriangleCounter::insert_into_samples(std::uint64_t max_per_triplet,
                                             double host_window_s) {
  if (max_per_triplet == 0) {
    // Nothing survived sampling: no scatter, but the host work just done
    // still overlaps any in-flight receive of the previous batch.
    drain_in_flight(host_window_s);
    return;
  }
  const std::uint32_t num_dpus = system_->num_dpus();
  const std::uint32_t num_triplets = plan_.num_triplets();
  const std::uint32_t recv_tasklets = config_.tasklets;
  const std::uint64_t sample_base = MramLayout::sample_offset();

  const std::uint64_t round_cap = config_.staging_capacity_edges == 0
                                      ? max_per_triplet
                                      : config_.staging_capacity_edges;
  const std::uint64_t rounds = ceil_div(max_per_triplet, round_cap);

  for (std::uint64_t round = 0; round < rounds; ++round) {
    WallTimer stage_timer;
    for (std::uint32_t d = 0; d < num_dpus; ++d) {
      cycles_before_[d] = system_->dpu(d).cycles();
    }
    // Banks without an occupant (spares) stage nothing this round.
    std::fill(flush_bytes_.begin(), flush_bytes_.end(), 0);

    pool().parallel_for(num_triplets, [&](std::size_t t) {
      // The plan is an injection, so each triplet touches its own bank.
      const std::uint32_t bank = plan_.dpu_of(static_cast<std::uint32_t>(t));
      pim::Dpu& dpu = system_->dpu(bank);
      sketch::ReservoirStaging<Edge>& staging = staging_[t];
      const std::uint64_t total = batch_totals_[t];
      const std::uint64_t lo = std::min(round * round_cap, total);
      const std::uint64_t hi = std::min(lo + round_cap, total);

      // This round's share of the triplet's records.  A direct triplet's
      // records already sit in their slots: it is the append run of
      // hi - lo records.  Otherwise stage the reservoir decisions
      // host-side; once a deletion has materialized the mirrors, they
      // track the decisions too, so the host keeps knowing the banks'
      // resident content (insert-only sessions skip that bookkeeping).
      std::uint64_t append_items = hi - lo;
      std::uint64_t replace_items = 0;
      if (!direct_[t]) {
        sketch::ReservoirPolicy& reservoir = reservoirs_[t];
        sketch::SampleMirror<Edge>& mirror = mirrors_[t];
        const Edge* records = routed_edges_.data() + batch_offsets_[t];
        staging.begin(reservoir.stored());
        for (std::uint64_t i = lo; i < hi; ++i) {
          const sketch::ReservoirDecision d = reservoir.offer();
          staging.stage_decision(d, records[i]);
          if (mirrors_valid_) mirror.apply(d, records[i]);
        }
        // Flush the image: one contiguous write for the append run, one
        // per maximal run of consecutive replaced slots — bulk traffic,
        // not per-edge stores.
        append_items = staging.appends().size();
        replace_items = staging.replace_count();
        if (append_items > 0) {
          dpu.mram().write(sample_base + staging.base_slot() * sizeof(Edge),
                           staging.appends().data(),
                           static_cast<std::size_t>(append_items *
                                                    sizeof(Edge)));
        }
      }
      const std::uint64_t append_bytes = append_items * sizeof(Edge);
      const std::uint64_t staged_bytes =
          append_bytes + replace_items * kStagedReplaceBytes;

      // DPU-side receive cost: stream the staged image in, copy each record
      // into place (tasklet-parallel; the decisions were made host-side),
      // contiguous appends as one bulk burst, replacement runs as scattered
      // DMA stores.
      dpu.charge_dma_bulk(staged_bytes, 2048);  // landing-zone read
      dpu.charge_parallel_instr(
          (append_items + replace_items) * config_.cost.edge_copy,
          recv_tasklets);
      dpu.charge_dma_bulk(append_bytes, 2048);
      if (replace_items > 0) {
        staging.for_each_replace_run(
            [&](std::uint64_t first_slot, const Edge* items, std::size_t n) {
              const std::uint64_t bytes = n * sizeof(Edge);
              dpu.mram().write(sample_base + first_slot * sizeof(Edge), items,
                               static_cast<std::size_t>(bytes));
              dpu.serial_dma(bytes);
            });
      }

      flush_bytes_[bank] = staged_bytes;
    });

    // The host work of this staging round (plus, for the first round, the
    // two partition passes that preceded it) is the window that hides the
    // previous flush's in-flight device time.
    settle_flush_round((round == 0 ? host_window_s : 0.0) +
                       stage_timer.elapsed_s());
  }

  for (std::uint32_t t = 0; t < num_triplets; ++t) {
    edges_replicated_ += batch_totals_[t];
  }
}

void PimTriangleCounter::settle_flush_round(double host_window_s) {
  drain_in_flight(host_window_s);

  // Model this round's device time: one rank-parallel scatter of the
  // per-DPU staged images, then the DPU-side receive (slowest core gates).
  const double xfer_s = system_->charge_scatter(
      flush_bytes_,
      config_.pipelined_ingest ? nullptr : &PhaseTimes::ingest_s);
  double max_delta = 0.0;
  for (std::uint32_t d = 0; d < system_->num_dpus(); ++d) {
    max_delta =
        std::max(max_delta, system_->dpu(d).cycles() - cycles_before_[d]);
  }
  const double receive_s = config_.pim.cycles_to_seconds(max_delta);
  if (config_.pipelined_ingest) {
    in_flight_device_s_ = xfer_s + receive_s;
  } else {
    system_->charge_host(receive_s, &PhaseTimes::ingest_s);
  }
}

void PimTriangleCounter::materialize_mirrors() {
  if (mirrors_valid_) return;
  // The previous batch's modeled receive must land before its sample can
  // be read back.
  drain_in_flight(0.0);

  const std::uint32_t num_triplets = plan_.num_triplets();
  std::vector<std::vector<Edge>> resident(num_triplets);
  std::vector<pim::GatherSpan> gathers(system_->num_dpus());
  bool any = false;
  for (std::uint32_t t = 0; t < num_triplets; ++t) {
    const std::uint64_t n = reservoirs_[t].stored();
    if (n == 0) continue;
    any = true;
    resident[t].resize(static_cast<std::size_t>(n));
    gathers[plan_.dpu_of(t)] = {MramLayout::sample_offset(),
                                resident[t].data(), n * sizeof(Edge)};
  }
  if (any) {
    system_->gather(gathers, &PhaseTimes::ingest_s);
  }
  for (std::uint32_t t = 0; t < num_triplets; ++t) {
    mirrors_[t].assign(std::move(resident[t]));
  }
  mirrors_valid_ = true;
}

void PimTriangleCounter::apply(std::span<const EdgeUpdate> batch) {
  bool any_delete = false;
  for (const EdgeUpdate& u : batch) {
    if (!u.is_insert) {
      any_delete = true;
      break;
    }
  }
  if (!any_delete) {
    // An all-insert batch is exactly the add_edges case; routing it there
    // keeps insert-only streams on the legacy code path verbatim (same RNG
    // draws, same staging images — bit-identical estimates and transfers).
    std::vector<Edge> edges;
    edges.reserve(batch.size());
    for (const EdgeUpdate& u : batch) edges.push_back(u.edge);
    add_edges(edges);
    return;
  }
  if (config_.uniform_p < 1.0) {
    throw std::invalid_argument(
        "PimTriangleCounter::apply: deletions cannot compose with uniform "
        "sampling (uniform_p < 1): the keep coin of the original insertion "
        "is not reconstructible, so a deletion cannot be routed "
        "consistently");
  }

  // First deletion ever: build the occupancy mirrors from the resident
  // bank contents (one modeled rank-parallel gather).
  materialize_mirrors();

  WallTimer host_timer;

  // Route the ± stream through the same two-pass partition as the insert
  // path, with the same deterministic routing: a deletion reaches exactly
  // the triplets its insertion reached (the color hash is orientation- and
  // sign-blind).  Every record lands in the host array: deletions resolve
  // against the mirrors.
  const std::uint32_t num_triplets = plan_.num_triplets();
  const color::EdgePartitioner partitioner(hash_, plan_.table());
  const auto for_each_update = [&](std::size_t lo, std::size_t hi,
                                   const auto& visit) {
    for (std::size_t i = lo; i < hi; ++i) {
      if (!batch[i].edge.is_loop()) visit(batch[i]);
    }
  };
  std::fill(route_positions_.begin(), route_positions_.end(), 0);
  pool().parallel_chunks(
      batch.size(), [&](std::size_t t, std::size_t lo, std::size_t hi) {
        std::uint64_t* counts = route_positions_.data() + t * num_triplets;
        for_each_update(lo, hi, [&](const EdgeUpdate& u) {
          for (const std::uint32_t d : partitioner.targets(u.edge)) {
            ++counts[d];
          }
        });
      });
  const std::uint64_t max_per_triplet = prefix_routes();
  std::uint64_t records = 0;
  for (std::uint32_t t = 0; t < num_triplets; ++t) {
    batch_offsets_[t] = records;
    records += batch_totals_[t];
  }
  routed_updates_.resize(static_cast<std::size_t>(records));
  pool().parallel_chunks(
      batch.size(), [&](std::size_t t, std::size_t lo, std::size_t hi) {
        std::uint64_t* cursor = route_positions_.data() + t * num_triplets;
        for_each_update(lo, hi, [&](const EdgeUpdate& u) {
          for (const std::uint32_t d : partitioner.targets(u.edge)) {
            routed_updates_[batch_offsets_[d] + cursor[d]++] = u;
          }
        });
      });

  // Stream bookkeeping.  Deletions decrement the Misra-Gries degree
  // summaries in place; they cannot ride the mergeable per-thread
  // summaries (a thread-local table cannot decrement a counter tracked
  // only globally), so the mixed path updates the global table serially.
  edges_streamed_ += batch.size();
  for (const EdgeUpdate& u : batch) {
    if (u.edge.is_loop()) continue;
    if (u.is_insert) {
      ++edges_kept_;
    } else {
      ++edges_deleted_;
    }
    if (config_.misra_gries_enabled) {
      if (u.is_insert) {
        global_mg_.update_edge(u.edge);
      } else {
        global_mg_.remove_edge(u.edge);
      }
    }
  }
  apply_updates_to_samples(max_per_triplet, host_timer.elapsed_s());

  system_->charge_host(host_timer.elapsed_s(), &PhaseTimes::host_s);
}

void PimTriangleCounter::apply_updates_to_samples(
    std::uint64_t max_per_triplet, double host_window_s) {
  const std::uint32_t num_dpus = system_->num_dpus();
  const std::uint32_t num_triplets = plan_.num_triplets();
  const std::uint32_t recv_tasklets = config_.tasklets;
  const std::uint64_t sample_base = MramLayout::sample_offset();

  if (max_per_triplet == 0) {
    drain_in_flight(host_window_s);
    return;
  }

  WallTimer stage_timer;

  // Phase 1 (host only): replay each triplet's update list in stream
  // order against its policy and mirror, collecting the touched slots.
  // The mirror's final content is the ground truth the flush reads, so
  // intermediate values never need materializing.
  pool().parallel_for(num_triplets, [&](std::size_t t) {
    sketch::ReservoirPolicy& reservoir = reservoirs_[t];
    sketch::SampleMirror<Edge>& mirror = mirrors_[t];
    std::vector<std::uint64_t>& touched = touched_slots_[t];
    touched.clear();

    bool lost_resident = false;
    const std::span<const EdgeUpdate> updates(
        routed_updates_.data() + batch_offsets_[t],
        static_cast<std::size_t>(batch_totals_[t]));
    for (const EdgeUpdate& u : updates) {
      if (u.is_insert) {
        const sketch::ReservoirDecision d = reservoir.offer();
        mirror.apply(d, u.edge);
        if (d.action != sketch::ReservoirDecision::Action::kDiscard) {
          touched.push_back(d.slot);
        }
      } else {
        // Deletions match either orientation of the stored edge.
        auto slot = mirror.evict(u.edge);
        if (!slot) slot = mirror.evict(u.edge.reversed());
        if (slot) {
          reservoir.remove_resident();
          lost_resident = true;
          touched.push_back(*slot);
        } else {
          (void)reservoir.remove_missing();
        }
      }
    }
    if (lost_resident) triplet_dirty_[t] = 1;

    // Collapse to the set of live touched slots; dead slots (at or above
    // the final stored prefix) never reach the device.
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    const std::uint64_t stored = reservoir.stored();
    while (!touched.empty() && touched.back() >= stored) touched.pop_back();
  });

  // Phase 2: flush the touched slots (final values, runs of consecutive
  // slots — the staged-record shape of the insert path's replacement
  // runs), in rounds bounded by the same per-DPU staging capacity the
  // insert path honors.
  std::uint64_t max_touched = 0;
  for (std::uint32_t t = 0; t < num_triplets; ++t) {
    max_touched = std::max<std::uint64_t>(max_touched,
                                          touched_slots_[t].size());
  }
  if (max_touched == 0) {
    drain_in_flight(host_window_s + stage_timer.elapsed_s());
    for (std::uint32_t t = 0; t < num_triplets; ++t) {
      edges_replicated_ += batch_totals_[t];
    }
    return;
  }
  const std::uint64_t round_cap = config_.staging_capacity_edges == 0
                                      ? max_touched
                                      : config_.staging_capacity_edges;
  const std::uint64_t rounds = ceil_div(max_touched, round_cap);

  for (std::uint64_t round = 0; round < rounds; ++round) {
    WallTimer round_timer;
    for (std::uint32_t d = 0; d < num_dpus; ++d) {
      cycles_before_[d] = system_->dpu(d).cycles();
    }
    // Banks without an occupant (spares) stage nothing this round.
    std::fill(flush_bytes_.begin(), flush_bytes_.end(), 0);

    pool().parallel_for(num_triplets, [&](std::size_t t) {
      pim::Dpu& dpu =
          system_->dpu(plan_.dpu_of(static_cast<std::uint32_t>(t)));
      const sketch::SampleMirror<Edge>& mirror = mirrors_[t];
      const std::vector<std::uint64_t>& touched = touched_slots_[t];
      const std::size_t lo =
          static_cast<std::size_t>(std::min<std::uint64_t>(
              round * round_cap, touched.size()));
      const std::size_t hi =
          static_cast<std::size_t>(std::min<std::uint64_t>(
              (round + 1) * round_cap, touched.size()));

      std::uint64_t staged_bytes = 0;
      std::vector<Edge> run;
      std::size_t i = lo;
      while (i < hi) {
        run.clear();
        const std::uint64_t first = touched[i];
        std::uint64_t expected = first;
        while (i < hi && touched[i] == expected) {
          run.push_back(mirror.at(expected));
          ++expected;
          ++i;
        }
        const std::uint64_t bytes = run.size() * sizeof(Edge);
        dpu.mram().write(sample_base + first * sizeof(Edge), run.data(),
                         static_cast<std::size_t>(bytes));
        dpu.serial_dma(bytes);
        staged_bytes += run.size() * kStagedReplaceBytes;
      }
      if (staged_bytes > 0) {
        dpu.charge_dma_bulk(staged_bytes, 2048);  // landing-zone read
        dpu.charge_parallel_instr(
            (staged_bytes / kStagedReplaceBytes) * config_.cost.edge_copy,
            recv_tasklets);
      }
      flush_bytes_[plan_.dpu_of(static_cast<std::uint32_t>(t))] =
          staged_bytes;
    });

    settle_flush_round(
        (round == 0 ? host_window_s + stage_timer.elapsed_s() : 0.0) +
        round_timer.elapsed_s());
  }

  for (std::uint32_t t = 0; t < num_triplets; ++t) {
    edges_replicated_ += batch_totals_[t];
  }
}

bool PimTriangleCounter::rebalance() {
  // An explicit re-plan counts as an observation: greedy_balance must not
  // overwrite it at the next batch.
  placement_observed_ = true;
  const std::vector<std::uint64_t> loads = per_dpu_edges_seen();
  if (!apply_placement(plan_.balanced_placement(loads))) return false;
  ++rebalances_;
  return true;
}

bool PimTriangleCounter::migrate_to(
    std::span<const std::uint32_t> dpu_of_triplet) {
  placement_observed_ = true;
  if (!apply_placement(dpu_of_triplet)) return false;
  ++rebalances_;
  return true;
}

bool PimTriangleCounter::apply_placement(
    std::span<const std::uint32_t> dpu_of_triplet) {
  const std::uint32_t num_dpus = plan_.num_dpus();
  const std::uint32_t num_triplets = plan_.num_triplets();
  if (dpu_of_triplet.size() != num_triplets) {
    throw std::invalid_argument(
        "PimTriangleCounter: placement needs one DPU per triplet");
  }
  const std::vector<std::uint32_t> old = plan_.placement();
  if (std::equal(old.begin(), old.end(), dpu_of_triplet.begin())) {
    return false;  // no-op re-plan: no sync point, no migration
  }
  if (fault_plan_ != nullptr && system_->dead_dpu_count() > 0) {
    throw std::logic_error(
        "PimTriangleCounter: placement migration after bank failures is "
        "unsupported (recovery owns the placement)");
  }
  // A placement change is a sync point: the previous flush must have landed
  // before its sample can move banks.
  drain_in_flight(0.0);
  plan_.set_placement(dpu_of_triplet);

  // Migrate resident samples between banks: pull every moved triplet's
  // sample to the host in one rank-parallel gather, push them to their new
  // banks in one scatter.  Both are modeled (and charged to the ingest
  // phase) exactly like any other bulk transfer.
  std::vector<std::vector<Edge>> moved(num_triplets);
  std::vector<pim::GatherSpan> gathers(num_dpus);
  std::vector<pim::ScatterSpan> scatters(num_dpus);
  bool any_resident = false;
  for (std::uint32_t t = 0; t < num_triplets; ++t) {
    if (old[t] == plan_.dpu_of(t)) continue;
    const std::uint64_t bytes = reservoirs_[t].stored() * sizeof(Edge);
    if (bytes == 0) continue;
    any_resident = true;
    moved[t].resize(static_cast<std::size_t>(reservoirs_[t].stored()));
    gathers[old[t]] = {MramLayout::sample_offset(), moved[t].data(), bytes};
    scatters[plan_.dpu_of(t)] = {MramLayout::sample_offset(), moved[t].data(),
                                 bytes};
  }
  if (any_resident) {
    system_->gather(gathers, &PhaseTimes::ingest_s);
    system_->scatter(scatters, &PhaseTimes::ingest_s);
  }

  // Every bank whose occupant changed gets a fresh control block: the
  // kernel-owned sorted state it holds belongs to the previous occupant.
  for (std::uint32_t t = 0; t < num_triplets; ++t) {
    if (old[t] == plan_.dpu_of(t)) continue;
    DpuMeta meta;
    meta.sample_size = reservoirs_[t].stored();
    meta.edges_seen = reservoirs_[t].seen();
    meta.sample_capacity = capacity_;
    system_->dpu(plan_.dpu_of(t)).mram().write_t(MramLayout::kMetaOffset,
                                                 meta);
    // The persistent sorted arcs did not move with the sample.
    sorted_valid_ = false;
  }
  return true;
}

engine::CountReport PimTriangleCounter::recount() {
  // Sync point: an in-flight batch receive must land before the kernel can
  // run, and the count depends on it — nothing left to hide it under, so
  // any remainder is charged in full.
  drain_in_flight(0.0);

  const std::uint32_t num_dpus = system_->num_dpus();
  const std::uint32_t num_triplets = plan_.num_triplets();

  // Deterministic MRAM bit-rot: one scrub epoch per recount.  With
  // checksums on, a flipped sample is detected and re-materialized from
  // the host mirror (or the triplet is lost when no mirror exists).
  if (fault_plan_ != nullptr) inject_and_scrub_bitflips();

  // Automatic rebalancing: re-plan from observed loads and migrate when the
  // projected rank-padded scatter wire shrinks by at least the configured
  // gain (hysteresis — near-ties never thrash the placement).  The bar is
  // deliberately on the *recurring* scatter shape, not the one-time
  // migration cost: that cost (and the full recount it forces in
  // incremental mode) is charged to the timeline where reports make the
  // trade visible, and once balanced, later recounts no-op so it is paid
  // at most once per load shift.  Raise rebalance_min_gain for streams
  // where migrations are not worth small padding wins.
  if (config_.rebalance_enabled &&
      !(fault_plan_ != nullptr && system_->dead_dpu_count() > 0)) {
    const std::vector<std::uint64_t> loads = per_dpu_edges_seen();
    std::vector<std::uint64_t> bytes(loads.size());
    for (std::size_t t = 0; t < loads.size(); ++t) {
      bytes[t] = loads[t] * sizeof(Edge);
    }
    const std::vector<std::uint32_t> proposed =
        plan_.balanced_placement(loads);
    const std::uint64_t current_wire =
        plan_.padded_wire_bytes(bytes, config_.pim.dma_alignment_bytes);
    const std::uint64_t proposed_wire = plan_.padded_wire_bytes(
        bytes, proposed, config_.pim.dma_alignment_bytes);
    if (static_cast<double>(current_wire) >
        static_cast<double>(proposed_wire) * config_.rebalance_min_gain) {
      if (apply_placement(proposed)) ++rebalances_;
    }
  }

  // Can this recount take the incremental path?  Requires a prior full
  // count with persistence and append-only samples since then.  The gate is
  // effective_seen (net size + pending deletions): it is non-decreasing and
  // exceeds the capacity exactly when a reservoir has ever replaced — on
  // insert-only streams it equals seen(), the legacy condition.  Triplets
  // whose sample lost an edge (triplet_dirty_) are handled per core below:
  // they alone fall back to a full pass while the rest stay incremental.
  bool overflowed = false;
  for (const auto& r : reservoirs_) {
    overflowed |= r.effective_seen() > capacity_;
  }
  const bool incremental = config_.incremental && sorted_valid_ && !overflowed;

  // High-degree remap table, broadcast to every core and frozen once
  // incremental state exists (the persistent sorted arcs were built under
  // the old mapping).  Heavy-hitter mode remaps the top-t hubs; degree-
  // ordered mode remaps every tracked node, ordered by estimated degree, so
  // region sizes anti-correlate with degree (degree orientation).  top()
  // returns highest-estimate first and remapped_id() descends with rank, so
  // the order of the table *is* the degree order.
  if (config_.misra_gries_enabled && !sorted_valid_) {
    const std::size_t want =
        config_.degree_ordered_remap
            ? std::min<std::size_t>(config_.mg_capacity, MramLayout::kMaxRemap)
            : std::min<std::size_t>(config_.mg_top, MramLayout::kMaxRemap);
    if (want > 0) frozen_remap_ = global_mg_.top(want);
  }
  const std::vector<NodeId>& remap = frozen_remap_;

  // Write control blocks (read-modify-write: the kernel owns sorted_size
  // and the sorted-valid flag).  The plan routes each triplet's block to
  // its bank.  A dirty triplet (its sample lost an edge since the last
  // count) gets its persistent sorted arcs invalidated here — only its
  // core pays the full rebuild, the rest keep their S*.
  for (std::uint32_t t = 0; t < num_triplets; ++t) {
    if (triplet_lost_[t]) continue;  // nothing resident to count
    pim::Dpu& dpu = system_->dpu(plan_.dpu_of(t));
    DpuMeta meta = dpu.mram().read_t<DpuMeta>(MramLayout::kMetaOffset);
    meta.sample_size = reservoirs_[t].stored();
    meta.edges_seen = reservoirs_[t].seen();
    meta.sample_capacity = capacity_;
    meta.num_remap = static_cast<std::uint32_t>(remap.size());
    const bool valid_t = sorted_valid_ && !triplet_dirty_[t];
    if (config_.incremental && !overflowed && valid_t) {
      meta.flags |= DpuMeta::kFlagPersistSorted;
    } else if (config_.incremental && !overflowed) {
      meta.flags |= DpuMeta::kFlagPersistSorted;
      meta.flags &= ~DpuMeta::kFlagSortedValid;
      meta.sorted_size = 0;
    } else {
      meta.flags &= ~DpuMeta::kFlagPersistSorted;
      meta.flags &= ~DpuMeta::kFlagSortedValid;
      meta.sorted_size = 0;
    }
    dpu.mram().write_t(MramLayout::kMetaOffset, meta);
    if (!remap.empty()) {
      dpu.mram().write(MramLayout::kRemapOffset, remap.data(),
                       remap.size() * sizeof(NodeId));
    }
  }

  // Control-block + remap broadcast push (uniform spans on occupied,
  // surviving banks: no padding when the placement is bank-dense).
  std::vector<std::uint64_t> meta_bytes(num_dpus, 0);
  for (std::uint32_t t = 0; t < num_triplets; ++t) {
    if (triplet_lost_[t]) continue;
    meta_bytes[plan_.dpu_of(t)] =
        sizeof(DpuMeta) + remap.size() * sizeof(NodeId);
  }
  system_->charge_scatter(meta_bytes, &PhaseTimes::count_s);

  // Launch the counting kernel on every core.
  KernelParams params;
  params.tasklets = config_.tasklets;
  params.buffer_edges = config_.wram_buffer_edges;  // validated in range
  params.intersect = config_.intersect;
  params.gallop_margin = config_.gallop_margin;
  params.region_cache = config_.region_cache;
  params.cost = config_.cost;
  std::uint64_t instr_before = 0;
  for (std::uint32_t d = 0; d < num_dpus; ++d) {
    instr_before += system_->dpu(d).total_instructions();
  }
  // Per-core kernel selection: in incremental mode, only the cores whose
  // triplet went dirty (deletion evicted a resident edge) re-run the full
  // pipeline — rebuilding their persistent arcs — while every clean core
  // counts just its new edges.
  std::uint32_t dirty_full = 0;
  std::vector<std::uint8_t> full_pass(num_dpus, incremental ? 0 : 1);
  if (incremental) {
    for (std::uint32_t t = 0; t < num_triplets; ++t) {
      if (triplet_dirty_[t] && !triplet_lost_[t]) {
        full_pass[plan_.dpu_of(t)] = 1;
        ++dirty_full;
      }
    }
  }
  // The kernels' host scratch lives for this recount only.
  KernelScratchPool scratch;
  const auto kernel = [&params, &full_pass, &scratch](pim::Dpu& dpu) {
    if (full_pass[dpu.id()]) {
      run_count_kernel(dpu, params, scratch);
    } else {
      run_incremental_kernel(dpu, params, scratch);
    }
  };
  if (fault_plan_ == nullptr) {
    system_->launch(kernel, &PhaseTimes::count_s);
  } else {
    run_launch_with_recovery(kernel, full_pass);
  }
  // After this launch every persisted arc array is fresh again: clean cores
  // merged their batch, dirty and first-time cores rebuilt from scratch.
  sorted_valid_ = config_.incremental && !overflowed;
  std::fill(triplet_dirty_.begin(), triplet_dirty_.end(), 0);
  std::uint64_t instr_after = 0;
  for (std::uint32_t d = 0; d < num_dpus; ++d) {
    instr_after += system_->dpu(d).total_instructions();
  }

  // Gather per-core results in one rank-parallel pull (only banks that ran
  // a kernel: spares and lost triplets' banks have nothing to report).
  std::vector<DpuMeta> metas(num_dpus);
  std::vector<pim::GatherSpan> gather_spans(num_dpus);
  for (std::uint32_t t = 0; t < num_triplets; ++t) {
    if (triplet_lost_[t]) continue;
    const std::uint32_t d = plan_.dpu_of(t);
    gather_spans[d] = {MramLayout::kMetaOffset, &metas[d], sizeof(DpuMeta)};
  }
  system_->gather(gather_spans, &PhaseTimes::count_s);

  // ---- statistical corrections (DESIGN.md, "Correction math") -------------
  engine::CountReport result;
  result.backend = name();
  result.simulated_times = true;
  result.host_threads = host_threads();
  result.num_units = num_dpus;
  result.num_ranks = system_->num_ranks();
  result.edges_streamed = edges_streamed_;
  result.edges_kept = edges_kept_;
  result.edges_replicated = edges_replicated_;
  result.used_incremental = incremental;
  result.dirty_full_recounts = dirty_full;
  result.edges_deleted = edges_deleted_;
  result.num_colors = config_.num_colors;
  result.placement = color::to_string(plan_.policy());
  result.dpu_utilization = static_cast<double>(num_dpus) /
                           static_cast<double>(config_.pim.max_dpus);
  result.rebalances = rebalances_;
  result.kernel.instructions = instr_after - instr_before;
  result.kernel.intersect = to_string(config_.intersect);
  for (const DpuMeta& m : metas) {
    result.kernel.merge_picks += m.merge_picks;
    result.kernel.gallop_probes += m.gallop_probes;
    result.kernel.merge_isects += m.merge_isects;
    result.kernel.gallop_isects += m.gallop_isects;
    result.kernel.chunks_claimed += m.chunks_claimed;
    result.kernel.count_instructions += m.count_instructions;
  }

  double total_scaled = 0.0;
  double mono_scaled = 0.0;
  double total_weight = 0.0;      // Σ seen over all triplets
  double surviving_weight = 0.0;  // Σ seen over surviving triplets
  double max_density = 0.0;       // max scaled/seen over survivors
  std::uint32_t lost_triplets = 0;
  std::uint64_t min_seen = ~0ull;
  std::uint64_t max_seen = 0;
  std::vector<std::uint64_t> loads(num_triplets);
  for (std::uint32_t t = 0; t < num_triplets; ++t) {
    const std::uint64_t seen = reservoirs_[t].seen();
    loads[t] = seen;
    min_seen = std::min(min_seen, seen);
    max_seen = std::max(max_seen, seen);
    result.sample_evictions += reservoirs_[t].evictions();
    result.delete_misses += reservoirs_[t].phantom_deletions();

    // Random-pairing correction: the t of the estimator is the current net
    // population plus pending deletions (effective_seen), under which the
    // resident sample is a uniform min(M, t)-subset restricted to live
    // edges — on insert-only streams effective_seen == seen, the legacy
    // factor bit for bit.
    const std::uint64_t eff = reservoirs_[t].effective_seen();
    if (eff > capacity_) ++result.reservoir_overflows;

    const std::uint32_t kind = plan_.table().triplet(t).kind();
    result.kind_edges_seen[kind - 1] += seen;
    ++result.kind_units[kind - 1];

    // Coverage weights are *observed* per-triplet loads: the host knows
    // seen() even for a triplet whose bank is gone, so losing a hub-heavy
    // triplet shrinks coverage proportionally more than losing a light one.
    const double w = static_cast<double>(seen);
    total_weight += w;
    if (triplet_lost_[t]) {
      ++lost_triplets;
      continue;
    }
    surviving_weight += w;

    const std::uint64_t raw = metas[plan_.dpu_of(t)].triangle_count;
    result.raw_total += raw;
    const double q = reservoir_correction(capacity_, eff);
    const double scaled = q > 0.0 ? static_cast<double>(raw) / q : 0.0;
    total_scaled += scaled;
    if (kind == 1) mono_scaled += scaled;
    if (seen > 0) max_density = std::max(max_density, scaled / w);
  }
  result.min_unit_edges =
      (num_triplets == 0 || min_seen == ~0ull) ? 0 : min_seen;
  result.max_unit_edges = max_seen;
  result.load_imbalance = color::PartitionPlan::load_imbalance(loads);

  const double coverage =
      total_weight > 0.0 ? surviving_weight / total_weight : 1.0;
  const double colors = static_cast<double>(config_.num_colors);
  double corrected = total_scaled - (colors - 1.0) * mono_scaled;
  if (lost_triplets > 0) {
    // Degraded mode: extrapolate the surviving triplets' contribution by
    // their seen-edge coverage (DESIGN.md, "Fault model & recovery").
    corrected = coverage > 0.0 ? corrected / coverage : 0.0;
  }
  result.estimate = corrected * uniform_sampling_correction(config_.uniform_p);
  result.exact = config_.uniform_p >= 1.0 &&
                 result.reservoir_overflows == 0 && lost_triplets == 0;
  if (result.exact) {
    // Exact mode produces an integer by construction; kill float fuzz.
    result.estimate = static_cast<double>(result.rounded());
  }
  result.times = system_->times();
  result.transfers = system_->transfer_stats();

  if (fault_plan_ != nullptr) {
    pim::FaultStats f = fault_tally_;
    f.injected = true;
    f.degraded = lost_triplets > 0;
    f.coverage = coverage;
    f.dropped_triplets = lost_triplets;
    const pim::FaultCounters& c = system_->fault_counters();
    f.launch_transients = c.launch_transients;
    f.dead_dpus = c.dead_dpus;
    f.rank_outages = c.rank_outages;
    f.transfer_corruptions = c.transfer_corruptions;
    f.transfer_retries = c.transfer_retries;
    f.checksum_bytes = c.checksum_bytes + fault_tally_.checksum_bytes;
    f.detection_s = c.detection_s + fault_tally_.detection_s;
    if (f.degraded) {
      // Widened relative bound on the coverage extrapolation: the missing
      // mass is at most (1-c)/c of the surviving mass times how much denser
      // (triangles per seen edge) the worst surviving triplet is than the
      // mean; the leading 2 is slack for the lost triplets being denser
      // still.  Property-tested on fig-scale hub-heavy graphs.
      const double mean_density =
          surviving_weight > 0.0 ? total_scaled / surviving_weight : 0.0;
      const double dispersion =
          (mean_density > 0.0 && max_density > mean_density)
              ? max_density / mean_density
              : 1.0;
      f.error_bound =
          coverage > 0.0 ? 2.0 * ((1.0 - coverage) / coverage) * dispersion
                         : 1.0;
    }
    // Both ledgers are cumulative over the session: the system's counters
    // by construction, the host tally because it is only ever incremented.
    result.faults = f;
  }

  if (config_.misra_gries_enabled) {
    for (const NodeId node : global_mg_.top(config_.mg_top)) {
      result.heavy_hitters.push_back({node, global_mg_.estimate(node)});
    }
  }
  return result;
}

engine::EngineCapabilities PimTriangleCounter::capabilities() const {
  engine::EngineCapabilities caps;
  // Exact as configured: no uniform sampling and no explicit reservoir cap
  // (a capped sample is approximate by construction once it overflows).
  // With the bank-derived capacity a huge graph can still overflow at
  // runtime, which downgrades the individual report's `exact` flag.
  caps.exact = config_.uniform_p >= 1.0 && config_.sample_capacity_edges == 0;
  caps.streaming = true;
  caps.incremental_recount = config_.incremental;
  // Deletions run random pairing on the resident samples; they cannot
  // compose with the DOULION coin (the original insertion's keep decision
  // is not reconstructible), so exact-ingest configs only.
  caps.deletions = config_.uniform_p >= 1.0;
  caps.simulated_time = true;
  caps.work_profile = false;
  return caps;
}

void PimTriangleCounter::run_launch_with_recovery(
    const std::function<void(pim::Dpu&)>& kernel,
    std::vector<std::uint8_t>& full_pass) {
  const pim::FaultSpec& spec = fault_plan_->spec();
  std::vector<std::uint32_t> pending;
  for (std::uint32_t t = 0; t < plan_.num_triplets(); ++t) {
    if (!triplet_lost_[t]) pending.push_back(plan_.dpu_of(t));
  }
  std::sort(pending.begin(), pending.end());
  std::uint32_t backoff_round = 0;
  while (!pending.empty()) {
    const pim::PimSystem::LaunchReport report =
        system_->launch_checked(pending, kernel, &PhaseTimes::count_s);
    std::vector<std::uint32_t> next;

    // Permanently dead banks: migrate their triplet to a healthy spare and
    // re-materialize from the host mirror (full kernel pass rebuilds the
    // sorted arcs), or drop the triplet when no spare/mirror exists.
    for (const std::uint32_t bank : report.dead) {
      const std::uint32_t target =
          recover_unusable_bank(plan_.triplet_of(bank));
      if (target != color::PartitionPlan::kNoTriplet) {
        full_pass[target] = 1;
        next.push_back(target);
      }
    }

    // Transient launch failures fire before the kernel touches device
    // state, so a retry replays the identical input — capped exponential
    // backoff, charged to the modeled count phase.
    if (!report.transient.empty()) {
      if (spec.recovery != pim::FaultSpec::Recovery::kDegrade &&
          backoff_round < spec.max_retries) {
        ++backoff_round;
        const double backoff_s =
            spec.backoff_base_s * static_cast<double>(1u << (backoff_round - 1));
        system_->charge_host(backoff_s, &PhaseTimes::count_s);
        fault_tally_.recovery_s += backoff_s;
        fault_tally_.launch_retries += report.transient.size();
        next.insert(next.end(), report.transient.begin(),
                    report.transient.end());
      } else {
        // Retry budget exhausted (or degrade-only policy): treat the bank
        // as unusable for this count.
        for (const std::uint32_t bank : report.transient) {
          const std::uint32_t target =
              recover_unusable_bank(plan_.triplet_of(bank));
          if (target != color::PartitionPlan::kNoTriplet) {
            full_pass[target] = 1;
            next.push_back(target);
          }
        }
      }
    }
    std::sort(next.begin(), next.end());
    pending = std::move(next);
  }
}

std::uint32_t PimTriangleCounter::recover_unusable_bank(std::uint32_t t) {
  if (fault_plan_->spec().recovery ==
          pim::FaultSpec::Recovery::kRematerialize &&
      mirrors_valid_) {
    const std::uint32_t banks = system_->num_dpus();
    for (std::uint32_t b = 0; b < banks; ++b) {
      if (plan_.triplet_of(b) != color::PartitionPlan::kNoTriplet) continue;
      if (system_->dpu_dead(b)) continue;
      std::vector<std::uint32_t> placement = plan_.placement();
      placement[t] = b;
      plan_.set_placement(placement);
      fault_tally_.recovery_s += materialize_bank(t, b);
      ++fault_tally_.rematerializations;
      ++fault_tally_.migrations;
      return b;
    }
  }
  triplet_lost_[t] = 1;
  return color::PartitionPlan::kNoTriplet;
}

double PimTriangleCounter::materialize_bank(std::uint32_t t,
                                            std::uint32_t bank) {
  double seconds = 0.0;
  const sketch::SampleMirror<Edge>& mirror = mirrors_[t];
  const std::uint64_t sample_bytes = mirror.size() * sizeof(Edge);
  if (sample_bytes > 0) {
    std::vector<pim::ScatterSpan> spans(system_->num_dpus());
    spans[bank] = {MramLayout::sample_offset(), mirror.items().data(),
                   sample_bytes};
    seconds += system_->scatter(spans, &PhaseTimes::count_s);
  }
  // Fresh control block: the kernel-owned sorted state of whatever occupied
  // this bank before is meaningless for the restored sample.
  DpuMeta meta;
  meta.sample_size = reservoirs_[t].stored();
  meta.edges_seen = reservoirs_[t].seen();
  meta.sample_capacity = capacity_;
  meta.num_remap = static_cast<std::uint32_t>(frozen_remap_.size());
  if (config_.incremental && !any_reservoir_overflowed()) {
    meta.flags |= DpuMeta::kFlagPersistSorted;
  }
  pim::Dpu& dpu = system_->dpu(bank);
  dpu.mram().write_t(MramLayout::kMetaOffset, meta);
  if (!frozen_remap_.empty()) {
    dpu.mram().write(MramLayout::kRemapOffset, frozen_remap_.data(),
                     frozen_remap_.size() * sizeof(NodeId));
  }
  std::vector<std::uint64_t> meta_bytes(system_->num_dpus(), 0);
  meta_bytes[bank] = sizeof(DpuMeta) + frozen_remap_.size() * sizeof(NodeId);
  seconds += system_->charge_scatter(meta_bytes, &PhaseTimes::count_s);
  return seconds;
}

void PimTriangleCounter::inject_and_scrub_bitflips() {
  // The epoch advances every recount, fired or not: the draw stream must
  // not depend on what earlier epochs happened to hit.
  const std::uint64_t epoch = fault_epoch_++;
  const pim::FaultSpec& spec = fault_plan_->spec();
  if (spec.mram_bitflip <= 0.0) return;
  for (std::uint32_t t = 0; t < plan_.num_triplets(); ++t) {
    if (triplet_lost_[t]) continue;
    const std::uint64_t stored = reservoirs_[t].stored();
    if (stored == 0) continue;
    const std::uint32_t bank = plan_.dpu_of(t);
    if (system_->dpu_dead(bank)) continue;
    if (!fault_plan_->mram_bitflip(epoch, t)) continue;

    const std::uint64_t bytes = stored * sizeof(Edge);
    const std::uint64_t bit = fault_plan_->corrupt_bit(epoch, t, bytes * 8);
    auto& mram = system_->dpu(bank).mram();
    const std::uint64_t addr = MramLayout::sample_offset() + bit / 8;
    std::uint8_t byte = 0;
    mram.read(addr, &byte, 1);
    byte = static_cast<std::uint8_t>(byte ^ (1u << (bit % 8)));
    mram.write(addr, &byte, 1);
    ++fault_tally_.mram_bitflips;
    if (!spec.checksums) continue;  // silent rot: the count reads garbage

    // Scrub detects the flip (modeled checksum sweep of the resident
    // sample), then restores from the host mirror when one exists.
    const double scrub_s =
        static_cast<double>(bytes) / (spec.checksum_gb_s * 1e9);
    system_->charge_host(scrub_s, &PhaseTimes::count_s);
    fault_tally_.detection_s += scrub_s;
    fault_tally_.checksum_bytes += bytes;
    if (mirrors_valid_) {
      fault_tally_.recovery_s += materialize_bank(t, bank);
      ++fault_tally_.sample_restores;
      // The restored control block reset the kernel-owned sorted state;
      // force the full pipeline on this core.
      triplet_dirty_[t] = 1;
    } else {
      triplet_lost_[t] = 1;
    }
  }
}

void PimTriangleCounter::restore_bank(std::uint32_t triplet) {
  if (triplet >= plan_.num_triplets()) {
    throw std::invalid_argument(
        "PimTriangleCounter::restore_bank: no such triplet");
  }
  if (!mirrors_valid_) {
    throw std::logic_error(
        "PimTriangleCounter::restore_bank: host mirrors not materialized; "
        "call ensure_mirrors() first");
  }
  drain_in_flight(0.0);
  materialize_bank(triplet, plan_.dpu_of(triplet));
  triplet_dirty_[triplet] = 1;
}

bool PimTriangleCounter::any_reservoir_overflowed() const noexcept {
  for (const auto& r : reservoirs_) {
    if (r.effective_seen() > capacity_) return true;
  }
  return false;
}

std::vector<std::uint64_t> PimTriangleCounter::per_dpu_edges_seen() const {
  std::vector<std::uint64_t> seen;
  seen.reserve(reservoirs_.size());
  for (const auto& r : reservoirs_) seen.push_back(r.seen());
  return seen;
}

}  // namespace pimtc::tc
