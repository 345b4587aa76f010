#include "core/two_pass_triangle.h"

#include <algorithm>
#include <vector>

#include "snapshot/codec.h"
#include "util/check.h"
#include "util/hashing.h"

namespace cyclestream {
namespace core {

namespace {

// Stable identifier of a candidate (edge, apex) pair; the sampler applies its
// own seeded priority hash on top of this key.
std::uint64_t PairKey(EdgeKey edge_key, VertexId apex) {
  return Mix128To64(edge_key, apex);
}

constexpr std::size_t kQSlackFactor = 2;

}  // namespace

TwoPassTriangleCounter::TwoPassTriangleCounter(
    const TwoPassTriangleOptions& options)
    : options_(options),
      edge_sample_(std::max<std::size_t>(options.sample_size, 1),
                   Mix64(options.seed) ^ 0x1111111111111111ULL,
                   &space_domain_),
      edge_watchers_(decltype(edge_watchers_)::allocator_type(&space_domain_)),
      touched_edges_(decltype(touched_edges_)::allocator_type(&space_domain_)),
      pair_sample_(kQSlackFactor * std::max<std::size_t>(options.sample_size, 1),
                   Mix64(options.seed) ^ 0x2222222222222222ULL,
                   &space_domain_),
      slab_(decltype(slab_)::allocator_type(&space_domain_)),
      free_slots_(decltype(free_slots_)::allocator_type(&space_domain_)),
      tri_edges_(decltype(tri_edges_)::allocator_type(&space_domain_)),
      tri_verts_(decltype(tri_verts_)::allocator_type(&space_domain_)),
      touched_tri_edges_(
          decltype(touched_tri_edges_)::allocator_type(&space_domain_)) {
  CYCLESTREAM_CHECK_GE(options.sample_size, 1u);
}

obs::AccountedVector<EdgeKey>& TwoPassTriangleCounter::Watchers(VertexId v) {
  return edge_watchers_
      .try_emplace(v, obs::AccountedAllocator<EdgeKey>(&space_domain_))
      .first->second;
}

TwoPassTriangleCounter::TriEdgeWatch& TwoPassTriangleCounter::TriEdgeFor(
    EdgeKey key) {
  return tri_edges_
      .try_emplace(key, obs::AccountedAllocator<TriEdgeWatch::Subscriber>(
                            &space_domain_))
      .first->second;
}

obs::AccountedVector<std::uint32_t>& TwoPassTriangleCounter::TriVerts(
    VertexId v) {
  return tri_verts_
      .try_emplace(v, obs::AccountedAllocator<std::uint32_t>(&space_domain_))
      .first->second;
}

EdgeKey TwoPassTriangleCounter::EdgeKeyOfSlot(const TriEntry& entry,
                                              int slot) const {
  switch (slot) {
    case 0:
      return MakeEdgeKey(entry.vert[1], entry.vert[2]);
    case 1:
      return MakeEdgeKey(entry.vert[0], entry.vert[2]);
    default:
      return MakeEdgeKey(entry.vert[0], entry.vert[1]);
  }
}

std::uint32_t TwoPassTriangleCounter::AllocEntry() {
  if (!free_slots_.empty()) {
    std::uint32_t idx = free_slots_.back();
    free_slots_.pop_back();
    slab_[idx] = TriEntry{};
    return idx;
  }
  slab_.emplace_back();
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

void TwoPassTriangleCounter::FreeEntry(std::uint32_t idx) {
  slab_[idx].live = false;
  free_slots_.push_back(idx);
}

void TwoPassTriangleCounter::SubscribeEntry(std::uint32_t idx) {
  TriEntry& entry = slab_[idx];
  for (int slot = 0; slot < 3; ++slot) {
    EdgeKey key = EdgeKeyOfSlot(entry, slot);
    TriEdgeWatch& watch = TriEdgeFor(key);
    if (watch.subscribers.empty()) {
      watch.lo = EdgeKeyLo(key);
      watch.hi = EdgeKeyHi(key);
    }
    watch.subscribers.push_back({idx, static_cast<std::uint8_t>(slot)});
    TriVerts(entry.vert[slot]).push_back(idx);
  }
}

void TwoPassTriangleCounter::UnsubscribeEntry(std::uint32_t idx) {
  TriEntry& entry = slab_[idx];
  for (int slot = 0; slot < 3; ++slot) {
    EdgeKey key = EdgeKeyOfSlot(entry, slot);
    auto it = tri_edges_.find(key);
    if (it != tri_edges_.end()) {
      auto& subs = it->second.subscribers;
      for (std::size_t i = 0; i < subs.size(); ++i) {
        if (subs[i].first == idx && subs[i].second == slot) {
          subs[i] = subs.back();
          subs.pop_back();
          break;
        }
      }
      if (subs.empty()) tri_edges_.erase(it);
    }
    auto vit = tri_verts_.find(entry.vert[slot]);
    if (vit != tri_verts_.end()) {
      auto& vec = vit->second;
      for (std::size_t i = 0; i < vec.size(); ++i) {
        if (vec[i] == idx) {
          vec[i] = vec.back();
          vec.pop_back();
          break;
        }
      }
      if (vec.empty()) tri_verts_.erase(vit);
    }
  }
}

void TwoPassTriangleCounter::OnPairEvicted(std::uint64_t /*pair_key*/,
                                           std::uint32_t slab_idx) {
  UnsubscribeEntry(slab_idx);
  FreeEntry(slab_idx);
}

void TwoPassTriangleCounter::OnEdgeEvicted(EdgeKey key, EdgeState&& state) {
  t_prime_ -= state.tri_count;
  // Drop endpoint watchers.
  for (VertexId endpoint : {state.lo, state.hi}) {
    auto it = edge_watchers_.find(endpoint);
    if (it == edge_watchers_.end()) continue;
    auto& vec = it->second;
    for (std::size_t i = 0; i < vec.size(); ++i) {
      if (vec[i] == key) {
        vec[i] = vec.back();
        vec.pop_back();
        break;
      }
    }
    if (vec.empty()) edge_watchers_.erase(it);
  }
  // Remove candidate pairs whose sampled edge was this one (slot-2
  // subscribers of this physical edge). Copy first: unsubscription mutates
  // the subscriber list we are scanning.
  auto it = tri_edges_.find(key);
  if (it != tri_edges_.end()) {
    std::vector<TriEdgeWatch::Subscriber> subs(it->second.subscribers.begin(),
                                               it->second.subscribers.end());
    for (const auto& [idx, slot] : subs) {
      if (slot != 2) continue;
      TriEntry& entry = slab_[idx];
      std::uint64_t pair_key = PairKey(key, entry.vert[2]);
      pair_sample_.Erase(pair_key);
      UnsubscribeEntry(idx);
      FreeEntry(idx);
    }
  }
}

void TwoPassTriangleCounter::HandleTriangleDetection(EdgeKey edge_key,
                                                     EdgeState* edge,
                                                     VertexId apex) {
  ++edge->tri_count;
  ++t_prime_;
  std::uint64_t pair_key = PairKey(edge_key, apex);
  std::uint32_t idx = AllocEntry();
  TriEntry& entry = slab_[idx];
  entry.vert[0] = edge->lo;
  entry.vert[1] = edge->hi;
  entry.vert[2] = apex;
  entry.live = true;
  if (pass_ == 1) entry.seen[2] = true;  // apex's list is the current one

  auto result = pair_sample_.Offer(
      pair_key, idx, [this](std::uint64_t key, std::uint32_t&& evicted_idx) {
        (void)key;
        q_overflowed_ = true;
        OnPairEvicted(key, evicted_idx);
      });
  if (result == sampling::OfferResult::kInserted) {
    SubscribeEntry(idx);
  } else {
    // Rejected (kAlreadyPresent cannot occur: each pair is detected once).
    CYCLESTREAM_CHECK(result == sampling::OfferResult::kRejected);
    q_overflowed_ = true;
    FreeEntry(idx);
  }
}

void TwoPassTriangleCounter::BeginPass(int pass) {
  pass_ = pass;
  list_pos_ = 0;
  if (pass == 1) {
    for (TriEntry& entry : slab_) {
      if (entry.live) {
        entry.seen[0] = entry.seen[1] = entry.seen[2] = false;
      }
    }
  }
}

void TwoPassTriangleCounter::BeginList(VertexId /*u*/) {}

void TwoPassTriangleCounter::HandlePair(VertexId u, VertexId v) {
  if (pass_ == 0) {
    ++pair_events_;
    // Offer the edge to S; members of the final sample are admitted here, at
    // their first appearance (bottom-k thresholds only decrease).
    EdgeKey key = MakeEdgeKey(u, v);
    EdgeState state;
    state.lo = EdgeKeyLo(key);
    state.hi = EdgeKeyHi(key);
    state.first_pos = list_pos_;
    auto result = edge_sample_.Offer(
        key, std::move(state), [this](EdgeKey k, EdgeState&& evicted) {
          OnEdgeEvicted(k, std::move(evicted));
        });
    if (result == sampling::OfferResult::kInserted) {
      Watchers(EdgeKeyLo(key)).push_back(key);
      Watchers(EdgeKeyHi(key)).push_back(key);
    }
  }

  // Flag sampled edges having endpoint v.
  auto wit = edge_watchers_.find(v);
  if (wit != edge_watchers_.end()) {
    for (EdgeKey key : wit->second) {
      EdgeState* st = edge_sample_.Find(key);
      if (st == nullptr) continue;
      if (!st->flag_lo && !st->flag_hi) touched_edges_.push_back(key);
      if (st->lo == v) {
        st->flag_lo = true;
      } else {
        st->flag_hi = true;
      }
    }
  }

  // In the second pass, flag triangle edges having endpoint v (for H
  // accumulation). Derive the edges from the entries containing v.
  if (pass_ == 1) {
    auto vit = tri_verts_.find(v);
    if (vit != tri_verts_.end()) {
      for (std::uint32_t idx : vit->second) {
        const TriEntry& entry = slab_[idx];
        for (int slot = 0; slot < 3; ++slot) {
          if (entry.vert[slot] == v) continue;  // edge opposite v excluded
          auto eit = tri_edges_.find(EdgeKeyOfSlot(entry, slot));
          if (eit == tri_edges_.end()) continue;
          TriEdgeWatch& watch = eit->second;
          if (!watch.flag_lo && !watch.flag_hi) {
            touched_tri_edges_.push_back(&watch);
          }
          if (watch.lo == v) {
            watch.flag_lo = true;
          } else {
            watch.flag_hi = true;
          }
        }
      }
    }
  }
}

void TwoPassTriangleCounter::EndList(VertexId u) {
  if (pass_ == 1) {
    // Step 1: H increments for completed triangle edges whose reference
    // third vertex has already been seen strictly earlier this pass. The
    // watch pointers are valid here: nothing erases a watch between
    // HandlePair and this loop. Step 2's pair evictions can, so the flags
    // are reset now.
    for (TriEdgeWatch* watch : touched_tri_edges_) {
      if (watch->flag_lo && watch->flag_hi) {
        for (const auto& [idx, slot] : watch->subscribers) {
          TriEntry& entry = slab_[idx];
          if (entry.seen[slot]) ++entry.h[slot];
        }
      }
      watch->flag_lo = watch->flag_hi = false;
    }
    touched_tri_edges_.clear();
  }

  // Step 2: triangle detections on sampled edges, resetting their flags.
  // HandleTriangleDetection never touches edge_sample_, so `st` stays valid.
  for (EdgeKey key : touched_edges_) {
    EdgeState* st = edge_sample_.Find(key);
    if (st == nullptr) continue;  // evicted mid-list
    if (st->flag_lo && st->flag_hi) {
      bool is_new_detection =
          pass_ == 0 ? true : list_pos_ < st->first_pos;
      if (is_new_detection) HandleTriangleDetection(key, st, u);
    }
    st->flag_lo = st->flag_hi = false;
  }
  touched_edges_.clear();

  if (pass_ == 1) {
    // Step 3: mark this list's vertex as seen for subscribed entries.
    auto vit = tri_verts_.find(u);
    if (vit != tri_verts_.end()) {
      for (std::uint32_t idx : vit->second) {
        TriEntry& entry = slab_[idx];
        for (int slot = 0; slot < 3; ++slot) {
          if (entry.vert[slot] == u) entry.seen[slot] = true;
        }
      }
    }
  }

  ++list_pos_;
}

void TwoPassTriangleCounter::EndPass(int pass) {
  if (pass == 1) finished_ = true;
}

std::size_t TwoPassTriangleCounter::CurrentSpaceBytes() const {
  constexpr std::size_t kMapEntryOverhead = 48;
  std::size_t bytes = edge_sample_.MemoryBytes() + pair_sample_.MemoryBytes();
  bytes += slab_.capacity() * sizeof(TriEntry);
  bytes += free_slots_.capacity() * sizeof(std::uint32_t);
  bytes += edge_watchers_.size() * kMapEntryOverhead;
  bytes += tri_verts_.size() * kMapEntryOverhead;
  bytes += tri_edges_.size() * (kMapEntryOverhead + sizeof(TriEdgeWatch));
  // Nested vectors: watcher entries ~ 2 per sampled edge, subscriber entries
  // ~ 3 per live pair, vertex subscriptions ~ 3 per live pair.
  bytes += 2 * edge_sample_.size() * sizeof(EdgeKey);
  bytes += 3 * pair_sample_.size() *
           (sizeof(std::pair<std::uint32_t, std::uint8_t>) +
            sizeof(std::uint32_t));
  // Both scratch vectors hold 8-byte elements: edge keys, watch pointers.
  static_assert(sizeof(TriEdgeWatch*) == sizeof(EdgeKey));
  bytes += (touched_edges_.capacity() + touched_tri_edges_.capacity()) *
           sizeof(EdgeKey);
  return bytes;
}

void TwoPassTriangleCounter::Serialize(snapshot::SnapshotWriter& w) const {
  w.WriteU64(options_.sample_size);
  w.WriteU64(options_.seed);
  w.WriteBool(options_.use_lightest_edge_rule);
  w.WriteU64(static_cast<std::uint64_t>(pass_ + 1));  // -1-safe
  w.WriteU32(list_pos_);
  w.WriteU64(pair_events_);
  w.WriteU64(t_prime_);
  w.WriteBool(q_overflowed_);
  w.WriteBool(finished_);

  edge_sample_.Serialize(w, [](snapshot::SnapshotWriter& pw, EdgeKey /*key*/,
                               const EdgeState& state) {
    CYCLESTREAM_CHECK(!state.flag_lo && !state.flag_hi);
    pw.WriteU32(state.first_pos);
    pw.WriteU64(state.tri_count);
  });
  snapshot::WriteBucketCount(w, edge_watchers_);
  w.WriteU64(edge_watchers_.size());
  for (const VertexId vertex : snapshot::SortedKeys(edge_watchers_)) {
    w.WriteU32(vertex);
    // Watcher content order matters (swap-remove eviction), so verbatim.
    snapshot::WriteVec(w, edge_watchers_.find(vertex)->second,
                       [](snapshot::SnapshotWriter& vw, EdgeKey key) {
                         vw.WriteU64(key);
                       });
  }
  snapshot::WriteScratchCapacity(w, touched_edges_);

  pair_sample_.Serialize(w, [](snapshot::SnapshotWriter& pw,
                               std::uint64_t /*pair_key*/,
                               const std::uint32_t& idx) { pw.WriteU32(idx); });
  // The slab is serialized verbatim (live and dead slots): slab indices are
  // stored in the pair sample, subscriber lists, and vertex subscriptions,
  // so the slot layout itself is state.
  snapshot::WriteVec(w, slab_,
                     [](snapshot::SnapshotWriter& vw, const TriEntry& entry) {
                       vw.WriteBool(entry.live);
                       if (!entry.live) return;  // freed: defaults on reuse
                       for (int slot = 0; slot < 3; ++slot) {
                         vw.WriteU32(entry.vert[slot]);
                       }
                       for (int slot = 0; slot < 3; ++slot) {
                         vw.WriteU64(entry.h[slot]);
                       }
                       vw.WriteU8((entry.seen[0] ? 1 : 0) |
                                  (entry.seen[1] ? 2 : 0) |
                                  (entry.seen[2] ? 4 : 0));
                     });
  snapshot::WriteVec(w, free_slots_,
                     [](snapshot::SnapshotWriter& vw, std::uint32_t idx) {
                       vw.WriteU32(idx);
                     });
  snapshot::WriteBucketCount(w, tri_edges_);
  w.WriteU64(tri_edges_.size());
  for (const EdgeKey key : snapshot::SortedKeys(tri_edges_)) {
    const TriEdgeWatch& watch = tri_edges_.find(key)->second;
    CYCLESTREAM_CHECK(!watch.flag_lo && !watch.flag_hi);
    w.WriteU64(key);
    snapshot::WriteVec(w, watch.subscribers,
                       [](snapshot::SnapshotWriter& vw,
                          const TriEdgeWatch::Subscriber& sub) {
                         vw.WriteU32(sub.first);
                         vw.WriteU8(sub.second);
                       });
  }
  snapshot::WriteBucketCount(w, tri_verts_);
  w.WriteU64(tri_verts_.size());
  for (const VertexId vertex : snapshot::SortedKeys(tri_verts_)) {
    w.WriteU32(vertex);
    snapshot::WriteVec(w, tri_verts_.find(vertex)->second,
                       [](snapshot::SnapshotWriter& vw, std::uint32_t idx) {
                         vw.WriteU32(idx);
                       });
  }
  snapshot::WriteScratchCapacity(w, touched_tri_edges_);
}

Status TwoPassTriangleCounter::Restore(snapshot::SnapshotReader& r) {
  CYCLESTREAM_CHECK_EQ(edge_sample_.size(), 0u);
  CYCLESTREAM_CHECK_EQ(pair_sample_.size(), 0u);
  const std::uint64_t sample_size = r.ReadU64();
  const std::uint64_t seed = r.ReadU64();
  const bool lightest = r.ReadBool();
  if (!r.status().ok()) return r.status();
  if (sample_size != options_.sample_size || seed != options_.seed ||
      lightest != options_.use_lightest_edge_rule) {
    return Status::FailedPrecondition(
        "two-pass triangle snapshot options mismatch");
  }
  pass_ = static_cast<int>(r.ReadU64()) - 1;
  list_pos_ = r.ReadU32();
  pair_events_ = r.ReadU64();
  t_prime_ = r.ReadU64();
  q_overflowed_ = r.ReadBool();
  finished_ = r.ReadBool();

  Status sample_status = edge_sample_.Restore(
      r, [](snapshot::SnapshotReader& pr, EdgeKey key) {
        EdgeState state;
        state.lo = EdgeKeyLo(key);
        state.hi = EdgeKeyHi(key);
        state.first_pos = pr.ReadU32();
        state.tri_count = pr.ReadU64();
        return state;
      });
  if (!sample_status.ok()) return sample_status;
  snapshot::RestoreBucketCount(r, edge_watchers_);
  const std::uint64_t watcher_lists = r.ReadU64();
  if (!r.status().ok()) return r.status();
  for (std::uint64_t i = 0; i < watcher_lists && r.status().ok(); ++i) {
    const VertexId vertex = r.ReadU32();
    snapshot::ReadVec(r, Watchers(vertex),
                      [](snapshot::SnapshotReader& vr) { return vr.ReadU64(); });
  }
  snapshot::ReadScratchCapacity(r, touched_edges_);

  Status pair_status = pair_sample_.Restore(
      r, [](snapshot::SnapshotReader& pr, std::uint64_t /*pair_key*/) {
        return pr.ReadU32();
      });
  if (!pair_status.ok()) return pair_status;
  snapshot::ReadVec(r, slab_, [](snapshot::SnapshotReader& vr) {
    TriEntry entry;
    entry.live = vr.ReadBool();
    if (!entry.live) return entry;
    for (int slot = 0; slot < 3; ++slot) entry.vert[slot] = vr.ReadU32();
    for (int slot = 0; slot < 3; ++slot) entry.h[slot] = vr.ReadU64();
    const std::uint8_t seen_bits = vr.ReadU8();
    for (int slot = 0; slot < 3; ++slot) {
      entry.seen[slot] = (seen_bits >> slot) & 1;
    }
    return entry;
  });
  snapshot::ReadVec(r, free_slots_,
                    [](snapshot::SnapshotReader& vr) { return vr.ReadU32(); });
  snapshot::RestoreBucketCount(r, tri_edges_);
  const std::uint64_t watched_edges = r.ReadU64();
  if (!r.status().ok()) return r.status();
  for (std::uint64_t i = 0; i < watched_edges && r.status().ok(); ++i) {
    const EdgeKey key = r.ReadU64();
    if (!r.status().ok()) break;
    TriEdgeWatch& watch = TriEdgeFor(key);
    watch.lo = EdgeKeyLo(key);
    watch.hi = EdgeKeyHi(key);
    snapshot::ReadVec(r, watch.subscribers, [](snapshot::SnapshotReader& vr) {
      const std::uint32_t idx = vr.ReadU32();
      return TriEdgeWatch::Subscriber{idx, vr.ReadU8()};
    });
  }
  snapshot::RestoreBucketCount(r, tri_verts_);
  const std::uint64_t vert_lists = r.ReadU64();
  if (!r.status().ok()) return r.status();
  for (std::uint64_t i = 0; i < vert_lists && r.status().ok(); ++i) {
    const VertexId vertex = r.ReadU32();
    snapshot::ReadVec(r, TriVerts(vertex),
                      [](snapshot::SnapshotReader& vr) { return vr.ReadU32(); });
  }
  snapshot::ReadScratchCapacity(r, touched_tri_edges_);
  return r.status();
}

TwoPassTriangleResult TwoPassTriangleCounter::result() const {
  CYCLESTREAM_CHECK(finished_);
  TwoPassTriangleResult res;
  res.edge_count = pair_events_ / 2;
  res.candidate_pairs = t_prime_;
  res.edge_sample_size = edge_sample_.size();
  res.k = res.edge_sample_size == 0
              ? 1.0
              : static_cast<double>(res.edge_count) /
                    static_cast<double>(res.edge_sample_size);

  if (!options_.use_lightest_edge_rule) {
    res.estimate = res.k * static_cast<double>(t_prime_) / 3.0;
    return res;
  }

  res.pairs_live = pair_sample_.size();
  res.q_overflowed = q_overflowed_;
  if (t_prime_ == 0 || pair_sample_.size() == 0) {
    res.estimate = 0.0;
    return res;
  }

  // Select the bottom-m' candidates by priority (the sampler holds up to
  // 2m' as slack; see header).
  std::vector<std::pair<std::uint64_t, std::uint32_t>> live;
  live.reserve(pair_sample_.size());
  pair_sample_.ForEach([&](std::uint64_t key, const std::uint32_t& idx) {
    live.push_back({pair_sample_.PriorityOf(key), idx});
  });
  // If Q never overflowed it holds every candidate pair; use it wholesale
  // (the estimator is then exact given S). Otherwise take the bottom-m'
  // prefix by priority.
  std::size_t used = q_overflowed_
                         ? std::min(options_.sample_size, live.size())
                         : live.size();
  std::nth_element(live.begin(), live.begin() + used - 1, live.end());

  std::uint64_t rho_hits = 0;
  for (std::size_t i = 0; i < used; ++i) {
    const TriEntry& entry = slab_[live[i].second];
    int best_slot = 0;
    for (int slot = 1; slot < 3; ++slot) {
      if (entry.h[slot] < entry.h[best_slot] ||
          (entry.h[slot] == entry.h[best_slot] &&
           EdgeKeyOfSlot(entry, slot) < EdgeKeyOfSlot(entry, best_slot))) {
        best_slot = slot;
      }
    }
    if (best_slot == 2) ++rho_hits;  // slot 2 is the sampled edge
  }
  res.pair_sample_size = used;
  res.rho_hits = rho_hits;
  res.estimate = res.k * static_cast<double>(t_prime_) /
                 static_cast<double>(used) * static_cast<double>(rho_hits);
  return res;
}

}  // namespace core
}  // namespace cyclestream
