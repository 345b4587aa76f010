#include "stream/fault_injection.h"

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/random.h"

namespace cyclestream {
namespace stream {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kSplitList: return "split-list";
    case FaultKind::kDropPair: return "drop-pair";
    case FaultKind::kDuplicatePair: return "duplicate-pair";
    case FaultKind::kDropReverseEdge: return "drop-reverse-edge";
    case FaultKind::kTruncatePass: return "truncate-pass";
    case FaultKind::kReplayDivergence: return "replay-divergence";
  }
  return "unknown";
}

bool FaultAppliesTo(FaultKind kind, StreamModel model) {
  switch (kind) {
    case FaultKind::kNone:
    case FaultKind::kDropPair:
    case FaultKind::kDuplicatePair:
    case FaultKind::kTruncatePass:
    case FaultKind::kReplayDivergence:
      return true;  // any element sequence can lose/repeat/cut/permute
    case FaultKind::kSplitList:
    case FaultKind::kDropReverseEdge:
      // Need adjacency-list structure: contiguous lists / both pair copies.
      return model == StreamModel::kAdjacencyList;
  }
  return false;
}

Status FaultSpec::ValidateFor(StreamModel model) const {
  if (pass < 0) {
    return Status::InvalidArgument("fault pass must be >= 0");
  }
  if (!FaultAppliesTo(kind, model)) {
    return Status::InvalidArgument(
        std::string(FaultKindName(kind)) +
        " fault does not apply to the " + StreamModelName(model) +
        " stream model");
  }
  if (kind == FaultKind::kReplayDivergence && pass == 0 &&
      !HasDeclaredOrder(model)) {
    return Status::InvalidArgument(
        std::string("replay-divergence at pass 0 is undetectable in the ") +
        StreamModelName(model) +
        " stream model: pass 0 defines the order; only declared-order "
        "models (random-order, adversarial-perturbed) pin pass 0 by seed");
  }
  return Status::Ok();
}

namespace {

// Lists with at least `min_degree` entries, in stream order.
std::vector<VertexId> EligibleLists(const AdjacencyListStream& base,
                                    std::size_t min_degree) {
  std::vector<VertexId> out;
  for (VertexId u : base.list_order()) {
    if (base.ListOf(u).size() >= min_degree) out.push_back(u);
  }
  return out;
}

}  // namespace

StatusOr<FaultInjectingStream> FaultInjectingStream::Make(
    const AdjacencyListStream* base, FaultSpec spec) {
  CYCLESTREAM_CHECK(base != nullptr);
  Status valid = spec.ValidateFor(StreamModel::kAdjacencyList);
  if (!valid.ok()) return valid;
  return FaultInjectingStream(base, spec);
}

FaultInjectingStream::FaultInjectingStream(const AdjacencyListStream* base,
                                           FaultSpec spec)
    : base_(base), spec_(spec) {
  CYCLESTREAM_CHECK(base != nullptr);
  CYCLESTREAM_CHECK_GE(spec_.pass, 0);
  Rng rng(spec_.seed);

  switch (spec_.kind) {
    case FaultKind::kNone:
      return;
    case FaultKind::kSplitList:
    case FaultKind::kDuplicatePair:
    case FaultKind::kReplayDivergence: {
      if (spec_.kind == FaultKind::kReplayDivergence) {
        // Pass 0 defines the order; only later passes can diverge from it.
        CYCLESTREAM_CHECK_GE(spec_.pass, 1);
      }
      std::vector<VertexId> eligible = EligibleLists(*base_, 2);
      CYCLESTREAM_CHECK(!eligible.empty());
      target_list_ = eligible[rng.NextBounded(eligible.size())];
      const std::size_t deg = base_->ListOf(target_list_).size();
      // Divergence swaps entries (i, i+1), so keep i < deg - 1.
      target_index_ = spec_.kind == FaultKind::kReplayDivergence
                          ? rng.NextBounded(deg - 1)
                          : rng.NextBounded(deg);
      break;
    }
    case FaultKind::kDropPair: {
      std::vector<VertexId> eligible = EligibleLists(*base_, 1);
      CYCLESTREAM_CHECK(!eligible.empty());
      target_list_ = eligible[rng.NextBounded(eligible.size())];
      target_index_ = rng.NextBounded(base_->ListOf(target_list_).size());
      break;
    }
    case FaultKind::kDropReverseEdge: {
      // Pick an edge, then drop the copy in whichever endpoint's list is
      // streamed later — the forward copy has already been delivered when
      // the reverse one goes missing.
      const auto& edges = base_->graph().edges();
      CYCLESTREAM_CHECK(!edges.empty());
      const Edge e = edges[rng.NextBounded(edges.size())];
      std::vector<std::size_t> rank(base_->graph().num_vertices(), 0);
      const auto& order = base_->list_order();
      for (std::size_t i = 0; i < order.size(); ++i) rank[order[i]] = i;
      const VertexId later = rank[e.u] > rank[e.v] ? e.u : e.v;
      const VertexId partner = later == e.u ? e.v : e.u;
      target_list_ = later;
      auto list = base_->ListOf(later);
      for (std::size_t i = 0; i < list.size(); ++i) {
        if (list[i] == partner) {
          target_index_ = i;
          break;
        }
      }
      break;
    }
    case FaultKind::kTruncatePass: {
      CYCLESTREAM_CHECK_GE(base_->stream_length(), 1u);
      if (spec_.truncate_at == FaultSpec::kDeriveFromSeed) {
        truncate_after_ = rng.NextBounded(base_->stream_length());
      } else {
        CYCLESTREAM_CHECK_LT(spec_.truncate_at, base_->stream_length());
        truncate_after_ = spec_.truncate_at;
      }
      fault_position_ = truncate_after_;
      return;
    }
  }

  if (spec_.kind != FaultKind::kSplitList) {
    auto list = base_->ListOf(target_list_);
    corrupted_list_.assign(list.begin(), list.end());
    const auto at = corrupted_list_.begin() +
                    static_cast<std::ptrdiff_t>(target_index_);
    if (spec_.kind == FaultKind::kDuplicatePair) {
      corrupted_list_.insert(at, list[target_index_]);
    } else if (spec_.kind == FaultKind::kReplayDivergence) {
      std::iter_swap(at, at + 1);
    } else {
      corrupted_list_.erase(at);  // drop-pair, drop-reverse-edge
    }
  }

  // Stream position of the first corrupted element: pairs delivered before
  // the target list, plus the index within it.
  std::size_t prefix = 0;
  std::size_t next_list_size = 0;
  bool target_seen = false;
  for (VertexId u : base_->list_order()) {
    if (u == target_list_) {
      target_seen = true;
      continue;
    }
    if (target_seen) {
      next_list_size = base_->ListOf(u).size();
      break;
    }
    prefix += base_->ListOf(u).size();
  }
  if (spec_.kind == FaultKind::kSplitList) {
    // The violation surfaces when the second segment reopens the list,
    // which happens after the first half and one interposed full list.
    fault_position_ =
        prefix + base_->ListOf(target_list_).size() / 2 + next_list_size;
  } else if (spec_.kind == FaultKind::kDuplicatePair) {
    // The second (duplicate) delivery is the offending element.
    fault_position_ = prefix + target_index_ + 1;
  } else {
    fault_position_ = prefix + target_index_;
  }
}

}  // namespace stream
}  // namespace cyclestream
