// Group membership: epoch-versioned member views (Horus's core abstraction).
//
// A GroupView is one group's membership as seen by its coordinator (the
// multicast sender in this reproduction): a map of members, each in one of
// three states (joined / suspect / left), versioned by an epoch that bumps
// on every transition. The view is summarized by a commutative 32-bit
// digest; the digest and epoch ride the gossip header class on every frame
// (src/group/gossip_layer.h), so members learn of view changes from traffic
// they were receiving anyway — the paper's rule that gossip must be cheap
// to stamp and harmless when stale (§2.1) is what makes this free.
//
// The view also accumulates *stability*: per-member highest-delivered group
// seqno (piggybacked the same way, in the reverse direction), whose minimum
// over joined members is the group-stable seqno — everything at or below it
// may be garbage-collected by the sender.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "util/stat_fields.h"

namespace pa::group {

using GroupId = std::uint64_t;
using MemberId = std::uint16_t;

enum class MemberState : std::uint8_t { kJoined, kSuspect, kLeft };

const char* member_state_name(MemberState s);

struct Member {
  MemberState state = MemberState::kJoined;
  std::uint8_t priority = 1;  // 0 = low: its liveness beacons are shed first
  // gossip bookkeeping (what we have heard FROM this member; arrival times
  // live in the health plane, src/health/plane.h)
  bool has_ack = false;
  std::uint32_t acked = 0;        // highest group seq the member delivered
  std::uint16_t epoch_echoed = 0; // view epoch the member last echoed back
  std::uint32_t digest_echoed = 0;
};

// GroupView::Stats, one row per field (util/stat_fields.h): the view's
// transitions, each counted where it happens — a no-op call (leaving a
// member already left) counts nothing.
#define PA_VIEW_STATS(X)                                                       \
  X(std::uint64_t, joins, "joins_total", "", "member join transitions")        \
  X(std::uint64_t, leaves, "leaves_total", "", "member leave transitions")     \
  X(std::uint64_t, suspects, "suspects_total", "",                             \
    "member joined->suspect transitions")                                      \
  X(std::uint64_t, restores, "restores_total", "",                             \
    "member suspect->joined transitions")                                      \
  X(std::uint64_t, merges, "merges_total", "",                                 \
    "partition-heal view merges applied")

/// One group's epoch-versioned membership view. Single-threaded: owned and
/// mutated by the group coordinator's post-phase work.
class GroupView {
 public:
  explicit GroupView(GroupId id) : id_(id) {}

  GroupId id() const { return id_; }
  std::uint16_t epoch() const { return epoch_; }

  // --- transitions (each bumps the epoch) --------------------------------
  void join(MemberId m, std::uint8_t priority = 1);
  void leave(MemberId m);
  void suspect(MemberId m);
  void restore(MemberId m);  // suspect -> joined (heard from it again)

  const std::map<MemberId, Member>& members() const { return members_; }
  Member* find(MemberId m);
  const Member* find(MemberId m) const;
  std::size_t joined_count() const;

  /// Commutative 32-bit digest over (member, state, priority) — insertion
  /// order never matters, so two views that agree member-for-member agree
  /// on the digest. The epoch travels separately (it orders digests).
  std::uint32_t digest() const;

  /// Group-stable seqno: min acked over joined members (nullopt until every
  /// joined member has reported at least one ack). Suspected members do not
  /// hold stability back — their acks resume counting on restore.
  std::optional<std::uint32_t> stability() const;

  /// True when every joined member has echoed the current epoch + digest —
  /// the convergence condition the churn chaos test asserts.
  bool converged() const;

  // --- partition healing -------------------------------------------------
  // A partition splits a group into cliques that keep evolving their own
  // views (each side suspects the other's members and bumps its own
  // epoch). On re-contact the cliques must reconcile into ONE view, the
  // same one regardless of which side merges first.

  /// A portable copy of one view's membership (what a view-transfer
  /// message would carry on the wire).
  struct MemberSnapshot {
    MemberId id;
    MemberState state;
    std::uint8_t priority;
  };
  struct ViewSnapshot {
    GroupId id = 0;
    std::uint16_t epoch = 0;
    std::vector<MemberSnapshot> members;  // sorted by id (map order)
  };
  ViewSnapshot snapshot() const;

  /// Divergence check against an echoed (epoch, digest) pair: a peer
  /// echoing an epoch AHEAD of ours, or our own epoch with a different
  /// digest, has a view we never issued — a healed partition's other
  /// clique. note_echo() tolerates these (gossip must be harmless when
  /// stale, §2.1); divergent() is how the owner notices and triggers a
  /// snapshot exchange + merge().
  bool divergent(std::uint16_t echoed_epoch, std::uint32_t echoed_digest) const;

  struct MergeReport {
    bool changed = false;            // any member entry differed
    std::size_t added = 0;           // members we had never seen
    std::size_t conflicts = 0;       // entries where the states disagreed
    std::vector<MemberId> reprobe;   // suspects in the merged view
  };

  /// Deterministically merge a diverged clique's view into this one:
  ///   - membership is the union of both sides;
  ///   - conflicting entries resolve toward the higher-epoch view
  ///     (max-epoch wins); on an epoch tie the more cautious state wins
  ///     (left > suspect > joined), which makes the merge commutative —
  ///     both sides converge on the same member table and digest;
  ///   - the merged epoch is max(epochs) + 1, so the merged view
  ///     supersedes both inputs when it gossips out;
  ///   - every suspect in the merged view is listed for re-probing (the
  ///     health plane re-judges them; stale suspicions must not stick);
  ///   - stability recomputes naturally: members adopted from the other
  ///     side start with no ack state and must report again.
  MergeReport merge(const ViewSnapshot& other);

  // --- gossip bookkeeping (no epoch bump) --------------------------------
  void note_ack(MemberId m, std::uint32_t acked);  // monotonic max
  void note_echo(MemberId m, std::uint16_t epoch, std::uint32_t digest);

  struct Stats {
    static constexpr const char* kMetricPrefix = "group";
    PA_STAT_FIELDS(PA_VIEW_STATS)
  };
  const Stats& stats() const { return stats_; }

 private:
  void bump_epoch() { ++epoch_; }

  GroupId id_;
  std::uint16_t epoch_ = 0;
  std::map<MemberId, Member> members_;
  Stats stats_;
};

}  // namespace pa::group
