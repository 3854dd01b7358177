#include "group/membership.h"

namespace pa::group {

const char* member_state_name(MemberState s) {
  switch (s) {
    case MemberState::kJoined:
      return "joined";
    case MemberState::kSuspect:
      return "suspect";
    case MemberState::kLeft:
      return "left";
  }
  return "?";
}

void GroupView::join(MemberId m, std::uint8_t priority) {
  Member& mb = members_[m];
  mb.state = MemberState::kJoined;
  mb.priority = priority;
  ++stats_.joins;
  bump_epoch();
}

void GroupView::leave(MemberId m) {
  Member* mb = find(m);
  if (mb == nullptr || mb->state == MemberState::kLeft) return;
  mb->state = MemberState::kLeft;
  ++stats_.leaves;
  bump_epoch();
}

void GroupView::suspect(MemberId m) {
  Member* mb = find(m);
  if (mb == nullptr || mb->state != MemberState::kJoined) return;
  mb->state = MemberState::kSuspect;
  ++stats_.suspects;
  bump_epoch();
}

void GroupView::restore(MemberId m) {
  Member* mb = find(m);
  if (mb == nullptr || mb->state != MemberState::kSuspect) return;
  mb->state = MemberState::kJoined;
  ++stats_.restores;
  bump_epoch();
}

Member* GroupView::find(MemberId m) {
  auto it = members_.find(m);
  return it == members_.end() ? nullptr : &it->second;
}

const Member* GroupView::find(MemberId m) const {
  auto it = members_.find(m);
  return it == members_.end() ? nullptr : &it->second;
}

std::size_t GroupView::joined_count() const {
  std::size_t n = 0;
  for (const auto& [id, mb] : members_) {
    if (mb.state == MemberState::kJoined) ++n;
  }
  return n;
}

std::uint32_t GroupView::digest() const {
  // Commutative: sum of per-member mixes. splitmix-style finalizer keeps a
  // single state flip from cancelling against another member's.
  std::uint64_t acc = 0;
  for (const auto& [id, mb] : members_) {
    std::uint64_t x = (static_cast<std::uint64_t>(id) << 16) |
                      (static_cast<std::uint64_t>(mb.state) << 8) |
                      mb.priority;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    acc += x;
  }
  std::uint32_t d = static_cast<std::uint32_t>(acc ^ (acc >> 32));
  // 0 is the "no gossip seen" sentinel on the wire; avoid emitting it.
  return d == 0 ? 1 : d;
}

std::optional<std::uint32_t> GroupView::stability() const {
  std::optional<std::uint32_t> s;
  for (const auto& [id, mb] : members_) {
    if (mb.state != MemberState::kJoined) continue;
    if (!mb.has_ack) return std::nullopt;
    s = s ? std::min(*s, mb.acked) : mb.acked;
  }
  return s;
}

bool GroupView::converged() const {
  const std::uint32_t d = digest();
  for (const auto& [id, mb] : members_) {
    if (mb.state != MemberState::kJoined) continue;
    if (mb.epoch_echoed != epoch_ || mb.digest_echoed != d) return false;
  }
  return true;
}

GroupView::ViewSnapshot GroupView::snapshot() const {
  ViewSnapshot s;
  s.id = id_;
  s.epoch = epoch_;
  s.members.reserve(members_.size());
  for (const auto& [id, mb] : members_) {
    s.members.push_back({id, mb.state, mb.priority});
  }
  return s;
}

bool GroupView::divergent(std::uint16_t echoed_epoch,
                          std::uint32_t echoed_digest) const {
  if (echoed_epoch == 0 && echoed_digest == 0) return false;  // no info
  if (echoed_epoch > epoch_) return true;  // a view we never issued
  return echoed_epoch == epoch_ && echoed_digest != digest();
}

GroupView::MergeReport GroupView::merge(const ViewSnapshot& other) {
  MergeReport r;
  // "More cautious wins" on an epoch tie: the enum is ordered
  // joined < suspect < left, so numeric max is the cautious choice. This
  // tie-break (plus max-priority) is what makes the merge commutative.
  const bool other_wins = other.epoch > epoch_;
  for (const MemberSnapshot& om : other.members) {
    auto it = members_.find(om.id);
    if (it == members_.end()) {
      Member mb;
      mb.state = om.state;
      mb.priority = om.priority;
      members_.emplace(om.id, mb);
      ++r.added;
      r.changed = true;
      continue;
    }
    Member& mine = it->second;
    if (mine.state == om.state && mine.priority == om.priority) continue;
    ++r.conflicts;
    MemberState resolved;
    std::uint8_t prio;
    if (other.epoch == epoch_) {
      resolved = std::max(mine.state, om.state);
      prio = std::max(mine.priority, om.priority);
    } else {
      resolved = other_wins ? om.state : mine.state;
      prio = other_wins ? om.priority : mine.priority;
    }
    if (mine.state != resolved || mine.priority != prio) {
      mine.state = resolved;
      mine.priority = prio;
      // The other clique's verdict supersedes our gossip bookkeeping for
      // this member: force a fresh echo/ack cycle under the merged epoch.
      mine.epoch_echoed = 0;
      mine.digest_echoed = 0;
      r.changed = true;
    }
  }
  const std::uint16_t top = std::max(epoch_, other.epoch);
  // Changed content supersedes both inputs; identical content just adopts
  // the higher epoch so the two sides stop re-triggering divergence.
  epoch_ = r.changed ? static_cast<std::uint16_t>(top + 1) : top;
  for (const auto& [id, mb] : members_) {
    if (mb.state == MemberState::kSuspect) r.reprobe.push_back(id);
  }
  ++stats_.merges;
  return r;
}

void GroupView::note_ack(MemberId m, std::uint32_t acked) {
  Member* mb = find(m);
  if (mb == nullptr) return;
  if (!mb->has_ack || acked > mb->acked) {
    mb->has_ack = true;
    mb->acked = acked;
  }
}

void GroupView::note_echo(MemberId m, std::uint16_t epoch,
                          std::uint32_t digest) {
  Member* mb = find(m);
  if (mb == nullptr) return;
  // Epochs only move forward; a reordered stale echo must not regress the
  // convergence bookkeeping (out-of-date gossip is harmless, paper §2.1).
  if (epoch < mb->epoch_echoed) return;
  mb->epoch_echoed = epoch;
  mb->digest_echoed = digest;
}

}  // namespace pa::group
