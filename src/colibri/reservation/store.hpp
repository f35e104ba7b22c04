// One ReservationDb shard's record store, with the expiry index that
// makes its sweep cost grow with what is due rather than with its size.
//
// Every reservation has an explicit deadline (EERs live 16 s, SegRs about
// 5 min, §3.2-3.3), so each record is filed in the `ExpiryIndex` under
// one deadline second and a sweep pops only the seconds due by `now`.
//
// Invariant (held under the owning shard's lock): every stored record is
// filed exactly once, at a second no later than its deadline. Renewals
// in place only extend a deadline, so the entry stays where it is and
// costs nothing; the sweep that pops it re-checks the record and
// re-files it at its current deadline. An update that may move a
// deadline earlier goes through `edit()`, whose handle re-files the
// record when it is released. `deadline(const Rec&)` (types.hpp) is the
// rule: a record is removed once its deadline is at or before `now`.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "colibri/reservation/types.hpp"

namespace colibri::reservation {

// Maps a deadline second to the nodes filed under it. `Node` carries the
// two fields the index owns: `filed` (the second) and `slot` (the node's
// position in that second's bucket, for O(1) removal). A bucket is a
// deque: it grows in fixed-size chunks, so a cohort filed in one second
// never reallocates and copies one large array.
template <typename Node>
class ExpiryIndex {
 public:
  void file(Node* n, UnixSec at) {
    // Records filed together mostly share a second (a sweep re-files a
    // renewal cohort; setups made in one second expire in one second).
    if (last_ == nullptr || last_at_ != at) {
      last_ = &buckets_[at];
      last_at_ = at;
    }
    std::deque<Node*>& bucket = *last_;
    n->filed = at;
    n->slot = static_cast<std::uint32_t>(bucket.size());
    bucket.push_back(n);
  }

  void unfile(Node* n) {
    const auto it = buckets_.find(n->filed);
    std::deque<Node*>& bucket = it->second;
    Node* last = bucket.back();
    bucket[n->slot] = last;
    last->slot = n->slot;
    bucket.pop_back();
    if (bucket.empty()) {
      buckets_.erase(it);
      last_ = nullptr;
    }
  }

  // Moves every node filed at or before `now` into `out`; they are no
  // longer filed.
  void pop_due(UnixSec now, std::vector<Node*>& out) {
    auto it = buckets_.begin();
    for (; it != buckets_.end() && it->first <= now; ++it) {
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
    buckets_.erase(buckets_.begin(), it);
    last_ = nullptr;
  }

 private:
  std::map<UnixSec, std::deque<Node*>> buckets_;
  std::deque<Node*>* last_ = nullptr;  // the bucket of second last_at_
  UnixSec last_at_ = 0;
};

template <typename Rec>
class RecordStore {
  struct Node;

 public:
  // Mutable access to one record for an in-place update. Releasing the
  // handle re-files the record if the update moved its deadline before
  // the second it is filed under.
  class Edit {
   public:
    Edit(const Edit&) = delete;
    Edit& operator=(const Edit&) = delete;
    ~Edit() {
      if (node_ != nullptr) store_->refile_if_earlier(*node_);
    }
    Rec* get() const { return node_ == nullptr ? nullptr : &node_->rec; }

   private:
    friend class RecordStore;
    Edit(RecordStore* store, Node* node) : store_(store), node_(node) {}
    RecordStore* store_;
    Node* node_;
  };

  // Inserts or replaces. Returns a stable pointer (records never move);
  // a later change through it that moves the deadline earlier must go
  // through edit() instead.
  Rec* upsert(Rec rec) {
    auto it = records_.find(rec.key);
    if (it != records_.end()) {
      Node& n = *it->second;
      n.rec = std::move(rec);
      refile_if_earlier(n);
      return &n.rec;
    }
    auto owned = std::make_unique<Node>(std::move(rec));
    Node* n = owned.get();
    records_.emplace(n->rec.key, std::move(owned));
    index_.file(n, deadline(n->rec));
    return &n->rec;
  }

  const Rec* find(const ResKey& key) const {
    auto it = records_.find(key);
    return it == records_.end() ? nullptr : &it->second->rec;
  }

  Edit edit(const ResKey& key) {
    auto it = records_.find(key);
    return Edit(this, it == records_.end() ? nullptr : it->second.get());
  }

  bool erase(const ResKey& key) {
    auto it = records_.find(key);
    if (it == records_.end()) return false;
    index_.unfile(it->second.get());
    records_.erase(it);
    return true;
  }

  // Removes every record whose deadline is at or before `now`, handing
  // each to `on_remove` (as an rvalue: it is erased right after) in
  // canonical (deadline, src_as, res_id) order. Only the index entries
  // due by `now` are examined; their count is added to `*examined`.
  size_t sweep(UnixSec now, const std::function<void(Rec&&)>& on_remove,
               size_t* examined = nullptr) {
    std::vector<Node*> due;
    index_.pop_due(now, due);
    if (examined != nullptr) *examined += due.size();
    std::vector<std::pair<UnixSec, Node*>> expired;
    // The popped nodes are scattered over the heap: look ahead, warming
    // a node and then the lines its deadline() reads.
    constexpr size_t kAhead = 8;
    for (size_t i = 0; i < due.size(); ++i) {
      if (i + kAhead < due.size()) __builtin_prefetch(&due[i + kAhead]->rec);
      if (i + kAhead / 2 < due.size()) {
        prefetch_deadline(due[i + kAhead / 2]->rec);
      }
      Node* n = due[i];
      const UnixSec d = deadline(n->rec);
      if (d > now) {
        index_.file(n, d);  // renewed since it was filed
      } else {
        expired.emplace_back(d, n);
      }
    }
    std::sort(expired.begin(), expired.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first < b.first
                                : a.second->rec.key < b.second->rec.key;
    });
    for (const auto& [_, n] : expired) {
      const ResKey key = n->rec.key;
      if (on_remove) on_remove(std::move(n->rec));
      records_.erase(key);
    }
    return expired.size();
  }

  size_t size() const { return records_.size(); }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [_, n] : records_) fn(n->rec);
  }

 private:
  struct Node {
    explicit Node(Rec r) : rec(std::move(r)) {}
    Rec rec;
    UnixSec filed = 0;
    std::uint32_t slot = 0;
  };

  void refile_if_earlier(Node& n) {
    const UnixSec d = deadline(n.rec);
    if (d >= n.filed) return;
    index_.unfile(&n);
    index_.file(&n, d);
  }

  std::unordered_map<ResKey, std::unique_ptr<Node>> records_;
  ExpiryIndex<Node> index_;
};

}  // namespace colibri::reservation
