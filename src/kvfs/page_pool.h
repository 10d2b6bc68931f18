// Tiered, reference-counted page storage for KV tensors.
//
// The pool virtualizes two memory tiers — device HBM and host DRAM — with
// fixed page budgets derived from the hardware config. Pages are refcounted
// so kv_fork can share pages copy-on-write; a write to a shared page goes
// through EnsureExclusive(), which transparently copies it.
//
// Like an OS frame table, the pool also knows who holds each page. A holder
// (one KvFileData) gets its id from NewHolder(); every page reference names
// its holder, each page lists its holders, and the pool keeps per-holder
// GPU/host page counts. MoveToTier() updates the counts of every
// holder of the page, so a file's residency stays exact when a copy-on-write
// sibling moves a shared page, and HolderPages() is O(1).
//
// Each holder is charged to an account (the owning LIP of its file) fixed
// at NewHolder(). The pool counts every page reference against its holder's
// account, so AccountPageRefs() is the per-LIP page usage that quotas read.
//
// The pool is mechanism only. Which file to evict, and whether eviction means
// offload-to-host or drop, is policy owned by Kvfs.
#ifndef SRC_KVFS_PAGE_POOL_H_
#define SRC_KVFS_PAGE_POOL_H_

#include <array>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/kvfs/types.h"

namespace symphony {

using HolderId = uint32_t;
// No holder: what a moved-from KvFileData is left with.
inline constexpr HolderId kNoHolder = std::numeric_limits<HolderId>::max();

struct PagePoolStats {
  uint64_t gpu_pages_used = 0;
  uint64_t host_pages_used = 0;
  uint64_t cow_copies = 0;        // Pages copied by EnsureExclusive.
  uint64_t allocations = 0;
  uint64_t frees = 0;
  uint64_t tier_moves = 0;        // Offloads + restores.
};

class PagePool {
 public:
  // Budgets are in pages per tier.
  PagePool(uint64_t gpu_page_budget, uint64_t host_page_budget);

  PagePool(const PagePool&) = delete;
  PagePool& operator=(const PagePool&) = delete;

  // Returns a fresh holder id with no pages, charged to `account`.
  HolderId NewHolder(LipId account = kNoLip);

  // Retires a holder, which must no longer hold any page.
  void FreeHolder(HolderId holder);

  // Pages `holder` references in `tier`. O(1).
  uint64_t HolderPages(HolderId holder, Tier tier) const {
    return holders_[holder].pages[static_cast<size_t>(tier)];
  }

  // Page references held by the holders charged to `account`. O(1).
  uint64_t AccountPageRefs(LipId account) const;

  // Holder ids currently issued and not yet freed.
  uint64_t live_holders() const { return holders_.size() - free_holders_.size(); }

  // Allocates an empty page in `tier` with refcount 1, held by `holder`.
  StatusOr<PageId> Allocate(Tier tier, HolderId holder);

  // Increments the sharing count (kv_fork) on behalf of `holder`.
  void Ref(PageId id, HolderId holder);

  // Drops `holder`'s reference; frees the page when the count reaches zero.
  void Unref(PageId id, HolderId holder);

  // Returns `id` if exclusively owned, otherwise allocates a copy in the same
  // tier, moves `holder`'s reference to it, and returns the copy.
  StatusOr<PageId> EnsureExclusive(PageId id, HolderId holder);

  // Moves a page between tiers (accounting only; the caller charges transfer
  // time) and updates the counts of every holder of the page. Fails with
  // kResourceExhausted if the target tier is full.
  Status MoveToTier(PageId id, Tier tier);

  // Record access (mutable interface used by files).
  TokenRecord* MutableRecords(PageId id);
  const TokenRecord* Records(PageId id) const;

  uint32_t used(PageId id) const;
  void set_used(PageId id, uint32_t used);
  uint32_t refcount(PageId id) const;
  Tier tier(PageId id) const;

  uint64_t gpu_pages_free() const { return gpu_budget_ - stats_.gpu_pages_used; }
  const PagePoolStats& stats() const { return stats_; }

 private:
  struct PageMeta {
    std::array<TokenRecord, kPageTokens> records;
    uint32_t used = 0;
    Tier tier = Tier::kGpu;
    // The holder of each reference: its length is the refcount, and a page
    // is live while it is non-empty.
    std::vector<HolderId> holders;
  };
  struct HolderMeta {
    std::array<uint64_t, 2> pages{};  // [tier]
    // The account's entry in account_refs_; node-based, so it stays put.
    uint64_t* account_refs = nullptr;
  };

  PageMeta& Meta(PageId id);
  const PageMeta& Meta(PageId id) const;
  uint64_t& TierUsage(Tier tier);
  void AddHolder(PageMeta& meta, HolderId holder);
  void RemoveHolder(PageMeta& meta, HolderId holder);

  uint64_t gpu_budget_;
  uint64_t host_budget_;
  std::vector<PageMeta> pages_;
  std::vector<PageId> free_list_;
  std::vector<HolderMeta> holders_;
  std::vector<HolderId> free_holders_;
  std::unordered_map<LipId, uint64_t> account_refs_;
  PagePoolStats stats_;
};

}  // namespace symphony

#endif  // SRC_KVFS_PAGE_POOL_H_
