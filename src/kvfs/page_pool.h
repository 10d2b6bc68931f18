// Tiered, reference-counted page storage for KV tensors.
//
// The pool virtualizes two memory tiers — device HBM and host DRAM — with
// fixed page budgets derived from the hardware config. Pages are refcounted
// so kv_fork can share pages copy-on-write; a write to a shared page goes
// through EnsureExclusive(), which transparently copies it.
//
// The pool is mechanism only. Which page to evict, and whether eviction means
// offload-to-host or drop, is policy owned by Kvfs/eviction.
#ifndef SRC_KVFS_PAGE_POOL_H_
#define SRC_KVFS_PAGE_POOL_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/kvfs/types.h"

namespace symphony {

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

  // Allocates an empty page in `tier` with refcount 1.
  StatusOr<PageId> Allocate(Tier tier);

  // Increments the sharing count (kv_fork).
  void Ref(PageId id);

  // Decrements; frees the page when the count reaches zero.
  void Unref(PageId id);

  // Returns `id` if exclusively owned, otherwise allocates a copy in the same
  // tier, moves one reference to it, and returns the copy.
  StatusOr<PageId> EnsureExclusive(PageId id);

  // Moves a page between tiers (accounting only; the caller charges transfer
  // time). Fails with kResourceExhausted if the target tier is full.
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
    uint32_t refcount = 0;
    Tier tier = Tier::kGpu;
    bool live = false;
  };

  PageMeta& Meta(PageId id);
  const PageMeta& Meta(PageId id) const;
  uint64_t& TierUsage(Tier tier);

  uint64_t gpu_budget_;
  uint64_t host_budget_;
  std::vector<PageMeta> pages_;
  std::vector<PageId> free_list_;
  PagePoolStats stats_;
};

}  // namespace symphony

#endif  // SRC_KVFS_PAGE_POOL_H_
